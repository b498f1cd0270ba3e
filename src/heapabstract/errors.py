"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` so callers (and the
CLI) can branch on it without string matching on messages.
"""


class HeapAbstractError(Exception):
    """Base class for all errors raised by this package."""

    code = "Error"


class UnknownNodeError(HeapAbstractError):
    code = "UnknownNode"


class SameNodeError(HeapAbstractError):
    code = "SameNode"


class LayoutMismatchError(HeapAbstractError):
    code = "LayoutMismatch"


class UnreachableNodeError(HeapAbstractError):
    code = "UnreachableNode"


class EmptyComponentError(HeapAbstractError):
    code = "EmptyComponent"


class BudgetExceededError(HeapAbstractError):
    code = "BudgetExceeded"


class DomainMismatchError(HeapAbstractError):
    code = "DomainMismatch"


class InternalInvariantError(HeapAbstractError):
    """The library broke one of its own guarantees: a bug, not an input problem."""

    code = "InternalInvariant"


class InvalidComponentError(HeapAbstractError):
    """A component failed validation where a valid one was required."""

    code = "InvalidComponent"

    def __init__(self, violations, index=None):
        self.violations = list(violations)
        self.index = index
        where = "component" if index is None else f"component {index}"
        codes = ", ".join(v.code for v in self.violations)
        super().__init__(f"{where} is not valid: {codes}")


class DocumentError(HeapAbstractError):
    """Base for errors raised while reading heap or witness documents.

    ``location`` is a JSON-path-like string ("$.components[0].nodes[2]") or,
    for syntax errors, a "line L column C" position.
    """

    def __init__(self, code, message, location="$"):
        self.code = code
        self.location = location
        super().__init__(f"{code} at {location}: {message}")


class ParseError(DocumentError):
    """The input is not well-formed JSON."""


class SchemaError(DocumentError):
    """The JSON is well-formed but does not match the document schema."""


class ModelError(DocumentError):
    """The document is schematically fine but violates a model invariant."""
