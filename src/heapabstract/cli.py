"""Command-line front end: parse, abstract, check, validate, export.

Exit codes are stable:
  0  success
  1  a check failed (invalid witness, or no witness exists)
  2  input error (unreadable file, bad document, invalid component)
  3  internal invariant breach

Data goes to stdout or --out; diagnostics go to stderr.  Identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

from . import __version__
from .abstraction import abstract_component
from .classify import node_classes
from .errors import (
    BudgetExceededError,
    DocumentError,
    InternalInvariantError,
    InvalidComponentError,
    ParseError,
)
from .formats import (
    export_dot,
    parse_heap,
    parse_witnesses,
    serialize_heap,
    serialize_witnesses,
)
from .model import ComponentIndex, Heap, validate_component
from .witness import check_valid_abstraction, find_witness_bruteforce

OK = 0
CHECK_FAILED = 1
INPUT_ERROR = 2
INTERNAL_ERROR = 3


def _read(path: str) -> str:
    # JSON text is UTF-8 (RFC 8259 8.1); read() decodes the whole file, so exc.start is its offset.
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                "InvalidJson", f"input is not UTF-8 ({exc.reason})", f"byte {exc.start}"
            ) from None


def _emit_all(outputs):
    """Write ``(render, path)`` outputs, a None path meaning stdout, all or none.

    A missing or regular-file path is staged: ``render()`` goes to a temporary
    file beside it, given the file's mode, and every staged file is renamed
    into place once all are written.  Any other path (a device, a FIFO, a
    symlink such as /dev/stdout) is opened, without truncating it, before
    staging begins, and written, like stdout, after the renames.
    """
    pending, staged, direct = [], [], []
    with contextlib.ExitStack() as opened:
        try:
            for k, (render, path) in enumerate(outputs):
                st = os.lstat(path) if path and os.path.lexists(path) else None
                if path and (st is None or stat.S_ISREG(st.st_mode)):
                    pending.append((render, f"{path}.{os.getpid()}.{k}.tmp", path, st))
                elif path:
                    handle = open(path, "a", encoding="utf-8", newline="")
                    direct.append((render, opened.enter_context(handle)))
                else:
                    direct.append((render, sys.stdout))
            for render, tmp, path, st in pending:
                with open(tmp, "x", encoding="utf-8", newline="") as handle:
                    staged.append((tmp, path))
                    if st:
                        os.chmod(tmp, stat.S_IMODE(st.st_mode))
                    handle.write(render())
            while staged:
                os.replace(*staged[0])
                del staged[0]
        finally:
            for tmp, _ in staged:
                os.remove(tmp)
        for render, handle in direct:
            if handle is not sys.stdout and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate(0)
            handle.write(render())


def _load_heap(path: str) -> Heap:
    return parse_heap(_read(path))


def _print_validation(findings, stream):
    for i, v in findings:
        print(f"component {i}: {v.code}: {v.detail}", file=stream)


def _cmd_abstract(args) -> int:
    heap = _load_heap(args.heap)
    findings, results = [], []
    for i, comp in enumerate(heap.components):
        try:
            results.append(abstract_component(comp))
        except InvalidComponentError as exc:
            findings.extend((i, v) for v in exc.violations)
    if findings:
        _print_validation(findings, sys.stderr)
        return INPUT_ERROR
    out_heap = Heap(tuple(r.output for r in results))

    # The produced certificates are re-checked before anything is written;
    # a failure here is a bug in the abstractor, not in the input.
    for i, r in enumerate(results):
        bad = check_valid_abstraction(heap.components[i], r.output, r.witness)
        if bad:
            raise InternalInvariantError(f"component {i} produced an invalid witness: {bad}")

    if args.stats:
        for i, r in enumerate(results):
            before = heap.components[i]
            print(
                f"component {i}: {before.layout.value}"
                f" nodes {len(before.nodes)} -> {len(r.output.nodes)}"
                f" edges {len(before.edges)} -> {len(r.output.edges)}"
                f" merges {len(r.merge_log)}",
                file=sys.stderr,
            )
    outputs = [(lambda: serialize_heap(out_heap), args.out)]
    if args.witness:
        outputs.append((lambda: serialize_witnesses([r.witness for r in results]), args.witness))
    _emit_all(outputs)
    return OK


def _cmd_classify(args) -> int:
    heap = _load_heap(args.heap)
    findings, classified = [], []
    for i, comp in enumerate(heap.components):
        index = ComponentIndex(comp)
        findings.extend((i, v) for v in validate_component(comp, index))
        if not findings:
            classified.append(node_classes(comp, index))
    if findings:
        _print_validation(findings, sys.stderr)
        return INPUT_ERROR
    lines = []
    for i, (comp, classes) in enumerate(zip(heap.components, classified)):
        for n in sorted(comp.nodes):
            k = classes[n]
            reasons = ",".join(r.value for r in k.reasons)
            label = "special" if k.special else "ordinary"
            lines.append(f"component {i} {n} {label}" + (f" [{reasons}]" if reasons else ""))
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return OK


def _paired_components(source: Heap, target: Heap, extra=None):
    counts = {len(source.components), len(target.components)}
    if extra is not None:
        counts.add(len(extra))
    if len(counts) != 1:
        print("error: component counts differ between inputs", file=sys.stderr)
        return None
    return list(zip(source.components, target.components))


def _cmd_check_witness(args) -> int:
    source = _load_heap(args.source)
    target = _load_heap(args.target)
    witnesses = parse_witnesses(_read(args.witness))
    pairs = _paired_components(source, target, witnesses)
    if pairs is None:
        return INPUT_ERROR
    checks = (check_valid_abstraction(src, tgt, w) for (src, tgt), w in zip(pairs, witnesses))
    findings = [(i, v) for i, violations in enumerate(checks) for v in violations]
    _print_validation(findings, sys.stdout)
    return CHECK_FAILED if findings else OK


def _cmd_check_valid(args) -> int:
    source = _load_heap(args.source)
    target = _load_heap(args.target)
    pairs = _paired_components(source, target)
    if pairs is None:
        return INPUT_ERROR
    missing = False
    for i, (src, tgt) in enumerate(pairs):
        found = find_witness_bruteforce(src, tgt, node_budget=args.budget)
        if found is None:
            missing = True
            print(f"component {i}: no witness")
        else:
            print(f"component {i}: witness found")
    return CHECK_FAILED if missing else OK


def _cmd_validate(args) -> int:
    heap = _load_heap(args.heap)
    findings = [(i, v) for i, comp in enumerate(heap.components) for v in validate_component(comp)]
    if findings:
        _print_validation(findings, sys.stdout)
        return INPUT_ERROR
    print("ok")
    return OK


def _cmd_export_dot(args) -> int:
    heap = _load_heap(args.heap)
    _emit_all([(lambda: export_dot(heap), args.out)])
    return OK


def _output_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must name a file")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heapabstract",
        description="Group logically related regions of heap components into compact abstractions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("abstract", help="abstract every component of a heap")
    p.add_argument("heap")
    p.add_argument(
        "--out", type=_output_path, help="write the abstract heap here instead of stdout"
    )
    p.add_argument("--witness", type=_output_path, help="write the witnesses document here")
    p.add_argument("--stats", action="store_true", help="print per-component merge stats")
    p.set_defaults(handler=_cmd_abstract)

    p = sub.add_parser("classify", help="print each node's class and reasons")
    p.add_argument("heap")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("check-witness", help="check a witness document against two heaps")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("witness")
    p.set_defaults(handler=_cmd_check_witness)

    p = sub.add_parser("check-valid", help="search exhaustively for a witness")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--budget", type=int, default=8, help="max source nodes per component")
    p.set_defaults(handler=_cmd_check_valid)

    p = sub.add_parser("validate", help="check heap well-formedness")
    p.add_argument("heap")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("export-dot", help="render a heap as a Graphviz document")
    p.add_argument("heap")
    p.add_argument("--out", type=_output_path, help="write the DOT document here instead of stdout")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def run(argv=None) -> int:
    """Run the CLI and return its exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return OK if exc.code in (0, None) else INPUT_ERROR
    try:
        return args.handler(args)
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except BudgetExceededError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except InternalInvariantError as exc:
        print(f"internal error: {exc.code}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except Exception as exc:  # noqa: BLE001  - anything else is a bug in us
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
