"""Command-line front end: parse, abstract, check, validate, export.

Exit codes are stable:
  0  success
  1  a check failed (invalid witness, or no witness exists)
  2  input error (unreadable file, bad document, invalid component, out of
     memory, a closed or failing stdout or output file)
  3  internal invariant breach

Data goes to stdout or --out; diagnostics go to stderr, and a closed or
failing stderr changes neither the data nor the exit status.  Identical
inputs produce byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import gc
import os
import stat
import sys
from types import SimpleNamespace

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
from .formats import _heap_chunks, _witness_chunks, export_dot, parse_heap, parse_witnesses
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
    """Write ``(chunks, path)`` outputs, a None path meaning stdout.

    ``chunks`` is a lazy iterable of strings, each written as it comes.  A
    missing or regular-file path is staged: the chunks go to a temporary
    file beside it, given the file's mode, and every staged file is renamed
    into place once all are written, so these are written all or none.  Any
    other path (a device, a FIFO, a symlink such as /dev/stdout) is opened,
    without truncating it, before staging begins, and written, like stdout,
    after the renames, and flushed; a failed write can leave part of its
    document there.
    """
    pending, staged, direct = [], [], []
    with contextlib.ExitStack() as opened:
        try:
            for k, (chunks, path) in enumerate(outputs):
                st = os.lstat(path) if path and os.path.lexists(path) else None
                if path and (st is None or stat.S_ISREG(st.st_mode)):
                    pending.append((chunks, f"{path}.{os.getpid()}.{k}.tmp", path, st))
                elif path:
                    handle = open(path, "a", encoding="utf-8", newline="")
                    direct.append((chunks, opened.enter_context(handle)))
                elif sys.stdout is None:
                    raise OSError("StdoutClosed: standard output is closed")
                else:
                    direct.append((chunks, sys.stdout))
            for chunks, tmp, path, st in pending:
                with open(tmp, "x", encoding="utf-8", newline="") as handle:
                    staged.append((tmp, path))
                    if st:
                        os.chmod(tmp, stat.S_IMODE(st.st_mode))
                    handle.writelines(chunks)
            while staged:
                os.replace(*staged[0])
                del staged[0]
        finally:
            for tmp, _ in staged:
                os.remove(tmp)
        for chunks, handle in direct:
            if handle is not sys.stdout and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate(0)
            handle.writelines(chunks)
            handle.flush()


def _warn(text: str) -> None:
    """Write and flush the diagnostic ``text`` to stderr, or nowhere if it is closed or failing."""
    if sys.stderr is not None:  # None with descriptor 2 closed, where print() writes to stdout
        with contextlib.suppress(OSError, ValueError):  # as on a read-only descriptor 2
            sys.stderr.write(text)
            sys.stderr.flush()


def _stdout(lines: list) -> list:
    """The outputs that write ``lines`` to stdout: none if there are no lines."""
    return [(lines, None)] if lines else []


def _same_file(path: str, other) -> bool:
    """Whether ``path`` names the file ``other`` does: a path, or None for stdout.

    One file is one real path or one (device, inode) pair.
    """
    if other is not None and os.path.realpath(path) == os.path.realpath(other):
        return True
    try:
        st = os.stat(path)
        other_st = os.fstat(sys.stdout.fileno()) if other is None else os.stat(other)
    except (AttributeError, OSError, ValueError):  # a missing file; stdout closed or without fd
        return False
    return os.path.samestat(st, other_st)


def _report(findings) -> list:
    return [f"component {i}: {v.code}: {v.detail}\n" for i, v in findings]


# A command returns its exit status and the (chunks, path) outputs run() writes.
def _cmd_abstract(args):
    if args.witness and _same_file(args.witness, args.out):
        where = "--out" if args.out else "standard output, where the heap goes"
        _warn(f"error: --witness names the same file as {where}\n")
        return INPUT_ERROR, []
    heap = parse_heap(_read(args.heap))
    findings, results = [], []
    for i, comp in enumerate(heap.components):
        try:
            results.append(abstract_component(comp))
        except InvalidComponentError as exc:
            findings.extend((i, v) for v in exc.violations)
    if findings:
        _warn("".join(_report(findings)))
        return INPUT_ERROR, []
    out_heap = Heap(tuple(r.output for r in results))

    # The produced certificates are re-checked before anything is written;
    # a failure here is a bug in the abstractor, not in the input.
    for i, r in enumerate(results):
        bad = check_valid_abstraction(heap.components[i], r.output, r.witness)
        if bad:
            raise InternalInvariantError(f"component {i} produced an invalid witness: {bad}")

    if args.stats:
        for i, (before, r) in enumerate(zip(heap.components, results)):
            _warn(
                f"component {i}: {before.layout.value}"
                f" nodes {len(before.nodes)} -> {len(r.output.nodes)}"
                f" edges {len(before._core)} -> {len(r.output._core)}"
                f" merges {r._merges()}\n"
            )
    outputs = [(_heap_chunks(out_heap), args.out)]
    if args.witness:
        outputs.append((_witness_chunks([r.witness for r in results]), args.witness))
    return OK, outputs


def _cmd_classify(args):
    heap = parse_heap(_read(args.heap))
    findings, classified = [], []
    for i, comp in enumerate(heap.components):
        index = ComponentIndex(comp)
        findings.extend((i, v) for v in validate_component(comp, index))
        if not findings:
            classified.append(node_classes(comp, index))
    if findings:
        _warn("".join(_report(findings)))
        return INPUT_ERROR, []
    lines = []
    for i, classes in enumerate(classified):
        for n, k in classes.items():  # node_classes lists nodes in id order
            reasons = ",".join(r.value for r in k.reasons)
            label = "special" if k.special else "ordinary"
            lines.append(f"component {i} {n} {label}" + (f" [{reasons}]\n" if reasons else "\n"))
    return OK, _stdout(lines)


def _paired_components(source: Heap, target: Heap, *extra):
    if len({len(source.components), len(target.components), *map(len, extra)}) != 1:
        _warn("error: component counts differ between inputs\n")
        return None
    return list(zip(source.components, target.components))


def _cmd_check_witness(args):
    source = parse_heap(_read(args.source))
    target = parse_heap(_read(args.target))
    witnesses = parse_witnesses(_read(args.witness))
    pairs = _paired_components(source, target, witnesses)
    if pairs is None:
        return INPUT_ERROR, []
    checks = (check_valid_abstraction(src, tgt, w) for (src, tgt), w in zip(pairs, witnesses))
    findings = [(i, v) for i, violations in enumerate(checks) for v in violations]
    return (CHECK_FAILED if findings else OK), _stdout(_report(findings))


def _cmd_check_valid(args):
    source = parse_heap(_read(args.source))
    target = parse_heap(_read(args.target))
    pairs = _paired_components(source, target)
    if pairs is None:
        return INPUT_ERROR, []
    found = [find_witness_bruteforce(s, t, node_budget=args.budget) is not None for s, t in pairs]
    lines = [
        f"component {i}: {'witness found' if w else 'no witness'}\n" for i, w in enumerate(found)
    ]
    return (OK if all(found) else CHECK_FAILED), _stdout(lines)


def _cmd_validate(args):
    heap = parse_heap(_read(args.heap))
    findings = [(i, v) for i, comp in enumerate(heap.components) for v in validate_component(comp)]
    return (INPUT_ERROR if findings else OK), [(_report(findings) or ["ok\n"], None)]


def _cmd_export_dot(args):
    heap = parse_heap(_read(args.heap))
    return OK, [([export_dot(heap)], args.out)]


# Each option's value type (None for a flag), default, value name and help;
# each command's handler, positional names, options and summary.
_OPTIONS = {
    "--out": (str, None, " FILE", "write the document here instead of stdout"),
    "--witness": (str, None, " FILE", "write the witnesses document here"),
    "--stats": (None, False, "", "print per-component merge stats"),
    "--budget": (int, 8, " N", "max source nodes per component (default 8)"),
}
COMMANDS = {
    "abstract": (_cmd_abstract, ("heap",), ("--out", "--witness", "--stats"), "abstract a heap"),
    "classify": (_cmd_classify, ("heap",), (), "print each node's class and reasons"),
    "check-witness": (_cmd_check_witness, ("source", "target", "witness"), (), "check witnesses"),
    "check-valid": (_cmd_check_valid, ("source", "target"), ("--budget",), "search for a witness"),
    "validate": (_cmd_validate, ("heap",), (), "check heap well-formedness"),
    "export-dot": (_cmd_export_dot, ("heap",), ("--out",), "render a heap as a DOT document"),
}


def _help() -> str:
    lines = ["usage: heapabstract [--version] COMMAND ARGUMENT...", "commands:"]
    for name, (_, names, options, summary) in COMMANDS.items():
        flags = "".join(f" [{o}{_OPTIONS[o][2]}]" for o in options)
        lines += [f"  {name} {' '.join(names).upper()}{flags}", f"      {summary}"]
    lines += ["options:", *(f"  {o + meta:<16}{text}" for o, (*_, meta, text) in _OPTIONS.items())]
    return "\n".join(lines)


def _parse(argv: list):
    """The arguments of the command ``argv`` names; --help and --version give a ``text``."""
    name = argv[0] if argv else None
    if name in ("-h", "--help", "--version"):
        text = __version__ if name == "--version" else _help()
        return SimpleNamespace(command=name, inputs=(), text=text)
    if name not in COMMANDS:
        raise ValueError(f"unknown command {name!r}" if argv else "no command given")
    _, names, options, _ = COMMANDS[name]
    values, given, rest = {o[2:]: _OPTIONS[o][1] for o in options}, [], iter(argv[1:])
    for arg in rest:  # options (--opt VALUE, --opt=VALUE) mix with positionals until --
        option, eq, value = arg.partition("=")
        if arg in ("-h", "--help"):
            return SimpleNamespace(command=arg, inputs=(), text=_help())
        if arg in ("--", "-") or not arg.startswith("-"):
            given.extend(rest if arg == "--" else [arg])
        elif option not in options or (eq and _OPTIONS[option][0] is None):
            raise ValueError(f"{arg} is not an option of {name}")
        elif (kind := _OPTIONS[option][0]) is None:
            values[option[2:]] = True
        elif not (value := value if eq else next(rest, "")):
            raise ValueError(f"{option} {'must name a file' if kind is str else 'needs a value'}")
        else:
            try:
                values[option[2:]] = kind(value)
            except ValueError:
                raise ValueError(f"{option} needs an int, not {value!r}") from None
    if len(given) != len(names):
        raise ValueError(f"{name} takes {' '.join(names).upper()}, not {len(given)} arguments")
    return SimpleNamespace(command=name, inputs=names, **values, **dict(zip(names, given)))


def run(argv=None) -> int:
    """Run the CLI and return its exit status."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except ValueError as exc:
        _warn(f"error: {exc} (see heapabstract --help)\n")
        return INPUT_ERROR
    # A command builds no cyclic garbage, so cyclic GC is paused while it
    # runs (a tenth to a third of the run at 10^5 nodes); library calls keep it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.command in COMMANDS:
            status, outputs = COMMANDS[args.command][0](args)
        else:  # --help or --version
            status, outputs = OK, [([args.text, "\n"], None)]
        _emit_all(outputs)
        return status
    except (DocumentError, OSError) as exc:
        _warn(f"error: {exc}\n")
        return INPUT_ERROR
    except BudgetExceededError as exc:
        _warn(f"error: {exc.code}: {exc}\n")
        return INPUT_ERROR
    except MemoryError:  # it has no message; name the command and its inputs below,
        pass  # once its traceback has let go of what filled memory
    except InternalInvariantError as exc:
        _warn(f"internal error: {exc.code}: {exc}\n")
        return INTERNAL_ERROR
    except Exception as exc:  # noqa: BLE001  - anything else is a bug in us
        _warn(f"internal error: {exc}\n")
        return INTERNAL_ERROR
    finally:
        if collecting:
            gc.enable()
    inputs = ", ".join(getattr(args, name) for name in args.inputs)
    _warn(f"error: OutOfMemory: {args.command} ran out of memory on {inputs}\n")
    return INPUT_ERROR


def main():
    """Run the CLI as a process, ending it without interpreter teardown."""
    os._exit(run())  # run() has flushed and closed its outputs; no atexit handler is registered


if __name__ == "__main__":
    main()
