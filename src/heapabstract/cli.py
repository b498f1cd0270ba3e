"""Command-line front end: parse, abstract, check, validate, export.

Exit codes are stable:
  0  success
  1  a check failed (invalid witness, or no witness exists)
  2  input error (unreadable file, bad document, invalid component, out of memory)
  3  internal invariant breach

Data goes to stdout or --out; diagnostics go to stderr.  Identical inputs
produce byte-identical outputs.
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
    after the renames; a failed write can leave part of its document there.
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


def _print_validation(findings, stream):
    for i, v in findings:
        print(f"component {i}: {v.code}: {v.detail}", file=stream)


def _cmd_abstract(args) -> int:
    if args.witness and _same_file(args.witness, args.out):
        where = "--out" if args.out else "standard output, where the heap goes"
        print(f"error: --witness names the same file as {where}", file=sys.stderr)
        return INPUT_ERROR
    heap = parse_heap(_read(args.heap))
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
                f" edges {len(before._core)} -> {len(r.output._core)}"
                f" merges {r._merges()}",
                file=sys.stderr,
            )
    outputs = [(_heap_chunks(out_heap), args.out)]
    if args.witness:
        outputs.append((_witness_chunks([r.witness for r in results]), args.witness))
    _emit_all(outputs)
    return OK


def _cmd_classify(args) -> int:
    heap = parse_heap(_read(args.heap))
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
    for i, classes in enumerate(classified):
        for n, k in classes.items():  # node_classes lists nodes in id order
            reasons = ",".join(r.value for r in k.reasons)
            label = "special" if k.special else "ordinary"
            lines.append(f"component {i} {n} {label}" + (f" [{reasons}]\n" if reasons else "\n"))
    _emit_all([(lines, None)])
    return OK


def _paired_components(source: Heap, target: Heap, *extra):
    if len({len(source.components), len(target.components), *map(len, extra)}) != 1:
        print("error: component counts differ between inputs", file=sys.stderr)
        return None
    return list(zip(source.components, target.components))


def _cmd_check_witness(args) -> int:
    source = parse_heap(_read(args.source))
    target = parse_heap(_read(args.target))
    witnesses = parse_witnesses(_read(args.witness))
    pairs = _paired_components(source, target, witnesses)
    if pairs is None:
        return INPUT_ERROR
    checks = (check_valid_abstraction(src, tgt, w) for (src, tgt), w in zip(pairs, witnesses))
    findings = [(i, v) for i, violations in enumerate(checks) for v in violations]
    _print_validation(findings, sys.stdout)
    return CHECK_FAILED if findings else OK


def _cmd_check_valid(args) -> int:
    source = parse_heap(_read(args.source))
    target = parse_heap(_read(args.target))
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
    heap = parse_heap(_read(args.heap))
    findings = [(i, v) for i, comp in enumerate(heap.components) for v in validate_component(comp)]
    if findings:
        _print_validation(findings, sys.stdout)
        return INPUT_ERROR
    print("ok")
    return OK


def _cmd_export_dot(args) -> int:
    heap = parse_heap(_read(args.heap))
    _emit_all([([export_dot(heap)], args.out)])
    return OK


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
    """The arguments of the command ``argv`` names, or the help or version text to print."""
    name = argv[0] if argv else None
    if name in ("-h", "--help", "--version"):
        return __version__ if name == "--version" else _help()
    if name not in COMMANDS:
        raise ValueError(f"unknown command {name!r}" if argv else "no command given")
    _, names, options, _ = COMMANDS[name]
    values, given, rest = {o[2:]: _OPTIONS[o][1] for o in options}, [], iter(argv[1:])
    for arg in rest:  # options (--opt VALUE, --opt=VALUE) mix with positionals until --
        option, eq, value = arg.partition("=")
        if arg in ("-h", "--help"):
            return _help()
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
        print(f"error: {exc} (see heapabstract --help)", file=sys.stderr)
        return INPUT_ERROR
    if isinstance(args, str):  # --help or --version
        print(args)
        return OK
    # A command builds no cyclic garbage, so cyclic GC is paused while it
    # runs (a tenth to a third of the run at 10^5 nodes); library calls keep it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return COMMANDS[args.command][0](args)
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except BudgetExceededError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except MemoryError:  # it has no message; name the command and its inputs below,
        pass  # once its traceback has let go of what filled memory
    except InternalInvariantError as exc:
        print(f"internal error: {exc.code}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except Exception as exc:  # noqa: BLE001  - anything else is a bug in us
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    finally:
        if collecting:
            gc.enable()
    inputs = ", ".join(getattr(args, name) for name in args.inputs)
    print(f"error: OutOfMemory: {args.command} ran out of memory on {inputs}", file=sys.stderr)
    return INPUT_ERROR


def main():
    """Run the CLI as a process: flush its output, then end without interpreter teardown."""
    status = run()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except (OSError, ValueError) as exc:  # a full disk, a closed pipe
        print(f"error: {exc}", file=sys.stderr)
        status = INPUT_ERROR
    with contextlib.suppress(AttributeError, OSError, ValueError):  # stderr closed or failing
        sys.stderr.flush()
    os._exit(status)  # run() has closed every output file, and no exit handler is registered


if __name__ == "__main__":
    main()
