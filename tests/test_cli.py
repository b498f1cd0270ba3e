"""Tests for the command-line front end and its exit-code contract."""

import cProfile
import errno
import gc
import io
import json
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import heapabstract
from conftest import FIXTURE_DIR
from genheaps import GENERATORS, comp, ne, te, ve
from heapabstract import Heap, Layout, NodeEdge, TreeEdge, VarEdge, parse_heap, serialize_heap
from heapabstract import cli
from heapabstract.abstraction import MergeEvent
from heapabstract.cli import run

FIG1 = str(FIXTURE_DIR / "fig1_sll.json")
FIG2 = str(FIXTURE_DIR / "fig2_tree.json")
FIG3 = str(FIXTURE_DIR / "fig3_cycle.json")
BROKEN = str(FIXTURE_DIR / "broken_sll_labeled_edge.json")
ACYCLIC = str(FIXTURE_DIR / "broken_cycle_acyclic.json")


@pytest.fixture
def artifacts(tmp_path):
    """Abstract fig1 to files once; several commands consume the outputs."""
    out = tmp_path / "fig1_abs.json"
    wit = tmp_path / "fig1_w.json"
    code = run(["abstract", FIG1, "--out", str(out), "--witness", str(wit)])
    assert code == 0
    return out, wit


class TestAbstract:
    def test_stats_and_exit_code(self, capsys):
        assert run(["abstract", FIG1, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "nodes 8 -> 4" in captured.err
        assert "merges 4" in captured.err
        doc = json.loads(captured.out)
        assert len(doc["components"][0]["nodes"]) == 4

    def test_deterministic_output(self, capsys):
        run(["abstract", FIG1])
        first = capsys.readouterr().out
        run(["abstract", FIG1])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_file(self, capsys):
        assert run(["abstract", str(FIXTURE_DIR / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run(["abstract", str(bad)]) == 2
        assert "InvalidJson" in capsys.readouterr().err

    def test_invalid_component(self, capsys):
        assert run(["abstract", BROKEN]) == 2
        assert "EdgeKindMismatch" in capsys.readouterr().err

    def test_invalid_witness_fails_under_optimize(self, tmp_path):
        # The pre-write witness re-check must not be an assert, which
        # python -O strips.
        out = tmp_path / "out.json"
        script = (
            "import sys\n"
            "from heapabstract import AbstractionResult, Witness, cli\n"
            "real = cli.abstract_component\n"
            "def broken(c):\n"
            "    r = real(c)\n"
            "    return AbstractionResult(r.output, Witness({}, {}), r.merge_log)\n"
            "cli.abstract_component = broken\n"
            f"sys.exit(cli.run(['abstract', {FIG1!r}, '--out', {str(out)!r}]))\n"
        )
        src = str(Path(heapabstract.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 3
        assert "InternalInvariant" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "out, witness",
        [("o.json", "nodir/w.json"), ("nodir/o.json", "w.json"), (None, "nodir/w.json")],
    )
    def test_failed_write_leaves_no_output(self, out, witness, tmp_path, capsys):
        # Either both documents are written or neither is, and no
        # temporary file is left behind.
        argv = ["abstract", FIG1, "--witness", str(tmp_path / witness)]
        if out:
            argv += ["--out", str(tmp_path / out)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_directory_writes_no_witness(self, tmp_path):
        # The directory is refused before the witness is put in place.
        (tmp_path / "odir").mkdir()
        argv = ["abstract", FIG1, "--out", str(tmp_path / "odir"), "--witness", str(tmp_path / "w.json")]
        assert run(argv) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "odir"]
        assert list((tmp_path / "odir").iterdir()) == []

    def test_fifo_out_is_written_in_place(self, tmp_path):
        # A destination that is not a regular file keeps its type.
        fifo, wit = tmp_path / "o.fifo", tmp_path / "w.json"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(["abstract", FIG1, "--out", str(fifo), "--witness", str(wit)]) == 0
            text = os.read(reader, 1 << 16).decode("utf-8")
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert len(json.loads(text)["components"][0]["nodes"]) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.fifo", "w.json"]

    def test_symlink_out_is_written_through(self, tmp_path):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("old", encoding="utf-8")
        link.symlink_to(real)
        # Opened before anything is staged, but written only after every
        # other output succeeded.
        assert run(["abstract", FIG1, "--out", str(link), "--witness", str(tmp_path / "no/w")]) == 2
        assert real.read_text(encoding="utf-8") == "old"
        assert run(["abstract", FIG1, "--out", str(link)]) == 0
        assert link.is_symlink()
        assert len(json.loads(real.read_text(encoding="utf-8"))["components"][0]["nodes"]) == 4

    def test_existing_out_keeps_its_mode(self, tmp_path):
        out = tmp_path / "o.json"
        out.write_text("old", encoding="utf-8")
        out.chmod(0o640)
        assert run(["abstract", FIG1, "--out", str(out), "--witness", str(tmp_path / "w.json")]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text(encoding="utf-8") != "old"

    def test_out_and_witness_naming_one_file(self, tmp_path, capsys):
        # One file cannot hold both documents: refused before it is opened.
        same = str(tmp_path / "same.json")
        assert run(["abstract", FIG1, "--out", same, "--witness", same]) == 2
        assert "--witness names the same file as --out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard-link"])
    def test_out_and_witness_naming_one_file_by_two_paths(self, link, tmp_path, capsys):
        real, alias = tmp_path / "real.json", tmp_path / "alias.json"
        real.write_text("old", encoding="utf-8")
        link(real, alias)
        assert run(["abstract", FIG1, "--out", str(real), "--witness", str(alias)]) == 2
        assert "--witness names the same file as --out" in capsys.readouterr().err
        assert real.read_text(encoding="utf-8") == "old"

    def test_witness_to_the_file_stdout_writes(self, tmp_path):
        # ``abstract F --witness /dev/stdout > f.json``: both documents would
        # go to f.json, and the witness would truncate the heap.
        src = str(Path(heapabstract.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        target = tmp_path / "f.json"
        command = [sys.executable, "-m", "heapabstract.cli", "abstract", FIG1]
        with open(target, "w", encoding="utf-8") as stdout:
            proc = subprocess.run(
                [*command, "--witness", "/dev/stdout"],
                env=env,
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert proc.returncode == 2
        assert "same file as standard output" in proc.stderr
        assert target.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("command", ["abstract", "classify"])
def test_heap_failing_validation_is_an_input_error(command, tmp_path, capsys):
    # The heap parses, but its cycle component has no cycle.
    out = tmp_path / "out.json"
    argv = [command, ACYCLIC] + (["--out", str(out)] if command == "abstract" else [])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "component 0: MissingCycle" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["abstract", FIG1, "--witness", ""],
        ["abstract", FIG1, "--out", "", "--witness", "w.json"],
        ["export-dot", FIG1, "--out", ""],
    ],
)
def test_empty_output_path_is_an_input_error(argv, tmp_path, monkeypatch, capsys):
    # An empty path names no file: it is neither stdout nor "no output".
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "must name a file" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point(artifacts, tmp_path):
    # ``python -m heapabstract.cli`` runs the CLI and exits with its status.
    out, wit = artifacts
    doc = json.loads(wit.read_text(encoding="utf-8"))
    doc["witnesses"][0]["node_map"]["ghost"] = "h1"
    doc["witnesses"][0]["edge_map"].append([["node", "ghost", "ghost2"], ["node", "h1", "h1"]])
    ghost = tmp_path / "ghost.json"
    ghost.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(heapabstract.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def cli(*argv):
        command = [sys.executable, "-m", "heapabstract.cli", *argv]
        return subprocess.run(command, env=env, capture_output=True, text=True)

    proc = cli("validate", FIG1)
    assert (proc.returncode, proc.stdout) == (0, "ok\n")
    proc = cli("check-witness", FIG1, str(out), str(ghost))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "component 0: NodeMapDomainUnknown: node ghost is not a source node",
        "component 0: EdgeMapDomainUnknown: edge (ghost,ghost2) is not a source edge",
    ]


@pytest.mark.parametrize("command", ["validate", "abstract", "check-witness"])
def test_deeply_nested_json_is_an_input_error(command, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = [command, str(deep)]
    if command == "check-witness":
        argv = [command, FIG1, FIG1, str(deep)]
    assert run(argv) == 2
    assert "nesting too deep" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "BAD"],
        ["abstract", "BAD"],
        ["classify", "BAD"],
        ["export-dot", "BAD"],
        ["check-valid", "BAD", FIG1],
        ["check-valid", FIG1, "BAD"],
        ["check-witness", "BAD", FIG1, FIG1],
        ["check-witness", FIG1, "BAD", FIG1],
        ["check-witness", FIG1, FIG1, "BAD"],
    ],
)
def test_non_utf8_input_is_an_input_error(argv, tmp_path, capsys):
    # JSON text is UTF-8; the bad byte is named by its offset in the file,
    # here past the first 64 KiB.
    bad = tmp_path / "bad.json"
    bad.write_bytes(b" " * 100_000 + b'{"components": [\xff]}')
    assert run([str(bad) if a == "BAD" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error: InvalidJson at byte 100016: input is not UTF-8 (invalid start byte)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "BAD"],
        ["abstract", "BAD"],
        ["classify", "BAD"],
        ["export-dot", "BAD"],
        ["check-witness", FIG1, FIG1, "BAD"],
    ],
)
def test_oversized_integer_literal_is_an_input_error(argv, tmp_path, capsys):
    # Past the interpreter's integer conversion limit (4,300 digits by
    # default) json.loads raises a plain ValueError.  An interpreter without
    # the limit reads the integer, and the document then fails its schema.
    bad = tmp_path / "bad.json"
    bad.write_text("[" + "1" * 5000 + "]", encoding="utf-8")
    assert run([str(bad) if a == "BAD" else a for a in argv]) == 2
    if hasattr(sys, "get_int_max_str_digits"):
        assert "error: InvalidJson at $: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["validate", "abstract", "classify", "export-dot", "check-witness"]
)
def test_lone_surrogate_id_is_an_input_error(command, artifacts, tmp_path):
    # "\ud800" is valid JSON, but no UTF-8 output can carry the id it decodes
    # to.  The CLI runs in its own process, with the standard streams it has
    # there.
    out, wit = artifacts
    if command == "check-witness":
        doc = json.loads(wit.read_text(encoding="utf-8"))
        doc["witnesses"][0]["node_map"]["\ud800"] = "h1"
        path, argv = wit, [command, FIG1, str(out), str(wit)]
        location = "$.witnesses[0].node_map.\\ud800"
    else:
        node = {"layout": "SLL", "variables": ["x"], "nodes": ["\ud800"]}
        doc = {"components": [{**node, "var_edges": [["x", "\ud800"]], "node_edges": []}]}
        path = tmp_path / "heap.json"
        argv, location = [command, str(path)], "$.components[0].nodes[0]"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(heapabstract.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "heapabstract.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8"),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: BadToken at {location}: bad identifier token: ")


def test_lone_surrogate_key_on_a_strict_stderr(artifacts, monkeypatch):
    # The error names the bad node_map key in its location.  Written to a
    # stderr that refuses surrogates, it must still be an input error, not
    # an exception out of run().
    out, wit = artifacts
    doc = json.loads(wit.read_text(encoding="utf-8"))
    doc["witnesses"][0]["node_map"]["\ud800"] = "h1"
    wit.write_text(json.dumps(doc), encoding="utf-8")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stderr", stderr)
    assert run(["check-witness", FIG1, str(out), str(wit)]) == 2
    stderr.seek(0)
    location = "$.witnesses[0].node_map.\\ud800"
    assert stderr.read().startswith(f"error: BadToken at {location}: bad identifier token: ")


def test_abstract_builds_no_edge_objects(tmp_path):
    # Parse, index, abstraction, check, stats and both writers work on
    # ranked int keys; no Edge is made on the way.
    rng = random.Random(4)
    components = [
        GENERATORS[layout](rng, max_nodes=40, prefix=f"k{i}x") for i, layout in enumerate(Layout)
    ]
    heap = tmp_path / "heap.json"
    heap.write_text(serialize_heap(Heap(tuple(components))), encoding="utf-8")
    argv = ["abstract", str(heap), "--out", str(tmp_path / "o.json"), "--stats"]
    argv += ["--witness", str(tmp_path / "w.json")]
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = run(argv)
    finally:
        profiler.disable()
    assert code == 0
    constructors = {kind.__new__.__code__ for kind in (VarEdge, NodeEdge, TreeEdge)}
    assert [e.callcount for e in profiler.getstats() if e.code in constructors] == []


def test_stats_count_merges_without_building_the_log(monkeypatch, capsys):
    built = []
    init = MergeEvent.__init__

    def counted(self, survivor, removed):
        built.append(survivor)
        init(self, survivor, removed)

    monkeypatch.setattr(MergeEvent, "__init__", counted)
    assert run(["abstract", FIG1, "--stats"]) == 0
    assert built == []
    assert capsys.readouterr().err == "component 0: SLL nodes 8 -> 4 edges 10 -> 7 merges 4\n"


@pytest.mark.parametrize("collecting", [True, False])
def test_commands_pause_cyclic_gc_and_restore_it(collecting, monkeypatch):
    during = []

    def failing(c):
        during.append(gc.isenabled())
        raise RuntimeError("boom")

    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert run(["abstract", FIG1]) == 0
        assert gc.isenabled() is collecting
        assert run(["abstract", str(FIXTURE_DIR / "nope.json")]) == 2
        assert gc.isenabled() is collecting
        monkeypatch.setattr(cli, "abstract_component", failing)
        assert run(["abstract", FIG1]) == 3
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def _out_of_memory(*args):
    raise MemoryError


def _witness_out_of_memory(witnesses):
    # The heap document is staged whole; the witness document fails part way.
    yield "{"
    raise MemoryError


@pytest.mark.parametrize(
    "name, stub",
    [
        ("parse_heap", _out_of_memory),
        ("abstract_component", _out_of_memory),
        ("_witness_chunks", _witness_out_of_memory),
    ],
)
def test_out_of_memory_is_an_input_error(name, stub, tmp_path, monkeypatch, capsys):
    # A MemoryError has no message: the error names the command and its inputs.
    monkeypatch.setattr(cli, name, stub)
    out, wit = tmp_path / "o.json", tmp_path / "w.json"
    assert run(["abstract", FIG1, "--out", str(out), "--witness", str(wit)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: OutOfMemory: abstract ran out of memory on {FIG1}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []  # nothing at --out or --witness, no staged file
    if name == "parse_heap":
        assert run(["check-witness", FIG1, FIG2, str(wit)]) == 2
        expected = f"check-witness ran out of memory on {FIG1}, {FIG2}, {wit}\n"
        assert capsys.readouterr().err == "error: OutOfMemory: " + expected


def test_commands_leave_no_cyclic_garbage(tmp_path):
    # With GC paused, an abstract run leaves nothing for the collector,
    # whatever the size of the heap.
    ids = [f"n{i}" for i in range(10_000)]
    doc = {
        "layout": "SLL",
        "variables": ["x"],
        "nodes": ids,
        "var_edges": [["x", "n0"]],
        "node_edges": [[a, b] for a, b in zip(ids, ids[1:])],
    }
    big = tmp_path / "list.json"
    big.write_text(json.dumps({"components": [doc]}), encoding="utf-8")
    out = str(tmp_path / "out.json")
    was = gc.isenabled()
    gc.disable()
    try:
        left = []
        for heap in (FIG1, FIG1, str(big)):  # the first run is a warm-up
            gc.collect()
            assert run(["abstract", heap, "--out", out, "--stats"]) == 0
            left.append(gc.collect())
    finally:
        if was:
            gc.enable()
    assert left[1:] == [0, 0]


def test_cli_import_skips_dataclasses():
    # The records are plain __slots__ classes, the command table is a dict
    # and annotations are strings, so importing the CLI pays for none of
    # dataclasses (and the inspect module it loads), argparse (and gettext)
    # or typing.
    skipped = ["dataclasses", "argparse", "gettext", "typing"]
    script = f"import sys, heapabstract.cli\nprint([m for m in {skipped!r} if m in sys.modules])\n"
    src = str(Path(heapabstract.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def _process(*argv, **kwargs):
    """The CLI run by ``python -m heapabstract.cli`` with PYTHONUNBUFFERED unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(heapabstract.__file__).resolve().parents[1])
    command = [sys.executable, "-m", "heapabstract.cli", *map(str, argv)]
    return subprocess.run(command, env=env, **kwargs)


def _tamper(wit, path):
    """Write the witnesses ``wit`` to ``path`` with h6 sent to h7, which fails their check."""
    doc = json.loads(wit.read_text(encoding="utf-8"))
    doc["witnesses"][0]["node_map"]["h6"] = "h7"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _argv(argv, artifacts, tmp_path):
    """``argv`` with {out}, {wit}, {tampered} and {empty} naming fig1's outputs,
    a tampered witness document and a heap of no components."""
    out, wit = artifacts
    tampered = _tamper(wit, tmp_path / "tampered.json")
    empty = tmp_path / "empty.json"
    empty.write_text('{"components": []}', encoding="utf-8")
    return [a.format(out=out, wit=wit, tampered=tampered, empty=empty) for a in argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", FIG1],
        ["export-dot", FIG1],
        ["abstract", FIG1],
        ["abstract", FIG1, "--witness", "w"],
        ["validate", FIG1],
        ["check-valid", FIG1, "{out}"],
        ["check-witness", FIG1, "{out}", "{tampered}"],
        ["--version"],
        ["--help"],
    ],
)
def test_closed_stdout_is_an_input_error(argv, artifacts, tmp_path):
    # With descriptor 1 closed the interpreter sets sys.stdout to None; the
    # refusal comes before any output is staged.
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    proc = _process(
        *_argv(argv, artifacts, tmp_path),
        cwd=cwd,
        preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (2, "error: StdoutClosed: standard output is closed\n")
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["check-witness", FIG1, "{out}", "{wit}"], ["check-valid", "{empty}", "{empty}"]],
)
def test_closed_stdout_is_not_needed_without_a_report(argv, artifacts, tmp_path):
    # A clean check and a search over no components have nothing for stdout.
    proc = _process(
        *_argv(argv, artifacts, tmp_path),
        preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize(
    "argv, status",
    [
        (["abstract"], 2),
        (["abstract", "/nonexistent.json"], 2),
        (["abstract", ACYCLIC], 2),
        (["validate", ACYCLIC], 2),
        (["check-witness", FIG1, "{out}", "{tampered}"], 1),
        (["abstract", FIG1, "--stats"], 0),
    ],
)
def test_closed_stderr_keeps_status_and_data(argv, status, artifacts, tmp_path):
    # With descriptor 2 closed sys.stderr is None, and print(..., file=None)
    # would write to stdout: no diagnostic may land there or change the
    # status.  stdout holds what a run with stderr, and without --stats, writes.
    argv = _argv(argv, artifacts, tmp_path)
    closed = _process(*argv, preexec_fn=lambda: os.close(2), stdout=subprocess.PIPE)
    plain = _process(*(a for a in argv if a != "--stats"), capture_output=True)
    assert (closed.returncode, closed.stdout) == (plain.returncode, plain.stdout)
    assert plain.returncode == status


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", FIG1],
        ["classify", FIG1],
        ["abstract", FIG1],
        ["export-dot", FIG1],
        ["check-witness", FIG1, "{out}", "{tampered}"],  # findings go to stdout
        ["check-valid", FIG1, "{out}"],
        ["--version"],
    ],
    ids=lambda argv: argv[0],
)
def test_failed_stdout_flush_is_an_input_error(argv, artifacts, tmp_path):
    # The output is buffered until _emit_all flushes it, which fails on a full device.
    argv = _argv(argv, artifacts, tmp_path)
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = _process(*argv, stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def test_piped_stdout_gets_the_whole_document(tmp_path):
    # _emit_all flushes stdout before main() ends the process with os._exit,
    # so a pipe gets every byte of a document, shorter or longer than the
    # stream's buffer.
    rng = random.Random(8)
    components = [
        GENERATORS[layout](rng, max_nodes=40, prefix=f"k{i}x")
        for i, layout in enumerate(list(Layout) * 20)
    ]
    big, out = tmp_path / "heap.json", tmp_path / "out.json"
    big.write_text(serialize_heap(Heap(tuple(components))), encoding="utf-8")
    sizes = []
    for heap in (FIG1, big):
        assert _process("abstract", heap, "--out", out).returncode == 0
        proc = _process("abstract", heap, stdout=subprocess.PIPE)
        assert (proc.returncode, proc.stdout) == (0, out.read_bytes())
        sizes.append(len(proc.stdout))
    assert sizes[0] < 1 << 13 < 1 << 16 < sizes[1]


def test_imports_only_the_standard_library():
    # Without the site module no third-party package is importable, and
    # every top-level module loaded is either the script or the import.
    script = (
        "import sys\n"
        "import heapabstract, heapabstract.cli\n"
        "print(*sorted({m.partition('.')[0] for m in sys.modules} - {'__main__'}))\n"
    )
    src = str(Path(heapabstract.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "heapabstract" in loaded
    assert sorted(loaded - {"heapabstract"} - sys.stdlib_module_names) == []


def test_outputs_do_not_depend_on_hash_seed_or_input_order(tmp_path):
    # String hashing, and with it set and frozenset order, varies with
    # PYTHONHASHSEED; the input lists' order is free.  Neither may reach
    # a byte of the heap, the witness, the stats or the classification.
    rng = random.Random(12)
    components = [
        GENERATORS[layout](rng, max_nodes=30, prefix=f"k{i}x")
        for i, layout in enumerate(list(Layout) * 10)
    ]
    # A tree whose leaf b2 is a second l child of a, so two triples compete.
    shape = [("R", "a", "l"), ("a", "b", "l"), ("a", "b2", "l"), ("a", "c", "r")]
    shape += [("b", "e", "l"), ("b", "f", "r")]
    nodes = {n for edge in shape for n in edge[:2]}
    components.append(comp(Layout.T, {"x"}, nodes, {ve("x", "R"), *(te(*e) for e in shape)}))
    text = serialize_heap(Heap(tuple(components)))
    doc = json.loads(text)
    for c in doc["components"]:
        for key in ("variables", "nodes", "var_edges", "node_edges"):
            rng.shuffle(c[key])
    heaps = [tmp_path / "heap.json", tmp_path / "shuffled.json"]
    heaps[0].write_text(text, encoding="utf-8")
    heaps[1].write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(heapabstract.__file__).resolve().parents[1])

    def cli(seed, *argv):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        command = [sys.executable, "-m", "heapabstract.cli", *argv]
        proc = subprocess.run(command, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    runs = set()
    for heap in heaps:
        for seed in range(4):
            out, wit = tmp_path / "out.json", tmp_path / "w.json"
            stats = cli(seed, "abstract", heap, "--out", out, "--witness", wit, "--stats").stderr
            classes = cli(seed, "classify", heap).stdout
            runs.add((out.read_bytes(), wit.read_bytes(), stats, classes))
    assert len(runs) == 1


class TestCheckWitness:
    def test_produced_artifacts_check_out(self, artifacts, capsys):
        out, wit = artifacts
        assert run(["check-witness", FIG1, str(out), str(wit)]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "fixture",
        ["fig1_sll.json", "fig2_tree.json", "fig3_cycle.json", "fig4_dag.json"],
    )
    def test_every_fixture_round_trips_through_cli(self, fixture, tmp_path, capsys):
        source = str(FIXTURE_DIR / fixture)
        out = tmp_path / "abs.json"
        wit = tmp_path / "wit.json"
        assert run(["abstract", source, "--out", str(out), "--witness", str(wit)]) == 0
        assert run(["check-witness", source, str(out), str(wit)]) == 0
        capsys.readouterr()

    def test_tampered_witness_fails(self, artifacts, tmp_path, capsys):
        out, wit = artifacts
        tampered = _tamper(wit, tmp_path / "tampered.json")
        assert run(["check-witness", FIG1, str(out), str(tampered)]) == 1
        assert "component 0" in capsys.readouterr().out

    def test_component_count_mismatch(self, artifacts, tmp_path, capsys):
        out, wit = artifacts
        empty = tmp_path / "empty.json"
        empty.write_text('{"components": []}', encoding="utf-8")
        assert run(["check-witness", FIG1, str(empty), str(wit)]) == 2


class TestCheckValid:
    def test_witness_exists(self, artifacts):
        out, _ = artifacts
        assert run(["check-valid", FIG1, str(out)]) == 0

    def test_no_witness(self, artifacts, tmp_path, capsys):
        _out, _ = artifacts
        target = tmp_path / "target.json"
        doc = {
            "components": [
                {
                    "layout": "SLL",
                    "variables": ["e", "s"],
                    "nodes": ["x"],
                    "var_edges": [["e", "x"], ["s", "x"]],
                    "node_edges": [],
                }
            ]
        }
        target.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["check-valid", FIG1, str(target)]) == 1
        assert "no witness" in capsys.readouterr().out

    def test_budget_exceeded(self, capsys):
        assert run(["check-valid", FIG2, FIG2]) == 2
        assert "BudgetExceeded" in capsys.readouterr().err

    def test_budget_exceeded_later_writes_no_report(self, tmp_path, capsys):
        # The report is written once every component has been searched, so
        # a second component over the budget leaves no line for the first.
        small = comp(Layout.SLL, {"x"}, {"a", "b"}, {ve("x", "a"), ne("a", "b")})
        heap = tmp_path / "heap.json"
        fig1 = parse_heap(Path(FIG1).read_text(encoding="utf-8")).components[0]
        heap.write_text(serialize_heap(Heap((small, fig1))), encoding="utf-8")
        assert run(["check-valid", str(heap), str(heap), "--budget", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: BudgetExceeded: source has 8 nodes, budget is 4\n"

    def test_budget_can_be_raised(self):
        assert run(["check-valid", FIG3, FIG3]) == 0

    def test_component_count_mismatch(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"components": []}', encoding="utf-8")
        assert run(["check-valid", FIG1, str(empty)]) == 2
        assert "component counts differ" in capsys.readouterr().err


class TestValidate:
    def test_valid_heap(self, capsys):
        assert run(["validate", FIG1]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_unparseable_heap(self, capsys):
        # The labeled edge is already a schema-level kind mismatch.
        assert run(["validate", BROKEN]) == 2
        assert "EdgeKindMismatch" in capsys.readouterr().err

    def test_broken_heap(self, capsys):
        assert run(["validate", str(FIXTURE_DIR / "broken_cycle_acyclic.json")]) == 2
        assert "MissingCycle" in capsys.readouterr().out


class TestClassify:
    def test_fig1_listing(self, capsys):
        assert run(["classify", FIG1]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "component 0 h0 special [VarPointed]" in lines
        assert "component 0 h1 ordinary" in lines
        assert "component 0 h7 special [VarPointed,BackEdgeEndpoint]" in lines

    def test_rejects_invalid_input(self, capsys):
        assert run(["classify", BROKEN]) == 2


class TestExportDot:
    def test_stdout(self, capsys):
        assert run(["export-dot", FIG1]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph heap {")
        assert "s -> h0;" in out

    def test_out_file(self, tmp_path):
        path = tmp_path / "fig1.dot"
        assert run(["export-dot", FIG1, "--out", str(path)]) == 0
        assert "h7 -> h6;" in path.read_text(encoding="utf-8")

    def test_out_file_is_replaced_keeping_its_mode(self, tmp_path):
        # --out goes through the same staged writer as abstract's outputs.
        path = tmp_path / "fig1.dot"
        path.write_text("old", encoding="utf-8")
        path.chmod(0o640)
        assert run(["export-dot", FIG1, "--out", str(path)]) == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text(encoding="utf-8").startswith("digraph heap {")
        assert list(tmp_path.iterdir()) == [path]
        assert run(["export-dot", FIG1, "--out", str(tmp_path / "no" / "fig1.dot")]) == 2
        assert list(tmp_path.iterdir()) == [path]


def _no_reads(path):
    raise AssertionError(f"{path} was read")


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_command(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out == f"{heapabstract.__version__}\n"

    @pytest.mark.parametrize(
        "argv", [["--help"], ["-h"], ["abstract", "--help"], ["check-valid", FIG1, "-h"]]
    )
    def test_help_shows_the_command_table(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_read", _no_reads)
        assert run(argv) == 0
        help_text = capsys.readouterr().out
        for name, (_, names, options, summary) in cli.COMMANDS.items():
            flags = "".join(f" [{o}{cli._OPTIONS[o][2]}]" for o in options)
            assert f"  {name} {' '.join(names).upper()}{flags}\n      {summary}\n" in help_text
        for option in ("--out FILE", "--witness FILE", "--stats", "--budget N"):
            assert f"\n  {option} " in help_text

    def test_option_forms_agree(self, tmp_path, capsys):
        # --opt VALUE and --opt=VALUE, before, between or after the positional,
        # and the positional after --, give the same documents.
        forms = [
            ["abstract", FIG1, "--out", "{o}", "--witness", "{w}", "--stats"],
            ["abstract", "--stats", "--out={o}", FIG1, "--witness={w}"],
            ["abstract", "--witness", "{w}", "--stats", "--out", "{o}", "--", FIG1],
        ]
        documents = set()
        for k, form in enumerate(forms):
            o, w = tmp_path / f"o{k}.json", tmp_path / f"w{k}.json"
            assert run([a.format(o=o, w=w) for a in form]) == 0
            assert "merges 4" in capsys.readouterr().err
            documents.add((o.read_bytes(), w.read_bytes()))
        assert len(documents) == 1

    @pytest.mark.parametrize("budget", [["--budget", "1"], ["--budget=1"], ["--budget", " +1"]])
    def test_budget_is_read_in_either_form(self, budget, capsys):
        assert run(["check-valid", FIG1, FIG1]) == 0
        assert run(["check-valid", FIG1, FIG1, *budget]) == 2
        assert "BudgetExceeded" in capsys.readouterr().err

    def test_double_dash_ends_the_options(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-h").write_bytes(Path(FIG1).read_bytes())
        assert run(["validate", "--", "-h"]) == 0
        assert capsys.readouterr().out == "ok\n"
        assert run(["validate", "-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: heapabstract")

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate", FIG1],
            ["--out", "o.json", "abstract", FIG1],
            ["abstract"],
            ["abstract", FIG1, FIG1],
            ["check-witness", FIG1, FIG1],
            ["abstract", FIG1, "--bogus"],
            ["abstract", FIG1, "-x"],
            ["abstract", FIG1, "--wit", "w.json"],  # no abbreviations
            ["validate", FIG1, "--out", "o.json"],  # another command's option
            ["abstract", FIG1, "--version"],
            ["abstract", FIG1, "--out"],
            ["abstract", FIG1, "--stats=yes"],
            ["check-valid", FIG1, FIG1, "--budget", "eight"],
            ["check-valid", FIG1, FIG1, "--budget="],
            ["export-dot", FIG1, "--out="],
        ],
    )
    def test_usage_errors_exit_2_before_anything_is_read(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_read", _no_reads)  # a read would exit 3
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
