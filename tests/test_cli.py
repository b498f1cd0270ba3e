"""Tests for the command-line front end and its exit-code contract."""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import heapabstract
from conftest import FIXTURE_DIR
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
            "import dataclasses, sys\n"
            "from heapabstract import Witness, cli\n"
            "real = cli.abstract_component\n"
            "def broken(c):\n"
            "    return dataclasses.replace(real(c), witness=Witness({}, {}))\n"
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

    def test_out_and_witness_naming_one_file(self, tmp_path):
        # The witness document is written last, so it is what the file holds.
        same = str(tmp_path / "same.json")
        assert run(["abstract", FIG1, "--out", same, "--witness", same]) == 0
        assert "witnesses" in json.loads(Path(same).read_text(encoding="utf-8"))
        assert [p.name for p in tmp_path.iterdir()] == ["same.json"]


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
        doc = json.loads(wit.read_text(encoding="utf-8"))
        doc["witnesses"][0]["node_map"]["h6"] = "h7"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc), encoding="utf-8")
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
        capsys.readouterr()
