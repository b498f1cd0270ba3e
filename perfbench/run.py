"""Benchmark of heapabstract: CLI and library time on seeded heap corpora.

Run it from the root of a checkout; it needs only the standard library and
the package source under ``src/``:

    python3 perfbench/run.py --workload chains --seed 1 --seconds 30 --trace 0

Every run generates its workload's heap files from ``--seed`` (see
``workloads.py``) and checks every output against the recorded digests in
``digests.json`` (when the seed has some), against closed-form node counts
and against every other pass of the same run.

``--trace 0`` alternates two passes over the corpus for ``--seconds``:

* the CLI pass runs ``heapabstract abstract IN --out OUT --witness W``
  once per heap file, each in its own child process;
* the library pass runs the same pipeline in this process.

and reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` instead alternates the library pass with a traced pass that
calls each layer itself and records a span around each call, then makes
one in-process CLI pass under a profiler that counts the calls of a few
functions, and times the worst-case shapes of the baseline table.  It
reports the per-layer metrics and writes the spans to
``perfbench/work/<workload>/spans.jsonl``.

Every ``*_s`` metric is wall time scaled to a reference machine speed by
a control workload timed in the same run (see ``Clock``); the report also
prints the raw wall times.  The last line of standard output is one JSON
object with the result; the lines before it are a human-readable report.

    python3 perfbench/run.py --size smoke ...   # a small corpus, runs in seconds
    python3 perfbench/run.py --record 0-31      # record digests at these seeds
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import workloads

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
CLI = ("-c", "from heapabstract.cli import main; main()")
# A child's ru_maxrss counts the resident set of the process it was forked
# from, so CLI children are started by this small launcher, not by the
# benchmark process, whose own resident set would mask theirs.
LAUNCHER = """
import json, os, subprocess, sys
for line in sys.stdin:
    proc = subprocess.Popen(json.loads(line), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, usage.ru_maxrss]), flush=True)
"""
SETUP_ROUNDS = 5
STARTUP_RUNS = 5
LAYOUT_KEYS = {"SLL": "sll", "T": "tree", "C": "cycle", "DAG": "dag"}
LAYERS = ("formats", "model", "classify", "abstraction", "witness")
# The ROADMAP's one-off baseline (ms at n = 1000; validate, classify,
# abstract, check), which the traced run's baseline table is set against.
ROADMAP_MS = {
    "SLL": (4.8, 3.7, 2309, 7.0),
    "C": (4.0, 1244, 3585, 6.5),
    "T": (9.7, 4.5, 8157, 7.1),
    "DAG": (8.1, 1.9, 356, 13.3),
}


# Wall seconds control() takes on the reference host (a quiet 2-vCPU
# 2.0 GHz Xeon VM, Python 3.11): reported times are at that host's speed.
CONTROL_S = 0.04


def control() -> float:
    """Wall time of fixed work that never touches heapabstract.

    A layered DAG document is generated, sent through JSON and indexed: the
    same kind of object-heavy work the program does, so it slows down with
    the machine the way the program does.
    """
    start = time.perf_counter()
    doc = json.loads(json.dumps(workloads.dag("k", 2500, random.Random(0)).doc))
    succ: dict = {}
    for a, b in frozenset(map(tuple, doc["node_edges"])):
        succ.setdefault(a, set()).add(b)
    return time.perf_counter() - start


class Clock:
    """The machine's speed over one run, from control() timed between passes.

    On a shared host the same pass can take from 1x to 2.5x its quiet time
    as neighbours come and go, over minutes, which no amount of repetition
    inside a 30-second run averages out.  Dividing a run's wall times by
    slowdown() (median control time over CONTROL_S) gives seconds at the
    reference host's speed: they move with the program, not the neighbours.
    """

    def __init__(self):
        self.samples: list = []

    def tick(self) -> None:
        self.samples.append(control())

    def slowdown(self) -> float:
        return median(self.samples) / CONTROL_S


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Program:
    """The package under test, imported from ``<root>/src``."""

    def __init__(self, root: Path, work: Path):
        src = root / "src"
        if not (src / "heapabstract" / "__init__.py").is_file():
            raise SystemExit(f"error: no heapabstract package under {src}")
        cache = work.parent / "pycache"
        # Children and this process share one bytecode cache kept out of src/.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(cache))
        sys.dont_write_bytecode = False
        sys.pycache_prefix = str(cache)
        sys.path.insert(0, str(src))
        self.launcher = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER],
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.startup()  # fills the bytecode cache, so every import below is warm
            self.load()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop the launcher and wait for it."""
        self.launcher.stdin.close()
        self.launcher.wait()

    def load(self) -> None:
        """Import the package afresh."""
        for name in [m for m in sys.modules if m.partition(".")[0] == "heapabstract"]:
            del sys.modules[name]
        import heapabstract
        from heapabstract import cli

        self.api, self.cli = heapabstract, cli

    def child(self, *args: str):
        """Run the CLI in a child process; return (exit code, peak RSS in KiB)."""
        self.launcher.stdin.write(json.dumps([sys.executable, *CLI, *args]) + "\n")
        self.launcher.stdin.flush()
        code, rss = json.loads(self.launcher.stdout.readline())
        return code, rss

    def startup(self) -> float:
        start = time.perf_counter()
        self.child("--version")
        return time.perf_counter() - start


class Corpus:
    """The generated heap files of one run, with their output paths.

    Set-up (generating and writing the heap files, then a warm import of
    the package) is repeated SETUP_ROUNDS times; ``setup_s`` is the median
    wall time.
    """

    def __init__(self, program: Program, clock: Clock, workload: str, size: str, seed: int, work: Path):
        self.workload, self.size = workload, size
        self.heap_dir = work / "heaps"
        self.out_dir = work / "out"
        self.out_dir.mkdir(parents=True)
        times = []
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            self.files = workloads.corpus(workload, size, seed)
            shutil.rmtree(self.heap_dir, ignore_errors=True)
            self.heap_dir.mkdir()
            for f in self.files:
                self.path(f).write_text(f.text(), encoding="utf-8")
            program.load()
            times.append(time.perf_counter() - start)
            clock.tick()
        self.setup_s = median(times)
        self.nodes = sum(p.nodes for f in self.files for p in f.parts)
        self.edges = sum(p.edges for f in self.files for p in f.parts)

    def path(self, f) -> Path:
        return self.heap_dir / f"{f.name}.json"

    def outputs(self, f):
        return self.out_dir / f"{f.name}.out.json", self.out_dir / f"{f.name}.wit.json"

    def abstract_argv(self, f) -> list:
        out, wit = self.outputs(f)
        return ["abstract", str(self.path(f)), "--out", str(out), "--witness", str(wit)]

    def clear_outputs(self) -> None:
        for f in self.files:
            for p in self.outputs(f):
                p.unlink(missing_ok=True)

    def read_outputs(self, f) -> tuple:
        """Output and witness bytes of a CLI run (empty where it wrote none)."""
        return tuple(p.read_bytes() if p.exists() else b"" for p in self.outputs(f))


class Gate:
    """Correctness of every heap run: exit status, digests, closed-form counts.

    A heap's reference digests are the recorded ones when its seed has
    any, else those of its first run; every later run must match them.
    """

    def __init__(self, recorded: dict):
        self.recorded = recorded
        self.reference: dict = {}
        self.verdicts: dict = {}  # heap -> closed-form problem or None
        self.out_size: dict = {}  # heap -> output nodes + edges
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, how: str, f, code, out: bytes, wit: bytes) -> None:
        self.attempted += 1
        problem = self._problem(f, code, out, wit)
        if problem:
            self.failed += 1
            self.problems.append(f"{how} {f.name}: {problem}")

    def _problem(self, f, code, out, wit):
        if code != 0:
            return f"exit status {code}"
        digests = (sha(out), sha(wit))
        reference = self.reference.setdefault(f.name, tuple(self.recorded.get(f.name, digests)))
        if digests != reference:
            return "output or witness digest differs from the reference"
        if f.name not in self.verdicts:
            self.verdicts[f.name] = self._closed_form(f, out)
        return self.verdicts[f.name]

    def _closed_form(self, f, out: bytes):
        try:
            comps = json.loads(out)["components"]
        except (ValueError, TypeError, KeyError):
            return "output is not a heap document"
        if len(comps) != len(f.parts):
            return f"{len(comps)} components, expected {len(f.parts)}"
        for i, (part, comp) in enumerate(zip(f.parts, comps)):
            if len(comp["nodes"]) != part.expected_nodes:
                return f"component {i} has {len(comp['nodes'])} nodes, expected {part.expected_nodes}"
        self.out_size[f.name] = sum(
            len(c["nodes"]) + len(c["var_edges"]) + len(c["node_edges"]) for c in comps
        )
        return None


def cli_pass(program: Program, corpus: Corpus, gate: Gate):
    """One CLI child per heap file; returns (wall seconds, peak RSS in KiB)."""
    corpus.clear_outputs()
    start = time.perf_counter()
    runs = [program.child(*corpus.abstract_argv(f)) for f in corpus.files]
    elapsed = time.perf_counter() - start
    for f, (code, _) in zip(corpus.files, runs):
        gate.check("cli", f, code, *corpus.read_outputs(f))
    return elapsed, max(rss for _, rss in runs)


def lib_pass(program: Program, corpus: Corpus, gate: Gate) -> float:
    """The CLI's pipeline in this process, tracing off; returns wall seconds."""
    ha = program.api
    results = []
    start = time.perf_counter()
    for f in corpus.files:
        try:
            heap = ha.parse_heap(corpus.path(f).read_text(encoding="utf-8"))
            res = ha.heap_abstract_results(heap)
            bad = [ha.check_valid_abstraction(c, r.output, r.witness) for c, r in zip(heap.components, res)]
            out = ha.serialize_heap(ha.Heap(tuple(r.output for r in res)))
            wit = ha.serialize_witnesses([r.witness for r in res])
            results.append((1 if any(bad) else 0, out, wit))
        except Exception as exc:  # noqa: BLE001 - the program failed on this heap
            results.append((repr(exc), "", ""))
    elapsed = time.perf_counter() - start
    for f, (code, out, wit) in zip(corpus.files, results):
        gate.check("lib", f, code, out.encode(), wit.encode())
    return elapsed


class Tracer:
    """Spans (name, start, end, parent, heap) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str, heap: str, component=None, run=0):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid] = {
                "id": sid, "parent": parent, "run": run, "name": name,
                "heap": heap, "component": component, "start": start, "end": end,
            }

    def self_times(self) -> list:
        """Each span with its self time: duration less the time its children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [dict(s, self_s=s["end"] - s["start"] - covered[s["id"]]) for s in self.spans]


def _traced_heap(ha, f, path, tracer: Tracer, run, counts: dict):
    with tracer.span("heap", f.name, run=run):
        with tracer.span("formats.parse", f.name, run=run):
            text = path.read_text(encoding="utf-8")
            heap = ha.parse_heap(text)
        comps = heap.components
        invalid = False
        for i, c in enumerate(comps):
            with tracer.span("model.validate", f.name, i, run):
                invalid |= bool(ha.validate_component(c))
        classes = []
        for i, c in enumerate(comps):
            with tracer.span("classify.node_classes", f.name, i, run):
                classes.append(ha.node_classes(c))
        results = []
        for i, c in enumerate(comps):
            with tracer.span(f"abstraction.{LAYOUT_KEYS[c.layout.value]}", f.name, i, run):
                results.append(ha.abstract_component(c))
        bad = False
        for i, (c, r) in enumerate(zip(comps, results)):
            with tracer.span("witness.check", f.name, i, run):
                bad |= bool(ha.check_valid_abstraction(c, r.output, r.witness))
        with tracer.span("formats.serialize", f.name, run=run):
            out = ha.serialize_heap(ha.Heap(tuple(r.output for r in results)))
            wit = ha.serialize_witnesses([r.witness for r in results])
    counts["merges"] += sum(len(r.merge_log) for r in results)
    counts["removed"] += sum(len(ev.removed) for r in results for ev in r.merge_log)
    counts["special"] += sum(k.special for cl in classes for k in cl.values())
    counts["classified"] += sum(len(cl) for cl in classes)
    counts["in_bytes"] += len(text.encode())
    counts["out_bytes"] += len(out.encode()) + len(wit.encode())
    return (1 if invalid or bad else 0, out, wit)


def traced_pass(program: Program, files, paths, tracer: Tracer, run, gate: Gate):
    """Call each layer once per heap or component, with a span around each call.

    Returns wall seconds, with the explicit classification calls (which the
    library pass makes only inside abstraction) left out, plus per-pass
    counts: merges, removed nodes, special and classified nodes, bytes.
    """
    ha = program.api
    counts = dict(merges=0, removed=0, special=0, classified=0, in_bytes=0, out_bytes=0)
    outputs = []
    start = time.perf_counter()
    for f, path in zip(files, paths):
        try:
            outputs.append(_traced_heap(ha, f, path, tracer, run, counts))
        except Exception as exc:  # noqa: BLE001 - the program failed on this heap
            outputs.append((repr(exc), "", ""))
    elapsed = time.perf_counter() - start
    classify_s = sum(
        s["end"] - s["start"] for s in tracer.spans
        if s["run"] == run and s["name"] == "classify.node_classes"
    )
    for f, (code, out, wit) in zip(files, outputs):
        gate.check("traced", f, code, out.encode(), wit.encode())
    return elapsed - classify_s, counts


def count_pass(program: Program, corpus: Corpus, gate: Gate) -> dict:
    """The CLI's ``abstract`` in this process under a profiler; exact call counts."""
    ha = program.api
    watched = {
        ha.validate_component.__code__: "model.validate_calls",
        ha.node_classes.__code__: "classify.classify_calls",
        ha.Component.__post_init__.__code__: "model.components_built",
    }
    profiler = cProfile.Profile()
    corpus.clear_outputs()
    for f in corpus.files:
        profiler.enable()
        try:
            code = program.cli.run(corpus.abstract_argv(f))
        finally:
            profiler.disable()
        gate.check("counted", f, code, *corpus.read_outputs(f))
    counts = dict.fromkeys(watched.values(), 0)
    for entry in profiler.getstats():
        if entry.code in watched:
            counts[watched[entry.code]] += entry.callcount
    return counts


def fit_exponent(points) -> float:
    """Least-squares slope of log(time) on log(size); 0.0 with fewer than 2 sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(program: Program, corpus: Corpus, gate: Gate, clock: Clock, seconds: float, report) -> dict:
    deadline = time.perf_counter() + seconds
    lib_pass(program, corpus, gate)  # warm-up: the first pass in a process runs slow
    times: dict = {"cli_s": [], "lib_s": []}
    rss = []
    while not rss or time.perf_counter() < deadline:
        elapsed, peak = cli_pass(program, corpus, gate)
        times["cli_s"].append(elapsed)
        rss.append(peak)
        clock.tick()
        times["lib_s"].append(lib_pass(program, corpus, gate))
        clock.tick()
    slow = clock.slowdown()
    report(f"machine slowdown {slow:.3f} (median of {len(clock.samples)} control samples / {CONTROL_S} s)")
    for name, values in times.items():
        q1, q3 = quartiles(values)
        report(f"{name} wall: median {median(values):.4f} s, quartiles {q1:.4f}..{q3:.4f} s, {len(values)} passes")
    report(f"setup_s wall: median {corpus.setup_s:.4f} s over {SETUP_ROUNDS} rounds")
    out_size = sum(gate.out_size.get(f.name, 0) for f in corpus.files)
    cli_s = median(times["cli_s"]) / slow
    return {
        "setup_s": corpus.setup_s / slow,
        "cli_s": cli_s,
        "lib_s": median(times["lib_s"]) / slow,
        "nodes_per_s": corpus.nodes / cli_s,
        "peak_rss_mb": max(rss) / 1024,
        "compaction": out_size / (corpus.nodes + corpus.edges),
        "ok_frac": 1 - gate.failed / gate.attempted,
    }


def per_layer(program: Program, corpus: Corpus, gate: Gate, clock: Clock, seconds: float, work: Path, report) -> dict:
    deadline = time.perf_counter() + seconds
    startup = [program.startup() for _ in range(STARTUP_RUNS)]
    clock.tick()
    calls = count_pass(program, corpus, gate)
    tracer = Tracer()

    # Baseline: the worst-case shapes, one traced pass.
    base_files = workloads.baseline(corpus.workload, corpus.size)
    base_paths = [corpus.heap_dir / f"{f.name}.json" for f in base_files]
    for f, p in zip(base_files, base_paths):
        p.write_text(f.text(), encoding="utf-8")
    traced_pass(program, base_files, base_paths, tracer, "baseline", gate)
    clock.tick()

    paths = [corpus.path(f) for f in corpus.files]
    lib_times, traced_times, counts = [], [], None
    while not lib_times or time.perf_counter() < deadline:
        lib_times.append(lib_pass(program, corpus, gate))
        clock.tick()
        elapsed, counts = traced_pass(program, corpus.files, paths, tracer, len(traced_times), gate)
        traced_times.append(elapsed)
        clock.tick()

    # The span file keeps wall times; the metrics are at the reference speed.
    spans = tracer.self_times()
    with open(work / "spans.jsonl", "w", encoding="utf-8") as out:
        for s in spans:
            out.write(json.dumps(s) + "\n")

    slow = clock.slowdown()
    per_run = [{} for _ in traced_times]
    for s in spans:
        if s["run"] != "baseline":
            per_run[s["run"]][s["name"]] = per_run[s["run"]].get(s["name"], 0.0) + s["self_s"] / slow
    by_name = {name: median([r.get(name, 0.0) for r in per_run]) for name in {s["name"] for s in spans}}
    lib_s = median(lib_times) / slow

    sizes = {(f.name, i): p for f in corpus.files for i, p in enumerate(f.parts)}
    metrics = {}
    for key in LAYOUT_KEYS.values():
        metrics[f"abstraction.{key}_s"] = by_name.get(f"abstraction.{key}", 0.0)
        per_comp: dict = {}
        for s in spans:
            if s["run"] != "baseline" and s["name"] == f"abstraction.{key}":
                part = sizes[(s["heap"], s["component"])]
                if not part.probe:
                    per_comp.setdefault((s["heap"], s["component"]), (part.nodes, []))[1].append(s["self_s"])
        metrics[f"abstraction.{key}_exp"] = fit_exponent((n, median(ts)) for n, ts in per_comp.values())
    metrics.update({
        "abstraction.merges": counts["merges"],
        "abstraction.removed_nodes": counts["removed"],
        "classify.classify_s": by_name.get("classify.node_classes", 0.0),
        "classify.classify_calls": calls["classify.classify_calls"],
        "classify.special_frac": counts["special"] / counts["classified"],
        "model.validate_s": by_name.get("model.validate", 0.0),
        "model.validate_calls": calls["model.validate_calls"],
        "model.components_built": calls["model.components_built"],
        "formats.parse_s": by_name.get("formats.parse", 0.0),
        "formats.serialize_s": by_name.get("formats.serialize", 0.0),
        "formats.in_bytes": counts["in_bytes"],
        "formats.out_bytes": counts["out_bytes"],
        "witness.check_s": by_name.get("witness.check", 0.0),
        "cli.startup_s": median(startup) / slow,
        "trace.overhead_s": median(traced_times) / slow - lib_s,
    })

    report(f"machine slowdown {slow:.3f} (median of {len(clock.samples)} control samples / {CONTROL_S} s)")
    report(f"lib_s (untraced): {lib_s:.4f} s over {len(lib_times)} passes; traced passes: {len(traced_times)}")
    report("layer self time, share of lib_s (classify: the traced pass's own node_classes calls;")
    report("  abstraction includes the classification and validation it does itself):")
    for layer in LAYERS:
        total = sum(v for name, v in by_name.items() if name.split(".")[0] == layer)
        report(f"  {layer:<12} {total:9.4f} s  {total / lib_s:7.1%}")
    report("baseline at the worst-case shapes (ms: validate, classify, abstract, check; roadmap in brackets):")
    for f in base_files:
        layout = f.parts[0].layout
        row = {}
        for s in spans:
            if s["run"] == "baseline" and s["heap"] == f.name:
                layer = s["name"].split(".")[0]
                row[layer] = row.get(layer, 0.0) + s["self_s"] * 1000 / slow
        cells = [row.get(k, 0.0) for k in ("model", "classify", "abstraction", "witness")]
        shown = "  ".join(f"{v:9.1f} [{r:g}]" for v, r in zip(cells, ROADMAP_MS[layout]))
        report(f"  {layout:<4} n={f.parts[0].nodes}  {shown}")
    return metrics


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(program: Program, size: str, seeds: list, work: Path) -> int:
    """Record the output and witness digests of every heap at these seeds."""
    book = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            shutil.rmtree(work, ignore_errors=True)
            corpus = Corpus(program, Clock(), workload, size, seed, work)
            gate = Gate({})
            lib_pass(program, corpus, gate)
            if gate.failed:
                print("\n".join(gate.problems), file=sys.stderr)
                return 1
            book.setdefault(size, {}).setdefault(workload, {})[str(seed)] = {
                name: list(digests) for name, digests in sorted(gate.reference.items())
            }
            print(f"recorded {size} {workload} seed {seed}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return 0


def provenance(root: Path, args, corpus: Corpus) -> dict:
    commit = ""
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except OSError:
            pass
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": [f"{p.layout}:{p.nodes}" for f in corpus.files for p in f.parts],
        "nodes": corpus.nodes,
        "edges": corpus.edges,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--record", metavar="SEEDS", help="record digests at seeds LO-HI and exit")
    args = parser.parse_args(argv)
    if not args.record and not args.workload:
        parser.error("--workload is required")

    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    work = BENCH_DIR / "work" / (args.workload or "record")
    shutil.rmtree(work, ignore_errors=True)
    program = Program(root, work)
    try:
        if args.record:
            return record(program, args.size, parse_seeds(args.record), work)
        return measure(program, args, root, declared, work)
    finally:
        program.close()


def measure(program: Program, args, root: Path, declared: dict, work: Path) -> int:
    """One benchmark run; prints the report and, last, the result line."""

    def report(line: str) -> None:
        print(line, flush=True)

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded = recorded.get(args.size, {}).get(args.workload, {}).get(str(args.seed), {})
    gate = Gate(recorded)
    clock = Clock()
    corpus = Corpus(program, clock, args.workload, args.size, args.seed, work)
    info = provenance(root, args, corpus)
    report(f"heapabstract benchmark: {json.dumps(info)}")
    report(f"digests: {'recorded for this seed' if recorded else 'none recorded for this seed; runs must agree with each other'}")
    if args.trace:
        values = per_layer(program, corpus, gate, clock, args.seconds, work, report)
        wanted = declared["per_layer"]
    else:
        values = end_to_end(program, corpus, gate, clock, args.seconds, report)
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        report(f"{name} = {m['value']:.6g} {m['unit']}")
    report(f"failed_frac = {gate.failed / gate.attempted:.6g} ({gate.failed} of {gate.attempted} heap runs)")
    for problem in gate.problems[:20]:
        report(f"FAILED {problem}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    info["slowdown"] = clock.slowdown()
    (work / "result.json").write_text(json.dumps(dict(result, provenance=info), indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
