"""Every recorded benchmark output, regenerated and checked byte for byte.

``perfbench/digests.json`` records the sha256 of the heap and witness
documents that the ``abstract`` pipeline writes for every generated heap
file of every workload, at both sizes and seeds 0-31.  This test builds
each of those heap files again from ``perfbench/workloads.py`` (loaded by
path; nothing under ``perfbench/`` is written), runs parse, abstraction,
witness check and serialization in this process, and requires every
witness to check clean and every digest pair to equal the recorded one.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from heapabstract import (
    Heap,
    check_valid_abstraction,
    heap_abstract_results,
    parse_heap,
    serialize_heap,
    serialize_witnesses,
)

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_recorded_benchmark_output_is_reproduced():
    workloads = _workloads()
    recorded = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    expected = checked = 0
    for size, by_workload in recorded.items():
        for workload, by_seed in by_workload.items():
            for seed, digests in by_seed.items():
                expected += len(digests)
                files = workloads.corpus(workload, size, int(seed))
                assert sorted(f.name for f in files) == sorted(digests), (size, workload, seed)
                for f in files:
                    heap = parse_heap(f.text())
                    results = heap_abstract_results(heap)
                    for c, r in zip(heap.components, results):
                        assert check_valid_abstraction(c, r.output, r.witness) == [], f.name
                    out = serialize_heap(Heap(tuple(r.output for r in results)))
                    wit = serialize_witnesses([r.witness for r in results])
                    assert [_sha(out), _sha(wit)] == digests[f.name], (size, workload, seed, f.name)
                    checked += 1
    assert checked == expected == 800
