"""The benchmark tracer's observers, run on families_n7 items.

``perfbench/tracer.py`` keys ``char_matrix.minor.distinct`` on the columns
and rows of ``minor``'s second argument, so a change to that argument shows
here; the census that ``perfbench/test_perfbench.py`` traces calls no minor.
It wraps ``IdealHandle.from_generators`` by name, and ``build_ideal`` builds
each ideal with one call of it.
"""
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from artifact import char_matrix  # noqa: E402


def _item(workload, label):
    [item] = [item for item in workload.inputs(1, 0)
              if workloads.label_text(item[0]) == label]
    return item


# P_{h,eta} is memoised per (diagram, root), so on a cold memo an op calls
# minor once per closure root: calls equal distinct.
@pytest.mark.parametrize("label,calls,distinct,unsolved", [
    ("7,3,8", 11, 11, 0),
    ("7,2,1", 8, 8, 0),
    ("7,3,1", 10, 10, 0),
])
def test_traced_families_op_counts_minors(label, calls, distinct, unsolved):
    workload = workloads.FamiliesN7({"families_n7": {}})
    item = _item(workload, label)
    char_matrix.p_h_eta.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.op(item)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["char_matrix.minor.calls"] == calls
    assert metrics["char_matrix.minor.distinct"] == distinct
    assert metrics["char_matrix.triangular_system.unsolved"] == unsolved
    assert metrics["symbolic.IdealHandle.from_generators.calls"] == 1


@pytest.mark.parametrize("label,gaps", [
    ("7,3,8", 0), ("7,2,1", 1), ("7,3,1", 1)])
def test_cold_families_op_computes_each_p_h_eta_once(label, gaps):
    # The op's minors miss the memo once per closure root, and the
    # triangular system reads them back, except at a _GAPS root.
    workload = workloads.FamiliesN7({"families_n7": {}})
    item = _item(workload, label)
    char_matrix.p_h_eta.cache_clear()
    workload.op(item)
    info = char_matrix.p_h_eta.cache_info()
    roots = len(item[0].a_set)
    assert (info.misses, info.hits) == (roots, roots - gaps)
