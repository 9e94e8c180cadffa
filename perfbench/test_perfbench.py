"""Tests of the benchmark's own arithmetic and tracing."""
import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402


def span(name, start, end, parent=-1, op=None):
    return (name, start, end, parent, op)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, 0),
            span("leaf", 2.0, 3.0, 1),
            span("b", 5.0, 7.0, 0),
        ]
        assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0,
                                                           2.0])
        assert tracing.self_totals(spans) == pytest.approx(
            {"root": 5.0, "a": 2.0, "leaf": 1.0, "b": 2.0})

    def test_overlapping_children_are_covered_once(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, 0),
            span("b", 3.0, 6.0, 0),
            span("c", 9.0, 12.0, 0),  # clipped to the parent's end
        ]
        assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_inclusive_time_skips_same_name_nesting(self):
        spans = [
            span("f", 0.0, 4.0),
            span("f", 1.0, 3.0, 0),
            span("g", 1.5, 2.0, 1),
            span("f", 5.0, 6.0),
        ]
        assert tracing.inclusive_times(spans) == pytest.approx(
            {"f": 5.0, "g": 0.5})


class TestPercentiles:
    @pytest.mark.parametrize("count, expected", [
        (1, 50), (10, 50), (20, 50), (40, 75), (99, 75), (100, 90),
        (117, 90), (199, 90), (200, 95), (264, 95), (1000, 99)])
    def test_highest_percentile_with_ten_samples_beyond(self, count,
                                                        expected):
        assert run.tail_percentile(count) == expected

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert run.percentile(values, 50) == 50
        assert run.percentile(values, 90) == 90
        assert run.percentile([7.0], 90) == 7.0
        assert run.percentile([3, 1, 2], 50) == 2


class TestClassifyStrata:
    def test_quotas_split_by_largest_remainder(self):
        import workloads
        assert workloads.quotas({0: 1, 1: 1, 2: 1}, 4) == {0: 2, 1: 1, 2: 1}
        assert workloads.quotas({0: 81, 2: 1134, 4: 9720, 6: 21870,
                                 8: 26244}, 33) == \
            {0: 0, 2: 1, 4: 5, 6: 12, 8: 15}

    def test_strata_cover_the_whole_space(self):
        import workloads
        for (n, p), points in workloads.Classify.points_by_dim.items():
            assert sum(points.values()) == p ** (n * (n - 1) // 2)


class TestSpeedScaling:
    def test_scales_by_nearby_samples_and_skips_calibration(
            self, monkeypatch):
        monkeypatch.setattr(speed, "REFERENCE_S", 0.1)
        monkeypatch.setattr(speed, "WINDOW", 0)
        sampler = speed.SpeedSampler()
        # calibration took 0.1 s (reference speed) then 0.2 s (half speed)
        sampler.samples = [(1.0, 1.1), (2.0, 2.2)]
        sampler._segments()
        assert sampler.slowdown() == pytest.approx(1.5)
        assert sampler.scaled(0.0, 1.0) == pytest.approx(1.0)
        assert sampler.scaled(1.0, 1.1) == pytest.approx(0.0)
        assert sampler.scaled(1.5, 2.0) == pytest.approx(0.25)
        assert sampler.scaled(0.0, 3.0) == pytest.approx(1.0 + 0.45 + 0.4)

    def test_sampler_restores_the_signal_handler(self):
        import signal
        before = signal.getsignal(signal.SIGALRM)
        with speed.SpeedSampler() as sampler:
            speed.calibrate()
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert len(sampler.samples) >= 2


def _bindings():
    """Every attribute of the artifact modules and traced classes."""
    from artifact import _poly, symbolic
    mods = {k: m for k, m in sys.modules.items()
            if k == "artifact" or k.startswith("artifact.")}
    out = {(k, attr): v for k, m in mods.items()
           for attr, v in vars(m).items()}
    for cls in (_poly.Polynomial, symbolic.IdealHandle):
        out.update({(cls.__qualname__, attr): v
                    for attr, v in vars(cls).items()})
    return out


class TestTracer:
    def test_counts_internal_calls_and_restores_originals(self):
        for module_name, _path, _mode in tracing.TARGETS:
            importlib.import_module(module_name)
        from artifact import orbit_engine
        before = _bindings()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert _bindings() != before
            report = orbit_engine.census(3, 2)
        finally:
            tracer.uninstall()
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

        orbits = tracer.calls["orbit_engine.orbit_bfs"]
        assert orbits == sum(r["count"] for r in report["orbits"])
        # 3 generators acting on 3 basis forms per search, and one
        # catalog walk per orbit plus one for the tally.
        assert tracer.calls["orbit_engine.coadjoint_act"] == 9 * orbits
        assert tracer.calls["admissible.enumerate_maximal"] == orbits + 1
        assert tracer.bfs_states == 2 ** 3
        metrics = tracing.layer_metrics(tracer)
        assert metrics["orbit_engine.orbit_bfs.states"] == 8
        assert metrics["poly.coerce_scalar.calls"] > 0
        spans = tracer.finished_spans()
        assert spans[0][0] == "orbit_engine.census" and spans[0][3] == -1
        assert all(parent >= 0 for _n, _s, _e, parent, _op in spans[1:])

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
            run.END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
            tracing.PER_LAYER_UNITS
        produced = set(tracing.layer_metrics(tracing.Tracer()))
        produced |= {"trace.untraced_wall_s", "trace.traced_wall_s",
                     "trace.overhead_ratio"}
        assert produced == set(tracing.PER_LAYER_UNITS)
