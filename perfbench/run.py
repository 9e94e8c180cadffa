"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of one traced pass, and the spans are written to ``perfbench/out``.
"""
from __future__ import annotations

import os

# One thread per process: the workload is a single closed-loop client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Sequence, Tuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 9

Interval = Tuple[float, float]

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q percent
    of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int,
                    candidates: Sequence[float] = (99, 95, 90, 75, 50)
                    ) -> float:
    """The highest candidate percentile that leaves at least ten samples
    above it; 50 when none does."""
    for q in candidates:
        if count - -(-count * q // 100) >= 10:
            return q
    return 50


def measure_setup(ns: Sequence[int]) -> List[Interval]:
    """Fresh interpreters that import the library and build the workload's
    catalogs, SETUP_REPEATS times; returns their (start, end) times."""
    code = ("import sys; import artifact.cli; "
            "from artifact.admissible import enumerate_maximal; "
            "[enumerate_maximal(int(n)) for n in sys.argv[1:]]")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    intervals = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, *map(str, ns)],
                       env=env, cwd=ROOT, check=True)
        intervals.append((start, time.perf_counter()))
    return intervals


class Outcome:
    """Timed intervals and check results accumulated over passes."""

    def __init__(self) -> None:
        self.passes: List[Interval] = []
        self.ops: List[Interval] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []


def run_pass(workload, seed: int, index: int, items: list,
             outcome: Outcome, tracer=None) -> float:
    """Time one pass's operations, then check their outputs; returns the
    pass's seconds."""
    clock = time.perf_counter
    results = []
    start = clock()
    for position, item in enumerate(items):
        if tracer is not None:
            tracer.op = (index, position)
        t0 = clock()
        try:
            result = workload.op(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        outcome.ops.append((t0, clock()))
        results.append(result)
    outcome.passes.append((start, clock()))
    for position, (item, result) in enumerate(zip(items, results)):
        if isinstance(result, Exception):
            errors = [f"raised {result!r}"]
        else:
            try:
                errors = workload.check(seed, index, position, item, result)
            except Exception as exc:  # a malformed output fails its check
                errors = [f"check raised {exc!r}"]
        outcome.attempted += 1
        outcome.failed += bool(errors)
        outcome.failures += [f"op {index}/{position}: {e}" for e in errors]
    return outcome.passes[-1][1] - start


def environment() -> Dict:
    commit = "unknown"
    if (ROOT / ".git").exists():  # a plain source tree has no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or commit
        except OSError:
            pass
    import numpy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "artifact").is_dir():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    outcome = Outcome()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}

    if args.trace:
        # The sampler rescales the two pass times the overhead compares;
        # span times stay unscaled and include its loop (about 1%).
        with speed.SpeedSampler() as sampler:
            # In-process set-up: imports and the first catalog build.
            workload = cls(reference)
            items = workload.inputs(args.seed, 0)
            run_pass(workload, args.seed, 0, items, outcome)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_pass(workload, args.seed, 0, items, outcome, tracer)
            finally:
                tracer.uninstall()
        untraced, traced = (sampler.scaled(*iv) for iv in outcome.passes)
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.traced_wall_s"] = traced
        metrics["trace.overhead_ratio"] = traced / untraced - 1
        units = tracing.PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(span_path, "w", encoding="utf-8") as fh:
            for span in tracer.finished_spans():
                fh.write(json.dumps(span) + "\n")
    else:
        with speed.SpeedSampler() as sampler:
            setup = measure_setup(cls.catalog_ns)
            workload = cls(reference)
            index, elapsed = 0, 0.0
            # Start another pass only if it is likely to end in time.
            while index == 0 or elapsed + elapsed / index <= args.seconds:
                items = workload.inputs(args.seed, index)
                elapsed += run_pass(workload, args.seed, index, items,
                                    outcome)
                index += 1

        def summary(scale, slowdown) -> Dict[str, float]:
            ops = [scale(*iv) for iv in outcome.ops]
            return {
                # Set-up runs in child processes, so it is rescaled by the
                # run's median speed rather than by samples around it.
                "setup_s": statistics.median(end - start
                                             for start, end in setup)
                / slowdown,
                "wall_s": statistics.median(scale(*iv)
                                            for iv in outcome.passes),
                "op_p50_ms": 1000 * percentile(ops, 50),
                "op_p90_ms": 1000 * percentile(ops, 90),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        metrics = summary(sampler.scaled, sampler.slowdown())
        units = END_TO_END_UNITS
        record["unscaled"] = summary(lambda start, end: end - start, 1.0)
        record["slowdown_vs_reference"] = sampler.slowdown()

    failed, attempted = outcome.failed, outcome.attempted
    record.update({
        "passes": len(outcome.passes),
        "ops": len(outcome.ops),
        "op_tail_percentile": tail_percentile(len(outcome.ops)),
        "fail_ratio": failed / attempted,
        "failures": outcome.failures[:50],
        "metrics": metrics,
    })
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=2) + "\n")
    for line in outcome.failures[:20]:
        print("FAIL", line)
    print(f"environment {json.dumps(record['environment'])}")
    print(f"{args.workload}: {len(outcome.passes)} pass(es), "
          f"{len(outcome.ops)} ops, fail_ratio {failed / attempted:.4f} "
          f"({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    if "PYTHONHASHSEED" not in os.environ:
        # Pin string hashing, so that set and dict order in the library,
        # and with it every per-layer count, repeats between runs.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
