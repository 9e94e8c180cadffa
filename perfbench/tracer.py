"""Per-layer tracing installed from outside the library.

The tracer replaces public functions of the ``artifact`` modules with
wrappers and puts the originals back on ``uninstall``.  A module-level
function is replaced in every ``artifact`` module that bound it by name
(``from .x import f``), so calls between layers are caught too.  Methods
and class methods are replaced on their class.

Spanned functions record (name, start, end, parent, op) in memory; hot
leaf functions are only counted, because a span around each of their
millions of calls would cost more than the work it measures.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

SPAN, COUNT = "span", "count"

# (module, attribute path, mode); the metric prefix is the module name
# after "artifact." followed by the attribute path.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("artifact.admissible", "enumerate_maximal", SPAN),
    ("artifact.root_system", "c_split", COUNT),
    ("artifact.orbit_engine", "coadjoint_act", SPAN),
    ("artifact.orbit_engine", "orbit_bfs", SPAN),
    ("artifact.orbit_engine", "all_orbits", SPAN),
    ("artifact.orbit_engine", "classify", SPAN),
    ("artifact.orbit_engine", "census", SPAN),
    ("artifact.orbit_engine", "kirillov_rank", SPAN),
    ("artifact.orbit_engine", "verify_polarization", SPAN),
    ("artifact.symbolic", "build_ideal", SPAN),
    ("artifact.symbolic", "IdealHandle.from_generators", SPAN),
    ("artifact.symbolic", "is_poisson_ideal", SPAN),
    ("artifact.symbolic", "bracket", COUNT),
    ("artifact.symbolic", "IdealHandle.contains", COUNT),
    ("artifact.char_matrix", "minor", SPAN),
    ("artifact.char_matrix", "p_h_eta", SPAN),
    ("artifact.char_matrix", "triangular_system", SPAN),
    ("artifact._poly", "Polynomial.__init__", COUNT),
    ("artifact._poly", "coerce_scalar", COUNT),
    ("artifact.cli", "main", SPAN),
)

Span = Tuple[str, float, float, int, object]


def _metric_prefix(module: str, path: str) -> str:
    return f"{module.split('.', 1)[1]}.{path}"


class Tracer:
    """Counts and spans for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.op: object = None
        self.minor_keys: set = set()
        self.bfs_states = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        if name == "char_matrix.minor":
            n, spec = args[0], args[1]
            self.minor_keys.add((n, tuple(spec.cols), tuple(spec.rows)))
        elif name == "orbit_engine.orbit_bfs":
            self.bfs_states += len(result)

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            self._observe(name, args, result)
            return result
        return wrapper

    # --- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, _path, _mode in TARGETS:
            importlib.import_module(module_name)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "artifact" or key.startswith("artifact.")]
        for module_name, path, mode in TARGETS:
            name = _metric_prefix(module_name, path)
            make = self._spanned if mode == SPAN else self._counted
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(make(name,
                                                            raw.__func__)))
                else:
                    self._patch(cls, attr, make(name, raw))
                continue
            original = getattr(module, path)
            wrapper = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results --------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        if any(span is None for span in self.spans):
            raise RuntimeError("a span is still open")
        return list(self.spans)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def inclusive_times(spans: List[Span]) -> Dict[str, float]:
    """Total duration per name, leaving out spans nested inside a span of
    the same name so that recursion is not counted twice."""
    totals: Dict[str, float] = {}
    for name, start, end, parent, _op in spans:
        nested = False
        while parent >= 0:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def self_totals(spans: List[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


# name -> unit; run.py reports exactly these in a traced run.
PER_LAYER_UNITS: Dict[str, str] = {
    "admissible.enumerate_maximal.calls": "count",
    "admissible.enumerate_maximal.s": "s",
    "root_system.c_split.calls": "count",
    "orbit_engine.coadjoint_act.calls": "count",
    "orbit_engine.coadjoint_act.s": "s",
    "orbit_engine.orbit_bfs.calls": "count",
    "orbit_engine.orbit_bfs.states": "count",
    "orbit_engine.orbit_bfs.self_s": "s",
    "orbit_engine.bfs_states_per_s": "1/s",
    "orbit_engine.all_orbits.self_s": "s",
    "orbit_engine.classify.self_s": "s",
    "orbit_engine.kirillov_rank.calls": "count",
    "orbit_engine.kirillov_rank.s": "s",
    "orbit_engine.verify_polarization.s": "s",
    "symbolic.build_ideal.s": "s",
    "symbolic.IdealHandle.from_generators.calls": "count",
    "symbolic.is_poisson_ideal.s": "s",
    "symbolic.bracket.calls": "count",
    "symbolic.IdealHandle.contains.calls": "count",
    "char_matrix.minor.calls": "count",
    "char_matrix.minor.distinct": "count",
    "char_matrix.minor.useful_ratio": "ratio",
    "char_matrix.minor.s": "s",
    "char_matrix.p_h_eta.s": "s",
    "char_matrix.triangular_system.s": "s",
    "char_matrix.triangular_system.unsolved": "count",
    # Metric names may not start with "_", so _poly reports as "poly".
    "poly.Polynomial.created": "count",
    "poly.coerce_scalar.calls": "count",
    "cli.main.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric except the trace.* ones, which need the
    untraced pass."""
    spans = tracer.finished_spans()
    inc = inclusive_times(spans)
    own = self_totals(spans)
    calls = tracer.calls
    minor_calls = calls["char_matrix.minor"]
    bfs_s = inc.get("orbit_engine.orbit_bfs", 0.0)
    return {
        "admissible.enumerate_maximal.calls":
            calls["admissible.enumerate_maximal"],
        "admissible.enumerate_maximal.s":
            inc.get("admissible.enumerate_maximal", 0.0),
        "root_system.c_split.calls": calls["root_system.c_split"],
        "orbit_engine.coadjoint_act.calls":
            calls["orbit_engine.coadjoint_act"],
        "orbit_engine.coadjoint_act.s":
            inc.get("orbit_engine.coadjoint_act", 0.0),
        "orbit_engine.orbit_bfs.calls": calls["orbit_engine.orbit_bfs"],
        "orbit_engine.orbit_bfs.states": tracer.bfs_states,
        "orbit_engine.orbit_bfs.self_s":
            own.get("orbit_engine.orbit_bfs", 0.0),
        "orbit_engine.bfs_states_per_s":
            tracer.bfs_states / bfs_s if bfs_s else 0.0,
        "orbit_engine.all_orbits.self_s":
            own.get("orbit_engine.all_orbits", 0.0),
        "orbit_engine.classify.self_s":
            own.get("orbit_engine.classify", 0.0),
        "orbit_engine.kirillov_rank.calls":
            calls["orbit_engine.kirillov_rank"],
        "orbit_engine.kirillov_rank.s":
            inc.get("orbit_engine.kirillov_rank", 0.0),
        "orbit_engine.verify_polarization.s":
            inc.get("orbit_engine.verify_polarization", 0.0),
        "symbolic.build_ideal.s": inc.get("symbolic.build_ideal", 0.0),
        "symbolic.IdealHandle.from_generators.calls":
            calls["symbolic.IdealHandle.from_generators"],
        "symbolic.is_poisson_ideal.s":
            inc.get("symbolic.is_poisson_ideal", 0.0),
        "symbolic.bracket.calls": calls["symbolic.bracket"],
        "symbolic.IdealHandle.contains.calls":
            calls["symbolic.IdealHandle.contains"],
        "char_matrix.minor.calls": minor_calls,
        "char_matrix.minor.distinct": len(tracer.minor_keys),
        "char_matrix.minor.useful_ratio":
            len(tracer.minor_keys) / minor_calls if minor_calls else 0.0,
        "char_matrix.minor.s": inc.get("char_matrix.minor", 0.0),
        "char_matrix.p_h_eta.s": inc.get("char_matrix.p_h_eta", 0.0),
        "char_matrix.triangular_system.s":
            inc.get("char_matrix.triangular_system", 0.0),
        "char_matrix.triangular_system.unsolved":
            tracer.raised["char_matrix.triangular_system"],
        "poly.Polynomial.created": calls["_poly.Polynomial.__init__"],
        "poly.coerce_scalar.calls": calls["_poly.coerce_scalar"],
        "cli.main.self_s": own.get("cli.main", 0.0),
    }
