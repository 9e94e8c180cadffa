"""The benchmark's workloads.

Each workload turns a seed and a pass index into a list of inputs (outside
the timed region), runs one operation per input through the library's
public API (timed), and checks each output (outside the timed region).
Operations call the library through module attributes, never through
names bound here, so the tracer's wrappers see every call.

census       the CLI census of UT(6, F_2): the whole 2^15-point dual space
             is split into 275 orbits and each is classified.  One
             operation per pass.
classify     a closed-loop stream of classify(f) queries alternating
             UT(5, F_3) and UT(6, F_2); half are uniform random points
             (large, search-bound orbits), half are canonical forms of
             diagrams with random constants (many small orbits, where the
             per-call fixed cost dominates).
families_n7  the exact symbolic work for each of the 117 maximal diagrams
             at n = 7: defining ideal and its Poisson closure, the minors
             p_{h,eta}, the triangular solver, and Kirillov rank and
             polarization at a canonical form over Q and F_101.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from typing import Dict, List, Sequence

from artifact import admissible, char_matrix, cli, orbit_engine, symbolic
from artifact._poly import poly_text
from artifact.root_system import lex_sort_key, positive_roots

# The seed whose classify answers are stored query by query in the
# reference file; other seeds get the seed-independent checks only.
DEFAULT_SEED = 1


def digest(texts: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def label_text(s) -> str:
    return ",".join(str(x) for x in s.label)


def _answer_text(s, c) -> str:
    values = ",".join(f"{r.row}_{r.col}={int(v)}"
                      for r, v in sorted(c.items(),
                                         key=lambda kv: lex_sort_key(kv[0])))
    return f"{label_text(s)}|{values}"


def quotas(weights: Dict[int, int], total: int) -> Dict[int, int]:
    """Split total in proportion to weights, by largest remainder."""
    whole = sum(weights.values())
    exact = {k: total * w / whole for k, w in weights.items()}
    out = {k: int(v) for k, v in exact.items()}
    by_remainder = sorted(exact, key=lambda k: out[k] - exact[k])
    for k in by_remainder[:total - sum(out.values())]:
        out[k] += 1
    return out


class Census:
    name = "census"
    catalog_ns = (6,)
    argv = ["census", "--n", "6", "--p", "2", "--json"]

    def __init__(self, reference: dict):
        self.ref = reference["census"]

    def inputs(self, seed: int, index: int) -> List[Sequence[str]]:
        # The census has no random input; the seed does not change it.
        return [self.argv]

    def op(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def check(self, seed: int, index: int, position: int, argv, result
              ) -> List[str]:
        code, text = result
        errors = []
        if code != 0:
            errors.append(f"exit code {code}")
        if hashlib.sha256(text.encode()).hexdigest() != self.ref["sha256"]:
            errors.append("CLI JSON differs from the reference bytes")
        report = json.loads(text)["result"] if code == 0 else {}
        if not all(report.get("identities", {}).values()) or \
                len(report.get("identities", {})) != 2:
            errors.append("a counting identity is not true")
        orbits = sum(row["count"] for row in report.get("orbits", []))
        if orbits != self.ref["orbits"]:
            errors.append(f"{orbits} orbits, expected {self.ref['orbits']}")
        return errors


class Classify:
    name = "classify"
    catalog_ns = (5, 6)
    fields = ((5, 3), (6, 2))
    # Per field and pass: this many canonical and this many uniform
    # queries.  It is a multiple of both catalog sizes (11 and 33), and
    # each pass takes every diagram equally often in a seeded order, so
    # the canonical half carries the same orbit sizes on every seed.
    per_kind = 33
    # Points of the whole space per orbit dimension, from census(n, p).
    # Uniform points are drawn by rejection into quotas proportional to
    # these, so the uniform half too carries the same orbit sizes on
    # every seed while each point is uniform within its dimension.
    points_by_dim = {
        (5, 3): {0: 81, 2: 1134, 4: 9720, 6: 21870, 8: 26244},
        (6, 2): {0: 32, 2: 224, 4: 1280, 6: 3840, 8: 8960, 10: 10240,
                 12: 8192},
    }

    def __init__(self, reference: dict):
        self.ref = reference["classify"]
        self.catalogs = {n: admissible.enumerate_maximal(n)
                         for n, _p in self.fields}

    def inputs(self, seed: int, index: int):
        rng = random.Random(f"classify/{seed}/{index}")
        streams = []
        for n, p in self.fields:
            cat = self.catalogs[n]
            diagrams = cat * (self.per_kind // len(cat))
            rng.shuffle(diagrams)
            canon = []
            for s in diagrams:
                c = {r: rng.randrange(1, p) if marked else rng.randrange(p)
                     for r, marked in zip(s.xi, s.otimes_mask)}
                f = orbit_engine.canonical_form(s, c, p)
                canon.append((f, (label_text(s), c)))
            quota = quotas(self.points_by_dim[(n, p)], self.per_kind)
            uniform = []
            while len(uniform) < self.per_kind:
                f = orbit_engine.LinearForm(
                    n, p, {r: rng.randrange(p) for r in positive_roots(n)})
                dim = orbit_engine.kirillov_rank(f)
                if quota.get(dim, 0) > 0:
                    quota[dim] -= 1
                    uniform.append((f, None))
            streams.append([q for pair in zip(canon, uniform) for q in pair])
        # alternate the fields query by query
        return [q for pair in zip(*streams) for q in pair]

    def op(self, query):
        f, _expected = query
        return orbit_engine.classify(f)

    def check(self, seed: int, index: int, position: int, query, result
              ) -> List[str]:
        f, expected = query
        s, c = result
        errors = []
        if expected is not None and \
                (label_text(s), dict(c)) != (expected[0], expected[1]):
            errors.append(f"canonical input {expected[0]} answered "
                          f"{label_text(s)}")
        if orbit_engine.kirillov_rank(f) != admissible.dimension(s):
            errors.append(f"rank differs from dim of {label_text(s)}")
        if seed == DEFAULT_SEED:
            answers = self.ref["answers"]
            k = index * 4 * self.per_kind + position
            got = digest([_answer_text(s, c)])
            if k < len(answers) and got != answers[k]:
                errors.append(f"query {k} answer differs from the reference")
        return errors


class FamiliesN7:
    name = "families_n7"
    catalog_ns = (7,)
    prime = 101

    def __init__(self, reference: dict):
        self.ref = reference["families_n7"]
        self.catalog = admissible.enumerate_maximal(7)

    def inputs(self, seed: int, index: int):
        rng = random.Random(f"families_n7/{seed}/{index}")
        out = []
        for s in self.catalog:
            forms = []
            cq = {r: Fraction(rng.randint(1, 9) * rng.choice((1, -1)),
                              rng.randint(1, 4)) if marked
                  else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for r, marked in zip(s.xi, s.otimes_mask)}
            cp = {r: rng.randrange(1, self.prime) if marked
                  else rng.randrange(self.prime)
                  for r, marked in zip(s.xi, s.otimes_mask)}
            for c, p in ((cq, None), (cp, self.prime)):
                forms.append(orbit_engine.canonical_form(s, c, p))
            out.append((s, forms))
        return out

    def op(self, item):
        s, forms = item
        handle = symbolic.build_ideal(s, None)
        closed = symbolic.is_poisson_ideal(handle)
        minors = [char_matrix.p_h_eta(s, eta)
                  for eta in sorted(s.a_set, key=lex_sort_key)]
        try:
            char_matrix.triangular_system(s)
            solved = True
        except char_matrix.LemmaFailure:
            solved = False
        pol = orbit_engine.polarization(s)
        points = [(orbit_engine.kirillov_rank(f),
                   orbit_engine.verify_polarization(pol, f)) for f in forms]
        return handle, closed, minors, solved, points

    def check(self, seed: int, index: int, position: int, item, result
              ) -> List[str]:
        s, _forms = item
        handle, closed, minors, solved, points = result
        label = label_text(s)
        ref = self.ref["diagrams"].get(label)
        if ref is None:
            return [f"diagram {label} is not in the reference"]
        errors = []
        if not closed:
            errors.append(f"ideal of {label} is not Poisson-closed")
        if digest([poly_text(g) for g in handle.generators]) != \
                ref["generators"]:
            errors.append(f"generator texts of {label} differ")
        if digest([poly_text(m) for m in minors]) != ref["p_h_eta"]:
            errors.append(f"p_h_eta texts of {label} differ")
        # The solver's known gaps are a count, not a failure; only a new
        # gap fails.
        if not solved and label not in self.ref["unsolved"]:
            errors.append(f"triangular solver newly fails on {label}")
        dim = admissible.dimension(s)
        for rank, polarized in points:
            if rank != dim:
                errors.append(f"rank {rank} != dim {dim} for {label}")
            if not polarized:
                errors.append(f"polarization of {label} fails")
        return errors


WORKLOADS = {cls.name: cls for cls in (Census, Classify, FamiliesN7)}


def make_reference(classify_passes: int) -> Dict:
    """Outputs of the current library, in the reference file's format.
    The stored reference was written from the seed commit's library."""
    census = Census({"census": {}})
    code, text = census.op(census.argv)
    report = json.loads(text)["result"]
    ref: Dict = {"census": {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "orbits": sum(row["count"] for row in report["orbits"])}}

    fam = FamiliesN7({"families_n7": {}})
    diagrams, unsolved = {}, []
    for item in fam.inputs(DEFAULT_SEED, 0):
        handle, _closed, minors, solved, _points = fam.op(item)
        label = label_text(item[0])
        diagrams[label] = {
            "generators": digest([poly_text(g) for g in handle.generators]),
            "p_h_eta": digest([poly_text(m) for m in minors])}
        if not solved:
            unsolved.append(label)
    ref["families_n7"] = {"diagrams": diagrams, "unsolved": unsolved}

    cls = Classify({"classify": {}})
    answers: List[str] = []
    for index in range(classify_passes):
        for query in cls.inputs(DEFAULT_SEED, index):
            s, c = cls.op(query)
            answers.append(digest([_answer_text(s, c)]))
    ref["classify"] = {"seed": DEFAULT_SEED, "answers": answers}
    return ref
