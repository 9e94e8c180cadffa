"""Shared frozen oracle data and helpers for the test suite.

All expected values here were derived independently (hand replay of the
construction rules, cross-checked against point-count identities) and are
frozen as oracles.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from artifact.root_system import Root, positive_roots


def R(row, col):
    return Root(row, col)


# ---------------------------------------------------------------------------
# Frozen maximal-subset catalogs for n = 3, 4, 5.
# Each entry: label -> dict with the defining sequence (lex-decreasing), the
# otimes mask ('X' = otimes, 'B' = box), the full symbol grid (one string per
# matrix row, length n), the orbit dimension, and the bullet set M.
# ---------------------------------------------------------------------------

CATALOG3 = {
    (3, 0, 1): dict(
        seq=[R(3, 1)], mask="X",
        grid=["   ", "+  ", "X- "], dim=2, m=[],
    ),
    (3, 1, 1): dict(
        seq=[R(2, 1), R(3, 2)], mask="BB",
        grid=["   ", "B  ", ".B "], dim=0, m=[R(3, 1)],
    ),
}

CATALOG4 = {
    (4, 0, 1): dict(
        seq=[R(4, 1), R(3, 2)], mask="XB",
        grid=["    ", "+   ", "+B  ", "X-- "], dim=4, m=[],
    ),
    (4, 1, 1): dict(
        seq=[R(3, 1), R(4, 2), R(4, 3)], mask="XBB",
        grid=["    ", "+   ", "X-  ", ".BB "], dim=2, m=[R(4, 1)],
    ),
    (4, 2, 1): dict(
        seq=[R(2, 1), R(4, 2)], mask="BX",
        grid=["    ", "B   ", ".+  ", ".X- "], dim=2, m=[R(3, 1), R(4, 1)],
    ),
    (4, 2, 2): dict(
        seq=[R(2, 1), R(3, 2), R(4, 3)], mask="BBB",
        grid=["    ", "B   ", ".B  ", "..B "], dim=0,
        m=[R(3, 1), R(4, 1), R(4, 2)],
    ),
}

CATALOG5 = {
    (5, 0, 1): dict(
        seq=[R(5, 1), R(4, 2)], mask="XX",
        grid=["     ", "+    ", "++   ", "+X-  ", "X--- "], dim=8, m=[],
    ),
    (5, 0, 2): dict(
        seq=[R(5, 1), R(3, 2), R(4, 3)], mask="XBB",
        grid=["     ", "+    ", "+B   ", "+.B  ", "X--- "], dim=6,
        m=[R(4, 2)],
    ),
    (5, 1, 1): dict(
        seq=[R(4, 1), R(5, 2), R(5, 4)], mask="XXB",
        grid=["     ", "+    ", "++   ", "X--  ", ".X-B "], dim=6,
        m=[R(5, 1)],
    ),
    (5, 1, 2): dict(
        seq=[R(4, 1), R(3, 2), R(5, 3), R(5, 4)], mask="XBBB",
        grid=["     ", "+    ", "+B   ", "X--  ", "..BB "], dim=4,
        m=[R(5, 1), R(5, 2)],
    ),
    (5, 2, 1): dict(
        seq=[R(3, 1), R(5, 2), R(5, 3), R(4, 3)], mask="XXBB",
        grid=["     ", "+    ", "X-   ", ".+B  ", ".XB- "], dim=4,
        m=[R(4, 1), R(5, 1)],
    ),
    (5, 2, 2): dict(
        seq=[R(3, 1), R(4, 2), R(5, 3)], mask="XBX",
        grid=["     ", "+    ", "X-   ", ".B+  ", "..X- "], dim=4,
        m=[R(4, 1), R(5, 1), R(5, 2)],
    ),
    (5, 2, 3): dict(
        seq=[R(3, 1), R(4, 2), R(4, 3), R(5, 4)], mask="XBBB",
        grid=["     ", "+    ", "X-   ", ".BB  ", "...B "], dim=2,
        m=[R(4, 1), R(5, 1), R(5, 2), R(5, 3)],
    ),
    (5, 3, 1): dict(
        seq=[R(2, 1), R(5, 2), R(4, 3)], mask="BXB",
        grid=["     ", "B    ", ".+   ", ".+B  ", ".X-- "], dim=4,
        m=[R(3, 1), R(4, 1), R(5, 1)],
    ),
    (5, 3, 2): dict(
        seq=[R(2, 1), R(4, 2), R(5, 3), R(5, 4)], mask="BXBB",
        grid=["     ", "B    ", ".+   ", ".X-  ", "..BB "], dim=2,
        m=[R(3, 1), R(4, 1), R(5, 1), R(5, 2)],
    ),
    (5, 3, 3): dict(
        seq=[R(2, 1), R(3, 2), R(5, 3)], mask="BBX",
        grid=["     ", "B    ", ".B   ", "..+  ", "..X- "], dim=2,
        m=[R(3, 1), R(4, 1), R(5, 1), R(4, 2), R(5, 2)],
    ),
    (5, 3, 4): dict(
        seq=[R(2, 1), R(3, 2), R(4, 3), R(5, 4)], mask="BBBB",
        grid=["     ", "B    ", ".B   ", "..B  ", "...B "], dim=0,
        m=[R(3, 1), R(4, 1), R(5, 1), R(4, 2), R(5, 2), R(5, 3)],
    ),
}

CHAIN_ORDER5 = [
    (5, 0, 1), (5, 0, 2), (5, 1, 1), (5, 1, 2), (5, 2, 1), (5, 2, 2),
    (5, 2, 3), (5, 3, 1), (5, 3, 2), (5, 3, 3), (5, 3, 4),
]

# Two larger anchor diagrams whose exact shape is frozen.
ANCHOR_634 = dict(
    seq=[R(3, 1), R(5, 2), R(5, 3), R(4, 3), R(6, 4), R(6, 5)],
    mask="XXBBBB",
    grid=["      ", "+     ", "X-    ", ".+B   ", ".XB-  ", "...BB "],
    dim=4,
    m=[R(4, 1), R(5, 1), R(6, 1), R(6, 2), R(6, 3)],
)

ANCHOR_727 = dict(
    seq=[R(5, 1), R(4, 2), R(7, 3), R(7, 4), R(6, 4), R(7, 5), R(6, 5)],
    mask="XXXBBBB",
    grid=["       ", "+      ", "++     ", "+X-    ", "X---   ",
          "..+BB  ", "..XBB- "],
    dim=10,
    m=[R(6, 1), R(7, 1), R(6, 2), R(7, 2)],
)

# Column chain for the (5,2,1) diagram.
B_CHAIN_521 = {
    1: {R(i, j) for i in range(2, 6) for j in range(1, i)},
    2: {R(4, 2), R(5, 2), R(4, 3), R(5, 3), R(5, 4)},
    3: {R(4, 3), R(5, 3)},
    4: set(),
    5: set(),
}


def b_chain(s):
    """B_1..B_n of a diagram: B_t is the ``a_chain`` stage after the last
    pick in a column < t, restricted to the columns >= t."""
    out = []
    for t in range(1, s.n + 1):
        stage = max((j for j, xi in enumerate(s.xi, start=1) if xi.col < t),
                    default=0)
        out.append({r for r in s.a_chain[stage] if r.col >= t})
    return out


def tau_split(n, cols, rows):
    """A minor split by tau-degree into {degree: nonzero coefficient}, read
    through ``minor`` one degree at a time."""
    from artifact.char_matrix import MinorSpec, minor

    parts = {k: minor(n, MinorSpec(cols, rows, k))
             for k in range(len(cols) + 1)}
    return {k: v for k, v in parts.items() if not v.is_zero()}


def dense_moves(n, p):
    """The moves of ``orbit_engine._generator_moves`` for the generators
    I + e_alpha, assembled densely: full[g, k, i] is the value at root i of
    basis form k moved by generator g, a generator drives the basis forms
    whose image differs from the identity, writes the roots where full
    differs from the identity, and reads the basis forms with a nonzero
    value at a written root.  Columns are stored writes x reads, the read
    place values as a column, and drivers and writes as bitmasks."""
    from artifact.orbit_engine import LinearForm, _generators, coadjoint_act

    roots = positive_roots(n)
    size = len(roots)
    index = {r: k for k, r in enumerate(roots)}
    full = np.zeros((size, size, size), dtype=np.int64)
    for g_at, g in enumerate(_generators(n, p)):
        for k, r in enumerate(roots):
            image = coadjoint_act(g, LinearForm(n, p, {r: 1}))
            for root, v in image.values.items():
                full[g_at, k, index[root]] = v
    moved = full != np.eye(size, dtype=np.int64)
    drives = moved.any(axis=2)
    writes = moved.any(axis=1)
    reads = ((full != 0) & writes[:, None, :]).any(axis=2)
    moves = []
    for g in np.flatnonzero(writes.any(axis=1)):
        r, w = np.flatnonzero(reads[g]), np.flatnonzero(writes[g])
        moves.append((full[g][r][:, w].T, p ** (size - 1 - r)[:, None],
                      p ** (size - 1 - w), np.searchsorted(r, w),
                      sum(1 << int(k) for k in np.flatnonzero(drives[g])),
                      sum(1 << int(i) for i in w)))
    return moves


def stratum_max_dims(n, p):
    """Largest orbit dimension within each first-column stratum: each
    orbit's dimension is that of its diagram, whose size check it passed."""
    from artifact.admissible import dimension
    from artifact.orbit_engine import _classify_orbit, all_orbits, stratum

    orbits = all_orbits(n, p)
    best = [0] * n
    for orbit in orbits:
        dim = dimension(_classify_orbit(orbit, "stratum_max_dims")[0])
        st = stratum(orbit.representative)
        best[st] = max(best[st], dim)
    return best


# Expected per-dimension orbit counts for small finite-field censuses.
CENSUS_EXPECT = {
    (3, 2): {2: 1, 0: 4},
    (3, 3): {2: 2, 0: 9},
    (4, 2): {4: 2, 2: 6, 0: 8},
    (4, 3): {4: 6, 2: 24, 0: 27},
    (5, 2): {8: 1, 6: 6, 4: 18, 2: 20, 0: 16},
}

# Subregular labels per n (orbit dimension N - n0 - 2).
SUBREGULAR_LABELS = {
    3: [(3, 1, 1)],
    4: [(4, 1, 1), (4, 2, 1)],
    5: [(5, 0, 2), (5, 1, 1)],
    6: [(6, 0, 2), (6, 0, 3), (6, 1, 1)],
    7: [(7, 0, 2), (7, 0, 3), (7, 1, 1)],
}

MAXIMAL_COUNTS = {2: 1, 3: 2, 4: 4, 5: 11}


# ---------------------------------------------------------------------------
# Session-scoped catalog caches.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def catalogs():
    from artifact.admissible import enumerate_maximal

    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = enumerate_maximal(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def partitions():
    """``all_orbits(n, p)``, searched once per (n, p) for the session."""
    from artifact.orbit_engine import all_orbits

    cache = {}

    def get(n, p):
        if (n, p) not in cache:
            cache[n, p] = all_orbits(n, p)
        return cache[n, p]

    return get


@pytest.fixture(scope="session")
def by_label(catalogs):
    def get(label):
        n = label[0]
        for s in catalogs(n):
            if s.label == label:
                return s
        raise KeyError(label)

    return get


@pytest.fixture(scope="session")
def build_frozen():
    """Build an AdmissibleSubset from a frozen catalog entry."""
    from artifact.admissible import build_admissible

    def make(entry, n):
        return build_admissible(n, entry["seq"])

    return make


def frac(x):
    return Fraction(x)
