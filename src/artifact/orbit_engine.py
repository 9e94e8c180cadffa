"""Finite-field orbit enumeration and classification.

Linear forms on the strictly lower triangle are acted on by the lower
unitriangular group through conjugation of the corresponding upper
triangular value matrix.  The group is the product of its root subgroups
X_alpha = {(I + e_alpha)^t : t < p} taken in any fixed order, so an orbit
is enumerated by closing one point under each X_alpha in turn.  A generator
I + e_alpha is linear on value vectors and changes only a few values of
each, so one step reads and rewrites only those base-p digits.  The search
runs on packed codes only: each state is one int64 holding its base-p
digits, and an orbit is the sorted array of its codes, so the field size is
limited to p^(n(n-1)/2) <= 2^63.

``coadjoint_act`` skips the validating ``LinearForm`` constructor: its result
roots lie in the triangle by construction, and it reduces values itself.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ._poly import coerce_scalar, substitute
from .admissible import AdmissibleSubset, dimension, enumerate_maximal
from .root_system import Root, RootSet, check_dimension, positive_roots, \
    root_sum, structure_constants
from .symbolic import canonical_pairs, evaluate, IdealHandle, Polynomial

__all__ = [
    "BudgetExceeded", "ClassificationMismatch", "GroupElement", "InvalidC",
    "InvalidInput", "LinearForm", "NotSubregular", "Orbit", "all_orbits",
    "canonical_form", "census", "classify", "coadjoint_act",
    "kirillov_rank", "orbit_bfs", "polarization", "regular_ideal",
    "stratum", "stratum_max_dims", "subregular_classify",
    "verify_polarization",
]

_DEFAULT_BUDGET = 1 << 26


class InvalidC(ValueError):
    """The constants do not match the diagram's picks."""


class BudgetExceeded(RuntimeError):
    """An orbit has, or a whole-space scan would visit, more states than
    the budget allows."""


class ClassificationMismatch(RuntimeError):
    """An orbit failed its canonical-member or size cross-check."""


class NotSubregular(ValueError):
    """The orbit dimension is not the subregular one."""


class InvalidInput(ValueError):
    """A field size that is not a prime, a root outside the triangle, an
    unparseable ARTIFACT_BFS_BUDGET, or a field too large for packed orbit
    states."""


def _check_prime(p: int) -> None:
    if not isinstance(p, int) or p < 2 or \
            any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise InvalidInput(f"p must be a prime, got {p!r}")


# --- linear forms and the group ------------------------------------------

class LinearForm:
    """A linear form on the strictly lower triangle; zero values are not
    stored, and finite-field values are reduced immediately."""

    __slots__ = ("n", "p", "values", "_hash", "_rank")

    def __init__(self, n: int, p: Optional[int],
                 values: Optional[Dict[Root, object]] = None):
        if p is not None:
            _check_prime(p)
        vals: Dict[Root, object] = {}
        for root, raw in (values or {}).items():
            if not 1 <= root.col < root.row <= n:
                raise InvalidInput(
                    f"{root!r} lies outside the n={n} triangle")
            v = coerce_scalar(raw, p)
            if v != 0:
                vals[root] = v
        self._fill(n, p, vals)

    @classmethod
    def _reduced(cls, n: int, p: Optional[int],
                 values: Dict[Root, object]) -> "LinearForm":
        """Trusted: ``values`` is kept as is, so its roots must lie in the
        triangle and its values be nonzero and reduced (ints 1..p-1 or Q)."""
        self = object.__new__(cls)
        self._fill(n, p, values)
        return self

    def _fill(self, n, p, values) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "values", values)
        # _hash and _rank stay unset until first needed: one more store
        # here would cost every form the orbit searches build.

    def __setattr__(self, name, value):
        raise AttributeError("LinearForm is immutable")

    def value(self, root: Root):
        return self.values.get(root, Fraction(0) if self.p is None else 0)

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return (self.n, self.p, self.values) == \
            (other.n, other.p, other.values)

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.n, self.p, frozenset(self.values.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        inner = ", ".join(f"({r.row},{r.col}): {v}"
                          for r, v in sorted(
                              self.values.items(),
                              key=lambda kv: (kv[0].row, kv[0].col)))
        return f"LinearForm(n={self.n}, p={self.p}, {{{inner}}})"


class GroupElement:
    """A lower unitriangular matrix over the field."""

    __slots__ = ("n", "p", "matrix", "_inverse")

    def __init__(self, n: int, p: Optional[int],
                 entries: Optional[Dict[Tuple[int, int], object]] = None,
                 _matrix: Optional[List[List[object]]] = None):
        self.n = n
        self.p = p
        self._inverse: Optional["GroupElement"] = None
        if _matrix is not None:
            self.matrix = _matrix
            return
        if p is not None:
            _check_prime(p)
        one = coerce_scalar(1, p)
        zero = coerce_scalar(0, p)
        m = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for (i, j), raw in (entries or {}).items():
            if not 1 <= j < i <= n:
                raise ValueError(f"entry ({i},{j}) is not strictly lower")
            m[i - 1][j - 1] = coerce_scalar(raw, p)
        self.matrix = m

    def inverse(self) -> "GroupElement":
        """The inverse, solved once by forward substitution and cached:
        row i of the inverse is -sum_{k<i} m[i][k] * (row k), plus e_i."""
        if self._inverse is None:
            n, p, m = self.n, self.p, self.matrix
            inv = GroupElement(n, p).matrix
            for i in range(1, n):
                row = inv[i]
                for k in range(i):
                    if m[i][k] == 0:
                        continue
                    src = inv[k]
                    for j in range(k + 1):
                        row[j] = row[j] - m[i][k] * src[j]
                if p is not None and any(m[i][:i]):
                    inv[i] = [v % p for v in row]
            self._inverse = GroupElement(n, p, _matrix=inv)
        return self._inverse


@lru_cache(maxsize=None)
def _root_order(n: int) -> Tuple[Root, ...]:
    """The roots in decreasing order; state digit k is the value at root k."""
    return tuple(positive_roots(n))


def _generators(n: int, p: int) -> Tuple[GroupElement, ...]:
    """The generators I + e_alpha in root order.  Each caches its inverse
    on first use, so a caller that keeps them solves each inverse once."""
    return tuple(GroupElement(n, p, {(r.row, r.col): 1})
                 for r in _root_order(n))


@lru_cache(maxsize=None)
def _root_grid(n: int) -> Tuple[Tuple[Root, ...], ...]:
    """grid[b][a] is the root (b + 1, a + 1) of ``_root_order(n)``, for the
    0-based a < b < n."""
    at = {(r.row, r.col): r for r in _root_order(n)}
    return tuple(tuple(at[b + 1, a + 1] for a in range(b)) for b in range(n))


def coadjoint_act(g: GroupElement, f: LinearForm) -> LinearForm:
    """Conjugate the value matrix and keep its strictly upper part.

    The value matrix V is strictly upper triangular: with 0-based k < l,
    V[k][l] is the value of f at root (l + 1, k + 1).  Each nonzero entry v
    adds v * g[a][k] * g^-1[l][b] to entry (a, b) of g V g^-1, and only
    k <= a < b <= l can be nonzero and strictly upper, so the dense products
    are never formed.  So every result root (b + 1, a + 1) lies in the
    triangle, and the result is returned through the trusted
    ``LinearForm._reduced`` after reducing each value and dropping zeros."""
    if (g.n, g.p) != (f.n, f.p):
        raise ValueError("group element and form live over different fields")
    n, p = f.n, f.p
    gm, hm = g.matrix, g.inverse().matrix
    acc: Dict[Tuple[int, int], object] = {}
    for root, v in f.values.items():
        k, l = root.col - 1, root.row - 1
        row = hm[l]
        rights = [(b, row[b]) for b in range(k + 1, l + 1) if row[b]]
        for a in range(k, l):
            left = gm[a][k]
            if left:
                left *= v
                for b, h in rights:
                    if b > a:
                        key = a, b
                        acc[key] = acc.get(key, 0) + left * h
    grid = _root_grid(n)
    values: Dict[Root, object] = {}
    for (a, b), v in sorted(acc.items()):
        if p is not None:
            v %= p
        if v:
            values[grid[b][a]] = v
    return LinearForm._reduced(n, p, values)


# --- canonical forms ------------------------------------------------------

def canonical_form(s: AdmissibleSubset, c: Dict[Root, object],
                   p: Optional[int] = None) -> LinearForm:
    """The point with value c on each pick and zero elsewhere.  Every pick
    needs a value and marked picks need a nonzero one."""
    if p is not None:
        _check_prime(p)
    picks = set(s.xi)
    for key in c:
        if key not in picks:
            raise InvalidC(f"{key!r} is not a pick of the diagram")
    values: Dict[Root, object] = {}
    for root, marked in zip(s.xi, s.otimes_mask):
        if root not in c:
            raise InvalidC(f"missing value for pick {root!r}")
        v = coerce_scalar(c[root], p)
        if marked and v == 0:
            raise InvalidC(f"marked pick {root!r} needs a nonzero value")
        values[root] = v
    return LinearForm(s.n, p, values)


# --- orbit enumeration ----------------------------------------------------

def _generator_moves(n: int, p: int,
                     generators: Optional[Tuple[GroupElement, ...]] = None
                     ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The ``_generators(n, p)``, or the given ones, as sparse moves on
    states.

    A generator changes only a few values of a form, each a linear function
    of a few old values.  There is one triple (reads, columns, writes) for
    each generator that moves anything, in root order: the new value at
    root ``writes[t]`` is the old values at roots ``reads`` times column t
    of ``columns``.  The action is unipotent, so a written value reads
    itself with coefficient 1 and ``writes`` is a subset of ``reads``."""
    roots = _root_order(n)
    size = len(roots)
    index = {r: k for k, r in enumerate(roots)}
    # full[g, k, i]: value at root i of basis form k moved by generator g,
    # written at once from its nonzero entries keyed by flat position.
    flat: Dict[int, int] = {}
    basis = [LinearForm._reduced(n, p, {r: 1}) for r in roots]
    for g_at, g in enumerate(generators or _generators(n, p)):
        for k, form in enumerate(basis):
            base = (g_at * size + k) * size
            for root, v in coadjoint_act(g, form).values.items():
                flat[base + index[root]] = v
    full = np.zeros((size, size, size), dtype=np.int64)
    np.put(full, list(flat), list(flat.values()))
    writes = (full != np.eye(size, dtype=np.int64)).any(axis=1)
    reads = ((full != 0) & writes[:, None, :]).any(axis=2)
    return [(np.flatnonzero(reads[g]), full[g][reads[g]][:, writes[g]],
             np.flatnonzero(writes[g]))
            for g in np.flatnonzero(writes.any(axis=1))]


@lru_cache(maxsize=8)
def _default_moves(n: int, p: int
                   ) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """``_generator_moves(n, p)`` kept for every single-orbit search at
    (n, p), read-only because all of them share it."""
    moves = tuple(_generator_moves(n, p))
    for move in moves:
        for array in move:
            array.flags.writeable = False
    return moves


# Rows of codes handled at once when a state array would otherwise grow
# with the orbit or the space; bounds the int64 scratch to this many cells.
_BLOCK_CELLS = 1 << 20


def _check_codes_fit(n: int, p: int) -> None:
    """A state is packed into one int64 code, the base-p digits of its values
    in root order, least significant first, so all p^N codes must fit."""
    width = n * (n - 1) // 2
    if p ** width > 1 << 63:
        raise InvalidInput(
            f"p^{width} = {p}^{width} exceeds 2^63, the limit of packed "
            f"orbit states at n={n}")


def _digits(codes: np.ndarray, p: int, width: int) -> np.ndarray:
    """Rows of the base-p digits of packed state codes, least significant
    digit (the first root) first."""
    out = np.empty((len(codes), width), dtype=np.int64)
    for k in range(width):
        out[:, k] = codes % p
        codes = codes // p
    return out


def _encode(f: LinearForm) -> int:
    code = 0
    for root in reversed(_root_order(f.n)):
        code = code * f.p + int(f.value(root))
    return code


def _row_form(n: int, p: int, row: List[int]) -> LinearForm:
    return LinearForm._reduced(
        n, p, {r: d for r, d in zip(_root_order(n), row) if d})


class Orbit:
    """A coadjoint orbit over a finite field, stored as its sorted array of
    packed state codes."""

    def __init__(self, n: int, p: int, representative: LinearForm,
                 codes: np.ndarray):
        self.n = n
        self.p = p
        self.representative = representative
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, f) -> bool:
        if not isinstance(f, LinearForm) or (f.n, f.p) != (self.n, self.p):
            return False
        code = _encode(f)
        at = int(np.searchsorted(self.codes, code))
        return at < len(self.codes) and int(self.codes[at]) == code

    def __iter__(self):
        for row in self.member_array().tolist():
            yield _row_form(self.n, self.p, row)

    def member_array(self) -> np.ndarray:
        return _digits(self.codes, self.p, len(_root_order(self.n)))


def _budget_value(budget: Optional[int]) -> int:
    if budget is not None:
        return budget
    raw = os.environ.get("ARTIFACT_BFS_BUDGET")
    if not raw:
        return _DEFAULT_BUDGET
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise InvalidInput(
            f"ARTIFACT_BFS_BUDGET must be a non-negative integer, "
            f"got {raw!r}")
    return limit


def _check_space_budget(stage: str, n: int, p: int,
                        budget: Optional[int]) -> None:
    """A whole-space scan visits all p^(n(n-1)/2) states; refuse it before
    allocating anything when that is more than the budget."""
    _check_codes_fit(n, p)
    states = p ** (n * (n - 1) // 2)
    limit = _budget_value(budget)
    if states > limit:
        raise BudgetExceeded(
            f"{stage} at n={n}, p={p} would scan {states} states, over "
            f"the limit of {limit}")


def _check_orbit_budget(n: int, p: int, states: int, limit: int) -> None:
    if states > limit:
        raise BudgetExceeded(
            f"orbit_bfs at n={n}, p={p} reached {states} states, over the "
            f"limit of {limit}")


def _sweep(codes: np.ndarray, p: int, reads: np.ndarray,
           columns: np.ndarray, writes: np.ndarray) -> np.ndarray:
    """The closure of a sorted code array under one generator g: the sorted
    union of g^t applied to it for t < p.  Only the digits g reads are
    taken from the codes, and g^t follows from g^(t-1) by rewriting the
    digits g writes."""
    read_scale = p ** reads
    write_scale = p ** writes
    at = np.searchsorted(reads, writes)
    rows = max(1, _BLOCK_CELLS // max(len(reads), len(writes)))
    images = [codes]
    for first in range(0, len(codes), rows):
        image = codes[first:first + rows]
        digits = image[:, None] // read_scale % p
        for _t in range(1, p):
            new = digits @ columns % p
            image = image + (new - digits[:, at]) @ write_scale
            digits[:, at] = new
            images.append(image)
    # Sort and drop repeats instead of np.unique: for int64 its hash path
    # is an order of magnitude slower than a sort.
    images = np.sort(np.concatenate(images))
    keep = np.ones(len(images), dtype=bool)
    keep[1:] = images[1:] != images[:-1]
    return images[keep]


def orbit_bfs(f: LinearForm, budget: Optional[int] = None,
              generators: Optional[Tuple[GroupElement, ...]] = None
              ) -> Orbit:
    """The orbit of f as a product of root subgroups.

    The group is X_a1 X_a2 ... X_aN for the root subgroups X_a taken in any
    fixed order, and X_a = {(I + e_a)^t : t < p} since e_a^2 = 0, so the
    orbit is reached by closing {f} under one generator after another.
    Every set on the way lies inside the orbit, so the budget, a cap on
    the orbit size, is checked after each closure.  Without ``generators``
    the search reuses the moves kept per (n, p); ``generators``, the
    ``_generators(n, p)`` of f's field, makes it build its own moves from
    them."""
    if f.p is None:
        raise ValueError("orbit enumeration needs a finite field")
    n, p = f.n, f.p
    _check_prime(p)
    _check_codes_fit(n, p)
    limit = _budget_value(budget)
    codes = np.array([_encode(f)], dtype=np.int64)
    _check_orbit_budget(n, p, len(codes), limit)
    moves = _default_moves(n, p) if generators is None else \
        _generator_moves(n, p, generators)
    for move in moves:
        codes = _sweep(codes, p, *move)
        _check_orbit_budget(n, p, len(codes), limit)
    return Orbit(n, p, f, codes)


def all_orbits(n: int, p: int, budget: Optional[int] = None) -> List[Orbit]:
    """Partition the whole dual space into orbits, in order of the least
    packed state."""
    _check_prime(p)
    _check_space_budget("all_orbits", n, p, budget)
    roots = _root_order(n)
    free = np.ones(p ** len(roots), dtype=bool)
    # Moves rebuilt per orbit: perfbench TestTracer pins 9·orbits acts here.
    generators = _generators(n, p)
    orbits = []
    code = 0
    while code < len(free):
        row = _digits(np.array([code]), p, len(roots))[0].tolist()
        orbit = orbit_bfs(_row_form(n, p, row), budget=budget,
                          generators=generators)
        free[orbit.codes] = False
        orbits.append(orbit)
        code += int(np.argmax(free[code:]))
        if not free[code]:
            break
    return orbits


# --- invariants of a point ------------------------------------------------

def kirillov_rank(f: LinearForm) -> int:
    """Rank of the form's bracket matrix over the positive roots, computed
    once per form.

    The matrix is built from ``f.values`` as ints: residues mod p over F_p
    and, over Q, the values times the lcm of their denominators, which
    leaves the rank unchanged.
    """
    p = f.p
    if p is not None:
        _check_prime(p)
    rank = getattr(f, "_rank", None)
    if rank is not None:
        return rank
    vals = f.values
    if p is None:
        scale = math.lcm(*(v.denominator for v in vals.values()))
        vals = {r: v.numerator * (scale // v.denominator)
                for r, v in vals.items()}
    size = len(positive_roots(f.n))
    mat = [[0] * size for _ in range(size)]
    for i, j, sign, c in structure_constants(f.n):
        v = sign * vals.get(c, 0)
        mat[i][j] = v if p is None else v % p
    rank = _int_rank(mat, p)
    object.__setattr__(f, "_rank", rank)
    return rank


def _int_rank(mat: List[List[int]], p: Optional[int]) -> int:
    """Rank of an int matrix over F_p (entries reduced mod p), or over Q
    by fraction-free (Bareiss) elimination, whose divisions are exact.
    Rows are changed in place."""
    size = len(mat)
    width = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    for col in range(width):
        pivot = next((r for r in range(rank, size) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        lead = top[col]
        inv = None if p is None else pow(lead, -1, p)
        for r in range(rank + 1, size):
            row = mat[r]
            m = row[col]
            if p is not None:
                if m:
                    m = m * inv % p
                    for cc in range(col, width):
                        row[cc] = (row[cc] - m * top[cc]) % p
            else:
                for cc in range(col, width):
                    row[cc] = (lead * row[cc] - m * top[cc]) // prev
        prev = lead
        rank += 1
        if rank == size:
            break
    return rank


def stratum(f: LinearForm) -> int:
    """How many first-column values vanish, counted from the bottom row
    up to the first nonzero one."""
    count = 0
    for row in range(f.n, 1, -1):
        if f.value(Root(row, 1)) != 0:
            break
        count += 1
    return count


# --- polarizations --------------------------------------------------------

def polarization(s: AdmissibleSubset) -> RootSet:
    """The positive roots minus the p-side of every canonical pair."""
    return positive_roots(s.n).difference(
        p for pairs in canonical_pairs(s) for p, _q, _d in pairs)


def verify_polarization(pol: Iterable[Root], f: LinearForm) -> bool:
    """Check the subalgebra, isotropy, and size conditions at the form."""
    roots = set(pol)
    n = f.n
    total = n * (n - 1) // 2
    rank = kirillov_rank(f)
    if len(roots) != total - rank // 2:
        return False
    for a in roots:
        for b in roots:
            summed = root_sum(a, b)
            if summed is None:
                continue
            if summed not in roots:
                return False
            if f.value(summed) != 0:
                return False
    return True


# --- classification -------------------------------------------------------

@lru_cache(maxsize=8)
def _catalog_masks(n: int, catalog: Tuple[AdmissibleSubset, ...]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Each diagram's pick and marked masks, bit k for root k.  Subsets
    compare by identity, so the masks are reused only for a catalog that
    holds the very same subsets."""
    index = {r: k for k, r in enumerate(_root_order(n))}
    return (np.array([sum(1 << index[r] for r in s.xi) for s in catalog],
                     dtype=np.int64),
            np.array([sum(1 << index[r] for r, m in zip(s.xi, s.otimes_mask)
                          if m) for s in catalog], dtype=np.int64))


def _classify_orbit(orbit: Orbit, stage: str
                    ) -> Tuple[AdmissibleSubset, Dict[Root, int]]:
    n, p = orbit.n, orbit.p
    roots = _root_order(n)
    index = {r: k for k, r in enumerate(roots)}
    catalog = enumerate_maximal(n)
    picks, marked = _catalog_masks(n, tuple(catalog))
    weights = 1 << np.arange(len(roots), dtype=np.int64)
    rows = max(1, _BLOCK_CELLS // max(len(roots), len(catalog)))
    matches: List[Tuple[AdmissibleSubset, Dict[Root, int]]] = []
    for first in range(0, len(orbit), rows):
        members = _digits(orbit.codes[first:first + rows], p, len(roots))
        support = ((members != 0) @ weights)[:, None]
        # hit[i, j]: member i is zero off the picks of diagram j and
        # nonzero on its marked picks.
        hit = ((support & ~picks) == 0) & ((support & marked) == marked)
        for i, j in zip(*np.nonzero(hit)):
            s = catalog[j]
            matches.append((s, {r: int(members[i, index[r]]) for r in s.xi}))
    if len(matches) != 1:
        raise ClassificationMismatch(
            f"{stage} at n={n}, p={p}: an orbit of {len(orbit)} states has "
            f"{len(matches)} canonical members, not 1")
    s, values = matches[0]
    if len(orbit) != p ** dimension(s):
        raise ClassificationMismatch(
            f"{stage} at n={n}, p={p}: an orbit of label {s.label} has "
            f"{len(orbit)} states, not p^{dimension(s)}")
    return s, values


def classify(f: LinearForm, budget: Optional[int] = None
             ) -> Tuple[AdmissibleSubset, Dict[Root, int]]:
    """Find the diagram and constants of the orbit through f."""
    check_dimension(f.n)
    _check_prime(f.p)
    return _classify_orbit(orbit_bfs(f, budget=budget), "classify")


def census(n: int, p: int, budget: Optional[int] = None) -> Dict:
    """Classify every orbit and tally counts per diagram label, together
    with the two counting identities."""
    check_dimension(n)
    tally: Dict[Tuple[int, int, int], Dict[str, int]] = {}
    for orbit in all_orbits(n, p, budget=budget):
        s, _values = _classify_orbit(orbit, "census")
        dim = dimension(s)
        row = tally.setdefault(s.label, {"dim": dim, "count": 0})
        if row["dim"] != dim:
            raise ClassificationMismatch(
                f"census at n={n}, p={p}: label {s.label} has orbits of "
                f"dimension {row['dim']} and {dim}")
        row["count"] += 1
    rows = []
    point_sum = 0
    formula_ok = True
    for s in enumerate_maximal(n):
        row = tally.get(s.label)
        if row is None:
            formula_ok = False
            continue
        boxes = sum(1 for m in s.otimes_mask if not m)
        marked = len(list(s.s_otimes))
        expected = (p - 1) ** marked * p ** boxes
        if row["count"] != expected:
            formula_ok = False
        point_sum += row["count"] * p ** row["dim"]
        rows.append({"label": ",".join(str(x) for x in s.label),
                     "dim": row["dim"], "count": row["count"]})
    rows.sort(key=lambda r: tuple(int(x) for x in r["label"].split(",")))
    total = p ** (n * (n - 1) // 2)
    return {
        "n": n,
        "p": p,
        "orbits": rows,
        "identities": {
            "point_sum_ok": point_sum == total,
            "formula_ok": formula_ok,
        },
    }


def stratum_max_dims(n: int, p: int, budget: Optional[int] = None
                     ) -> List[int]:
    """Largest orbit dimension within each first-column stratum."""
    best = [0] * n
    for orbit in all_orbits(n, p, budget=budget):
        size = len(orbit)
        dim = 0
        while p ** dim < size:
            dim += 1
        if p ** dim != size:
            raise ClassificationMismatch(
                f"stratum_max_dims at n={n}, p={p}: an orbit of {size} "
                f"states is not a power of {p}")
        st = stratum(orbit.representative)
        best[st] = max(best[st], dim)
    return best


# --- regular and subregular families --------------------------------------

def regular_ideal(n: int, constants: Sequence) -> IdealHandle:
    """The ideal cutting out a regular orbit: corner minors pinned to the
    given constants, the first of which must be invertible."""
    from .char_matrix import regular_minors

    minors = regular_minors(n)
    if len(constants) != len(minors):
        raise InvalidC(
            f"need {len(minors)} constants, got {len(constants)}")
    if coerce_scalar(constants[0], None) == 0:
        raise InvalidC("the first constant must be nonzero")
    gens = [m - Polynomial({(): c}) for m, c in zip(minors, constants)]
    return IdealHandle.from_generators(n, gens, invertible=[Root(n, 1)])


@dataclass(frozen=True)
class SubregularRecord:
    case: str
    j0: int
    system: Tuple[Polynomial, ...]
    cuts_exactly: Optional[bool]


def subregular_classify(target, budget: Optional[int] = None
                        ) -> SubregularRecord:
    """Classify a subregular orbit given either (diagram, constants) or a
    finite-field point, and assemble its cutting system."""
    from .char_matrix import bordered_minors, p_n0_prime, regular_minors, \
        z_coefficients

    if isinstance(target, LinearForm):
        f = target
        n = f.n
        dim = kirillov_rank(f)
    else:
        s, c = target
        n = s.n
        f = canonical_form(s, c, p=None)
        dim = dimension(s)
    total = n * (n - 1) // 2
    n0 = n // 2
    nx = (n - 1) // 2
    if dim != total - n0 - 2:
        raise NotSubregular(
            f"dimension {dim} is not the subregular {total - n0 - 2}")
    minors = regular_minors(n)
    values = [evaluate(m, f) for m in minors]
    j0 = next((j for j, v in enumerate(values, start=1) if v == 0), None)
    if j0 is None:
        raise NotSubregular("no corner minor vanishes")
    if j0 < nx:
        case = "1"
    elif n % 2 == 1 and j0 == n0:
        case = "2"
    elif n % 2 == 0 and j0 == nx:
        prime_val = evaluate(bordered_minors(n, j0)[0], f)
        case = "3a" if prime_val != 0 else "3b"
    else:
        raise NotSubregular(
            f"vanishing pattern at column {j0} is not supported")
    system: List[Polynomial] = [
        minors[j - 1] - Polynomial({(): values[j - 1]})
        for j in range(1, j0)]
    prime, second = bordered_minors(n, j0)
    if case in ("1", "3a"):
        z = z_coefficients(n)[j0 - 1]
        system += [
            prime - Polynomial({(): evaluate(prime, f)}),
            second - Polynomial({(): evaluate(second, f)}),
            minors[j0 - 1],
            z - Polynomial({(): evaluate(z, f)}),
        ]
    elif case == "2":
        system += [
            prime - Polynomial({(): evaluate(prime, f)}),
            second - Polynomial({(): evaluate(second, f)}),
            minors[j0 - 1],
        ]
    else:
        middle = p_n0_prime(n)
        system += [
            minors[j0 - 1],
            prime,
            middle - Polynomial({(): evaluate(middle, f)}),
            second - Polynomial({(): evaluate(second, f)}),
        ]
    cuts: Optional[bool] = None
    if f.p is not None:
        p = f.p
        _check_space_budget("subregular cut", n, p, budget)
        roots = _root_order(n)
        index = {("y", r.row, r.col): k for k, r in enumerate(roots)}
        total = p ** len(roots)
        rows = max(1, _BLOCK_CELLS // len(roots))
        cut = []
        for first in range(0, total, rows):
            codes = np.arange(first, min(first + rows, total),
                              dtype=np.int64)
            members = _digits(codes, p, len(roots))
            mask = np.ones(len(codes), dtype=bool)
            for gen in system:
                mask &= substitute(gen, lambda key: members[:, index[key]],
                                   p) == 0
            cut.append(codes[mask])
        orbit = orbit_bfs(f, budget=budget)
        cuts = np.array_equal(np.concatenate(cut), orbit.codes)
    return SubregularRecord(case, j0, tuple(system), cuts)
