"""Finite-field orbit enumeration and classification.

Linear forms on the strictly lower triangle are acted on by the lower
unitriangular group through conjugation of the corresponding upper
triangular value matrix.  The group is the product of its root subgroups
X_alpha = {(I + e_alpha)^t : t < p} taken in any fixed order, so an orbit is
enumerated by closing one point under each X_alpha in turn.  A generator
I + e_alpha is linear on value vectors and changes only a few values of each,
so one step reads and rewrites only those base-p digits, decoded one row
per digit so that numpy runs along the codes.  It moves a form only through
the values at its drivers, the basis forms it moves, so a search that keeps
a mask of the roots its states may be nonzero at skips every generator
whose drivers miss the mask.  The search runs on packed codes only: each
state is one int64 holding its base-p digits, the greatest root (n, 1) most
significant, and an orbit is the sorted array of its codes, so p^(n(n-1)/2)
may not pass 2^63.  An orbit's canonical form is its least point read from
the greatest root down, its least code, and whether that point is canonical
depends only on its support, looked up in one table, the same for every p.
Only the functions of this packed search import numpy, each where it runs,
so the package and every command that never searches start without it.

``coadjoint_act`` reads each group element through a sparse view, the
nonzero entries of its columns and of its inverse's rows and the roots of
the basis forms it moves, its drivers, built once with the cached inverse.
A form that is zero at every driver is fixed and returned itself; any other
form is summed without the validating ``LinearForm`` constructor: its
result roots lie in the triangle by construction, and it reduces values
itself.  A generator's N images of the basis forms are computed afresh
for each search, and its move is looked up by the images of its drivers:
the move is derived from them, and its numpy arrays built, once per
content, so every search that meets the same content shares one read-only
move.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from ._poly import coerce_scalar, substitute
from .admissible import AdmissibleSubset, dimension, enumerate_maximal
from .char_matrix import bordered_minors, p_n0_prime, regular_minors, \
    z_coefficients
from .root_system import Root, check_dimension, positive_roots, \
    structure_constants
from .symbolic import canonical_pairs, evaluate, Polynomial

__all__ = [
    "BudgetExceeded", "ClassificationMismatch", "GroupElement", "InvalidC",
    "InvalidInput", "LinearForm", "NotSubregular", "Orbit",
    "SubregularRecord", "all_orbits", "canonical_form", "census",
    "classify", "coadjoint_act", "kirillov_rank", "orbit_bfs",
    "polarization", "stratum", "subregular_classify", "verify_polarization",
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


# Miller-Rabin with the 13 prime bases 2..41 decides primality exactly below
# _PRIME_BOUND, the least number that is a strong probable prime to all of
# them (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(p: int) -> bool:
    """p > 1 passes the strong test to every base of ``_PRIME_BASES``."""
    if p in _PRIME_BASES:
        return True
    if any(p % a == 0 for a in _PRIME_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    """Refuse a p that is not a prime, in time bounded by its bit length;
    a p at or past ``_PRIME_BOUND`` is refused, since the test is exact only
    below it."""
    if not isinstance(p, int) or p < 2 or not _strong_probable_prime(p):
        raise InvalidInput(f"p must be a prime, got {p!r}")
    if p >= _PRIME_BOUND:
        raise InvalidInput(
            f"p must be below {_PRIME_BOUND}, where primality is decided "
            f"exactly, got {p!r}")


# --- linear forms and the group ------------------------------------------

def _entries(n: int, p: Optional[int], raw) -> Dict[Root, object]:
    """Check n and p, then each key of ``raw``: a (row, col) pair of ints,
    not bools, inside the n triangle.  Returns its nonzero values reduced
    into the field, keyed by Root."""
    check_dimension(n)
    if p is not None:
        _check_prime(p)
    out: Dict[Root, object] = {}
    for key, value in (raw or {}).items():
        if not (isinstance(key, tuple) and len(key) == 2
                and all(type(x) is int for x in key)):
            raise InvalidInput(f"{key!r} is not a root (row, col)")
        root = Root(*key)
        if not 1 <= root.col < root.row <= n:
            raise InvalidInput(f"{root!r} lies outside the n={n} triangle")
        v = coerce_scalar(value, p)
        if v != 0:
            out[root] = v
    return out


class LinearForm:
    """A linear form on the strictly lower triangle, keyed by roots or
    (row, col) pairs of ints; zero values are not stored, and finite-field
    values are reduced immediately."""

    __slots__ = ("n", "p", "values", "_hash", "_rank")

    # _hash and _rank stay unset until first needed: one more store in the
    # constructors would cost every form the orbit searches build.

    def __init__(self, n: int, p: Optional[int],
                 values: Optional[Dict[Root, object]] = None):
        _set_n(self, n)
        _set_p(self, p)
        _set_values(self, _entries(n, p, values))

    @classmethod
    def _reduced(cls, n: int, p: Optional[int],
                 values: Dict[Root, object]) -> "LinearForm":
        """Trusted: ``values`` is kept as is, so its roots must lie in the
        triangle and its values be nonzero and reduced (ints 1..p-1 or Q)."""
        self = object.__new__(cls)
        _set_n(self, n)
        _set_p(self, p)
        _set_values(self, values)
        return self

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


# The slot setters of the immutable LinearForm.
_set_n, _set_p, _set_values = (LinearForm.__dict__[name].__set__
                               for name in ("n", "p", "values"))


def _check_form(f, stage: str) -> None:
    """Refuse anything but a LinearForm at the library's entry points."""
    if not isinstance(f, LinearForm):
        raise TypeError(f"{stage} needs a LinearForm, got {type(f).__name__}")


class GroupElement:
    """A lower unitriangular matrix over the field."""

    __slots__ = ("n", "p", "matrix", "_inverse", "_view")

    def __init__(self, n: int, p: Optional[int],
                 entries: Optional[Dict[Tuple[int, int], object]] = None,
                 _matrix: Optional[List[List[object]]] = None):
        self.n = n
        self.p = p
        self._inverse: Optional["GroupElement"] = None
        self._view = None
        if _matrix is not None:
            self.matrix = _matrix
            return
        values = _entries(n, p, entries)
        one, zero = coerce_scalar(1, p), coerce_scalar(0, p)
        m = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for (i, j), v in values.items():
            m[i - 1][j - 1] = v
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

    def _sparse(self):
        """The nonzero entries of each column k of the matrix, as (a, value)
        from row k down, and of each row l of the inverse, as (b, value,
        ``_root_grid(n)[b]``) from column l left, with the element's
        drivers.  The root (l + 1, k + 1) is a driver when column k has a
        nonzero entry in a row between k and l, or row l of the inverse one
        in a column between k and l, both strictly: every other basis form
        is fixed.  Built once, next to the cached inverse."""
        if self._view is None:
            n, m, inv = self.n, self.matrix, self.inverse().matrix
            grid = _root_grid(n)
            columns = tuple(
                tuple((a, m[a][k]) for a in range(k, n) if m[a][k])
                for k in range(n))
            rows = tuple(tuple((b, inv[l][b], grid[b])
                               for b in range(l, -1, -1) if inv[l][b])
                         for l in range(n))
            # The first entry below the diagonal of each column, and the
            # last left of it in each row of the inverse.
            below = [c[1][0] if len(c) > 1 else n for c in columns]
            left = [r[1][0] if len(r) > 1 else -1 for r in rows]
            drivers = frozenset(grid[l][k] for l in range(n) for k in range(l)
                                if below[k] < l or left[l] > k)
            self._view = (columns, rows, drivers)
        return self._view


def _generators(n: int, p: int) -> Tuple[GroupElement, ...]:
    """The generators I + e_alpha in root order.  Each caches its inverse
    on first use, so a caller that keeps them solves each inverse once."""
    return tuple(GroupElement(n, p, {r: 1}) for r in positive_roots(n))


@lru_cache(maxsize=None)
def _root_grid(n: int) -> Tuple[Tuple[Root, ...], ...]:
    """grid[b][a] is Root(b + 1, a + 1), for the 0-based a < b < n."""
    return tuple(tuple(Root(b + 1, a + 1) for a in range(b))
                 for b in range(n))


def coadjoint_act(g: GroupElement, f: LinearForm) -> LinearForm:
    """Conjugate the value matrix and keep its strictly upper part.

    The value matrix V is strictly upper triangular: with 0-based k < l,
    V[k][l] is the value of f at root (l + 1, k + 1).  Each nonzero entry v
    adds v * g[a][k] * g^-1[l][b] to entry (a, b) of g V g^-1, and only
    k <= a < b <= l can be nonzero and strictly upper, so the dense products
    are never formed: the sum runs over the nonzero g[a][k] of column k and
    g^-1[l][b] of row l, read from g's sparse view, and adds into the root
    (b + 1, a + 1) of ``_root_grid``.  So every result root lies in the
    triangle, and the result is built by the trusted ``LinearForm._reduced``
    after reducing each value and dropping zeros in one pass.

    For a root of f that is not a driver of g (``GroupElement._sparse``)
    the sum has the one term (k, l) with coefficient 1, so g fixes its
    basis form; since g.f - f is the sum of f_r (g.e_r - e_r) over the
    roots r of f, a form that is zero at every driver is returned itself,
    after the field check, exactly over F_p and over Q."""
    n, p = f.n, f.p
    if g.n != n or g.p != p:
        raise ValueError("group element and form live over different fields")
    columns, rows, drivers = g._view or g._sparse()
    if drivers.isdisjoint(f.values):
        return f
    acc: Dict[Root, object] = {}
    for root, v in f.values.items():
        l = root.row - 1
        right = rows[l]
        for a, x in columns[root.col - 1]:
            if a >= l:
                break
            x *= v
            for b, y, above in right:
                if b <= a:
                    break
                key = above[a]
                acc[key] = acc.get(key, 0) + x * y
    if p is None:
        values = {r: v for r, v in acc.items() if v}
    else:
        values = {}
        for r, v in acc.items():
            v %= p
            if v:
                values[r] = v
    return LinearForm._reduced(n, p, values)


# --- canonical forms ------------------------------------------------------

def canonical_form(s: AdmissibleSubset, c: Dict[Root, object],
                   p: Optional[int] = None) -> LinearForm:
    """The point with value c on each pick and zero elsewhere.  Every pick
    needs a value and marked picks need a nonzero one."""
    for key in c:
        if key not in s.xi:
            raise InvalidC(f"{key!r} is not a pick of the diagram")
    for root in s.xi:
        if root not in c:
            raise InvalidC(f"missing value for pick {root!r}")
    f = LinearForm(s.n, p, c)
    for root in s.s_otimes:
        if root not in f.values:
            raise InvalidC(f"marked pick {root!r} needs a nonzero value")
    return f


# --- orbit enumeration ----------------------------------------------------

@lru_cache(maxsize=None)
def _root_index(n: int) -> Dict[Root, int]:
    """The place of each root in root order: one table per n."""
    return {r: k for k, r in enumerate(positive_roots(n))}


def _generator_moves(n: int, p: int,
                     generators: Optional[Tuple[GroupElement, ...]] = None
                     ) -> List[Tuple]:
    """The ``_generators(n, p)``, or the given ones, as sparse moves on
    states; given ones must be N group elements over (n, p).

    A generator changes only a few values of a form, each a linear function
    of a few old values.  Each generator that moves anything gives, in root
    order, one move (columns, read places, write places, at, drivers, fed):
    the new value at the t-th root it writes is row t of ``columns`` times
    the old values at the roots it reads, whose place values form a column.
    The action is unipotent, so the t-th written value reads itself, at
    place ``at[t]`` of the reads, with coefficient 1.

    The N images of the basis forms are computed afresh by
    ``coadjoint_act``, which sums only those of g's drivers and returns
    every other basis form itself.  A basis form keeps value 1 at its own
    root, so g drives the basis forms whose images hold another root,
    writes those other roots, and reads its drivers and the roots it
    writes.  Since g.f - f is the sum of f_k (g.e_k - e_k) over the drivers
    k, g fixes every form that is zero at all of its drivers, and the
    drivers are the roots of g's driver set.  ``drivers`` is an int
    bitmask, bit k for the root at place k, and ``fed`` holds a pair (bit
    of the root, bitmask of the drivers that feed it) for each written
    root.  The images of a generator's drivers determine its move, so they
    are its key in ``_move``, which derives the move only on a miss: equal
    generators share one move, and a search pays only for its acts and
    one lookup per moving generator."""
    roots = positive_roots(n)
    size = len(roots)
    if generators is None:
        generators = _generators(n, p)
    elif not isinstance(generators, (tuple, list)) \
            or len(generators) != size or not all(
                isinstance(g, GroupElement) and (g.n, g.p) == (n, p)
                for g in generators):
        raise InvalidInput(
            f"generators must be {size} group elements over n={n}, p={p}")
    basis = [LinearForm._reduced(n, p, {r: 1}) for r in roots]
    moves = []
    for g in generators:
        moved = tuple((k, *image.items()) for k, image in enumerate(
            coadjoint_act(g, form).values for form in basis) if len(image) > 1)
        if moved:
            moves.append(_move(n, p, moved))
    return moves


@lru_cache(maxsize=1024)
def _move(n: int, p: int, moved: Tuple[Tuple, ...]) -> Tuple:
    """The move of ``_generator_moves`` whose drivers k move the basis form
    e_k to the (root, value) pairs of (k, *pairs) in ``moved``, built once
    and read-only, since every search that meets the content shares it.
    The action is unipotent, so a basis form that drives nothing is fixed:
    a read root that is not a driver reads the unit column at its own
    root.  The driver k feeds the written root i when the image of e_k is
    nonzero at i, its coefficient in the row of ``columns`` for i."""
    import numpy as np
    roots = positive_roots(n)
    index = _root_index(n)
    images = {k: dict(pairs) for k, *pairs in moved}
    drivers = sum(1 << k for k in images)
    writes = sorted({index[r] for k, image in images.items() for r in image
                     if index[r] != k})
    reads = sorted({*images, *writes})
    for k in reads:
        images.setdefault(k, {roots[k]: 1})
    columns = [[images[k].get(roots[i], 0) for k in reads] for i in writes]
    powers = p ** np.arange(len(roots) - 1, -1, -1, dtype=np.int64)
    r = np.array(reads, dtype=np.int64)
    w = np.array(writes, dtype=np.int64)
    arrays = (np.array(columns, dtype=np.int64), powers[r][:, None],
              powers[w], np.searchsorted(r, w))
    for array in arrays:
        array.flags.writeable = False
    fed = tuple((1 << i, sum(1 << k for k, c in zip(reads, row)
                             if c and k != i))
                for i, row in zip(writes, columns))
    return arrays + (drivers, fed)


@lru_cache(maxsize=8)
def _default_moves(n: int, p: int) -> Tuple[Tuple, ...]:
    """``_generator_moves(n, p)`` kept for every single-orbit search at
    (n, p)."""
    return tuple(_generator_moves(n, p))


# Rows of codes handled at once when a state array would otherwise grow
# with the orbit or the space; bounds the int64 scratch to this many cells.
_BLOCK_CELLS = 1 << 20


def _check_codes_fit(n: int, p: int) -> None:
    """A state is packed into one int64 code, the base-p digits of its values
    in root order, most significant first, so all p^N codes must fit."""
    width = n * (n - 1) // 2
    if p ** width > 1 << 63:
        raise InvalidInput(
            f"p^{width} = {p}^{width} exceeds 2^63, the limit of packed "
            f"orbit states at n={n}")


def _digits(codes, n: int, p: int) -> np.ndarray:
    """The digit rows of packed codes, one row for one code: a code is the
    C-order index of its row in shape (p,) * N, digit k the value at root k."""
    import numpy as np
    return np.array(np.unravel_index(codes, (p,) * (n * (n - 1) // 2))).T


def _encode(f: LinearForm) -> int:
    code = 0
    for root in positive_roots(f.n):
        code = code * f.p + int(f.value(root))
    return code


def _row_form(n: int, p: int, row: List[int]) -> LinearForm:
    return LinearForm._reduced(
        n, p, {r: d for r, d in zip(positive_roots(n), row) if d})


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


def _budget_value() -> int:
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


def _check_space_budget(stage: str, n: int, p: int) -> None:
    """A whole-space scan visits all p^(n(n-1)/2) states; refuse it before
    allocating anything when that is more than the budget."""
    _check_codes_fit(n, p)
    states = p ** (n * (n - 1) // 2)
    limit = _budget_value()
    if states > limit:
        raise BudgetExceeded(
            f"{stage} at n={n}, p={p} would scan {states} states, over "
            f"the limit of {limit}")


def _union(arrays: List[np.ndarray]) -> np.ndarray:
    """The sorted distinct codes of the arrays, by a sort: np.unique's int64
    hash path is an order of magnitude slower."""
    import numpy as np
    codes = np.concatenate(arrays)
    codes.sort()
    keep = np.empty(len(codes), dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _sweep(codes: np.ndarray, p: int, move: Tuple, limit: int
           ) -> np.ndarray:
    """The closure of a sorted code array under one generator g: the sorted
    union of g^t applied to it for t < p.  Only the digits g reads are
    taken from the codes, one row per read root and one column per code,
    so each numpy call runs along the codes; g^t follows from g^(t-1) by
    rewriting the rows of the digits g writes, when another power follows.
    A block of codes that g fixes is fixed by every g^t, and when g fixes
    every code the input array itself is returned.  Images held past twice
    ``limit`` are merged; merged past it, they are returned unfinished, a
    part of the orbit already over the caller's budget."""
    columns, read_scale, write_scale, at = move[:4]
    rows = max(1, _BLOCK_CELLS // len(read_scale))
    images = [codes]
    held = len(codes)
    for first in range(0, len(codes), rows):
        image = codes[first:first + rows]
        digits = image // read_scale % p
        for t in range(1, p):
            new = columns @ digits % p
            step = write_scale @ (new - digits[at])
            if not step.any():
                break
            image = image + step
            if t < p - 1:
                digits[at] = new
            images.append(image)
            held += len(image)
            if held > 2 * limit:
                images = [_union(images)]
                held = len(images[0])
                if held > limit:
                    return images[0]
    return images[0] if len(images) == 1 else _union(images)


def orbit_bfs(f: LinearForm,
              generators: Optional[Tuple[GroupElement, ...]] = None
              ) -> Orbit:
    """The orbit of f as a product of root subgroups.

    The group is X_a1 X_a2 ... X_aN for the root subgroups X_a taken in any
    fixed order, and X_a = {(I + e_a)^t : t < p} since e_a^2 = 0, so the
    orbit is reached by closing {f} under one generator after another.
    The search keeps a support mask, a superset of the roots where some
    state of its set is nonzero, and skips the sweep of every generator
    whose drivers miss it, since that generator fixes every state.  The mask
    starts as f's support, and after a sweep that grows the set it widens by
    the written roots that have a feeder inside it.  For g = I + e_a acting
    on a basis form, the EV, VE and EVE terms of g V g^-1 land on distinct
    roots, so each coefficient of an image is +-1 and none cancels; g^t =
    I + t e_a has the coefficients +-t, nonzero for 0 < t < p, so g^t has
    the feeders of g.  A written root therefore stays zero on the set when
    its own value and all its feeders are zero there.  Every set
    on the way lies inside the orbit, so the budget
    ``ARTIFACT_BFS_BUDGET``, a cap on the orbit size read once, ends the
    search (and a closure) once a set holds more.  Without ``generators``
    the search reuses the moves kept per (n, p); ``generators``, the
    ``_generators(n, p)`` of f's field, makes it build its own moves from
    them, and anything but N group elements over f's field is refused."""
    _check_form(f, "orbit_bfs")
    n, p = f.n, f.p
    _check_prime(p)  # also refuses a form over Q
    _check_codes_fit(n, p)
    limit = _budget_value()
    import numpy as np
    codes = np.array([_encode(f)], dtype=np.int64)
    moves = _default_moves(n, p) if generators is None else \
        _generator_moves(n, p, generators)
    index = _root_index(n)
    support = sum(1 << index[r] for r in f.values)
    for move in moves:
        if len(codes) > limit:
            break
        drivers, fed = move[4:]
        if not drivers & support:
            continue
        grown = _sweep(codes, p, move, limit)
        if len(grown) > len(codes):
            support |= sum(bit for bit, feeders in fed if feeders & support)
        codes = grown
    if len(codes) > limit:
        raise BudgetExceeded(
            f"orbit_bfs at n={n}, p={p} reached {len(codes)} states, over "
            f"the limit of {limit}")
    return Orbit(n, p, f, codes)


def all_orbits(n: int, p: int) -> List[Orbit]:
    """Partition the whole dual space into orbits, in order of the least
    packed state.  Each orbit's search starts at its least code, so its
    representative is its canonical form."""
    check_dimension(n)
    _check_prime(p)
    _check_space_budget("all_orbits", n, p)
    import numpy as np
    free = np.ones(p ** (n * (n - 1) // 2), dtype=bool)
    # Each orbit still acts N² times, as perfbench TestTracer pins (9·orbits
    # acts at n = 3), and each act on a basis form outside its generator's
    # drivers returns that form at once; the moves come from the memo of
    # _move, keyed by the driver images, so only the first orbit derives
    # them.
    generators = _generators(n, p)
    orbits = []
    code = 0
    while code < len(free):
        row = _digits(code, n, p).tolist()
        orbit = orbit_bfs(_row_form(n, p, row), generators=generators)
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
    _check_form(f, "kirillov_rank")
    p = f.p
    rank = getattr(f, "_rank", None)
    if rank is not None:
        return rank
    vals = f.values
    if p is None:
        scale = math.lcm(*(v.denominator for v in vals.values()))
        vals = {r: v.numerator * (scale // v.denominator)
                for r, v in vals.items()}
    index = _root_index(f.n)
    mat = [[0] * len(index) for _ in index]
    for a, entries in structure_constants(f.n).items():
        for b, sign, c in entries:
            v = sign * vals.get(c, 0)
            mat[index[a]][index[b]] = v if p is None else v % p
    rank = _int_rank(mat, p)
    object.__setattr__(f, "_rank", rank)
    return rank


def _int_rank(mat: List[List[int]], p: Optional[int]) -> int:
    """Rank of an int matrix over F_p (entries reduced mod p), or over Q
    by fraction-free elimination: a row with a nonzero entry m under the
    pivot lead becomes lead * row - m * pivot row, divided by its gcd so
    its entries stay small, and a row with a zero entry is left alone.
    Rows are changed in place."""
    size = len(mat)
    width = len(mat[0]) if mat else 0
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, size) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        lead = top[col]
        inv = None if p is None else pow(lead, -1, p)
        tail = top[col:]
        for r in range(rank + 1, size):
            row = mat[r]
            m = row[col]
            if not m:
                continue
            if p is not None:
                m = m * inv % p
                for cc in range(col, width):
                    row[cc] = (row[cc] - m * top[cc]) % p
            else:
                new = [lead * x - m * y for x, y in zip(row[col:], tail)]
                g = math.gcd(*new)
                row[col:] = [x // g for x in new] if g > 1 else new
        rank += 1
    return rank


def stratum(f: LinearForm) -> int:
    """How many first-column values vanish, counted from the bottom row
    up to the first nonzero one."""
    _check_form(f, "stratum")
    count = 0
    for row in range(f.n, 1, -1):
        if f.value(Root(row, 1)) != 0:
            break
        count += 1
    return count


# --- polarizations --------------------------------------------------------

def polarization(s: AdmissibleSubset) -> Tuple[Root, ...]:
    """The positive roots minus the p-side of every canonical pair."""
    drop = {p for pairs in canonical_pairs(s) for p, _q, _d in pairs}
    return tuple(r for r in positive_roots(s.n) if r not in drop)


def verify_polarization(pol: Iterable[Root], f: LinearForm) -> bool:
    """Check the subalgebra, isotropy, and size conditions at the form."""
    roots = set(pol)
    table = structure_constants(f.n)
    if len(roots) != len(table) - kirillov_rank(f) // 2 \
            or not roots.issubset(table):
        return False
    return all(c in roots and f.value(c) == 0
               for a in roots for b, _sign, c in table[a] if b in roots)


# --- classification -------------------------------------------------------

@lru_cache(maxsize=8)
def _support_table(n: int, catalog: Tuple[AdmissibleSubset, ...]
                   ) -> Dict[int, Tuple[int, ...]]:
    """The canonical supports, bit k for root k, each with its owners'
    indices: diagram j owns its marked picks with each subset of its box
    picks.  It is reused only for a catalog of the very same subsets."""
    index = _root_index(n)
    table: Dict[int, Tuple[int, ...]] = {}
    for j, s in enumerate(catalog):
        own = [sum(1 << index[r] for r in s.s_otimes)]
        for r in s.s_box:
            own += [x | 1 << index[r] for x in own]
        for x in own:
            table[x] = table.get(x, ()) + (j,)
    return table


def _classify_orbit(orbit: Orbit, stage: str
                    ) -> Tuple[AdmissibleSubset, Dict[Root, int]]:
    """An orbit's canonical form is its least code: look its support up."""
    n, p = orbit.n, orbit.p
    catalog = enumerate_maximal(n)
    member = _digits(orbit.codes[0], n, p).tolist()
    owners = _support_table(n, tuple(catalog)).get(
        sum(1 << k for k, v in enumerate(member) if v), ())
    if len(owners) != 1:
        raise ClassificationMismatch(
            f"{stage} at n={n}, p={p}: an orbit of {len(orbit)} states has "
            f"{len(owners)} canonical members, not 1")
    s = catalog[owners[0]]
    if len(orbit) != p ** dimension(s):
        raise ClassificationMismatch(
            f"{stage} at n={n}, p={p}: an orbit of label {s.label} has "
            f"{len(orbit)} states, not p^{dimension(s)}")
    index = _root_index(n)
    return s, {r: member[index[r]] for r in s.xi}


def classify(f: LinearForm) -> Tuple[AdmissibleSubset, Dict[Root, int]]:
    """Find the diagram and constants of the orbit through f."""
    _check_form(f, "classify")
    return _classify_orbit(orbit_bfs(f), "classify")


def census(n: int, p: int) -> Dict:
    """Classify every orbit and tally counts per diagram label, together
    with the two counting identities."""
    tally = Counter(_classify_orbit(orbit, "census")[0].label
                    for orbit in all_orbits(n, p))
    rows = []
    point_sum = 0
    formula_ok = True
    for s in sorted(enumerate_maximal(n), key=lambda s: s.label):
        count = tally[s.label]
        if count == 0:
            formula_ok = False
            continue
        if count != (p - 1) ** len(s.s_otimes) * p ** len(s.s_box):
            formula_ok = False
        dim = dimension(s)
        point_sum += count * p ** dim
        rows.append({"label": ",".join(str(x) for x in s.label),
                     "dim": dim, "count": count})
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


# --- the subregular family ------------------------------------------------

@dataclass(frozen=True)
class SubregularRecord:
    case: str
    j0: int
    system: Tuple[Polynomial, ...]
    cuts_exactly: Optional[bool]


def subregular_classify(f: LinearForm) -> SubregularRecord:
    """Classify the subregular orbit through a point, and assemble its
    cutting system; over F_p, check that the system cuts out the orbit."""
    _check_form(f, "subregular_classify")
    n = f.n
    dim = kirillov_rank(f)
    total = n * (n - 1) // 2
    n0 = n // 2
    nx = (n - 1) // 2
    if dim != total - n0 - 2:
        raise NotSubregular(
            f"dimension {dim} is not the subregular {total - n0 - 2}")
    minors = regular_minors(n)
    j0 = next((j for j, m in enumerate(minors, start=1)
               if evaluate(m, f) == 0), None)
    if j0 is None:
        raise NotSubregular("no corner minor vanishes")
    if j0 < nx:
        case = "1"
    elif n % 2 == 1 and j0 == n0:
        case = "2"
    elif n % 2 == 0 and j0 == nx:
        case = "3a" if evaluate(bordered_minors(n, j0)[0], f) != 0 else "3b"
    else:
        raise NotSubregular(
            f"vanishing pattern at column {j0} is not supported")
    # Each minor below is cut at its value at f; the corner minor j0, and
    # the prime bordered one in case 3b, are zero there.  Case 1 also cuts
    # the corner minors after j0, invariants on the whole space.
    prime, second = bordered_minors(n, j0)
    corner = minors[j0 - 1]
    if case == "2":
        tail = [prime, second, corner]
    elif case == "3b":
        tail = [corner, prime, p_n0_prime(n), second]
    else:
        tail = [prime, second, corner, z_coefficients(n)[j0 - 1]]
    if case == "1":
        tail += minors[j0:]
    system = [m - Polynomial({(): evaluate(m, f)})
              for m in minors[:j0 - 1] + tail]
    cuts: Optional[bool] = None
    if f.p is not None:
        p = f.p
        _check_space_budget("subregular cut", n, p)
        import numpy as np
        # Each equation decodes the digits it reads, by place value, from
        # the codes the equations before it kept.
        place = {("y", r.row, r.col): p ** k
                 for k, r in enumerate(reversed(positive_roots(n)))}
        total = p ** len(place)
        rows = max(1, _BLOCK_CELLS // len(place))
        cut = []
        for first in range(0, total, rows):
            codes = np.arange(first, min(first + rows, total),
                              dtype=np.int64)
            for gen in system:
                columns = {k: codes // place[k] % p for k in gen.variables()}
                codes = codes[substitute(gen, columns.__getitem__, p) == 0]
            cut.append(codes)
        orbit = orbit_bfs(f)
        cuts = np.array_equal(np.concatenate(cut), orbit.codes)
    return SubregularRecord(case, j0, tuple(system), cuts)
