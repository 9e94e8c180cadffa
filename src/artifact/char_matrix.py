"""Characteristic-matrix minors and the invariants they generate.

The characteristic matrix of the generic point has ones on the diagonal,
``tau * y_i_j`` below it, and zeros above.  Square minors of this matrix,
read off by their tau-coefficients, provide orbit invariants: one family
indexed by the closure roots of a maximal diagram (the triangular
system), and the fixed families used for regular and subregular orbits.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ._poly import LocalizedPolynomial, Polynomial
from .root_system import Root, check_dimension, lex_greater
from .symbolic import _phi, _solve_for, loc

__all__ = [
    "LemmaFailure", "MinorSpec", "NotInA", "TriangularSystem", "WEta",
    "bordered_minors", "minor", "p_h_eta", "p_n0_prime", "regular_minors",
    "solver_invariant", "triangular_system", "w_eta", "z_coefficients",
]


class NotInA(KeyError):
    """The root is not a closure root of the diagram."""


class LemmaFailure(ArithmeticError):
    """An invariant failed to reduce to the expected linear shape."""


@dataclass(frozen=True)
class MinorSpec:
    """One invariant: a tau-coefficient of a characteristic-matrix minor."""
    cols: Tuple[int, ...]
    rows: Tuple[int, ...]
    degree: int


def minor(n: int, spec: MinorSpec) -> Polynomial:
    """The tau^degree coefficient of the minor on the spec's columns and
    rows, taken in spec order; zero when the minor has no such term."""
    check_dimension(n)
    cols = tuple(spec.cols)
    rows = tuple(spec.rows)
    if not cols or len(cols) != len(rows):
        raise ValueError(
            f"minor needs a nonempty square selection, got {len(rows)} "
            f"rows and {len(cols)} columns")
    for idx in cols + rows:
        if type(idx) is not int or not 1 <= idx <= n:
            raise ValueError(f"index {idx!r} is not an int in 1..{n}")
    if type(spec.degree) is not int or not 0 <= spec.degree <= len(cols):
        raise ValueError(
            f"degree {spec.degree!r} is not an int in 0..{len(cols)}")
    return _minor(n, cols, rows).get(spec.degree, Polynomial.zero())


@functools.lru_cache(maxsize=None)
def _minor(n: int, cols: Tuple[int, ...], rows: Tuple[int, ...]
           ) -> Dict[int, Polynomial]:
    """The minor as {tau-degree: coefficient}, computed once per selection;
    the dict is shared, so nothing in this module may mutate it.  Rows are
    expanded in spec order, each matched to an unused column at or left of
    it: 1 on the diagonal, else y_row_col and one tau-degree, with sign
    (-1)^k for the k-th unused column, counting from 0."""
    # One key object per variable, so monomial lookups compare by identity.
    factors = {(r, c): (("y", r, c), 1) for r in rows for c in cols if r > c}
    parts: Dict[int, Dict] = {}

    def expand(i, free, sign, picked):
        if i == len(rows):
            terms = parts.setdefault(len(picked), {})
            mono = tuple(sorted(picked))
            terms[mono] = terms.get(mono, 0) + sign
            return
        r = rows[i]
        for k, c in enumerate(free):
            if c <= r:
                expand(i + 1, free[:k] + free[k + 1:],
                       -sign if k % 2 else sign,
                       picked if c == r else picked + (factors[r, c],))

    expand(0, cols, 1, ())
    return {d: Polynomial(t) for d, t in parts.items()}


# --- the word attached to a closure root --------------------------------

@dataclass(frozen=True)
class WEta:
    rows: Tuple[int, ...]
    h: int


def w_eta(s, eta: Root) -> WEta:
    """The word of eta and its tau-degree h, in one walk.

    The word is the image of 1..col(eta) under the reflections in eta,
    then in each marked pick lex-greater than eta, least of those first.
    Each reflection leaves the image alone or trades a column index for
    its root's row; h counts the trades, eta's own included.  A trade of
    a row back for its column raises LemmaFailure."""
    if eta not in s.a_set:
        raise NotInA(f"{eta!r} is not a closure root of the diagram")
    image = set(range(1, eta.col + 1))
    betas = [b for b in s.s_otimes if lex_greater(b, eta)]
    h = 0
    for root in [eta] + betas[::-1]:
        if (root.col in image) == (root.row in image):
            continue
        if root.row in image:
            raise LemmaFailure(
                f"pick {root!r} trades a row back in the word of {eta!r}")
        image ^= {root.col, root.row}
        h += 1
    return WEta(tuple(sorted(image)), h)


@functools.lru_cache(maxsize=None)
def p_h_eta(s, eta: Root) -> Polynomial:
    """The invariant attached to a closure root: the tau^h coefficient of
    the minor on columns 1..col(eta) and the rows of the word.  Computed
    once per (diagram, root); the result is shared, as ``_minor``'s are."""
    w = w_eta(s, eta)
    return minor(s.n, MinorSpec(tuple(range(1, eta.col + 1)), w.rows, w.h))


# --- the triangular system of invariants --------------------------------

@dataclass(frozen=True)
class TriangularSystem:
    rules: Dict[Root, LocalizedPolynomial]
    coeffs: Dict[Root, LocalizedPolynomial]


# The closure roots whose P_{h,eta} does not solve for eta, and the
# invariant the solver reads there instead.
_GAPS = {
    ((7, 2, 1), Root(7, 5)): MinorSpec((1, 2, 3, 4, 5), (2, 3, 4, 5, 7), 2),
    ((7, 3, 1), Root(7, 4)): MinorSpec((1, 2, 3, 4), (2, 3, 4, 7), 2),
}


def solver_invariant(s, eta: Root) -> Polynomial:
    """The invariant ``triangular_system`` solves for eta: the minor
    ``_GAPS`` names, else P_{h,eta}."""
    spec = _GAPS.get((s.label, eta))
    return p_h_eta(s, eta) if spec is None else minor(s.n, spec)


def triangular_system(s) -> TriangularSystem:
    """Solve each closure root's invariant for its own coordinate.

    Processing the closure roots from the lex-greatest down, each
    ``solver_invariant`` minus its value at the canonical point — with all
    previously solved coordinates substituted — must solve for its own
    coordinate with a constants-only leading coefficient
    (``symbolic._solve_for`` with nothing invertible); otherwise
    LemmaFailure.
    """
    # At the canonical point a pick is its constant and any other y is
    # zero, so an invariant's value there is its terms on picks alone, each
    # y_i_j renamed c_i_j; the renaming keeps every monomial sorted.
    picks = {("y", r.row, r.col): ("c", r.row, r.col) for r in s.xi}
    rules: Dict[Root, LocalizedPolynomial] = {}
    coeffs: Dict[Root, LocalizedPolynomial] = {}
    # No rule value holds a solved coordinate, so one simultaneous
    # substitution of this table reduces an invariant.
    solved: Dict = {}
    for eta in s.a_set:  # lex-greatest first
        invariant = solver_invariant(s, eta)
        value = Polynomial({
            tuple((picks[key], exp) for key, exp in mono): coef
            for mono, coef in invariant.terms.items()
            if all(key in picks for key, _exp in mono)})
        red = _phi(loc(invariant - value), solved.get)
        rule = _solve_for(red.num, eta, ())
        if rule is None:
            raise LemmaFailure(
                f"invariant of {eta!r} does not solve for its coordinate")
        rules[eta] = solved["y", eta.row, eta.col] = rule.value
        coeffs[eta] = loc(rule.den, red.den)
    return TriangularSystem(rules, coeffs)


# --- fixed minor families ------------------------------------------------

def regular_minors(n: int) -> List[Polynomial]:
    """The corner minors; the j-th cuts columns 1..j against the last j
    rows and is concentrated in a single tau-degree."""
    return [minor(n, MinorSpec(tuple(range(1, j + 1)),
                               tuple(range(n - j + 1, n + 1)), j))
            for j in range(1, n // 2 + 1)]


def z_coefficients(n: int) -> List[Polynomial]:
    """Near-corner coefficients, one per admissible stage."""
    out = []
    for m in range(1, (n - 1) // 2 + 1):
        part = minor(n, MinorSpec(tuple(range(1, n - m + 1)),
                                  tuple(range(m + 1, n + 1)), m + 1))
        out.append(part if (n - 1) % 2 == 0 else -part)
    return out


def bordered_minors(n: int, j: int) -> Tuple[Polynomial, Polynomial]:
    """The two minors bordering the j-th corner minor: shift the row
    window up by one, or skip the j-th column."""
    if not 1 <= j <= (n - 1) // 2:
        raise ValueError(f"bordered minors need 1 <= j <= {(n - 1) // 2}")
    cols, rows = tuple(range(1, j + 1)), tuple(range(n - j + 1, n + 1))
    shifted = MinorSpec(cols, (n - j,) + rows[1:], j)
    skipped = MinorSpec(cols[:-1] + (j + 1,), rows, j)
    return minor(n, shifted), minor(n, skipped)


def p_n0_prime(n: int) -> Polynomial:
    """The extra bordered minor used at the middle column; even n >= 4."""
    if n % 2 or n < 4:
        raise ValueError(f"defined for even sizes >= 4 only, got {n}")
    n0 = n // 2
    rows = (n0,) + tuple(range(n0 + 3, n + 1))
    return minor(n, MinorSpec(tuple(range(1, n0)), rows, n0 - 1))
