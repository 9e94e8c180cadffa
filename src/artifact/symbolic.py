"""Poisson brackets, normal forms, and the column reduction pipeline.

Coordinates ``y_i_j`` (strictly lower positions) carry the Lie-Poisson
bracket {y_ij, y_kl} = [j==k] y_il - [l==i] y_kj.  Constants ``c_i_j``
are central parameters.  The column reduction peels canonical pairs off
each column of a maximal diagram and accumulates one generator per
closure root; the result is a triangular ideal handle with decidable
membership.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Tuple

from ._poly import (
    FieldMismatch,
    LocalizedPolynomial,
    Polynomial,
    coerce_scalar,
    poly_text,
    substitute,
)
from .admissible import NotMaximal, is_maximal
from .root_system import (
    Root,
    c_split,
    lex_greater,
    lex_sort_key,
    positive_roots,
    root_bracket,
    structure_constants,
)

__all__ = [
    "FieldMismatch", "IdealHandle", "LocalizedPolynomial",
    "NotCanonicalPair", "NotMaximal", "Polynomial", "Rule",
    "UnsupportedColumn", "UnsupportedIdealShape", "bracket", "build_ideal",
    "c_var", "canonical_pairs", "const", "evaluate", "initial_context",
    "is_casimir_mod", "is_poisson_ideal", "loc", "pick_values",
    "poly_text", "reduce_column", "tilde_map", "y_var",
]


class UnsupportedColumn(ValueError):
    """The column's pick pattern is outside the supported reduction cases."""


class UnsupportedIdealShape(ValueError):
    """The generators do not triangularize, so membership is undecidable
    here (the zero element is always recognized)."""


class NotCanonicalPair(ValueError):
    """The pair's bracket is not congruent to one modulo the ideal."""


# --- element constructors ----------------------------------------------

def y_var(row: int, col: int, p: Optional[int] = None) -> Polynomial:
    return Polynomial.variable(("y", row, col), p)


def c_var(root: Root, p: Optional[int] = None) -> Polynomial:
    return Polynomial.variable(("c", root.row, root.col), p)


def const(value, p: Optional[int] = None) -> Polynomial:
    return Polynomial({(): value}, p)


def loc(num: Polynomial, den=None) -> LocalizedPolynomial:
    return LocalizedPolynomial(num, den)


def _as_loc(x, p: Optional[int] = None) -> LocalizedPolynomial:
    if isinstance(x, LocalizedPolynomial):
        return x
    if isinstance(x, Polynomial):
        return LocalizedPolynomial(x)
    if isinstance(x, (int, Fraction)):
        return LocalizedPolynomial(Polynomial({(): x}, p))
    raise TypeError(f"cannot interpret {type(x).__name__} as an element")


# --- the bracket --------------------------------------------------------

def _partial(poly: Polynomial, key) -> Polynomial:
    out: Dict = {}
    for mono, coef in poly.terms.items():
        d = dict(mono)
        e = d.get(key, 0)
        if not e:
            continue
        if e == 1:
            d.pop(key)
        else:
            d[key] = e - 1
        m2 = tuple(sorted(d.items()))
        out[m2] = out.get(m2, 0) + coef * e
    return Polynomial(out, poly.p)


def _quotient_partial(num: Polynomial, den: Polynomial, key) -> Polynomial:
    """The numerator num_key * den - num * den_key of d(num/den)/dkey.  A
    constant den is one, as ``LocalizedPolynomial`` keeps it."""
    if den.is_constant():
        return _partial(num, key)
    return _partial(num, key) * den - num * _partial(den, key)


def _y_partials(z: LocalizedPolynomial) -> Dict[Root, Polynomial]:
    return {r: _quotient_partial(z.num, z.den, ("y", r.row, r.col))
            for r in sorted({*_y_roots(z.num), *_y_roots(z.den)})}


def bracket(f, g):
    """Poisson bracket; returns a Polynomial for polynomial inputs and a
    LocalizedPolynomial when either side has a denominator.

    With f = a/b and g = c/d, {f, g} is

        sum_{x, z} (a_x b - a b_x)(c_z d - c d_z) {y_x, y_z} / (b d)^2.
    """
    fl, gl = _as_loc(f), _as_loc(g)
    if fl.p != gl.p:
        raise FieldMismatch(f"mixed coefficient fields: {fl.p} vs {gl.p}")
    num = Polynomial.zero(fl.p)
    g_parts = _y_partials(gl)
    for x, f_x in _y_partials(fl).items():
        for z, g_z in g_parts.items():
            rb = root_bracket(x, z)
            if rb is not None:
                sign, c = rb
                num = num + f_x * g_z * y_var(c.row, c.col, fl.p) * sign
    if isinstance(f, Polynomial) and isinstance(g, Polynomial):
        return num
    return LocalizedPolynomial(num, (fl.den * gl.den) ** 2)


# --- evaluation ---------------------------------------------------------

def evaluate(expr, form):
    """Evaluate at a linear form (an object with .p and .value(root)).

    Rational expressions may be evaluated at finite-field forms (the
    coefficients reduce mod p); a finite-field expression requires a form
    over the same prime.
    """
    target = form.p
    if isinstance(expr, LocalizedPolynomial):
        num = evaluate(expr.num, form)
        den = evaluate(expr.den, form)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the form")
        if target is None:
            return Fraction(num) / Fraction(den)
        return (num * pow(den, -1, target)) % target
    if not isinstance(expr, Polynomial):
        expr = const(expr, target)
    if expr.p is not None and expr.p != target:
        raise FieldMismatch(
            f"expression over p={expr.p} evaluated at a form over "
            f"p={target}")

    def value(key):
        if key[0] != "y":
            raise ValueError(f"unbound variable {key} in evaluation")
        return coerce_scalar(form.value(Root(key[1], key[2])), target)

    return substitute(expr, value, target)


# --- triangular ideal handles ------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One triangular relation den * y_root + rest = 0."""
    root: Root
    den: Polynomial
    rest: Polynomial

    @cached_property
    def value(self) -> LocalizedPolynomial:
        return LocalizedPolynomial(-self.rest, self.den)


def _substituted(poly: Polynomial, value) -> Tuple[Polynomial, Polynomial]:
    """(num, den) with num / den = poly after each variable whose value(key)
    is not None becomes that value ((poly, 1) when none does): the terms
    are grouped by those exponents, a term with a zero value dropped, and
    the groups put over one denominator prod den_k^top_k."""
    p = poly.p
    images = {key: image for key in poly.variables()
              if (image := value(key)) is not None}
    if not images:
        return poly, Polynomial.one(p)
    for image in images.values():
        if image.p != p:
            raise FieldMismatch(f"mixed coefficient fields: {p} vs {image.p}")
    groups: Dict[Tuple, Dict] = {}
    for mono, coef in poly.terms.items():
        free, keyed = [], []
        for k, e in mono:
            image = images.get(k)
            if image is None:
                free.append((k, e))
            elif not image.num.terms:
                break  # the term vanishes
            else:
                keyed.append((k, e))
        else:
            groups.setdefault(tuple(keyed), {})[tuple(free)] = coef
    tops = {k: max((dict(keyed).get(k, 0) for keyed in groups), default=0)
            for k, image in images.items()
            if image.num.terms and not image.den.is_constant()}
    acc: Dict = {}
    for keyed, terms in groups.items():
        exps, part = dict(keyed), Polynomial(terms, p)
        for k, e in keyed:
            part = part * images[k].num ** e
        for k, top in tops.items():
            if top > exps.get(k, 0):
                part = part * images[k].den ** (top - exps.get(k, 0))
        for mono, coef in part.terms.items():
            acc[mono] = acc.get(mono, 0) + coef
    return Polynomial(acc, p), math.prod(
        (images[k].den ** top for k, top in tops.items()),
        start=Polynomial.one(p))


def _phi(val: LocalizedPolynomial, value) -> LocalizedPolynomial:
    """val with each variable whose value(key) is not None replaced by
    that value, all at once; a side that holds none is kept as it is."""
    num, num_den = _substituted(val.num, value)
    den, den_den = _substituted(val.den, value)
    if den is val.den:
        return val if num is val.num else \
            LocalizedPolynomial(num, num_den * den)
    if den.is_zero():
        raise ZeroDivisionError("division by zero")
    return LocalizedPolynomial(num * den_den, num_den * den)


def _y_roots(poly: Polynomial) -> List[Root]:
    return [Root(k[1], k[2]) for k in poly.variables() if k[0] == "y"]


def _solve_for(poly: Polynomial, v: Root, invertible) -> Optional[Rule]:
    """The rule den * y_v + rest = 0 read off ``poly``, or None unless
    poly is linear in y_v, every y in den is invertible and greater than
    v, and every y in rest is greater than v."""
    parts = poly.split_by(("y", v.row, v.col))
    if max(parts, default=0) != 1:
        return None
    den, rest = parts[1], parts.get(0, Polynomial.zero(poly.p))
    if all(r in invertible and lex_greater(r, v) for r in _y_roots(den)) \
            and all(lex_greater(r, v) for r in _y_roots(rest)):
        return Rule(v, den, rest)
    return None


class IdealHandle:
    """Generators plus, when they triangularize, a substitution system."""

    def __init__(self, n: int, generators: List[Polynomial],
                 rules: Optional[Dict[Root, Rule]],
                 invertible: Tuple[Root, ...], p: Optional[int] = None):
        self.n = n
        self.generators = list(generators)
        self.rules = rules
        self.invertible = tuple(invertible)
        self.p = p
        self._solved = {("y", r.row, r.col): rule
                        for r, rule in (rules or {}).items()}
        self._values: Dict = {}  # phi(y) per rule coordinate's key
        self._images: Dict = {}  # phi(y) per root
        self._exact: Optional[bool] = None

    @classmethod
    def zero(cls, n: int) -> "IdealHandle":
        return cls(n, [], {}, ())

    @classmethod
    def from_generators(cls, n: int, generators, invertible=None
                        ) -> "IdealHandle":
        generators = list(generators)
        p = generators[0].p if generators else None
        empty = cls(n, [], {}, tuple(invertible or ()), p)
        return empty._extended(generators)

    def _extended(self, generators) -> "IdealHandle":
        """A new handle with ``generators`` appended.  The rule search
        continues from the rules already found: a rule depends only on the
        generators before it."""
        generators = list(generators)
        inv_set = set(self.invertible)
        out = IdealHandle(self.n, self.generators + generators,
                          None if self.rules is None else dict(self.rules),
                          self.invertible, self.p)
        for gen in generators:
            if out.rules is None:
                break
            if gen.is_zero():
                continue
            # Reduce by the rules extracted so far; pivots must be sought in
            # the reduced form, whose leading coefficients can simplify to
            # units even when the raw ones do not.
            red = out._image(gen).num
            if red.is_zero():
                continue
            found = None
            # least root first
            for v in sorted(_y_roots(red), key=lex_sort_key, reverse=True):
                found = _solve_for(red, v, inv_set)
                if found is not None:
                    break
            if found is None:
                out.rules = None
                break
            out._values.clear()  # a value may hold the new rule's coordinate
            key = ("y", found.root.row, found.root.col)
            out.rules[found.root] = out._solved[key] = found
        return out

    def _value(self, key) -> Optional[LocalizedPolynomial]:
        """phi(y) of a rule coordinate's key, kept from its first use (each
        use raises if phi sends the rule's denominator to zero), or None."""
        if key not in self._values and key in self._solved:
            self._values[key] = _phi(self._solved[key].value, self._value)
        return self._values.get(key)

    def _image(self, x) -> LocalizedPolynomial:
        """phi(x), where the ring homomorphism phi sends each y to its
        fully substituted rule value, or is the identity when the
        generators did not triangularize."""
        val = _as_loc(x, self.p)
        return val if self.rules is None else _phi(val, self._value)

    def normal_form(self, x) -> LocalizedPolynomial:
        if self.rules is None:
            raise UnsupportedIdealShape(
                "generators did not triangularize; no normal form")
        return self._image(x)

    def contains(self, x) -> bool:
        val = _as_loc(x, self.p)
        if val.num.is_zero():
            return True
        if self.rules is None:
            raise UnsupportedIdealShape(
                "generators did not triangularize; membership undecidable")
        return self.normal_form(val).num.is_zero()

    def is_exact(self) -> bool:
        """False when a rule is over another field than the handle's or has
        a denominator that phi sends to zero: bracketing then ``contains``
        can raise on such a handle at a point that depends on the
        expression."""
        if self._exact is None:
            dens = [rule.den for rule in (self.rules or {}).values()]
            try:
                self._exact = all(den.p == self.p for den in dens) and \
                    not any(self._image(den).num.is_zero() for den in dens)
            except ZeroDivisionError:
                self._exact = False
        return self._exact

    def coordinate(self, root: Root) -> LocalizedPolynomial:
        """phi(y_root) over the handle's field, computed once per handle."""
        if root in (self.rules or {}) and self.rules[root].den.p == self.p:
            return self._value(("y", root.row, root.col))
        if root not in self._images:
            self._images[root] = self._image(
                y_var(root.row, root.col, self.p))
        return self._images[root]


def is_casimir_mod(z, handle: IdealHandle) -> bool:
    """True when z brackets into the ideal with every coordinate: each
    bracket, taken in ``positive_roots`` order, is tested with
    ``contains``, so one that is not identically zero raises
    ``UnsupportedIdealShape`` when the generators did not triangularize.
    """
    field = _as_loc(z).p
    return all(handle.contains(bracket(z, y_var(r.row, r.col, field)))
               for r in positive_roots(handle.n))


def is_poisson_ideal(handle: IdealHandle) -> bool:
    """True when {g, y_r} lies in the ideal for every generator g and
    coordinate y_r.

    On an exact handle (its rules over the handle's field, no rule
    denominator sent to zero by the normal form phi) the localized ideal
    is generated by y_v - phi(y_v), one per rule root v, where
    phi(y_v) = N/D holds only free coordinates.  By Leibniz, closing one
    generating set closes the ideal, so the check is, for every rule v and
    coordinate y_r,

        D^2 * phi({y_v, y_r}) = sum_u (N_u D - N D_u) * phi({y_u, y_r}),

    summed over the free y_u of N/D, with phi(y) computed once per
    coordinate: no normal form of anything but a coordinate is taken.

    Any other handle tests each generator with ``is_casimir_mod`` in order,
    so the result, and ``UnsupportedIdealShape`` for a bracket that is not
    identically zero when the generators did not triangularize, are those
    of bracketing then ``contains``.
    """
    if handle.rules is None or not handle.is_exact():
        return all(is_casimir_mod(gen, handle) for gen in handle.generators)
    partners = _bracket_partners(handle.n)
    for v in handle.rules:
        phi_v = handle.coordinate(v)
        # Both sides as one sum, y_v's term with coefficient D^2; per y_r,
        # numerators over the same denominator phi(y_c) are added first.
        coefs = [(v, phi_v.den ** 2)]
        coefs += [(u, -part) for u, part in _y_partials(phi_v).items()]
        sums: Dict[Root, Dict[Polynomial, Polynomial]] = {}
        for x, coef in coefs:
            for r, sign, c in partners[x]:
                step = handle.coordinate(c)
                if step.num.is_zero():
                    continue
                term = coef * step.num if sign > 0 else -coef * step.num
                by_den = sums.setdefault(r, {})
                prev = by_den.get(step.den)
                by_den[step.den] = term if prev is None else prev + term
        for by_den in sums.values():
            parts = [LocalizedPolynomial(num, den)
                     for den, num in by_den.items()]
            if not sum(parts[1:], parts[0]).num.is_zero():
                return False
    return True


@lru_cache(maxsize=None)
def _bracket_partners(n: int) -> Dict[Root, List[Tuple[Root, int, Root]]]:
    """For each positive root a, every (b, sign, c) with
    {y_a, y_b} = sign * y_c."""
    roots = list(positive_roots(n))
    out: Dict[Root, List[Tuple[Root, int, Root]]] = {a: [] for a in roots}
    for i, j, sign, c in structure_constants(n):
        out[roots[i]].append((roots[j], sign, c))
    return out


# --- the twist map ------------------------------------------------------

def _series(val: LocalizedPolynomial, p_elt: LocalizedPolynomial,
            q_elt: LocalizedPolynomial, limit: int) -> LocalizedPolynomial:
    """sum_s (-1)^s/s! ad_p^s(val) q^s; the adjoint action must be
    nilpotent within ``limit`` steps."""
    field = val.p
    acc = val
    cur = val
    factorial = 1
    for s in range(1, limit + 1):
        cur = bracket(p_elt, cur)
        if cur.num.is_zero():
            return acc
        factorial *= s
        if field is not None and factorial % field == 0:
            raise UnsupportedColumn(
                f"series coefficient 1/{s}! undefined mod {field}")
        coef = Fraction((-1) ** s, factorial)
        acc = acc + cur * (q_elt ** s) * coef
    raise UnsupportedColumn("adjoint series did not terminate")


def tilde_map(x, p_elt, q_elt, ideal: IdealHandle):
    """Twist x by the canonical pair (p, q), as ``reduce_column`` does and
    through the same memo; requires {p, q} = 1 modulo the given ideal."""
    pl = _as_loc(p_elt)
    ql = _as_loc(q_elt)
    if not ideal.contains(bracket(pl, ql) - 1):
        raise NotCanonicalPair(
            "the pair's bracket is not one modulo the ideal")
    val = _as_loc(x, pl.p)
    if val.p != pl.p:
        raise FieldMismatch(f"mixed coefficient fields: {val.p} vs {pl.p}")
    return _twist(ideal.n, (pl, ql), val)


# The twist of one canonical pair, shared by every diagram and by
# ``tilde_map``: the image of a variable or of a whole value depends only on
# n (the series limit), the pair and the input.  The pairs and values of
# ``reduce_column`` are y-polynomials over Q whatever the constants, so the
# n <= 7 catalogs bound the memo.  Keys hold the polynomials, which carry
# their field, not fractions, whose == cross-multiplies.
_TWISTS: Dict[Tuple, LocalizedPolynomial] = {}


def _twist(n: int, pair, val: LocalizedPolynomial) -> LocalizedPolynomial:
    """The image of val, over the pair's field, when each y goes to its
    adjoint series under the canonical pair."""
    pl, ql = pair
    base = (n, pl.num, pl.den, ql.num, ql.den)
    val_key = base + (val.num, val.den)
    hit = _TWISTS.get(val_key)
    if hit is not None:
        return hit

    def image(key):
        if key[0] != "y":
            return None
        var_key = base + (key,)
        if var_key not in _TWISTS:
            _TWISTS[var_key] = _series(_as_loc(Polynomial.variable(
                key, val.p)), pl, ql, n * n + 2)
        return _TWISTS[var_key]

    try:
        out = _TWISTS[val_key] = _phi(val, image)
    except ZeroDivisionError:
        raise UnsupportedColumn(
            "denominator image vanished identically") from None
    return out


# --- column reduction ---------------------------------------------------

def canonical_pairs(s) -> List[List[Tuple[Root, Root, bool]]]:
    """The canonical pairs of every column t = 1..n-1, as (p, q, den_on_p)
    roots in peel order (greatest first).

    A column's lone cross splits into pairs over the working set it was
    picked from; the cross is the root sum of p and q, and its coordinate
    divides the p side when den_on_p is true, the q side otherwise.
    """
    out = []
    for t in range(1, s.n):
        picks = [(r, is_x, stage) for r, is_x, stage
                 in zip(s.xi, s.otimes_mask, s.a_chain) if r.col == t]
        crosses = [(r, stage) for r, is_x, stage in picks if is_x]
        if len(crosses) >= 2:
            raise UnsupportedColumn(
                f"two crosses in column {t}: {crosses[0][0]!r}, "
                f"{crosses[1][0]!r}")
        boxes = [r for r, is_x, _ in picks if not is_x]
        pairs = []
        for cross, stage in crosses:
            for gamma in c_split(cross, stage)[0]:
                delta = Root(cross.row, gamma.row)
                # Only a box strictly inside the row span of the delta
                # side obstructs it; boxes outside the span leave the
                # delta side free to carry the denominator.
                if any(gamma.row < b.row < cross.row for b in boxes):
                    pairs.append((gamma, delta, False))
                else:
                    pairs.append((delta, gamma, bool(boxes)))
        out.append(pairs)
    return out


@lru_cache(maxsize=None)
def _pair_elements(p_root: Root, q_root: Root, den_on_p: bool
                   ) -> Tuple[LocalizedPolynomial, LocalizedPolynomial]:
    """The elements (p, q) of one ``canonical_pairs`` triple, checked
    {p, q} = 1.  They depend on the roots alone, so every diagram shares
    them; a failed check is not stored, so it raises again."""
    sign, cross = root_bracket(p_root, q_root)
    y_cross = y_var(cross.row, cross.col)
    q_side = y_var(q_root.row, q_root.col) * sign
    pair = (loc(y_var(p_root.row, p_root.col), y_cross if den_on_p else None),
            loc(q_side, None if den_on_p else y_cross))
    if not (_as_loc(bracket(*pair)) - 1).num.is_zero():
        raise UnsupportedColumn(
            f"pair {p_root!r}, {q_root!r} of {cross!r} is not canonical")
    return pair


class ReductionContext:
    """Mutable state threaded through the per-column reduction."""

    def __init__(self, s, cmap: Dict[Root, Polynomial]):
        self.s = s
        self.n = s.n
        self.cmap = cmap
        self.tmaps: List[Tuple[LocalizedPolynomial, LocalizedPolynomial]] = []
        self.handle = IdealHandle(s.n, [], {}, tuple(s.s_otimes))
        # The canonical pairs depend on the diagram alone.
        self.pairs = canonical_pairs(s)


def pick_values(s, c=None) -> Dict[Root, Polynomial]:
    """The value of each pick: its constant c_i_j when ``c is None``,
    else c's value for it (0 when absent)."""
    return {r: c_var(r) if c is None else const(c.get(r, 0)) for r in s.xi}


def initial_context(s, c=None) -> ReductionContext:
    return ReductionContext(s, pick_values(s, c))


def reduce_column(ctx: ReductionContext, t: int):
    """Process column t: take its canonical pairs, push the images of
    the column's closure roots through the accumulated maps, and extend
    the ideal by their cleared generators.

    Returns (pairs, images, ideal).
    """
    new_pairs = [_pair_elements(*triple) for triple in ctx.pairs[t - 1]]
    # Within a column the last peeled pair acts first.
    ctx.tmaps.extend(reversed(new_pairs))
    images: Dict[Root, LocalizedPolynomial] = {}
    for eta in (r for r in ctx.s.a_set if r.col == t):
        val = _as_loc(y_var(eta.row, eta.col))
        # Later columns act innermost: their pairs are peeled off first.
        for pair in reversed(ctx.tmaps):
            val = _twist(ctx.n, pair, val)
        images[eta] = val
    ctx.handle = ctx.handle._extended(
        val.num - ctx.cmap.get(eta, Polynomial.zero()) * val.den
        for eta, val in images.items())
    return new_pairs, images, ctx.handle


def build_ideal(s, c=None) -> IdealHandle:
    """The defining ideal of the family attached to a maximal diagram.

    With ``c is None`` the generators carry symbolic constants c_i_j;
    otherwise ``c`` maps each pick to its value.
    """
    if not is_maximal(s):
        raise NotMaximal("the diagram admits a proper extension")
    ctx = initial_context(s, c)
    for t in range(1, s.n):
        reduce_column(ctx, t)
    return ctx.handle
