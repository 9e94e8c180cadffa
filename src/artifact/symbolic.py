"""Poisson brackets, normal forms, and the column reduction pipeline.

Coordinates ``y_i_j`` (strictly lower positions) carry the Lie-Poisson
bracket {y_ij, y_kl} = [j==k] y_il - [l==i] y_kj.  Constants ``c_i_j``
are central parameters.  The column reduction peels canonical pairs off
each column of a maximal diagram and accumulates one generator per
closure root; the result is a triangular ideal handle with decidable
membership.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    columns_and_chain,
    lex_greater,
    lex_sort_key,
    positive_roots,
)

__all__ = [
    "FieldMismatch", "IdealHandle", "LocalizedPolynomial",
    "NotCanonicalPair", "NotMaximal", "Polynomial", "Rule",
    "UnsupportedColumn", "UnsupportedIdealShape", "bracket", "build_ideal",
    "c_var", "const", "evaluate", "initial_context", "is_casimir_mod",
    "is_poisson_ideal", "loc", "poly_text", "reduce_column", "tilde_map",
    "y_var",
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


def _bracket_vars(a, b, p: Optional[int]) -> Polynomial:
    if a[0] != "y" or b[0] != "y":
        return Polynomial.zero(p)
    _, i, j = a
    _, k, l = b
    out = Polynomial.zero(p)
    if j == k:
        out = out + y_var(i, l, p)
    if l == i:
        out = out - y_var(k, j, p)
    return out


def _bracket_poly(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.p != g.p:
        raise FieldMismatch(f"mixed coefficient fields: {f.p} vs {g.p}")
    p = f.p
    out = Polynomial.zero(p)
    f_y = [k for k in f.variables() if k[0] == "y"]
    g_y = [k for k in g.variables() if k[0] == "y"]
    for a in f_y:
        df = _partial(f, a)
        if df.is_zero():
            continue
        for b in g_y:
            base = _bracket_vars(a, b, p)
            if base.is_zero():
                continue
            dg = _partial(g, b)
            if dg.is_zero():
                continue
            out = out + df * dg * base
    return out


def bracket(f, g):
    """Poisson bracket; returns a Polynomial for polynomial inputs and a
    LocalizedPolynomial when either side has a denominator."""
    if isinstance(f, Polynomial) and isinstance(g, Polynomial):
        return _bracket_poly(f, g)
    fl = _as_loc(f)
    gl = _as_loc(g)
    a, b = fl.num, fl.den
    c, d = gl.num, gl.den
    num = (_bracket_poly(a, c) * b * d
           - _bracket_poly(a, d) * b * c
           - _bracket_poly(b, c) * a * d
           + _bracket_poly(b, d) * a * c)
    return LocalizedPolynomial(num, b * b * d * d)


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


def _subst_poly(poly: Polynomial, key,
                rep: LocalizedPolynomial) -> LocalizedPolynomial:
    top = poly.degree_in(key)
    if top == 0:
        return LocalizedPolynomial(poly)
    acc = Polynomial.zero(poly.p)
    for exp in range(top + 1):
        part = poly.coefficient_of(key, exp)
        if part.is_zero():
            continue
        acc = acc + part * (rep.num ** exp) * (rep.den ** (top - exp))
    return LocalizedPolynomial(acc, rep.den ** top)


def _substitute_rules(val: LocalizedPolynomial, rules
                      ) -> LocalizedPolynomial:
    """Substitute each (root, value) pair's value for y_root, in the
    order given.

    A rule whose variable occurs in neither side is skipped: substituting
    it would rebuild the same already reduced fraction.
    """
    present = val.num.variables() | val.den.variables()
    for root, rep in rules:
        key = ("y", root.row, root.col)
        if key not in present:
            continue
        val = _subst_poly(val.num, key, rep) / _subst_poly(val.den, key, rep)
        present = val.num.variables() | val.den.variables()
    return val


def _linear_split(poly: Polynomial, root: Root
                  ) -> Optional[Tuple[Polynomial, Polynomial]]:
    """(lead, rest) with poly = lead * y_root + rest, or None when poly is
    not linear in y_root."""
    key = ("y", root.row, root.col)
    if poly.degree_in(key) != 1:
        return None
    return poly.coefficient_of(key, 1), poly.coefficient_of(key, 0)


def _y_roots(poly: Polynomial) -> List[Root]:
    return [Root(k[1], k[2]) for k in poly.variables() if k[0] == "y"]


def _least_first(rules: Dict[Root, Rule]):
    # Substituting upward eliminates each variable once, because every
    # rule's right side only involves greater roots.
    return [(root, rules[root].value)
            for root in sorted(rules, key=lex_sort_key, reverse=True)]


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
        self._chain_rules: Dict[Optional[int], "_ChainRule"] = {}

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
        rules = None if self.rules is None else dict(self.rules)
        for gen in generators:
            if rules is None:
                break
            if gen.is_zero():
                continue
            # Reduce by the rules extracted so far; pivots must be sought in
            # the reduced form, whose leading coefficients can simplify to
            # units even when the raw ones do not.
            red = _substitute_rules(_as_loc(gen, gen.p),
                                    _least_first(rules)).num
            if red.is_zero():
                continue
            found = None
            # least root first
            for v in sorted(_y_roots(red), key=lex_sort_key, reverse=True):
                split = _linear_split(red, v)
                if split is None:
                    continue
                den, rest = split
                if all(r in inv_set and lex_greater(r, v)
                       for r in _y_roots(den)) and \
                        all(lex_greater(r, v) for r in _y_roots(rest)):
                    found = Rule(v, den, rest)
                    break
            if found is None or found.root in rules:
                rules = None
                break
            rules[found.root] = found
        return IdealHandle(self.n, self.generators + generators, rules,
                           self.invertible, self.p)

    def normal_form(self, x) -> LocalizedPolynomial:
        val = _as_loc(x, self.p)
        if self.rules is None:
            raise UnsupportedIdealShape(
                "generators did not triangularize; no normal form")
        return _substitute_rules(val, _least_first(self.rules))

    def contains(self, x) -> bool:
        val = _as_loc(x, self.p)
        if val.num.is_zero():
            return True
        if self.rules is None:
            raise UnsupportedIdealShape(
                "generators did not triangularize; membership undecidable")
        return self.normal_form(val).num.is_zero()


class _ChainRule:
    """The normal form phi of one handle over one field, applied to
    brackets with coordinates by the chain rule.

    phi is the ring homomorphism that sends each y to its fully
    substituted rule value (the identity when the generators did not
    triangularize), and bracketing with y_kl is a derivation, so

        phi({z, y_kl}) = sum_a phi(dz/dy_a) * phi({y_a, y_kl}).

    ``exact`` is False when some rule is over another field or has a
    denominator that phi sends to zero.  Bracketing then ``contains`` can
    raise on such a handle at a point that depends on the expression, so
    the bracket is tested as it is.
    """

    def __init__(self, rules: Optional[Dict[Root, Rule]],
                 field: Optional[int]):
        # No reference back to the handle, which holds this object: a
        # cycle would outlive the handle until the next garbage collection.
        self.order = None if rules is None else _least_first(rules)
        self.field = field
        self.images: Dict = {}  # phi(y) per coordinate key
        self.exact = rules is None or (
            all(rule.den.p == field for rule in rules.values())
            and all(self.nonzero(rule.den) for rule in rules.values()))

    def nonzero(self, poly: Polynomial) -> bool:
        try:
            return not self.image(poly).num.is_zero()
        except ZeroDivisionError:
            return False

    def image(self, x) -> LocalizedPolynomial:
        """``normal_form(x)``, with the rule order sorted once."""
        val = _as_loc(x, self.field)
        if self.order is None:
            return val
        return _substitute_rules(val, self.order)

    def coordinate(self, row: int, col: int) -> LocalizedPolynomial:
        key = ("y", row, col)
        hit = self.images.get(key)
        if hit is None:
            hit = self.images[key] = self.image(y_var(row, col, self.field))
        return hit


def _partial_loc(z: LocalizedPolynomial, key) -> LocalizedPolynomial:
    """d(num/den)/dkey by the quotient rule."""
    num, den = z.num, z.den
    if den.is_constant():
        return LocalizedPolynomial(_partial(num, key), den)
    return LocalizedPolynomial(
        _partial(num, key) * den - num * _partial(den, key), den * den)


def is_casimir_mod(z, handle: IdealHandle) -> bool:
    """True when z brackets into the ideal with every coordinate.

    The coordinates are taken in ``positive_roots`` order.  As with
    ``contains``, a bracket that is not identically zero raises
    ``UnsupportedIdealShape`` when the generators did not triangularize.
    """
    val = _as_loc(z)
    field = val.p
    chain = handle._chain_rules.get(field)
    if chain is None:
        chain = handle._chain_rules[field] = _ChainRule(handle.rules, field)
    roots = positive_roots(handle.n)
    # A denominator of z that phi sends to zero is as unsafe as one of a
    # rule's.
    if not chain.exact or not (val.den.is_constant()
                               or chain.nonzero(val.den)):
        return all(handle.contains(bracket(z, y_var(r.row, r.col, field)))
                   for r in roots)
    ys = sorted(k for k in val.num.variables() | val.den.variables()
                if k[0] == "y")
    partials: Dict = {}
    for r in roots:
        k, l = r.row, r.col
        terms = []
        for key in ys:
            _, i, j = key
            # {y_ij, y_kl} = [j=k] y_il - [l=i] y_kj
            if j == k:
                step = chain.coordinate(i, l)
            elif l == i:
                step = -chain.coordinate(k, j)
            else:
                continue
            part = partials.get(key)
            if part is None:
                part = partials[key] = chain.image(_partial_loc(val, key))
            if not (part.num.is_zero() or step.num.is_zero()):
                terms.append((part, step))
        # A lone product of nonzero factors is nonzero.
        if len(terms) > 1:
            total = sum((a * b for a, b in terms[1:]),
                        terms[0][0] * terms[0][1])
            if total.num.is_zero():
                continue
        elif not terms:
            continue
        if handle.rules is None:
            raise UnsupportedIdealShape(
                "generators did not triangularize; membership undecidable")
        return False
    return True


def is_poisson_ideal(handle: IdealHandle) -> bool:
    """True when {g, y_r} lies in the ideal for every generator g and
    coordinate y_r.

    Each bracket is tested through the handle's normal form phi, a ring
    homomorphism, by the chain rule:

        phi({g, y_kl}) = sum_a phi(dg/dy_a) * phi({y_a, y_kl}),
        {y_ij, y_kl} = [j=k] y_il - [l=i] y_kj,

    so each generator costs one normal form per variable it involves, and
    phi(y) is computed once per coordinate.  Generators and roots are
    visited in order; the result, and ``UnsupportedIdealShape`` for a
    bracket that is not identically zero when the generators did not
    triangularize, are those of bracketing then ``contains``.
    """
    return all(is_casimir_mod(gen, handle) for gen in handle.generators)


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
        cur = _as_loc(cur, field)
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
    """Twist x by the canonical pair (p, q); requires {p, q} = 1 modulo
    the given ideal."""
    pl = _as_loc(p_elt)
    ql = _as_loc(q_elt)
    pb = _as_loc(bracket(pl, ql), pl.p)
    if not ideal.contains(pb - 1):
        raise NotCanonicalPair(
            "the pair's bracket is not one modulo the ideal")
    limit = ideal.n * ideal.n + 2
    return _series(_as_loc(x, pl.p), pl, ql, limit)


# --- column reduction ---------------------------------------------------

def _column_case(xis, bset) -> int:
    """1: lone cross; 2: cross sharing its column with a box; 3: no cross."""
    crosses = [r for r, is_x in xis if is_x]
    if len(crosses) >= 2:
        raise UnsupportedColumn(
            f"two crosses in one column: {crosses[0]!r}, {crosses[1]!r}")
    if not crosses:
        return 3
    boxes = [r for r, is_x in xis if not is_x]
    return 2 if boxes else 1


class ReductionContext:
    """Mutable state threaded through the per-column reduction."""

    def __init__(self, s, cmap: Dict[Root, Polynomial]):
        self.s = s
        self.n = s.n
        self.cmap = cmap
        self.tmaps: List[Tuple[LocalizedPolynomial, LocalizedPolynomial]] = []
        self.handle = IdealHandle(s.n, [], {}, tuple(s.s_otimes))
        self._var_cache: Dict = {}
        # The per-column working sets depend on the diagram alone.
        self.bs = columns_and_chain(s)[1]


def initial_context(s, c=None) -> ReductionContext:
    cmap: Dict[Root, Polynomial] = {}
    for r in s.xi:
        if c is None:
            cmap[r] = c_var(r)
        else:
            cmap[r] = const(c.get(r, 0))
    return ReductionContext(s, cmap)


def _map_var(ctx: ReductionContext, pair_index: int, key
             ) -> LocalizedPolynomial:
    cache_key = (pair_index, key)
    hit = ctx._var_cache.get(cache_key)
    if hit is not None:
        return hit
    pl, ql = ctx.tmaps[pair_index]
    base = LocalizedPolynomial(Polynomial.variable(key))
    if key[0] != "y":
        out = base
    else:
        out = _series(base, pl, ql, ctx.n * ctx.n + 2)
    ctx._var_cache[cache_key] = out
    return out


def _apply_tmap(ctx: ReductionContext, pair_index: int,
                val: LocalizedPolynomial) -> LocalizedPolynomial:
    def image(key):
        return _map_var(ctx, pair_index, key)

    num = _as_loc(substitute(val.num, image), val.p)
    den = _as_loc(substitute(val.den, image), val.p)
    if den.num.is_zero():
        raise UnsupportedColumn("denominator image vanished identically")
    return num / den


def reduce_column(ctx: ReductionContext, s, t: int, c=None):
    """Process column t: derive its canonical pairs, push the images of
    the column's closure roots through the accumulated maps, and extend
    the ideal by their cleared generators.

    Returns (pairs, images, ideal).
    """
    bset = ctx.bs[t - 1]
    xis = [(r, is_x) for r, is_x in zip(s.xi, s.otimes_mask) if r.col == t]
    case = _column_case(xis, set(bset))
    new_pairs: List[Tuple[LocalizedPolynomial, LocalizedPolynomial]] = []
    if case in (1, 2):
        cross = next(r for r, is_x in xis if is_x)
        plus, _minus = c_split(cross, bset)
        y_cross = y_var(cross.row, cross.col)
        if case == 1:
            for gamma in plus:  # iteration is greatest-first peel order
                delta = Root(cross.row, gamma.row)
                new_pairs.append((loc(y_var(delta.row, delta.col)),
                                  loc(y_var(gamma.row, gamma.col), y_cross)))
        else:
            boxes = [r for r, is_x in xis if not is_x]
            for gamma in plus:  # greatest-first peel order, as in case 1
                delta = Root(cross.row, gamma.row)
                # Only a box strictly inside the row span of the delta
                # side obstructs it; boxes outside the span leave the
                # delta side free to carry the denominator.
                blocked = any(gamma.row < b.row < cross.row for b in boxes)
                if not blocked:
                    pair = (loc(y_var(delta.row, delta.col), y_cross),
                            loc(y_var(gamma.row, gamma.col)))
                else:
                    pair = (loc(y_var(gamma.row, gamma.col)),
                            loc(-y_var(delta.row, delta.col), y_cross))
                check = _as_loc(bracket(pair[0], pair[1])) - 1
                if not check.num.is_zero():
                    raise UnsupportedColumn(
                        f"column {t} pair is not canonical")
                new_pairs.append(pair)
    # Within a column the last peeled pair acts first.
    ctx.tmaps.extend(reversed(new_pairs))
    images: Dict[Root, LocalizedPolynomial] = {}
    for eta in (r for r in s.a_set if r.col == t):
        val = _as_loc(y_var(eta.row, eta.col))
        # Later columns act innermost: their pairs are peeled off first.
        for index in reversed(range(len(ctx.tmaps))):
            val = _apply_tmap(ctx, index, val)
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
        reduce_column(ctx, s, t, c)
    return ctx.handle
