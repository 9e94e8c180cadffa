"""Poisson brackets, normal forms, and the column reduction pipeline.

Coordinates ``y_i_j`` (strictly lower positions) carry the Lie-Poisson
bracket {y_ij, y_kl} = [j==k] y_il - [l==i] y_kj.  Constants ``c_i_j``
are central parameters.  The column reduction peels canonical pairs off
each column of a maximal diagram and accumulates one generator per
closure root; the result is an ideal handle whose triangular rules decide
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
    as_fraction,
    coerce_scalar,
    poly_text,
    substitute,
)
from .admissible import NotMaximal, is_maximal
from .root_system import (
    Root,
    c_split,
    check_dimension,
    lex_greater,
    lex_sort_key,
    positive_roots,
    root_bracket,
    structure_constants,
)

__all__ = [
    "FieldMismatch", "IdealHandle", "LocalizedPolynomial", "NotMaximal",
    "Polynomial", "Rule", "UnsupportedColumn", "UnsupportedIdealShape",
    "bracket", "build_ideal", "c_var", "canonical_pairs", "const",
    "evaluate", "is_casimir_mod", "is_poisson_ideal", "loc", "pick_values",
    "poly_text", "reduce_columns", "y_var",
]


class UnsupportedColumn(ValueError):
    """The column's pick pattern is outside the supported reduction cases."""


class UnsupportedIdealShape(ValueError):
    """The generators do not give triangular rules in root order: a
    reduced generator has no rule at its least coordinate below the root
    of the rule before it."""


# --- element constructors ----------------------------------------------

def y_var(row: int, col: int) -> Polynomial:
    return Polynomial.variable(("y", row, col))


def c_var(root: Root) -> Polynomial:
    return Polynomial.variable(("c", root.row, root.col))


def const(value) -> Polynomial:
    return Polynomial({(): value})


def loc(num: Polynomial, den=None) -> LocalizedPolynomial:
    return LocalizedPolynomial(num, den)


def _as_loc(x) -> LocalizedPolynomial:
    val = as_fraction(x)
    if val is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as an element")
    return val


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
    return Polynomial(out)


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
    num = Polynomial.zero()
    g_parts = _y_partials(gl)
    for x, f_x in _y_partials(fl).items():
        for z, g_z in g_parts.items():
            rb = root_bracket(x, z)
            if rb is not None:
                sign, c = rb
                num = num + f_x * g_z * y_var(c.row, c.col) * sign
    if isinstance(f, Polynomial) and isinstance(g, Polynomial):
        return num
    return LocalizedPolynomial(num, (fl.den * gl.den) ** 2)


# --- evaluation ---------------------------------------------------------

def evaluate(poly: Polynomial, form):
    """Evaluate a polynomial at a linear form (an object with .p and
    .value(root)): in Q at a rational form, mod p at a form over F_p, where
    a coefficient whose denominator p divides raises ``FieldMismatch``.
    Anything but a ``Polynomial`` raises TypeError."""
    if not isinstance(poly, Polynomial):
        raise TypeError(
            f"evaluate needs a Polynomial, got {type(poly).__name__}")
    target = form.p

    def value(key):
        if key[0] != "y":
            raise ValueError(f"unbound variable {key} in evaluation")
        return coerce_scalar(form.value(Root(key[1], key[2])), target)

    return substitute(poly, value, target)


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
    the groups put over one denominator prod den_k^top_k.  Each group's
    factor of image powers is built once, and each power once per call."""
    images = {key: image for key in poly.variables()
              if (image := value(key)) is not None}
    if not images:
        return poly, Polynomial.one()
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
    powers: Dict[Tuple, Polynomial] = {}

    def power(k, e: int, of_den: bool) -> Polynomial:
        # The side itself at e == 1, where ** would copy it.
        base = images[k].den if of_den else images[k].num
        if e == 1:
            return base
        hit = powers.get((k, e, of_den))
        if hit is None:
            hit = powers[k, e, of_den] = base ** e
        return hit

    acc: Dict = {}
    for keyed, terms in groups.items():
        exps, part = dict(keyed), Polynomial(terms)
        factors = [power(k, e, False) for k, e in keyed]
        factors += [power(k, top - exps.get(k, 0), True)
                    for k, top in tops.items() if top > exps.get(k, 0)]
        if factors:
            part = math.prod(factors[1:], start=factors[0]) * part
        for mono, coef in part.terms.items():
            acc[mono] = acc.get(mono, 0) + coef
    return Polynomial(acc), math.prod(
        (power(k, top, True) for k, top in tops.items()),
        start=Polynomial.one())


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
    den, rest = parts[1], parts.get(0, Polynomial.zero())
    if all(r in invertible and lex_greater(r, v) for r in _y_roots(den)) \
            and all(lex_greater(r, v) for r in _y_roots(rest)):
        return Rule(v, den, rest)
    return None


@lru_cache(maxsize=None)
def _free_coordinate(root: Root) -> LocalizedPolynomial:
    """The image of a coordinate without a rule: itself, one per root."""
    return loc(y_var(root.row, root.col))


class IdealHandle:
    """Generators and their triangular rules in root order: each rule's
    value holds only coordinates greater than its root, none of them
    ruled, so phi(y_v) is the value of v's rule."""

    def __init__(self, *args, **kwargs):
        raise TypeError("an IdealHandle is built by "
                        "IdealHandle.from_generators")

    @classmethod
    def from_generators(cls, n: int, generators, invertible=()
                        ) -> "IdealHandle":
        """The handle of the generators: each generator, reduced by the rules
        before it, gives the rule of its least coordinate, which must lie
        below the root of the rule before it.  Raises
        ``UnsupportedIdealShape`` when a generator gives no such rule,
        ValueError for a coordinate outside the n-by-n triangle, and, before
        any reduction, ``InvalidDimension`` for an n that is not an int
        >= 2 and TypeError for a generator that is not a ``Polynomial``."""
        check_dimension(n)
        out = object.__new__(cls)
        out.n, out.generators, out.rules = n, list(generators), {}
        for gen in out.generators:
            if not isinstance(gen, Polynomial):
                raise TypeError(f"generator {gen!r} is not a Polynomial: "
                                f"got {type(gen).__name__}")
        for gen in out.generators:
            red = out.normal_form(gen).num
            if red.is_zero():
                continue
            roots = sorted(_y_roots(red), key=lex_sort_key)
            for r in roots:
                if not 1 <= r.col < r.row <= n:
                    raise ValueError(f"{r!r} lies outside the n={n} triangle")
            rule = _solve_for(red, roots[-1], invertible) if roots else None
            if rule is None:
                raise UnsupportedIdealShape(
                    f"generator {poly_text(gen)} has no solvable root")
            last = next(reversed(out.rules), None)
            if last is not None and not lex_greater(last, rule.root):
                raise UnsupportedIdealShape(
                    f"generator {poly_text(gen)} solves for {rule.root!r}, "
                    f"which is not below the previous rule root {last!r}")
            out.rules[rule.root] = rule
        return out

    def normal_form(self, x) -> LocalizedPolynomial:
        """phi(x), where the ring homomorphism phi sends each ruled y to its
        rule's value.  A Root equals its (row, col), so a y key's tail finds
        its rule."""
        def value(key):
            rule = self.rules.get(key[1:]) if key[0] == "y" else None
            return None if rule is None else rule.value
        return _phi(_as_loc(x), value)

    def contains(self, x) -> bool:
        return self.normal_form(x).num.is_zero()

    def coordinate(self, root: Root) -> LocalizedPolynomial:
        """phi(y_root): its rule's value, or itself without a rule."""
        rule = self.rules.get(root)
        return _free_coordinate(root) if rule is None else rule.value


def is_casimir_mod(z, handle: IdealHandle) -> bool:
    """True when z brackets into the ideal with every coordinate, each
    bracket, taken in ``positive_roots`` order, tested with ``contains``."""
    return all(handle.contains(bracket(z, y_var(r.row, r.col)))
               for r in positive_roots(handle.n))


def is_poisson_ideal(handle: IdealHandle) -> bool:
    """True when {g, y_r} lies in the ideal I for every generator g and
    coordinate y_r.

    Only the n - 1 simple coordinates y_{i+1,i} are checked.  Suppose
    {I, y_a} lies in I for every simple a, and let L = {x : {I, x} in I}.
    By Leibniz L is a subalgebra, and by Jacobi a Lie subalgebra; the
    simple root vectors generate the nilradical, so L holds every y_r.

    The rules are in root order, so the localized ideal is generated by
    y_v - phi(y_v), one per rule root v, where phi(y_v) = N/D is the rule's
    value and holds only free coordinates.  By Leibniz, closing one
    generating set closes the ideal, so the check is, for every rule v and
    simple coordinate y_r,

        D^2 * phi({y_v, y_r}) = sum_u (N_u D - N D_u) * phi({y_u, y_r}),

    summed over the free y_u of N/D, with each phi(y) read from the rules:
    no normal form is taken.
    """
    table = structure_constants(handle.n)
    for v in handle.rules:
        phi_v = handle.coordinate(v)
        # Both sides as one sum, y_v's term with coefficient D^2; per y_r,
        # numerators over the same denominator phi(y_c) are added first.
        coefs = [(v, phi_v.den ** 2)]
        coefs += [(u, -part) for u, part in _y_partials(phi_v).items()]
        sums: Dict[Root, Dict[Polynomial, Polynomial]] = {}
        for x, coef in coefs:
            for r, sign, c in table[x]:
                if r.row != r.col + 1:
                    continue  # not a simple coordinate
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


# --- the twist map ------------------------------------------------------

def _series(val: LocalizedPolynomial, p_elt: LocalizedPolynomial,
            q_elt: LocalizedPolynomial, limit: int) -> LocalizedPolynomial:
    """sum_s (-1)^s/s! ad_p^s(val) q^s; the adjoint action must be
    nilpotent within ``limit`` steps."""
    acc = val
    cur = val
    factorial = 1
    for s in range(1, limit + 1):
        cur = bracket(p_elt, cur)
        if cur.num.is_zero():
            return acc
        factorial *= s
        coef = Fraction((-1) ** s, factorial)
        acc = acc + cur * (q_elt ** s) * coef
    raise UnsupportedColumn("adjoint series did not terminate")


# The twist memo, shared by every diagram.  A variable's adjoint series
# under a canonical pair depends only on n (the series limit), the pair and
# the variable, keyed by their polynomials (fractions cross-multiply on ==).
# A closure root's image under the maps of ``reduce_columns`` depends only
# on n, the root and the chain of ``canonical_pairs`` triples, keyed by
# those roots and bools.  A variable the pair fixes maps to None.  The
# pairs are y-polynomials over Q whatever the constants, so the n <= 7
# catalogs bound the memo.
_TWISTS: Dict[Tuple, Optional[LocalizedPolynomial]] = {}


def _twist(n: int, pair, val: LocalizedPolynomial) -> LocalizedPolynomial:
    """The image of val when each y goes to its adjoint series under the
    canonical pair."""
    pl, ql = pair
    base = (n, pl.num, pl.den, ql.num, ql.den)

    def image(key):
        if key[0] != "y":
            return None
        var_key = base + (key,)
        if var_key not in _TWISTS:
            var = _as_loc(Polynomial.variable(key))
            series = _series(var, pl, ql, n * n + 2)
            _TWISTS[var_key] = None if series is var else series
        return _TWISTS[var_key]

    try:
        return _phi(val, image)
    except ZeroDivisionError:
        raise UnsupportedColumn(
            "denominator image vanished identically") from None


# --- column reduction ---------------------------------------------------

def canonical_pairs(s) -> List[List[Tuple[Root, Root, bool]]]:
    """The canonical pairs of every column t = 1..n-1, as (p, q, den_on_p)
    roots in peel order (greatest first).  A column with two crosses raises
    ``UnsupportedColumn``, naming the diagram's label when it has one.

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
            where = f" of {','.join(map(str, s.label))}" if s.label else ""
            raise UnsupportedColumn(
                f"two crosses in column {t}{where}: {crosses[0][0]!r}, "
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


def pick_values(s, c=None) -> Dict[Root, Polynomial]:
    """The value of each pick: its constant c_i_j when ``c is None``,
    else c's value for it (0 when absent)."""
    return {r: c_var(r) if c is None else const(c.get(r, 0)) for r in s.xi}


def reduce_columns(s):
    """Reduce the columns t = 1..n-1 in turn.  For each, take its canonical
    pairs, push the images of the column's closure roots through the
    accumulated maps, and yield (pairs, images).  Each closure root's image
    is one lookup in the twist memo once computed."""
    chain: List[Tuple[Root, Root, bool]] = []
    for t, triples in enumerate(canonical_pairs(s), start=1):
        pairs = [_pair_elements(*triple) for triple in triples]
        # Within a column the last peeled pair acts first.
        chain.extend(reversed(triples))
        chain_key = tuple(chain)
        images: Dict[Root, LocalizedPolynomial] = {}
        for eta in (r for r in s.a_set if r.col == t):
            key = (s.n, eta, chain_key)
            val = _TWISTS.get(key)
            if val is None:
                val = _free_coordinate(eta)
                # Later columns act innermost: their pairs are peeled off
                # first.
                for triple in reversed(chain):
                    val = _twist(s.n, _pair_elements(*triple), val)
                _TWISTS[key] = val
            images[eta] = val
        yield pairs, images


def build_ideal(s, c=None) -> IdealHandle:
    """The defining ideal of the family attached to a maximal diagram:
    each closure root's image cleared against its pick value.

    With ``c is None`` the generators carry symbolic constants c_i_j;
    otherwise ``c`` maps each pick to its value.
    """
    if not is_maximal(s):
        raise NotMaximal("the diagram admits a proper extension")
    cmap = pick_values(s, c)
    return IdealHandle.from_generators(s.n, [
        val.num - cmap.get(eta, Polynomial.zero()) * val.den
        for _pairs, images in reduce_columns(s)
        for eta, val in images.items()], s.s_otimes)
