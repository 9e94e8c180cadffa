"""Sparse multivariate polynomials and monomial-denominator fractions.

Coefficients are rationals: ints when integral, ``fractions.Fraction``
otherwise.  A prime enters only at evaluation, where ``coerce_scalar`` and
``substitute`` reduce each coefficient mod p.  Variables are identified by
hashable tuple keys such as ``("y", 4, 1)`` and ``("c", 4, 1)``; a
monomial is a sorted tuple of ``(key, exponent)`` pairs.
"""
from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Optional, Tuple

__all__ = [
    "FieldMismatch", "LocalizedPolynomial", "Polynomial", "as_fraction",
    "coerce_scalar", "poly_text", "substitute",
]

VarKey = Tuple
Monomial = Tuple[Tuple[VarKey, int], ...]


class FieldMismatch(TypeError):
    """A rational has no residue mod p: p divides its denominator."""


def coerce_scalar(value, p: Optional[int]):
    """An int or Fraction as a rational (``p is None``) or as its residue
    mod the prime p; a bool, like a float, raises TypeError."""
    if isinstance(value, Fraction):
        if p is None:
            return value
        if value.denominator % p == 0:
            raise FieldMismatch(
                f"denominator of {value} vanishes mod {p}")
        return (value.numerator * pow(value.denominator, -1, p)) % p
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value) if p is None else value % p
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for key, exp in b:
        merged[key] = merged.get(key, 0) + exp
    return tuple(sorted(merged.items()))


def _mono_div(a: Monomial, b: Monomial) -> Optional[Monomial]:
    """a / b, or None when b does not divide a."""
    rem = dict(a)
    for key, exp in b:
        have = rem.get(key, 0)
        if have < exp:
            return None
        if have == exp:
            del rem[key]
        else:
            rem[key] = have - exp
    return tuple(sorted(rem.items()))


def _mono_lex_greater(a: Monomial, b: Monomial) -> bool:
    """Multiplication-compatible order used for division leading terms."""
    da, db = dict(a), dict(b)
    for key in sorted(set(da) | set(db)):
        ea, eb = da.get(key, 0), db.get(key, 0)
        if ea != eb:
            return ea > eb
    return False


class _Element:
    """The immutable base of both element classes: a - b is a + (-b)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)


class Polynomial(_Element):
    """Immutable sparse polynomial.

    ``terms`` maps a monomial to its nonzero coefficient.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Dict[Monomial, object]):
        # An integral coefficient is stored as an int: it equals, hashes
        # and prints like the Fraction it stands for, and int arithmetic is
        # far cheaper.
        clean = {}
        for mono, coef in terms.items():
            if type(coef) is not int:
                if type(coef) is not Fraction:
                    coef = coerce_scalar(coef, None)
                if coef.denominator == 1:
                    coef = coef.numerator
            if coef:
                clean[mono] = coef
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    # --- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        """The zero polynomial: one shared instance."""
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        """The constant one: one shared instance."""
        return _ONE

    @classmethod
    def variable(cls, key) -> "Polynomial":
        return cls({((tuple(key), 1),): 1})

    # --- inspection ---------------------------------------------------
    def variables(self):
        seen = set()
        for mono in self.terms:
            for key, _exp in mono:
                seen.add(key)
        return seen

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not mono for mono in self.terms)

    def split_by(self, key) -> Dict[int, "Polynomial"]:
        """{exponent of key: its polynomial coefficient (key removed)},
        in one pass over the terms."""
        parts: Dict[int, Dict[Monomial, object]] = {}
        for mono, coef in self.terms.items():
            exp, rest = 0, mono
            for i, (k, e) in enumerate(mono):
                if k == key:
                    exp, rest = e, mono[:i] + mono[i + 1:]
                    break
            parts.setdefault(exp, {})[rest] = coef
        return {exp: Polynomial(terms) for exp, terms in parts.items()}

    # --- arithmetic ---------------------------------------------------
    def _coerce_operand(self, other) -> Optional["Polynomial"]:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial({(): other})
        return None

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, 0) + coef
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def _scaled(self, k) -> "Polynomial":
        return Polynomial({m: c * k for m, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        # A constant factor scales the coefficients of the other.
        if len(other.terms) == 1 and () in other.terms:
            return self._scaled(other.terms[()])
        if len(self.terms) == 1 and () in self.terms:
            return other._scaled(self.terms[()])
        out: Dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("exponent must be a nonnegative int")
        if exp == 0:
            return Polynomial.one()
        # Start from the base and square only while bits remain.
        result, base = None, self
        while True:
            if exp & 1:
                result = base if result is None else result * base
            exp >>= 1
            if not exp:
                break
            base = base * base
        return Polynomial(self.terms) if result is self else result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial({(): other})
        return NotImplemented

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Polynomial({poly_text(self)})"

    # --- division -----------------------------------------------------
    def _leading(self) -> Tuple[Monomial, object]:
        best = None
        for mono in self.terms:
            if best is None or _mono_lex_greater(mono, best):
                best = mono
        return best, self.terms[best]

    def div_mono(self, mono: Monomial) -> "Polynomial":
        out = {}
        for m, c in self.terms.items():
            q = _mono_div(m, mono)
            if q is None:
                raise ValueError("monomial does not divide every term")
            out[q] = c
        return Polynomial(out)


def _frozen(terms) -> Polynomial:
    poly = Polynomial(terms)
    # A shared instance must not be changed through its term dict.
    object.__setattr__(poly, "terms", MappingProxyType(poly.terms))
    return poly


_ZERO, _ONE = _frozen({}), _frozen({(): 1})


def substitute(poly: Polynomial, value, p: Optional[int] = None):
    """Sum of coef * prod value(key)**exp over the terms of ``poly``.

    ``value`` maps a variable key to a scalar, a numpy integer array or a
    polynomial.  With a prime ``p`` the coefficients are taken mod p
    (``FieldMismatch`` when p divides a denominator) and every product and
    sum is reduced mod p as soon as it is formed, so int64 arrays of
    residues cannot overflow.
    """
    total = coerce_scalar(0, p)
    for mono, coef in poly.terms.items():
        term = coerce_scalar(coef, p)
        for key, exp in mono:
            x = value(key)
            if type(x) is int and not x:
                break  # the term vanishes
            for _ in range(exp):
                term = term * x if p is None else term * x % p
        else:
            total = total + term if p is None else (total + term) % p
    return total


def _var_text(key: VarKey) -> str:
    return "_".join(str(part) for part in key)


def poly_text(poly) -> str:
    """Canonical text form, e.g. ``1*y_2_1^2 + -1`` or ``1/2*y_2_1*y_3_1``."""
    if isinstance(poly, LocalizedPolynomial):
        if poly.den == Polynomial.one():
            return poly_text(poly.num)
        return f"({poly_text(poly.num)}) / ({poly_text(poly.den)})"
    if poly.is_zero():
        return "0"
    pieces = []
    for mono in sorted(poly.terms, reverse=True):
        coef = poly.terms[mono]
        if mono:
            body = "*".join(
                _var_text(key) if exp == 1 else f"{_var_text(key)}^{exp}"
                for key, exp in mono)
            pieces.append(f"{coef}*{body}")
        else:
            pieces.append(f"{coef}")
    return " + ".join(pieces)


class LocalizedPolynomial(_Element):
    """A fraction num/den of polynomials, reduced by monomial content.

    Reduction cancels common monomial content and makes the denominator's
    leading coefficient one.  That form is canonical only over one-term
    denominators, but ``symbolic._twist`` also makes 2-4 term ones: so
    ``==`` cross-multiplies, and fractions are unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den=None):
        if not isinstance(num, Polynomial):
            raise TypeError("numerator must be a Polynomial")
        # A unit denominator, None or the shared one, needs no reduction.
        if den is None or den is _ONE:
            den = _ONE
        else:
            if not isinstance(den, Polynomial):
                den = Polynomial({(): den})
            if den.is_zero():
                raise ZeroDivisionError("zero denominator")
            if num.is_zero():
                den = _ONE
            else:
                num, den = _reduce_fraction(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce_operand(self, other) -> Optional["LocalizedPolynomial"]:
        return as_fraction(other)

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return LocalizedPolynomial(
            self.num * other.den + other.num * self.den,
            self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return LocalizedPolynomial(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return LocalizedPolynomial(self.num * other.num,
                                   self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero")
        return LocalizedPolynomial(self.num * other.den,
                                   self.den * other.num)

    def __pow__(self, exp: int):
        return LocalizedPolynomial(self.num ** exp, self.den ** exp)

    def __eq__(self, other):
        if isinstance(other, (Polynomial, int, Fraction)):
            other = self._coerce_operand(other)
        if isinstance(other, LocalizedPolynomial):
            if self.num == other.num and self.den == other.den:
                return True
            return self.num * other.den == other.num * self.den
        return NotImplemented

    __hash__ = None  # equal fractions may differ in (num, den)

    def __repr__(self):
        return f"LocalizedPolynomial({poly_text(self)})"


def as_fraction(x):
    """x, an int, Fraction, polynomial or fraction, as a fraction; None for
    any other type."""
    if isinstance(x, LocalizedPolynomial):
        return x
    if isinstance(x, Polynomial):
        return LocalizedPolynomial(x)
    if isinstance(x, (int, Fraction)):
        return LocalizedPolynomial(Polynomial({(): x}))
    return None


def _reduce_fraction(num: Polynomial, den: Polynomial):
    """Cancel common monomial content and make the denominator's leading
    coefficient one."""
    if den.is_constant():
        lead = den.terms[()]
        if lead == 1:
            return num, den
        return num * (Fraction(1) / lead), Polynomial.one()

    def content(poly: Polynomial) -> Dict[VarKey, int]:
        out: Optional[Dict[VarKey, int]] = None
        for mono in poly.terms:
            d = dict(mono)
            if out is None:
                out = d
            else:
                out = {k: min(e, d.get(k, 0)) for k, e in out.items()
                       if d.get(k, 0) > 0}
        return out or {}

    cn = content(num)
    cd = content(den)
    common = {k: min(e, cd.get(k, 0)) for k, e in cn.items()
              if cd.get(k, 0) > 0}
    common = {k: e for k, e in common.items() if e > 0}
    if common:
        mono = tuple(sorted(common.items()))
        num = num.div_mono(mono)
        den = den.div_mono(mono)
    _m, lead = den._leading()
    if lead != 1:
        inv = Fraction(1) / lead
        num = num * inv
        den = den * inv
    return num, den
