"""Sparse multivariate polynomials and monomial-denominator fractions.

Coefficients live either in the rationals (field marker ``p is None``,
coefficients are ints when integral and ``fractions.Fraction`` otherwise)
or in the prime field of size ``p`` (coefficients are ints reduced mod p).
Variables are identified by hashable tuple keys such as ``("y", 4, 1)``,
``("c", 4, 1)`` and ``("tau",)``; a monomial is a sorted tuple of
``(key, exponent)`` pairs.
"""
from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

VarKey = Tuple
Monomial = Tuple[Tuple[VarKey, int], ...]


class FieldMismatch(TypeError):
    """Operands (or an evaluation point) live over different fields."""


def coerce_scalar(value, p: Optional[int]):
    """Convert an int or Fraction into the coefficient field."""
    if isinstance(value, Fraction):
        if p is None:
            return value
        if value.denominator % p == 0:
            raise FieldMismatch(
                f"denominator of {value} vanishes mod {p}")
        return (value.numerator * pow(value.denominator, -1, p)) % p
    if isinstance(value, int):
        return Fraction(value) if p is None else value % p
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


def scalar_inverse(value, p: Optional[int]):
    if p is None:
        return Fraction(1) / value
    return pow(value, -1, p)


def _normalize_mono(mono) -> Monomial:
    merged: Dict[VarKey, int] = {}
    for key, exp in mono:
        if exp == 0:
            continue
        if exp < 0:
            raise ValueError("negative exponent in monomial")
        key = tuple(key)
        merged[key] = merged.get(key, 0) + exp
    return tuple(sorted(merged.items()))


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


class Polynomial:
    """Immutable sparse polynomial.

    ``terms`` maps a monomial to its nonzero coefficient.
    """

    __slots__ = ("terms", "p", "_hash")

    def __init__(self, terms: Dict[Monomial, object], p: Optional[int] = None):
        # Over Q an integral coefficient is stored as an int: it equals,
        # hashes and prints like the Fraction it stands for, and int
        # arithmetic is far cheaper.
        clean = {}
        for mono, coef in terms.items():
            if type(coef) is int:
                if p is not None:
                    coef %= p
            else:
                if p is not None or type(coef) is not Fraction:
                    coef = coerce_scalar(coef, p)
                if coef.denominator == 1:
                    coef = coef.numerator
            if coef:
                clean[mono] = coef
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # --- constructors -------------------------------------------------
    @classmethod
    def zero(cls, p: Optional[int] = None) -> "Polynomial":
        """The zero of the field: one shared instance per p."""
        return _shared(_ZEROS, {}, p)

    @classmethod
    def one(cls, p: Optional[int] = None) -> "Polynomial":
        """The one of the field: one shared instance per p."""
        return _shared(_ONES, {(): 1}, p)

    @classmethod
    def term(cls, mono, coef=1, p: Optional[int] = None) -> "Polynomial":
        return cls({_normalize_mono(mono): coef}, p)

    @classmethod
    def variable(cls, key, p: Optional[int] = None) -> "Polynomial":
        return cls({((tuple(key), 1),): 1}, p)

    # --- inspection ---------------------------------------------------
    def monomials(self) -> List[Tuple[object, Monomial]]:
        """(coefficient, monomial) pairs in display order."""
        return [(self.terms[mono], mono)
                for mono in sorted(self.terms, reverse=True)]

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

    def constant_value(self):
        return self.terms.get((), coerce_scalar(0, self.p))

    def degree_in(self, key) -> int:
        key = tuple(key)
        best = 0
        for mono in self.terms:
            for k, e in mono:
                if k == key and e > best:
                    best = e
        return best

    def coefficient_of(self, key, exp: int) -> "Polynomial":
        """The polynomial coefficient of key**exp (key removed)."""
        key = tuple(key)
        out = {}
        for mono, coef in self.terms.items():
            d = dict(mono)
            if d.get(key, 0) != exp:
                continue
            d.pop(key, None)
            out[tuple(sorted(d.items()))] = coef
        return Polynomial(out, self.p)

    # --- arithmetic ---------------------------------------------------
    def _coerce_operand(self, other) -> Optional["Polynomial"]:
        if isinstance(other, Polynomial):
            if other.p != self.p:
                raise FieldMismatch(
                    f"mixed coefficient fields: {self.p} vs {other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial({(): other}, self.p)
        return None

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, 0) + coef
        return Polynomial(out, self.p)

    __radd__ = __add__

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

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()}, self.p)

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        out: Dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return Polynomial(out, self.p)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = Polynomial.one(self.p)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.p == other.p and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial({(): other}, self.p)
        return NotImplemented

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.p, frozenset(self.terms.items())))
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
        return Polynomial(out, self.p)


_ZEROS: Dict[Optional[int], Polynomial] = {}
_ONES: Dict[Optional[int], Polynomial] = {}


def _shared(table, terms, p: Optional[int]) -> Polynomial:
    poly = table.get(p)
    if poly is None:
        poly = Polynomial(terms, p)
        # A shared instance must not be changed through its term dict.
        object.__setattr__(poly, "terms", MappingProxyType(poly.terms))
        table[p] = poly
    return poly


def substitute(poly: Polynomial, value, p: Optional[int] = None):
    """Sum of coef * prod value(key)**exp over the terms of ``poly``.

    ``value`` maps a variable key to a scalar, a numpy integer array or a
    polynomial.  With a prime ``p`` the coefficients are taken mod p and
    every product and sum is reduced mod p as soon as it is formed, so
    int64 arrays of residues cannot overflow.
    """
    total = coerce_scalar(0, p)
    for mono, coef in poly.terms.items():
        term = coerce_scalar(coef, p)
        for key, exp in mono:
            x = value(key)
            for _ in range(exp):
                term = term * x if p is None else term * x % p
        total = total + term if p is None else (total + term) % p
    return total


def _var_text(key: VarKey) -> str:
    return "_".join(str(part) for part in key)


def poly_text(poly) -> str:
    """Canonical text form, e.g. ``1*y_2_1^2 + -1`` or ``1/2*y_2_1*y_3_1``."""
    if isinstance(poly, LocalizedPolynomial):
        if poly.den == Polynomial.one(poly.den.p):
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


class LocalizedPolynomial:
    """A fraction num/den of polynomials, reduced by monomial content.

    Denominators produced by the reduction pipeline are single terms, so
    cancelling the common per-variable monomial content and scaling the
    denominator to have leading coefficient one yields a canonical form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den=None):
        if not isinstance(num, Polynomial):
            raise TypeError("numerator must be a Polynomial")
        if den is None:
            den = Polynomial.one(num.p)
        if not isinstance(den, Polynomial):
            den = Polynomial({(): den}, num.p)
        if den.p != num.p:
            raise FieldMismatch(
                f"mixed coefficient fields: {num.p} vs {den.p}")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Polynomial.one(num.p)
        else:
            num, den = _reduce_fraction(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("LocalizedPolynomial is immutable")

    @property
    def p(self):
        return self.num.p

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce_operand(self, other) -> Optional["LocalizedPolynomial"]:
        if isinstance(other, LocalizedPolynomial):
            if other.p != self.p:
                raise FieldMismatch(
                    f"mixed coefficient fields: {self.p} vs {other.p}")
            return other
        if isinstance(other, Polynomial):
            if other.p != self.p:
                raise FieldMismatch(
                    f"mixed coefficient fields: {self.p} vs {other.p}")
            return LocalizedPolynomial(other)
        if isinstance(other, (int, Fraction)):
            return LocalizedPolynomial(Polynomial({(): other}, self.p))
        return None

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return LocalizedPolynomial(
            self.num * other.den + other.num * self.den,
            self.den * other.den)

    __radd__ = __add__

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
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("exponent must be a nonnegative int")
        return LocalizedPolynomial(self.num ** exp, self.den ** exp)

    def __eq__(self, other):
        if isinstance(other, (Polynomial, int, Fraction)):
            other = self._coerce_operand(other)
        if isinstance(other, LocalizedPolynomial):
            if self.p != other.p:
                return False
            if self.num == other.num and self.den == other.den:
                return True
            return self.num * other.den == other.num * self.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"LocalizedPolynomial({poly_text(self)})"


def _reduce_fraction(num: Polynomial, den: Polynomial):
    """Cancel common monomial content and make the denominator's leading
    coefficient one."""
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
        inv = scalar_inverse(lead, den.p)
        num = num * inv
        den = den * inv
    return num, den
