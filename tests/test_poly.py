"""Fast paths of the polynomial kernel against their generic formulas."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact import _poly
from artifact._poly import (
    FieldMismatch,
    LocalizedPolynomial,
    Polynomial,
    coerce_scalar,
    substitute,
)
from artifact.symbolic import _phi, y_var

KEYS = (("y", 2, 1), ("y", 3, 1), ("c", 3, 1))


def _mono(exps):
    return tuple(sorted((key, e) for key, e in zip(KEYS, exps) if e))


@st.composite
def polys(draw, max_terms=4, max_exp=3, allow_zero=True, p=None):
    """A polynomial over Q; with a prime p, one whose every coefficient has
    a residue mod p."""
    coef = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    if p is not None:
        coef = coef.filter(lambda c: c.denominator % p)
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * len(KEYS)).map(_mono), coef,
        min_size=0 if allow_zero else 1, max_size=max_terms))
    poly = Polynomial(terms)
    if not allow_zero and poly.is_zero():
        poly = Polynomial.one() + Polynomial.variable(KEYS[0])
    return poly


def _reference_mul(a, b):
    """The product term by term, with no fast path."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            merged = dict(m1)
            for key, e in m2:
                merged[key] = merged.get(key, 0) + e
            mono = tuple(sorted(merged.items()))
            out[mono] = out.get(mono, 0) + c1 * c2
    return Polynomial(out)


def _coefficient_of(poly, key, exp):
    """The polynomial coefficient of key**exp, one pass per exponent."""
    out = {}
    for mono, coef in poly.terms.items():
        d = dict(mono)
        if d.get(key, 0) == exp:
            d.pop(key, None)
            out[tuple(sorted(d.items()))] = coef
    return Polynomial(out)


def _reference_subst(poly, key, rep):
    """The per-exponent formula: one coefficient pass per exponent."""
    top = max((e for mono in poly.terms for k, e in mono if k == key),
              default=0)
    if top == 0:
        return LocalizedPolynomial(poly)
    acc = Polynomial.zero()
    for exp in range(top + 1):
        part = _coefficient_of(poly, key, exp)
        if part.is_zero():
            continue
        acc = acc + part * (rep.num ** exp) * (rep.den ** (top - exp))
    return LocalizedPolynomial(acc, rep.den ** top)


def _reference_substitute(poly, value, p=None):
    """substitute without stopping a term at a zero value."""
    total = coerce_scalar(0, p)
    for mono, coef in poly.terms.items():
        term = coerce_scalar(coef, p)
        for key, exp in mono:
            x = value(key)
            for _ in range(exp):
                term = term * x if p is None else term * x % p
        total = total + term if p is None else (total + term) % p
    return total


class TestPower:
    @settings(max_examples=25)
    @given(polys(max_terms=3, max_exp=2))
    def test_power_is_repeated_product(self, a):
        expected = Polynomial.one()
        for k in range(7):
            got = a ** k
            assert got == expected, k
            assert got is not a
            expected = _reference_mul(expected, a)

    def test_zero_power_is_one_and_first_power_a_copy(self):
        a = y_var(2, 1) + y_var(3, 1)
        assert a ** 0 is Polynomial.one()
        assert a ** 1 == a and a ** 1 is not a


class TestConstantProduct:
    @settings(max_examples=30)
    @given(polys(), st.integers(-5, 5) | st.fractions(
        min_value=-5, max_value=5, max_denominator=4))
    def test_constant_on_either_side(self, a, k):
        c = Polynomial({(): k})
        expected = _reference_mul(c, a)
        for got in (c * a, a * c, k * a, a * k):
            assert got == expected
            assert got is not a and got is not c

    def test_constant_denominator_is_scaled_away(self):
        num = y_var(2, 1) * 3 + 1
        frac = LocalizedPolynomial(num, Polynomial({(): 6}))
        assert frac.num == num * Fraction(1, 6)
        assert frac.den == Polynomial.one()


class TestSubstitutionSplit:
    @settings(max_examples=25)
    @given(polys(), st.sampled_from(KEYS))
    def test_split_by_matches_coefficients(self, poly, key):
        parts = poly.split_by(key)
        assert all(not part.is_zero() for part in parts.values())
        for exp in range(5):
            assert parts.get(exp, Polynomial.zero()) == \
                _coefficient_of(poly, key, exp)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_per_exponent_formula(self, data):
        # Several keys at once against one key at a time, each value free
        # of every substituted key.  The reduced fraction is canonical for
        # one key or monomial denominators; otherwise the cascade may keep
        # a common factor that cancellation left behind, so only the values
        # are compared.
        poly = data.draw(polys())
        keys = data.draw(st.lists(st.sampled_from(KEYS), min_size=1,
                                  max_size=len(KEYS), unique=True))

        def free(q):
            return Polynomial({m: c for m, c in q.terms.items()
                               if not any(k in keys for k, _e in m)})

        images = {}
        for key in keys:
            num = free(data.draw(polys(max_terms=3, max_exp=1)))
            den = free(data.draw(
                polys(max_terms=2, max_exp=1, allow_zero=False)))
            images[key] = LocalizedPolynomial(
                num, Polynomial.one() if den.is_zero() else den)
        got = _phi(LocalizedPolynomial(poly), images.get)
        expected = LocalizedPolynomial(poly)
        for key in keys:
            expected = _reference_subst(expected.num, key, images[key]) / \
                _reference_subst(expected.den, key, images[key])
        assert got == expected
        if len(keys) == 1 or all(len(images[k].den.terms) == 1
                                 for k in keys):
            assert got.num == expected.num and got.den == expected.den


class TestSubstitute:
    # p is the prime substitute reduces mod; None keeps the sum in Q.
    @pytest.mark.parametrize("p", (None, 3, 7))
    @settings(max_examples=30)
    @given(data=st.data())
    def test_int_zero_values_match_full_sum(self, p, data):
        poly = data.draw(polys(p=p))
        # y_2_1 goes to the int 0, as triangular_system sends every y off
        # the picks; y_3_1 to an int; c_3_1 stays symbolic over Q, as
        # there, and goes to an int mod p.
        ints = st.integers(-3, 3)
        point = {KEYS[0]: 0, KEYS[1]: data.draw(ints),
                 KEYS[2]: Polynomial.variable(KEYS[2]) if p is None
                 else data.draw(ints)}
        got = substitute(poly, point.__getitem__, p)
        assert got == _reference_substitute(poly, point.__getitem__, p)
        if p is not None:
            # Every coefficient has a residue mod p and every value is an
            # int, so the value mod p is the rational value reduced mod p.
            assert got == coerce_scalar(
                substitute(poly, point.__getitem__), p)

    @settings(max_examples=20)
    @given(polys(p=7))
    def test_numpy_values_unchanged(self, poly):
        columns = np.array([[0, 1, 2, 0], [3, 0, 6, 0], [0, 0, 5, 1]],
                           dtype=np.int64)

        def value(key):
            return columns[KEYS.index(key)]

        got = substitute(poly, value, 7)
        expected = _reference_substitute(poly, value, 7)
        assert np.array_equal(np.broadcast_to(got, (4,)),
                              np.broadcast_to(expected, (4,)))

    def test_coefficient_without_residue_is_refused(self):
        # 1/2 has no residue mod 2, whatever the point; mod 3 it is 2.
        half = Polynomial({(): Fraction(1, 2)}) * y_var(2, 1) + 1
        for x in (0, 1):
            with pytest.raises(FieldMismatch):
                substitute(half, lambda key: x, 2)
        assert substitute(half, lambda key: 1, 3) == 0


class TestWorkCounts:
    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        inner = _poly._mono_mul

        def counting(a, b):
            calls.append((a, b))
            return inner(a, b)

        monkeypatch.setattr(_poly, "_mono_mul", counting)
        return calls

    def test_monomial_products(self, products):
        a = y_var(2, 1) + y_var(3, 1)
        for expr, count in ((lambda: a ** 1, 0), (lambda: 3 * a, 0),
                            (lambda: a ** 2, 4)):
            products.clear()
            expr()
            assert len(products) == count


class TestFractionEquality:
    def test_equal_fractions_are_unhashable(self):
        x, y, z = y_var(2, 1), y_var(3, 1), y_var(3, 2)
        a = LocalizedPolynomial((x + 1) * y, (x + 1) * z)
        b = LocalizedPolynomial(y, z)
        assert (a.num, a.den) != (b.num, b.den)
        assert a == b
        for f in (a, b):
            with pytest.raises(TypeError):
                hash(f)


class TestReflectedSubtraction:
    @pytest.mark.parametrize("k", [2, Fraction(1, 2)])
    def test_scalar_minus_element(self, k):
        x, y = y_var(2, 1), y_var(3, 1)
        for a in (x * y + 1, LocalizedPolynomial(x + 1, y)):
            diff = k - a
            assert type(diff) is type(a)
            assert diff == -(a - k)
