"""Oracle tests for the Poisson/ideal layer."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from artifact.root_system import Root, positive_roots
from artifact.admissible import AdmissibleSubset, build_admissible
from artifact.symbolic import (
    FieldMismatch,
    IdealHandle,
    LocalizedPolynomial,
    NotCanonicalPair,
    NotMaximal,
    Polynomial,
    Rule,
    UnsupportedColumn,
    UnsupportedIdealShape,
    bracket,
    build_ideal,
    c_var,
    canonical_pairs,
    const,
    evaluate,
    initial_context,
    is_casimir_mod,
    is_poisson_ideal,
    loc,
    pick_values,
    poly_text,
    reduce_column,
    tilde_map,
    y_var,
)
from artifact.symbolic import _solve_for

from conftest import ANCHOR_634, CATALOG3, CATALOG5, R, b_chain


def y(i, j, p=None):
    return y_var(i, j, p)


class TestPolynomialCore:
    def test_arithmetic(self):
        a = y(2, 1)
        assert (a + const(1)) * (a - const(1)) == a * a - const(1)
        assert (a ** 3) == a * a * a
        assert a - a == Polynomial.zero()

    def test_text_form(self):
        p = y(2, 1) * y(2, 1) - const(1)
        assert poly_text(p) == "1*y_2_1^2 + -1"
        assert poly_text(y(3, 1) * y(2, 1) * const(Fraction(1, 2))) == \
            "1/2*y_2_1*y_3_1"
        assert poly_text(Polynomial.zero()) == "0"

    def test_finite_field_reduction(self):
        a = y(2, 1, p=3)
        assert a + a + a == Polynomial.zero(p=3)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            y(2, 1, p=3) + y(2, 1)

    def test_localized_reduction(self):
        l = loc(y(2, 1) * y(3, 1), y(3, 1))
        assert l == loc(y(2, 1), const(1))
        assert l.den == Polynomial.one()


class TestCoefficientRepresentation:
    def test_integral_fraction_is_invisible(self):
        a = y(2, 1) * const(Fraction(3))
        b = y(2, 1) * const(3)
        assert a == b and hash(a) == hash(b)
        assert poly_text(a) == poly_text(b) == "3*y_2_1"
        assert type(a.terms[((("y", 2, 1), 1),)]) is int

    def test_integral_product_stored_as_int(self):
        half = const(Fraction(1, 2))
        assert type(half.terms[()]) is Fraction
        assert type((half * 2).terms[()]) is int
        assert poly_text(half * 2) == "1"

    @pytest.mark.parametrize("p", [None, 7])
    def test_other_types_rejected(self, p):
        import numpy as np

        for bad in (1.5, 2.0, np.int64(3)):
            with pytest.raises(TypeError):
                Polynomial({(): bad}, p)

    def test_denominator_vanishing_mod_p(self):
        with pytest.raises(FieldMismatch):
            Polynomial({(): Fraction(1, 7)}, 7)
        assert Polynomial({(): Fraction(1, 2)}, 7).terms[()] == 4


class TestBracket:
    def test_structure_constants(self):
        assert bracket(y(3, 2), y(2, 1)) == y(3, 1)
        assert bracket(y(2, 1), y(3, 2)) == -y(3, 1)
        assert bracket(y(5, 4), y(4, 2)) == y(5, 2)
        assert bracket(y(3, 2), y(5, 3)) == -y(5, 2)
        assert bracket(y(5, 4), y(6, 5)) == -y(6, 4)
        assert bracket(y(3, 1), y(2, 1)) == Polynomial.zero()
        assert bracket(y(2, 1), y(2, 1)) == Polynomial.zero()

    def test_formula(self):
        # {y_ij, y_kl} = d_jk y_il - d_li y_kj over every pair for n = 5.
        from artifact.root_system import positive_roots

        for a in positive_roots(5):
            for b in positive_roots(5):
                expect = Polynomial.zero()
                if a.col == b.row:
                    expect = expect + y(a.row, b.col)
                if b.col == a.row:
                    expect = expect - y(b.row, a.col)
                assert bracket(y(*a), y(*b)) == expect

    def test_leibniz(self):
        lhs = bracket(y(3, 2), y(2, 1) * y(4, 3))
        rhs = bracket(y(3, 2), y(2, 1)) * y(4, 3) + \
            y(2, 1) * bracket(y(3, 2), y(4, 3))
        assert lhs == rhs
        assert rhs == y(3, 1) * y(4, 3) - y(2, 1) * y(4, 2)

    def test_antisymmetry_and_jacobi(self):
        from artifact.root_system import positive_roots

        roots = list(positive_roots(4))
        polys = [y(*r) for r in roots]
        for a in polys:
            for b in polys:
                assert bracket(a, b) == -bracket(b, a)
        for a in polys:
            for b in polys:
                for c in polys:
                    s = bracket(a, bracket(b, c)) \
                        + bracket(b, bracket(c, a)) \
                        + bracket(c, bracket(a, b))
                    assert s == Polynomial.zero()

    def test_localized_quotient_rule(self):
        # {y32, y21/y31} = {y32,y21}/y31 = y31/y31 = 1 (y31 is central).
        q = loc(y(2, 1), y(3, 1))
        out = bracket(y(3, 2), q)
        assert out == loc(const(1), const(1))


def _bracket_reference(f, g):
    """The former bracket: polynomial brackets from the structure
    constants written out, combined by the 4-term quotient expansion
    {a/b, c/d} = ({a,c}bd - {a,d}bc - {b,c}ad + {b,d}ac) / (b^2 d^2)."""
    from artifact.symbolic import _as_loc, _partial

    def poly_bracket(f, g):
        out = Polynomial.zero(f.p)
        for x in f.variables():
            for z in g.variables():
                if x[0] != "y" or z[0] != "y":
                    continue
                (_, i, j), (_, k, l) = x, z
                base = Polynomial.zero(f.p)
                if j == k:
                    base = base + y(i, l, f.p)
                if l == i:
                    base = base - y(k, j, f.p)
                out = out + _partial(f, x) * _partial(g, z) * base
        return out

    if isinstance(f, Polynomial) and isinstance(g, Polynomial):
        return poly_bracket(f, g)
    a, b = _as_loc(f).num, _as_loc(f).den
    c, d = _as_loc(g).num, _as_loc(g).den
    num = (poly_bracket(a, c) * b * d - poly_bracket(a, d) * b * c
           - poly_bracket(b, c) * a * d + poly_bracket(b, d) * a * c)
    return LocalizedPolynomial(num, b * b * d * d)


@st.composite
def _bracket_operand(draw, p):
    roots = sorted(positive_roots(4))

    def poly(max_terms):
        out = Polynomial.zero(p)
        for _ in range(draw(st.integers(1, max_terms))):
            term = const(draw(st.integers(-2, 2)), p)
            if draw(st.integers(0, 3)) == 0:
                term = term * c_var(draw(st.sampled_from(roots)), p)
            for r in draw(st.lists(st.sampled_from(roots), max_size=2)):
                term = term * y(r.row, r.col, p)
            out = out + term
        return out

    num = poly(3)
    kind = draw(st.sampled_from(["poly", "monomial", "sum", "drawn"]))
    if kind == "poly":
        return num
    den = {"monomial": y(3, 1, p) * y(4, 3, p),
           "sum": y(3, 2, p) + y(2, 1, p),
           "drawn": poly(2)}[kind]
    return loc(num, den if not den.is_zero() else y(4, 2, p))


class TestBracketQuotientSum:
    @settings(max_examples=80)
    @given(st.sampled_from([None, 3]).flatmap(
        lambda p: st.tuples(_bracket_operand(p), _bracket_operand(p))))
    def test_matches_four_term_expansion(self, operands):
        f, g = operands
        got, want = bracket(f, g), _bracket_reference(f, g)
        assert type(got) is type(want)
        if isinstance(want, Polynomial):
            assert got.terms == want.terms and got.p == want.p
        else:
            assert (got.num, got.den) == (want.num, want.den)
            assert poly_text(got) == poly_text(want)

    def test_non_monomial_denominators(self):
        den = y(3, 2) + y(2, 1)
        for f, g in [(loc(y(4, 3), den), y(3, 1)),
                     (y(4, 3), loc(y(2, 1), den)),
                     (loc(y(4, 3) * y(2, 1), den), loc(y(3, 2), den)),
                     (loc(y(3, 2), y(3, 1)), loc(y(4, 2), den * y(4, 1)))]:
            got, want = bracket(f, g), _bracket_reference(f, g)
            assert (got.num, got.den) == (want.num, want.den)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatch):
            bracket(y(2, 1), y(3, 2, 3))
        with pytest.raises(FieldMismatch):
            bracket(loc(y(2, 1, 3)), y(3, 2))


class TestEvaluate:
    def test_rational(self):
        from artifact.orbit_engine import LinearForm

        f = LinearForm(3, None, {R(3, 1): Fraction(2), R(2, 1): Fraction(5)})
        p = y(3, 1) * y(2, 1) + const(3)
        assert evaluate(p, f) == Fraction(13)

    def test_mod_p(self):
        from artifact.orbit_engine import LinearForm

        f = LinearForm(3, 3, {R(3, 1): 2, R(2, 1): 2})
        p = y(3, 1, p=3) * y(2, 1, p=3)
        assert evaluate(p, f) == 1

    def test_rational_poly_at_finite_form(self):
        from artifact.orbit_engine import LinearForm

        f = LinearForm(3, 5, {R(3, 1): 2})
        assert evaluate(y(3, 1), f) == 2

    def test_field_mismatch(self):
        from artifact.orbit_engine import LinearForm

        f = LinearForm(3, 5, {R(3, 1): 2})
        with pytest.raises(FieldMismatch):
            evaluate(y(3, 1, p=3), f)

    def test_localized(self):
        from artifact.orbit_engine import LinearForm

        f = LinearForm(3, None, {R(3, 1): Fraction(2)})
        assert evaluate(loc(y(2, 1) + const(4), y(3, 1)), f) == Fraction(2)

    @pytest.mark.parametrize("kind", [
        "rational form", "F_p form", "numpy rows", "polynomial values"])
    def test_one_evaluator_agrees(self, kind):
        import numpy as np

        from artifact._poly import coerce_scalar, substitute
        from artifact.orbit_engine import LinearForm

        # 1/2*y21*y31^2 + 3*y32 - 1 is 37/2 at this point; a coefficient
        # truncated to an integer would give 14 instead.
        poly = (const(Fraction(1, 2)) * y(2, 1) * y(3, 1) ** 2
                + 3 * y(3, 2) - 1)
        point = {R(2, 1): 1, R(3, 1): 3, R(3, 2): 5}
        want = Fraction(37, 2)
        p = 7
        if kind == "rational form":
            assert evaluate(poly, LinearForm(3, None, point)) == want
        elif kind == "F_p form":
            assert evaluate(poly, LinearForm(3, p, point)) == \
                coerce_scalar(want, p)
        elif kind == "numpy rows":
            keys = [("y", r.row, r.col) for r in point]
            rows = np.array([list(point.values()), [0, 0, 0]],
                            dtype=np.int64)
            got = substitute(poly, lambda key: rows[:, keys.index(key)], p)
            assert got.tolist() == [coerce_scalar(want, p),
                                    coerce_scalar(-1, p)]
        else:
            got = substitute(
                poly, lambda key: const(point[Root(key[1], key[2])]))
            assert got == const(want)


class TestIdealHandle:
    def test_zero_ideal(self):
        i = IdealHandle.zero(3)
        assert i.contains(Polynomial.zero())
        assert not i.contains(y(2, 1))

    def test_triangular_membership(self):
        i = IdealHandle.from_generators(3, [y(3, 1) - const(2), y(2, 1)])
        assert i.contains(y(2, 1) * y(3, 1))
        assert i.contains(y(3, 1) * y(3, 1) - const(4))
        assert not i.contains(y(3, 2))

    def test_unsupported_shape(self):
        i = IdealHandle.from_generators(
            5, [y(4, 1) * y(5, 2) - const(1)])
        with pytest.raises(UnsupportedIdealShape):
            i.contains(y(4, 1))

    def test_normal_form_constant(self):
        i = IdealHandle.from_generators(3, [y(3, 1) - const(2)])
        nf = i.normal_form(y(3, 1) * y(3, 1))
        assert nf == loc(const(4), const(1))


class TestSolveFor:
    """The one triangular solve step: den * y_v + rest = 0 with every y
    of den invertible and greater than v, every y of rest greater."""

    def test_accepted_rule(self):
        poly = y(3, 1) * y(2, 1) + y(4, 1) - const(2)
        rule = _solve_for(poly, R(2, 1), {R(3, 1)})
        assert rule == Rule(R(2, 1), y(3, 1), y(4, 1) - const(2))
        assert rule.value == loc(const(2) - y(4, 1), y(3, 1))

    @pytest.mark.parametrize("poly, invertible", [
        # quadratic in y_2_1
        (y(2, 1) * y(2, 1) + y(3, 1), {R(3, 1)}),
        # y_2_1 absent
        (y(3, 1) - const(1), {R(3, 1)}),
        # leading coefficient's root (3,1) is not invertible
        (y(3, 1) * y(2, 1) + const(1), ()),
        # invertible leading root (3,2) is not greater than (2,1)
        (y(3, 2) * y(2, 1) + const(1), {R(3, 2)}),
        # the rest holds (3,2), lesser than (2,1)
        (y(3, 1) * y(2, 1) + y(3, 2), {R(3, 1)}),
    ], ids=["quadratic", "absent", "lead-not-invertible",
            "lead-not-greater", "rest-lesser"])
    def test_rejected(self, poly, invertible):
        assert _solve_for(poly, R(2, 1), invertible) is None


class TestCasimir:
    def test_center_element(self):
        assert is_casimir_mod(y(3, 1), IdealHandle.zero(3))
        assert not is_casimir_mod(y(2, 1), IdealHandle.zero(3))

    def test_z1_mod_corner(self):
        z1 = (y(5, 4) * y(4, 1) + y(5, 3) * y(3, 1) + y(5, 2) * y(2, 1))
        corner = IdealHandle.from_generators(5, [y(5, 1)])
        assert is_casimir_mod(z1, corner)
        assert not is_casimir_mod(z1, IdealHandle.zero(5))


class TestPoissonIdeal:
    def test_corner_ideal(self):
        assert is_poisson_ideal(IdealHandle.from_generators(3, [y(3, 1)]))

    def test_non_poisson(self):
        assert not is_poisson_ideal(IdealHandle.from_generators(3, [y(2, 1)]))


class TestTildeMap:
    def test_commuting_unchanged(self):
        # y31 is central, so it passes through untouched.
        i = IdealHandle.from_generators(3, [y(3, 1) - c_var(R(3, 1))],
                                        invertible=[R(3, 1)])
        out = tilde_map(y(3, 1), y(3, 2), loc(y(2, 1), y(3, 1)), i)
        assert out == loc(y(3, 1), const(1))

    def test_basic_pair(self):
        # n=3 pair (p, q) = (y32, y21/y31), {p,q} = 1.
        i = IdealHandle.from_generators(3, [y(3, 1) - c_var(R(3, 1))],
                                        invertible=[R(3, 1)])
        p = y(3, 2)
        q = loc(y(2, 1), y(3, 1))
        out = tilde_map(y(2, 1), p, q, i)
        assert out == loc(Polynomial.zero(), const(1))

    def test_swapped_pair_rejected(self):
        i = IdealHandle.from_generators(3, [y(3, 1) - c_var(R(3, 1))],
                                        invertible=[R(3, 1)])
        with pytest.raises(NotCanonicalPair):
            tilde_map(y(3, 2), y(2, 1), loc(y(3, 2), y(3, 1)), i)

    def test_d4_tilde(self):
        # Local model of the second exceptional column: I = <y41-c, y31-c'>,
        # pair (p, q) = (y21, -y42/y41); the image of y32 picks up a
        # correction term.
        c1, c2 = c_var(R(4, 1)), c_var(R(3, 1))
        i = IdealHandle.from_generators(
            4, [y(4, 1) - c1, y(3, 1) - c2], invertible=[R(4, 1)])
        p = y(2, 1)
        q = loc(-y(4, 2), y(4, 1))
        out = tilde_map(y(3, 2), p, q, i)
        expected = loc(y(3, 2) * y(4, 1) - y(3, 1) * y(4, 2), y(4, 1))
        assert out == expected
        # Mod I this is the displayed form y32 - (1/c1) y42 y31.
        diff = out - loc(y(3, 2) * c1 - y(4, 2) * y(3, 1), c1)
        assert i.contains(diff)

    def test_pair_bracket_must_be_one_mod_ideal(self):
        i = IdealHandle.zero(4)
        with pytest.raises(NotCanonicalPair):
            tilde_map(y(3, 2), y(2, 1), loc(y(4, 2), y(4, 1)), i)

    def test_finite_field_pair(self):
        # The n=3 pair over F_3: the image of y21 is zero over F_3, and a
        # constant passes through over F_3.
        i = IdealHandle.from_generators(
            3, [y(3, 1, 3) - c_var(R(3, 1), 3)], invertible=[R(3, 1)])
        p, q = y(3, 2, 3), loc(y(2, 1, 3), y(3, 1, 3))
        out = tilde_map(y(2, 1, 3), p, q, i)
        assert out.is_zero() and out.p == 3
        out = tilde_map(c_var(R(3, 1), 3) * y(3, 1, 3), p, q, i)
        assert out == loc(c_var(R(3, 1), 3) * y(3, 1, 3)) and out.p == 3
        # The same constant over Q, after the F_3 one, stays over Q.
        iq = IdealHandle.from_generators(
            3, [y(3, 1) - c_var(R(3, 1))], invertible=[R(3, 1)])
        out = tilde_map(c_var(R(3, 1)) * y(3, 1), y(3, 2),
                        loc(y(2, 1), y(3, 1)), iq)
        assert out == loc(c_var(R(3, 1)) * y(3, 1)) and out.p is None
        # x over another field than the pair is refused, even when x holds
        # constants only, whatever the twist memo holds.
        from artifact import symbolic

        for x in (c_var(R(3, 1), 3), y(2, 1, 3)):
            symbolic._TWISTS.clear()
            with pytest.raises(FieldMismatch):
                tilde_map(x, y(3, 2), loc(y(2, 1), y(3, 1)), iq)


class TestReduceColumn:
    def test_pick_values(self, by_label):
        s = by_label((7, 3, 4))
        assert pick_values(s) == {r: c_var(r) for r in s.xi}
        first = s.xi[0]
        assert pick_values(s, {first: 5}) == {
            r: const(5 if r == first else 0) for r in s.xi}
        assert initial_context(s, {first: 5}).cmap == \
            pick_values(s, {first: 5})

    def test_n3_regular(self):
        s = build_admissible(3, CATALOG3[(3, 0, 1)]["seq"])
        ctx = initial_context(s, None)
        pairs, images, i1 = reduce_column(ctx, 1)
        assert pairs == [(loc(y(3, 2), const(1)), loc(y(2, 1), y(3, 1)))]
        assert images == {R(3, 1): loc(y(3, 1), const(1))}
        assert i1.contains(y(3, 1) - c_var(R(3, 1)))

    def test_521_columns(self):
        s = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"])
        ctx = initial_context(s, None)

        pairs1, images1, _ = reduce_column(ctx, 1)
        assert pairs1 == [(loc(y(3, 2), const(1)), loc(y(2, 1), y(3, 1)))]
        assert set(images1) == {R(3, 1), R(4, 1), R(5, 1)}
        assert images1[R(4, 1)] == loc(y(4, 1), const(1))
        assert images1[R(5, 1)] == loc(y(5, 1), const(1))

        pairs2, images2, _ = reduce_column(ctx, 2)
        assert pairs2 == [(loc(y(5, 4), const(1)), loc(y(4, 2), y(5, 2)))]
        assert images2 == {R(5, 2): loc(y(5, 2), const(1))}

        pairs3, images3, i3 = reduce_column(ctx, 3)
        assert pairs3 == []
        assert images3[R(4, 3)] == loc(
            y(4, 3) * y(5, 2) - y(5, 3) * y(4, 2), y(5, 2))
        assert images3[R(5, 3)] == loc(
            y(5, 3) * y(3, 1) + y(5, 2) * y(2, 1), y(3, 1))

        pairs4, images4, i4 = reduce_column(ctx, 4)
        assert pairs4 == [] and images4 == {}

    def test_d4_first_kind(self, by_label):
        s = by_label((7, 3, 4))
        ctx = initial_context(s, None)
        for t in (1, 2, 3):
            reduce_column(ctx, t)
        pairs, images, i4 = reduce_column(ctx, 4)
        assert pairs == [(loc(y(7, 6), y(7, 4)), loc(y(6, 4), const(1)))]
        assert set(images) == {R(7, 4), R(5, 4)}
        # Remaining chain is empty: columns 5 and 6 contribute nothing.
        assert b_chain(s)[4] == set()

    def test_d4_second_kind(self, by_label):
        s = by_label((7, 3, 8))
        ctx = initial_context(s, None)
        for t in (1, 2, 3):
            reduce_column(ctx, t)
        pairs, images, i4 = reduce_column(ctx, 4)
        assert pairs == [(loc(y(5, 4), const(1)), loc(-y(7, 5), y(7, 4)))]
        assert set(images) == {R(7, 4), R(6, 4)}
        assert b_chain(s)[4] == {R(6, 5)}

    def test_column_case_detection(self, by_label):
        # Each column's pairs as (p, q, den_on_p) roots, in peel order.
        lone = canonical_pairs(build_admissible(3, CATALOG3[(3, 0, 1)]["seq"]))
        assert lone == [[(R(3, 2), R(2, 1), False)], []]
        # Column 3 holds two boxes and no cross.
        no_cross = canonical_pairs(
            build_admissible(5, CATALOG5[(5, 2, 1)]["seq"]))
        assert no_cross[2] == []
        # Box (5,4) lies outside the delta side's rows 6..7: unblocked.
        assert canonical_pairs(by_label((7, 3, 4)))[3] == [
            (R(7, 6), R(6, 4), True)]
        # Box (6,4) lies strictly between rows 5 and 7: blocked.
        assert canonical_pairs(by_label((7, 3, 8)))[3] == [
            (R(5, 4), R(7, 5), False)]
        # No admissible sequence for n <= 6 has two crosses in one column.
        full = positive_roots(6)
        two = AdmissibleSubset(6, (R(6, 2), R(5, 2)), (True, True),
                               (full, full, full))
        with pytest.raises(UnsupportedColumn, match="two crosses in column 2"):
            canonical_pairs(two)
        with pytest.raises(UnsupportedColumn):
            initial_context(two, None)

    def test_every_pair_is_checked(self, monkeypatch):
        from artifact import symbolic

        # (3,0,1) has one lone cross; its pair must pass {p, q} = 1 too,
        # and a failed check is not remembered.
        s = build_admissible(3, CATALOG3[(3, 0, 1)]["seq"])
        symbolic._pair_elements.cache_clear()
        monkeypatch.setattr(symbolic, "bracket", lambda f, g: const(0))
        for _ in range(2):
            with pytest.raises(UnsupportedColumn, match="not canonical"):
                build_ideal(s, None)
        monkeypatch.undo()
        pair = symbolic._pair_elements(R(3, 2), R(2, 1), False)
        assert pair == (loc(y(3, 2)), loc(y(2, 1), y(3, 1)))
        assert symbolic._pair_elements(R(3, 2), R(2, 1), False) is pair


class TestBuildIdeal:
    def test_n3_abelian(self):
        s = build_admissible(3, CATALOG3[(3, 1, 1)]["seq"])
        handle = build_ideal(s, None)
        gens = set(map(poly_text, handle.generators))
        assert gens == {
            poly_text(y(2, 1) - c_var(R(2, 1))),
            poly_text(y(3, 1)),
            poly_text(y(3, 2) - c_var(R(3, 2))),
        }

    def test_generator_count_matches_a_set(self):
        for label, entry in CATALOG5.items():
            s = build_admissible(5, entry["seq"])
            handle = build_ideal(s, None)
            assert len(handle.generators) == len(s.a_set), label

    def test_521_generators(self):
        s = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"])
        handle = build_ideal(s, None)
        texts = set(map(poly_text, handle.generators))
        expect = {
            poly_text(y(3, 1) - c_var(R(3, 1))),
            poly_text(y(4, 1)),
            poly_text(y(5, 1)),
            poly_text(y(5, 2) - c_var(R(5, 2))),
            poly_text(y(4, 3) * y(5, 2) - y(5, 3) * y(4, 2)
                      - c_var(R(4, 3)) * y(5, 2)),
            poly_text(y(5, 3) * y(3, 1) + y(5, 2) * y(2, 1)
                      - c_var(R(5, 3)) * y(3, 1)),
        }
        assert texts == expect

    def test_634_display(self):
        s = build_admissible(6, ANCHOR_634["seq"])
        handle = build_ideal(s, None)
        assert len(handle.generators) == 11

        def nf(p):
            return handle.normal_form(p)

        for dead in [y(4, 1), y(5, 1), y(6, 1), y(6, 2), y(6, 3)]:
            assert nf(dead).num == Polynomial.zero()
        assert handle.contains(y(3, 1) - c_var(R(3, 1)))
        assert handle.contains(y(5, 2) - c_var(R(5, 2)))
        assert handle.contains(y(6, 4) - c_var(R(6, 4)))

        det = y(4, 2) * y(5, 3) - y(4, 3) * y(5, 2)
        assert is_constant_in_c(nf(det))
        corner = y(5, 3) * y(3, 1) + y(5, 2) * y(2, 1)
        assert is_constant_in_c(nf(corner))
        pinned = y(6, 5) * y(5, 2) + y(6, 4) * y(4, 2)
        assert is_constant_in_c(nf(pinned))
        # The bare y65 is NOT constant modulo the ideal.
        assert not is_constant_in_c(nf(y(6, 5)))

    def test_poisson_small(self):
        for label in [(5, 2, 1), (5, 0, 1), (5, 3, 4)]:
            s = build_admissible(5, CATALOG5[label]["seq"])
            assert is_poisson_ideal(build_ideal(s, None)), label

    def test_vanishes_on_canonical_point(self):
        from artifact.orbit_engine import canonical_form

        s = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"])
        handle = build_ideal(s, None)
        c = {R(3, 1): Fraction(2), R(5, 2): Fraction(3),
             R(5, 3): Fraction(5), R(4, 3): Fraction(7)}
        f = canonical_form(s, c)
        numeric = build_ideal(s, c)
        for g in numeric.generators:
            assert evaluate(g, f) == 0
        # Perturbing a coordinate off the variety breaks at least one
        # generator.
        from artifact.orbit_engine import LinearForm

        bad = dict(f.values)
        bad[R(4, 1)] = Fraction(1)
        g = LinearForm(5, None, bad)
        assert any(evaluate(gen, g) != 0 for gen in numeric.generators)

    def test_not_maximal_rejected(self):
        s = build_admissible(3, [R(3, 2)])
        with pytest.raises(NotMaximal):
            build_ideal(s, None)

    def test_triangular_shape(self):
        # Every generator is monic-linear in its lead variable with the
        # remaining monomials in strictly greater roots.
        from artifact.root_system import lex_greater

        for label, entry in CATALOG5.items():
            s = build_admissible(5, entry["seq"])
            handle = build_ideal(s, None)
            for eta, rule in handle.rules.items():
                for mono, _ in rule.rest.terms.items():
                    for var, _e in mono:
                        if var[0] != "y":
                            continue
                        other = R(var[1], var[2])
                        assert lex_greater(other, eta), (label, eta, other)


def is_constant_in_c(value):
    """True when a localized normal form involves no y-variables."""
    for mono, _ in value.num.terms.items():
        for var, _e in mono:
            if var[0] == "y":
                return False
    for mono, _ in value.den.terms.items():
        for var, _e in mono:
            if var[0] == "y":
                return False
    return True


def _every_diagram(max_n):
    from artifact.admissible import enumerate_maximal

    for n in range(2, max_n + 1):
        yield from enumerate_maximal(n)


class TestIncrementalIdeal:
    def test_extended_handle_matches_from_generators(self):
        # After each column the handle extended column by column has the
        # rules of a handle built from the whole generator list at once.
        for s in _every_diagram(6):
            ctx = initial_context(s, None)
            for t in range(1, s.n):
                _pairs, _images, handle = reduce_column(ctx, t)
                whole = IdealHandle.from_generators(
                    s.n, handle.generators, invertible=s.s_otimes)
                assert handle.rules == whole.rules, (s.label, t)

    def test_extension_leaves_earlier_handle(self):
        first = IdealHandle.from_generators(3, [y(3, 1) - const(2)])
        second = first._extended([y(2, 1)])
        assert set(first.rules) == {R(3, 1)}
        assert len(first.generators) == 1
        assert set(second.rules) == {R(3, 1), R(2, 1)}
        assert second.contains(y(2, 1) * y(3, 2))

    def test_rule_value_computed_once(self):
        handle = IdealHandle.from_generators(3, [y(3, 1) - const(2)])
        rule = handle.rules[R(3, 1)]
        assert rule.value is rule.value
        assert rule.value == loc(const(2))


def _subst_poly(poly, key, rep):
    """poly with rep substituted for the variable key, over the
    denominator rep.den ** top, top the greatest exponent of key."""
    parts = poly.split_by(key)
    top = max(parts, default=0)
    if top == 0:
        return LocalizedPolynomial(poly)
    acc = Polynomial.zero(poly.p)
    for exp in sorted(parts):
        part = parts[exp]
        if exp:
            part = part * rep.num ** exp
        if exp < top:
            part = part * rep.den ** (top - exp)
        acc = acc + part
    return LocalizedPolynomial(acc, rep.den ** top)


def _normal_form_every_rule(handle, x, skip_absent=False):
    """Reference normal form: the least-first cascade, which substitutes
    every rule's value as found, least root first, whether or not its
    variable occurs, or with ``skip_absent`` only where it occurs."""
    from artifact.root_system import lex_sort_key

    val = x if isinstance(x, LocalizedPolynomial) else loc(x)
    for root in sorted(handle.rules, key=lex_sort_key, reverse=True):
        key = ("y", root.row, root.col)
        if skip_absent and key not in val.num.variables() \
                and key not in val.den.variables():
            continue
        rep = LocalizedPolynomial(-handle.rules[root].rest,
                                  handle.rules[root].den)
        val = _subst_poly(val.num, key, rep) / _subst_poly(val.den, key, rep)
    return val


def _normal_form_probes(handle, shift=None):
    """Brackets of the generators with coordinates, and products and
    quotients of two coordinates: every pair, or with ``shift`` one pair
    per root, its partner ``shift`` places on in root order."""
    roots = list(positive_roots(handle.n))
    if shift is None:
        gen_roots = [(g, r) for g in handle.generators for r in roots]
        pairs = [(r, r2) for r in roots for r2 in roots]
    else:
        gen_roots = [(g, roots[(k + shift) % len(roots)])
                     for k, g in enumerate(handle.generators)]
        pairs = [(r, roots[(k + shift) % len(roots)])
                 for k, r in enumerate(roots)]
    probes = [bracket(g, y(r.row, r.col)) for g, r in gen_roots]
    probes += [y(r.row, r.col) * y(r2.row, r2.col) for r, r2 in pairs]
    # The variable of a rule in the numerator, the denominator or both.
    probes += [loc(y(r.row, r.col), y(r2.row, r2.col) + y(2, 1))
               for r, r2 in pairs]
    return probes


class TestSkippedSubstitutions:
    def test_normal_form_matches_unconditional_reference(self):
        for s in _every_diagram(5):
            handle = build_ideal(s, None)
            for x in _normal_form_probes(handle):
                got = handle.normal_form(x)
                want = _normal_form_every_rule(handle, x)
                assert (got.num, got.den) == (want.num, want.den), s.label
                assert poly_text(got) == poly_text(want)

    def test_catalog_matches_cascade_reference(self, catalogs67):
        # Every catalog handle for n = 2..7: the simultaneous substitution
        # gives the cascade's text for each coordinate and probe, because
        # every rule denominator is a monomial.  The test above runs every
        # probe for n <= 5; for n = 6, 7, whose full probe sets take
        # minutes, one pair per root, the partner shifted by the handle's
        # index.  Skipping absent rules leaves the cascade's result as it
        # is, as the test above shows.
        handles = [build_ideal(s, None) for s in _every_diagram(5)]
        handles += [build_ideal(s, None) for n in (6, 7)
                    for s in catalogs67[n]]
        assert len(handles) == 168
        for k, handle in enumerate(handles):
            assert all(len(rule.den.terms) == 1
                       for rule in handle.rules.values())
            probes = [y(r.row, r.col) for r in positive_roots(handle.n)]
            for x, r in zip(probes, positive_roots(handle.n)):
                want = _normal_form_every_rule(handle, x, skip_absent=True)
                assert poly_text(handle.coordinate(r)) == \
                    poly_text(want), r
            if handle.n > 5:
                probes = _normal_form_probes(handle, shift=k)
            for x in probes:
                want = _normal_form_every_rule(handle, x, skip_absent=True)
                assert poly_text(handle.normal_form(x)) == poly_text(want)

    def test_substitution_brings_in_a_later_rule(self):
        # y21 -> y31 -> 2: the first substitution introduces the variable
        # of the next rule, in the numerator or in the denominator.  With
        # y21 - 2 second, phi(y21) = y31 reduces it before the rule for y31
        # exists, and must not be kept.
        for second in (y(3, 1) - const(2), y(2, 1) - const(2)):
            handle = IdealHandle.from_generators(
                3, [y(2, 1) - y(3, 1), second])
            for x, want in [(y(2, 1), loc(const(2))),
                            (loc(const(1), y(2, 1)),
                             loc(const(1), const(2))),
                            (loc(y(3, 2), y(2, 1) + y(3, 1)),
                             loc(y(3, 2), const(4)))]:
                assert handle.normal_form(x) == want
                ref = _normal_form_every_rule(handle, x)
                assert poly_text(handle.normal_form(x)) == poly_text(ref)

    def test_only_the_side_holding_the_variable_is_substituted(
            self, monkeypatch):
        # A side that holds solved coordinates is split once, for all of
        # them together; a side without one is kept as it is.
        from artifact import symbolic

        handle = IdealHandle.from_generators(
            3, [y(3, 2) - const(1), y(3, 1) - const(2)])
        split = []
        real = symbolic._substituted

        def recording(poly, value):
            out = real(poly, value)
            if out[0] is not poly:
                split.append((poly_text(poly), sorted(
                    k for k in poly.variables() if value(k) is not None)))
            return out

        monkeypatch.setattr(symbolic, "_substituted", recording)
        assert handle.normal_form(loc(y(3, 2), y(2, 1))) == \
            loc(const(1), y(2, 1))
        assert split == [("1*y_3_2", [("y", 3, 2)])]
        split.clear()
        assert handle.normal_form(loc(y(2, 1), y(3, 1) * y(3, 2))) == \
            loc(y(2, 1), const(2))
        assert split == [("1*y_3_1*y_3_2", [("y", 3, 1), ("y", 3, 2)])]
        split.clear()
        x = loc(y(2, 1), y(2, 1) + 1)
        assert handle.normal_form(x) is x
        assert split == []


class TestSharedConstants:
    @pytest.mark.parametrize("p", [None, 3, 7])
    def test_one_instance_per_field(self, p):
        assert Polynomial.zero(p) is Polynomial.zero(p)
        assert Polynomial.one(p) is Polynomial.one(p)
        assert Polynomial.zero(p).p == Polynomial.one(p).p == p
        assert Polynomial.zero(p) == Polynomial({}, p)
        assert Polynomial.one(p) == Polynomial({(): 1}, p)
        assert hash(Polynomial.one(p)) == hash(Polynomial({(): 1}, p))
        assert Polynomial.zero(p) is not Polynomial.zero(
            None if p else 5)

    def test_shared_instances_cannot_be_mutated(self):
        for shared in (Polynomial.zero(), Polynomial.one(),
                       Polynomial.one(3)):
            with pytest.raises(AttributeError):
                shared.terms = {}
            with pytest.raises(TypeError):
                shared.terms[((("y", 2, 1), 1),)] = 1
            with pytest.raises(TypeError):
                del shared.terms[()]
        assert Polynomial.zero().terms == {}
        assert Polynomial.one().terms == {(): 1}

    def test_arithmetic_returns_new_objects(self):
        zero, one = Polynomial.zero(), Polynomial.one()
        for out in (zero + y(2, 1), one * y(2, 1), one + one, one * one,
                    zero + zero, -one, one - zero, one ** 2):
            assert out is not zero and out is not one
        assert one + one == const(2)
        assert y(2, 1) ** 0 == one
        assert zero.terms == {} and one.terms == {(): 1}


def _poisson_reference(handle):
    """Reference closure check: bracket each generator with every
    coordinate, then test membership."""
    from artifact.root_system import positive_roots

    for gen in handle.generators:
        for r in positive_roots(handle.n):
            if not handle.contains(bracket(gen, y_var(r.row, r.col, gen.p))):
                return False
    return True


def _casimir_reference(z, handle):
    from artifact.root_system import positive_roots

    p = z.p if isinstance(z, Polynomial) else z.num.p
    for r in positive_roots(handle.n):
        if not handle.contains(bracket(z, y_var(r.row, r.col, p))):
            return False
    return True


def _outcome(fn, *args):
    """The boolean a check returns, or the type and text of what it
    raises."""
    try:
        return ("returns", fn(*args))
    except Exception as exc:  # compared with the reference's outcome
        return ("raises", type(exc), str(exc))


class TestChainRuleClosure:
    def test_every_diagram_matches_reference(self):
        from artifact.char_matrix import p_h_eta
        from artifact.root_system import lex_sort_key

        for s in _every_diagram(6):
            handle = build_ideal(s, None)
            assert is_poisson_ideal(handle) is _poisson_reference(handle)
            probes = [p_h_eta(s, eta)
                      for eta in sorted(s.a_set, key=lex_sort_key)]
            probes += [loc(handle.generators[0], y(r.row, r.col))
                       for r in s.s_otimes]
            for z in probes:
                assert _outcome(is_casimir_mod, z, handle) == \
                    _outcome(_casimir_reference, z, handle), s.label

    def test_dropped_generator_matches_reference(self):
        # Every catalog ideal is closed, so each one is also checked with
        # one generator left out: the rule-coordinate check must then find
        # the ideals that are not closed, and a handle that does not
        # triangularize must raise as the reference does.
        outcomes = set()
        for s in _every_diagram(6):
            gens = build_ideal(s, None).generators
            for k in range(len(gens)):
                h = IdealHandle.from_generators(
                    s.n, gens[:k] + gens[k + 1:], s.s_otimes)
                got = _outcome(is_poisson_ideal, h)
                assert got == _outcome(_poisson_reference, h), (s.label, k)
                outcomes.add(got[:2])
        assert ("returns", True) in outcomes
        assert ("returns", False) in outcomes

    def test_triangular_handles_bracket_nothing(self, monkeypatch):
        # On a triangular ideal the check needs no bracket and no
        # membership test.
        from artifact import symbolic

        handles = [build_ideal(s, None) for s in _every_diagram(5)]

        def refuse(*args, **kwargs):
            raise AssertionError("per-bracket path taken")

        monkeypatch.setattr(symbolic, "bracket", refuse)
        monkeypatch.setattr(IdealHandle, "contains", refuse)
        assert all(is_poisson_ideal(h) for h in handles)

    def test_catalog_chain_rules_are_exact(self):
        # Every catalog ideal for n <= 7 triangularizes with denominators
        # that its normal form keeps nonzero, and its generators have no
        # denominator, so is_poisson_ideal never falls back to bracketing
        # then contains on the catalog.
        handles = [build_ideal(s, None) for s in _every_diagram(7)]
        assert len(handles) == 168
        for h in handles:
            assert h.rules is not None
            assert h.is_exact()

    def test_coordinate_image_computed_once(self, monkeypatch):
        from artifact import symbolic
        from artifact.admissible import enumerate_maximal

        built = []
        real = symbolic.y_var

        def counting(row, col, p=None):
            built.append((row, col, p))
            return real(row, col, p)

        s = next(x for x in enumerate_maximal(6) if x.label == (6, 3, 4))
        handle = build_ideal(s, None)
        monkeypatch.setattr(symbolic, "y_var", counting)
        for _ in range(2):
            assert is_poisson_ideal(handle)
        assert built, "no coordinate image was computed"
        assert len(built) == len(set(built))
        # A new handle computes its own images.
        seen = len(built)
        assert is_poisson_ideal(build_ideal(s, None))
        assert len(built) > seen

    def test_probes_over_two_fields_match_reference(self):
        # Handles over Q probed with z over Q, then over F_3, then over Q
        # again: the outcomes, values or what is raised, are the
        # reference's.
        for handle in (IdealHandle.zero(4),
                       IdealHandle.from_generators(4, [y(4, 1) - const(2)])):
            for p in (None, 3, None):
                for z in (y(2, 1, p), y(4, 1, p), y(4, 3, p) * y(3, 1, p)):
                    assert _outcome(is_casimir_mod, z, handle) == \
                        _outcome(_casimir_reference, z, handle), (p, z)

    def test_quotient_rule(self):
        # y31 written over a denominator that brackets nontrivially is
        # still central; y21 over the same denominator is not.
        den = y(3, 2) + y(2, 1)
        zero = IdealHandle.zero(3)
        central = loc(y(3, 1) * den, den)
        assert central.den == den
        assert is_casimir_mod(central, zero)
        assert not is_casimir_mod(loc(y(2, 1), den), zero)
        for z in (central, loc(y(2, 1), den), loc(y(3, 1), den)):
            assert _outcome(is_casimir_mod, z, zero) == \
                _outcome(_casimir_reference, z, zero)

    def test_undecidable_raises_like_contains(self):
        # y51 is central and y41*y52 - 1 has no admissible linear lead:
        # the first bracket that is not identically zero raises.
        handle = IdealHandle.from_generators(
            5, [y(5, 1), y(4, 1) * y(5, 2) - const(1)])
        assert handle.rules is None
        for check, args in [(is_poisson_ideal, (handle,)),
                            (is_casimir_mod, (y(3, 2), handle))]:
            with pytest.raises(UnsupportedIdealShape):
                check(*args)
        assert is_casimir_mod(y(5, 1), handle)

    def test_vanishing_denominator_matches_reference(self):
        # y32 = -y21/y31 with y31 in the ideal: a normal form can divide
        # by zero, and the checks return or raise what the reference
        # does.
        handle = IdealHandle.from_generators(
            3, [y(3, 1) * y(3, 2) + y(2, 1), y(3, 1)],
            invertible=[R(3, 1)])
        assert set(handle.rules) == {R(3, 2), R(3, 1)}
        assert _outcome(is_poisson_ideal, handle) == \
            _outcome(_poisson_reference, handle)
        for z in (y(3, 2), y(2, 1), y(3, 2) ** 2, loc(y(2, 1), y(3, 1))):
            assert _outcome(is_casimir_mod, z, handle) == \
                _outcome(_casimir_reference, z, handle)
        # Rules without denominators, but z's denominator is in the ideal.
        corner = IdealHandle.from_generators(3, [y(3, 1)])
        for z in (loc(y(2, 1), y(3, 1)), loc(y(3, 2), y(3, 1)),
                  loc(const(1), y(3, 1))):
            assert _outcome(is_casimir_mod, z, corner) == \
                _outcome(_casimir_reference, z, corner)

    def test_vanishing_denominator_raises_in_a_product(self):
        # phi(y32) = -y21 / phi(y31) = -y21 / 0.  The least-first cascade
        # put y32's value in before y31's and so cancelled y31 out of
        # y32*y31; phi raises for the product as it does for y32 alone.
        handle = IdealHandle.from_generators(
            3, [y(3, 1) * y(3, 2) + y(2, 1), y(3, 1)],
            invertible=[R(3, 1)])
        product = y(3, 2) * y(3, 1)
        assert poly_text(_normal_form_every_rule(handle, product)) == \
            "-1*y_2_1"
        for x in (y(3, 2), product):
            with pytest.raises(ZeroDivisionError):
                handle.normal_form(x)
        assert not handle.is_exact()

    def test_mixed_field_handle_matches_reference(self):
        # One rule over F_3 and one over Q: the handle is not exact, so
        # both checks bracket then test membership, and a bracket over F_3
        # meets the rule over Q as the reference does.
        handle = IdealHandle.from_generators(
            3, [y(2, 1, 3) - const(1, 3), y(3, 1) - const(2)])
        assert [rule.den.p for rule in handle.rules.values()] == [3, None]
        assert not handle.is_exact()
        mixed = ("raises", FieldMismatch,
                 "mixed coefficient fields: 3 vs None")
        assert _outcome(is_poisson_ideal, handle) == \
            _outcome(_poisson_reference, handle) == mixed
        for z, want in [(handle.generators[0], mixed),
                        (y(3, 2, 3), mixed),
                        (y(3, 2), ("returns", False))]:
            assert _outcome(is_casimir_mod, z, handle) == \
                _outcome(_casimir_reference, z, handle) == want


def _drawn_ideals():
    from artifact.admissible import enumerate_maximal
    from artifact.root_system import positive_roots

    @st.composite
    def draw_ideal(draw):
        n = draw(st.integers(3, 5))
        p = draw(st.sampled_from([None, None, 3]))
        roots = sorted(positive_roots(n), key=lambda r: (r.row, r.col))
        root = st.sampled_from(roots)

        def poly(max_terms):
            out = Polynomial.zero(p)
            for _ in range(draw(st.integers(1, max_terms))):
                term = const(draw(st.integers(-2, 2)), p)
                if draw(st.integers(0, 3)) == 0:
                    term = term * c_var(draw(root), p)
                for r in draw(st.lists(root, max_size=2)):
                    term = term * y(r.row, r.col, p)
                out = out + term
            return out

        gens = []
        if p is None and draw(st.booleans()):
            # A diagram's ideal, Poisson-closed, maybe with one more
            # generator.
            s = draw(st.sampled_from(enumerate_maximal(n)))
            gens = list(build_ideal(s, None).generators)
        gens += [poly(3) for _ in range(draw(st.integers(0, 3)))]
        if not gens:
            gens = [poly(3)]
        invertible = draw(st.lists(root, max_size=2))
        if invertible and draw(st.booleans()):
            # Put a root said to be invertible into the ideal, so that a
            # rule's denominator can vanish modulo the ideal.
            gens.append(y(invertible[0].row, invertible[0].col, p))
        try:
            handle = IdealHandle.from_generators(n, gens,
                                                 invertible=invertible)
        except ZeroDivisionError:
            # The rule search itself divided by a vanishing denominator.
            assume(False)
        probes = [poly(4)]
        if not draw(st.integers(0, 2)):
            den = poly(1)
            if not den.is_zero():
                probes.append(loc(poly(3), den))
        return handle, probes

    return draw_ideal()


class TestChainRuleProperties:
    @settings(max_examples=150)
    @given(_drawn_ideals())
    def test_matches_reference(self, drawn):
        handle, probes = drawn
        assert _outcome(is_poisson_ideal, handle) == \
            _outcome(_poisson_reference, handle)
        for z in probes:
            assert _outcome(is_casimir_mod, z, handle) == \
                _outcome(_casimir_reference, z, handle)


class TestPerDiagramWork:
    def test_maximality_proved_once_per_diagram(self, monkeypatch):
        from artifact import admissible

        s = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"])
        build_ideal(s, None)
        calls = []
        real = admissible.build_admissible

        def counting(n, seq):
            calls.append(tuple(seq))
            return real(n, seq)

        monkeypatch.setattr(admissible, "build_admissible", counting)
        again = build_ideal(build_admissible(5, s.xi), None)
        assert calls == []
        assert list(map(poly_text, again.generators)) == \
            list(map(poly_text, build_ideal(s, None).generators))

    def test_not_maximal_rejected_on_every_call(self):
        s = build_admissible(3, [R(3, 2)])
        for _ in range(3):
            with pytest.raises(NotMaximal):
                build_ideal(s, None)
            with pytest.raises(NotMaximal):
                build_ideal(build_admissible(3, [R(3, 2)]), None)

    def test_column_sets_computed_once(self, monkeypatch):
        # Every column's canonical pairs come from one derivation per
        # diagram.
        from artifact import symbolic

        calls = []
        real = symbolic.canonical_pairs

        def counting(s):
            calls.append(s.label)
            return real(s)

        monkeypatch.setattr(symbolic, "canonical_pairs", counting)
        for s in _every_diagram(6):
            calls.clear()
            build_ideal(s, None)
            assert calls == [s.label]


def _generator_texts(s, c=None):
    return [poly_text(g) for g in build_ideal(s, c).generators]


def _numeric_c(s):
    # Marked picks nonzero, every other unmarked pick zero.
    return {r: Fraction(2 * k + 1, k + 2) if marked or k % 2 else 0
            for k, (r, marked) in enumerate(zip(s.xi, s.otimes_mask))}


@pytest.fixture(scope="module")
def catalogs67():
    from artifact.admissible import enumerate_maximal

    return {n: enumerate_maximal(n) for n in (6, 7)}


@pytest.fixture(scope="module")
def cold_texts(catalogs67):
    """Generator texts of every n = 6, 7 diagram, with symbolic and with
    numeric constants, each built with the twist memo cleared just before:
    nothing is reused from another diagram."""
    from artifact import symbolic

    out = {}
    for n, catalog in catalogs67.items():
        for s in catalog:
            for kind, c in (("symbolic", None), ("numeric", _numeric_c(s))):
                symbolic._TWISTS.clear()
                out[s.label, kind] = _generator_texts(s, c)
    return out


class TestTwistMemo:
    """One memo of canonical-pair images serves every diagram: the texts
    do not depend on what was built before, in which order or at which n,
    or with which constants."""

    def test_cold_texts_are_the_golden_ones(self, catalogs67, cold_texts):
        from test_acceptance import GOLDEN_GENERATORS, label_line, \
            texts_digest

        for n, catalog in catalogs67.items():
            lines = [label_line(s, cold_texts[s.label, "symbolic"])
                     for s in catalog]
            assert texts_digest(lines) == GOLDEN_GENERATORS[n], n

    def _check(self, order, cold_texts, kind="symbolic"):
        for s in order:
            c = None if kind == "symbolic" else _numeric_c(s)
            assert _generator_texts(s, c) == cold_texts[s.label, kind], \
                (s.label, kind)

    def test_cleared_then_warm_pass(self, catalogs67, cold_texts,
                                    monkeypatch):
        from artifact import symbolic

        order = catalogs67[6] + catalogs67[7]
        symbolic._TWISTS.clear()
        self._check(order, cold_texts)
        size = len(symbolic._TWISTS)
        assert size > 0
        # A warm pass computes no adjoint series and adds no entry.
        calls = []
        real = symbolic._series

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(symbolic, "_series", counting)
        self._check(order, cold_texts)
        assert calls == []
        assert len(symbolic._TWISTS) == size
        # Pairs and images never involve the constants.
        self._check(order, cold_texts, "numeric")
        assert len(symbolic._TWISTS) == size

    def test_reverse_catalog_order(self, catalogs67, cold_texts):
        from artifact import symbolic

        symbolic._TWISTS.clear()
        self._check(list(reversed(catalogs67[6] + catalogs67[7])),
                    cold_texts)

    def test_n6_and_n7_interleaved(self, catalogs67, cold_texts):
        from itertools import zip_longest

        from artifact import symbolic

        order = [s for pair in zip_longest(catalogs67[6], catalogs67[7])
                 for s in pair if s is not None]
        symbolic._TWISTS.clear()
        self._check(order, cold_texts)

    def test_numeric_constants_first(self, catalogs67, cold_texts):
        from artifact import symbolic

        order = catalogs67[7] + catalogs67[6]
        symbolic._TWISTS.clear()
        self._check(order, cold_texts, "numeric")
        self._check(order, cold_texts)

    def test_key_separates_denominators(self):
        from artifact import symbolic

        # Inputs that differ only in one denominator: of p, of q or of
        # the value.  y_3_2 goes to y_3_2 + y_3_1 * q under p = y_2_1.
        p_elt, q_elt = loc(y(2, 1)), loc(y(3, 1))
        val = loc(y(3, 2))
        inputs = [((p_elt, q_elt), val),
                  ((p_elt, loc(y(3, 1), y(4, 3))), val),
                  ((loc(y(2, 1), y(4, 3)), q_elt), val),
                  ((p_elt, q_elt), loc(y(3, 2), y(4, 3)))]
        expected = []
        for pair, x in inputs:
            symbolic._TWISTS.clear()
            expected.append(symbolic._twist(4, pair, x))
        assert len({poly_text(e) for e in expected}) == len(inputs)
        indices = range(len(inputs))
        for order in (indices, reversed(indices)):
            symbolic._TWISTS.clear()
            for i in order:
                got = symbolic._twist(4, *inputs[i])
                assert (got.num, got.den) == (expected[i].num,
                                              expected[i].den), i

    def test_key_separates_n(self):
        from artifact import symbolic

        # ad_p raises the height of a root by one, so y_2_1 takes 8
        # nonzero steps: more than the limit n^2 + 2 = 6 at n = 2, fewer
        # than 11 at n = 3.
        p_elt = loc(sum((y(i + 1, i) for i in range(2, 10)), y(2, 1)))
        pair = (p_elt, loc(y(2, 1)))
        val = loc(y(2, 1))
        for first, second in ((3, 2), (2, 3)):
            symbolic._TWISTS.clear()
            for n in (first, second):
                if n == 2:
                    with pytest.raises(UnsupportedColumn,
                                       match="did not terminate"):
                        symbolic._twist(n, pair, val)
                else:
                    assert not symbolic._twist(n, pair, val).is_zero()

    def test_no_per_context_cache(self, catalogs67):
        s = catalogs67[6][0]
        ctx = initial_context(s, None)
        assert set(vars(ctx)) == {"s", "n", "cmap", "tmaps", "handle",
                                  "pairs"}
