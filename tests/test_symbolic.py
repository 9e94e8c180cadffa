"""Oracle tests for the Poisson/ideal layer."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from artifact.root_system import Root
from artifact.admissible import build_admissible
from artifact.symbolic import (
    FieldMismatch,
    IdealHandle,
    LocalizedPolynomial,
    NotCanonicalPair,
    NotMaximal,
    Polynomial,
    UnsupportedColumn,
    UnsupportedIdealShape,
    bracket,
    build_ideal,
    c_var,
    const,
    evaluate,
    initial_context,
    is_casimir_mod,
    is_poisson_ideal,
    loc,
    poly_text,
    reduce_column,
    tilde_map,
    y_var,
)

from conftest import ANCHOR_634, CATALOG3, CATALOG5, R


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


class TestReduceColumn:
    def test_n3_regular(self):
        s = build_admissible(3, CATALOG3[(3, 0, 1)]["seq"])
        ctx = initial_context(s, None)
        pairs, images, i1 = reduce_column(ctx, s, 1, None)
        assert pairs == [(loc(y(3, 2), const(1)), loc(y(2, 1), y(3, 1)))]
        assert images == {R(3, 1): loc(y(3, 1), const(1))}
        assert i1.contains(y(3, 1) - c_var(R(3, 1)))

    def test_521_columns(self):
        s = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"])
        ctx = initial_context(s, None)

        pairs1, images1, _ = reduce_column(ctx, s, 1, None)
        assert pairs1 == [(loc(y(3, 2), const(1)), loc(y(2, 1), y(3, 1)))]
        assert set(images1) == {R(3, 1), R(4, 1), R(5, 1)}
        assert images1[R(4, 1)] == loc(y(4, 1), const(1))
        assert images1[R(5, 1)] == loc(y(5, 1), const(1))

        pairs2, images2, _ = reduce_column(ctx, s, 2, None)
        assert pairs2 == [(loc(y(5, 4), const(1)), loc(y(4, 2), y(5, 2)))]
        assert images2 == {R(5, 2): loc(y(5, 2), const(1))}

        pairs3, images3, i3 = reduce_column(ctx, s, 3, None)
        assert pairs3 == []
        assert images3[R(4, 3)] == loc(
            y(4, 3) * y(5, 2) - y(5, 3) * y(4, 2), y(5, 2))
        assert images3[R(5, 3)] == loc(
            y(5, 3) * y(3, 1) + y(5, 2) * y(2, 1), y(3, 1))

        pairs4, images4, i4 = reduce_column(ctx, s, 4, None)
        assert pairs4 == [] and images4 == {}

    def test_d4_first_kind(self, by_label):
        s = by_label((7, 3, 4))
        ctx = initial_context(s, None)
        for t in (1, 2, 3):
            reduce_column(ctx, s, t, None)
        pairs, images, i4 = reduce_column(ctx, s, 4, None)
        assert pairs == [(loc(y(7, 6), y(7, 4)), loc(y(6, 4), const(1)))]
        assert set(images) == {R(7, 4), R(5, 4)}
        # Remaining chain is empty: columns 5 and 6 contribute nothing.
        from artifact.root_system import columns_and_chain

        _, bs = columns_and_chain(s)
        assert set(bs[4]) == set()

    def test_d4_second_kind(self, by_label):
        s = by_label((7, 3, 8))
        ctx = initial_context(s, None)
        for t in (1, 2, 3):
            reduce_column(ctx, s, t, None)
        pairs, images, i4 = reduce_column(ctx, s, 4, None)
        assert pairs == [(loc(y(5, 4), const(1)), loc(-y(7, 5), y(7, 4)))]
        assert set(images) == {R(7, 4), R(6, 4)}
        from artifact.root_system import columns_and_chain

        _, bs = columns_and_chain(s)
        assert set(bs[4]) == {R(6, 5)}

    def test_column_case_detection(self):
        from artifact.symbolic import _column_case

        assert _column_case([(R(5, 2), True)], {R(4, 2), R(5, 2)}) == 1
        assert _column_case([(R(5, 2), False)], {R(5, 2)}) == 3
        assert _column_case([], set()) == 3
        assert _column_case(
            [(R(7, 4), True), (R(6, 4), False)],
            {R(5, 4), R(6, 4), R(7, 4), R(7, 5), R(6, 5)}) == 2
        with pytest.raises(UnsupportedColumn):
            _column_case([(R(6, 2), True), (R(5, 2), True)],
                         {R(5, 2), R(6, 2)})


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
                _pairs, _images, handle = reduce_column(ctx, s, t, None)
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


def _normal_form_every_rule(handle, x):
    """Reference normal form: substitute every rule, least root first,
    whether or not its variable occurs."""
    from artifact.root_system import lex_sort_key
    from artifact.symbolic import _subst_poly

    val = x if isinstance(x, LocalizedPolynomial) else loc(x)
    for root in sorted(handle.rules, key=lex_sort_key, reverse=True):
        key = ("y", root.row, root.col)
        rep = LocalizedPolynomial(-handle.rules[root].rest,
                                  handle.rules[root].den)
        val = _subst_poly(val.num, key, rep) / _subst_poly(val.den, key, rep)
    return val


class TestSkippedSubstitutions:
    def test_normal_form_matches_unconditional_reference(self):
        from artifact.root_system import positive_roots

        for s in _every_diagram(5):
            handle = build_ideal(s, None)
            probes = [bracket(g, y(r.row, r.col))
                      for g in handle.generators
                      for r in positive_roots(s.n)]
            probes += [y(r.row, r.col) * y(r2.row, r2.col)
                       for r in positive_roots(s.n)
                       for r2 in positive_roots(s.n)]
            for x in probes:
                got = handle.normal_form(x)
                want = _normal_form_every_rule(handle, x)
                assert (got.num, got.den) == (want.num, want.den), s.label
                assert poly_text(got) == poly_text(want)

    def test_substitution_brings_in_a_later_rule(self):
        # y21 -> y31 -> 2: the first substitution introduces the variable
        # of the next rule, in the numerator or in the denominator.
        handle = IdealHandle.from_generators(
            3, [y(2, 1) - y(3, 1), y(3, 1) - const(2)])
        for x, want in [(y(2, 1), loc(const(2))),
                        (loc(const(1), y(2, 1)), loc(const(1), const(2))),
                        (loc(y(3, 2), y(2, 1) + y(3, 1)),
                         loc(y(3, 2), const(4)))]:
            assert handle.normal_form(x) == want
            ref = _normal_form_every_rule(handle, x)
            assert poly_text(handle.normal_form(x)) == poly_text(ref)


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
            for gen in handle.generators:
                is_casimir_mod(gen, handle)
        assert built, "no coordinate image was computed"
        assert len(built) == len(set(built))
        # A new handle computes its own images.
        seen = len(built)
        assert is_poisson_ideal(build_ideal(s, None))
        assert len(built) > seen

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
        from artifact import symbolic

        calls = []
        real = symbolic.columns_and_chain

        def counting(s):
            calls.append(s.label)
            return real(s)

        monkeypatch.setattr(symbolic, "columns_and_chain", counting)
        for s in _every_diagram(6):
            calls.clear()
            build_ideal(s, None)
            assert calls == [s.label]
