"""Oracle tests for characteristic-matrix minors and orbit generators."""
import itertools
from types import SimpleNamespace

import pytest

from artifact.root_system import InvalidDimension, Root, lex_greater, \
    positive_roots
from artifact.admissible import build_admissible, enumerate_maximal
from artifact._poly import substitute
from artifact.symbolic import Polynomial, build_ideal, c_var, const, loc, \
    poly_text, y_var
from artifact import char_matrix
from artifact.char_matrix import (
    LemmaFailure,
    MinorSpec,
    NotInA,
    _minor,
    bordered_minors,
    minor,
    p_h_eta,
    p_n0_prime,
    regular_minors,
    solver_invariant,
    triangular_system,
    w_eta,
    z_coefficients,
)

from conftest import ANCHOR_727, CATALOG5, R, tau_split


def y(i, j):
    return y_var(i, j)


def drop_vars(poly, bad_roots):
    """Remove every monomial containing one of the given y-variables."""
    bad = {("y", r.row, r.col) for r in bad_roots}
    out = Polynomial.zero()
    for mono, coef in poly.terms.items():
        if any(var in bad for var, _ in mono):
            continue
        out = out + Polynomial({mono: coef})
    return out


TAU = ("tau",)


def phi_tau(n):
    """The n-by-n characteristic matrix with tau as a variable, 0-indexed:
    ones on the diagonal, tau * y_i_j below it and zeros above."""
    return [[const(1) if i == j
             else Polynomial.variable(TAU) * y(i + 1, j + 1) if i > j
             else Polynomial.zero()
             for j in range(n)] for i in range(n)]


def leibniz_minor(n, cols, rows):
    """The oracle for ``minor``: the Leibniz sum over the tau-matrix,
    split by tau-degree into {degree: coefficient}."""
    m = phi_tau(n)
    det = Polynomial.zero()
    for perm in itertools.permutations(range(len(cols))):
        entries = [m[rows[k] - 1][cols[pk] - 1] for k, pk in enumerate(perm)]
        if any(e.is_zero() for e in entries):
            continue
        term = const(perm_sign(perm))
        for e in entries:
            term = term * e
        det = det + term
    return det.split_by(TAU)


def assert_matches_leibniz(n, cols, rows):
    assert tau_split(n, cols, rows) == leibniz_minor(n, cols, rows), \
        (n, cols, rows)


class TestMinor:
    def test_single_entry(self):
        assert minor(3, MinorSpec(cols=(1,), rows=(3,), degree=1)) == y(3, 1)
        assert minor(3, MinorSpec(cols=(1,), rows=(3,), degree=0)) == \
            Polynomial.zero()

    def test_two_by_two_mixed(self):
        assert minor(3, MinorSpec((1, 2), (2, 3), 2)) == y(2, 1) * y(3, 2)
        assert minor(3, MinorSpec((1, 2), (2, 3), 1)) == -y(3, 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            minor(4, MinorSpec(cols=(1, 2), rows=(4,), degree=1))

    @pytest.mark.parametrize("n,cols,rows,degree", [
        (4, (1, 2), (4,), 1),
        (4, (), (), 0),
        (4, (1, 5), (3, 4), 2),
        (4, (0,), (2,), 1),
        (3, (1.5,), (2,), 1),
        (3, (True,), (2,), 1),
        (3, (1,), (2.0,), 1),
        (4, (1, 2), (3, 4), 3),
        (4, (1, 2), (3, 4), -1),
        (4, (1, 2), (3, 4), 2.0),
        (4, (1, 2), (3, 4), True),
        (4, (1, 2), (3, 4), None),
    ], ids=["4-cols0-rows0", "4-cols1-rows1", "4-cols2-rows2",
            "4-cols3-rows3", "float-col", "bool-col", "float-row",
            "degree-above", "degree-below", "float-degree", "bool-degree",
            "no-degree"])
    def test_bad_spec_raises_every_call(self, n, cols, rows, degree):
        for _ in range(3):
            with pytest.raises(ValueError):
                minor(n, MinorSpec(cols=cols, rows=rows, degree=degree))

    @pytest.mark.parametrize("n,cols,rows,degree", [
        (3.0, (1,), (2,), 1), (1, (1,), (1,), 0)])
    def test_bad_dimension_is_refused(self, n, cols, rows, degree):
        with pytest.raises(InvalidDimension):
            minor(n, MinorSpec(cols, rows, degree))

    def test_memoised_result_is_stable(self):
        spec = MinorSpec(cols=(1, 2, 3), rows=(4, 5, 6), degree=3)
        first = minor(6, spec)
        assert minor(6, MinorSpec((1, 2, 3), (4, 5, 6), 3)) is first
        assert minor(7, spec) is not first
        fresh = _minor.__wrapped__(6, spec.cols, spec.rows)
        assert fresh == {3: first}

    def test_minor_matches_leibniz(self, monkeypatch):
        # Every selection the library passes to minor for n <= 7: the
        # word of each closure root of each catalog diagram (p_h_eta), and
        # the corner, z, bordered and p_n0_prime selections that
        # subregular_classify reads.
        calls, bordered = [], []
        # P_{h,eta} is memoised, so a warm memo would hide its minor calls.
        p_h_eta.cache_clear()

        def recording(n, spec):
            calls.append((n, spec))
            return minor(n, spec)

        monkeypatch.setattr(char_matrix, "minor", recording)
        for n in range(2, 8):
            for s in enumerate_maximal(n):
                for eta in s.a_set:
                    p_h_eta(s, eta)
            regular_minors(n)
            z_coefficients(n)
            start = len(calls)
            for j in range(1, (n - 1) // 2 + 1):
                bordered_minors(n, j)
            if n % 2 == 0 and n >= 4:
                p_n0_prime(n)
            bordered += calls[start:]
        seen = {(n, spec.cols, spec.rows) for n, spec in calls}
        assert len(seen) == 194  # 184 words and 10 more
        for n, cols, rows in seen:
            assert_matches_leibniz(n, cols, rows)
        # Every row of a bordered selection exceeds every column, so the
        # minor has the one tau-degree its function reads.
        assert bordered
        for n, spec in bordered:
            assert leibniz_minor(n, spec.cols, spec.rows).keys() == \
                {spec.degree}, (n, spec)

    @pytest.mark.parametrize("n,cols,rows", [
        (5, (1, 2, 3), (3, 4, 5)),
        (6, (1, 2, 3, 4), (3, 4, 5, 6)),
        (7, (1, 2, 3, 4, 5), (2, 3, 4, 5, 7)),
    ])
    def test_selection_order_is_the_matrix_order(self, n, cols, rows):
        # Swapping two columns, or two rows, of a selection negates the
        # minor; the sorted selection is the reference.
        negated = {k: -v for k, v in tau_split(n, cols, rows).items()}
        for i, j in itertools.combinations(range(len(cols)), 2):
            for swap_cols in (True, False):
                c, r = list(cols), list(rows)
                seq = c if swap_cols else r
                seq[i], seq[j] = seq[j], seq[i]
                c, r = tuple(c), tuple(r)
                assert_matches_leibniz(n, c, r)
                assert tau_split(n, c, r) == negated

    @pytest.mark.parametrize("cols,rows", [
        ((1, 2), (3, 3)),
        ((1, 1), (3, 4)),
        ((1, 1), (3, 3)),
        ((2, 1, 3), (4, 5, 4)),
        ((1, 3, 1), (3, 5, 4)),
    ])
    def test_repeated_row_or_column_is_zero(self, cols, rows):
        assert leibniz_minor(5, cols, rows) == {}
        assert tau_split(5, cols, rows) == {}


def pick_decompositions(s, eta, rows):
    """Every set of marked picks lex-greater than eta whose root sum equals
    the defect of eta's word ``rows`` less eta itself; a root (i, j) counts
    +1 at j and -1 at i."""
    v = [0] * (s.n + 1)
    for m, r in zip(range(1, eta.col + 1), rows):
        v[m] += 1
        v[r] -= 1
    v[eta.col] -= 1
    v[eta.row] += 1
    betas = [b for b in s.s_otimes if lex_greater(b, eta)]
    matches = []
    for size in range(len(betas) + 1):
        for combo in itertools.combinations(betas, size):
            w = [0] * (s.n + 1)
            for b in combo:
                w[b.col] += 1
                w[b.row] -= 1
            if w == v:
                matches.append(frozenset(combo))
    return matches


class TestWEta727:
    ROWS = {
        R(7, 1): (7,), R(6, 1): (6,), R(5, 1): (5,),
        R(7, 2): (5, 7), R(6, 2): (5, 6), R(4, 2): (4, 5),
        R(7, 3): (4, 5, 7),
        R(7, 4): (3, 4, 5, 7), R(6, 4): (4, 5, 6, 7),
        R(7, 5): (2, 3, 4, 5, 7), R(6, 5): (2, 4, 5, 6, 7),
    }
    QD = {
        R(7, 4): (2, 4), R(6, 4): (3, 4),
        R(7, 5): (1, 5), R(6, 5): (2, 5),
    }
    H = {
        R(7, 1): (frozenset(), 1),
        R(6, 1): (frozenset(), 1),
        R(5, 1): (frozenset(), 1),
        R(7, 2): (frozenset({R(5, 1)}), 2),
        R(6, 2): (frozenset({R(5, 1)}), 2),
        R(4, 2): (frozenset({R(5, 1)}), 2),
        R(7, 3): (frozenset({R(5, 1), R(4, 2)}), 3),
        R(7, 4): (frozenset({R(5, 1), R(4, 2)}), 3),
        R(6, 4): (frozenset({R(5, 1), R(4, 2), R(7, 3)}), 4),
        R(7, 5): (frozenset({R(5, 1)}), 2),
        R(6, 5): (frozenset({R(5, 1), R(7, 3)}), 3),
    }

    @pytest.fixture()
    def s727(self):
        return build_admissible(7, ANCHOR_727["seq"])

    def test_rows(self, s727):
        for eta, rows in self.ROWS.items():
            assert w_eta(s727, eta).rows == rows, eta

    def test_q_and_d(self, s727):
        # q and d are the least and greatest tau-degree of eta's minor.
        for eta, (q, d) in self.QD.items():
            split = tau_split(7, tuple(range(1, eta.col + 1)),
                              w_eta(s727, eta).rows)
            assert (min(split), max(split)) == (q, d), eta

    def test_h_subsets(self, s727):
        for eta, (hs, h) in self.H.items():
            w = w_eta(s727, eta)
            assert pick_decompositions(s727, eta, w.rows) == [hs], eta
            assert w.h == h, eta

    def test_not_in_a(self, s727):
        with pytest.raises(NotInA):
            w_eta(s727, R(3, 2))
        with pytest.raises(NotInA):
            w_eta(s727, R(4, 3))

    def test_h_is_the_pick_decomposition(self, catalogs):
        # The walk's trade count is one more than the size of the unique
        # set of marked picks above eta whose root sum is the word's defect.
        checked = 0
        for n in range(2, 8):
            for s in catalogs(n):
                for eta in s.a_set:
                    w = w_eta(s, eta)
                    found = pick_decompositions(s, eta, w.rows)
                    assert len(found) == 1, (s.label, eta)
                    assert w.h == len(found[0]) + 1, (s.label, eta)
                    checked += 1
        assert checked == 1843

    def test_degree_bounds(self, s727):
        # The minor attached to eta has least tau-degree q, the number of
        # columns 1..col(eta) missing from the word, and top degree d, the
        # number of word rows below their diagonal place.
        for eta in self.ROWS:
            rows = w_eta(s727, eta).rows
            split = tau_split(7, tuple(range(1, eta.col + 1)), rows)
            q = eta.col - sum(1 for r in rows if r <= eta.col)
            d = sum(1 for m, r in enumerate(rows, start=1) if r > m)
            assert (min(split), max(split)) == (q, d), eta


def test_w_eta_refuses_a_backward_trade():
    # No catalog diagram for n <= 8 has one: two marked picks in column 1
    # make (3,1) trade row 3 back after (2,1) traded column 1 away.
    s = SimpleNamespace(n=3, a_set=(R(3, 2),), s_otimes=(R(3, 1), R(2, 1)))
    with pytest.raises(LemmaFailure) as exc:
        w_eta(s, R(3, 2))
    assert str(exc.value) == (
        "pick Root(3,1) trades a row back in the word of Root(3,2)")


class TestPHEta727:
    @pytest.fixture()
    def s727(self):
        return build_admissible(7, ANCHOR_727["seq"])

    def test_linear_column_one(self, s727):
        assert p_h_eta(s727, R(7, 1)) == y(7, 1)
        assert p_h_eta(s727, R(6, 1)) == y(6, 1)
        assert p_h_eta(s727, R(5, 1)) == y(5, 1)

    def test_column_two(self, s727):
        assert p_h_eta(s727, R(7, 2)) == y(5, 1) * y(7, 2) - y(5, 2) * y(7, 1)
        assert p_h_eta(s727, R(6, 2)) == y(5, 1) * y(6, 2) - y(5, 2) * y(6, 1)
        assert p_h_eta(s727, R(4, 2)) == y(4, 1) * y(5, 2) - y(4, 2) * y(5, 1)

    def test_column_three(self, s727):
        det = Polynomial.zero()
        rows = (4, 5, 7)
        for perm in itertools.permutations(range(3)):
            sign = perm_sign(perm)
            term = const(sign)
            for k, pk in enumerate(perm):
                term = term * y(rows[k], pk + 1)
            det = det + term
        assert p_h_eta(s727, R(7, 3)) == det

    def test_p74_exact(self, s727):
        p42 = y(4, 1) * y(5, 2) - y(4, 2) * y(5, 1)
        expect = (y(7, 4) * p42
                  + y(7, 3) * (y(3, 1) * y(5, 2) - y(3, 2) * y(5, 1))
                  - y(5, 4) * (y(4, 1) * y(7, 2) - y(4, 2) * y(7, 1))
                  - y(5, 3) * (y(3, 1) * y(7, 2) - y(3, 2) * y(7, 1)))
        assert p_h_eta(s727, R(7, 4)) == expect

    def test_p75_exact(self, s727):
        expect = -(y(5, 1) * y(7, 5) + y(4, 1) * y(7, 4)
                   + y(3, 1) * y(7, 3) + y(2, 1) * y(7, 2))
        assert p_h_eta(s727, R(7, 5)) == expect

    def test_displays_after_normalization(self, s727):
        s = build_admissible(7, ANCHOR_727["seq"])
        m_vars = list(s.m_set)
        p42 = y(4, 1) * y(5, 2) - y(4, 2) * y(5, 1)

        d74 = drop_vars(p_h_eta(s727, R(7, 4)), m_vars)
        assert d74 == (y(7, 4) * p42
                       + y(7, 3) * (y(3, 1) * y(5, 2) - y(3, 2) * y(5, 1)))

        d64 = drop_vars(p_h_eta(s727, R(6, 4)), m_vars)
        assert d64 == p42 * (y(6, 3) * y(7, 4) - y(6, 4) * y(7, 3))

        d75 = drop_vars(p_h_eta(s727, R(7, 5)), m_vars)
        assert d75 == -(y(5, 1) * y(7, 5) + y(4, 1) * y(7, 4)
                        + y(3, 1) * y(7, 3))

        d65 = drop_vars(p_h_eta(s727, R(6, 5)), m_vars)
        assert d65 == -(y(5, 1) * (y(6, 3) * y(7, 5) - y(6, 5) * y(7, 3))
                        + y(4, 1) * (y(6, 3) * y(7, 4) - y(6, 4) * y(7, 3)))

    def test_eleven_distinct(self, s727):
        polys = {poly_text(p_h_eta(s727, eta)) for eta in s727.a_set}
        assert len(polys) == 11


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class TestTriangularSystem:
    def test_727_rules(self):
        s = build_admissible(7, ANCHOR_727["seq"])
        sys = triangular_system(s)
        c51 = c_var(R(5, 1))
        c42 = c_var(R(4, 2))
        assert sys.coeffs[R(4, 2)] == -c51
        assert sys.coeffs[R(7, 3)] == -c51 * c42
        # Rule for y42 after clearing: y42 = c42 + y41 y52 / c51.
        val = sys.rules[R(4, 2)]
        assert val.num == c42 * c51 + y(4, 1) * y(5, 2)
        assert val.den == c51

    def test_all_n5_succeed(self):
        for entry in CATALOG5.values():
            s = build_admissible(5, entry["seq"])
            sys = triangular_system(s)
            assert set(sys.rules) == set(s.a_set)

    def test_zero_form_trivial(self):
        s = build_admissible(3, [R(2, 1), R(3, 2)])
        sys = triangular_system(s)
        assert set(sys.rules) == {R(2, 1), R(3, 1), R(3, 2)}

    @pytest.mark.parametrize("label, eta", [
        ((7, 2, 1), R(7, 5)),
        ((7, 3, 1), R(7, 4)),
    ])
    def test_known_gaps_name_their_root(self, by_label, label, eta,
                                        monkeypatch):
        # The gap table's minor solves where P_{h,eta} does not; without
        # the table the solver names the root whose invariant fails.
        s = by_label(label)
        assert (label, eta) in char_matrix._GAPS
        assert set(triangular_system(s).rules) == set(s.a_set)
        monkeypatch.setattr(char_matrix, "_GAPS", {})
        with pytest.raises(LemmaFailure) as exc:
            triangular_system(s)
        assert str(exc.value) == (
            f"invariant of {eta!r} does not solve for its coordinate")

    def test_solver_invariant_is_p_h_eta_off_the_gaps(self, catalogs,
                                                      by_label):
        # The solver reads P_{h,eta} at every closure root for n <= 7 but
        # the two gap roots, where it reads the minor the table names.
        gaps = set()
        for n in range(2, 8):
            for s in catalogs(n):
                for eta in s.a_set:
                    if solver_invariant(s, eta) != p_h_eta(s, eta):
                        gaps.add((s.label, eta))
        assert gaps == set(char_matrix._GAPS)
        for (label, eta), spec in char_matrix._GAPS.items():
            assert solver_invariant(by_label(label), eta) == minor(7, spec)

    def test_invariants_vanish_on_their_rules(self, catalogs):
        # Each rule value involves only coordinates off the closure, so one
        # simultaneous substitution of every rule sends each invariant to
        # its value at the canonical point.
        checked = 0
        for n in range(2, 8):
            for s in catalogs(n):
                system = triangular_system(s)
                assert set(system.rules) == set(s.a_set)
                closure = {("y", r.row, r.col) for r in s.a_set}
                for val in system.rules.values():
                    assert not (val.num.variables()
                                | val.den.variables()) & closure
                picks = {r: c_var(r) for r in s.xi}

                def at_point(key):
                    if key[0] != "y":
                        return Polynomial.variable(key)
                    return picks.get(Root(key[1], key[2]), 0)

                def solved(key):
                    if key in closure:
                        return system.rules[Root(key[1], key[2])]
                    return loc(Polynomial.variable(key))

                for eta in s.a_set:
                    inv = solver_invariant(s, eta)
                    diff = substitute(inv, solved) - substitute(inv, at_point)
                    assert diff.num.is_zero(), (s.label, eta)
                    checked += 1
        assert checked == 1843

    def test_rules_are_the_ideal_coordinates(self, catalogs):
        # Two derivations of one system: the rule the solver reads off each
        # closure root's minor invariant is the image of its coordinate
        # under the normal form of the column-reduction ideal.
        checked = 0
        for n in range(2, 8):
            for s in catalogs(n):
                system = triangular_system(s)
                handle = build_ideal(s)
                assert list(system.rules) == list(s.a_set)
                for eta, rule in system.rules.items():
                    assert rule == handle.coordinate(eta), (s.label, eta)
                    checked += 1
        assert checked == 1843


class TestSectionThreeMinors:
    def test_regular_minors_n4(self):
        p = regular_minors(4)
        assert p == [y(4, 1), y(3, 1) * y(4, 2) - y(3, 2) * y(4, 1)]

    def test_regular_minors_n5(self):
        p = regular_minors(5)
        assert p[0] == y(5, 1)
        assert p[1] == y(4, 1) * y(5, 2) - y(4, 2) * y(5, 1)

    def test_minors_are_pure_terms(self):
        for n in range(3, 8):
            n0 = n // 2
            for j in range(1, n0 + 1):
                split = tau_split(n, tuple(range(1, j + 1)),
                                  tuple(range(n - j + 1, n + 1)))
                assert split.keys() == {j}

    def test_least_term_of_large_minors(self):
        # For j > n0 the least tau-degree term of P_j(tau) is the
        # complementary regular minor, up to the embedding sign.
        for n in (4, 5, 6, 7):
            n0 = n // 2
            regs = regular_minors(n)
            for j in range(n0 + 1, n):
                split = tau_split(n, tuple(range(1, j + 1)),
                                  tuple(range(n - j + 1, n + 1)))
                low = min(split)
                assert low == n - j
                assert split[low] in (regs[n - j - 1], -regs[n - j - 1])

    def test_z_n4(self):
        assert z_coefficients(4) == [y(4, 3) * y(3, 1) + y(4, 2) * y(2, 1)]

    def test_z_n5(self):
        zs = z_coefficients(5)
        assert len(zs) == 2
        assert zs[0] == (y(5, 4) * y(4, 1) + y(5, 3) * y(3, 1)
                         + y(5, 2) * y(2, 1))
        expect = (y(3, 1) * (y(4, 2) * y(5, 3) - y(4, 3) * y(5, 2))
                  - y(3, 2) * (y(4, 1) * y(5, 3) - y(4, 3) * y(5, 1)))
        assert zs[1] == expect

    def test_z_n6_first(self):
        zs = z_coefficients(6)
        assert zs[0] == (y(6, 5) * y(5, 1) + y(6, 4) * y(4, 1)
                         + y(6, 3) * y(3, 1) + y(6, 2) * y(2, 1))

    def test_bordered_n4(self):
        p1, p2 = bordered_minors(4, 1)
        assert p1 == y(3, 1)
        assert p2 == y(4, 2)

    def test_bordered_n5(self):
        p1, p2 = bordered_minors(5, 1)
        assert p1 == y(4, 1) and p2 == y(5, 2)
        p1, p2 = bordered_minors(5, 2)
        assert p1 == y(3, 1) * y(5, 2) - y(3, 2) * y(5, 1)
        assert p2 == y(4, 1) * y(5, 3) - y(4, 3) * y(5, 1)

    def test_bordered_range(self):
        # 1 <= j <= (n - 1) // 2: (4, 2) and (6, 3) fail the check itself,
        # not the lemma behind it.
        for n, j in ((5, 3), (4, 2), (6, 3), (5, 0), (2, 1)):
            with pytest.raises(ValueError, match="bordered minors need"):
                bordered_minors(n, j)

    def test_p_n0_prime(self):
        assert p_n0_prime(4) == y(2, 1)
        assert p_n0_prime(6) == y(3, 1) * y(6, 2) - y(3, 2) * y(6, 1)
        for n in (5, 2, 0):
            with pytest.raises(ValueError, match="even sizes >= 4"):
                p_n0_prime(n)


class TestCasimirProperty:
    def test_regular_minors_are_casimirs(self):
        from artifact.symbolic import IdealHandle, is_casimir_mod

        for n in (4, 5):
            for p in regular_minors(n):
                assert is_casimir_mod(p, IdealHandle.from_generators(n, []))

    def test_solver_invariants_are_casimirs_mod_the_ideal(self, catalogs,
                                                          by_label):
        # The paper's theorem in Casimir form: the invariant of each
        # closure root brackets every coordinate into the family's defining
        # ideal.  P_{h,eta} at the two gap roots, not an orbit invariant
        # there, does not.
        from artifact.symbolic import is_casimir_mod

        checked = 0
        for n in range(2, 8):
            for s in catalogs(n):
                handle = build_ideal(s)
                for eta in s.a_set:
                    assert is_casimir_mod(solver_invariant(s, eta), handle), \
                        (s.label, eta)
                    checked += 1
        assert checked == 1843
        for label, eta in char_matrix._GAPS:
            s = by_label(label)
            assert not is_casimir_mod(p_h_eta(s, eta), build_ideal(s))
