"""Oracle tests for the finite-field orbit engine."""
import random
from fractions import Fraction

import pytest

from artifact.root_system import Root, positive_roots
from artifact.admissible import build_admissible, dimension
from artifact.orbit_engine import (
    BudgetExceeded,
    ClassificationMismatch,
    GroupElement,
    InvalidC,
    InvalidInput,
    LinearForm,
    NotSubregular,
    canonical_form,
    all_orbits,
    census,
    classify,
    coadjoint_act,
    kirillov_rank,
    orbit_bfs,
    polarization,
    regular_ideal,
    stratum,
    stratum_max_dims,
    subregular_classify,
    verify_polarization,
)

from conftest import CATALOG3, CATALOG4, CATALOG5, CENSUS_EXPECT, R


def form(n, p, vals):
    return LinearForm(n, p, {r: v for r, v in vals.items()})


class TestLinearForm:
    def test_equality_drops_zeros(self):
        assert form(3, 2, {R(3, 1): 1, R(2, 1): 0}) == \
            form(3, 2, {R(3, 1): 1})

    def test_value_default(self):
        f = form(3, None, {R(3, 1): Fraction(2)})
        assert f.value(R(2, 1)) == 0

    def test_mod_reduction(self):
        assert form(3, 3, {R(3, 1): 5}) == form(3, 3, {R(3, 1): 2})


class TestCanonicalForm:
    def test_basic(self):
        s = build_admissible(3, CATALOG3[(3, 0, 1)]["seq"])
        f = canonical_form(s, {R(3, 1): 1}, p=2)
        assert f.value(R(3, 1)) == 1
        assert f.value(R(2, 1)) == 0

    def test_missing_value(self):
        s = build_admissible(3, CATALOG3[(3, 1, 1)]["seq"])
        with pytest.raises(InvalidC):
            canonical_form(s, {R(2, 1): 1}, p=2)

    def test_zero_on_otimes(self):
        s = build_admissible(3, CATALOG3[(3, 0, 1)]["seq"])
        with pytest.raises(InvalidC):
            canonical_form(s, {R(3, 1): 0}, p=2)

    def test_unknown_key(self):
        s = build_admissible(3, CATALOG3[(3, 0, 1)]["seq"])
        with pytest.raises(InvalidC):
            canonical_form(s, {R(3, 1): 1, R(2, 1): 1}, p=2)

    def test_box_zero_allowed(self):
        s = build_admissible(3, CATALOG3[(3, 1, 1)]["seq"])
        f = canonical_form(s, {R(2, 1): 0, R(3, 2): 0}, p=3)
        assert all(f.value(r) == 0 for r in positive_roots(3))


class TestCoadjointAction:
    def test_single_generator(self):
        # g = I + e21 sends f to f + f(y_?1) shifts on column-2 duals.
        f = form(4, 7, {R(4, 1): 3, R(3, 2): 2})
        g = GroupElement(4, 7, {(2, 1): 1})
        out = coadjoint_act(g, f)
        # f'(y42) = f(y42) + f(y41) = 3; f'(y32) unchanged rule:
        # f'(y32) = f(y32) + f(y31) = 2.
        assert out.value(R(4, 2)) == 3
        assert out.value(R(3, 2)) == 2
        assert out.value(R(4, 1)) == 3

    def test_left_action_law(self):
        f = form(4, 5, {R(4, 1): 1, R(3, 1): 2, R(3, 2): 3, R(4, 3): 4})
        g = GroupElement(4, 5, {(2, 1): 2, (4, 3): 1})
        h = GroupElement(4, 5, {(3, 2): 3, (4, 1): 4})
        lhs = coadjoint_act(g, coadjoint_act(h, f))
        rhs = coadjoint_act(g.compose(h), f)
        assert lhs == rhs

    def test_inverse_round_trip(self):
        f = form(5, 3, {R(5, 1): 1, R(4, 2): 2, R(3, 2): 1})
        g = GroupElement(5, 3, {(2, 1): 1, (3, 1): 2, (5, 4): 2})
        assert coadjoint_act(g.inverse(), coadjoint_act(g, f)) == f

    def test_rational_field(self):
        f = form(3, None, {R(3, 1): Fraction(1)})
        g = GroupElement(3, None, {(2, 1): Fraction(1, 2)})
        out = coadjoint_act(g, f)
        assert out.value(R(3, 2)) == Fraction(1, 2)


class TestOrbitBfs:
    def test_corner_orbit_n3(self):
        f = form(3, 2, {R(3, 1): 1})
        orbit = orbit_bfs(f)
        assert len(orbit) == 4
        assert f in orbit
        assert form(3, 2, {R(3, 1): 1, R(2, 1): 1}) in orbit
        assert form(3, 2, {R(2, 1): 1}) not in orbit

    def test_401_orbit(self):
        s = build_admissible(4, CATALOG4[(4, 0, 1)]["seq"])
        f = canonical_form(s, {R(4, 1): 1, R(3, 2): 1}, p=2)
        assert len(orbit_bfs(f)) == 16

    def test_orbit_size_matches_dimension(self):
        for label, entry in CATALOG4.items():
            s = build_admissible(4, entry["seq"])
            c = {r: 1 for r in s.xi}
            f = canonical_form(s, c, p=3)
            assert len(orbit_bfs(f)) == 3 ** entry["dim"], label

    def test_fixed_point(self):
        f = form(3, 2, {R(2, 1): 1, R(3, 2): 1})
        assert len(orbit_bfs(f)) == 1

    def test_budget(self):
        s = build_admissible(5, CATALOG5[(5, 0, 1)]["seq"])
        f = canonical_form(s, {R(5, 1): 1, R(4, 2): 1}, p=3)
        with pytest.raises(BudgetExceeded):
            orbit_bfs(f, budget=10)

    def test_whole_space_budget(self):
        # all_orbits(3, 2) scans 2^3 states: a budget of 8 allows it, 7
        # refuses it before any search.
        assert len(all_orbits(3, 2, budget=8)) == 5
        with pytest.raises(BudgetExceeded, match=r"all_orbits at n=3, p=2"
                           r" would scan 8 states, over the limit of 7"):
            all_orbits(3, 2, budget=7)
        s = build_admissible(4, CATALOG4[(4, 2, 1)]["seq"])
        f = canonical_form(s, {r: 1 for r in s.xi}, p=3)
        with pytest.raises(BudgetExceeded, match="subregular cut"):
            subregular_classify(f, budget=3 ** 6 - 1)

    def test_iteration_yields_members(self):
        f = form(3, 2, {R(3, 1): 1})
        members = list(orbit_bfs(f))
        assert len(members) == 4
        assert all(isinstance(m, LinearForm) for m in members)


def all_forms(n, p):
    roots = list(positive_roots(n))
    for code in range(p ** len(roots)):
        yield form(n, p, {r: (code // p ** k) % p
                          for k, r in enumerate(roots)})


def reference_closure(f):
    """The orbit of f as a set, by breadth-first search through
    coadjoint_act with every generator I + e_alpha."""
    gens = [GroupElement(f.n, f.p, {(r.row, r.col): 1})
            for r in positive_roots(f.n)]
    seen, frontier = {f}, {f}
    while frontier:
        frontier = {coadjoint_act(g, x) for x in frontier for g in gens}
        frontier -= seen
        seen |= frontier
    return seen


def assert_orbit_is(orbit, expected):
    assert len(orbit) == len(expected)
    assert set(orbit) == expected
    assert all(x in orbit for x in expected)
    codes = orbit.codes.tolist()
    assert codes == sorted(set(codes))
    rows = orbit.member_array()
    assert rows.shape == (len(expected), len(list(positive_roots(orbit.n))))
    assert {form(orbit.n, orbit.p, dict(zip(positive_roots(orbit.n), row)))
            for row in rows.tolist()} == expected


class TestSearchAgainstReference:
    @pytest.mark.parametrize("n,p", [(3, 3), (4, 2)])
    def test_all_orbits_on_every_point(self, n, p):
        orbits = all_orbits(n, p)
        assert sum(len(o) for o in orbits) == p ** (n * (n - 1) // 2)
        for f in all_forms(n, p):
            closure = reference_closure(f)
            owners = [o for o in orbits if f in o]
            assert len(owners) == 1
            assert_orbit_is(owners[0], closure)
            assert all(x not in owners[0] for x in all_forms(n, p)
                       if x not in closure)

    def test_orbit_bfs_on_sampled_points_n5(self):
        points = list(all_forms(5, 2))
        for f in random.Random(5).sample(points, 24):
            closure = reference_closure(f)
            orbit = orbit_bfs(f)
            assert_orbit_is(orbit, closure)
            outside = next(x for x in points if x not in closure)
            assert outside not in orbit


class TestCodeRange:
    """Packed states are int64 codes, so p^(n(n-1)/2) may not pass 2^63."""

    def test_classify_rejects_wrapping_codes(self):
        with pytest.raises(InvalidInput, match="2\\^63"):
            classify(form(6, 19, {R(6, 5): 18}))

    def test_largest_fitting_field_classifies(self):
        s, c = classify(form(6, 17, {R(6, 5): 16}))
        assert s.label == (6, 4, 11)
        assert c[R(6, 5)] == 16

    def test_all_orbits_rejects_wrapping_codes(self):
        with pytest.raises(InvalidInput):
            all_orbits(6, 19)

    def test_subregular_cut_rejects_wrapping_codes(self):
        s = build_admissible(4, CATALOG4[(4, 1, 1)]["seq"])
        f = canonical_form(s, {R(3, 1): 1, R(4, 2): 1, R(4, 3): 2}, p=1451)
        with pytest.raises(InvalidInput):
            subregular_classify(f)


class TestBlocks:
    def test_small_blocks_change_nothing(self, monkeypatch):
        from artifact import orbit_engine

        s = build_admissible(4, CATALOG4[(4, 1, 1)]["seq"])
        f = canonical_form(s, {R(3, 1): 1, R(4, 2): 1, R(4, 3): 2}, p=3)
        expected = census(4, 3), subregular_classify(f)
        monkeypatch.setattr(orbit_engine, "_BLOCK_CELLS", 64)
        got = census(4, 3), subregular_classify(f)
        assert got == expected
        assert got[1].cuts_exactly


class TestKirillovRank:
    def test_n3_regular(self):
        f = form(3, None, {R(3, 1): Fraction(1)})
        assert kirillov_rank(f) == 2

    def test_zero_form(self):
        assert kirillov_rank(form(4, None, {})) == 0

    def test_matches_dimension_on_canonicals(self):
        for n, catalog in [(4, CATALOG4), (5, CATALOG5)]:
            for label, entry in catalog.items():
                s = build_admissible(n, entry["seq"])
                c = {r: Fraction(k + 1) for k, r in enumerate(s.xi)}
                f = canonical_form(s, c)
                assert kirillov_rank(f) == entry["dim"], label

    def test_finite_field(self):
        f = form(3, 101, {R(3, 1): 5})
        assert kirillov_rank(f) == 2

    @pytest.mark.parametrize("p", [None, 2, 3, 101])
    def test_matches_field_elimination(self, p):
        # Seeded random forms of every density, against Gaussian
        # elimination over the field itself.
        rng = random.Random(f"kirillov/{p}")
        for n in range(2, 8):
            roots = list(positive_roots(n))
            for _ in range(12):
                density = rng.random()
                vals = {}
                for r in roots:
                    if rng.random() < density:
                        vals[r] = (rng.randrange(p) if p is not None else
                                   Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 12)))
                f = form(n, p, vals)
                assert kirillov_rank(f) == _rank_by_field_elimination(f), \
                    (n, p, vals)

    @pytest.mark.parametrize("p", [None, 2, 3, 101])
    def test_int_rank_matches_field_elimination(self, p):
        # Seeded random int matrices of every shape and density, where the
        # exact divisions of the fraction-free elimination matter.
        from artifact.orbit_engine import _int_rank

        rng = random.Random(f"int-rank/{p}")
        for _ in range(300):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            density = rng.random()
            mat = [[rng.randint(-6, 6) if rng.random() < density else 0
                    for _ in range(cols)] for _ in range(rows)]
            if p is not None:
                mat = [[v % p for v in row] for row in mat]
            want = _rank_of(mat, p)
            assert _int_rank([row[:] for row in mat], p) == want, mat

    def test_bareiss_rank_deficient_columns(self):
        from artifact.orbit_engine import _int_rank

        # A zero column and a dependent row in front of the last pivot.
        mat = [[0, 2, 4, 1], [0, 1, 2, 3], [0, 3, 6, 4]]
        assert _int_rank([row[:] for row in mat], None) == 2
        assert _int_rank([row[:] for row in mat], 7) == 2
        assert _int_rank([row[:] for row in mat], 5) == 1
        assert _int_rank([[6, 4], [9, 6]], None) == 1
        assert _int_rank([[6, 4], [9, 7]], None) == 2
        assert _int_rank([[0, 1], [0, 1]], 3) == 1


def _rank_by_field_elimination(f):
    """Rank of the bracket matrix by elimination over the field of f, with
    Fractions over Q."""
    roots = list(positive_roots(f.n))
    p = f.p
    size = len(roots)
    mat = [[0] * size for _ in range(size)]
    for a, alpha in enumerate(roots):
        for b, beta in enumerate(roots):
            i, j = alpha.row, alpha.col
            k, l = beta.row, beta.col
            v = Fraction(0)
            if j == k and i > l:
                v = v + f.value(Root(i, l))
            if l == i and k > j:
                v = v - f.value(Root(k, j))
            mat[a][b] = v % p if p is not None else v
    return _rank_of(mat, p)


def _rank_of(mat, p):
    """Gaussian elimination over F_p, or over Q with Fractions."""
    mat = [[Fraction(v) if p is None else v for v in row] for row in mat]
    size = len(mat)
    width = len(mat[0]) if mat else 0
    rank = 0
    row = 0
    for col in range(width):
        pivot = next((r for r in range(row, size) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = (pow(int(mat[row][col]), -1, p) if p is not None
               else Fraction(1) / mat[row][col])
        for r in range(row + 1, size):
            if mat[r][col] == 0:
                continue
            factor = mat[r][col] * inv
            for cc in range(col, width):
                v = mat[r][cc] - factor * mat[row][cc]
                mat[r][cc] = v % p if p is not None else v
        rank += 1
        row += 1
        if row == size:
            break
    return rank


class TestPolarization:
    def test_521(self):
        s = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"])
        pol = polarization(s)
        assert set(pol) == set(positive_roots(5)) - {R(3, 2), R(5, 4)}

    def test_size_formula(self):
        for n, catalog in [(3, CATALOG3), (4, CATALOG4), (5, CATALOG5)]:
            total = n * (n - 1) // 2
            for label, entry in catalog.items():
                s = build_admissible(n, entry["seq"])
                assert len(polarization(s)) == total - entry["dim"] // 2

    def test_verify_on_random_points(self):
        s = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"])
        pol = polarization(s)
        c = {R(3, 1): Fraction(2), R(5, 2): Fraction(-3),
             R(5, 3): Fraction(1, 2), R(4, 3): Fraction(0)}
        f = canonical_form(s, c)
        assert verify_polarization(pol, f)

    def test_bad_set_rejected(self):
        s = build_admissible(3, CATALOG3[(3, 0, 1)]["seq"])
        f = canonical_form(s, {R(3, 1): Fraction(1)})
        from artifact.root_system import RootSet

        bad = RootSet(3, [R(2, 1), R(3, 2), R(3, 1)])
        assert not verify_polarization(bad, f)

    def test_exceptional_diagram(self, by_label):
        s = by_label((7, 3, 8))
        pol = polarization(s)
        assert R(7, 5) in pol
        assert R(5, 4) not in pol

    def test_non_exceptional_n7(self, by_label):
        s = by_label((7, 3, 4))
        pol = polarization(s)
        from artifact.admissible import render_diagram

        rows = render_diagram(s).ascii_rows()
        expected = {
            R(i, j)
            for i in range(2, 8) for j in range(1, i)
            if rows[i - 1][j - 1] != "-"
        }
        assert set(pol) == expected


class TestStratum:
    def test_634(self, by_label):
        s = by_label((6, 3, 4))
        c = {r: Fraction(k + 1) for k, r in enumerate(s.xi)}
        f = canonical_form(s, c)
        assert stratum(f) == 3

    def test_zero_form(self):
        assert stratum(form(5, 2, {})) == 4

    def test_full_corner(self):
        assert stratum(form(5, 2, {R(5, 1): 1})) == 0

    def test_intermediate(self):
        assert stratum(form(5, 2, {R(4, 1): 1})) == 1


class TestClassify:
    def test_round_trip_n4(self):
        for label, entry in CATALOG4.items():
            s = build_admissible(4, entry["seq"])
            c = {r: 1 if flag else 0
                 for r, flag in zip(s.xi, s.otimes_mask)}
            f = canonical_form(s, c, p=2)
            s2, c2 = classify(f)
            assert s2.label == label
            assert c2 == {r: f.value(r) for r in s.xi}

    def test_generic_point(self):
        f = form(3, 2, {R(2, 1): 1, R(3, 2): 1, R(3, 1): 1})
        s, c = classify(f)
        assert s.label == (3, 0, 1)
        assert c == {R(3, 1): 1}

    def test_zero_form(self):
        f = form(3, 3, {})
        s, c = classify(f)
        assert s.label == (3, 1, 1)
        assert c == {R(2, 1): 0, R(3, 2): 0}

    def test_partition_n3_p2(self):
        seen = {}
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    f = form(3, 2, {R(2, 1): a, R(3, 1): b, R(3, 2): c})
                    s, cv = classify(f)
                    key = (s.label, tuple(sorted(
                        (r, v) for r, v in cv.items())))
                    seen.setdefault(key, 0)
                    seen[key] += 1
        # 1 big orbit of size 4 plus 4 fixed points.
        sizes = sorted(seen.values())
        assert sizes == [1, 1, 1, 1, 4]

    def test_requires_finite_field(self):
        f = form(3, None, {R(3, 1): Fraction(1)})
        with pytest.raises(ValueError):
            classify(f)


class TestCensus:
    @pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_per_dimension(self, n, p):
        report = census(n, p)
        by_dim = {}
        for row in report["orbits"]:
            by_dim[row["dim"]] = by_dim.get(row["dim"], 0) + row["count"]
        assert by_dim == CENSUS_EXPECT[(n, p)]
        assert report["identities"]["point_sum_ok"]
        assert report["identities"]["formula_ok"]

    def test_per_label_n5(self):
        report = census(5, 2)
        counts = {tuple(map(int, row["label"].split(","))): row["count"]
                  for row in report["orbits"]}
        assert counts == {
            (5, 0, 1): 1, (5, 0, 2): 4, (5, 1, 1): 2, (5, 1, 2): 8,
            (5, 2, 1): 4, (5, 2, 2): 2, (5, 2, 3): 8, (5, 3, 1): 4,
            (5, 3, 2): 8, (5, 3, 3): 4, (5, 3, 4): 16,
        }
        assert sum(counts.values()) == 61


class TestRegularIdeal:
    def test_generators(self):
        from artifact.symbolic import poly_text, y_var

        handle = regular_ideal(4, [Fraction(2), Fraction(5)])
        texts = [poly_text(g) for g in handle.generators]
        assert poly_text(y_var(4, 1) - 2) in texts[0]
        assert len(handle.generators) == 2

    def test_invalid_constants(self):
        with pytest.raises(InvalidC):
            regular_ideal(4, [0, 5])
        with pytest.raises(InvalidC):
            regular_ideal(4, [1])

    def test_regular_orbit_is_cut_out(self):
        # Over F_2 for n=4: the regular canonical orbit satisfies the system
        # and the system's zero set is exactly the orbit.
        from artifact.symbolic import evaluate
        from artifact.char_matrix import regular_minors

        s = build_admissible(4, CATALOG4[(4, 0, 1)]["seq"])
        f = canonical_form(s, {R(4, 1): 1, R(3, 2): 1}, p=2)
        orbit = orbit_bfs(f)
        p1, p2 = regular_minors(4)
        c1 = evaluate(p1, f)
        c2 = evaluate(p2, f)
        assert c1 != 0
        matches = set()
        roots = list(positive_roots(4))
        for code in range(2 ** 6):
            vals = {r: (code >> k) & 1 for k, r in enumerate(roots)}
            g = form(4, 2, vals)
            if evaluate(p1, g) == c1 and evaluate(p2, g) == c2:
                matches.add(g)
        assert matches == set(orbit)


class TestSubregular:
    def test_511_case1(self):
        s = build_admissible(5, CATALOG5[(5, 1, 1)]["seq"])
        c = {R(4, 1): 1, R(5, 2): 2, R(5, 4): 3}
        rec = subregular_classify((s, c))
        assert rec.case == "1"
        assert rec.j0 == 1

    def test_502_case2(self):
        s = build_admissible(5, CATALOG5[(5, 0, 2)]["seq"])
        c = {R(5, 1): 1, R(3, 2): 1, R(4, 3): 0}
        rec = subregular_classify((s, c))
        assert rec.case == "2"

    def test_411_case3a(self):
        s = build_admissible(4, CATALOG4[(4, 1, 1)]["seq"])
        c = {R(3, 1): 1, R(4, 2): 1, R(4, 3): 1}
        rec = subregular_classify((s, c))
        assert rec.case == "3a"

    def test_421_case3b(self):
        s = build_admissible(4, CATALOG4[(4, 2, 1)]["seq"])
        c = {R(2, 1): 1, R(4, 2): 1}
        rec = subregular_classify((s, c))
        assert rec.case == "3b"

    def test_finite_field_form_input(self):
        s = build_admissible(4, CATALOG4[(4, 1, 1)]["seq"])
        f = canonical_form(s, {R(3, 1): 1, R(4, 2): 1, R(4, 3): 2}, p=3)
        rec = subregular_classify(f)
        assert rec.case == "3a"
        assert rec.cuts_exactly

    def test_not_subregular(self):
        s = build_admissible(5, CATALOG5[(5, 0, 1)]["seq"])
        c = {R(5, 1): 1, R(4, 2): 1}
        with pytest.raises(NotSubregular):
            subregular_classify((s, c))


class TestStratumMaxDims:
    def test_n4(self):
        assert stratum_max_dims(4, 2) == [4, 2, 2, 2]

    def test_n5(self):
        assert stratum_max_dims(5, 2) == [8, 6, 4, 4, 4]


class TestErrorsExist:
    def test_classification_mismatch_is_exception(self):
        assert issubclass(ClassificationMismatch, Exception)
