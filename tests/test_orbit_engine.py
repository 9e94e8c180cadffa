"""Oracle tests for the finite-field orbit engine."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact.root_system import Root, positive_roots
from artifact.admissible import build_admissible, dimension, \
    enumerate_maximal
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
from test_properties import _dense_mul


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
        gh = GroupElement(4, 5, _matrix=_dense_mul(g.matrix, h.matrix, 5))
        rhs = coadjoint_act(gh, f)
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

    def test_budget_message_names_stage_and_counts(self):
        s = build_admissible(5, CATALOG5[(5, 0, 1)]["seq"])
        f = canonical_form(s, {R(5, 1): 1, R(4, 2): 1}, p=3)
        # The root subgroups are swept in root order, past the central
        # X_(5,1).  X_(4,1), X_(3,1) and X_(2,1) each add t * f(y_5,1) = t
        # to one value that was fixed before, at (5,4), (5,3) and (5,2), so
        # the set grows from 1 to 3, 9 and 27 states: 27 is the first count
        # over 10.  A budget of 0 refuses the starting state itself.
        with pytest.raises(BudgetExceeded, match=r"^orbit_bfs at n=5, p=3 "
                           r"reached 27 states, over the limit of 10$"):
            orbit_bfs(f, budget=10)
        with pytest.raises(BudgetExceeded, match=r"^orbit_bfs at n=5, p=3 "
                           r"reached 1 states, over the limit of 0$"):
            orbit_bfs(f, budget=0)

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

    def test_generators_built_once_per_partition(self, monkeypatch):
        # all_orbits builds the N generators I + e_alpha once, and each
        # inverse once (an identity to solve from, then the result), and
        # hands them to every search, which still moves the N basis forms
        # by the N generators through coadjoint_act.
        built, acts = _count_group_work(monkeypatch)
        orbits = all_orbits(4, 2)
        size = len(positive_roots(4))
        assert len(orbits) == 16
        assert len(built) == 3 * size
        assert len(acts) == len(orbits) * size ** 2

    def test_single_searches_reuse_moves(self, monkeypatch):
        from artifact import orbit_engine

        orbit_engine._default_moves.cache_clear()
        built, acts = _count_group_work(monkeypatch)
        f53 = canonical_form(*_diagram_and_ones(5, (5, 0, 1)), p=3)
        classify(f53)
        size = len(positive_roots(5))
        assert (len(built), len(acts)) == (3 * size, size ** 2)
        built.clear()
        acts.clear()
        classify(f53)
        assert (len(built), len(acts)) == (0, 0)
        # Moves are kept per (n, p): the first search at (6, 2) builds its
        # own, the generators and inverses included.
        size = len(positive_roots(6))
        classify(canonical_form(*_diagram_and_ones(6, (6, 0, 1)), p=2))
        assert (len(built), len(acts)) == (3 * size, size ** 2)
        built.clear()
        acts.clear()
        # census keeps one set of moves per orbit, as the benchmark's tracer
        # test pins: 3 generators acting on 3 basis forms per search.
        orbits = sum(r["count"] for r in census(3, 2)["orbits"])
        assert len(acts) == 9 * orbits

    def test_kept_moves_agree_with_given_generators(self):
        from artifact import orbit_engine
        from artifact.orbit_engine import _generators

        rng = random.Random(1507)
        cases = [(n, p) for n in range(2, 7) for p in (2, 3)] + [(7, 2)] * 3
        forms = [form_of_code(n, p, rng.randrange(p ** (n * (n - 1) // 2)))
                 for n, p in cases]
        for f in forms:
            own = orbit_bfs(f, generators=_generators(f.n, f.p)).codes
            orbit_engine._default_moves.cache_clear()
            cold = orbit_bfs(f).codes
            warm = orbit_bfs(f).codes
            assert orbit_engine._default_moves.cache_info().hits == 1
            assert np.array_equal(cold, own), f
            assert np.array_equal(warm, own), f

    def test_kept_moves_are_read_only_and_checked_first(self):
        from artifact import orbit_engine

        orbit_bfs(form(4, 3, {R(4, 1): 1}))
        reads, columns, writes = orbit_engine._default_moves(4, 3)[0]
        for array in (reads, columns, writes):
            with pytest.raises(ValueError):
                array[0] = 0
        # The checks run before the memo is read, so it sees no call.
        info = orbit_engine._default_moves.cache_info()
        for n, p in [(3, 4), (3, 1), (6, 19)]:
            with pytest.raises(InvalidInput):
                orbit_bfs(LinearForm._reduced(n, p, {}))
        assert orbit_engine._default_moves.cache_info() == info


def _count_group_work(monkeypatch):
    """Lists that grow by one on each GroupElement construction and each
    coadjoint_act call the orbit engine makes."""
    from artifact import orbit_engine

    built, acts = [], []
    real_init, real_act = GroupElement.__init__, orbit_engine.coadjoint_act

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def counting_act(g, x):
        acts.append(g)
        return real_act(g, x)

    monkeypatch.setattr(GroupElement, "__init__", counting_init)
    monkeypatch.setattr(orbit_engine, "coadjoint_act", counting_act)
    return built, acts


def _diagram_and_ones(n, label):
    """The diagram of the given label with constant 1 on every pick."""
    s = next(s for s in enumerate_maximal(n) if s.label == label)
    return s, {r: 1 for r in s.xi}


def form_of_code(n, p, code):
    """The form whose values are the base-p digits of code, in
    positive_roots order, least significant first."""
    return form(n, p, {r: code // p ** k % p
                       for k, r in enumerate(positive_roots(n))})


def code_of_form(f):
    return sum(int(f.value(r)) * f.p ** k
               for k, r in enumerate(positive_roots(f.n)))


def all_forms(n, p):
    for code in range(p ** (n * (n - 1) // 2)):
        yield form_of_code(n, p, code)


def reference_closure(f, roots=None):
    """The orbit of f as a set, by breadth-first search through
    coadjoint_act with the generators I + e_alpha for alpha in roots, by
    default every positive root."""
    gens = [GroupElement(f.n, f.p, {(r.row, r.col): 1})
            for r in roots or positive_roots(f.n)]
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


# Sorted codes of each reference closure met so far, by member, so a drawn
# point in a known orbit does not close it again.
_REFERENCE_CODES = {}


def reference_codes(f):
    """The sorted codes of the closure of f under the simple root elements
    I + e_(i+1,i).  They generate the group (commutators of them give every
    other I + e_alpha), so the closure is the orbit, reached with n - 1
    generators instead of n(n-1)/2."""
    if f not in _REFERENCE_CODES:
        closure = reference_closure(
            f, [R(i + 1, i) for i in range(1, f.n)])
        _REFERENCE_CODES.update(
            dict.fromkeys(closure, sorted(map(code_of_form, closure))))
    return _REFERENCE_CODES[f]


class TestSweepAgainstReference:
    """orbit_bfs against the plain set closure, code for code."""

    @pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (3, 5), (4, 2)])
    def test_every_point(self, n, p):
        for f in all_forms(n, p):
            orbit = orbit_bfs(f)
            assert orbit.codes.tolist() == reference_codes(f), f
            assert len(orbit) == p ** kirillov_rank(f), f

    @given(st.sampled_from([(4, 3), (5, 2), (5, 3)]), st.data())
    @settings(max_examples=12, deadline=None)
    def test_drawn_points(self, field, data):
        n, p = field
        f = form_of_code(n, p, data.draw(
            st.integers(0, p ** (n * (n - 1) // 2) - 1), label="code"))
        orbit = orbit_bfs(f)
        assert orbit.codes.tolist() == reference_codes(f)
        assert len(orbit) == p ** kirillov_rank(f)


class TestBudgetIsOrbitSizeCap:
    def test_budget_of_orbit_size_passes_and_one_less_refuses(self):
        rng = random.Random("budget-cap")
        for n, p in [(3, 5), (4, 3), (5, 2), (5, 3), (6, 2)]:
            for _ in range(4):
                f = form_of_code(n, p, rng.randrange(p ** (n * (n - 1) // 2)))
                size = len(orbit_bfs(f))
                assert orbit_bfs(f, budget=size).codes.size == size
                with pytest.raises(BudgetExceeded, match=(
                        rf"^orbit_bfs at n={n}, p={p} reached \d+ states, "
                        rf"over the limit of {size - 1}$")):
                    orbit_bfs(f, budget=size - 1)


class TestNonPrimeField:
    """Z/4 is not a field: every entry point refuses it."""

    def test_orbit_bfs(self):
        with pytest.raises(InvalidInput, match="p must be a prime, got 4"):
            orbit_bfs(form(3, 4, {R(3, 1): 2}))

    def test_all_orbits(self):
        with pytest.raises(InvalidInput, match="p must be a prime, got 4"):
            all_orbits(3, 4)
        # The field is checked before the size of its space.
        with pytest.raises(InvalidInput, match="p must be a prime, got 4"):
            all_orbits(3, 4, budget=0)

    def test_stratum_max_dims(self):
        with pytest.raises(InvalidInput, match="p must be a prime, got 4"):
            stratum_max_dims(3, 4)

    def test_kirillov_rank(self):
        with pytest.raises(InvalidInput, match="p must be a prime, got 4"):
            kirillov_rank(form(3, 4, {R(3, 1): 2}))

    @pytest.mark.parametrize("p", [0, 1, 4, -3])
    def test_validating_constructors(self, p):
        # Each raises before it reduces a value mod p, which would divide by
        # zero at p = 0 and compute in a ring that is no field otherwise.
        s = build_admissible(3, CATALOG3[(3, 0, 1)]["seq"])
        builders = [lambda: LinearForm(3, p, {R(3, 1): 1}),
                    lambda: canonical_form(s, {R(3, 1): 1}, p),
                    lambda: GroupElement(3, p, {(3, 1): 1}),
                    lambda: GroupElement(3, p)]
        for build in builders:
            with pytest.raises(InvalidInput,
                               match=f"^p must be a prime, got {p}$"):
                build()


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

    def test_rank_computed_once_per_form(self, monkeypatch):
        from artifact import orbit_engine

        s = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"])
        c = {r: Fraction(k + 2) for k, r in enumerate(s.xi)}
        eliminations = []
        real = orbit_engine._int_rank

        def counting(mat, p):
            eliminations.append(p)
            return real(mat, p)

        monkeypatch.setattr(orbit_engine, "_int_rank", counting)
        f = canonical_form(s, c)
        assert kirillov_rank(f) == 4
        assert verify_polarization(polarization(s), f)
        assert kirillov_rank(f) == 4
        assert len(eliminations) == 1
        # An equal form built anew computes its own rank.
        assert kirillov_rank(canonical_form(s, c)) == 4
        assert len(eliminations) == 2

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


def _reference_masks(catalog):
    index = {r: k for k, r in enumerate(positive_roots(catalog[0].n))}
    picks = [sum(1 << index[r] for r in s.xi) for s in catalog]
    marked = [sum(1 << index[r] for r, m in zip(s.xi, s.otimes_mask) if m)
              for s in catalog]
    return [picks, marked]


class TestCatalogMasks:
    """The pick and marked masks are reused only for a catalog that holds
    the same subsets, by identity."""

    def test_same_subsets_reuse_the_masks(self):
        from artifact import orbit_engine

        first = orbit_engine._catalog_masks(5, tuple(enumerate_maximal(5)))
        again = orbit_engine._catalog_masks(5, tuple(enumerate_maximal(5)))
        assert again is first
        assert [m.tolist() for m in first] == \
            _reference_masks(enumerate_maximal(5))

    def test_other_subsets_rebuild_the_masks(self):
        from artifact import orbit_engine

        catalog = enumerate_maximal(5)
        equal_copies = [build_admissible(5, s.xi) for s in catalog]
        first = orbit_engine._catalog_masks(5, tuple(catalog))
        for other in (catalog[::-1], catalog[:-1], catalog + catalog,
                      equal_copies):
            masks = orbit_engine._catalog_masks(5, tuple(other))
            assert masks is not first
            assert [m.tolist() for m in masks] == _reference_masks(other)

    @pytest.mark.parametrize("n,p", [(5, 3), (6, 2)])
    def test_answers_match_fresh_masks(self, n, p):
        from artifact import orbit_engine

        orbits = all_orbits(n, p)
        reused = [orbit_engine._classify_orbit(o, "census") for o in orbits]
        fresh = []
        for orbit in orbits:
            orbit_engine._catalog_masks.cache_clear()
            fresh.append(orbit_engine._classify_orbit(orbit, "census"))
        assert [(s.label, c) for s, c in reused] == \
            [(s.label, c) for s, c in fresh]
        for orbit, (s, c) in zip(orbits, reused):
            assert canonical_form(s, c, p) in orbit


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


class TestClassificationMismatchMessages:
    """Forced cross-check failures name the stage, (n, p) and counts."""

    def test_canonical_member_count(self, monkeypatch):
        from artifact import orbit_engine

        catalog = orbit_engine.enumerate_maximal(3)
        f = form(3, 2, {R(3, 1): 1})
        monkeypatch.setattr(orbit_engine, "enumerate_maximal",
                            lambda n: catalog + catalog)
        with pytest.raises(ClassificationMismatch, match=r"^classify at "
                           r"n=3, p=2: an orbit of 4 states has 2 canonical "
                           r"members, not 1$"):
            classify(f)
        with pytest.raises(ClassificationMismatch, match=r"^census at n=3, "
                           r"p=2: an orbit of 1 states has 2 canonical "
                           r"members, not 1$"):
            census(3, 2)
        monkeypatch.setattr(orbit_engine, "enumerate_maximal", lambda n: [])
        with pytest.raises(ClassificationMismatch,
                           match="has 0 canonical members, not 1$"):
            classify(f)

    def test_orbit_size(self, monkeypatch):
        from artifact import orbit_engine

        monkeypatch.setattr(orbit_engine, "dimension", lambda s: 5)
        with pytest.raises(ClassificationMismatch, match=r"^classify at "
                           r"n=3, p=2: an orbit of label \(3, 0, 1\) has 4 "
                           r"states, not p\^5$"):
            classify(form(3, 2, {R(3, 1): 1}))

    def test_stratum_orbit_size(self, monkeypatch):
        from artifact import orbit_engine

        monkeypatch.setattr(orbit_engine, "all_orbits",
                            lambda n, p, budget=None: [[None] * 3])
        with pytest.raises(ClassificationMismatch, match=r"^stratum_max_dims "
                           r"at n=3, p=2: an orbit of 3 states is not a "
                           r"power of 2$"):
            stratum_max_dims(3, 2)
