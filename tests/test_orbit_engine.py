"""Oracle tests for the finite-field orbit engine."""
import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact.root_system import InvalidDimension, Root, positive_roots, \
    root_sum
from artifact.admissible import build_admissible, dimension, \
    enumerate_maximal
from artifact.char_matrix import LemmaFailure
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
    stratum,
    subregular_classify,
    verify_polarization,
    _digits,
    _encode,
    _row_form,
)
from artifact.symbolic import poly_text

from conftest import CATALOG3, CATALOG4, CATALOG5, CENSUS_EXPECT, R, \
    dense_moves, stratum_max_dims
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

    def test_pair_keys_become_roots(self):
        f = LinearForm(3, 2, {(2, 1): 1, (3, 1): 3})
        assert f == form(3, 2, {R(2, 1): 1, R(3, 1): 1})
        assert all(type(r) is Root for r in f.values)

    @pytest.mark.parametrize("key", ["x", (2, 1, 0), (2.0, 1), (3, True)])
    def test_other_keys_are_refused(self, key):
        with pytest.raises(InvalidInput,
                           match=r"^.+ is not a root \(row, col\)$"):
            LinearForm(3, 2, {key: 1})

    @pytest.mark.parametrize("n", [1, 0, "3", 2.5])
    def test_bad_dimension_is_refused(self, n):
        with pytest.raises(InvalidDimension):
            LinearForm(n, 5, {})


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

    @pytest.mark.parametrize("entry", [(1, 2), (2, 2), (4, 1), (3, 0)])
    def test_entry_outside_the_triangle(self, entry):
        # One message for a group element's entry and a form's root.
        message = (f"^Root\\({entry[0]},{entry[1]}\\) lies outside the "
                   f"n=3 triangle$")
        with pytest.raises(InvalidInput, match=message):
            GroupElement(3, 5, {entry: 1})
        with pytest.raises(InvalidInput, match=message):
            LinearForm(3, 5, {entry: 1})

    @pytest.mark.parametrize("key", ["ab", (2, 1, 0), (2.0, 1), (3, True)])
    def test_other_keys_are_refused(self, key):
        with pytest.raises(InvalidInput,
                           match=r"^.+ is not a root \(row, col\)$"):
            GroupElement(3, 5, {key: 1})

    @pytest.mark.parametrize("n", [1, 0, "3", 2.5])
    def test_bad_dimension_is_refused(self, n):
        with pytest.raises(InvalidDimension):
            GroupElement(n, 5)

    @pytest.mark.parametrize("n,p", [(3, 3), (4, 2), (3, None)])
    def test_element_over_another_field_is_refused(self, n, p):
        f = form(3, 2, {R(3, 1): 1})
        with pytest.raises(ValueError, match="different fields"):
            coadjoint_act(GroupElement(n, p, {(2, 1): 1}), f)

    def test_sparse_view_is_built_once_without_new_elements(
            self, monkeypatch):
        g = GroupElement(4, 3, {(2, 1): 2, (4, 2): 1})
        f = form(4, 3, {R(4, 1): 1, R(3, 2): 2})
        first = coadjoint_act(g, f)
        view = g._view
        built, _acts = _count_group_work(monkeypatch)
        assert coadjoint_act(g, f) == first
        assert g._view is view and built == []


class TestOrbitBfs:
    def test_corner_orbit_n3(self):
        f = form(3, 2, {R(3, 1): 1})
        orbit = orbit_bfs(f)
        assert len(orbit) == 4
        codes = orbit.codes.tolist()
        assert _encode(f) in codes
        assert _encode(form(3, 2, {R(3, 1): 1, R(2, 1): 1})) in codes
        assert _encode(form(3, 2, {R(2, 1): 1})) not in codes

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

    def test_budget(self, monkeypatch):
        s = build_admissible(5, CATALOG5[(5, 0, 1)]["seq"])
        f = canonical_form(s, {R(5, 1): 1, R(4, 2): 1}, p=3)
        monkeypatch.setenv("ARTIFACT_BFS_BUDGET", "10")
        with pytest.raises(BudgetExceeded):
            orbit_bfs(f)

    def test_budget_message_names_stage_and_counts(self, monkeypatch):
        s = build_admissible(5, CATALOG5[(5, 0, 1)]["seq"])
        f = canonical_form(s, {R(5, 1): 1, R(4, 2): 1}, p=3)
        # The root subgroups are swept in root order, past the central
        # X_(5,1).  X_(4,1), X_(3,1) and X_(2,1) each add t * f(y_5,1) = t
        # to one value that was fixed before, at (5,4), (5,3) and (5,2), so
        # the set grows from 1 to 3, 9 and 27 states: 27 is the first count
        # over 10.  A budget of 0 refuses the starting state itself.
        monkeypatch.setenv("ARTIFACT_BFS_BUDGET", "10")
        with pytest.raises(BudgetExceeded, match=r"^orbit_bfs at n=5, p=3 "
                           r"reached 27 states, over the limit of 10$"):
            orbit_bfs(f)
        monkeypatch.setenv("ARTIFACT_BFS_BUDGET", "0")
        with pytest.raises(BudgetExceeded, match=r"^orbit_bfs at n=5, p=3 "
                           r"reached 1 states, over the limit of 0$"):
            orbit_bfs(f)

    def test_sweep_holds_about_twice_the_budget(self, monkeypatch):
        # X_(2,1) moves y_3_1 -> 1 to p states.  The sweep stops once the
        # images it holds, merged, exceed the budget: 2,001 at 1000, not
        # all 100,003 images of the one sweep.
        f = LinearForm(3, 100003, {R(3, 1): 1})
        monkeypatch.setenv("ARTIFACT_BFS_BUDGET", "1000")
        with pytest.raises(BudgetExceeded) as info:
            orbit_bfs(f)
        states = int(info.value.args[0].split(" reached ")[1].split()[0])
        assert 1000 < states < 10_000

    def test_whole_space_budget(self, monkeypatch):
        # all_orbits(3, 2) scans 2^3 states: a budget of 8 allows it, 7
        # refuses it before any search.
        monkeypatch.setenv("ARTIFACT_BFS_BUDGET", "8")
        assert len(all_orbits(3, 2)) == 5
        monkeypatch.setenv("ARTIFACT_BFS_BUDGET", "7")
        with pytest.raises(BudgetExceeded, match=r"all_orbits at n=3, p=2"
                           r" would scan 8 states, over the limit of 7"):
            all_orbits(3, 2)
        s = build_admissible(4, CATALOG4[(4, 2, 1)]["seq"])
        f = canonical_form(s, {r: 1 for r in s.xi}, p=3)
        monkeypatch.setenv("ARTIFACT_BFS_BUDGET", str(3 ** 6 - 1))
        with pytest.raises(BudgetExceeded, match="subregular cut"):
            subregular_classify(f)

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

    def test_partition_pays_its_acts_and_shares_moves(self, monkeypatch):
        # Every orbit of a partition still moves the N basis forms by the N
        # generators, and the arrays of its moves come from one memo keyed
        # by their content: at most one entry per generator is added, and
        # the memo is bounded, so generators given to orbit_bfs cannot grow
        # it without end.
        from artifact import orbit_engine

        orbit_engine._move.cache_clear()
        _built, acts = _count_group_work(monkeypatch)
        orbits = all_orbits(4, 2)
        size = len(positive_roots(4))
        info = orbit_engine._move.cache_info()
        assert len(acts) == len(orbits) * size ** 2
        assert info.currsize == info.misses <= size
        assert info.hits == (len(orbits) - 1) * info.misses
        assert info.maxsize is not None

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
        from artifact.orbit_engine import _generators

        orbit_bfs(form(4, 3, {R(4, 1): 1}))
        moves = orbit_engine._default_moves(4, 3)
        assert {len(move) for move in moves} == {6}
        for array in itertools.chain.from_iterable(m[:4] for m in moves):
            with pytest.raises(ValueError):
                array[0] = 0
        # Moves of the same content are one object, whichever generators
        # they were read off, so a search with its own generators shares
        # the kept arrays too.
        own = orbit_engine._generator_moves(4, 3, _generators(4, 3))
        assert all(a is b for a, b in zip(own, moves, strict=True))
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
    positive_roots order, most significant first."""
    top = n * (n - 1) // 2 - 1
    return form(n, p, {r: code // p ** (top - k) % p
                       for k, r in enumerate(positive_roots(n))})


def code_of_form(f):
    top = f.n * (f.n - 1) // 2 - 1
    return sum(int(f.value(r)) * f.p ** (top - k)
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
    codes = orbit.codes.tolist()
    assert codes == sorted(_encode(x) for x in expected)
    assert codes == sorted(set(codes))
    rows = _digits(orbit.codes, orbit.n, orbit.p)
    assert rows.shape == (len(expected), len(list(positive_roots(orbit.n))))
    assert {form(orbit.n, orbit.p, dict(zip(positive_roots(orbit.n), row)))
            for row in rows.tolist()} == expected


class TestGeneratorArgument:
    """orbit_bfs(f, generators=...) takes the N generators of f's field,
    and refuses anything else before it acts."""

    @pytest.mark.parametrize("case", ["empty", "short", "long", "field",
                                      "dimension", "not elements",
                                      "iterator"])
    def test_other_generators_are_refused(self, case, monkeypatch):
        from artifact.orbit_engine import _generators

        gens = _generators(3, 2)
        given = {"empty": (), "short": gens[:1], "long": gens + gens[:1],
                 "field": _generators(3, 3),
                 "dimension": _generators(4, 2)[:3],
                 "not elements": (1, 2, 3), "iterator": iter(gens)}[case]
        _built, acts = _count_group_work(monkeypatch)
        with pytest.raises(InvalidInput, match=r"^generators must be 3 "
                           r"group elements over n=3, p=2$"):
            orbit_bfs(form(3, 2, {R(3, 1): 1}), generators=given)
        assert acts == []

    def test_a_list_of_the_generators_is_taken(self):
        from artifact.orbit_engine import _generators

        f = form(4, 3, {R(4, 1): 1})
        assert np.array_equal(
            orbit_bfs(f, generators=list(_generators(4, 3))).codes,
            orbit_bfs(f).codes)


class TestMovesAgainstDenseAssembly:
    """The sparse move assembly gives the dense size³ one, field for
    field, in root order: the same four arrays, dtypes and shapes, the
    same int bitmask of drivers, and the same feeders of each written
    root."""

    @pytest.mark.parametrize(
        "n,p", [(n, p) for n in range(2, 7) for p in (2, 3)]
        + [(4, 5), (5, 5), (7, 2)])
    def test_moves_equal_the_dense_assembly(self, n, p):
        from artifact import orbit_engine
        from artifact.orbit_engine import _generators

        expected = dense_moves(n, p)
        for got in (orbit_engine._generator_moves(n, p, _generators(n, p)),
                    orbit_engine._default_moves(n, p)):
            assert len(got) == len(expected)
            for move, want in zip(got, expected):
                assert len(move) == 6
                for array, ref in zip(move[:4], want):
                    assert array.dtype == ref.dtype == np.int64
                    assert array.shape == ref.shape
                    assert np.array_equal(array, ref)
                assert move[4:] == want[4:]
                drivers, fed = move[4:]
                assert type(drivers) is int and type(fed) is tuple
                assert all(type(x) is int for pair in fed for x in pair)
                # Every feeder is a driver.
                assert all(feeders & ~drivers == 0 for _bit, feeders in fed)
        # The driver set of each generator's sparse view, read as a bitmask,
        # is the drivers of its move, and a generator without one has none.
        index = orbit_engine._root_index(n)
        masks = [sum(1 << index[r] for r in g._sparse()[2])
                 for g in _generators(n, p)]
        assert [mask for mask in masks if mask] == \
            [move[4] for move in expected]


def _memo_keys(monkeypatch, n, p, generators):
    """The keys ``_generator_moves`` hands to ``_move`` for ``generators``,
    with the moves it got for them."""
    from artifact import orbit_engine

    keys, real = [], orbit_engine._move

    def recording(n, p, moved):
        keys.append(moved)
        return real(n, p, moved)

    with monkeypatch.context() as patch:
        patch.setattr(orbit_engine, "_move", recording)
        moves = orbit_engine._generator_moves(n, p, generators)
    return keys, moves


class TestMoveMemo:
    """The memo of moves is keyed by the driver images: keys that differ
    in content give different moves, and equal content read off other
    generators gives the same object."""

    def test_equal_keys_share_one_move(self, monkeypatch):
        from artifact import orbit_engine
        from artifact.orbit_engine import _generators

        first, moves = _memo_keys(monkeypatch, 4, 5, _generators(4, 5))
        again, _ = _memo_keys(monkeypatch, 4, 5, _generators(4, 5))
        assert first == again
        for a, b, move in zip(first, again, moves, strict=True):
            assert a is not b
            assert orbit_engine._move(4, 5, b) is move

    def test_a_changed_coefficient_changes_the_move(self, monkeypatch):
        from artifact import orbit_engine
        from artifact.orbit_engine import _generators

        keys, moves = _memo_keys(monkeypatch, 4, 5, _generators(4, 5))
        roots = positive_roots(4)
        for key, move in zip(keys, moves):
            (k, *pairs), rest = key[0], key[1:]
            at = next(t for t, (r, _v) in enumerate(pairs) if r != roots[k])
            root, v = pairs[at]
            pairs[at] = (root, v % 4 + 1)
            other = orbit_engine._move(4, 5, ((k, *pairs),) + rest)
            assert other is not move
            # The same roots are read and written; one coefficient differs.
            assert not np.array_equal(other[0], move[0])
            assert all(np.array_equal(a, b)
                       for a, b in zip(other[1:4], move[1:4]))
            assert other[4:] == move[4:]

    def test_a_dropped_driver_changes_the_move(self, monkeypatch):
        from artifact import orbit_engine
        from artifact.orbit_engine import _generators

        keys, moves = _memo_keys(monkeypatch, 5, 3, _generators(5, 3))
        wide = [(key, move) for key, move in zip(keys, moves)
                if len(key) > 1]
        assert wide
        for key, move in wide:
            other = orbit_engine._move(5, 3, key[1:])
            assert other is not move
            assert other[4] == move[4] & ~(1 << key[0][0])


class TestSearchAgainstReference:
    @pytest.mark.parametrize("n,p", [(3, 3), (4, 2)])
    def test_all_orbits_on_every_point(self, n, p):
        orbits = all_orbits(n, p)
        assert sum(len(o) for o in orbits) == p ** (n * (n - 1) // 2)
        for f in all_forms(n, p):
            closure = reference_closure(f)
            owners = [o for o in orbits if _encode(f) in o.codes.tolist()]
            assert len(owners) == 1
            assert_orbit_is(owners[0], closure)
            members = set(owners[0].codes.tolist())
            assert all(_encode(x) not in members for x in all_forms(n, p)
                       if x not in closure)

    def test_orbit_bfs_on_sampled_points_n5(self):
        points = list(all_forms(5, 2))
        for f in random.Random(5).sample(points, 24):
            closure = reference_closure(f)
            orbit = orbit_bfs(f)
            assert_orbit_is(orbit, closure)
            outside = next(x for x in points if x not in closure)
            assert _encode(outside) not in orbit.codes.tolist()


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


def reference_sweep(codes, g, p):
    """The sorted codes of {g^t x : x in codes, t < p}, through
    coadjoint_act."""
    images = set()
    for code in codes:
        x = form_of_code(g.n, p, code)
        for _t in range(p):
            images.add(code_of_form(x))
            x = coadjoint_act(g, x)
    return sorted(images)


class TestSweepAgainstReference:
    """orbit_bfs, and _sweep under one generator, against the plain set
    closure, code for code."""

    @pytest.mark.parametrize("block_cells", [1, 64, 1 << 20])
    @pytest.mark.parametrize("n,p", [(4, 3), (5, 2)])
    def test_one_generator_on_drawn_sets(self, n, p, block_cells,
                                         monkeypatch):
        # One row per block at block_cells = 1, so a drawn set mixes
        # blocks that g fixes with blocks that it moves in one sweep.
        from artifact import orbit_engine
        from artifact.orbit_engine import _generator_moves, _generators, \
            _sweep

        monkeypatch.setattr(orbit_engine, "_BLOCK_CELLS", block_cells)
        rng = random.Random(f"sweep-{n}-{p}")
        space = range(p ** (n * (n - 1) // 2))
        # A move for each generator that moves some code, in root order.
        moving = []
        for g in _generators(n, p):
            fixed = [c for c in space if reference_sweep([c], g, p) == [c]]
            if len(fixed) < len(space):
                moving.append((g, fixed))
        moves = _generator_moves(n, p)
        assert len(moves) == len(moving)
        for move, (g, fixed) in zip(moves, moving):
            drawn = [rng.sample(space, 12), rng.sample(fixed, 5),
                     rng.sample(fixed, 8) + rng.sample(space, 4)]
            for codes in map(sorted, map(set, drawn)):
                array = np.array(codes, dtype=np.int64)
                got = _sweep(array, p, move, 1 << 26)
                assert got.tolist() == reference_sweep(codes, g, p)
                if set(codes) <= set(fixed):
                    assert got is array

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


class TestSkippedSweeps:
    """A generator fixes every state that is zero at its drivers, so
    orbit_bfs skips a sweep whose drivers miss the support mask."""

    @pytest.mark.parametrize("n,p", [(4, 3), (5, 2)])
    def test_sets_zero_at_the_drivers_are_fixed(self, n, p):
        from artifact.orbit_engine import _generator_moves, _generators, \
            _sweep

        rng = random.Random(f"drivers-{n}-{p}")
        size = n * (n - 1) // 2
        basis = [LinearForm(n, p, {r: 1}) for r in positive_roots(n)]
        # The moves, in root order, of the generators that move a basis form.
        moving = [g for g in _generators(n, p)
                  if any(coadjoint_act(g, e) != e for e in basis)]
        moves = _generator_moves(n, p)
        assert len(moves) == len(moving)
        for g, move in zip(moving, moves):
            drivers = move[4]
            codes = sorted({sum(rng.randrange(p) * p ** (size - 1 - k)
                                for k in range(size) if not drivers >> k & 1)
                            for _ in range(16)})
            array = np.array(codes, dtype=np.int64)
            assert _sweep(array, p, move, 1 << 26) is array
            assert reference_sweep(codes, g, p) == codes

    def test_sweep_counts(self, monkeypatch):
        # Pinned so that dropping the skip fails: without it census(6, 2)
        # makes 3,850 sweeps, and each canonical classify below 9; widening
        # the mask by a move's whole write set makes 2,206 and 9, 6, 3, 0.
        from artifact import orbit_engine

        calls = []
        sweep = orbit_engine._sweep
        monkeypatch.setattr(orbit_engine, "_sweep",
                            lambda *args: calls.append(1) or sweep(*args))
        census(6, 2)
        assert len(calls) == 1647
        for label, count in [((5, 0, 1), 9), ((5, 2, 2), 4), ((5, 3, 2), 3),
                             ((5, 3, 4), 0)]:
            calls.clear()
            classify(canonical_form(*_diagram_and_ones(5, label), p=3))
            assert len(calls) == count, label

    @pytest.mark.parametrize("n,p", [(5, 3), (6, 2)])
    def test_no_sweep_returns_its_input(self, n, p, monkeypatch):
        # Every sweep these partitions make moves its set; when the mask
        # widened by a move's whole write set, 294 of (5, 3)'s 1,560
        # sweeps and 559 of (6, 2)'s 2,206 did not.
        from artifact import orbit_engine

        idle = []
        sweep = orbit_engine._sweep

        def counting(codes, *args):
            out = sweep(codes, *args)
            idle.append(out is codes)
            return out

        monkeypatch.setattr(orbit_engine, "_sweep", counting)
        all_orbits(n, p)
        assert idle and not any(idle)


def _replay(f, widen):
    """orbit_bfs's loop on f with the kept moves, with ``widen(fed,
    support)`` the bits its mask gains after a sweep that grows the set:
    the codes and the mask after each sweep, then the final codes."""
    from artifact.orbit_engine import _default_moves, _root_index, _sweep

    codes = np.array([_encode(f)], dtype=np.int64)
    index = _root_index(f.n)
    support = sum(1 << index[r] for r in f.values)
    steps = []
    for move in _default_moves(f.n, f.p):
        drivers, fed = move[4:]
        if not drivers & support:
            continue
        grown = _sweep(codes, f.p, move, 1 << 26)
        if len(grown) > len(codes):
            support |= widen(fed, support)
        codes = grown
        steps.append((codes, support))
    return steps, codes


def _reached(states, n, p):
    """The bitmask of the roots where some state is nonzero."""
    nonzero = (_digits(states, n, p) != 0).any(axis=0)
    return sum(1 << int(k) for k in np.flatnonzero(nonzero))


class TestSupportMask:
    """The support mask widens only by the written roots that have a
    feeder inside it, and still covers every root where a state of the set
    is nonzero."""

    @pytest.mark.parametrize("n,p", [(4, 3), (4, 5), (5, 2), (5, 3), (6, 2)])
    def test_mask_covers_every_state(self, n, p, partitions):
        def fed_roots(fed, support):
            return sum(bit for bit, feeders in fed if feeders & support)

        for orbit in partitions(n, p):
            steps, codes = _replay(orbit.representative, fed_roots)
            assert np.array_equal(codes, orbit.codes)
            for states, support in steps:
                assert _reached(states, n, p) & ~support == 0, \
                    orbit.representative

    @pytest.mark.parametrize("n,p", [(4, 3), (5, 2), (6, 2)])
    def test_a_mask_that_never_widens_misses_states(self, n, p, partitions):
        # Negative control: a mask that keeps f's support misses roots the
        # sweeps reach, so the check above has something to catch.  It
        # still reaches every orbit here: no start at n <= 5, p = 2 or at
        # (4, 3) ends short, nor any of 3,000 drawn ones at (6, 2) and
        # (5, 3), but nothing shown proves that it always does.
        missed = 0
        for orbit in partitions(n, p):
            steps, codes = _replay(orbit.representative,
                                   lambda fed, support: 0)
            assert np.array_equal(codes, orbit.codes)
            missed += any(_reached(states, n, p) & ~support
                          for states, support in steps)
        assert missed == {(4, 3): 30, (5, 2): 45, (6, 2): 243}[n, p]


class TestBudgetIsOrbitSizeCap:
    def test_budget_of_orbit_size_passes_and_one_less_refuses(
            self, monkeypatch):
        rng = random.Random("budget-cap")
        for n, p in [(3, 5), (4, 3), (5, 2), (5, 3), (6, 2)]:
            for _ in range(4):
                f = form_of_code(n, p, rng.randrange(p ** (n * (n - 1) // 2)))
                monkeypatch.delenv("ARTIFACT_BFS_BUDGET", raising=False)
                size = len(orbit_bfs(f))
                monkeypatch.setenv("ARTIFACT_BFS_BUDGET", str(size))
                assert orbit_bfs(f).codes.size == size
                monkeypatch.setenv("ARTIFACT_BFS_BUDGET", str(size - 1))
                with pytest.raises(BudgetExceeded, match=(
                        rf"^orbit_bfs at n={n}, p={p} reached \d+ states, "
                        rf"over the limit of {size - 1}$")):
                    orbit_bfs(f)

    def test_sweep_of_a_closed_orbit_merges_and_goes_on(self):
        # A generator that moves an orbit maps it onto itself, so a sweep
        # of it holds p copies: over twice a limit of the orbit's size,
        # while the merged codes stay within it and the sweep goes on.
        from artifact.orbit_engine import _default_moves, _sweep

        s = build_admissible(5, CATALOG5[(5, 0, 1)]["seq"])
        orbit = orbit_bfs(canonical_form(s, {R(5, 1): 1, R(4, 2): 1}, p=3))
        for move in _default_moves(5, 3):
            assert _sweep(orbit.codes, 3, move, len(orbit)).tolist() == \
                orbit.codes.tolist()

    def test_budget_is_read_once_per_search(self, monkeypatch):
        # One read per orbit_bfs, however many sweeps it makes, and one
        # more per whole-space scan: census(4, 2) has 16 orbits.
        from artifact import orbit_engine

        reads = []
        budget = orbit_engine._budget_value
        monkeypatch.setattr(orbit_engine, "_budget_value",
                            lambda: reads.append(1) or budget())
        s = enumerate_maximal(6)[0]
        orbit_bfs(canonical_form(s, {r: 1 for r in s.xi}, p=2))
        assert len(reads) == 1
        reads.clear()
        census(4, 2)
        assert len(reads) == 17


@pytest.mark.parametrize("search,n", [(all_orbits, "3"),
                                      (stratum_max_dims, 2.5)])
def test_whole_space_searches_check_the_dimension(search, n):
    with pytest.raises(InvalidDimension):
        search(n, 2)


@pytest.mark.parametrize("entry,arg", [
    (classify, "x"), (orbit_bfs, {(2, 1): 1}), (kirillov_rank, None),
    (stratum, 3)])
def test_point_functions_refuse_what_is_not_a_form(entry, arg):
    # Each names itself and what it got, not an attribute it missed, as
    # subregular_classify does.
    with pytest.raises(TypeError, match=f"^{entry.__name__} needs a "
                       f"LinearForm, got {type(arg).__name__}$"):
        entry(arg)


class TestNonPrimeField:
    """Z/4 is not a field: every entry point refuses it."""

    def test_orbit_bfs(self):
        with pytest.raises(InvalidInput, match="p must be a prime, got 4"):
            orbit_bfs(form(3, 4, {R(3, 1): 2}))
        # A form over Q has no finite orbit; classify relies on this check.
        for search in (orbit_bfs, classify):
            with pytest.raises(InvalidInput,
                               match="^p must be a prime, got None$"):
                search(form(3, None, {R(3, 1): 2}))

    def test_all_orbits(self, monkeypatch):
        with pytest.raises(InvalidInput, match="p must be a prime, got 4"):
            all_orbits(3, 4)
        # The field is checked before the size of its space.
        monkeypatch.setenv("ARTIFACT_BFS_BUDGET", "0")
        with pytest.raises(InvalidInput, match="p must be a prime, got 4"):
            all_orbits(3, 4)

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


class TestPrimeCheck:
    """Primality is decided by Miller-Rabin over the prime bases 2..41,
    exact below a bound past which a p is refused."""

    def test_agrees_with_trial_division_below_ten_to_the_five(self):
        from artifact.orbit_engine import _check_prime

        limit = 10 ** 5
        sieve = [False, False] + [True] * (limit - 2)
        for d in range(2, math.isqrt(limit) + 1):
            if sieve[d]:
                sieve[d * d::d] = [False] * len(sieve[d * d::d])
        refused = []
        for p in range(-2, limit):
            try:
                _check_prime(p)
            except InvalidInput:
                refused.append(p)
        assert refused == [p for p in range(-2, limit)
                           if p < 2 or not sieve[p]]

    @pytest.mark.parametrize("p", [3_825_123_056_546_413_051,
                                   318_665_857_834_031_151_167_461])
    def test_strong_pseudoprimes_are_refused(self, p):
        # Strong probable primes to the bases 2..23 and 2..37 respectively.
        from artifact.orbit_engine import _check_prime

        with pytest.raises(InvalidInput, match=f"^p must be a prime, got {p}$"):
            _check_prime(p)

    @pytest.mark.parametrize("p", [3_317_044_064_679_887_385_961_981,
                                   2 ** 89 - 1])
    def test_past_the_bound_is_refused(self, p):
        # The bound itself is composite and passes every base; 2^89 - 1 is
        # a prime past it.
        from artifact.orbit_engine import _check_prime

        with pytest.raises(InvalidInput, match=(
                f"^p must be below 3317044064679887385961981, where "
                f"primality is decided exactly, got {p}$")):
            _check_prime(p)

    def test_large_primes_below_the_bound_pass(self):
        from artifact.orbit_engine import _check_prime

        for p in (2 ** 61 - 1, 10_000_000_000_000_061, 2 ** 31 - 1):
            _check_prime(p)


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
        # 3^8 states: the largest orbits of (5, 3).
        large = canonical_form(*_diagram_and_ones(5, (5, 0, 1)), p=3)
        expected = census(4, 3), subregular_classify(f), classify(large)
        monkeypatch.setattr(orbit_engine, "_BLOCK_CELLS", 64)
        got = census(4, 3), subregular_classify(f), classify(large)
        assert got == expected
        assert got[1].cuts_exactly
        assert len(orbit_bfs(large)) == 3 ** 8


class TestKirillovRank:
    def test_n3_regular(self):
        f = form(3, None, {R(3, 1): Fraction(1)})
        assert kirillov_rank(f) == 2

    def test_zero_form(self):
        assert kirillov_rank(form(4, None, {})) == 0

    def test_matches_dimension_on_canonicals(self, catalogs):
        for n, catalog in [(4, CATALOG4), (5, CATALOG5)]:
            for label, entry in catalog.items():
                s = build_admissible(n, entry["seq"])
                c = {r: Fraction(k + 1) for k, r in enumerate(s.xi)}
                f = canonical_form(s, c)
                assert kirillov_rank(f) == entry["dim"], label
        # Generic rational constants, every diagram for n <= 7.
        for n in range(2, 8):
            for s in catalogs(n):
                c = {r: Fraction((-1) ** k * (2 * k + 3), k + 2)
                     for k, r in enumerate(s.xi)}
                assert kirillov_rank(canonical_form(s, c)) == dimension(s), \
                    s.label

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

    def test_rational_rank_matches_fraction_elimination(self):
        # Over Q, square and oblong int matrices up to 21 x 21, sparse and
        # dense, built as B * C through k inner columns so the rank is at
        # most k, with some rows zeroed: each updated row is divided by
        # its gcd, so the rank must still be the exact Fraction one.
        from artifact.orbit_engine import _int_rank

        rng = random.Random("int-rank/rational")
        for _ in range(150):
            rows, cols = rng.randint(1, 21), rng.randint(1, 21)
            k = rng.randint(0, min(rows, cols))
            density = rng.choice((0.1, 0.3, 1.0))

            def draw(m, n):
                return [[rng.randint(-9, 9) if rng.random() < density else 0
                         for _ in range(n)] for _ in range(m)]

            left, right = draw(rows, k), draw(k, cols)
            mat = [[sum(left[i][t] * right[t][j] for t in range(k))
                    for j in range(cols)] for i in range(rows)]
            for r in rng.sample(range(rows), rng.randint(0, rows // 3)):
                mat[r] = [0] * cols
            want = _rank_of(mat, None)
            assert want <= k
            assert _int_rank([row[:] for row in mat], None) == want, mat

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


def _pairwise_polarization(pol, f):
    """verify_polarization's predicate over every pair of the set: the
    size condition, then each root sum must lie in the set and vanish at f."""
    roots = set(pol)
    total = f.n * (f.n - 1) // 2
    if len(roots) != total - kirillov_rank(f) // 2:
        return False
    for a in roots:
        for b in roots:
            summed = root_sum(a, b)
            if summed is not None and (summed not in roots
                                       or f.value(summed) != 0):
                return False
    return True


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
        assert not verify_polarization({R(2, 1), R(3, 2), R(3, 1)}, f)
        # Of the right size, but a root lies outside the n = 3 triangle.
        assert verify_polarization({R(3, 1), R(2, 1)}, f)
        assert not verify_polarization({R(3, 1), R(4, 1)}, f)

    def test_matches_pairwise_root_sum_oracle(self):
        # verify_polarization reads the Lie-Poisson table; the oracle pairs
        # every two roots of the set through root_sum.  Removing or adding
        # a root fails the size condition, and swapping one for an outside
        # root keeps the size, so both False branches are compared.
        rng = random.Random(7)
        for n in range(2, 8):
            for s in enumerate_maximal(n):
                pol = set(polarization(s))
                outside = sorted(set(positive_roots(n)) - pol)
                first = min(pol)
                candidates = [pol, pol - {first}] + [
                    pol | {r} for r in outside[:1]] + [
                    pol - {first} | {r} for r in outside]
                for p in (None, 101):
                    c = {r: rng.randint(1, 100) for r in s.xi}
                    f = canonical_form(s, c, p=p)
                    for cand in candidates:
                        assert verify_polarization(cand, f) == \
                            _pairwise_polarization(cand, f), (s.label, p)

    def test_exceptional_diagram(self, by_label):
        s = by_label((7, 3, 8))
        pol = polarization(s)
        assert R(7, 5) in pol
        assert R(5, 4) not in pol

    def test_non_exceptional_n7(self, by_label):
        s = by_label((7, 3, 4))
        pol = polarization(s)
        from artifact.admissible import render_diagram

        rows = render_diagram(s)
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

    @pytest.mark.parametrize("n,p", [(5, 3), (6, 2)])
    def test_orbit_ends_give_every_state_stratum(self, n, p, partitions):
        # The strata suite reads each orbit's two end codes only: here the
        # stratum of every state, the leading zeros of its first-column
        # digits, equals the stratum at both ends.
        for orbit in partitions(n, p):
            rows = _digits(orbit.codes, n, p)
            first = rows[:, :n - 1] != 0
            strata = np.where(first.any(axis=1), first.argmax(axis=1), n - 1)
            for end in rows[[0, -1]].tolist():
                assert np.all(strata == stratum(_row_form(n, p, end)))


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

    @pytest.mark.parametrize("n,p", [(3, 5), (4, 3), (4, 5), (5, 2), (5, 3),
                                     (6, 2)])
    def test_canonical_form_is_least_code(self, n, p):
        # Read from the greatest root down, the least point of an orbit is
        # its canonical form, and all_orbits starts each orbit there.
        for orbit in all_orbits(n, p):
            s, c = classify(orbit.representative)
            f = canonical_form(s, c, p)
            assert orbit.representative == f
            assert int(orbit.codes[0]) == code_of_form(f)


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
    return np.array(picks), np.array(marked)


def _reference_supports(catalog):
    """Every support over the triangle, bit k for root k, that lies inside
    a diagram's picks and holds its marked picks, with the diagram's
    index, sorted: found by trying all 2^N supports."""
    picks, marked = _reference_masks(catalog)
    every = np.arange(2 ** len(positive_roots(catalog[0].n)))[:, None]
    hit = ((every & ~picks) == 0) & ((every & marked) == marked)
    return [(int(x), int(j)) for x, j in zip(*np.nonzero(hit))]


def _mask_scan(orbit):
    """The canonical members of an orbit by the member x diagram mask scan:
    each member whose support lies inside a diagram's picks and holds its
    marked picks, as (label, constants)."""
    roots = list(positive_roots(orbit.n))
    catalog = enumerate_maximal(orbit.n)
    picks, marked = _reference_masks(catalog)
    members = _digits(orbit.codes, orbit.n, orbit.p)
    support = ((members != 0) @ (1 << np.arange(len(roots))))[:, None]
    hit = ((support & ~picks) == 0) & ((support & marked) == marked)
    return [(catalog[j].label,
             {r: int(members[i, roots.index(r)]) for r in catalog[j].xi})
            for i, j in zip(*np.nonzero(hit))]


def _table_pairs(table):
    """The (support, owner index) pairs of a support table, sorted."""
    return sorted((x, j) for x, owners in table.items() for j in owners)


class TestCatalogMasks:
    """The table of canonical supports (a bitmask each) with their owner
    diagrams is reused only for a catalog that holds the same subsets, by
    identity, and classifies as the member x diagram mask scan does."""

    def test_same_subsets_reuse_the_masks(self):
        from artifact import orbit_engine

        first = orbit_engine._support_table(5, tuple(enumerate_maximal(5)))
        again = orbit_engine._support_table(5, tuple(enumerate_maximal(5)))
        assert again is first
        assert _table_pairs(first) == \
            _reference_supports(enumerate_maximal(5))

    def test_other_subsets_rebuild_the_masks(self):
        from artifact import orbit_engine

        catalog = enumerate_maximal(5)
        equal_copies = [build_admissible(5, s.xi) for s in catalog]
        first = orbit_engine._support_table(5, tuple(catalog))
        for other in (catalog[::-1], catalog[:-1], catalog + catalog,
                      equal_copies):
            table = orbit_engine._support_table(5, tuple(other))
            assert table is not first
            assert _table_pairs(table) == _reference_supports(other)

    def test_table_holds_every_canonical_support(self):
        # One entry per (diagram, subset of its box picks): sum_s 2^#B.
        from artifact import orbit_engine

        sizes = {2: 2, 3: 5, 4: 16, 5: 61, 6: 275, 7: 1430}
        for n, size in sizes.items():
            catalog = enumerate_maximal(n)
            table = orbit_engine._support_table(n, tuple(catalog))
            assert len(_table_pairs(table)) == size == \
                sum(2 ** len(s.s_box) for s in catalog)
            if n <= 6:
                assert _table_pairs(table) == _reference_supports(catalog)

    @pytest.mark.parametrize("n,p", [(4, 5), (5, 3), (6, 2)])
    def test_answers_match_fresh_masks(self, n, p):
        from artifact import orbit_engine

        for orbit in all_orbits(n, p):
            s, c = orbit_engine._classify_orbit(orbit, "census")
            assert _mask_scan(orbit) == [(s.label, c)]
            assert _encode(canonical_form(s, c, p)) in orbit.codes.tolist()


class TestRegularIdeal:
    def test_corner_minors_cut_out_the_catalog_ideal(self):
        # The regular family is the catalog diagram (n,0,1): the corner
        # minors pinned to their values at its canonical form generate the
        # same ideal as build_ideal, each containing the other's
        # generators.
        from artifact.char_matrix import regular_minors
        from artifact.symbolic import IdealHandle, Polynomial, build_ideal, \
            evaluate

        for n in range(2, 8):
            s = next(x for x in enumerate_maximal(n) if x.label == (n, 0, 1))
            c = {r: Fraction(2 * k + 3, k + 2) for k, r in enumerate(s.xi)}
            f = canonical_form(s, c, p=None)
            minors = [m - Polynomial({(): evaluate(m, f)})
                      for m in regular_minors(n)]
            ideal = build_ideal(s, c)
            assert all(ideal.contains(m) for m in minors), n
            corner = IdealHandle.from_generators(n, minors,
                                                 invertible=[Root(n, 1)])
            assert all(corner.contains(g) for g in ideal.generators), n

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
        assert sorted(_encode(g) for g in matches) == orbit.codes.tolist()


class TestSubregular:
    def test_511_case1(self):
        s = build_admissible(5, CATALOG5[(5, 1, 1)]["seq"])
        c = {R(4, 1): 1, R(5, 2): 2, R(5, 4): 3}
        rec = subregular_classify(canonical_form(s, c))
        assert rec.case == "1"
        assert rec.j0 == 1

    def test_502_case2(self):
        s = build_admissible(5, CATALOG5[(5, 0, 2)]["seq"])
        c = {R(5, 1): 1, R(3, 2): 1, R(4, 3): 0}
        rec = subregular_classify(canonical_form(s, c))
        assert rec.case == "2"

    def test_411_case3a(self):
        s = build_admissible(4, CATALOG4[(4, 1, 1)]["seq"])
        c = {R(3, 1): 1, R(4, 2): 1, R(4, 3): 1}
        rec = subregular_classify(canonical_form(s, c))
        assert rec.case == "3a"

    def test_421_case3b(self):
        s = build_admissible(4, CATALOG4[(4, 2, 1)]["seq"])
        c = {R(2, 1): 1, R(4, 2): 1}
        rec = subregular_classify(canonical_form(s, c))
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
            subregular_classify(canonical_form(s, c))
        # A (diagram, constants) pair is not a form.
        with pytest.raises(TypeError, match="needs a LinearForm, got tuple"):
            subregular_classify((s, c))

    @staticmethod
    def _record_text(target):
        try:
            if isinstance(target, tuple):
                target = canonical_form(*target)
            rec = subregular_classify(target)
        except (NotSubregular, LemmaFailure) as exc:
            return f"{type(exc).__name__}: {exc}"
        return " ; ".join([rec.case, str(rec.j0), *map(poly_text, rec.system),
                           str(rec.cuts_exactly)])

    def test_golden_systems(self):
        """Case, j0, system texts and cut of every subregular diagram for
        n = 3..7 over Q, every box constant zero or not, given as (s, c)
        and as a form; every subregular orbit representative at (4, 3) and
        (5, 3); and the error of every other diagram."""
        lines = []
        for n in range(3, 8):
            target = n * (n - 1) // 2 - n // 2 - 2
            for s in enumerate_maximal(n):
                label = ",".join(map(str, s.label))
                if dimension(s) != target:
                    c = {r: 1 for r in s.xi}
                    for given in ((s, c), canonical_form(s, c)):
                        lines.append(f"{label}|{self._record_text(given)}")
                    continue
                boxes = [r for r in s.xi if r in s.s_box]
                for zeros in itertools.product((False, True),
                                               repeat=len(boxes)):
                    c = {r: k + 1 for k, r in enumerate(s.xi)}
                    c.update((r, 0) for r, z in zip(boxes, zeros) if z)
                    values = ",".join(str(c[r]) for r in s.xi)
                    for given in ((s, c), canonical_form(s, c)):
                        lines.append(
                            f"{label}|{values}|{self._record_text(given)}")
        for n, p in ((4, 3), (5, 3)):
            target = n * (n - 1) // 2 - n // 2 - 2
            for orbit in all_orbits(n, p):
                if len(orbit) == p ** target:
                    lines.append(f"{n},{p}|{orbit.representative!r}|"
                                 f"{self._record_text(orbit.representative)}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert len(lines) == 434
        assert digest == ("0bb82b00e2815f16aeb6a606acd94d98a3f8c3e50a9b52cd572"
                          "7d61afdd83ba0")


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

        monkeypatch.setattr(orbit_engine, "dimension", lambda s: 5)
        with pytest.raises(ClassificationMismatch, match=r"^stratum_max_dims "
                           r"at n=3, p=2: an orbit of label \(3, 1, 1\) has 1 "
                           r"states, not p\^5$"):
            stratum_max_dims(3, 2)
