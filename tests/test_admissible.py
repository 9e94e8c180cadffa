"""Oracle tests for diagram construction, rendering and enumeration."""
import pytest

from artifact.root_system import (
    InvalidDimension,
    Root,
    c_split,
    lex_greater,
    lex_sort_key,
    positive_roots,
)
from artifact.admissible import (
    InvalidChoice,
    UnverifiedRegimeWarning,
    build_admissible,
    dimension,
    enumerate_maximal,
    is_maximal,
    render_diagram,
)
from artifact.admissible import AdmissibleSubset, _walk

from conftest import (
    ANCHOR_634,
    ANCHOR_727,
    CATALOG3,
    CATALOG4,
    CATALOG5,
    CHAIN_ORDER5,
    MAXIMAL_COUNTS,
    R,
)

ALL_FROZEN = [(3, CATALOG3), (4, CATALOG4), (5, CATALOG5)]


def enumerate_maximal_by_search(n):
    """Independent enumeration, the oracle for the catalog walk: exhaust
    all admissible sequences, group them by cross set, and take each
    group's union of picks."""
    groups = {}

    def walk(seq, s):
        groups.setdefault(frozenset(s.s_otimes), set()).update(seq)
        last = seq[-1] if seq else None
        for r in s.a_set:
            if last is not None and not lex_greater(last, r):
                continue
            seq.append(r)
            walk(seq, build_admissible(n, seq))
            seq.pop()

    walk([], build_admissible(n, []))
    out = []
    seen = set()
    for key, picks in groups.items():
        try:
            s = build_admissible(n, sorted(picks, key=lex_sort_key))
        except InvalidChoice:
            continue
        if frozenset(s.s_otimes) != key or not is_maximal(s):
            continue
        if s.xi in seen:
            continue
        seen.add(s.xi)
        out.append(s)
    return out


class InvalidInner(ValueError):
    """The inner diagram of an expansion must itself be maximal."""


def star_expand(count, inner):
    """Grow a maximal diagram by ``count`` extra rows: shift the inner
    picks down-right by one, prepend the (2,1) pick, and greedily
    complete in the enlarged algebra: the catalog walk's first completion
    of the seed."""
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"expansion count must be >= 1, got {count!r}")
    try:
        rebuilt = build_admissible(inner.n, tuple(inner.xi))
    except (AttributeError, TypeError, InvalidChoice, InvalidDimension) as exc:
        raise InvalidInner(f"inner diagram is not admissible: {exc}") from exc
    if not is_maximal(rebuilt):
        raise InvalidInner("inner diagram is not maximal")
    seed = [R(2, 1)] + [R(r.row + 1, r.col + 1) for r in rebuilt.xi]
    start = build_admissible(rebuilt.n + count, seed)
    xi, mask, chain = next(_walk(start.xi, start.otimes_mask, start.a_chain))
    return AdmissibleSubset(start.n, xi, mask, chain)


class TestBuildAdmissible:
    def test_single_root_n3(self):
        s = build_admissible(3, [R(3, 1)])
        assert s.xi == (R(3, 1),)
        assert s.otimes_mask == (True,)
        assert set(s.s_otimes) == {R(3, 1)}
        assert set(s.a_set) == {R(3, 1)}
        assert set(s.m_set) == set()

    def test_invalid_choice_reports_position(self):
        with pytest.raises(InvalidChoice) as exc:
            build_admissible(3, [R(3, 1), R(2, 1)])
        assert exc.value.index == 2

    def test_not_lex_decreasing_rejected(self):
        with pytest.raises(InvalidChoice) as exc:
            build_admissible(4, [R(3, 2), R(4, 1)])
        assert exc.value.index == 2

    def test_repeat_rejected(self):
        with pytest.raises(InvalidChoice):
            build_admissible(4, [R(3, 1), R(3, 1)])

    @pytest.mark.parametrize("n,catalog", ALL_FROZEN)
    def test_frozen_catalog_replay(self, n, catalog):
        for label, entry in catalog.items():
            s = build_admissible(n, entry["seq"])
            assert s.xi == tuple(entry["seq"])
            mask = "".join("X" if f else "B" for f in s.otimes_mask)
            assert mask == entry["mask"], label
            assert set(s.m_set) == set(entry["m"]), label

    def test_chain_endpoints(self):
        s = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"])
        assert set(s.a_chain[0]) == set(positive_roots(5))
        assert set(s.a_chain[-1]) == set(s.a_set)
        # A(S) for (5,2,1): 10 roots minus the four removed pair members.
        removed = {R(2, 1), R(3, 2), R(4, 2), R(5, 4)}
        assert set(s.a_set) == set(positive_roots(5)) - removed

    def test_empty_sequence(self):
        s = build_admissible(4, [])
        assert s.xi == ()
        assert set(s.a_set) == set(positive_roots(4))

    def test_anchor_634(self):
        s = build_admissible(6, ANCHOR_634["seq"])
        mask = "".join("X" if f else "B" for f in s.otimes_mask)
        assert mask == ANCHOR_634["mask"]
        assert set(s.m_set) == set(ANCHOR_634["m"])
        removed = {R(2, 1), R(3, 2), R(4, 2), R(5, 4)}
        assert set(s.a_set) == set(positive_roots(6)) - removed

    def test_anchor_727(self):
        s = build_admissible(7, ANCHOR_727["seq"])
        mask = "".join("X" if f else "B" for f in s.otimes_mask)
        assert mask == ANCHOR_727["mask"]
        assert set(s.m_set) == set(ANCHOR_727["m"])


class TestRenderDiagram:
    @pytest.mark.parametrize("n,catalog", ALL_FROZEN)
    def test_frozen_grids(self, n, catalog):
        for label, entry in catalog.items():
            s = build_admissible(n, entry["seq"])
            assert render_diagram(s) == entry["grid"], label

    def test_anchor_grids(self):
        s6 = build_admissible(6, ANCHOR_634["seq"])
        assert render_diagram(s6) == ANCHOR_634["grid"]
        s7 = build_admissible(7, ANCHOR_727["seq"])
        assert render_diagram(s7) == ANCHOR_727["grid"]

    def test_plus_minus_balance(self):
        for n, catalog in ALL_FROZEN:
            for entry in catalog.values():
                rows = render_diagram(build_admissible(n, entry["seq"]))
                joined = "".join(rows)
                assert joined.count("+") == joined.count("-")

    def test_pair_order_independence(self):
        # The +/- cells are the union of every pick's split of its stage,
        # and no cell is in two pairs, so no scan order can change them.
        for n, catalog in ALL_FROZEN + [(6, {0: ANCHOR_634}), (7, {0: ANCHOR_727})]:
            for entry in catalog.values():
                s = build_admissible(n, entry["seq"])
                rows = render_diagram(s)
                splits = [c_split(choice, stage)
                          for choice, stage in zip(s.xi, s.a_chain)]
                cells = [r for split in splits for side in split for r in side]
                assert len(cells) == len(set(cells))
                for mark, side in (("+", 0), ("-", 1)):
                    marked = {Root(i, j) for i, row in enumerate(rows, 1)
                              for j, ch in enumerate(row, 1) if ch == mark}
                    assert marked == {r for split in splits
                                      for r in split[side]}

    def test_sub_subset_bullets(self):
        # Dropping trailing choices turns their cells into bullets but keeps
        # every other symbol in place.
        full = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"])
        ref = render_diagram(full)
        for k in (2, 3):
            part = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"][:k])
            rows = render_diagram(part)
            for r_full, r_part in zip(ref, rows):
                for ch_full, ch_part in zip(r_full, r_part):
                    if ch_part != ch_full:
                        assert ch_full == "B" and ch_part == "."


class TestDimension:
    @pytest.mark.parametrize("n,catalog", ALL_FROZEN)
    def test_frozen(self, n, catalog):
        for label, entry in catalog.items():
            s = build_admissible(n, entry["seq"])
            assert dimension(s) == entry["dim"], label

    def test_anchors(self):
        assert dimension(build_admissible(6, ANCHOR_634["seq"])) == 4
        assert dimension(build_admissible(7, ANCHOR_727["seq"])) == 10

    def test_equals_root_count_difference(self):
        for n, catalog in ALL_FROZEN:
            total = n * (n - 1) // 2
            for entry in catalog.values():
                s = build_admissible(n, entry["seq"])
                assert dimension(s) == total - len(s.a_set)

    def test_even(self):
        for n, catalog in ALL_FROZEN:
            for entry in catalog.values():
                assert dimension(build_admissible(n, entry["seq"])) % 2 == 0


class TestEnumerateMaximal:
    @pytest.mark.parametrize("n,catalog", ALL_FROZEN)
    def test_catalogs(self, n, catalog):
        out = enumerate_maximal(n)
        assert len(out) == len(catalog)
        for s in out:
            assert s.label in catalog
            assert s.xi == tuple(catalog[s.label]["seq"]), s.label

    def test_n2(self):
        out = enumerate_maximal(2)
        assert len(out) == 1
        assert out[0].label == (2, 0, 1)
        assert out[0].xi == (R(2, 1),)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts(self, n):
        assert len(enumerate_maximal(n)) == MAXIMAL_COUNTS[n]

    def test_label_k_nondecreasing(self):
        for n in range(2, 8):
            ks = [s.label[1] for s in enumerate_maximal(n)]
            assert ks == sorted(ks)

    def test_chain_order_n5(self):
        assert [s.label for s in enumerate_maximal(5)] == CHAIN_ORDER5

    def test_anchor_labels(self):
        cat6 = {s.label: s for s in enumerate_maximal(6)}
        assert cat6[(6, 3, 4)].xi == tuple(ANCHOR_634["seq"])
        cat7 = {s.label: s for s in enumerate_maximal(7)}
        assert cat7[(7, 2, 7)].xi == tuple(ANCHOR_727["seq"])

    def test_point_count_identity_polynomial(self):
        # Summing (q-1)^{#otimes} * q^{#box + dim} over the catalog must give
        # q^{n(n-1)/2}; checking at many integer points pins the polynomial.
        for n in range(2, 8):
            cat = enumerate_maximal(n)
            total = n * (n - 1) // 2
            for q in range(2, 2 + total + 2):
                acc = 0
                for s in cat:
                    acc += ((q - 1) ** len(s.s_otimes)
                            * q ** (len(s.s_box) + dimension(s)))
                assert acc == q ** total, (n, q)

    def test_full_recursion_agrees(self):
        for n in range(2, 8):
            a = {s.xi for s in enumerate_maximal_by_search(n)}
            b = {s.xi for s in enumerate_maximal(n)}
            assert a == b

    def test_unverified_regime_warns(self):
        with pytest.warns(UnverifiedRegimeWarning):
            enumerate_maximal(8)

    def test_invalid(self):
        with pytest.raises(InvalidDimension):
            enumerate_maximal(1)


class TestStarExpand:
    def test_one_column(self):
        inner = build_admissible(3, CATALOG3[(3, 0, 1)]["seq"])
        out = star_expand(1, inner)
        assert out.xi == tuple(CATALOG4[(4, 2, 1)]["seq"])

    def test_two_columns(self):
        inner = build_admissible(3, CATALOG3[(3, 0, 1)]["seq"])
        out = star_expand(2, inner)
        assert out.xi == tuple(CATALOG5[(5, 3, 2)]["seq"])

    def test_star_family_matches_previous_catalog(self):
        # The k = n-2 block of the catalog is exactly the expansion of the
        # full catalog one size down, in chain order.
        for n in (4, 5, 6, 7):
            block = [s for s in enumerate_maximal(n) if s.label[1] == n - 2]
            prev = enumerate_maximal(n - 1)
            assert len(block) == len(prev)
            for outer, inner in zip(block, prev):
                assert star_expand(1, inner).xi == outer.xi

    def test_invalid_inner(self):
        class Fake:
            n = 3
            xi = (R(3, 1), R(3, 2))

        with pytest.raises(InvalidInner):
            star_expand(1, Fake())

    def test_invalid_count(self):
        inner = build_admissible(3, CATALOG3[(3, 0, 1)]["seq"])
        with pytest.raises(ValueError):
            star_expand(0, inner)


class TestRootOrder:
    def test_every_root_set_is_decreasing(self):
        from artifact.orbit_engine import polarization

        def decreasing(roots):
            return tuple(roots) == tuple(sorted(roots, key=lex_sort_key))

        for n in range(2, 8):
            for s in enumerate_maximal(n):
                sets = [s.xi, *s.a_chain, s.a_set, s.m_set, s.s_otimes,
                        s.s_box, polarization(s)]
                for roots in sets:
                    assert isinstance(roots, tuple), s.label
                    assert decreasing(roots), (s.label, roots)
                for stage in s.a_chain:
                    for r in stage:
                        plus, minus = c_split(r, stage)
                        assert decreasing(plus) and decreasing(minus)
