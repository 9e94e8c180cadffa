"""Oracle tests for the root-system layer."""
import pytest

from artifact.root_system import (
    InvalidDimension,
    NotMember,
    Root,
    c_split,
    lex_greater,
    lex_sort_key,
    positive_roots,
    root_bracket,
    root_from_text,
    root_sum,
    root_to_text,
    structure_constants,
)

from conftest import B_CHAIN_521, CATALOG5, R, b_chain


class NotSubset(ValueError):
    """First argument is required to be contained in the second."""


def is_additive(rs):
    """Closed under root sums."""
    return all(s in rs for a in rs for b in rs
               if (s := root_sum(a, b)) is not None)


def is_normal(sub, ambient):
    """sub absorbs ambient: any root sum from sub + ambient landing in
    ambient must land in sub."""
    if not set(sub) <= set(ambient):
        raise NotSubset("first set must be contained in the second")
    return all(s not in ambient or s in sub
               for a in sub for b in ambient
               if (s := root_sum(a, b)) is not None)


def restrict(rs, xi):
    """xi together with the members of rs strictly inside its span."""
    if xi not in rs:
        raise NotMember(f"{xi!r} is not in the set")
    return [r for r in rs if r == xi
            or (r.col > xi.col and r.row < xi.row)]


class TestPositiveRoots:
    def test_n2(self):
        assert set(positive_roots(2)) == {R(2, 1)}

    def test_n5_size(self):
        assert len(positive_roots(5)) == 10

    def test_n7(self):
        roots = positive_roots(7)
        assert len(roots) == 21
        assert R(7, 1) in roots
        assert R(4, 3) in roots
        assert R(3, 4) not in roots

    def test_members_strictly_lower(self):
        for root in positive_roots(6):
            assert root.row > root.col

    @pytest.mark.parametrize("bad", [0, 1, -3, "7", 7.0, None, [7]])
    def test_invalid_dimension(self, bad):
        # Checked before the per-n cache, so on every call.
        for _ in range(3):
            with pytest.raises(InvalidDimension):
                positive_roots(bad)

    def test_iteration_is_lex_decreasing(self):
        roots = list(positive_roots(5))
        for a, b in zip(roots, roots[1:]):
            assert lex_greater(a, b)

    def test_cached_per_n(self):
        for n in range(2, 8):
            first = positive_roots(n)
            assert positive_roots(n) is first
            # Column-major, greatest root first, as an uncached build.
            expected = [R(i, j) for j in range(1, n) for i in range(n, j, -1)]
            assert list(first) == expected
            assert list(positive_roots(n)) == expected
        with pytest.raises(TypeError):
            positive_roots(5)[0] = R(2, 1)
        assert positive_roots(5)[0] == R(5, 1)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_first_column_leads(self, n):
        # A packed code's n - 1 leading digits are the first column, from
        # the bottom row up: the strata suite reads a code's stratum there.
        assert positive_roots(n)[:n - 1] == tuple(
            Root(row, 1) for row in range(n, 1, -1))


class TestRootTuple:
    def test_hashes_and_compares_as_its_pair(self):
        # The same hash as the (row, col) pair, so dict and set orders
        # match a root type that hashed that pair.
        for r in positive_roots(7):
            assert r == (r.row, r.col) and hash(r) == hash((r.row, r.col))
        assert Root(3, 1) == (3, 1) and Root(3, 1) < Root(3, 2)
        assert repr(Root(3, 1)) == "Root(3,1)"


class TestLexOrder:
    def test_examples(self):
        assert lex_greater(R(5, 1), R(4, 2))
        assert lex_greater(R(4, 1), R(3, 1))
        assert not lex_greater(R(3, 2), R(3, 2))
        assert not lex_greater(R(4, 2), R(5, 1))

    def test_max_root(self):
        n = 6
        top = R(n, 1)
        for other in positive_roots(n):
            if other != top:
                assert lex_greater(top, other)

    def test_sort_key_consistency(self):
        roots = sorted(positive_roots(7), key=lex_sort_key)
        for a, b in zip(roots, roots[1:]):
            assert lex_greater(a, b)


class TestRootSum:
    def test_chain(self):
        assert root_sum(R(3, 1), R(5, 3)) == R(5, 1)
        assert root_sum(R(5, 3), R(3, 1)) == R(5, 1)

    def test_simple(self):
        assert root_sum(R(2, 1), R(3, 2)) == R(3, 1)

    def test_non_root(self):
        assert root_sum(R(3, 1), R(4, 2)) is None
        assert root_sum(R(2, 1), R(2, 1)) is None

    def test_epsilon_arithmetic(self):
        # (i,j) stands for e_j - e_i; the sum is a root exactly when the
        # epsilon-vectors add to another difference of that shape.
        n = 6
        roots = list(positive_roots(n))

        def vec(r):
            v = [0] * (n + 1)
            v[r.col] += 1
            v[r.row] -= 1
            return tuple(v)

        table = {vec(r): r for r in roots}
        for a in roots:
            for b in roots:
                s = tuple(x + y for x, y in zip(vec(a), vec(b)))
                assert root_sum(a, b) == table.get(s)


class TestRootBracket:
    def test_antisymmetric_and_on_root_sum(self):
        # {y_ij, y_kl} = [j=k] y_il - [l=i] y_kj, for every pair, n <= 7.
        for n in range(2, 8):
            for a in positive_roots(n):
                for b in positive_roots(n):
                    got = root_bracket(a, b)
                    if a.col == b.row:
                        want = (1, Root(a.row, b.col))
                    elif b.col == a.row:
                        want = (-1, Root(b.row, a.col))
                    else:
                        want = None
                    assert got == want, (a, b)
                    assert (got and got[1]) == root_sum(a, b)
                    back = root_bracket(b, a)
                    assert (got is None) == (back is None)
                    if got is not None:
                        assert back == (-got[0], got[1])

    def test_structure_constants_index_the_roots(self):
        # One entry per root, in positive_roots order; each lists every
        # nonzero bracket of the root, partners in positive_roots order.
        for n in range(2, 8):
            roots = list(positive_roots(n))
            table = structure_constants(n)
            assert list(table) == roots
            for a in roots:
                assert [b for b, _sign, _c in table[a]] == [
                    b for b in roots if root_bracket(a, b) is not None]
                for b, sign, c in table[a]:
                    assert (sign, c) == root_bracket(a, b)
            # The central root (n, 1) brackets to zero with every root, so
            # its Kirillov-matrix row is zero and the rank stays below N.
            assert table[Root(n, 1)] == ()
            assert structure_constants(n) is table


class TestIsAdditive:
    def test_full_system(self):
        assert is_additive(positive_roots(5))

    def test_broken(self):
        assert not is_additive(frozenset([R(3, 1), R(5, 3)]))

    def test_empty(self):
        assert is_additive(frozenset())


class TestIsNormal:
    def test_bullet_set_is_normal(self):
        a = frozenset([R(3, 1), R(4, 1), R(5, 1), R(5, 2), R(5, 3), R(4, 3)])
        m = frozenset([R(4, 1), R(5, 1)])
        assert is_normal(m, a)

    def test_not_normal(self):
        a = frozenset([R(2, 1), R(3, 2), R(3, 1)])
        m = frozenset([R(2, 1)])
        # (2,1) + (3,2) = (3,1) lies in A but not in M.
        assert not is_normal(m, a)

    def test_not_subset(self):
        a = frozenset([R(2, 1)])
        m = frozenset([R(3, 2)])
        with pytest.raises(NotSubset):
            is_normal(m, a)

    def test_catalog_bullet_sets(self):
        from artifact.admissible import build_admissible

        for entry in CATALOG5.values():
            s = build_admissible(5, entry["seq"])
            assert is_normal(s.m_set, s.a_set)


class TestCSplit:
    def test_n3_example(self):
        plus, minus = c_split(R(3, 1), positive_roots(3))
        assert set(plus) == {R(2, 1)}
        assert set(minus) == {R(3, 2)}

    def test_simple_root_empty(self):
        plus, minus = c_split(R(2, 1), positive_roots(5))
        assert len(plus) == 0 and len(minus) == 0

    def test_n5_top(self):
        plus, minus = c_split(R(5, 1), positive_roots(5))
        assert set(plus) == {R(2, 1), R(3, 1), R(4, 1)}
        assert set(minus) == {R(5, 2), R(5, 3), R(5, 4)}

    def test_balance_and_pairing(self):
        for n in (4, 5, 6, 7):
            full = positive_roots(n)
            for xi in full:
                plus, minus = c_split(xi, full)
                assert len(plus) == len(minus)
                for gamma in plus:
                    partner = root_sum_complement(xi, gamma)
                    assert partner in minus

    def test_plus_members_lex_dominate_partner(self):
        full = positive_roots(6)
        for xi in full:
            plus, minus = c_split(xi, full)
            for gamma in plus:
                partner = root_sum_complement(xi, gamma)
                assert lex_greater(gamma, partner)

    def test_not_member(self):
        a = frozenset([R(2, 1), R(3, 2)])
        with pytest.raises(NotMember):
            c_split(R(4, 1), a)


def root_sum_complement(xi, gamma):
    """The unique root delta with gamma + delta = xi."""
    if gamma.col == xi.col:
        return R(xi.row, gamma.row)
    return R(gamma.col, xi.col)


class TestRestrict:
    def test_n3(self):
        out = restrict(positive_roots(3), R(3, 1))
        assert set(out) == {R(3, 1)}

    def test_n5(self):
        out = restrict(positive_roots(5), R(5, 1))
        assert set(out) == {R(5, 1), R(3, 2), R(4, 2), R(4, 3)}

    def test_result_additive(self):
        for n in (4, 5, 6):
            full = positive_roots(n)
            for xi in full:
                assert is_additive(restrict(full, xi))

    def test_not_member(self):
        with pytest.raises(NotMember):
            restrict(frozenset([R(2, 1)]), R(5, 1))


class TestColumnsAndChain:
    def test_521_chain(self):
        from artifact.admissible import build_admissible

        s = build_admissible(5, CATALOG5[(5, 2, 1)]["seq"])
        bs = b_chain(s)
        assert len(bs) == 5
        for t, expected in B_CHAIN_521.items():
            assert bs[t - 1] == expected

    def test_empty_subset(self):
        from artifact.admissible import build_admissible

        s = build_admissible(5, [])
        bs = b_chain(s)
        for t in range(1, 6):
            assert set(bs[t - 1]) == {r for r in positive_roots(5)
                                      if r.col >= t}

    def test_chain_is_decreasing_to_empty(self):
        from artifact.admissible import build_admissible

        for entry in CATALOG5.values():
            s = build_admissible(5, entry["seq"])
            bs = b_chain(s)
            for a, b in zip(bs, bs[1:]):
                assert set(b) <= set(a)
            assert len(bs[-1]) == 0

    def test_n3_regular(self):
        from artifact.admissible import build_admissible

        s = build_admissible(3, [R(3, 1)])
        bs = b_chain(s)
        assert set(bs[1]) == set()


class TestSerialization:
    def test_text_round_trip(self):
        assert root_to_text(R(5, 2)) == "5,2"
        assert root_from_text("5,2") == R(5, 2)

    def test_bad_text(self):
        with pytest.raises(ValueError):
            root_from_text("2,5")
