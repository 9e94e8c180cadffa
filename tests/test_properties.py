"""Property-based invariants (hypothesis)."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from artifact.root_system import (
    Root,
    c_split,
    lex_greater,
    positive_roots,
    root_from_text,
    root_sum,
    root_to_text,
)
from artifact.admissible import build_admissible, dimension, enumerate_maximal
from artifact.symbolic import bracket, y_var
from artifact.orbit_engine import (
    LinearForm,
    GroupElement,
    canonical_form,
    classify,
    coadjoint_act,
    kirillov_rank,
    orbit_bfs,
    _generator_moves,
)
from artifact.char_matrix import w_eta

from conftest import R, b_chain, tau_split


def roots_strategy(n):
    return st.sampled_from(sorted(positive_roots(n), key=lambda r: (r.row, r.col)))


def poly_strategy(n, size=3):
    pairs = st.tuples(roots_strategy(n), st.integers(-3, 3))
    return st.lists(pairs, min_size=1, max_size=size).map(
        lambda items: sum((coef * y_var(r.row, r.col) for r, coef in items),
                          y_var(2, 1) * 0))


class TestOrderAndSums:
    @given(roots_strategy(6), roots_strategy(6))
    def test_lex_total_order(self, a, b):
        if a == b:
            assert not lex_greater(a, b) and not lex_greater(b, a)
        else:
            assert lex_greater(a, b) != lex_greater(b, a)

    @given(roots_strategy(7), roots_strategy(7))
    def test_root_sum_symmetric(self, a, b):
        assert root_sum(a, b) == root_sum(b, a)

    @given(roots_strategy(7))
    def test_serialization_round_trip(self, a):
        assert root_from_text(root_to_text(a)) == a


class TestSplitBalance:
    @given(st.integers(3, 7), st.data())
    @settings(max_examples=60)
    def test_split_pairs_up(self, n, data):
        labels = sorted(s.label for s in enumerate_maximal(n))
        label = data.draw(st.sampled_from(labels))
        s = next(x for x in enumerate_maximal(n) if x.label == label)
        for a_i, xi in zip(s.a_chain, s.xi):
            plus, minus = c_split(xi, a_i)
            assert len(plus) == len(minus)
            for gamma in plus:
                partner = next(
                    g for g in minus
                    if root_sum(gamma, g) == xi or root_sum(g, gamma) == xi)
                assert lex_greater(gamma, partner)

    @given(st.integers(3, 6))
    def test_b_chain_additive(self, n):
        for s in enumerate_maximal(n):
            for members in b_chain(s):
                for a in members:
                    for b in members:
                        total = root_sum(a, b)
                        if total is not None:
                            assert total in members


class TestBracketAxioms:
    @given(poly_strategy(4), poly_strategy(4))
    @settings(max_examples=30)
    def test_antisymmetry(self, f, g):
        assert bracket(f, g) == -bracket(g, f)

    @given(poly_strategy(4), poly_strategy(4), poly_strategy(4))
    @settings(max_examples=20)
    def test_jacobi(self, f, g, h):
        total = (bracket(f, bracket(g, h))
                 + bracket(g, bracket(h, f))
                 + bracket(h, bracket(f, g)))
        assert total == f * 0

    @given(poly_strategy(4), poly_strategy(4), poly_strategy(4))
    @settings(max_examples=20)
    def test_leibniz(self, f, g, h):
        assert bracket(f, g * h) == bracket(f, g) * h + g * bracket(f, h)


class TestOrbitInvariants:
    @given(st.integers(0, 3 ** 6 - 1), st.sampled_from([2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_orbit_size_is_p_to_rank(self, code, p):
        roots = sorted(positive_roots(4), key=lambda r: (r.row, r.col))
        vals = {}
        for k, r in enumerate(roots):
            vals[r] = (code // 3 ** k) % 3
        f = LinearForm(4, p, vals)
        assert len(orbit_bfs(f)) == p ** kirillov_rank(f)

    @given(st.integers(0, 2 ** 6 - 1), st.integers(0, 2 ** 6 - 1))
    @settings(max_examples=25, deadline=None)
    def test_classify_is_orbit_invariant(self, code, gcode):
        roots = sorted(positive_roots(4), key=lambda r: (r.row, r.col))
        vals = {r: (code >> k) & 1 for k, r in enumerate(roots)}
        entries = {(r.row, r.col): (gcode >> k) & 1
                   for k, r in enumerate(roots)}
        f = LinearForm(4, 2, vals)
        g = GroupElement(4, 2, entries)
        s1, c1 = classify(f)
        s2, c2 = classify(coadjoint_act(g, f))
        assert s1.label == s2.label and c1 == c2

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_canonical_round_trip(self, data):
        n = data.draw(st.sampled_from([3, 4]))
        p = data.draw(st.sampled_from([2, 3]))
        diagrams = sorted(enumerate_maximal(n), key=lambda s: s.label)
        s = data.draw(st.sampled_from(diagrams))
        c = {}
        for r, is_x in zip(s.xi, s.otimes_mask):
            lo = 1 if is_x else 0
            c[r] = data.draw(st.integers(lo, p - 1))
        f = canonical_form(s, c, p=p)
        s2, c2 = classify(f)
        assert s2.label == s.label
        assert c2 == c


def _dense_mul(a, b, p):
    n = len(a)
    out = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
           for i in range(n)]
    return [[v % p for v in row] for row in out] if p is not None else out


def _dense_inverse(m, p):
    """(I + N)^-1 = I - N + N^2 - ... for the nilpotent part N."""
    n = len(m)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    nil = [[m[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    acc, power = ident, ident
    for step in range(1, n):
        power = _dense_mul(power, nil, p)
        acc = [[x + (-1) ** step * y for x, y in zip(ra, rp)]
               for ra, rp in zip(acc, power)]
    return [[v % p for v in row] for row in acc] if p is not None else acc


def _dense_coadjoint(g, f):
    """The strictly upper part of g V g^-1 by plain triple loops, with
    V[col][row] = f(y_row,col)."""
    n, p = f.n, f.p
    val = [[0] * n for _ in range(n)]
    for root, v in f.values.items():
        val[root.col - 1][root.row - 1] = v
    conj = _dense_mul(_dense_mul(g.matrix, val, p),
                      _dense_inverse(g.matrix, p), p)
    return LinearForm(n, p, {Root(i + 1, j + 1): conj[j][i]
                             for j in range(n) for i in range(j + 1, n)})


@st.composite
def group_and_form(draw):
    n = draw(st.integers(2, 7))
    p = draw(st.sampled_from([2, 3, 5, 7, None]))
    scalar = (st.fractions(-4, 4, max_denominator=5) if p is None
              else st.integers(0, p - 1))
    roots = sorted(positive_roots(n), key=lambda r: (r.row, r.col))
    pick = st.lists(st.sampled_from(roots), unique=True, max_size=len(roots))
    g = GroupElement(n, p, {(r.row, r.col): draw(scalar)
                            for r in draw(pick)})
    f = LinearForm(n, p, {r: draw(scalar) for r in draw(pick)})
    return g, f


class TestGroupArithmetic:
    @given(group_and_form())
    @settings(max_examples=150)
    def test_coadjoint_act_matches_dense_conjugation(self, gf):
        g, f = gf
        assert coadjoint_act(g, f) == _dense_coadjoint(g, f)

    @given(group_and_form())
    @settings(max_examples=100)
    def test_inverse(self, gf):
        g, _f = gf
        n, p = g.n, g.p
        ident = GroupElement(n, p).matrix
        assert _dense_mul(g.matrix, g.inverse().matrix, p) == ident
        assert _dense_mul(g.inverse().matrix, g.matrix, p) == ident
        assert g.inverse().inverse().matrix == g.matrix
        assert g.inverse().matrix == _dense_inverse(g.matrix, p)


class TestTrustedActResult:
    """coadjoint_act builds its result without the validating constructor;
    the result must be the form that constructor would build."""

    @given(group_and_form())
    @settings(max_examples=150)
    def test_result_equals_validated_form(self, gf):
        g, f = gf
        for out in (coadjoint_act(g, f), coadjoint_act(g.inverse(),
                                                       coadjoint_act(g, f))):
            ref = LinearForm(out.n, out.p, out.values)
            assert out == ref and hash(out) == hash(ref)
            for root, v in out.values.items():
                assert 1 <= root.col < root.row <= out.n
                if out.p is None:
                    assert isinstance(v, Fraction) and v != 0
                else:
                    assert type(v) is int and 1 <= v < out.p


def _reference_moves(n, p):
    """The sparse generator moves, read off the dense conjugation of each
    basis form by each generator I + e_alpha, in root order."""
    roots = list(positive_roots(n))
    moves = []
    for gen in roots:
        g = GroupElement(n, p, {(gen.row, gen.col): 1})
        # image[k][i]: value at root i of basis form k moved by g.
        image = []
        for basis in roots:
            moved = _dense_coadjoint(g, LinearForm(n, p, {basis: 1}))
            image.append([moved.value(r) for r in roots])
        writes = [i for i in range(len(roots))
                  if any(image[k][i] != int(k == i)
                         for k in range(len(roots)))]
        if not writes:
            continue
        reads = [k for k in range(len(roots))
                 if any(image[k][i] != 0 for i in writes)]
        columns = [[image[k][i] for i in writes] for k in reads]
        moves.append((reads, columns, writes))
    return moves


class TestGeneratorMoves:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_dense_reference(self, n, p):
        size = n * (n - 1) // 2
        got = []
        for columns, read_scale, write_scale, at, drivers, fed in \
                _generator_moves(n, p):
            # The read roots are the drivers and the written roots.
            written = sum(bit for bit, _feeders in fed)
            reads = [k for k in range(size) if (drivers | written) >> k & 1]
            writes = [k for k in range(size) if written >> k & 1]
            got.append((reads, columns.T.tolist(), writes))
            # A written root is fed by each other read root that has a
            # nonzero coefficient in its row.
            assert fed == tuple(
                (1 << i, sum(1 << k for k, c in zip(reads, row)
                             if c and k != i))
                for i, row in zip(writes, columns.tolist()))
            assert read_scale.tolist() == \
                [[p ** (size - 1 - k)] for k in reads]
            assert write_scale.tolist() == \
                [p ** (size - 1 - k) for k in writes]
            assert [reads[a] for a in at.tolist()] == writes
        assert got == _reference_moves(n, p)


class TestWEtaInvariants:
    @given(st.data())
    @settings(max_examples=40)
    def test_q_and_d_match_row_sets(self, data):
        diagrams = sorted(enumerate_maximal(5), key=lambda s: s.label)
        s = data.draw(st.sampled_from(diagrams))
        roots = sorted(s.a_set, key=lambda r: (r.row, r.col))
        eta = data.draw(st.sampled_from(roots))
        w = w_eta(s, eta)
        j = eta.col
        base = set(range(1, j + 1))
        rows = set(w.rows)
        split = tau_split(s.n, tuple(range(1, j + 1)), w.rows)
        assert min(split) == len(base - rows)
        moved = sorted(rows)
        assert max(split) == sum(1 for m, i in enumerate(moved, start=1)
                                 if i > m)


class TestDimensionParity:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_even_dims(self, n):
        for s in enumerate_maximal(n):
            assert dimension(s) % 2 == 0
            assert dimension(s) == kirillov_rank(
                canonical_form(
                    s, {r: Fraction(i + 2) for i, r in enumerate(s.xi)}))
