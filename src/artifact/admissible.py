"""Admissible choice sequences, their diagrams, and the catalog walk.

A choice sequence picks roots in strictly decreasing order; each pick
removes from the working set every two-part decomposition of the picked
root (column parts and row parts).  A pick whose decomposition set is
nonempty is a "cross" pick, otherwise a "box" pick.  The surviving
working set is the closure; closure minus picks is the bullet set.
"""
from __future__ import annotations

import functools
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from .root_system import (
    InvalidDimension,
    Root,
    RootSet,
    c_split,
    check_dimension,
    lex_greater,
    lex_sort_key,
    positive_roots,
    root_to_json,
)


class InvalidChoice(ValueError):
    """A choice sequence entry is illegal; .index is its 1-based slot."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class NotMaximal(ValueError):
    """The subset admits a proper admissible extension."""


class InvalidInner(ValueError):
    """The inner diagram of an expansion must itself be maximal."""


class UnverifiedRegimeWarning(UserWarning):
    """Catalog sizes beyond n = 7 have no independent cross-check here."""


class AdmissibleSubset:
    """An immutable admissible choice sequence with its derived data."""

    __slots__ = ("n", "xi", "otimes_mask", "a_chain", "a_set", "m_set",
                 "s_otimes", "s_box", "label")

    def __init__(self, n: int, xi: Tuple[Root, ...],
                 otimes_mask: Tuple[bool, ...],
                 a_chain: Sequence[RootSet], label=None):
        a_set = a_chain[-1]
        chosen = set(xi)
        fields = {
            "n": n,
            "xi": xi,
            "otimes_mask": otimes_mask,
            "a_chain": tuple(a_chain),
            "a_set": a_set,
            "m_set": RootSet(n, (r for r in a_set if r not in chosen)),
            "s_otimes": RootSet(
                n, (r for r, is_x in zip(xi, otimes_mask) if is_x)),
            "s_box": RootSet(
                n, (r for r, is_x in zip(xi, otimes_mask) if not is_x)),
            "label": label,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("AdmissibleSubset is immutable")

    def __repr__(self):
        label = f" label={self.label}" if self.label else ""
        seq = ", ".join(repr(r) for r in self.xi)
        return f"AdmissibleSubset(n={self.n}, [{seq}]{label})"


def build_admissible(n: int, sequence: Sequence[Root]) -> AdmissibleSubset:
    """Validate a choice sequence and compute its chain of working sets."""
    current = positive_roots(n)
    chain = [current]
    xi: List[Root] = []
    mask: List[bool] = []
    prev: Optional[Root] = None
    for index, choice in enumerate(sequence, start=1):
        if not isinstance(choice, Root):
            raise InvalidChoice(f"entry {choice!r} is not a root", index)
        if choice not in current:
            raise InvalidChoice(
                f"{choice!r} is not available at slot {index}", index)
        if prev is not None and not lex_greater(prev, choice):
            raise InvalidChoice(
                f"{choice!r} does not decrease past {prev!r}", index)
        plus, minus = c_split(choice, current)
        current = current.difference(set(plus) | set(minus))
        chain.append(current)
        xi.append(choice)
        mask.append(len(plus) > 0)
        prev = choice
    return AdmissibleSubset(n, tuple(xi), tuple(mask), chain)


def dimension(s: AdmissibleSubset) -> int:
    n = s.n
    total = n * (n - 1) // 2
    return total - len(s.a_set)


class Diagram:
    """ASCII rendering of a diagram as an n-by-n character grid."""

    def __init__(self, rows: List[str]):
        self._rows = rows

    def ascii_rows(self) -> List[str]:
        return list(self._rows)

    def __str__(self) -> str:
        return "\n".join(self._rows)


def render_diagram(s: AdmissibleSubset, pair_order: str = "inc") -> Diagram:
    """Render crosses, boxes, the +/- pair cells, and bullets.

    ``pair_order`` chooses the scan direction over a pick's decompositions
    ("inc" or "dec"); the assignment is independent of it because the
    paired cells are disjoint across decompositions.
    """
    if pair_order not in ("inc", "dec"):
        raise ValueError(f"unknown pair order {pair_order!r}")
    n = s.n
    grid = [[" "] * n for _ in range(n)]
    for (choice, is_x), stage in zip(zip(s.xi, s.otimes_mask), s.a_chain):
        grid[choice.row - 1][choice.col - 1] = "X" if is_x else "B"
        middles = range(choice.col + 1, choice.row)
        if pair_order == "dec":
            middles = reversed(middles)
        for a in middles:
            gamma = Root(a, choice.col)
            delta = Root(choice.row, a)
            if gamma in stage and delta in stage:
                if (grid[gamma.row - 1][gamma.col - 1] != " "
                        or grid[delta.row - 1][delta.col - 1] != " "):
                    continue
                grid[gamma.row - 1][gamma.col - 1] = "+"
                grid[delta.row - 1][delta.col - 1] = "-"
    for r in s.m_set:
        grid[r.row - 1][r.col - 1] = "."
    return Diagram(["".join(row) for row in grid])


def diagram_to_json(s: AdmissibleSubset) -> dict:
    return {
        "n": s.n,
        "grid": render_diagram(s).ascii_rows(),
        "roots": [dict(root_to_json(r), kind="otimes" if is_x else "box")
                  for r, is_x in zip(s.xi, s.otimes_mask)],
    }


def _greedy_complete(n: int, prefix: Sequence[Root]) -> AdmissibleSubset:
    """Extend a choice sequence by always taking the greatest available
    root below the last pick, until nothing is available."""
    seq = list(prefix)
    s = build_admissible(n, seq)
    while True:
        last = seq[-1] if seq else None
        candidates = [r for r in s.a_set
                      if last is None or lex_greater(last, r)]
        if not candidates:
            return s
        # a_set iterates in decreasing order, so the first candidate is
        # the greatest one.
        seq.append(candidates[0])
        s = build_admissible(n, seq)


def is_maximal(s: AdmissibleSubset) -> bool:
    """No proper admissible superset exists."""
    return _is_maximal(s.n, tuple(s.xi))


@functools.lru_cache(maxsize=None)
def _is_maximal(n: int, xi: Tuple[Root, ...]) -> bool:
    # Maximality depends on the picks alone, so it is proved once per
    # (n, picks).
    chosen = set(xi)
    for r in positive_roots(n):
        if r in chosen:
            continue
        candidate = sorted(chosen | {r}, key=lex_sort_key)
        try:
            build_admissible(n, candidate)
        except InvalidChoice:
            continue
        return False
    return True


def sequence_successor(s: AdmissibleSubset) -> Optional[AdmissibleSubset]:
    """The next maximal subset in catalog order, or None at the end.

    Find the least cross pick, replace it by the greatest root available
    below it at that stage, and greedily re-complete the tail.
    """
    if not is_maximal(s):
        raise NotMaximal("successor is defined for maximal subsets only")
    return _successor(s)


def _successor(s: AdmissibleSubset) -> Optional[AdmissibleSubset]:
    # The catalog walk starts from a greedy completion and only ever
    # greedily re-completes, so maximality holds by construction there.
    cross_slots = [i for i, is_x in enumerate(s.otimes_mask) if is_x]
    if not cross_slots:
        return None
    slot = cross_slots[-1]  # picks are decreasing, so last cross is least
    stage = s.a_chain[slot]
    pivot = s.xi[slot]
    lower = [r for r in stage if lex_greater(pivot, r)]
    prev = s.xi[slot - 1] if slot else None
    lower = [r for r in lower if prev is None or lex_greater(prev, r)]
    if not lower:
        return None
    replacement = lower[0]
    return _greedy_complete(s.n, list(s.xi[:slot]) + [replacement])


@functools.lru_cache(maxsize=None)
def _catalog(n: int) -> Tuple[AdmissibleSubset, ...]:
    out = []
    k_serial: Dict[int, int] = {}
    s = _greedy_complete(n, [])
    while s is not None:
        k = sum(1 for r in s.m_set if r.col == 1)
        k_serial[k] = k_serial.get(k, 0) + 1
        out.append(AdmissibleSubset(n, s.xi, s.otimes_mask, s.a_chain,
                                    label=(n, k, k_serial[k])))
        s = _successor(s)
    return tuple(out)


def enumerate_maximal(n: int) -> List[AdmissibleSubset]:
    """All maximal subsets, in catalog order, with (n, k, m) labels.

    The catalog is built once per n; each call returns a fresh list of the
    same immutable subsets.
    """
    check_dimension(n)
    if n >= 8:
        warnings.warn(
            f"catalog for n = {n} is outside the cross-checked range",
            UnverifiedRegimeWarning, stacklevel=2)
    return list(_catalog(n))


def enumerate_maximal_by_search(n: int) -> List[AdmissibleSubset]:
    """Independent enumeration: exhaust all admissible sequences, group
    them by cross set, and take each group's union of picks."""
    check_dimension(n)
    groups = {}

    def record(seq: List[Root], s: AdmissibleSubset) -> None:
        key = frozenset(s.s_otimes)
        bucket = groups.setdefault(key, set())
        bucket.update(seq)

    def walk(seq: List[Root], s: AdmissibleSubset) -> None:
        record(seq, s)
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
        candidate = sorted(picks, key=lex_sort_key)
        try:
            s = build_admissible(n, candidate)
        except InvalidChoice:
            continue
        if frozenset(s.s_otimes) != key or not is_maximal(s):
            continue
        if s.xi in seen:
            continue
        seen.add(s.xi)
        out.append(s)
    return out


def star_expand(count: int, inner) -> AdmissibleSubset:
    """Grow a maximal diagram by ``count`` extra rows: shift the inner
    picks down-right by one, prepend the (2,1) pick, and greedily
    complete in the enlarged algebra."""
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"expansion count must be >= 1, got {count!r}")
    try:
        inner_n = inner.n
        inner_xi = tuple(inner.xi)
        rebuilt = build_admissible(inner_n, inner_xi)
    except (AttributeError, TypeError, InvalidChoice, InvalidDimension) as exc:
        raise InvalidInner(f"inner diagram is not admissible: {exc}") from exc
    if not is_maximal(rebuilt):
        raise InvalidInner("inner diagram is not maximal")
    seed = [Root(2, 1)] + [Root(r.row + 1, r.col + 1) for r in rebuilt.xi]
    return _greedy_complete(rebuilt.n + count, seed)
