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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .root_system import (
    Root,
    c_split,
    check_dimension,
    lex_greater,
    lex_sort_key,
    positive_roots,
)

__all__ = [
    "AdmissibleSubset", "InvalidChoice", "NotMaximal",
    "UnverifiedRegimeWarning", "build_admissible", "dimension",
    "enumerate_maximal", "is_maximal", "render_diagram",
]


class InvalidChoice(ValueError):
    """A choice sequence entry is illegal; .index is its 1-based slot."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class NotMaximal(ValueError):
    """The subset admits a proper admissible extension."""


class UnverifiedRegimeWarning(UserWarning):
    """Catalog sizes beyond n = 7 have no independent cross-check here."""


class AdmissibleSubset:
    """An immutable admissible choice sequence and its derived root tuples."""

    __slots__ = ("n", "xi", "otimes_mask", "a_chain", "a_set", "m_set",
                 "s_otimes", "s_box", "label")

    def __init__(self, n: int, xi: Tuple[Root, ...],
                 otimes_mask: Tuple[bool, ...],
                 a_chain: Sequence[Tuple[Root, ...]], label=None):
        a_set = a_chain[-1]
        chosen = set(xi)
        fields = {
            "n": n,
            "xi": xi,
            "otimes_mask": otimes_mask,
            "a_chain": tuple(a_chain),
            "a_set": a_set,
            "m_set": tuple(r for r in a_set if r not in chosen),
            "s_otimes": tuple(r for r, is_x in zip(xi, otimes_mask) if is_x),
            "s_box": tuple(r for r, is_x in zip(xi, otimes_mask) if not is_x),
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
        current = tuple(r for r in current if r not in plus and r not in minus)
        chain.append(current)
        xi.append(choice)
        mask.append(len(plus) > 0)
        prev = choice
    return AdmissibleSubset(n, tuple(xi), tuple(mask), chain)


def dimension(s: AdmissibleSubset) -> int:
    n = s.n
    total = n * (n - 1) // 2
    return total - len(s.a_set)


def render_diagram(s: AdmissibleSubset) -> List[str]:
    """The n rows of the diagram's ASCII grid: crosses, boxes, the +/- pair
    cells, and bullets.

    A pick's pair cells leave the working set, so no later pick or pair
    touches them.
    """
    n = s.n
    grid = [[" "] * n for _ in range(n)]
    for choice, is_x, stage in zip(s.xi, s.otimes_mask, s.a_chain):
        grid[choice.row - 1][choice.col - 1] = "X" if is_x else "B"
        for cells, mark in zip(c_split(choice, stage), "+-"):
            for r in cells:
                grid[r.row - 1][r.col - 1] = mark
    for r in s.m_set:
        grid[r.row - 1][r.col - 1] = "."
    return ["".join(row) for row in grid]


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


def _walk(xi: Tuple[Root, ...], mask: Tuple[bool, ...],
          chain: Tuple[Tuple[Root, ...], ...]) -> Iterator[tuple]:
    """Each maximal completion of a choice sequence, in catalog order, as
    (picks, cross mask, chain of working sets): take the greatest available
    root below the last pick; a box pick is forced, and a cross pick is
    also passed over for the next one.  A branch that passes over every
    remaining root yields nothing."""
    current = chain[-1]
    below = [r for r in current if not xi or lex_greater(xi[-1], r)]
    if not below:
        yield xi, mask, chain
    for r in below:
        plus, minus = c_split(r, current)
        rest = tuple(q for q in current if q not in plus and q not in minus)
        yield from _walk(xi + (r,), mask + (len(plus) > 0,), chain + (rest,))
        if not plus:
            break


@functools.lru_cache(maxsize=None)
def _catalog(n: int) -> Tuple[AdmissibleSubset, ...]:
    out = []
    k_serial: Dict[int, int] = {}
    for xi, mask, chain in _walk((), (), (positive_roots(n),)):
        k = sum(1 for r in chain[-1] if r.col == 1 and r not in xi)
        k_serial[k] = k_serial.get(k, 0) + 1
        out.append(AdmissibleSubset(n, xi, mask, chain,
                                    label=(n, k, k_serial[k])))
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

