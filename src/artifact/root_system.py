"""Root combinatorics for the strictly lower-triangular nilpotent algebra.

A root is an off-diagonal matrix position (row, col) with row > col; it
stands for the elementary matrix e_{row,col} and, dually, for the
coordinate function y_{row,col}.  The total order used everywhere is the
column-major order: a root is greater when its column is smaller, and
within a column when its row is larger.  The greatest root of the n-by-n
algebra is (n, 1).
"""
from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple, Optional, Tuple

__all__ = [
    "InvalidDimension", "NotMember", "Root", "c_split",
    "check_dimension", "lex_greater", "lex_sort_key", "positive_roots",
    "root_bracket", "root_from_text", "root_sum", "root_to_text",
    "structure_constants",
]

class InvalidDimension(ValueError):
    """Matrix size must be an integer >= 2."""


def check_dimension(n) -> None:
    """Raise InvalidDimension unless n is an integer >= 2."""
    if not isinstance(n, int) or n < 2:
        raise InvalidDimension(f"matrix size must be >= 2, got {n!r}")


class NotMember(ValueError):
    """The distinguished root must belong to the given set."""


class Root(NamedTuple):
    """A root; it hashes, compares and unpacks as the tuple (row, col)."""
    row: int
    col: int

    def __repr__(self) -> str:  # compact, used in assertion messages
        return f"Root({self.row},{self.col})"


def lex_greater(a: Root, b: Root) -> bool:
    """Strict column-major comparison."""
    if a.col != b.col:
        return a.col < b.col
    return a.row > b.row


def lex_sort_key(r: Root):
    """Sort key: ascending order of this key is descending root order."""
    return (r.col, -r.row)


def positive_roots(n: int) -> Tuple[Root, ...]:
    """All strictly lower positions of the n-by-n matrix in decreasing
    order: one shared tuple per n.  Every set of roots in this package is
    a tuple in this order."""
    check_dimension(n)
    return _positive_roots(n)


@lru_cache(maxsize=None)
def _positive_roots(n: int) -> Tuple[Root, ...]:
    return tuple(Root(i, j) for j in range(1, n) for i in range(n, j, -1))


def root_sum(a: Root, b: Root) -> Optional[Root]:
    """The root a + b when the sum is again a root, else None."""
    if a.col == b.row:
        return Root(a.row, b.col)
    if b.col == a.row:
        return Root(b.row, a.col)
    return None


def root_bracket(a: Root, b: Root) -> Optional[tuple]:
    """(sign, c) with {y_a, y_b} = sign * y_c in the Lie-Poisson
    structure {y_ij, y_kl} = [j=k] y_il - [l=i] y_kj, else None."""
    c = root_sum(a, b)
    if c is None:
        return None
    return (1 if a.col == b.row else -1), c


@lru_cache(maxsize=None)
def structure_constants(n: int) -> MappingProxyType:
    """The Lie-Poisson table of size n: for each positive root a, every
    (b, sign, c) with {y_a, y_b} = sign * y_c nonzero, b in
    ``positive_roots`` order.  One shared read-only table per n."""
    roots = positive_roots(n)
    return MappingProxyType({a: tuple((b,) + rb for b in roots
                                      if (rb := root_bracket(a, b)))
                             for a in roots})


def c_split(xi: Root, rs) -> tuple:
    """Split the two-part decompositions of xi inside the container rs.

    Returns (plus, minus), each a tuple in decreasing order: for every
    intermediate index a with both parts (a, xi.col) and (xi.row, a) in rs,
    the column part goes to plus and the row part to minus.  Column parts
    are the greater member of each pair.
    """
    if xi not in rs:
        raise NotMember(f"{xi!r} is not in the set")
    mids = [a for a in range(xi.col + 1, xi.row)
            if Root(a, xi.col) in rs and Root(xi.row, a) in rs]
    return (tuple(Root(a, xi.col) for a in reversed(mids)),
            tuple(Root(xi.row, a) for a in mids))


def root_to_text(r: Root) -> str:
    return f"{r.row},{r.col}"


def root_from_text(text: str) -> Root:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'row,col', got {text!r}")
    row, col = (int(p.strip()) for p in parts)
    if row <= col or col < 1:
        raise ValueError(f"not a strictly lower position: {text!r}")
    return Root(row, col)

