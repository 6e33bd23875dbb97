"""Exhaustive generation of fixed polyominoes (distinct up to translation)."""

from __future__ import annotations

from functools import lru_cache

from .geometry import Polyomino

__all__ = ["MAX_ENUMERATION_CELLS", "enumerate_polyominoes"]

# Guard against accidental combinatorial blowups; the count grows roughly
# fourfold per extra cell.
MAX_ENUMERATION_CELLS = 10

_CellTuple = tuple[tuple[int, int], ...]


def _normalize(cells: frozenset[tuple[int, int]]) -> _CellTuple:
    lo_i = min(i for i, _ in cells)
    lo_j = min(j for _, j in cells)
    return tuple(sorted((i - lo_i, j - lo_j) for i, j in cells))


@lru_cache(maxsize=None)
def _fixed(n: int) -> tuple[_CellTuple, ...]:
    if n == 1:
        return (((0, 0),),)
    grown: set[_CellTuple] = set()
    for smaller in _fixed(n - 1):
        occupied = set(smaller)
        for i, j in smaller:
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb not in occupied:
                    grown.add(_normalize(frozenset(occupied | {nb})))
    return tuple(sorted(grown))


def enumerate_polyominoes(n: int) -> tuple[Polyomino, ...]:
    """All n-cell polyominoes anchored at the origin, in canonical order."""
    if not 1 <= n <= MAX_ENUMERATION_CELLS:
        raise ValueError(f"cell count {n} outside the range 1..{MAX_ENUMERATION_CELLS}")
    return tuple(Polyomino(cells) for cells in _fixed(n))
