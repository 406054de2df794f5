"""Folding kernel: a batch fold read off the lay.

Half-edges are integers 0..2m-1 with the involution ``e ^ 1``.  Labels
are nonzero ints with ``label[e ^ 1] == -label[e]``.  Folding merges any
two half-edges that share an initial vertex and a label, identifying
their far endpoints, until no such pair remains.  Each edge is laid as a
one-letter path by :func:`graph._lay_paths`, which folds as it lays, and
the answer is read off the lay.  No library function calls the kernel.
"""

from __future__ import annotations

from . import graph


def fold(n_vertices: int, einit: list[int], elabel: list[int]) -> tuple[list[int], list[int]]:
    """Fold completely; return (vertex_rep, half_edge_rep) arrays.

    A vertex's representative is the least member of its class, and a
    half-edge's is the first half-edge that starts in the same class with
    the same label, so ``half_edge_rep[e ^ 1] == half_edge_rep[e] ^ 1``.
    """
    rank = max(elabel, default=0)  # labels come in pairs c, -c
    merged = graph._lay_paths(rank, n_vertices, graph._edge_paths(einit, elabel))[4]
    vrep = list(range(n_vertices)) if merged is None else merged[0]
    keys = [vrep[v] * (2 * rank + 1) + c for v, c in zip(einit, elabel)]
    first: dict[int, int] = {}  # a key -> the first half-edge with it
    return vrep, [first.setdefault(k, e) for e, k in enumerate(keys)]
