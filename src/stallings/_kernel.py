"""Folding kernel: a batch fold on the lay's union-find.

Half-edges are integers 0..2m-1 with the involution ``e ^ 1``.  Labels
are nonzero ints with ``label[e ^ 1] == -label[e]``.  Folding merges any
two half-edges that share an initial vertex and a label, identifying
their far endpoints, until no such pair remains.

The half-edges are keyed by (initial vertex, label) in order; each one
that repeats a kept key is the same edge as the kept one, so its pair
is dropped and its far end queued against the kept one's.  The queue
then runs through :func:`graph._identify`, the union-find fold that
:func:`graph._lay_paths` uses, so the work stays near linear in the
number of half-edges.  The kernel returns representatives; it never
renumbers.  No library function calls it.
"""

from __future__ import annotations

from . import graph


def fold(
    n_vertices: int, einit: list[int], elabel: list[int]
) -> tuple[list[int], list[int]]:
    """Fold completely; return (vertex_rep, half_edge_rep) arrays.

    ``vertex_rep[v]`` is the representative of v's class and
    ``half_edge_rep[e]`` the representative of e's class, with
    ``half_edge_rep[e ^ 1] == half_edge_rep[e] ^ 1``.
    """
    width = 2 * max(elabel, default=0) + 1  # labels come in pairs c, -c
    tail = list(einit)  # a dropped half-edge starts at -1
    out: list[list[int]] = [[] for _ in range(n_vertices)]
    step: dict[int, int] = {}  # vertex * width + label -> the kept half-edge
    queue: list[tuple[int, int]] = []
    for e, v in enumerate(einit):
        if tail[e] < 0:
            continue
        c = elabel[e]
        f = step.setdefault(v * width + c, e)
        if f == e:
            out[v].append(e)
        else:  # e is f's edge: drop e's pair, and identify their far ends
            if e & 1:  # the pair came first and was kept
                del step[einit[e ^ 1] * width - c]
            tail[e] = tail[e ^ 1] = -1
            queue.append((einit[e ^ 1], einit[f ^ 1]))
    rep: dict[int, int] = {}
    for x, y in queue:
        graph._identify(step, tail, elabel, width, out, rep, x, y)
    vrep = list(range(n_vertices))
    for v in rep:
        vrep[v] = graph._find(rep, v)
    # a kept half-edge stands for its class; a dropped one, for the one
    # kept at its initial vertex's class with its label
    erep = list(range(len(einit)))
    for e in [e for e, v in enumerate(tail) if v < 0]:
        erep[e] = step[vrep[einit[e]] * width + elabel[e]]
    return vrep, erep
