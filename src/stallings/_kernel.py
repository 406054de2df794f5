"""Folding kernel.

Half-edges are integers 0..2m-1 with the involution ``e ^ 1``.  Labels
are nonzero ints with ``label[e ^ 1] == -label[e]``.  Folding merges any
two half-edges that share an initial vertex and a label, identifying
their far endpoints, until no such pair remains.

The kernel returns union-find representatives; it never renumbers.
Vertex merging uses a worklist with small-into-large adjacency merging,
so the total work is near linear in the number of half-edges.
"""

from __future__ import annotations

from .errors import InternalError


def fold(
    n_vertices: int, einit: list[int], elabel: list[int]
) -> tuple[list[int], list[int]]:
    """Fold completely; return (vertex_rep, half_edge_rep) arrays.

    ``vertex_rep[v]`` is the representative of v's class and
    ``half_edge_rep[e]`` the representative of e's class, with
    ``half_edge_rep[e ^ 1] == half_edge_rep[e] ^ 1``.
    """
    m2 = len(einit)
    vparent = list(range(n_vertices))
    eparent = list(range(m2))

    def vfind(v: int) -> int:
        root = v
        while vparent[root] != root:
            root = vparent[root]
        while vparent[v] != root:
            vparent[v], v = root, vparent[v]
        return root

    def efind(e: int) -> int:
        root = e
        while eparent[root] != root:
            root = eparent[root]
        while eparent[e] != root:
            eparent[e], e = root, eparent[e]
        return root

    # adjacency per vertex: label -> half-edge
    adj: list[dict[int, int] | None] = [dict() for _ in range(n_vertices)]
    pending: list[tuple[int, int]] = []
    for e in range(m2):
        v = einit[e]
        d = adj[v]
        l = elabel[e]
        if l in d:
            pending.append((d[l], e))
        else:
            d[l] = e

    def eunion(keep: int, gone: int) -> None:
        rk, rg = efind(keep), efind(gone)
        if rk != rg:
            eparent[rg] = rk
        rk1, rg1 = efind(keep ^ 1), efind(gone ^ 1)
        if rk1 != rg1:
            eparent[rg1] = rk1

    while pending:
        e, f = pending.pop()
        e, f = efind(e), efind(f)
        if e == f:
            continue
        eunion(e, f)
        a = vfind(einit[efind(e) ^ 1])
        b = vfind(einit[f ^ 1])
        if a == b:
            continue
        da, db = adj[a], adj[b]
        if da is None or db is None:
            raise InternalError("internal error: a fold root lost its adjacency")
        if len(da) < len(db):
            a, b = b, a
            da, db = db, da
        vparent[b] = a
        for l, g in db.items():
            g = efind(g)
            if l in da:
                h = efind(da[l])
                if h != g:
                    pending.append((h, g))
            else:
                da[l] = g
        adj[b] = None

    # point every non-root straight at its root; roots already do
    for v in [v for v, p in enumerate(vparent) if p != v]:
        vfind(v)
    for e in [e for e, p in enumerate(eparent) if p != e]:
        efind(e)
    return vparent, eparent
