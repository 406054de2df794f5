"""Labeled graphs in the sense of Serre, folding, trimming, and morphisms.

A graph is a set of half-edges closed under a fixed-point-free involution
``e <-> e ^ 1``, an initial-vertex map, and a labeling into the signed
letters of an alphabet with ``label(e ^ 1) == label(e)^-1``, stored as
the alphabet's integer codes (so ``label(e ^ 1) == -label(e)``).  Graphs
may carry a base point.  All graphs here are finite and connected.

Graphs are frozen after construction; every operation returns new values.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, compress
from operator import index
from typing import Iterable, Sequence

from .errors import (
    AlphabetMismatchError,
    DisconnectedGraphError,
    InternalError,
    MissingBaseError,
    NotFoldedError,
    UnknownGeneratorError,
)
from .words import Alphabet, _check_labels, _Value


class LabeledGraph:
    """An immutable labeled graph, optionally pointed.

    Half-edges are ``0..2m-1``; the involution is ``e ^ 1``.  Even
    half-edges carry the orientation chosen at construction time.
    """

    __slots__ = (
        "alphabet", "n_vertices", "einit", "elabel", "base", "_out", "_lookup", "_heads", "_chains"
    )

    def __init__(
        self,
        alphabet: Alphabet,
        n_vertices: int,
        einit: tuple[int, ...],
        elabel: tuple[int, ...],
        base: int | None = None,
        _validate: bool = True,
    ):
        if _validate:  # tuples of its own: the caller's lists cannot change it later
            einit, elabel = tuple(einit), tuple(elabel)
        self.alphabet = alphabet
        self.n_vertices = n_vertices
        self.einit = einit
        self.elabel = elabel
        self.base = base
        self._out: list[list[int]] | None = None
        self._lookup: dict[int, int] | None = None
        self._heads: list[dict[int, int]] | None = None
        self._chains: tuple[list[int], list[tuple]] | list[int] | None = None  # or a lay's
        if _validate:
            self._validate()

    def _validate(self) -> None:
        if self.n_vertices <= 0:
            raise DisconnectedGraphError("a graph needs at least one vertex")
        if len(self.einit) != len(self.elabel) or len(self.einit) % 2:
            raise UnknownGeneratorError("half-edge arrays must pair up")
        rank = len(self.alphabet)
        for e in range(0, len(self.einit), 2):
            c = self.elabel[e]
            if self.elabel[e + 1] != -c:
                raise UnknownGeneratorError("labels must invert across the involution")
            if not 0 < abs(c) <= rank:
                raise UnknownGeneratorError(f"label {c!r} outside the alphabet")
        for v in self.einit:
            if not 0 <= v < self.n_vertices:
                raise DisconnectedGraphError("half-edge at a missing vertex")
        if self.base is not None and not 0 <= self.base < self.n_vertices:
            raise DisconnectedGraphError("base point is not a vertex")
        if len(_bfs_order(self, 0)[0]) != self.n_vertices:
            raise DisconnectedGraphError("graph is not connected")

    # -- basic structure ------------------------------------------------

    @property
    def n_half_edges(self) -> int:
        return len(self.einit)

    @property
    def n_edges(self) -> int:
        """Number of geometric edges (half-edge pairs)."""
        return len(self.einit) // 2

    def head(self, e: int) -> int:
        """Endpoint of a half-edge: the initial vertex of its reverse."""
        return self.einit[e ^ 1]

    def _out_lists(self) -> list[list[int]]:
        """Per vertex, the half-edges leaving it, in half-edge order.

        Built on first use and kept; every traversal reads this one table.
        """
        out = self._out
        if out is None:
            out = [[] for _ in range(self.n_vertices)]
            for e, w in enumerate(self.einit):
                out[w].append(e)
            self._out = out
        return out

    def out_edges(self, v: int) -> list[int]:
        return self._out_lists()[v]

    def degree(self, v: int) -> int:
        return len(self._out_lists()[v])

    def is_folded(self) -> bool:
        """No two half-edges share an initial vertex and a label."""
        return len(set(zip(self.einit, self.elabel))) == len(self.einit)

    def _edge_table(self) -> dict[int, int]:
        """``v * (2r + 1) + code`` -> the half-edge leaving v with that label.

        For folded graphs; r is the alphabet's rank, so each vertex owns
        the keys of the codes ``-r..r``.  :func:`_lay_paths` keys its own
        dict so, and a 2-core laid without renumbering keeps that dict as
        this table.  Built on first use and kept otherwise; ``edge_at`` and
        ``extend_morphism`` read it.  Two half-edges with one initial
        vertex and one label share an entry, so a table with fewer
        entries than half-edges shows the graph is not folded.
        """
        if self._lookup is None:
            width = 2 * len(self.alphabet) + 1
            table = {
                w * width + c: e for e, (w, c) in enumerate(zip(self.einit, self.elabel))
            }
            if len(table) != len(self.einit):
                raise NotFoldedError("label lookup needs a folded graph")
            self._lookup = table
        return self._lookup

    def _head_table(self) -> list[dict[int, int]]:
        """Per vertex, label code -> the head of the half-edge leaving it (folded graphs).

        Built on first use and kept, with ``_edge_table``'s fold check;
        only :func:`trace` reads it, so a walk takes one lookup per code
        and a graph that is only walked, such as a subgroup's core graph
        under membership queries, builds no half-edge table.
        """
        if self._heads is None:
            einit, elabel = self.einit, self.elabel
            table: list[dict[int, int]] = [{} for _ in range(self.n_vertices)]
            for e, w in enumerate(einit):
                table[w][elabel[e]] = einit[e ^ 1]
            if sum(map(len, table)) != len(einit):
                raise NotFoldedError("label lookup needs a folded graph")
            self._heads = table
        return self._heads

    def edge_at(self, v: int, code: int) -> int | None:
        """The unique half-edge at v with the given label code (folded graphs).

        A v that is no vertex, None too, raises ``DisconnectedGraphError``;
        one that is no int, such as 0.0, raises ``TypeError``.  A code
        outside the alphabet finds nothing.
        """
        table = self._edge_table()
        if v is None or not 0 <= v < self.n_vertices:
            raise DisconnectedGraphError(f"{v} is not a vertex")
        rank = len(self.alphabet)
        if code not in range(-rank, rank + 1):  # its key is another vertex's
            return None
        return table.get(index(v) * (2 * rank + 1) + code)

    def _chain_table(self) -> tuple[list[int], list[tuple]]:
        """Branch vertices (the base, degree not two; 0 on a bare cycle) and the
        chains ``(u, w, word, inner)``: labels and inner vertices of paths
        between them.  A lay kept as laid hands over its chains' bounds
        (:func:`_fold_paths`).  Readers take any superset of branch vertices."""
        einit, elabel, bounds = self.einit, self.elabel, self._chains
        if isinstance(bounds, list):  # a lay's: each chain is the even half-edges between two
            chains = [
                (einit[a], einit[b - 1], elabel[a:b:2], einit[a + 1 : b - 2 : 2])
                for a, b in zip(bounds, bounds[1:])
            ]
            ends = {v for chain in chains for v in chain[:2]} | {self.base} - {None}
            self._chains = sorted(ends), chains
        elif bounds is None:
            out = self._out_lists()
            branch = [len(es) != 2 for es in out]
            if self.base is not None or not any(branch):
                branch[self.base or 0] = True
            done, chains = bytearray(len(einit) // 2), []  # the edges of the chains found
            for u in compress(range(self.n_vertices), branch):
                for e in out[u]:
                    if not done[e >> 1]:  # else found from its other end
                        word, inner, w = [elabel[e]], [], einit[e ^ 1]
                        while not branch[w]:
                            inner.append(w)
                            a, b = out[w]
                            e = b if a == e ^ 1 else a  # on, not back
                            word.append(elabel[e])
                            w = einit[e ^ 1]
                        done[e >> 1] = 1
                        chains.append((u, w, word, inner))
            self._chains = list(compress(range(self.n_vertices), branch)), chains
        return self._chains

    def is_core(self) -> bool:
        """Folded, and every vertex except the base has degree > 1."""
        if not self.is_folded():
            return False
        base = self.base
        return all(len(es) > 1 or v == base for v, es in enumerate(self._out_lists()))

    def unbased(self) -> "LabeledGraph":
        """The same graph without a base point.

        No table depends on the base, so the copy shares those built.
        """
        g = LabeledGraph(
            self.alphabet, self.n_vertices, self.einit, self.elabel, None, _validate=False
        )
        g._out, g._lookup, g._heads, g._chains = self._out, self._lookup, self._heads, self._chains
        return g

    def __eq__(self, other) -> bool:
        """Structural equality: same vertices, half-edges, labels, base."""
        return (
            isinstance(other, LabeledGraph)
            and self.alphabet is other.alphabet
            and self.n_vertices == other.n_vertices
            and self.einit == other.einit
            and self.elabel == other.elabel
            and self.base == other.base
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.n_vertices, self.einit, self.elabel, self.base))

    def __repr__(self) -> str:
        b = f", base={self.base}" if self.base is not None else ""
        return f"LabeledGraph({self.n_vertices} vertices, {self.n_edges} edges{b})"


def _spell(
    einit: list[int], elabel: list[int], u: int, v: int, codes: Sequence[int], fresh: int
) -> int:
    """Append a path from vertex u to vertex v spelling the codes.

    Interior vertices are numbered ``fresh, fresh + 1, ...``; returns the
    first vertex number left unused.
    """
    inner = range(fresh, fresh + max(len(codes) - 1, 0))
    for tail, head, c in zip((u, *inner), (*inner, v), codes):
        einit += (tail, head)
        elabel += (c, -c)
    return inner.stop


def bouquet(alphabet: Alphabet, words: Iterable[Sequence[int]]) -> LabeledGraph:
    """A wedge of loop paths at a common base, one loop per nonempty code word."""
    einit: list[int] = []
    elabel: list[int] = []
    n = 1
    for codes in words:
        if codes:
            _check_labels(alphabet, codes)
            n = _spell(einit, elabel, 0, 0, codes, n)
    return LabeledGraph(alphabet, n, tuple(einit), tuple(elabel), 0, _validate=False)


# -- morphisms ----------------------------------------------------------


class GraphMorphism:
    """A label-preserving structure-preserving map between labeled graphs."""

    __slots__ = ("source", "target", "vmap", "emap")

    def __init__(
        self,
        source: LabeledGraph,
        target: LabeledGraph,
        vmap: tuple[int, ...],
        emap: tuple[int, ...],
        _validate: bool = True,
    ):
        if _validate:  # tuples of its own, as a checked graph keeps
            vmap, emap = tuple(vmap), tuple(emap)
        self.source = source
        self.target = target
        self.vmap = vmap
        self.emap = emap
        if _validate:
            self._validate()

    def _validate(self) -> None:
        g, d = self.source, self.target
        if len(self.vmap) != g.n_vertices or len(self.emap) != g.n_half_edges:
            raise AlphabetMismatchError("morphism arrays have wrong lengths")
        if min(self.vmap) < 0 or max(self.vmap) >= d.n_vertices:
            raise AlphabetMismatchError("morphism maps a vertex outside its target")
        if self.emap and (min(self.emap) < 0 or max(self.emap) >= d.n_half_edges):
            raise AlphabetMismatchError("morphism maps a half-edge outside its target")
        labels = d.alphabet.recode(g.elabel, g.alphabet)
        for e, fe in enumerate(self.emap):
            if self.emap[e ^ 1] != fe ^ 1:
                raise AlphabetMismatchError("morphism breaks the involution")
            if d.einit[fe] != self.vmap[g.einit[e]]:
                raise AlphabetMismatchError("morphism breaks initial vertices")
            if d.elabel[fe] != labels[e]:
                raise AlphabetMismatchError("morphism breaks labels")
        if g.base is not None and d.base is not None and self.vmap[g.base] != d.base:
            raise AlphabetMismatchError("morphism does not preserve the base point")

    def compose(self, other: "GraphMorphism") -> "GraphMorphism":
        """self after other (other's target must equal self's source)."""
        if other.target != self.source:
            raise AlphabetMismatchError("morphisms do not compose")
        vmap = tuple(self.vmap[v] for v in other.vmap)
        emap = tuple(self.emap[e] for e in other.emap)
        return GraphMorphism(other.source, self.target, vmap, emap, _validate=False)

    def __repr__(self) -> str:
        return f"GraphMorphism({self.source!r} -> {self.target!r})"


class MorphismClassification(_Value):
    vertex_injective: bool
    edge_injective: bool
    vertex_surjective: bool
    edge_surjective: bool
    __match_args__ = _fields = (
        "vertex_injective", "edge_injective", "vertex_surjective", "edge_surjective"
    )

    def __init__(
        self,
        vertex_injective: bool,
        edge_injective: bool,
        vertex_surjective: bool,
        edge_surjective: bool,
    ):
        object.__setattr__(self, "vertex_injective", vertex_injective)
        object.__setattr__(self, "edge_injective", edge_injective)
        object.__setattr__(self, "vertex_surjective", vertex_surjective)
        object.__setattr__(self, "edge_surjective", edge_surjective)

    @property
    def injective(self) -> bool:
        return self.vertex_injective and self.edge_injective

    @property
    def surjective(self) -> bool:
        return self.vertex_surjective and self.edge_surjective


def classify(f: GraphMorphism) -> MorphismClassification:
    """Injectivity and surjectivity of a morphism, on vertices and edges."""
    vimage = set(f.vmap)
    eimage = set(f.emap)
    return MorphismClassification(
        len(vimage) == len(f.vmap),  # vertex_injective
        len(eimage) == len(f.emap),  # edge_injective
        len(vimage) == f.target.n_vertices,  # vertex_surjective
        len(eimage) == f.target.n_half_edges,  # edge_surjective
    )


def extend_morphism(
    g: LabeledGraph, d: LabeledGraph, seed_vertex: int, seed_image: int
) -> GraphMorphism | None:
    """Label-driven extension of ``seed_vertex -> seed_image`` to a morphism.

    Requires the target to be folded, which makes the extension unique if
    it exists; returns None when some half-edge has no image or images
    clash.  A seed that is not a vertex of its graph raises
    ``DisconnectedGraphError``, and one that is no int ``TypeError``.
    """
    if not 0 <= seed_vertex < g.n_vertices:
        raise DisconnectedGraphError(f"seed {seed_vertex} is not a vertex")
    if not 0 <= seed_image < d.n_vertices:
        raise DisconnectedGraphError(f"seed image {seed_image} is not a vertex")
    labels = d.alphabet.recode(g.elabel, g.alphabet)  # 0 where d has no such name
    table, out, ginit, dinit = d._edge_table(), g._out_lists(), g.einit, d.einit
    width = 2 * len(d.alphabet) + 1
    vmap = [-1] * g.n_vertices
    emap = [-1] * g.n_half_edges
    vmap[seed_vertex] = index(seed_image)
    stack = [seed_vertex]
    while stack:
        v = stack.pop()
        key = vmap[v] * width
        for e in out[v]:
            fe = table.get(key + labels[e])
            if fe is None:
                return None
            if emap[e] == -1:
                emap[e] = fe
                emap[e ^ 1] = fe ^ 1
            elif emap[e] != fe:
                return None
            w, fw = ginit[e ^ 1], dinit[fe ^ 1]
            if vmap[w] == -1:
                vmap[w] = fw
                stack.append(w)
            elif vmap[w] != fw:
                return None
    return GraphMorphism(g, d, tuple(vmap), tuple(emap), _validate=False)


def unique_pointed_morphism(g: LabeledGraph, d: LabeledGraph) -> GraphMorphism | None:
    """The unique base-preserving morphism between folded pointed graphs."""
    if g.base is None or d.base is None:
        raise MissingBaseError("both graphs need base points")
    if not g.is_folded():
        raise NotFoldedError("source must be folded")
    return extend_morphism(g, d, g.base, d.base)


def _isomorphism(g: LabeledGraph, d: LabeledGraph, v: int, w: int) -> GraphMorphism | None:
    """The isomorphism g -> d sending vertex v to w, or None (d folded).

    A morphism out of a connected graph into a folded one is fixed by
    one vertex's image, so one extension from v decides it.
    """
    if g.alphabet is not d.alphabet or (g.n_vertices, g.n_half_edges) != (
        d.n_vertices, d.n_half_edges
    ):
        return None
    m = extend_morphism(g, d, v, w)
    if m is None or len(set(m.vmap)) != d.n_vertices or len(set(m.emap)) != d.n_half_edges:
        return None
    return m


def unpointed_isomorphic(g: LabeledGraph, d: LabeledGraph) -> bool:
    """Is there a label-preserving isomorphism, ignoring base points?"""
    return any(_isomorphism(g, d, 0, w) is not None for w in range(d.n_vertices))


def iso_pointed(g: LabeledGraph, d: LabeledGraph) -> bool:
    """True iff there is a base-preserving isomorphism (source folded)."""
    if g.base is None or d.base is None:
        raise MissingBaseError("both graphs need base points")
    if not g.is_folded():
        raise NotFoldedError("source must be folded")
    return _isomorphism(g, d, g.base, d.base) is not None


# -- folding / trimming / core ---------------------------------------


def _edge_paths(einit: Sequence[int], elabel: Sequence[int]) -> list[tuple[int, int, tuple[int]]]:
    """Each edge as a one-letter path ``(tail, head, (label,))`` to lay."""
    return [(u, v, (c,)) for u, v, c in zip(einit[::2], einit[1::2], elabel[::2])]


def fold_all(g: LabeledGraph) -> tuple[LabeledGraph, GraphMorphism]:
    """Fold completely; return the folded graph and the quotient morphism.

    g's edges are laid as one-letter paths (:func:`_lay_paths`), so each
    class of vertices keeps its least number's place and each edge is
    the one laid first.  Vertex 0 is the least of its class, so the
    quotient is the extension of 0 to 0.
    """
    paths = _edge_paths(g.einit, g.elabel)
    einit, elabel, n, _, merged, _ = _lay_paths(len(g.alphabet), g.n_vertices, paths)
    cls, vertices, edges = merged or (range(n), range(n), range(0, len(einit), 2))
    base = None if g.base is None else cls[g.base]
    folded = _renumber(g.alphabet, einit, elabel, base, vertices, edges)
    quotient = extend_morphism(g, folded, 0, 0)
    if quotient is None:
        raise InternalError("internal error: a graph does not map onto its fold")
    return folded, quotient


def _peel(
    einit: Sequence[int],
    vertices: Sequence[int],
    edges: Sequence[int],
    protect: int | None,
) -> tuple[Sequence[int], Sequence[int], list[int]]:
    """Iteratively drop degree<=1 vertices (except ``protect``).

    The graph is given by the initial vertex of every half-edge, its
    live vertices and the even half-edge of each live edge (both
    ascending); half-edges of other edges are ignored.  Returns (kept
    vertices, kept even half-edges, dropped half-edges); each dropped
    half-edge leaves the vertex it removes, in removal order, so on a
    pointed core graph peeled with ``protect=None`` the dropped list is
    the hanging path from the base.  When nothing is dropped, the given
    vertices and edges come back as they are.  If everything would
    disappear, the first vertex is kept so the result stays a graph.
    """
    size = vertices[-1] + 1
    deg = [0] * size  # live degree; -1 once the vertex is dropped
    # XOR of a vertex's live out-half-edges: at degree 1, its only one
    out = [0] * size
    for e in edges:
        v, w = einit[e], einit[e ^ 1]
        deg[v] += 1
        deg[w] += 1
        out[v] ^= e
        out[w] ^= e ^ 1
    dropped: list[int] = []
    queue = [v for v in vertices if deg[v] <= 1 and v != protect]
    if not queue:
        return vertices, edges, dropped
    while queue:
        v = queue.pop()
        if deg[v] == 1:
            e = out[v]
            dropped.append(e)
            w = einit[e ^ 1]
            out[w] ^= e ^ 1
            deg[w] -= 1
            if deg[w] <= 1 and w != protect:
                queue.append(w)
        deg[v] = -1
    kept_v = [v for v in vertices if deg[v] >= 0] or [vertices[0]]
    # an edge outlives the peel exactly when both its endpoints do
    kept_e = [e for e in edges if deg[einit[e]] >= 0 and deg[einit[e ^ 1]] >= 0]
    return kept_v, kept_e, dropped


def _whole(g: LabeledGraph) -> tuple[Sequence[int], range, range]:
    """All of ``g`` as :func:`_peel` takes a graph."""
    return g.einit, range(g.n_vertices), range(0, g.n_half_edges, 2)


def _renumber(
    alphabet: Alphabet,
    einit: Sequence[int],
    elabel: Sequence[int],
    base: int | None,
    kept_v: Sequence[int],
    kept_e: Sequence[int],
) -> LabeledGraph:
    """The graph on the kept vertices and even half-edges, in list order.

    ``kept_v`` is ascending and holds every endpoint of a kept edge.
    """
    vnew = [0] * (kept_v[-1] + 1)
    for i, v in enumerate(kept_v):
        vnew[v] = i
    halves = [h for e in kept_e for h in (e, e ^ 1)]
    return LabeledGraph(
        alphabet,
        len(kept_v),
        tuple([vnew[einit[h]] for h in halves]),
        tuple([elabel[h] for h in halves]),
        None if base is None else vnew[base],
        _validate=False,
    )


def trim_all(g: LabeledGraph) -> LabeledGraph:
    """Remove hanging edges until every non-base vertex has degree > 1."""
    kept_v, kept_e, dropped = _peel(*_whole(g), g.base)
    if not dropped:
        return g
    return _renumber(g.alphabet, g.einit, g.elabel, g.base, kept_v, kept_e)


def two_core(g: LabeledGraph) -> LabeledGraph:
    """Drop the base point and trim; every remaining vertex has degree > 1.

    A graph whose fundamental group is trivial collapses to one vertex.
    """
    if not g.is_folded():
        raise NotFoldedError("the unbased core needs a folded graph")
    return trim_all(g.unbased())


def core(g: LabeledGraph) -> LabeledGraph:
    """Fold, then trim, preserving the fundamental group.

    A folded graph is trimmed and comes back as itself when nothing
    hangs.  Otherwise g's edges are laid as one-letter paths and folded
    as they are laid (:func:`_fold_paths`).  A subgraph of a folded
    graph is folded, so trimming never undoes the fold.
    """
    if g.is_folded():
        return trim_all(g)
    return _fold_paths(g.alphabet, g.n_vertices, _edge_paths(g.einit, g.elabel), g.base)


def _find(rep: dict[int, int], v: int) -> int:
    """The representative of v's class, pointing v's chain straight at it."""
    root = v
    while (w := rep.get(root)) is not None:
        root = w
    while v != root:
        rep[v], v = root, rep[v]
    return root


def _identify(
    step: dict[int, int],
    einit: list[int],
    elabel: list[int],
    width: int,
    out: list[list[int]],
    rep: dict[int, int],
    x: int,
    y: int,
) -> None:
    """Identify vertices x and y of a lay, and fold until it is folded again.

    Stallings folding with a queue of pending merges.  Each merge moves
    the half-edges of the vertex with the shorter out-list onto the
    other, re-keying their ``step`` entries, and ``rep`` maps the
    absorbed vertex to the other.  A moved half-edge that finds one with
    its label there is the same edge: of the two, the edge laid first
    stays, the other's pair leaves ``step`` with initial vertices -1,
    and their far ends are queued for a merge.  So every kept half-edge
    starts at a representative, and the lay can read on.
    """
    queue = [(x, y)]
    while queue:
        a, b = queue.pop()
        a, b = _find(rep, a), _find(rep, b)
        if a == b:
            continue
        if len(out[a]) > len(out[b]):
            a, b = b, a
        rep[a] = b
        into = out[b]
        for e in out[a]:
            if einit[e] < 0:  # dropped
                continue
            c = elabel[e]
            del step[a * width + c]
            einit[e] = b
            f = step.get(b * width + c)
            if f is None or e < f:  # the edge laid first stays
                step[b * width + c] = e
                into.append(e)
                if f is None:
                    continue
                e, f = f, e
            # e and f are one edge now: drop e's pair and identify their far ends
            p = einit[e ^ 1]
            del step[p * width - c]
            einit[e] = einit[e ^ 1] = -1
            queue.append((p, einit[f ^ 1]))
        out[a] = []


# a lay: half-edge arrays, vertex count, the given vertices' degrees, the
# identified graph (None when nothing was identified) and the laid half-edges' dict
_Lay = tuple[
    list[int], list[int], int, list[int],
    tuple[list[int], list[int], list[int]] | None, dict[int, int],
]


def _lay_paths(
    rank: int,
    n_vertices: int,
    paths: Iterable[tuple[int, int, Sequence[int]]],
    lay: _Lay | None = None,
) -> _Lay:
    """Vertices ``0..n_vertices-1`` joined by paths, folded as spelled.

    Each path ``(u, v, codes)`` spells a reduced code word over an
    alphabet of the given rank from u to v, and an empty one joins its
    two ends.  The caller checks the codes: one out of range would alias
    another's key here.  A path is read forward from u and backward from v along the
    edges laid so far, and only its unread middle is spelled, on fresh
    vertices numbered in spelling order; a middle that starts and ends
    at one vertex lays its cancelling ends once, as a stem.  So the
    graph stays folded, and while nothing is identified only the given
    vertices can hang.  When the two reads meet at different vertices,
    or an empty path's ends differ, :func:`_identify` merges them and folds
    what the merge makes meet; later paths are read from their ends'
    classes.  Returns the half-edge arrays, the vertex count, the
    degrees of the given vertices, the identified graph (None when
    nothing was identified), and the dict of the laid half-edges; when
    nothing was identified, that dict is the graph's
    :meth:`LabeledGraph._edge_table`.  The identified graph is each laid
    vertex's class, named by its least lay number, which the initial
    vertices of the kept half-edges are rewritten to, then the kept
    vertices and the kept even half-edges, both ascending; a dropped
    half-edge starts at -1.  Any vertex, given or fresh, can hang then,
    and the degrees mean nothing.  Given ``lay``, one it returned for the
    same given vertices with nothing identified, it spells the paths on
    in that lay's lists and dict and returns them, as if the paths had
    followed the lay's own in one call.
    """
    width = 2 * rank + 1
    if lay is None:
        step: dict[int, int] = {}  # vertex * width + code -> the half-edge leaving there
        einit: list[int] = []
        elabel: list[int] = []
        deg = [0] * n_vertices  # degrees of the given vertices
        n = n_vertices
    else:  # nothing identified: the lists, the count and the dict are the whole state
        einit, elabel, n, deg, _, step = lay
    rep: dict[int, int] | None = None  # absorbed vertex -> toward its class's representative
    out: list[list[int]] = []  # per vertex, its half-edges, once anything is identified
    for u, v, codes in paths:
        if rep:
            u, v = _find(rep, u), _find(rep, v)
        i, j, x, y = 0, len(codes), u, v
        while i < j and (h := step.get(x * width + codes[i])) is not None:
            x, i = einit[h ^ 1], i + 1
        while j > i and (h := step.get(y * width - codes[j - 1])) is not None:
            y, j = einit[h ^ 1], j - 1
        if i == j:
            if x != y:
                if rep is None:
                    rep = {}
                    out = [[] for _ in range(n)]
                    for e, w in enumerate(einit):
                        out[w].append(e)
                _identify(step, einit, elabel, width, out, rep, x, y)
            continue
        s = 0  # the stem: cancelling ends of a middle from x back to x
        while x == y and codes[i + s] == -codes[j - 1 - s]:
            s += 1
        # the first s edges lay the stem, the rest loop back to its tip;
        # the last s codes walk the stem back and lay nothing
        inner = range(n, n + j - s - i - 1)
        end = inner[s - 1] if s else y
        first = h = len(einit)
        for a, b, c in zip((x, *inner), (*inner, end), codes[i : j - s]):
            einit += (a, b)
            elabel += (c, -c)
            step[a * width + c] = h
            step[b * width - c] = h + 1
            h += 2
        n = inner.stop
        if rep is not None:
            out += [[] for _ in inner]
            for e in range(first, h):
                out[einit[e]].append(e)
        if x < n_vertices:
            deg[x] += 1
        if end < n_vertices:
            deg[end] += 1
    if rep is None:
        return einit, elabel, n, deg, None, step
    cls = list(range(n))  # each vertex's class, by its least member
    for a in rep:
        r = _find(rep, a)  # and now rep[a] == r
        if a < cls[r]:
            cls[r] = a
    for a in rep:
        cls[a] = cls[rep[a]]
    einit = [w if w < 0 else cls[w] for w in einit]
    vertices = [v for v in range(n) if cls[v] == v]
    edges = [e for e in range(0, len(einit), 2) if einit[e] >= 0]
    return einit, elabel, n, deg, (cls, vertices, edges), step


def _lay_sparse(
    rank: int, n_vertices: int, paths: Iterable[tuple[int, int, Sequence[int]]], bounds: list[int]
) -> _Lay:
    """The lay of :func:`_lay_paths`, for a caller that drops its dict: one of the middles' ends.

    A middle lays one edge more than vertices, so the k-th middle's
    fresh vertex x leaves along it by half-edge ``2 * (x - n_vertices +
    k + 1)`` and the one before, and a read goes on there by arithmetic
    where the dict misses.  Each middle adds to ``bounds`` its first
    half-edge, one at its stem's tip and one at each fresh vertex where
    a read of its path stopped.  Where two reads first meet at different
    vertices, every half-edge is indexed and :func:`_lay_paths` lays
    that path and the rest on.
    """
    width = 2 * rank + 1
    step: dict[int, int] = {}  # each middle's first half-edge and the pair of its last
    einit: list[int] = []
    elabel: list[int] = []
    deg, n, starts = [0] * n_vertices, n_vertices, []  # starts: each middle's first fresh vertex
    paths = iter(paths)
    for u, v, codes in paths:
        i, j, x, y = 0, len(codes), u, v
        while True:
            while i < j and (h := step.get(x * width + codes[i])) is not None:
                x, i = einit[h ^ 1], i + 1
            if i == j or x < n_vertices:
                break
            # fresh x's half-edges along its middle; the dict holds all its others
            h = 2 * (x - n_vertices + bisect_right(starts, x))
            if elabel[h] != codes[i] and elabel[h := h - 1] != codes[i]:
                break
            x, i = einit[h ^ 1], i + 1
        while True:
            while j > i and (h := step.get(y * width - codes[j - 1])) is not None:
                y, j = einit[h ^ 1], j - 1
            if j == i or y < n_vertices:
                break
            h = 2 * (y - n_vertices + bisect_right(starts, y))
            if elabel[h] != -codes[j - 1] and elabel[h := h - 1] != -codes[j - 1]:
                break
            y, j = einit[h ^ 1], j - 1
        if i == j:
            if x != y:
                step = {w * width + c: e for e, (w, c) in enumerate(zip(einit, elabel))}
                lay = (einit, elabel, n, deg, None, step)
                return _lay_paths(rank, n_vertices, chain([(u, v, codes)], paths), lay)
            continue
        s = 0  # the stem, as _lay_paths lays it
        while x == y and codes[i + s] == -codes[j - 1 - s]:
            s += 1
        inner = range(n, n + j - s - i - 1)
        end = inner[s - 1] if s else y
        first = len(einit)
        bounds += (first, first + 2 * s)  # and a chain splits where a read stopped
        bounds += [2 * (z - n_vertices + bisect_right(starts, z)) for z in (x, y) if z >= n_vertices]
        for a, b, c in zip((x, *inner), (*inner, end), codes[i : j - s]):
            einit += (a, b)
            elabel += (c, -c)
        step[x * width + codes[i]], step[end * width - codes[j - s - 1]] = first, len(einit) - 1
        starts.append(n)
        n = inner.stop
        if x < n_vertices:
            deg[x] += 1
        if end < n_vertices:
            deg[end] += 1
    return einit, elabel, n, deg, None, step


def _fold_paths(
    alphabet: Alphabet,
    n_vertices: int,
    paths: Iterable[tuple[int, int, Sequence[int]]],
    base: int | None,
) -> LabeledGraph:
    """The core of vertices ``0..n_vertices-1`` joined by paths.

    The paths are laid by :func:`_lay_sparse`.  A lay that identified
    nothing is the core as laid unless a given vertex other than the
    base hangs; otherwise the lay's lists are peeled whole, with the
    base's class protected, and the survivors renumbered once.  Kept as
    laid, with each given vertex but the base branching, it gets the lay's chains.
    """
    bounds: list[int] = []
    einit, elabel, n, deg, merged, _ = _lay_sparse(len(alphabet), n_vertices, paths, bounds)
    # with nothing identified, only the given vertices can hang
    if merged is None and all(d > 1 or v == base for v, d in enumerate(deg)):
        g = LabeledGraph(alphabet, n, tuple(einit), tuple(elabel), base, _validate=False)
        if all(d > 2 or v == base for v, d in enumerate(deg)):  # even, onward from each
            g._chains = sorted({*[b + (b & 1) for b in bounds], len(einit)})
        return g
    cls, vertices, edges = merged or (range(n), range(n), range(0, len(einit), 2))
    if base is not None:
        base = cls[base]
    kept_v, kept_e, _ = _peel(einit, vertices, edges, base)
    return _renumber(alphabet, einit, elabel, base, kept_v, kept_e)


def _fold_two_core(
    alphabet: Alphabet, lay: _Lay, base: int
) -> tuple[LabeledGraph, int, list[int]]:
    """The 2-core of a lay's core, the base's junction, and its hanging word.

    The lay comes from :func:`_lay_paths`, which identifies what meets,
    and is peeled once with no protected vertex; the 2-core numbers the
    kept vertices in ascending order, as :func:`two_core` does.  The
    junction is the 2-core's vertex where the hanging path from the
    base meets it (the base's class itself when nothing hangs there),
    and the word is that path's labels from the base, read off the
    dropped half-edges.  A tree keeps one vertex, which is the junction,
    and hangs no word.  A 2-core kept as laid, with nothing identified
    or peeled, is the whole lay, vertices and half-edges numbered as
    laid, and keeps the lay's dict as its edge table, so extending into
    it builds none (:func:`_lay_paths` indexes every half-edge it lays).
    The lists are copied and the dict is kept, so a lay that is spelled
    on afterwards comes here without its dict (None in its place), and
    its 2-core builds a table of its own if one is read.
    """
    einit, elabel, n, deg, merged, step = lay
    if merged is None:
        if all(d > 1 for d in deg):  # only the given vertices can hang
            g = LabeledGraph(alphabet, n, tuple(einit), tuple(elabel), _validate=False)
            g._lookup = step
            return g, base, []
        vertices, edges = range(n), range(0, len(einit), 2)
    else:
        cls, vertices, edges = merged
        base = cls[base]
    kept_v, kept_e, dropped = _peel(einit, vertices, edges, None)
    peeled = _renumber(alphabet, einit, elabel, None, kept_v, kept_e)
    if not kept_e:
        return peeled, 0, []
    # each dropped half-edge leaves the vertex it removes, toward the 2-core
    up = {einit[e]: e for e in dropped}
    word = []
    v = base
    while (e := up.get(v)) is not None:
        word.append(elabel[e])
        v = einit[e ^ 1]
    return peeled, bisect_left(kept_v, v), word


# -- traversal ---------------------------------------------------------


def trace(g: LabeledGraph, start: int, codes: Iterable[int]) -> int | None:
    """Endpoint of the path spelling a code word from ``start``, or None.

    The walk reads ``codes`` one at a time and stops at the first code
    with no edge, so it may be a lazy iterator.  The graph must be
    folded: an unfolded one raises ``NotFoldedError`` for every word,
    the empty word included.  A start that is no vertex, None too, raises
    ``DisconnectedGraphError``, also for the empty word.  Each code is
    one lookup in the graph's head table (``LabeledGraph._head_table``).
    """
    table = g._head_table()
    if start is None or not 0 <= start < g.n_vertices:
        raise DisconnectedGraphError(f"start {start} is not a vertex")
    v = start
    for c in codes:
        try:
            v = table[v][c]
        except KeyError:
            return None
    return v


# -- canonical form and export ------------------------------------------


def _bfs_order(g: LabeledGraph, root: int) -> tuple[list[int], list[int]]:
    """Vertices in label-driven breadth-first order from ``root``.

    Out-edges are followed in :meth:`Alphabet.letters` order, generator
    before inverse (equal labels at an unfolded vertex in half-edge
    order).  Also returns each vertex's parent half-edge in that search
    tree, the half-edge that first reached it (-1 at the root).  Only the
    root's list and lists of more than two half-edges are sorted: any
    other vertex was reached along one of its own half-edges, so a vertex
    of degree two follows just the other one.
    """
    einit, elabel = g.einit, g.elabel
    out = g._out_lists()
    order = [root]
    parent = [-2] * g.n_vertices  # -2: not reached yet
    parent[root] = -1
    # Alphabet.code_index of a half-edge's label
    key = lambda e: 2 * c - 2 if (c := elabel[e]) > 0 else -2 * c - 1
    for v in order:  # order grows while it is read
        es = out[v]
        if len(es) == 2 and v != root:
            e, f = es
            # one of e, f is parent[v] ^ 1, back the way v was reached
            e ^= f ^ parent[v] ^ 1  # the other one
            w = einit[e ^ 1]
            if parent[w] == -2:
                parent[w] = e
                order.append(w)
            continue
        if len(es) > 2 or v == root:
            es = sorted(es, key=key)  # stable: equal labels keep half-edge order
        for e in es:
            w = einit[e ^ 1]
            if parent[w] == -2:
                parent[w] = e
                order.append(w)
    return order, parent


_numerals: list[str] = []  # str(i) for the vertex numbers formatted so far


def canonical_form(g: LabeledGraph, root: int | None = None) -> str:
    """Deterministic text form of a folded connected graph.

    Vertices are renumbered in label-driven breadth-first order from the
    base (or the given root), out-edges in :meth:`Alphabet.letters` order;
    one line per positively oriented edge, sorted by new tail vertex, then
    by token as a string.  The search runs on the chains (one split at a
    root inside it): a front enters a chain at one end and goes one vertex
    on each level, in its place, so until one meets an end or a front the
    F fronts take places ``i, i + F, ...`` of the order, one slice each.
    """
    global _numerals
    if root is None:
        root = g.base
    if root is None:
        raise MissingBaseError("canonical form needs a base or explicit root")
    if not 0 <= root < g.n_vertices:
        raise DisconnectedGraphError("root is not a vertex")
    branch, chains = g._chain_table()
    if root not in branch:
        c = next(c for c, chain in enumerate(chains) if root in chain[3])
        u, w, word, inner = chains[c]
        p = inner.index(root) + 1
        chains = [*chains, (root, w, word[p:], inner[p:])]
        chains[c], branch = (u, root, word[:p], inner[: p - 1]), [*branch, root]
    generators, rank = g.alphabet.generators, len(g.alphabet)
    names = ("", *generators, *generators[::-1])  # by signed code
    key = [0, *range(0, 2 * rank, 2), *range(2 * rank - 1, 0, -2)]  # Alphabet.code_index
    # front 2c goes into chain c from its tail, front 2c + 1 from its head:
    # lanes[f] is the chain's inner vertices in front f's order, far[f] the
    # vertex at its far end, ends[f] the chain's length, pos[f] how far it went
    width = 2 * len(chains)
    lanes, far, ends, pos = [], [], [], [0] * width
    stars: dict[int, list[int]] = {v: [] for v in branch}  # each branch vertex's fronts
    letters = set()  # (vertex, label) of each chain end: a folded graph repeats none
    for c, (u, w, word, inner) in enumerate(chains):
        lanes += (inner, inner[::-1])
        far += (w, u)
        ends += (len(word), len(word))
        stars[u].append(key[word[0]] * width + 2 * c)
        stars[w].append(key[-word[-1]] * width + 2 * c + 1)
        letters.update(((u, word[0]), (w, -word[-1])))
    if len(letters) < width:
        raise NotFoldedError("canonical form needs a folded graph")
    for keys in stars.values():
        keys.sort()
    order, seen, level = [root], {root}, [k % width for k in stars[root]]
    while level:
        live, F = set(level), len(level)
        # a front's free steps: to its far end, or half way to the front facing it
        k = min([(ends[f] - pos[f] - pos[f ^ 1] - 1) >> (f ^ 1 in live) for f in level])
        if k:
            order += [-1] * (F * k)
            for i, f in enumerate(level, len(order) - F * k):
                order[i::F] = lanes[f][pos[f] : pos[f] + k]
                pos[f] += k
            continue
        reached: list[int] = []
        for f in level:
            p = pos[f] + 1
            if p + pos[f ^ 1] < ends[f]:  # an inner vertex no front has reached
                pos[f] = p
                order.append(lanes[f][p - 1])
                reached.append(f)
            elif p == ends[f] and (v := far[f]) not in seen:
                seen.add(v)
                order.append(v)
                reached += [k % width for k in stars[v]]
        level = reached
    if len(_numerals) < len(order):  # a new list, so that no reader sees one grow
        _numerals = [*_numerals, *map(str, range(len(_numerals), len(order)))]
    text = [""] * g.n_vertices  # each vertex's number
    for v, x in zip(order, _numerals):
        text[v] = x
    rows: list[str | None] = [None] * g.n_vertices  # each vertex's lines
    lines: dict[int, list[str]] = {v: [] for v in branch}  # each branch vertex's lines
    for u, w, word, inner in chains:
        t = [text[u], *map(text.__getitem__, inner), text[w]]
        if word[0] > 0:
            lines[u].append(f"{t[0]} -{names[word[0]]}-> {t[1]}")
        if word[-1] < 0:
            lines[w].append(f"{t[-1]} -{names[word[-1]]}-> {t[-2]}")
        # the inner vertex v, numbered q between p and r, has out-labels -a and b
        for v, a, b, p, q, r in zip(inner, word, word[1:], t, t[1:], t[2:]):
            if b > 0:
                if a > 0:
                    rows[v] = f"{q} -{names[b]}-> {r}"
                elif names[a] < names[b]:
                    rows[v] = f"{q} -{names[a]}-> {p}\n{q} -{names[b]}-> {r}"
                elif a == -b:
                    raise NotFoldedError("canonical form needs a folded graph")
                else:
                    rows[v] = f"{q} -{names[b]}-> {r}\n{q} -{names[a]}-> {p}"
            elif a < 0:
                rows[v] = f"{q} -{names[a]}-> {p}"
            elif a == -b:
                raise NotFoldedError("canonical form needs a folded graph")
    for v, ls in lines.items():
        # a vertex's lines differ in their names, which sort as the lines do
        rows[v] = "\n".join(sorted(ls)) or None
    return "\n".join(["base 0", *filter(None, map(rows.__getitem__, order))])


def to_dot(g: LabeledGraph) -> str:
    """Graphviz export: one arrow per positively oriented edge."""
    names = g.alphabet.generators  # a positive code's token is its name
    lines = ["digraph stallings {", "  rankdir=LR;"]
    for v in range(g.n_vertices):
        shape = "doublecircle" if v == g.base else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for e in range(0, g.n_half_edges, 2):
        pos = e if g.elabel[e] > 0 else e ^ 1
        lines.append(f'  {g.einit[pos]} -> {g.head(pos)} [label="{names[g.elabel[pos] - 1]}"];')
    lines.append("}")
    return "\n".join(lines)
