"""Labeled graphs in the sense of Serre, folding, trimming, and morphisms.

A graph is a set of half-edges closed under a fixed-point-free involution
``e <-> e ^ 1``, an initial-vertex map, and a labeling into the signed
letters of an alphabet with ``label(e ^ 1) == label(e)^-1``, stored as
the alphabet's integer codes (so ``label(e ^ 1) == -label(e)``).  Graphs
may carry a base point.  All graphs here are finite and connected.

Graphs are frozen after construction; every operation returns new values.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
from .errors import (
    AlphabetMismatchError,
    DisconnectedGraphError,
    NotFoldedError,
    UnknownGeneratorError,
)
from .words import Alphabet, Letter, Word, free_reduce


class LabeledGraph:
    """An immutable labeled graph, optionally pointed.

    Half-edges are ``0..2m-1``; the involution is ``e ^ 1``.  Even
    half-edges carry the orientation chosen at construction time.
    """

    __slots__ = ("alphabet", "n_vertices", "einit", "elabel", "base", "_out", "_lookup")

    def __init__(
        self,
        alphabet: Alphabet,
        n_vertices: int,
        einit: tuple[int, ...],
        elabel: tuple[int, ...],
        base: int | None = None,
        _validate: bool = True,
    ):
        self.alphabet = alphabet
        self.n_vertices = n_vertices
        self.einit = einit
        self.elabel = elabel
        self.base = base
        self._out: list[list[int]] | None = None
        self._lookup: list[dict[int, int]] | None = None
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
        if not self._is_connected():
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

    def out_edges(self, v: int) -> list[int]:
        if self._out is None:
            out: list[list[int]] = [[] for _ in range(self.n_vertices)]
            for e, w in enumerate(self.einit):
                out[w].append(e)
            self._out = out
        return self._out[v]

    def degree(self, v: int) -> int:
        return len(self.out_edges(v))

    def is_folded(self) -> bool:
        """No two half-edges share an initial vertex and a label."""
        return len(set(zip(self.einit, self.elabel))) == len(self.einit)

    def edge_at(self, v: int, code: int) -> int | None:
        """The unique half-edge at v with the given label code (folded graphs)."""
        if self._lookup is None:
            if not self.is_folded():
                raise NotFoldedError("label lookup needs a folded graph")
            table: list[dict[int, int]] = [{} for _ in range(self.n_vertices)]
            for e, w in enumerate(self.einit):
                table[w][self.elabel[e]] = e
            self._lookup = table
        return self._lookup[v].get(code)

    def _is_connected(self) -> bool:
        if self.n_vertices == 1:
            return True
        seen = [False] * self.n_vertices
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            v = stack.pop()
            for e in self.out_edges(v):
                w = self.head(e)
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == self.n_vertices

    def is_core(self) -> bool:
        """Folded, and every vertex except the base has degree > 1."""
        if not self.is_folded():
            return False
        for v in range(self.n_vertices):
            if v != self.base and self.degree(v) <= 1:
                return False
        return True

    def with_base(self, v: int) -> "LabeledGraph":
        return LabeledGraph(
            self.alphabet, self.n_vertices, self.einit, self.elabel, v, _validate=False
        )

    def unbased(self) -> "LabeledGraph":
        return LabeledGraph(
            self.alphabet, self.n_vertices, self.einit, self.elabel, None, _validate=False
        )

    def __eq__(self, other) -> bool:
        """Structural equality: same vertices, half-edges, labels, base."""
        return (
            isinstance(other, LabeledGraph)
            and self.alphabet.generators == other.alphabet.generators
            and self.n_vertices == other.n_vertices
            and self.einit == other.einit
            and self.elabel == other.elabel
            and self.base == other.base
        )

    def __hash__(self) -> int:
        return hash(
            (self.alphabet.generators, self.n_vertices, self.einit, self.elabel, self.base)
        )

    def __repr__(self) -> str:
        b = f", base={self.base}" if self.base is not None else ""
        return f"LabeledGraph({self.n_vertices} vertices, {self.n_edges} edges{b})"


def _spell(
    einit: list[int], elabel: list[int], u: int, v: int, codes: list[int], fresh: int
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


def build_graph(
    alphabet: Alphabet,
    n_vertices: int,
    edges: list[tuple[int, int, Letter]],
    base: int | None = None,
) -> LabeledGraph:
    """Build a graph from oriented edge triples ``(tail, head, letter)``."""
    einit: list[int] = []
    elabel: list[int] = []
    for u, v, l in edges:
        _spell(einit, elabel, u, v, [alphabet.code(l)], n_vertices)
    return LabeledGraph(alphabet, n_vertices, tuple(einit), tuple(elabel), base)


def path_graph(w: Word, alphabet: Alphabet) -> LabeledGraph:
    """The path graph of a reduced word: vertices 0..n spelling the word."""
    einit: list[int] = []
    elabel: list[int] = []
    _spell(einit, elabel, 0, len(w), alphabet.encode(w), 1)
    n = len(w) + 1
    return LabeledGraph(alphabet, n, tuple(einit), tuple(elabel), _validate=False)


def bouquet(alphabet: Alphabet, words: list[Word]) -> LabeledGraph:
    """A wedge of loop paths at a common base, one loop per nonempty word."""
    einit: list[int] = []
    elabel: list[int] = []
    n = 1
    for w in words:
        if w:
            n = _spell(einit, elabel, 0, 0, alphabet.encode(w), n)
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


@dataclass(frozen=True)
class MorphismClassification:
    vertex_injective: bool
    edge_injective: bool
    vertex_surjective: bool
    edge_surjective: bool

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
        vertex_injective=len(vimage) == len(f.vmap),
        edge_injective=len(eimage) == len(f.emap),
        vertex_surjective=len(vimage) == f.target.n_vertices,
        edge_surjective=len(eimage) == f.target.n_half_edges,
    )


def identity_morphism(g: LabeledGraph) -> GraphMorphism:
    return GraphMorphism(
        g, g, tuple(range(g.n_vertices)), tuple(range(g.n_half_edges)), _validate=False
    )


def extend_morphism(
    g: LabeledGraph, d: LabeledGraph, seed_vertex: int, seed_image: int
) -> GraphMorphism | None:
    """Label-driven extension of ``seed_vertex -> seed_image`` to a morphism.

    Requires the target to be folded, which makes the extension unique if
    it exists; returns None when some half-edge has no image or images
    clash.
    """
    labels = d.alphabet.recode(g.elabel, g.alphabet)
    vmap = [-1] * g.n_vertices
    emap = [-1] * g.n_half_edges
    vmap[seed_vertex] = seed_image
    stack = [seed_vertex]
    while stack:
        v = stack.pop()
        for e in g.out_edges(v):
            fe = d.edge_at(vmap[v], labels[e])
            if fe is None:
                return None
            if emap[e] == -1:
                emap[e] = fe
                emap[e ^ 1] = fe ^ 1
            elif emap[e] != fe:
                return None
            w, fw = g.head(e), d.head(fe)
            if vmap[w] == -1:
                vmap[w] = fw
                stack.append(w)
            elif vmap[w] != fw:
                return None
    return GraphMorphism(g, d, tuple(vmap), tuple(emap), _validate=False)


def unique_pointed_morphism(g: LabeledGraph, d: LabeledGraph) -> GraphMorphism | None:
    """The unique base-preserving morphism between folded pointed graphs."""
    if g.base is None or d.base is None:
        raise NotFoldedError("both graphs need base points")
    if not g.is_folded():
        raise NotFoldedError("source must be folded")
    return extend_morphism(g, d, g.base, d.base)


def unpointed_isomorphisms(g: LabeledGraph, d: LabeledGraph) -> list[GraphMorphism]:
    """All label-preserving isomorphisms, ignoring base points."""
    if (
        g.n_vertices != d.n_vertices
        or g.n_half_edges != d.n_half_edges
        or g.alphabet.generators != d.alphabet.generators
    ):
        return []
    out = []
    for w in range(d.n_vertices):
        m = extend_morphism(g, d, 0, w)
        if m is not None and len(set(m.vmap)) == d.n_vertices:
            out.append(m)
    return out


def iso_unpointed(g: LabeledGraph, d: LabeledGraph) -> bool:
    """True iff the graphs are isomorphic after forgetting base points."""
    if not g.is_folded() or not d.is_folded():
        raise NotFoldedError("isomorphism testing needs folded graphs")
    return bool(unpointed_isomorphisms(g, d))


def iso_pointed(g: LabeledGraph, d: LabeledGraph) -> bool:
    """True iff there is a base-preserving isomorphism."""
    if g.alphabet.generators != d.alphabet.generators:
        return False
    if g.n_vertices != d.n_vertices or g.n_half_edges != d.n_half_edges:
        return False
    m = unique_pointed_morphism(g, d)
    return m is not None and len(set(m.vmap)) == d.n_vertices


# -- folding / trimming / core ---------------------------------------


def fold_all(
    g: LabeledGraph, seed: int | None = None
) -> tuple[LabeledGraph, GraphMorphism]:
    """Fold completely; return the folded graph and the quotient morphism."""
    vrep, erep = _kernel.fold(g.n_vertices, g.einit, g.elabel, seed)
    # half-edges moved onto their vertex classes' representatives
    base = None if g.base is None else vrep[g.base]
    einit = tuple([vrep[v] for v in g.einit])
    merged = LabeledGraph(
        g.alphabet, g.n_vertices, einit, g.elabel, base, _validate=False
    )
    kept_v = [v for v in range(g.n_vertices) if vrep[v] == v]
    kept_e = sorted({r & ~1 for r in erep})  # one even half-edge per edge class
    folded, vnew, enew = _renumber(merged, kept_v, kept_e)
    vmap = tuple([vnew[r] for r in vrep])
    emap = tuple([enew[r] for r in erep])
    quotient = GraphMorphism(g, folded, vmap, emap, _validate=False)
    return folded, quotient


def _peel(g: LabeledGraph, protect: int | None) -> tuple[list[int], list[int]]:
    """Iteratively drop degree<=1 vertices (except ``protect``).

    Returns (kept vertices, kept even half-edges).  If everything would
    disappear, one vertex is kept so the result stays a graph.
    """
    deg = [g.degree(v) for v in range(g.n_vertices)]
    alive_v = [True] * g.n_vertices
    alive_e = [True] * g.n_edges
    queue = [v for v in range(g.n_vertices) if deg[v] <= 1 and v != protect]
    while queue:
        v = queue.pop()
        if not alive_v[v] or deg[v] > 1 or v == protect:
            continue
        if deg[v] == 0:
            alive_v[v] = False
            continue
        e = next(
            e for e in g.out_edges(v) if alive_e[e // 2]
        )
        alive_e[e // 2] = False
        alive_v[v] = False
        w = g.head(e)
        deg[w] -= 1
        deg[v] -= 1
        if deg[w] <= 1 and w != protect and alive_v[w]:
            queue.append(w)
    kept_v = [v for v in range(g.n_vertices) if alive_v[v]]
    if not kept_v:
        kept_v = [protect if protect is not None else 0]
    kept_e = [2 * i for i in range(g.n_edges) if alive_e[i]]
    return kept_v, kept_e


def _renumber(
    g: LabeledGraph, kept_v: list[int], kept_e: list[int]
) -> tuple[LabeledGraph, dict[int, int], dict[int, int]]:
    """The graph on the kept vertices and even half-edges, in list order.

    Also returns the maps from kept vertices and kept half-edges (both
    orientations) to their new numbers.
    """
    vnew = {v: i for i, v in enumerate(kept_v)}
    enew: dict[int, int] = {}
    einit: list[int] = []
    elabel: list[int] = []
    for j, e in enumerate(kept_e):
        enew[e] = 2 * j
        enew[e ^ 1] = 2 * j + 1
        einit += (vnew[g.einit[e]], vnew[g.einit[e ^ 1]])
        elabel += (g.elabel[e], g.elabel[e ^ 1])
    base = None if g.base is None else vnew[g.base]
    h = LabeledGraph(
        g.alphabet, len(kept_v), tuple(einit), tuple(elabel), base, _validate=False
    )
    return h, vnew, enew


def trim_all(g: LabeledGraph) -> LabeledGraph:
    """Remove hanging edges until every non-base vertex has degree > 1."""
    kept_v, kept_e = _peel(g, g.base)
    if len(kept_v) == g.n_vertices:
        return g
    return _renumber(g, kept_v, kept_e)[0]


def two_core(g: LabeledGraph) -> LabeledGraph:
    """Drop the base point and trim; every remaining vertex has degree > 1.

    A graph whose fundamental group is trivial collapses to one vertex.
    """
    if not g.is_folded():
        raise NotFoldedError("the unbased core needs a folded graph")
    return _renumber(g.unbased(), *_peel(g, None))[0]


def core(g: LabeledGraph, seed: int | None = None) -> LabeledGraph:
    """Fold, then trim, preserving the fundamental group.

    One pass suffices: a subgraph of a folded graph is folded, so
    trimming never undoes the fold.
    """
    if not g.is_folded():
        g, _ = fold_all(g, seed)
    return trim_all(g)


def attach_path(g: LabeledGraph, w: Word) -> LabeledGraph:
    """Attach a path spelling ``w`` whose end is glued to the base point.

    The new base point is the start of the path.  The result is generally
    not folded.
    """
    if g.base is None:
        raise NotFoldedError("attach_path needs a pointed graph")
    codes = g.alphabet.encode(w)
    if not codes:
        return g
    n = g.n_vertices
    einit = list(g.einit)
    elabel = list(g.elabel)
    end = _spell(einit, elabel, n, g.base, codes, n + 1)
    return LabeledGraph(g.alphabet, end, tuple(einit), tuple(elabel), n, _validate=False)


# -- traversal ---------------------------------------------------------


def trace(g: LabeledGraph, start: int, w: Word) -> int | None:
    """Endpoint of the path spelling ``w`` from ``start``, or None.

    A word with a letter outside the graph's alphabet spells no path.
    """
    try:
        codes = g.alphabet.encode(w)
    except UnknownGeneratorError:
        return None
    v = start
    for c in codes:
        e = g.edge_at(v, c)
        if e is None:
            return None
        v = g.head(e)
    return v


@dataclass(frozen=True)
class Path:
    """A finite contiguous sequence of half-edges in a graph."""

    graph: LabeledGraph
    edges: tuple[int, ...]

    def __post_init__(self):
        g = self.graph
        for a, b in zip(self.edges, self.edges[1:]):
            if g.head(a) != g.einit[b]:
                raise DisconnectedGraphError("path edges are not contiguous")

    def is_reduced(self) -> bool:
        return all(b != a ^ 1 for a, b in zip(self.edges, self.edges[1:]))

    def is_closed(self) -> bool:
        g = self.graph
        return bool(self.edges) and g.head(self.edges[-1]) == g.einit[self.edges[0]]

    def letters(self) -> tuple[Letter, ...]:
        g = self.graph
        return tuple(g.alphabet.decode(g.elabel[e]) for e in self.edges)

    def word(self) -> Word:
        return free_reduce(self.letters())


# -- canonical form and export ------------------------------------------


def _bfs_order(g: LabeledGraph, root: int) -> list[int]:
    """Vertices in label-driven breadth-first order from ``root``."""
    index = g.alphabet.code_index
    order = [root]
    seen = [False] * g.n_vertices
    seen[root] = True
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for e in sorted(g.out_edges(v), key=lambda e: index(g.elabel[e])):
            w = g.head(e)
            if not seen[w]:
                seen[w] = True
                order.append(w)
    return order


def canonical_form(g: LabeledGraph, root: int | None = None) -> str:
    """Deterministic text form of a folded connected graph.

    Vertices are renumbered in label-driven breadth-first order from the
    base (or the given root); one line per positively oriented edge.
    """
    if not g.is_folded():
        raise NotFoldedError("canonical form needs a folded graph")
    if root is None:
        root = g.base
    if root is None:
        raise NotFoldedError("canonical form needs a base or explicit root")
    order = _bfs_order(g, root)
    vnew = {v: i for i, v in enumerate(order)}
    decode = g.alphabet.decode
    rows = []
    for e in range(0, g.n_half_edges, 2):
        pos = e if g.elabel[e] > 0 else e ^ 1
        rows.append(
            (vnew[g.einit[pos]], decode(g.elabel[pos]).token, vnew[g.head(pos)])
        )
    rows.sort()
    lines = [f"{v} -{token}-> {w}" for v, token, w in rows]
    return "\n".join([f"base {vnew[root]}"] + lines)


def to_dot(g: LabeledGraph) -> str:
    """Graphviz export: one arrow per positively oriented edge."""
    lines = ["digraph stallings {", "  rankdir=LR;"]
    for v in range(g.n_vertices):
        shape = "doublecircle" if v == g.base else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for e in range(0, g.n_half_edges, 2):
        pos = e if g.elabel[e] > 0 else e ^ 1
        token = g.alphabet.decode(g.elabel[pos]).token
        lines.append(f'  {g.einit[pos]} -> {g.head(pos)} [label="{token}"];')
    lines.append("}")
    return "\n".join(lines)
