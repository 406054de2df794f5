"""Labeled graphs in the sense of Serre, folding, trimming, and morphisms.

A graph is a set of half-edges closed under a fixed-point-free involution
``e <-> e ^ 1``, an initial-vertex map, and a labeling into the signed
letters of an alphabet with ``label(e ^ 1) == label(e)^-1``.  Graphs may
carry a base point.  All graphs here are finite and connected.

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
        elabel: tuple[Letter, ...],
        base: int | None = None,
        _validate: bool = True,
    ):
        self.alphabet = alphabet
        self.n_vertices = n_vertices
        self.einit = einit
        self.elabel = elabel
        self.base = base
        self._out: list[list[int]] | None = None
        self._lookup: list[dict[Letter, int]] | None = None
        if _validate:
            self._validate()

    def _validate(self) -> None:
        if self.n_vertices <= 0:
            raise DisconnectedGraphError("a graph needs at least one vertex")
        if len(self.einit) != len(self.elabel) or len(self.einit) % 2:
            raise UnknownGeneratorError("half-edge arrays must pair up")
        for e in range(0, len(self.einit), 2):
            l, lb = self.elabel[e], self.elabel[e + 1]
            if lb != l.inverse():
                raise UnknownGeneratorError("labels must invert across the involution")
            if l.gen not in self.alphabet:
                raise UnknownGeneratorError(f"label {l!r} outside the alphabet")
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
        for v in range(self.n_vertices):
            labels = [self.elabel[e] for e in self.out_edges(v)]
            if len(set(labels)) != len(labels):
                return False
        return True

    def edge_at(self, v: int, letter: Letter) -> int | None:
        """The unique half-edge at v with the given label (folded graphs)."""
        if self._lookup is None:
            if not self.is_folded():
                raise NotFoldedError("label lookup needs a folded graph")
            table: list[dict[Letter, int]] = [{} for _ in range(self.n_vertices)]
            for e, w in enumerate(self.einit):
                table[w][self.elabel[e]] = e
            self._lookup = table
        return self._lookup[v].get(letter)

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


def build_graph(
    alphabet: Alphabet,
    n_vertices: int,
    edges: list[tuple[int, int, Letter]],
    base: int | None = None,
) -> LabeledGraph:
    """Build a graph from oriented edge triples ``(tail, head, letter)``."""
    einit: list[int] = []
    elabel: list[Letter] = []
    for u, v, l in edges:
        einit.extend((u, v))
        elabel.extend((l, l.inverse()))
    return LabeledGraph(alphabet, n_vertices, tuple(einit), tuple(elabel), base)


def path_graph(w: Word, alphabet: Alphabet) -> LabeledGraph:
    """The path graph of a reduced word: vertices 0..n spelling the word."""
    alphabet.check_word(w)
    edges = [(i, i + 1, l) for i, l in enumerate(w)]
    return build_graph(alphabet, len(w) + 1, edges)


def bouquet(alphabet: Alphabet, words: list[Word]) -> LabeledGraph:
    """A wedge of loop paths at a common base, one loop per nonempty word."""
    einit: list[int] = []
    elabel: list[Letter] = []
    n = 1
    for w in words:
        if not w:
            continue
        chain = [0] + [n + i for i in range(len(w) - 1)] + [0]
        n += len(w) - 1
        for i, l in enumerate(w):
            einit.extend((chain[i], chain[i + 1]))
            elabel.extend((l, l.inverse()))
    return LabeledGraph(alphabet, n, tuple(einit), tuple(elabel), 0)


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
        for e, fe in enumerate(self.emap):
            if self.emap[e ^ 1] != fe ^ 1:
                raise AlphabetMismatchError("morphism breaks the involution")
            if d.einit[fe] != self.vmap[g.einit[e]]:
                raise AlphabetMismatchError("morphism breaks initial vertices")
            if d.elabel[fe] != g.elabel[e]:
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
    vmap = [-1] * g.n_vertices
    emap = [-1] * g.n_half_edges
    vmap[seed_vertex] = seed_image
    stack = [seed_vertex]
    while stack:
        v = stack.pop()
        for e in g.out_edges(v):
            fe = d.edge_at(vmap[v], g.elabel[e])
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
    gen_index = {name: i + 1 for i, name in enumerate(g.alphabet.generators)}
    codes = [
        gen_index[l.gen] if l.sign > 0 else -gen_index[l.gen] for l in g.elabel
    ]
    vrep, erep = _kernel.fold(g.n_vertices, list(g.einit), codes, seed)

    vcompact: dict[int, int] = {}
    for v in range(g.n_vertices):
        if vrep[v] == v:
            vcompact[v] = len(vcompact)

    roots = sorted({min(erep[e], erep[e] ^ 1) for e in range(g.n_half_edges)})
    enew: dict[int, int] = {}
    einit: list[int] = []
    elabel: list[Letter] = []
    for j, r in enumerate(roots):
        enew[r] = 2 * j
        enew[r ^ 1] = 2 * j + 1
        einit.extend((vcompact[vrep[g.einit[r]]], vcompact[vrep[g.einit[r ^ 1]]]))
        elabel.extend((g.elabel[r], g.elabel[r ^ 1]))

    base = vcompact[vrep[g.base]] if g.base is not None else None
    folded = LabeledGraph(
        g.alphabet, len(vcompact), tuple(einit), tuple(elabel), base, _validate=False
    )
    vmap = tuple(vcompact[vrep[v]] for v in range(g.n_vertices))
    emap = tuple(enew[erep[e]] for e in range(g.n_half_edges))
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


def _subgraph(
    g: LabeledGraph, kept_v: list[int], kept_e: list[int], base: int | None
) -> LabeledGraph:
    vnew = {v: i for i, v in enumerate(kept_v)}
    einit: list[int] = []
    elabel: list[Letter] = []
    for e in kept_e:
        einit.extend((vnew[g.einit[e]], vnew[g.einit[e ^ 1]]))
        elabel.extend((g.elabel[e], g.elabel[e ^ 1]))
    return LabeledGraph(
        g.alphabet,
        len(kept_v),
        tuple(einit),
        tuple(elabel),
        vnew[base] if base is not None else None,
        _validate=False,
    )


def trim_all(g: LabeledGraph) -> LabeledGraph:
    """Remove hanging edges until every non-base vertex has degree > 1."""
    kept_v, kept_e = _peel(g, g.base)
    if len(kept_v) == g.n_vertices:
        return g
    return _subgraph(g, kept_v, kept_e, g.base)


def two_core(g: LabeledGraph) -> LabeledGraph:
    """Drop the base point and trim; every remaining vertex has degree > 1.

    A graph whose fundamental group is trivial collapses to one vertex.
    """
    if not g.is_folded():
        raise NotFoldedError("the unbased core needs a folded graph")
    kept_v, kept_e = _peel(g, None)
    return _subgraph(g, kept_v, kept_e, None)


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
    g.alphabet.check_word(w)
    if not w:
        return g
    n = g.n_vertices
    chain = [n + i for i in range(len(w))]
    chain.append(g.base)
    einit = list(g.einit)
    elabel = list(g.elabel)
    for i, l in enumerate(w):
        einit.extend((chain[i], chain[i + 1]))
        elabel.extend((l, l.inverse()))
    return LabeledGraph(
        g.alphabet,
        n + len(w),
        tuple(einit),
        tuple(elabel),
        chain[0],
        _validate=False,
    )


# -- traversal ---------------------------------------------------------


def trace(g: LabeledGraph, start: int, w: Word) -> int | None:
    """Endpoint of the path spelling ``w`` from ``start``, or None."""
    v = start
    for l in w:
        e = g.edge_at(v, l)
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
        return tuple(self.graph.elabel[e] for e in self.edges)

    def word(self) -> Word:
        return free_reduce(self.letters())


# -- canonical form and export ------------------------------------------


def _bfs_order(g: LabeledGraph, root: int) -> list[int]:
    """Vertices in label-driven breadth-first order from ``root``."""
    key = {l: i for i, l in enumerate(g.alphabet.letters())}
    order = [root]
    seen = [False] * g.n_vertices
    seen[root] = True
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for e in sorted(g.out_edges(v), key=lambda e: key[g.elabel[e]]):
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
    lines = []
    for e in range(0, g.n_half_edges, 2):
        pos = e if g.elabel[e].sign > 0 else e ^ 1
        lines.append(
            f"{vnew[g.einit[pos]]} -{g.elabel[pos].token}-> {vnew[g.head(pos)]}"
        )
    lines.sort(key=_edge_line_key)
    return "\n".join([f"base {vnew[root]}"] + lines)


def _edge_line_key(line: str):
    v, rest = line.split(" -", 1)
    tok, w = rest.split("-> ")
    return int(v), tok, int(w)


def to_dot(g: LabeledGraph) -> str:
    """Graphviz export: one arrow per positively oriented edge."""
    lines = ["digraph stallings {", "  rankdir=LR;"]
    for v in range(g.n_vertices):
        shape = "doublecircle" if v == g.base else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for e in range(0, g.n_half_edges, 2):
        pos = e if g.elabel[e].sign > 0 else e ^ 1
        lines.append(
            f'  {g.einit[pos]} -> {g.head(pos)} [label="{g.elabel[pos].token}"];'
        )
    lines.append("}")
    return "\n".join(lines)
