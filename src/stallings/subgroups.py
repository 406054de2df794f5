"""Finitely generated subgroups of free groups via their core graphs.

Every subgroup is represented by the folded, trimmed graph whose closed
paths at the base point spell exactly the subgroup's elements.  This
module builds that graph, answers membership, extracts a free basis,
compares subgroups, and constructs a conjugator that makes the graph
morphism of an inclusion surjective.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    NotIncludedError,
    StallingsError,
    TrivialGraphError,
    TrivialSubgroupError,
)
from .graph import (
    GraphMorphism,
    LabeledGraph,
    attach_path,
    bouquet,
    core,
    trace,
    unique_pointed_morphism,
    _peel,
)
from .words import (
    IDENTITY,
    Alphabet,
    Letter,
    Word,
    free_reduce,
    invert,
    last_letter,
    parse_word,
)


@dataclass(frozen=True)
class Subgroup:
    """A finitely generated subgroup, given by a generating list."""

    alphabet: Alphabet
    generators: tuple[Word, ...]

    def __post_init__(self):
        for w in self.generators:
            self.alphabet.check_word(w)

    @classmethod
    def of(cls, alphabet: Alphabet, *gens: str) -> "Subgroup":
        return cls(alphabet, tuple(parse_word(g) for g in gens))

    def is_trivial(self) -> bool:
        return all(len(w) == 0 for w in self.generators)

    def conjugate(self, w: Word) -> "Subgroup":
        """The subgroup w H w^-1."""
        wi = invert(w)
        return Subgroup(
            self.alphabet,
            tuple(free_reduce(w.letters + g.letters + wi.letters) for g in self.generators),
        )

    def __repr__(self) -> str:
        return f"Subgroup<{', '.join(repr(g) for g in self.generators)}>"


def load_subgroup(text: str, alphabet: Alphabet | None = None) -> Subgroup:
    """Parse a subgroup file: one generator word per line, ``#`` comments."""
    gens: list[Word] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            gens.append(parse_word(line))
    if alphabet is None:
        alphabet = Alphabet(tuple(dict.fromkeys(l.gen for w in gens for l in w)))
    return Subgroup(alphabet, tuple(gens))


def gamma(h: Subgroup) -> LabeledGraph:
    """The core graph of a subgroup: fold a wedge of generator loops."""
    words = [w for w in h.generators if w]
    if not words:
        return LabeledGraph(h.alphabet, 1, (), (), 0, _validate=False)
    return core(bouquet(h.alphabet, words))


def contains(h: Subgroup, w: Word) -> bool:
    """Membership: does the word close up at the base point?"""
    g = gamma(h)
    return trace(g, g.base, w) == g.base


def pi1_basis(g: LabeledGraph) -> list[Word]:
    """A free basis from a spanning tree: one word per non-tree edge."""
    if g.base is None:
        raise TrivialGraphError("basis extraction needs a pointed graph")
    index = g.alphabet.code_index
    parent_dart: dict[int, int] = {g.base: -1}
    order = [g.base]
    tree_edges: set[int] = set()
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for e in sorted(g.out_edges(v), key=lambda e: index(g.elabel[e])):
            w = g.head(e)
            if w not in parent_dart:
                parent_dart[w] = e
                tree_edges.add(e // 2)
                order.append(w)

    def path_to(v: int) -> list[int]:
        codes: list[int] = []
        while v != g.base:
            d = parent_dart[v]
            codes.append(g.elabel[d])
            v = g.einit[d]
        return codes[::-1]

    basis = []
    for e in range(0, g.n_half_edges, 2):
        if e // 2 in tree_edges:
            continue
        pos = e if g.elabel[e] > 0 else e ^ 1
        codes = (
            path_to(g.einit[pos])
            + [g.elabel[pos]]
            + [-c for c in reversed(path_to(g.head(pos)))]
        )
        basis.append(free_reduce(map(g.alphabet.decode, codes)))
    return basis


def inclusion_morphism(h: Subgroup, k: Subgroup) -> GraphMorphism | None:
    """The graph morphism of an inclusion, or None when h is not inside k."""
    return unique_pointed_morphism(gamma(h), gamma(k))


def conjugate_core(g: LabeledGraph, w: Word) -> LabeledGraph:
    """Core graph of the conjugated subgroup: attach a path, then fold and trim."""
    return core(attach_path(g, w))


# -- covering circuits ----------------------------------------------------


def _dart_bfs(
    g: LabeledGraph,
    allowed: set[int],
    start_vertex: int,
    last_dart: int | None,
    is_target,
    first_code_not: int = 0,
) -> list[int] | None:
    """Shortest reduced dart path from a position to a target dart.

    A position is (vertex, dart last traversed); continuations may not
    immediately reverse.  Only darts whose geometric edge is in
    ``allowed`` are used.
    """
    frontier: list[int] = []
    parent: dict[int, int | None] = {}
    for d in g.out_edges(start_vertex):
        if d // 2 not in allowed:
            continue
        if last_dart is not None and d == (last_dart ^ 1):
            continue
        if g.elabel[d] == first_code_not:
            continue
        if d not in parent:
            parent[d] = None
            frontier.append(d)
    queue = deque(frontier)
    while queue:
        d = queue.popleft()
        if is_target(d):
            path = [d]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return list(reversed(path))
        v = g.head(d)
        for e in g.out_edges(v):
            if e // 2 not in allowed or e == (d ^ 1) or e in parent:
                continue
            parent[e] = d
            queue.append(e)
    return None


def covering_circuit(g: LabeledGraph, first_letter_not: Letter | None = None) -> Word:
    """Label of a reduced closed path at the base covering every edge.

    Repeated edges are fine.  ``first_letter_not`` forbids one choice of
    first letter (used by :func:`onto_base`); when the graph has a
    hanging path at the base the first letter is forced, and forbidding
    it is an error.
    """
    if g.base is None or not g.is_core():
        raise TrivialGraphError("covering circuits need a pointed core graph")
    if g.n_edges == 0:
        raise TrivialGraphError("the one-vertex graph has no circuits")

    forbidden = 0  # no label has code 0
    if first_letter_not in g.alphabet:
        forbidden = g.alphabet.code(first_letter_not)

    kept_v, kept_e = _peel(g, None)
    allowed = {e // 2 for e in kept_e}
    kept_vset = set(kept_v)

    # hanging path from the base down to the 2-core
    tail: list[int] = []
    v = g.base
    incoming: int | None = None
    while v not in kept_vset:
        outs = [
            e
            for e in g.out_edges(v)
            if incoming is None or e != (incoming ^ 1)
        ]
        d = outs[0]
        tail.append(d)
        incoming = d
        v = g.head(d)
    junction = v

    if tail and g.elabel[tail[0]] == forbidden:
        raise StallingsError("the forced first letter is forbidden")

    circuit: list[int] = list(tail)
    uncovered = set(allowed)
    pos_vertex, pos_dart = junction, (tail[-1] if tail else None)
    first_not = forbidden if not tail else 0
    while uncovered:
        leg = _dart_bfs(
            g,
            allowed,
            pos_vertex,
            pos_dart,
            lambda d: d // 2 in uncovered,
            first_code_not=first_not,
        )
        if leg is None:
            raise StallingsError("no reduced walk reaches an uncovered edge")
        first_not = 0
        for d in leg:
            uncovered.discard(d // 2)
        circuit.extend(leg)
        pos_dart = leg[-1]
        pos_vertex = g.head(pos_dart)
    if pos_vertex != junction:
        leg = _dart_bfs(
            g, allowed, pos_vertex, pos_dart, lambda d: g.head(d) == junction
        )
        if leg is None:
            raise StallingsError("no reduced walk closes the circuit")
        circuit.extend(leg)
    circuit.extend(d ^ 1 for d in reversed(tail))

    letters = tuple(g.alphabet.decode(g.elabel[d]) for d in circuit)
    word = free_reduce(letters)
    assert len(word) == len(letters), "covering circuit must be reduced"
    return word


# -- a base where the inclusion morphism is onto ---------------------------


class OntoBase(NamedTuple):
    conjugator: Word
    morphism: GraphMorphism


def _tail_word(g: LabeledGraph) -> Word:
    """Label of the hanging path from a degree-1 base to the first branch."""
    if g.degree(g.base) >= 2:
        return IDENTITY
    codes: list[int] = []
    v = g.base
    incoming: int | None = None
    while v == g.base or g.degree(v) == 2:
        outs = [
            e for e in g.out_edges(v) if incoming is None or e != (incoming ^ 1)
        ]
        if not outs:
            break
        d = outs[0]
        codes.append(g.elabel[d])
        incoming = d
        v = g.head(d)
    return free_reduce(map(g.alphabet.decode, codes))


def onto_base(h: Subgroup, k: Subgroup) -> OntoBase:
    """A conjugator u in k making gamma(u h u^-1) -> gamma(u k u^-1) onto.

    Conjugating both subgroups by the same word amounts to changing the
    free basis by an inner automorphism; this finds one where the
    inclusion's graph morphism is surjective.  Raises when h is not
    contained in k, or h is trivial.
    """
    gh = gamma(h)
    gk = gamma(k)
    if unique_pointed_morphism(gh, gk) is None:
        raise NotIncludedError("the first subgroup is not inside the second")
    if gh.n_edges == 0:
        raise TrivialSubgroupError("the trivial subgroup cannot cover a graph")

    ell = _tail_word(gh)
    if not ell:
        u = covering_circuit(gk)
    else:
        ell_inv = invert(ell)
        k2 = k.conjugate(ell_inv)
        u1 = covering_circuit(gamma(k2), first_letter_not=last_letter(ell).inverse())
        u = free_reduce(ell.letters + u1.letters + ell_inv.letters)

    source = conjugate_core(gh, u)
    target = gamma(k)  # u lies in k, so conjugating k changes nothing
    f = unique_pointed_morphism(source, target)
    if f is None:
        raise StallingsError("internal error: conjugated subgroup left the ambient one")
    return OntoBase(u, f)
