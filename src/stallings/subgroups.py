"""Finitely generated subgroups of free groups via their core graphs.

Every subgroup is represented by the folded, trimmed graph whose closed
paths at the base point spell exactly the subgroup's elements.  This
module builds that graph, answers membership, extracts a free basis,
compares subgroups, and constructs a conjugator that makes the graph
morphism of an inclusion surjective.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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
    core,
    trace,
    unique_pointed_morphism,
    _bfs_order,
    _bouquet,
    _peel,
    _whole,
)
from .words import (
    Alphabet,
    Letter,
    Word,
    free_reduce,
    invert,
    last_letter,
    parse_letter,
    parse_word,
)


@dataclass(frozen=True)
class Subgroup:
    """A finitely generated subgroup, given by a generating list.

    It also holds its core graph once :func:`gamma` has folded it; the
    graph is immutable, so every caller shares the one object.
    """

    alphabet: Alphabet
    generators: tuple[Word, ...]
    # the generators encoded over the alphabet, made once when checking them
    _codes: tuple[list[int], ...] = field(init=False, repr=False, compare=False)
    _core: LabeledGraph | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        encode = self.alphabet.encode
        object.__setattr__(self, "_codes", tuple([encode(w) for w in self.generators]))

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
    """Parse a subgroup file: one generator word per line, ``#`` comments.

    Without an alphabet, the generators are those of the reduced words,
    in order of first appearance.
    """
    letters: dict[str, Letter] = {}  # each distinct token parsed once

    def letter(token: str) -> Letter:
        l = letters.get(token)
        if l is None:
            l = letters[token] = parse_letter(token)
        return l

    gens: list[Word] = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            gens.append(free_reduce(map(letter, tokens)))
    if alphabet is None:
        alphabet = Alphabet(tuple(dict.fromkeys(l.gen for w in gens for l in w)))
    return Subgroup(alphabet, tuple(gens))


def gamma(h: Subgroup) -> LabeledGraph:
    """The core graph of a subgroup: fold a wedge of generator loops.

    The first call folds and stores the graph on ``h``; later calls
    return that same graph.
    """
    if h._core is None:
        object.__setattr__(h, "_core", core(_bouquet(h.alphabet, h._codes)))
    return h._core


def contains(h: Subgroup, w: Word) -> bool:
    """Membership: does the word close up at the base point?"""
    g = gamma(h)
    return trace(g, g.base, w) == g.base


def pi1_basis(g: LabeledGraph) -> list[Word]:
    """A free basis from a spanning tree: one word per non-tree edge."""
    if g.base is None:
        raise TrivialGraphError("basis extraction needs a pointed graph")
    parent_dart = _bfs_order(g, g.base)[1]
    tree_edges = {d // 2 for d in parent_dart if d >= 0}

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
    gh, gk = gamma(h), gamma(k)
    return unique_pointed_morphism(gh, gk)


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

    _, kept_e, tail = _peel(*_whole(g), None)  # tail: the hanging path from the base
    allowed = {e // 2 for e in kept_e}
    junction = g.head(tail[-1]) if tail else g.base

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


def onto_base(h: Subgroup, k: Subgroup) -> OntoBase:
    """A conjugator u in k making gamma(u h u^-1) -> gamma(u k u^-1) onto.

    Conjugating both subgroups by the same word amounts to changing the
    free basis by an inner automorphism; this finds one where the
    inclusion's graph morphism is surjective.  Raises when h is not
    contained in k, or h is trivial.
    """
    gh = gamma(h)
    gk = gamma(k)
    if inclusion_morphism(h, k) is None:
        raise NotIncludedError("the first subgroup is not inside the second")
    if gh.n_edges == 0:
        raise TrivialSubgroupError("the trivial subgroup cannot cover a graph")

    tail = _peel(*_whole(gh), None)[2]  # the hanging path from the base
    ell = free_reduce(gh.alphabet.decode(gh.elabel[d]) for d in tail)
    if not ell:
        u = covering_circuit(gk)
    else:
        ell_inv = invert(ell)
        k2 = k.conjugate(ell_inv)
        u1 = covering_circuit(gamma(k2), first_letter_not=last_letter(ell).inverse())
        u = free_reduce(ell.letters + u1.letters + ell_inv.letters)

    source = conjugate_core(gh, u)
    f = unique_pointed_morphism(source, gk)  # u lies in k, so u k u^-1 = k
    if f is None:
        raise StallingsError("internal error: conjugated subgroup left the ambient one")
    return OntoBase(u, f)
