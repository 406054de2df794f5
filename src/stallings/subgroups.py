"""Finitely generated subgroups of free groups via their core graphs.

Every subgroup is represented by the folded, trimmed graph whose closed
paths at the base point spell exactly the subgroup's elements.  This
module builds that graph, answers membership, extracts a free basis,
compares subgroups, and constructs a conjugator that makes the graph
morphism of an inclusion surjective.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    InternalError,
    MissingBaseError,
    NotIncludedError,
    StallingsError,
    TrivialGraphError,
    TrivialSubgroupError,
)
from .graph import (
    GraphMorphism,
    LabeledGraph,
    core,  # unused here; perfbench's smoke test checks its tracer restores subgroups.core
    trace,
    unique_pointed_morphism,
    _bfs_order,
    _edge_paths,
    _fold_paths,
    _peel,
    _whole,
)
from .words import (
    Alphabet,
    Word,
    _check_labels,
    _Value,
    invert_codes,
    parse_codes,
    reduce_codes,
)


class Subgroup(_Value):
    """A finitely generated subgroup, given by a generating list.

    ``codes`` holds the generators as reduced code words over the
    alphabet; the constructor takes them as ``Word``s.  It also holds
    its core graph once :func:`gamma` has folded it; the graph is
    immutable, so every caller shares the one object.
    """

    alphabet: Alphabet
    codes: tuple[tuple[int, ...], ...]
    _core: LabeledGraph | None
    _fields = ("alphabet", "codes")  # the stored core is no part of the value
    __match_args__ = (*_fields, "_core")

    def __init__(self, alphabet: Alphabet, generators: Iterable[Word]):
        codes = tuple([alphabet._word_codes(w) for w in generators])
        self.__dict__.update(alphabet=alphabet, codes=codes, _core=None)

    @classmethod
    def _raw(cls, alphabet: Alphabet, codes: tuple[tuple[int, ...], ...]) -> "Subgroup":
        """A subgroup from code words the library made itself."""
        h = cls.__new__(cls)
        h.__dict__.update(alphabet=alphabet, codes=codes, _core=None)
        return h

    @classmethod
    def of(cls, alphabet: Alphabet, *gens: str) -> "Subgroup":
        return cls._raw(*parse_codes([g.split() for g in gens], alphabet))

    def is_trivial(self) -> bool:
        return not any(self.codes)

    def conjugate(self, u: Sequence[int]) -> "Subgroup":
        """The subgroup u H u^-1, for a code word u over the alphabet."""
        _check_labels(self.alphabet, u)
        ui = invert_codes(u)
        return Subgroup._raw(
            self.alphabet, tuple(reduce_codes((*u, *g, *ui)) for g in self.codes)
        )

    def __repr__(self) -> str:
        words = self.alphabet.word
        return f"Subgroup<{', '.join(repr(words(w)) for w in self.codes)}>"


def load_subgroup(text: str, alphabet: Alphabet | None = None) -> Subgroup:
    """Parse a subgroup file: one generator word per line, ``#`` comments.

    Without an alphabet, the generators are those of the reduced words,
    in order of first appearance.
    """
    lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    return Subgroup._raw(*parse_codes([t for t in lines if t], alphabet))


def gamma(h: Subgroup) -> LabeledGraph:
    """The core graph of a subgroup: its generator loops at the base, folded.

    The first call builds and stores the graph on ``h``; later calls
    return that same graph.
    """
    if h._core is None:
        for w in h.codes:
            _check_labels(h.alphabet, w)
        loops = [(0, 0, w) for w in h.codes if w]
        object.__setattr__(h, "_core", _fold_paths(h.alphabet, 1, loops, 0))
    return h._core


def contains(h: Subgroup, w: Word) -> bool:
    """Membership: does the word close up at the base point?

    The word's codes over the subgroup's alphabet come from
    :meth:`Alphabet.read` as the walk reads them, and the walk stops at
    the first code with no edge.  A parsed word carries its codes, so
    they are recoded by name and no letter is looked up.  A letter
    outside the subgroup's alphabet reads as code 0, which labels no
    edge, so such a word is not a member.
    """
    g = gamma(h)
    return trace(g, g.base, h.alphabet.read(w)) == g.base


def contains_codes(
    h: Subgroup, source: Alphabet, words: Iterable[Sequence[int]]
) -> list[bool]:
    """Membership of many code words over one alphabet, such as a parsed batch.

    Each word is read into the walk through one renumbering table from
    ``source`` to the subgroup's alphabet, built once for the batch.  A
    generator missing from the subgroup's alphabet reads as code 0, which
    labels no edge, so a word that keeps one is not a member.
    """
    g = gamma(h)
    table = h.alphabet._renumbering(source.generators)
    verdicts = []
    for w in words:
        _check_labels(source, w)
        verdicts.append(trace(g, g.base, map(table.__getitem__, w)) == g.base)
    return verdicts


def pi1_basis(g: LabeledGraph) -> list[tuple[int, ...]]:
    """A free basis from a spanning tree: one code word per non-tree edge."""
    if g.base is None:
        raise MissingBaseError("basis extraction needs a pointed graph")
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
        basis.append(reduce_codes(codes))
    return basis


def inclusion_morphism(h: Subgroup, k: Subgroup) -> GraphMorphism | None:
    """The graph morphism of an inclusion, or None when h is not inside k."""
    gh, gk = gamma(h), gamma(k)
    return unique_pointed_morphism(gh, gk)


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
    out, einit = g._out_lists(), g.einit
    frontier: list[int] = []
    parent: dict[int, int | None] = {}
    for d in out[start_vertex]:
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
        for e in out[einit[d ^ 1]]:
            if e // 2 not in allowed or e == (d ^ 1) or e in parent:
                continue
            parent[e] = d
            queue.append(e)
    return None


def covering_circuit(g: LabeledGraph, first_code_not: int = 0) -> tuple[int, ...]:
    """Label code word of a reduced closed path at the base covering every edge.

    Repeated edges are fine.  ``first_code_not`` forbids one choice of
    first letter (used by :func:`onto_base`; 0, the default, labels
    nothing); when the graph has a hanging path at the base the first
    letter is forced, and forbidding it is an error.
    """
    if g.base is None:
        raise MissingBaseError("covering circuits need a pointed core graph")
    if not g.is_core():
        raise TrivialGraphError("covering circuits need a pointed core graph")
    if g.n_edges == 0:
        raise TrivialGraphError("the one-vertex graph has no circuits")

    _, kept_e, tail = _peel(*_whole(g), None)  # tail: the hanging path from the base
    allowed = {e // 2 for e in kept_e}
    junction = g.head(tail[-1]) if tail else g.base

    if tail and g.elabel[tail[0]] == first_code_not:
        raise StallingsError("the forced first letter is forbidden")

    circuit: list[int] = list(tail)
    uncovered = set(allowed)
    pos_vertex, pos_dart = junction, (tail[-1] if tail else None)
    first_not = first_code_not if not tail else 0
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
            raise InternalError("internal error: no reduced walk reaches an uncovered edge")
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
            raise InternalError("internal error: no reduced walk closes the circuit")
        circuit.extend(leg)
    circuit.extend(d ^ 1 for d in reversed(tail))

    codes = tuple([g.elabel[d] for d in circuit])
    if reduce_codes(codes) != codes:
        raise InternalError("internal error: the covering circuit is not reduced")
    return codes


# -- a base where the inclusion morphism is onto ---------------------------


class OntoBase(NamedTuple):
    conjugator: tuple[int, ...]  # a code word over the subgroups' alphabet
    morphism: GraphMorphism


def onto_base(h: Subgroup, k: Subgroup) -> OntoBase:
    """A conjugator u in k making gamma(u h u^-1) -> gamma(u k u^-1) onto.

    Conjugating both subgroups by the same word amounts to changing the
    free basis by an inner automorphism; this finds one where the
    inclusion's graph morphism is surjective.  Raises when h is not
    contained in k, or h is trivial.  The conjugator's codes are over k's
    alphabet; h is recoded into it by name.
    """
    if h.alphabet is not k.alphabet:
        codes = tuple(k.alphabet.recode(w, h.alphabet) for w in h.codes)
        if any(0 in w for w in codes):  # a reduced word with a name k lacks
            raise NotIncludedError("the first subgroup is not inside the second")
        h = Subgroup._raw(k.alphabet, codes)
    gh = gamma(h)
    if inclusion_morphism(h, k) is None:
        raise NotIncludedError("the first subgroup is not inside the second")
    if gh.n_edges == 0:
        raise TrivialSubgroupError("the trivial subgroup cannot cover a graph")

    tail = _peel(*_whole(gh), None)[2]  # the hanging path from the base
    ell = tuple([gh.elabel[d] for d in tail])
    if not ell:
        u = covering_circuit(gamma(k))
    else:
        ell_inv = invert_codes(ell)
        k2 = k.conjugate(ell_inv)
        u1 = covering_circuit(gamma(k2), first_code_not=-ell[-1])
        u = reduce_codes(ell + u1 + ell_inv)

    # gamma(u h u^-1): gamma(h) with a path spelling u from a new base to its base
    n = gh.n_vertices
    source = _fold_paths(k.alphabet, n + 1, [*_edge_paths(gh), (n, gh.base, u)], n)
    f = unique_pointed_morphism(source, gamma(k))  # u lies in k, so u k u^-1 = k
    if f is None:
        raise InternalError("internal error: conjugated subgroup left the ambient one")
    return OntoBase(u, f)
