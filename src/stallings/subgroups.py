"""Finitely generated subgroups of free groups via their core graphs.

Every subgroup is represented by the folded, trimmed graph whose closed
paths at the base point spell exactly the subgroup's elements.  This
module builds that graph, answers membership, extracts a free basis,
compares subgroups, and constructs a conjugator that makes the graph
morphism of an inclusion surjective.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    InternalError,
    MissingBaseError,
    NotFoldedError,
    NotIncludedError,
    StallingsError,
    TrivialGraphError,
    TrivialSubgroupError,
    UnknownGeneratorError,
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
        try:  # one check of the distinct codes; a bad one is named in reading order
            _check_labels(h.alphabet, {*chain.from_iterable(h.codes)})
        except UnknownGeneratorError:
            _check_labels(h.alphabet, [*chain.from_iterable(h.codes)])
            raise
        loops = [(0, 0, w) for w in h.codes if w]
        object.__setattr__(h, "_core", _fold_paths(h.alphabet, 1, loops, 0))
    return h._core


def _closes(heads: list[dict[int, int]], base: int, table: list[int], codes: Iterable[int]) -> bool:
    """Does the path spelling ``table[c]`` for each code close up at the base?

    ``heads`` is a folded graph's head table; the walk stops at the
    first code with no edge.
    """
    v = base
    try:
        for c in codes:
            v = heads[v][table[c]]
    except KeyError:
        return False
    return v == base


def contains(h: Subgroup, w: Word) -> bool:
    """Membership: does the word close up at the base point?

    The query is read in one pass, as :meth:`Alphabet.read` would read
    it over the subgroup's alphabet: a word over that alphabet's own
    generators, or one recoded code by code, is walked by :func:`trace`;
    a parsed word, whose names may come in another order, is walked
    through one renumbering table over its names, each code looked up
    in the table as the walk takes it.  The walk stops at the first code
    with no edge.  A letter outside the subgroup's alphabet reads as
    code 0, which labels no edge, so such a word is not a member.
    """
    g = gamma(h)
    codes, table = h.alphabet._reading(w)
    if table is None:
        return trace(g, g.base, codes) == g.base
    return _closes(g._heads or g._head_table(), g.base, table, codes)  # no call once built


def contains_codes(
    h: Subgroup, source: Alphabet, words: Iterable[Sequence[int]]
) -> list[bool]:
    """Membership of many code words over one alphabet, such as a parsed batch.

    Each word is walked through one renumbering table from ``source`` to
    the subgroup's alphabet, built once for the batch, each code looked
    up in it as the walk takes it.  A generator missing from the
    subgroup's alphabet reads as code 0, which labels no edge, so a word
    that keeps one is not a member.
    """
    g = gamma(h)
    heads, base = g._head_table(), g.base
    table = h.alphabet._renumbering(source.generators)
    verdicts = []
    for w in words:
        _check_labels(source, w)
        verdicts.append(_closes(heads, base, table, w))
    return verdicts


def pi1_basis(g: LabeledGraph) -> list[tuple[int, ...]]:
    """A free basis from a spanning tree: one code word per non-tree edge."""
    if g.base is None:
        raise MissingBaseError("basis extraction needs a pointed graph")
    if not g.is_folded():  # the non-tree edges of [a, a]'s bouquet spell a, a: no basis
        raise NotFoldedError("basis extraction needs a folded graph")
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
    g: LabeledGraph, allowed: set[int], start: int, last: int, is_target
) -> list[int] | None:
    """Shortest reduced dart path from a position to a target dart.

    A position is a vertex and the dart last traversed into it (-1 for
    none); no step may reverse the step before it.  Only darts whose
    geometric edge is in ``allowed`` are used.
    """
    out, einit = g._out_lists(), g.einit
    parent = dict.fromkeys([d for d in out[start] if d // 2 in allowed and d != last ^ 1], -1)
    queue = deque(parent)
    while queue:
        d = queue.popleft()
        if is_target(d):
            path = [d]
            while parent[path[-1]] >= 0:
                path.append(parent[path[-1]])
            return path[::-1]
        for e in out[einit[d ^ 1]]:
            if e // 2 in allowed and e != d ^ 1 and e not in parent:
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
    if tail:
        if g.elabel[tail[0]] == first_code_not:
            raise StallingsError("the forced first letter is forbidden")
        last = tail[-1]
        junction = g.head(last)
    else:  # a core is folded, so at most one dart leaves the base with that letter
        last = next((d ^ 1 for d in g.out_edges(g.base) if g.elabel[d] == first_code_not), -1)
        junction = g.base

    # legs to an uncovered edge while one is left, then one back to the junction
    circuit, uncovered, v = list(tail), set(allowed), junction
    while uncovered or v != junction:
        leg = _dart_bfs(
            g, allowed, v, last,
            (lambda d: d // 2 in uncovered) if uncovered else (lambda d: g.head(d) == junction),
        )
        if leg is None:
            goal = "reaches an uncovered edge" if uncovered else "closes the circuit"
            raise InternalError(f"internal error: no reduced walk {goal}")
        uncovered.difference_update([d // 2 for d in leg])
        circuit += leg
        last = leg[-1]
        v = g.head(last)
    circuit += [d ^ 1 for d in reversed(tail)]

    codes = tuple([g.elabel[d] for d in circuit])
    if reduce_codes(codes) != codes:
        raise InternalError("internal error: the covering circuit is not reduced")
    return codes


# -- a base where the inclusion morphism is onto ---------------------------


class OntoBase(NamedTuple):
    conjugator: tuple[int, ...]  # a code word over the subgroups' alphabet
    morphism: GraphMorphism


def _conjugate_core(g: LabeledGraph, u: Sequence[int]) -> LabeledGraph:
    """The core of u H u^-1, for g the core of H: a path spelling u from a new base to g's."""
    n = g.n_vertices
    return _fold_paths(g.alphabet, n + 1, [*_edge_paths(g.einit, g.elabel), (n, g.base, u)], n)


def onto_base(h: Subgroup, k: Subgroup) -> OntoBase:
    """A conjugator u in k making gamma(u h u^-1) -> gamma(u k u^-1) onto.

    Conjugating both subgroups by the same word amounts to changing the
    free basis by an inner automorphism; this finds one where the
    inclusion's graph morphism is surjective.  Raises when h is not
    contained in k, or h is trivial.  The conjugator's codes are over k's
    alphabet; gamma(h)'s labels are read over k's alphabet by name.
    """
    gh, gk = gamma(h), gamma(k)
    if unique_pointed_morphism(gh, gk) is None:  # a name k lacks reads as 0 and fails
        raise NotIncludedError("the first subgroup is not inside the second")
    if gh.n_edges == 0:
        raise TrivialSubgroupError("the trivial subgroup cannot cover a graph")
    labels = k.alphabet.recode(gh.elabel, h.alphabet)
    gh = LabeledGraph(k.alphabet, gh.n_vertices, gh.einit, labels, gh.base, _validate=False)

    tail = _peel(*_whole(gh), None)[2]  # the hanging path from the base
    ell = tuple([gh.elabel[d] for d in tail])
    if not ell:
        u = covering_circuit(gk)
    else:  # ell reads from gk's base, so gamma(ell^-1 k ell) is gk rebased at its end
        ell_inv = invert_codes(ell)
        u1 = covering_circuit(_conjugate_core(gk, ell_inv), first_code_not=-ell[-1])
        u = reduce_codes(ell + u1 + ell_inv)

    f = unique_pointed_morphism(_conjugate_core(gh, u), gk)  # u lies in k, so u k u^-1 = k
    if f is None:
        raise InternalError("internal error: conjugated subgroup left the ambient one")
    return OntoBase(u, f)
