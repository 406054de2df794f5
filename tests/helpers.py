"""Shared random generators and independent oracles for the tests.

The oracles here deliberately avoid the library's fast paths: folding by
one-pair-at-a-time scanning, trimming by rescanning for a leaf,
reduction by repeated adjacent elimination, Whitehead edges by brute
two-step path enumeration, canonical text by a plain breadth-first search,
edge images by reading the homomorphism's codes edge by edge, isomorphisms
of morphisms by checking the square on every vertex and half-edge.
"""

from __future__ import annotations

import random
import string
import sys
from collections import Counter

from hypothesis import strategies as st

from stallings import _kernel, graph as graph_module
from stallings.cases.fuzz import random_reduced_word
from stallings.errors import UnknownGeneratorError
from stallings.graph import (
    GraphMorphism,
    LabeledGraph,
    bouquet,
    canonical_form,
)
from stallings.subgroups import Subgroup
from stallings.words import Alphabet, GroupHom, Letter, Word, invert_codes, reduce_codes

__all__ = [
    "graph",
    "spelled",
    "hang_path",
    "image_paths",
    "naive_is_folded",
    "count_folds",
    "count_identifications",
    "count_library_calls",
    "holders",
    "random_reduced_word",
    "list_reduced_word",
    "random_subgroup",
    "random_hom",
    "random_wedge",
    "reduced_words",
    "relabel",
    "pointed_graphs",
    "nested_pairs",
    "naive_fold",
    "naive_trim",
    "naive_kept",
    "naive_member",
    "naive_reduce",
    "naive_parse",
    "two_path_edges",
    "naive_canonical_form",
    "naive_search",
    "same_at_some_root",
    "naive_isomorphism",
    "naive_square_isomorphic",
    "counting_names",
    "ALPHABETS",
]

ALPHABETS = [Alphabet.of(*"abcd"[:n]) for n in (1, 2, 3, 4)]


def graph(
    alphabet: Alphabet,
    n_vertices: int,
    edges: list[tuple[int, int, Letter]],
    base: int | None = None,
) -> LabeledGraph:
    """A checked graph from oriented edges ``(tail, head, letter)``."""
    einit: list[int] = []
    elabel: list[int] = []
    for u, v, l in edges:
        (c,) = alphabet.encode([l])
        einit += (u, v)
        elabel += (c, -c)
    return LabeledGraph(alphabet, n_vertices, tuple(einit), tuple(elabel), base)


def spelled(
    alphabet: Alphabet,
    n_vertices: int,
    paths: list[tuple[int, int, tuple[int, ...]]],
    base: int | None = None,
) -> LabeledGraph:
    """Vertices ``0..n_vertices-1`` joined by paths ``(u, v, codes)``, unfolded.

    Each nonempty code word is spelled letter by letter on fresh
    interior vertices, through :func:`graph`.
    """
    edges = []
    n = n_vertices
    for u, v, codes in paths:
        if not codes:
            continue
        walk = [u, *range(n, n + len(codes) - 1), v]
        n += len(codes) - 1
        edges += [(p, q, alphabet.decode(c)) for p, q, c in zip(walk, walk[1:], codes)]
    return graph(alphabet, n, edges, base)


def hang_path(g: LabeledGraph, codes: tuple[int, ...]) -> LabeledGraph:
    """g with a path spelling codes from a fresh vertex to its base, the new base.

    Spelled by :func:`spelled` after g's own edges, so g keeps its
    numbering; the fresh vertex is ``g.n_vertices``.  An empty word
    gives g back.
    """
    if not codes:
        return g
    n = g.n_vertices
    edges = [(g.einit[e], g.einit[e ^ 1], (g.elabel[e],)) for e in range(0, g.n_half_edges, 2)]
    return spelled(g.alphabet, n + 1, edges + [(n, g.base, codes)], n)


def image_paths(phi: GroupHom, g: LabeledGraph) -> list[tuple[int, int, tuple[int, ...]]]:
    """One path ``(tail, head, image codes)`` per edge of g, read off phi's codes.

    The image of an inverse letter is the generator's image with every
    code negated, in reverse order.
    """
    paths = []
    for e in range(0, g.n_half_edges, 2):
        c = g.elabel[e]
        image = phi.codes[c - 1] if c > 0 else tuple(-d for d in reversed(phi.codes[-c - 1]))
        paths.append((g.einit[e], g.einit[e ^ 1], image))
    return paths


def naive_is_folded(g: LabeledGraph) -> bool:
    """No two half-edges share an initial vertex and a label."""
    return len(set(zip(g.einit, g.elabel))) == g.n_half_edges


def count_calls(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every call of ``owner.name`` from now on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def holders(name: str) -> list:
    """Every loaded library module that holds ``graph.name``: graph and its importers by name."""
    original = getattr(graph_module, name)
    return [
        module for key, module in list(sys.modules.items())
        if key.partition(".")[0] == "stallings" and getattr(module, name, None) is original
    ]


def count_library_calls(monkeypatch, name: str) -> list:
    """Record every call of ``graph.name`` from now on, whichever library module makes it."""
    owners = holders(name)
    calls = count_calls(monkeypatch, graph_module, name)
    for owner in owners:
        monkeypatch.setattr(owner, name, getattr(graph_module, name))
    return calls


def count_folds(monkeypatch) -> list:
    """Record the arguments of every fold-kernel call from now on."""
    return count_calls(monkeypatch, _kernel, "fold")


def count_identifications(monkeypatch) -> list:
    """Record every merge of two vertices that a lay starts where two reads meet.

    The recorded arguments are the lay's own lists, which keep changing.
    """
    return count_calls(monkeypatch, graph_module, "_identify")


def list_reduced_word(
    rng: random.Random, alphabet: Alphabet, max_len: int
) -> tuple[int, ...]:
    """The reference draw of a random reduced code word.

    Each letter is ``rng.choice`` from the list of all codes in
    :meth:`Alphabet.letters` order, less the previous letter's inverse;
    :func:`random_reduced_word` must draw the same words from a seed.
    """
    codes = [c for i in range(1, len(alphabet) + 1) for c in (i, -i)]
    length = rng.randint(1, max_len)
    out: list[int] = []
    for _ in range(length):
        choices = [c for c in codes if c != -out[-1]] if out else codes
        out.append(rng.choice(choices))
    return tuple(out)


def random_subgroup(
    rng: random.Random,
    alphabet: Alphabet,
    max_gens: int = 5,
    max_len: int = 10,
) -> Subgroup:
    n = rng.randint(1, max_gens)
    return Subgroup(
        alphabet,
        [alphabet.word(random_reduced_word(rng, alphabet, max_len)) for _ in range(n)],
    )


def random_hom(
    rng: random.Random,
    source: Alphabet,
    target: Alphabet,
    max_len: int = 5,
) -> GroupHom:
    return GroupHom(
        source,
        target,
        {g: target.word(random_reduced_word(rng, target, max_len)) for g in source.generators},
    )


def random_wedge(rng: random.Random, alphabet: Alphabet, max_words: int = 5,
                 max_len: int = 8) -> LabeledGraph:
    words = [
        random_reduced_word(rng, alphabet, max_len)
        for _ in range(rng.randint(1, max_words))
    ]
    return bouquet(alphabet, words)


def reduced_words(
    rng: random.Random, rank: int, count: int, length: int
) -> tuple[tuple[int, ...], ...]:
    """``count`` random reduced code words of exactly ``length`` letters."""
    codes = [c for i in range(1, rank + 1) for c in (i, -i)]
    words = []
    for _ in range(count):
        w = [rng.choice(codes)]
        while len(w) < length:
            w.append(rng.choice([c for c in codes if c != -w[-1]]))
        words.append(tuple(w))
    return tuple(words)


def relabel(g: LabeledGraph, rng: random.Random) -> LabeledGraph:
    """The same graph under a random renumbering.

    Vertices and edges are shuffled and each edge is flipped with even
    odds, so the fold meets the collisions in another order.
    """
    vnew = list(range(g.n_vertices))
    rng.shuffle(vnew)
    order = list(range(0, g.n_half_edges, 2))
    rng.shuffle(order)
    einit: list[int] = []
    elabel: list[int] = []
    for e in order:
        e ^= rng.randrange(2)
        einit += (vnew[g.einit[e]], vnew[g.einit[e ^ 1]])
        elabel += (g.elabel[e], g.elabel[e ^ 1])
    base = None if g.base is None else vnew[g.base]
    return LabeledGraph(g.alphabet, g.n_vertices, tuple(einit), tuple(elabel), base)


@st.composite
def pointed_graphs(draw, alphabet: Alphabet = ALPHABETS[2]) -> LabeledGraph:
    """Unfolded pointed graphs of the kinds the library takes cores of.

    A bouquet of words, a bouquet with a path hung at its base by
    :func:`hang_path` (as in conjugation), or a bouquet subdivided along
    an endomorphism, spelled by :func:`spelled` from :func:`image_paths`.
    """
    letters = st.sampled_from(alphabet.letters())
    words = st.lists(letters, max_size=8).map(alphabet.encode).map(reduce_codes)
    g = bouquet(alphabet, draw(st.lists(words, min_size=1, max_size=4)))
    kind = draw(st.sampled_from(["bouquet", "attach", "subdivide"]))
    if kind == "attach":
        g = hang_path(g, draw(words))
    elif kind == "subdivide":
        images = st.lists(letters, min_size=1, max_size=4).map(Word).filter(bool)
        phi = GroupHom(alphabet, alphabet, {x: draw(images) for x in alphabet.generators})
        g = spelled(alphabet, g.n_vertices, image_paths(phi, g), g.base)
    return g


@st.composite
def nested_pairs(draw) -> tuple[Subgroup, Subgroup]:
    """(H, K) over {a, b} with H generated by products of K's generators."""
    ab = ALPHABETS[1]
    word = st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=5).map(reduce_codes)
    k_gens = draw(st.lists(word.filter(bool), min_size=1, max_size=3))
    factor = st.tuples(st.sampled_from(k_gens), st.booleans())
    h_gens = []
    for factors in draw(st.lists(st.lists(factor, min_size=1, max_size=3), min_size=1, max_size=3)):
        w = ()
        for g, inverse in factors:
            w = reduce_codes(w + (invert_codes(g) if inverse else g))
        h_gens.append(w)
    return Subgroup(ab, map(ab.word, h_gens)), Subgroup(ab, map(ab.word, k_gens))


def counting_names(names, passes: list) -> tuple:
    """A tuple of names that appends to ``passes`` on every full pass.

    ``__eq__``, ``__ne__``, ``__hash__`` and ``__iter__`` are recorded
    as ``"eq"``, ``"ne"``, ``"hash"`` and ``"iter"``; indexing is not.
    """

    class Names(tuple):
        def __eq__(self, other):
            passes.append("eq")
            return tuple.__eq__(self, other)

        def __ne__(self, other):
            passes.append("ne")
            return tuple.__ne__(self, other)

        def __hash__(self):
            passes.append("hash")
            return tuple.__hash__(self)

        def __iter__(self):
            passes.append("iter")
            return tuple.__iter__(self)

    return Names(names)


def naive_reduce(letters: list) -> tuple:
    """Repeated adjacent-pair elimination, rescanning from scratch.

    Takes ``Letter``s or codes; the inverse of a code is its negation.
    """
    inverse = lambda x: -x if isinstance(x, int) else x.inverse()
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == inverse(out[i + 1]):
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def naive_parse(lines, generators=None) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """Generator names and reduced code words, read token by token from the grammar.

    A token is a name, an ASCII letter followed by ASCII letters and
    digits, optionally suffixed by ``^-1``; the first malformed token in
    reading order raises.  Each line is reduced by :func:`naive_reduce`.
    Without ``generators`` they are the names of the reduced words in
    order of first appearance; with them, the first surviving letter
    whose name is not among them raises.  Nothing here calls
    ``stallings.words``.
    """
    seen: list[str] = []  # every name, cancelled or not, in order of first appearance
    reduced = []
    for line in lines:
        codes = []
        for token in line:
            name, sign = (token[:-3], -1) if token.endswith("^-1") else (token, 1)
            if not (
                name
                and name[0] in string.ascii_letters
                and all(ch in string.ascii_letters + string.digits for ch in name)
            ):
                raise UnknownGeneratorError(f"bad letter token {token!r}")
            if name not in seen:
                seen.append(name)
            codes.append(sign * (seen.index(name) + 1))
        reduced.append(naive_reduce(codes))
    if generators is None:
        generators = []
        for word in reduced:
            for c in word:
                if seen[abs(c) - 1] not in generators:
                    generators.append(seen[abs(c) - 1])
    generators = tuple(generators)
    out = []
    for word in reduced:
        letters = [(seen[abs(c) - 1], 1 if c > 0 else -1) for c in word]
        for name, sign in letters:
            if name not in generators:
                token = name if sign > 0 else name + "^-1"
                raise UnknownGeneratorError(f"{token} not over alphabet {generators}")
        out.append(tuple(sign * (generators.index(name) + 1) for name, sign in letters))
    return generators, tuple(out)


def naive_fold(g: LabeledGraph, rng: random.Random | None = None) -> LabeledGraph:
    """Fold one colliding pair at a time until folded.

    A deliberately slow fixpoint of the single-fold step; the pair to
    fold is chosen at random when a generator is supplied.
    """
    n = g.n_vertices
    einit = list(g.einit)
    elabel = list(g.elabel)
    base = g.base
    while True:
        collisions = []
        at: dict[tuple[int, int], int] = {}
        for e, v in enumerate(einit):
            key = (v, elabel[e])
            if key in at:
                collisions.append((at[key], e))
                if rng is None:
                    break
            else:
                at[key] = e
        if not collisions:
            break
        e, f = rng.choice(collisions) if rng is not None else collisions[0]
        a, b = einit[e ^ 1], einit[f ^ 1]
        f -= f % 2
        del einit[f : f + 2], elabel[f : f + 2]
        if a != b:
            keep, gone = min(a, b), max(a, b)
            einit = [
                keep if v == gone else (v - 1 if v > gone else v) for v in einit
            ]
            if base is not None:
                base = keep if base == gone else (base - 1 if base > gone else base)
            n -= 1
    return LabeledGraph(g.alphabet, n, tuple(einit), tuple(elabel), base)


def naive_trim(g: LabeledGraph) -> LabeledGraph:
    """Delete a non-base vertex of degree at most one until none is left.

    Degrees are recounted from scratch after every deletion; an
    unpointed graph keeps its last vertex.
    """
    n = g.n_vertices
    einit = list(g.einit)
    elabel = list(g.elabel)
    base = g.base
    while True:
        degree = [0] * n
        for v in einit:
            degree[v] += 1
        leaves = [v for v in range(n) if v != base and degree[v] <= 1]
        if not leaves or n == 1:
            break
        v = leaves[0]
        # both half-edges of the leaf's edge start at v or end at v
        keep = [e for e in range(len(einit)) if v not in (einit[e], einit[e ^ 1])]
        einit = [einit[e] - (einit[e] > v) for e in keep]
        elabel = [elabel[e] for e in keep]
        if base is not None:
            base -= base > v
        n -= 1
    return LabeledGraph(g.alphabet, n, tuple(einit), tuple(elabel), base)


def naive_kept(g: LabeledGraph) -> list[int]:
    """The vertices of g, ascending, that trimming with no base point keeps.

    Delete a vertex of degree at most one until none is left, with
    degrees recounted from scratch over the surviving vertices after
    every deletion; a tree keeps its last vertex.
    """
    alive = list(range(g.n_vertices))
    while len(alive) > 1:
        degree = Counter(
            v for e, v in enumerate(g.einit) if v in alive and g.einit[e ^ 1] in alive
        )
        leaves = [v for v in alive if degree[v] <= 1]
        if not leaves:
            break
        alive.remove(leaves[0])
    return alive


def covers_every_edge(g: LabeledGraph, words) -> bool:
    """Do the code words, each read from g's base, cross every edge of g?

    Each word is walked over ``einit`` and ``elabel`` alone, through a
    dict built here from (vertex, label) to half-edge; no library walk
    runs.  A word that falls off g, or does not close up at the base,
    makes the answer False.  For reduced generators of a subgroup H of
    the subgroup g is the core graph of, this says whether the morphism
    Gamma(H) -> g is onto: folding the generators' bouquet gives Gamma(H),
    and folding is onto.
    """
    step = {(v, c): e for e, (v, c) in enumerate(zip(g.einit, g.elabel))}
    crossed = set()
    for codes in words:
        v = g.base
        for c in codes:
            e = step.get((v, c))
            if e is None:
                return False
            crossed.add(e >> 1)
            v = g.einit[e ^ 1]
        if v != g.base:
            return False
    return len(crossed) == g.n_edges


def naive_member(h: Subgroup, w: Word) -> bool:
    """Membership by walking ``w`` in :func:`naive_fold` of the generator loops.

    The loops are spelled by :func:`spelled` and the walk is made by
    scanning the half-edge arrays, without the library's bouquet,
    folding, lookup or trace.
    """
    code = {name: i + 1 for i, name in enumerate(h.alphabet.generators)}
    folded = naive_fold(spelled(h.alphabet, 1, [(0, 0, g) for g in h.codes], 0))
    v = folded.base
    for l in w:
        if l.gen not in code:
            return False
        c = code[l.gen] * l.sign
        heads = [
            folded.einit[e ^ 1]
            for e in range(folded.n_half_edges)
            if folded.einit[e] == v and folded.elabel[e] == c
        ]
        if not heads:
            return False
        v = heads[0]
    return v == folded.base


def two_path_edges(g: LabeledGraph) -> frozenset:
    """Whitehead edges by brute enumeration of two-step paths."""
    edges = set()
    for e in range(g.n_half_edges):
        for f in range(g.n_half_edges):
            if f == e ^ 1:
                continue
            if g.einit[f] != g.einit[e ^ 1]:
                continue
            a, b = g.alphabet.decode(g.elabel[e]), g.alphabet.decode(g.elabel[f ^ 1])
            if a != b:
                edges.add(frozenset((a, b)))
    return frozenset(edges)


def naive_search(g: LabeledGraph, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from ``root`` and each vertex's parent half-edge.

    The out-edges of every vertex are gathered in one scan of the
    half-edges and followed in the order of their letters in
    ``Alphabet.letters()``, equal letters in half-edge order.  A parent
    is the half-edge that first reached the vertex: -1 at the root, -2
    at a vertex never reached.
    """
    names = g.alphabet.generators
    letters = list(g.alphabet.letters())

    def letter(e: int) -> Letter:
        c = g.elabel[e]
        return Letter(names[abs(c) - 1], 1 if c > 0 else -1)

    out: dict[int, list[int]] = {}
    for e in range(g.n_half_edges):
        out.setdefault(g.einit[e], []).append(e)
    order = [root]
    parent = [-2] * g.n_vertices
    parent[root] = -1
    for v in order:
        for e in sorted(out.get(v, []), key=lambda e: letters.index(letter(e))):
            w = g.einit[e ^ 1]
            if parent[w] == -2:
                parent[w] = e
                order.append(w)
    return order, parent


def naive_canonical_form(g: LabeledGraph, root: int | None = None) -> str:
    """Canonical text by a plain breadth-first search.

    Vertices are numbered in :func:`naive_search` order; rows are sorted
    as ``(tail, token, head)`` tuples.
    """
    names = g.alphabet.generators
    root = g.base if root is None else root
    number = {v: i for i, v in enumerate(naive_search(g, root)[0])}
    rows = sorted(
        (number[g.einit[e]], names[g.elabel[e] - 1], number[g.einit[e ^ 1]])
        for e in range(g.n_half_edges)
        if g.elabel[e] > 0
    )
    lines = [f"base {number[root]}"] + [f"{v} -{t}-> {w}" for v, t, w in rows]
    return "\n".join(lines)


def same_at_some_root(g: LabeledGraph, oracle: LabeledGraph) -> bool:
    """Whether folded connected ``g`` and ``oracle`` agree once bases are forgotten.

    Each vertex is sorted by the codes on its out-edges, found by scanning
    the half-edges. ``g`` is read by :func:`canonical_form` at one root of
    its rarest kind, and ``oracle`` by :func:`naive_canonical_form` at its
    roots of the same kind until one gives the same text. This is the
    test that the texts at every root agree as multisets, without
    reading each graph from every root.
    """

    def kinds(h: LabeledGraph) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(h.n_vertices)]
        for e in range(h.n_half_edges):
            out[h.einit[e]].append(h.elabel[e])
        return [tuple(sorted(codes)) for codes in out]

    mine, theirs = kinds(g), kinds(oracle)
    if sorted(mine) != sorted(theirs):
        return False
    count = Counter(mine)
    root = min(range(g.n_vertices), key=lambda v: (count[mine[v]], v))
    text = canonical_form(g, root)
    return any(
        naive_canonical_form(oracle, v) == text
        for v in range(oracle.n_vertices)
        if theirs[v] == mine[root]
    )


def naive_isomorphism(
    g: LabeledGraph, d: LabeledGraph, v: int, w: int
) -> tuple[dict[int, int], dict[int, int]] | None:
    """The isomorphism g -> d sending v to w, as vertex and half-edge maps.

    Grows the map from v, matching each half-edge of g to the one
    half-edge of d at the image vertex with the same label, found by
    scanning all of d's half-edges; None when there is no such
    half-edge or more than one, when images clash, or when the map is
    not a bijection.
    """
    if (g.alphabet.generators, g.n_vertices, g.n_half_edges) != (
        d.alphabet.generators, d.n_vertices, d.n_half_edges
    ):
        return None
    vmap, emap = {v: w}, {}
    stack = [v]
    while stack:
        x = stack.pop()
        for e in range(g.n_half_edges):
            if g.einit[e] != x:
                continue
            matches = [
                f
                for f in range(d.n_half_edges)
                if d.einit[f] == vmap[x] and d.elabel[f] == g.elabel[e]
            ]
            if len(matches) != 1 or emap.setdefault(e, matches[0]) != matches[0]:
                return None
            y, z = g.einit[e ^ 1], d.einit[matches[0] ^ 1]
            if y not in vmap:
                vmap[y] = z
                stack.append(y)
            elif vmap[y] != z:
                return None
    if len(set(vmap.values())) != d.n_vertices or len(set(emap.values())) != d.n_half_edges:
        return None
    return vmap, emap


def naive_square_isomorphic(f1: GraphMorphism, f2: GraphMorphism) -> bool:
    """Whether isomorphisms of sources and targets make the square commute.

    The explicit check: for every source isomorphism (0 -> w), take the
    target isomorphism seeded at ``f1.vmap[0] -> f2.vmap[w]`` and compare
    both ways round the square on every vertex and every half-edge.
    """
    s1 = f1.source
    for w in range(f2.source.n_vertices):
        source_iso = naive_isomorphism(s1, f2.source, 0, w)
        if source_iso is None:
            continue
        target_iso = naive_isomorphism(f1.target, f2.target, f1.vmap[0], f2.vmap[w])
        if target_iso is None:
            continue
        (gv, ge), (hv, he) = source_iso, target_iso
        if all(hv[f1.vmap[x]] == f2.vmap[gv[x]] for x in range(s1.n_vertices)) and all(
            he[f1.emap[e]] == f2.emap[ge[e]] for e in range(s1.n_half_edges)
        ):
            return True
    return False
