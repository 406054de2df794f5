"""The chain table, and the two consumers that read it.

``LabeledGraph._chain_table`` splits a graph into branch vertices and the
chains of degree-two vertices between them.  A core kept as laid gets
its chains from the lay; any other graph derives them from its
out-lists.  ``canonical_form`` searches by chains and events and
``whitehead_graph`` reads each chain's turns; both are checked here
against oracles that walk the graph vertex by vertex, on seeded inputs
of benchmark size and on the shapes where a chain search can slip.
"""

import random

import pytest

from stallings.errors import NotFoldedError
from stallings.functor import image_core
from stallings.graph import LabeledGraph, bouquet, canonical_form, core
from stallings.subgroups import Subgroup, _conjugate_core, gamma
from stallings.whitehead import whitehead_graph
from stallings.words import Alphabet, GroupHom, parse_word

from helpers import (
    ALPHABETS,
    graph,
    naive_canonical_form,
    naive_fold,
    random_subgroup,
    reduced_words,
    spelled,
)

A, AB, ABC = ALPHABETS[:3]
WIDE = Alphabet(tuple(f"x{i}" for i in range(1, 1001)))


def codes(alphabet: Alphabet, text: str) -> tuple[int, ...]:
    return alphabet.encode(parse_word(text))


def stars(g: LabeledGraph) -> set[tuple[int, int]]:
    """Whitehead edges vertex by vertex: each two half-edges leaving one vertex."""
    out: dict[int, list[int]] = {}
    for e, v in enumerate(g.einit):
        out.setdefault(v, []).append(g.elabel[e])
    return {
        (min(-x, -y), max(-x, -y))
        for labels in out.values()
        for i, x in enumerate(labels)
        for y in labels[i + 1 :]
        if x != y
    }


def normal(chains) -> list[tuple]:
    """Chains as tuples, each read from the end that gives the lesser tuple."""
    found = []
    for u, w, word, inner in chains:
        ahead = (u, w, tuple(word), tuple(inner))
        back = (w, u, tuple(-c for c in reversed(word)), tuple(reversed(inner)))
        found.append(min(ahead, back))
    return sorted(found)


def derived(g: LabeledGraph) -> LabeledGraph:
    """The same graph, checked afresh, so that its chains come from its out-lists."""
    h = LabeledGraph(g.alphabet, g.n_vertices, g.einit, g.elabel, g.base)
    assert h._chains is None
    return h


def traffic(alphabet: Alphabet, seed: int) -> list[LabeledGraph]:
    """Cores of 50 seeded reduced words of 40 letters, as the benchmark draws them."""
    rng = random.Random(seed)
    rank = len(alphabet)
    return [gamma(Subgroup._raw(alphabet, reduced_words(rng, rank, 50, 40))) for _ in range(2)]


@pytest.mark.parametrize("alphabet", [ABC, WIDE], ids=["rank-3", "rank-1000"])
def test_consumers_match_vertex_by_vertex_oracles_at_traffic_scale(alphabet):
    rng = random.Random(len(alphabet))
    for g in traffic(alphabet, len(alphabet)):
        assert whitehead_graph(g).codes == stars(g)
        if alphabet is ABC:  # the naive search looks each letter up in the alphabet
            inner = [v for v in range(g.n_vertices) if v not in g._chain_table()[0]]
            for root in (g.base, rng.choice(inner)):
                assert canonical_form(g, root) == naive_canonical_form(g, root)
        else:
            assert canonical_form(g) == naive_canonical_form(g)


@pytest.mark.parametrize("alphabet", [A, AB, ABC, WIDE], ids=["rank-1", "2", "3", "1000"])
def test_laid_chains_are_the_derived_chains(alphabet):
    """Every core kept as laid hands over the chains its out-lists give."""
    rng = random.Random(7)
    laid = 0
    for _ in range(100):
        g = gamma(random_subgroup(rng, alphabet, max_gens=6, max_len=12))
        if isinstance(g._chains, list):  # the bounds of the lay's chains
            laid += 1
            mine, theirs = g._chain_table(), derived(g)._chain_table()
            assert mine[0] == theirs[0] and normal(mine[1]) == normal(theirs[1])
    assert laid >= 30


def test_laid_chains_with_more_given_vertices():
    """Lays whose given vertices are a whole graph's: image cores and conjugates."""
    rng = random.Random(11)
    phi = GroupHom._raw(AB, ABC, (codes(ABC, "a b c"), codes(ABC, "c a^-1 b")))
    handed = 0
    for _ in range(60):
        gh = gamma(random_subgroup(rng, AB, max_gens=4, max_len=5))
        u = reduced_words(rng, 2, 1, rng.randrange(1, 6))[0]
        for g in (image_core(phi, gh), _conjugate_core(gh, u)):
            if isinstance(g._chains, list):
                handed += 1
                mine, theirs = g._chain_table(), derived(g)._chain_table()
                assert mine[0] == theirs[0] and normal(mine[1]) == normal(theirs[1])
    assert handed > 20


def test_consumers_build_no_out_lists_on_a_laid_core():
    g = gamma(Subgroup._raw(ABC, reduced_words(random.Random(3), 3, 50, 40)))
    canonical_form(g)
    whitehead_graph(g)
    assert g._out is None


def every_root(g: LabeledGraph) -> None:
    """canonical_form matches the naive search at every root, on g and on its copies."""
    for h in (g, derived(g), g.unbased()):
        for root in range(g.n_vertices):
            assert canonical_form(h, root) == naive_canonical_form(g, root)
    assert whitehead_graph(g).codes == whitehead_graph(derived(g)).codes == stars(g)


@pytest.mark.parametrize("n", range(1, 9))
def test_cycles_meet_at_a_vertex_or_across_an_edge(n):
    """a^n from each root: the two fronts meet at a vertex for even n, on an edge for odd."""
    g = gamma(Subgroup._raw(A, ((1,) * n,)))
    assert g.n_vertices == n and g._chain_table()[0] == [0]
    every_root(g)


@pytest.mark.parametrize(
    "lengths", [(1, 2), (2, 3), (1, 4), (3, 3), (2, 2, 3), (1, 3, 4), (4, 5, 5)]
)
def test_fronts_meet_inside_chains_of_a_theta(lengths):
    """Paths of these lengths between two branch vertices: fronts enter them at
    levels one apart or together, and meet at a vertex or across an edge."""
    words = ["a", "b", "c"]
    paths = []
    for i, length in enumerate(lengths):
        # a distinct first and last letter on each path keeps the graph folded
        word = [words[i]] + ["b" if i != 1 else "c"] * (length - 2) + [words[i]] * (length > 1)
        paths.append((0, 1, codes(ABC, " ".join(word))))
    g = core(spelled(ABC, 2, paths, 0))
    every_root(g)


@pytest.mark.parametrize(
    "gens",
    [
        ["a b a^-1"],  # a degree-one base, and a one-edge loop at a branch vertex
        ["a b c a^-1"],  # a loop chain of two edges at its branch vertex
        ["a b c b a^-1", "a c^-1"],  # loop chains and a hanging path
        ["a b", "a b^-1 c"],  # a branch vertex one step from the base
    ],
)
def test_loops_and_hanging_paths(gens):
    every_root(gamma(Subgroup.of(ABC, *gens)))


def test_multi_edges():
    """Parallel edges a and b from 0 to 1, and a parallel chain through 2."""
    a, ai, b, bi = AB.letters()
    every_root(graph(AB, 3, [(0, 1, a), (0, 1, b), (0, 2, ai), (2, 1, bi)], 0))


def test_root_inside_a_chain_of_an_unbased_graph():
    """A base of degree two is no branch vertex once the base is dropped."""
    g = gamma(Subgroup.of(AB, "a b a^-1 b^-1 a"))
    assert len(g.einit) and g.n_vertices > 2
    h = g.unbased()
    h._chains = None  # derive them without the base
    for root in range(g.n_vertices):
        assert canonical_form(h, root) == naive_canonical_form(g, root)


def test_degree_one_vertices_of_an_unfolded_graph_folded_naively():
    rng = random.Random(5)
    for _ in range(20):
        g = naive_fold(bouquet(AB, [codes(AB, "a b a^-1"), codes(AB, "b a b")]), rng)
        every_root(g)


@pytest.mark.parametrize(
    "words", [[(2, 1, -1, 2)], [(1, 2), (1, -2)]], ids=["inner-vertex", "branch-vertex"]
)
def test_unfolded_input_still_raises(words):
    """A label repeated at an inner vertex of a chain (b a a^-1 b), or at a branch vertex."""
    g = bouquet(AB, words)
    for root in range(g.n_vertices):
        with pytest.raises(NotFoldedError, match="^canonical form needs a folded graph$"):
            canonical_form(g, root)
