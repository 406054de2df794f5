import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from stallings import _kernel
from stallings.errors import (
    AlphabetMismatchError,
    DisconnectedGraphError,
    MissingBaseError,
    NotFoldedError,
    TrivialGraphError,
    UnknownGeneratorError,
)
from stallings.graph import (
    GraphMorphism,
    LabeledGraph,
    _bfs_order,
    bouquet,
    canonical_form,
    classify,
    core,
    extend_morphism,
    fold_all,
    iso_pointed,
    to_dot,
    trace,
    trim_all,
    two_core,
    unique_pointed_morphism,
    unpointed_isomorphic,
)
from stallings.subgroups import Subgroup, covering_circuit, gamma, pi1_basis
from stallings.words import Alphabet, Letter, parse_word, reduce_codes

from helpers import (
    ALPHABETS,
    graph,
    hang_path,
    naive_canonical_form,
    naive_fold,
    naive_is_folded,
    naive_search,
    naive_trim,
    pointed_graphs,
    random_subgroup,
    random_wedge,
    relabel,
)

AB = Alphabet.of("a", "b")
A = Letter("a", 1)
B = Letter("b", 1)


def delta(base: int = 0) -> LabeledGraph:
    """Loop at vertex 0, an a-edge to a second vertex, a loop there."""
    return graph(AB, 2, [(0, 0, B), (0, 1, A), (1, 1, B)], base=base)


def codes(text: str) -> tuple[int, ...]:
    return AB.encode(parse_word(text))


def b_loop() -> LabeledGraph:
    return graph(AB, 1, [(0, 0, B)], base=0)


# one reduced code word as a loop at the base; it folds at the base when
# its last code inverts its first
one_loop = (
    st.lists(st.sampled_from(AB.letters()), min_size=1, max_size=8)
    .map(AB.encode)
    .map(reduce_codes)
    .filter(bool)
    .map(lambda w: bouquet(AB, [w]))
)


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


def permutation_cover(rng: random.Random, alphabet: Alphabet, n: int) -> LabeledGraph:
    """A finite cover of the rose: each generator permutes ``n`` vertices.

    The first generator is one n-cycle, which keeps the cover connected;
    every vertex has degree twice the rank.
    """
    cycle = rng.sample(range(n), n)
    perms = [dict(zip(cycle, cycle[1:] + cycle[:1]))]
    perms += [rng.sample(range(n), n) for _ in alphabet.generators[1:]]
    einit: list[int] = []
    elabel: list[int] = []
    for c, perm in enumerate(perms, 1):
        for v in range(n):
            einit += (v, perm[v])
            elabel += (c, -c)
    return LabeledGraph(alphabet, n, tuple(einit), tuple(elabel), 0)


class TestStructure:
    def test_involution_and_labels(self):
        g = delta()
        for e in range(g.n_half_edges):
            assert (e ^ 1) ^ 1 == e and (e ^ 1) != e
            assert g.elabel[e ^ 1] == -g.elabel[e]
            assert AB.decode(g.elabel[e ^ 1]) == AB.decode(g.elabel[e]).inverse()

    def test_unbased_copy_shares_built_tables(self):
        """No table depends on the base, so the copy keeps the built ones."""
        g = delta()
        out, table, heads = g._out_lists(), g._edge_table(), g._head_table()
        h = g.unbased()
        assert h.base is None
        assert h._out_lists() is out and h._edge_table() is table
        assert h._head_table() is heads
        # a fresh copy over an alphabet made anew: equal names give the one alphabet
        fresh = LabeledGraph(Alphabet.of("a", "b"), g.n_vertices, g.einit, g.elabel)
        assert Alphabet.of("a", "b") is h.alphabet
        assert h == fresh and hash(h) == hash(fresh)
        assert h != g
        assert LabeledGraph(Alphabet.of("a", "c"), g.n_vertices, g.einit, g.elabel) != h

    def test_checked_constructors_keep_tuples(self):
        """Lists given to a checked graph or morphism are copied into tuples.

        So the graph hashes, equals its tuple-built twin, and a later
        change to the caller's lists changes neither.
        """
        einit, elabel = [0, 0], [1, -1]
        g = LabeledGraph(AB, 1, einit, elabel, 0)
        twin = LabeledGraph(AB, 1, (0, 0), (1, -1), 0)
        assert (g.einit, g.elabel) == ((0, 0), (1, -1))
        assert g == twin and hash(g) == hash(twin)
        vmap, emap = [0], [0, 1]
        m = GraphMorphism(g, twin, vmap, emap)
        assert (m.vmap, m.emap) == ((0,), (0, 1))
        einit[0], elabel[0], vmap[0], emap[0] = 5, 2, 5, 1
        assert g == twin and (g.einit, g.elabel) == ((0, 0), (1, -1))
        assert (m.vmap, m.emap) == ((0,), (0, 1))

    def test_loop_counts_twice_in_degree(self):
        assert b_loop().degree(0) == 2
        assert delta().degree(0) == 3
        assert delta().degree(1) == 3

    @pytest.mark.parametrize(
        "n, edges",
        [(2, [(0, 0, A)]), (4, [(0, 1, A), (2, 3, B)])],
        ids=["isolated-vertex", "two-components"],
    )
    def test_disconnected_rejected(self, n, edges):
        with pytest.raises(DisconnectedGraphError):
            graph(AB, n, edges, base=0)

    @pytest.mark.parametrize(
        "n, edges",
        [(3, [(1, 0, A), (2, 1, B)]), (1, [])],
        ids=["reached-against-orientation", "one-vertex"],
    )
    def test_connected_accepted(self, n, edges):
        assert graph(AB, n, edges, base=0).n_vertices == n

    def test_labels_are_alphabet_codes(self):
        g = delta()
        assert g.elabel == (2, -2, 1, -1, 2, -2)
        assert [AB.decode(c) for c in g.elabel[::2]] == [B, A, B]

    @pytest.mark.parametrize(
        "labels",
        [(0, 0), (3, -3), (-3, 3), (1, 1), (1, -2), (1, 2)],
    )
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(UnknownGeneratorError):
            LabeledGraph(AB, 1, (0, 0), labels, 0)

    def test_foreign_letter_rejected(self):
        with pytest.raises(UnknownGeneratorError):
            graph(AB, 1, [(0, 0, Letter("c", 1))], base=0)
        with pytest.raises(UnknownGeneratorError):
            Subgroup(AB, [parse_word("a c")])
        for codes in [(1, 3), (-3,), (1, 0)]:
            with pytest.raises(UnknownGeneratorError):
                bouquet(AB, [codes])


class TestFold:
    def test_double_loop_folds_to_one(self):
        g = graph(AB, 1, [(0, 0, B), (0, 0, B)], base=0)
        folded, q = fold_all(g)
        assert folded.n_edges == 1 and folded.n_vertices == 1
        assert classify(q).surjective and not classify(q).edge_injective

    def test_already_folded_is_identity(self):
        g = delta()
        folded, q = fold_all(g)
        assert folded.n_edges == g.n_edges and folded.n_vertices == g.n_vertices
        assert classify(q).injective and classify(q).surjective

    def test_wedge_of_b_and_bb(self):
        g = bouquet(AB, [codes("b"), codes("b b")])
        folded, _ = fold_all(g)
        oracle = naive_fold(g)
        assert canonical_form(folded) == canonical_form(oracle)

    def test_matches_single_step_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_wedge(rng, AB)
            folded, q = fold_all(g)
            assert folded.is_folded()
            assert canonical_form(folded) == canonical_form(naive_fold(g, rng))
            # quotient is a genuine morphism onto the folded graph: the
            # validating constructor raises unless it keeps every law
            GraphMorphism(g, folded, q.vmap, q.emap)
            assert classify(q).surjective

    def test_confluent_under_random_orders(self):
        """Two renumberings of a graph fold to the same graph."""
        rng = random.Random(11)
        for _ in range(200):
            g = random_wedge(rng, Alphabet.of("a", "b", "c"))
            f1, _ = fold_all(relabel(g, rng))
            f2, _ = fold_all(relabel(g, rng))
            assert canonical_form(f1) == canonical_form(f2)


class TestKernel:
    @given(pointed_graphs(), st.none() | st.integers(0, 99))
    def test_representatives_are_roots(self, g, renumbering):
        """Also on a random renumbering of the graph."""
        if renumbering is not None:
            g = relabel(g, random.Random(renumbering))
        vrep, erep = _kernel.fold(g.n_vertices, g.einit, g.elabel)
        assert all(vrep[vrep[v]] == vrep[v] for v in range(g.n_vertices))
        assert all(erep[erep[e]] == erep[e] for e in range(g.n_half_edges))
        assert all(erep[e ^ 1] == erep[e] ^ 1 for e in range(g.n_half_edges))
        # a half-edge's class starts where the half-edge starts
        assert all(vrep[g.einit[erep[e]]] == vrep[g.einit[e]] for e in range(g.n_half_edges))


class TestTrim:
    def test_hanging_edge_removed(self):
        g = graph(AB, 2, [(0, 1, A)], base=0)
        t = trim_all(g)
        assert t.n_vertices == 1 and t.n_edges == 0

    def test_loop_untouched(self):
        g = b_loop()
        assert trim_all(g) is g

    def test_branch_vertex_kept(self):
        g = graph(AB, 2, [(0, 1, A), (1, 1, B)], base=0)
        assert trim_all(g) is g  # far vertex has degree 3


class TestCore:
    def test_unfolded_wedge(self):
        g = graph(AB, 1, [(0, 0, B), (0, 0, B)], base=0)
        assert core(g).n_edges == 1

    def test_wedge_b_and_conjugate(self):
        g = bouquet(AB, [codes("b"), codes("a b a^-1")])
        assert iso_pointed(core(g), delta())

    def test_fixpoint(self):
        g = delta()
        assert canonical_form(core(g)) == canonical_form(core(core(g)))

    @given(g=pointed_graphs())
    def test_matches_naive_fold_then_trim(self, g):
        assert iso_pointed(core(g), naive_trim(naive_fold(g)))

    def test_is_core_predicates(self):
        rose = graph(AB, 1, [(0, 0, A), (0, 0, B)], base=0)
        assert rose.is_folded() and rose.is_core()
        two_b = graph(AB, 2, [(0, 1, B), (0, 1, B)], base=0)
        assert not two_b.is_folded()
        tail = graph(AB, 2, [(0, 1, A), (1, 1, B)], base=0)
        assert tail.is_folded() and tail.is_core()  # degree one only at base


class TestTrace:
    def test_membership_paths(self):
        g = delta()
        assert trace(g, 0, codes("a b a^-1")) == 0
        assert trace(g, 0, codes("a")) == 1
        assert trace(g, 0, codes("a^-1")) is None

    def test_requires_folded(self):
        g = graph(AB, 2, [(0, 1, B), (0, 1, B)], base=0)
        with pytest.raises(NotFoldedError):
            trace(g, 0, codes("b"))
        with pytest.raises(NotFoldedError):  # before any code is read
            trace(g, 0, ())

    @pytest.mark.parametrize("word", ["b", ""], ids=["word", "empty"])
    @pytest.mark.parametrize("start", [-1, 2, None], ids=["negative", "n_vertices", "unbased"])
    def test_start_outside_the_graph_is_rejected(self, start, word):
        """A negative start does not wrap to the last vertex, nor does one past it index.

        None, the base of an unbased graph, is no vertex either.
        """
        g = gamma(Subgroup.of(AB, "b", "a b a^-1"))
        assert g.unbased().base is None
        assert g.n_vertices == 2
        with pytest.raises(DisconnectedGraphError, match=f"^start {start} is not a vertex$"):
            trace(g, start, codes(word))
        with pytest.raises(DisconnectedGraphError, match=f"^{start} is not a vertex$"):
            g.edge_at(start, 2)
        assert [trace(g, v, codes(word)) for v in (0, 1)] == [0, 1]
        assert [g.edge_at(v, 2) for v in (0, 1)] == [0, 4]

    @given(pointed_graphs())
    def test_one_step_is_the_head_of_the_edge_at(self, g):
        """A one-code walk ends at the head of the half-edge ``edge_at`` finds.

        The walk reads its own table of heads and builds no half-edge table.
        """
        g = core(g)
        rank = len(g.alphabet)
        steps = [(v, c) for v in range(g.n_vertices) for c in range(-rank, rank + 1) if c]
        walked = [trace(g, v, (c,)) for v, c in steps]
        assert g._heads is not None and g._lookup is None
        assert walked == [
            None if (e := g.edge_at(v, c)) is None else g.head(e) for v, c in steps
        ]

    def test_at_most_one_continuation(self):
        rng = random.Random(23)
        for _ in range(50):
            g = core(random_wedge(rng, AB))
            for v in range(g.n_vertices):
                labels = [g.elabel[e] for e in g.out_edges(v)]
                assert len(labels) == len(set(labels))


class TestEdgeTable:
    """One flat dict per graph: ``v * (2r + 1) + code`` -> the half-edge leaving v."""

    @given(st.sampled_from(ALPHABETS).flatmap(pointed_graphs))
    def test_edge_at_matches_a_scan(self, g):
        """Every code in ``-r-1..r+1``, 0 too, at every vertex: the scan's half-edge or None.

        A code past the alphabet's would key a neighbouring vertex's
        entry.  The fold's quotient built its target's table, so both
        graphs here are fresh copies, and each builds its own.
        """
        f, _ = fold_all(g)
        folded = LabeledGraph(f.alphabet, f.n_vertices, f.einit, f.elabel, f.base)
        rank = len(folded.alphabet)
        scan: dict[tuple[int, int], list[int]] = {}
        for e, (v, c) in enumerate(zip(folded.einit, folded.elabel)):
            scan.setdefault((v, c), []).append(e)
        assert all(len(es) == 1 for es in scan.values())
        for h in (folded.unbased(), folded):
            assert h._lookup is None
            for v in range(h.n_vertices):
                for c in range(-rank - 1, rank + 2):
                    assert h.edge_at(v, c) == scan.get((v, c), [None])[0]

    def test_vertex_that_is_no_int_raises(self):
        """0.0 is no vertex, though its flat key would find vertex 0's entry."""
        g = delta()
        assert g.edge_at(0, 1) == 2
        with pytest.raises(TypeError):
            g.edge_at(0.0, 1)
        with pytest.raises(TypeError):
            extend_morphism(b_loop(), g, 0.0, 0)
        with pytest.raises(TypeError):
            extend_morphism(b_loop(), g, 0, 0.0)

    def test_unfolded_target_raises(self):
        """Two b-edges leave vertex 0: one key, so no table."""
        g = graph(AB, 2, [(0, 1, B), (0, 1, B)])
        with pytest.raises(NotFoldedError, match="^label lookup needs a folded graph$"):
            g.edge_at(0, 2)
        with pytest.raises(NotFoldedError, match="^label lookup needs a folded graph$"):
            extend_morphism(b_loop(), g, 0, 0)
        assert g._lookup is None


class TestMorphisms:
    def test_unique_pointed_exists(self):
        m = unique_pointed_morphism(b_loop(), delta())
        assert m is not None
        c = classify(m)
        assert c.injective and not c.surjective

    def test_no_morphism_backwards(self):
        assert unique_pointed_morphism(delta(), b_loop()) is None

    @pytest.mark.parametrize("seed", [-1, -2, 1, 2])
    def test_seed_must_be_a_vertex(self, seed):
        """b_loop has the one vertex 0; a negative index must not wrap."""
        with pytest.raises(DisconnectedGraphError, match=f"^seed {seed} is not a vertex$"):
            extend_morphism(b_loop(), delta(), seed, 0)

    @pytest.mark.parametrize("image", [-1, -2, 2, 3])
    def test_seed_image_must_be_a_vertex(self, image):
        """delta has the vertices 0 and 1; a negative index must not wrap."""
        with pytest.raises(
            DisconnectedGraphError, match=f"^seed image {image} is not a vertex$"
        ):
            extend_morphism(b_loop(), delta(), 0, image)

    def test_identity(self):
        m = unique_pointed_morphism(delta(), delta())
        c = classify(m)
        assert c.injective and c.surjective

    def test_compose(self):
        g = b_loop()
        m = unique_pointed_morphism(g, delta())
        identity = unique_pointed_morphism(g, g)
        assert classify(identity).injective and classify(identity).surjective
        assert classify(m.compose(identity)).injective

    @pytest.mark.parametrize(
        "vmap, emap",
        [((0,), (7, 6)), ((0,), (-2, -1))],
    )
    def test_maps_outside_the_target_rejected(self, vmap, emap):
        g = b_loop()
        with pytest.raises(AlphabetMismatchError):
            GraphMorphism(g, g, vmap, emap)

    def test_vertex_outside_an_edgeless_target_rejected(self):
        point = LabeledGraph(AB, 1, (), ())
        with pytest.raises(AlphabetMismatchError):
            GraphMorphism(point, point, (5,), ())

    def test_vertex_injective_implies_edge_injective_when_folded(self):
        rng = random.Random(31)
        count = 0
        for _ in range(200):
            g = core(random_wedge(rng, AB))
            d = core(random_wedge(rng, AB))
            m = unique_pointed_morphism(g, d)
            if m is None:
                continue
            count += 1
            c = classify(m)
            if c.vertex_injective:
                assert c.edge_injective
        assert count > 10

    def test_morphisms_out_of_folded_are_locally_injective(self):
        rng = random.Random(37)
        for _ in range(100):
            g = core(random_wedge(rng, AB))
            d = core(random_wedge(rng, AB))
            m = unique_pointed_morphism(g, d)
            if m is None:
                continue
            for v in range(g.n_vertices):
                images = [m.emap[e] for e in g.out_edges(v)]
                assert len(images) == len(set(images))


class TestIso:
    def test_loops(self):
        assert unpointed_isomorphic(b_loop(), b_loop())
        a_loop = graph(AB, 1, [(0, 0, A)], base=0)
        assert not unpointed_isomorphic(b_loop(), a_loop)

    def test_rebased_delta(self):
        assert unpointed_isomorphic(delta(), delta(base=1))
        assert not iso_pointed(delta(), delta(base=1))

    def test_sizes_must_match(self):
        assert not unpointed_isomorphic(b_loop(), delta())
        assert not iso_pointed(b_loop(), delta())
        assert not iso_pointed(delta(), b_loop())

    def test_unfolded_source_is_not_isomorphic(self):
        """Two a-loops onto an a-loop and a b-loop: onto every vertex, not every edge."""
        two_a = graph(AB, 1, [(0, 0, A), (0, 0, A)], base=0)
        a_and_b = graph(AB, 1, [(0, 0, A), (0, 0, B)], base=0)
        assert extend_morphism(two_a, a_and_b, 0, 0) is not None
        assert not unpointed_isomorphic(two_a, a_and_b)

    def test_pointed_errors_kept(self):
        for g, d in [(delta().unbased(), delta()), (delta(), delta().unbased())]:
            with pytest.raises(MissingBaseError, match="^both graphs need base points$") as exc:
                iso_pointed(g, d)
            assert not isinstance(exc.value, NotFoldedError)
        unfolded = graph(AB, 2, [(0, 0, B), (0, 1, A), (0, 1, A), (1, 1, B)], base=0)
        with pytest.raises(NotFoldedError, match="^source must be folded$"):
            iso_pointed(unfolded, delta())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: unique_pointed_morphism(g, delta()), "both graphs need base points"),
        (lambda g: unique_pointed_morphism(delta(), g), "both graphs need base points"),
        (canonical_form, "canonical form needs a base or explicit root"),
        (pi1_basis, "basis extraction needs a pointed graph"),
        (covering_circuit, "covering circuits need a pointed core graph"),
    ],
)
def test_missing_base_is_its_own_error(call, message):
    with pytest.raises(MissingBaseError) as exc:
        call(delta().unbased())
    assert str(exc.value) == message
    assert not isinstance(exc.value, (NotFoldedError, TrivialGraphError))


class TestAttach:
    def test_attach_a(self):
        g = hang_path(b_loop(), codes("a"))
        assert g.n_vertices == 2 and g.base == 1
        assert core(g).n_vertices == 2  # conjugate subgroup graph keeps the spur

    def test_attach_b_folds_back(self):
        g = core(hang_path(b_loop(), codes("b")))
        assert iso_pointed(g, b_loop())


class TestSerialization:
    def test_canonical_is_stable(self):
        g = delta()
        assert canonical_form(g) == canonical_form(g)
        lines = canonical_form(g).splitlines()
        assert lines[0] == "base 0"
        assert lines[1:] == ["0 -a-> 1", "0 -b-> 0", "1 -b-> 1"]

    def test_canonical_ignores_construction_order(self):
        g1 = graph(AB, 2, [(0, 0, B), (0, 1, A), (1, 1, B)], base=0)
        # same pointed graph with vertex names swapped and the edge reversed
        g2 = graph(AB, 2, [(0, 1, A.inverse()), (1, 1, B), (0, 0, B)], base=1)
        assert canonical_form(g1) == canonical_form(g2)

    @pytest.mark.parametrize(
        "names",
        [
            ("a",),
            ("b", "a", "c"),  # inferred order that is not name order
            tuple(f"x{i}" for i in range(12)),  # x10 sorts before x2 by name
            tuple(random.Random(5).sample([f"x{i}" for i in range(14)], 14)),
        ],
    )
    def test_matches_naive_bfs_oracle(self, names):
        ab = Alphabet(names)
        rng = random.Random(len(names))
        for _ in range(40):
            g = gamma(random_subgroup(rng, ab, max_gens=6, max_len=8))
            assert canonical_form(g) == naive_canonical_form(g)
            root = rng.randrange(g.n_vertices)
            assert canonical_form(g, root) == naive_canonical_form(g, root)
            assert canonical_form(g.unbased(), root) == naive_canonical_form(g, root)

    def test_matches_naive_bfs_oracle_at_traffic_scale(self):
        """Cores of 50 words of 40 letters, and a cover where every vertex branches.

        Each core is checked at its base, at a vertex of degree two and at
        a branch vertex: the search sorts only the root's and the branch
        vertices' half-edges.  Its order, parent half-edges and fold flag
        match :func:`naive_search`, and their digest was recorded before
        the search listed rows.
        """
        abc = Alphabet.of("a", "b", "c")
        rng = random.Random(2002)
        digest = hashlib.sha256()

        def check(g: LabeledGraph, root: int) -> None:
            assert canonical_form(g, root) == naive_canonical_form(g, root)
            search = _bfs_order(g, root)[:3]
            assert search == (*naive_search(g, root), naive_is_folded(g))
            digest.update(repr(search).encode())

        for _ in range(3):
            g = gamma(Subgroup._raw(abc, reduced_words(rng, 3, 50, 40)))
            assert canonical_form(g) == naive_canonical_form(g)
            check(g, g.base)
            for wide in (False, True):
                roots = [
                    v for v in range(g.n_vertices) if (g.degree(v) > 2) == wide and v != g.base
                ]
                check(g, rng.choice(roots))
        g = permutation_cover(rng, abc, 200)
        assert all(g.degree(v) == 6 for v in range(g.n_vertices))
        for root in [0, *rng.sample(range(1, 200), 3)]:
            check(g, root)
        assert digest.hexdigest() == (
            "c5e6a42529cf4228fcddb9ce463973481661559f30f6c9b80562fdd4175790d0"
        )

    @pytest.mark.parametrize(
        "words, root, degree",
        [(["a b a^-1"], 1, 2), (["a b a^-1"], 0, 2), (["a b", "a b^-1"], 1, 4)],
        ids=["degree-two-vertex", "degree-two-root", "branch-vertex"],
    )
    def test_repeated_label_rejected_wherever_it_sits(self, words, root, degree):
        """The one repeated label sits at vertex 0, of the given degree."""
        g = bouquet(AB, [codes(w) for w in words])
        labels = [[g.elabel[e] for e in g.out_edges(v)] for v in range(g.n_vertices)]
        repeated = [v for v, ls in enumerate(labels) if len(set(ls)) < len(ls)]
        assert repeated == [0] and g.degree(0) == degree
        with pytest.raises(NotFoldedError, match="^canonical form needs a folded graph$"):
            canonical_form(g, root)

    @given(st.one_of(pointed_graphs(), one_loop), st.booleans())
    def test_fold_flag_matches_naive_at_every_root(self, g, take_core):
        """Also on single loops, whose base has degree two and may repeat a label."""
        if take_core:
            g = core(g)
        folded = naive_is_folded(g)
        for root in range(g.n_vertices):
            assert _bfs_order(g, root)[2] == folded

    @given(pointed_graphs(Alphabet.of("x2", "x10", "x1")), st.integers(0, 2**32))
    def test_rows_match_naive_at_every_root(self, g, seed):
        """Letter order x2, x10, x1 is not name order, so rows sort by name.

        ``naive_fold`` keeps the vertices of degree one that ``core`` trims.
        """
        for h in (core(g), naive_fold(g)):
            for root in range(h.n_vertices):
                assert canonical_form(h, root) == naive_canonical_form(h, root)
            assert canonical_form(relabel(h, random.Random(seed))) == canonical_form(h)

    def test_unfolded_bouquet_rejected(self):
        g = bouquet(AB, [codes("a b"), codes("a b^-1")])
        with pytest.raises(NotFoldedError):
            canonical_form(g)
        with pytest.raises(NotFoldedError):
            canonical_form(g, 1)

    @pytest.mark.parametrize("root", [-1, 2, 5])
    def test_root_outside_the_graph_rejected(self, root):
        g = gamma(Subgroup.of(AB, "b", "a b a^-1"))
        with pytest.raises(DisconnectedGraphError, match="^root is not a vertex$"):
            canonical_form(g, root)

    def test_dot_output(self):
        """Every arrow runs along its generator, whichever way the edge is stored."""
        g = gamma(Subgroup.of(AB, "a b^-1 a^-1 b"))
        assert any(g.elabel[e] < 0 for e in range(0, g.n_half_edges, 2))
        assert to_dot(g) == "\n".join([
            "digraph stallings {",
            "  rankdir=LR;",
            "  0 [shape=doublecircle];",
            "  1 [shape=circle];",
            "  2 [shape=circle];",
            "  3 [shape=circle];",
            '  0 -> 1 [label="a"];',
            '  2 -> 1 [label="b"];',
            '  3 -> 2 [label="a"];',
            '  3 -> 0 [label="b"];',
            "}",
        ])

    def test_two_core_drops_spur(self):
        g = core(hang_path(b_loop(), codes("a")))
        t = two_core(g)
        assert t.n_vertices == 1 and t.n_edges == 1 and t.base is None

