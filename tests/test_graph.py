import random

import pytest

from stallings.errors import (
    DisconnectedGraphError,
    NotFoldedError,
    UnknownGeneratorError,
)
from stallings.graph import (
    LabeledGraph,
    Path,
    attach_path,
    bouquet,
    build_graph,
    canonical_form,
    classify,
    core,
    fold_all,
    identity_morphism,
    iso_pointed,
    iso_unpointed,
    to_dot,
    trace,
    trim_all,
    two_core,
    unique_pointed_morphism,
)
from stallings.words import Alphabet, Letter, parse_word

from helpers import naive_fold, random_wedge

AB = Alphabet.of("a", "b")
A = Letter("a", 1)
B = Letter("b", 1)


def delta() -> LabeledGraph:
    """Loop at the base, an a-edge to a second vertex, a loop there."""
    return build_graph(AB, 2, [(0, 0, B), (0, 1, A), (1, 1, B)], base=0)


def b_loop() -> LabeledGraph:
    return build_graph(AB, 1, [(0, 0, B)], base=0)


class TestStructure:
    def test_involution_and_labels(self):
        g = delta()
        for e in range(g.n_half_edges):
            assert (e ^ 1) ^ 1 == e and (e ^ 1) != e
            assert g.elabel[e ^ 1] == -g.elabel[e]
            assert AB.decode(g.elabel[e ^ 1]) == AB.decode(g.elabel[e]).inverse()

    def test_loop_counts_twice_in_degree(self):
        assert b_loop().degree(0) == 2
        assert delta().degree(0) == 3
        assert delta().degree(1) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            build_graph(AB, 2, [(0, 0, A)], base=0)

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
            build_graph(AB, 1, [(0, 0, Letter("c", 1))], base=0)
        with pytest.raises(UnknownGeneratorError):
            bouquet(AB, [parse_word("a c")])


class TestFold:
    def test_double_loop_folds_to_one(self):
        g = build_graph(AB, 1, [(0, 0, B), (0, 0, B)], base=0)
        folded, q = fold_all(g)
        assert folded.n_edges == 1 and folded.n_vertices == 1
        assert classify(q).surjective and not classify(q).edge_injective

    def test_already_folded_is_identity(self):
        g = delta()
        folded, q = fold_all(g)
        assert folded.n_edges == g.n_edges and folded.n_vertices == g.n_vertices
        assert classify(q).injective and classify(q).surjective

    def test_wedge_of_b_and_bb(self):
        g = bouquet(AB, [parse_word("b"), parse_word("b b")])
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
            # quotient is a genuine morphism onto the folded graph
            assert classify(q).surjective

    def test_confluent_under_random_orders(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_wedge(rng, Alphabet.of("a", "b", "c"))
            f1, _ = fold_all(g, seed=rng.randint(0, 10**9))
            f2, _ = fold_all(g, seed=rng.randint(0, 10**9))
            assert canonical_form(f1) == canonical_form(f2)


class TestTrim:
    def test_hanging_edge_removed(self):
        g = build_graph(AB, 2, [(0, 1, A)], base=0)
        t = trim_all(g)
        assert t.n_vertices == 1 and t.n_edges == 0

    def test_loop_untouched(self):
        g = b_loop()
        assert trim_all(g) is g

    def test_branch_vertex_kept(self):
        g = build_graph(AB, 2, [(0, 1, A), (1, 1, B)], base=0)
        assert trim_all(g) is g  # far vertex has degree 3


class TestCore:
    def test_unfolded_wedge(self):
        g = build_graph(AB, 1, [(0, 0, B), (0, 0, B)], base=0)
        assert core(g).n_edges == 1

    def test_wedge_b_and_conjugate(self):
        g = bouquet(AB, [parse_word("b"), parse_word("a b a^-1")])
        assert iso_pointed(core(g), delta())

    def test_fixpoint(self):
        g = delta()
        assert canonical_form(core(g)) == canonical_form(core(core(g)))

    def test_is_core_predicates(self):
        rose = build_graph(AB, 1, [(0, 0, A), (0, 0, B)], base=0)
        assert rose.is_folded() and rose.is_core()
        two_b = build_graph(AB, 2, [(0, 1, B), (0, 1, B)], base=0)
        assert not two_b.is_folded()
        tail = build_graph(AB, 2, [(0, 1, A), (1, 1, B)], base=0)
        assert tail.is_folded() and tail.is_core()  # degree one only at base


class TestTrace:
    def test_membership_paths(self):
        g = delta()
        assert trace(g, 0, parse_word("a b a^-1")) == 0
        assert trace(g, 0, parse_word("a")) == 1
        assert trace(g, 0, parse_word("a^-1")) is None

    def test_requires_folded(self):
        g = build_graph(AB, 2, [(0, 1, B), (0, 1, B)], base=0)
        with pytest.raises(NotFoldedError):
            trace(g, 0, parse_word("b"))

    def test_at_most_one_continuation(self):
        rng = random.Random(23)
        for _ in range(50):
            g = core(random_wedge(rng, AB))
            for v in range(g.n_vertices):
                labels = [g.elabel[e] for e in g.out_edges(v)]
                assert len(labels) == len(set(labels))


class TestMorphisms:
    def test_unique_pointed_exists(self):
        m = unique_pointed_morphism(b_loop(), delta())
        assert m is not None
        c = classify(m)
        assert c.injective and not c.surjective

    def test_no_morphism_backwards(self):
        assert unique_pointed_morphism(delta(), b_loop()) is None

    def test_identity(self):
        m = unique_pointed_morphism(delta(), delta())
        c = classify(m)
        assert c.injective and c.surjective

    def test_compose(self):
        g = b_loop()
        m = unique_pointed_morphism(g, delta())
        assert classify(m.compose(identity_morphism(g))).injective

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
        assert iso_unpointed(b_loop(), b_loop())
        a_loop = build_graph(AB, 1, [(0, 0, A)], base=0)
        assert not iso_unpointed(b_loop(), a_loop)

    def test_rebased_delta(self):
        assert iso_unpointed(delta(), delta().with_base(1))
        assert not iso_pointed(delta(), delta().with_base(1))


class TestAttach:
    def test_empty_word_is_noop(self):
        g = b_loop()
        assert attach_path(g, parse_word("")) is g

    def test_attach_a(self):
        g = attach_path(b_loop(), parse_word("a"))
        assert g.n_vertices == 2 and g.base == 1
        assert core(g).n_vertices == 2  # conjugate subgroup graph keeps the spur

    def test_attach_b_folds_back(self):
        g = core(attach_path(b_loop(), parse_word("b")))
        assert iso_pointed(g, b_loop())


class TestPath:
    def test_flags(self):
        g = delta()
        # b-loop then a-edge: contiguous and reduced
        b_edge = g.edge_at(0, AB.code(B))
        a_edge = g.edge_at(0, AB.code(A))
        p = Path(g, (b_edge, a_edge))
        assert p.is_reduced() and not p.is_closed()
        back = Path(g, (a_edge, a_edge ^ 1))
        assert not back.is_reduced()
        loop = Path(g, (b_edge,))
        assert loop.is_closed()
        assert p.word() == parse_word("b a")


class TestSerialization:
    def test_canonical_is_stable(self):
        g = delta()
        assert canonical_form(g) == canonical_form(g)
        lines = canonical_form(g).splitlines()
        assert lines[0] == "base 0"
        assert lines[1:] == ["0 -a-> 1", "0 -b-> 0", "1 -b-> 1"]

    def test_canonical_ignores_construction_order(self):
        g1 = build_graph(AB, 2, [(0, 0, B), (0, 1, A), (1, 1, B)], base=0)
        # same pointed graph with vertex names swapped and the edge reversed
        g2 = build_graph(AB, 2, [(0, 1, A.inverse()), (1, 1, B), (0, 0, B)], base=1)
        assert canonical_form(g1) == canonical_form(g2)

    def test_dot_output(self):
        dot = to_dot(delta())
        assert "doublecircle" in dot
        assert '0 -> 1 [label="a"];' in dot

    def test_two_core_drops_spur(self):
        g = core(attach_path(b_loop(), parse_word("a")))
        t = two_core(g)
        assert t.n_vertices == 1 and t.n_edges == 1 and t.base is None

