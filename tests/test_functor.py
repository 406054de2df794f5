import random

import pytest

from stallings.errors import DegenerateHomError, NotFoldedError
from stallings.functor import (
    image_core,
    subdivide,
    subdivide_morphism,
    unbased_core_morphism,
    unbased_image_morphism,
)
from stallings.graph import (
    build_graph,
    classify,
    core,
    iso_pointed,
    iso_unpointed,
    two_core,
    unique_pointed_morphism,
)
from stallings.subgroups import Subgroup, gamma, pi1_basis
from stallings.whitehead import is_restriction_morphism, whitehead_graph, full_whitehead
from stallings.words import (
    Alphabet,
    GroupHom,
    Letter,
    apply_hom,
    conjugation_hom,
    identity_hom,
    parse_word,
)

from helpers import random_hom, random_subgroup

AB = Alphabet.of("a", "b")
GREEK = Alphabet.of("alpha", "beta")
SIGMA = GroupHom(GREEK, AB, {"alpha": parse_word("b"), "beta": parse_word("a b a^-1")})

H_B = Subgroup.of(AB, "b")
K_DELTA = Subgroup.of(AB, "b", "a b a^-1")


class TestSubdivide:
    def test_identity_is_isomorphic(self):
        g = gamma(K_DELTA)
        assert iso_pointed(subdivide(identity_hom(AB), g), g)

    def test_loop_becomes_circuit(self):
        loop = gamma(Subgroup.of(GREEK, "beta"))
        g = subdivide(SIGMA, loop)
        assert g.n_vertices == 3 and g.n_edges == 3
        spelled = [
            g.alphabet.decode(g.elabel[e]).token for e in range(0, g.n_half_edges, 2)
        ]
        assert spelled == ["a", "b", "a^-1"]
        # the two a-halves collide at the base, so this one is not folded
        assert not g.is_folded()
        assert iso_pointed(core(g), gamma(Subgroup.of(AB, "a b a^-1")))

    def test_single_edge_subdivision(self):
        one = build_graph(AB, 2, [(0, 1, Letter("a", 1))], base=0)
        phi = GroupHom(AB, AB, {"a": parse_word("a b"), "b": parse_word("b")})
        g = subdivide(phi, one)
        assert g.n_vertices == 3 and g.n_edges == 2

    def test_degenerate_rejected(self):
        bad = GroupHom(AB, AB, {"a": parse_word(""), "b": parse_word("b")})
        with pytest.raises(DegenerateHomError):
            subdivide(bad, gamma(H_B))

    def test_orientation_choice_immaterial(self):
        # same geometric edge stored with the opposite orientation
        phi = GroupHom(AB, AB, {"a": parse_word("a b a"), "b": parse_word("b a")})
        g1 = build_graph(AB, 2, [(0, 0, Letter("b", 1)), (0, 1, Letter("a", 1))], base=0)
        g2 = build_graph(
            AB, 2, [(0, 0, Letter("b", -1)), (1, 0, Letter("a", -1))], base=0
        )
        assert iso_pointed(core(subdivide(phi, g1)), core(subdivide(phi, g2)))


class TestSubdivideMorphism:
    def test_identity_morphism(self):
        g = gamma(K_DELTA)
        m = unique_pointed_morphism(g, g)
        out = subdivide_morphism(conjugation_hom(parse_word("a"), AB), m)
        assert out.source.n_edges == out.target.n_edges

    def test_positional_mapping_is_valid(self):
        m = unique_pointed_morphism(gamma(H_B), gamma(K_DELTA))
        phi = GroupHom(AB, AB, {"a": parse_word("a b"), "b": parse_word("b a b")})
        out = subdivide_morphism(phi, m)  # validation runs in the constructor
        assert out.source.n_edges == 3 and classify(out).edge_injective

    def test_identity_hom_gives_same_shape(self):
        m = unique_pointed_morphism(gamma(H_B), gamma(K_DELTA))
        out = subdivide_morphism(identity_hom(AB), m)
        c1, c2 = classify(m), classify(out)
        assert (c1.injective, c1.surjective) == (c2.injective, c2.surjective)

    def test_injectivity_preserved(self):
        rng = random.Random(3)
        for _ in range(50):
            k = random_subgroup(rng, AB, max_gens=3, max_len=5)
            h = Subgroup(AB, k.generators[:1])
            m = unique_pointed_morphism(gamma(h), gamma(k))
            if m is None or not classify(m).injective:
                continue
            phi = random_hom(rng, AB, Alphabet.of("a", "b", "c"), 4)
            out = subdivide_morphism(phi, m)
            assert classify(out).injective


class TestImageCore:
    def test_sigma_image_of_rose(self):
        rose = gamma(Subgroup.of(GREEK, "alpha", "beta"))
        assert iso_pointed(image_core(SIGMA, rose), gamma(K_DELTA))

    def test_identity(self):
        g = gamma(K_DELTA)
        assert iso_pointed(image_core(identity_hom(AB), g), g)

    def test_conjugation(self):
        g = image_core(conjugation_hom(parse_word("a"), AB), gamma(H_B))
        assert iso_pointed(g, gamma(Subgroup.of(AB, "a b a^-1")))

    def test_matches_image_subgroup(self):
        rng = random.Random(7)
        x3 = Alphabet.of("a", "b", "c")
        for _ in range(100):
            h = random_subgroup(rng, AB, max_gens=3, max_len=5)
            phi = random_hom(rng, AB, x3, 4)
            image = Subgroup(x3, tuple(apply_hom(phi, w) for w in h.generators))
            assert iso_pointed(image_core(phi, gamma(h)), gamma(image))


class TestUnbasedCore:
    def test_spur_trimmed(self):
        g = gamma(Subgroup.of(AB, "a b a^-1"))
        t = two_core(g)
        assert t.n_vertices == 1 and t.n_edges == 1 and t.base is None

    def test_no_spur_untouched(self):
        t = two_core(gamma(H_B))
        assert t.n_vertices == 1 and t.n_edges == 1

    def test_requires_folded(self):
        g = build_graph(AB, 2, [(0, 1, Letter("b", 1)), (0, 1, Letter("b", 1))], base=0)
        with pytest.raises(NotFoldedError):
            two_core(g)

    def test_morphism_restriction(self):
        h = Subgroup.of(AB, "a b a^-1")
        k = Subgroup.of(AB, "a b a^-1", "a")
        m = unique_pointed_morphism(gamma(h), gamma(k))
        out = unbased_core_morphism(m)
        assert out.source.n_edges == 1
        assert classify(out).injective

    def test_functorial(self):
        rng = random.Random(11)
        done = 0
        for _ in range(200):
            k = random_subgroup(rng, AB, max_gens=3, max_len=5)
            gk = gamma(k)
            if gk.n_edges == 0:
                continue
            basis = pi1_basis(gk)
            mid = Subgroup(AB, tuple(basis[: max(1, len(basis) // 2)]))
            inner = Subgroup(AB, mid.generators[:1])
            g_mid, g_inner = gamma(mid), gamma(inner)
            f1 = unique_pointed_morphism(g_inner, g_mid)
            f2 = unique_pointed_morphism(g_mid, gk)
            if f1 is None or f2 is None or g_inner.n_edges == 0:
                continue
            lhs = unbased_core_morphism(f2.compose(f1))
            rhs = unbased_core_morphism(f2).compose(unbased_core_morphism(f1))
            assert lhs.vmap == rhs.vmap and lhs.emap == rhs.emap
            done += 1
        assert done > 20


class TestTransport:
    def _root(self):
        return unique_pointed_morphism(gamma(H_B), gamma(K_DELTA))

    def test_identity_transport(self):
        out = unbased_image_morphism(identity_hom(AB), self._root())
        c = classify(out)
        assert c.injective and not c.surjective

    def test_conjugation_transport(self):
        out = unbased_image_morphism(conjugation_hom(parse_word("a"), AB), self._root())
        assert classify(out).injective

    def test_power_map_transport(self):
        phi = GroupHom(AB, AB, {"a": parse_word("a"), "b": parse_word("b b")})
        out = unbased_image_morphism(phi, self._root())
        assert classify(out).injective
        assert iso_unpointed(
            out.target, two_core(gamma(Subgroup.of(AB, "b b", "a b b a^-1")))
        )

    def test_trivial_image_rejected(self):
        g = gamma(Subgroup(AB, (parse_word(""),)))
        m = unique_pointed_morphism(g, gamma(H_B))
        with pytest.raises(Exception):
            unbased_image_morphism(identity_hom(AB), m)

    def test_no_fold_no_trim_under_guarantee(self):
        rng = random.Random(13)
        x3 = Alphabet.of("a", "b", "c")
        hits = 0
        for _ in range(300):
            h = random_subgroup(rng, AB, max_gens=3, max_len=5)
            g = gamma(h)
            if g.n_edges == 0:
                continue
            n = whitehead_graph(g)
            phi = random_hom(rng, AB, x3, 4)
            if not is_restriction_morphism(n, full_whitehead(x3), phi):
                continue
            hits += 1
            sub = subdivide(phi, g)
            assert sub.is_folded()
            c = core(sub)
            assert (c.n_vertices, c.n_edges) == (sub.n_vertices, sub.n_edges)
        assert hits > 30
