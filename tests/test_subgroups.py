import random

import pytest

from stallings.errors import (
    NotIncludedError,
    TrivialGraphError,
    TrivialSubgroupError,
)
from stallings.graph import Path, canonical_form, classify, iso_pointed, trace
from stallings.subgroups import (
    Subgroup,
    conjugate_core,
    contains,
    covering_circuit,
    gamma,
    inclusion_morphism,
    load_subgroup,
    onto_base,
    pi1_basis,
)
from stallings.words import Alphabet, IDENTITY, Word, invert, parse_word

from helpers import ALPHABETS, random_reduced_word, random_subgroup

AB = Alphabet.of("a", "b")
H_B = Subgroup.of(AB, "b")
K_DELTA = Subgroup.of(AB, "b", "a b a^-1")


class TestGamma:
    def test_single_loop(self):
        g = gamma(H_B)
        assert g.n_vertices == 1 and g.n_edges == 1

    def test_two_vertex_core(self):
        g = gamma(K_DELTA)
        assert canonical_form(g).splitlines() == [
            "base 0",
            "0 -a-> 1",
            "0 -b-> 0",
            "1 -b-> 1",
        ]

    def test_trivial_subgroup(self):
        g = gamma(Subgroup(AB, (IDENTITY,)))
        assert g.n_vertices == 1 and g.n_edges == 0

    def test_independent_of_generating_set(self):
        rng = random.Random(2)
        for _ in range(50):
            h = random_subgroup(rng, AB)
            g = gamma(h)
            regenerated = Subgroup(AB, tuple(pi1_basis(g)))
            assert iso_pointed(g, gamma(regenerated))


class TestMembership:
    def test_generator(self):
        assert contains(K_DELTA, parse_word("a b a^-1"))

    def test_nonmember(self):
        assert not contains(K_DELTA, parse_word("a"))

    def test_foreign_generator_is_not_member(self):
        assert not contains(K_DELTA, parse_word("c"))
        assert not contains(K_DELTA, parse_word("a b c a^-1"))

    def test_identity_always_member(self):
        assert contains(K_DELTA, IDENTITY)
        assert contains(Subgroup(AB, ()), IDENTITY)

    def test_products_and_certified_nonmembers(self):
        rng = random.Random(7)
        for _ in range(30):
            h = random_subgroup(rng, AB, max_gens=3, max_len=6)
            g = gamma(h)
            gens = [w for w in h.generators if w]
            for _ in range(10):
                if not gens:
                    break
                prod = IDENTITY
                for _ in range(rng.randint(1, 3)):
                    w = rng.choice(gens)
                    prod = prod * (w if rng.random() < 0.5 else invert(w))
                assert trace(g, g.base, prod) == g.base


class TestBasis:
    def test_delta_basis(self):
        assert set(pi1_basis(gamma(K_DELTA))) == {
            parse_word("b"),
            parse_word("a b a^-1"),
        }

    def test_loop_basis(self):
        assert pi1_basis(gamma(H_B)) == [parse_word("b")]

    def test_trivial(self):
        assert pi1_basis(gamma(Subgroup(AB, ()))) == []

    def test_rank_formula(self):
        rng = random.Random(13)
        for _ in range(40):
            g = gamma(random_subgroup(rng, Alphabet.of("a", "b", "c")))
            assert len(pi1_basis(g)) == g.n_edges - g.n_vertices + 1


class TestInclusion:
    def test_included(self):
        m = inclusion_morphism(H_B, K_DELTA)
        assert m is not None
        c = classify(m)
        assert c.injective and not c.surjective

    def test_disjoint(self):
        assert inclusion_morphism(Subgroup.of(AB, "a"), H_B) is None

    def test_equal(self):
        m = inclusion_morphism(K_DELTA, K_DELTA)
        assert m is not None and classify(m).injective and classify(m).surjective

    def test_alphabets_matched_by_name(self):
        h = Subgroup.of(Alphabet.of("b"), "b")
        k = Subgroup.of(Alphabet.of("b", "a"), "b", "a b a^-1")
        m = inclusion_morphism(h, k)
        assert m is not None
        c = classify(m)
        assert c.injective and not c.surjective
        assert inclusion_morphism(Subgroup.of(Alphabet.of("b", "a"), "a"), H_B) is None


class TestConjugateCore:
    def test_shift_by_a(self):
        g = conjugate_core(gamma(H_B), parse_word("a"))
        assert iso_pointed(g, gamma(Subgroup.of(AB, "a b a^-1")))

    def test_conjugate_by_member_is_noop(self):
        g = conjugate_core(gamma(H_B), parse_word("b"))
        assert iso_pointed(g, gamma(H_B))

    def test_identity_conjugator(self):
        g = gamma(K_DELTA)
        assert conjugate_core(g, IDENTITY) is g

    def test_matches_conjugated_generators(self):
        rng = random.Random(17)
        for _ in range(50):
            h = random_subgroup(rng, AB, max_gens=3, max_len=6)
            w = random_reduced_word(rng, AB, 5)
            assert iso_pointed(conjugate_core(gamma(h), w), gamma(h.conjugate(w)))


def _assert_valid_circuit(h: Subgroup, u: Word):
    g = gamma(h)
    edges = []
    v = g.base
    for letter in u:
        e = g.edge_at(v, g.alphabet.code(letter))
        assert e is not None
        edges.append(e)
        v = g.head(e)
    p = Path(g, tuple(edges))
    assert v == g.base and p.is_reduced()
    assert {e // 2 for e in edges} == set(range(g.n_edges))


class TestCoveringCircuit:
    def test_rose(self):
        h = Subgroup.of(AB, "a", "b")
        _assert_valid_circuit(h, covering_circuit(gamma(h)))

    def test_single_loop(self):
        assert covering_circuit(gamma(H_B)) == parse_word("b")

    def test_delta(self):
        _assert_valid_circuit(K_DELTA, covering_circuit(gamma(K_DELTA)))

    def test_trivial_graph_rejected(self):
        with pytest.raises(TrivialGraphError):
            covering_circuit(gamma(Subgroup(AB, ())))

    def test_random_cores(self):
        rng = random.Random(19)
        for alphabet in ALPHABETS[1:]:
            for _ in range(40):
                h = random_subgroup(rng, alphabet)
                if h.is_trivial():
                    continue
                _assert_valid_circuit(h, covering_circuit(gamma(h)))

    def test_first_letter_constraint(self):
        h = Subgroup.of(AB, "a", "b")
        u = covering_circuit(gamma(h), first_letter_not=parse_word("a")[0])
        assert u[0] != parse_word("a")[0]
        _assert_valid_circuit(h, u)


class TestOntoBase:
    def test_free_group_target(self):
        h = Subgroup.of(AB, "a")
        k = Subgroup.of(AB, "a", "b")
        u, f = onto_base(h, k)
        assert contains(k, u)
        assert classify(f).surjective

    def test_equal_subgroups(self):
        u, f = onto_base(H_B, H_B)
        assert contains(H_B, u)
        c = classify(f)
        assert c.surjective and c.injective

    def test_strict_inclusion_not_injective(self):
        u, f = onto_base(H_B, K_DELTA)
        assert contains(K_DELTA, u)
        c = classify(f)
        assert c.surjective and not c.injective

    def test_spur_requires_preconjugation(self):
        abc = Alphabet.of("a", "b", "c")
        h = Subgroup.of(abc, "a b a^-1")
        k = Subgroup.of(abc, "a b a^-1", "a c a^-1")
        u, f = onto_base(h, k)
        assert contains(k, u)
        assert classify(f).surjective

    def test_not_included(self):
        with pytest.raises(NotIncludedError):
            onto_base(Subgroup.of(AB, "a"), H_B)

    def test_trivial_inner(self):
        with pytest.raises(TrivialSubgroupError):
            onto_base(Subgroup(AB, ()), K_DELTA)

    def test_target_graph_is_fixed_by_conjugator(self):
        rng = random.Random(29)
        for _ in range(30):
            k = random_subgroup(rng, AB, max_gens=3, max_len=6)
            if k.is_trivial():
                continue
            basis = pi1_basis(gamma(k))
            words = []
            for _ in range(rng.randint(1, 3)):
                w = IDENTITY
                for _ in range(rng.randint(1, 3)):
                    b = rng.choice(basis)
                    w = w * (b if rng.random() < 0.5 else invert(b))
                words.append(w)
            h = Subgroup(AB, tuple(words))
            if h.is_trivial():
                continue
            u, f = onto_base(h, k)
            assert contains(k, u)
            assert classify(f).surjective
            assert iso_pointed(f.target, gamma(k))


class TestSubgroupFiles:
    def test_parse(self):
        h = load_subgroup("# generators\nb\n\na b a^-1  # conjugate\n")
        assert h.generators == (parse_word("b"), parse_word("a b a^-1"))
        assert h.alphabet.generators == ("b", "a")

    def test_explicit_alphabet(self):
        h = load_subgroup("b\n", alphabet=AB)
        assert h.alphabet is AB
