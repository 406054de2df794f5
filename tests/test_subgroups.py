import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from stallings import subgroups
from stallings.errors import (
    NotIncludedError,
    TrivialGraphError,
    TrivialSubgroupError,
    UnknownGeneratorError,
)
from stallings.graph import (
    attach_path,
    canonical_form,
    classify,
    core,
    iso_pointed,
    trace,
)
from stallings.subgroups import (
    Subgroup,
    contains,
    covering_circuit,
    gamma,
    inclusion_morphism,
    load_subgroup,
    onto_base,
    pi1_basis,
)
from stallings.words import (
    Alphabet,
    IDENTITY,
    Word,
    free_reduce,
    invert,
    invert_codes,
    parse_word,
    reduce_codes,
)

from helpers import (
    ALPHABETS,
    count_folds,
    naive_canonical_form,
    naive_fold,
    naive_member,
    naive_trim,
    pointed_graphs,
    random_reduced_word,
    random_subgroup,
    same_at_some_root,
    spelled,
)

AB = Alphabet.of("a", "b")
H_B = Subgroup.of(AB, "b")
K_DELTA = Subgroup.of(AB, "b", "a b a^-1")


def codes(text: str) -> tuple[int, ...]:
    return AB.encode(parse_word(text))


def words(h: Subgroup) -> list[Word]:
    return [h.alphabet.word(w) for w in h.codes]


_AB_CODES = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6).map(reduce_codes)


@st.composite
def _generator_lists(draw) -> list[tuple[int, ...]]:
    """Code words over {a, b}, each new one made from the earlier ones.

    The kinds reach every branch of the core-graph builder: words
    sharing a prefix or a suffix with an earlier one, conjugates
    (not cyclically reduced, so the builder lays a stem), products of
    earlier generators (already in the subgroup), and splices of an
    earlier word's prefix with another's suffix and powers (read to the
    end from both sides, often meeting at two different vertices).
    """
    gens = [draw(_AB_CODES)]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(
            st.sampled_from(["fresh", "prefix", "suffix", "stem", "member", "splice", "power"])
        )
        g, h, w = draw(st.sampled_from(gens)), draw(st.sampled_from(gens)), draw(_AB_CODES)
        if kind == "fresh":
            new = w
        elif kind == "prefix":
            new = g + w
        elif kind == "suffix":
            new = w + g
        elif kind == "stem":
            new = w + g + invert_codes(w)
        elif kind == "member":
            new = g + invert_codes(h)
        elif kind == "splice":
            new = g[: draw(st.integers(0, len(g)))] + h[draw(st.integers(0, len(h))):]
        else:
            new = g * draw(st.integers(2, 3))
        gens.append(reduce_codes(new))
    return gens


def _assert_matches_oracle(gens: list[tuple[int, ...]]) -> str:
    """gamma against the naive fold and trim of hand-spelled loops.

    Compares the canonical text at the base and, with the base
    forgotten, the texts at some root, which no vertex numbering changes;
    returns the text.
    """
    g = gamma(Subgroup(AB, [AB.word(w) for w in gens]))
    oracle = naive_trim(naive_fold(spelled(AB, 1, [(0, 0, w) for w in gens], 0)))
    assert g.is_core()
    assert canonical_form(g) == naive_canonical_form(oracle)
    assert same_at_some_root(g, oracle)
    return canonical_form(g)


class TestGamma:
    @settings(max_examples=300)
    @given(_generator_lists())
    def test_matches_naive_fold(self, gens):
        _assert_matches_oracle(gens)

    @pytest.mark.parametrize(
        "gens, form",
        [
            (["a a", "a a a"], "base 0\n0 -a-> 0"),  # the reads of a^3 meet
            (["a b", "b", "a"], "base 0\n0 -a-> 0\n0 -b-> 0"),
            (["a b a^-1"], "base 0\n0 -a-> 1\n1 -b-> 1"),  # a stem
            (["a b", "a b^-1 a"], "base 0\n0 -a-> 1\n1 -b-> 0\n2 -a-> 0\n2 -b-> 1"),
        ],
    )
    def test_explicit_cases(self, gens, form):
        assert _assert_matches_oracle([codes(w) for w in gens]) == form

    @pytest.mark.parametrize(
        "gens, folds",
        [(["b"], 0), (["a b a^-1"], 0), (["a b", "a b^-1 a"], 0), (["a a", "a a a"], 1)],
    )
    def test_fold_kernel_runs_only_when_reads_meet(self, monkeypatch, gens, folds):
        calls = count_folds(monkeypatch)
        gamma(Subgroup.of(AB, *gens))
        assert len(calls) == folds

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
            regenerated = Subgroup(AB, map(AB.word, pi1_basis(g)))
            assert iso_pointed(g, gamma(regenerated))

    def test_canonical_form_invariant_under_nielsen_moves(self):
        rng = random.Random(4)
        abc = Alphabet.of("a", "b", "c")
        for _ in range(100):
            gens = words(random_subgroup(rng, abc, max_gens=4, max_len=6))
            expected = canonical_form(gamma(Subgroup(abc, tuple(gens))))
            for _ in range(5):
                i = rng.randrange(len(gens))
                j = rng.randrange(len(gens))
                move = rng.randrange(3)
                if move == 0:  # invert a generator
                    gens[i] = invert(gens[i])
                elif move == 1:  # swap two generators
                    gens[i], gens[j] = gens[j], gens[i]
                elif i != j:  # multiply one generator by another
                    gens[i] = gens[i] * (gens[j] if rng.random() < 0.5 else invert(gens[j]))
                moved = Subgroup(abc, tuple(gens))
                assert canonical_form(gamma(moved)) == expected


_AB_WORDS = st.lists(st.sampled_from(AB.letters()), max_size=6).map(free_reduce)
_ABC_WORDS = st.lists(
    st.sampled_from(Alphabet.of("a", "b", "c").letters()), max_size=4
).map(free_reduce)
# reduced words over {a, b} that end in a^1 or a^-1
_A_ENDED_WORDS = st.tuples(
    st.lists(st.sampled_from(AB.letters()), max_size=8).map(free_reduce),
    st.sampled_from([l for l in AB.letters() if l.gen == "a"]),
).map(lambda t: t[0] * Word((t[1],))).filter(lambda w: w and w[-1].gen == "a")


class TestCoreCache:
    def test_gamma_returns_the_same_graph(self):
        h = Subgroup.of(AB, "b", "a b a^-1")
        assert gamma(h) is gamma(h)

    def test_second_query_does_not_fold(self, monkeypatch):
        h = Subgroup.of(AB, "b", "a b a^-1")
        assert contains(h, parse_word("b"))
        calls = []
        monkeypatch.setattr(subgroups, "core", lambda g: calls.append(g))
        monkeypatch.setattr(subgroups, "_fold_paths", lambda *args: calls.append(args))
        assert contains(h, parse_word("a b a^-1"))
        assert not contains(h, parse_word("a"))
        assert inclusion_morphism(h, h) is not None
        assert calls == []

    def test_equality_hash_and_repr_ignore_the_cache(self):
        h = Subgroup.of(AB, "b", "a b a^-1")
        k = Subgroup.of(AB, "b", "a b a^-1")
        assert h == k and hash(h) == hash(k)
        gamma(h)
        assert h == k and hash(h) == hash(k)
        gamma(k)
        assert h == k and hash(h) == hash(k)
        assert h != Subgroup.of(AB, "b")
        assert repr(h) == repr(k) == "Subgroup<b, a b a^-1>"

    def test_conjugate_folds_its_own_graph(self):
        h = Subgroup.of(AB, "b", "a b a^-1")
        g = gamma(h)
        for w in (codes("a"), ()):
            c = h.conjugate(w)
            assert gamma(c) is not g
            fresh = gamma(Subgroup(AB, words(c)))
            assert canonical_form(gamma(c)) == canonical_form(fresh)
        assert canonical_form(gamma(h.conjugate(codes("a")))) != canonical_form(g)

    def test_onto_base_same_on_warm_subgroups(self):
        rng = random.Random(31)
        for _ in range(30):
            k = random_subgroup(rng, AB, max_gens=3, max_len=6)
            if k.is_trivial():
                continue
            k_gens = words(k)
            h = Subgroup(AB, (k_gens[0] * k_gens[-1],))
            if h.is_trivial():
                continue
            u, f = onto_base(Subgroup(AB, words(h)), Subgroup(AB, k_gens))
            gamma(h)
            gamma(k)
            for _ in range(2):  # filled by gamma, then by onto_base itself
                u2, f2 = onto_base(h, k)
                assert u2 == u
                assert (f2.vmap, f2.emap) == (f.vmap, f.emap)
                assert f2.target == f.target and f2.source == f.source


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
        word_rng = random.Random(8)
        verdicts = []
        for _ in range(30):
            h = random_subgroup(rng, AB, max_gens=3, max_len=6)
            g = gamma(h)
            gens = [w for w in words(h) if w]
            for _ in range(10):
                if not gens:
                    break
                prod = IDENTITY
                for _ in range(rng.randint(1, 3)):
                    w = rng.choice(gens)
                    prod = prod * (w if rng.random() < 0.5 else invert(w))
                assert trace(g, g.base, AB.encode(prod)) == g.base
            for _ in range(10):
                w = AB.word(random_reduced_word(word_rng, AB, 4))
                verdict = naive_member(h, w)
                assert contains(h, w) == verdict
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    @given(
        gens=st.lists(_AB_WORDS, max_size=3),
        factors=st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=3),
        tails=st.lists(_ABC_WORDS, min_size=1, max_size=4),
    )
    def test_agrees_with_naive_fold(self, gens, factors, tails):
        """Fresh and warm subgroups both answer as a walk in the naive fold.

        Queries are a product of generators times a tail that may use
        the foreign generator ``c``; an empty tail makes a member.
        """
        gens = tuple(gens)
        prod = IDENTITY
        for i, inverse in factors:
            if gens:
                w = gens[i % len(gens)]
                prod = prod * (invert(w) if inverse else w)
        warm = Subgroup(AB, gens)
        gamma(warm)
        for tail in tails:
            w = prod * tail
            expected = naive_member(Subgroup(AB, gens), w)
            assert contains(Subgroup(AB, gens), w) == expected
            assert contains(warm, w) == expected


class TestBasis:
    def test_delta_basis(self):
        assert set(pi1_basis(gamma(K_DELTA))) == {codes("b"), codes("a b a^-1")}

    def test_loop_basis(self):
        assert pi1_basis(gamma(H_B)) == [codes("b")]

    def test_trivial(self):
        assert pi1_basis(gamma(Subgroup(AB, ()))) == []

    @given(g=pointed_graphs())
    def test_basis_generates_the_core(self, g):
        c = core(g)
        regenerated = gamma(Subgroup(c.alphabet, map(c.alphabet.word, pi1_basis(c))))
        assert canonical_form(regenerated) == canonical_form(c)

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
    """The core of a graph with a path attached at its base, as onto_base takes it."""

    def test_shift_by_a(self):
        g = core(attach_path(gamma(H_B), codes("a")))
        assert iso_pointed(g, gamma(Subgroup.of(AB, "a b a^-1")))

    def test_conjugate_by_member_is_noop(self):
        g = core(attach_path(gamma(H_B), codes("b")))
        assert iso_pointed(g, gamma(H_B))

    def test_identity_conjugator(self):
        g = gamma(K_DELTA)
        assert core(attach_path(g, ())) is g

    def test_matches_conjugated_generators(self):
        rng = random.Random(17)
        for _ in range(50):
            h = random_subgroup(rng, AB, max_gens=3, max_len=6)
            w = random_reduced_word(rng, AB, 5)
            assert iso_pointed(core(attach_path(gamma(h), w)), gamma(h.conjugate(w)))


def _assert_valid_circuit(h: Subgroup, u: tuple[int, ...]):
    """u spells a closed reduced path at the base that covers every edge."""
    g = gamma(h)
    edges = []
    v = g.base
    for c in u:
        e = g.edge_at(v, c)
        assert e is not None
        edges.append(e)
        v = g.head(e)
    assert v == g.base
    assert all(b != a ^ 1 for a, b in zip(edges, edges[1:]))
    assert {e // 2 for e in edges} == set(range(g.n_edges))


class TestCoveringCircuit:
    def test_rose(self):
        h = Subgroup.of(AB, "a", "b")
        _assert_valid_circuit(h, covering_circuit(gamma(h)))

    def test_single_loop(self):
        assert covering_circuit(gamma(H_B)) == codes("b")

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

    @given(w=_A_ENDED_WORDS)
    def test_hanging_path_known_by_construction(self, w):
        """A path spelling w hung on the b-loop is the circuit's tail.

        w ends in a^1 or a^-1, so the path does not fold into the loop and
        the core of <w b w^-1> is the loop plus a hanging path spelling w.
        """
        g = core(attach_path(gamma(H_B), AB.encode(w)))
        u = AB.word(covering_circuit(g))
        assert u.letters[: len(w)] == w.letters
        assert u.letters[-len(w) :] == invert(w).letters
        h = Subgroup(AB, (w * parse_word("b") * invert(w),))
        _, f = onto_base(h, Subgroup.of(AB, "a", "b"))
        assert classify(f).surjective

    def test_first_letter_constraint(self):
        h = Subgroup.of(AB, "a", "b")
        u = covering_circuit(gamma(h), first_code_not=codes("a")[0])
        assert u[0] != codes("a")[0]
        _assert_valid_circuit(h, u)


@st.composite
def _nested_pairs(draw) -> tuple[Subgroup, Subgroup]:
    """(H, K) over {a, b} with H generated by products of K's generators."""
    word = st.lists(st.sampled_from(AB.letters()), min_size=1, max_size=5).map(free_reduce)
    k_gens = draw(st.lists(word.filter(bool), min_size=1, max_size=3))
    factor = st.tuples(st.sampled_from(k_gens), st.booleans())
    h_gens = []
    for factors in draw(st.lists(st.lists(factor, min_size=1, max_size=3), min_size=1, max_size=3)):
        w = IDENTITY
        for g, inverse in factors:
            w = w * (invert(g) if inverse else g)
        h_gens.append(w)
    return Subgroup(AB, tuple(h_gens)), Subgroup(AB, tuple(k_gens))


class TestOntoBase:
    @given(pair=_nested_pairs())
    def test_onto_nested_pairs(self, pair):
        """Onto for every H <= K; an injective onto morphism makes H = K.

        Whether H = K is decided by the naive fold: K's generators in H.
        """
        h, k = pair
        assume(not h.is_trivial())
        u, f = onto_base(h, k)
        assert naive_member(k, AB.word(u))
        c = classify(f)
        assert c.surjective
        if not all(naive_member(h, g) for g in words(k)):
            assert not c.injective

    def test_free_group_target(self):
        h = Subgroup.of(AB, "a")
        k = Subgroup.of(AB, "a", "b")
        u, f = onto_base(h, k)
        assert contains(k, AB.word(u))
        assert classify(f).surjective

    def test_equal_subgroups(self):
        u, f = onto_base(H_B, H_B)
        assert contains(H_B, AB.word(u))
        c = classify(f)
        assert c.surjective and c.injective

    def test_strict_inclusion_not_injective(self):
        u, f = onto_base(H_B, K_DELTA)
        assert contains(K_DELTA, AB.word(u))
        c = classify(f)
        assert c.surjective and not c.injective

    def test_spur_requires_preconjugation(self):
        abc = Alphabet.of("a", "b", "c")
        h = Subgroup.of(abc, "a b a^-1")
        k = Subgroup.of(abc, "a b a^-1", "a c a^-1")
        u, f = onto_base(h, k)
        assert contains(k, abc.word(u))
        assert classify(f).surjective

    def test_not_included(self):
        with pytest.raises(NotIncludedError):
            onto_base(Subgroup.of(AB, "a"), H_B)

    @pytest.mark.parametrize("names", [("b", "a"), ("b", "a", "c"), ("b",)])
    def test_other_alphabet_recoded_by_name(self, names):
        u, f = onto_base(Subgroup.of(Alphabet.of(*names), "b"), K_DELTA)
        assert AB.word(u) == parse_word("b a b a^-1")
        assert f.source.alphabet == AB and classify(f).surjective

    def test_other_alphabet_not_included(self):
        with pytest.raises(NotIncludedError):
            onto_base(Subgroup.of(Alphabet.of("b", "c"), "c"), K_DELTA)

    def test_trivial_inner(self):
        with pytest.raises(TrivialSubgroupError):
            onto_base(Subgroup(AB, ()), K_DELTA)

    def test_target_graph_is_fixed_by_conjugator(self):
        rng = random.Random(29)
        for _ in range(30):
            k = random_subgroup(rng, AB, max_gens=3, max_len=6)
            if k.is_trivial():
                continue
            basis = [AB.word(b) for b in pi1_basis(gamma(k))]
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
            assert contains(k, AB.word(u))
            assert classify(f).surjective
            assert iso_pointed(f.target, gamma(k))


class TestSubgroupFiles:
    def test_parse(self):
        h = load_subgroup("# generators\nb\n\na b a^-1  # conjugate\n")
        assert h == Subgroup(h.alphabet, (parse_word("b"), parse_word("a b a^-1")))
        assert h.codes == ((1,), (2, 1, -2))
        assert h.alphabet.generators == ("b", "a")

    def test_explicit_alphabet(self):
        h = load_subgroup("b\n", alphabet=AB)
        assert h.alphabet is AB

    @pytest.mark.parametrize(
        "text, names",
        [("a a^-1 b", ("b",)), ("c a a^-1 c^-1\nb a", ("b", "a"))],
    )
    def test_alphabet_inferred_from_reduced_words(self, text, names):
        """Letters that cancel name no generator; the order fixes BFS ties."""
        assert load_subgroup(text).alphabet.generators == names

    @pytest.mark.parametrize(
        "text, error",
        [
            ("c c^-1 b", None),  # a foreign name that cancels is accepted
            ("b\na c\n", "c not over alphabet ('a', 'b')"),
            ("b\na c^-1\n", "c^-1 not over alphabet ('a', 'b')"),
        ],
        ids=["cancelled", "survives", "survives-inverted"],
    )
    def test_foreign_token_with_explicit_alphabet(self, text, error):
        if error is None:
            assert repr(load_subgroup(text, AB)) == "Subgroup<b>"
        else:
            with pytest.raises(UnknownGeneratorError) as exc:
                load_subgroup(text, alphabet=AB)
            assert str(exc.value) == error
