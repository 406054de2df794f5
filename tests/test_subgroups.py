import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from stallings import subgroups
from stallings.errors import (
    NotFoldedError,
    NotIncludedError,
    StallingsError,
    TrivialGraphError,
    TrivialSubgroupError,
    UnknownGeneratorError,
)
from stallings.graph import (
    bouquet,
    canonical_form,
    classify,
    core,
    iso_pointed,
    trace,
)
from stallings.subgroups import (
    Subgroup,
    contains,
    contains_codes,
    covering_circuit,
    gamma,
    inclusion_morphism,
    load_subgroup,
    onto_base,
    pi1_basis,
)
from stallings.words import (
    Alphabet,
    Letter,
    Word,
    invert_codes,
    parse_codes,
    parse_letter,
    parse_word,
    reduce_codes,
)

from helpers import (
    ALPHABETS,
    count_calls,
    count_folds,
    count_identifications,
    counting_names,
    covers_every_edge,
    hang_path,
    naive_canonical_form,
    naive_fold,
    naive_member,
    naive_trim,
    nested_pairs,
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


def subgroup(alphabet: Alphabet, gens) -> Subgroup:
    """The subgroup generated by code words over the alphabet."""
    return Subgroup(alphabet, map(alphabet.word, gens))


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

    def test_first_bad_label_is_named(self):
        """The error names the first bad code in reading order, not in the set of codes."""
        h = Subgroup._raw(AB, ((1, 2), (2, 5, -7, 0)))
        with pytest.raises(UnknownGeneratorError, match="^label 5 outside the alphabet$"):
            gamma(h)

    @pytest.mark.parametrize(
        "gens, merges",
        [(["b"], 0), (["a b a^-1"], 0), (["a b", "a b^-1 a"], 0), (["a a", "a a a"], 1)],
    )
    def test_fold_kernel_runs_only_when_reads_meet(self, monkeypatch, gens, merges):
        """The fold kernel never runs: where two reads meet, the lay identifies.

        ``merges`` counts the reads that meet at two different vertices.
        """
        folds, identified = count_folds(monkeypatch), count_identifications(monkeypatch)
        gamma(Subgroup.of(AB, *gens))
        assert (len(folds), len(identified)) == (0, merges)

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
        g = gamma(Subgroup(AB, (Word(),)))
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
            gens = list(random_subgroup(rng, abc, max_gens=4, max_len=6).codes)
            expected = canonical_form(gamma(subgroup(abc, gens)))
            for _ in range(5):
                i = rng.randrange(len(gens))
                j = rng.randrange(len(gens))
                move = rng.randrange(3)
                if move == 0:  # invert a generator
                    gens[i] = invert_codes(gens[i])
                elif move == 1:  # swap two generators
                    gens[i], gens[j] = gens[j], gens[i]
                elif i != j:  # multiply one generator by another
                    other = gens[j] if rng.random() < 0.5 else invert_codes(gens[j])
                    gens[i] = reduce_codes(gens[i] + other)
                moved = subgroup(abc, gens)
                assert canonical_form(gamma(moved)) == expected


ABC = Alphabet.of("a", "b", "c")  # codes over AB keep their meaning over ABC
_ABC_CODES = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=4).map(reduce_codes)
# reduced code words over {a, b} that end in a^1 or a^-1
_A_ENDED_CODES = st.tuples(
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8).map(reduce_codes),
    st.sampled_from([1, -1]),
).map(lambda t: reduce_codes(t[0] + t[1:])).filter(lambda w: w and abs(w[-1]) == 1)


class TestCoreCache:
    def test_gamma_returns_the_same_graph(self):
        h = Subgroup.of(AB, "b", "a b a^-1")
        assert gamma(h) is gamma(h)

    def test_second_query_does_not_fold(self, monkeypatch):
        h = Subgroup.of(AB, "b", "a b a^-1")
        assert contains(h, parse_word("b"))
        calls = []
        monkeypatch.setattr("stallings.graph.core", lambda g: calls.append(g))
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
            h = subgroup(AB, (reduce_codes(k.codes[0] + k.codes[-1]),))
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

    @pytest.mark.parametrize(
        "text, member",
        [
            ("c a b a^-1", False),  # foreign letter first
            ("a b c a^-1", False),  # in the middle
            ("a b a^-1 c", False),  # last, after a member
            ("a a c", False),  # the walk leaves the graph before it
            ("c c^-1 b", True),  # a foreign letter that cancels
        ],
    )
    def test_foreign_letter_anywhere(self, text, member):
        w = parse_word(text)
        assert contains(K_DELTA, w) == naive_member(K_DELTA, w) == member

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
        ids=["copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("text, member", [("a b a^-1 b", True), ("b a", False)])
    def test_copies_keep_codes_and_verdict(self, clone, text, member):
        parsed = parse_word(text)
        made = Word(map(parse_letter, text.split()))
        native = AB.word(AB.encode(made))
        cancelled = Word(map(parse_letter, ["c", "c^-1", *text.split()]))  # c is no letter
        for w in (parsed, made, native, cancelled):
            out = clone(w)
            assert out == w and out.letters == w.letters and hash(out) == hash(w)
            assert repr(out) == repr(w) == text
            assert list(AB.read(out)) == list(AB.read(w)) == list(AB.encode(made))
            assert contains(K_DELTA, out) is member

    def test_text_query_is_rejected(self):
        with pytest.raises(AttributeError):
            contains(K_DELTA, "a b")

    def test_identity_always_member(self):
        assert contains(K_DELTA, Word())
        assert contains(Subgroup(AB, ()), Word())

    def test_benchmark_sized_queries(self):
        """Rank 3, generators of length 20, products of up to 6 of them.

        Every other query is a random word of length 20 instead, and
        each query is also asked with a foreign letter first, in the
        middle and last.
        """
        abc, abcd = Alphabet.of("a", "b", "c"), Alphabet.of("a", "b", "c", "d")
        rng = random.Random(41)

        def word20() -> tuple[int, ...]:
            out = [rng.choice([1, -1, 2, -2, 3, -3])]
            while len(out) < 20:
                out.append(rng.choice([c for c in (1, -1, 2, -2, 3, -3) if c != -out[-1]]))
            return tuple(out)

        verdicts, left_early = [], []
        for _ in range(3):
            gens = [word20() for _ in range(rng.randint(2, 6))]
            h = subgroup(abc, gens)
            g = gamma(h)
            for j in range(30):
                q = ()
                if j % 2:
                    q = word20()
                else:
                    for _ in range(rng.randint(1, 6)):
                        w = rng.choice(gens)
                        q = reduce_codes(q + (w if rng.random() < 0.5 else invert_codes(w)))
                w = abc.word(q)
                verdict = naive_member(h, w)
                assert contains(h, w) == verdict
                verdicts.append(verdict)
                left_early.append(trace(g, g.base, q) is None)
                for i in (0, len(q) // 2, len(q)):
                    w = abcd.word(q[:i] + (4,) + q[i:])
                    assert contains(h, w) is naive_member(h, w) is False
        assert True in verdicts and False in verdicts
        assert True in left_early and False in left_early

    def test_products_and_certified_nonmembers(self):
        rng = random.Random(7)
        word_rng = random.Random(8)
        verdicts = []
        for _ in range(30):
            h = random_subgroup(rng, AB, max_gens=3, max_len=6)
            g = gamma(h)
            gens = [w for w in h.codes if w]
            for _ in range(10):
                if not gens:
                    break
                prod = ()
                for _ in range(rng.randint(1, 3)):
                    w = rng.choice(gens)
                    prod = reduce_codes(prod + (w if rng.random() < 0.5 else invert_codes(w)))
                assert trace(g, g.base, prod) == g.base
            for _ in range(10):
                w = AB.word(random_reduced_word(word_rng, AB, 4))
                verdict = naive_member(h, w)
                assert contains(h, w) == verdict
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    @given(
        gens=st.lists(_AB_CODES, max_size=3),
        factors=st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=3),
        tails=st.lists(_ABC_CODES, min_size=1, max_size=4),
    )
    def test_agrees_with_naive_fold(self, gens, factors, tails):
        """Fresh and warm subgroups both answer as a walk in the naive fold.

        Queries are a product of generators times a tail that may use
        the foreign generator ``c``; an empty tail makes a member.
        """
        prod = ()
        for i, inverse in factors:
            if gens:
                w = gens[i % len(gens)]
                prod = reduce_codes(prod + (invert_codes(w) if inverse else w))
        warm = subgroup(AB, gens)
        gamma(warm)
        for tail in tails:
            w = ABC.word(reduce_codes(prod + tail))
            expected = naive_member(subgroup(AB, gens), w)
            assert contains(subgroup(AB, gens), w) == expected
            assert contains(warm, w) == expected
        # the walk reads the head table alone; no half-edge table is built
        assert gamma(warm)._heads is not None and gamma(warm)._lookup is None

    @given(data=st.data())
    def test_three_ways_to_make_a_query(self, data):
        """One query gets the naive verdict however its ``Word`` was made.

        It is parsed, made by the subgroup's own alphabet, and made from
        letters; its code word is also parsed in a batch.  The subgroup's alphabet is {a, b, c} in a drawn order,
        which a parsed word's alphabet, in order of first appearance,
        need not follow.  The query is a product of generators times a
        tail that may keep the foreign name ``d``, with ``d d^-1`` put in
        at a drawn place, so a foreign name also cancels.
        """
        names = tuple(data.draw(st.permutations("abc")))
        alphabet = Alphabet(names)
        letter = st.sampled_from([1, -1, 2, -2, 3, -3])
        gens = data.draw(st.lists(st.lists(letter, max_size=5).map(reduce_codes), max_size=3))
        h = subgroup(alphabet, gens)
        query = ()
        factors = st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=3)
        for i, inverse in data.draw(factors):
            if gens:
                w = gens[i % len(gens)]
                query = reduce_codes(query + (invert_codes(w) if inverse else w))
        tail = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]), max_size=3)
        query += tuple(data.draw(tail))
        tokens = [(names + ("d",))[abs(c) - 1] + ("" if c > 0 else "^-1") for c in query]
        at = data.draw(st.integers(0, len(tokens)))
        tokens[at:at] = ["d", "d^-1"]
        made = Word(map(parse_letter, tokens))
        parsed = parse_word(" ".join(tokens))
        assert parsed == made
        verdict = naive_member(h, made)
        assert contains(h, parsed) is contains(h, made) is verdict
        # in a batch, whose second word puts every name in another order
        assert contains_codes(h, *parse_codes([tokens, ["d", "c", "b", "a"]]))[0] is verdict
        reduced = reduce_codes(query)
        if 4 not in map(abs, reduced):
            native = alphabet.word(reduced)
            assert native == parsed and alphabet.read(native) == reduced
            assert contains(h, native) is verdict

    def test_batch_codes_outside_their_alphabet_raise(self):
        with pytest.raises(UnknownGeneratorError, match="^label 3 outside the alphabet$"):
            contains_codes(K_DELTA, AB, [(2,), (1, 3)])

    def test_wide_subgroup_alphabet_is_not_walked(self):
        """Parsed queries make no full pass over the subgroup's names."""
        passes = []
        wide = Alphabet(counting_names((f"x{i}" for i in range(200_000)), passes))
        rng = random.Random(3)
        gens = ["x0 x1 x0^-1", "x2 x1", "x1 x2 x0 x2^-1"]
        h = Subgroup.of(wide, *gens)
        texts = []
        for _ in range(50):
            query = " ".join(rng.choice(gens) for _ in range(rng.randint(1, 3)))
            if rng.random() < 0.5:  # a name no generator uses; x200000 is foreign
                query += rng.choice([" x200000", " x200000 x200000^-1", " x7"])
            texts.append(query)
        queries = [parse_word(t) for t in texts]
        batch = parse_codes([t.split() for t in texts])
        passes.clear()
        verdicts = [contains(h, w) for w in queries]
        assert contains_codes(h, *batch) == verdicts
        assert passes == []
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_every_query_shape_agrees_with_naive_walk(self, rank):
        """Each way to make a query gets ``naive_member``'s verdict, and so does the batch.

        The subgroup's names are a seeded order of the first ``rank`` of
        ``a b c d``.  Each of 60 queries, a product of generators or a
        random word, is asked as the alphabet's own word; as parsed text,
        whose names come in the order they first appear; as letters with
        a foreign ``e e^-1`` that cancels and with a foreign ``e`` that
        survives; and as a word of an alphabet of more names than it has
        letters, with a foreign letter half the time.  The texts of all
        of them, parsed as one batch, get the same verdicts from
        ``contains_codes``.
        """
        rng = random.Random(rank)
        names = rng.sample("abcd"[:rank], rank)
        alphabet = Alphabet(names)
        wide = Alphabet(rng.sample([*names, *(f"y{i}" for i in range(40))], rank + 40))
        paths, verdicts = set(), []
        for _ in range(6):
            gens = [random_reduced_word(rng, alphabet, 6) for _ in range(rng.randint(1, 3))]
            h = subgroup(alphabet, gens)
            queries = []
            for j in range(10):
                q: tuple[int, ...] = ()
                if j % 2:
                    q = random_reduced_word(rng, alphabet, 8)
                else:
                    for _ in range(rng.randint(1, 3)):
                        w = rng.choice(gens)
                        q = reduce_codes(q + (invert_codes(w) if rng.random() < 0.5 else w))
                native = alphabet.word(q)
                letters, at = list(native.letters), rng.randint(0, len(q))
                spread = list(wide.recode(q, alphabet))
                if rng.random() < 0.5:  # y-names are foreign to the subgroup
                    spread[at:at] = wide.encode([Letter("y7", rng.choice((1, -1)))])
                shapes = [
                    native,
                    parse_word(native.text),
                    Word(letters[:at] + [Letter("e", 1), Letter("e", -1)] + letters[at:]),
                    Word(letters[:at] + [Letter("e", rng.choice((1, -1)))] + letters[at:]),
                    wide.word(spread),
                ]
                assert len(shapes[-1]) < len(wide)
                member = naive_member(h, native)
                for w in shapes:
                    codes, table = alphabet._reading(w)
                    paths.add("own" if codes is w._codes and table is None else
                              "table" if table else "recode")
                    verdict = contains(h, w)
                    assert verdict is naive_member(h, w)
                    assert verdict is (member and w == native)  # a kept foreign name fails
                    verdicts.append(verdict)
                queries += shapes
            batch = parse_codes([w.text.split() for w in queries])
            assert contains_codes(h, *batch) == verdicts[-len(queries):]
        assert paths == {"own", "table", "recode"}
        assert True in verdicts and False in verdicts


class TestBasis:
    def test_delta_basis(self):
        assert set(pi1_basis(gamma(K_DELTA))) == {codes("b"), codes("a b a^-1")}

    def test_loop_basis(self):
        assert pi1_basis(gamma(H_B)) == [codes("b")]

    def test_trivial(self):
        assert pi1_basis(gamma(Subgroup(AB, ()))) == []

    def test_unfolded_graph_rejected(self):
        """Two a-loops at the base generate <a>, but a, a is no free basis of it."""
        with pytest.raises(NotFoldedError, match="^basis extraction needs a folded graph$"):
            pi1_basis(bouquet(AB, [codes("a"), codes("a")]))

    @pytest.mark.parametrize(
        "text, generators, basis",
        [
            # three branch vertices; the other vertices have degree two
            (
                "a b c a^-1\na c b^-1 c a^-1\nb a c a\n",
                ("a", "b", "c"),
                [(1, 2, 3, -1), (1, 2, 2, -3, -1), (2, 1, 3, 1)],
            ),
            # letter order that is not name order
            ("x2 x10^-1 x2\n", ("x2", "x10"), [(-1, 2, -1)]),
            (
                "x2 x10^-1 x2\nx2 x10^-1 x3 x1\n",
                ("x2", "x10", "x3", "x1"),
                [(-1, 2, -1), (-1, 3, 4)],
            ),
        ],
        ids=["B3", "X2", "X3"],
    )
    def test_basis_is_pinned(self, text, generators, basis):
        """The spanning tree is the label-ordered search's; these bases are literal."""
        g = gamma(load_subgroup(text))
        assert g.alphabet.generators == generators
        assert pi1_basis(g) == basis

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
    """The core of a graph with a path hung at its base: the conjugate subgroup's core graph."""

    def test_shift_by_a(self):
        g = core(hang_path(gamma(H_B), codes("a")))
        assert iso_pointed(g, gamma(Subgroup.of(AB, "a b a^-1")))

    def test_conjugate_by_member_is_noop(self):
        g = core(hang_path(gamma(H_B), codes("b")))
        assert iso_pointed(g, gamma(H_B))

    def test_identity_conjugator(self):
        g = gamma(K_DELTA)
        assert core(hang_path(g, ())) is g

    @pytest.mark.parametrize("code", [0, 3, -3])
    def test_conjugator_outside_the_alphabet_rejected(self, code):
        with pytest.raises(UnknownGeneratorError, match=f"^label {code} outside the alphabet$"):
            K_DELTA.conjugate((1, code))

    def test_matches_conjugated_generators(self):
        rng = random.Random(17)
        for _ in range(50):
            h = random_subgroup(rng, AB, max_gens=3, max_len=6)
            w = random_reduced_word(rng, AB, 5)
            assert iso_pointed(core(hang_path(gamma(h), w)), gamma(h.conjugate(w)))


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

    @given(w=_A_ENDED_CODES)
    def test_hanging_path_known_by_construction(self, w):
        """A path spelling w hung on the b-loop is the circuit's tail.

        w ends in a^1 or a^-1, so the path does not fold into the loop and
        the core of <w b w^-1> is the loop plus a hanging path spelling w.
        """
        g = core(hang_path(gamma(H_B), w))
        u = covering_circuit(g)
        assert u[: len(w)] == w
        assert u[-len(w) :] == invert_codes(w)
        h = subgroup(AB, (reduce_codes(w + codes("b") + invert_codes(w)),))
        _, f = onto_base(h, Subgroup.of(AB, "a", "b"))
        assert classify(f).surjective

    def test_first_letter_constraint(self):
        h = Subgroup.of(AB, "a", "b")
        u = covering_circuit(gamma(h), first_code_not=codes("a")[0])
        assert u[0] != codes("a")[0]
        _assert_valid_circuit(h, u)


class TestOntoBase:
    @given(pair=nested_pairs())
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

    @given(pair=nested_pairs())
    def test_source_is_the_conjugate_core(self, pair):
        """The morphism's source is gamma(u h u^-1), built from gamma(h) and u.

        It is the core of gamma(h) with a path spelling u hung at its
        base, and the core of the conjugated generators.
        """
        h, k = pair
        assume(not h.is_trivial())
        u, f = onto_base(h, k)
        assert f.source.is_core() and f.target is gamma(k)
        hung = core(hang_path(gamma(h), u))
        assert (f.source.n_vertices, f.source.n_edges) == (hung.n_vertices, hung.n_edges)
        assert iso_pointed(f.source, hung)
        assert canonical_form(f.source) == canonical_form(gamma(h.conjugate(u)))

    @settings(max_examples=300)  # so that dozens of draws hang a path
    @given(
        pair=nested_pairs(),
        factors=st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=3),
        names=st.sampled_from([("b", "a"), ("b", "a", "c")]),
    )
    def test_hanging_path_across_alphabets(self, pair, factors, names):
        """H conjugated by a product w of K's generators, over another alphabet order.

        gamma(H) hangs a path from its base in about one draw in five.
        The conjugator lies in K, and the conjugated generators cross
        every edge of gamma(K).
        """
        h, k = pair
        assume(not h.is_trivial())
        w: tuple[int, ...] = ()
        for i, inverse in factors:
            g = k.codes[i % len(k.codes)]
            w = reduce_codes(w + (invert_codes(g) if inverse else g))
        gens = [reduce_codes(w + g + invert_codes(w)) for g in h.codes]
        u, f = onto_base(Subgroup(Alphabet.of(*names), map(AB.word, gens)), k)
        assert naive_member(k, AB.word(u))
        assert classify(f).surjective
        assert covers_every_edge(gamma(k), [reduce_codes(u + g + invert_codes(u)) for g in gens])
        assert iso_pointed(f.source, core(hang_path(gamma(subgroup(AB, gens)), u)))

    @pytest.mark.parametrize(
        "inner, outer, folds",
        [("a b a^-1\n", "b\na\n", 2), ("b\n", "b\na b a^-1\n", 1)],
        ids=["hangs", "hangs-none"],
    )
    def test_folds_only_conjugate_cores(self, monkeypatch, inner, outer, folds):
        """With both cores built, only the conjugate cores fold, over files' own alphabets.

        A first subgroup that hangs a path folds gamma(l^-1 K l) and the
        source; one that hangs none folds the source alone.  Neither
        subgroup is recoded and folded again.
        """
        h, k = load_subgroup(inner), load_subgroup(outer)
        assert h.alphabet is not k.alphabet
        gamma(h), gamma(k)
        calls = count_calls(monkeypatch, subgroups, "_fold_paths")
        u, f = onto_base(h, k)
        assert len(calls) == folds and classify(f).surjective

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
            basis = pi1_basis(gamma(k))
            gens = []
            for _ in range(rng.randint(1, 3)):
                w = ()
                for _ in range(rng.randint(1, 3)):
                    b = rng.choice(basis)
                    w = reduce_codes(w + (b if rng.random() < 0.5 else invert_codes(b)))
                gens.append(w)
            h = subgroup(AB, gens)
            if h.is_trivial():
                continue
            u, f = onto_base(h, k)
            assert contains(k, AB.word(u))
            assert classify(f).surjective
            assert iso_pointed(f.target, gamma(k))


def _pinned_lines(rng: random.Random, alphabet: Alphabet):
    """One line per covering circuit of gamma(K) and per ``onto_base(H, K)``.

    K has up to three random generators; H is generated by products of
    them, conjugated by another such product at even odds so that
    gamma(H) often hangs a path from its base.  Each circuit is read
    for every ``first_code_not`` from -r to r, and an error is its type
    and message.
    """
    r = len(alphabet)

    def product(gens):
        w: tuple[int, ...] = ()
        for _ in range(rng.randint(1, 3)):
            g = rng.choice(gens)
            w = reduce_codes(w + (invert_codes(g) if rng.random() < 0.5 else g))
        return w

    def outcome(call):
        try:
            return call()
        except StallingsError as e:
            return f"{type(e).__name__}: {e}"

    k = random_subgroup(rng, alphabet, max_gens=3, max_len=6)
    for c in range(-r, r + 1):
        yield repr(outcome(lambda: covering_circuit(gamma(k), c)))
    if k.is_trivial():
        return
    gens = [product(k.codes) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        w = product(k.codes)
        gens = [reduce_codes(w + g + invert_codes(w)) for g in gens]
    h = subgroup(alphabet, gens)
    result = outcome(lambda: onto_base(h, k))
    if not isinstance(result, str):
        result = (result.conjugator, classify(result.morphism))
    yield repr(result)


class TestPinnedCircuits:
    def test_circuits_and_conjugators_are_pinned(self):
        """A digest of circuits and conjugators over seeded nested pairs at ranks 1-4.

        The other tests check that circuits are valid, and any circuit
        would pass them; this one pins the search order itself, so a
        change of order shows as a new digest.
        """
        rng = random.Random(43)
        digest = hashlib.sha256()
        for alphabet in ALPHABETS:
            for _ in range(300):
                for line in _pinned_lines(rng, alphabet):
                    digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == "34f07ef252966fc24692bc1949ad6d07e8e28c2d48b7857f4cb516f24501a1c0"


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
