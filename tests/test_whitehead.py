import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from stallings.errors import AlphabetMismatchError, DegenerateHomError
from stallings.graph import LabeledGraph, bouquet, core, unique_pointed_morphism
from stallings.subgroups import Subgroup, gamma
from stallings.whitehead import (
    RestrictionSet,
    code_edge,
    full_whitehead,
    is_restriction_morphism,
    parse_edges,
    preserves_folding,
    whitehead_graph,
    word_link,
)
from stallings.words import (
    Alphabet,
    GroupHom,
    cyclic_reduce,
    parse_word,
    reduce_codes,
)

from helpers import (
    ALPHABETS,
    graph,
    pointed_graphs,
    random_hom,
    random_reduced_word,
    random_subgroup,
    random_wedge,
    two_path_edges,
)

AB = Alphabet.of("a", "b")
GREEK = Alphabet.of("alpha", "beta")
WIDE = Alphabet(tuple(f"g{i}" for i in range(60)))
THOUSAND = Alphabet(tuple(f"x{i}" for i in range(1, 1001)))
DELTA = gamma(Subgroup.of(AB, "b", "a b a^-1"))
B_LOOP = gamma(Subgroup.of(AB, "b"))

SIGMA = GroupHom(GREEK, AB, {"alpha": parse_word("b"), "beta": parse_word("a b a^-1")})

alphabets = st.sampled_from(ALPHABETS)
words_over = alphabets.flatmap(
    lambda ab: st.tuples(
        st.just(ab),
        st.lists(st.sampled_from(ab.encode(ab.letters())), max_size=12).map(reduce_codes),
    )
)
core_graphs = alphabets.flatmap(pointed_graphs).map(core)


def path_graph(w, ab: Alphabet) -> LabeledGraph:
    """The path graph of a reduced word: vertices 0..n spelling the word."""
    return graph(ab, len(w) + 1, [(i, i + 1, l) for i, l in enumerate(w)])


class TestWhiteheadGraph:
    def test_loop(self):
        assert whitehead_graph(B_LOOP).edges == parse_edges("b.b^-1")

    def test_two_vertex_core(self):
        assert whitehead_graph(DELTA).edges == parse_edges(
            "b.b^-1, a.b, a.b^-1, a^-1.b, a^-1.b^-1"
        )

    def test_path_graph_via_two_path_oracle(self):
        g = path_graph(parse_word("a b a^-1"), AB)
        assert whitehead_graph(g).edges == two_path_edges(g)

    def test_matches_oracle_on_random_cores(self):
        rng = random.Random(3)
        for _ in range(60):
            g = gamma(random_subgroup(rng, AB))
            assert whitehead_graph(g).edges == two_path_edges(g)

    def test_matches_oracle_at_rank_sixty(self):
        rng = random.Random(4)
        for _ in range(20):
            g = gamma(random_subgroup(rng, WIDE, max_gens=8, max_len=12))
            assert whitehead_graph(g).edges == two_path_edges(g)

    def test_matches_oracle_at_rank_thousand(self):
        """Two-code stars along the words, a wider one where they meet."""
        rng = random.Random(5)
        sizes = set()
        for _ in range(5):
            words = [random_reduced_word(rng, THOUSAND, 12) for _ in range(8)]
            g = gamma(Subgroup(THOUSAND, [THOUSAND.word(w) for w in words]))
            assert whitehead_graph(g).edges == two_path_edges(g)
            sizes.update(min(len(g.out_edges(v)), 3) for v in range(g.n_vertices))
        assert {2, 3} <= sizes

    def test_matches_oracle_on_unfolded_graphs(self):
        """Repeated labels at a vertex, and stars of one, two and more codes."""
        rng = random.Random(6)
        graphs = [
            # two a-edges out of the base: every star has one code
            LabeledGraph(AB, 3, (0, 1, 0, 2), (1, -1, 1, -1), 0),
            # the base sees a twice, b and b^-1
            bouquet(AB, [(1, 2), (1, -2)]),  # a b, a b^-1
            *(random_wedge(rng, ab, max_words=6) for ab in (AB, WIDE) for _ in range(15)),
        ]
        sizes = set()
        for g in graphs:
            assert whitehead_graph(g).edges == two_path_edges(g)
            for v in range(g.n_vertices):
                sizes.add(min(len({g.elabel[e] for e in g.out_edges(v)}), 3))
        assert not all(g.is_folded() for g in graphs)
        assert sizes == {1, 2, 3}

    @given(
        st.sampled_from([AB, Alphabet.of("a", "b", "c"), WIDE]).flatmap(pointed_graphs),
        st.booleans(),
    )
    def test_codes_are_ordered_two_path_pairs(self, g, fold):
        if fold:
            g = core(g)
        codes = whitehead_graph(g).codes
        assert codes == {code_edge(*g.alphabet.encode(e)) for e in two_path_edges(g)}
        assert all(c < d for c, d in codes)

    @given(core_graphs)
    def test_text_parses_back(self, g):
        white = whitehead_graph(g)
        assert RestrictionSet.parse(g.alphabet, white.text) == white

    @pytest.mark.parametrize(
        "label, message",
        [(3, "code -3 outside ('a', 'b')"), (0, "code 0 outside ('a', 'b')")],
    )
    def test_labels_outside_alphabet_rejected(self, label, message):
        # the path a, label: the middle vertex's star has two codes
        g = LabeledGraph(AB, 3, (0, 1, 1, 2), (1, -1, label, -label), 0, _validate=False)
        with pytest.raises(AlphabetMismatchError) as exc:
            whitehead_graph(g)
        assert str(exc.value) == message

    def test_degenerate_pairs_rejected(self):
        with pytest.raises(AlphabetMismatchError, match="^degenerate Whitehead edge a.a$"):
            parse_edges("a.a")

    @pytest.mark.parametrize(
        "codes, message",
        [
            ({(-3, 1)}, "code -3 outside ('a', 'b')"),
            ({(0, 2)}, "code 0 outside ('a', 'b')"),
            ({(2, 2)}, "degenerate Whitehead edge b.b"),
            ({(2, 1)}, "unordered Whitehead edge (2, 1): code_edge gives (1, 2)"),
            ({(1,)}, "Whitehead edge (1,) is not a pair of codes"),
            ({(1, -2), (3, 4)}, "code 3 outside ('a', 'b')"),
            # the edge form before code pairs, a string and a pair of names
            ({frozenset({1, 2})}, "Whitehead edge frozenset({1, 2}) is not a pair of codes"),
            ({"ab"}, "Whitehead edge 'ab' is not a pair of codes"),
            ({("a", "b")}, "Whitehead edge ('a', 'b') is not a pair of codes"),
            ({(1, 2), "ab", frozenset({1, 2})}, "Whitehead edge 'ab' is not a pair of codes"),
        ],
    )
    def test_bad_codes_rejected(self, codes, message):
        with pytest.raises(AlphabetMismatchError) as exc:
            RestrictionSet(AB, frozenset(codes))
        assert str(exc.value) == message

    def test_caller_set_is_frozen(self):
        """The edges are kept as a frozenset.

        So the restriction set hashes, and a later change to the caller's
        set slips nothing past the check.
        """
        codes = {(1, 2)}
        s = RestrictionSet(AB, codes)
        assert s.codes == frozenset({(1, 2)}) and isinstance(s.codes, frozenset)
        assert hash(s) == hash(RestrictionSet(AB, frozenset({(1, 2)})))
        codes.add((-2, 0))
        assert s.codes == frozenset({(1, 2)})

    def test_list_edge_keeps_its_message(self):
        with pytest.raises(AlphabetMismatchError) as exc:
            RestrictionSet(AB, [[1, 2]])
        assert str(exc.value) == "Whitehead edge [1, 2] is not a pair of codes"


class TestWordLink:
    @given(words_over)
    def test_turns_match_two_path_oracle(self, ab_w):
        ab, codes = ab_w
        link = RestrictionSet(ab, word_link(codes))
        assert link.edges == two_path_edges(path_graph(ab.word(codes), ab))


class TestFullWhitehead:
    def test_rank_one(self):
        assert full_whitehead(Alphabet.of("a")).edges == parse_edges("a.a^-1")

    def test_rank_two(self):
        assert full_whitehead(AB).edges == parse_edges(
            "a.a^-1, a.b, a.b^-1, a^-1.b, a^-1.b^-1, b.b^-1"
        )

    def test_counting(self):
        # all unordered pairs of distinct signed letters
        for n in (1, 2, 3, 4, 5):
            ab = Alphabet(tuple(f"g{i}" for i in range(n)))
            white = full_whitehead(ab)
            assert len(white.edges) == comb(2 * n, 2)
            assert len(white.codes) == comb(2 * n, 2)
            assert all(c < d for c, d in white.codes)


class TestAdmissibility:
    def test_sigma_into_full(self):
        src = RestrictionSet(GREEK, frozenset())
        dst = full_whitehead(AB)
        assert is_restriction_morphism(src, dst, SIGMA)

    def test_split_substitution(self):
        # the fresh-letter substitution of the recorded case analysis
        yu = Alphabet.of("y", "u")
        yut = Alphabet.of("y", "u", "t")
        phi = GroupHom(
            yu, yut, {"u": parse_word("u t"), "y": parse_word("t^-1 y")}
        )
        # parent restrictions (the split edge u.y^-1 is the one being refined)
        src = RestrictionSet.parse(yu, "u.y, y.u^-1, u^-1.y^-1, u.u^-1")
        dst = RestrictionSet.parse(
            yut, "t.y, y.u^-1, t.u^-1, u.t^-1, u.y^-1, t^-1.y^-1"
        )
        assert is_restriction_morphism(src, dst, phi)

    def test_degenerate_reported(self):
        phi = GroupHom(AB, AB, {"a": parse_word(""), "b": parse_word("b")})
        report = is_restriction_morphism(
            RestrictionSet(AB, frozenset()), full_whitehead(AB), phi
        )
        assert not report
        assert any(v.startswith("(i)") for v in report.violations)

    def test_tau_collision_reported(self):
        phi = GroupHom(AB, AB, {"a": parse_word("b"), "b": parse_word("a b")})
        src = RestrictionSet.parse(AB, "a.b")
        report = is_restriction_morphism(src, full_whitehead(AB), phi)
        assert not report.ok and any("(iii)" in v for v in report.violations)
        # the two letters are named in the edge's text order
        assert report.violations == ("(iii) images of a and b share last letter b",)

    def test_forbidden_turn_reported(self):
        dst = RestrictionSet.parse(AB, "b.b^-1")
        phi = GroupHom(AB, AB, {"a": parse_word("a b"), "b": parse_word("b")})
        report = is_restriction_morphism(RestrictionSet(AB, frozenset()), dst, phi)
        assert not report.ok and any("(ii)" in v for v in report.violations)


class TestFoldingPreservation:
    def test_identity_preserves(self):
        from stallings.words import identity_hom

        assert preserves_folding(identity_hom(AB), DELTA)

    def test_label_collision_breaks(self):
        rose = gamma(Subgroup.of(AB, "a", "b"))
        phi = GroupHom(AB, AB, {"a": parse_word("b"), "b": parse_word("b")})
        assert not preserves_folding(phi, rose)

    def test_sigma_on_rose_breaks(self):
        rose = gamma(Subgroup.of(GREEK, "alpha", "beta"))
        assert not preserves_folding(SIGMA, rose)

    def test_degenerate_rejected(self):
        """An empty image has no first letter to compare."""
        bad = GroupHom(AB, AB, {"a": parse_word("a"), "b": parse_word("")})
        with pytest.raises(DegenerateHomError, match="^subdivision needs nonempty images$"):
            preserves_folding(bad, DELTA)


class TestFoldingGuarantee:
    def test_guarantee_holds_for_random_admissible_maps(self):
        rng = random.Random(9)
        target = Alphabet.of("a", "b", "c")
        dst = full_whitehead(target)
        hits = 0
        for _ in range(300):
            g = gamma(random_subgroup(rng, AB, max_gens=3, max_len=5))
            if g.n_edges == 0:
                continue
            restrictions = whitehead_graph(g)
            phi = random_hom(rng, AB, target, 4)
            if not is_restriction_morphism(restrictions, dst, phi):
                continue
            hits += 1
            assert preserves_folding(phi, g)
        assert hits > 30

    def test_guarantee_passes_to_subgraphs(self):
        # restrictions covering the big graph cover anything mapping into it
        rng = random.Random(11)
        for _ in range(100):
            k = random_subgroup(rng, AB, max_gens=3, max_len=5)
            h = Subgroup(AB, [AB.word(k.codes[0])])
            gk, gh = gamma(k), gamma(h)
            if unique_pointed_morphism(gh, gk) is None:
                continue
            n = whitehead_graph(gk)
            assert whitehead_graph(gh).codes <= n.codes


class TestComposition:
    def test_admissible_maps_compose(self):
        rng = random.Random(21)
        x3 = Alphabet.of("a", "b", "c")
        x4 = Alphabet.of("a", "b", "c", "d")
        done = 0
        for _ in range(500):
            g1 = gamma(random_subgroup(rng, AB, max_gens=2, max_len=4))
            n1 = whitehead_graph(g1)
            phi = random_hom(rng, AB, x3, 3)
            if not is_restriction_morphism(n1, full_whitehead(x3), phi):
                continue
            psi = random_hom(rng, x3, x4, 3)
            if not is_restriction_morphism(
                full_whitehead(x3), full_whitehead(x4), psi
            ):
                continue
            from stallings.words import compose_homs

            both = compose_homs(psi, phi)
            assert is_restriction_morphism(n1, full_whitehead(x4), both)
            done += 1
        assert done > 5


class TestCyclicWordLink:
    def test_matches_adjacent_pair_oracle(self):
        rng = random.Random(15)
        checked = 0
        for _ in range(100):
            _, cyc = cyclic_reduce(random_reduced_word(rng, AB, 8))
            if not cyc:
                continue
            letters = AB.word(cyc)
            g = gamma(Subgroup(AB, (letters,)))
            pairs = set()
            for i, cur in enumerate(letters):
                nxt = letters[(i + 1) % len(letters)]
                pairs.add(frozenset((cur, nxt.inverse())))
            assert whitehead_graph(g).edges == frozenset(pairs)
            checked += 1
        assert checked > 50

    def test_text_roundtrip(self):
        text = "a.b^-1, a^-1.b, b.b^-1"
        assert RestrictionSet.parse(AB, text).text == text
