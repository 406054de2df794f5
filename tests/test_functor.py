import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from stallings.errors import (
    AlphabetMismatchError,
    DegenerateHomError,
    InternalError,
    NotFoldedError,
    TrivialSubgroupError,
)
from stallings import functor
from stallings.functor import (
    image_core,
    subdivide,
    unbased_core_morphism,
    unbased_image_morphism,
)
from stallings.graph import (
    GraphMorphism,
    canonical_form,
    classify,
    core,
    iso_pointed,
    two_core,
    unique_pointed_morphism,
    unpointed_isomorphic,
)
from stallings.subgroups import Subgroup, gamma, inclusion_morphism, pi1_basis
from stallings.whitehead import (
    full_whitehead,
    is_restriction_morphism,
    preserves_folding,
    whitehead_graph,
)
from stallings.words import (
    Alphabet,
    GroupHom,
    Letter,
    Word,
    compose_homs,
    conjugation_hom,
    identity_hom,
    is_nondegenerate,
    parse_word,
)

from helpers import (
    ALPHABETS,
    count_folds,
    graph,
    image_paths,
    naive_canonical_form,
    naive_fold,
    naive_is_folded,
    naive_kept,
    naive_trim,
    nested_pairs,
    pointed_graphs,
    random_hom,
    random_subgroup,
    same_at_some_root,
    spelled,
)

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
        one = graph(AB, 2, [(0, 1, Letter("a", 1))], base=0)
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
        g1 = graph(AB, 2, [(0, 0, Letter("b", 1)), (0, 1, Letter("a", 1))], base=0)
        g2 = graph(
            AB, 2, [(0, 0, Letter("b", -1)), (1, 0, Letter("a", -1))], base=0
        )
        assert iso_pointed(core(subdivide(phi, g1)), core(subdivide(phi, g2)))

    @settings(max_examples=200)
    @given(pointed_graphs(), st.data())
    def test_spells_the_image_paths(self, g, data):
        """Folded or not, the subdivision is the image paths spelled plainly.

        On the same paths, preserves_folding holds exactly when the graph
        and its spelled subdivision are both folded.
        """
        target = data.draw(st.sampled_from(ALPHABETS[1:3]))
        phi = data.draw(_homs(g.alphabet, target))
        for h in (g, core(g)):
            sub = spelled(target, h.n_vertices, image_paths(phi, h), h.base)
            assert subdivide(phi, h) == sub
            assert preserves_folding(phi, h) == (naive_is_folded(h) and naive_is_folded(sub))


@st.composite
def _homs(draw, source: Alphabet, target: Alphabet) -> GroupHom:
    """Nondegenerate homomorphisms; half send one generator to a power of another."""
    words = st.lists(st.sampled_from(target.letters()), min_size=1, max_size=4)
    images = {x: draw(words.map(Word).filter(bool)) for x in source.generators}
    if draw(st.booleans()):
        x, y = draw(st.permutations(source.generators))[:2]
        images[y] = Word(images[x].letters * draw(st.integers(1, 3)))
    return GroupHom(source, target, images)


def _naive_image_core(phi: GroupHom, g):
    """The naive fold and trim of g's subdivision, spelled edge by edge."""
    return naive_trim(naive_fold(spelled(phi.target, g.n_vertices, image_paths(phi, g), g.base)))


class TestImageCore:
    @settings(max_examples=200)
    @given(pointed_graphs(), st.data())
    def test_matches_naive_fold_of_subdivision(self, g, data):
        """Pointed and unpointed, folded or not: the same texts at some root."""
        phi = data.draw(_homs(g.alphabet, ALPHABETS[1]))
        for h in (g, core(g), g.unbased(), core(g).unbased()):
            image, oracle = image_core(phi, h), _naive_image_core(phi, h)
            assert same_at_some_root(image, oracle)
            if h.base is not None:
                assert image.is_core()
                assert canonical_form(image) == naive_canonical_form(oracle)

    def test_checks_keep_their_errors(self):
        bad = GroupHom(AB, AB, {"a": parse_word(""), "b": parse_word("b")})
        with pytest.raises(DegenerateHomError, match="^subdivision needs nonempty images$"):
            image_core(bad, gamma(H_B))
        mismatch = "graph over ('a', 'b'), homomorphism from ('alpha', 'beta')"
        with pytest.raises(AlphabetMismatchError, match=f"^{re.escape(mismatch)}$"):
            image_core(SIGMA, gamma(H_B))

    @pytest.mark.parametrize(
        "images, folds",
        [(("b", "a b a^-1"), 0), (("a", "a a"), 0), (("a a", "a a a"), 1)],
    )
    def test_fold_kernel_runs_only_when_reads_meet(self, monkeypatch, images, folds):
        rose = gamma(Subgroup.of(GREEK, "alpha", "beta"))
        phi = GroupHom(GREEK, AB, dict(zip(GREEK.generators, map(parse_word, images))))
        calls = count_folds(monkeypatch)
        image_core(phi, rose)
        assert len(calls) == folds

    def test_sigma_image_of_rose(self):
        rose = gamma(Subgroup.of(GREEK, "alpha", "beta"))
        assert iso_pointed(image_core(SIGMA, rose), gamma(K_DELTA))

    def test_identity(self):
        g = gamma(K_DELTA)
        assert iso_pointed(image_core(identity_hom(AB), g), g)

    def test_conjugation(self):
        g = image_core(conjugation_hom((1,), AB), gamma(H_B))
        assert iso_pointed(g, gamma(Subgroup.of(AB, "a b a^-1")))

    def test_matches_image_subgroup(self):
        rng = random.Random(7)
        x3 = Alphabet.of("a", "b", "c")
        for _ in range(100):
            h = random_subgroup(rng, AB, max_gens=3, max_len=5)
            phi = random_hom(rng, AB, x3, 4)
            image = Subgroup(x3, [x3.word(phi.image(w)) for w in h.codes])
            assert iso_pointed(image_core(phi, gamma(h)), gamma(image))

    def test_image_cores_compose(self):
        """Subdividing along psi then phi gives the core of phi(psi(H))."""
        rng = random.Random(13)
        x3 = Alphabet.of("a", "b", "c")
        checked = 0
        for _ in range(150):
            h = random_subgroup(rng, AB, max_gens=3, max_len=5)
            psi = random_hom(rng, AB, x3, 3)
            phi = random_hom(rng, x3, AB, 3)
            both = compose_homs(phi, psi)
            if not is_nondegenerate(both):
                continue
            g = gamma(h)
            assert iso_pointed(image_core(both, g), image_core(phi, image_core(psi, g)))
            checked += 1
        assert checked >= 100


class TestUnbasedCore:
    def test_spur_trimmed(self):
        g = gamma(Subgroup.of(AB, "a b a^-1"))
        t = two_core(g)
        assert t.n_vertices == 1 and t.n_edges == 1 and t.base is None

    def test_no_spur_untouched(self):
        t = two_core(gamma(H_B))
        assert t.n_vertices == 1 and t.n_edges == 1

    def test_requires_folded(self):
        g = graph(AB, 2, [(0, 1, Letter("b", 1)), (0, 1, Letter("b", 1))], base=0)
        with pytest.raises(NotFoldedError):
            two_core(g)

    def test_morphism_restriction(self):
        h = Subgroup.of(AB, "a b a^-1")
        k = Subgroup.of(AB, "a b a^-1", "a")
        m = unique_pointed_morphism(gamma(h), gamma(k))
        out = unbased_core_morphism(m)
        assert out.source.n_edges == 1
        assert classify(out).injective

    def test_trimmed_target_part_is_internal_error(self, monkeypatch):
        m = unique_pointed_morphism(gamma(H_B), gamma(K_DELTA))
        two_core = functor._two_core

        def drop_image_of_base(g):
            """The target's kept vertices without the one the source base lands on."""
            h, kept = two_core(g)
            if g is m.target:
                kept = [v for v in kept if v != m.vmap[0]]
            return h, kept

        monkeypatch.setattr(functor, "_two_core", drop_image_of_base)
        with pytest.raises(InternalError, match="^internal error: a kept source part"):
            unbased_core_morphism(m)

    def test_failed_extension_is_internal_error(self, monkeypatch):
        """The seed's image is kept, but the extension from it fails."""
        m = unique_pointed_morphism(gamma(H_B), gamma(K_DELTA))
        two_core = functor._two_core
        # the delta graph without the b-loop at vertex 0, where H_B's loop lands
        no_loop = graph(AB, 2, [(0, 1, Letter("a", 1)), (1, 1, Letter("b", 1))])

        def drop_loop_at_base(g):
            h, kept = two_core(g)
            return (no_loop, kept) if g is m.target else (h, kept)

        monkeypatch.setattr(functor, "_two_core", drop_loop_at_base)
        with pytest.raises(InternalError, match="^internal error: a kept source part"):
            unbased_core_morphism(m)

    @given(pair=nested_pairs())
    def test_restricts_f_on_nested_pairs(self, pair):
        """A genuine morphism that agrees with f on the vertices trimming keeps.

        The kept vertices come from the naive peel; the cores number them
        in ascending order.
        """
        f = inclusion_morphism(*pair)
        assume(f.source.n_edges > 0)
        out = unbased_core_morphism(f)
        GraphMorphism(out.source, out.target, out.vmap, out.emap)  # raises unless valid
        s_kept, t_kept = naive_kept(f.source), naive_kept(f.target)
        assert len(out.vmap) == len(s_kept)
        assert [t_kept[w] for w in out.vmap] == [f.vmap[v] for v in s_kept]

    def test_functorial(self):
        rng = random.Random(11)
        done = 0
        for _ in range(200):
            k = random_subgroup(rng, AB, max_gens=3, max_len=5)
            gk = gamma(k)
            if gk.n_edges == 0:
                continue
            basis = pi1_basis(gk)
            mid = Subgroup(AB, map(AB.word, basis[: max(1, len(basis) // 2)]))
            inner = Subgroup(AB, [AB.word(mid.codes[0])])
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
        out = unbased_image_morphism(conjugation_hom((1,), AB), self._root())
        assert classify(out).injective

    def test_power_map_transport(self):
        phi = GroupHom(AB, AB, {"a": parse_word("a"), "b": parse_word("b b")})
        out = unbased_image_morphism(phi, self._root())
        assert classify(out).injective
        assert unpointed_isomorphic(
            out.target, two_core(gamma(Subgroup.of(AB, "b b", "a b b a^-1")))
        )

    def test_degenerate_rejected(self):
        bad = GroupHom(AB, AB, {"a": parse_word("a"), "b": parse_word("")})
        with pytest.raises(DegenerateHomError):
            unbased_image_morphism(bad, self._root())

    def test_trivial_image_rejected(self):
        g = gamma(Subgroup(AB, (parse_word(""),)))
        m = unique_pointed_morphism(g, gamma(H_B))
        with pytest.raises(
            TrivialSubgroupError, match="^a tree source has no unbased core morphism$"
        ):
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
            sub = spelled(x3, g.n_vertices, image_paths(phi, g), g.base)
            assert naive_is_folded(sub)
            c = core(sub)
            assert (c.n_vertices, c.n_edges) == (sub.n_vertices, sub.n_edges)
        assert hits > 30
