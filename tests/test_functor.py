import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from stallings.errors import (
    AlphabetMismatchError,
    DegenerateHomError,
    InternalError,
    MissingBaseError,
    NotFoldedError,
    TrivialSubgroupError,
    UnknownGeneratorError,
)
from stallings import functor, graph as graph_module
from stallings.functor import (
    image_core,
    subdivide,
    unbased_core_morphism,
    unbased_image_morphism,
)
from stallings.graph import (
    GraphMorphism,
    LabeledGraph,
    canonical_form,
    classify,
    core,
    iso_pointed,
    two_core,
    unique_pointed_morphism,
    unpointed_isomorphic,
)
from stallings.subgroups import Subgroup, gamma, inclusion_morphism, load_subgroup, pi1_basis
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
    invert_codes,
    is_nondegenerate,
    parse_word,
    reduce_codes,
)

from helpers import (
    ALPHABETS,
    count_calls,
    count_folds,
    count_identifications,
    counting_names,
    graph,
    image_paths,
    naive_canonical_form,
    naive_fold,
    naive_is_folded,
    naive_isomorphism,
    naive_kept,
    naive_trim,
    nested_pairs,
    pointed_graphs,
    random_hom,
    random_reduced_word,
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


def _naive_pointed_map(g, d) -> dict[int, int]:
    """Where the pointed morphism g -> d (d folded) sends each vertex of g.

    A breadth-first search from g's base scans every half-edge; a
    vertex it reaches goes where the same label leads from its parent's
    image, found by scanning every half-edge of d.
    """
    image = {g.base: d.base}
    queue = [g.base]
    for v in queue:  # queue grows while it is read
        for e in range(g.n_half_edges):
            if g.einit[e] != v or g.einit[e ^ 1] in image:
                continue
            (step,) = [
                x for x in range(d.n_half_edges)
                if d.einit[x] == image[v] and d.elabel[x] == g.elabel[e]
            ]
            image[g.einit[e ^ 1]] = d.einit[step ^ 1]
            queue.append(g.einit[e ^ 1])
    return image


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
        "images, merges",
        [(("b", "a b a^-1"), 0), (("a", "a a"), 0), (("a a", "a a a"), 1)],
    )
    def test_fold_kernel_runs_only_when_reads_meet(self, monkeypatch, images, merges):
        """The fold kernel never runs: where two reads meet, the lay identifies.

        ``merges`` counts the reads that meet at two different vertices.
        """
        rose = gamma(Subgroup.of(GREEK, "alpha", "beta"))
        phi = GroupHom(GREEK, AB, dict(zip(GREEK.generators, map(parse_word, images))))
        folds, identified = count_folds(monkeypatch), count_identifications(monkeypatch)
        image_core(phi, rose)
        assert (len(folds), len(identified)) == (0, merges)

    def test_numbering_is_pinned(self):
        """The exact arrays of an image core whose source has an inverse-labelled edge.

        The reads of the source's second generator meet, and of the two
        b-edges that the merge makes one, the edge laid first stays.
        """
        g = gamma(Subgroup.of(AB, "a b^-1 a^-1 b", "b^-1 a b"))
        assert (g.n_vertices, g.einit, g.elabel) == (2, (0, 0, 0, 1, 1, 1), (1, -1, -2, 2, -1, 1))
        phi = GroupHom(AB, AB, {"a": parse_word("a b"), "b": parse_word("b a^-1")})
        c = image_core(phi, g)
        assert (c.n_vertices, c.einit, c.elabel, c.base) == (
            4, (0, 2, 2, 0, 2, 1, 1, 3, 3, 1), (1, -1, 2, -2, -2, 2, -2, 2, -1, 1), 0
        )

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


# code 3 labels nothing over {a, b}: each entry point checks the codes it takes in
OUT_OF_RANGE = GroupHom._raw(AB, AB, ((3,), (2,)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamma(Subgroup._raw(AB, ((2,), (3,)))),
        lambda: image_core(OUT_OF_RANGE, gamma(K_DELTA)),
        lambda: unbased_image_morphism(
            OUT_OF_RANGE, unique_pointed_morphism(gamma(H_B), gamma(K_DELTA))
        ),
        lambda: subdivide(OUT_OF_RANGE, gamma(K_DELTA)),
        lambda: preserves_folding(OUT_OF_RANGE, gamma(K_DELTA)),
    ],
    ids=["gamma", "image_core", "unbased_image_morphism", "subdivide", "preserves_folding"],
)
def test_codes_are_checked_where_they_enter(call):
    with pytest.raises(UnknownGeneratorError, match="^label 3 outside the alphabet$"):
        call()


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

    @staticmethod
    def _to_base(g, d) -> GraphMorphism:
        """An unchecked map g -> d sending every vertex to d's base."""
        return GraphMorphism(g, d, (d.base,) * g.n_vertices, (0, 1) * g.n_edges, _validate=False)

    def test_trimmed_target_part_is_internal_error(self):
        """The base's image is a vertex the target's peel drops.

        The target's hanging word from there is then no prefix of the
        source's, which is empty.
        """
        # the base of <a b a^-1> hangs off its b-loop
        g, d = gamma(H_B), gamma(Subgroup.of(AB, "a b a^-1"))
        with pytest.raises(InternalError, match="^internal error: image cores admit no morphism$"):
            unbased_core_morphism(self._to_base(g, d))

    def test_failed_extension_is_internal_error(self):
        """The junction's image is kept, but the extension from it fails."""
        # the a-edge at the delta graph's base is no loop
        g, d = gamma(Subgroup.of(AB, "a")), gamma(K_DELTA)
        with pytest.raises(InternalError, match="^internal error: a kept source part"):
            unbased_core_morphism(self._to_base(g, d))

    def test_restricts_f_on_nested_pairs(self):
        """A genuine morphism that agrees with f on the vertices trimming keeps.

        The kept vertices come from the naive peel; the cores number them
        in ascending order.  Both subgroups are conjugated by one drawn
        word, so that the source often hangs a path from its base, and
        both branches of the junction are reached.  f is the inclusion
        as built, with its source's base or both bases dropped, or
        between the subgroups reloaded from their text, each over the
        alphabet it infers.
        """
        hangs, kinds = set(), set()

        def text(h):
            return "\n".join(h.alphabet.word(codes).text for codes in h.codes)

        @given(
            pair=nested_pairs(),
            u=st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3),
            kind=st.sampled_from(["pointed", "unbased source", "unbased", "reloaded"]),
        )
        def check(pair, u, kind):
            u = reduce_codes(u)
            h, k = pair[0].conjugate(u), pair[1].conjugate(u)
            if kind == "reloaded":
                h, k = load_subgroup(text(h)), load_subgroup(text(k))
            f = inclusion_morphism(h, k)
            assume(f.source.n_edges > 0)
            if kind.startswith("unbased"):
                d = f.target.unbased() if kind == "unbased" else f.target
                f = GraphMorphism(f.source.unbased(), d, f.vmap, f.emap)
            kinds.add(kind)
            out = unbased_core_morphism(f)
            GraphMorphism(out.source, out.target, out.vmap, out.emap)  # raises unless valid
            s_kept, t_kept = naive_kept(f.source), naive_kept(f.target)
            assert len(out.vmap) == len(s_kept)
            assert [t_kept[w] for w in out.vmap] == [f.vmap[v] for v in s_kept]
            hangs.add(len(s_kept) < f.source.n_vertices)

        check()
        assert hangs == {False, True}
        assert len(kinds) == 4

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

    @pytest.mark.parametrize("dropped", ["source", "target", "both"])
    def test_missing_base_is_rejected(self, dropped):
        """Each end's hanging word is read from its base, so both need one.

        The target's junction is its vertex 0, but the restriction sends
        the source's one 2-core vertex to vertex 1, so no seed stands in
        for a missing base.
        """
        f = inclusion_morphism(Subgroup.of(AB, "a b a^-1"), K_DELTA)
        g = f.source if dropped == "target" else f.source.unbased()
        d = f.target if dropped == "source" else f.target.unbased()
        m = GraphMorphism(g, d, f.vmap, f.emap)
        with pytest.raises(MissingBaseError, match="^both graphs need base points$"):
            unbased_image_morphism(identity_hom(AB), m)
        assert unbased_core_morphism(m).vmap == (1,)

    def test_degenerate_checked_before_trivial(self):
        g = gamma(Subgroup(AB, (parse_word(""),)))
        m = unique_pointed_morphism(g, gamma(H_B))
        bad = GroupHom(AB, AB, {"a": parse_word("a"), "b": parse_word("")})
        with pytest.raises(DegenerateHomError):
            unbased_image_morphism(bad, m)

    def test_untraced_hanging_path_is_internal_error(self, monkeypatch):
        """A rest of the source's word that leads nowhere is an internal error.

        Under a -> b, b -> a b a^-1 the source's image core hangs an
        a-edge and the target's hangs nothing, so the rest is (a,).
        """
        phi = GroupHom(AB, AB, {"a": parse_word("b"), "b": parse_word("a b a^-1")})
        rests = []
        monkeypatch.setattr(functor, "trace", lambda g, v, codes: rests.append(codes))
        with pytest.raises(
            InternalError, match="^internal error: image cores admit no morphism$"
        ):
            unbased_image_morphism(phi, self._root())
        assert rests == [[1]]

    def test_empty_rest_is_not_traced(self, monkeypatch):
        """Both image cores hang an a-edge under conjugation by a: the rest is empty.

        The source's junction then goes to the target's, with no walk, so
        the target builds no head table.
        """
        monkeypatch.setattr(functor, "trace", lambda g, v, codes: pytest.fail("traced"))
        out = unbased_image_morphism(conjugation_hom((1,), AB), self._root())
        assert classify(out).injective
        assert out.target._heads is None and out.target._lookup is not None

    def test_laid_cores_keep_the_lay_table(self, monkeypatch):
        """A 2-core kept as laid keeps the lay's dict: the table its arrays give.

        Over 500 seeded homs at ranks 1-3; extending into a fresh copy of
        each target, which builds its own table, gives the same morphism.
        The example's source path is the start of its target's lay, which
        goes on filling the dict, so the source's 2-core is given none and
        keeps none.
        """
        fold, cores = functor._fold_two_core, []

        def recorded(alphabet, lay, base):
            out = fold(alphabet, lay, base)
            cores.append((out[0], lay[5], out[0]._lookup))
            return out

        monkeypatch.setattr(functor, "_fold_two_core", recorded)
        rng = random.Random(34)
        for i in range(500):
            phi = random_hom(rng, AB, ALPHABETS[i % 3], 6)
            m = unbased_image_morphism(phi, self._root())
            t = m.target
            fresh = LabeledGraph(t.alphabet, t.n_vertices, t.einit, t.elabel, _validate=False)
            again = graph_module.extend_morphism(m.source, fresh, 0, m.vmap[0])
            assert (again.vmap, again.emap) == (m.vmap, m.emap)
        sources, targets = cores[0::2], cores[1::2]
        assert len(sources) == len(targets) == 500
        assert all(given is None and table is None for _, given, table in sources)
        kept = [(c, given, table) for c, given, table in targets if table is not None]
        # both routes run: some targets are kept as laid, some are renumbered
        assert 0 < len(kept) < len(targets)
        for c, given, table in kept:
            fresh = LabeledGraph(c.alphabet, c.n_vertices, c.einit, c.elabel, _validate=False)
            assert table is given and table == fresh._edge_table()

    def test_source_path_is_laid_once(self, monkeypatch):
        """The source's path is laid once, and extended only if something folds or hangs.

        Over 500 seeded homs at ranks 1-3, the path spelling phi(b) from
        the base is laid once per trial: as the source's lay and as the
        start of the target's.  The extension runs exactly on the trials
        where a lay identified two vertices or a 2-core was peeled, and
        both kinds of trial occur.
        """
        lay, laid = functor._lay_paths, []

        def recorded(alphabet, n_vertices, paths, *rest):
            paths = list(paths)
            laid.extend(paths)
            return lay(alphabet, n_vertices, paths, *rest)

        monkeypatch.setattr(functor, "_lay_paths", recorded)
        peeled = count_calls(monkeypatch, graph_module, "_peel")
        identified = count_identifications(monkeypatch)
        extended = count_calls(monkeypatch, functor, "extend_morphism")
        rng = random.Random(36)
        root = self._root()
        skipped = 0
        for i in range(500):
            phi = random_hom(rng, AB, ALPHABETS[i % 3], 6)
            for calls in (laid, peeled, identified, extended):
                calls.clear()
            unbased_image_morphism(phi, root)
            assert laid.count((0, 0, phi.codes[1])) == 1
            assert len(extended) == bool(peeled or identified)
            skipped += not extended
        assert 0 < skipped < 500

    def test_paths_shared_under_another_base_are_laid_apart(self):
        """A source whose paths begin the target's, based elsewhere, is not shared.

        Both ends have Gamma<a a>'s arrays, the source based at vertex 1
        and the target at 0, so f swaps the two vertices.  The inclusion
        of one lay in the other would fix them.
        """
        c = gamma(Subgroup.of(AB, "a a"))
        f = unique_pointed_morphism(LabeledGraph(AB, c.n_vertices, c.einit, c.elabel, 1), c)
        assert f.vmap == (1, 0)
        m = unbased_image_morphism(identity_hom(AB), f)
        assert (m.vmap, m.emap) == (f.vmap, f.emap)

    def test_shared_lay_agrees_with_separate_lays(self):
        """Every hom F{a,b} -> F{x1,x2} with images of length 1-3, both routes.

        Gamma<b>'s edge is the first edge of Gamma<b, a b a^-1>, so that
        transport lays the source's path once; with K's generators
        swapped it is not, and each end is laid apart.  Each transport is
        injective, the two classify alike, and their ends are isomorphic.
        """
        root = self._root()
        swapped = unique_pointed_morphism(gamma(H_B), gamma(Subgroup.of(AB, "a b a^-1", "b")))
        first = lambda f: (f.target.einit[:2], f.target.elabel[:2])
        assert first(root) == (root.source.einit, root.source.elabel) != first(swapped)
        x = Alphabet.of("x1", "x2")
        words = [
            w for n in (1, 2, 3) for w in itertools.product((1, -1, 2, -2), repeat=n)
            if reduce_codes(w) == w
        ]
        assert len(words) == 52
        for images in itertools.product(words, repeat=2):
            phi = GroupHom._raw(AB, x, images)
            shared, apart = unbased_image_morphism(phi, root), unbased_image_morphism(phi, swapped)
            assert classify(shared) == classify(apart) and classify(shared).injective
            assert unpointed_isomorphic(shared.source, apart.source)
            assert unpointed_isomorphic(shared.target, apart.target)

    def test_failed_extension_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(functor, "extend_morphism", lambda g, d, v, w: None)
        with pytest.raises(InternalError, match="^internal error: a kept source part"):
            unbased_image_morphism(conjugation_hom((1,), AB), self._root())

    @pytest.mark.parametrize("word", [[-1], []], ids=["diverges", "stops-short"])
    def test_source_word_off_the_target_word_is_internal_error(self, monkeypatch, word):
        """The source's hanging word must start with the target's."""
        fold, words = functor._fold_two_core, []

        def swapped(*args):
            core, junction, hanging = fold(*args)
            words.append(hanging)
            return core, junction, word if len(words) == 1 else hanging

        monkeypatch.setattr(functor, "_fold_two_core", swapped)
        # conjugating by a makes both image cores hang an a-edge
        with pytest.raises(
            InternalError, match="^internal error: image cores admit no morphism$"
        ):
            unbased_image_morphism(conjugation_hom((1,), AB), self._root())
        assert words == [[1], [1]]

    def test_matches_the_pointed_route(self, monkeypatch):
        """The restriction of the pointed morphism between the image cores.

        The same arrays as restricting :func:`image_morphism`, a valid
        morphism, and on vertices the naive one: each vertex of the naive
        image core of H goes where its path from the base leads in that
        of K, matched to the library's numbering by pointed isomorphisms.
        Drawn pairs and the example along seeded homs reach every branch
        of the transport: nothing hangs, only the source hangs, the
        target hangs too (its word is stripped from the source's), and
        two reads of a path meet.
        """
        hangs, meets, extends = set(), set(), set()
        folds, identified = count_folds(monkeypatch), count_identifications(monkeypatch)
        extended = count_calls(monkeypatch, functor, "extend_morphism")

        def compare(phi, f):
            g, d = image_core(phi, f.source), image_core(phi, f.target)
            if g.n_edges == 0:
                with pytest.raises(TrivialSubgroupError):
                    unbased_image_morphism(phi, f)
                return
            identified.clear()
            extended.clear()
            out = unbased_image_morphism(phi, f)
            meets.add(bool(identified))
            extends.add(bool(extended))
            ref = unbased_core_morphism(functor.image_morphism(phi, f))
            for h, r in ((out.source, ref.source), (out.target, ref.target)):
                assert (h.n_vertices, h.einit, h.elabel, h.base) == (
                    r.n_vertices, r.einit, r.elabel, r.base
                )
            assert (out.vmap, out.emap) == (ref.vmap, ref.emap)
            GraphMorphism(out.source, out.target, out.vmap, out.emap)  # raises unless valid
            naive_g, naive_d = _naive_image_core(phi, f.source), _naive_image_core(phi, f.target)
            to_g = naive_isomorphism(g, naive_g, g.base, naive_g.base)[0]
            to_d = naive_isomorphism(d, naive_d, d.base, naive_d.base)[0]
            s_kept, t_kept = naive_kept(g), naive_kept(d)
            hangs.add((len(s_kept) < g.n_vertices, len(t_kept) < d.n_vertices))
            assert sorted(to_g[v] for v in s_kept) == naive_kept(naive_g)
            assert sorted(to_d[w] for w in t_kept) == naive_kept(naive_d)
            along = _naive_pointed_map(naive_g, naive_d)
            assert [to_d[t_kept[w]] for w in out.vmap] == [along[to_g[v]] for v in s_kept]

        def conjugated(target, images, c):
            codes = tuple(reduce_codes(c + w + invert_codes(c)) for w in images)
            return GroupHom._raw(AB, target, codes)

        @settings(max_examples=150)
        @given(pair=nested_pairs(), data=st.data())
        def check(pair, data):
            # conjugating H by an element of K keeps it in K
            k = data.draw(st.sampled_from([(), *pair[1].codes]))
            target = data.draw(st.sampled_from(ALPHABETS[:3]))
            phi = data.draw(_homs(AB, target))
            # conjugating the images makes the image cores hang a path
            c = target.encode(data.draw(st.lists(st.sampled_from(target.letters()), max_size=3)))
            f = inclusion_morphism(pair[0].conjugate(k), pair[1])
            compare(conjugated(target, phi.codes, c), f)

        check()
        # the source alone hangs too rarely in the drawn pairs to count on
        rng = random.Random(0)
        for i, target in enumerate(ALPHABETS[:3] * 20):
            c = random_reduced_word(rng, target, 2) if i % 2 else ()
            images = [random_reduced_word(rng, target, 6) for _ in "ab"]
            compare(conjugated(target, images, c), self._root())
        # (source hangs, target hangs): a target that hangs a word makes the source hang it
        assert hangs == {(False, False), (True, False), (True, True)}
        assert meets == {False, True} and not folds
        # the example's source lay sits in its target's when nothing folds or hangs
        assert extends == {False, True}

    @pytest.mark.parametrize(
        "images, hanging, merges, extended, source, target, vmap, emap",
        [
            (
                ("a b", "b a^-1"), [[], []], 0, 0,
                (2, (0, 1, 1, 0), (2, -2, -1, 1)),
                (4, (0, 2, 2, 0, 2, 1, 1, 3, 3, 1), (2, -2, -1, 1, 2, -2, 2, -2, -1, 1)),
                (0, 2), (0, 1, 2, 3),
            ),
            (
                ("b", "a b a^-1"), [[1], []], 0, 1,
                (1, (0, 0), (2, -2)),
                (4, (0, 2, 2, 2, 0, 1, 1, 3, 3, 3), (1, -1, 2, -2, 2, -2, 1, -1, 2, -2)),
                (2,), (2, 3),
            ),
            (
                ("a a", "a b a^-1"), [[1], [1]], 0, 1,
                (1, (0, 0), (2, -2)),
                (3, (1, 1, 1, 0, 0, 2, 2, 2), (2, -2, 1, -1, 1, -1, 2, -2)),
                (1,), (0, 1),
            ),
            (
                ("a b", "b^-1 a b"), [[-2], []], 1, 1,
                (1, (0, 0), (1, -1)),
                (2, (0, 1, 1, 1, 0, 0), (-2, 2, 1, -1, 1, -1)),
                (1,), (2, 3),
            ),
        ],
        ids=["clean", "source-peeled", "target-peeled", "reads-meet"],
    )
    def test_numbering_is_pinned(
        self, monkeypatch, images, hanging, merges, extended, source, target, vmap, emap
    ):
        """The exact arrays of the example's transport, one hom per route.

        Each end's image paths are laid and numbered in spelling order,
        the source's as the start of the target's lay, then peeled and
        renumbered; the hanging words, the lay's identifications and the
        extensions show which route each hom takes.  Where nothing hangs
        or meets, the source's lay sits in the target's and nothing is
        extended.  The fold kernel never runs.
        """
        fold, words = functor._fold_two_core, []

        def recorded(*args):
            out = fold(*args)
            words.append(out[2])
            return out

        monkeypatch.setattr(functor, "_fold_two_core", recorded)
        folds, identified = count_folds(monkeypatch), count_identifications(monkeypatch)
        extensions = count_calls(monkeypatch, functor, "extend_morphism")
        phi = GroupHom(AB, AB, dict(zip("ab", map(parse_word, images))))
        m = unbased_image_morphism(phi, self._root())
        assert (words, len(folds), len(identified)) == (hanging, 0, merges)
        assert len(extensions) == extended
        assert (m.source.n_vertices, m.source.einit, m.source.elabel) == source
        assert (m.target.n_vertices, m.target.einit, m.target.elabel) == target
        assert m.source.base is None and m.target.base is None
        assert (m.vmap, m.emap) == (vmap, emap)

    def test_one_peel_per_image_core(self, monkeypatch):
        """Transport peels each image core once and builds no pointed one.

        It never runs the 2-core, the trim, the pointed image core, the
        pointed core, an unbased copy or the fold kernel; the peel runs,
        and the lay identifies meeting reads, in some of the draws.
        """
        calls = []

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in [
            (graph_module, "_peel"),
            (graph_module, "two_core"),
            (graph_module, "trim_all"),
            (graph_module, "core"),
            (functor, "image_core"),
            (LabeledGraph, "unbased"),
        ]:
            count(owner, name)
        folds, identified = count_folds(monkeypatch), count_identifications(monkeypatch)
        rng = random.Random(3)
        root = self._root()
        peeled = 0
        for target in ALPHABETS[:3] * 30:
            c = random_reduced_word(rng, target, 2)
            codes = tuple(
                reduce_codes(c + random_reduced_word(rng, target, 5) + invert_codes(c))
                for _ in "ab"
            )
            phi = GroupHom._raw(AB, target, codes)
            calls.clear()
            unbased_image_morphism(phi, root)
            assert calls == ["_peel"] * len(calls) and len(calls) <= 2
            peeled += len(calls)
        assert not folds
        assert identified and peeled
    def test_wide_target_alphabet_is_not_walked(self):
        """Transport and classify make no full pass over the target's names."""
        passes = []
        wide = Alphabet(counting_names((f"x{i}" for i in range(200_000)), passes))
        narrow = Alphabet.of("x0", "x1", "x2")  # words over the first names collide
        rng = random.Random(5)
        root = self._root()
        homs = [
            GroupHom._raw(AB, wide, tuple(random_reduced_word(rng, a, 6) for _ in "ab"))
            for a in (wide, narrow) * 25
        ]
        passes.clear()
        for phi in homs:
            assert classify(unbased_image_morphism(phi, root)).injective
        assert passes == []

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
