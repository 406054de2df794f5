"""Reads that meet are identified inside the spelling loop.

When the forward and backward reads of a path meet at two different
vertices, ``graph._lay_paths`` merges them and folds whatever the merge
makes meet.  Its callers (``gamma``, ``image_core`` and transport) are
checked here against the naive fold and trim of the spelled paths, on
draws over ranks 1 and 2 short enough that reads meet and merges
cascade, and on pinned cases.  ``graph._lay_sparse``, the lay behind
``_fold_paths``, indexes only each middle's two ends and reads on
inside a middle by arithmetic; pinned cases stop reads at each kind of
vertex where a read can branch, and a digest pins the numbering of
seeded lays.  ``graph._spell``, which writes each middle of that lay and
the paths of ``bouquet`` and ``subdivide`` by slice writes, is checked
against a speller that appends letter by letter.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from stallings import graph as graph_module
from stallings.errors import TrivialSubgroupError
from stallings.functor import _paths, image_core, unbased_image_morphism
from stallings.graph import (
    GraphMorphism,
    _fold_paths,
    _fold_two_core,
    _lay_paths,
    _lay_sparse,
    _spell,
    canonical_form,
    classify,
    core,
    fold_all,
    unique_pointed_morphism,
)
from stallings.subgroups import Subgroup, gamma, inclusion_morphism, load_subgroup
from stallings.words import Alphabet, GroupHom, invert_codes, parse_word, reduce_codes

from helpers import (
    ALPHABETS,
    count_folds,
    count_identifications,
    image_paths,
    naive_canonical_form,
    naive_fold,
    naive_trim,
    nested_pairs,
    pointed_graphs,
    random_reduced_word,
    random_wedge,
    relabel,
    same_at_some_root,
    spelled,
)

A, AB, ABC = ALPHABETS[:3]
ROOT = unique_pointed_morphism(gamma(Subgroup.of(AB, "b")), gamma(Subgroup.of(AB, "b", "a b a^-1")))


def _words(alphabet, max_len: int = 6):
    """Nonempty reduced code words of at most ``max_len`` letters."""
    codes = [c for i in range(1, len(alphabet) + 1) for c in (i, -i)]
    letters = st.lists(st.sampled_from(codes), min_size=1, max_size=max_len)
    return letters.map(reduce_codes).filter(bool)


def _subgroup(alphabet, gens) -> Subgroup:
    return Subgroup(alphabet, [alphabet.word(w) for w in gens])


def _homs(source, target):
    """Homomorphisms with short nonempty images, so image paths meet often."""
    images = st.tuples(*[_words(target, 4) for _ in source.generators])
    return images.map(lambda codes: GroupHom._raw(source, target, codes))


def _naive_core(alphabet, n_vertices, paths, base):
    """The naive fold and trim of the paths spelled plainly."""
    return naive_trim(naive_fold(spelled(alphabet, n_vertices, paths, base)))


def _absorbed(monkeypatch) -> list[int]:
    """Record, per identification, how many vertices it absorbed."""
    counts = []
    identify = graph_module._identify

    def counted(step, einit, elabel, width, out, rep, x, y):
        before = len(rep)
        identify(step, einit, elabel, width, out, rep, x, y)
        counts.append(len(rep) - before)

    monkeypatch.setattr(graph_module, "_identify", counted)
    return counts


def _xs(rank: int) -> Alphabet:
    return Alphabet.of(*[f"x{i}" for i in range(1, rank + 1)])


def _reduced(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """A seeded reduced code word of exactly ``length`` letters."""
    w: list[int] = []
    while len(w) < length:
        c = rng.choice((-1, 1)) * rng.randint(1, rank)
        if not w or c != -w[-1]:
            w.append(c)
    return tuple(w)


def _lay_draws(count: int):
    """Seeded ``_fold_paths`` inputs ``(rank, n_vertices, paths, base)``.

    Ranks 1, 2, 3, 4 and 10 in turn, 1-3 given vertices and paths of
    0-30 letters.  Most paths after the first are pieces of earlier
    ones, a suffix or a prefix and a suffix around a few new letters,
    so reads stop inside earlier middles and about half the lays
    identify.
    """
    rng = random.Random(44)
    for k in range(count):
        rank = (1, 2, 3, 4, 10)[k % 5]
        n = rng.randint(1, 3)
        paths: list[tuple[int, int, tuple[int, ...]]] = []
        for _ in range(rng.randint(1, 6)):
            u, v = rng.randrange(n), rng.randrange(n)
            w = _reduced(rng, rank, rng.randint(0, 30))
            if paths and rng.random() < 0.6:
                p, q = rng.choice(paths)[2], rng.choice(paths)[2]
                a, b = rng.randint(0, len(p)), rng.randint(0, len(q))
                w = p[a:] if rng.random() < 0.4 else p[:a] + w[: rng.randint(0, 4)] + q[b:]
                w = reduce_codes(w)[:30]
            paths.append((u, v, w))
        yield rank, n, paths, rng.choice([None, *range(n)])


def _text(alphabet: Alphabet, seed: int) -> str:
    """A subgroup file of 100 seeded generators of 20 letters."""
    rng = random.Random(seed)
    return "\n".join(alphabet.word(_reduced(rng, len(alphabet), 20)).text for _ in range(100))


def _indexed(rank: int, step: dict[int, int]) -> list[int]:
    """The vertices with entries in a lay's dict."""
    return sorted({(k + rank) // (2 * rank + 1) for k in step})


class TestAgainstTheOracle:
    @settings(max_examples=300)
    @given(st.data())
    def test_gamma(self, data):
        """gamma's core is the naive one, also folded from a relabelled bouquet.

        The generators in another order, each maybe inverted, meet in
        another order and must give the same core.
        """
        alphabet = data.draw(st.sampled_from([A, AB]))
        gens = data.draw(st.lists(_words(alphabet), min_size=1, max_size=4))
        g = gamma(_subgroup(alphabet, gens))
        assert g.is_core()
        loops = spelled(alphabet, 1, [(0, 0, w) for w in gens], 0)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        for h in (loops, relabel(loops, rng)):
            assert canonical_form(g) == naive_canonical_form(naive_trim(naive_fold(h)))
        moved = [invert_codes(w) if rng.random() < 0.5 else w for w in gens]
        rng.shuffle(moved)
        assert canonical_form(gamma(_subgroup(alphabet, moved))) == canonical_form(g)

    @settings(max_examples=200)
    @given(pointed_graphs(AB), st.data())
    def test_image_core(self, g, data):
        """Pointed, relabelled or unpointed: the naive image core."""
        phi = data.draw(_homs(AB, data.draw(st.sampled_from([A, AB]))))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        for h in (g, relabel(g, rng), g.unbased()):
            image = image_core(phi, h)
            oracle = _naive_core(phi.target, h.n_vertices, image_paths(phi, h), h.base)
            if h.base is None:
                assert same_at_some_root(image, oracle)
            else:
                assert image.is_core()
                assert canonical_form(image) == naive_canonical_form(oracle)

    @settings(max_examples=200)
    @given(nested_pairs(), st.data())
    def test_transport_two_cores(self, pair, data):
        """Each end's 2-core has the oracle's size and shape.

        The oracle is the naive fold of the spelled image paths, trimmed
        with no base point; a source whose image is trivial is refused.
        """
        f = data.draw(st.sampled_from([ROOT, inclusion_morphism(*pair)]))
        phi = data.draw(_homs(AB, data.draw(st.sampled_from([A, AB]))))
        s, t = (
            _naive_core(phi.target, g.n_vertices, image_paths(phi, g), None)
            for g in (f.source, f.target)
        )
        if s.n_edges == 0:
            with pytest.raises(TrivialSubgroupError):
                unbased_image_morphism(phi, f)
            return
        m = unbased_image_morphism(phi, f)
        GraphMorphism(m.source, m.target, m.vmap, m.emap)  # raises unless valid
        for mine, oracle in ((m.source, s), (m.target, t)):
            assert (mine.n_vertices, mine.n_edges) == (oracle.n_vertices, oracle.n_edges)
            assert same_at_some_root(mine, oracle)

    def test_sparse_lay_is_the_full_lay(self):
        """On seeded draws, ``_lay_sparse`` lays what ``_lay_paths`` lays.

        The lists, count, degrees and identified graph are equal, and
        the sparse dict is part of the full one, all of it once the lay
        identified.
        """
        for rank, n, paths, _ in _lay_draws(2000):
            sparse, full = _lay_sparse(rank, n, paths, []), _lay_paths(rank, n, paths)
            assert sparse[:5] == full[:5]
            assert sparse[5].items() <= full[5].items()
            assert sparse[4] is None or sparse[5] == full[5]

    def test_draws_meet_and_cascade(self, monkeypatch):
        """Draws like the ones above meet, and some merges cascade; the kernel never runs."""
        folds, absorbed = count_folds(monkeypatch), _absorbed(monkeypatch)
        rng = random.Random(11)
        for alphabet in (A, AB) * 100:
            gens = [random_reduced_word(rng, alphabet, 6) for _ in range(rng.randint(1, 4))]
            gamma(_subgroup(alphabet, gens))
            images = tuple(random_reduced_word(rng, alphabet, 4) for _ in "ab")
            phi = GroupHom._raw(AB, alphabet, images)
            image_core(phi, ROOT.target)
            unbased_image_morphism(phi, ROOT)
        assert not folds
        assert len(absorbed) > 100 and sum(n > 1 for n in absorbed) > 20

    def test_no_library_fold_reaches_the_kernel(self, monkeypatch):
        """core, fold_all, gamma, image_core and transport all fold as they lay.

        The draws are unfolded wedges, renumbered, and homs of which about
        a third of the images are empty, which only image_core takes.
        """
        folds = count_folds(monkeypatch)
        rng = random.Random(37)
        for alphabet in (A, AB) * 100:
            g = relabel(random_wedge(rng, alphabet, max_words=4, max_len=6), rng)
            assert canonical_form(core(g)) == canonical_form(core(fold_all(g)[0]))
            gens = [random_reduced_word(rng, alphabet, 6) for _ in range(rng.randint(1, 4))]
            images = tuple(random_reduced_word(rng, alphabet, 4) for _ in "ab")
            phi = GroupHom._raw(AB, alphabet, images)
            image_core(phi, gamma(_subgroup(AB, gens)))  # codes over A are codes over AB
            unbased_image_morphism(phi, ROOT)
            empty = tuple(() if rng.random() < 0.3 else w for w in images)
            image_core(GroupHom._raw(AB, alphabet, empty), ROOT.target)
        assert not folds


class TestPinned:
    # sha256 of the numbering that a lay indexing every letter gives the
    # inputs below; to_dot, covering_circuit and onto-base's conjugator read it
    NUMBERING = "fa22eeb4ba8174999920c6890b8ed5d9e07c8f55e714277230316c12117be20d"

    def test_numbering_is_pinned(self):
        """Arrays, base and chain table of seeded lays and of gamma at ranks 3 and 1000."""
        draws = list(_lay_draws(2000))
        graphs = [_fold_paths(_xs(rank), n, paths, base) for rank, n, paths, base in draws]
        for alphabet, seed in ((ABC, 3), (_xs(1000), 4)):
            graphs.append(gamma(load_subgroup(_text(alphabet, seed), alphabet)))
        digest = hashlib.sha256()
        for g in graphs:
            digest.update(repr((g.n_vertices, g.einit, g.elabel, g.base, g._chain_table())).encode())
        assert digest.hexdigest() == self.NUMBERING
        identified = sum(_lay_paths(rank, n, paths)[4] is not None for rank, n, paths, _ in draws)
        assert 800 < identified < 1200

    @pytest.mark.parametrize(
        "gens, indexed",
        [
            (["a b c", "a b a"], [0, 2]),
            (["a b c", "c b c"], [0, 1]),
            (["a b c b a", "a b a b a"], [0, 2, 3]),
            (["a b c b^-1 a^-1", "a b a"], [0, 2]),
        ],
        ids=["forward", "backward", "both-ends", "stem-tip"],
    )
    def test_reads_stop_inside_middles(self, gens, indexed):
        """The second word's reads stop where the first word's middle or stem tip branches.

        Only the base and those vertices are indexed, the arrays are the
        ones a lay that indexes every letter makes, and the core is the naive one.
        """
        paths = [(0, 0, w) for w in Subgroup.of(ABC, *gens).codes]
        lay = _lay_sparse(len(ABC), 1, paths, [])
        assert lay[4] is None and _indexed(len(ABC), lay[5]) == indexed
        assert lay[:4] == _lay_paths(len(ABC), 1, paths)[:4]
        g = gamma(Subgroup.of(ABC, *gens))
        assert canonical_form(g) == naive_canonical_form(_naive_core(ABC, 1, paths, 0))

    def test_identification_after_sparse_middles(self, monkeypatch):
        """Four middles are laid unindexed; a b then meets inside the first, and c a reads on.

        From the identification on, the lay is the one that indexes every letter.
        """
        identified = count_identifications(monkeypatch)
        gens = ["a b c", "a c b", "b c a b", "c^-1 a^-1 b c", "a b", "c a"]
        paths = [(0, 0, w) for w in Subgroup.of(ABC, *gens).codes]
        lay = _lay_sparse(len(ABC), 1, paths, [])
        assert len(identified) == 1
        assert lay == _lay_paths(len(ABC), 1, paths)
        g = gamma(Subgroup.of(ABC, *gens))
        assert canonical_form(g) == naive_canonical_form(_naive_core(ABC, 1, paths, 0))

    def test_a_loop_indexes_only_the_base(self):
        """A 40-letter loop at the base: 2 dict entries for _fold_paths, 80 for transport."""
        paths = [(0, 0, (1, 2) * 20)]
        assert len(_lay_sparse(len(AB), 1, paths, [])[5]) == 2
        assert len(_lay_paths(len(AB), 1, paths)[5]) == 80

    def test_an_empty_path_joins_its_ends(self, monkeypatch):
        """One identification for an empty path between two vertices, none for an empty loop."""
        identified = count_identifications(monkeypatch)
        einit, elabel, n, _, merged, _ = _lay_paths(len(A), 2, [(0, 0, (1,)), (1, 1, ()), (0, 1, ())])
        assert len(identified) == 1
        assert (einit, elabel, n) == ([0, 0], [1, -1], 2)
        assert merged == ([0, 0], [0], [0])

    def test_powers_meet_in_a_square(self, monkeypatch):
        """<a^4, a^6> = <a^2>: the same arrays as the core of a^2 itself."""
        identified = count_identifications(monkeypatch)
        g = gamma(Subgroup.of(A, "a a a a", "a a a a a a"))
        assert len(identified) == 1
        assert g == gamma(Subgroup.of(A, "a a"))
        assert (g.n_vertices, g.einit, g.elabel, g.base) == (2, (0, 1, 1, 0), (1, -1, 1, -1), 0)

    def test_a_cascade_makes_a_rose(self, monkeypatch):
        """The reads of a^10 meet on the 9-cycle of a^9; one merge folds it all."""
        absorbed = _absorbed(monkeypatch)
        g = gamma(Subgroup.of(A, " ".join("a" * 9), " ".join("a" * 10)))
        assert absorbed == [8]
        assert (g.n_vertices, g.einit, g.elabel, g.base) == (1, (0, 0), (1, -1), 0)

    # a -> b^-1 a^-1 b^2, b -> b^-2 a^-1 b^2: on the example's target
    # <b, a b a^-1>, the reads of the edge a's image meet at two fresh
    # vertices, and the merge's cascade takes the base into a fresh vertex
    BASE_MOVES = GroupHom(
        AB, AB, {"a": parse_word("b^-1 a^-1 b b"), "b": parse_word("b^-1 b^-1 a^-1 b b")}
    )

    @staticmethod
    def _base_moved(identified) -> bool:
        """Whether the lay's one identification left the base in a fresh vertex's class."""
        ((*_, rep, _, _),) = identified  # the lay's union-find, as it ended
        return graph_module._find(rep, 0) >= 2  # 0 and 1 are given

    def test_base_moves_pointed(self, monkeypatch):
        """The pointed core keeps the base as vertex 0, its class's least number."""
        identified = count_identifications(monkeypatch)
        c = image_core(self.BASE_MOVES, ROOT.target)
        assert self._base_moved(identified)
        assert (c.n_vertices, c.einit, c.elabel, c.base) == (
            3, (0, 1, 1, 2, 2, 2, 1, 1), (-2, 2, -2, 2, -1, 1, -1, 1), 0
        )
        assert canonical_form(c) == "\n".join(
            ["base 0", "1 -a-> 1", "1 -b-> 0", "2 -a-> 2", "2 -b-> 1"]
        )

    def test_base_moves_unbased(self, monkeypatch):
        """The 2-core drops the base's class; the junction and word lead back to it."""
        identified = count_identifications(monkeypatch)
        phi, d = self.BASE_MOVES, ROOT.target
        lay = _lay_paths(len(AB), d.n_vertices, _paths(phi, phi.codes, d))
        core, junction, word = _fold_two_core(AB, lay, d.base)
        assert self._base_moved(identified)
        assert (core.n_vertices, core.einit, core.elabel) == (
            2, (0, 1, 1, 1, 0, 0), (-2, 2, -1, 1, -1, 1)
        )
        assert (junction, word) == (0, [-2])
        assert classify(unbased_image_morphism(phi, ROOT)).injective


def _naive_spell(einit, elabel, u, v, codes, fresh) -> int:
    """Append the path from u to v spelling codes, one letter at a time."""
    walk = [u, *range(fresh, fresh + len(codes) - 1), v]
    for k, c in enumerate(codes):
        einit += (walk[k], walk[k + 1])
        elabel += (c, -c)
    return fresh + max(len(codes) - 1, 0)


class TestSpell:
    @settings(max_examples=300)
    @given(
        codes=st.lists(st.integers(1, 5).flatmap(lambda c: st.sampled_from((c, -c))), max_size=60),
        as_tuple=st.booleans(),
        ends=st.integers(0, 50).flatmap(lambda u: st.tuples(st.just(u), st.sampled_from([u, 51]))),
        prefilled=st.lists(st.tuples(st.integers(0, 50), st.integers(-5, 5)), max_size=8),
        fresh=st.integers(0, 10**6),
    )
    def test_matches_the_naive_speller(self, codes, as_tuple, ends, prefilled, fresh):
        """Loops and open paths, on prefilled lists, from any first fresh vertex."""
        word = tuple(codes) if as_tuple else codes
        u, v = ends
        einit = [w for w, _ in prefilled for _ in (0, 1)]
        elabel = [c for _, c in prefilled for c in (c, -c)]
        want_init, want_label = einit.copy(), elabel.copy()
        want = _naive_spell(want_init, want_label, u, v, word, fresh)
        assert _spell(einit, elabel, u, v, word, fresh) == want
        assert (einit, elabel) == (want_init, want_label)
        assert list(word) == codes

    @pytest.mark.parametrize("word", [(), []])
    def test_an_empty_word_appends_nothing(self, word):
        einit, elabel = [3, 4], [1, -1]
        assert _spell(einit, elabel, 3, 4, word, 17) == 17
        assert (einit, elabel) == ([3, 4], [1, -1])
