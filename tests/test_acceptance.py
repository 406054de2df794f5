"""Acceptance suite.

Eight criteria, each a property of the whole pipeline run at a fixed
scale with a fixed seed; every test prints one summary line.  Counts and
runtime ceilings are pinned here and are not meant to be tuned down.
"""

import random
import time

from stallings.cases import fuzz_example, verify_tables
from stallings.functor import image_core
from stallings.graph import (
    canonical_form,
    classify,
    core,
    fold_all,
    iso_pointed,
    trace,
)
from stallings.subgroups import (
    Subgroup,
    contains,
    gamma,
    inclusion_morphism,
    onto_base,
    pi1_basis,
)
from stallings.whitehead import (
    full_whitehead,
    is_restriction_morphism,
    whitehead_graph,
)
from stallings.words import Alphabet, cyclic_reduce, invert_codes, reduce_codes

from helpers import (
    ALPHABETS,
    count_folds,
    covers_every_edge,
    image_paths,
    naive_is_folded,
    random_hom,
    random_reduced_word,
    random_subgroup,
    random_wedge,
    relabel,
    spelled,
)


def report(line: str) -> None:
    print(f"\n{line}")


class TestAcceptance:
    def test_1_subgroup_graph_correspondence(self):
        t0 = time.time()
        rng = random.Random(101)
        for i in range(500):
            alphabet = ALPHABETS[rng.randrange(len(ALPHABETS))]
            h = random_subgroup(rng, alphabet, max_gens=5, max_len=10)
            g = gamma(h)
            gens = [w for w in h.codes if w]
            for w in h.codes:
                assert trace(g, g.base, w) == g.base
            members = 0
            while members < 100 and gens:
                prod = ()
                for _ in range(rng.randint(1, 6)):
                    w = rng.choice(gens)
                    prod = reduce_codes(prod + (w if rng.random() < 0.5 else invert_codes(w)))
                assert trace(g, g.base, prod) == g.base
                members += 1
            is_everything = g.n_vertices == 1 and g.n_edges == len(alphabet)
            if not is_everything:
                rejected = 0
                attempts = 0
                while rejected < 100:
                    attempts += 1
                    assert attempts < 20000
                    w = random_reduced_word(rng, alphabet, 12)
                    if trace(g, g.base, w) == g.base:
                        continue  # not certified outside the subgroup
                    rejected += 1
            if i % 100 == 0 and gens:
                assert contains(h, alphabet.word(gens[0]))
        elapsed = time.time() - t0
        assert elapsed < 30, f"correspondence suite took {elapsed:.1f}s"
        report(
            f"acceptance 1 (subgroup/graph correspondence, 500 subgroups): "
            f"PASS in {elapsed:.1f}s"
        )

    def test_2_fold_confluence(self, monkeypatch):
        folds = count_folds(monkeypatch)
        rng = random.Random(202)
        for i in range(1000):
            alphabet = ALPHABETS[rng.randrange(len(ALPHABETS))]
            g = random_wedge(rng, alphabet, max_words=5, max_len=8)
            f1, _ = fold_all(relabel(g, rng))
            f2, _ = fold_all(relabel(g, rng))
            assert canonical_form(f1) == canonical_form(f2), f"instance {i}"
        assert not folds, "fold_all reached the fold kernel"
        report("acceptance 2 (fold confluence, 1000 graphs x 2 renumberings): PASS")

    def test_3_image_core_matches_image_subgroup(self):
        rng = random.Random(303)
        for i in range(500):
            src = ALPHABETS[rng.randrange(1, len(ALPHABETS))]
            tgt = ALPHABETS[rng.randrange(len(ALPHABETS))]
            h = random_subgroup(rng, src, max_gens=4, max_len=6)
            phi = random_hom(rng, src, tgt, 4)
            image = Subgroup(tgt, [tgt.word(phi.image(w)) for w in h.codes])
            assert iso_pointed(image_core(phi, gamma(h)), gamma(image)), i
        report("acceptance 3 (core of subdivision = image subgroup, 500 pairs): PASS")

    def test_4_onto_base_construction(self):
        rng = random.Random(404)
        strict_count = not_onto = 0
        for i in range(500):
            alphabet = ALPHABETS[rng.randrange(1, len(ALPHABETS))]
            k = random_subgroup(rng, alphabet, max_gens=4, max_len=8)
            gk = gamma(k)
            if gk.n_edges == 0:
                continue
            basis = pi1_basis(gk)
            gens = []
            for _ in range(rng.randint(1, 4)):
                w = ()
                for _ in range(rng.randint(1, 4)):
                    b = rng.choice(basis)
                    w = reduce_codes(w + (b if rng.random() < 0.5 else invert_codes(b)))
                gens.append(alphabet.word(w))
            h = Subgroup(alphabet, tuple(gens))
            if h.is_trivial():
                continue
            u, f = onto_base(h, k)
            assert trace(gk, gk.base, u) == gk.base, f"conjugator left k at {i}"
            assert classify(f).surjective, f"not onto at {i}"
            conjugated = [reduce_codes(u + w + invert_codes(u)) for w in h.codes]
            assert covers_every_edge(gk, conjugated), f"an edge left uncovered at {i}"
            # unconjugated, the oracle and classify agree either way
            onto = classify(inclusion_morphism(h, k)).surjective
            assert covers_every_edge(gk, h.codes) == onto, f"oracle disagrees at {i}"
            not_onto += not onto
            gh = gamma(h)
            strictly_smaller = any(
                trace(gh, gh.base, b) != gh.base for b in basis
            )
            if strictly_smaller:
                strict_count += 1
                assert not classify(f).injective, f"strict but injective at {i}"
        assert strict_count > 100 and not_onto > 50
        report(
            f"acceptance 4 (onto base via conjugation, 500 nested pairs, "
            f"{strict_count} strict): PASS"
        )

    def test_5_example_injective_at_scale(self):
        t0 = time.time()
        reports = [
            fuzz_example(trials=3334, alphabet_size=1, max_len=6, seed=505),
            fuzz_example(trials=3333, alphabet_size=2, max_len=6, seed=506),
            fuzz_example(trials=3333, alphabet_size=3, max_len=6, seed=507),
        ]
        elapsed = time.time() - t0
        for rep in reports:
            assert rep.ok, "\n".join(rep.failures)
        assert elapsed < 60, f"10000 transports took {elapsed:.1f}s"
        total = sum(r.trials for r in reports)
        report(
            f"acceptance 5 (example stays injective, {total} random maps, "
            f"ranks 1-3): PASS in {elapsed:.1f}s"
        )

    def test_6_case_table_replication(self):
        rep = verify_tables()
        failing = [r.id for r in rep.rows if not r.ok]
        assert not failing, failing
        corrected = sum(1 for r in rep.rows if r.note)
        report(
            f"acceptance 6 (case analysis replication, {len(rep.rows)} rows, "
            f"{corrected} annotated): PASS"
        )

    def test_7_folding_guarantee(self):
        rng = random.Random(707)
        target = Alphabet.of("p", "q", "r")
        full = full_whitehead(target)
        checked = 0
        attempts = 0
        while checked < 500:
            attempts += 1
            assert attempts < 100000
            src = ALPHABETS[rng.randrange(1, 3)]
            g = gamma(random_subgroup(rng, src, max_gens=3, max_len=5))
            if g.n_edges == 0:
                continue
            restrictions = whitehead_graph(g)
            phi = random_hom(rng, src, target, 4)
            if not is_restriction_morphism(restrictions, full, phi):
                continue
            sub = spelled(target, g.n_vertices, image_paths(phi, g), g.base)
            assert naive_is_folded(sub)
            c = core(sub)
            assert (c.n_vertices, c.n_edges) == (sub.n_vertices, sub.n_edges)
            checked += 1
        report("acceptance 7 (restriction sets guarantee folding, 500 triples): PASS")

    def test_8_whitehead_graph_of_cyclic_words(self):
        rng = random.Random(808)
        checked = 0
        while checked < 200:
            alphabet = ALPHABETS[rng.randrange(1, len(ALPHABETS))]
            _, cyc = cyclic_reduce(random_reduced_word(rng, alphabet, 10))
            if not cyc:
                continue
            letters = alphabet.word(cyc)
            g = gamma(Subgroup(alphabet, (letters,)))
            oracle = frozenset(
                frozenset((cur, letters[(i + 1) % len(letters)].inverse()))
                for i, cur in enumerate(letters)
            )
            assert whitehead_graph(g).edges == oracle
            checked += 1
        report("acceptance 8 (Whitehead graph of cyclic words, 200 words): PASS")
