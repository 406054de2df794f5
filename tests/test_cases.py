import random

import pytest

from stallings.cases import (
    Resolution,
    classify_case,
    fuzz_example,
    initial_split,
    morphisms_unpointed_isomorphic,
    reduce_to,
    root_case,
    split_on_edge,
    verify_tables,
)
from stallings.cases.engine import make_substitution
from stallings.errors import EdgeNotMissingError, NotAmbiguousError
from stallings.functor import subdivide, unbased_image_morphism
from stallings.graph import classify, iso_pointed
from stallings.whitehead import (
    full_whitehead,
    is_restriction_morphism,
    parse_edges,
)
from stallings.words import Alphabet, conjugation_hom, compose_homs

from helpers import random_hom, random_reduced_word


@pytest.fixture(scope="module")
def report():
    return verify_tables()


class TestRoot:
    def test_root_is_ambiguous_with_four_missing_edges(self):
        res = classify_case(root_case())
        assert res.kind is Resolution.AMBIGUOUS
        assert res.missing == parse_edges("a.b, a.b^-1, a^-1.b, a^-1.b^-1")


class TestInitialSplit:
    def test_four_cases(self):
        cases = initial_split(root_case())
        assert [c.id for c in cases] == ["1", "2", "3", "4"]

    def test_case_one_graphs_coincide(self):
        one = initial_split(root_case())[0]
        assert iso_pointed(one.source, one.target)
        assert classify_case(one).kind is Resolution.POSITIVE

    def test_case_three_restrictions(self):
        three = initial_split(root_case())[2]
        assert three.restrictions.edges == parse_edges("v.u^-1, u.v^-1")

    def test_case_two_coordinates(self):
        two = initial_split(root_case())[1]
        coords = two.chain[-1]
        assert coords.images["a"].text == "y"
        assert coords.images["b"].text == "u"

    def test_case_with_chain_hashes(self):
        two = initial_split(root_case())[1]
        assert two.chain
        assert two in {two}


class TestSplitOnEdge:
    def test_split_shapes(self, report):
        parent = report.cases["2'"]
        edge = next(iter(parse_edges("u.y^-1")))
        children = split_on_edge(parent, edge)
        subs = {
            tuple(sorted((g, c.substitution.images[g].text)
                          for g in c.substitution.source.generators))
            for c in children
        }
        assert subs == {
            (("u", "u"), ("y", "y")),
            (("u", "u t"), ("y", "t^-1 y")),
            (("u", "u y^-1"), ("y", "y")),
            (("u", "u"), ("y", "u^-1 y")),
        }

    def test_identification_generated_when_admissible(self, report):
        parent = report.cases["x"]
        edge = next(iter(parse_edges("u.v")))
        children = split_on_edge(parent, edge)
        assert len(children) == 5
        ident = [c for c in children if c.index == 5][0]
        assert ident.substitution.images["v"].text == "u"
        assert classify_case(ident.case).kind is Resolution.POSITIVE

    def test_inverse_pair_split_has_two_shapes(self, report):
        parent = report.cases["3.1.1"]
        edge = next(iter(parse_edges("v.v^-1")))
        children = split_on_edge(parent, edge)
        assert [c.index for c in children] == [1, 2]
        fresh = children[1]
        assert fresh.substitution.images["v"].text == "t^-1 v t"

    def test_split_requires_ambiguous(self, report):
        done = report.cases["2.1"]
        with pytest.raises(NotAmbiguousError):
            split_on_edge(done, next(iter(parse_edges("u.y^-1"))))

    def test_split_requires_missing_edge(self, report):
        parent = report.cases["2'"]
        with pytest.raises(EdgeNotMissingError):
            split_on_edge(parent, next(iter(parse_edges("u.u^-1"))))

    def test_children_strictly_refine(self, report):
        from stallings.cases.engine import _tau

        parent = report.cases["x.1"]
        edge = next(iter(parse_edges("u^-1.v^-1")))
        for child in split_on_edge(parent, edge):
            renamed = set()
            for e in parent.restrictions.edges:
                a, b = tuple(e)
                renamed.add(
                    frozenset(
                        (_tau(child.substitution, a), _tau(child.substitution, b))
                    )
                )
            assert renamed <= child.case.restrictions.edges
            if child.index == 1:
                assert edge in child.case.restrictions.edges


class TestReduceTo:
    def test_printed_reductions(self, report):
        u = report.cases["3.2"]
        target = report.cases["x'"]
        renaming = make_substitution(target.alphabet, u.alphabet, {"x": "t"})
        assert reduce_to(u, target, renaming)

    def test_absorption_reduction(self, report):
        child = report.cases["x.3"]
        target = report.cases["x"]
        renaming = make_substitution(target.alphabet, child.alphabet, {"x": "u x"})
        assert reduce_to(child, target, renaming)

    def test_self_reduction_with_identity(self, report):
        case = report.cases["x"]
        identity = make_substitution(case.alphabet, case.alphabet, {})
        assert reduce_to(case, case, identity, require_square=True)

    def test_wrong_renaming_rejected(self, report):
        child = report.cases["x.3"]
        target = report.cases["x"]
        renaming = make_substitution(target.alphabet, child.alphabet, {"x": "v x"})
        assert not reduce_to(child, target, renaming)


class TestTableVerification:
    def test_all_rows_pass(self, report):
        failing = [r.id for r in report.rows if not r.ok]
        assert not failing

    def test_row_count(self, report):
        assert len(report.rows) == 38

    def test_spot_checks(self, report):
        by_id = {r.id: r for r in report.rows}
        assert by_id["2.2"].resolution == "positive"
        assert by_id["x'.1"].resolution == "positive"
        assert by_id["3.1"].missing == "u.u^-1, u^-1.v^-1, v.v^-1"
        assert by_id["3.1.1.2.2"].resolution == "positive"

    def test_positive_rows_transport_injectively(self, report):
        # sample admissible maps out of each fully restricted case
        rng = random.Random(5)
        target_alphabet = Alphabet.of("p", "q", "r")
        full = full_whitehead(target_alphabet)
        for row in report.rows:
            if row.resolution != "positive" or row.id == "root":
                continue
            case = report.cases[row.id]
            hits = 0
            for _ in range(200):
                if hits >= 10:
                    break
                phi = random_hom(rng, case.alphabet, target_alphabet, 3)
                if not is_restriction_morphism(
                    case.restrictions, full, phi
                ):
                    continue
                hits += 1
                assert subdivide(phi, case.target).is_folded()
                out = unbased_image_morphism(phi, case.morphism)
                assert classify(out).injective
            assert hits >= 5, row.id


class TestFuzz:
    def test_small_run_clean(self):
        rep = fuzz_example(trials=300, alphabet_size=2, max_len=5, seed=11)
        assert rep.ok and rep.trials == 300

    def test_rank_one_target(self):
        rep = fuzz_example(trials=100, alphabet_size=1, max_len=4, seed=3)
        assert rep.ok

    def test_deterministic_under_seed(self):
        a = fuzz_example(trials=50, alphabet_size=3, max_len=5, seed=9)
        b = fuzz_example(trials=50, alphabet_size=3, max_len=5, seed=9)
        assert a == b

    def test_orbit_invariance(self):
        rng = random.Random(17)
        root = root_case()
        x3 = Alphabet.of("p", "q", "r")
        for _ in range(25):
            phi = random_hom(rng, root.alphabet, x3, 4)
            u = random_reduced_word(rng, x3, 4)
            twisted = compose_homs(conjugation_hom(u, x3), phi)
            m1 = unbased_image_morphism(phi, root.morphism)
            m2 = unbased_image_morphism(twisted, root.morphism)
            assert morphisms_unpointed_isomorphic(m1, m2)
