import random
import time

import pytest

from stallings.cases import (
    FuzzReport,
    InjectivityCase,
    Reduction,
    Resolution,
    classify_case,
    fuzz_example,
    morphisms_unpointed_isomorphic,
    reduce_to,
    root_case,
    split_on_edge,
    table,
    verify_tables,
)
from stallings.cases import engine, fuzz
from stallings.cases.engine import given_case, make_substitution
from stallings.errors import (
    EdgeNotMissingError,
    InternalError,
    NotAmbiguousError,
    StallingsError,
)
from stallings.functor import image_morphism, unbased_image_morphism
from stallings.graph import MorphismClassification, classify, iso_pointed
from stallings.subgroups import Subgroup, inclusion_morphism
from stallings.whitehead import (
    RestrictionSet,
    code_edge,
    full_whitehead,
    is_restriction_morphism,
    parse_edges,
)
from stallings.words import Alphabet, conjugation_hom, compose_homs, identity_hom

from helpers import (
    image_paths,
    list_reduced_word,
    naive_is_folded,
    naive_isomorphism,
    naive_square_isomorphic,
    random_hom,
    random_reduced_word,
    spelled,
)


@pytest.fixture(scope="module")
def report():
    return verify_tables()


def images(phi) -> dict[str, str]:
    """A homomorphism's images as text, keyed by source generator."""
    return {g: phi.target.word(w).text for g, w in zip(phi.source.generators, phi.codes)}


def coordinate_cases():
    """The four coordinate-change cases: the given rows with ``coords``."""
    return [given_case(row) for row in table.ROWS if "coords" in row]


def parsed_edge(case, text):
    """The one Whitehead edge in ``text`` as codes over the case's alphabet."""
    (edge,) = RestrictionSet.parse(case.alphabet, text).codes
    return edge


class TestRoot:
    def test_root_is_ambiguous_with_four_missing_edges(self):
        res = classify_case(root_case())
        assert res.kind is Resolution.AMBIGUOUS
        assert res.missing.edges == parse_edges("a.b, a.b^-1, a^-1.b, a^-1.b^-1")


class TestNegative:
    def test_non_injective_inclusion_is_negative_with_nothing_missing(self):
        """Gamma(<a^2>) has two vertices, and both go to Gamma(<a>)'s one."""
        a = Alphabet.of("a")
        m = inclusion_morphism(Subgroup.of(a, "a a"), Subgroup.of(a, "a"))
        res = classify_case(InjectivityCase("square", RestrictionSet(a, frozenset()), m))
        assert res.kind is Resolution.NEGATIVE
        assert res.missing.alphabet is a
        assert res.missing.codes == frozenset()


class TestInternalErrors:
    """A bundled inclusion that fails raises, also under ``python -O``."""

    def test_root(self, monkeypatch):
        monkeypatch.setattr(engine, "inclusion_morphism", lambda h, k: None)
        with pytest.raises(StallingsError, match="^internal error: "):
            root_case()

    def test_initial_split(self, monkeypatch):
        monkeypatch.setattr(engine, "inclusion_morphism", lambda h, k: None)
        with pytest.raises(StallingsError, match="^internal error: case 1 "):
            coordinate_cases()

    def test_free_rows(self, monkeypatch):
        include = engine.inclusion_morphism
        monkeypatch.setattr(
            engine,
            "inclusion_morphism",
            lambda h, k: None if "x" in h.alphabet else include(h, k),
        )
        with pytest.raises(InternalError, match="^internal error: case x "):
            verify_tables()


class TestInitialSplit:
    def test_four_cases(self):
        cases = coordinate_cases()
        assert [c.id for c in cases] == ["1", "2", "3", "4"]

    def test_case_one_graphs_coincide(self):
        one = coordinate_cases()[0]
        assert iso_pointed(one.source, one.target)
        assert classify_case(one).kind is Resolution.POSITIVE

    def test_case_three_restrictions(self):
        three = coordinate_cases()[2]
        assert three.restrictions.edges == parse_edges("v.u^-1, u.v^-1")

    def test_case_two_coordinates(self):
        two = coordinate_cases()[1]
        coords = two.chain[-1]
        assert images(coords) == {"a": "y", "b": "u"}

    def test_case_with_chain_hashes(self):
        two = coordinate_cases()[1]
        assert two.chain
        assert two in {two}


class TestSplitOnEdge:
    def test_split_shapes(self, report):
        parent = report.cases["2'"]
        children = split_on_edge(parent, parsed_edge(parent, "u.y^-1"))
        subs = {tuple(sorted(images(c.substitution).items())) for c in children}
        assert subs == {
            (("u", "u"), ("y", "y")),
            (("u", "u t"), ("y", "t^-1 y")),
            (("u", "u y^-1"), ("y", "y")),
            (("u", "u"), ("y", "u^-1 y")),
        }

    def test_identification_generated_when_admissible(self, report):
        parent = report.cases["x"]
        children = split_on_edge(parent, parsed_edge(parent, "u.v"))
        assert len(children) == 5
        ident = [c for c in children if c.index == 5][0]
        assert images(ident.substitution)["v"] == "u"
        assert classify_case(ident.case).kind is Resolution.POSITIVE

    def test_inverse_pair_split_has_two_shapes(self, report):
        parent = report.cases["3.1.1"]
        children = split_on_edge(parent, parsed_edge(parent, "v.v^-1"))
        assert [c.index for c in children] == [1, 2]
        fresh = children[1]
        assert images(fresh.substitution)["v"] == "t^-1 v t"

    def test_split_requires_ambiguous(self, report):
        done = report.cases["2.1"]
        with pytest.raises(NotAmbiguousError):
            split_on_edge(done, parsed_edge(done, "u.y^-1"))

    def test_split_requires_missing_edge(self, report):
        parent = report.cases["2'"]
        with pytest.raises(EdgeNotMissingError):
            split_on_edge(parent, parsed_edge(parent, "u.u^-1"))

    def test_children_strictly_refine(self, report):
        from stallings.cases.engine import _tau

        parent = report.cases["x.1"]
        edge = parsed_edge(parent, "u^-1.v^-1")
        for child in split_on_edge(parent, edge):
            tau = lambda c: _tau(child.substitution, c)
            renamed = {code_edge(tau(c), tau(d)) for c, d in parent.restrictions.codes}
            assert renamed <= child.case.restrictions.codes
            if child.index == 1:
                assert edge in child.case.restrictions.codes


class TestChildRestrictions:
    def test_collapsing_renaming_gives_none(self):
        ab = Alphabet.of("a", "b")
        parent = RestrictionSet.parse(ab, "a.b, a.b^-1")
        # a -> b sends the edge a.b to the degenerate b.b
        psi = make_substitution(ab, ab, {"a": "b"})
        assert engine.child_restrictions(parent, psi, None) is None
        assert engine.child_restrictions(parent, identity_hom(ab), None) == parent.codes


class TestCorrectedFreshRows:
    """x'.2 and x.1.2 record the fresh letter with the opposite orientation.

    The source rows split u -> s u, v -> s v; the engine derives
    u -> s^-1 u, v -> s^-1 v.  Renaming s -> s^-1 carries either child to
    the other, so the table's corrected rows describe the same case.
    """

    @pytest.mark.parametrize(
        "row_id, parent_id, fresh, old_sub, old_n",
        [
            (
                "x'.2",
                "x'",
                "s",
                {"v": "s v", "u": "s u"},
                "t.s^-1, v.t^-1, u.t^-1, u.v, x.s^-1, u.x^-1, v.x^-1, "
                "u^-1.v^-1, s.v^-1, s.u^-1",
            ),
            (
                "x.1.2",
                "x.1",
                "t",
                {"v": "t v", "u": "t u"},
                "v.t^-1, u.t^-1, x.t^-1, u.x^-1, v.x^-1, u.v, t.u^-1, t.v^-1, "
                "u^-1.v^-1",
            ),
        ],
    )
    def test_recorded_orientation_is_isomorphic(
        self, report, row_id, parent_id, fresh, old_sub, old_n
    ):
        parent = report.cases[parent_id]
        edge = parsed_edge(parent, "u^-1.v^-1")
        (derived,) = [c for c in split_on_edge(parent, edge) if c.index == 2]
        engine = derived.case
        u = parent.alphabet.extended(fresh)
        psi = make_substitution(parent.alphabet, u, old_sub)
        recorded = InjectivityCase(
            row_id,
            RestrictionSet.parse(u, old_n),
            image_morphism(psi, parent.morphism),
        )
        flip = make_substitution(u, u, {fresh: f"{fresh}^-1"})
        assert reduce_to(engine, recorded, flip) is Reduction.SQUARE
        assert reduce_to(recorded, engine, flip) is Reduction.SQUARE

    @pytest.mark.parametrize(
        "row_id, renaming",
        [
            ("x'.2", {"x": "x s^-1", "t": "t s^-1"}),
            ("x.1.2", {"x": "x t^-1", "t": "t^-1"}),
        ],
    )
    def test_corrected_row_reduces_with_square(self, report, row_id, renaming):
        child = report.cases[row_id]
        target = report.cases["x'.1"]
        rho = make_substitution(target.alphabet, child.alphabet, renaming)
        assert reduce_to(child, target, rho) is Reduction.SQUARE


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
        assert reduce_to(case, case, identity) is Reduction.SQUARE

    def test_restrictions_must_carry_over(self, report):
        """Same graphs, but the child lacks the target's restrictions."""
        case = report.cases["x"]
        bare = InjectivityCase("bare", RestrictionSet(case.alphabet, frozenset()), case.morphism)
        identity = make_substitution(case.alphabet, case.alphabet, {})
        assert reduce_to(case, bare, identity) is Reduction.SQUARE
        assert not reduce_to(bare, case, identity)

    def test_wrong_renaming_rejected(self, report):
        child = report.cases["x.3"]
        target = report.cases["x"]
        renaming = make_substitution(target.alphabet, child.alphabet, {"x": "v x"})
        assert not reduce_to(child, target, renaming)


    def test_only_row_2_3_matches_just_the_graph_pair(self, report):
        """Every contained row's square commutes, except row 2.3's."""
        outcomes = {}
        for data in table.ROWS:
            if data["expect"] in ("positive", "ambiguous"):
                continue
            _, target_id, renaming_text = data["expect"]
            child, target = report.cases[data["id"]], report.cases[target_id]
            renaming = make_substitution(target.alphabet, child.alphabet, renaming_text)
            outcomes[data["id"]] = reduce_to(child, target, renaming)
        assert len(outcomes) == 17
        assert {i: r for i, r in outcomes.items() if r is not Reduction.SQUARE} == {
            "2.3": Reduction.GRAPH_PAIR
        }
        noted = [r.id for r in report.rows if "graph pair" in r.note]
        assert noted == ["2.3"]


class TestSquare:
    def test_one_vertex_decides_the_square(self):
        """The seeded target isomorphism against the square checked everywhere.

        Pairs of pointed and unbased images of the root inclusion over a
        rank-2 target; both kinds of pair the shortcut could confuse occur.
        """
        rng = random.Random(1)
        root = root_case()
        x2 = Alphabet.of("p", "q")
        morphisms = []
        for _ in range(60):
            phi = random_hom(rng, root.alphabet, x2, 4)
            morphisms += [
                image_morphism(phi, root.morphism),
                unbased_image_morphism(phi, root.morphism),
            ]

        def ends(g, d):
            return any(naive_isomorphism(g, d, 0, w) for w in range(d.n_vertices))

        positives = non_commuting = 0
        for i, f1 in enumerate(morphisms):
            for j, f2 in enumerate(morphisms):
                expected = naive_square_isomorphic(f1, f2)
                assert morphisms_unpointed_isomorphic(f1, f2) == expected, (i, j)
                if i == j:
                    continue
                if expected:
                    positives += 1
                elif ends(f1.source, f2.source) and ends(f1.target, f2.target):
                    non_commuting += 1
        assert positives > 100
        assert non_commuting > 100


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

    @pytest.mark.parametrize(
        "row_id, cell, value",
        [
            ("2.2", "sub", {"u": "u t", "y": "y"}),
            ("2.3", "index", 3),
        ],
    )
    def test_derivation_check_bites(self, monkeypatch, row_id, cell, value):
        """A wrong recorded cell fails its own row and no other."""
        rows = [dict(r) for r in table.ROWS]
        for r in rows:
            if r["id"] == row_id:
                r[cell] = value
        monkeypatch.setattr("stallings.cases.verify.ROWS", rows)
        failing = {
            r.id: [name for name, ok in r.checks.items() if not ok]
            for r in verify_tables().rows
            if not r.ok
        }
        assert list(failing) == [row_id]
        assert "substitution" in failing[row_id]

    @pytest.mark.parametrize("row_id", ["2'", "4'"])
    def test_first_children_are_derived(self, report, row_id):
        """2' and 4' are split rows, so their derivation is checked too."""
        (row,) = [r for r in report.rows if r.id == row_id]
        assert row.ok
        assert {"substitution", "restrictions"} <= set(row.checks)

    def test_given_rows_match_root_and_initial_split(self, report):
        for case in [root_case(), *coordinate_cases()]:
            derived = report.cases[case.id]
            assert derived.restrictions == case.restrictions
            assert iso_pointed(derived.source, case.source)
            assert iso_pointed(derived.target, case.target)
            assert derived.chain == case.chain

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
                g = case.target
                assert naive_is_folded(
                    spelled(target_alphabet, g.n_vertices, image_paths(phi, g), g.base)
                )
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

    def test_draw_sequence_is_pinned(self):
        """A seed replays the same homomorphisms as before code-word draws."""
        rng = random.Random(0)
        x3 = Alphabet.of("x1", "x2", "x3")
        assert [x3.word(random_reduced_word(rng, x3, 6)).text for _ in range(4)] == [
            "x2^-1 x1 x2^-1 x3^-1",
            "x2^-1 x2^-1 x3 x2",
            "x1^-1 x3^-1 x1^-1 x2^-1 x1^-1",
            "x3",
        ]

    @pytest.mark.parametrize("rank", [1, 2, 3, 7, 50])
    def test_draws_match_the_list_reference(self, rank):
        """Positions instead of letter lists: the same words, the same stream."""
        alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(rank)))
        for seed in range(200):
            ours, reference = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert random_reduced_word(ours, alphabet, 8) == list_reduced_word(
                    reference, alphabet, 8
                )
            assert ours.getstate() == reference.getstate()

    def test_draw_time_does_not_grow_with_rank(self):
        """One letter costs the same at rank 100,000 as at rank 3."""
        rng = random.Random(0)
        wide = Alphabet(tuple(f"x{i + 1}" for i in range(100_000)))
        start = time.perf_counter()
        words = [random_reduced_word(rng, wide, 6) for _ in range(40)]
        assert time.perf_counter() - start < 0.05
        assert all(0 < abs(c) <= 100_000 for w in words for c in w)

    # max_len 6: at 12 generators or fewer a trial may draw them all, and
    # the whole alphabet is named; past that, only the ones a trial draws
    @pytest.mark.parametrize("alphabet_size", [1, 5, 12, 13, 40, 2000])
    def test_failures_match_a_loop_over_the_whole_alphabet(self, monkeypatch, alphabet_size):
        """Trials 1, 4, 5 and 9 of 10 fail: their lines name the drawn generators ``x<code>``."""
        failing, verdicts, targets = {1, 4, 5, 9}, iter(range(10)), []
        transport = fuzz.unbased_image_morphism

        def recorded(phi, f):
            targets.append(phi.target)
            return transport(phi, f)

        def verdict(m):
            ok = next(verdicts) not in failing
            return MorphismClassification(ok, ok, True, True)

        monkeypatch.setattr(fuzz, "unbased_image_morphism", recorded)
        monkeypatch.setattr(fuzz, "classify", verdict)
        report = fuzz_example(trials=10, alphabet_size=alphabet_size, max_len=6, seed=3)
        rng, source = random.Random(3), root_case().alphabet.generators
        whole = Alphabet(tuple(f"x{i + 1}" for i in range(alphabet_size)))
        lines = []
        for trial, target in enumerate(targets):
            drawn = [list_reduced_word(rng, whole, 6) for _ in source]
            names = tuple(f"x{c}" for c in sorted({abs(c) for w in drawn for c in w}))
            assert target.generators == (whole.generators if alphabet_size <= 12 else names)
            if trial in failing:
                lines.append("; ".join(f"{g} -> {whole.word(w).text}" for g, w in zip(source, drawn)))
        assert len(targets) == 10
        assert report == FuzzReport(10, alphabet_size, 6, 3, tuple(lines))
        assert report.summary().endswith(": 4 NON-INJECTIVE counterexamples")

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
