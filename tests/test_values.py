"""Value semantics of the library's small immutable types.

``MorphismClassification``, ``GroupHom``, ``Subgroup``,
``RestrictionSet`` and ``AdmissibilityReport`` compare and hash by
their fields, refuse assignment and deletion, print their pinned reprs
and survive ``copy``, ``deepcopy`` and ``pickle``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from stallings import (
    AdmissibilityReport,
    GroupHom,
    MorphismClassification,
    RestrictionSet,
    Subgroup,
    classify,
    contains,
    gamma,
    inclusion_morphism,
    is_restriction_morphism,
    load_subgroup,
    parse_hom,
    parse_word,
    whitehead_graph,
)
from stallings.words import Alphabet

AB = Alphabet.of("a", "b")
K_TEXT = "b\na b a^-1\n"
HOM_TEXT = "a -> b\nb -> a b a^-1\n"

# the fields that == and hash go by, in order
FIELDS = {
    MorphismClassification: (
        "vertex_injective", "edge_injective", "vertex_surjective", "edge_surjective"
    ),
    GroupHom: ("source", "target", "codes"),
    Subgroup: ("alphabet", "codes"),
    RestrictionSet: ("alphabet", "codes"),
    AdmissibilityReport: ("ok", "violations"),
}

MATCH_ARGS = {
    MorphismClassification: FIELDS[MorphismClassification],
    GroupHom: ("source", "target", "codes"),
    Subgroup: ("alphabet", "codes", "_core"),
    RestrictionSet: ("alphabet", "codes"),
    AdmissibilityReport: ("ok", "violations"),
}


def _values():
    """Two independently built equal values, and one that differs, per type."""
    h, k = load_subgroup("b\n", AB), load_subgroup(K_TEXT, AB)
    m = inclusion_morphism(h, k)
    phi = parse_hom(HOM_TEXT)
    src = RestrictionSet(phi.source, frozenset())
    dst = whitehead_graph(gamma(load_subgroup(K_TEXT)))  # over phi's target
    wk = whitehead_graph(gamma(k))
    return [
        (
            classify(m),
            MorphismClassification(True, True, False, False),
            MorphismClassification(True, True, False, True),
        ),
        (phi, parse_hom(HOM_TEXT), parse_hom("a -> b\nb -> a\n")),
        (k, Subgroup(AB, [parse_word("b"), parse_word("a b a^-1")]), h),
        (
            wk,
            RestrictionSet(AB, frozenset(wk.codes)),
            RestrictionSet(AB, frozenset(sorted(wk.codes)[1:])),
        ),
        (
            is_restriction_morphism(src, dst, phi),
            AdmissibilityReport(True, ()),
            AdmissibilityReport(False, ("(i) image of a is trivial",)),
        ),
    ]


VALUES = _values()
IDS = [type(v[0]).__name__ for v in VALUES]


def _key(x):
    return tuple(getattr(x, f) for f in FIELDS[type(x)])


@pytest.mark.parametrize("a, b, other", VALUES, ids=IDS)
def test_equality_and_hash_go_by_the_fields(a, b, other):
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(_key(a))
    assert a != other and _key(a) != _key(other)
    assert a != _key(a)  # a tuple of the same fields is no value of the type
    assert a.__eq__(object()) is NotImplemented


def test_types_differ_even_with_equal_fields():
    trivial = Subgroup(AB, [])
    report = AdmissibilityReport(AB, ())  # the same field values, in another type
    assert _key(trivial) == _key(report)
    assert trivial != report and report != trivial


def test_subgroup_ignores_its_stored_core():
    built, fresh = load_subgroup(K_TEXT, AB), load_subgroup(K_TEXT, AB)
    before = hash(built)
    gamma(built)
    assert built._core is not None and fresh._core is None
    assert built == fresh and fresh == built
    assert hash(built) == hash(fresh) == before


@pytest.mark.parametrize("cls", list(MATCH_ARGS), ids=[c.__name__ for c in MATCH_ARGS])
def test_match_args(cls):
    assert cls.__match_args__ == MATCH_ARGS[cls]


def test_keyword_construction_and_match():
    c = MorphismClassification(
        vertex_injective=True, edge_injective=False, vertex_surjective=True, edge_surjective=True
    )
    assert (c.injective, c.surjective) == (False, True)
    match c:
        case MorphismClassification(vi, ei, vs, es):
            assert (vi, ei, vs, es) == (True, False, True, True)
        case _:
            pytest.fail("no match")
    r = AdmissibilityReport(ok=False, violations=("x",))
    assert not r and r.violations == ("x",)
    s = RestrictionSet(alphabet=AB, codes={(1, 2)})
    assert type(s.codes) is frozenset and s.codes == {(1, 2)}


def test_pinned_reprs():
    assert repr(MorphismClassification(True, True, True, False)) == (
        "MorphismClassification(vertex_injective=True, edge_injective=True, "
        "vertex_surjective=True, edge_surjective=False)"
    )
    assert repr(AdmissibilityReport(True, ())) == "AdmissibilityReport(ok=True, violations=())"
    assert repr(AdmissibilityReport(False, ("v",))) == (
        "AdmissibilityReport(ok=False, violations=('v',))"
    )
    assert repr(parse_hom(HOM_TEXT)) == "GroupHom(a -> b, b -> a b a^-1)"
    assert repr(load_subgroup(K_TEXT)) == "Subgroup<b, a b a^-1>"
    assert repr(RestrictionSet(AB, frozenset({(-1, 2)}))) == "RestrictionSet(a^-1.b)"
    assert repr(RestrictionSet(AB, frozenset())) == "RestrictionSet(empty)"


@pytest.mark.parametrize("a, b, other", VALUES, ids=IDS)
def test_fields_refuse_assignment_and_deletion(a, b, other):
    for name in FIELDS[type(a)]:
        value = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_subgroup_core_refuses_assignment():
    h = load_subgroup(K_TEXT)
    g = gamma(h)
    with pytest.raises(AttributeError):
        h._core = None
    with pytest.raises(AttributeError):
        del h._core
    assert gamma(h) is g


CLONES = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
CLONE_IDS = ["copy", "deepcopy", "pickle"]


@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
@pytest.mark.parametrize("a, b, other", VALUES, ids=IDS)
def test_round_trips(clone, a, b, other):
    out = clone(a)
    assert type(out) is type(a)
    assert out == a and hash(out) == hash(a) and repr(out) == repr(a)
    assert out != other
    with pytest.raises(AttributeError):
        setattr(out, FIELDS[type(a)][0], None)


@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
def test_cloned_subgroup_with_core_answers(clone):
    h = load_subgroup(K_TEXT)
    gamma(h)
    out = clone(h)
    assert out == h and hash(out) == hash(h)
    assert out.alphabet is h.alphabet
    assert out._core == h._core
    assert contains(out, parse_word("a b^-1 a^-1 b"))
    assert not contains(out, parse_word("a"))
    assert gamma(out) == gamma(h)


@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
def test_cloned_hom_maps(clone):
    phi = parse_hom(HOM_TEXT)
    out = clone(phi)
    assert out.source is phi.source and out.target is phi.target
    assert out.image((1, 2)) == phi.image((1, 2))
