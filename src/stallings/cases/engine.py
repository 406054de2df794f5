"""Injectivity cases and their refinement by case splitting.

A case is an inclusion morphism of pointed core graphs over a restricted
alphabet.  It resolves negatively when the morphism is not injective,
positively when the restrictions cover the target's Whitehead graph (so
every admissible homomorphism keeps both subdivisions folded and the
transported morphism injective), and is ambiguous otherwise.  An
ambiguous case splits along one missing Whitehead edge into at most five
refined cases, one per cancellation pattern of the two letters' images;
their union exhausts all admissible homomorphisms.  A case can also be
reduced to another by renaming its letters to words of the other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import EdgeNotMissingError, InternalError, NotAmbiguousError
from ..graph import (
    GraphMorphism,
    LabeledGraph,
    _isomorphism,
    classify,
    unpointed_isomorphic,
)
from ..functor import image_morphism
from ..subgroups import Subgroup, inclusion_morphism
from ..whitehead import (
    RestrictionSet,
    WhiteheadEdge,
    _tau,
    code_edge,
    format_edge,
    is_restriction_morphism,
    whitehead_graph,
    word_link,
)
from ..words import (
    Alphabet,
    GroupHom,
    identity_hom,
    invert_codes,
    parse_codes,
    reduce_codes,
)
from .table import ROWS


@dataclass(frozen=True)
class InjectivityCase:
    """An inclusion morphism of pointed core graphs plus restrictions."""

    id: str
    restrictions: RestrictionSet
    morphism: GraphMorphism
    chain: tuple[GroupHom, ...] = ()

    @property
    def alphabet(self) -> Alphabet:
        return self.restrictions.alphabet

    @property
    def source(self) -> LabeledGraph:
        return self.morphism.source

    @property
    def target(self) -> LabeledGraph:
        return self.morphism.target

    def __repr__(self) -> str:
        return f"InjectivityCase({self.id!r})"


class Resolution(enum.Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class CaseResolution:
    kind: Resolution
    missing: RestrictionSet


def classify_case(case: InjectivityCase) -> CaseResolution:
    """Negative, positive, or ambiguous with the missing Whitehead edges."""
    if not classify(case.morphism).injective:
        return CaseResolution(Resolution.NEGATIVE, RestrictionSet(case.alphabet, frozenset()))
    missing = whitehead_graph(case.target).codes - case.restrictions.codes
    kind = Resolution.AMBIGUOUS if missing else Resolution.POSITIVE
    return CaseResolution(kind, RestrictionSet(case.alphabet, missing))


# -- substitution machinery ------------------------------------------------


def make_substitution(
    source: Alphabet, target: Alphabet, images_text: dict[str, str]
) -> GroupHom:
    """A homomorphism given by generator images, identity where omitted."""
    lines = [images_text.get(g, g).split() for g in source.generators]
    return GroupHom._raw(source, target, parse_codes(lines, target)[1])


def child_restrictions(
    parent: RestrictionSet, psi: GroupHom, add_edge: WhiteheadEdge | None
) -> frozenset[WhiteheadEdge] | None:
    """Transport restrictions through a substitution.

    Each edge is renamed through the images' last letters; the turns
    spelled by multi-letter images are added; for the identity and
    fresh-letter split shapes, the resolved edge itself is added.
    Edges are codes: the parent's over the substitution's source, the
    result over its target.  Returns None when a renaming degenerates,
    i.e. the substitution contradicts an existing restriction.
    """
    edges = {code_edge(_tau(psi, c), _tau(psi, d)) for c, d in parent.codes}
    if any(c == d for c, d in edges):
        return None
    for codes in psi.codes:
        edges |= word_link(codes)
    if add_edge is not None:
        edges.add(add_edge)
    return frozenset(edges)


@dataclass(frozen=True)
class SplitCase:
    parent: str
    selector: WhiteheadEdge
    index: int
    substitution: GroupHom
    case: InjectivityCase


def _suffix_rules(
    alphabet: Alphabet, target: Alphabet, rules: list[tuple[int, tuple[int, ...]]]
) -> GroupHom:
    """Build a substitution from 'letter gains suffix' rules.

    A rule (c, w) postfixes the code word w to the image of the letter
    with code c; for an inverse letter that prefixes the inverse of w to
    the generator.  ``target`` extends ``alphabet`` at the end, if at all.
    """
    images = list(identity_hom(alphabet).codes)
    for c, w in rules:
        i = abs(c) - 1
        if c > 0:
            images[i] = reduce_codes(images[i] + w)
        else:
            images[i] = reduce_codes(invert_codes(w) + images[i])
    return GroupHom._raw(alphabet, target, tuple(images))


def split_on_edge(case: InjectivityCase, edge: WhiteheadEdge) -> list[SplitCase]:
    """Split an ambiguous case along one missing Whitehead edge.

    Up to five children: the letters' images (1) keep distinct last
    letters, (2) share a proper common suffix, named by the alphabet's
    ``fresh_name``, (3) the first ends with the whole of the second,
    (4) vice versa, (5) the images coincide.  The edge is a pair of codes
    over the case's alphabet, taken in alphabet order, generator before
    inverse.  Children whose restriction renaming degenerates are
    impossible and dropped.
    """
    res = classify_case(case)
    if res.kind is not Resolution.AMBIGUOUS:
        raise NotAmbiguousError(f"case {case.id} is {res.kind.value}")
    u = case.alphabet
    if edge not in res.missing.codes:
        raise EdgeNotMissingError(f"{format_edge(u, edge)} is not missing in {case.id}")

    # t extends u at the end, so the edge's codes keep their meaning over
    # the extended alphabet
    a, b = sorted(edge, key=Alphabet.code_index)
    extended = u.extended(u.fresh_name())
    t = (len(extended),)

    candidates: list[tuple[int, GroupHom, WhiteheadEdge | None]] = [
        (1, identity_hom(u), edge),
        (2, _suffix_rules(u, extended, [(a, t), (b, t)]), edge),
    ]
    if abs(a) != abs(b):
        # b -> a, so b's generator goes to a or its inverse
        identify = list(identity_hom(u).codes)
        identify[abs(b) - 1] = (a if b > 0 else -a,)
        smaller = u.without(u.generators[abs(b) - 1])
        candidates += [
            (3, _suffix_rules(u, u, [(a, (b,))]), None),
            (4, _suffix_rules(u, u, [(b, (a,))]), None),
            (5, GroupHom._raw(u, smaller, tuple(smaller.recode(w, u) for w in identify)), None),
        ]

    children: list[SplitCase] = []
    for index, psi, add_edge in candidates:
        edges = child_restrictions(case.restrictions, psi, add_edge)
        if edges is None:
            continue
        child = InjectivityCase(
            f"{case.id}.{index}",
            RestrictionSet(psi.target, edges),
            image_morphism(psi, case.morphism),
            case.chain + (psi,),
        )
        children.append(SplitCase(case.id, edge, index, psi, child))
    return children


# -- comparing cases -------------------------------------------------------


def morphisms_unpointed_isomorphic(f1: GraphMorphism, f2: GraphMorphism) -> bool:
    """Do two morphisms agree up to base-point-free isomorphisms?

    Both ways round the square are morphisms out of a connected graph
    into a folded one, so they are equal once they agree at one vertex:
    a source isomorphism 0 -> w needs only the target isomorphism
    ``f1.vmap[0] -> f2.vmap[w]``.
    """
    return any(
        _isomorphism(f1.source, f2.source, 0, w) is not None
        and _isomorphism(f1.target, f2.target, f1.vmap[0], f2.vmap[w]) is not None
        for w in range(f2.source.n_vertices)
    )


class Reduction(enum.Enum):
    SQUARE = "square"  # the renamed inclusion matches as a commuting square
    GRAPH_PAIR = "graph pair"  # only its source and target match


def reduce_to(
    child: InjectivityCase, target: InjectivityCase, renaming: GroupHom
) -> Reduction | None:
    """Is the child an instance of the target under the renaming?

    The renaming sends the target's letters to words over the child's
    alphabet.  It must be a restriction morphism from the target's
    restrictions to the child's (``is_restriction_morphism``: through
    last letters, with the spelled turns of multi-letter images also
    restricted, so that images stay cancellation free); then every
    admissible homomorphism out of the child composes to an admissible
    one out of the target.  The renamed graphs must reproduce the
    child's source and target up to base-point-free isomorphism.

    Usually the renamed inclusion also matches the child's as a
    commuting square of base-point-free isomorphisms (``SQUARE``); one
    recorded reduction differs from its target by an inner conjugation
    of the outer subgroup and matches only the graph pair
    (``GRAPH_PAIR``).  None means no reduction.
    """
    if renaming.source is not target.alphabet:
        return None
    if renaming.target is not child.alphabet:
        return None
    if not is_restriction_morphism(target.restrictions, child.restrictions, renaming):
        return None
    m = image_morphism(renaming, target.morphism)
    if morphisms_unpointed_isomorphic(m, child.morphism):
        return Reduction.SQUARE
    if unpointed_isomorphic(m.source, child.source) and unpointed_isomorphic(
        m.target, child.target
    ):
        return Reduction.GRAPH_PAIR
    return None


# -- the bundled example ----------------------------------------------------


def given_case(row: dict) -> InjectivityCase:
    """The case of a given table row: the inclusion of its inner subgroup.

    A row with ``coords`` records the root's generators as words over
    its alphabet; that change of coordinates is the case's chain.
    """
    u = Alphabet(row["alphabet"])
    m = inclusion_morphism(Subgroup.of(u, *row["inner"]), Subgroup.of(u, *row["outer"]))
    if m is None:
        raise InternalError(f"internal error: case {row['id']} is not an inclusion")
    chain = ()
    if "coords" in row:
        chain = (make_substitution(Alphabet(ROWS[0]["alphabet"]), u, row["coords"]),)
    return InjectivityCase(row["id"], RestrictionSet.parse(u, row["n"]), m, chain)


def root_case() -> InjectivityCase:
    """The loop-inside-conjugate-pair inclusion over {a, b}.

    The inner subgroup is generated by b, the outer one by b and a b a^-1;
    the starting restriction records that the inner generator's image may
    be taken cyclically reduced.
    """
    return given_case(ROWS[0])
