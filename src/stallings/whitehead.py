"""Whitehead graphs, restriction sets, and admissible homomorphisms.

The Whitehead graph of a labeled graph records which pairs of signed
letters appear around a common vertex; its edges are unordered pairs of
distinct letters.  A restriction set is a subset of the full Whitehead
graph over an alphabet.  A homomorphism is admissible between two
restricted alphabets when the images respect both restriction sets via
last-letter conditions; admissible maps out of an alphabet whose
restrictions contain a graph's Whitehead graph keep that graph's edge
subdivisions folded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlphabetMismatchError, NotFoldedError, UnknownGeneratorError
from .graph import LabeledGraph, path_graph
from .words import Alphabet, GroupHom, Letter, Word, last_letter, parse_letter

WhiteheadEdge = frozenset  # a frozenset of two distinct Letters


def whitehead_edge(a: Letter, b: Letter) -> WhiteheadEdge:
    if a == b:
        raise AlphabetMismatchError(f"degenerate Whitehead edge {a!r}.{b!r}")
    return frozenset((a, b))


def format_edge(e: WhiteheadEdge) -> str:
    a, b = sorted(e, key=lambda l: (l.gen, -l.sign))
    return f"{a.token}.{b.token}"


def parse_edges(text: str) -> frozenset[WhiteheadEdge]:
    """Parse comma-separated ``x.y`` pairs in letter token syntax."""
    edges = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "." not in chunk:
            raise UnknownGeneratorError(f"bad Whitehead edge {chunk!r}")
        left, right = chunk.split(".", 1)
        edges.add(whitehead_edge(parse_letter(left.strip()), parse_letter(right.strip())))
    return frozenset(edges)


@dataclass(frozen=True)
class RestrictionSet:
    """An alphabet together with a set of Whitehead edges over it."""

    alphabet: Alphabet
    edges: frozenset[WhiteheadEdge]

    def __post_init__(self):
        for e in self.edges:
            for l in e:
                if l.gen not in self.alphabet:
                    raise AlphabetMismatchError(f"{l!r} outside {self.alphabet.generators}")

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "RestrictionSet":
        return cls(alphabet, parse_edges(text))

    def __contains__(self, e: WhiteheadEdge) -> bool:
        return e in self.edges

    def __le__(self, other: "RestrictionSet") -> bool:
        return self.edges <= other.edges

    def union(self, *edges: WhiteheadEdge) -> "RestrictionSet":
        return RestrictionSet(self.alphabet, self.edges | set(edges))

    @property
    def text(self) -> str:
        return ", ".join(sorted(format_edge(e) for e in self.edges))

    def __repr__(self) -> str:
        return f"RestrictionSet({self.text or 'empty'})"


def whitehead_graph(g: LabeledGraph) -> RestrictionSet:
    """Whitehead edges from all length-two reduced turns in the graph.

    Two distinct half-edges with labels x, y at a common vertex give the
    edge {x^-1, y^-1}; a loop contributes the edge {x, x^-1} at its
    vertex.  Degenerate pairs (equal labels at an unfolded vertex) are
    not representable and are skipped.
    """
    edges: set[WhiteheadEdge] = set()
    decode = g.alphabet.decode
    for v in range(g.n_vertices):
        inverses = [decode(-g.elabel[e]) for e in g.out_edges(v)]
        for i, a in enumerate(inverses):
            for b in inverses[i + 1 :]:
                if a != b:
                    edges.add(frozenset((a, b)))
    return RestrictionSet(g.alphabet, frozenset(edges))


def full_whitehead(alphabet: Alphabet) -> RestrictionSet:
    """All unordered pairs of distinct signed letters."""
    letters = alphabet.letters()
    edges = set()
    for i in range(len(letters)):
        for j in range(i + 1, len(letters)):
            edges.add(frozenset((letters[i], letters[j])))
    return RestrictionSet(alphabet, frozenset(edges))


def word_link(w: Word, alphabet: Alphabet) -> RestrictionSet:
    """Whitehead edges forced by spelling a word along a path."""
    return whitehead_graph(path_graph(w, alphabet))


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_restriction_morphism(
    src: RestrictionSet, dst: RestrictionSet, phi: GroupHom
) -> AdmissibilityReport:
    """Check the four admissibility conditions of a homomorphism.

    (i) no generator image is trivial; (ii) each image word only spells
    turns allowed by the target restrictions; (iii) letters joined by a
    source restriction get images with distinct last letters; (iv) those
    last letters form a target restriction.
    """
    if phi.source.generators != src.alphabet.generators:
        raise AlphabetMismatchError("homomorphism source does not match")
    if phi.target.generators != dst.alphabet.generators:
        raise AlphabetMismatchError("homomorphism target does not match")
    violations: list[str] = []
    for g in phi.source.generators:
        if not phi.images[g]:
            violations.append(f"(i) image of {g} is trivial")
    if violations:
        return AdmissibilityReport(False, tuple(violations))
    for g in phi.source.generators:
        bad = word_link(phi.images[g], dst.alphabet).edges - dst.edges
        for e in sorted(bad, key=format_edge):
            violations.append(f"(ii) image of {g} spells forbidden turn {format_edge(e)}")
    for e in src.edges:
        a, b = tuple(e)
        ta = last_letter(phi.letter_image(a))
        tb = last_letter(phi.letter_image(b))
        if ta == tb:
            violations.append(
                f"(iii) images of {a.token} and {b.token} share last letter {ta.token}"
            )
        elif frozenset((ta, tb)) not in dst.edges:
            violations.append(
                f"(iv) last letters {format_edge(frozenset((ta, tb)))} of "
                f"{format_edge(e)} not allowed"
            )
    return AdmissibilityReport(not violations, tuple(violations))


def preserves_folding(phi: GroupHom, g: LabeledGraph) -> bool:
    """True iff subdividing the graph's edges by the images stays folded."""
    from .functor import subdivide  # local import to avoid a cycle

    if not g.is_folded():
        return False
    return subdivide(phi, g).is_folded()


def guarantees_folding(restrictions: RestrictionSet, g: LabeledGraph) -> bool:
    """Do the restrictions cover the graph's Whitehead edges?

    If so, every admissible homomorphism out of them keeps the graph's
    subdivision folded.
    """
    if not g.is_folded():
        raise NotFoldedError("the guarantee is about folded graphs")
    return whitehead_graph(g).edges <= restrictions.edges
