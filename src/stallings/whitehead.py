"""Whitehead graphs, restriction sets, and admissible homomorphisms.

The Whitehead graph of a labeled graph records which pairs of signed
letters appear around a common vertex; its edges are unordered pairs of
distinct letters, stored as pairs (c, d), c < d, of label codes over the
graph's alphabet.  A restriction set is a subset of the full Whitehead
graph over an alphabet.  A homomorphism is admissible between two
restricted alphabets when the images respect both restriction sets via
last-letter conditions; admissible maps out of an alphabet whose
restrictions contain a graph's Whitehead graph keep that graph's edge
subdivisions folded.  Letters appear only where edges are parsed or printed.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Sequence

from .errors import AlphabetMismatchError, UnknownGeneratorError
from .functor import _image_paths
from .graph import LabeledGraph
from .words import Alphabet, GroupHom, Letter, _Value, parse_letter

# Two distinct label codes (c, d), c < d, over a restriction set's
# alphabet; parse_edges and the RestrictionSet.edges view hold frozensets
# of two Letters instead.
WhiteheadEdge = tuple[int, int]


def code_edge(c: int, d: int) -> WhiteheadEdge:
    """The code edge joining c and d: the two codes in increasing order."""
    return (c, d) if c < d else (d, c)


def format_edge(alphabet: Alphabet, e: WhiteheadEdge) -> str:
    """``x.y`` for a code edge, its letters ordered by name, generator first."""
    letters = [alphabet.decode(c) for c in e]
    key = lambda l: (l.gen, -l.sign)
    return f"{min(letters, key=key).token}.{max(letters, key=key).token}"


def parse_edges(text: str) -> frozenset[frozenset[Letter]]:
    """Parse comma-separated ``x.y`` pairs in letter token syntax."""
    edges = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "." not in chunk:
            raise UnknownGeneratorError(f"bad Whitehead edge {chunk!r}")
        a, b = (parse_letter(t.strip()) for t in chunk.split(".", 1))
        if a == b:
            raise AlphabetMismatchError(f"degenerate Whitehead edge {a!r}.{b!r}")
        edges.add(frozenset((a, b)))
    return frozenset(edges)


def _check_range(alphabet: Alphabet, groups: Iterable[Iterable[int]]) -> None:
    """Every code in the groups labels a letter of the alphabet."""
    rank = len(alphabet)
    outside = set().union(*groups).difference(range(-rank, 0), range(1, rank + 1))
    if outside:
        raise AlphabetMismatchError(f"code {min(outside)} outside {alphabet.generators}")


class RestrictionSet(_Value):
    """An alphabet together with a set of Whitehead edges over it."""

    alphabet: Alphabet
    codes: frozenset[WhiteheadEdge]
    __match_args__ = _fields = ("alphabet", "codes")

    def __init__(self, alphabet: Alphabet, codes: frozenset[WhiteheadEdge]):
        # one snapshot is checked and kept frozen, so a caller's set that
        # changes later changes neither
        codes = tuple(codes)
        # a set of two codes, a string or a pair of names is no pair of codes
        # either; repr orders edges of mixed kinds
        shapeless = [
            e
            for e in codes
            if not isinstance(e, tuple) or len(e) != 2 or not all(type(c) is int for c in e)
        ]
        if shapeless:
            e = min(shapeless, key=repr)
            raise AlphabetMismatchError(f"Whitehead edge {e!r} is not a pair of codes")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "codes", frozenset(codes))
        _check_range(alphabet, codes)
        bad = [e for e in codes if e[0] >= e[1]]
        if not bad:
            return
        e = min(bad)
        if e[0] == e[1]:
            text = format_edge(alphabet, e)
            raise AlphabetMismatchError(f"degenerate Whitehead edge {text}")
        raise AlphabetMismatchError(f"unordered Whitehead edge {e}: code_edge gives {e[::-1]}")

    @classmethod
    def _raw(cls, alphabet: Alphabet, codes: frozenset[WhiteheadEdge]) -> "RestrictionSet":
        """Pairs (c, d), c < d, of codes already checked against the alphabet."""
        restrictions = cls.__new__(cls)
        object.__setattr__(restrictions, "alphabet", alphabet)
        object.__setattr__(restrictions, "codes", codes)
        return restrictions

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "RestrictionSet":
        edges = parse_edges(text)
        foreign = [l for e in edges for l in e if l not in alphabet]
        if foreign:
            raise AlphabetMismatchError(f"{min(foreign)!r} outside {alphabet.generators}")
        return cls(alphabet, frozenset(code_edge(*alphabet.encode(e)) for e in edges))

    @property
    def edges(self) -> frozenset[frozenset[Letter]]:
        """The edges as pairs of letters."""
        decode = self.alphabet.decode
        return frozenset(frozenset(map(decode, e)) for e in self.codes)

    @property
    def text(self) -> str:
        return ", ".join(sorted(format_edge(self.alphabet, e) for e in self.codes))

    def __repr__(self) -> str:
        return f"RestrictionSet({self.text or 'empty'})"


def whitehead_graph(g: LabeledGraph) -> RestrictionSet:
    """Whitehead edges from all length-two reduced turns in the graph.

    Two distinct half-edges with labels x, y at a common vertex give the
    edge {x^-1, y^-1}; a loop contributes the edge {x, x^-1} at its
    vertex.  Degenerate pairs (equal labels at an unfolded vertex) are
    not representable and are skipped.
    """
    # an inner vertex of a chain, between labels a and b, has out-labels
    # -a and b: its star is {a, -b}, one edge unless a == -b (unfolded)
    branch, chains = g._chain_table()
    turns, labels = set(), set()  # the pairs of labels along chains, and the labels
    stars: dict[int, list[int]] = {v: [] for v in branch}
    for u, w, word, _ in chains:
        turns.update(zip(word, word[1:]))
        labels.update(word)
        stars[u].append(-word[0])
        stars[w].append(word[-1])
    # one test over the labels checks every code the edges are made of
    rank = len(g.alphabet)
    if labels and (max(labels) > rank or min(labels) < -rank or 0 in labels):
        _check_range(g.alphabet, [labels, [-c for c in labels]])
    pairs = [(a, -b) if a < -b else (-b, a) for a, b in turns if a != -b]
    # a branch vertex's star gives every pair of its codes; vertices with
    # the same codes give the same pairs, and a set drops repeated codes
    wider = {frozenset(s) for s in stars.values() if len(s) > 1}
    edges = chain(pairs, *[combinations(sorted(s), 2) for s in wider])
    return RestrictionSet._raw(g.alphabet, frozenset(edges))


def full_whitehead(alphabet: Alphabet) -> RestrictionSet:
    """All unordered pairs of distinct signed letters."""
    rank = len(alphabet)
    codes = [*range(-rank, 0), *range(1, rank + 1)]
    return RestrictionSet._raw(alphabet, frozenset(combinations(codes, 2)))


def word_link(codes: Sequence[int]) -> frozenset[WhiteheadEdge]:
    """The turns {c_i, -c_(i+1)} spelled by a reduced code word along a path."""
    return frozenset([code_edge(c, -d) for c, d in zip(codes, codes[1:])])


def _tau(phi: GroupHom, c: int) -> int:
    """Code of the last letter of the image of the letter with code c."""
    codes = phi.codes[abs(c) - 1]
    return codes[-1] if c > 0 else -codes[0]


class AdmissibilityReport(_Value):
    ok: bool
    violations: tuple[str, ...]
    __match_args__ = _fields = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[str, ...]):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "violations", violations)

    def __bool__(self) -> bool:
        return self.ok


def is_restriction_morphism(
    src: RestrictionSet, dst: RestrictionSet, phi: GroupHom
) -> AdmissibilityReport:
    """Check the four admissibility conditions of a homomorphism.

    (i) no generator image is trivial; (ii) each image word only spells
    turns allowed by the target restrictions; (iii) letters joined by a
    source restriction get images with distinct last letters; (iv) those
    last letters form a target restriction.  Violations of (ii) are
    listed per generator, those of (iii) and (iv) by source edge, each
    sorted by edge text.
    """
    if phi.source is not src.alphabet:
        raise AlphabetMismatchError("homomorphism source does not match")
    if phi.target is not dst.alphabet:
        raise AlphabetMismatchError("homomorphism target does not match")
    violations: list[str] = []
    for g, codes in zip(phi.source.generators, phi.codes):
        if not codes:
            violations.append(f"(i) image of {g} is trivial")
    if violations:
        return AdmissibilityReport(False, tuple(violations))
    for g, codes in zip(phi.source.generators, phi.codes):
        bad = word_link(codes) - dst.codes
        for text in sorted(format_edge(dst.alphabet, e) for e in bad):
            violations.append(f"(ii) image of {g} spells forbidden turn {text}")
    for text, e in sorted((format_edge(src.alphabet, e), e) for e in src.codes):
        ta, tb = (_tau(phi, c) for c in e)
        if ta == tb:
            a, b = text.split(".")
            violations.append(
                f"(iii) images of {a} and {b} share last letter "
                f"{dst.alphabet.decode(ta).token}"
            )
        elif code_edge(ta, tb) not in dst.codes:
            violations.append(
                f"(iv) last letters {format_edge(dst.alphabet, (ta, tb))} of "
                f"{text} not allowed"
            )
    return AdmissibilityReport(not violations, tuple(violations))


def preserves_folding(phi: GroupHom, g: LabeledGraph) -> bool:
    """True iff subdividing the graph's edges by the images stays folded.

    Images are reduced, so each path's interior is folded; at a vertex of
    the graph, its half-edges' images must start with distinct letters.
    """
    if not g.is_folded():
        return False
    paths = _image_paths(phi, g)
    starts = {(u, w[0]) for u, _, w in paths} | {(v, -w[-1]) for _, v, w in paths}
    return len(starts) == g.n_half_edges
