"""Reduced words over free group alphabets: letters, words, homomorphisms.

Inside the library a word is a code word: a freely reduced tuple of an
alphabet's int codes, the codes that also label graph edges, so
inverting a letter is negation.  The empty tuple is the identity, and
every product, inverse and image is taken on code words.  ``Letter``
(a generator name with a sign, +1 for the generator, -1 for its formal
inverse) and ``Word`` (a reduced sequence of letters) are the public
text types, made where text is parsed or printed and taken by the
public entry points.  Text syntax: whitespace separated tokens, a token
being a generator name optionally suffixed by ``^-1``, e.g.
``a b^-1 a``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from operator import eq, neg
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import AlphabetMismatchError, UnknownGeneratorError

_NAME = r"[A-Za-z][A-Za-z0-9]*"
_NAME_RE = re.compile(_NAME + r"\Z")
_TOKEN = _NAME + r"(?:\^-1)?"
_TOKENS_RE = re.compile(rf"(?:{_TOKEN}(?: {_TOKEN})*)?")  # tokens joined by single spaces


class Letter(NamedTuple):
    """A generator or its formal inverse."""

    gen: str
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    @property
    def token(self) -> str:
        return self.gen if self.sign > 0 else self.gen + "^-1"

    def __repr__(self) -> str:
        return self.token


def _split_token(token: str) -> tuple[str, int]:
    """A token's generator name, not yet checked, and its sign."""
    if token.endswith("^-1"):
        return token[:-3], -1
    return token, 1


def _check_name(name: str, token: str) -> None:
    if not _NAME_RE.match(name):
        raise UnknownGeneratorError(f"bad letter token {token!r}")


def parse_letter(token: str) -> Letter:
    name, sign = _split_token(token)
    _check_name(name, token)
    return Letter(name, sign)


def reduce_codes(codes: Iterable[int]) -> tuple[int, ...]:
    """The freely reduced code word equal to a code sequence."""
    stack: list[int] = []
    for c in codes:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def invert_codes(codes: Sequence[int]) -> tuple[int, ...]:
    return tuple([-c for c in reversed(codes)])


def cyclic_reduce(codes: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a code word as ``prefix core prefix^-1``, ``core`` cyclically reduced.

    The prefix is maximal: the core's first code is not the inverse of
    its last (or the core has length at most one).
    """
    lo, hi = 0, len(codes)
    while hi - lo >= 2 and codes[lo] == -codes[hi - 1]:
        lo += 1
        hi -= 1
    return tuple(codes[:lo]), tuple(codes[lo:hi])


def _check_labels(alphabet: Alphabet, codes: Sequence[int]) -> None:
    """Raise unless every code labels a letter of the alphabet."""
    rank = len(alphabet)
    if codes and (max(codes) > rank or min(codes) < -rank or 0 in codes):
        bad = next(c for c in codes if not 0 < abs(c) <= rank)
        raise UnknownGeneratorError(f"label {bad!r} outside the alphabet")


class Word:
    """An immutable freely reduced word.

    The constructor reduces its input, so ``Word`` values always satisfy
    the no-adjacent-cancellation invariant.  A word made by
    :meth:`Alphabet.word` also keeps the alphabet and code word it was
    made from (``_coded``; None for ``Word(letters)``), so that
    :meth:`Alphabet.read` need not look its letters up again.
    Equality, hashing, ``repr`` and iteration ignore it.
    """

    __slots__ = ("letters", "_coded")

    letters: tuple[Letter, ...]
    _coded: tuple[Alphabet, tuple[int, ...]] | None

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", _reduce_letters(letters))
        object.__setattr__(self, "_coded", None)

    @classmethod
    def _raw(
        cls,
        reduced: tuple[Letter, ...],
        coded: tuple[Alphabet, tuple[int, ...]] | None = None,
    ) -> "Word":
        w = cls.__new__(cls)
        object.__setattr__(w, "letters", reduced)
        object.__setattr__(w, "_coded", coded)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _raw: the slots refuse __setattr__
        return (Word._raw, (self.letters, self._coded))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    @property
    def text(self) -> str:
        return " ".join(l.token for l in self.letters)

    def __repr__(self) -> str:
        return self.text if self.letters else "1"


def _reduce_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for l in letters:
        if l.sign not in (1, -1):
            raise UnknownGeneratorError(f"bad letter sign in {l!r}")
        if stack and stack[-1].gen == l.gen and stack[-1].sign == -l.sign:
            stack.pop()
        else:
            stack.append(l)
    return tuple(stack)


def parse_word(text: str) -> Word:
    """Parse the whitespace token syntax; the empty string is the identity."""
    alphabet, (codes,) = parse_codes([text.split()])
    return alphabet.word(codes)


def parse_codes(
    lines: Iterable[list[str]], alphabet: Alphabet | None = None
) -> tuple[Alphabet, tuple[tuple[int, ...], ...]]:
    """Reduced code words, one per list of tokens, and their alphabet.

    Without an alphabet, it is the generators of the reduced words, in
    order of first appearance.  A name outside a given alphabet is
    accepted when it cancels and rejected when it survives reduction.
    A malformed token raises, the first in reading order.

    The cost follows the distinct tokens, in a few bulk passes: one
    regex match over their join checks them all, one table gives the
    code of each name and of its inverse token, each line is coded
    through that table, and only a line with an adjacent cancelling pair
    is reduced.  A malformed token sends the parse down a slow path
    that checks the distinct tokens one at a time, in reading order.
    """
    lines = list(lines)
    distinct = dict.fromkeys(chain.from_iterable(lines))
    joined = " ".join(distinct)
    per_token = joined.replace("^-1", "").split()  # the grammar puts ^-1 only at the end
    # a token holding whitespace fails one test or the other: it adds a name or breaks the match
    if len(per_token) != len(distinct) or not _TOKENS_RE.fullmatch(joined):
        for token in distinct:
            parse_letter(token)  # raises at the first malformed token
    names = list(dict.fromkeys(per_token))
    if alphabet is None:
        gens = range(1, len(names) + 1)
    else:  # a foreign name gets a code of its own past the alphabet
        gens = list(map((1).__add__, map(alphabet._index.get, names, count(len(alphabet)))))
    table = dict(zip(names, gens))
    table.update(zip(("^-1 ".join(names) + "^-1").split(" "), map(neg, gens)))
    words = []
    cancelled = False
    for line in lines:
        w = tuple(map(table.__getitem__, line))
        if any(map(eq, w[1:], map(neg, w))):
            w = reduce_codes(w)
            cancelled = True
        words.append(w)
    if alphabet is not None:
        rank = len(alphabet)
        if max(gens, default=0) > rank:
            for c in chain.from_iterable(words):
                if abs(c) > rank:
                    token = names[gens.index(abs(c))] + ("" if c > 0 else "^-1")
                    raise UnknownGeneratorError(f"{token} not over alphabet {alphabet.generators}")
        return alphabet, tuple(words)
    alphabet = Alphabet._raw(tuple(names))
    if cancelled:  # a name may be gone, or first appear later
        used = dict.fromkeys(map(abs, chain.from_iterable(words)))
        reduced = Alphabet._raw(tuple([names[c - 1] for c in used]))
        if reduced.generators != alphabet.generators:
            table = reduced._renumbering(alphabet)
            words = [tuple(map(table.__getitem__, w)) for w in words]
        alphabet = reduced
    return alphabet, tuple(words)


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite set of generator names.

    It also owns the integer codes that label graph edges: generator i
    (from 0) has code ``i + 1`` and its inverse ``-(i + 1)``.
    """

    generators: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _letter_codes: dict[Letter, int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in self.generators:
            if not _NAME_RE.match(name):
                raise UnknownGeneratorError(f"bad generator name {name!r}")
        index = {name: i for i, name in enumerate(self.generators)}
        if len(index) != len(self.generators):
            raise UnknownGeneratorError("duplicate generator names")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_letter_codes", None)

    @classmethod
    def _raw(cls, generators: tuple[str, ...]) -> "Alphabet":
        """An alphabet of distinct names the parser has already checked."""
        alphabet = cls.__new__(cls)
        object.__setattr__(alphabet, "generators", generators)
        object.__setattr__(alphabet, "_index", dict(zip(generators, count())))
        object.__setattr__(alphabet, "_letter_codes", None)
        return alphabet

    @classmethod
    def of(cls, *names: str) -> "Alphabet":
        return cls(tuple(names))

    def __contains__(self, item) -> bool:
        name = item.gen if isinstance(item, Letter) else item
        return name in self._index

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self) -> Iterator[str]:
        return iter(self.generators)

    def letters(self) -> tuple[Letter, ...]:
        """All signed letters, in alphabet order, generator before inverse."""
        out = []
        for name in self.generators:
            out.append(Letter(name, 1))
            out.append(Letter(name, -1))
        return tuple(out)

    @staticmethod
    def code_index(c: int) -> int:
        """Position of the letter with code ``c`` in :meth:`letters`."""
        return 2 * c - 2 if c > 0 else -2 * c - 1

    def _code_table(self) -> dict[Letter, int]:
        """Letter -> code for every signed letter, built on first use and kept."""
        table = self._letter_codes
        if table is None:
            table = {}
            for i, name in enumerate(self.generators, 1):
                table[Letter(name, 1)] = i
                table[Letter(name, -1)] = -i
            object.__setattr__(self, "_letter_codes", table)
        return table

    def encode(self, letters: Iterable[Letter]) -> tuple[int, ...]:
        table = self._code_table()
        try:
            return tuple([table[l] for l in letters])
        except KeyError as miss:
            l = miss.args[0] if miss.args else None
            if not isinstance(l, Letter):
                raise  # not a miss of the table
            if l.sign not in (1, -1):
                raise UnknownGeneratorError(f"bad letter sign in {l!r}") from None
            raise UnknownGeneratorError(f"{l!r} not over alphabet {self.generators}") from None

    def decode(self, c: int) -> Letter:
        return self.word((c,)).letters[0]

    def word(self, codes: Iterable[int]) -> Word:
        """The ``Word`` a reduced code word over this alphabet spells.

        The word keeps this alphabet and the code word, for :meth:`read`.
        """
        codes = tuple(codes)
        _check_labels(self, codes)
        names = self.generators
        letters = tuple([Letter(names[abs(c) - 1], 1 if c > 0 else -1) for c in codes])
        return Word._raw(letters, (self, codes))

    def read(self, w: Word) -> Iterable[int]:
        """The codes of a word over this alphabet, made as they are read.

        A name missing here reads as code 0, which labels nothing.  The
        cost follows the word, never either alphabet: a word made by
        ``self.word`` gives its own codes; one made by another alphabet
        no larger than the word is recoded by name through one table
        over that alphabet; any other word (``Word(letters)``, or one
        whose alphabet is larger than it) is read letter by letter from
        this alphabet's ``Letter`` -> code table.
        """
        coded = w._coded
        if coded is not None:
            source, codes = coded
            if source is self:
                return codes
            if len(source) <= len(codes):
                return map(self._renumbering(source).__getitem__, codes)
        return map(self._code_table().get, w.letters, repeat(0))

    def _renumbering(self, source: "Alphabet") -> list[int]:
        """``table[c]`` is the code here of code c over ``source``, negative c too.

        A generator missing here gets code 0.  O(rank of ``source``).
        """
        index = [self._index.get(name, -1) + 1 for name in source.generators]
        return [0, *index, *[-i for i in reversed(index)]]

    def recode(self, codes: Sequence[int], source: "Alphabet") -> Sequence[int]:
        """Codes over ``source`` re-encoded over this alphabet by name.

        Generators missing here get code 0, which labels nothing.
        """
        if source is self or source.generators == self.generators:
            return codes
        return tuple(map(self._renumbering(source).__getitem__, codes))

    def fresh_name(self) -> str:
        """A generator name that does not collide with existing ones."""
        for name in ("t", "s"):
            if name not in self:
                return name
        k = 1
        while f"t{k}" in self:
            k += 1
        return f"t{k}"

    def extended(self, *names: str) -> "Alphabet":
        return Alphabet(self.generators + names)

    def without(self, name: str) -> "Alphabet":
        return Alphabet(tuple(g for g in self.generators if g != name))


@dataclass(frozen=True, init=False)
class GroupHom:
    """A homomorphism between free groups, given on generators.

    ``codes`` holds the image of each source generator, in source order,
    as a reduced code word over the target.  The constructor takes the
    images as ``Word``s keyed by source generator name.
    """

    source: Alphabet
    target: Alphabet
    codes: tuple[tuple[int, ...], ...]

    def __init__(self, source: Alphabet, target: Alphabet, images: Mapping[str, Word]):
        for name in source.generators:
            if name not in images:
                raise UnknownGeneratorError(f"no image for generator {name!r}")
        for name in images:
            if name not in source:
                raise UnknownGeneratorError(f"image given for foreign generator {name!r}")
        codes = tuple([target.encode(images[name]) for name in source.generators])
        self.__dict__.update(source=source, target=target, codes=codes)

    @classmethod
    def _raw(
        cls, source: Alphabet, target: Alphabet, codes: tuple[tuple[int, ...], ...]
    ) -> "GroupHom":
        """A homomorphism from image code words the library made itself."""
        phi = cls.__new__(cls)
        phi.__dict__.update(source=source, target=target, codes=codes)
        return phi

    def image(self, w: Sequence[int]) -> tuple[int, ...]:
        """Reduced image of a code word over the source."""
        _check_labels(self.source, w)
        codes = self.codes
        return reduce_codes(
            [d for c in w for d in (codes[c - 1] if c > 0 else invert_codes(codes[-c - 1]))]
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{g} -> {self.target.word(w)!r}" for g, w in zip(self.source.generators, self.codes)
        )
        return f"GroupHom({parts})"


def compose_homs(phi: GroupHom, psi: GroupHom) -> GroupHom:
    """The composite sending x to phi(psi(x))."""
    if psi.target.generators != phi.source.generators:
        raise AlphabetMismatchError(
            f"cannot compose: {psi.target.generators} vs {phi.source.generators}"
        )
    return GroupHom._raw(psi.source, phi.target, tuple(map(phi.image, psi.codes)))


def identity_hom(alphabet: Alphabet) -> GroupHom:
    return GroupHom._raw(alphabet, alphabet, tuple((c,) for c in range(1, len(alphabet) + 1)))


def is_nondegenerate(phi: GroupHom) -> bool:
    """True iff no generator maps to the identity."""
    return all(phi.codes)


def conjugation_hom(codes: Sequence[int], alphabet: Alphabet) -> GroupHom:
    """The inner automorphism x -> u x u^-1, for a code word u over the alphabet."""
    _check_labels(alphabet, codes)
    ui = invert_codes(codes)
    images = tuple(reduce_codes((*codes, c, *ui)) for c in range(1, len(alphabet) + 1))
    return GroupHom._raw(alphabet, alphabet, images)


def parse_hom(text: str) -> GroupHom:
    """Parse ``x -> <word>`` lines into a homomorphism.

    Source alphabet: the left-hand generators in order of appearance.
    Target alphabet: the generators of the right-hand words in order of
    first appearance.
    """
    sources: dict[str, None] = {}
    right_sides: list[list[str]] = []
    bad_line = None  # the first malformed line; a bad token before it comes first
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            bad_line = f"bad hom line {line!r}"
            break
        lhs, rhs = line.split("->", 1)
        name = lhs.strip()
        if not _NAME_RE.match(name):
            bad_line = f"bad generator name {name!r}"
            break
        if name in sources:
            bad_line = f"duplicate image for {name!r}"
            break
        sources[name] = None
        right_sides.append(rhs.split())
    target, codes = parse_codes(right_sides)
    if bad_line is not None:
        raise UnknownGeneratorError(bad_line)
    return GroupHom._raw(Alphabet._raw(tuple(sources)), target, codes)
