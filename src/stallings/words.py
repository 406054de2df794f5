"""Reduced words over free group alphabets: letters, words, homomorphisms.

A word is a freely reduced sequence of letters, each letter being a
generator name with a sign (+1 for the generator, -1 for its formal
inverse).  The empty word is the identity.  Text syntax: whitespace
separated tokens, a token being a generator name optionally suffixed
by ``^-1``, e.g. ``a b^-1 a``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    AlphabetMismatchError,
    EmptyWordError,
    UnknownGeneratorError,
)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


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


def parse_letter(token: str) -> Letter:
    if token.endswith("^-1"):
        name, sign = token[:-3], -1
    else:
        name, sign = token, 1
    if not _NAME_RE.match(name):
        raise UnknownGeneratorError(f"bad letter token {token!r}")
    return Letter(name, sign)


class Word:
    """An immutable freely reduced word.

    The constructor reduces its input, so ``Word`` values always satisfy
    the no-adjacent-cancellation invariant.
    """

    __slots__ = ("letters",)

    letters: tuple[Letter, ...]

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", _reduce_letters(letters))

    @classmethod
    def _raw(cls, reduced: tuple[Letter, ...]) -> "Word":
        w = cls.__new__(cls)
        object.__setattr__(w, "letters", reduced)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

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

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)[0]

    def __invert__(self) -> "Word":
        return invert(self)

    @property
    def text(self) -> str:
        return " ".join(l.token for l in self.letters)

    def __repr__(self) -> str:
        return self.text if self.letters else "1"

    def generator_names(self) -> set[str]:
        return {l.gen for l in self.letters}


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


IDENTITY = Word()


def free_reduce(letters: Iterable[Letter]) -> Word:
    """The unique reduced word freely equal to the given letter sequence."""
    return Word._raw(_reduce_letters(letters))


def concat(u: Word, v: Word) -> tuple[Word, bool]:
    """Reduced product of two reduced words.

    Also reports whether the concatenation was cancellation free, i.e.
    whether no letter pair cancelled at the junction.
    """
    w = free_reduce(u.letters + v.letters)
    return w, len(w) == len(u) + len(v)


def invert(w: Word) -> Word:
    return Word._raw(tuple(l.inverse() for l in reversed(w.letters)))


def last_letter(w: Word) -> Letter:
    """Last letter of a nonempty reduced word."""
    if not w:
        raise EmptyWordError("the identity has no last letter")
    return w.letters[-1]


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = prefix * core * prefix^-1`` with ``core`` cyclically reduced.

    The prefix is maximal: the core's first letter is not the inverse of
    its last letter (or the core has length at most one).
    """
    letters = w.letters
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == letters[hi - 1].inverse():
        lo += 1
        hi -= 1
    return Word._raw(letters[:lo]), Word._raw(letters[lo:hi])


def is_cyclically_reduced(w: Word) -> bool:
    return len(w) <= 1 or w.letters[0] != w.letters[-1].inverse()


def parse_word(text: str) -> Word:
    """Parse the whitespace token syntax; the empty string is the identity."""
    return free_reduce(parse_letter(t) for t in text.split())


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite set of generator names.

    It also owns the integer codes that label graph edges: generator i
    (from 0) has code ``i + 1`` and its inverse ``-(i + 1)``.
    """

    generators: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in self.generators:
            if not _NAME_RE.match(name):
                raise UnknownGeneratorError(f"bad generator name {name!r}")
        index = {name: i for i, name in enumerate(self.generators)}
        if len(index) != len(self.generators):
            raise UnknownGeneratorError("duplicate generator names")
        object.__setattr__(self, "_index", index)

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

    def letter(self, name: str, sign: int = 1) -> Letter:
        if name not in self._index:
            raise UnknownGeneratorError(f"{name!r} not in alphabet {self.generators}")
        return Letter(name, sign)

    def letters(self) -> tuple[Letter, ...]:
        """All signed letters, in alphabet order, generator before inverse."""
        out = []
        for name in self.generators:
            out.append(Letter(name, 1))
            out.append(Letter(name, -1))
        return tuple(out)

    def letter_index(self, l: Letter) -> int:
        """Position of a signed letter in :meth:`letters`."""
        return self.code_index(self.code(l))

    @staticmethod
    def code_index(c: int) -> int:
        """Position of the letter with code ``c`` in :meth:`letters`."""
        return 2 * c - 2 if c > 0 else -2 * c - 1

    def code(self, l: Letter) -> int:
        return self.encode((l,))[0]

    def encode(self, letters: Iterable[Letter]) -> list[int]:
        index = self._index
        out = []
        for l in letters:
            i = index.get(l.gen)
            if i is None:
                raise UnknownGeneratorError(f"{l!r} not over alphabet {self.generators}")
            out.append(i + 1 if l.sign > 0 else -i - 1)
        return out

    def decode(self, c: int) -> Letter:
        return Letter(self.generators[abs(c) - 1], 1 if c > 0 else -1)

    def recode(self, codes: Sequence[int], source: "Alphabet") -> Sequence[int]:
        """Codes over ``source`` re-encoded over this alphabet by name.

        Generators missing here get code 0, which labels nothing.
        """
        if source.generators == self.generators:
            return codes
        index = [self._index.get(name, -1) + 1 for name in source.generators]
        return [index[c - 1] if c > 0 else -index[-c - 1] for c in codes]

    def fresh_name(self, preferred: Iterable[str] = ("t", "s")) -> str:
        """A generator name that does not collide with existing ones."""
        for name in preferred:
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

    def check_word(self, w: Word) -> Word:
        self.encode(w)
        return w


@dataclass(frozen=True, eq=True)
class GroupHom:
    """A homomorphism between free groups, given on generators.

    ``images`` maps each source generator name to a word over the target
    alphabet.
    """

    source: Alphabet
    target: Alphabet
    images: Mapping[str, Word]

    def __post_init__(self):
        for name in self.source.generators:
            if name not in self.images:
                raise UnknownGeneratorError(f"no image for generator {name!r}")
        for name, w in self.images.items():
            if name not in self.source.generators:
                raise UnknownGeneratorError(f"image given for foreign generator {name!r}")
            self.target.check_word(w)

    def letter_image(self, l: Letter) -> Word:
        w = self.images[l.gen] if l.gen in self.images else None
        if w is None:
            raise UnknownGeneratorError(f"{l!r} not in source alphabet")
        return w if l.sign > 0 else invert(w)

    def __hash__(self) -> int:
        # Equality compares ``images`` as a dict, regardless of key order,
        # so hash the images in source-generator order.
        images = tuple(self.images[g] for g in self.source.generators)
        return hash((self.source, self.target, images))

    def __call__(self, w: Word) -> Word:
        return apply_hom(self, w)

    def __repr__(self) -> str:
        parts = ", ".join(f"{g} -> {self.images[g]!r}" for g in self.source.generators)
        return f"GroupHom({parts})"


def apply_hom(phi: GroupHom, w: Word) -> Word:
    """Reduced image of a word under a homomorphism."""
    out: list[Letter] = []
    for l in w:
        for m in phi.letter_image(l):
            if out and out[-1].gen == m.gen and out[-1].sign == -m.sign:
                out.pop()
            else:
                out.append(m)
    return Word._raw(tuple(out))


def compose_homs(phi: GroupHom, psi: GroupHom) -> GroupHom:
    """The composite sending x to phi(psi(x))."""
    if psi.target.generators != phi.source.generators:
        raise AlphabetMismatchError(
            f"cannot compose: {psi.target.generators} vs {phi.source.generators}"
        )
    images = {g: apply_hom(phi, psi.images[g]) for g in psi.source.generators}
    return GroupHom(psi.source, phi.target, images)


def identity_hom(alphabet: Alphabet) -> GroupHom:
    return GroupHom(
        alphabet,
        alphabet,
        {g: Word._raw((Letter(g, 1),)) for g in alphabet.generators},
    )


def is_nondegenerate(phi: GroupHom) -> bool:
    """True iff no generator maps to the identity."""
    return all(len(phi.images[g]) > 0 for g in phi.source.generators)


def conjugation_hom(u: Word, alphabet: Alphabet) -> GroupHom:
    """The inner automorphism x -> u x u^-1."""
    alphabet.check_word(u)
    ui = invert(u)
    images = {}
    for g in alphabet.generators:
        x = Word._raw((Letter(g, 1),))
        images[g] = free_reduce(u.letters + x.letters + ui.letters)
    return GroupHom(alphabet, alphabet, images)


def parse_hom(text: str, target: Alphabet | None = None) -> GroupHom:
    """Parse ``x -> <word>`` lines into a homomorphism.

    Source alphabet: the left-hand generators in order of appearance.
    Target alphabet: inferred from the right-hand words in order of first
    appearance, unless given explicitly.
    """
    sources: list[str] = []
    images: dict[str, Word] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise UnknownGeneratorError(f"bad hom line {line!r}")
        lhs, rhs = line.split("->", 1)
        name = lhs.strip()
        if not _NAME_RE.match(name):
            raise UnknownGeneratorError(f"bad generator name {name!r}")
        if name in images:
            raise UnknownGeneratorError(f"duplicate image for {name!r}")
        w = parse_word(rhs)
        sources.append(name)
        images[name] = w
    if target is None:
        target = Alphabet(tuple(dict.fromkeys(l.gen for w in images.values() for l in w)))
    return GroupHom(Alphabet(tuple(sources)), target, images)
