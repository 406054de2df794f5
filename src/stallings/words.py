"""Reduced words over free group alphabets: letters, words, homomorphisms.

Inside the library a word is a code word: a freely reduced tuple of an
alphabet's int codes, the codes that also label graph edges, so
inverting a letter is negation.  The empty tuple is the identity, and
every product, inverse and image is taken on code words.  ``Letter``
(a generator name with a sign, +1 for the generator, -1 for its formal
inverse) and ``Word`` (a reduced code word over the generator names it
keeps, spelled as letters only when asked) are the public text types,
made where text is parsed or printed and taken by the public entry
points.  Text syntax: whitespace separated tokens, a token
being a generator name optionally suffixed by ``^-1``, e.g.
``a b^-1 a``.
"""

from __future__ import annotations

import re
from itertools import chain, count
from operator import eq, neg
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence
from weakref import WeakValueDictionary

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
    """An immutable freely reduced word: a code word and the names it spells.

    Code i spells the i-th name the word keeps, -i its inverse.  A word
    made by :meth:`Alphabet.word`, and so every ``parse_word`` result,
    keeps that alphabet's generators; ``Word(letters)`` names the
    generators of its letters in order of first appearance and reduces
    their codes on an int stack.  Letters are made only when asked for,
    by ``letters``, iteration, indexing, ``text`` and ``repr``; equality
    and hashing go by the letters' names and signs, with no ``Letter``
    made, whatever names two words keep.
    """

    __slots__ = ("_names", "_codes")

    def __init__(self, letters: Iterable[Letter] = ()):
        index: dict[str, int] = {}
        stack: list[int] = []
        for l in letters:
            sign = l.sign
            c = index.setdefault(l.gen, len(index) + 1)
            if sign == -1:
                c = -c
            elif sign != 1:
                raise UnknownGeneratorError(f"bad letter sign in {l!r}")
            if stack and stack[-1] == -c:
                stack.pop()
            else:
                stack.append(c)
        _set_names(self, tuple(index))
        _set_codes(self, tuple(stack))

    @classmethod
    def _raw(cls, names: tuple[str, ...], codes: tuple[int, ...]) -> "Word":
        w = cls.__new__(cls)
        _set_names(w, names)
        _set_codes(w, codes)
        return w

    def __setattr__(self, name, value=None):
        raise AttributeError("Word is immutable")

    __delattr__ = __setattr__

    def __copy__(self):
        return self  # immutable, so a copy may be the word itself

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # pickle rebuilds past __setattr__, through _rebuild_word
        return (_rebuild_word, (self._names, self._codes))

    @property
    def letters(self) -> tuple[Letter, ...]:
        names = self._names
        return tuple([Letter(names[c - 1], 1) if c > 0 else Letter(names[-c - 1], -1)
                      for c in self._codes])

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __bool__(self) -> bool:
        return bool(self._codes)

    def _key(self) -> tuple[tuple[str, ...], tuple[bool, ...]]:
        names, codes = self._names, self._codes
        return tuple([names[abs(c) - 1] for c in codes]), tuple([c > 0 for c in codes])

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def text(self) -> str:
        return " ".join(l.token for l in self.letters)

    def __repr__(self) -> str:
        return self.text if self._codes else "1"


_set_names, _set_codes = Word._names.__set__, Word._codes.__set__  # the slots, past __setattr__


def _rebuild_word(names: tuple[str, ...], codes: tuple[int, ...]) -> Word:
    """An unpickled word, keeping the live alphabet's tuple of its names.

    So an unpickled word over a live alphabet reads over it as its own
    codes.  Names no live alphabet holds, which nothing may have
    checked, are kept as they come and not interned.
    """
    alphabet = _interned.get(names)
    return Word._raw(names if alphabet is None else alphabet.generators, codes)


def parse_word(text: str) -> Word:
    """Parse the whitespace token syntax; the empty string is the identity."""
    alphabet, (codes,) = parse_codes([text.split()])
    return Word._raw(alphabet.generators, codes)


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
        if reduced is not alphabet:
            table = reduced._renumbering(alphabet.generators)
            words = [tuple(map(table.__getitem__, w)) for w in words]
        alphabet = reduced
    return alphabet, tuple(words)


class Alphabet:
    """An ordered finite set of generator names, one live object per names tuple.

    It also owns the integer codes that label graph edges: generator i
    (from 0) has code ``i + 1`` and its inverse ``-(i + 1)``.  Equal
    names make one alphabet, so ``==`` and ``hash`` are identity.
    """

    __slots__ = ("generators", "_index", "__weakref__")

    def __new__(cls, generators: Iterable[str]) -> "Alphabet":
        if isinstance(generators, str):
            raise UnknownGeneratorError(f"generators {generators!r} are one string, not names")
        generators = generators if isinstance(generators, tuple) else tuple(generators)
        for name in generators:
            if not _NAME_RE.match(name):
                raise UnknownGeneratorError(f"bad generator name {name!r}")
        if len(set(generators)) != len(generators):
            raise UnknownGeneratorError("duplicate generator names")
        return cls._raw(generators)

    @classmethod
    def _raw(cls, generators: tuple[str, ...]) -> "Alphabet":
        """The alphabet of distinct names the parser has already checked."""
        alphabet = _interned.get(generators)
        if alphabet is None:
            alphabet = _interned[generators] = object.__new__(cls)
            object.__setattr__(alphabet, "generators", generators)
            object.__setattr__(alphabet, "_index", dict(zip(generators, count())))
        return alphabet

    def __setattr__(self, name, value=None):
        raise AttributeError("Alphabet is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which hands back the live one
        return (Alphabet, (self.generators,))

    def __repr__(self) -> str:
        return f"Alphabet(generators={self.generators!r})"

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
        return tuple([Letter(name, sign) for name in self.generators for sign in (1, -1)])

    @staticmethod
    def code_index(c: int) -> int:
        """Position of the letter with code ``c`` in :meth:`letters`."""
        return 2 * c - 2 if c > 0 else -2 * c - 1

    def encode(self, letters: Iterable[Letter]) -> tuple[int, ...]:
        """The codes of any letters, a one-shot iterator's too, in order and not reduced.

        A sign other than ±1 raises ``bad letter sign in ...``, as ``Word``
        does, and a foreign name ``... not over alphabet ...``.
        """
        index = self._index
        codes = []
        for l in letters:
            i = index.get(l.gen)
            if l.sign not in (1, -1):
                raise UnknownGeneratorError(f"bad letter sign in {l!r}")
            if i is None:
                raise UnknownGeneratorError(f"{l!r} not over alphabet {self.generators}")
            codes.append(i + 1 if l.sign == 1 else -1 - i)
        return tuple(codes)

    def decode(self, c: int) -> Letter:
        return self.word((c,))[0]

    def word(self, codes: Iterable[int]) -> Word:
        """The ``Word`` a reduced code word over this alphabet spells."""
        codes = tuple(codes)
        _check_labels(self, codes)
        return Word._raw(self.generators, codes)

    def read(self, w: Word) -> Iterable[int]:
        """The codes of a word over this alphabet, made as they are read.

        A name missing here reads as code 0, which labels nothing.  The
        cost follows the word: a word over this alphabet's own names gives
        its own codes; one with no more names than letters, a parsed word
        too, is recoded through one table over its names; any other, one
        made by a wider alphabet say, is recoded code by code, by name.
        """
        names, codes = w._names, w._codes
        if names is self.generators:
            return codes
        if len(names) <= len(codes):
            return map(self._renumbering(names).__getitem__, codes)
        return self._recode(w)

    def _recode(self, w: Word) -> list[int]:
        """A word's codes here, recoded code by code, by name; a missing name gives 0."""
        names, get = w._names, self._index.get
        return [get(names[c - 1], -1) + 1 if c > 0 else -1 - get(names[-c - 1], -1)
                for c in w._codes]

    def _word_codes(self, w: Word) -> tuple[int, ...]:
        """A word's own codes or ``_recode``'s, skipping the table; a foreign name raises."""
        codes = w._codes if w._names is self.generators else tuple(self._recode(w))
        if 0 in codes:
            foreign = w[codes.index(0)]
            raise UnknownGeneratorError(f"{foreign!r} not over alphabet {self.generators}")
        return codes

    def _renumbering(self, names: tuple[str, ...]) -> list[int]:
        """``table[c]``, c of either sign, is the code here of code c over ``names``, or 0."""
        index = [self._index.get(name, -1) + 1 for name in names]
        return [0, *index, *[-i for i in reversed(index)]]

    def recode(self, codes: Sequence[int], source: "Alphabet") -> Sequence[int]:
        """Codes over ``source`` re-encoded over this alphabet by name.

        Generators missing here get code 0, which labels nothing.
        """
        if source is self:
            return codes
        return tuple(map(self._renumbering(source.generators).__getitem__, codes))

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


_interned: WeakValueDictionary[tuple[str, ...], Alphabet] = WeakValueDictionary()


class _Value:
    """Base of the small immutable value types.

    ``==`` and ``hash`` go by the fields named in ``_fields``, and the
    repr reads ``Name(field=value, ...)``.  Setting or deleting an
    attribute raises, so constructors set fields with
    ``object.__setattr__``, which keeps them in the instance's compact
    values (reading ``__dict__`` builds a dict per instance), or through
    ``__dict__``.  Copy and pickle restore the ``__dict__`` past
    ``__setattr__``.
    """

    _fields: tuple[str, ...]

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


class GroupHom(_Value):
    """A homomorphism between free groups, given on generators.

    ``codes`` holds the image of each source generator, in source order,
    as a reduced code word over the target.  The constructor takes the
    images as ``Word``s keyed by source generator name.
    """

    source: Alphabet
    target: Alphabet
    codes: tuple[tuple[int, ...], ...]
    __match_args__ = _fields = ("source", "target", "codes")

    def __init__(self, source: Alphabet, target: Alphabet, images: Mapping[str, Word]):
        if images.keys() != source._index.keys():  # the loops only name the error
            for name in source.generators:
                if name not in images:
                    raise UnknownGeneratorError(f"no image for generator {name!r}")
            for name in images:
                if name not in source:
                    raise UnknownGeneratorError(f"image given for foreign generator {name!r}")
        codes = tuple([target._word_codes(images[name]) for name in source.generators])
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
    if psi.target is not phi.source:
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
