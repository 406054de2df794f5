"""Randomized check that the bundled example stays injective.

Samples non-degenerate homomorphisms from the rank-two free group into a
free group of configurable rank, transports the example's inclusion
morphism along each, and verifies the base-point-free result is
injective.  Any counterexample is reported verbatim; none is expected.
"""

from __future__ import annotations

import random
from collections.abc import Sized
from dataclasses import dataclass

from ..graph import classify
from ..functor import unbased_image_morphism
from ..words import Alphabet, GroupHom
from .engine import root_case


def random_reduced_word(
    rng: random.Random, alphabet: Sized, max_len: int
) -> tuple[int, ...]:
    """A uniformly random reduced code word of length between 1 and max_len.

    Each letter is drawn as a position in :meth:`Alphabet.letters` order,
    skipping the position of the previous letter's inverse, which keeps
    the draws of a seed fixed; no list of the letters is built.  Only
    the alphabet's size is read, so any sized stand-in draws the same.
    """
    n = 2 * len(alphabet)
    length = rng.randint(1, max_len)
    out: list[int] = []
    for _ in range(length):
        if out:
            p = rng.choice(range(n - 1))
            p += p >= Alphabet.code_index(-out[-1])
        else:
            p = rng.choice(range(n))
        c = p // 2 + 1
        out.append(-c if p % 2 else c)
    return tuple(out)


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    alphabet_size: int
    max_len: int
    seed: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = (
            f"{self.trials} trials, alphabet size {self.alphabet_size}, "
            f"image length <= {self.max_len}, seed {self.seed}: "
        )
        if self.ok:
            return head + "all transported morphisms injective"
        return head + f"{len(self.failures)} NON-INJECTIVE counterexamples"


def fuzz_example(
    trials: int, alphabet_size: int, max_len: int, seed: int = 0
) -> FuzzReport:
    """Transport the example along random homomorphisms; expect injectivity."""
    if trials < 1 or alphabet_size < 1 or max_len < 1:
        raise ValueError("trials, alphabet size and image length must be positive")
    rng = random.Random(seed)
    root = root_case()
    source_alphabet = root.alphabet
    # a trial draws at most 2 * max_len generators: past that, name only those
    whole = alphabet_size <= 2 * max_len
    drawn: Sized = range(alphabet_size)
    if whole:
        drawn = target_alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(alphabet_size)))
    failures: list[str] = []
    for _ in range(trials):
        images = tuple(
            random_reduced_word(rng, drawn, max_len) for _ in source_alphabet.generators
        )
        if not whole:  # name the drawn generators x<code>, in code order
            new = {c: i for i, c in enumerate(sorted({abs(c) for w in images for c in w}), 1)}
            target_alphabet = Alphabet._raw(tuple([f"x{c}" for c in new]))
            images = tuple([tuple([new[c] if c > 0 else -new[-c] for c in w]) for w in images])
        phi = GroupHom._raw(source_alphabet, target_alphabet, images)
        m = unbased_image_morphism(phi, root.morphism)
        if not classify(m).injective:
            desc = "; ".join(
                f"{g} -> {target_alphabet.word(w).text}"
                for g, w in zip(source_alphabet.generators, images)
            )
            failures.append(desc)
    return FuzzReport(trials, alphabet_size, max_len, seed, tuple(failures))
