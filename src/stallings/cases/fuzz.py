"""Randomized check that the bundled example stays injective.

Samples non-degenerate homomorphisms from the rank-two free group into a
free group of configurable rank, transports the example's inclusion
morphism along each, and verifies the base-point-free result is
injective.  Any counterexample is reported verbatim; none is expected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..graph import classify
from ..functor import unbased_image_morphism
from ..words import Alphabet, GroupHom, Letter, Word
from .engine import root_case


def random_reduced_word(
    rng: random.Random, alphabet: Alphabet, max_len: int, min_len: int = 1
) -> Word:
    """A uniformly random reduced word of length between min_len and max_len."""
    letters = alphabet.letters()
    length = rng.randint(min_len, max_len)
    out: list[Letter] = []
    for _ in range(length):
        choices = (
            [l for l in letters if l != out[-1].inverse()] if out else list(letters)
        )
        out.append(rng.choice(choices))
    return Word(out)


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
    target_alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(alphabet_size)))
    failures: list[str] = []
    for _ in range(trials):
        images = {
            g: random_reduced_word(rng, target_alphabet, max_len)
            for g in source_alphabet.generators
        }
        phi = GroupHom(source_alphabet, target_alphabet, images)
        m = unbased_image_morphism(phi, root.morphism)
        if not classify(m).injective:
            desc = "; ".join(
                f"{g} -> {images[g].text}" for g in source_alphabet.generators
            )
            failures.append(desc)
    return FuzzReport(trials, alphabet_size, max_len, seed, tuple(failures))
