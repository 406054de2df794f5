"""Shared random generators and independent oracles for the tests.

The oracles here deliberately avoid the library's fast paths: folding by
one-pair-at-a-time scanning, reduction by repeated adjacent elimination,
Whitehead edges by brute two-step path enumeration.
"""

from __future__ import annotations

import random

from stallings.cases.fuzz import random_reduced_word
from stallings.graph import LabeledGraph, bouquet
from stallings.subgroups import Subgroup
from stallings.words import Alphabet, GroupHom, Letter

__all__ = [
    "random_reduced_word",
    "random_subgroup",
    "random_hom",
    "random_wedge",
    "naive_fold",
    "naive_reduce",
    "two_path_edges",
    "ALPHABETS",
]

ALPHABETS = [Alphabet.of(*"abcd"[:n]) for n in (1, 2, 3, 4)]


def random_subgroup(
    rng: random.Random,
    alphabet: Alphabet,
    max_gens: int = 5,
    max_len: int = 10,
) -> Subgroup:
    n = rng.randint(1, max_gens)
    return Subgroup(
        alphabet,
        tuple(random_reduced_word(rng, alphabet, max_len) for _ in range(n)),
    )


def random_hom(
    rng: random.Random,
    source: Alphabet,
    target: Alphabet,
    max_len: int = 5,
) -> GroupHom:
    return GroupHom(
        source,
        target,
        {g: random_reduced_word(rng, target, max_len) for g in source.generators},
    )


def random_wedge(rng: random.Random, alphabet: Alphabet, max_words: int = 5,
                 max_len: int = 8) -> LabeledGraph:
    words = [
        random_reduced_word(rng, alphabet, max_len)
        for _ in range(rng.randint(1, max_words))
    ]
    return bouquet(alphabet, words)


def naive_reduce(letters: list[Letter]) -> tuple[Letter, ...]:
    """Repeated adjacent-pair elimination, rescanning from scratch."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == out[i + 1].inverse():
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def naive_fold(g: LabeledGraph, rng: random.Random | None = None) -> LabeledGraph:
    """Fold one colliding pair at a time until folded.

    A deliberately slow fixpoint of the single-fold step; the pair to
    fold is chosen at random when a generator is supplied.
    """
    n = g.n_vertices
    einit = list(g.einit)
    elabel = list(g.elabel)
    base = g.base
    while True:
        collisions = []
        at: dict[tuple[int, int], int] = {}
        for e, v in enumerate(einit):
            key = (v, elabel[e])
            if key in at:
                collisions.append((at[key], e))
            else:
                at[key] = e
        if not collisions:
            break
        e, f = rng.choice(collisions) if rng is not None else collisions[0]
        a, b = einit[e ^ 1], einit[f ^ 1]
        dead = {2 * (f // 2), 2 * (f // 2) + 1}
        einit = [v for i, v in enumerate(einit) if i not in dead]
        elabel = [l for i, l in enumerate(elabel) if i not in dead]
        if a != b:
            keep, gone = min(a, b), max(a, b)
            einit = [
                keep if v == gone else (v - 1 if v > gone else v) for v in einit
            ]
            if base is not None:
                base = keep if base == gone else (base - 1 if base > gone else base)
            n -= 1
    return LabeledGraph(g.alphabet, n, tuple(einit), tuple(elabel), base)


def two_path_edges(g: LabeledGraph) -> frozenset:
    """Whitehead edges by brute enumeration of two-step paths."""
    edges = set()
    for e in range(g.n_half_edges):
        for f in range(g.n_half_edges):
            if f == e ^ 1:
                continue
            if g.einit[f] != g.einit[e ^ 1]:
                continue
            a, b = g.alphabet.decode(g.elabel[e]), g.alphabet.decode(g.elabel[f ^ 1])
            if a != b:
                edges.add(frozenset((a, b)))
    return frozenset(edges)
