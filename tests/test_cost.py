"""Cost contracts: work and memory grow at most about linearly with graph size.

A timer cannot tell linear from quadratic on a shared host in a short
test, so each contract counts instead.  :func:`cost` runs one call and
returns the bytecodes it executed (``sys.settrace`` with
``frame.f_trace_opcodes``) and its ``tracemalloc`` peak; a C builtin
counts as one bytecode whatever it does, and the peak sees the objects
such a builtin builds.  Both counts repeat exactly from run to run.
Each contract draws inputs of three sizes from a seed, about n, 4n and
16n, and bounds the log-log slope of the bytecodes over each 4x step.
Containers grow by doubling, so bytes are a step function of size, and
one step alone moves a slope over 4x by up to 0.5: the peak's slope is
bounded over the whole 16x span instead.  ``fuzz_example`` is counted
against the alphabet size at a fixed number of trials, and both of its
counts must stay flat.  ``whitehead_graph`` at rank 1000 is held to no
run of the cyclic garbage collector, counted by a ``gc.callbacks`` hook.
"""

from __future__ import annotations

import gc
import math
import random
import sys
import tracemalloc

import pytest

from stallings import _kernel
from stallings.cases import fuzz_example
from stallings.errors import AlphabetMismatchError
from stallings.functor import image_core, unbased_image_morphism
from stallings.graph import LabeledGraph, bouquet, canonical_form
from stallings.subgroups import (
    Subgroup, contains_codes, covering_circuit, gamma, inclusion_morphism, onto_base, pi1_basis,
)
from stallings.whitehead import whitehead_graph
from stallings.words import Alphabet, GroupHom, invert_codes, parse_codes, reduce_codes

from helpers import reduced_words

AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")
THOUSAND = Alphabet(tuple(f"x{i}" for i in range(1, 1001)))
MAX_SLOPE = 1.2
# a flat count may move by 15% over a 4x step, by 32% over 16x
FLAT_SLOPE = 0.1


def cost(call) -> tuple[int, int]:
    """The bytecodes that ``call()`` executes, and its ``tracemalloc`` peak in bytes.

    Each measure takes a call of its own, so ``call`` must build its
    inputs afresh: a subgroup keeps its core graph once it is folded.
    """
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        call()
    finally:
        sys.settrace(previous)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return count, peak


def generators(count: int) -> tuple[tuple[int, ...], ...]:
    """``count`` seeded random reduced rank-3 code words of 20 letters."""
    return reduced_words(random.Random(1), 3, count, 20)


def subgroup(gens) -> Subgroup:
    return Subgroup._raw(ABC, tuple(gens))


def onto_base_half(count: int):
    """K of ``count`` generators and H the first half: size and a fresh call."""
    gens = generators(count)
    size = gamma(subgroup(gens)).n_edges
    return size, lambda: onto_base(subgroup(gens[: count // 2]), subgroup(gens))


def onto_base_hanging(count: int):
    """K of ``count`` generators and H the first half conjugated by a product of K's.

    The product of ``max(count // 10, 3)`` of K's generators, each drawn
    with a seed and inverted at even odds, makes gamma(H) hang a long
    path from its base.  Both cores are built before counting, so the
    size is both cores' edges and the call is ``onto_base`` alone.
    """
    gens = generators(count)
    rng = random.Random(2)
    w: tuple[int, ...] = ()
    for _ in range(max(count // 10, 3)):
        g = rng.choice(gens)
        w = reduce_codes(w + (invert_codes(g) if rng.random() < 0.5 else g))
    h = subgroup(reduce_codes(w + g + invert_codes(w)) for g in gens[: count // 2])
    k = subgroup(gens)
    return gamma(h).n_edges + gamma(k).n_edges, lambda: onto_base(h, k)


def gamma_of(count: int):
    gens = generators(count)
    return gamma(subgroup(gens)).n_edges, lambda: gamma(subgroup(gens))


def canonical_of(count: int):
    """The canonical form of a core built beforehand, against its edges."""
    g = gamma(subgroup(generators(count)))
    return g.n_edges, lambda: canonical_form(g)


def whitehead_of(count: int):
    """The Whitehead graph of a core built beforehand, against its edges."""
    g = gamma(subgroup(generators(count)))
    return g.n_edges, lambda: whitehead_graph(g)


def test_whitehead_runs_no_collection():
    """The cyclic collector is paused while a rank-1000 Whitehead graph is built.

    50 seeded 40-letter words, the ``core_graph_wide`` benchmark's shape,
    give a base star of about 97 codes and thousands of pair tuples:
    about 9 collections, which free nothing, when the collector runs.
    The collector's state is restored on every exit, a raise included.
    """
    g = gamma(Subgroup._raw(THOUSAND, reduced_words(random.Random(7), 1000, 50, 40)))
    # the path a, b^3: the label 3 is outside the alphabet
    bad = LabeledGraph(AB, 3, (0, 1, 1, 2), (1, -1, 3, -3), 0, _validate=False)
    runs = 0

    def count(phase, info):
        nonlocal runs
        runs += phase == "start"

    was = gc.isenabled()
    gc.callbacks.append(count)
    try:
        gc.enable()
        assert len(whitehead_graph(g).codes) > 4000
        assert runs == 0
        assert gc.isenabled()
        with pytest.raises(AlphabetMismatchError):
            whitehead_graph(bad)
        assert gc.isenabled()
        gc.disable()
        whitehead_graph(g)
        assert not gc.isenabled()
    finally:
        gc.callbacks.remove(count)
        if was:
            gc.enable()
        else:
            gc.disable()


def covering_of(count: int):
    """The covering circuit of a core built beforehand, against its edges."""
    g = gamma(subgroup(generators(count)))
    return g.n_edges, lambda: covering_circuit(g)


def basis_of(count: int):
    """The basis of a core built beforehand, against its edges plus the basis's letters.

    A basis word runs from the base down the tree and back, so the
    output can outgrow the graph.
    """
    g = gamma(subgroup(generators(count)))
    return g.n_edges + sum(map(len, pi1_basis(g))), lambda: pi1_basis(g)


def image_core_of(count: int):
    """The image core of a core built beforehand, against the image paths' letters.

    The images are fixed two-letter words that share first and last
    letters, so the fold identifies along the paths.
    """
    g = gamma(subgroup(generators(count)))
    phi = GroupHom._raw(ABC, ABC, ((1, 2), (1, -3), (3, 2)))
    images = [phi.codes[abs(c) - 1] for c in g.elabel[::2]]
    return sum(map(len, images)), lambda: image_core(phi, g)


def inclusion_of(count: int):
    """The inclusion of the first half of ``count`` generators in all of them.

    Both cores are built before counting, so the size is both cores'
    edges and the call is the morphism's extension alone.
    """
    gens = generators(count)
    h, k = subgroup(gens[: count // 2]), subgroup(gens)
    return gamma(h).n_edges + gamma(k).n_edges, lambda: inclusion_morphism(h, k)


def transport_of(count: int):
    """That inclusion transported unbased, against both ends' image-path letters.

    The images are :func:`image_core_of`'s, so the lays identify.
    """
    gens = generators(count)
    f = inclusion_morphism(subgroup(gens[: count // 2]), subgroup(gens))
    phi = GroupHom._raw(ABC, ABC, ((1, 2), (1, -3), (3, 2)))
    size = sum(len(phi.codes[abs(c) - 1]) for g in (f.source, f.target) for c in g.elabel[::2])
    return size, lambda: unbased_image_morphism(phi, f)


def contains_of(count: int):
    """``count`` members of a core built beforehand, against their letters.

    Each word is the product of two seeded picks of 25 generators, so
    the walk reads every letter.
    """
    gens = generators(25)
    h = subgroup(gens)
    gamma(h)
    rng = random.Random(3)
    words = [reduce_codes(rng.choice(gens) + rng.choice(gens)) for _ in range(count)]
    return sum(map(len, words)), lambda: contains_codes(h, ABC, words)


def parse_of(count: int):
    """``count`` words of tokens, against the tokens."""
    lines = [ABC.word(w).text.split() for w in generators(count)]
    return sum(map(len, lines)), lambda: parse_codes(lines)


def kernel_fold(count: int):
    """The bouquet of ``count`` generators, folded by the kernel, against its half-edges."""
    g = bouquet(ABC, generators(count))
    return g.n_half_edges, lambda: _kernel.fold(g.n_vertices, g.einit, g.elabel)


def slope(a: tuple[int, int], b: tuple[int, int]) -> float:
    """The log-log slope from (size, count) a to (size, count) b."""
    return math.log(b[1] / a[1]) / math.log(b[0] / a[0])


@pytest.mark.parametrize(
    "draw",
    [
        onto_base_half, onto_base_hanging, gamma_of, canonical_of, whitehead_of, covering_of,
        basis_of, image_core_of, inclusion_of, transport_of, contains_of, parse_of, kernel_fold,
    ],
)
def test_cost_grows_about_linearly(draw):
    bytecodes: list[tuple[int, int]] = []
    peaks: list[tuple[int, int]] = []
    for count in (25, 100, 400):
        size, call = draw(count)
        executed, peak = cost(call)
        bytecodes.append((size, executed))
        peaks.append((size, peak))
        if len(bytecodes) > 1:  # checked before the next size is drawn and counted
            assert size > 3 * bytecodes[-2][0]
            assert slope(*bytecodes[-2:]) <= MAX_SLOPE, f"(size, bytecodes): {bytecodes}"
    assert slope(peaks[0], peaks[-1]) <= MAX_SLOPE, f"(size, peak bytes): {peaks}"


def test_fuzz_cost_does_not_grow_with_the_alphabet():
    """Ten trials cost the same at alphabet sizes 1,000, 4,000 and 16,000.

    A trial draws at most ``2 * max_len`` generators, and only those are
    named, so neither count may follow the alphabet's size.
    """
    fuzz_example(1, 3, 6)  # builds the example once, outside the counts
    bytecodes: list[tuple[int, int]] = []
    peaks: list[tuple[int, int]] = []
    for size in (1000, 4000, 16000):
        executed, peak = cost(lambda: fuzz_example(10, size, 6))
        bytecodes.append((size, executed))
        peaks.append((size, peak))
        if len(bytecodes) > 1:
            assert abs(slope(*bytecodes[-2:])) <= FLAT_SLOPE, f"(size, bytecodes): {bytecodes}"
    assert abs(slope(peaks[0], peaks[-1])) <= FLAT_SLOPE, f"(size, peak bytes): {peaks}"
