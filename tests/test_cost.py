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
bounded over the whole 16x span instead.
"""

from __future__ import annotations

import math
import random
import sys
import tracemalloc

import pytest

from stallings import _kernel
from stallings.graph import bouquet, canonical_form
from stallings.subgroups import Subgroup, gamma, onto_base
from stallings.whitehead import whitehead_graph
from stallings.words import Alphabet, invert_codes, reduce_codes

from helpers import reduced_words

ABC = Alphabet.of("a", "b", "c")
MAX_SLOPE = 1.2


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


def kernel_fold(count: int):
    """The bouquet of ``count`` generators, folded by the kernel, against its half-edges."""
    g = bouquet(ABC, generators(count))
    return g.n_half_edges, lambda: _kernel.fold(g.n_vertices, g.einit, g.elabel)


def slope(a: tuple[int, int], b: tuple[int, int]) -> float:
    """The log-log slope from (size, count) a to (size, count) b."""
    return math.log(b[1] / a[1]) / math.log(b[0] / a[0])


@pytest.mark.parametrize(
    "draw", [onto_base_half, onto_base_hanging, gamma_of, canonical_of, whitehead_of, kernel_fold]
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
