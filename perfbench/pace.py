"""The pace loop: a fixed piece of pure-Python work that times the machine.

A shared host changes speed by up to 2x, for seconds to minutes at a
time, and the change hits every process on it.  The benchmark runs a
pace loop between ops and scales each op's time by the loop's reference
time over its time measured around that op, so a time metric reads what
the op would take on a machine where the loop takes its reference time.

The loop folds a fixed random graph with union-find over dict adjacency,
allocating small objects and building and sorting tuples, as the library
does, and it uses nothing of the library, so a library change leaves it
alone.  A slow stretch of the host hurts memory-bound work more than
work that stays in cache, so each workload folds a graph of about the
size its op works on: many tiny graphs for ``transport``, one graph of
600 vertices for the others (see ``Workload.pace`` in ``workloads.py``).

Changing this file rescales every time metric; do not change it.
"""

from __future__ import annotations

import random
import time


class _Node:
    __slots__ = ("out", "rep")

    def __init__(self):
        self.out = {}
        self.rep = None


def fold(n: int, edges: tuple) -> tuple[int, int]:
    """Fold one graph; return (merges, distinct adjacency rows)."""
    parent = list(range(n))
    nodes = [_Node() for _ in range(n)]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merged = 0
    for v, label, w in edges:
        v, w = find(v), find(w)
        out = nodes[v].out
        u = out.get(label)
        if u is None:
            out[label] = w
        else:
            u = find(u)
            if u != w:
                parent[w] = u
                merged += 1
    for i, node in enumerate(nodes):
        node.rep = find(i)
    rows = sorted({(node.rep, tuple(sorted(node.out.items()))) for node in nodes if node.out})
    return merged, len(rows)


class Pace:
    """Fold a fixed random graph with ``vertices`` vertices ``reps`` times.

    ``ref_ns`` is the time one sample takes at the reference speed.
    """

    def __init__(self, vertices: int, reps: int, ref_ns: int):
        rng = random.Random(f"pace:{vertices}")
        labels = (1, -1, 2, -2, 3, -3)
        self.n = vertices
        self.edges = tuple(
            (rng.randrange(vertices), rng.choice(labels), rng.randrange(vertices))
            for _ in range(2 * vertices)
        )
        self.reps = reps
        self.ref_ns = ref_ns
        self.expected = self.work()

    def work(self) -> list[tuple[int, int]]:
        return [fold(self.n, self.edges) for _ in range(self.reps)]

    def sample(self) -> int:
        """Run the loop once and return its time in ns."""
        t0 = time.perf_counter_ns()
        out = self.work()
        t1 = time.perf_counter_ns()
        if out != self.expected:
            raise RuntimeError(f"pace loop gave {out[0]}, expected {self.expected[0]}")
        return t1 - t0
