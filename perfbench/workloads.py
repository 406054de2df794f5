"""The benchmark's workloads: inputs from a seed, one timed op, checks.

Every workload draws its inputs from ``random.Random`` seeded with the
workload name, the stream (``main`` for the untraced loop, ``trace`` for
the traced one) and ``--seed``, builds the whole pool before timing
starts, and calls the library only through ``stallings`` module
attributes, so the tracer's wrappers are seen.

Checks never use the library as the reference: generators are walked
through the op's canonical text, membership and core sizes come from
the one-pair-at-a-time fold in ``oracle``, and a transported morphism
must be injective (the source paper's theorem).  Checks run between ops,
outside the timed interval, or after the loop.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

import stallings
from stallings.cases import root_case

import oracle


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the smoke test shrinks them, the benchmark never does."""

    words: int = 50  # generators per core_graph subgroup
    word_len: int = 40
    member_words: int = 200  # generators of the membership subgroup
    max_product: int = 6  # generators per membership product query
    image_len: int = 6  # longest image word in transport (the fuzz default)
    sample: int = 4  # ops per stream checked against the oracle fold


class Codec:
    """Generator names ``x1..xr`` and the signed-int labels the oracle uses."""

    def __init__(self, rank: int):
        self.names = tuple(f"x{i}" for i in range(1, rank + 1))
        self.token = {}
        for i, name in enumerate(self.names, start=1):
            self.token[i] = name
            self.token[-i] = name + "^-1"
        self.code = {t: c for c, t in self.token.items()}

    def text(self, word: list[int]) -> str:
        return " ".join([self.token[c] for c in word])

    def letter_code(self, letter) -> int:
        return self.code[letter.token]


def random_word(rng: random.Random, rank: int, length: int) -> list[int]:
    """A uniformly random reduced word of the given length, as labels."""
    rnd = rng.random
    n = 2 * rank
    out: list[int] = []
    prev = 0
    while len(out) < length:
        k = int(rnd() * n)
        c = (k >> 1) + 1 if k & 1 == 0 else -((k >> 1) + 1)
        if c != -prev:
            out.append(c)
            prev = c
    return out


def reduce_word(word: list[int]) -> list[int]:
    out: list[int] = []
    for c in word:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return out


def rng_for(name: str, stream: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{stream}:{seed}")


class Workload:
    """One workload: a pool of inputs, the op, and its checks.

    ``min_ops`` is the fewest ops a run makes.  It also fixes the tail
    latency's percentile (10 samples above it in ``min_ops``), and the
    traced run takes its exact counts over its first ``min_ops`` ops.  ``cap_per_s`` sizes the
    pool at about twice today's throughput: a loop that uses up the pool
    ends before ``--seconds``.
    """

    name: str
    min_ops: int
    cap_per_s: int
    # the pace loop (vertices, repeats, reference ns): see pace.py
    pace = (600, 1, 2_000_000)

    def __init__(self, seed: int, seconds: float, sizes: Sizes = Sizes()):
        self.seed = seed
        self.pool_size = max(self.min_ops, int(seconds * self.cap_per_s))
        self.sizes = sizes
        self.deferred: list[tuple[tuple[str, int], object, object]] = []

    def setup(self) -> None:
        """Everything before the loop; timed as ``setup_s``."""
        raise NotImplementedError

    def pool(self, stream: str, size: int | None = None) -> list:
        """``size`` inputs (default ``pool_size``) of the named stream."""
        raise NotImplementedError

    def pool_bytes(self, pool: list) -> bytes:
        return repr(pool).encode()

    def input_hash(self, pool: list) -> str:
        return hashlib.sha256(self.pool_bytes(pool)).hexdigest()[:16]

    def prepare(self, x):
        """Untimed per-op preparation of a pooled input."""
        return x

    def op(self, x):
        raise NotImplementedError

    def check(self, key: tuple[str, int], x, out) -> bool:
        """Cheap check between ops; may defer work to :meth:`verify`."""
        raise NotImplementedError

    def verify(self) -> set[tuple[str, int]]:
        """Deferred checks after the loop; returns the keys of failed ops."""
        return set()

    def work_counts(self) -> dict[str, int]:
        raise NotImplementedError


class CoreGraph(Workload):
    """Subgroup file text -> canonical core graph and Whitehead graph."""

    name = "core_graph"
    rank = 3
    min_ops = 50
    cap_per_s = 40

    def setup(self) -> None:
        self.codec = Codec(self.rank)
        self.main = self.pool("main")

    def pool(self, stream: str, size: int | None = None) -> list[str]:
        rng = rng_for(self.name, stream, self.seed)
        s = self.sizes
        return [
            "\n".join(
                self.codec.text(random_word(rng, self.rank, s.word_len)) for _ in range(s.words)
            )
            for _ in range(size or self.pool_size)
        ]

    def op(self, text: str):
        h = stallings.load_subgroup(text)
        g = stallings.gamma(h)
        return stallings.canonical_form(g), stallings.whitehead_graph(g)

    def words(self, text: str) -> list[list[int]]:
        code = self.codec.code
        return [[code[t] for t in line.split()] for line in text.split("\n")]

    def check(self, key, text, out) -> bool:
        form, white = out
        base, step = oracle.parse_canonical(form, self.codec.code)
        for word in self.words(text):
            v = base
            for c in word:
                v = step.get((v, c))
                if v is None:
                    return False
            if v != base:
                return False
        if key[1] < self.sizes.sample:
            self.deferred.append((key, text, (base, step, white)))
        return True

    def verify(self) -> set:
        failed = set()
        self.sample_graphs = []
        for key, text, (base, step, white) in self.deferred:
            g = oracle.core(*oracle.bouquet_edges(self.words(text)), 0)
            if key[0] == "main":
                self.sample_graphs.append(g)
            white_codes = {
                frozenset(self.codec.letter_code(l) for l in e) for e in white.edges
            }
            if not oracle.same_pointed_graph(g, base, step) or white_codes != g.whitehead_edges():
                failed.add(key)
        return failed

    def work_counts(self) -> dict[str, int]:
        gs = self.sample_graphs
        return {
            "sample_ops": len(gs),
            "bouquet_half_edges": sum(g.half_edges_in for g in gs),
            "core_vertices": sum(g.n_vertices for g in gs),
            "identifications": sum(g.identifications for g in gs),
        }


class CoreGraphWide(CoreGraph):
    """The same op over a rank-1000 alphabet, where words rarely collide."""

    name = "core_graph_wide"
    rank = 1000
    min_ops = 40
    cap_per_s = 10


@dataclass(frozen=True)
class Query:
    word: object  # the library's Word
    codes: tuple[int, ...]  # the same word as oracle labels
    product: bool  # a product of generators, so a member by construction


class Membership(Workload):
    """``contains(H, w)`` against one subgroup H built in setup."""

    name = "membership"
    rank = 3
    min_ops = 50
    cap_per_s = 20

    def setup(self) -> None:
        self.codec = Codec(self.rank)
        rng = rng_for(self.name, "subgroup", self.seed)
        s = self.sizes
        self.generators = [random_word(rng, self.rank, s.word_len) for _ in range(s.member_words)]
        self.subgroup = stallings.load_subgroup(
            "\n".join(self.codec.text(w) for w in self.generators),
            stallings.Alphabet(self.codec.names),
        )
        self.main = self.pool("main")
        stallings.contains(self.subgroup, self.main[0].word)
        self.oracle_graph = None

    def pool(self, stream: str, size: int | None = None) -> list[Query]:
        rng = rng_for(self.name, stream, self.seed)
        s = self.sizes
        out = []
        for j in range(size or self.pool_size):
            if j % 2 == 0:
                word: list[int] = []
                for _ in range(rng.randint(1, s.max_product)):
                    g = rng.choice(self.generators)
                    word.extend(g if rng.random() < 0.5 else [-c for c in reversed(g)])
                codes = reduce_word(word)
            else:
                codes = random_word(rng, self.rank, s.word_len)
            out.append(Query(stallings.parse_word(self.codec.text(codes)), tuple(codes), j % 2 == 0))
        return out

    def pool_bytes(self, pool: list[Query]) -> bytes:
        return repr([self.generators, [(q.codes, q.product) for q in pool]]).encode()

    def op(self, q: Query) -> bool:
        return stallings.contains(self.subgroup, q.word)

    def check(self, key, q, out) -> bool:
        self.deferred.append((key, q, out))
        return True

    def expected(self, q: Query) -> bool:
        """Products are members; other words are traced in the oracle core."""
        if q.product:
            return True
        g = self.oracle_core()
        return g.trace(list(q.codes)) == g.base

    def oracle_core(self) -> oracle.OracleGraph:
        if self.oracle_graph is None:
            self.oracle_graph = oracle.core(*oracle.bouquet_edges(self.generators), 0)
        return self.oracle_graph

    def verify(self) -> set:
        return {key for key, q, out in self.deferred if out != self.expected(q)}

    def work_counts(self) -> dict[str, int]:
        g = self.oracle_core()
        return {
            "sample_ops": 1,
            "bouquet_half_edges": g.half_edges_in,
            "core_vertices": g.n_vertices,
            "identifications": g.identifications,
        }


class Transport(Workload):
    """One trial of the randomized check: transport the example, classify.

    A homomorphism sends ``a`` and ``b`` to reduced words of length
    1..6 over rank 3, each length equally likely and each word of a
    length equally likely, as ``stallings fuzz`` draws them.  The op
    builds the ``GroupHom`` from the drawn images, as the fuzz loop does.
    """

    name = "transport"
    rank = 3
    min_ops = 500
    cap_per_s = 8000
    pace = (16, 40, 2_100_000)  # tiny graphs, as the op's are
    # the example inclusion <b> <= <b, a b a^-1>, with a = 1 and b = 2
    source_words = [[2]]
    target_words = [[2], [1, 2, -1]]

    def setup(self) -> None:
        self.codec = Codec(self.rank)
        self.case = root_case()
        self.source_alphabet = self.case.alphabet
        self.target_alphabet = stallings.Alphabet(self.codec.names)
        letters = {c: stallings.parse_letter(t) for c, t in self.codec.token.items()}
        by_length = [[]]
        for length in range(1, self.sizes.image_len + 1):
            by_length.append(
                [w for w in itertools.product(letters, repeat=length)
                 if all(w[i] != -w[i + 1] for i in range(length - 1))]
            )
        self.table = [w for ws in by_length for w in ws]
        self.letters = [tuple(letters[c] for c in w) for w in self.table]
        self.offsets = list(itertools.accumulate(len(ws) for ws in by_length))
        self.main = self.pool("main")

    def pool(self, stream: str, size: int | None = None) -> list[int]:
        rng = rng_for(self.name, stream, self.seed)
        n = len(self.table)

        def draw() -> int:
            length = rng.randint(1, self.sizes.image_len)
            lo, hi = self.offsets[length - 1], self.offsets[length]
            return lo + int(rng.random() * (hi - lo))

        return [draw() * n + draw() for _ in range(size or self.pool_size)]

    def prepare(self, x: int):
        a, b = divmod(x, len(self.table))
        return self.letters[a], self.letters[b]

    def op(self, images):
        phi = stallings.GroupHom(
            self.source_alphabet,
            self.target_alphabet,
            {"a": stallings.Word(images[0]), "b": stallings.Word(images[1])},
        )
        m = stallings.unbased_image_morphism(phi, self.case.morphism)
        return m, stallings.classify(m)

    def check(self, key, x, out) -> bool:
        m, verdict = out
        injective = len(set(m.vmap)) == len(m.vmap) and len(set(m.emap)) == len(m.emap)
        if key[1] < self.sizes.sample:
            self.deferred.append((key, x, m))
        return injective and verdict.injective

    def verify(self) -> set:
        failed = set()
        self.sample_graphs = []
        for key, x, m in self.deferred:
            a, b = divmod(x, len(self.table))
            images = {1: list(self.table[a]), 2: list(self.table[b])}
            for words, graph in ((self.source_words, m.source), (self.target_words, m.target)):
                g = oracle.core(*oracle.bouquet_edges(words), 0)
                edges = [(v, c, w) for v, d in enumerate(g.out) if g.alive[v]
                         for c, hs in d.items() if c > 0 for w in hs]
                image = oracle.core(*oracle.subdivide_edges(len(g.out), edges, images), g.base)
                if key[0] == "main":
                    self.sample_graphs.append(image)
                unbased = oracle.two_core(image)
                if (unbased.n_vertices, unbased.n_half_edges) != (graph.n_vertices, graph.n_half_edges):
                    failed.add(key)
        return failed

    def work_counts(self) -> dict[str, int]:
        gs = self.sample_graphs
        return {
            "sample_ops": len(gs) // 2,
            "subdivision_half_edges": sum(g.half_edges_in for g in gs),
            "core_vertices": sum(g.n_vertices for g in gs),
            "identifications": sum(g.identifications for g in gs),
        }


WORKLOADS = {w.name: w for w in (CoreGraph, CoreGraphWide, Membership, Transport)}
