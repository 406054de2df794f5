"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls the library.  Labels are nonzero ints: generator
``k`` (1-based) is ``k`` and its inverse is ``-k``.  A graph is a list
``out`` of dicts, ``out[v][label]`` being the set of far endpoints of the
half-edges at ``v`` with that label; both orientations of every edge are
stored, and edges with equal endpoints and label are one edge.

Folding merges one colliding pair of vertices at a time until no vertex
has two half-edges with the same label, a deliberately plain fixpoint
that shares no code or data layout with the library's kernel.
"""

from __future__ import annotations


class OracleGraph:
    """A folded, trimmed graph and the work it took to get there."""

    def __init__(self, out: list[dict[int, set[int]]], alive: list[bool], base: int | None,
                 half_edges_in: int, identifications: int):
        self.out = out
        self.alive = alive
        self.base = base
        self.half_edges_in = half_edges_in
        self.identifications = identifications

    @property
    def n_vertices(self) -> int:
        return sum(self.alive)

    @property
    def n_half_edges(self) -> int:
        return sum(len(hs) for v, d in enumerate(self.out) if self.alive[v] for hs in d.values())

    def step(self, v: int, label: int) -> int | None:
        heads = self.out[v].get(label)
        return next(iter(heads)) if heads else None

    def trace(self, word: list[int]) -> int | None:
        """Endpoint of the path spelling ``word`` from the base, or None."""
        v = self.base
        for label in word:
            v = self.step(v, label)
            if v is None:
                return None
        return v

    def whitehead_edges(self) -> set[frozenset[int]]:
        """Pairs {x^-1, y^-1} for distinct labels x, y at a common vertex."""
        edges = set()
        for v, d in enumerate(self.out):
            if not self.alive[v]:
                continue
            labels = [c for c, hs in d.items() for _ in hs]
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    if labels[i] != labels[j]:
                        edges.add(frozenset((-labels[i], -labels[j])))
        return edges


def bouquet_edges(words: list[list[int]]) -> tuple[int, list[tuple[int, int, int]]]:
    """Loops at vertex 0 spelling each nonempty word: (vertex count, edges)."""
    edges = []
    n = 1
    for w in words:
        if not w:
            continue
        chain = [0] + list(range(n, n + len(w) - 1)) + [0]
        n += len(w) - 1
        edges.extend((chain[i], c, chain[i + 1]) for i, c in enumerate(w))
    return n, edges


def subdivide_edges(n: int, edges: list[tuple[int, int, int]],
                    images: dict[int, list[int]]) -> tuple[int, list[tuple[int, int, int]]]:
    """Replace each edge labeled x by a path spelling ``images[x]``."""
    out = []
    for u, c, w in edges:
        img = images[c] if c > 0 else [-x for x in reversed(images[-c])]
        chain = [u] + list(range(n, n + len(img) - 1)) + [w]
        n += len(img) - 1
        out.extend((chain[i], x, chain[i + 1]) for i, x in enumerate(img))
    return n, out


def core(n: int, edges: list[tuple[int, int, int]], base: int | None) -> OracleGraph:
    """Fold one pair at a time, then trim hanging vertices other than ``base``."""
    out: list[dict[int, set[int]]] = [dict() for _ in range(n)]
    for u, c, w in edges:
        out[u].setdefault(c, set()).add(w)
        out[w].setdefault(-c, set()).add(u)
    alive = [True] * n
    pending = list(range(n))
    while pending:
        v = pending.pop()
        if not alive[v]:
            continue
        for hs in out[v].values():
            if len(hs) > 1:
                a, b = sorted(hs)[:2]
                pending.extend(_merge(out, alive, a, b))
                pending.append(v)
                break
    edges_after = sum(len(hs) for d in out for hs in d.values()) // 2
    _trim(out, alive, base)
    return OracleGraph(out, alive, base, 2 * len(edges), len(edges) - edges_after)


def _merge(out, alive, a: int, b: int) -> list[int]:
    """Identify vertex b with vertex a; return the vertices to re-examine."""
    touched = [a]
    for c, hs in list(out[b].items()):
        for w in list(hs):
            out[w][-c].discard(b)
            w2 = a if w == b else w
            out[a].setdefault(c, set()).add(w2)
            out[w2].setdefault(-c, set()).add(a)
            touched.append(w2)
    out[b] = {}
    alive[b] = False
    return touched


def _trim(out, alive, protect: int | None) -> None:
    """Drop degree <= 1 vertices other than ``protect`` until none is left.

    Keeps one vertex when everything would go, as a graph needs one.
    """
    def degree(v):
        return sum(len(hs) for hs in out[v].values())

    n_alive = sum(alive)
    queue = [v for v in range(len(out)) if alive[v] and v != protect and degree(v) <= 1]
    while queue and n_alive > 1:
        v = queue.pop()
        if not alive[v] or v == protect or degree(v) > 1:
            continue
        for c, hs in list(out[v].items()):
            for w in list(hs):
                out[w][-c].discard(v)
                if w != v and w != protect and degree(w) <= 1:
                    queue.append(w)
        out[v] = {}
        alive[v] = False
        n_alive -= 1


def two_core(g: OracleGraph) -> OracleGraph:
    """Forget the base point and trim the hanging path (works on a copy)."""
    out = [{c: set(hs) for c, hs in d.items()} for d in g.out]
    alive = list(g.alive)
    _trim(out, alive, None)
    return OracleGraph(out, alive, None, g.half_edges_in, g.identifications)


def parse_canonical(text: str, code: dict[str, int]) -> tuple[int, dict[tuple[int, int], int]]:
    """Read the library's canonical text into (base, {(vertex, label): head})."""
    lines = text.split("\n")
    base = int(lines[0].split()[1])
    step: dict[tuple[int, int], int] = {}
    for line in lines[1:]:
        v, arrow, w = line.split(" ")
        c = code[arrow[1:-2]]
        v, w = int(v), int(w)
        step[(v, c)] = w
        step[(w, -c)] = v
    return base, step


def same_pointed_graph(g: OracleGraph, base: int, step: dict[tuple[int, int], int]) -> bool:
    """True iff the folded oracle graph and a step table are pointed-isomorphic."""
    image = {g.base: base}
    used = {base}
    stack = [g.base]
    n_half_edges = 0
    while stack:
        v = stack.pop()
        for c, hs in g.out[v].items():
            for w in hs:
                n_half_edges += 1
                w2 = step.get((image[v], c))
                if w2 is None:
                    return False
                if w in image:
                    if image[w] != w2:
                        return False
                elif w2 in used:
                    return False
                else:
                    image[w] = w2
                    used.add(w2)
                    stack.append(w)
    return len(image) == g.n_vertices and n_half_edges == len(step)
