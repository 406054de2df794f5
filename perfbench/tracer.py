"""Spans around the library's public functions, installed from outside.

A wrapper replaces a function in every ``stallings`` module namespace
that holds it, because modules import functions by name (``core`` lives
in ``graph`` and is imported into ``subgroups``, ``functor`` and
``cases.engine``) and the graph module reaches the kernel through the
``_kernel.fold`` attribute.  :meth:`Tracer.uninstall` puts every original
back and :func:`assert_unwrapped` proves it, so no untraced number is
ever taken with a wrapper in place.

Each span records (id, name, start, end, parent) in memory.  A span's
self time is its duration minus the time its child wrappers took,
bookkeeping included, so tracing cost lands on no layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

_MARK = "__perfbench_wrapped__"

# span name -> (module, attribute); a dotted attribute names a method.
SPANS = {
    "words.parse": [("stallings.subgroups", "load_subgroup"), ("stallings.words", "parse_word")],
    "graph.bouquet": [("stallings.graph", "bouquet")],
    "graph.fold_all": [("stallings.graph", "fold_all")],
    "graph.trim_all": [("stallings.graph", "trim_all")],
    "graph.two_core": [("stallings.graph", "two_core")],
    "graph.core": [("stallings.graph", "core")],
    "graph.extend_morphism": [("stallings.graph", "extend_morphism")],
    "graph.classify": [("stallings.graph", "classify")],
    "graph.canonical_form": [("stallings.graph", "canonical_form")],
    "graph.trace": [("stallings.graph", "trace")],
    "kernel.fold": [("stallings._kernel", "fold")],
    "functor.subdivide": [("stallings.functor", "subdivide")],
    "functor.image_core": [("stallings.functor", "image_core")],
    "functor.unbased_core_morphism": [("stallings.functor", "unbased_core_morphism")],
    "subgroups.gamma": [("stallings.subgroups", "gamma")],
    "subgroups.contains": [("stallings.subgroups", "contains")],
    "whitehead.whitehead_graph": [("stallings.whitehead", "whitehead_graph")],
}

# Functions only counted: a span around each would move their time out
# of the caller, and the caller's self time is what the count explains.
COUNTED = {"graph.is_folded": ("stallings.graph", "LabeledGraph.is_folded")}


def _count_kernel(counts, args, result) -> None:
    n_vertices, einit = args[0], args[1]
    vrep, erep = result
    counts["kernel.fold.half_edges_in"] += len(einit)
    counts["kernel.fold.vertices_merged"] += n_vertices - len(set(vrep))
    counts["kernel.fold.identifications"] += (len(einit) - len(set(erep))) // 2


def _count_subdivide(counts, args, result) -> None:
    counts["functor.subdivide.half_edges_out"] += result.n_half_edges


COUNTERS = {"kernel.fold": _count_kernel, "functor.subdivide": _count_subdivide}
COUNT_NAMES = [
    "kernel.fold.half_edges_in",
    "kernel.fold.identifications",
    "kernel.fold.vertices_merged",
    "functor.subdivide.half_edges_out",
]


def _library_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "stallings" or name.startswith("stallings."))
    ]


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs wrappers, records spans and counts, and removes them again."""

    def __init__(self) -> None:
        self.names: list[str] = ["op", *SPANS]
        self.spans = array("q")  # id, name index, start ns, end ns, parent id
        self.self_ns = [0] * len(self.names)
        self.calls: dict[str, int] = dict.fromkeys([*self.names, *COUNTED], 0)
        self.counts: dict[str, int] = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[list[int]] = []  # [span id, child wrapper ns]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for span, targets in SPANS.items():
            for module, attr in targets:
                owner, name = _resolve(module, attr)
                original = getattr(owner, name)
                self._replace(original, self._span_wrapper(span, original))
        for counter, (module, attr) in COUNTED.items():
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            self._patch(owner, name, self._count_wrapper(counter, original))

    def _replace(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` in every module that holds it."""
        for mod in _library_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- wrappers --------------------------------------------------------

    def op(self, fn, *args):
        """Run one benchmark operation as the root span ``op``."""
        return self._run(0, fn, args, {}, None)

    def _span_wrapper(self, span: str, fn):
        count = COUNTERS.get(span)
        nid = self.names.index(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._run(nid, fn, args, kwargs, count)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _count_wrapper(self, counter: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[counter] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _run(self, nid: int, fn, args, kwargs, count):
        tw0 = perf_counter_ns()
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0]
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.self_ns[nid] += (t1 - t0) - frame[1]
            self.calls[self.names[nid]] += 1
            self.spans.extend((span_id, nid, t0, t1, parent))
        if count is not None:
            count(self.counts, args, result)
        if stack:
            stack[-1][1] += perf_counter_ns() - tw0
        return result

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated row, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        s = self.spans
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(0, len(s), 5):
                f.write(f"{s[i]}\t{self.names[s[i + 1]]}\t{s[i + 2]}\t{s[i + 3]}\t{s[i + 4]}\n")


def assert_unwrapped() -> None:
    """Raise if any ``stallings`` module or class still holds a wrapper."""
    for mod in _library_modules():
        for key, value in vars(mod).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"{mod.__name__}.{key} is still wrapped")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        raise RuntimeError(f"{mod.__name__}.{key}.{attr} is still wrapped")
