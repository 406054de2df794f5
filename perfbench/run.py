"""Repository benchmark for the stallings pipeline.

Drives the library's public API from one process and one thread as a
closed loop: one caller, each op starting when the previous one returns.

    python3 perfbench/run.py --workload core_graph --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced loop.
``--trace 1`` splits the time between the same untraced loop and a
traced loop on a second input stream, with wrappers around the layers'
functions, and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
Every time metric is scaled to the reference speed of the workload's
pace loop (``pace.py``), which runs between ops; the raw wall times are
in the info line.
The library is imported from ``src`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import pace
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_PACE = 5  # pace samples before and after each setup
WARMUP_S = 1.5  # untimed ops before the loop
PACE_EVERY_NS = 20_000_000  # op time per pace sample
PACE_MAX_RUNS = 8  # pace samples in one gap between two ops
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
RATE_BLOCKS = 8  # blocks for the median rate and median latency

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SELF_MS = ["op", *tracing.SPANS]
PER_OP_CALLS = {
    "graph.core.calls": "graph.core",
    "graph.is_folded.calls": "graph.is_folded",
    "subgroups.gamma.calls_per_op": "subgroups.gamma",
}
PER_OP_COUNTS = tracing.COUNT_NAMES
PER_LAYER = {
    **{f"{name}.self_ms": "ms" for name in SELF_MS},
    **{name: "count/op" for name in PER_OP_CALLS},
    **{name: "count/op" for name in PER_OP_COUNTS},
    "graph.core.fold_calls_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def load_library():
    """Import ``stallings`` from this checkout's ``src``; return it and the time taken."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import stallings

    import_s = time.perf_counter() - t0
    if src not in Path(stallings.__file__).resolve().parents:
        raise ImportError(f"stallings imported from {stallings.__file__}, not from {src}")
    return stallings, import_s


class Phase:
    """The outcome of one closed loop over a pool."""

    def __init__(self, capacity: int):
        # Allocated in full before the loop, so the benchmark's own
        # records weigh the same in peak_rss_mb however many ops run.
        self.latency_ns = array("q", bytes(8 * capacity))
        self.scaled_ns = array("d")
        self.peak_rss_mb = 0.0
        # (ops done before the sample, its ns): the machine's speed over the loop
        self.pace: list[tuple[int, int]] = []
        self.failed: set[tuple[str, int]] = set()
        self.exhausted = False
        self.snapshot: tuple[dict, dict] | None = None

    @property
    def ops(self) -> int:
        return len(self.latency_ns)

    @property
    def mean_ns(self) -> float:
        return sum(self.scaled_ns) / self.ops

    @property
    def pace_ns(self) -> float:
        return statistics.median(ns for _, ns in self.pace)

    def scale(self, ref_ns: int) -> None:
        """Scale each op's time to the reference pace.

        An op's factor is ``ref_ns`` over the median of the pace samples
        in the gaps just before and just after it, so a stretch of a slow
        host slows ops and loop alike.
        """
        pos = [n for n, _ in self.pace]
        ns = [t for _, t in self.pace]
        factors: dict[tuple[int, int], float] = {}
        self.scaled_ns = array("d", bytes(8 * self.ops))
        for i, lat in enumerate(self.latency_ns):
            after = bisect.bisect_left(pos, i + 1)
            gaps = (pos[after - 1], pos[after])
            if gaps not in factors:
                lo, hi = bisect.bisect_left(pos, gaps[0]), bisect.bisect_right(pos, gaps[1])
                factors[gaps] = ref_ns / statistics.median(ns[lo:hi])
            self.scaled_ns[i] = lat * factors[gaps]


def measure(wl, pool: list, stream: str, seconds: float, pacer, tracer=None) -> Phase:
    """Run ops until ``seconds`` of op time and ``wl.min_ops`` ops are done.

    The pace loop runs before the first op, after the last, and between
    ops once per ``PACE_EVERY_NS`` of op time since it last ran (at most
    ``PACE_MAX_RUNS`` times in one gap).
    """
    phase = Phase(len(pool))
    done = 0
    budget = seconds * 1e9
    spent = 0
    since_pace = 0
    phase.pace.append((0, pacer.sample()))
    op = wl.op
    clock = time.perf_counter_ns
    for i, x in enumerate(pool):
        if spent >= budget and i >= wl.min_ops:
            break
        key = (stream, i)
        args = wl.prepare(x)
        out = None
        t0 = clock()
        try:
            out = op(args) if tracer is None else tracer.op(op, args)
        except Exception:
            if not phase.failed:
                traceback.print_exc()
            phase.failed.add(key)
        t1 = clock()
        phase.latency_ns[i] = t1 - t0
        done = i + 1
        spent += t1 - t0
        if key not in phase.failed and not checked(wl, key, x, out):
            phase.failed.add(key)
        if tracer is not None and i + 1 == wl.min_ops:
            phase.snapshot = (dict(tracer.calls), dict(tracer.counts))
        since_pace += t1 - t0
        if since_pace >= PACE_EVERY_NS:
            for _ in range(min(since_pace // PACE_EVERY_NS, PACE_MAX_RUNS)):
                phase.pace.append((i + 1, pacer.sample()))
            since_pace = 0
    else:
        phase.exhausted = spent < budget
    phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del phase.latency_ns[done:]
    phase.pace.append((phase.ops, pacer.sample()))
    phase.scale(pacer.ref_ns)
    return phase


def warm_up(wl, seconds: float) -> None:
    """Run untimed ops on a stream of their own for ``seconds``.

    The first ops of a process run up to 1.5x slower (the allocator
    grows, lazy set-up runs); without this they land in the tail.
    """
    end = time.perf_counter() + seconds
    for x in wl.pool("warmup", max(int(seconds * wl.cap_per_s), 1)):
        wl.op(wl.prepare(x))
        if time.perf_counter() >= end:
            break


def checked(wl, key, x, out) -> bool:
    """The workload's check; an output the check cannot read is wrong."""
    try:
        return wl.check(key, x, out)
    except Exception:
        traceback.print_exc()
        return False


def blocks(values: list, count: int) -> list[list]:
    """``values`` cut into ``count`` contiguous runs of near-equal length."""
    n = len(values)
    return [values[n * i // count:n * (i + 1) // count] for i in range(count)]


def tail(values: list[float], block: int) -> float:
    """The sample with ``TAIL_BEYOND`` samples above it per ``block`` samples."""
    beyond = len(values) * TAIL_BEYOND // block
    return sorted(values)[max(len(values) - 1 - beyond, 0)]


def end_to_end(phase: Phase, setup_s: float, block: int) -> tuple[dict, dict]:
    """End-to-end metrics, each a median over blocks of consecutive ops.

    Op times are the scaled ones (see :meth:`Phase.scale`); a median
    over blocks also ignores a stretch the pace loop did not catch.
    The tail's percentile is fixed per workload, the one that leaves
    ``TAIL_BEYOND`` samples above it in ``block`` samples, and it is taken
    in blocks of at least ``block`` ops, so it stays the same percentile
    however many ops a run makes.
    """
    lat = phase.scaled_ns
    n = len(lat)
    rate_blocks = blocks(lat, RATE_BLOCKS if n >= 2 * RATE_BLOCKS else 1)
    tail_blocks = blocks(lat, max(n // block, 1))
    metrics = {
        "ops_per_s": statistics.median(len(b) / (sum(b) / 1e9) for b in rate_blocks),
        "op_ms_p50": statistics.median(statistics.median(b) for b in rate_blocks) / 1e6,
        "op_ms_tail": statistics.median(tail(b, block) for b in tail_blocks) / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": phase.peak_rss_mb,
    }
    extra = {
        "op_ms_tail_percentile": 100 * (block - TAIL_BEYOND) / block,
        "op_ms_tail_beyond": TAIL_BEYOND,
        "op_ms_tail_min_block_ops": block,
        "op_ms_tail_blocks": len(tail_blocks),
    }
    return metrics, extra


def per_layer(tr, traced: Phase, untraced: Phase, k: int, ref_ns: int) -> dict:
    calls, counts = traced.snapshot
    n = traced.ops
    factor = ref_ns / traced.pace_ns
    metrics = {
        f"{name}.self_ms": tr.self_ns[tr.names.index(name)] * factor / n / 1e6 for name in SELF_MS
    }
    metrics.update({m: calls[span] / k for m, span in PER_OP_CALLS.items()})
    metrics.update({m: counts[m] / k for m in PER_OP_COUNTS})
    core_calls = calls["graph.core"]
    metrics["graph.core.fold_calls_ratio"] = calls["graph.fold_all"] / core_calls if core_calls else 0.0
    metrics["trace.overhead_ratio"] = traced.mean_ns / untraced.mean_ns
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, sizes=None, adjust=None) -> int:
    """Run one workload; ``sizes`` and ``adjust`` exist for the smoke test.

    ``adjust`` is called with the set-up workload before the loop.
    """
    args = parse_args(argv)
    try:
        stallings, import_s = load_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    pacer = pace.Pace(*cls.pace)
    sizes = sizes or workloads.Sizes()

    setup_runs = []
    setup_scaled = []
    for _ in range(SETUP_REPEATS):
        wl = None
        gc.collect()
        before = [pacer.sample() for _ in range(SETUP_PACE)]
        t0 = time.perf_counter()
        wl = cls(args.seed, args.seconds, sizes)
        wl.setup()
        raw = time.perf_counter() - t0
        after = [pacer.sample() for _ in range(SETUP_PACE)]
        setup_runs.append(raw)
        setup_scaled.append(raw * pacer.ref_ns / statistics.median(before + after))
    # The import ran once, just before the first setup's pace samples.
    import_scaled = import_s * setup_scaled[0] / setup_runs[0]
    setup_s = import_scaled + statistics.median(setup_scaled)
    if adjust is not None:
        adjust(wl)

    tracing.assert_unwrapped()
    warm_up(wl, WARMUP_S)
    # The pools are the benchmark's data, not the library's: keep the
    # collector from walking them during ops.
    gc.collect()
    gc.freeze()
    loop_s = args.seconds / 2 if args.trace else args.seconds
    main_phase = measure(wl, wl.main, "main", loop_s, pacer)
    phases = [main_phase]
    info_extra = {}
    if args.trace:
        trace_pool = wl.pool("trace")
        info_extra["trace_input_hash"] = wl.input_hash(trace_pool)
        tr = tracing.Tracer()
        gc.collect()
        gc.freeze()
        tr.install()
        try:
            traced = measure(wl, trace_pool, "trace", loop_s, pacer, tr)
        finally:
            tr.uninstall()
        tracing.assert_unwrapped()
        phases.append(traced)
        metrics = per_layer(tr, traced, main_phase, wl.min_ops, pacer.ref_ns)
        units = PER_LAYER
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tr.write_spans(spans_path)
        info_extra["spans_file"] = str(spans_path.relative_to(ROOT))
        info_extra["traced_ops"] = traced.ops
        info_extra["count_window_ops"] = wl.min_ops
    else:
        metrics, tail_info = end_to_end(main_phase, setup_s, wl.min_ops)
        units = END_TO_END
        info_extra.update(tail_info)

    gc.unfreeze()
    failed = set().union(*(p.failed for p in phases)) | wl.verify()
    attempted = sum(p.ops for p in phases)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "kernel_backend": stallings.kernel_backend,
        "nproc": len(os.sched_getaffinity(0)),
        "input_hash": wl.input_hash(wl.main),
        "work_counts": wl.work_counts(),
        "ops": main_phase.ops,
        "pool_size": wl.pool_size,
        "pool_exhausted": any(p.exhausted for p in phases),
        "failed_ops_ratio": len(failed) / attempted,
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "pace_ref_ms": pacer.ref_ns / 1e6,
        "pace_ms_p50": main_phase.pace_ns / 1e6,
        "pace_samples": len(main_phase.pace),
        "raw_op_ms_p50": statistics.median(main_phase.latency_ns) / 1e6,
        "raw_ops_per_s": main_phase.ops / (sum(main_phase.latency_ns) / 1e9),
        **info_extra,
    }
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
