"""Smoke test of the benchmark itself, at a tiny size.

Run with: python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_library()
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(words=5, word_len=8, member_words=10, max_product=3, image_len=3, sample=2)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(capsys, workload: str, seed: int = 1, trace: int = 0, adjust=None):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY, adjust=adjust) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    return info, json.loads(lines[-1]), lines


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_every_metric_with_its_unit(capsys, workload, trace):
    info, result, lines = bench(capsys, workload, trace=trace)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit) for line in lines)
    assert info["failed_ops_ratio"] == 0
    for key in ("python", "kernel_backend", "nproc", "seed", "input_hash", "work_counts"):
        assert key in info


def test_seed_changes_inputs_and_repeats_exactly(capsys):
    first, _, _ = bench(capsys, "core_graph", seed=1)
    again, _, _ = bench(capsys, "core_graph", seed=1)
    other, _, _ = bench(capsys, "core_graph", seed=2)
    assert first["input_hash"] == again["input_hash"] != other["input_hash"]
    assert first["work_counts"] == again["work_counts"]


def test_traced_counts_repeat_and_wrappers_come_off(capsys):
    stallings = sys.modules["stallings"]
    core = stallings.graph.core
    _, first, _ = bench(capsys, "membership", trace=1)
    _, again, _ = bench(capsys, "membership", trace=1)
    tracer.assert_unwrapped()
    assert stallings.graph.core is core and stallings.subgroups.core is core
    assert first["metrics"]["subgroups.gamma.calls_per_op"]["value"] == 1.0
    for name in ("kernel.fold.half_edges_in", "kernel.fold.identifications", "graph.core.calls"):
        assert first["metrics"][name] == again["metrics"][name]


def test_wrong_expected_answer_counts_as_failed(capsys):
    def flip_first(wl):
        expected = wl.expected
        first = wl.main[0]
        wl.expected = lambda q: (not expected(q)) if q is first else expected(q)

    info, result, _ = bench(capsys, "membership", adjust=flip_first)
    assert not result["correct"] and result["failed"] == 1
    assert info["failed_ops_ratio"] == pytest.approx(1 / result["attempted"])


def test_tracer_raises_if_a_wrapper_is_left_in_place():
    tr = tracer.Tracer()
    tr.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.assert_unwrapped()
    finally:
        tr.uninstall()
    tracer.assert_unwrapped()


def test_scaling_follows_the_pace_loop():
    phase = run.Phase(4)
    phase.latency_ns[:] = run.array("q", [10, 20, 30, 40])
    ref = 2_000_000
    phase.pace = [(0, ref), (2, ref), (4, ref)]
    phase.scale(ref)
    assert list(phase.scaled_ns) == [10, 20, 30, 40]
    phase.pace = [(n, 2 * ref) for n, _ in phase.pace]
    phase.scale(ref)
    assert list(phase.scaled_ns) == [5, 10, 15, 20]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_pace_loop_does_fixed_work(workload):
    pacer = run.pace.Pace(*workloads.WORKLOADS[workload].pace)
    assert pacer.work() == pacer.expected
    assert pacer.sample() > 0
