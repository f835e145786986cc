"""Fast self-test of the benchmark itself (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every workload, at its tiny budget, emits every metric of
``BENCHMARK.json`` by name and unit in both trace modes; that the correctness
gate flags a perturbed front vector; and the span self-time and PHV-crossing
arithmetic and the host-speed rescaling on hand-built inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import hostspeed  # noqa: E402
import numpy as np  # noqa: E402
import run  # noqa: E402
from spans import Span, check_nesting, layer_stats  # noqa: E402


def test_every_metric_emitted() -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for trace, wanted in ((0, benchmark["end_to_end"]), (1, benchmark["per_layer"])):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--tiny",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            assert completed.returncode == 0, (workload, trace, completed.stderr[-2000:])
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            emitted = {name: value["unit"] for name, value in result["metrics"].items()}
            assert emitted == {entry["name"]: entry["unit"] for entry in wanted}, (workload, trace)


def test_gate_flags_perturbed_front() -> None:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import make_problem
    from repro.noc.platform import PlatformConfig

    experiment = ExperimentConfig(platform=PlatformConfig.small_3x3x3(), seed=3)
    warm = make_problem(experiment, "BFS", 5)
    rng = np.random.default_rng(3)
    designs = [warm.random_design(rng) for _ in range(4)]
    objectives = np.array(warm.evaluate_many(designs))
    assert child.gate(make_problem(experiment, "BFS", 5), designs, objectives) == []
    perturbed = objectives.copy()
    perturbed[2, 1] = np.nextafter(perturbed[2, 1], np.inf)
    problems = child.gate(make_problem(experiment, "BFS", 5), designs, perturbed)
    assert any("re-scoring" in problem for problem in problems), problems


def test_span_self_time_arithmetic() -> None:
    spans = [
        Span(0, "run", 0.0, 10.0, None, 0),
        Span(1, "crossover", 1.0, 5.0, 0, 0),
        Span(2, "repair_links", 2.0, 4.0, 1, 0),
        Span(3, "evaluator", 6.0, 9.0, 0, 0),
        Span(4, "routing", 7.0, 8.0, 3, 0),
        Span(5, "moves", 9.0, 9.5, 0, 0),
        Span(6, "moves", 9.1, 9.2, 5, 0),
    ]
    stats = layer_stats(spans)
    expected = {
        "run": (1, 10.0, 2.5),
        "crossover": (1, 4.0, 2.0),
        "repair_links": (1, 2.0, 2.0),
        "evaluator": (1, 3.0, 2.0),
        "routing": (1, 1.0, 1.0),
        "moves": (2, 0.5, 0.5),  # the nested span counts once in busy time
    }
    for name, (calls, busy, self_s) in expected.items():
        assert stats[name]["calls"] == calls, name
        assert abs(stats[name]["busy_s"] - busy) < 1e-12, name
        assert abs(stats[name]["self_s"] - self_s) < 1e-12, name
    # Self times always add up to the root span's duration.
    assert abs(sum(layer["self_s"] for layer in stats.values()) - 10.0) < 1e-12
    assert check_nesting(spans) == []
    escaped = spans + [Span(7, "features", 9.4, 11.0, 0, 0)]
    assert any("escapes" in problem for problem in check_nesting(escaped))


def test_per_layer_shares() -> None:
    record = {
        "wall_s": 10.0,
        "spans": 4,
        "layers": {"run": {"calls": 1, "busy_s": 10.0, "self_s": 2.5},
                   "crossover": {"calls": 4, "busy_s": 4.0, "self_s": 2.0}},
        "counters": {"routing.requests": 8, "routing.hits": 2},
    }
    metrics = run.per_layer_metrics(record)
    assert metrics["crossover.self_share"] == 0.2
    assert metrics["optimizer.self_s"] == 2.5
    assert metrics["routing.hit_rate"] == 0.25
    assert metrics["hypervolume.busy_share"] == 0.0 and metrics["crossover.calls"] == 4


def test_phv_crossing_is_interpolated() -> None:
    from repro.moo.result import SearchSnapshot

    history = [
        SearchSnapshot(0, 4, 1.0, np.array([[0.5, 0.5]])),  # PHV 0.25
        SearchSnapshot(1, 8, 2.0, np.array([[0.2, 0.2]])),  # PHV 0.64
        SearchSnapshot(2, 12, 4.0, np.array([[0.0, 0.0]])),  # PHV 1.0
    ]
    curve = child.phv_curve(history, np.array([1.0, 1.0]))
    assert curve[0] == (0.0, 0.0) and [round(v, 12) for _, v in curve] == [0.0, 0.25, 0.64, 1.0]
    crossing = child.time_to_fraction(curve)
    assert abs(crossing - (2.0 + 2.0 * (0.9 - 0.64) / 0.36)) < 1e-12
    # A first snapshot already past the target is interpolated from the empty front at 0 s.
    assert abs(child.time_to_fraction([(0.0, 0.0), (2.0, 1.0), (3.0, 1.0)]) - 1.8) < 1e-12


def test_speed_normalization() -> None:
    sampler = hostspeed.SpeedSampler()
    ref = hostspeed.REFERENCE_KERNEL_S
    sampler.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (5.0, 3 * ref)]
    # Mean kernel time over [1.5, 3.5] is twice the reference: half the CPU seconds.
    assert abs(sampler.slowdown(1.5, 3.5) - 2.0) < 1e-12
    assert abs(sampler.normalized(4.0, 1.5, 3.5) - 2.0) < 1e-12
    # An interval without a sample takes the one nearest its middle.
    assert abs(sampler.slowdown(4.5, 4.7) - 3.0) < 1e-12
    assert abs(sampler.normalized(1.0, 0.0, 10.0) - 1.0 / 2.0) < 1e-12


def test_derived_seeds() -> None:
    assert run.derived_seed(7, 0) == 7
    seeds = [run.derived_seed(7, index) for index in range(8)]
    assert len(set(seeds)) == 8 and seeds == [run.derived_seed(7, i) for i in range(8)]


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as error:
            failures += 1
            print(f"FAIL {test.__name__}: {error}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
