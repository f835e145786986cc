"""One seeded optimizer run of a benchmark workload, in a fresh process.

Started by ``perfbench/run.py``; prints one JSON line with the run's
measurements and its correctness-gate verdict.  Timing covers only the
optimizer call (``run_algorithm`` or ``run_campaign``); set-up is everything
this process does before it.  Both are measured in CPU seconds, and the
record carries the monotonic times that bound them, so that the parent can
rescale them to a reference host speed (see ``hostspeed.py``).  The gate
runs after timing stops:

* every final-front design is re-scored on a fresh, cold problem (new
  evaluator, new routing engine) and must reproduce its objective vector
  bit for bit;
* every final-front design must pass ``ConstraintChecker.is_feasible``;
* on a seed with a pinned digest, the sha256 of the front must match it.

With ``--trace 1`` the layer wrappers of :mod:`spans` are installed in this
process (never in an untraced one) and the record carries the per-layer statistics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

import spans

HERE = Path(__file__).resolve().parent


def load_workloads() -> dict[str, Any]:
    with open(HERE / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)


def front_digest(fronts: list) -> str:
    """sha256 over the float64 bytes of each front matrix, in order."""
    import numpy as np

    digest = hashlib.sha256()
    for front in fronts:
        digest.update(np.ascontiguousarray(front, dtype=np.float64).tobytes())
    return digest.hexdigest()


def phv_curve(history: list, reference: Any) -> list[tuple[float, float]]:
    """``(elapsed seconds, PHV)`` of every snapshot, after the empty front at 0 s."""
    from repro.moo.hypervolume import hypervolume

    return [(0.0, 0.0)] + [
        (float(snap.elapsed_seconds), hypervolume(snap.front, reference)) for snap in history
    ]


def time_to_fraction(curve: list[tuple[float, float]], fraction: float = 0.9) -> float:
    """Host seconds until the PHV curve first reaches ``fraction`` of its final value.

    The curve starts at the optimizer call with the empty front (PHV 0) and
    is linear between snapshots, so the crossing time is not quantised to
    whole iterations.
    """
    target = fraction * curve[-1][1]
    for (t0, v0), (t1, v1) in zip(curve, curve[1:]):
        if v1 >= target and v1 > v0:
            return t0 + (t1 - t0) * max(0.0, target - v0) / (v1 - v0)
    return curve[-1][0]


def gate(problem: Any, designs: list, objectives: Any) -> list[str]:
    """Correctness problems of a final front scored by ``problem`` (empty when correct).

    ``problem`` must be a fresh, cold problem: its evaluator and routing
    engine have not seen any of the designs.
    """
    import numpy as np

    problems = []
    if not designs:
        return ["empty final front"]
    rescored = problem.evaluate_many(list(designs))
    objectives = np.asarray(objectives, dtype=np.float64)
    if rescored.shape != objectives.shape or not np.array_equal(rescored, objectives):
        problems.append("cold re-scoring does not reproduce the front's objective vectors")
    infeasible = sum(1 for design in designs if not problem.checker.is_feasible(design))
    if infeasible:
        problems.append(f"{infeasible} front design(s) violate the platform constraints")
    return problems


def _experiment(spec: dict[str, Any], seed: int, tiny: bool):
    from repro.experiments.config import ExperimentConfig
    from repro.noc.platform import PlatformConfig

    return ExperimentConfig(
        platform=getattr(PlatformConfig, spec["platform"])(),
        applications=tuple(spec["applications"]),
        objective_counts=(spec["objectives"],),
        max_evaluations=spec["tiny_evaluations"] if tiny else spec["max_evaluations"],
        seed=seed,
    )


def run_single(spec: dict[str, Any], args: argparse.Namespace, tracer: Any) -> dict[str, Any]:
    import repro.experiments.runner as runner

    experiment = _experiment(spec, args.seed, args.tiny)
    application = spec["applications"][0]
    problem = runner.make_problem(experiment, application, spec["objectives"])
    if tracer is not None:
        spans.install(tracer)
    result, record = timed(args, lambda: runner.run_algorithm(spec["algorithm"], problem, experiment))
    if tracer is not None:
        tracer.restore()
    record["evaluations"] = int(result.evaluations)
    curve = phv_curve(result.history, spec["reference_points"][application])
    record["phv_curves"] = [curve]
    record["time_to_phv90_s"] = time_to_fraction(curve)
    cold = runner.make_problem(experiment, application, spec["objectives"])
    record["problems"] = gate(cold, result.pareto_designs(), result.pareto_front())
    record["fronts"] = [result.final_front()]
    return record


def run_campaign(spec: dict[str, Any], args: argparse.Namespace, tracer: Any) -> dict[str, Any]:
    from repro.experiments.config import CampaignConfig
    from repro.experiments.runner import load_campaign_results, make_problem
    from repro.experiments.runner import run_campaign as run
    from repro.study.event_log import EVENT_LOG_NAME

    experiment = _experiment(spec, args.seed, args.tiny)
    campaign = CampaignConfig(
        experiment=experiment,
        algorithms=tuple(spec["algorithms"]),
        max_workers=1,
        resume=False,
    )
    scratch = HERE.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as output_dir:

        def call() -> None:
            if tracer is None:
                run(campaign, output_dir)
                return
            token = tracer.begin("campaign")
            tracer.root = (token[0], None)
            run(campaign, output_dir)
            tracer.root = None
            tracer.end(token, "campaign")

        if tracer is not None:
            spans.install(tracer)
        _, record = timed(args, call)
        if tracer is not None:
            tracer.restore()
        files = [path for path in Path(output_dir).rglob("*") if path.is_file()]
        events = Path(output_dir) / EVENT_LOG_NAME
        record["campaign"] = {
            "bytes_written": sum(path.stat().st_size for path in files),
            "events": events.read_bytes().count(b"\n") if events.exists() else 0,
        }
        record["evaluations"] = 0
        record["time_to_phv90_s"] = 0.0
        record["phv_curves"] = []
        record["problems"] = []
        record["fronts"] = []
        cells = 0
        for cell, result in load_campaign_results(output_dir):
            cells += 1
            record["evaluations"] += int(result.evaluations)
            curve = phv_curve(result.history, spec["reference_points"][cell.application])
            record["phv_curves"].append(curve)
            record["time_to_phv90_s"] += time_to_fraction(curve)
            cold = make_problem(experiment, cell.application, cell.num_objectives)
            record["problems"] += [
                f"{cell.key}: {problem}"
                for problem in gate(cold, result.pareto_designs(), result.pareto_front())
            ]
            record["fronts"].append(result.final_front())
        expected = len(spec["algorithms"]) * len(spec["applications"])
        if cells != expected:
            record["problems"].append(f"campaign finished {cells} of {expected} cells")
        record["campaign"]["cells"] = cells
    return record


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed(args: argparse.Namespace, call: Callable[[], Any]) -> tuple[Any, dict[str, Any]]:
    """Run the optimizer call ``call()``; returns its result and the run's timing record."""
    cpu_start, start = cpu_seconds(), time.monotonic()
    result = call()
    cpu_end, end = cpu_seconds(), time.monotonic()
    return result, {
        "setup_cpu_s": cpu_start,
        "setup_wall_s": start - args.spawned_at,
        "cpu_s": cpu_end - cpu_start,
        "wall_s": end - start,
        "started_at": start,
        "ended_at": end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pinned", default=None, help="expected front sha256 for this seed")
    parser.add_argument("--spans-out", default=None, help="write the traced spans here (JSONL)")
    parser.add_argument("--tiny", action="store_true", help="use the workload's tiny budget")
    args = parser.parse_args(argv)

    spec = load_workloads()["workloads"][args.workload]
    tracer = spans.Tracer() if args.trace else None
    runner = run_campaign if spec["mode"] == "campaign" else run_single
    record = runner(spec, args, tracer)

    record["front_sha256"] = front_digest(record.pop("fronts"))
    if args.pinned is not None and record["front_sha256"] != args.pinned:
        record["problems"].append(
            f"front sha256 {record['front_sha256']} differs from the pinned {args.pinned}"
        )
    record["evals_per_s"] = record["evaluations"] / record["wall_s"]
    if tracer is not None:
        record["layers"] = spans.layer_stats(tracer.spans)
        record["counters"] = dict(tracer.counters)
        record["problems"] += spans.check_nesting(tracer.spans)
        record["spans"] = len(tracer.spans)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span._asdict()) + "\n")
    import numpy
    import scipy

    record["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
