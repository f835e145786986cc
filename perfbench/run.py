"""End-to-end benchmark of seeded design-space-exploration runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload moela-paper --seed 7 --seconds 30 --trace 0

Each workload (``perfbench/workloads.json``) is one fixed optimizer run through
the public front door (``make_problem`` + ``run_algorithm``, or
``run_campaign``).  A benchmark run starts them one after another, each in a
fresh process (``perfbench/child.py``) on its own seed derived from
``--seed``, as long as the next one is expected to end within ``--seconds``
(but at least MIN_RUNS of them), and reports medians.  Times are CPU seconds
of the child process rescaled to a reference host speed measured on the
child's CPU while it runs (``hostspeed.py``), since a shared host's own speed
drifts; raw CPU and wall seconds are kept in the full record.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs each seed twice, untraced and traced, and reports the
per-layer metrics from the traced runs plus the tracing overhead; the two
runs of a seed must produce the same front.

Every run passes a correctness gate (see ``child.py``); a run that raises,
times out or fails the gate counts as failed.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the full record with provenance and every run's raw numbers, also
written to ``.perfbench_out/``.  The exit code is 0 only when every run was
correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Seeds run per benchmark run at least (half as many untraced/traced pairs
#: with --trace 1), unless LAUNCH_CUTOFF_S has passed; DEADLINE_S bounds the
#: whole run.  Past the minimum, a seed is started only if it is expected to
#: end within --seconds, judged by the longest seed so far.
MIN_RUNS = 4
LAUNCH_CUTOFF_S = 120.0
DEADLINE_S = 170.0

#: Thread settings of every child: one BLAS/OpenMP thread (never more than nproc).
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Per-run figures whose medians over the untraced runs every record carries.
SUMMARY = ("norm_cpu_s", "evals_per_norm_cpu_s", "setup_s", "peak_rss_mb", "cpu_s",
           "setup_cpu_s", "wall_s", "setup_wall_s", "evals_per_s", "time_to_phv90_s")

#: Names of the layer spans whose time is reported as a share of traced wall time.
SHARES = {
    "crossover.self_share": ("crossover", "self_s"),
    "repair_links.busy_share": ("repair_links", "busy_s"),
    "random_design.busy_share": ("random_design", "busy_s"),
    "moves.busy_share": ("moves", "busy_s"),
    "routing.busy_share": ("routing", "busy_s"),
    "evaluator.self_share": ("evaluator", "self_s"),
    "features.busy_share": ("features", "busy_s"),
    "forest.busy_share": ("forest", "busy_s"),
    "hypervolume.busy_share": ("hypervolume", "busy_s"),
    "optimizer.self_share": ("run", "self_s"),
    "campaign.self_share": ("campaign", "self_s"),
}


def derived_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th run of a benchmark run; run 0 uses ``seed`` itself."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"perfbench|{seed}|{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def canonical_sha256(payload: Any) -> str:
    """sha256 of the canonical JSON form (sorted keys, fixed separators)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def per_layer_metrics(record: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced run record (see ``child.py``)."""
    layers = record["layers"]
    counters = record["counters"]
    wall = record["wall_s"]

    def calls(layer: str) -> int:
        return int(layers.get(layer, {}).get("calls", 0))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    campaign = record.get("campaign", {})
    metrics: dict[str, float] = {
        "crossover.calls": calls("crossover"),
        "repair_links.calls": calls("repair_links"),
        "repair_links.fallback_ratio": ratio(
            counters.get("repair_links.fallbacks", 0), calls("repair_links")
        ),
        "random_design.calls": calls("random_design"),
        "moves.calls": calls("moves"),
        "routing.requests": counters.get("routing.requests", 0),
        "routing.hits": counters.get("routing.hits", 0),
        "routing.misses": counters.get("routing.misses", 0),
        "routing.incremental_repairs": counters.get("routing.incremental_repairs", 0),
        "routing.hit_rate": ratio(
            counters.get("routing.hits", 0), counters.get("routing.requests", 0)
        ),
        "evaluator.batches": counters.get("evaluator.batches", 0),
        "evaluator.designs": counters.get("evaluator.designs", 0),
        "evaluator.evaluations": counters.get("evaluator.evaluations", 0),
        "evaluator.cache_hit_ratio": ratio(
            counters.get("evaluator.cache_hits", 0), counters.get("evaluator.designs", 0)
        ),
        "features.calls": calls("features"),
        "forest.fits": calls("forest"),
        "hypervolume.calls": calls("hypervolume"),
        "optimizer.self_s": layers.get("run", {}).get("self_s", 0.0),
        "campaign.cells": campaign.get("cells", 0),
        "campaign.events": campaign.get("events", 0),
        "campaign.bytes_written": campaign.get("bytes_written", 0),
        "trace.wall_s": wall,
        "trace.spans": record["spans"],
    }
    for name, (layer, field) in SHARES.items():
        metrics[name] = layers.get(layer, {}).get(field, 0.0) / wall
    return metrics


def provenance(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Where and on what a benchmark run was measured."""
    git_sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=10,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            git_sha = dirty = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "git_dirty": dirty,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "versions": records[0]["versions"] if records else None,
        "thread_env": THREAD_ENV,
    }


def run_child(
    workload: str, seed: int, trace: int, deadline: float, tiny: bool, pinned: "str | None"
) -> dict[str, Any]:
    """Run one child process; returns its record, or a failure record."""
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if tiny:
        command.append("--tiny")
    if pinned is not None:
        command += ["--pinned", pinned]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        command += ["--spans-out", str(OUT_DIR / f"spans-{workload}-{seed}.jsonl")]
    base = {"seed": seed, "trace": trace}
    sampler = hostspeed.SpeedSampler()
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        while True:
            try:
                stdout, stderr = process.communicate(timeout=hostspeed.INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    return dict(base, problems=["timed out"])
                sampler.sample()
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return dict(base, problems=[f"exit code {process.returncode}: {' | '.join(tail)}"])
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return dict(base, problems=["unparseable child output"])
    start, end = record["started_at"], record["ended_at"]
    record["setup_s"] = sampler.normalized(record["setup_cpu_s"], spawned_at, start)
    record["norm_cpu_s"] = sampler.normalized(record["cpu_s"], start, end)
    record["evals_per_norm_cpu_s"] = record["evaluations"] / record["norm_cpu_s"]
    record["slowdown"] = sampler.slowdown(start, end)
    record["speed_samples"] = len(sampler.samples)
    return dict(record, child_s=time.monotonic() - spawned_at, **base)


def main(argv: "list[str] | None" = None) -> int:
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads["workloads"]))
    parser.add_argument("--seed", type=int, default=workloads["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny budgets and a single seed (self-test only)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through run_child, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and every child, so that the speed samples
    # (see hostspeed.py) are taken on the CPU the child runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # Refuse to report anything without the program and the metric list.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"perfbench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2

    started = time.monotonic()
    spec = workloads["workloads"][args.workload]
    pinned = spec["pinned_front_sha256"] if args.seed == workloads["default_seed"] else None

    runs: list[dict[str, Any]] = []
    seeds: list[int] = []
    deadline = started + DEADLINE_S
    minimum = MIN_RUNS // 2 if args.trace else MIN_RUNS
    longest = 0.0
    while not seeds or not (
        args.tiny
        or time.monotonic() - started > LAUNCH_CUTOFF_S
        or (time.monotonic() - started + longest > args.seconds and len(seeds) >= minimum)
    ):
        seed_started = time.monotonic()
        index = len(seeds)
        seed = derived_seed(args.seed, index)
        seeds.append(seed)
        pin = pinned if index == 0 and not args.tiny else None
        untraced = run_child(args.workload, seed, 0, deadline, args.tiny, pin)
        runs.append(untraced)
        if args.trace:
            traced = run_child(args.workload, seed, 1, deadline, args.tiny, pin)
            if "front_sha256" in traced and traced["front_sha256"] != untraced.get("front_sha256"):
                traced["problems"].append("tracing changed the front digest")
            runs.append(traced)
        longest = max(longest, time.monotonic() - seed_started)

    good = [run for run in runs if not run["problems"]]
    failed = len(runs) - len(good)
    untraced = [run for run in good if not run["trace"]]
    summary = {
        name: statistics.median(run[name] for run in untraced)
        for name in SUMMARY if untraced
    }
    if args.trace:
        wanted = benchmark["per_layer"]
        traced = [run for run in good if run["trace"]]
        cpu_by_seed = {run["seed"]: run["norm_cpu_s"] for run in untraced}
        overheads = [run["norm_cpu_s"] - cpu_by_seed[run["seed"]] for run in traced
                     if run["seed"] in cpu_by_seed]
        values = [
            dict(per_layer_metrics(run), **{
                "trace.overhead_s": statistics.median(overheads),
                "search.time_to_phv90_s": summary["time_to_phv90_s"],
            })
            for run in traced
        ] if overheads else []
    else:
        wanted = benchmark["end_to_end"]
        values = untraced
    metrics: dict[str, dict[str, Any]] = {}
    if values:
        metrics = {
            entry["name"]: {
                "value": statistics.median(float(run[entry["name"]]) for run in values),
                "unit": entry["unit"],
            }
            for entry in wanted
        }
    correct = failed == 0 and bool(metrics)

    record: dict[str, Any] = {
        "kind": "perfbench-result",
        "version": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": {
            key: value for key, value in spec.items()
            if key not in ("why", "predictions", "measured_mix")
        },
        "seeds": seeds,
        "provenance": provenance(good),
        "elapsed_s": time.monotonic() - started,
        "summary": summary,
        "runs": runs,
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    record["sha256"] = canonical_sha256(record)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
