"""mtk benchmark: one workload at one seed, measured for a fixed time.

    python3 bench/run.py --workload verify-lp --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

Single process, single thread; mtk is called in-process through its
public API.  With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it replays the same rounds under the outside-in tracer
(bench/tracer.py) and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when an output is wrong (a violated record, a broken
identity, an unexpected exception) and 2 on a usage error, under
`python -O`, or when the mtk sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
TRACE_DIR = BENCH / "traces"
SETUP_REPEATS = 9
DEFAULT_SECONDS = 25

# The suites whose untraced seconds the traced run reports.
SUITE_METRICS = (
    "edmonds-k2", "duality-chain", "williams", "ratio-rq", "furedi-fks",
    "abm", "list-bounds", "meshulam", "whitney",
)

# Per-layer metrics: (traced name, summary field, unit).
LAYER_METRICS = [
    *[("lp." + f, k, u) for f in ("solve", "solve_max_slack")
      for k, u in (("calls", "count"), ("self_s", "s"), ("cells", "count"))],
    ("coloring.chi_list", "calls", "count"),
    ("coloring.chi_list", "self_s", "s"),
    ("coloring.chi_list", "cap_hits", "count"),
    ("coloring.delta_rank", "calls", "count"),
    ("coloring.delta_rank", "self_s", "s"),
    ("coloring.chi", "self_s", "s"),
    ("coloring.chi_star", "calls", "count"),
    *[(f"matroid.Matroid.{f}", k, u) for f in ("rank", "flats")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("matroid.MatroidSystem.intersection_complex", "self_s", "s"),
    *[(f"polytopes.{f}", k, u)
      for f in ("member", "psi", "vertices", "ratio", "nu_star_w", "tau_star_w")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("topology.snf_diagonal", "calls", "count"),
    ("topology.snf_diagonal", "self_s", "s"),
    ("topology.snf_diagonal", "cells", "count"),
    *[(f"topology.{f}", k, u) for f in ("eta_h", "expansions")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    *[(f"core.{f}", k, u)
      for f in ("independence_complex", "matching_complex", "min_nonfaces", "Complex.faces")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    *[(f"meshulam.{f}", k, u)
      for f in ("gamma_e_graph", "gamma_e_hyper", "delete_contract_certificate")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("cli.instance_from_dict", "calls", "count"),
    ("cli.instance_from_dict", "self_s", "s"),
]


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports mtk and builds
    the workload's inputs, scaled by the reference kernel timed before
    and after it."""
    from speed import scale, time_kernel

    times = []
    ref = time_kernel()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True,
        )
        dt = time.perf_counter() - t0
        after = time_kernel()
        times.append(dt * scale(ref, after))
        ref = after
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(name: str, value, unit: str, out: dict) -> None:
    out[name] = {"value": value, "unit": unit}


def report_output(name: str, seed: int, rounds: list["workloads.Round"]) -> None:
    from workloads import DEFAULT_SEED, PINNED_SHA256, digest

    sha = digest(rounds[0].lines)
    print(f"records_sha256 {sha} (round 0, {len(rounds[0].lines)} lines)")
    if seed == DEFAULT_SEED and sha != PINNED_SHA256[name]:
        print(f"output changed: round 0 hash differs from the pinned {PINNED_SHA256[name]}")


def wall(rounds: list["workloads.Round"]) -> float:
    """Mean round time at the reference speed."""
    return statistics.mean(r.seconds * r.scale for r in rounds)


def counts(rounds: list["workloads.Round"]) -> tuple[int, int, list[str]]:
    """(attempted, undecided, failure messages) over the rounds."""
    failed = [f for r in rounds for f in r.failed]
    return sum(r.attempted for r in rounds), sum(r.undecided for r in rounds), failed


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, list["workloads.Round"]]:
    from workloads import play_for

    setup_s = measure_setup(workload.name, seed)
    workload.prepare(seed)
    rounds = play_for(workload, seed, seconds)
    query_ms = [dt * 1e3 for dt in workload.latencies(rounds)]
    p90 = statistics.quantiles(query_ms, n=10, method="inclusive")[8] if len(query_ms) > 1 else query_ms[0]
    metrics: dict = {}
    metric("wall_s", wall(rounds), "s", metrics)
    metric("setup_s", setup_s, "s", metrics)
    metric("peak_rss_mb", peak_rss_mb(), "MB", metrics)
    metric("query_ms.p50", statistics.median(query_ms), "ms", metrics)
    metric("query_ms.p90", p90, "ms", metrics)
    print(f"rounds {len(rounds)}, queries {len(query_ms)}; unscaled mean round "
          f"{statistics.mean(r.seconds for r in rounds):.4f} s, mean scale "
          f"{statistics.mean(r.scale for r in rounds):.4f}")
    return metrics, rounds


def run_traced(workload, seed: int, seconds: float) -> tuple[dict, list["workloads.Round"]]:
    import mtk
    from mtk.errors import CapExceeded
    import workloads
    from tracer import Tracer
    from workloads import play_for

    workload.prepare(seed)
    plain = play_for(workload, seed, seconds / 3)
    tracer = Tracer(mtk, CapExceeded)
    tracer.start_tracing()
    try:
        traced = play_for(workload, seed, seconds, rounds=len(plain))
    finally:
        tracer.stop()
    n = len(traced)
    plain_wall = wall(plain[:n])
    traced_wall = wall(traced)
    if workloads.digest(plain[0].lines) != workloads.digest(traced[0].lines):
        traced[0].failed.append("traced round 0 records differ from the untraced ones")
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{workload.name}-seed{seed}.spans")

    summary = tracer.summary()
    metrics: dict = {}
    for name, key, unit in LAYER_METRICS:
        metric(f"{name}.{key}", summary[name][key], unit, metrics)
    for suite in SUITE_METRICS:
        calls = [dt * r.scale for r in plain for label, dt in r.ops if label == suite]
        metric(f"verify.{suite}.s", statistics.mean(calls) if calls else 0.0, "s", metrics)
    metric("trace_overhead_s", traced_wall - plain_wall, "s", metrics)
    attempted, undecided, failed = counts(plain)
    metric("failed_share", (undecided + len(failed)) / attempted, "share", metrics)

    traced_total = sum(r.seconds for r in traced)
    print(f"rounds {len(plain)} untraced, {n} traced; {len(tracer.name_id)} spans")
    print("self-time shares of traced wall time:")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:10]:
        print(f"  {row['self_s'] / traced_total:7.1%}  {name}  ({row['calls']} calls)")
    return metrics, plain + traced


def run_one(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, rounds = run_traced(workload, args.seed, args.seconds)
    else:
        metrics, rounds = run_untraced(workload, args.seed, args.seconds)
    report_output(workload.name, args.seed, rounds)
    attempted, undecided, failed = counts(rounds)
    print(
        f"attempted {attempted}, undecided {undecided}, failed {len(failed)}, "
        f"failed_share {(undecided + len(failed)) / attempted:.4f}"
    )
    for f in failed[:5]:
        print(f"FAILED {f}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Every workload untraced, each in its own process (peak RSS is per
    process), then one summary line per workload."""
    import workloads

    status = 0
    summary = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds)],
            stdout=subprocess.PIPE, text=True,
        )
        print(f"== {name}\n{proc.stdout}", end="")
        status = max(status, proc.returncode)
        keep = [ln for ln in proc.stdout.splitlines()
                if ln.startswith("metric ") or "failed_share" in ln]
        summary.append(f"{name}: " + "; ".join(ln.removeprefix("metric ") for ln in keep))
    print("== summary", *summary, sep="\n")
    return status


def main(argv=None) -> int:
    if sys.flags.optimize:
        print("error: refusing to run under python -O: mtk's certificate checks "
              "are asserts, so the run would measure a different program",
              file=sys.stderr)
        return 2
    if not (SRC / "mtk" / "__init__.py").is_file():
        print(f"error: mtk sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run, its reference kernel and its set-up children:
        # the two vCPUs of a shared host drift apart in speed, and the
        # kernel must be timed on the CPU the work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from the traced run (ignored with --workload all)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: all, "
                 + ", ".join(workloads.WORKLOADS))
    if args.setup_only:
        workloads.WORKLOADS[args.workload].prepare(args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
