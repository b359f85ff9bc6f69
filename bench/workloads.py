"""The benchmark's workloads: what one round runs, and how outputs are checked.

A run repeats rounds until its time is up.  Round j of a run at seed s
uses the sub-seed `s + 1_000_000 * j`, so round 0 at seed s is exactly
`mtk verify <suite> --seed s` at the workload's counts, and every round
is replayable on its own.  A round is a list of operations, each one
call a user would make: one `run_suite` call on the verify workloads,
one instance's full `mtk invariants` + `mtk ratio` answer on `queries`.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
import time
import traceback
from dataclasses import dataclass, field

from mtk import cli, coloring, polytopes, topology, verify
from mtk.extval import INF
from mtk.polytopes import PolytopeRef
from speed import scale, time_kernel

DEFAULT_SEED = 1
KERNEL_EVERY_S = 0.5  # how often play_for times the reference kernel
SUB_SEED_STRIDE = 1_000_000

# sha256 of round 0's output lines at DEFAULT_SEED: VerificationRecord.to_json
# lines on the verify workloads, sorted-key answer lines on `queries`.  A
# mismatch is reported as changed output; a change that alters records
# says why and updates the pin.
PINNED_SHA256 = {
    "verify-lp": "1edbfeb38b3bd3c4055c9922fdf1a0a3da018b8fb314ff517dadb747ca73fce0",
    "verify-list": "a9805027d88e9ffbd3a9ebb1b7cb50a56af3e66233869f41774baac6e8b0e8f9",
    "verify-topo": "4c04377c61ce9a626d8394022105adae7d2340a889351e5056c2a225a428785b",
    "queries": "b67071021d4031a360a4077594662654413c548973ca33da5eac773a9aa5a3c7",
}


def sub_seed(seed: int, j: int) -> int:
    return seed + SUB_SEED_STRIDE * j


@dataclass
class Outcome:
    """What one operation produced, classified by content."""

    lines: list[str] = field(default_factory=list)
    attempted: int = 0
    undecided: int = 0  # skipped(cap) or "unresolved": not a defect
    failed: list[str] = field(default_factory=list)  # violated, broken, raised


# -- verify workloads -------------------------------------------------------


def check_overrides(suites) -> None:
    """Stop on any override a suite does not accept: run_suite drops
    those silently, which would run a scaled workload at default size."""
    for name, overrides in suites:
        accepted = set(inspect.signature(verify.SUITES[name]).parameters)
        unknown = sorted(set(overrides) - accepted)
        if unknown:
            raise SystemExit(f"suite {name!r} does not accept overrides {unknown}")


def verify_op(name: str, overrides: dict, seed: int):
    def op() -> Outcome:
        out = Outcome()
        for r in verify.run_suite(name, seed=seed, **overrides):
            out.lines.append(r.to_json())
            out.attempted += 1
            if r.verdict == "violated":
                out.failed.append(f"violated: {out.lines[-1]}")
            elif r.verdict != "holds" or "unresolved" in r.lhs:
                out.undecided += 1
        return out

    return op


@dataclass(frozen=True)
class VerifyWorkload:
    name: str
    why: str
    suites: tuple[tuple[str, dict], ...]

    def prepare(self, seed: int) -> None:
        check_overrides(self.suites)

    def round_ops(self, seed: int, j: int):
        s = sub_seed(seed, j)
        return [(name, verify_op(name, ov, s)) for name, ov in self.suites]

    def latencies(self, rounds) -> list[float]:
        """A verify query is one round: the workload's suites at one seed."""
        return [r.seconds * r.scale for r in rounds]


# -- queries ----------------------------------------------------------------

# Ground-set sizes of one round's instances, and the largest n at which
# R:Q is asked.  Query latency is heavy-tailed (a tenfold p10-p90 range
# at n = 6), so the instances are kept small enough that a run answers
# some 450 queries and p90 has 45 beyond it.  At n >= 5 the R:Q route
# (vertices plus the duplicated matchings route inside `ratio`, 2^n
# packing LPs) takes over 60% of a query, which would put this workload
# on solve_max_slack, the LP path verify-lp already covers; asking it on
# the n = 4 instances keeps that route measured while the two-phase
# `solve` carries the time.
QUERY_SIZES = (4, 4, 4, 5, 5, 5, 5, 5, 5, 5)
RQ_MAX_N = 4


def _frac(rng: random.Random, max_num: int, max_den: int) -> str:
    return f"{rng.randint(0, max_num)}/{rng.randint(1, max_den)}"


def _unit_frac(rng: random.Random, max_den: int) -> str:
    den = rng.randint(1, max_den)
    return f"{rng.randint(0, den)}/{den}"


def _rand_matroid_dict(rng: random.Random, n: int) -> dict:
    """A loopless matroid in the CLI's instance format."""
    kind = rng.choice(("uniform", "gen_partition", "graphic"))
    if kind == "uniform":
        return {"kind": "uniform", "n": n, "rank": rng.randint(1, n)}
    if kind == "gen_partition":
        labels = [rng.randrange(rng.randint(1, n // 2 + 1)) for _ in range(n)]
        parts = [
            [v for v in range(n) if labels[v] == lab] for lab in sorted(set(labels))
        ]
        caps = [rng.randint(1, len(p)) for p in parts]
        return {"kind": "gen_partition", "n": n, "parts": parts, "caps": caps}
    vertices = rng.randint(2, 5)
    edges = [rng.sample(range(vertices), 2) for _ in range(n)]
    return {"kind": "graphic", "vertices": vertices, "edges": edges}


def query_instances(seed: int) -> list[dict]:
    """One round of instance dicts, as `mtk gen` would write them."""
    rng = random.Random(seed)
    out = []
    for i, n in enumerate(QUERY_SIZES):
        k = rng.choice((2, 3))
        out.append(
            {
                "provenance": f"bench-query#{i}(n={n},k={k})",
                "matroids": [_rand_matroid_dict(rng, n) for _ in range(k)],
                "weights": {
                    "h": [_frac(rng, 3, 4) for _ in range(n)],
                    # tau_w is integral only for w <= 1
                    "w": [_unit_frac(rng, 4) for _ in range(n)],
                },
            }
        )
    return out


def _fmt(v) -> str:
    return "inf" if v == INF else str(v)


def answer(raw: dict) -> tuple[dict, list[str]]:
    """What `mtk invariants --what eta_h,expansions,chi,chi_star,numbers`
    and `mtk ratio --pair R:P` (and R:Q on small n) print, plus the broken identities."""
    inst = cli.instance_from_dict(raw, origin=raw["provenance"])
    system = inst.system
    h = inst.weights["h"]
    w = inst.weights["w"]
    c = system.intersection_complex()
    out = {"eta_h": _fmt(topology.eta_h(c))}
    rec = topology.expansions(c, tuple(h))
    out.update(
        delta_r=str(rec.delta_r),
        delta_eta=str(rec.delta_eta),
        delta=str(rec.delta),
        delta_h=str(rec.delta_h),
    )
    out["chi"] = str(coloring.chi(c))
    chi_star = coloring.chi_star(c, list(h))
    psi_p = polytopes.psi(PolytopeRef.P(c), h)
    out["chi_star"] = str(chi_star)
    out["psi_P"] = _fmt(psi_p)
    nums = polytopes.matroidal_numbers(system, w)
    out.update(
        nu_w=str(nums.nu),
        nu_star_w=str(nums.nu_star),
        tau_star_w=str(nums.tau_star),
        tau_w=str(nums.tau),
    )
    r_ref = PolytopeRef.R(system)
    r_p = polytopes.ratio(r_ref, PolytopeRef.P(c))
    out["ratio_RP"] = _fmt(r_p)
    if system.n <= RQ_MAX_N:
        out["ratio_RQ"] = _fmt(polytopes.ratio(r_ref, PolytopeRef.Q(c)))
    broken = []
    if chi_star != psi_p:
        broken.append(f"chi_star {chi_star} != psi(P) {psi_p}")
    if not nums.nu <= nums.nu_star == nums.tau_star <= nums.tau:
        broken.append(
            f"chain nu<=nu*=tau*<=tau broken: "
            f"{nums.nu}, {nums.nu_star}, {nums.tau_star}, {nums.tau}"
        )
    if r_p == INF or r_p > system.k:
        broken.append(f"ratio R:P {_fmt(r_p)} > k = {system.k}")
    return out, broken


def query_op(raw: dict):
    def op() -> Outcome:
        ans, broken = answer(raw)
        out = Outcome(attempted=1)
        out.lines.append(json.dumps({raw["provenance"]: ans}, sort_keys=True))
        out.failed.extend(f"{raw['provenance']}: {b}" for b in broken)
        return out

    return op


@dataclass(frozen=True)
class QueryWorkload:
    name: str
    why: str

    def prepare(self, seed: int) -> None:
        query_instances(sub_seed(seed, 0))

    def round_ops(self, seed: int, j: int):
        return [("query", query_op(raw)) for raw in query_instances(sub_seed(seed, j))]

    def latencies(self, rounds) -> list[float]:
        """A query is one instance's full answer."""
        return [dt * r.scale for r in rounds for _, dt in r.ops]


# -- rounds -------------------------------------------------------------------


@dataclass
class Round(Outcome):
    """One round's outcomes, with the time of each operation.  Times are
    raw; `scale` converts them to seconds at the reference speed."""

    seconds: float = 0.0
    ops: list[tuple[str, float]] = field(default_factory=list)
    scale: float = 1.0


def play(workload, seed: int, j: int) -> Round:
    """Run round j, timing each operation; building the round's inputs
    is outside the timed region."""
    rnd = Round()
    for label, op in workload.round_ops(seed, j):
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception:  # an unexpected exception fails the run, not the bench
            dt = time.perf_counter() - t0
            rnd.attempted += 1
            rnd.failed.append(f"{label} raised:\n{traceback.format_exc()}")
        else:
            dt = time.perf_counter() - t0
            rnd.lines.extend(out.lines)
            rnd.attempted += out.attempted
            rnd.undecided += out.undecided
            rnd.failed.extend(out.failed)
        rnd.ops.append((label, dt))
        rnd.seconds += dt
    return rnd


def play_for(workload, seed: int, seconds: float, rounds=None) -> list[Round]:
    """Rounds 0, 1, ... until `seconds` have passed (at least one round),
    or at most `rounds` of them.  The reference kernel runs first and then
    after every KERNEL_EVERY_S of rounds; the mean of the two kernel times
    around a batch of rounds sets their scale."""
    out: list[Round] = []
    batch: list[Round] = []
    t0 = time.perf_counter()
    ref = time_kernel()
    since = time.perf_counter()
    while True:
        batch.append(play(workload, seed, len(out) + len(batch)))
        now = time.perf_counter()
        done = (rounds is not None and len(out) + len(batch) >= rounds) or now - t0 >= seconds
        if done or now - since >= KERNEL_EVERY_S:
            after = time_kernel()
            since = time.perf_counter()
            for rnd in batch:
                rnd.scale = scale(ref, after)
            out += batch
            batch = []
            ref = after
        if done:
            return out


# -- the workloads ------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        VerifyWorkload(
            "verify-lp",
            "LP-bound suites: the packing simplex solve_max_slack and the 2^n sweeps carry the time",
            (
                ("edmonds-k2", dict(pairs=7)),
                ("duality-chain", dict(count=8)),
                ("williams", dict(count=8, max_n=7)),
                ("ratio-rq", dict(count=6, max_n=5)),
                ("furedi-fks", dict(count=12)),
                ("abm", dict(count=12)),
            ),
        ),
        VerifyWorkload(
            "verify-list",
            "list-bounds: list-system enumeration (chi_list) carries the time, the LP almost none",
            (("list-bounds", dict(count=30, budget=30_000)),),
        ),
        VerifyWorkload(
            "verify-topo",
            "meshulam on larger graphs plus whitney: face enumeration and Smith normal form, no LP",
            (
                ("meshulam", dict(graphs=20, hypergraphs=10, max_graph_n=10)),
                ("whitney", {}),
            ),
        ),
        QueryWorkload(
            "queries",
            "seeded instance files answered like mtk invariants and mtk ratio: two-phase LP solve and vertices",
        ),
    )
}


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
