"""Theorem-verification suites over generated and canned instances.

Each suite emits VerificationRecords with exact values on both sides of
the claimed relation.  Suites are deterministic given the seed, and
their default arguments are the CLI scale; run_suite sorts each suite's
records by (claim, instance).
"""

from __future__ import annotations

import inspect
import itertools
import json
import operator
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import coloring, constructions, meshulam, polytopes, topology
from .coloring import matdim_exact, matdim_upper
from .core import (
    Complex,
    Hypergraph,
    _undominated,
    contract,
    independence_complex,
    iter_bits,
    mask_of,
    matching_complex,
    min_nonfaces,
)
from .errors import CapExceeded, CertificateError, DomainError, Uncolorable
from .extval import INF, XRat
from .matroid import (
    DualMatroid,
    GenPartitionMatroid,
    GraphicMatroid,
    Matroid,
    MatroidSystem,
    UniformMatroid,
)
from .polytopes import PolytopeRef

ONE = Fraction(1)

SHARPNESS_Q = (2, 3)  # plane orders q of the sharp examples Q_k and T_k
MESHULAM_MAX_EDGES = 8
ABM_MAX_EDGES = 9
FKS_MAX_EDGES = 12
APPENDIX_C_MAX_A = 5  # (a,b)-colourability is tried for b <= a <= 5, b <= 2
APPENDIX_C_MAX_B = 2


@dataclass(frozen=True)
class VerificationRecord:
    claim: str
    instance: str
    lhs: str
    rhs: str
    relation: str
    verdict: str  # "holds" | "violated" | "skipped(cap)"
    witness: dict | None = None

    def to_json(self) -> str:
        payload = {
            "claim": self.claim,
            "instance": self.instance,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            payload["witness"] = self.witness
        return json.dumps(payload, sort_keys=True)


# The relations _rec decides itself when both sides are values.
_DECIDE = {"==": operator.eq, "<=": operator.le, ">=": operator.ge, "<": operator.lt}


def _rec(claim, instance, lhs, rhs, relation, ok=None, witness=None, **violation):
    """A decided record.  Left out, ok is the printed relation applied to
    the printed values lhs and rhs; a check whose side is a description,
    or that is composite, passes ok.  violation holds _payload's
    arguments, built into the witness only when the verdict is violated;
    a witness passed outright is kept whatever the verdict."""
    if ok is None:
        if relation not in _DECIDE or not all(
            isinstance(x, (int, Fraction, XRat)) for x in (lhs, rhs)
        ):
            raise TypeError(f"{claim}: cannot decide {lhs!r} {relation} {rhs!r}")
        ok = _DECIDE[relation](lhs, rhs)
    if violation and not ok:
        witness = _payload(**violation)
    return VerificationRecord(
        claim=claim,
        instance=instance,
        lhs=str(lhs),
        rhs=str(rhs),
        relation=relation,
        verdict="holds" if ok else "violated",
        witness=witness,
    )


def _skip(claim, instance, relation="", note="", lhs="", rhs="") -> VerificationRecord:
    return VerificationRecord(
        claim=claim,
        instance=instance,
        lhs=str(lhs),
        rhs=str(rhs),
        relation=relation,
        verdict="skipped(cap)",
        witness={"note": note} if note else None,
    )


def _payload(system=None, hypergraph=None, complex_=None, extra=None):
    """A replayable instance dict for violation witnesses."""
    inst = constructions.Instance(
        provenance="violation-witness",
        hypergraph=hypergraph,
        complex_=complex_,
        system=system,
    )
    out = constructions.instance_to_dict(inst)
    if extra:
        out.update(extra)
    return out


# -- random generators ------------------------------------------------------


def rand_matroid(rng: random.Random, n: int, loopless: bool = True) -> Matroid:
    while True:
        kind = rng.choice(["uniform", "partition", "gen_partition", "graphic", "dual"])
        m = _rand_matroid_once(rng, n, kind)
        if not loopless or not m.loops():
            return m


def _rand_matroid_once(rng, n, kind):
    if kind == "uniform":
        return UniformMatroid(rng.randint(1, n), n)
    if kind in ("partition", "gen_partition"):
        parts = _rand_partition(rng, n, rng.randint(1, max(1, n // 2 + 1)))
        if kind == "partition":
            caps = [1] * len(parts)
        else:
            caps = [rng.randint(1, p.bit_count()) for p in parts]
        return GenPartitionMatroid(n, parts, caps)
    if kind == "graphic":
        vertices = rng.randint(2, 5)
        edges = [
            tuple(rng.sample(range(vertices), 2)) for _ in range(n)
        ]
        return GraphicMatroid(vertices, edges)
    inner = _rand_matroid_once(rng, n, rng.choice(["uniform", "gen_partition", "graphic"]))
    return DualMatroid(inner)


def _rand_partition(rng, n, k) -> list[int]:
    labels = [rng.randrange(k) for _ in range(n)]
    used = sorted(set(labels))
    parts = [mask_of(v for v in range(n) if labels[v] == lab) for lab in used]
    return parts


def rand_system(rng, n, k, loopless=True, partition=False) -> MatroidSystem:
    if partition:
        return MatroidSystem([_rand_matroid_once(rng, n, "partition") for _ in range(k)])
    return MatroidSystem([rand_matroid(rng, n, loopless) for _ in range(k)])


def rand_weights(rng, n, max_num=3, max_den=4) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(0, max_num), rng.randint(1, max_den)) for _ in range(n)
    )


def rand_weights_unit(rng, n, max_den=4) -> tuple[Fraction, ...]:
    out = []
    for _ in range(n):
        den = rng.randint(1, max_den)
        out.append(Fraction(rng.randint(0, den), den))
    return tuple(out)


def rand_hypergraph(rng, n, max_edges, min_size=1, max_size=4) -> Hypergraph:
    avail = [
        (size, tuple(combo))
        for size in range(min_size, min(max_size, n) + 1)
        for combo in itertools.combinations(range(n), size)
    ]
    count = rng.randint(1, min(max_edges, len(avail)))
    chosen = rng.sample(avail, count)
    return Hypergraph(n, [mask_of(c) for _, c in chosen])


def rand_kpartite(rng, k, part_size_max, max_edges) -> tuple[Hypergraph, tuple[int, ...]]:
    sizes = [rng.randint(1, part_size_max) for _ in range(k)]
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    edges = set()
    want = rng.randint(1, max_edges)
    for _ in range(want * 3):
        e = 0
        for i, s in enumerate(sizes):
            e |= 1 << (offsets[i] + rng.randrange(s))
        edges.add(e)
        if len(edges) >= want:
            break
    parts = tuple(
        mask_of(range(offsets[i], offsets[i] + sizes[i])) for i in range(k)
    )
    return Hypergraph(total, sorted(edges)), parts


def rand_graph(rng, n, p) -> Hypergraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((1 << u) | (1 << v))
    return Hypergraph(n, edges)


# -- suites -----------------------------------------------------------------


def suite_sharpness(rng=None) -> list[VerificationRecord]:
    """The values the paper states for Q_k and T_k (the two sharp
    examples), with k the number of matroids."""
    records = []
    for q in SHARPNESS_Q:
        inst = constructions.canned("q_k", q=q)
        h, system = inst.hypergraph, inst.system
        mc = matching_complex(h)
        if mc != system.intersection_complex():
            raise CertificateError(f"{inst.provenance}: M(H) is not the intersection")
        rec = topology.expansions(mc)
        k = system.k
        records.append(
            _rec("example:P_k/delta_eta", inst.provenance, rec.delta_eta, k * k, "==")
        )
        max_dr = max(coloring.delta_rank(m) for m in system)
        records.append(
            _rec(
                "example:P_k/k_max_delta_r", inst.provenance, rec.delta_eta, max_dr * k, "=="
            )
        )
    for q in SHARPNESS_Q:
        inst = constructions.canned("truncated_plane", q=q)
        h, system = inst.hypergraph, inst.system
        k = system.k
        hn = polytopes.hyper_numbers(h)
        ok_h = (
            hn.nu == 1
            and hn.nu_star == k - 1
            and hn.tau_star == k - 1
            and hn.tau == k - 1
        )
        records.append(
            _rec(
                "ex:truncatedPP/hypergraph",
                inst.provenance,
                f"nu={hn.nu},nu*={hn.nu_star},tau={hn.tau}",
                f"1,{k - 1},{k - 1}",
                "==",
                ok_h,
            )
        )
        mn = polytopes.matroidal_numbers(system, (ONE,) * system.n)
        ok_m = (
            mn.nu == 1
            and mn.nu_star == k - 1
            and mn.tau_star == k - 1
            and mn.tau == k - 1
        )
        records.append(
            _rec(
                "ex:truncatedPP/matroidal",
                inst.provenance,
                f"nu={mn.nu},nu*={mn.nu_star},tau={mn.tau}",
                f"1,{k - 1},{k - 1}",
                "==",
                ok_m,
            )
        )
        c = system.intersection_complex()
        rp = polytopes.ratio(PolytopeRef.R(system), PolytopeRef.P(c))
        records.append(
            _rec("ex:truncatedPP/ratio_RP", inst.provenance, rp, Fraction(k - 1), "==")
        )
    return records


def _boundary_point(system: MatroidSystem, rng) -> tuple[Fraction, ...] | None:
    """A random non-negative direction scaled onto the boundary of R."""
    n = system.n
    d = tuple(Fraction(rng.randint(0, 4)) for _ in range(n))
    if all(v == 0 for v in d):
        return None
    g = polytopes.psi(PolytopeRef.R(system), d)
    if g is INF or g == 0:
        return None
    return tuple(v / g for v in d)


def suite_edmonds_k2(
    rng, pairs=20, points=10, weights=10, max_n=8
) -> list[VerificationRecord]:
    """P(M cap N) = P(M) cap P(N), via membership and via chi*."""
    records = []
    sizes = [min(n, max_n) for n in (3, 4, 4, 5, 5, 6, 6, 7, 7, max_n)]
    member_checks = 0
    chi_checks = 0
    for t in range(pairs):
        n = sizes[t % len(sizes)]
        m1 = rand_matroid(rng, n)
        m2 = rand_matroid(rng, n)
        system = MatroidSystem([m1, m2])
        c = system.intersection_complex()
        pr = PolytopeRef.P(c)
        rr = PolytopeRef.R(system)
        bad = None
        for _ in range(points):
            mode = rng.randrange(3)
            x = None
            if mode == 0:
                x = _boundary_point(system, rng)
            elif mode == 1:
                x = _boundary_point(system, rng)
                if x is not None:
                    x = tuple(v * Fraction(9, 8) for v in x)
            if x is None:
                x = tuple(Fraction(rng.randint(0, 3), rng.randint(2, 4)) for _ in range(n))
            in_p = polytopes.member(pr, x)
            in_r = polytopes.member(rr, x)
            member_checks += 1
            if in_p != in_r:
                bad = _payload(
                    system=system,
                    extra={"point": [str(v) for v in x], "in_p": in_p, "in_r": in_r},
                )
                break
        hbad = None
        for j in range(weights):
            h = rand_weights(rng, n)
            lhs = coloring.chi_star(c, h)
            d1 = coloring.delta_rank(m1, h)
            d2 = coloring.delta_rank(m2, h)
            rhs = max(d1, d2)
            chi_checks += 1
            ok = lhs == rhs
            if ok and j % 10 == 0:
                # independent LP route for the matroid sides
                alt = max(
                    coloring.chi_star(m1.to_complex(), h),
                    coloring.chi_star(m2.to_complex(), h),
                )
                ok = lhs == alt
            if not ok:
                hbad = _payload(
                    system=system,
                    extra={"h": [str(v) for v in h], "lhs": str(lhs), "rhs": str(rhs)},
                )
                break
        inst = f"pair#{t}(n={n},{m1.kind},{m2.kind})"
        records.append(
            _rec(
                "thm:edmonds2matroidintersection/membership",
                inst,
                "member(P(McapN))",
                "member(R)",
                "<=>",
                bad is None,
                bad,
            )
        )
        records.append(
            _rec(
                "maxchistar",
                inst,
                "chi*(McapN,h)",
                "max(chi*(M,h),chi*(N,h))",
                "==",
                hbad is None,
                hbad,
            )
        )
    records.append(
        _rec(
            "edmonds-k2/counts",
            f"pairs={pairs}",
            member_checks,
            chi_checks,
            "checked",
            member_checks >= pairs * points and chi_checks >= pairs * weights,
        )
    )
    return records


def whitney_catalog(max_n=9) -> list[tuple[str, Matroid]]:
    """The catalog's matroids on at most max_n elements."""
    cat: list[tuple[str, Matroid]] = []
    for n in range(1, 8):
        for r in range(0, n + 1):
            cat.append((f"uniform({r},{n})", UniformMatroid(r, n)))
    for n, r in [(8, 1), (8, 3), (8, 4), (8, 8), (9, 4), (9, 9)]:
        cat.append((f"uniform({r},{n})", UniformMatroid(r, n)))
    gps = [
        (3, [[0, 1], [2]], [1, 1]),
        (4, [[0, 1], [2, 3]], [1, 1]),
        (5, [[0, 1, 2], [3, 4]], [2, 1]),
        (6, [[0, 1, 2], [3, 4, 5]], [2, 2]),
        (6, [[0, 1], [2, 3], [4, 5]], [1, 1, 1]),
        (7, [[0, 1, 2, 3], [4, 5, 6]], [2, 1]),
        (8, [[0, 1, 2], [3, 4, 5], [6, 7]], [1, 2, 1]),
        (5, [[0, 1, 2, 3, 4]], [2]),
        (6, [[0, 1, 2, 3, 4, 5]], [5]),
    ]
    for n, parts, caps in gps:
        cat.append((f"gp(n={n},caps={caps})", GenPartitionMatroid(n, parts, caps)))
    graphs = [
        ("triangle", 3, [(0, 1), (1, 2), (0, 2)]),
        ("path4", 4, [(0, 1), (1, 2), (2, 3)]),
        ("C4", 4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        ("C5", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        ("K4", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        (
            "K5-e",
            5,
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)],
        ),
        ("two_triangles", 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    ]
    for name, v, es in graphs:
        cat.append((f"graphic({name})", GraphicMatroid(v, es)))
    cat.append(("dual(uniform(2,5))", DualMatroid(UniformMatroid(2, 5))))
    cat.append(("dual(K4)", DualMatroid(GraphicMatroid(4, graphs[4][2]))))
    return [(name, m) for name, m in cat if m.n <= max_n]


def suite_whitney(rng=None, max_n=9) -> list[VerificationRecord]:
    """eta_h(M) = rank(M) unless M has a coloop, in which case inf."""
    records = []
    for name, m in whitney_catalog(max_n):
        c = m.to_complex()
        expected = INF if m.coloops() else m.full_rank()
        got = topology.eta_h(c)
        records.append(_rec("prop:etamatroid", name, got, expected, "=="))
    return records


def suite_williams(rng, count=20, max_n=8) -> list[VerificationRecord]:
    """chi(M) = ceil(Delta(M)) and chi*(M, h) = Delta(M, h)."""
    records = []
    sizes = [min(n, max_n) for n in (3, 4, 5, 5, 6, 6, 7, max_n)]
    for t in range(count):
        n = sizes[t % len(sizes)]
        m = rand_matroid(rng, n)
        c = m.to_complex()
        cm = coloring.chi_matroid(m)
        cb = coloring.chi(c)
        records.append(_rec("thm:williams", f"#{t}(n={n},{m.kind})", cm, cb, "=="))
        h = rand_weights(rng, n)
        star = coloring.chi_star(c, h)
        delta = coloring.delta_rank(m, h)
        records.append(_rec("thm:chi*Mh", f"#{t}(n={n},{m.kind})", star, delta, "=="))
    return records


def _eta_ih(h: Hypergraph):
    return topology.eta_h(independence_complex(h))


def suite_meshulam(
    rng, graphs=60, hypergraphs=30, max_graph_n=7
) -> list[VerificationRecord]:
    """Domination bounds and the delete/contract recursion."""
    records = []
    gm_checks = 0
    for t in range(graphs):
        n = rng.randint(2, max_graph_n)
        g = rand_graph(rng, n, rng.uniform(0.2, 0.55))
        eta = _eta_ih(g)
        gamma = meshulam.gamma_e_graph(g)
        records.append(
            _rec(
                "thm:gammae", f"graph#{t}(n={n},e={len(g.edges)})", eta, gamma, ">=", hypergraph=g
            )
        )
        gm_checks += _append_genmeshulam(records, g, eta, f"graph#{t}", per_edge_cap=24)
    for t in range(hypergraphs):
        n = rng.randint(2, 7)
        h = rand_hypergraph(rng, n, MESHULAM_MAX_EDGES, min_size=1, max_size=4)
        eta = _eta_ih(h)
        gamma = meshulam.gamma_e_hyper(h)
        records.append(
            _rec(
                "thm:hyperMeshulam",
                f"hyper#{t}(n={n},e={len(h.edges)})",
                eta,
                gamma,
                ">=",
                hypergraph=h,
            )
        )
        bound, _ = meshulam.delete_contract_certificate(h)
        records.append(
            _rec(
                "thm:hyperMeshulam/game",
                f"hyper#{t}(n={n},e={len(h.edges)})",
                bound,
                f"[{gamma},{eta}]",
                "sandwich",
                gamma <= bound <= eta,
            )
        )
        gm_checks += _append_genmeshulam(records, h, eta, f"hyper#{t}", per_edge_cap=12)
    records.append(
        _rec(
            "meshulam/counts",
            f"graphs={graphs},hypergraphs={hypergraphs}",
            gm_checks,
            0,
            "checked",
            gm_checks > 0,
        )
    )
    return records


def _append_genmeshulam(records, h: Hypergraph, lhs, tag, per_edge_cap) -> int:
    """lhs = eta(I(H)) >= min(eta(I(H-e)), eta(I(H/e)) + |e| - 1) per minimal e."""
    checks = 0
    bad = None
    minimal = set(_undominated(h.edges, int.bit_count, lambda e, k: k & ~e == 0))
    for e in h.edges[:per_edge_cap]:
        if e not in minimal:
            continue
        minus = Hypergraph(h.n, [o for o in h.edges if o != e])
        eta_minus = _eta_ih(minus)
        contracted, _ = contract(h, e)
        eta_con = _eta_ih(contracted)
        add = e.bit_count() - 1
        branch = INF if eta_con is INF else eta_con + add
        rhs = min(eta_minus, branch)
        checks += 1
        if not lhs >= rhs:
            bad = _payload(hypergraph=h, extra={"edge": sorted(iter_bits(e))})
            break
    records.append(
        _rec(
            "genmeshulam",
            tag,
            lhs,
            "min(delete,contract)",
            ">=",
            bad is None,
            bad,
        )
    )
    return checks


def suite_abm(rng, count=40) -> list[VerificationRecord]:
    """eta_h(M(H)) >= nu*(H)/k for k-uniform H."""
    records = []
    for t in range(count):
        k = 2 if t % 2 == 0 else 3
        n = rng.randint(k, 7)
        h = rand_hypergraph(rng, n, ABM_MAX_EDGES, min_size=k, max_size=k)
        eta = topology.eta_h(matching_complex(h))
        nu_star = polytopes.hyper_nu_star_w(h, (ONE,) * len(h.edges))
        records.append(
            _rec(
                "thm:abm",
                f"#{t}(k={k},n={n},e={len(h.edges)})",
                eta,
                nu_star / k,
                ">=",
                hypergraph=h,
            )
        )
    return records


def suite_list_bounds(
    rng, count=10, max_n=6, max_k=3, budget=coloring.LIST_ENUM_BUDGET
) -> list[VerificationRecord]:
    """chi_ell against k chi, k max chi(M_i), (2k-1) max chi(M_i)."""
    records = []
    done = 0
    for t in range(count):
        n = rng.randint(2, max_n)
        k = rng.randint(2, max_k)
        partition = t % 2 == 0
        system = rand_system(rng, n, k, loopless=True, partition=partition)
        tag = f"#{t}(n={n},k={k},{'partition' if partition else 'general'})"
        try:
            c = system.intersection_complex()
            chi_c = coloring.chi(c)
            chi_is = [coloring.chi_matroid(m) for m in system]
            lo, hi = coloring.chi_list_number(c, budget=budget)
        except Uncolorable:
            records.append(_skip("thm:chiellCkchiC", tag, note="uncoverable"))
            continue
        except CapExceeded as e:
            records.append(_skip("thm:chiellCkchiC", tag, note=str(e)))
            continue
        bounds = [
            ("thm:chiellCkchiC", k * chi_c),
            (
                "listcolk=2" if partition else "cor:chiell2kchi",
                (k if partition else 2 * k - 1) * max(chi_is),
            ),
        ]
        lhs = lo if lo == hi else f"[{lo},{hi}]"
        for claim, bound in bounds:
            if lo <= bound < hi:
                note = "enumeration budget"
                records.append(_skip(claim, tag, "<=", note, lhs=lhs, rhs=bound))
                continue
            records.append(_rec(claim, tag, lhs, bound, "<=", hi <= bound, system=system))
            done += 1
    records.append(
        _rec("list-bounds/counts", f"count={count}", done, 0, "checked", done > 0)
    )
    return records


def suite_seymour(rng, count=20, max_n=8, max_k=3) -> list[VerificationRecord]:
    """The constructive matroid list coloring, both directions."""
    records = []
    sat = 0
    wit_checked = 0
    tries = 0
    while sat < count and tries < count * 40:
        tries += 1
        n = rng.randint(2, max_n)
        k = rng.randint(2, max_k)
        m = rand_matroid(rng, n)
        universe = list(range(k + rng.randint(0, 2)))
        lists = [rng.sample(universe, k) for _ in range(n)]
        fmask: dict[int, int] = {}
        for v, lst in enumerate(lists):
            for col in lst:
                fmask[col] = fmask.get(col, 0) | (1 << v)
        if all(
            coloring.chi_matroid_restricted(m, fm) <= k for fm in fmask.values()
        ):
            sat += 1
            res = coloring.matroid_list_color(m, lists)
            ok = isinstance(res, coloring.Coloring) and res.respects(m.is_independent)
            if ok:
                ok = all(
                    col in lists[v] for v, col in enumerate(res.assignment)
                )
            records.append(
                _rec(
                    "thm:strongerseymour",
                    f"sat#{sat}(n={n},k={k},{m.kind})",
                    "coloring found" if ok else "failure",
                    "coloring",
                    "==",
                    ok,
                )
            )
        else:
            res = coloring.matroid_list_color(m, lists)
            if isinstance(res, coloring.ListColorFailure):
                wit_checked += 1
                lhs = res.t_mask.bit_count() + sum(
                    m.rank(fm & ~res.t_mask) for fm in fmask.values()
                )
                records.append(
                    _rec(
                        "edmonds2/witness",
                        f"violating#{wit_checked}(n={n},k={k})",
                        lhs,
                        n,
                        "<",
                        witness={"t": sorted(iter_bits(res.t_mask))},
                    )
                )
    records.append(
        _rec(
            "seymour/counts",
            f"target={count}",
            sat,
            wit_checked,
            "checked",
            sat >= count,
        )
    )
    return records


def suite_duality_chain(rng, count=30, max_n=10, max_k=3) -> list[VerificationRecord]:
    """nu_w <= nu*_w = tau*_w <= tau_w, tau*_w <= k nu_w, (k-1) for partitions."""
    records = []
    sizes = [min(n, max_n) for n in (4, 4, 5, 5, 6, 6, 7, 7, 8, max_n)]
    for t in range(count):
        n = sizes[t % len(sizes)]
        k = rng.randint(1, max_k)
        partition = t % 3 == 0
        system = rand_system(rng, n, k, loopless=False, partition=partition)
        w = rand_weights_unit(rng, n)
        nums = polytopes.matroidal_numbers(system, w)
        tag = f"#{t}(n={n},k={k},{'partition' if partition else 'general'})"
        chain_ok = nums.nu <= nums.nu_star == nums.tau_star <= nums.tau
        records.append(
            _rec(
                "cor:nuwtotauw",
                tag,
                f"{nums.nu}<={nums.nu_star}={nums.tau_star}<={nums.tau}",
                "chain",
                "<=",
                chain_ok,
            )
        )
        records.append(_rec("thm:tauw*knuw", tag, nums.tau_star, k * nums.nu, "<="))
        if partition and k >= 2:
            records.append(
                _rec("13.1/partition_k-1", tag, nums.tau_star, (k - 1) * nums.nu, "<=")
            )
        if k == 2:
            records.append(_rec("eq:tauw2nuw", tag, nums.tau_star, nums.nu, "=="))
    return records


def suite_furedi_fks(rng, count=40) -> list[VerificationRecord]:
    """k-partite: nu*_w <= (k-1) nu_w; k-uniform: w* >= nu*/k."""
    records = []
    for t in range(count):
        k = [2, 3, 4][t % 3]
        h, parts = rand_kpartite(rng, k, part_size_max=3, max_edges=FKS_MAX_EDGES)
        m = len(h.edges)
        w = (ONE,) * m if t % 4 == 0 else rand_weights(rng, m)
        nu_star = polytopes.hyper_nu_star_w(h, w)
        nu = polytopes.hyper_nu_w(h, w)
        tag = f"#{t}(k={k},e={m})"
        records.append(
            _rec("thm:FKS" if t % 4 else "thm:furedi", tag, nu_star, (k - 1) * nu, "<=")
        )
        ws = polytopes.hyper_w_star(h)
        ns1 = polytopes.hyper_nu_star_w(h, (ONE,) * m)
        records.append(_rec("eq:w*nu*", tag, ws, ns1 / k, ">="))
    return records


def suite_pq_witnesses(rng=None) -> list[VerificationRecord]:
    """The canned Q-not-P points."""
    records = []
    inst = constructions.canned("lambdaPnotQ", k=4)
    v = inst.weights["v"]
    vv = sum(x * x for x in v)
    records.append(_rec("ob:lambdaPnotQ/vv", inst.provenance, vv, Fraction(13, 12), "=="))
    in_q = polytopes.member(PolytopeRef.Q(inst.complex_), v)
    in_p = polytopes.member(PolytopeRef.P(inst.complex_), v)
    records.append(
        _rec(
            "ob:lambdaPnotQ/membership",
            inst.provenance,
            f"in_q={in_q},in_p={in_p}",
            "in_q=True,in_p=False",
            "==",
            in_q and not in_p,
        )
    )
    inst = constructions.canned("PnotQpartition")
    w = inst.weights["w"]
    in_q = polytopes.member(PolytopeRef.Q(inst.complex_), w)
    in_p = polytopes.member(PolytopeRef.P(inst.complex_), w)
    records.append(
        _rec(
            "ex:PnotQpartition/membership",
            inst.provenance,
            f"in_q={in_q},in_p={in_p}",
            "in_q=True,in_p=False",
            "==",
            in_q and not in_p,
        )
    )
    nf = min_nonfaces(inst.complex_)
    flag = all(e.bit_count() == 2 for e in nf.edges)
    records.append(
        _rec(
            "ex:PnotQpartition/flag",
            inst.provenance,
            "2-determined" if flag else "not 2-determined",
            "2-determined",
            "==",
            flag,
        )
    )
    return records


def suite_matdim(rng=None) -> list[VerificationRecord]:
    """Canned matdim values and the edge-coloring upper bound."""
    records = []
    m = 3  # matdim(ab(m)) = m
    inst = constructions.canned("ab", m=m)
    records.append(_rec("example:ab", inst.provenance, matdim_exact(inst.complex_), m, "=="))
    inst = constructions.canned("md_lower", n=4)
    records.append(
        _rec("md_lower(4)", inst.provenance, matdim_exact(inst.complex_), comb(3, 2), "==")
    )
    small = [
        constructions.canned("ab", a=1, m=2),
        constructions.canned("ab", a=1, m=3),
        constructions.canned("ab", a=2, m=2),
        constructions.canned("ab", a=2, m=3),
        constructions.canned("md_lower", n=4),
        constructions.canned("md_lower", n=5),
    ]
    for inst in small:
        upper, wits = matdim_upper(inst.complex_)
        if MatroidSystem(wits).intersection_complex() != inst.complex_:
            raise CertificateError(
                f"{inst.provenance}: the witnesses' intersection is not the complex"
            )
        records.append(
            _rec("ob:matdimcomplement", inst.provenance, upper, matdim_exact(inst.complex_), ">=")
        )
    return records


def suite_ratio_rq(rng, count=12, max_n=6, max_k=3) -> list[VerificationRecord]:
    """Vertex-gauge R:Q versus the matching/cover identity."""
    records = []
    sizes = [min(n, max_n) for n in (3, 4, 4, 5, 5, max_n)]
    for t in range(count):
        n = sizes[t % len(sizes)]
        k = rng.randint(2, max_k)
        system = rand_system(rng, n, k, loopless=False)
        tag = f"#{t}(n={n},k={k})"
        try:
            c = system.intersection_complex()
            via_vertices = polytopes.ratio(PolytopeRef.R(system), PolytopeRef.Q(c))
            via_thm = polytopes.ratio_rq_via_matchings(system)
        except CapExceeded as e:
            records.append(_skip("thm:ratioRQ=ratio", tag, note=str(e)))
            continue
        records.append(_rec("thm:ratioRQ=ratio", tag, via_vertices, via_thm, "=="))
        if k == 3 and via_vertices is not INF:
            records.append(_rec("ryser3/RQ<=2", tag, via_vertices, 2, "<="))
    return records


def suite_appendix_c(rng, count=8) -> list[VerificationRecord]:
    """(a,b)-colorable implies chi* <= a/b; choosable implies colorable;
    chi* <= chr <= the least a/b found choosable."""
    records = []
    found = 0
    for t in range(count):
        n = rng.randint(2, 5)
        nf = rng.randint(1, 4)
        faces = [rng.sample(range(n), rng.randint(1, n)) for _ in range(nf)]
        for v in range(n):
            faces.append([v])
        c = Complex(n, faces)
        star = coloring.chi_star(c, [ONE] * n)
        tag = f"#{t}(n={n})"
        best = None  # least a/b found choosable
        for b in range(1, APPENDIX_C_MAX_B + 1):
            for a in range(b, APPENDIX_C_MAX_A + 1):
                colorable = coloring.ab_check(c, a, b, "colorable")
                if colorable:
                    found += 1
                    records.append(
                        _rec(
                            "thm:fracchrclr/CL", f"{tag};(a={a},b={b})", star, Fraction(a, b), "<="
                        )
                    )
                if n <= 4 and a <= 4 and b <= 2:
                    choosable = coloring.ab_check(c, a, b, "choosable")
                    if choosable:
                        if best is None or Fraction(a, b) < best:
                            best = Fraction(a, b)
                        records.append(
                            _rec(
                                "appendixC/CHsubCL",
                                f"{tag};(a={a},b={b})",
                                "choosable",
                                "colorable",
                                "=>",
                                colorable,
                            )
                        )
        if best is not None:
            records.append(_rec("appendixC/chr_bracket", tag, star, best, "<="))
        # (chi,1) is always colorable
        try:
            chi_c = coloring.chi(c)
            if chi_c <= APPENDIX_C_MAX_A:
                records.append(
                    _rec(
                        "appendixC/chi_in_CL",
                        tag,
                        f"({chi_c},1)",
                        "colorable",
                        "in",
                        coloring.ab_check(c, chi_c, 1, "colorable"),
                    )
                )
        except Uncolorable:
            pass
    records.append(
        _rec("appendix-c/counts", f"count={count}", found, 0, "checked", found > 0)
    )
    return records


def suite_topological_hall(rng, count=30) -> list[VerificationRecord]:
    """Topological Hall on matroid-intersection complexes: if
    eta_h(C[union of V_i, i in I]) >= |I| for every non-empty I, some
    choice phi(i) in V_i has a face as its image.

    The V_i are disjoint non-empty sides partitioning the ground set
    (the Aharoni-Haxell setting), so every rainbow face is a system of
    distinct representatives.
    """
    records = []
    met = 0
    for t in range(count):
        n = rng.randint(3, 7)
        k = rng.randint(2, 3)
        c = rand_system(rng, n, k).intersection_complex()
        m = rng.randint(2, min(4, n))
        labels = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
        rng.shuffle(labels)
        subsets = [mask_of(v for v in range(n) if labels[v] == i) for i in range(m)]
        hall = topology.topological_hall_check(c, subsets)
        met += hall.hypothesis
        records.append(
            _rec(
                "thm:topologicalHall",
                f"#{t}(n={n},k={k},m={len(subsets)})",
                f"hypothesis {'met' if hall.hypothesis else 'not met'}",
                f"rainbow face {list(hall.witness) if hall.conclusion else 'none'}",
                "=>",
                hall.conclusion or not hall.hypothesis,
                complex_=c,
                extra={"subsets": [sorted(iter_bits(s)) for s in subsets]},
            )
        )
    records.append(
        _rec("topological-hall/counts", f"count={count}", met, count, "checked", met > 0)
    )
    return records


SUITES = {
    "sharpness": suite_sharpness,
    "edmonds-k2": suite_edmonds_k2,
    "whitney": suite_whitney,
    "williams": suite_williams,
    "meshulam": suite_meshulam,
    "abm": suite_abm,
    "list-bounds": suite_list_bounds,
    "seymour": suite_seymour,
    "duality-chain": suite_duality_chain,
    "furedi-fks": suite_furedi_fks,
    "pq-witnesses": suite_pq_witnesses,
    "matdim": suite_matdim,
    "ratio-rq": suite_ratio_rq,
    "appendix-c": suite_appendix_c,
    "topological-hall": suite_topological_hall,
}


def run_suite(name: str, seed: int = 0, **overrides):
    """Run a named suite deterministically; returns its records sorted
    by (claim, instance), suite by suite.

    Overrides a suite does not accept (e.g. max_n on a deterministic
    suite) are left out, so caps can be applied to "all"; the ones no
    named suite accepts are reported on stderr.  max_n and max_k must
    be at least 2.
    """
    for key in ("max_n", "max_k"):
        if key in overrides and overrides[key] < 2:
            option = "--" + key.replace("_", "-")
            raise DomainError(f"{option} must be at least 2, got {overrides[key]}")
    if name == "all":
        names = sorted(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(name)
    accepted = {key: set(inspect.signature(SUITES[key]).parameters) for key in names}
    ignored = set(overrides).difference(*accepted.values())
    if ignored:
        print(
            f"warning: suite {name!r} ignores {', '.join(sorted(ignored))}",
            file=sys.stderr,
        )
    out = []
    for key in names:
        kwargs = {k: v for k, v in overrides.items() if k in accepted[key]}
        records = SUITES[key](random.Random(seed), **kwargs)
        out.extend(sorted(records, key=lambda r: (r.claim, r.instance)))
    return out
