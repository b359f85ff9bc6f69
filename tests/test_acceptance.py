"""Acceptance suite: one test per criterion, each printing a verdict line.

Sizes follow the stated minimums; all comparisons are exact (no
tolerances anywhere).  Run with `pytest -s tests/test_acceptance.py` to
see the per-criterion lines as they complete.
"""

import random
from fractions import Fraction
from math import comb

from mtk import coloring, constructions, polytopes, topology, verify
from mtk.core import matching_complex
from mtk.coloring import matdim_exact
from mtk.polytopes import PolytopeRef

F = Fraction


def _report(idx: int, desc: str, ok: bool):
    print(f"ACCEPTANCE {idx:02d} [{'PASS' if ok else 'FAIL'}] {desc}", flush=True)
    assert ok, f"criterion {idx}: {desc}"


def _no_violations(records):
    return [r for r in records if r.verdict == "violated"]


def test_criterion_01_qk_sharpness():
    inst = constructions.canned("q_k", q=3)
    mc = matching_complex(inst.hypergraph)
    assert mc == inst.system.intersection_complex()
    rec = topology.expansions(mc)
    max_dr = max(coloring.delta_rank(m) for m in inst.system)
    ok = (
        rec.delta_eta == 9
        and max_dr == 3
        and rec.delta_eta == max_dr * 3
    )
    _report(1, f"Q_3: delta_eta={rec.delta_eta} = 3*max_delta_r ({max_dr})", ok)


def test_criterion_02_t3_numbers_and_ratio():
    inst = constructions.canned("truncated_plane", q=2)
    hn = polytopes.hyper_numbers(inst.hypergraph)
    mn = polytopes.matroidal_numbers(inst.system, (1, 1, 1, 1))
    c = inst.system.intersection_complex()
    rp = polytopes.ratio(PolytopeRef.R(inst.system), PolytopeRef.P(c))
    ok = (
        (hn.nu, hn.nu_star, hn.tau_star, hn.tau) == (1, 2, 2, 2)
        and (mn.nu, mn.nu_star, mn.tau_star, mn.tau) == (1, 2, 2, 2)
        and rp == 2
    )
    _report(2, f"T_3: nu=1, nu*=tau*=2, tau=2 (both views); R:P={rp}", ok)


def test_criterion_03_edmonds_k2():
    rng = random.Random(103)
    records = verify.suite_edmonds_k2(rng, pairs=200, points=50, weights=50, max_n=8)
    bad = _no_violations(records)
    counts = [r for r in records if r.claim == "edmonds-k2/counts"]
    ok = not bad and counts and counts[0].verdict == "holds"
    _report(3, f"Edmonds k=2 on 200 pairs x (50 points + 50 weights): {len(bad)} violations", ok)


def test_criterion_04_whitney():
    records = verify.suite_whitney(max_n=9)
    bad = _no_violations(records)
    ok = not bad and len(records) >= 50
    _report(4, f"Whitney eta_h=rank/coloop catalog ({len(records)} matroids)", ok)


def test_criterion_05_williams():
    rng = random.Random(105)
    records = verify.suite_williams(rng, count=100, max_n=8)
    bad = _no_violations(records)
    _report(5, f"chi=ceil(Delta) and chi*=Delta(.,h) on 100 matroids: {len(bad)} violations", not bad)


def test_criterion_06_meshulam():
    rng = random.Random(106)
    records = verify.suite_meshulam(rng, graphs=500, hypergraphs=200, max_graph_n=7)
    bad = _no_violations(records)
    _report(6, f"gamma_E bounds + genmeshulam on 500 graphs / 200 hypergraphs: {len(bad)} violations", not bad)


def test_criterion_07_abm():
    rng = random.Random(107)
    records = verify.suite_abm(rng, count=200)
    bad = _no_violations(records)
    _report(7, f"eta_h(M(H)) >= nu*(H)/k on 200 uniform hypergraphs: {len(bad)} violations", not bad)


def test_criterion_08_list_bounds():
    rng = random.Random(108)
    records = verify.suite_list_bounds(rng, count=30, max_n=6, max_k=3)
    bad = _no_violations(records)
    done = [r for r in records if r.claim == "list-bounds/counts"]
    ok = not bad and done and done[0].verdict == "holds"
    _report(8, f"chi_ell bounds on 30 systems: {len(bad)} violations", ok)


def test_criterion_09_seymour():
    rng = random.Random(109)
    records = verify.suite_seymour(rng, count=100, max_n=8, max_k=3)
    bad = _no_violations(records)
    counts = [r for r in records if r.claim == "seymour/counts"]
    ok = not bad and counts and counts[0].verdict == "holds"
    _report(9, f"constructive list coloring on 100 hypothesis-satisfying instances: {len(bad)} violations", ok)


def test_criterion_10_duality_chain():
    rng = random.Random(110)
    records = verify.suite_duality_chain(rng, count=200, max_n=10, max_k=3)
    bad = _no_violations(records)
    _report(10, f"nu_w <= nu*_w = tau*_w <= tau_w (+k bounds) on 200 systems: {len(bad)} violations", not bad)


def test_criterion_11_furedi_fks():
    rng = random.Random(111)
    records = verify.suite_furedi_fks(rng, count=200)
    bad = _no_violations(records)
    _report(11, f"FKS/Furedi + fractional width on 200 k-partite hypergraphs: {len(bad)} violations", not bad)


def test_criterion_12_pq_witnesses():
    records = verify.suite_pq_witnesses()
    bad = _no_violations(records)
    vv = [r for r in records if r.claim == "ob:lambdaPnotQ/vv"]
    ok = not bad and vv and vv[0].lhs == "13/12"
    _report(12, "lambdaPnotQ (v.v=13/12) and PnotQpartition in Q \\ P", ok)


def test_criterion_13_matdim():
    ab = constructions.canned("ab", m=3)
    md = constructions.canned("md_lower", n=4)
    ab_val = matdim_exact(ab.complex_)
    md_val = matdim_exact(md.complex_)
    records = verify.suite_matdim()
    bad = _no_violations(records)
    ok = ab_val == 3 and md_val == 3 == comb(3, 2) and not bad
    _report(13, f"matdim: ab(3)={ab_val}, md_lower(4)={md_val}; upper>=exact on canned set", ok)


def test_criterion_14_ratio_rq():
    rng = random.Random(114)
    records = verify.suite_ratio_rq(rng, count=50, max_n=6, max_k=3)
    bad = _no_violations(records)
    ryser = [r for r in records if r.claim == "ryser3/RQ<=2"]
    _report(14, f"vertex-gauge R:Q = max nu*/nu on 50 systems ({len(ryser)} k=3 Ryser checks): {len(bad)} violations", not bad)


def test_criterion_15_appendix_c():
    rng = random.Random(115)
    records = verify.suite_appendix_c(rng, count=20)
    bad = _no_violations(records)
    counts = [r for r in records if r.claim == "appendix-c/counts"]
    ok = not bad and counts and counts[0].verdict == "holds"
    _report(15, f"(a,b)-colorable => chi* <= a/b; choosable => colorable (20 complexes): {len(bad)} violations", ok)
