"""P/Q/R membership, gauges, vertices, ratios, and weighted numbers."""

import functools
import gc
import itertools
import math
import random
import time
from operator import le
from fractions import Fraction

import pytest

from mtk.constructions import canned
from mtk.core import Complex, Hypergraph, iter_bits
from mtk.errors import DomainError, EmptyEdge, Infeasible
from mtk.extval import INF
from mtk.matroid import (
    GenPartitionMatroid,
    Matroid,
    MatroidSystem,
    UniformMatroid,
)
from mtk import coloring, polytopes
from mtk.polytopes import (
    PolytopeRef,
    _dd_vertices,
    _rank_rows,
    _rho,
    hyper_numbers,
    hyper_nu_star_w,
    hyper_nu_w,
    hyper_tau_w,
    hyper_w_star,
    matroidal_numbers,
    member,
    nu_star_w,
    nu_w,
    psi,
    ratio,
    ratio_rq_via_matchings,
    tau_star_w,
    tau_w,
    vertices,
)
from mtk.verify import (
    _rand_matroid_once,
    rand_system,
    rand_weights,
    rand_weights_unit,
)

from dd_oracle import dd_vertices_fraction
from lp_oracle import brute_optimum
from rows_oracle import reduced_rows_complex, system_rows
from search_oracle import hyper_tau_by_multicover, recursive_hyper_nu_w

F = Fraction
ONE = F(1)
KINDS = ["uniform", "partition", "gen_partition", "graphic", "dual"]


class RestrictionMatroid(Matroid):
    """Restrict to the set u; elements outside u become loops."""

    kind = "restriction"

    def __init__(self, inner: Matroid, u: int):
        super().__init__(inner.n)
        self.inner = inner
        self.u = u

    def _rank(self, s: int) -> int:
        return self.inner.rank(s & self.u)

    def __repr__(self):
        return f"RestrictionMatroid({self.inner!r}, u={self.u:#b})"


def test_member_examples():
    c = Complex(3, [[0, 1], [1, 2]])
    assert member(PolytopeRef.P(c), (1, 1, 0))
    assert not member(PolytopeRef.P(c), (1, 0, 1))
    assert member(PolytopeRef.Q(c), (F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(DomainError):
        member(PolytopeRef.Q(c), (-1, 0, 0))


def test_containment_chain_p_q_r():
    rng = random.Random(51)
    for _ in range(25):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        system = rand_system(rng, n, k, loopless=False)
        c = system.intersection_complex()
        x = tuple(F(rng.randint(0, 3), rng.randint(2, 4)) for _ in range(n))
        in_p = member(PolytopeRef.P(c), x)
        in_q = member(PolytopeRef.Q(c), x)
        in_r = member(PolytopeRef.R(system), x)
        assert (not in_p or in_q) and (not in_q or in_r)


def _direct_member(ranks, x) -> bool:
    """x(S) <= r(S) for every non-empty S and every rank function given."""
    return all(
        sum(x[v] for v in iter_bits(s)) <= r(s) for r in ranks for s in range(1, 1 << len(x))
    )


def test_member_q_and_r_match_the_direct_rank_check():
    rng = random.Random(57)
    # R:Q = 2 on the truncated plane, so some of its R-vertices lie outside Q.
    systems = [canned("truncated_plane", q=2).system]
    for _ in range(60):
        n = rng.randint(1, 6)
        systems.append(rand_system(rng, n, rng.randint(1, 3), loopless=False))
    seen = set()
    for system in systems:
        n = system.n
        c = system.intersection_complex()
        d = tuple(F(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n))
        points = [d, *vertices(PolytopeRef.R(system))]
        g = psi(PolytopeRef.R(system), d)
        if g is not INF and g != 0:
            for t in (F(7, 8), ONE, F(9, 8)):
                points.append(tuple(v * t / g for v in d))
        for x in points:
            want_q = _direct_member([c.rank_of], x)
            want_r = _direct_member([m.rank for m in system], x)
            assert member(PolytopeRef.Q(c), x) == want_q
            assert member(PolytopeRef.R(system), x) == want_r
            seen.add((want_q, want_r))
    assert {(True, True), (False, True), (False, False)} <= seen


def test_psi_examples():
    assert psi(PolytopeRef.P(Complex(3, [[0, 1, 2]])), (1, 1, 1)) == 1
    sing = Complex(4, [[0], [1], [2], [3]])
    assert psi(PolytopeRef.P(sing), (1, 1, 1, 1)) == 4
    assert psi(PolytopeRef.P(sing), (0, 0, 0, 0)) == 0
    # unreachable direction
    assert psi(PolytopeRef.P(Complex(2, [[0]])), (0, 1)) == INF
    for z in (PolytopeRef.P(sing), PolytopeRef.Q(sing)):
        with pytest.raises(DomainError):
            psi(z, (1, 1, 1, 1, 5))


def test_psi_is_zero_at_zero_weights():
    # vertex 3 lies in no face of c and is a loop of the second matroid
    c = Complex(4, [[0, 1], [1, 2]])
    system = MatroidSystem([UniformMatroid(2, 4), GenPartitionMatroid(4, [[0, 1, 2], [3]], [2, 0])])
    refs = [PolytopeRef.P(c), PolytopeRef.Q(c), PolytopeRef.R(system)]
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(1, 5)
        d = Complex(n, [rng.sample(range(n), rng.randint(1, n))])
        refs += [PolytopeRef.P(d), PolytopeRef.Q(d), PolytopeRef.R(rand_system(rng, n, 2, loopless=False))]
    for z in refs:
        assert psi(z, [0] * z.n) == 0


def _covering_lp(c: Complex, h):
    """psi on P(C) as the covering LP: min total face weight with
    coverage >= h (INF when a positive weight lies in no face)."""
    covered = c.vertices_mask()
    if any(h[v] > 0 and not (covered >> v) & 1 for v in range(c.n)):
        return INF
    faces = list(c.maximal_faces)
    rows = [([ONE if (f >> v) & 1 else 0 for f in faces], ">=", h[v]) for v in range(c.n)]
    return brute_optimum("min", [ONE] * len(faces), rows, len(faces))


def test_psi_p_equals_chi_star():
    # psi on P is the packing LP chi*; the covering LP is its dual.
    rng = random.Random(52)
    finite = 0
    for _ in range(20):
        n = rng.randint(2, 5)
        c = Complex(
            n,
            [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))],
        )
        h = rand_weights(rng, n)
        want = _covering_lp(c, h)
        assert psi(PolytopeRef.P(c), h) == want
        finite += want is not INF
    assert finite >= 10


def test_vertices_examples():
    square = vertices(PolytopeRef.Q(Complex(2, [[0, 1]])))
    assert sorted(tuple(v) for v in square) == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    ]
    # P vertices are the face indicators
    c = Complex(2, [[0, 1]])
    vp = {tuple(v) for v in vertices(PolytopeRef.P(c))}
    assert vp == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))}


def _cramer(mat):
    """(X, d) with A (X / d) = b and d > 0, for mat = [A | b] square
    over the integers, or None when A is singular.

    Fraction-free (Bareiss) elimination: every division is exact, the
    last pivot is +-det A, and back substitution yields the Cramer
    numerators X_i = d x_i, which are integers."""
    n = len(mat)
    m = [row[:] for row in mat]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        for i in range(k + 1, n):
            m[i] = [(m[k][k] * a - m[i][k] * b) // prev for a, b in zip(m[i], m[k])]
        prev = m[k][k]
    d = prev
    x = [0] * n
    for i in reversed(range(n)):
        x[i] = (d * m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n))) // m[i][i]
    if d < 0:
        d, x = -d, [-v for v in x]
    return x, d


def _brute_vertices(rows, n):
    normals = []
    for v in range(n):
        e = [0] * n
        e[v] = -1
        normals.append((tuple(e), 0))
    # A repeated normal only adds singular or dominated combinations:
    # keep its smallest right-hand side.
    tightest: dict[tuple, int] = {}
    for mask, r in rows:
        normal = tuple((mask >> v) & 1 for v in range(n))
        if normal not in tightest or r < tightest[normal]:
            tightest[normal] = r
    normals.extend(tightest.items())
    supports = [(list(iter_bits(mask)), r) for mask, r in rows]
    out = set()
    for combo in itertools.combinations(range(len(normals)), n):
        solved = _cramer([list(normals[i][0]) + [normals[i][1]] for i in combo])
        if solved is None:
            continue
        x, d = solved
        if any(v < 0 for v in x):
            continue
        if all(sum(x[v] for v in support) <= r * d for support, r in supports):
            out.add(tuple(F(v, d) for v in x))
    return out


def test_vertices_match_brute_force():
    rng = random.Random(53)
    done = 0
    for _ in range(30):
        n = rng.randint(2, 4)
        k = rng.randint(1, 2)
        system = rand_system(rng, n, k, loopless=False)
        ref = PolytopeRef.R(system)
        dd = {tuple(v) for v in vertices(ref)}
        allrows = []
        for m in system:
            allrows.extend((s, m.rank(s)) for s in range(1, 1 << n))
        bf = _brute_vertices(allrows, n)
        assert dd == bf
        done += 1
    assert done >= 20


def _rows(z):
    return _rank_rows(z.n, _rho(z))


def _rank_rows_systems(rng, count):
    """Seeded systems for the row differentials: n <= 8, k = 1..3, the five
    kinds in turn, a loop by restriction in every third system, and a
    partition system every fourth."""
    kinds = itertools.cycle(KINDS)
    systems = []
    for t in range(count):
        n = rng.randint(1, 8 if t % 5 == 0 else 6)
        k = rng.randint(1, 3)
        if t % 4 == 3:
            systems.append(rand_system(rng, n, k, partition=True))
            continue
        ms = [_rand_matroid_once(rng, n, next(kinds)) for _ in range(k)]
        if t % 3 == 0:
            ms[0] = RestrictionMatroid(ms[0], ms[0].full & ~(1 << rng.randrange(n)))
        systems.append(MatroidSystem(ms))
    return systems


def test_rank_rows_cut_the_polytopes_of_the_old_row_builders():
    # one row builder for Q and R against the three it replaced: the same
    # vertex sets, never more Q rows (they keep a subset of the old
    # ones), and the same nu* from the LP on either row set
    from mtk.lp import solve_max_slack

    rng = random.Random(70)
    looped = partition = 0
    for system in _rank_rows_systems(rng, 150):
        n = system.n
        c = system.intersection_complex()
        q_rows, old_q = _rows(PolytopeRef.Q(c)), reduced_rows_complex(c)
        r_rows, old_r = _rows(PolytopeRef.R(system)), system_rows(system)
        assert set(q_rows) <= set(old_q)
        assert set(_dd_vertices(n, q_rows)) == set(_dd_vertices(n, old_q))
        assert set(_dd_vertices(n, r_rows)) == set(_dd_vertices(n, old_r))
        assert set(vertices(PolytopeRef.R(system))) == set(_dd_vertices(n, old_r))
        w = rand_weights(rng, n)
        amat = [[F((mask >> v) & 1) for v in range(n)] for mask, _ in old_r]
        want, _, _ = solve_max_slack(amat, [F(r) for _, r in old_r], list(w))
        assert nu_star_w(system, w) == want
        looped += any(m.loops() for m in system)
        partition += all(m.kind == "gen_partition" and set(m.caps) == {1} for m in system)
    assert looped >= 50 and partition >= 30


def test_rank_rows_keep_the_singletons_and_skip_loops_in_the_closure_test():
    # x0 is a loop of rho = min(r1, r2): S = {1, 2} and S + 0 have the same
    # rank, and only the loop-free {1, 2} may cut x1 + x2 <= 1
    system = MatroidSystem([UniformMatroid(1, 3), GenPartitionMatroid(3, [[0], [1, 2]], [0, 2])])
    rows = _rows(PolytopeRef.R(system))
    assert rows == [(0b001, 0), (0b010, 1), (0b100, 1), (0b110, 1)]
    assert set(vertices(PolytopeRef.R(system))) == {(0, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_integer_dd_matches_the_fraction_oracle():
    # the same vertices in the same order, on R rows and Q rows; loops
    # give zero singleton bounds, so the box has repeated points.  The
    # oracle decides adjacency by the rank of the tight normals, the DD
    # by its tight sets alone.
    rng = random.Random(64)
    zero_bounds = 0
    cases = []
    for t in range(120):
        n = rng.randint(1, 6)
        system = rand_system(rng, n, rng.randint(1, 3), loopless=t % 3 == 0)
        cases.append((n, _rows(PolytopeRef.R(system))))
        cases.append((n, _rows(PolytopeRef.Q(system.intersection_complex()))))
    for n in (7, 7, 8, 8):
        cases.append((n, _rows(PolytopeRef.R(rand_system(rng, n, rng.randint(2, 3))))))
    cases.append((5, _rows(PolytopeRef.Q(canned("md_lower", n=5).complex_))))
    for n, rows in cases:
        zero_bounds += any(r == 0 and m.bit_count() == 1 for m, r in rows)
        assert _dd_vertices(n, rows) == dd_vertices_fraction(n, rows)
    assert zero_bounds >= 30


def test_edmonds_pair_membership_and_r_vertices():
    rng = random.Random(54)
    for _ in range(15):
        n = rng.randint(2, 5)
        system = rand_system(rng, n, 2, loopless=True)
        c = system.intersection_complex()
        for v in vertices(PolytopeRef.R(system)):
            assert member(PolytopeRef.P(c), v)
        for _ in range(10):
            x = tuple(F(rng.randint(0, 2), rng.randint(2, 3)) for _ in range(n))
            assert member(PolytopeRef.P(c), x) == member(PolytopeRef.R(system), x)


def test_ratio_examples():
    u = UniformMatroid(2, 4)
    system = MatroidSystem([u])
    c = u.to_complex()
    assert ratio(PolytopeRef.Q(c), PolytopeRef.Q(c)) == 1
    # single matroid: P = Q = R
    assert ratio(PolytopeRef.R(system), PolytopeRef.P(c)) == 1
    assert ratio(PolytopeRef.Q(c), PolytopeRef.P(c)) == 1


def _undominated(vs):
    return [v for v in vs if not any(v != w and all(map(le, v, w)) for w in vs)]


def _max_gauge(a, vs):
    return max((psi(a, v) for v in vs), default=F(0))


def _pairs_with_infinite_ratios(rng, count):
    """(system, B, A) over P, Q, R of seeded systems with n <= 5, plus
    P and Q of the intersection complex with vertex 0 deleted as A,
    where B's vertices with x_0 > 0 make B:A infinite."""
    for _ in range(count):
        n = rng.randint(1, 5)
        system = rand_system(rng, n, rng.randint(1, 3), loopless=False)
        c = system.intersection_complex()
        c0 = Complex(n, [f & ~1 for f in c.maximal_faces])
        refs = [PolytopeRef.P(c), PolytopeRef.Q(c), PolytopeRef.R(system)]
        for b in refs:
            for a in refs + [PolytopeRef.P(c0), PolytopeRef.Q(c0)]:
                yield system, b, a


def test_ratio_equals_the_max_gauge_over_all_vertices():
    rng = random.Random(65)
    seen_inf = 0
    for _, b, a in _pairs_with_infinite_ratios(rng, 25):
        want = _max_gauge(a, vertices(b))
        assert ratio(b, a) == want
        seen_inf += want is INF
    assert seen_inf >= 20


def test_ratio_calls_psi_once_per_undominated_vertex(monkeypatch):
    calls = []

    def counting_psi(z, h):
        calls.append(h)
        return psi(z, h)

    monkeypatch.setattr(polytopes, "psi", counting_psi)
    rng = random.Random(66)
    pruned = 0
    for _, b, a in _pairs_with_infinite_ratios(rng, 25):
        calls.clear()
        if ratio(b, a) is INF:
            continue
        vs = vertices(b)
        top = _undominated(vs)
        assert sorted(map(tuple, calls)) == sorted(map(tuple, top))
        pruned += len(vs) - len(top)
    assert pruned > 0


def test_ratio_rq_theorem_small_random():
    rng = random.Random(55)
    for _ in range(12):
        n = rng.randint(2, 4)
        k = rng.randint(2, 3)
        system = rand_system(rng, n, k, loopless=False)
        c = system.intersection_complex()
        val = ratio(PolytopeRef.R(system), PolytopeRef.Q(c))
        assert val == ratio_rq_via_matchings(system)
        assert val >= 1 or val == 0


def ratio_rq_via_restricted_systems(system):
    """max over U of nu*(L_U) : nu(L_U), with L_U built as k restricted
    matroids (loops outside U) and its own matching LP."""
    c = system.intersection_complex()
    best = F(0)
    for u in range(1, 1 << system.n):
        restricted = MatroidSystem([RestrictionMatroid(m, u) for m in system])
        nu_star = nu_star_w(restricted, (ONE,) * system.n)
        nu = c.rank_of(u)
        if nu == 0:
            if nu_star > 0:
                return INF
            continue
        best = max(best, nu_star / nu)
    return best


def test_ratio_rq_via_matchings_matches_the_restricted_systems_route():
    # n <= 6, the five kinds in turn, a loop by restriction in every
    # other system
    rng = random.Random(63)
    kinds = itertools.cycle(KINDS)
    with_loops = 0
    for t in range(60):
        n = rng.randint(2, 6)
        ms = [_rand_matroid_once(rng, n, next(kinds)) for _ in range(rng.randint(2, 3))]
        if t % 2:
            ms[0] = RestrictionMatroid(ms[0], ms[0].full & ~(1 << rng.randrange(n)))
        system = MatroidSystem(ms)
        with_loops += any(m.loops() for m in system)
        assert ratio_rq_via_matchings(system) == ratio_rq_via_restricted_systems(system)
    assert with_loops >= 30


def test_nu_star_vanishes_where_nu_does():
    # ratio_rq_via_matchings skips the U with nu(L_U) = 0: each v in such
    # a U is a loop of some M_i, whose singleton row caps x_v at 0
    rng = random.Random(67)
    kinds = itertools.cycle(KINDS)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        ms = [_rand_matroid_once(rng, n, next(kinds)) for _ in range(rng.randint(2, 3))]
        ms[0] = RestrictionMatroid(ms[0], ms[0].full & ~(1 << rng.randrange(n)))
        system = MatroidSystem(ms)
        c = system.intersection_complex()
        for u in range(1, 1 << n):
            if c.rank_of(u) == 0:
                ones = [ONE if (u >> v) & 1 else F(0) for v in range(n)]
                assert nu_star_w(system, ones) == 0, (system, u)
                checked += 1
    assert checked >= 60


def test_ratio_rq_via_matchings_solves_no_lp_for_a_rank_zero_set(monkeypatch):
    rng = random.Random(68)
    calls = []

    def counting(amat, bvec, c):
        calls.append(c)
        return solve(amat, bvec, c)

    solve = polytopes.solve_max_slack
    monkeypatch.setattr(polytopes, "solve_max_slack", counting)
    for kind in KINDS:
        n = 5
        ms = [_rand_matroid_once(rng, n, kind), _rand_matroid_once(rng, n, "uniform")]
        ms[0] = RestrictionMatroid(ms[0], ms[0].full & ~0b11)
        system = MatroidSystem(ms)
        c = system.intersection_complex()
        calls.clear()
        ratio_rq_via_matchings(system)
        assert len(calls) == sum(1 for u in range(1, 1 << n) if c.rank_of(u))
        assert len(calls) < (1 << n) - 1


def test_ratio_rp_bounded_by_k():
    rng = random.Random(56)
    for _ in range(10):
        n = rng.randint(2, 4)
        k = rng.randint(1, 3)
        system = rand_system(rng, n, k, loopless=True)
        c = system.intersection_complex()
        val = ratio(PolytopeRef.R(system), PolytopeRef.P(c))
        assert val <= k
        # sampled-weight lower bounds never exceed the vertex method
        for _ in range(5):
            w = rand_weights(rng, n)
            nums = matroidal_numbers(system, tuple(min(x, F(1)) for x in w))
            if nums.nu > 0:
                assert nums.tau_star / nums.nu <= val


def test_q_without_p_witness_forces_ratio_above_one():
    # w in Q(C) - P(C) certifies Q:P > 1; the P-gauge of w quantifies it
    from mtk.coloring import chi_star

    inst = canned("PnotQpartition")
    c, w = inst.complex_, inst.weights["w"]
    assert member(PolytopeRef.Q(c), w)
    assert not member(PolytopeRef.P(c), w)
    assert chi_star(c, w) > 1  # = psi(P(C), w), so Q:P > 1


def test_nu_star_reduced_rows_match_full_constraint_lp():
    # the reduced row set must cut the same optimum as all 2^n rows
    from mtk.lp import solve_max_slack
    from mtk.polytopes import nu_star_w

    rng = random.Random(62)
    for _ in range(20):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        system = rand_system(rng, n, k, loopless=False)
        w = rand_weights(rng, n)
        reduced = nu_star_w(system, w)
        amat, bvec = [], []
        for m in system:
            for s in range(1, 1 << n):
                amat.append([F(1) if (s >> v) & 1 else F(0) for v in range(n)])
                bvec.append(F(m.rank(s)))
        full, _, _ = solve_max_slack(amat, bvec, list(w))
        assert reduced == full


def test_tau_star_is_the_covering_lp_over_all_flats():
    # tau_star_w solves the packing dual; the oracle solves the covering
    # LP itself: min sum_i sum_F r_i(F) y_i(F), every v covered >= w_v.
    rng = random.Random(63)
    positive = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        system = rand_system(rng, n, rng.randint(1, 2), loopless=False)
        w = rand_weights(rng, n)
        cols = [(f, F(m.rank(f))) for m in system for f in m.flats()]
        rows = [([F((f >> v) & 1) for f, _ in cols], ">=", w[v]) for v in range(n)]
        cover = brute_optimum("min", [r for _, r in cols], rows, len(cols))
        assert tau_star_w(system, w) == cover
        positive += cover > 0
    assert positive >= 20


def test_matroidal_numbers_zero_weights():
    system = MatroidSystem([UniformMatroid(1, 3), UniformMatroid(2, 3)])
    nums = matroidal_numbers(system, (0, 0, 0))
    assert nums.nu == nums.nu_star == nums.tau_star == nums.tau == 0


def test_matroidal_numbers_chain_and_duality():
    rng = random.Random(57)
    for _ in range(25):
        n = rng.randint(2, 6)
        k = rng.randint(1, 3)
        system = rand_system(rng, n, k, loopless=False)
        w = rand_weights_unit(rng, n)
        nums = matroidal_numbers(system, w)  # internal assert: nu* == tau*
        assert nums.nu <= nums.nu_star <= nums.tau
        assert nums.tau_star <= k * nums.nu
        if k == 2:
            assert nums.nu == nums.nu_star


def brute_nu_w(system, w):
    """Max weight of a common independent set, over all 2^n subsets."""
    best = F(0)
    for s in range(1 << system.n):
        if all(m.is_independent(s) for m in system):
            best = max(best, sum(w[v] for v in iter_bits(s)))
    return best


def brute_rank_intersection(system, s):
    """Size of a largest common independent subset of s, over its submasks."""
    best = 0
    for sub in range(s + 1):
        if sub & ~s:
            continue
        if sub.bit_count() > best and all(m.is_independent(sub) for m in system):
            best = sub.bit_count()
    return best


def _systems_with_loops(rng, count):
    """Seeded systems, n <= 7, cycling through the five matroid kinds; in
    every other system the first matroid gets a loop by restriction."""
    kinds = itertools.cycle(KINDS)
    for t in range(count):
        n = rng.randint(1, 7)
        ms = [_rand_matroid_once(rng, n, next(kinds)) for _ in range(rng.randint(1, 3))]
        if t % 2:
            ms[0] = RestrictionMatroid(ms[0], ms[0].full & ~(1 << rng.randrange(n)))
        yield MatroidSystem(ms)


def test_nu_w_and_intersection_rank_match_the_brute_force_sweeps():
    rng = random.Random(62)
    with_loops = 0
    for system in _systems_with_loops(rng, 60):
        with_loops += any(m.loops() for m in system)
        for w in ((ONE,) * system.n, rand_weights(rng, system.n)):
            assert nu_w(system, w) == brute_nu_w(system, w)
        c = system.intersection_complex()
        for u in range(1 << system.n):
            assert c.rank_of(u) == brute_rank_intersection(system, u)
    assert with_loops >= 30
    with pytest.raises(DomainError):
        nu_w(system, (F(-1),) + (ONE,) * (system.n - 1))


def test_tau_w_matches_direct_brute_force():
    # direct search over 0/1 integral covers, all support tuples
    rng = random.Random(58)
    for _ in range(15):
        n = rng.randint(2, 4)
        k = rng.randint(1, 2)
        system = rand_system(rng, n, k, loopless=False)
        w = rand_weights_unit(rng, n, max_den=3)
        nums = matroidal_numbers(system, w)
        best = None
        for supports in itertools.product(range(1 << n), repeat=k):
            cost = sum(m.rank(s) for m, s in zip(system, supports))
            # an optimal integral f_i is the indicator of a basis of its
            # span, so coverage uses spans and cost uses ranks
            ok = True
            for v in range(n):
                if w[v] > 0:
                    cover = sum(
                        1 for m, s in zip(system, supports) if (m.span(s) >> v) & 1
                    )
                    if cover < 1:
                        ok = False
                        break
            if ok and (best is None or cost < best):
                best = cost
        assert nums.tau == best


def _brute_tau_w(system, w):
    """min sum of r_i(F) over multisets of flats F of the matroids i that
    put each v in at least ceil(w_v) of them, by recursion on the demands
    still open, taking one flat that meets them at a time."""
    flats = [(f, m.rank(f)) for m in system for f in m.flats()]

    @functools.cache
    def cost(need):
        if not any(need):
            return 0
        return min(
            r + cost(tuple(max(d - ((f >> v) & 1), 0) for v, d in enumerate(need)))
            for f, r in flats
            if any(d and (f >> v) & 1 for v, d in enumerate(need))
        )

    return cost(tuple(math.ceil(x) for x in w))


def test_tau_w_matches_a_brute_force_over_integral_flat_covers():
    rng = random.Random(59)
    above_one = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        system = rand_system(rng, n, rng.randint(1, 3), loopless=False)
        w = tuple(F(rng.randint(0, 9), 3) for _ in range(n))  # w <= 3
        tau = tau_w(system, w)
        assert tau == _brute_tau_w(system, w), (system, w)
        assert tau_star_w(system, w) <= tau
        above_one += max(w) > 1
    assert above_one >= 75


def test_partition_system_hypergraph_bridge():
    # for L = L(H) the matroidal numbers coincide with the hypergraph's:
    # nu*_w(L) = nu*_w(H) and nu_w(L) = nu_w(H), edge i <-> element i
    from mtk.constructions import assoc_matroids
    from mtk.polytopes import hyper_nu_star_w, hyper_nu_w, nu_star_w, nu_w
    from mtk.verify import rand_kpartite

    rng = random.Random(61)
    for _ in range(20):
        k = rng.randint(2, 3)
        h, parts = rand_kpartite(rng, k, part_size_max=3, max_edges=6)
        system = assoc_matroids(h, parts)
        w = rand_weights(rng, len(h.edges))
        assert nu_star_w(system, w) == hyper_nu_star_w(h, w)
        assert nu_w(system, w) == hyper_nu_w(h, w)


def test_hyper_numbers_examples():
    single = Hypergraph(3, [[0, 1, 2]])
    nums = hyper_numbers(single)
    assert nums.nu == nums.nu_star == nums.tau_star == nums.tau == 1
    assert nums.w_star == F(1, 3)

    c4 = Hypergraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    nums = hyper_numbers(c4)
    assert nums.nu == nums.nu_star == 2

    weighted = hyper_numbers(single, (F(3, 2),))
    assert weighted.nu == weighted.nu_star == F(3, 2)
    assert weighted.tau == 2  # integral cover needs ceiling


def test_an_empty_edge_has_no_fractional_matching_or_width():
    h = Hypergraph(2, [0, [0, 1]])
    with pytest.raises(EmptyEdge):
        hyper_nu_star_w(h, (1, 1))
    with pytest.raises(EmptyEdge):
        hyper_w_star(h)
    with pytest.raises(EmptyEdge):
        hyper_numbers(h)
    assert hyper_w_star(Hypergraph(2, [[0, 1]])) == F(1, 2)


def test_hyper_chain_random():
    rng = random.Random(60)
    for _ in range(30):
        n = rng.randint(2, 6)
        edges = {
            frozenset(rng.sample(range(n), rng.randint(1, min(3, n))))
            for _ in range(rng.randint(1, 6))
        }
        h = Hypergraph(n, [list(e) for e in edges])
        w = rand_weights(rng, len(h.edges))
        nums = hyper_numbers(h, w)
        assert nums.nu <= nums.nu_star <= nums.tau


def test_hyper_tau_w_matches_the_multicover_oracle():
    # n <= 7, at most 8 edges and demands up to 7; an empty edge has
    # demand 0, which the oracle cannot meet otherwise
    rng = random.Random(62)
    for _ in range(150):
        n = rng.randint(1, 7)
        edges = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.1:
            edges.append([])
        h = Hypergraph(n, edges)
        w = [F(rng.randint(0, 21), 3) if e else 0 for e in h.edges]
        assert hyper_tau_w(h, w) == hyper_tau_by_multicover(h, [math.ceil(x) for x in w]), (h, w)
    with pytest.raises(Infeasible):
        hyper_tau_w(Hypergraph(2, [0, [0, 1]]), (F(1, 2), 1))


def test_hyper_tau_w_answers_large_demands_in_few_search_calls(monkeypatch):
    # a bound that counts demand left, not elements left, makes the first
    # two a short dive (the C4 takes about 16,000 nodes without it); the
    # triangle's first dive is not optimal, and it ends only because each
    # multiset of stars is tried in one order
    calls = []
    step = coloring._branching

    def counted(*args):
        calls.append(1)
        assert len(calls) <= 3000  # fail at once rather than search for hours
        return step(*args)

    monkeypatch.setattr(coloring, "_branching", counted)
    assert hyper_tau_w(Hypergraph(2, [[0, 1]]), (50,)) == 50
    assert len(calls) <= 300
    calls.clear()
    c4 = Hypergraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    assert hyper_tau_w(c4, (7, 7, 7, 7)) == 14
    assert len(calls) <= 300
    calls.clear()
    triangle = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])
    assert hyper_tau_w(triangle, (50, 50, 50)) == 75


def test_a_demand_past_the_recursion_limit_is_searched():
    # one pick per search level, so 5000 levels: the search keeps them on
    # a stack of its own, not the interpreter's
    assert hyper_tau_w(Hypergraph(2, [[0, 1]]), (5000,)) == 5000
    system = MatroidSystem([UniformMatroid(1, 2)])
    assert tau_w(system, (5000, 1)) == 5000


def _nested(depth: int, call):
    """call() run under depth more interpreter frames."""
    return _nested(depth - 1, call) if depth else call()


def test_integral_searches_answer_at_any_stack_depth():
    edge = Hypergraph(2, [[0, 1]])
    assert _nested(150, lambda: hyper_tau_w(edge, (900,))) == 900
    disjoint = Hypergraph(2400, [[2 * i, 2 * i + 1] for i in range(1200)])
    start = time.perf_counter()
    assert _nested(150, lambda: hyper_nu_w(disjoint, [1] * 1200)) == 1200
    assert time.perf_counter() - start < 1  # the first descent is the greedy matching


def test_hyper_nu_w_matches_the_recursive_search():
    rng = random.Random(63)
    empty = zero = 0
    for _ in range(1200):
        n = rng.randint(0, 7)
        edges = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(0, 9))]
        h = Hypergraph(n, edges)
        w = [F(rng.randint(0, 6), rng.randint(1, 3)) if rng.random() < 0.8 else 0 for _ in h.edges]
        assert hyper_nu_w(h, w) == recursive_hyper_nu_w(h, w), (h, w)
        empty += 0 in h.edges
        zero += 0 in w
    assert empty >= 100 and zero >= 300


def test_integral_searches_leave_no_reference_cycles():
    # the branch and bounds must not keep themselves alive through a
    # closure cell, or each call's memo and lists wait for the cyclic
    # collector
    system = MatroidSystem([UniformMatroid(1, 4), UniformMatroid(2, 4)])
    c4 = Hypergraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    w = (F(3, 2), ONE, F(1, 2), F(2))
    gc.collect()
    gc.disable()
    try:
        assert tau_w(system, (1, 1, 1, 1)) == 1
        assert hyper_nu_w(c4, w) == F(7, 2)
        assert hyper_tau_w(c4, w) == 4
        assert gc.collect() == 0
    finally:
        gc.enable()
