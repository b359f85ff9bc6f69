"""Homology, eta_h, expansion numbers, and the Hall checker."""

import itertools
import math
import random
from fractions import Fraction

from mtk import topology
from mtk.core import (
    Complex,
    Hypergraph,
    independence_complex,
    iter_bits,
    mask_of,
    matching_complex,
)
from mtk.extval import EPS, INF, max_ratio
from mtk.matroid import UniformMatroid
from mtk.topology import (
    eta_h,
    expansions,
    reduced_homology,
    snf_diagonal,
    topological_hall_check,
)
from mtk.verify import rand_graph, rand_matroid, run_suite
from search_oracle import rainbow_face
from snf_oracle import snf_diagonal as snf_oracle


# The six-vertex triangulation of the real projective plane.
RP2 = Complex(
    6,
    [
        [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
        [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
    ],
)


def join(c: Complex, d: Complex) -> Complex:
    """Join of two complexes; d's ground set is shifted up by c.n."""
    faces = [a | (b << c.n) for a in c.maximal_faces for b in d.maximal_faces]
    return Complex(c.n + d.n, faces)


def test_snf_small_matrices():
    assert snf_diagonal([[2, 4], [6, 8]]) == [2, 4] or snf_diagonal(
        [[2, 4], [6, 8]]
    ) == [2, -4]
    d = snf_diagonal([[1, 0], [0, 1]])
    assert d == [1, 1]
    assert snf_diagonal([[0, 0], [0, 0]]) == []
    # cokernel of [[2]] has torsion Z/2
    assert snf_diagonal([[2]]) == [2]
    # a remainder in the pivot row, a remainder in the pivot column, and both
    assert snf_diagonal([[2, 3]]) == [1]
    assert snf_diagonal([[2], [3]]) == [1]
    assert snf_diagonal([[4, 6], [6, 4]]) == [2, 10]
    # a diagonalization, not always the Smith form
    assert snf_diagonal([[2, 0], [0, 3]]) == [2, 3]


def boundary_matrices(c: Complex) -> list[list[list[int]]]:
    """The integer boundary matrices of c between non-empty faces."""
    by = topology._faces_by_size(c)
    return [topology._boundary_matrix(by[i], by[i + 1]) for i in range(1, len(by) - 1)]


def test_snf_diagonal_matches_the_oracle_on_boundary_matrices():
    rng = random.Random(31)
    complexes = [RP2]
    for _ in range(150):
        complexes.append(independence_complex(rand_graph(rng, rng.randint(2, 9), rng.random())))
    for _ in range(40):
        h = rand_graph(rng, rng.randint(3, 6), rng.random())
        if h.edges:
            complexes.append(matching_complex(h))
    mats = [mat for c in complexes for mat in boundary_matrices(c)]
    assert len(mats) >= 250
    for mat in mats:
        assert snf_diagonal(mat) == snf_oracle(mat)


def snf_invariants(diag: list[int]) -> tuple[int, bool, int]:
    """Rank, torsion flag and |product of the non-zero entries|: the last
    one is the last non-zero determinantal divisor, so every integer
    diagonalization of a matrix gives the same triple."""
    nonzero = [d for d in diag if d]
    return len(nonzero), any(abs(d) > 1 for d in nonzero), abs(math.prod(nonzero))


def test_snf_diagonal_agrees_with_the_oracle_on_random_integer_matrices():
    rng = random.Random(32)
    differ = 0
    for _ in range(5000):
        cols = rng.randint(1, 8)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rng.randint(0, 8))]
        diag, want = snf_diagonal(mat), snf_oracle(mat)
        assert snf_invariants(diag) == snf_invariants(want), mat
        differ += diag != want
    assert differ > 0  # the pivot rules do differ; the invariants do not


def test_homology_examples():
    hollow = Complex(3, [[0, 1], [1, 2], [0, 2]])
    prof = reduced_homology(hollow)
    assert prof.betti == (0, 1) and prof.torsion == (False, False)

    full = Complex(3, [[0, 1, 2]])
    prof = reduced_homology(full)
    assert all(b == 0 for b in prof.betti) and not any(prof.torsion)

    two = Complex(2, [[0], [1]])
    prof = reduced_homology(two)
    assert prof.betti == (1,)

    point = Complex(1, [[0]])
    prof = reduced_homology(point)
    assert prof.betti == (0,)


def test_homology_torsion_rp2():
    prof = reduced_homology(RP2)
    assert prof.betti == (0, 0, 0)
    assert prof.torsion == (False, True, False)
    assert eta_h(RP2) == 2


def test_eta_examples():
    assert eta_h(Complex(2, [])) == 0  # no vertices
    assert eta_h(UniformMatroid(2, 4).to_complex()) == 2
    c4 = Hypergraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    assert eta_h(matching_complex(c4)) == 1
    cone = Complex(4, [[0, 1, 2], [0, 2, 3]])  # vertex 0 in every face
    assert eta_h(cone) == INF
    # spheres: boundary of the k-simplex has eta = k
    for k in (1, 2, 3):
        n = k + 2
        faces = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
        assert eta_h(Complex(n, faces)) == k + 1


def test_eta_join_additive():
    rng = random.Random(21)
    for _ in range(25):
        cs = []
        for _ in range(2):
            n = rng.randint(1, 4)
            cs.append(
                Complex(
                    n,
                    [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 3))],
                )
            )
        a, b = cs
        ea, eb, ej = eta_h(a), eta_h(b), eta_h(join(a, b))
        if ea == INF or eb == INF:
            assert ej == INF
        else:
            assert ej == ea + eb


def test_eta_matroid_rank_lower_bound_for_intersections():
    # eta_h(C) >= rank(C)/k for C in MINT_k
    rng = random.Random(22)
    for _ in range(15):
        n = rng.randint(2, 6)
        k = rng.randint(1, 3)
        ms = [rand_matroid(rng, n, loopless=False) for _ in range(k)]
        from mtk.matroid import MatroidSystem

        c = MatroidSystem(ms).intersection_complex()
        e = eta_h(c)
        r = c.rank()
        assert e == INF or Fraction(e) >= Fraction(r, k)


def test_expansions_examples():
    # full simplex on 4 vertices: every subset is a face of full rank
    rec = expansions(Complex(4, [[0, 1, 2, 3]]))
    assert rec.delta_r == 1

    c4 = Hypergraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    rec = expansions(matching_complex(c4))
    assert rec.delta_eta == 4  # k^2 with k = 2

    # loopless matroid: Delta(M, h) equals the rank-only formula
    rng = random.Random(23)
    from mtk.coloring import delta_rank

    for _ in range(10):
        n = rng.randint(2, 5)
        m = rand_matroid(rng, n)
        h = tuple(Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(n))
        rec = expansions(m.to_complex(), h)
        assert rec.delta_h == delta_rank(m, list(h))


def test_expansion_eps_and_infinity():
    # full simplex: every eta is inf, so delta_eta is the infinitesimal
    rec = expansions(Complex(2, [[0, 1]]))
    assert rec.delta_eta == EPS
    assert math.ceil(rec.delta_eta) == 1
    # vertex in no face: rank 0 denominator gives infinity
    rec = expansions(Complex(2, [[0]]))
    assert rec.delta_r is INF


def test_delta_is_the_larger_of_delta_r_and_delta_eta():
    # |S|/min(eta, rank) = max(|S|/eta, |S|/rank) in XRat arithmetic, so
    # delta needs no sweep of its own; the oracle is the min sweep, and
    # the weighted delta_h at all-ones weights must agree with it too
    rng = random.Random(31)
    complexes = [Complex(2, [[0, 1]]), Complex(2, [[0]]), Complex(0), RP2]
    for _ in range(60):
        n = rng.randint(1, 6)
        faces = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 5))]
        complexes.append(Complex(n, faces))
    kinds = set()
    for c in complexes:
        full = (1 << c.n) - 1
        cache = {}
        want = max_ratio(
            lambda s: min(topology._eta_of_induced(c, s, cache), c.rank_of(s)), full
        )
        rec = expansions(c)
        assert rec.delta == want and rec.delta_h == want
        assert expansions(c, (1,) * c.n).delta_h == want
        kinds.add("inf" if want is INF else "eps" if rec.delta_eta is EPS else "finite")
    assert kinds == {"inf", "eps", "finite"}


def test_homology_euler_characteristic_consistency():
    # alternating sum of reduced Betti numbers equals the reduced Euler
    # characteristic computed from face counts alone
    rng = random.Random(26)

    for _ in range(40):
        n = rng.randint(1, 6)
        c = Complex(
            n,
            [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 5))],
        )
        prof = reduced_homology(c)
        counts = {}
        for f in c.faces():
            counts[f.bit_count()] = counts.get(f.bit_count(), 0) + 1
        euler = sum((-1) ** (k - 1) * v for k, v in counts.items() if k >= 1) - 1
        betti_sum = sum((-1) ** i * b for i, b in enumerate(prof.betti))
        assert euler == betti_sum


def test_eta_h_is_one_plus_the_first_nonzero_homology_dimension():
    rng = random.Random(27)
    c4 = Hypergraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    hollow = Complex(3, [[0, 1], [1, 2], [0, 2]])
    cases = [Complex(3), Complex(3, [[0, 1, 2]]), hollow, matching_complex(c4)]
    for _ in range(60):
        n = rng.randint(1, 7)
        cases.append(Complex(
            n,
            [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 6))],
        ))
    seen = set()
    for c in cases:
        prof = reduced_homology(c)
        nonzero = [
            i for i, (b, t) in enumerate(zip(prof.betti, prof.torsion)) if b or t
        ]
        if c.rank() == 0:
            assert eta_h(c) == 0
        elif nonzero:
            assert eta_h(c) == 1 + nonzero[0]
        else:
            assert eta_h(c) is INF
        seen.add(eta_h(c))
    assert {0, 1, 2, INF} <= seen


def dense_induced(c: Complex, s: int) -> Complex:
    """The subcomplex induced on s, its vertices renumbered from 0 in
    ascending order."""
    new = {old: i for i, old in enumerate(iter_bits(s))}
    faces = [mask_of(new[v] for v in iter_bits(f & s)) for f in c.maximal_faces]
    return Complex(len(new), faces)


def test_eta_of_induced_ignores_vertex_labels():
    # _eta_of_induced keeps the vertices of s under their own labels
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 6)
        c = Complex(
            n,
            [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 5))],
        )
        for s in range(1 << n):
            assert topology._eta_of_induced(c, s, {}) == eta_h(dense_induced(c, s))


def test_chi_star_bounded_by_weighted_expansion():
    # chi*(C, h) <= Delta(C, h) on small random complexes
    from mtk.coloring import chi_star

    rng = random.Random(25)
    checked = 0
    for _ in range(20):
        n = rng.randint(2, 5)
        c = Complex(
            n,
            [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))],
        )
        if c.vertices_mask() != (1 << n) - 1:
            continue
        h = tuple(Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(n))
        rec = expansions(c, h)
        star = chi_star(c, list(h))
        assert star <= rec.delta_h
        checked += 1
    assert checked >= 8


def test_topological_hall():
    full = Complex(3, [[0, 1, 2]])
    rec = topological_hall_check(full, [mask_of([0]), mask_of([1, 2])])
    assert rec.hypothesis and rec.conclusion

    singles = Complex(2, [[0], [1]])
    rec = topological_hall_check(singles, [mask_of([0, 1]), mask_of([0, 1])])
    assert not rec.hypothesis  # eta_h = 1 < 2

    # Rado-style instance: matroid with rank condition has a transversal
    rng = random.Random(24)
    implications = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rand_matroid(rng, n, loopless=False)
        c = m.to_complex()
        subsets = [
            mask_of(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(1, 3))
        ]
        rec = topological_hall_check(c, subsets)
        if rec.hypothesis:
            implications += 1
            assert rec.conclusion
            picks = rec.witness
            image = mask_of(picks)
            assert c.is_face(image)
            assert all((subsets[i] >> v) & 1 for i, v in enumerate(picks))
    assert implications >= 5


def test_hall_witness_is_the_least_rainbow_face_of_the_search():
    # overlapping and empty V_i, and m = 0, on seeded complexes
    rng = random.Random(25)
    found = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        c = Complex(n, [rng.randrange(1 << n) for _ in range(rng.randint(1, 5))])
        subsets = [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]
        rec = topological_hall_check(c, subsets)
        assert rec.witness == rainbow_face(c, subsets), (c, subsets)
        assert rec.conclusion == (rec.witness is not None)
        found += rec.conclusion
    assert 100 < found < 400


def test_topological_hall_suite_decides_instances_meeting_the_hypothesis(monkeypatch):
    checked = []

    def spy(c, subsets):
        rec = topological_hall_check(c, subsets)
        checked.append((c, subsets, rec))
        return rec

    monkeypatch.setattr(topology, "topological_hall_check", spy)
    records = run_suite("topological-hall", seed=1)
    assert records and all(r.verdict == "holds" for r in records)
    (counts,) = [r for r in records if r.claim == "topological-hall/counts"]
    assert int(counts.lhs) > 0
    assert len(checked) == 30
    for c, subsets, rec in checked:
        # disjoint non-empty sides covering the ground set
        assert all(subsets) and sum(subsets) == (1 << c.n) - 1
        assert all(a & b == 0 for a, b in itertools.combinations(subsets, 2))
        if rec.hypothesis:
            picks = rec.witness
            assert len(picks) == len(set(picks)) == len(subsets)
            assert all((s >> v) & 1 for s, v in zip(subsets, picks))
            assert c.is_face(mask_of(picks))
