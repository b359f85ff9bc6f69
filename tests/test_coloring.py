"""Chromatic, list-chromatic, fractional computations."""

import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

from mtk.core import (
    Complex,
    Hypergraph,
    independence_complex,
    iter_bits,
    matching_complex,
)
from mtk.coloring import (
    LIST_ENUM_BUDGET,
    Coloring,
    ListColorFailure,
    _b_fold_colorable,
    _canonical_systems,
    _first_uncolorable,
    ab_check,
    chi,
    chi_list,
    chi_list_number,
    chi_matroid,
    chi_matroid_restricted,
    chi_star,
    delta_rank,
    matroid_list_color,
    min_cover,
)
from mtk.errors import CapExceeded, DomainError, Uncolorable
from mtk.extval import INF, max_ratio
from mtk.matroid import DualMatroid, GenPartitionMatroid, GraphicMatroid, UniformMatroid
from mtk.meshulam import gamma_e_graph
from mtk.topology import expansions
from mtk.verify import rand_matroid, rand_system

from list_oracle import first_uncolorable, systems_by_mask

F = Fraction
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_chi_examples():
    assert chi(Complex(3, [[0, 1, 2]])) == 1
    c4 = Hypergraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    assert chi(matching_complex(c4)) == 2
    # M(T_3) has only singleton faces
    assert chi(Complex(4, [[0], [1], [2], [3]])) == 4
    with pytest.raises(Uncolorable):
        chi(Complex(3, [[0, 1]]))


def _cheapest_subset(options, target):
    """The least total cost of a subset of options covering target, or
    None when no subset does: every subset, smallest first."""
    best = None
    for r in range(len(options) + 1):
        for sub in itertools.combinations(options, r):
            union = 0
            for mask, _ in sub:
                union |= mask
            cost = sum(c for _, c in sub)
            if target & ~union == 0 and (best is None or cost < best):
                best = cost
    return best


def test_min_cover_matches_the_cheapest_subset():
    rng = random.Random(19)
    uncoverable = 0
    for _ in range(300):
        n = rng.randint(0, 6)
        options = [(rng.randrange(1 << n), rng.randint(0, 3)) for _ in range(rng.randint(0, 8))]
        target = (1 << n) - 1 if rng.random() < 0.5 else rng.randrange(1 << n)
        want = _cheapest_subset(options, target)
        if want is None:
            uncoverable += 1
            with pytest.raises(Uncolorable):
                min_cover(options, target)
            continue
        cost, chosen = min_cover(options, target)
        assert cost == want, (options, target)
        union = 0
        for mask in chosen:
            union |= mask
        assert target & ~union == 0
        assert len(set(chosen)) == len(chosen)
        assert sum(min(c for m, c in options if m == mask) for mask in chosen) == cost
        assert min_cover(options, target, lower=want)[0] == want
    assert 0 < uncoverable < 300


def test_min_cover_refuses_a_negative_cost():
    with pytest.raises(DomainError):
        min_cover([(0b11, 1), (0b01, -1)], 0b11)


def test_chi_matroid_examples():
    assert chi_matroid(GraphicMatroid(4, K4_EDGES)) == 2
    assert chi_matroid(UniformMatroid(1, 5)) == 5
    gp = GenPartitionMatroid(5, [[0, 1, 2], [3, 4]], [2, 1])
    assert chi_matroid(gp) == 2
    with pytest.raises(Uncolorable):
        chi_matroid(GenPartitionMatroid(2, [[0, 1]], [0]))


def test_chi_matroid_equals_brute_chi():
    rng = random.Random(41)
    for _ in range(30):
        m = rand_matroid(rng, rng.randint(2, 6))
        assert chi_matroid(m) == chi(m.to_complex())


def test_chi_matroid_restricted_matches_the_three_branch_definition():
    def three_branch(m, fmask):
        if fmask == 0:
            return 0
        if m.loops() & fmask:
            return INF
        return math.ceil(max_ratio(m.rank, fmask))

    rng = random.Random(44)
    seen = set()
    for _ in range(20):
        n = rng.randint(2, 6)
        vertices = rng.randint(2, 4)
        u = rng.randrange(vertices)
        # (u, u) is a loop; a part of cap 0 is a set of loops, and one
        # whose cap is its size a set of coloops, which the dual turns
        # into loops
        edges = [tuple(rng.sample(range(vertices), 2)) for _ in range(n - 1)] + [(u, u)]
        rng.shuffle(edges)
        cut = rng.randint(1, n - 1)
        gp = GenPartitionMatroid(n, [range(cut), range(cut, n)], [cut, rng.randint(0, n - cut)])
        for m in (GraphicMatroid(vertices, edges), DualMatroid(gp), gp, rand_matroid(rng, n, False)):
            for fmask in range(1 << n):
                got = chi_matroid_restricted(m, fmask)
                assert got == three_branch(m, fmask)
                seen.add(got is INF)
    assert seen == {True, False}


def test_chi_star_examples():
    assert chi_star(Complex(3, [[0, 1, 2]]), [1, 1, 1]) == 1
    assert chi_star(Complex(4, [[0], [1], [2], [3]]), [1, 1, 1, 1]) == 4
    # weighted: chi*(M, h) = Delta(M, h) for matroids
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = rand_matroid(rng, n)
        h = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(n)]
        assert chi_star(m.to_complex(), h) == delta_rank(m, h)


def test_chi_star_returns_fractional_coloring():
    c = Complex(5, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]])  # C5 edges as faces
    assert chi_star(c, [1] * 5) == F(5, 2)


def test_chi_list_examples():
    path2 = Complex(2, [[0], [1]])
    ok, witness = chi_list(path2, 1)
    assert not ok and witness is not None
    assert chi_list(path2, 2)[0]
    assert chi_list_number(path2) == (2, 2)
    assert chi_list_number(Complex(3, [[0, 1, 2]])) == (1, 1)
    # no vertices: chi is 0 and the empty list system is colourable
    assert chi_list(Complex(0, []), 0) == (True, None)
    assert chi_list_number(Complex(0, [])) == (0, 0)


def test_chi_list_equals_chi_on_matroids():
    rng = random.Random(43)
    for _ in range(12):
        m = rand_matroid(rng, rng.randint(2, 5))
        c = m.to_complex()
        assert chi_list_number(c) == (chi_matroid(m),) * 2


def test_chi_bounds_by_expansion_numbers():
    # chi <= ceil(Delta) and chi_ell <= ceil(Delta_eta), eta taken homologically
    rng = random.Random(44)
    for _ in range(15):
        n = rng.randint(2, 5)
        c = Complex(
            n,
            [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))],
        )
        if c.vertices_mask() != (1 << n) - 1:
            continue
        rec = expansions(c)
        assert chi(c) <= math.ceil(rec.delta)
        lo, hi = chi_list_number(c)
        assert lo == hi <= math.ceil(rec.delta_eta)


def test_chi_list_k_chi_on_intersections():
    rng = random.Random(45)
    for _ in range(10):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        system = rand_system(rng, n, k, loopless=True)
        c = system.intersection_complex()
        chi_c = chi(c)
        lo, hi = chi_list_number(c)
        assert lo == hi <= k * chi_c


def test_chi_list_matches_naive_enumeration_tiny():
    # naive route: all assignments of p-subsets from a universe of p*n
    # colors, checked directly; the canonical enumerator must agree
    import itertools

    rng = random.Random(48)

    def naive_chi_list(c, p):
        universe = list(range(p * c.n))
        subsets = list(itertools.combinations(universe, p))
        for assignment in itertools.product(subsets, repeat=c.n):
            colors = sorted({col for lst in assignment for col in lst})
            ok = False
            for coloring_choice in itertools.product(*assignment):
                classes = {}
                for v, col in enumerate(coloring_choice):
                    classes[col] = classes.get(col, 0) | (1 << v)
                if all(c.is_face(mask) for mask in classes.values()):
                    ok = True
                    break
            if not ok:
                return False
        return True

    for _ in range(12):
        n = rng.randint(2, 3)
        faces = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
        faces += [[v] for v in range(n)]
        c = Complex(n, faces)
        for p in (1, 2):
            got, _ = chi_list(c, p)
            assert got == naive_chi_list(c, p), (c, p)


def test_chi_list_false_witnesses_are_uncolorable_systems():
    # the uncovered and chi > p shortcuts answer with the same kind of
    # witness as the enumeration: a canonical system with no coloring;
    # K_{2,4} (chi 2, not 2-choosable) reaches the enumeration
    k24 = Hypergraph(6, [[a, b] for a in (0, 1) for b in range(2, 6)])
    cases = [(independence_complex(k24), 2)]
    rng = random.Random(46)
    for _ in range(40):
        n = rng.randint(1, 4)
        faces = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.6:
            faces += [[v] for v in range(n)]
        cases += [(Complex(n, faces), p) for p in (1, 2, 3)]
    routes = set()
    for c, p in cases:
        ok, witness = chi_list(c, p)
        if ok:
            continue
        assert not _b_fold_colorable(c, witness, 1), (c, p, witness)
        if c.vertices_mask() != (1 << c.n) - 1:
            routes.add("uncovered")
        else:
            routes.add("chi" if chi(c) > p else "search")
    assert routes == {"uncovered", "chi", "search"}


def test_chi_list_number_brackets_the_exact_value():
    rng = random.Random(47)
    open_brackets = 0
    for _ in range(12):
        n = rng.randint(2, 4)
        c = rand_system(rng, n, rng.randint(2, 3), loopless=True).intersection_complex()
        exact, exact_hi = chi_list_number(c)
        assert exact == exact_hi
        lo, hi = chi_list_number(c, budget=20)
        assert lo <= exact <= hi <= n
        assert lo < hi or lo == exact
        open_brackets += lo < hi
    assert open_brackets
    # past chi_list's cap on n no size below n can be searched
    with pytest.raises(CapExceeded):
        chi_list_number(Complex(9, [(1 << 9) - 1]))


def test_hall_bounded_generator_lists_the_mask_oracle_systems():
    # with room for p*n colors no system is cut: the same multisets as
    # the ascending-mask walk, each once; a color bound or leaving out
    # single-vertex classes keeps exactly the oracle systems that fit
    for n in range(5):
        for p in range(1, 4):
            oracle = {tuple(sorted(s)) for s in systems_by_mask(n, p)}
            for max_colors in range(p * n + 1):
                for singletons in (True, False):
                    got = [
                        tuple(sorted(s))
                        for s in _canonical_systems(n, p, max_colors, 10**6, singletons)
                    ]
                    fits = {
                        s
                        for s in oracle
                        if sum(mult for _, mult in s) <= max_colors
                        and (singletons or all(f & (f - 1) for f, _ in s))
                    }
                    assert len(got) == len(set(got)), (n, p, max_colors, singletons)
                    assert set(got) == fits, (n, p, max_colors, singletons)
    assert len(list(_canonical_systems(4, 3, 12, 10**6))) == len(oracle) == 862


def _oracle_choosable(c, p, b, budget=60_000):
    """The mask oracle's verdict, or None past `budget` nodes."""
    try:
        return first_uncolorable(c, p, b, budget) is None
    except CapExceeded:
        return None


def _small_complexes(rng, count, max_n):
    """Seeded complexes on 1..max_n vertices, most with every vertex a face."""
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        faces = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.8:
            faces += [[v] for v in range(n)]
        out.append(Complex(n, faces))
    return out


def _bipartite_graph_complexes(rng, count):
    """Independence complexes of K_{2,4}, K_{3,3} and of seeded dense
    bipartite graphs on 6 vertices: chi 2, often not 2-choosable."""
    graphs = [
        Hypergraph(6, [[a, b] for a in (0, 1) for b in range(2, 6)]),
        Hypergraph(6, [[a, b] for a in (0, 1, 2) for b in range(3, 6)]),
    ]
    for _ in range(count):
        side = rng.choice([2, 3])
        edges = [[a, b] for a in range(side) for b in range(side, 6) if rng.random() < 0.9]
        graphs.append(Hypergraph(6, edges))
    return [independence_complex(g) for g in graphs]


def test_chi_list_agrees_with_the_mask_oracle():
    # the oracle walks every system on n <= 4; on the 6-vertex graphs it
    # finds each failure within 70k nodes but needs 5.4M to show 2-choosability,
    # so those cases are left out
    rng = random.Random(51)
    cases = [(c, p) for c in _small_complexes(rng, 40, 4) for p in range(1, 4)]
    cases += [(c, 2) for c in _bipartite_graph_complexes(rng, 8)]
    verdicts = []
    for c, p in cases:
        want = _oracle_choosable(c, p, 1, 60_000 if c.n <= 4 else 70_000)
        if want is None:
            assert c.n == 6
            continue
        got, witness = chi_list(c, p)
        assert got == want, (c, p)
        if not got:
            assert not _b_fold_colorable(c, witness, 1), (c, p, witness)
        verdicts.append((c.n, got))
    assert verdicts.count((6, False)) >= 4, verdicts
    assert set(verdicts) >= {(n, v) for n in (2, 3, 4) for v in (True, False)}


def test_ab_choosable_agrees_with_the_mask_oracle():
    rng = random.Random(52)
    cases = [
        (c, a, b)
        for c in _small_complexes(rng, 40, 4)
        for b in range(1, 4)
        for a in range(b, (6 if c.n <= 3 else 3) + 1)
    ]
    bipartite = _bipartite_graph_complexes(rng, 0)
    cases += [(c, 2, b) for c in bipartite for b in (1, 2)]
    verdicts = set()
    for c, a, b in cases:
        want = _oracle_choosable(c, a, b, 70_000)
        assert want is not None, (c, a, b)
        assert ab_check(c, a, b, "choosable") == want, (c, a, b)
        if not want and c.vertices_mask() == (1 << c.n) - 1:
            witness = _first_uncolorable(c, a, b, LIST_ENUM_BUDGET)
            assert not _b_fold_colorable(c, witness, b), (c, a, b, witness)
        verdicts.add((b, want))
    assert verdicts == {(b, v) for b in (1, 2, 3) for v in (True, False)}
    # K_{2,4} is not (3, 2)-colorable, so the system with every list
    # equal decides it at once; the canonical order lists that system last
    assert _oracle_choosable(bipartite[0], 3, 2, 70_000) is False
    assert not ab_check(bipartite[0], 3, 2, "choosable")


def test_ab_choosable_at_the_hall_bound():
    # a vertex in no face: no system is colorable, though b*n - 1 = 1
    # color leaves no size-4 system to search
    assert not ab_check(Complex(2, [[0]]), 4, 1, "choosable")
    # the only uncolorable systems use all b*n - 1 colors: one less
    # would leave none to find
    singles = Complex(3, [[0], [1], [2]])
    assert not ab_check(singles, 2, 1, "choosable")
    assert not ab_check(singles, 5, 2, "choosable")
    assert ab_check(singles, 3, 1, "choosable")
    assert ab_check(singles, 6, 2, "choosable")


def test_largest_appendix_c_search_stays_far_under_the_budget():
    # appendix-c asks ab_check(..., "choosable") for n <= 4, a <= 4 and
    # b <= 2 at the default budget, with no fallback for a budget hit;
    # its largest walk, every system for (n, a, b) = (4, 4, 2), takes
    # 3139 nodes
    for a in range(1, 5):
        for b in range(1, min(a, 2) + 1):
            list(_canonical_systems(4, a, 2 * 4 - 1, LIST_ENUM_BUDGET // 1000, b > 1))


def test_matroid_list_color_success_paths():
    free = UniformMatroid(2, 2)
    res = matroid_list_color(free, [[1, 2], [1, 2]])
    assert isinstance(res, Coloring)

    u12 = UniformMatroid(1, 2)
    res = matroid_list_color(u12, [[1, 2], [1, 2]])
    assert isinstance(res, Coloring)
    assert res.assignment[0] != res.assignment[1]

    res = matroid_list_color(u12, [[1], [1]])
    assert isinstance(res, ListColorFailure)
    assert res.lhs < res.required


def test_matroid_list_color_random_hypothesis_satisfying():
    from mtk.coloring import chi_matroid_restricted

    rng = random.Random(46)
    produced = 0
    while produced < 25:
        n = rng.randint(2, 6)
        k = rng.randint(2, 3)
        m = rand_matroid(rng, n)
        universe = list(range(k + rng.randint(0, 2)))
        lists = [rng.sample(universe, k) for _ in range(n)]
        fmask = {}
        for v, lst in enumerate(lists):
            for col in lst:
                fmask[col] = fmask.get(col, 0) | (1 << v)
        if not all(chi_matroid_restricted(m, fm) <= k for fm in fmask.values()):
            continue
        produced += 1
        res = matroid_list_color(m, lists)
        assert isinstance(res, Coloring)
        assert res.respects(m.is_independent)
        assert all(col in lists[v] for v, col in enumerate(res.assignment))


def test_ab_check_examples():
    assert ab_check(Complex(2, [[0, 1]]), 1, 1, "colorable")
    singles = Complex(2, [[0], [1]])
    # singletons-only on 2 vertices: (a,b)-colorable iff a >= 2b
    for a in range(1, 6):
        for b in range(1, min(a, 3) + 1):
            assert ab_check(singles, a, b, "colorable") == (a >= 2 * b)
    ic5 = independence_complex(
        Hypergraph(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
    )
    assert ab_check(ic5, 5, 2, "colorable")
    assert not ab_check(ic5, 4, 2, "colorable")  # chi* = 5/2 > 4/2


def test_chr_bounds_bracket_chi_star():
    # chr equals chi*, so the least a/b found choosable bounds chi* above
    def best_choosable(c, a_cap, b_cap):
        return min(
            Fraction(a, b)
            for b in range(1, b_cap + 1)
            for a in range(b, a_cap + 1)
            if ab_check(c, a, b, "choosable")
        )

    c = Complex(2, [[0], [1]])  # two isolated vertices: chi* = 2
    assert chi_star(c, [1, 1]) == 2
    assert best_choosable(c, 4, 2) == 2

    full = Complex(3, [[0, 1, 2]])
    assert chi_star(full, [1, 1, 1]) == 1
    assert best_choosable(full, 5, 2) == 1


def test_ab_choosable_implies_colorable_and_chi_star_bound():
    rng = random.Random(47)
    for _ in range(8):
        n = rng.randint(2, 4)
        c = Complex(
            n,
            [[v] for v in range(n)]
            + [rng.sample(range(n), rng.randint(1, n)) for _ in range(2)],
        )
        star = chi_star(c, [1] * n)
        for a in range(1, 5):
            for b in range(1, min(a, 2) + 1):
                col = ab_check(c, a, b, "colorable")
                if col:
                    assert star <= F(a, b)
                cho = ab_check(c, a, b, "choosable")
                if cho:
                    assert col


def brute_b_fold_colorable(c, system, b):
    """Every way for each vertex to take b of the instances covering it."""
    groups = [fmask for fmask, mult in system for _ in range(mult)]
    picks = [
        itertools.combinations([j for j, f in enumerate(groups) if (f >> v) & 1], b)
        for v in range(c.n)
    ]
    for choice in itertools.product(*picks):
        classes = [0] * len(groups)
        for v, chosen in enumerate(choice):
            for j in chosen:
                classes[j] |= 1 << v
        if all(c.is_face(cls) for cls in classes):
            return True
    return False


def brute_ab_colorable(c, a, b):
    """Multisets of a faces covering every vertex exactly b times."""
    faces = c.faces()
    full = (1 << c.n) - 1
    if c.vertices_mask() != full and c.n > 0:
        return False
    deg = [b] * c.n

    def dfs(i: int, slots: int) -> bool:
        if all(d == 0 for d in deg):
            return True  # leftover slots take the empty face
        if i == len(faces) or slots == 0:
            return False
        needed = sum(deg)
        biggest = max((f.bit_count() for f in faces[i:]), default=0)
        if biggest == 0 or needed > slots * biggest:
            return False
        f = faces[i]
        if f == 0:
            return dfs(i + 1, slots)
        maxmult = min(slots, min((deg[v] for v in iter_bits(f)), default=0))
        for mult in range(maxmult, -1, -1):
            ok = True
            for v in iter_bits(f):
                deg[v] -= mult
                if deg[v] < 0:
                    ok = False
            if ok and dfs(i + 1, slots - mult):
                for v in iter_bits(f):
                    deg[v] += mult
                return True
            for v in iter_bits(f):
                deg[v] += mult
        return False

    return dfs(0, a)


def test_full_simplex_is_ab_choosable():
    full = Complex(3, [[0, 1, 2]])
    for a in range(1, 5):
        for b in range(1, min(a, 3) + 1):
            assert ab_check(full, a, b, "choosable"), (a, b)
    with pytest.raises(CapExceeded):
        ab_check(full, 4, 4, "choosable")  # b <= 3 is ab_check's cap


def test_b_fold_search_matches_brute_force_on_every_small_system():
    cases = 0
    for n in range(1, 4):
        nonempty = range(1, 1 << n)
        complexes = {
            Complex(n, fam)
            for r in range(len(nonempty) + 1)
            for fam in itertools.combinations(nonempty, r)
        }
        for a in range(1, 4):
            systems = list(_canonical_systems(n, a, a * n, 10**6))
            for b in range(1, a + 1):
                for c in complexes:
                    for system in systems:
                        assert _b_fold_colorable(c, system, b) == (
                            brute_b_fold_colorable(c, system, b)
                        ), (c, system, b)
                        cases += 1
    assert cases == 3038


def test_ab_colorable_matches_face_multiset_search():
    rng = random.Random(5)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 5)
        faces = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.8:
            faces += [[v] for v in range(n)]
        c = Complex(n, faces)
        for a in range(1, 7):
            for b in range(1, min(a, 3) + 1):
                got = ab_check(c, a, b, "colorable")
                assert got == brute_ab_colorable(c, a, b), (c, a, b)
                seen.add((b, got))
    assert seen == {(b, v) for b in (1, 2, 3) for v in (True, False)}


def test_chi_search_leaves_no_reference_cycles():
    # the branch and bound must not keep itself alive through a closure
    # cell, or each call's lists wait for the cyclic collector
    c = Complex(5, [0b00111, 0b01011, 0b01110, 0b10000])
    cycle4 = Complex(4, [0b0011, 0b0110, 0b1100, 0b1001])
    gc.collect()
    gc.disable()
    try:
        assert chi(c) == 3
        assert min_cover([(f, 1) for f in c.maximal_faces], 0b11111)[0] == 3
        assert chi_list_number(cycle4) == (2, 2)
        assert chi_list_number(cycle4, budget=20) == (2, 4)
        assert ab_check(cycle4, 3, 1, "choosable")
        assert gamma_e_graph(Hypergraph(4, [[0, 1], [1, 2], [2, 3]])) == 1
        assert gc.collect() == 0
    finally:
        gc.enable()
