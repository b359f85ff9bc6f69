"""Chromatic, list-chromatic, fractional computations."""

import gc
import itertools
import random
from fractions import Fraction

import pytest

from mtk.core import (
    Complex,
    Hypergraph,
    bit_count,
    independence_complex,
    iter_bits,
    matching_complex,
)
from mtk.coloring import (
    Coloring,
    ListColorFailure,
    _b_fold_colorable,
    _canonical_systems,
    ab_check,
    chi,
    chi_list,
    chi_list_number,
    chi_matroid,
    chi_star,
    delta_rank,
    matroid_list_color,
)
from mtk.errors import CapExceeded, Uncolorable
from mtk.extval import XRat
from mtk.matroid import GenPartitionMatroid, GraphicMatroid, UniformMatroid
from mtk.topology import expansions
from mtk.verify import rand_matroid, rand_system

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


def test_chi_star_examples():
    assert chi_star(Complex(3, [[0, 1, 2]]), [1, 1, 1]) == 1
    assert chi_star(Complex(4, [[0], [1], [2], [3]]), [1, 1, 1, 1]) == 4
    # weighted: chi*(M, h) = Delta(M, h) for matroids
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = rand_matroid(rng, n)
        h = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(n)]
        assert XRat.of(chi_star(m.to_complex(), h)) == delta_rank(m, h)


def test_chi_star_returns_fractional_coloring():
    c = Complex(5, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]])  # C5 edges as faces
    assert chi_star(c, [1] * 5) == F(5, 2)


def test_chi_list_examples():
    path2 = Complex(2, [[0], [1]])
    ok, witness = chi_list(path2, 1)
    assert not ok and witness is not None
    assert chi_list(path2, 2)[0]
    assert chi_list_number(path2) == 2
    assert chi_list_number(Complex(3, [[0, 1, 2]])) == 1


def test_chi_list_equals_chi_on_matroids():
    rng = random.Random(43)
    for _ in range(12):
        m = rand_matroid(rng, rng.randint(2, 5))
        c = m.to_complex()
        assert chi_list_number(c) == chi_matroid(m)


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
        assert chi(c) <= rec.delta.ceil()
        ell = chi_list_number(c)
        assert ell <= rec.delta_eta.ceil()


def test_chi_list_k_chi_on_intersections():
    rng = random.Random(45)
    for _ in range(10):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        system = rand_system(rng, n, k, loopless=True)
        c = system.intersection_complex()
        chi_c = chi(c)
        ell = chi_list_number(c)
        assert ell <= k * chi_c


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
        biggest = max((bit_count(f) for f in faces[i:]), default=0)
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
            systems = list(_canonical_systems(n, a, 10**6))
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
    gc.collect()
    gc.disable()
    try:
        assert chi(c) == 3
        assert chi(c, return_cover=True)[0] == 3
        assert gc.collect() == 0
    finally:
        gc.enable()
