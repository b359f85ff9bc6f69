"""Chromatic, list-chromatic, fractional computations."""

import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

from mtk import coloring, constructions, meshulam, polytopes
from mtk.core import (
    Complex,
    Hypergraph,
    independence_complex,
    iter_bits,
    mask_of,
    matching_complex,
)
from mtk.coloring import (
    LIST_ENUM_BUDGET,
    Coloring,
    ListColorFailure,
    _b_fold_colorable,
    _canonical_systems,
    _face_table,
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
from mtk.errors import CapExceeded, DomainError, Infeasible, Uncolorable
from mtk.extval import INF, max_ratio
from mtk.matroid import DualMatroid, GenPartitionMatroid, GraphicMatroid, UniformMatroid
from mtk.meshulam import gamma_e_graph
from mtk.topology import expansions
from mtk.polytopes import hyper_tau_w, tau_w
from mtk.verify import _rand_matroid_once, rand_graph, rand_hypergraph, rand_matroid, rand_system

from list_color_oracle import failure_by_sweep, lhs_function
from list_oracle import first_uncolorable, pick_colorable, systems_by_mask
from lp_oracle import full_chi_star
from search_oracle import recursive_min_cover
from test_caps import TripwireComplex

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
    # 2^18 subsets, but the search only reads the two maximal faces
    assert chi(Complex(18, [range(9), range(9, 18)])) == 2


def test_chi_reads_only_the_maximal_faces():
    # no subset sweep: neither the rank oracle nor membership is asked
    assert chi(TripwireComplex(5, [[0, 1], [2, 3], [4]])) == 3
    assert chi(TripwireComplex(16, [range(8), range(8, 16), [0, 8]])) == 2


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
        demand = [(target >> v) & 1 for v in range(n)]
        want = _cheapest_subset(options, target)
        if want is None:
            uncoverable += 1
            with pytest.raises(Uncolorable):
                min_cover(options, demand)
            continue
        cost, chosen = min_cover(options, demand)
        assert cost == want, (options, target)
        union = 0
        for mask in chosen:
            union |= mask
        assert target & ~union == 0
        assert len(set(chosen)) == len(chosen)
        assert sum(min(c for m, c in options if m == mask) for mask in chosen) == cost
    assert 0 < uncoverable < 300


def _cheapest_multiset(options, demand):
    """The least total cost of a multiset of options that puts each
    element v in at least demand[v] of them, or None: every multiset of
    at most sum(demand) options, enough since a cheapest multiset with no
    pick to spare puts each pick on an element met exactly."""
    best = None
    for r in range(sum(demand) + 1):
        for sub in itertools.combinations_with_replacement(options, r):
            cost = sum(c for _, c in sub)
            if best is not None and cost >= best:
                continue
            if all(sum((mask >> v) & 1 for mask, _ in sub) >= d for v, d in enumerate(demand)):
                best = cost
    return best


def test_min_cover_meets_demands_like_the_cheapest_multiset():
    rng = random.Random(31)
    repeated = uncoverable = 0
    for _ in range(200):
        n = rng.randint(0, 4)
        options = [(rng.randrange(1 << n), rng.randint(0, 3)) for _ in range(rng.randint(0, 5))]
        demand = [rng.randint(0, 2) for _ in range(n)]
        want = _cheapest_multiset(options, demand)
        if want is None:
            uncoverable += 1
            with pytest.raises(Uncolorable):
                min_cover(options, demand)
            continue
        cost, chosen = min_cover(options, demand)
        assert cost == want, (options, demand)
        assert all(sum((mask >> v) & 1 for mask in chosen) >= d for v, d in enumerate(demand))
        assert sum(min(c for m, c in options if m == mask) for mask in chosen) == cost
        repeated += len(set(chosen)) < len(chosen)
    assert 0 < uncoverable < 200
    assert repeated >= 10
    # a mask is listed once per pick
    assert min_cover([(0b11, 2), (0b01, 1)], [3, 1]) == (4, [0b11, 0b01, 0b01])


def _cover_or_refusal(search, options, demand):
    try:
        return search(options, demand)
    except Uncolorable:
        return "uncolorable"


def test_min_cover_finds_the_recursive_search_optimum():
    # the same first-found optimum, masks and their order included, as the
    # recursive branch and bound the explicit stack replaced
    rng = random.Random(33)
    refused = 0
    for _ in range(2400):
        n = rng.randint(0, 7)
        options = [(rng.randrange(1 << n), rng.randint(0, 3)) for _ in range(rng.randint(0, 8))]
        union = mask_of(v for mask, _ in options for v in iter_bits(mask))
        demand = [rng.randint(0, 3) if (union >> v) & 1 or rng.random() < 0.1 else 0 for v in range(n)]
        want = _cover_or_refusal(recursive_min_cover, options, demand)
        assert _cover_or_refusal(min_cover, options, demand) == want, (options, demand)
        refused += want == "uncolorable"
    assert 0 < refused < 400


def test_min_cover_finds_the_recursive_search_optimum_for_its_callers(monkeypatch):
    # chi, tau_w, hyper tau_w and gamma_E, each on the
    # options and demands it builds
    calls = []

    def recorded(options, demand):
        calls.append((list(options), list(demand)))
        return min_cover(*calls[-1])

    for module in (coloring, polytopes, meshulam):
        monkeypatch.setattr(module, "min_cover", recorded)
    rng = random.Random(34)
    shapes = {"chi": 0, "tau_w": 0, "hyper_tau_w": 0, "gamma_e": 0}
    for _ in range(60):
        n = rng.randint(2, 7)
        system = rand_system(rng, n, rng.randint(1, 3))
        h = rand_hypergraph(rng, n, 6)
        cases = {
            "chi": lambda: chi(system.intersection_complex()),
            "tau_w": lambda: tau_w(system, [F(rng.randint(0, 9), 3) for _ in range(n)]),
            "hyper_tau_w": lambda: hyper_tau_w(h, [rng.randint(0, 3) for _ in h.edges]),
            "gamma_e": lambda: gamma_e_graph(rand_graph(rng, n, 0.5)),
        }
        for shape, call in cases.items():
            before = len(calls)
            call()
            shapes[shape] += len(calls) - before
    assert min(shapes.values()) >= 50, shapes
    for options, demand in calls:
        want = _cover_or_refusal(recursive_min_cover, options, demand)
        assert _cover_or_refusal(min_cover, options, demand) == want, (options, demand)


def test_chi_of_a_matroid_is_its_ceiled_expansion_number():
    # Edmonds' covering theorem as the oracle for the search alone
    rng = random.Random(26)
    for _ in range(40):
        m = rand_matroid(rng, rng.randint(9, 11))
        assert chi(m.to_complex()) == math.ceil(delta_rank(m)), m


def test_chi_of_intersections_matches_the_cheapest_subset():
    rng = random.Random(27)
    for _ in range(40):
        n = rng.randint(2, 6)
        c = rand_system(rng, n, rng.randint(2, 3)).intersection_complex()
        want = _cheapest_subset([(f, 1) for f in c.maximal_faces], (1 << n) - 1)
        assert chi(c) == want, c


def test_min_cover_refuses_a_negative_cost():
    with pytest.raises(DomainError):
        min_cover([(0b11, 1), (0b01, -1)], [1, 1])


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


_CANNED_CHI_STAR = [
    ("ab", {"m": 3}), ("md_lower", {"n": 4}), ("md_lower", {"n": 6}),
    ("lambdaPnotQ", {"k": 3}), ("lambdaPnotQ", {"k": 4}), ("PnotQpartition", {}),
    ("truncated_plane", {"q": 2}), ("truncated_plane", {"q": 3}),
    ("q_k", {"q": 2}), ("q_k", {"q": 3}),
]


def _chi_star_complexes(rng):
    """Complexes of every matroid kind, intersection complexes (k <= 3,
    n <= 7, loops allowed) and the canned complexes."""
    for kind in ("uniform", "partition", "gen_partition", "graphic", "dual"):
        for _ in range(6):
            yield _rand_matroid_once(rng, rng.randint(1, 7), kind).to_complex()
    for _ in range(30):
        n = rng.randint(2, 7)
        yield rand_system(rng, n, rng.randint(2, 3), loopless=False).intersection_complex()
    for name, params in _CANNED_CHI_STAR:
        inst = constructions.canned(name, **params)
        yield inst.complex_ or inst.system.intersection_complex()


def _chi_star_or_infeasible(fn, c, h):
    try:
        return fn(c, h)
    except Infeasible:
        return Infeasible


def test_chi_star_on_the_support_matches_the_full_face_lp():
    rng = random.Random(32)
    supports = set()
    raised = 0
    for c in _chi_star_complexes(rng):
        for zeros in range(c.n + 1):
            off = set(rng.sample(range(c.n), zeros))
            h = [F(0) if v in off else F(rng.randint(1, 4), rng.randint(1, 3)) for v in range(c.n)]
            got = _chi_star_or_infeasible(chi_star, c, h)
            assert got == _chi_star_or_infeasible(full_chi_star, c, h), (c, h)
            if got is Infeasible:
                raised += 1
            else:
                supports.add("full" if zeros == 0 else "empty" if zeros == c.n else "partial")
    assert supports == {"full", "partial", "empty"}
    assert raised


def test_chi_star_on_zero_weights_and_elements_in_no_face():
    c = Complex(3, [0b011])  # element 2 lies in no face
    for fn in (chi_star, full_chi_star):
        assert fn(c, [0, 0, 0]) == 0
        assert fn(c, [1, F(1, 2), 0]) == 1
        with pytest.raises(Infeasible, match="element 2"):
            fn(c, [0, 0, 1])


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


def test_chi_list_refuses_negative_sizes_and_budgets():
    c = Complex(2, [[0], [1]])
    for bad in (dict(p=-1), dict(p=1, budget=-1), dict(p=-1, budget=-1)):
        with pytest.raises(ValueError):
            chi_list(c, **bad)
    with pytest.raises(ValueError):
        chi_list_number(c, budget=-5)
    with pytest.raises(ValueError):  # refused before chi finds vertex 1 in no face
        chi_list_number(Complex(2, [[0]]), budget=-5)
    assert chi_list_number(c, budget=0) == (2, 2)  # p = n needs no enumeration


def test_chi_list_of_size_zero_answers_with_the_empty_system():
    # the only size-0 system gives no vertex a color
    for c in (Complex(1, [[0]]), Complex(3, [[0, 1, 2]]), Complex(2, [[0]])):
        ok, witness = chi_list(c, 0)
        assert (ok, witness) == (False, ())
        assert not _b_fold_colorable(_face_table(c), witness, 1)
    assert chi_list(Complex(0, []), 0) == (True, None)


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
        assert not _b_fold_colorable(_face_table(c), witness, 1), (c, p, witness)
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
    # nine vertices are searched in full; past the face table's sweep cap
    # no size below n can be, and the bracket is (chi, n)
    assert chi_list_number(Complex(9, [(1 << 9) - 1])) == (1, 1)
    assert chi_list_number(Complex(21, [(1 << 21) - 1])) == (1, 21)


def test_chi_list_number_climbs_past_chi():
    # K_{3,3} is 2-colorable but not 2-choosable: the search climbs to 3
    k33 = Hypergraph(6, [[a, b] for a in (0, 1, 2) for b in (3, 4, 5)])
    c = independence_complex(k33)
    assert chi(c) == 2
    assert chi_list_number(c) == (3, 3)
    ok, witness = chi_list(c, 2)
    assert not ok
    assert [sum(mult for f, mult in witness if (f >> v) & 1) for v in range(6)] == [2] * 6
    assert not brute_b_fold_colorable(c, witness, 1)


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
            assert not _b_fold_colorable(_face_table(c), witness, 1), (c, p, witness)
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
            assert not _b_fold_colorable(_face_table(c), witness, b), (c, a, b, witness)
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


def _seeded_list_failures(seed, count):
    """(m, lists) pairs with n <= 8 that matroid_list_color must fail on:
    the five matroid kinds in turn, lists of size 1-3 drawn from up to
    two more colors than that."""
    rng = random.Random(seed)
    kinds = itertools.cycle(["uniform", "partition", "gen_partition", "graphic", "dual"])
    found = []
    while len(found) < count:
        n = rng.randint(1, 8)
        k = rng.randint(1, 3)
        m = _rand_matroid_once(rng, n, next(kinds))
        universe = list(range(k + rng.randint(0, 2)))
        lists = [rng.sample(universe, k) for _ in range(n)]
        if failure_by_sweep(m, lists) is not None:
            found.append((m, lists))
    return found


def test_matroid_list_color_failure_matches_the_sweep_oracle():
    # the exchange-graph certificate gives the very T of the 2^n sweep
    cases = _seeded_list_failures(71, 500)
    nonempty = 0
    for m, lists in cases:
        res = matroid_list_color(m, lists)
        assert res == failure_by_sweep(m, lists), (m, lists)
        nonempty += res.t_mask != 0
    # a partition matroid reports the kind gen_partition
    assert {m.kind for m, _ in cases} == {"uniform", "gen_partition", "graphic", "dual"}
    assert sum(1 for m, _ in cases if m.loops()) >= 100
    assert nonempty >= 40


def test_list_color_certificate_attains_the_min_max(monkeypatch):
    # before the shrink, T is the vertex set of the pairs that reach a
    # sink: lhs(T) equals |max common independent set| (Edmonds) and T
    # is the first minimizer of lhs in ascending mask order
    seen = []

    def recording(m1, m2, cur):
        found, reached = search(m1, m2, cur)
        seen.append((cur, found, reached))
        return found, reached

    search = coloring._exchange_search
    monkeypatch.setattr(coloring, "_exchange_search", recording)
    for m, lists in _seeded_list_failures(73, 150):
        seen.clear()
        matroid_list_color(m, lists)
        [(common, found, reached)] = seen
        assert not found
        pairs = [(v, col) for v in range(m.n) for col in sorted(set(lists[v]))]
        t = mask_of(pairs[i][0] for i in iter_bits(reached))
        lhs_of = lhs_function(m, lists)
        assert lhs_of(t) == common.bit_count() < m.n
        assert t == min(range(m.full + 1), key=lhs_of)


def test_matroid_list_color_answers_24_elements_both_ways():
    # one part of six elements holding at most one, eighteen free: past
    # the 2^20 sweep cap, yet six colors color it and two cannot
    part, rest = mask_of(range(6)), mask_of(range(6, 24))
    m = GenPartitionMatroid(24, [part, rest], [1, 18])
    res = matroid_list_color(m, [range(6)] * 24)
    assert isinstance(res, Coloring)
    assert res.respects(m.is_independent)
    # lhs(T) = |T| + 2 (r(part - T) + |rest - T|) is least, 20, at
    # T = rest; the shrink then drops rest's three lowest vertices
    res = matroid_list_color(m, [[0, 1]] * 24)
    assert res == ListColorFailure(t_mask=mask_of(range(9, 24)), lhs=23, required=24)


def test_matroid_list_color_edge_cases():
    assert matroid_list_color(UniformMatroid(0, 0), []) == Coloring(())
    assert matroid_list_color(UniformMatroid(2, 3), [[]] * 3) == ListColorFailure(
        t_mask=0, lhs=0, required=3
    )
    with pytest.raises(ValueError):
        matroid_list_color(UniformMatroid(2, 3), [[0], [0, 1], [1]])


def test_ab_check_validates_before_its_cap():
    big = Complex(7, [range(7)])
    with pytest.raises(ValueError):
        ab_check(big, 2, 1, "bogus")
    with pytest.raises(ValueError):
        ab_check(big, 1, 2, "colorable")
    with pytest.raises(CapExceeded):
        ab_check(big, 2, 1, "colorable")


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
                        assert _b_fold_colorable(_face_table(c), system, b) == (
                            brute_b_fold_colorable(c, system, b)
                        ), (c, system, b)
                        cases += 1
    assert cases == 3038


def test_b_fold_search_matches_the_recursive_oracle():
    # seeded complexes on up to 6 vertices, every system (Hall-bounded
    # and not) up to a budget; the recursive oracle asks is_face at each
    # pick, the face-table search reads the table
    rng = random.Random(54)
    seen = set()
    cases = 0
    for c in _small_complexes(rng, 40, 6):
        face = _face_table(c)
        for b in range(1, 4):
            p = rng.randint(b, b + 1)
            for max_colors in (b * c.n - 1, p * c.n):
                for system in itertools.islice(
                    _canonical_systems(c.n, p, max_colors, 10**6, b > 1), 200
                ):
                    got = _b_fold_colorable(face, system, b)
                    assert got == pick_colorable(c, system, b), (c, system, b)
                    seen.add((b, got))
                    cases += 1
    assert seen == {(b, v) for b in (1, 2, 3) for v in (True, False)}
    assert cases == 15797


def test_face_table_marks_exactly_the_faces():
    rng = random.Random(55)
    complexes = [Complex(0, []), Complex(3, []), Complex(4, [[0, 1, 2, 3]])]
    complexes += _small_complexes(rng, 30, 8)
    for c in complexes:
        face = _face_table(c)
        assert len(face) == 1 << c.n
        assert [bool(f) for f in face] == [c.is_face(s) for s in range(1 << c.n)], c


def test_list_search_reads_the_face_table_only():
    # TripwireComplex raises on is_face: chi_list and ab_check must not ask it
    k33 = Hypergraph(6, [[a, b] for a in (0, 1, 2) for b in (3, 4, 5)])
    c = TripwireComplex(6, independence_complex(k33).maximal_faces)
    ok, witness = chi_list(c, 2)
    assert not ok and witness
    assert chi_list_number(c) == (3, 3)
    assert ab_check(c, 2, 1, "colorable")
    assert not ab_check(c, 2, 1, "choosable")


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
        assert min_cover([(f, 1) for f in c.maximal_faces], [1] * 5)[0] == 3
        assert min_cover([(f, 1) for f in c.maximal_faces], [2, 1, 1, 3, 1])[0] == 4
        assert chi_list_number(cycle4) == (2, 2)
        assert chi_list_number(cycle4, budget=20) == (2, 4)
        assert ab_check(cycle4, 3, 1, "choosable")
        assert gamma_e_graph(Hypergraph(4, [[0, 1], [1, 2], [2, 3]])) == 1
        assert gc.collect() == 0
    finally:
        gc.enable()
