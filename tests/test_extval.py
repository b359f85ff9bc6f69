"""EPS, INF and the one ratio sweep, against a brute-force oracle, and
the one weight-vector check."""

import math
import random
from fractions import Fraction

import pytest

from mtk import polytopes
from mtk.core import Complex, Hypergraph, iter_bits
from mtk.coloring import chi_star, delta_rank
from mtk.errors import DomainError
from mtk.extval import EPS, INF, XRat, check_weights, max_ratio
from mtk.matroid import MatroidSystem, UniformMatroid
from mtk.polytopes import PolytopeRef, psi, ratio
from mtk.topology import expansions
from mtk.verify import _rand_matroid_once, rand_system, rand_weights

KINDS = ["uniform", "partition", "gen_partition", "graphic", "dual"]


def brute_max_ratio(den, universe, h=None) -> str:
    """str of max over non-empty S within universe of h(S)/den(S), case
    by case: "inf" for some h(S) > 0 = den(S), "0+" when every positive
    h(S) meets den(S) = INF."""
    best, eps = Fraction(0), False
    for s in range(1, universe + 1):
        if s & ~universe:
            continue
        if h is None:
            num = Fraction(s.bit_count())
        else:
            num = sum((Fraction(h[v]) for v in iter_bits(s)), Fraction(0))
        if num == 0:
            continue
        d = den(s)
        if d is INF:
            eps = True
        elif d == 0:
            return "inf"
        else:
            best = max(best, num / d)
    if best == 0 and eps:
        return "0+"
    return str(best)


def _cases(rng, n):
    """(h, universe) pairs: all-ones, Fraction and int weights, zero
    weights, and a proper sub-universe."""
    full = (1 << n) - 1
    sub = rng.randrange(1, full + 1) if n > 1 else full
    weights = list(rand_weights(rng, n))
    ints = [rng.randint(0, 3) for _ in range(n)]
    return [
        (None, full),
        (weights, full),
        (ints, full),
        ([0] * n, full),
        (None, sub),
        (weights, sub),
    ]


def test_xrat_keeps_the_equality_contract():
    assert INF != "inf" and INF == INF
    with pytest.raises(TypeError):
        EPS < "inf"
    assert 0 < EPS < Fraction(1, 10**9) < INF
    assert str(INF) == "inf" and math.ceil(INF) is INF


def _is_exact(x) -> bool:
    return type(x) in (int, Fraction) or x is EPS or x is INF


def test_every_ratio_is_a_plain_rational_eps_or_inf():
    # finite values are never wrapped: type-exact int or Fraction, and
    # the only other values are the two XRat objects
    assert math.ceil(EPS) == 1 and type(math.ceil(EPS)) is int
    assert math.ceil(INF) is INF
    rng = random.Random(14)
    kinds = set()
    for t in range(40):
        n = rng.randint(1, 6)
        system = rand_system(rng, n, rng.randint(1, 2), loopless=t % 2 == 0)
        c = system.intersection_complex()
        h = rand_weights(rng, n)
        values = [
            max_ratio(c.rank_of, (1 << n) - 1),
            max_ratio(c.rank_of, (1 << n) - 1, list(h)),
            *(delta_rank(m) for m in system),
            *(delta_rank(m, list(h)) for m in system),
            *vars(expansions(c)).values(),
            *vars(expansions(c, tuple(h))).values(),
        ]
        refs = [PolytopeRef.P(c), PolytopeRef.Q(c), PolytopeRef.R(system)]
        values += [psi(z, x) for z in refs for x in (h, (0,) * n)]
        values += [ratio(refs[2], refs[0]), ratio(refs[2], refs[1])]
        for v in values:
            assert _is_exact(v), (t, v, type(v))
            kinds.add(v if isinstance(v, XRat) else "finite")
    assert kinds == {"finite", EPS, INF}


@pytest.mark.parametrize("kind", KINDS)
def test_max_ratio_matches_brute_force_on_matroids(kind):
    rng = random.Random(KINDS.index(kind))
    for n in range(1, 9):
        for _ in range(3):
            m = _rand_matroid_once(rng, n, kind)
            for h, universe in _cases(rng, n):
                got = max_ratio(m.rank, universe, h)
                assert str(got) == brute_max_ratio(m.rank, universe, h), (m.kind, h)


def test_max_ratio_on_complexes_with_loops_is_inf():
    rng = random.Random(3)
    seen_inf = 0
    for _ in range(40):
        n = rng.randint(2, 7)
        loop = rng.randrange(n)
        others = [v for v in range(n) if v != loop]
        faces = [rng.sample(others, rng.randint(1, len(others))) for _ in range(3)]
        c = Complex(n, faces)
        for h, universe in _cases(rng, n):
            got = max_ratio(c.rank_of, universe, h)
            want = brute_max_ratio(c.rank_of, universe, h)
            assert str(got) == want
            seen_inf += want == "inf"
    assert seen_inf > 0


def test_max_ratio_with_infinite_denominators():
    rng = random.Random(4)
    for n in range(1, 7):
        m = _rand_matroid_once(rng, n, "uniform")

        def all_inf(s):
            return INF

        def small_inf(s):
            return INF if s.bit_count() <= 2 else m.rank(s)

        for den in (all_inf, small_inf):
            for h, universe in _cases(rng, n):
                got = max_ratio(den, universe, h)
                assert str(got) == brute_max_ratio(den, universe, h)
        assert max_ratio(all_inf, (1 << n) - 1) == EPS
        assert max_ratio(all_inf, (1 << n) - 1, [0] * n) == 0


def test_max_ratio_skips_den_where_h_vanishes():
    calls = []

    def den(s):
        calls.append(s)
        return 1

    assert max_ratio(den, 0b111, [0, Fraction(1, 2), 0]) == Fraction(1, 2)
    assert all(s & 0b010 for s in calls)


def test_check_weights_returns_fractions_and_names_the_fault():
    h = check_weights([1, Fraction(1, 2), 0], 3)
    assert h == (1, Fraction(1, 2), 0)
    assert all(type(x) is Fraction for x in h)
    for bad, message in [
        ((1, 1), "3 entries needed, 2 given"),
        ((1, "1/2", 0), "entry 1 is '1/2'"),
        ((True, 1, 0), "entry 0 is True"),
        ((1, 0, Fraction(-1, 3)), "non-negative: entry 2 is -1/3"),
    ]:
        with pytest.raises(DomainError, match=message):
            check_weights(bad, 3)


# Every public function that takes a weight vector or a point, on a
# ground set of 3 elements or a hypergraph with 3 edges.
_SYSTEM = MatroidSystem([UniformMatroid(2, 3), UniformMatroid(1, 3)])
_C = _SYSTEM.intersection_complex()
_TRIANGLE = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])
WEIGHTED_ENTRY_POINTS = {
    "chi_star": lambda h: chi_star(_C, h),
    "delta_rank": lambda h: delta_rank(_SYSTEM.matroids[0], h),
    "expansions": lambda h: expansions(_C, h),
    "psi": lambda h: psi(PolytopeRef.P(_C), h),
    "nu_star_w": lambda h: polytopes.nu_star_w(_SYSTEM, h),
    "tau_star_w": lambda h: polytopes.tau_star_w(_SYSTEM, h),
    "nu_w": lambda h: polytopes.nu_w(_SYSTEM, h),
    "tau_w": lambda h: polytopes.tau_w(_SYSTEM, h),
    "matroidal_numbers": lambda h: polytopes.matroidal_numbers(_SYSTEM, h),
    "hyper_nu_star_w": lambda h: polytopes.hyper_nu_star_w(_TRIANGLE, h),
    "hyper_nu_w": lambda h: polytopes.hyper_nu_w(_TRIANGLE, h),
    "hyper_tau_w": lambda h: polytopes.hyper_tau_w(_TRIANGLE, h),
    "hyper_numbers": lambda h: polytopes.hyper_numbers(_TRIANGLE, h),
}


@pytest.mark.parametrize(
    "h",
    [(1, 1, 1, 1), (1, 1), (1, -1, 1), (1, 0.5, 1)],
    ids=["one too many", "one too few", "negative", "float"],
)
@pytest.mark.parametrize("name", list(WEIGHTED_ENTRY_POINTS))
def test_every_weighted_entry_point_refuses_a_bad_vector(name, h):
    with pytest.raises(DomainError):
        WEIGHTED_ENTRY_POINTS[name](h)
