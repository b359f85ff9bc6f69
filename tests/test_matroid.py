"""Matroid oracles, derived structure, intersection, and matdim."""

import itertools
import random

import pytest

from mtk.core import Complex, iter_bits, mask_of, min_nonfaces
from mtk import verify
from mtk.coloring import _enumerate_matroid_coverages, matdim_exact, matdim_upper
from mtk.errors import CertificateError
from mtk.matroid import (
    DualMatroid,
    ExplicitMatroid,
    GenPartitionMatroid,
    GraphicMatroid,
    MatroidSystem,
    UniformMatroid,
    check_matroid_axioms,
    max_common_independent,
)
from mtk.verify import rand_matroid, rand_system

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def nc_matroid(n: int, u: int) -> GenPartitionMatroid:
    """NC(U) = sets not containing U, as a generalized partition matroid."""
    rest = ((1 << n) - 1) & ~u
    parts, caps = [u], [u.bit_count() - 1]
    if rest:
        parts.append(rest)
        caps.append(rest.bit_count())
    return GenPartitionMatroid(n, parts, caps)


def oracle_equal(m, other) -> bool:
    """Exhaustive rank comparison (small ground sets only)."""
    if m.n != other.n:
        return False
    return all(m.rank(s) == other.rank(s) for s in range(1 << m.n))


def brute_max_common_independent(m1, m2) -> int:
    best = 0
    for s in range(1 << m1.n):
        if s.bit_count() > best and m1.is_independent(s) and m2.is_independent(s):
            best = s.bit_count()
    return best


def min_rank_partition(m1, m2) -> int:
    """min over partitions (X, V - X) of rank1(X) + rank2(V - X)."""
    full = m1.full
    return min(
        m1.rank(x) + m2.rank(full & ~x) for x in range(full + 1)
    )


def test_rank_examples():
    gp = GenPartitionMatroid(3, [[0, 1], [2]], [1, 1])
    assert gp.rank(mask_of([0, 1, 2])) == 2
    u = UniformMatroid(2, 4)
    assert u.rank(mask_of([0, 1, 2])) == 2
    k4 = GraphicMatroid(4, K4_EDGES)
    assert k4.rank(k4.full) == 3


def test_span_examples():
    gp = GenPartitionMatroid(4, [[0, 1], [2, 3]], [0, 1])
    assert gp.span(0) == mask_of([0, 1])  # loops
    nc = nc_matroid(3, mask_of([0, 1]))
    assert nc.span(mask_of([0])) == mask_of([0, 1])
    tri = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    assert tri.span(mask_of([0, 1])) == tri.full


def test_circuits_examples():
    u = UniformMatroid(1, 3)
    assert {frozenset(iter_bits(e)) for e in min_nonfaces(u.to_complex()).edges} == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    }
    nc = nc_matroid(3, mask_of([0, 1]))
    assert [sorted(iter_bits(e)) for e in min_nonfaces(nc.to_complex()).edges] == [[0, 1]]
    k4 = GraphicMatroid(4, K4_EDGES)
    circ = min_nonfaces(k4.to_complex())
    sizes = sorted(e.bit_count() for e in circ.edges)
    assert sizes == [3, 3, 3, 3, 4, 4, 4]


def test_dual_and_contraction():
    assert oracle_equal(DualMatroid(UniformMatroid(2, 5)), UniformMatroid(3, 5))
    rng = random.Random(0)
    for _ in range(10):
        m = rand_matroid(rng, rng.randint(2, 6), loopless=False)
        assert oracle_equal(DualMatroid(DualMatroid(m)), m)
    # rank in M/X is r(S | X) - r(X): contracting two triangle edges
    # leaves the third a loop
    tri = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    x = mask_of([0, 1])
    assert tri.rank(mask_of([2]) | x) - tri.rank(x) == 0


def all_complexes(n: int) -> list[Complex]:
    """Every complex on [0, n), grown in mask order: a mask's subsets
    are smaller masks, so each is decided before the mask itself."""
    families = [[0]]
    for s in range(1, 1 << n):
        families += [
            fam + [s] for fam in families if all(s & ~(1 << v) in fam for v in iter_bits(s))
        ]
    return [Complex(n, fam) for fam in families]


def rand_complex(rng: random.Random, n: int) -> Complex:
    return Complex(
        n, [rng.sample(range(n), rng.randint(1, n - 1)) for _ in range(rng.randint(2, 5))]
    )


def is_pure_everywhere(c: Complex) -> bool:
    """The purity oracle: c is a matroid iff every induced subcomplex
    c[U] has all its maximal faces of size rank(U).  Each maximal-face
    trace on U is grown greedily inside U; it falls short iff c[U] has
    a maximal face smaller than rank(U)."""
    for u in range(1 << c.n):
        target = c.rank_of(u)
        for f in c.maximal_faces:
            t = f & u
            size = t.bit_count()
            grown = True
            while grown and size < target:
                grown = False
                for v in iter_bits(u & ~t):
                    if c.is_face(t | (1 << v)):
                        t |= 1 << v
                        size += 1
                        grown = True
                        break
            if size < target:
                return False
    return True


def test_check_matroid_axioms():
    assert check_matroid_axioms(Complex(3, [[0, 1, 2]]))
    assert not check_matroid_axioms(Complex(4, [[0, 1], [2, 3]]))
    gp = GenPartitionMatroid(4, [[0, 1, 2], [3]], [2, 1])
    assert check_matroid_axioms(gp.to_complex())
    # maximal faces of two sizes can pass no exchange
    assert not check_matroid_axioms(Complex(3, [[0, 1], [2]]))


def test_basis_exchange_matches_the_purity_oracle_on_every_small_complex():
    # labelled matroids on n elements, loops allowed: OEIS A058673
    counts = []
    for n in range(5):
        cases = all_complexes(n)
        verdicts = [check_matroid_axioms(c) for c in cases]
        assert verdicts == [is_pure_everywhere(c) for c in cases]
        counts.append(sum(verdicts))
    assert len(cases) == 167
    assert counts == [1, 2, 5, 16, 68]


def test_basis_exchange_matches_the_purity_oracle_on_seeded_complexes():
    rng = random.Random(21)
    verdicts = []
    for n in range(5, 9):
        cases = [rand_complex(rng, n) for _ in range(12)]
        cases += [rand_matroid(rng, n, loopless=False).to_complex() for _ in range(6)]
        cases += [rand_system(rng, n, 2, loopless=False).intersection_complex() for _ in range(6)]
        for c in cases:
            verdict = check_matroid_axioms(c)
            assert verdict == is_pure_everywhere(c), c
            verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def test_explicit_matroid_validates():
    ExplicitMatroid(UniformMatroid(2, 4).to_complex())
    with pytest.raises(ValueError):
        ExplicitMatroid(Complex(4, [[0, 1], [2, 3]]))


def test_max_common_independent_examples():
    m1 = GenPartitionMatroid(3, [[0, 1], [2]], [1, 1])
    m2 = GenPartitionMatroid(3, [[0], [1, 2]], [1, 1])
    got = max_common_independent(m1, m2)
    assert got.bit_count() == 2
    assert m1.is_independent(got) and m2.is_independent(got)

    u = UniformMatroid(2, 4)
    assert max_common_independent(u, u).bit_count() == 2

    # perfect matching in bipartite C6 as two partition matroids on edges
    edges = [(0, 3), (1, 4), (2, 5), (0, 4), (1, 5), (2, 3)]
    left = GenPartitionMatroid(
        6, [mask_of(i for i, e in enumerate(edges) if e[0] == v) for v in range(3)], [1, 1, 1]
    )
    right = GenPartitionMatroid(
        6, [mask_of(i for i, e in enumerate(edges) if e[1] == v + 3) for v in range(3)], [1, 1, 1]
    )
    assert max_common_independent(left, right).bit_count() == 3


def test_max_common_independent_random_vs_brute():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 7)
        m1 = rand_matroid(rng, n, loopless=False)
        m2 = rand_matroid(rng, n, loopless=False)
        got = max_common_independent(m1, m2)
        assert m1.is_independent(got) and m2.is_independent(got)
        best = brute_max_common_independent(m1, m2)
        assert got.bit_count() == best
        assert best == min_rank_partition(m1, m2)


def test_rank_monotone_submodular_and_span_closure():
    rng = random.Random(12)
    for _ in range(12):
        n = rng.randint(2, 6)
        m = rand_matroid(rng, n, loopless=False)
        full = 1 << n
        for s in range(full):
            rs = m.rank(s)
            assert m.is_independent(s) == (rs == s.bit_count())
            sp = m.span(s)
            assert sp & s == s
            assert m.span(sp) == sp
            assert m.rank(sp) == rs
            for v in range(n):
                b = 1 << v
                if s & b:
                    continue
                # monotonicity + unit increase
                assert rs <= m.rank(s | b) <= rs + 1
        # submodularity on random pairs
        for _ in range(40):
            a = rng.randrange(full)
            b = rng.randrange(full)
            assert m.rank(a) + m.rank(b) >= m.rank(a | b) + m.rank(a & b)


def test_span_circuit_observation():
    # span(T u C) == span(T u C - v) for any circuit C and v in C
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 6)
        m = rand_matroid(rng, n, loopless=False)
        for c in min_nonfaces(m.to_complex()).edges[:6]:
            for v in iter_bits(c):
                for _ in range(6):
                    t = rng.randrange(1 << n)
                    assert m.span(t | c) == m.span(t | (c & ~(1 << v)))


def test_circuit_complex_identity():
    rng = random.Random(14)
    for _ in range(12):
        n = rng.randint(2, 6)
        m = rand_matroid(rng, n, loopless=False)
        from mtk.core import independence_complex

        rebuilt = independence_complex(min_nonfaces(m.to_complex()))
        assert rebuilt == m.to_complex()


def test_flag_complex_is_intersection_of_nc_matroids():
    # 2-determined iff equal to the intersection of NC(e) over pair nonfaces
    rng = random.Random(15)
    tested = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        c = Complex(
            n,
            [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))],
        )
        nf = min_nonfaces(c)
        if not nf.edges or any(e.bit_count() != 2 for e in nf.edges):
            continue
        tested += 1
        system = MatroidSystem([nc_matroid(n, e) for e in nf.edges])
        assert system.intersection_complex() == c
    assert tested >= 5


def test_matdim_examples():
    ab = Complex(4, [[0], [1, 2, 3]])
    assert matdim_exact(ab) == 3
    upper, wits = matdim_upper(ab)
    assert upper == 3
    assert MatroidSystem(wits).intersection_complex() == ab

    md = Complex(
        4, [s for s in range(16) if s.bit_count() <= 2 or not (s >> 3) & 1]
    )
    assert matdim_exact(md) == 3
    assert matdim_upper(md)[0] >= 3

    assert matdim_exact(UniformMatroid(2, 3).to_complex()) == 1
    # a full simplex has no non-faces and passes the axiom check
    for n in range(7):
        assert matdim_exact(Complex(n, [range(n)])) == 1


def all_ranks_coverages(c: Complex, nonfaces: list[int]) -> list[int]:
    """The enumerator oracle: coverage masks of every basis family, of
    every rank from rank(c) to n, that puts each maximal face of c in a
    basis, with its own exchange test."""
    n = c.n
    coverages = set()
    for r in range(c.rank(), n + 1):
        rsets = [mask_of(combo) for combo in itertools.combinations(range(n), r)]
        idx = {m: i for i, m in enumerate(rsets)}
        for fam_bits in range(1, 1 << len(rsets)):
            fam = [rsets[i] for i in iter_bits(fam_bits)]
            if not all(any(f & ~b == 0 for b in fam) for f in c.maximal_faces):
                continue
            if not all(
                any((fam_bits >> idx[(b1 & ~(1 << x)) | (1 << y)]) & 1 for y in iter_bits(b2 & ~b1))
                for b1 in fam
                for b2 in fam
                for x in iter_bits(b1 & ~b2)
            ):
                continue
            cov = 0
            for j, nf in enumerate(nonfaces):
                if not any(nf & ~b == 0 for b in fam):
                    cov |= 1 << j
            coverages.add(cov)
    return sorted(coverages)


def test_rank_c_coverages_span_the_all_ranks_coverage_complex():
    rng = random.Random(5)
    cases = [c for n in range(5) for c in all_complexes(n)]
    cases += [rand_complex(rng, 5) for _ in range(40)]
    for c in cases:
        nonfaces = list(min_nonfaces(c).edges)
        new = _enumerate_matroid_coverages(c, nonfaces)
        old = all_ranks_coverages(c, nonfaces)
        assert Complex(len(nonfaces), new) == Complex(len(nonfaces), old), c


def test_suite_matdim_refuses_witnesses_that_miss_the_complex(monkeypatch):
    # the free matroid is no intersection witness: the record would
    # still print `upper >= exact`, so the suite must refuse instead
    def free_witness(c):
        upper, _ = matdim_upper(c)
        return upper, [UniformMatroid(c.n, c.n)]

    monkeypatch.setattr(verify, "matdim_upper", free_witness)
    with pytest.raises(CertificateError, match="intersection is not the complex"):
        verify.suite_matdim()


def test_matdim_upper_witnesses_always_intersect_to_c():
    rng = random.Random(16)
    for _ in range(25):
        n = rng.randint(2, 5)
        c = Complex(
            n,
            [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))],
        )
        upper, wits = matdim_upper(c)
        assert MatroidSystem(wits).intersection_complex() == c
        if c.n <= 5:
            assert upper >= matdim_exact(c)
