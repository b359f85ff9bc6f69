"""Plane generators, the associated-system correspondence, canned data."""

import itertools

import pytest

from mtk.core import Hypergraph, bit_count, matching_complex
from mtk.constructions import (
    _normalized_points,
    assoc_matroids,
    canned,
    projective_plane,
    q_k,
    truncated_projective_plane,
)
from mtk.errors import Unsupported
from mtk.matroid import GenPartitionMatroid
from mtk.polytopes import hyper_numbers


def degree(h, v):
    return sum(1 for e in h.edges if (e >> v) & 1)


def parts_hypergraph(system):
    """K(L): one vertex per part of each partition matroid; element v
    becomes the edge of the parts containing v."""
    parts = [p for m in system for p in m.parts]
    return Hypergraph(
        len(parts),
        [[i for i, p in enumerate(parts) if (p >> v) & 1] for v in range(system.n)],
    )


def test_fano_plane():
    fano = projective_plane(2)
    assert fano.n == 7 and len(fano.edges) == 7
    assert fano.is_uniform(3)
    for a, b in itertools.combinations(fano.edges, 2):
        assert bit_count(a & b) == 1
    # two points determine a unique line
    for u, v in itertools.combinations(range(7), 2):
        lines = [e for e in fano.edges if (e >> u) & 1 and (e >> v) & 1]
        assert len(lines) == 1


def test_pg3_incidence():
    pg = projective_plane(3)
    assert pg.n == 13 and len(pg.edges) == 13
    assert pg.is_uniform(4)
    for a, b in itertools.combinations(pg.edges, 2):
        assert bit_count(a & b) == 1


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_plane_points_are_the_sorted_normalized_representatives(q):
    # each non-zero vector of F_q^3 scaled to first non-zero coordinate 1
    want = set()
    for v in itertools.product(range(q), repeat=3):
        if any(v):
            s = pow(next(x for x in v if x), -1, q)
            want.add(tuple(s * x % q for x in v))
    assert _normalized_points(q) == sorted(want)


def test_plane_requires_prime():
    with pytest.raises(Unsupported):
        projective_plane(4)
    with pytest.raises(Unsupported):
        q_k(6)


def test_truncated_plane_t3():
    t3, parts = truncated_projective_plane(2)
    assert t3.n == 6 and len(t3.edges) == 4
    assert t3.is_uniform(3)
    assert len(parts) == 3 and all(bit_count(p) == 2 for p in parts)
    assert all(degree(t3, v) == 2 for v in range(6))
    nums = hyper_numbers(t3)
    assert nums.nu == 1 and nums.nu_star == 2 and nums.tau == 2


def test_q_k_structure():
    q2, parts2 = q_k(2)
    assert q2.n == 4 and len(q2.edges) == 4
    assert q2.is_uniform(2)
    # Q_2 is the 4-cycle: connected, 2-regular
    assert all(degree(q2, v) == 2 for v in range(4))

    q3, parts3 = q_k(3)
    assert q3.n == 9 and len(q3.edges) == 9
    assert q3.is_uniform(3)
    assert all(degree(q3, v) == 3 for v in range(9))
    assert len(parts3) == 3 and all(bit_count(p) == 3 for p in parts3)
    # parallel classes of the affine plane are pairwise cross-intersecting:
    # edges meeting a common side vertex aside, any two edges from
    # different classes of Q_k share a vertex iff they come from
    # different parallel classes of the affine plane
    mc = matching_complex(q3)
    classes = [f for f in mc.maximal_faces if bit_count(f) == 3]
    assert len(classes) == 3  # exactly the parallel classes survive


def test_t3_induced_and_line_graph():
    from mtk.core import induced, line_graph

    t3, parts = truncated_projective_plane(2)
    # induced on one side's two vertices: no line survives
    sub, _ = induced(t3, parts[0])
    assert sub.edges == ()
    # any two lines of T_3 meet, so the line graph is K_4
    lg = line_graph(t3)
    assert lg.n == 4 and len(lg.edges) == 6


def test_t3_matching_complex_values():
    from mtk.coloring import chi, chi_star
    from mtk.polytopes import PolytopeRef, psi

    t3, parts = truncated_projective_plane(2)
    mc = matching_complex(t3)
    assert chi(mc) == 4
    assert chi_star(mc, [1, 1, 1, 1]) == 4
    assert psi(PolytopeRef.P(mc), (1, 1, 1, 1)) == 4
    system = assoc_matroids(t3, parts)
    # uniform 1/2 point scales into R at t = 2
    assert psi(PolytopeRef.R(system), (1, 1, 1, 1)) == 2
    from fractions import Fraction

    half = (Fraction(1, 2),) * 4
    from mtk.polytopes import vertices

    assert any(tuple(v) == half for v in vertices(PolytopeRef.R(system)))


def test_assoc_matroids_and_round_trip():
    t3, parts = truncated_projective_plane(2)
    system = assoc_matroids(t3, parts)
    assert system.k == 3 and system.n == 4
    for m in system:
        assert isinstance(m, GenPartitionMatroid) and set(m.caps) == {1}
        assert len(m.parts) == 2 and all(bit_count(p) == 2 for p in m.parts)
    # intersection of L(H) is the matching complex of H
    assert system.intersection_complex() == matching_complex(t3)

    back = parts_hypergraph(system)
    assert back.n == t3.n and len(back.edges) == len(t3.edges)
    # identical up to relabeling: degree multisets and pairwise meets agree
    assert sorted(bit_count(e) for e in back.edges) == sorted(
        bit_count(e) for e in t3.edges
    )

    q3, parts3 = q_k(3)
    system3 = assoc_matroids(q3, parts3)
    back3 = parts_hypergraph(system3)
    assert back3.n == q3.n and len(back3.edges) == len(q3.edges)
    meets = lambda h: sorted(
        bit_count(a & b) for a, b in itertools.combinations(h.edges, 2)
    )
    assert meets(back3) == meets(q3)


def test_single_edge_association():
    h = Hypergraph(2, [[0, 1]])
    system = assoc_matroids(h, (0b01, 0b10))
    mc = system.intersection_complex()
    assert mc.maximal_faces == (1,)  # the single edge is the only matching


def test_canned_instances():
    inst = canned("ab", m=3)
    assert inst.complex_.n == 4

    inst = canned("md_lower", n=4)
    assert inst.complex_.n == 4

    inst = canned("lambdaPnotQ", k=4)
    assert inst.complex_.n == 9

    inst = canned("PnotQpartition")
    assert inst.complex_.n == 15
    from fractions import Fraction

    assert sum(inst.weights["w"]) == Fraction(5, 2)
    assert len(inst.complex_.maximal_faces) == 20

    with pytest.raises(Unsupported):
        canned("nosuch")
