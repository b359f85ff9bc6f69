"""Domination bounds and the delete/contract game."""

import itertools
import random

import pytest

from mtk.core import Hypergraph, independence_complex, iter_bits, mask_of
from mtk.errors import CertificateError
from mtk.extval import INF
from mtk import meshulam
from mtk.matroid import MatroidSystem
from mtk.meshulam import (
    FrugalSequence,
    delete_contract_certificate,
    gamma_e_graph,
    gamma_e_hyper,
    is_dominating,
)
from mtk.topology import eta_h
from mtk.coloring import delta_rank
from mtk.verify import rand_graph, rand_matroid


def test_gamma_e_graph_examples():
    c4 = Hypergraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    assert gamma_e_graph(c4) == 1
    assert gamma_e_graph(Hypergraph(3, [])) == INF
    assert gamma_e_graph(Hypergraph(2, [[0, 1]])) == 1
    # path on 4 vertices needs the middle edge
    p4 = Hypergraph(4, [[0, 1], [1, 2], [2, 3]])
    assert gamma_e_graph(p4) == 1


def _brute_gamma_e_graph(g):
    """The least number of edges whose union dominates V(G): edge sets
    by size, smallest first; inf when even all edges leave a vertex
    without a neighbor."""
    full = (1 << g.n) - 1
    nbr = [0] * g.n
    for e in g.edges:
        for v in iter_bits(e):
            nbr[v] |= e & ~(1 << v)
    if any(x == 0 for x in nbr):
        return INF
    for r in range(len(g.edges) + 1):
        for sub in itertools.combinations(g.edges, r):
            dominated = 0
            for e in sub:
                for v in iter_bits(e):
                    dominated |= nbr[v]
            if dominated == full:
                return r


def test_gamma_e_graph_matches_brute_force():
    rng = random.Random(19)
    values = set()
    for _ in range(200):
        g = rand_graph(rng, rng.randint(1, 7), rng.uniform(0.15, 0.7))
        want = _brute_gamma_e_graph(g)
        assert gamma_e_graph(g) == want, g.edges
        values.add(want)
    assert INF in values and len(values) >= 3


def test_gamma_e_hyper_examples():
    assert gamma_e_hyper(Hypergraph(2, [[0, 1]])) == 1
    tri = Hypergraph(3, [[0, 1, 2]])
    assert gamma_e_hyper(tri) == 2
    assert eta_h(independence_complex(tri)) == 2
    assert gamma_e_hyper(Hypergraph(3, [[0, 1]])) == INF  # vertex 2 stranded


def _brute_gamma_e_hyper(h):
    """min |union K| - |K| over every ordered sequence K of distinct
    edges in which each edge adds at least two new vertices and whose
    union dominates; inf when no such sequence exists."""
    best = INF
    for r in range(len(h.edges) + 1):
        for seq in itertools.permutations(h.edges, r):
            union = 0
            for e in seq:
                if (e & ~union).bit_count() < 2:
                    break
                union |= e
            else:
                if is_dominating(h, union):
                    best = min(best, union.bit_count() - r)
    return best


def test_gamma_e_hyper_matches_brute_force():
    rng = random.Random(23)
    values = set()
    for _ in range(300):
        n = rng.randint(2, 7)
        edges = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(2, 6))]
        h = Hypergraph(n, edges)
        want = _brute_gamma_e_hyper(h)
        assert gamma_e_hyper(h) == want, h.edges
        values.add(want)
    assert INF in values and len(values) >= 4


def test_frugal_sequence_invariants():
    seq = FrugalSequence(edges=(mask_of([0, 1]), mask_of([1, 2, 3])), value=2)
    assert seq.union() == mask_of([0, 1, 2, 3])
    with pytest.raises(ValueError):
        # second edge contributes only one new vertex: not frugal
        FrugalSequence(edges=(mask_of([0, 1]), mask_of([1, 2])), value=2)
    with pytest.raises(ValueError):
        FrugalSequence(edges=(mask_of([0, 1]),), value=5)


def test_delete_contract_examples():
    b, seq = delete_contract_certificate(Hypergraph(2, [[0, 1]]))
    assert b == 1 and seq.edges == (3,)
    # circuit hypergraph of the rank-2 uniform matroid on 3 elements: the
    # triple is the only circuit, and I(CIRC(M)) = M has eta = rank = 2
    circuits = Hypergraph(3, [[0, 1, 2]])
    b, seq = delete_contract_certificate(circuits)
    assert b >= 1
    assert eta_h(independence_complex(circuits)) == 2
    # the three pairs are the circuits of the rank-1 uniform matroid
    pairs = Hypergraph(3, [[0, 1], [0, 2], [1, 2]])
    b2, _ = delete_contract_certificate(pairs)
    assert b2 >= 1
    assert eta_h(independence_complex(pairs)) == 1
    b, seq = delete_contract_certificate(Hypergraph(3, []))
    assert b == INF and seq is None


def test_delete_contract_refuses_a_sequence_that_does_not_dominate(monkeypatch):
    # the sequence is the one edge {0, 1}; a union that leaves it out
    # strands both vertices
    monkeypatch.setattr(FrugalSequence, "union", lambda self: 0)
    with pytest.raises(CertificateError, match="does not dominate"):
        delete_contract_certificate(Hypergraph(2, [[0, 1]]))


def test_offers_are_the_minimal_edges_in_input_order():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 6)
        curs = list({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 8))})
        rng.shuffle(curs)
        edges = tuple((cur, rng.randrange(1 << 8)) for cur in curs)
        minimal = [e for e in edges if not any(o != e[0] and o & ~e[0] == 0 for o, _ in edges)]
        assert meshulam._offers(edges, True) == minimal
        assert meshulam._offers(edges, False) == minimal[:1]


def test_greedy_game_offers_the_first_minimal_edge():
    # 13 edges, above GAME_EXHAUSTIVE_EDGES: the game is greedy.  Offering
    # the minimal edges smallest first instead would give the bound 2.
    h = Hypergraph(8, [
        [1, 3], [0, 1, 3], [1, 2, 3, 4], [3, 5], [2, 3, 5], [1, 4, 5], [0, 4, 6],
        [0, 3, 4, 6], [1, 3, 5, 6], [2, 3, 5, 6], [2, 7], [3, 7], [4, 7],
    ])
    assert len(h.edges) > meshulam.GAME_EXHAUSTIVE_EDGES
    bound, seq = delete_contract_certificate(h)
    assert bound == 3
    assert [sorted(iter_bits(e)) for e in seq.edges] == [[1, 4, 5], [1, 3, 5, 6]]


def test_delete_contract_sandwich():
    # gamma_e <= game bound <= eta_h(I(H)); the game sequence is frugal
    # and dominating.  (The bound can exceed gamma_e: the game cannot
    # always steer to the cheapest sequence.)
    rng = random.Random(32)
    for _ in range(80):
        n = rng.randint(2, 6)
        edges = {
            frozenset(rng.sample(range(n), rng.randint(1, min(4, n))))
            for _ in range(rng.randint(1, 6))
        }
        h = Hypergraph(n, [list(e) for e in edges])
        bound, seq = delete_contract_certificate(h)
        gamma = gamma_e_hyper(h)
        eta = eta_h(independence_complex(h))
        if bound == INF:
            assert eta == INF
        else:
            assert eta == INF or eta >= bound
            assert gamma != INF and gamma <= bound
            if seq is not None:
                assert seq.value == bound
                assert is_dominating(h, seq.union())


def test_greedy_strategy_still_valid(monkeypatch):
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(3, 6)
        edges = {
            frozenset(rng.sample(range(n), rng.randint(2, min(3, n))))
            for _ in range(rng.randint(1, 5))
        }
        h = Hypergraph(n, [list(e) for e in edges])
        b_full, _ = delete_contract_certificate(h)
        # At most 5 edges: the default is exhaustive, and a cap of 0 forces greedy.
        with monkeypatch.context() as m:
            m.setattr(meshulam, "GAME_EXHAUSTIVE_EDGES", 0)
            b_greedy, _ = delete_contract_certificate(h)
        eta = eta_h(independence_complex(h))
        assert b_greedy == INF or eta == INF or eta >= b_greedy
        if b_full != INF and b_greedy != INF:
            assert b_greedy <= b_full


def test_two_k_minus_one_end_to_end():
    # |V| / eta_h(cap L) <= (2k-1) max delta_r(M_i) via H = union of circuits
    rng = random.Random(34)
    for _ in range(12):
        n = rng.randint(2, 6)
        k = rng.randint(1, 3)
        ms = [rand_matroid(rng, n, loopless=True) for _ in range(k)]
        system = MatroidSystem(ms)
        c = system.intersection_complex()
        eta = eta_h(c)
        if eta == INF:
            continue
        lhs = n
        bound = (2 * k - 1) * max(delta_rank(m) for m in ms)
        assert lhs <= bound * eta
