"""Core structures: masks, hypergraphs, complexes, and their operations."""

import random
from dataclasses import FrozenInstanceError

import pytest

from mtk.core import (
    Complex,
    Hypergraph,
    _undominated,
    contract,
    independence_complex,
    induced,
    iter_bits,
    line_graph,
    mask_of,
    matching_complex,
    min_nonfaces,
)
from mtk.errors import EmptyEdge
from test_topology import join  # the join oracle behind the eta(A*B) test


def edges_as_sets(h):
    return {frozenset(iter_bits(e)) for e in h.edges}


def test_hypergraph_dedup_and_bounds():
    h = Hypergraph(3, [[0, 1], [1, 0], [2]])
    assert len(h.edges) == 2
    with pytest.raises(ValueError):
        Hypergraph(2, [[0, 5]])


def test_induced_keeps_contained_edges():
    h = Hypergraph(3, [[0, 1], [1, 2]])
    assert mask_of([0, 1]) == 3 and mask_of([3]) == 8
    got, new_to_old = induced(h, mask_of([0, 1]))
    assert edges_as_sets(got) == {frozenset({0, 1})}
    assert new_to_old == [0, 1]


def test_induced_drops_uncontained_edge():
    h = Hypergraph(3, [[0, 1, 2]])
    got, _ = induced(h, mask_of([0, 1]))
    assert got.edges == ()


def test_induced_composition_property():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 7)
        h = Hypergraph(
            n,
            [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 5))],
        )
        u = rng.randrange(1 << n)
        u2 = rng.randrange(1 << n)
        once, m1 = induced(h, u)
        # relabel u2 into the first induced copy's coordinates
        inner = mask_of(
            i for i, old in enumerate(m1) if (u2 >> old) & 1
        )
        twice, _ = induced(once, inner)
        direct, _ = induced(h, u & u2)
        assert edges_as_sets(twice) == edges_as_sets(direct)


def test_contract_examples():
    h = Hypergraph(3, [[0, 1], [1, 2]])
    got, new_to_old = contract(h, mask_of([1]))
    assert edges_as_sets(got) == {frozenset({0}), frozenset({1})}
    assert new_to_old == [0, 2]

    h = Hypergraph(2, [[0, 1]])
    got, _ = contract(h, mask_of([0, 1]))
    assert got.n == 0 and got.edges == ()

    h = Hypergraph(4, [[0, 1, 2], [2, 3]])
    got, _ = contract(h, mask_of([2]))
    assert edges_as_sets(got) == {frozenset({0, 1}), frozenset({2})}


def test_contract_never_emits_empty_edges():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 7)
        h = Hypergraph(
            n,
            [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 6))],
        )
        x = rng.randrange(1 << n)
        got, _ = contract(h, x)
        assert all(e != 0 for e in got.edges)


def test_line_graph_examples():
    h = Hypergraph(3, [[0, 1], [1, 2]])
    lg = line_graph(h)
    assert lg.n == 2 and edges_as_sets(lg) == {frozenset({0, 1})}

    disjoint = Hypergraph(4, [[0, 1], [2, 3]])
    assert line_graph(disjoint).edges == ()

    with pytest.raises(EmptyEdge):
        line_graph(Hypergraph(2, [[], [0]]))


def test_line_graph_matchings_property():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 6)
        edges = {
            frozenset(rng.sample(range(n), rng.randint(1, min(3, n))))
            for _ in range(rng.randint(1, 6))
        }
        h = Hypergraph(n, [list(e) for e in edges])
        mc = matching_complex(h)
        # faces of the matching complex == sets of pairwise disjoint edges
        for s in range(1 << len(h.edges)):
            chosen = [h.edges[i] for i in iter_bits(s)]
            disjoint = all(
                not (a & b)
                for i, a in enumerate(chosen)
                for b in chosen[i + 1:]
            )
            assert mc.is_face(s) == disjoint


def test_complex_basics_and_rank():
    c = Complex(3, [[0, 1], [1, 2]])
    assert c.is_face(mask_of([1]))
    assert not c.is_face(mask_of([0, 2]))
    assert c.rank_of(mask_of([0, 2])) == 1
    assert c.rank() == 2
    # empty complex keeps the empty face
    void = Complex(2, [])
    assert void.maximal_faces == (0,)
    assert void.is_face(0)


def test_complex_keeps_exactly_the_maximal_faces():
    # against the quadratic definition: duplicates, the empty set and n = 0 included
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(0, 6)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 10))]
        masks += rng.sample(masks, min(2, len(masks)))
        maximal = sorted({m for m in masks if not any(m != o and m & ~o == 0 for o in masks)})
        assert Complex(n, masks).maximal_faces == tuple(maximal or [0])


def test_undominated_keeps_the_first_of_equal_items_in_key_order():
    pairs = [(3, "a"), (1, "b"), (3, "c"), (2, "d"), (1, "e")]
    kept = _undominated(pairs, lambda p: p[0], lambda p, k: p[0] == k[0])
    assert kept == [(1, "b"), (2, "d"), (3, "a")]
    assert _undominated([], lambda p: p, lambda p, k: True) == []


def test_min_nonfaces_examples():
    assert min_nonfaces(Complex(3, [[0, 1, 2]])).edges == ()
    c = independence_complex(Hypergraph(2, [[0, 1]]))
    assert edges_as_sets(min_nonfaces(c)) == {frozenset({0, 1})}
    # complete bipartite: A = {0}, B = {1,2,3}
    ab = Complex(4, [[0], [1, 2, 3]])
    assert edges_as_sets(min_nonfaces(ab)) == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 3}),
    }


def test_min_nonfaces_antichain_and_reconstruction():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 6)
        c = Complex(
            n,
            [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))],
        )
        nf = min_nonfaces(c)
        for a in nf.edges:
            for b in nf.edges:
                assert a == b or a & ~b != 0
        for s in range(1 << n):
            covered = any(e & ~s == 0 for e in nf.edges)
            assert c.is_face(s) == (not covered)


def test_join_examples():
    pt = Complex(1, [[0]])
    seg = join(pt, pt)
    assert seg.maximal_faces == (3,)
    s0 = Complex(2, [[0], [1]])
    c4 = join(s0, s0)
    assert len(c4.maximal_faces) == 4
    c = Complex(3, [[0, 1], [2]])
    same = join(c, Complex(0, []))
    assert same.maximal_faces == c.maximal_faces


def test_join_associative_and_count():
    rng = random.Random(5)
    for _ in range(20):
        parts = []
        for _ in range(3):
            n = rng.randint(1, 3)
            parts.append(
                Complex(n, [rng.sample(range(n), rng.randint(1, n)) for _ in range(2)])
            )
        a, b, c = parts
        left = join(join(a, b), c)
        right = join(a, join(b, c))
        assert left == right
        assert len(left.maximal_faces) == (
            len(a.maximal_faces) * len(b.maximal_faces) * len(c.maximal_faces)
        )


def test_faces_enumeration():
    c = Complex(3, [[0, 1], [1, 2]])
    assert c.faces() == [0, 1, 2, 3, 4, 6]


def test_hypergraphs_and_complexes_are_values():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 6)
        sets = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(1, 5))]
        # the same sets, each listed backwards, in another order, one twice
        again = [s[::-1] for s in sets] + [sets[0]]
        rng.shuffle(again)
        for cls in (Hypergraph, Complex):
            a, b = cls(n, sets), cls(n, again)
            assert a == b and hash(a) == hash(b)
            masks = a.edges if cls is Hypergraph else a.maximal_faces
            # set iteration orders, and so the records, rest on this hash
            assert hash(a) == hash((n, masks))
        c = Complex(n, sets)
        h = Hypergraph(n, c.maximal_faces)
        assert c != h and h != c
        for obj, field in ((h, "edges"), (c, "maximal_faces")):
            # a name that is not a field is refused the same way
            for name in ("n", field, "other"):
                with pytest.raises(FrozenInstanceError):
                    setattr(obj, name, 0)
