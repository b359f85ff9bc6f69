"""Core structures: masks, hypergraphs, complexes, and their operations."""

import random
from dataclasses import FrozenInstanceError

import pytest

from mtk import constructions
from mtk.core import (
    Complex,
    Hypergraph,
    _undominated,
    complex_of,
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
from mtk.verify import _rand_matroid_once, rand_graph, rand_hypergraph, rand_system
from sweep_oracle import complex_by_sweep, min_nonfaces_by_sweep
from test_extval import KINDS as MATROID_KINDS
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


def _search_agrees_with_the_sweep(n, member, built):
    """built, the complex the search gave, is the sweep's complex, and the
    search asks member only as complex_of promises: never on the empty
    set, never twice, and only on a set whose part below its top element
    is a face."""
    assert built == complex_by_sweep(n, member)
    asked = set()

    def watched(s):
        assert s and s not in asked
        assert built.is_face(s & ~(1 << (s.bit_length() - 1)))
        asked.add(s)
        return member(s)

    assert complex_of(n, watched) == built


def _independent(edges):
    return lambda s: all(e & ~s for e in edges)


def test_complex_of_matches_the_sweep_on_graphs_and_hypergraphs():
    rng = random.Random(27)
    isolated = 0  # hypergraph instances with a vertex in no face
    for _ in range(60):
        n = rng.randint(0, 12)
        g = rand_graph(rng, n, rng.uniform(0.1, 0.7))
        _search_agrees_with_the_sweep(n, _independent(g.edges), independence_complex(g))
    for _ in range(60):
        n = rng.randint(1, 10)
        h = rand_hypergraph(rng, n, 2 * n, 1, 4)
        c = independence_complex(h)
        _search_agrees_with_the_sweep(n, _independent(h.edges), c)
        isolated += c.vertices_mask() != (1 << n) - 1
    assert isolated


def test_complex_of_matches_the_sweep_on_matching_complexes():
    rng = random.Random(28)
    for _ in range(40):
        n = rng.randint(2, 7)
        h = rand_hypergraph(rng, n, 9, 1, 3)
        edges = h.edges

        def matching(s, edges=edges):
            chosen = [edges[i] for i in iter_bits(s)]
            return all(a & b == 0 for i, a in enumerate(chosen) for b in chosen[i + 1:])

        _search_agrees_with_the_sweep(len(edges), matching, matching_complex(h))


@pytest.mark.parametrize("kind", MATROID_KINDS)
def test_complex_of_matches_the_sweep_on_matroids(kind):
    rng = random.Random(MATROID_KINDS.index(kind))
    for _ in range(15):
        m = _rand_matroid_once(rng, rng.randint(1, 9), kind)
        _search_agrees_with_the_sweep(m.n, m.is_independent, m.to_complex())


@pytest.mark.parametrize("k", [2, 3])
def test_complex_of_matches_the_sweep_on_intersection_complexes(k):
    rng = random.Random(30 + k)
    for _ in range(20):
        system = rand_system(rng, rng.randint(1, 8), k, loopless=rng.random() < 0.5)
        ms = system.matroids
        _search_agrees_with_the_sweep(
            system.n,
            lambda s, ms=ms: all(m.is_independent(s) for m in ms),
            system.intersection_complex(),
        )


def test_complex_of_matches_the_sweep_on_the_canned_complexes(monkeypatch):
    built = []

    def recording(n, member):
        built.append((n, member))
        return complex_of(n, member)

    monkeypatch.setattr(constructions, "complex_of", recording)
    cases = [("md_lower", {"n": n}) for n in range(2, 11)]
    cases += [("lambdaPnotQ", {"k": k}) for k in range(2, 5)]
    for name, params in cases:
        c = constructions.canned(name, **params).complex_
        (n, member), = built
        built.clear()
        _search_agrees_with_the_sweep(n, member, c)


def test_complex_of_on_no_vertices_and_on_no_member():
    for n in range(7):
        assert complex_of(n, lambda s: False) == Complex(n) == complex_by_sweep(n, lambda s: False)
    assert complex_of(0, lambda s: True) == Complex(0) == complex_by_sweep(0, lambda s: True)


def test_complex_of_asks_member_only_along_ascending_chains():
    calls = []

    def at_most_one(s):
        calls.append(s)
        return s.bit_count() <= 1

    assert complex_of(20, at_most_one) == Complex(20, [[v] for v in range(20)])
    # the 20 singletons, then each pair once, from its lower vertex; a
    # sweep asks all 2^20 sets
    assert len(calls) == 210 == len(set(calls)) and 0 not in calls

    rng = random.Random(29)
    for member in [lambda s: s.bit_count() <= 1, _independent(rand_graph(rng, 14, 0.3).edges)]:

        def strict(s, member=member):
            below = s & ~(1 << (s.bit_length() - 1))
            if below and not member(below):
                raise AssertionError(f"asked {bin(s)}, whose part below the top is no face")
            return member(s)

        assert complex_of(14, strict) == complex_by_sweep(14, member)


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


def test_min_nonfaces_matches_the_sweep():
    rng = random.Random(29)
    complexes = [constructions.canned("PnotQpartition").complex_, Complex(0), Complex(3)]
    for _ in range(40):
        n = rng.randint(1, 12)
        complexes.append(independence_complex(rand_hypergraph(rng, n, 2 * n, 1, 4)))
    for _ in range(40):
        n = rng.randint(1, 8)
        faces = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
        complexes.append(Complex(n, faces))
    for kind in MATROID_KINDS:
        for _ in range(8):
            complexes.append(_rand_matroid_once(rng, rng.randint(1, 8), kind).to_complex())
    for _ in range(20):
        n = rng.randint(1, 7)
        complexes.append(rand_system(rng, n, rng.randint(2, 3), loopless=False).intersection_complex())
    isolated = 0  # complexes with a vertex in no face: a one-element non-face
    for c in complexes:
        nf = min_nonfaces(c)
        assert nf == min_nonfaces_by_sweep(c)
        isolated += any(e.bit_count() == 1 for e in nf.edges)
    assert isolated >= 5


class CountingComplex(Complex):
    """A complex that counts how often is_face is asked."""

    def is_face(self, s):
        object.__setattr__(self, "asked", getattr(self, "asked", 0) + 1)
        return super().is_face(s)


def test_min_nonfaces_asks_far_fewer_than_every_subset():
    # the search asks only the faces' one-element extensions, and a
    # rejected one's one-element-smaller subsets
    base = constructions.canned("PnotQpartition").complex_
    c = CountingComplex(base.n, base.maximal_faces)
    assert min_nonfaces(c) == min_nonfaces_by_sweep(base)
    assert c.asked < (1 << c.n) // 16
    path = CountingComplex(16, [[v, v + 1] for v in range(15)])
    assert len(min_nonfaces(path).edges) == 16 * 15 // 2 - 15
    assert path.asked < (1 << 16) // 64


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
