"""Every 2^n sweep refuses above SWEEP_CAP before doing any work, each
remaining limit refuses one past its value, searches once bounded by a
ground-set size decide past it, and every exported name resolves."""

import random
import tracemalloc

import pytest

import mtk
from mtk import polytopes, verify
from mtk.constructions import canned
from mtk.coloring import (
    MATDIM_MAX_N,
    _face_table,
    chi_list_number,
    delta_rank,
    matdim_exact,
)
from mtk.core import (
    SWEEP_CAP,
    Complex,
    Hypergraph,
    complex_of,
    independence_complex,
    min_nonfaces,
)
from mtk.errors import CapExceeded
from mtk.matroid import (
    Matroid,
    MatroidSystem,
    UniformMatroid,
    check_matroid_axioms,
)
from mtk.polytopes import DD_WORK_CAP, PolytopeRef, nu_star_w, nu_w, psi, vertices
from mtk.topology import HALL_MAX_SETS, expansions, topological_hall_check

N = 21  # the least ground-set size whose 2^n subsets exceed SWEEP_CAP


def test_n_is_the_first_size_past_the_cap():
    assert (1 << (N - 1)) <= SWEEP_CAP < (1 << N)


class TripwireMatroid(Matroid):
    """A matroid whose rank oracle must never be called."""

    kind = "tripwire"

    def _rank(self, s):
        raise AssertionError("rank oracle called past the sweep cap")


class TripwireComplex(Complex):
    """A complex whose membership and rank must never be asked."""

    def is_face(self, s):
        raise AssertionError("is_face called past the sweep cap")

    def rank_of(self, s):
        raise AssertionError("rank_of called past the sweep cap")


class CountingEdges(tuple):
    """Edge tuple that counts how often it is iterated."""

    reads = 0

    def __iter__(self):
        CountingEdges.reads += 1
        return super().__iter__()


def _member(s):
    raise AssertionError("member called past the sweep cap")


def test_complex_of_refuses_past_the_cap():
    with pytest.raises(CapExceeded):
        complex_of(N, _member)
    # one element less is built in full
    assert complex_of(N - 1, lambda s: s == 0) == Complex(N - 1)


def test_independence_complex_refuses_past_the_cap():
    h = Hypergraph(N, [[0, 1]])
    object.__setattr__(h, "edges", CountingEdges(h.edges))
    CountingEdges.reads = 0
    with pytest.raises(CapExceeded):
        independence_complex(h)
    assert CountingEdges.reads <= 1  # only the empty-edge check


def test_min_nonfaces_and_faces_refuse_past_the_cap():
    with pytest.raises(CapExceeded):
        min_nonfaces(TripwireComplex(N, [[0, 1]]))
    with pytest.raises(CapExceeded):
        Complex(N, [range(N)]).faces()


def test_matroid_sweeps_refuse_past_the_cap():
    m = TripwireMatroid(N)
    with pytest.raises(CapExceeded):
        m.to_complex()
    with pytest.raises(CapExceeded):
        m.flats()
    with pytest.raises(CapExceeded):
        delta_rank(m)
    system = MatroidSystem([m, TripwireMatroid(N)])
    with pytest.raises(CapExceeded):
        system.intersection_complex()
    with pytest.raises(CapExceeded):
        nu_w(system, (1,) * N)
    with pytest.raises(CapExceeded):
        psi(PolytopeRef.R(system), (1,) * N)
    with pytest.raises(CapExceeded):
        nu_star_w(system, (1,) * N)


def test_ratio_sweeps_on_a_complex_refuse_past_the_cap():
    c = TripwireComplex(N, [[0, 1]])
    with pytest.raises(CapExceeded):
        psi(PolytopeRef.Q(c), (1,) * N)
    with pytest.raises(CapExceeded):
        expansions(c)


class FacelessComplex(TripwireComplex):
    """A tripwire complex whose faces must never be listed either."""

    def faces(self):
        raise AssertionError("faces listed past the sweep cap")


def test_face_table_refuses_past_the_cap_before_allocating():
    c = FacelessComplex(N, [[0, 1]])
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            _face_table(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # the table alone would take 2^21 bytes


def test_ground_set_limits_refuse_one_past_their_value():
    # basis exchange on the maximal faces sweeps nothing, so any n is decided
    assert check_matroid_axioms(UniformMatroid(2, 13).to_complex())
    assert not check_matroid_axioms(Complex(14, [[0, 1], [2]]))

    assert matdim_exact(UniformMatroid(2, MATDIM_MAX_N).to_complex()) == 1
    with pytest.raises(CapExceeded):
        matdim_exact(Complex(MATDIM_MAX_N + 1, [[0, 1]]))

    # the double description's 2^n box points are checked against its
    # work cap before the rank rows are built
    assert (1 << 17) <= DD_WORK_CAP < (1 << 18)
    with pytest.raises(CapExceeded, match="2\\^18 box points"):
        vertices(PolytopeRef.Q(Complex(18, [range(18)])))

    point = Complex(1, [[0]])
    assert topological_hall_check(point, [1] * HALL_MAX_SETS).hypothesis
    with pytest.raises(CapExceeded):
        topological_hall_check(TripwireComplex(1, [[0]]), [1] * (HALL_MAX_SETS + 1))

    # chi = n - 1 = 8: size 8 is decided in full, and a walk past its node
    # budget still brackets the least choosable size
    line = Complex(9, [[0, 1]] + [[v] for v in range(2, 9)])
    assert chi_list_number(line) == (8, 8)
    assert chi_list_number(line, budget=2000) == (8, 9)


class CountingUniform(UniformMatroid):
    """A uniform matroid that counts the subsets its rank oracle is asked."""

    def __init__(self, r, n):
        super().__init__(r, n)
        self.calls = 0

    def _rank(self, s):
        self.calls += 1
        return super()._rank(s)


def test_dd_box_is_refused_before_any_rank_call():
    m = CountingUniform(3, 18)
    with pytest.raises(CapExceeded, match="2\\^18 box points"):
        vertices(PolytopeRef.R(MatroidSystem([m])))
    assert m.calls == 0
    # a box that fits goes on to the 2^n row sweep
    m = CountingUniform(3, 9)
    assert vertices(PolytopeRef.R(MatroidSystem([m])))
    assert m.calls == 1 << 9


def test_dd_work_counts_the_points_and_pairs_of_each_row(monkeypatch):
    # R of the q = 3 truncated plane: 2^9 box points, then 61,085 kept
    # points and tested pairs over its rows
    r = PolytopeRef.R(canned("truncated_plane", q=3).system)
    monkeypatch.setattr(polytopes, "DD_WORK_CAP", 61_596)
    with pytest.raises(CapExceeded, match="work 61597 exceeds its cap 61596"):
        vertices(r)
    monkeypatch.setattr(polytopes, "DD_WORK_CAP", 61_597)
    assert vertices(r)


def test_list_bounds_skips_only_past_the_sweep_cap_after_drawing(monkeypatch):
    drawn = []
    real_rand_system = verify.rand_system

    def rand_system(rng, n, k, **kw):
        drawn.append(n)
        return real_rand_system(rng, n, k, **kw)

    monkeypatch.setattr(verify, "rand_system", rand_system)
    records = verify.suite_list_bounds(random.Random(8), count=4, max_n=N, budget=2000)
    assert drawn == [9, N, 7, 8]
    skipped = [r for r in records if r.verdict == "skipped(cap)"]
    assert [r.instance for r in skipped] == [f"#1(n={N},k=3,general)"]
    assert skipped[0].witness == {"note": f"2^{N} subsets exceed the sweep cap {SWEEP_CAP}"}
    assert records[-1].lhs == "6"  # both claims on each of the other three decided


def test_every_exported_name_resolves():
    missing = [name for name in mtk.__all__ if not hasattr(mtk, name)]
    assert missing == []
