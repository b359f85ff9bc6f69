"""Every 2^n sweep refuses above SWEEP_CAP before doing any work, each
ground-set limit refuses one element past its value, and every exported
name resolves."""

import random
import re

import pytest

import mtk
from mtk import coloring, verify
from mtk.coloring import (
    LIST_MAX_N,
    MATDIM_MAX_N,
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
    AXIOMS_MAX_N,
    Matroid,
    MatroidSystem,
    UniformMatroid,
    check_matroid_axioms,
)
from mtk.polytopes import VERTICES_MAX_N, PolytopeRef, nu_star_w, nu_w, psi, vertices
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


def test_ground_set_limits_refuse_one_past_their_value():
    at = UniformMatroid(2, AXIOMS_MAX_N).to_complex()
    assert check_matroid_axioms(at)
    with pytest.raises(CapExceeded):
        check_matroid_axioms(Complex(AXIOMS_MAX_N + 1, [[0, 1]]))

    assert matdim_exact(UniformMatroid(2, MATDIM_MAX_N).to_complex()) == 1
    with pytest.raises(CapExceeded):
        matdim_exact(Complex(MATDIM_MAX_N + 1, [[0, 1]]))

    box = Complex(VERTICES_MAX_N, [range(VERTICES_MAX_N)])
    assert len(vertices(PolytopeRef.Q(box))) == 1 << VERTICES_MAX_N
    with pytest.raises(CapExceeded):
        vertices(PolytopeRef.Q(Complex(VERTICES_MAX_N + 1, [[0, 1]])))
    system = MatroidSystem([UniformMatroid(1, VERTICES_MAX_N + 1)])
    with pytest.raises(CapExceeded):
        vertices(PolytopeRef.R(system))

    point = Complex(1, [[0]])
    assert topological_hall_check(point, [1] * HALL_MAX_SETS).hypothesis
    with pytest.raises(CapExceeded):
        topological_hall_check(TripwireComplex(1, [[0]]), [1] * (HALL_MAX_SETS + 1))

    # chi = n - 1 is decided exactly at n = LIST_MAX_N; past it no size
    # below n can be searched at all
    line = [[0, 1]] + [[v] for v in range(2, LIST_MAX_N + 1)]
    assert chi_list_number(Complex(LIST_MAX_N, line[:-1])) == (LIST_MAX_N - 1, LIST_MAX_N - 1)
    with pytest.raises(CapExceeded):
        chi_list_number(Complex(LIST_MAX_N + 1, line))


def test_list_bounds_skips_an_instance_past_the_list_cap_before_any_search(monkeypatch):
    real_chi = coloring.chi

    def chi(c, *args):
        assert c.n <= LIST_MAX_N, "searched an instance past LIST_MAX_N"
        return real_chi(c, *args)

    monkeypatch.setattr(coloring, "chi", chi)
    records = verify.suite_list_bounds(random.Random(3), count=10, max_n=10, budget=2000)
    sizes = [re.search(r"n=(\d+)", r.instance) for r in records]
    past = [r for r, n in zip(records, sizes) if n and int(n[1]) > LIST_MAX_N]
    assert past and all(r.verdict == "skipped(cap)" for r in past)
    assert len({r.instance for r in past}) == len(past)


def test_every_exported_name_resolves():
    missing = [name for name in mtk.__all__ if not hasattr(mtk, name)]
    assert missing == []
