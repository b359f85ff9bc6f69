"""Domination lower bounds for the connectivity of independence complexes.

gamma_e_graph is the least number of edges whose union dominates every
vertex, a cover of the vertex set found by coloring.min_cover;
gamma_e_hyper minimizes |union K| - |K| over edge sequences
that are frugal (every step contributes at least two new vertices) and
dominating (every leftover vertex is the sole remainder of some edge).
Both quantities bound eta_h of the independence complex from below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import min_cover
from .core import Hypergraph, _undominated, iter_bits
from .errors import CapExceeded, CertificateError, Uncolorable
from .extval import INF

GAME_EXHAUSTIVE_EDGES = 12
SEQUENCE_EDGE_CAP = 16


@dataclass(frozen=True)
class FrugalSequence:
    """An ordered frugal edge sequence with its domination value."""

    edges: tuple[int, ...]
    value: int

    def __post_init__(self):
        if _frugal_value(self.edges) != self.value:
            raise ValueError("value does not match the edge sequence")

    def union(self) -> int:
        out = 0
        for e in self.edges:
            out |= e
        return out


def _frugal_value(edges) -> int:
    """|union| - |edges| of a frugal edge sequence; ValueError when some
    edge adds fewer than two new vertices."""
    seen = 0
    total = 0
    for e in edges:
        new = (e & ~seen).bit_count()
        if new <= 1:
            raise ValueError("sequence is not frugal")
        total += new - 1
        seen |= e
    return total


def is_dominating(h: Hypergraph, union_mask: int) -> bool:
    """Every vertex outside union_mask is the sole remainder of an edge."""
    full = (1 << h.n) - 1
    rest = full & ~union_mask
    for v in iter_bits(rest):
        bit = 1 << v
        if not any(e & ~union_mask == bit for e in h.edges):
            return False
    return True


def gamma_e_graph(g: Hypergraph):
    """Least |F| over edge sets F whose union dominates all of V(G).

    Open domination with T = V(G): every vertex needs a neighbor inside
    the union.  Returns inf when no dominating edge set exists.
    """
    if not g.is_uniform(2):
        raise ValueError("gamma_e_graph expects a 2-uniform hypergraph")
    ends = [(e.bit_length() - 1, (e & -e).bit_length() - 1) for e in g.edges]
    nbr = [0] * g.n
    for u, v in ends:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    try:
        return min_cover([(nbr[u] | nbr[v], 1) for u, v in ends], (1 << g.n) - 1)[0]
    except Uncolorable:
        return INF


def gamma_e_hyper(h: Hypergraph):
    """Exact minimum of |union K| - |K| over frugal dominating sequences.

    DP over union masks: for a fixed union, the value is minimized by
    maximizing the number of steps, and a mask is reachable with p
    steps iff some frugal order exists, which depends only on the mask.
    """
    if len(h.edges) > SEQUENCE_EDGE_CAP:
        raise CapExceeded(f"sequence search limited to {SEQUENCE_EDGE_CAP} edges")
    steps = _frugal_steps(h)
    best = None
    for mask, p in steps.items():
        if is_dominating(h, mask):
            val = mask.bit_count() - p
            if best is None or val < best:
                best = val
    return INF if best is None else best


def _frugal_steps(h: Hypergraph) -> dict[int, int]:
    """Max number of frugal steps reaching each achievable union mask.

    Every step adds at least two vertices, so a mask's predecessors all
    lie in smaller popcount buckets: one pass over the buckets in
    ascending order finds the masks and settles each before it is
    extended.
    """
    steps = {0: 0}
    buckets = [[0]] + [[] for _ in range(h.n)]
    for bucket in buckets:
        for mask in bucket:
            p = steps[mask] + 1
            for e in h.edges:
                if (e & ~mask).bit_count() > 1:
                    new = mask | e
                    if new not in steps:
                        buckets[new.bit_count()].append(new)
                    if steps.get(new, 0) < p:
                        steps[new] = p
    return steps


# -- the delete/contract game ---------------------------------------------


def _reduce_singletons(vmask: int, edges: tuple[tuple[int, int], ...]):
    """Drop singleton edges together with their vertices (induced)."""
    while True:
        single = 0
        for cur, _ in edges:
            if cur.bit_count() == 1:
                single |= cur
        if not single:
            return vmask, edges
        vmask &= ~single
        edges = tuple((cur, orig) for cur, orig in edges if cur & single == 0)


def _offers(edges, exhaustive: bool):
    """The containment-minimal edges in input order: all of them, or only
    the first when the game is not exhaustive."""
    # Smaller edges first: an edge never follows one that lies inside it.
    minimal = set(_undominated(edges, lambda e: e[0].bit_count(), lambda e, k: k[0] & ~e[0] == 0))
    out = [e for e in edges if e in minimal]
    return out if exhaustive else out[:1]


def _contract_edges(edges, cur: int):
    seen: dict[int, int] = {}
    for c, o in edges:
        rem = c & ~cur
        if rem and rem not in seen:
            seen[rem] = o
    return tuple(seen.items())


def _game_value(memo: dict, exhaustive: bool, vmask: int, edges):
    """The value of a position.  memo maps each singleton-reduced position
    with edges left to (value, offer, reply): the first offered edge that
    attains the value, and the replying side's move on it."""
    vmask, edges = _reduce_singletons(vmask, edges)
    if not edges:
        return INF if vmask else 0
    key = (vmask, tuple(cur for cur, _ in edges))
    got = memo.get(key)
    if got is None:
        for cur, _ in _offers(edges, exhaustive):
            val, reply = _branch(memo, exhaustive, vmask, edges, cur)
            if got is None or val > got[0]:
                got = (val, cur, reply)
        memo[key] = got
    return got[0]


def _branch(memo: dict, exhaustive: bool, vmask: int, edges, cur: int):
    """The replying side's (value, move) when edge `cur` is offered."""
    deleted = tuple((c, o) for c, o in edges if c != cur)
    del_val = _game_value(memo, exhaustive, vmask, deleted)
    con_val = _game_value(memo, exhaustive, vmask & ~cur, _contract_edges(edges, cur))
    con_total = con_val if con_val is INF else con_val + cur.bit_count() - 1
    if del_val <= con_total:
        return del_val, "delete"
    return con_total, "contract"


def delete_contract_certificate(h: Hypergraph):
    """Replay the delete/contract game and return (bound, sequence).

    The offering side proposes a containment-minimal edge; the replying
    side deletes it or contracts it, whichever minimizes the final
    value (that minimum is what makes the bound valid).  Up to
    GAME_EXHAUSTIVE_EDGES edges the offering side maximizes over all
    minimal edges; above that it greedily offers the first one.

    Returns the lower bound on eta_h(I(h)) (int or inf) and the frugal
    dominating sequence of original edges (None when the bound is inf
    or 0).  Raises CertificateError when the replayed sequence's value
    is not the bound or its union does not dominate.
    """
    exhaustive = len(h.edges) <= GAME_EXHAUSTIVE_EDGES
    vmask = (1 << h.n) - 1
    edges = tuple((e, e) for e in h.edges)
    memo: dict[tuple[int, tuple[int, ...]], tuple] = {}
    bound = _game_value(memo, exhaustive, vmask, edges)
    if bound is INF or bound == 0:
        return bound, None

    # Replay the moves the memo stored along the optimal line of play.
    seq: list[int] = []
    while True:
        vmask, edges = _reduce_singletons(vmask, edges)
        if not edges:
            break
        _, cur, reply = memo[vmask, tuple(c for c, _ in edges)]
        if reply == "delete":
            edges = tuple((c, o) for c, o in edges if c != cur)
        else:
            seq.append(dict(edges)[cur])
            vmask &= ~cur
            edges = _contract_edges(edges, cur)
    certificate = FrugalSequence(edges=tuple(seq), value=_frugal_value(seq))
    if certificate.value != bound:
        raise CertificateError(f"replayed value {certificate.value} != {bound}")
    if not is_dominating(h, certificate.union()):
        raise CertificateError("replayed sequence does not dominate")
    return bound, certificate
