"""Generators for the extremal instances and the partition matroids
L(H) of a k-partite hypergraph.

Projective and affine planes are built over the integers mod q for
prime q; labeling is deterministic (points sorted by normalized
homogeneous coordinates), so generated instance files are reproducible.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Complex, Hypergraph, complex_of, induced, iter_bits, mask_of
from .errors import DomainError, Unsupported
from .matroid import (
    GenPartitionMatroid,
    GraphicMatroid,
    Matroid,
    MatroidSystem,
    UniformMatroid,
)


@dataclass(frozen=True)
class Instance:
    """A named bundle of objects sharing one construction."""

    provenance: str
    hypergraph: Hypergraph | None = None
    parts: tuple[int, ...] | None = None  # vertex sides when k-partite
    complex_: Complex | None = None
    system: MatroidSystem | None = None
    weights: dict = field(default_factory=dict)


def matroid_to_dict(m: Matroid) -> dict:
    if isinstance(m, UniformMatroid):
        return {"kind": "uniform", "n": m.n, "rank": m.r}
    if isinstance(m, GenPartitionMatroid):
        return {
            "kind": "gen_partition",
            "n": m.n,
            "parts": [sorted(iter_bits(p)) for p in m.parts],
            "caps": list(m.caps),
        }
    if isinstance(m, GraphicMatroid):
        return {
            "kind": "graphic",
            "vertices": m.vertices,
            "edges": [list(e) for e in m.edge_list],
        }
    maximal = m.to_complex().maximal_faces
    return {
        "kind": "explicit",
        "n": m.n,
        "maximal": [sorted(iter_bits(f)) for f in maximal],
    }


def instance_to_dict(inst: Instance) -> dict:
    """inst in the instance-file format that cli.instance_from_dict reads."""
    out: dict = {"provenance": inst.provenance}
    if inst.hypergraph is not None:
        out["hypergraph"] = {
            "n": inst.hypergraph.n,
            "edges": inst.hypergraph.edge_sets(),
        }
    if inst.complex_ is not None:
        out["complex"] = {
            "n": inst.complex_.n,
            "maximal_faces": [
                sorted(iter_bits(f)) for f in inst.complex_.maximal_faces
            ],
        }
    if inst.system is not None:
        out["matroids"] = [matroid_to_dict(m) for m in inst.system]
    if inst.parts is not None:
        out["parts"] = [sorted(iter_bits(p)) for p in inst.parts]
    if inst.weights:
        out["weights"] = {k: [str(x) for x in v] for k, v in inst.weights.items()}
    return out


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _normalized_points(q: int) -> list[tuple[int, int, int]]:
    """1-dimensional subspaces of F_q^3, first non-zero coordinate 1, sorted."""
    return (
        [(0, 0, 1)]
        + [(0, 1, z) for z in range(q)]
        + [(1, y, z) for y in range(q) for z in range(q)]
    )


def projective_plane(q: int) -> Hypergraph:
    """PG(2, q): points = 1-dim subspaces, lines = 2-dim subspaces."""
    if not _is_prime(q):
        raise Unsupported("plane construction implemented for prime q only")
    pts = _normalized_points(q)
    index = {p: i for i, p in enumerate(pts)}
    edges = []
    for a, b, c in pts:  # line coefficient vectors, same normalization
        edge = [
            index[(x, y, z)]
            for (x, y, z) in pts
            if (a * x + b * y + c * z) % q == 0
        ]
        edges.append(edge)
    return Hypergraph(len(pts), edges)


def truncated_projective_plane(q: int) -> tuple[Hypergraph, tuple[int, ...]]:
    """T_{q+1}: remove one point and all lines through it.

    Returns the hypergraph together with its canonical vertex sides:
    the surviving traces of the removed lines partition the points.
    """
    pg = projective_plane(q)
    removed = 0  # the lexicographically first point
    keep = ((1 << pg.n) - 1) & ~(1 << removed)
    through = [e for e in pg.edges if (e >> removed) & 1]
    t, new_to_old = induced(pg, keep)
    old_to_new = {old: new for new, old in enumerate(new_to_old)}
    parts = []
    for e in through:
        parts.append(mask_of(old_to_new[v] for v in iter_bits(e) if v != removed))
    return t, tuple(sorted(parts))


def q_k(q: int) -> tuple[Hypergraph, tuple[int, ...]]:
    """The affine plane of order q minus one parallel class of lines.

    Returns the k-partite hypergraph (k = q) and its sides: the point
    sets of the removed class's lines.
    """
    if not _is_prime(q):
        raise Unsupported("plane construction implemented for prime q only")
    pg = projective_plane(q)
    line_at_infinity = pg.edges[0]
    keep = ((1 << pg.n) - 1) & ~line_at_infinity
    affine, new_to_old = induced(pg, keep)
    old_to_new = {old: new for new, old in enumerate(new_to_old)}
    # Parallel classes: affine lines grouped by their infinite point.
    classes: dict[int, list[int]] = {}
    for e in pg.edges:
        if e == line_at_infinity:
            continue
        inf_pt = e & line_at_infinity
        rest = mask_of(old_to_new[v] for v in iter_bits(e & ~line_at_infinity))
        classes.setdefault(inf_pt, []).append(rest)
    removed_class = classes.pop(min(classes))
    edges = [e for group in classes.values() for e in group]
    return Hypergraph(affine.n, edges), tuple(sorted(removed_class))


def check_sides(h: Hypergraph, parts: tuple[int, ...]) -> None:
    """Raise DomainError unless parts split h's vertex set into disjoint
    sides with every edge a transversal of them."""
    cover = 0
    for p in parts:
        if cover & p:
            raise DomainError("sides overlap")
        cover |= p
    if cover != (1 << h.n) - 1:
        raise DomainError("sides must cover the vertex set")
    for e in h.edges:
        if any((e & p).bit_count() != 1 for p in parts):
            raise DomainError("some edge is not a transversal of the sides")


def assoc_matroids(h: Hypergraph, parts: tuple[int, ...]) -> MatroidSystem:
    """The partition matroids L(H) on E(H): each side's vertex stars.

    parts: the k vertex sides, every edge a transversal of them.
    Vertices with no incident edge contribute no star.
    """
    check_sides(h, parts)
    m = len(h.edges)
    matroids = []
    for p in parts:
        stars = []
        for v in iter_bits(p):
            star = mask_of(i for i, e in enumerate(h.edges) if (e >> v) & 1)
            if star:
                stars.append(star)
        matroids.append(GenPartitionMatroid(m, stars, [1] * len(stars)))
    return MatroidSystem(matroids)


# -- canned instances ------------------------------------------------------


def canned(name: str, **params) -> Instance:
    """The named instance built from params; Unsupported on an unknown
    name or a parameter its builder does not take."""
    build = _CANNED.get(name)
    if build is None:
        raise Unsupported(f"unknown canned instance {name!r}")
    signature = inspect.signature(build)
    try:
        signature.bind(**params)
    except TypeError as e:
        takes = ", ".join(signature.parameters) or "none"
        raise Unsupported(f"canned instance {name!r}: {e} (parameters: {takes})") from None
    return build(**params)


def _canned_ab(m: int, a: int = 1) -> Instance:
    if not 1 <= a <= m:
        raise DomainError("need 1 <= |A| <= |B|")
    amask = mask_of(range(a))
    bmask = mask_of(range(a, a + m))
    c = Complex(a + m, [amask, bmask])
    return Instance(
        provenance=f"ab(a={a}, m={m})",
        complex_=c,
    )


def _canned_md_lower(n: int) -> Instance:
    special = n - 1
    half = n // 2
    c = complex_of(n, lambda s: s.bit_count() <= half or not (s >> special) & 1)
    return Instance(
        provenance=f"md_lower(n={n})",
        complex_=c,
    )


def _canned_lambda(k: int = 4) -> Instance:
    if k < 2:
        raise DomainError("need k >= 2")
    v = tuple(Fraction(1, i) for i in range(2, k + 1) for _ in range(i))
    c = complex_of(len(v), lambda s: sum(v[i] for i in iter_bits(s)) <= 1)
    return Instance(
        provenance=f"lambdaPnotQ(k={k})",
        complex_=c,
        weights={"v": v},
    )


def _canned_pnotq_partition() -> Instance:
    # x_1..x_9 -> 0..8, y_1..y_3 -> 9..11, z_1..z_3 -> 12..14
    faces = [[9, 10, 11], [12, 13, 14]]
    for i in range(1, 4):
        for j in range(1, 4):
            x = 3 * (i - 1) + (j - 1)
            faces.append([8 + i, x])
            faces.append([11 + j, x])
    c = Complex(15, faces)
    w = (Fraction(1, 9),) * 9 + (Fraction(1, 4),) * 6
    return Instance(
        provenance="PnotQpartition",
        complex_=c,
        weights={"w": w},
    )


def _canned_truncated(q: int = 2) -> Instance:
    h, parts = truncated_projective_plane(q)
    return Instance(
        provenance=f"truncated_plane(q={q})",
        hypergraph=h,
        parts=parts,
        system=assoc_matroids(h, parts),
    )


def _canned_qk(q: int = 2) -> Instance:
    h, parts = q_k(q)
    return Instance(
        provenance=f"q_k(q={q})",
        hypergraph=h,
        parts=parts,
        system=assoc_matroids(h, parts),
    )


_CANNED = {
    "ab": _canned_ab,
    "md_lower": _canned_md_lower,
    "lambdaPnotQ": _canned_lambda,
    "PnotQpartition": _canned_pnotq_partition,
    "truncated_plane": _canned_truncated,
    "q_k": _canned_qk,
}
