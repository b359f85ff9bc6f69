"""The double description in Fraction arithmetic, kept as the oracle for
`mtk.polytopes._dd_vertices`, which runs in integers.  Here two vertices
are adjacent when the normals of their common tight rows have rank
n - 1, and each new point's tight rows are found by evaluating every
row; `_dd_vertices` reads both from the tight sets alone.

`dd_vertices_fraction(n, rows)` returns the vertices of
{x >= 0, x[mask] <= r} as Fraction tuples, in the order the method
produces them: the box vertices, then for each further row the old
vertices that satisfy it followed by the new ones cut on it.

`undominated_pairwise(vs)` is the pairwise prune that
`mtk.polytopes._undominated_vertices` used on Q and R before it read
dominance off the tight sets: the points of vs below no other point of
vs coordinatewise.
"""

from fractions import Fraction
from operator import le

from mtk.core import iter_bits
from mtk.topology import snf_diagonal

ZERO = Fraction(0)


def dd_vertices_fraction(n: int, rows: list[tuple[int, int]]) -> list[tuple[Fraction, ...]]:
    ubs = [None] * n
    for mask, r in rows:
        if mask.bit_count() == 1:
            ubs[mask.bit_length() - 1] = Fraction(r)
    if any(u is None for u in ubs):
        raise ValueError("singleton bounds required for boundedness")
    # Constraint list: index 0..n-1 non-negativity (-x_v <= 0), then the
    # box rows x_v <= ubs[v], then the other rows.
    normals: list[tuple[int, ...]] = []
    rhss: list[Fraction] = []
    for v in range(n):
        e = [0] * n
        e[v] = -1
        normals.append(tuple(e))
        rhss.append(ZERO)
    other_rows = [(mask, Fraction(r)) for mask, r in rows if mask.bit_count() != 1]
    for mask, r in [(1 << v, ubs[v]) for v in range(n)] + other_rows:
        normals.append(tuple((mask >> v) & 1 for v in range(n)))
        rhss.append(r)
    nbox = 2 * n

    # Box vertices with tight bitmasks over the first nbox constraints.
    verts: list[tuple[tuple[Fraction, ...], int]] = []
    for bits in range(1 << n):
        coords = tuple(ubs[v] if (bits >> v) & 1 else ZERO for v in range(n))
        tight = 0
        for i in range(nbox):
            if _row_value(normals[i], coords) == rhss[i]:
                tight |= 1 << i
        verts.append((coords, tight))
    uniq = {}
    for coords, tight in verts:
        uniq[coords] = tight
    verts = list(uniq.items())

    processed = nbox
    for ridx in range(nbox, len(normals)):
        normal, rhs = normals[ridx], rhss[ridx]
        vals = [_row_value(normal, coords) - rhs for coords, _ in verts]
        keep = [i for i, s in enumerate(vals) if s <= 0]
        out = [i for i, s in enumerate(vals) if s > 0]
        if not out:
            verts = [
                (coords, tight | (1 << ridx) if vals[i] == 0 else tight)
                for i, (coords, tight) in enumerate(verts)
            ]
            processed += 1
            continue
        newpts: dict[tuple[Fraction, ...], int] = {}
        for i in keep:
            si = vals[i]
            if si == 0:
                continue  # already on the new hyperplane
            ci, ti = verts[i]
            for j in out:
                cj, tj = verts[j]
                common = ti & tj
                if common.bit_count() < n - 1:
                    continue
                if not _tight_rank_at_least(normals, common, n - 1):
                    continue
                sj = vals[j]
                t = si / (si - sj)  # si < 0 < sj
                coords = tuple(a + t * (b - a) for a, b in zip(ci, cj))
                tight = 1 << ridx
                for idx in range(processed):
                    if _row_value(normals[idx], coords) == rhss[idx]:
                        tight |= 1 << idx
                newpts.setdefault(coords, tight)
        keep_set = set(keep)
        verts = [
            (coords, tight | (1 << ridx) if vals[i] == 0 else tight)
            for i, (coords, tight) in enumerate(verts)
            if i in keep_set
        ] + list(newpts.items())
        processed += 1
    return [coords for coords, _ in verts]


def _row_value(normal: tuple[int, ...], coords: tuple[Fraction, ...]) -> Fraction:
    return sum((a * b for a, b in zip(normal, coords) if a), ZERO)


def _tight_rank_at_least(normals, common: int, need: int) -> bool:
    mat = [list(normals[i]) for i in iter_bits(common)]
    return sum(1 for d in snf_diagonal(mat) if d) >= need


def undominated_pairwise(vs: list[tuple[Fraction, ...]]) -> list[tuple[Fraction, ...]]:
    return [v for v in vs if not any(v != w and all(map(le, v, w)) for w in vs)]
