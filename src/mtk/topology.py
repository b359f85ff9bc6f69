"""Homological connectivity, expansion numbers, and Topological Hall.

eta_h(C) is 1 plus the least dimension with non-vanishing reduced
integral homology (infinity when everything vanishes, 0 for the
vertex-free complex).  Homology is computed from integer boundary
matrices via Smith diagonalization with smallest-entry pivoting.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import Complex, iter_bits
from .errors import CapExceeded
from .extval import INF, XRat, check_weights, max_ratio

# topological_hall_check is refused above this many sets V_i.
HALL_MAX_SETS = 12


def snf_diagonal(mat: list[list[int]]) -> list[int]:
    """Diagonal of an integer diagonalization of mat (unimodular ops).

    The returned non-zero entries generate the cokernel torsion, so
    rank = number of non-zeros and torsion exists iff some |d| > 1.
    Pivots are chosen as the smallest non-zero entry in the working
    block to limit coefficient growth.
    """
    mat = [row[:] for row in mat]
    m = len(mat)
    n = len(mat[0]) if m else 0
    diag: list[int] = []
    r = 0
    while r < m and r < n:
        # Locate the smallest non-zero entry of the working block.
        bi = bj = -1
        babs = 0
        for i in range(r, m):
            row = mat[i]
            for j in range(r, n):
                v = row[j]
                if v:
                    a = v if v > 0 else -v
                    if babs == 0 or a < babs:
                        bi, bj, babs = i, j, a
                        if a == 1:
                            break
            if babs == 1:
                break
        if babs == 0:
            break
        if bi != r:
            mat[bi], mat[r] = mat[r], mat[bi]
        if bj != r:
            for row in mat:
                row[bj], row[r] = row[r], row[bj]
        if mat[r][r] < 0:
            mat[r] = [-v for v in mat[r]]
        while True:
            p = mat[r][r]
            dirty = False
            for i in range(r + 1, m):
                v = mat[i][r]
                if v:
                    q = v // p
                    if q:
                        prow = mat[r]
                        mat[i] = [a - q * b for a, b in zip(mat[i], prow)]
                    if mat[i][r]:
                        dirty = True
            if dirty:
                # A remainder strictly smaller than p appeared; adopt it.
                for i in range(r + 1, m):
                    if mat[i][r]:
                        mat[i], mat[r] = mat[r], mat[i]
                        break
                continue
            for j in range(r + 1, n):
                v = mat[r][j]
                if v:
                    q = v // p
                    if q:
                        for row in mat:
                            row[j] -= q * row[r]
                    if mat[r][j]:
                        dirty = True
            if dirty:
                for j in range(r + 1, n):
                    if mat[r][j]:
                        for row in mat:
                            row[j], row[r] = row[r], row[j]
                        break
                continue
            break
        diag.append(mat[r][r])
        r += 1
    return diag


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced integral homology, one (free rank, torsion flag) per dim."""

    betti: tuple[int, ...]
    torsion: tuple[bool, ...]


def _faces_by_size(c: Complex) -> list[list[int]]:
    faces = c.faces()
    top = max(f.bit_count() for f in faces)
    by = [[] for _ in range(top + 1)]
    for f in faces:
        by[f.bit_count()].append(f)
    return by


def _boundary_matrix(lower: list[int], upper: list[int]) -> list[list[int]]:
    """Rows indexed by lower faces, columns by upper; alternating signs."""
    index = {f: i for i, f in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for j, f in enumerate(upper):
        for pos, v in enumerate(iter_bits(f)):  # ascending vertex order
            mat[index[f & ~(1 << v)]][j] = -1 if pos % 2 else 1
    return mat


def _homology_by_dim(c: Complex):
    """Yield (free rank, torsion flag) of the reduced homology in each
    dimension i = 0 .. rank(c) - 1, from one SNF per boundary map."""
    by = _faces_by_size(c)
    top = len(by) - 1  # largest face size; dims run 0..top-1
    rank_lower = 1  # rank of the augmentation map (one vertex at least)
    for i in range(top):  # dimension i = faces of size i+1
        if i + 2 <= top:
            diag = snf_diagonal(_boundary_matrix(by[i + 1], by[i + 2]))
            rank_upper = sum(1 for v in diag if v)
            torsion = any(abs(v) > 1 for v in diag)
        else:
            rank_upper, torsion = 0, False
        yield len(by[i + 1]) - rank_lower - rank_upper, torsion
        rank_lower = rank_upper


def reduced_homology(c: Complex) -> HomologyProfile:
    dims = list(_homology_by_dim(c))
    return HomologyProfile(
        betti=tuple(b for b, _ in dims), torsion=tuple(t for _, t in dims)
    )


def eta_h(c: Complex):
    """1 + least i with nonzero reduced homology; inf if none; 0 if no
    vertices.  Early-exits dimension by dimension."""
    if c.rank() == 0:
        return 0
    for i, (betti, torsion) in enumerate(_homology_by_dim(c)):
        if betti > 0 or torsion:
            return i + 1
    return INF


@dataclass(frozen=True)
class ExpansionRecord:
    delta_r: Fraction | XRat
    delta_eta: Fraction | XRat
    delta: Fraction | XRat
    delta_h: Fraction | XRat


def _eta_of_induced(c: Complex, s: int, cache: dict[int, object]):
    v = cache.get(s)
    if v is None:
        v = eta_h(Complex(c.n, [f & s for f in c.maximal_faces]))
        cache[s] = v
    return v


def expansions(c: Complex, h: Sequence[Fraction] | None = None) -> ExpansionRecord:
    """Exact expansion numbers, with eta taken homologically (eta_h).

    delta_r uses rank only; delta and delta_h use min(eta_h, rank);
    h = None means the all-ones weighting, for which delta_h == delta.
    """
    if h is not None:
        h = check_weights(h, c.n)
    cache: dict[int, object] = {}

    def eta(s: int):
        return _eta_of_induced(c, s, cache)

    def eta_bar(s: int):
        eta_s, rank_s = eta(s), c.rank_of(s)
        return min(eta_s, rank_s)

    full = (1 << c.n) - 1
    d_bar = max_ratio(eta_bar, full)
    return ExpansionRecord(
        delta_r=max_ratio(c.rank_of, full),
        delta_eta=max_ratio(eta, full),
        delta=d_bar,
        delta_h=d_bar if h is None else max_ratio(eta_bar, full, h),
    )


@dataclass(frozen=True)
class HallRecord:
    hypothesis: bool
    conclusion: bool
    witness: tuple[int, ...] | None  # chosen vertex per index, or None


def topological_hall_check(c: Complex, subsets: list[int]) -> HallRecord:
    """Check the homological Hall hypothesis and search for a rainbow face.

    Hypothesis: eta_h(C[union of V_i, i in I]) >= |I| for every
    non-empty I.  Conclusion: a choice function phi with phi(i) in V_i
    and image a face.  The asserted implication is hypothesis =>
    conclusion.
    """
    m = len(subsets)
    if m > HALL_MAX_SETS:
        raise CapExceeded(f"Hall check limited to {HALL_MAX_SETS} subsets")
    cache: dict[int, object] = {}
    hypothesis = True
    for imask in range(1, 1 << m):
        union = 0
        for i in iter_bits(imask):
            union |= subsets[i]
        eta = _eta_of_induced(c, union, cache)
        if eta < imask.bit_count():
            hypothesis = False
            break
    witness = _rainbow_face(c, subsets, set(), 0, 0, ())
    return HallRecord(
        hypothesis=hypothesis,
        conclusion=witness is not None,
        witness=witness,
    )


def _rainbow_face(
    c: Complex, subsets: list[int], seen: set, i: int, image: int, picks: tuple
) -> tuple[int, ...] | None:
    """Picks for subsets[i:] that extend `picks`, whose vertices make up
    `image`, to a rainbow face; seen holds the (i, image) already failed."""
    if i == len(subsets):
        return picks
    key = (i, image)
    if key in seen:
        return None
    seen.add(key)
    for v in iter_bits(subsets[i]):
        nxt = image | (1 << v)
        if c.is_face(nxt):
            got = _rainbow_face(c, subsets, seen, i + 1, nxt, picks + (v,))
            if got is not None:
                return got
    return None
