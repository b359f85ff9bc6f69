"""Integer diagonalization with two pivot rules, kept as the oracle for
`mtk.topology.snf_diagonal`.  The first pivot of each step is the
smallest entry of the working block; after a remainder this version
adopts the first remainder it finds as the next pivot, and it clears
the pivot row by column operations over every row.
`mtk.topology.snf_diagonal` pivots on the smallest entry every time.

Both diagonalize by unimodular operations, so they agree on the rank,
on whether some |d| > 1, and on |product of the non-zero entries| (the
last non-zero determinantal divisor); the diagonals themselves may
differ.
"""


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
