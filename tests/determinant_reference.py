"""An independent oracle for determinants: exact integer Bareiss elimination.

It never reads a sign off permutation structure, so on the rows of a
permutation matrix, such as the ones the CLI prints, it checks
``Perm.signature`` by a route that shares no code with it.
"""


def exact_determinant(rows):
    """Exact determinant of a square integer matrix, given as its rows, by
    fraction-free (Bareiss) elimination.

    The rows must be a non-empty square of plain ints, so a mis-parsed
    printed row raises ValueError instead of giving a wrong sign.
    """
    a = [list(row) for row in rows]
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    bad = next((v for row in a for v in row if type(v) is not int), None)
    if bad is not None:
        raise ValueError(f"entry {bad!r} is not an int")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]
