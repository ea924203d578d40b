"""Exact rational matrices as lists of row lists of Fractions.

Shapes are explicit everywhere because zero-dimensional spaces show up
constantly (a matrix with 0 rows is [], a matrix with 0 columns is a list
of empty rows), and Python list algebra cannot infer them.
"""

from fractions import Fraction


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def from_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def mat_mul(a, b, cols=0):
    """a (r x k) times b (k x c); pass cols=c when b has zero rows."""
    r = len(a)
    k = len(b)
    c = len(b[0]) if b else cols
    if a and len(a[0]) != k:
        raise ValueError(f"shape mismatch: {r}x{len(a[0])} times {k}x{c}")
    out = zeros(r, c)
    for i in range(r):
        for j in range(c):
            out[i][j] = sum((a[i][l] * b[l][j] for l in range(k)), Fraction(0))
    return out


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0))
            for row in a]


def rref(m, cols=None):
    """Reduced row echelon form.  Returns (rows, pivot column list)."""
    rows = [list(r) for r in m]
    ncols = (len(rows[0]) if rows else 0) if cols is None else cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = rows[r][c]
        rows[r] = [x / scale for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(m, cols=None):
    return len(rref(m, cols)[1])
