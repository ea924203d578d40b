"""Exact matrices as lists of row lists of ints or Fractions.

An entry keeps the type it is given: `zeros` makes ints, and `from_rows`,
`mat_mul` and `mat_vec` turn ints into ints.  `rref`, the only function
that divides, divides by each pivot as a Fraction, so every answer stays
exact and no other module of the package makes a `Fraction`.

Shapes are explicit everywhere because zero-dimensional spaces show up
constantly (a matrix with 0 rows is [], a matrix with 0 columns is a list
of empty rows), and Python list algebra cannot infer them.
"""

import operator


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def from_rows(rows):
    """A copy of the matrix rows; an entry that is neither an int (what
    `operator.index` takes) nor a Fraction raises TypeError naming it."""
    return [[_exact(x, i, j) for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


def _exact(x, i, j):
    try:
        return operator.index(x)
    except TypeError:
        import fractions
        if isinstance(x, fractions.Fraction):
            return x
    raise TypeError(f"entry {x!r} at row {i}, column {j} is not an int or "
                    "a Fraction")


def mat_mul(a, b, cols=0):
    """a (r x k) times b (k x c); pass cols=c when b has zero rows."""
    r = len(a)
    k = len(b)
    c = len(b[0]) if b else cols
    if a and len(a[0]) != k:
        raise ValueError(f"shape mismatch: {r}x{len(a[0])} times {k}x{c}")
    return [[sum(row[l] * b[l][j] for l in range(k)) for j in range(c)]
            for row in a]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def rref(m, cols=None):
    """Reduced row echelon form.  Returns (rows, pivot column list).

    Each pivot row is divided by its pivot as a Fraction, so the rows are
    exact whatever mix of ints and Fractions m holds."""
    import fractions
    rows = [list(r) for r in m]
    ncols = (len(rows[0]) if rows else 0) if cols is None else cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = fractions.Fraction(rows[r][c])
        # a zero of the pivot row needs no division, and leaves the entry
        # of another row in its column as it is
        rows[r] = [x / scale if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b if b else a
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(m, cols=None):
    return len(rref(m, cols)[1])
