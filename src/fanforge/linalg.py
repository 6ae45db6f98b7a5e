"""Exact linear algebra over the integers and fractions.Fraction.

Matrices are lists of row lists; entries are ints or Fractions. Nothing in
here ever touches a float. Elimination is fraction-free on integer rows:
every rank test and the double description's initial basis use
:func:`_independent_rows`, which stops at full rank; `solve` and the cone
adjugates read the pivots and integer rows of the full Gauss-Jordan
(:func:`_echelon`), and only `solve` divides to Fractions, at the end and
only in the entries it returns. Determinants are Bareiss
(:func:`det_int`). Identical inputs give identical results.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def dot(u, v):
    return sum(map(mul, u, v))


def _independent_rows(rows, limit):
    """Indices of the first rows of an integer matrix that are independent
    of the rows before them, at most limit of them (so the rank, if that is
    below limit). Fraction-free: each row in order is reduced against the
    rows kept so far and is kept, with its first nonzero column as pivot,
    if anything is left. The rows are not changed."""
    kept, chosen = [], []
    for i, row in enumerate(rows):
        if len(chosen) == limit:
            break
        for c, k in kept:
            f = row[c]
            if f:
                p = k[c]
                row = [p * x - f * y for x, y in zip(row, k)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
        pivot = next((c for c, x in enumerate(row) if x), None)
        if pivot is not None:
            kept.append((pivot, row))
            chosen.append(i)
    return chosen


def _echelon(m):
    """Fraction-free Gauss-Jordan on integer rows, in place. Returns the
    pivot column list; afterwards row r of m has its pivot in column
    pivots[r] and zeros in every other pivot column, and the rows after
    the last pivot row are zero. A row changed by an elimination step is
    divided by the gcd of its entries."""
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f != 0:
                row = [p * x - f * y for x, y in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def solve(a, b):
    """One exact solution of a.x = b, or None if inconsistent."""
    if not a:
        return None if any(x != 0 for x in b) else []
    ncols = len(a[0])
    m = scale_rows_int([list(row) + [bi] for row, bi in zip(a, b)])
    pivots = _echelon(m)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(m, pivots):
        x[p] = Fraction(row[ncols], row[p])
    return x


def det_int(m):
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (akk * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def primitive(vec):
    """Primitive integer vector from a rational one. Positive scaling only:
    the direction is preserved, never flipped."""
    if any(type(x) is not int for x in vec):
        fracs = [x if type(x) in (int, Fraction) else Fraction(x) for x in vec]
        denom = lcm(*(x.denominator for x in fracs))
        vec = [x.numerator * (denom // x.denominator) for x in fracs]
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def scale_rows_int(rows):
    """Scale each row by a positive rational to a primitive integer list.
    Inequality semantics are unchanged."""
    return [list(primitive(row)) for row in rows]
