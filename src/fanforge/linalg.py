"""Exact linear algebra over the integers and fractions.Fraction.

Matrices are lists of row lists; entries are ints or Fractions. Nothing in
here ever touches a float. Elimination runs fraction-free on integer rows.
All outputs are canonical: kernel bases come from the reduced row echelon
form, so identical inputs give identical results.
"""

from fractions import Fraction
from math import gcd, lcm


def transpose(m):
    return [list(col) for col in zip(*m)]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def rref(rows):
    """Reduced row echelon form. Returns (rref rows, pivot column list).

    Fraction-free Gauss-Jordan: every row is scaled to integers once, kept
    primitive after each elimination step, and divided by its pivot only at
    the end. The RREF is unique, so this equals Fraction elimination.
    """
    m = scale_rows_int(rows)
    if not m:
        return [], []
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
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    red += [[Fraction(0)] * ncols for _ in range(nrows - r)]
    return red, pivots


def rank(rows):
    return len(rref(rows)[1])


def kernel_basis(rows):
    """Canonical basis of {x : rows . x = 0}, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(a, b):
    """One exact solution of a.x = b, or None if inconsistent."""
    if not a:
        return None if any(x != 0 for x in b) else []
    ncols = len(a[0])
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
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
    fracs = [x if type(x) in (int, Fraction) else Fraction(x) for x in vec]
    denom = lcm(*(x.denominator for x in fracs))
    ints = [x.numerator * (denom // x.denominator) for x in fracs]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def scale_rows_int(rows, rhs=None):
    """Scale each row (and its rhs entry) by a positive rational so all
    entries are integers. Inequality semantics are unchanged."""
    if rhs is None:
        return [list(primitive(row)) for row in rows]
    out = [primitive(list(row) + [bi]) for row, bi in zip(rows, rhs)]
    return [list(r[:-1]) for r in out], [r[-1] for r in out]
