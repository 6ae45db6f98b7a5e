from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanforge.linalg import (
    _echelon,
    _independent_rows,
    det_int,
    dot,
    primitive,
    scale_rows_int,
    solve,
)
from fanforge.polyhedra import _adjugate_int

small_int = st.integers(min_value=-6, max_value=6)


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)


def fraction_det(m):
    """Reference determinant by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for c in range(len(a)):
        pivot = next((i for i in range(c, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


@settings(max_examples=80, deadline=None)
@given(square(3))
def test_det_matches_fraction_elimination(m):
    assert fraction_det(m) == det_int(m)


@settings(max_examples=60, deadline=None)
@given(square(3), square(3))
def test_det_multiplicative(a, b):
    product = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert det_int(product) == det_int(a) * det_int(b)


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(dot(row, v) == 0 for row in m)
    assert rank(m) + len(kernel_basis(m)) == 3


@settings(max_examples=60, deadline=None)
@given(square(3), st.lists(small_int, min_size=3, max_size=3))
def test_solve_consistency(m, b):
    x = solve(m, b)
    if x is not None:
        assert [dot(row, x) for row in m] == [Fraction(v) for v in b]
    if det_int(m) != 0:
        assert x is not None


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_inverse_roundtrip(m):
    """The columns of the inverse, one solve per unit vector."""
    units = [[1 if i == j else 0 for i in range(3)] for j in range(3)]
    cols = [solve(m, e) for e in units]
    if det_int(m) == 0:
        assert None in cols
    else:
        for e, col in zip(units, cols):
            assert [dot(row, col) for row in m] == e


def test_primitive_examples():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert primitive((-2, 0)) == (-1, 0)  # direction never flips
    assert primitive((0, 0)) == (0, 0)


def test_left_kernel():
    g = [[1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1]]
    basis = kernel_basis(transpose(g))
    assert len(basis) == 3
    for v in basis:
        assert all(sum(v[i] * g[i][j] for i in range(5)) == 0 for j in range(2))


def test_scale_rows_int():
    rows = scale_rows_int([[Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)], [2, 4, 6]])
    assert rows == [[3, 2, 5], [1, 2, 3]]


def transpose(m):
    return [list(col) for col in zip(*m)]


def rref(rows):
    """Reduced row echelon form, (rref rows, pivot column list), read off
    the integer echelon: each pivot row is divided by its pivot at the
    end. The RREF is unique, so this equals Fraction elimination."""
    m = scale_rows_int(rows)
    pivots = _echelon(m)
    if not m:
        return [], []
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    red += [[Fraction(0)] * len(m[0]) for _ in range(len(m) - len(pivots))]
    return red, pivots


def rank(rows):
    """Rank of a rational matrix: the pivot count of its integer echelon."""
    return len(_echelon(scale_rows_int(rows)))


def kernel_basis(rows):
    """Canonical basis of {x : rows . x = 0}, one vector per free column:
    the reduced-echelon kernel vector of that column, scaled positively to
    a primitive integer tuple."""
    if not rows:
        return []
    ncols = len(rows[0])
    m = scale_rows_int(rows)
    pivots = _echelon(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        scale = lcm(*(row[p] for row, p in zip(m, pivots) if row[f]))
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(m, pivots):
            v[p] = -row[f] * scale // row[p]
        basis.append(primitive(v))
    return basis


def test_rref_pivots():
    red, pivots = rref([[0, 1, 2], [0, 2, 4], [1, 0, 0]])
    assert pivots == [0, 1]
    assert red[0][0] == 1 and red[1][1] == 1


def fraction_rref(rows):
    """Reference Gauss-Jordan over Fractions, dividing by the pivot at once."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def fraction_kernel(rows):
    """Reference kernel basis: the kernel vector of each free column of
    the Fraction RREF, made a primitive integer vector."""
    red, pivots = fraction_rref(rows)
    basis = []
    for f in (c for c in range(len(rows[0])) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(len(rows[0]))]
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(primitive(v))
    return basis


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda ncols: st.lists(
            st.lists(small_int, min_size=ncols, max_size=ncols), min_size=1, max_size=6
        )
    )
)
def test_kernel_basis_is_the_primitive_fraction_kernel(m):
    basis = kernel_basis(m)
    assert basis == fraction_kernel(m)
    assert all(type(x) is int for v in basis for x in v)


small_rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda ncols: st.lists(
            st.lists(small_rational | st.just(Fraction(0)), min_size=ncols, max_size=ncols),
            max_size=6,
        )
    )
)
def test_integer_rref_matches_fraction_reference(m):
    red, pivots = rref(m)
    want_red, want_pivots = fraction_rref(m)
    assert pivots == want_pivots
    assert red == want_red
    assert all(isinstance(x, Fraction) for row in red for x in row)


rational_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda ncols: st.lists(
        st.lists(small_int | small_rational, min_size=ncols, max_size=ncols), max_size=6
    )
)


@settings(max_examples=150, deadline=None)
@given(rational_matrices)
def test_integer_rank_matches_rref_pivot_count(m):
    assert rank(m) == len(rref(m)[1])


@settings(max_examples=200, deadline=None)
@example([[0, 0], [1, 2], [2, 4], [0, 1], [3, 3]], 5)
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 2)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda ncols: st.lists(
            st.lists(small_int, min_size=ncols, max_size=ncols), max_size=8
        )
    ),
    st.integers(min_value=0, max_value=7),
)
def test_independent_rows_are_the_echelon_pivots_of_the_transpose(m, limit):
    """The rows kept are the first independent rows in order, so they are
    the pivot columns of the transpose's echelon, cut at limit; their count
    is the rank when the rank is below limit. The rows are not changed."""
    before = [list(row) for row in m]
    chosen = _independent_rows(m, limit)
    pivots = _echelon(transpose(m))
    assert chosen == pivots[:limit]
    assert len(chosen) == min(rank(m), limit)
    assert m == before


@settings(max_examples=150, deadline=None)
@example([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
@given(st.integers(min_value=1, max_value=5).flatmap(square))
def test_adjugate_is_det_times_the_fraction_inverse(m):
    adj, det = _adjugate_int(m)
    assert det == abs(det_int(m))
    if det == 0:
        assert adj is None  # a singular matrix has no inverse to scale
        return
    n = len(m)
    columns = [solve(m, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    assert adj == [[det * columns[j][i] for j in range(n)] for i in range(n)]
