"""Exact linear algebra over Q and Z.

One Gauss-Jordan routine, ``_rref``, serves every rational kernel. It takes
and returns dense rational rows but eliminates fraction-free on integer rows,
dividing only at the end. The correlation levels call it on all their rows
where a level fails the check of the factors' product formula. The integer
side is on the package's one row format, a {column: int} dict with no zero
entry: the row-style Hermite normal form (echelon shape, positive pivots,
entries above a pivot reduced into [0, pivot); each row's columns
increasing, so its first key is its pivot), the unique canonical basis of
an integer row lattice, and membership solves over it; every lattice index
is read off its pivots. ``hnf`` builds it by inserting the rows one at a
time into the pivot rows held so far, through extended-gcd 2 x 2 unimodular
steps, with size reduction after each change so the entries stay small. A
step costs the nonzero entries it touches, and the output does not depend
on the order of the rows, only the time does: ``lattices`` feeds them
latest leading column first. A full-rank Hermite basis is square upper
triangular, so the graded dual reduces no [Gram | basis] block:
``hermite_cofactors`` inverts the basis by integer back-substitution.

``virasoro`` inverts its pivot Gram blocks with ``frac_inverse``, and its
principal minor rule away from the Ising weights reads ``frac_det`` (Bareiss
after clearing denominators).
``frac_solve`` and ``RowSpanSolver`` (row-span solves, left kernels) have no
caller in the package: the tests keep them as independent routes, and the
benchmark's span tracer wraps them.

Everything here is deterministic: the pivot is always the first usable row,
so repeated runs on equal input produce identical output.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul


_ZERO = Fraction(0)


def _rref(rows, ncols: int):
    """Fraction-free Gauss-Jordan on the first ncols columns; the rest ride along.

    Entries are ints or Fractions. The pivot of column c is the first row at
    or below the current one with a nonzero entry there; its column is
    cleared in every other row. Returns the reduced rows, as Fractions with
    each pivot entry 1, and the pivot columns.

    The elimination runs on integers, fraction-free as in Bareiss (Math.
    Comp. 22, 1968). Row i is held as a primitive integer row with a rational
    scale, int row = scale * (the row Gauss-Jordan over Q holds at that
    step), and the rational pivot row has 1 in its pivot column. So clearing
    column c of row i takes p * row_i - f * pivot_row over gcd(p, f), divides
    it by its content g and multiplies the scale by p / (gcd(p, f) * g). The
    zero pattern, and with it every pivot, is that of the rational rows (a
    zero row keeps whatever scale it has). Only the last step divides: each
    pivot row by its pivot entry, every other row by its scale.
    """
    mat, scale = [], []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints) or 1
        mat.append([x // g for x in ints])
        scale.append(Fraction(den, g))
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        scale[r], scale[pivot] = scale[pivot], scale[r]
        prow = mat[r]
        p = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                h = gcd(p, f)
                a, b = p // h, f // h
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row) or 1
                mat[i] = [x // g for x in row] if g > 1 else row
                scale[i] = Fraction(scale[i].numerator * a, scale[i].denominator * g)
        pivots.append(c)
        r += 1
    reduced = []
    for i, row in enumerate(mat):
        s = Fraction(row[pivots[i]]) if i < r else scale[i]
        reduced.append([Fraction(x * s.denominator, s.numerator) if x else _ZERO
                        for x in row])
    return reduced, pivots


def _identity_rows(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def frac_solve(matrix, rhs):
    """Solve the square system matrix * x = rhs exactly. None if singular."""
    n = len(matrix)
    reduced, pivots = _rref([list(row) + [b] for row, b in zip(matrix, rhs)], n)
    if len(pivots) < n:
        return None
    return [row[n] for row in reduced]


def frac_inverse(matrix):
    """Exact inverse of a square rational matrix. None if singular."""
    n = len(matrix)
    reduced, pivots = _rref(
        [list(row) + unit for row, unit in zip(matrix, _identity_rows(n))], n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in reduced]


def frac_det(matrix) -> Fraction:
    """Determinant of a rational matrix: clear denominators, then Bareiss."""
    mat = [[Fraction(x) for x in row] for row in matrix]
    den = lcm(*(x.denominator for row in mat for x in row))
    int_rows = [[x.numerator * (den // x.denominator) for x in row] for row in mat]
    return Fraction(det_bareiss(int_rows), den ** len(mat))


class RowSpanSolver:
    """Expresses vectors as rational combinations of a fixed list of rows.

    Tracks the elimination matrix, so solve() returns coefficients over the
    original rows and kernel() returns a basis of the left kernel (all rational
    relations among the original rows). Nothing in the package calls it: the
    tests rebuild the earlier correlation and generator routes on it as their
    reference, and perfbench/spans.py traces its methods.
    """

    def __init__(self, rows):
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        work, pivots = _rref(
            [list(row) + unit for row, unit in zip(rows, _identity_rows(self.nrows))],
            self.ncols)
        self._pivots = pivots
        self._reduced = [row[:self.ncols] for row in work]
        self._transform = [row[self.ncols:] for row in work]
        self.rank = len(pivots)

    def solve(self, vector):
        """Coefficients c with c . rows == vector, or None if outside the span."""
        v = [Fraction(x) for x in vector]
        coeffs = [Fraction(0)] * self.nrows
        for k, c in enumerate(self._pivots):
            if v[c]:
                f = v[c]
                v = [a - f * b for a, b in zip(v, self._reduced[k])]
                coeffs = [a + f * b for a, b in zip(coeffs, self._transform[k])]
        if any(v):
            return None
        return coeffs

    def kernel(self):
        """Basis of {c : c . rows == 0}."""
        return [self._transform[k] for k in range(self.rank, self.nrows)]


def _xgcd(a: int, b: int):
    """(d, x, y) with d = gcd(a, b) = x*a + y*b."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _axpy(row: dict, prow: dict, q: int) -> dict:
    """row -= q * prow in place, on sparse rows, dropping the entries that
    cancel; returns row."""
    for j, y in prow.items():
        x = row.get(j, 0) - q * y
        if x:
            row[j] = x
        else:
            row.pop(j, None)
    return row


def hnf(rows):
    """Canonical row Hermite normal form of integer rows; zero rows dropped.

    Rows go in as {column: entry} dicts of their nonzeros, one at a time.
    Each is reduced against the pivot rows held so far, column by column. A
    column without a pivot row takes the rest as a new one, sign-normalized.
    A pivot a that does not divide the entry b is replaced by the 2 x 2
    unimodular step [[x, y], [-b/d, a/d]] on (pivot row, row), d = gcd(a, b)
    = x*a + y*b: the first product is the new pivot row, with entry d, and
    the second, zero in that column, carries on. Every new or replaced pivot
    row is size-reduced against the later pivots, and the earlier rows
    against it in its column, which keeps the entries small. A last pass,
    pivot columns in increasing order, reduces every entry above a pivot into
    [0, pivot), and each row comes out with its columns increasing. The
    result is the unique basis of that shape (Cohen, A Course in
    Computational Algebraic Number Theory, section 2.4), so the order of the
    rows changes only the time: latest leading column first is fast, as it
    keeps the pivot rows sparse.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    cols: list[int] = []  # the pivot columns, increasing

    def reduce_above(k: int):
        """Reduce the pivot rows before the k-th in its pivot column."""
        c = cols[k]
        prow = pivot_rows[c]
        for c1 in cols[:k]:
            q = pivot_rows[c1].get(c, 0) // prow[c]
            if q:
                _axpy(pivot_rows[c1], prow, q)

    def install(c: int, row: dict):
        if c not in pivot_rows:
            insort(cols, c)
        pivot_rows[c] = row
        k = bisect_left(cols, c)
        for c2 in cols[k + 1:]:
            q = row.get(c2, 0) // pivot_rows[c2][c2]
            if q:
                _axpy(row, pivot_rows[c2], q)
        reduce_above(k)

    for row in rows:
        v = dict(row)
        while v:
            c = min(v)
            b = v[c]
            p = pivot_rows.get(c)
            if p is None:
                install(c, v if b > 0 else {j: -x for j, x in v.items()})
                break
            a = p[c]
            q, r = divmod(b, a)
            if r:
                d, x, y = _xgcd(a, b)  # y != 0, as a does not divide b
                install(c, _axpy({j: y * e for j, e in v.items()}, p, -x))
                v = _axpy({j: a // d * e for j, e in v.items()}, p, b // d)
            else:
                _axpy(v, p, q)
    for k in range(len(cols)):
        reduce_above(k)
    return [dict(sorted(pivot_rows[c].items())) for c in cols]


def hermite_cofactors(rows):
    """(delta, C) for a square full-rank Hermite basis H: delta = det H and
    C = delta * H^-T, the cofactor matrix, as integer rows.

    H is upper triangular with its pivots on the diagonal, so delta is their
    product and H^-1 is upper triangular too. Row j of C is column j of
    adj H, found by back-substitution on H x = delta e_j from x_j = delta /
    H_jj upwards, each step over the nonzeros of row i up to column j; every
    division is exact, since each quotient is an entry of adj H.
    """
    n = len(rows)
    delta = prod(rows[i][i] for i in range(n))
    sparse = [(list(row), list(row.values())) for row in rows]
    out = []
    for j in range(n):
        x = [0] * n
        x[j] = delta // rows[j][j]
        for i in range(j - 1, -1, -1):
            cols, vals = sparse[i]
            k = bisect_right(cols, j)  # x is 0 right of j, and x[i] is still 0
            x[i] = -sum(map(mul, vals[:k], map(x.__getitem__, cols[:k]))) // rows[i][i]
        out.append({i: c for i, c in enumerate(x) if c})
    return delta, out


def hnf_solve(hrows, vector):
    """Integer coefficients over the HNF rows, or None if not in the lattice.

    Rows are Hermite rows as hnf gives them and the vector a {column: int}
    dict. Each row's pivot divides the vector's entry in its leading column
    exactly, or the vector is outside; the quotient clears that entry, and
    the rest of the row updates the vector on the row's nonzeros only.
    """
    v = dict(vector)
    coeffs = []
    for row in hrows:
        c, a = next(iter(row.items()))
        q, rem = divmod(v.pop(c, 0), a)
        if rem:
            return None
        if q:
            _axpy(v, row, q)
            del v[c]  # _axpy left -q * a here; q * a was the popped entry
        coeffs.append(q)
    if any(v.values()):
        return None
    return coeffs


def det_bareiss(matrix) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    mat = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if mat[c][c] == 0:
            pivot = next((i for i in range(c + 1, n) if mat[i][c]), None)
            if pivot is None:
                return 0
            mat[c], mat[pivot] = mat[pivot], mat[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                mat[i][j] = (mat[i][j] * mat[c][c] - mat[i][c] * mat[c][j]) // prev
            mat[i][c] = 0
        prev = mat[c][c]
    return sign * mat[n - 1][n - 1]
