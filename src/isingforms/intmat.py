"""Exact linear algebra over Q and Z.

One Gauss-Jordan routine, ``_rref``, serves every rational kernel: solving a
square system, inverting, and expressing vectors over a fixed list of rows
(with the left kernel of those rows). It takes and returns rational rows but
eliminates fraction-free on integer rows, dividing only at the end. A
rational determinant clears denominators once and goes through the
fraction-free Bareiss elimination on integers. The integer side is the
row-style Hermite normal form (echelon shape, positive pivots, entries above
a pivot reduced into [0, pivot)), the unique canonical basis of an integer
row lattice, and membership solves over it.

Everything here is deterministic: the pivot is always the first usable row,
so repeated runs on equal input produce identical output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def hnf(rows):
    """Canonical row Hermite normal form of integer rows; zero rows dropped."""
    mat = [list(map(int, row)) for row in rows if any(row)]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c]]
            if len(nz) <= 1:
                break
            k = min(nz, key=lambda i: abs(mat[i][c]))
            for i in nz:
                if i != k:
                    q = mat[i][c] // mat[k][c]
                    if q:
                        mat[i] = [a - q * b for a, b in zip(mat[i], mat[k])]
        nz = [i for i in range(r, len(mat)) if mat[i][c]]
        if not nz:
            continue
        k = nz[0]
        mat[r], mat[k] = mat[k], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r] if any(row)]


def hnf_solve(hrows, vector):
    """Integer coefficients over the HNF rows, or None if not in the lattice."""
    v = list(map(int, vector))
    coeffs = []
    for row in hrows:
        c = next(i for i, x in enumerate(row) if x)
        q, rem = divmod(v[c], row[c])
        if rem != 0:
            return None
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        coeffs.append(q)
    if any(v):
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
