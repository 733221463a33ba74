"""The rational kernels of intmat, each checked against an independent route."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingforms import lattices
from isingforms.codes import even_code, hamming8
from isingforms.intmat import (
    RowSpanSolver,
    _rref,
    det_bareiss,
    frac_det,
    frac_inverse,
    frac_solve,
    hermite_cofactors,
    hnf,
)
from isingforms.tensor import HVector

small_fractions = st.builds(Fraction, st.integers(min_value=-3, max_value=3),
                            st.integers(min_value=1, max_value=3))


square_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(small_fractions, min_size=n, max_size=n),
                       min_size=n, max_size=n))


@st.composite
def tall_matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=4))
    nrows = draw(st.integers(min_value=ncols + 1, max_value=ncols + 3))
    return draw(st.lists(st.lists(small_fractions, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


def laplace_det(m):
    """Cofactor expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum(
        ((-1) ** j * m[0][j] * laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
         for j in range(len(m))),
        Fraction(0),
    )


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def combine(coeffs, rows):
    """The vector sum of coeffs[i] * rows[i]."""
    return [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0))
            for j in range(len(rows[0]))]


def cleared(rows):
    """The rows scaled by one common denominator into integers."""
    den = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows]


def fraction_rref(rows, ncols):
    """Gauss-Jordan in Fraction arithmetic under the same pivot rule as _rref:
    the first row at or below the current one that is nonzero in the column,
    scaled to 1, its column cleared in every other row."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


@st.composite
def rref_inputs(draw):
    """Rational rows of any shape, some of them zero and some combinations of
    the others, with the pivot search confined to the first ncols columns."""
    width = draw(st.integers(min_value=1, max_value=7))
    entries = st.one_of(st.just(Fraction(0)), small_fractions,
                        st.integers(min_value=-50, max_value=50))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    if rows:
        for coeffs in draw(st.lists(st.lists(small_fractions, min_size=len(rows),
                                             max_size=len(rows)), max_size=3)):
            rows.append(combine(coeffs, rows))
    rows += [[0] * width] * draw(st.integers(min_value=0, max_value=2))
    rows = draw(st.permutations(rows))
    return rows, draw(st.integers(min_value=0, max_value=width))


SINGULAR = [[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]]


def sweep_hnf(rows):
    """Row Hermite normal form column by column: in each column the rows at or
    below the current one are reduced by the one of least absolute entry until
    a single nonzero entry is left, which becomes the positive pivot, and the
    rows above are reduced modulo it."""
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


@st.composite
def integer_matrices(draw):
    """Integer rows of any shape, tall or wide, small and large entries of both
    signs, some rows zero and some integer combinations of the others."""
    width = draw(st.integers(min_value=1, max_value=7))
    entries = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9),
                        st.integers(min_value=-10**6, max_value=10**6))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=8))
    if rows:
        coeffs = st.lists(st.integers(min_value=-3, max_value=3),
                          min_size=len(rows), max_size=len(rows))
        for cs in draw(st.lists(coeffs, max_size=3)):
            rows.append([sum(c * row[j] for c, row in zip(cs, rows)) for j in range(width)])
    rows += [[0] * width] * draw(st.integers(min_value=0, max_value=2))
    return draw(st.permutations(rows))


def captured_generators(monkeypatch, code, weights, top):
    """The integer generator matrix lattice_at_level hands to hnf at levels
    0..top, each built afresh: levels kept from earlier calls never reach hnf."""
    seen = []

    def record(rows):
        seen.append(rows)
        return hnf(rows)

    lattices._level.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(lattices, "hnf", record)
        for level in range(top + 1):
            lattices.lattice_at_level(code, weights, level)
    return seen


class TestRref:
    @given(rref_inputs())
    @example(([], 0))
    @example(([[0, 0], [0, 0]], 2))
    @example((SINGULAR, 2))
    @example(([[2, 4, 6], [3, 6, 9], [1, Fraction(1, 2), 0]], 3))
    @example(([[Fraction(2, 3), 4, 1, 0], [6, 0, 0, 1], [Fraction(1, 3), 2, 1, 1]], 2))
    @example(([[1, 2], [3, 4], [5, 6], [7, 9]], 2))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_gauss_jordan(self, case):
        rows, ncols = case
        reduced, pivots = _rref(rows, ncols)
        expected, expected_pivots = fraction_rref(rows, ncols)
        assert pivots == expected_pivots
        assert reduced == expected
        assert all(type(x) is Fraction for row in reduced for x in row)


class TestHnf:
    @given(integer_matrices())
    @example([])
    @example([[0, 0, 0]])
    @example([[0, 0], [0, 0]])
    @example([[2, 3], [3, 5], [4, 6], [-6, 9]])
    @example([[6, 4, -2, 9, 1], [-9, -6, 3, 0, 2]])
    @example([[-4, 6], [6, -9]])
    @settings(max_examples=400, deadline=None)
    def test_matches_column_sweep(self, rows):
        assert hnf(rows) == sweep_hnf(rows)

    @given(integer_matrices(), st.randoms(use_true_random=False))
    @example([], random.Random(0))
    @example([[0, 0, 0], [0, 0, 0]], random.Random(0))
    @settings(max_examples=200, deadline=None)
    def test_ignores_row_order(self, rows, rng):
        """Permuted rows, with zero rows put in anywhere, give one output."""
        want = sweep_hnf(rows)
        assert hnf(rows) == want
        width = len(rows[0]) if rows else 3
        for _ in range(4):
            shuffled = rng.sample(rows, len(rows))
            for _ in range(rng.randrange(4)):
                shuffled.insert(rng.randrange(len(shuffled) + 1), [0] * width)
            assert hnf(shuffled) == want

    @pytest.mark.parametrize("code, weights, top", [
        (hamming8(), HVector.parse("1/2,1/2,0,0,0,0,0,0"), 5),
        (even_code(4), HVector.parse("1/2,1/2,0,0"), 5),
        (even_code(4), HVector.vacuum(4), 6),
    ], ids=["hamming8-half-pair", "even4-half-pair", "even4-vacuum"])
    def test_matches_column_sweep_on_lattice_generators(self, monkeypatch, code, weights, top):
        levels = captured_generators(monkeypatch, code, weights, top)
        assert len(levels) == top + 1
        for rows in levels:
            want = sweep_hnf(rows)
            assert hnf(rows) == want
            assert hnf(rows[::-1]) == want


class TestSquareKernels:
    @given(square_matrices)
    @example(SINGULAR)
    @settings(max_examples=150, deadline=None)
    def test_det_matches_cofactor_expansion(self, m):
        assert frac_det(m) == laplace_det(m)

    def test_det_of_empty_matrix_is_one(self):
        assert frac_det([]) == 1

    @given(square_matrices)
    @example(SINGULAR)
    @settings(max_examples=150, deadline=None)
    def test_inverse_exists_exactly_when_det_nonzero(self, m):
        inv = frac_inverse(m)
        if laplace_det(m) == 0:
            assert inv is None
        else:
            n = len(m)
            assert matmul(m, inv) == [[int(i == j) for j in range(n)] for i in range(n)]

    @given(square_matrices, st.lists(small_fractions, min_size=4, max_size=4))
    @example(SINGULAR, [Fraction(1)] * 4)
    @settings(max_examples=150, deadline=None)
    def test_solve_reproduces_rhs(self, m, rhs):
        b = rhs[:len(m)]
        x = frac_solve(m, b)
        if laplace_det(m) == 0:
            assert x is None
        else:
            assert [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in m] == b


class TestRowSpanSolver:
    @given(tall_matrices())
    @settings(max_examples=150, deadline=None)
    def test_kernel_is_the_left_null_space(self, rows):
        solver = RowSpanSolver(rows)
        kernel = solver.kernel()
        assert solver.rank == len(hnf(cleared(rows)))
        assert len(kernel) == len(rows) - solver.rank
        for rel in kernel:
            assert not any(combine(rel, rows))
        # the relations are independent
        assert len(hnf(cleared(kernel))) == len(kernel)

    @given(tall_matrices(), st.lists(small_fractions, min_size=7, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_solve_reproduces_vectors_in_the_span(self, rows, coeffs):
        solver = RowSpanSolver(rows)
        vector = combine(coeffs[:len(rows)], rows)
        found = solver.solve(vector)
        assert found is not None
        assert combine(found, rows) == vector

    @given(tall_matrices())
    @settings(max_examples=150, deadline=None)
    def test_solve_rejects_vectors_outside_the_span(self, rows):
        solver = RowSpanSolver(rows)
        rank = len(hnf(cleared(rows)))
        ncols = len(rows[0])
        for j in range(ncols):
            unit = [int(i == j) for i in range(ncols)]
            outside = len(hnf(cleared(rows + [unit]))) > rank
            assert (solver.solve(unit) is None) == outside

    def test_no_rows(self):
        solver = RowSpanSolver([])
        assert solver.rank == 0
        assert solver.kernel() == []


@st.composite
def hermite_bases(draw):
    """Square full-rank Hermite bases: positive pivots on the diagonal, zeros
    below, and every entry above a pivot in [0, pivot)."""
    n = draw(st.integers(min_value=0, max_value=6))
    pivots = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=n, max_size=n))
    return [[0] * i + [pivots[i]]
            + [draw(st.integers(min_value=0, max_value=pivots[j] - 1)) for j in range(i + 1, n)]
            for i in range(n)]


class TestHermiteCofactors:
    @settings(max_examples=150, deadline=None)
    @given(hermite_bases())
    def test_matches_fraction_inverse(self, rows):
        assert hnf(rows) == rows
        delta, cofactors = hermite_cofactors(rows)
        assert delta == det_bareiss(rows)
        inverse_transpose = [list(col) for col in zip(*frac_inverse(rows))]
        assert [[Fraction(c, delta) for c in row] for row in cofactors] == inverse_transpose
