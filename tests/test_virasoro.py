"""Tests for the Virasoro straightening, Shapovalov form and quotient bases."""

import functools
import itertools
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingforms import cli, tensor, virasoro
from isingforms.intmat import frac_det
from isingforms.tensor import HVector, TensorVector
from isingforms.virasoro import (
    CentralParams,
    VermaVector,
    apply_mode,
    bracket,
    graded_dimensions,
    irreducible_basis,
    ising_params,
    partitions,
    reduce_vector,
    scaling_admissible,
    shapovalov_gram,
)

F = Fraction


def pairing(a, b):
    """Contravariant form <a, b> in the Verma module, summed term by term."""
    eng = virasoro._engine(a.params)
    return sum((ca * cb * eng.pairing_monomials(ma, mb)
                for ma, ca in a.terms.items() for mb, cb in b.terms.items()), F(0))


@functools.cache
def fraction_apply_monomial(params, n, modes):
    """L(n) on a PBW monomial, straightened in Fraction arithmetic.

    The same recursion as _Engine.apply_monomial with every coefficient a
    Fraction and no denominator bookkeeping: the second route for the
    integer engine.
    """
    if not modes:
        if n > 0:
            return {}
        if n == 0:
            return {(): params.h} if params.h else {}
        return {(-n,): F(1)}
    if n < 0 and -n >= modes[0]:
        return {(-n,) + modes: F(1)}
    # L(n) L(-a) = L(-a) L(n) + (n + a) L(n - a) + delta_{n,a} (n^3-n)/12 ell
    a, tail = modes[0], modes[1:]
    out = {}
    for mono, c in fraction_apply_monomial(params, n, tail).items():
        for mono2, c2 in fraction_apply_monomial(params, -a, mono).items():
            out[mono2] = out.get(mono2, F(0)) + c * c2
    for mono, c in fraction_apply_monomial(params, n - a, tail).items():
        out[mono] = out.get(mono, F(0)) + (n + a) * c
    if n == a:
        out[tail] = out.get(tail, F(0)) + F(n**3 - n, 12) * params.ell
    return {m: c for m, c in out.items() if c}


@functools.cache
def fraction_pairing(params, a, b):
    """<a, b> on PBW monomials, peeled from the left in Fraction arithmetic."""
    if sum(a) != sum(b):
        return F(0)
    current = {b: F(1)}
    for n in a:
        nxt = {}
        for modes, c in current.items():
            for mono, c2 in fraction_apply_monomial(params, n, modes).items():
                nxt[mono] = nxt.get(mono, F(0)) + c * c2
        current = nxt
    return current.get((), F(0))


ISING_PARAMS = [ising_params(0), ising_params(F(1, 2)), ising_params(F(1, 16))]

# Graded dimensions of the three irreducible modules at central charge 1/2,
# frozen from the dense Gram-rank oracle below (one run, levels 0..8).
ORACLE_DIMS = {
    F(0): [1, 0, 1, 1, 2, 2, 3, 3, 5],
    F(1, 2): [1, 1, 1, 1, 2, 2, 3, 4, 5],
    F(1, 16): [1, 1, 1, 2, 2, 3, 4, 5, 6],
}


def dense_rank(mat):
    """Plain rational RREF rank; deliberately independent of intmat."""
    mat = [row[:] for row in mat]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def fraction_det(mat):
    """Plain rational elimination determinant; deliberately independent of intmat."""
    mat = [[F(x) for x in row] for row in mat]
    det = F(1)
    for c in range(len(mat)):
        piv = next((i for i in range(c, len(mat)) if mat[i][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            f = mat[i][c] / mat[c][c]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return det


class TestBracket:
    def test_examples(self):
        assert bracket(2, -2) == (4, F(1, 2))
        assert bracket(3, 1) == (2, F(0))
        assert bracket(-1, 1) == (-2, F(0))
        assert bracket(0, 5) == (-5, F(0))

    def test_antisymmetry_of_structure_constants(self):
        for m in range(-8, 9):
            for n in range(-8, 9):
                lin, cen = bracket(m, n)
                lin2, cen2 = bracket(n, m)
                assert lin == -lin2
                assert cen == -cen2

    def test_central_specialization_at_ell_half(self):
        # (m^3 - m)/12 * 1/2 agrees with binom(m+1, 3)/4 for every integer m
        for m in range(-8, 9):
            _, cen = bracket(m, -m)
            assert cen * F(1, 2) == F((m + 1) * m * (m - 1), 24)


class TestApplyMode:
    def test_lowering_reorders(self):
        p = ising_params(0)
        v = VermaVector.monomial(p, (3,))
        got = apply_mode(-1, v)
        assert got.coefficient((3, 1)) == 1
        assert got.coefficient((4,)) == 2
        assert len(got.terms) == 2

    def test_raising_on_conformal_vector(self):
        p = ising_params(0)
        v = VermaVector.monomial(p, (2,))
        assert apply_mode(2, v) == F(1, 4) * VermaVector.lowest(p)

    def test_annihilation_and_weight(self):
        for p in ISING_PARAMS:
            v = VermaVector.lowest(p)
            assert apply_mode(1, v).is_zero()
            assert apply_mode(5, v).is_zero()
            assert apply_mode(0, v) == p.h * v
            w = VermaVector.monomial(p, (4, 2, 1))
            assert apply_mode(0, w) == (p.h + 7) * w

    def test_prepending_keeps_normal_order(self):
        p = ising_params(F(1, 16))
        v = VermaVector.monomial(p, (2, 1))
        assert apply_mode(-3, v) == VermaVector.monomial(p, (3, 2, 1))

    def test_commutator_identity_on_single_layers(self):
        # [L(a), L(b)] = (a-b) L(a+b) + central * ell on vectors L(c) v.
        for p in ISING_PARAMS:
            vecs = [VermaVector.lowest(p)] + [
                apply_mode(-c, VermaVector.lowest(p)) for c in range(1, 6)
            ]
            for a in range(-5, 6):
                for b in range(-5, 6):
                    lin, cen = bracket(a, b)
                    for w in vecs:
                        lhs = apply_mode(a, apply_mode(b, w)) - apply_mode(b, apply_mode(a, w))
                        rhs = lin * apply_mode(a + b, w) + (cen * p.ell) * w
                        assert lhs == rhs, (p, a, b)

    def test_commutator_identity_on_deep_monomial(self):
        p = ising_params(F(1, 2))
        w = VermaVector.monomial(p, (3, 2, 2, 1))
        for a, b in [(2, -3), (-4, 4), (1, 1), (5, -5), (-2, -3)]:
            lin, cen = bracket(a, b)
            lhs = apply_mode(a, apply_mode(b, w)) - apply_mode(b, apply_mode(a, w))
            rhs = lin * apply_mode(a + b, w) + (cen * p.ell) * w
            assert lhs == rhs

    @given(
        modes=st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4),
        start=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_mode_chains_stay_rational_and_graded(self, modes, start):
        p = ising_params(F(1, 16))
        v = VermaVector.monomial(p, (start,))
        level = start
        for n in modes:
            v = apply_mode(n, v)
            level -= n
        for mono, coeff in v.terms.items():
            assert isinstance(coeff, Fraction)
            assert sum(mono) == level


class TestShapovalov:
    def test_level_zero_and_one(self):
        p = ising_params(0)
        assert shapovalov_gram(p, 0) == [[1]]
        assert shapovalov_gram(p, 1) == [[0]]
        q = ising_params(F(1, 2))
        assert shapovalov_gram(q, 1) == [[1]]

    def test_vacuum_level_two(self):
        p = ising_params(0)
        assert partitions(2) == ((2,), (1, 1))
        assert shapovalov_gram(p, 2) == [[F(1, 4), 0], [0, 0]]

    def test_symmetry(self):
        for p in ISING_PARAMS:
            for level in range(7):
                g = shapovalov_gram(p, level)
                for i in range(len(g)):
                    for j in range(len(g)):
                        assert g[i][j] == g[j][i]

    def test_pairing_matches_gram(self):
        p = ising_params(F(1, 16))
        monos = partitions(3)
        g = shapovalov_gram(p, 3)
        for i, a in enumerate(monos):
            for j, b in enumerate(monos):
                assert pairing(VermaVector.monomial(p, a), VermaVector.monomial(p, b)) == g[i][j]

    def test_cross_level_pairing_vanishes(self):
        p = ising_params(0)
        a = VermaVector.monomial(p, (3,))
        b = VermaVector.monomial(p, (2, 2))
        assert pairing(a, b) == 0


def fermion_product(exponents, length):
    """Coefficients of prod (1 + t^e) over the exponents, for t^0 .. t^(length-1)."""
    coeffs = [1] + [0] * (length - 1)
    for e in exponents:
        for k in range(length - 1, e - 1, -1):
            coeffs[k] += coeffs[k - e]
    return coeffs


def boson_product(exponents, length):
    """Coefficients of prod 1 / (1 - t^e) over the exponents, for t^0 .. t^(length-1)."""
    coeffs = [1] + [0] * (length - 1)
    for e in exponents:
        for k in range(e, length):
            coeffs[k] += coeffs[k - e]
    return coeffs


def minimal_model_data(p, q):
    """Central charge and sorted distinct highest weights of the (p, q) minimal model.

    Requires coprime integers p, q >= 2. The weight grid runs over
    0 < m < p, 0 < n < q and is returned deduplicated in increasing order.
    """
    if p < 2 or q < 2 or p == q or gcd(p, q) != 1:
        raise ValueError(f"need distinct coprime integers >= 2, got ({p}, {q})")
    c = 1 - Fraction(6 * (p - q) ** 2, p * q)
    weights = {
        Fraction((n * p - m * q) ** 2 - (p - q) ** 2, 4 * p * q)
        for m, n in itertools.product(range(1, p), range(1, q))
    }
    return c, tuple(sorted(weights))


def full_scan_basis(params, level):
    """Reference pivot scan: every partition, bordered Fraction inverse, no stop.

    Pairings come from the Fraction route (fraction_pairing). A candidate is
    kept when its Schur complement s = d - g^T K^-1 g against the Gram block
    K on the kept monomials is nonzero; K^-1 is bordered as
    [[K^-1 + u u^T / s, -u / s], [-u^T / s, 1 / s]] with u = K^-1 g, and
    det K is the product of the kept s. Returns (pivots, gram, inverse, det)
    in the shape GradedBasis stores them.
    """
    monos = partitions(level)
    kept = []
    rows = []
    inv = []
    det = F(1)
    for idx, mono in enumerate(monos):
        g = [fraction_pairing(params, monos[j], mono) for j in kept]
        d = fraction_pairing(params, mono, mono)
        u = [sum((a * b for a, b in zip(row, g)), F(0)) for row in inv]
        s = d - sum((a * b for a, b in zip(g, u)), F(0))
        if not s:
            continue
        w = [x / s for x in u]
        for row, wi in zip(inv, w):
            for j, uj in enumerate(u):
                row[j] += wi * uj
            row.append(-wi)
        inv.append([-x for x in w] + [1 / s])
        det *= s
        kept.append(idx)
        rows.append(g + [d])
    n = len(kept)
    return (tuple(monos[i] for i in kept),
            tuple(tuple(rows[max(i, j)][min(i, j)] for j in range(n)) for i in range(n)),
            tuple(map(tuple, inv)),
            det)


def principal_minor_basis(params, level):
    """Reference pivot rule: keep idx when the minor on kept + [idx] is nonzero."""
    full = shapovalov_gram(params, level)
    kept = []
    for idx in range(len(full)):
        trial = kept + [idx]
        if frac_det([[full[i][j] for j in trial] for i in trial]):
            kept.append(idx)
    monos = partitions(level)
    return (tuple(monos[i] for i in kept),
            tuple(tuple(full[i][j] for j in kept) for i in kept))


# The Fock construction restated for the tests: the scale of each weight's
# integer images (the 1/2 in every L(-n) coefficient, and in Ramond also the
# 1/2 of psi(0) u1) and the norm of a basis state (1/2 when the Ramond bit 0,
# u1 = psi(0) u0, is set).
FOCK_SCALE = {F(0): 2, F(1, 2): 2, F(1, 16): 4}
FOCK_TOPS = {F(0): 14, F(1, 2): 14, F(1, 16): 16}
FOCK_IDS = ["h0", "h1_2", "h1_16"]


def fock_norm(h, state):
    return F(1, 2) if h == F(1, 16) and state & 1 else F(1)


def fresh_fock(h):
    return virasoro._Engine(ising_params(h)).fock


def fock_gram(fock, h, monos):
    """<a v, b v> for a, b in monos: the sum over basis states s of
    norm(s) a(s) b(s) on the integer images, over scale^(len a + len b)."""
    scale = F(FOCK_SCALE[h])
    return [[sum((fock_norm(h, s) * c * fock.image(b).get(s, 0)
                  for s, c in fock.image(a).items()), F(0)) / scale ** (len(a) + len(b))
             for b in monos] for a in monos]


class TestIrreducibleBasis:
    def test_dimensions_match_free_fermion_characters(self):
        # chi_0 + chi_{1/2} ~ prod_{r in N - 1/2} (1 + q^r); with t = q^{1/2} the
        # even and odd powers of t, 1/2 (prod (1 + q^r) +- prod (1 - q^r)), give
        # h = 0 and h = 1/2. chi_{1/16} ~ prod_{n >= 1} (1 + q^n).
        top = 12
        ns = fermion_product(range(1, 2 * top + 2, 2), 2 * top + 2)
        assert graded_dimensions(ising_params(0), top) == ns[0::2]
        assert graded_dimensions(ising_params(F(1, 2)), top) == ns[1::2]
        ramond = fermion_product(range(1, top + 1), top + 1)
        assert graded_dimensions(ising_params(F(1, 16)), top) == ramond

    def test_pivots_and_gram_match_principal_minor_rule(self):
        for p in ISING_PARAMS:
            for level in range(10):
                basis = irreducible_basis(p, level)
                assert (basis.pivots, basis.gram) == principal_minor_basis(p, level)

    def test_matches_full_scan_without_early_stop(self):
        # A character that undercounts would stop the scan short of a pivot.
        # The full scan pairs on the Fraction route and borders its own
        # inverse, a second route for the basis's Gram, inverse and det.
        for p in ISING_PARAMS:
            for level in range(13):
                basis = irreducible_basis(p, level)
                assert ((basis.pivots, basis.gram, basis.inverse, basis.det)
                        == full_scan_basis(p, level))

    def test_det_is_the_pivot_gram_determinant(self):
        # gram = V N V^T over scale^(len a + len b), V the pivots' integer
        # Fock images on the states of the level, square as the pivots
        # reach the character: det = det(V)^2 prod N / prod scale^(2 len).
        for h, top in FOCK_TOPS.items():
            fock, scale = fresh_fock(h), FOCK_SCALE[h]
            for level in range(top + 1):
                basis = irreducible_basis(ising_params(h), level)
                states = fock.states(level)
                v = [[fock.image(m).get(s, 0) for s in states] for m in basis.pivots]
                want = fraction_det(v) ** 2 * prod(fock_norm(h, s) for s in states)
                assert basis.det == want / prod(F(scale) ** (2 * len(m)) for m in basis.pivots)

    def test_overcounting_character_fails_the_check(self, monkeypatch, capsys):
        # A fresh engine cache, so no basis built before the patch is reused.
        monkeypatch.setattr(virasoro, "_engine", functools.cache(virasoro._Engine))
        true_dimension = virasoro.character_dimension

        def overcount(params, level):
            dim = true_dimension(params, level)
            return dim + 1 if level == 5 and dim is not None else dim

        monkeypatch.setattr(virasoro, "character_dimension", overcount)
        p = ising_params(F(1, 16))
        assert irreducible_basis(p, 4).dimension == 2
        with pytest.raises(ValueError, match="level 5"):
            irreducible_basis(p, 5)
        capsys.readouterr()
        assert cli.main(["vir", "dims", "--h", "1/16", "--max-level", "6"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "check failed" in err

    def test_dimensions_form_no_fraction_basis(self, monkeypatch):
        # A fresh engine cache, and no Fraction basis to be had: vir dims and a
        # tensor factor read each dimension from the pivot scan alone.
        monkeypatch.setattr(virasoro, "_engine", functools.cache(virasoro._Engine))
        monkeypatch.setattr(virasoro._Engine, "basis",
                            lambda self, level: pytest.fail("Fraction basis formed"))
        for h in virasoro.ISING_WEIGHTS:
            p = ising_params(h)
            dims = [virasoro.character_dimension(p, level) for level in range(13)]
            assert graded_dimensions(p, 12) == dims
            assert [tensor._Factor(h).dim(level) for level in range(13)] == dims

    def test_dimensions_match_frozen_oracle_values(self):
        for h, dims in ORACLE_DIMS.items():
            assert graded_dimensions(ising_params(h), 8) == dims

    def test_dense_rank_oracle_agrees_live(self):
        # Recompute a window of the oracle here instead of trusting the frozen list.
        for h in ORACLE_DIMS:
            p = ising_params(h)
            for level in range(7):
                assert irreducible_basis(p, level).dimension == dense_rank(
                    shapovalov_gram(p, level)
                )

    def test_vacuum_level_two_pivot_is_conformal_vector(self):
        basis = irreducible_basis(ising_params(0), 2)
        assert basis.pivots == ((2,),)
        assert basis.gram == ((F(1, 4),),)

    def test_pivot_gram_invertible(self):
        for p in ISING_PARAMS:
            for level in range(8):
                basis = irreducible_basis(p, level)
                assert dense_rank([list(r) for r in basis.gram]) == basis.dimension

    def test_stored_inverse_inverts_pivot_gram(self):
        for p in ISING_PARAMS:
            for level in range(9):
                basis = irreducible_basis(p, level)
                d = basis.dimension
                product = [[sum(basis.inverse[i][k] * basis.gram[k][j] for k in range(d))
                            for j in range(d)] for i in range(d)]
                assert product == [[F(int(i == j)) for j in range(d)] for i in range(d)]

    def test_reduce_is_identity_on_pivots(self):
        p = ising_params(F(1, 2))
        basis = irreducible_basis(p, 4)
        for j, piv in enumerate(basis.pivots):
            coords = reduce_vector(VermaVector.monomial(p, piv), basis)
            assert coords == [F(int(i == j)) for i in range(basis.dimension)]

    def test_reduce_kills_radical(self):
        # Kernel vectors of the dense Gram map to zero coordinates.
        p = ising_params(0)
        for level in range(2, 7):
            monos = partitions(level)
            g = shapovalov_gram(p, level)
            basis = irreducible_basis(p, level)
            # crude kernel search: columns of the RREF null space
            mat = [row[:] for row in g]
            ncols = len(monos)
            rref = [row[:] for row in mat]
            pivots = []
            r = 0
            for c in range(ncols):
                piv = next((i for i in range(r, len(rref)) if rref[i][c]), None)
                if piv is None:
                    continue
                rref[r], rref[piv] = rref[piv], rref[r]
                inv = 1 / rref[r][c]
                rref[r] = [x * inv for x in rref[r]]
                for i in range(len(rref)):
                    if i != r and rref[i][c]:
                        f = rref[i][c]
                        rref[i] = [x - f * y for x, y in zip(rref[i], rref[r])]
                pivots.append(c)
                r += 1
            free = [c for c in range(ncols) if c not in pivots]
            assert free, f"expected a radical at level {level}"
            for fc in free:
                coeffs = [F(0)] * ncols
                coeffs[fc] = F(1)
                for k, pc in enumerate(pivots):
                    coeffs[pc] = -rref[k][fc]
                vec = VermaVector(p, {monos[i]: coeffs[i] for i in range(ncols)})
                assert all(x == 0 for x in reduce_vector(vec, basis))

    def test_reduce_level_mismatch_raises(self):
        p = ising_params(0)
        with pytest.raises(ValueError):
            reduce_vector(VermaVector.monomial(p, (3,)), irreducible_basis(p, 2))


class TestFockRoute:
    """The free-fermion scan of _Fock against the Verma routes above."""

    @pytest.mark.parametrize("h", FOCK_TOPS, ids=FOCK_IDS)
    def test_pivots_match_principal_minor_rule(self, h):
        fock = fresh_fock(h)
        for level in range(FOCK_TOPS[h] + 1):
            want = principal_minor_basis(ising_params(h), level)[0]
            assert fock.pivots(level) == want, (h, level)

    @pytest.mark.parametrize("h", FOCK_TOPS, ids=FOCK_IDS)
    def test_pivots_match_full_scan(self, h):
        fock = fresh_fock(h)
        for level in range(FOCK_TOPS[h] + 1):
            assert fock.pivots(level) == full_scan_basis(ising_params(h), level)[0], (h, level)

    def test_fock_gram_is_the_shapovalov_gram(self):
        for h in FOCK_SCALE:
            p, fock = ising_params(h), fresh_fock(h)
            for level in range(8):
                want = shapovalov_gram(p, level)
                assert fock_gram(fock, h, partitions(level)) == want, (h, level)

    @pytest.mark.parametrize("h", FOCK_TOPS, ids=FOCK_IDS)
    def test_basis_gram_and_inverse_match_the_fock_gram(self, h):
        fock = fresh_fock(h)
        for level in range(FOCK_TOPS[h] + 1):
            basis = irreducible_basis(ising_params(h), level)
            assert [list(row) for row in basis.gram] == fock_gram(fock, h, basis.pivots)
            d = basis.dimension
            product = [[sum(basis.inverse[i][k] * basis.gram[k][j] for k in range(d))
                        for j in range(d)] for i in range(d)]
            assert product == [[int(i == j) for j in range(d)] for i in range(d)], (h, level)

    def test_level_pieces_have_the_character_dimension(self):
        top = 20
        ns = fermion_product(range(1, 2 * top + 2, 2), 2 * top + 2)
        ramond = fermion_product(range(1, top + 1), top + 1)
        for h, dims in zip(virasoro.ISING_WEIGHTS, (ns[0::2], ns[1::2], ramond)):
            fock = fresh_fock(h)
            assert [len(fock.states(level)) for level in range(top + 1)] == dims
            for level in range(9):
                images = [fock.image(m) for m in partitions(level)]
                assert set().union(*images) <= set(fock.states(level))

    def test_dimensions_form_no_pairing(self, monkeypatch, capsys):
        # A fresh engine cache, and no Shapovalov pairing to be had: vir dims
        # and a tensor factor read each dimension from the Fock scan.
        monkeypatch.setattr(virasoro, "_engine", functools.cache(virasoro._Engine))
        monkeypatch.setattr(virasoro._Engine, "_pairing_same_level",
                            lambda self, a, b: pytest.fail("Shapovalov pairing formed"))
        for h in virasoro.ISING_WEIGHTS:
            p = ising_params(h)
            dims = [virasoro.character_dimension(p, level) for level in range(17)]
            assert graded_dimensions(p, 16) == dims
            assert [tensor._Factor(h).dim(level) for level in range(17)] == dims
        assert cli.main(["vir", "dims", "--h", "1/16", "--max-level", "19"]) == 0
        assert "check failed" not in capsys.readouterr().err

    def test_bordering_rejects_a_dependent_fock_pivot(self, monkeypatch):
        # L(-1) v is null in the vacuum module: as a Fock pivot it gives a
        # singular Gram block, and the basis reports the disagreement.
        monkeypatch.setattr(virasoro._Fock, "pivots", lambda self, level: ((1,),))
        with pytest.raises(ValueError, match="singular Fock pivot Gram at level 1"):
            virasoro._Engine(ising_params(0)).basis(1)


class TestMinimalModels:
    def test_ising_point(self):
        c, weights = minimal_model_data(3, 4)
        assert c == F(1, 2)
        assert weights == (F(0), F(1, 16), F(1, 2))

    def test_trivial_point(self):
        c, weights = minimal_model_data(2, 3)
        assert c == 0
        assert weights == (F(0),)

    def test_next_point_frozen_cross_check(self):
        # Frozen from direct substitution into the weight grid formula.
        c, weights = minimal_model_data(3, 5)
        assert c == F(-3, 5)
        assert weights == (F(-1, 20), F(0), F(1, 5), F(3, 4))
        # independent recomputation, loop written out longhand
        seen = set()
        for m in (1, 2):
            for n in (1, 2, 3, 4):
                seen.add(F((5 * m - 3 * n) ** 2 - 4, 60))
        assert tuple(sorted(seen)) == weights

    def test_symmetric_in_p_q(self):
        assert minimal_model_data(4, 3) == minimal_model_data(3, 4)

    def test_rejects_bad_input(self):
        for p, q in [(2, 4), (3, 3), (1, 5), (6, 4)]:
            with pytest.raises(ValueError):
                minimal_model_data(p, q)


class TestNonIsingWeights:
    # No character is known to the engine here, so the scan runs over all
    # p(n) partitions, and the denominators (5, 20, ...) are not powers of 2.
    PARAMS = [CentralParams(minimal_model_data(3, 5)[0], h)
              for h in minimal_model_data(3, 5)[1]]
    # The Lee-Yang point (2, 5): c = -22/5, h in {-1/5, 0}.
    LEE_YANG = [CentralParams(minimal_model_data(2, 5)[0], h)
                for h in minimal_model_data(2, 5)[1]]

    def test_no_character_cap(self):
        for p in self.PARAMS:
            assert virasoro.character_dimension(p, 4) is None

    def test_matches_principal_minor_rule_and_dense_rank(self):
        for params, top in ((self.PARAMS, 6), (self.LEE_YANG, 8)):
            for p, level in itertools.product(params, range(top + 1)):
                basis = irreducible_basis(p, level)
                assert (basis.pivots, basis.gram) == principal_minor_basis(p, level)
                assert basis.dimension == dense_rank(shapovalov_gram(p, level))
                assert ((basis.pivots, basis.gram, basis.inverse, basis.det)
                        == full_scan_basis(p, level))

    def test_lee_yang_dimensions_are_rogers_ramanujan_products(self):
        # chi_{-1/5} ~ prod over n = +-1 mod 5 of 1 / (1 - q^n), and chi_0 the
        # same over n = +-2 mod 5.
        top = 12
        fifth, vacuum = (boson_product([n for n in range(1, top + 1) if n % 5 in residues],
                                       top + 1) for residues in ((1, 4), (2, 3)))
        assert fifth[:9] == [1, 1, 1, 1, 2, 2, 3, 3, 4]
        assert vacuum[:9] == [1, 0, 1, 1, 1, 1, 2, 2, 3]
        assert [p.h for p in self.LEE_YANG] == [F(-1, 5), 0]
        assert [graded_dimensions(p, top) for p in self.LEE_YANG] == [fifth, vacuum]


class TestScalingAdmissible:
    def test_examples(self):
        assert not scaling_admissible(1, F(1, 2))
        assert scaling_admissible(2, F(1, 2))
        assert scaling_admissible(2, 1)
        assert not scaling_admissible(F(1, 2), F(1, 2))
        assert scaling_admissible(F(1, 2), 8)
        assert not scaling_admissible(4, F(1,16))

    def test_zero_charge(self):
        assert scaling_admissible(7, 0)


class TestVermaVectorAlgebra:
    def test_add_scale_cancel(self):
        p = ising_params(0)
        a = VermaVector.monomial(p, (2,))
        b = VermaVector.monomial(p, (1, 1))
        v = 3 * a + F(1, 2) * b
        w = v - 3 * a
        assert w == F(1, 2) * b
        assert (w - F(1, 2) * b).is_zero()

    def test_monomial_validation(self):
        p = ising_params(0)
        with pytest.raises(ValueError):
            VermaVector.monomial(p, (1, 2))
        with pytest.raises(ValueError):
            VermaVector.monomial(p, (0,))

    def test_mixed_params_rejected(self):
        a = VermaVector.lowest(ising_params(0))
        b = VermaVector.lowest(ising_params(F(1, 2)))
        with pytest.raises(ValueError):
            _ = a + b
        t = TensorVector.lowest(HVector.vacuum(2))
        with pytest.raises(ValueError):
            _ = a + t
        with pytest.raises(ValueError):
            _ = t + a
        with pytest.raises(ValueError):
            _ = t + TensorVector.lowest(HVector.vacuum(3))
        assert a != t and t != a

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            CentralParams(0.5, 0)

    def test_float_coefficient_rejected(self):
        p = ising_params(0)
        with pytest.raises(TypeError):
            VermaVector(p, {(2,): 0.5})
        with pytest.raises(TypeError):
            0.5 * VermaVector.monomial(p, (2,))
        assert VermaVector(p, {(2,): 1, (1, 1): F(1, 2)}).terms == {(2,): 1, (1, 1): F(1, 2)}


class TestIntegerEngine:
    """The integer straightening against the Fraction route.

    With den = lcm(den(h), den(ell/2)), L(n) on modes gives mono an int over
    den^(len(modes) + 1 - len(mono)), and <a, b> is an int over
    den^(len(a) + len(b)).
    """

    PARAMS = ISING_PARAMS + TestNonIsingWeights.PARAMS

    @staticmethod
    def monomials(top):
        return [m for level in range(top + 1) for m in partitions(level)]

    def test_denominators(self):
        assert [virasoro._Engine(p).den for p in ISING_PARAMS] == [4, 4, 16]
        # (3, 5) point: ell/2 = -3/10 and h in {-1/20, 0, 1/5, 3/4}.
        assert [virasoro._Engine(p).den for p in TestNonIsingWeights.PARAMS] == [20, 10, 10, 20]

    def test_apply_mode_matches_fraction_route(self):
        for p in self.PARAMS:
            for modes in self.monomials(6):
                for n in range(-4, 5):
                    got = apply_mode(n, VermaVector.monomial(p, modes))
                    assert got.terms == fraction_apply_monomial(p, n, modes), (p, n, modes)

    def test_apply_monomial_divisibility_invariant(self):
        for p in self.PARAMS:
            eng = virasoro._Engine(p)
            for modes in self.monomials(6):
                for n in range(-4, 5):
                    scaled = {}
                    for mono, c in fraction_apply_monomial(p, n, modes).items():
                        x = c * eng.den ** (len(modes) + 1 - len(mono))
                        assert x.denominator == 1, (p, n, modes, mono)
                        scaled[mono] = x.numerator
                    got = eng.apply_monomial(n, modes)
                    assert all(type(c) is int for c in got.values())
                    assert got == scaled, (p, n, modes)

    def test_pairing_matches_fraction_route(self):
        for p in self.PARAMS:
            eng = virasoro._Engine(p)
            for level in range(9):
                monos = partitions(level)
                for a in monos:
                    for b in monos:
                        want = fraction_pairing(p, a, b)
                        assert eng.pairing_monomials(a, b) == want, (p, a, b)
                        x = want * eng.den ** (len(a) + len(b))
                        assert x.denominator == 1
                        assert eng._pairing_same_level(a, b) == x.numerator
            assert eng.pairing_monomials((3,), (2, 2)) == 0

    @given(
        ell=st.fractions(min_value=-3, max_value=3, max_denominator=12),
        h=st.fractions(min_value=-2, max_value=2, max_denominator=24),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_params_match_fraction_route(self, ell, h):
        p = CentralParams(ell, h)
        eng = virasoro._Engine(p)
        assert all(x.denominator == 1 for x in (eng.den * h, eng.den * ell / 2))
        for modes in self.monomials(4):
            for n in range(-3, 4):
                got = apply_mode(n, VermaVector.monomial(p, modes))
                assert got.terms == fraction_apply_monomial(p, n, modes)
        for level in range(7):
            basis = eng.basis(level)
            assert (basis.pivots, basis.gram, basis.inverse, basis.det) == full_scan_basis(p, level)
