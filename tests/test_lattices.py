"""Spanning lattices, Hermite bases, Gram matrices, duals, saturation."""

import functools
import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingforms import intertwining, lattices, tensor, virasoro
from isingforms.codes import (
    BinaryCode,
    RequestError,
    Word,
    c16,
    complement_reduce,
    even_code,
    goodform_conditions,
    hamming8,
    sign_basis,
    trivial_code,
)
from isingforms.intmat import (
    RowSpanSolver,
    det_bareiss,
    frac_det,
    frac_inverse,
    hnf_solve,
)
from isingforms.lattices import (
    _from_rows,
    admissible_weights,
    compare,
    contains,
    evaluate_monomial,
    gram_matrix,
    graded_dual,
    lattice_at_level,
    saturate_generated_form,
    spanning_monomials,
)
from isingforms.tensor import (
    HVector,
    TensorVector,
    apply_factor_mode,
    form_map,
    lt_action,
    omega_component,
    omega_total,
    space,
)
from isingforms.virasoro import irreducible_basis, ising_params, scaling_admissible
from test_intmat import dense, dense_hnf, lattice_coefficients, sparse, sweep_hnf

H4_VAC = HVector.vacuum(4)
H4_HALF = HVector.parse("1/2,1/2,0,0")


def word(chars: str) -> Word:
    return Word.from_string(chars)


def from_fraction_rows(weights, code, level, rows):
    """The lattice spanned by rational rows (Fractions or ints), cleared to
    integer rows over their common denominator."""
    den = lcm(*(Fraction(c).denominator for row in rows for c in row))
    return _from_rows(weights, code, level, sparse([[int(c * den) for c in row] for row in rows]),
                      Fraction(1, den))


def dense_basis(entry):
    """The Hermite rows of a lattice as dense integer tuples over its keys."""
    return tuple(map(tuple, dense(entry.basis, entry.ambient_dim)))


def basis_vectors(entry):
    """The Hermite rows of a lattice over its denominator, as TensorVectors."""
    keys = space(entry.weights).keys(entry.level)
    return [TensorVector(entry.weights, {keys[j]: Fraction(c, entry.denominator)
                                         for j, c in row.items()})
            for row in entry.basis]


def omega_word(T: Word) -> TensorVector:
    """The signed conformal vector attached to a subset."""
    return lt_action(T, -2, TensorVector.lowest(HVector.vacuum(T.n)))


class TestAdmissibility:
    def test_vacuum_and_even_half_support(self):
        assert admissible_weights(even_code(4), H4_VAC) == (True, "")
        assert admissible_weights(even_code(4), H4_HALF) == (True, "")

    def test_odd_half_support_rejected(self):
        ok, reason = admissible_weights(even_code(4), HVector.parse("1/2,0,0,0"))
        assert not ok and "odd" in reason

    def test_sixteenth_depends_on_codeword_weights(self):
        assert admissible_weights(c16(), HVector.sixteenth(16))[0]
        # length 4 cannot make (4 - 2|T|)/16 integral for the empty word
        ok, reason = admissible_weights(even_code(4), HVector.sixteenth(4))
        assert not ok and "eigenvalue" in reason
        # N - 2|T| a multiple of 8 on every codeword is not enough: the
        # eigenvalue is 1/2 on hamming8's empty word
        assert admissible_weights(hamming8(), HVector.sixteenth(8)) == (
            False, "zero-mode eigenvalue not integral for codeword 00000000")

    def test_mixed_sixteenth_rejected(self):
        ok, reason = admissible_weights(even_code(4), HVector.parse("1/16,1/16,0,0"))
        assert not ok and "mixed" in reason

    def test_length_mismatch(self):
        assert not admissible_weights(even_code(6), H4_VAC)[0]

    def test_spanning_monomials_raise_on_bad_input(self):
        with pytest.raises(ValueError):
            spanning_monomials(even_code(4), HVector.sixteenth(4), 2)

    def test_inadmissible_weights_are_a_request_before_the_form_conditions(self):
        # trivial:4 fails the form conditions; the weight vector is tested first
        with pytest.raises(RequestError, match="odd"):
            lattice_at_level(trivial_code(4), HVector.parse("1/2,0,0,0"), 1)
        with pytest.raises(ValueError, match="form conditions") as err:
            lattice_at_level(trivial_code(4), H4_VAC, 1)
        assert not isinstance(err.value, RequestError)


class TestSpanningMonomials:
    def test_vacuum_level_two(self):
        mons = spanning_monomials(even_code(4), H4_VAC, 2)
        assert len(mons) == 4
        assert all(len(m.ops) == 1 and m.ops[0][0] == 2 for m in mons)

    def test_vacuum_level_six_count(self):
        # shapes (6), (4,2), (3,3), (2,2,2) over 4 representatives
        mons = spanning_monomials(even_code(4), H4_VAC, 6)
        assert len(mons) == 4 + 16 + 10 + 20

    def test_vacuum_excludes_unit_modes(self):
        assert spanning_monomials(even_code(4), H4_VAC, 1) == []
        mons = spanning_monomials(even_code(4), H4_VAC, 3)
        assert len(mons) == 4

    def test_module_level_one(self):
        mons = spanning_monomials(even_code(4), H4_HALF, 1)
        assert len(mons) == 4
        assert all(m.ops[0][0] == 1 for m in mons)

    def test_level_zero_is_the_empty_product(self):
        mons = spanning_monomials(even_code(4), H4_VAC, 0)
        assert len(mons) == 1
        assert mons[0].label() == "v"

    def test_deterministic_order(self):
        a = spanning_monomials(even_code(4), H4_VAC, 4)
        b = spanning_monomials(even_code(4), H4_VAC, 4)
        assert a == b

    def test_modes_weakly_decreasing(self):
        for mon in spanning_monomials(even_code(4), H4_HALF, 4):
            modes = [m for m, _ in mon.ops]
            assert modes == sorted(modes, reverse=True)


class TestLatticeAtLevel:
    def test_vacuum_level_zero(self):
        entry = lattice_at_level(even_code(4), H4_VAC, 0)
        assert entry.rank == 1
        assert entry.denominator == 1
        assert dense_basis(entry) == ((1,),)

    def test_vacuum_level_two_membership(self):
        entry = lattice_at_level(even_code(4), H4_VAC, 2)
        assert entry.full_rank and entry.ambient_dim == 4
        assert contains(entry, omega_total(4))
        for i in range(1, 5):
            assert contains(entry, 4 * omega_component(4, i))
            assert not contains(entry, omega_component(4, i))

    def test_vacuum_full_rank_low_levels(self):
        for level in range(5):
            assert lattice_at_level(even_code(4), H4_VAC, level).full_rank

    def test_module_half_pair_level_one(self):
        entry = lattice_at_level(even_code(4), H4_HALF, 1)
        assert entry.denominator == 1
        assert dense_basis(entry) == ((1, 1), (0, 2))

    def test_module_half_pair_full_rank(self):
        for level in range(4):
            assert lattice_at_level(even_code(4), H4_HALF, level).full_rank

    def test_hamming_level_two(self):
        code = hamming8()
        entry = lattice_at_level(code, HVector.vacuum(8), 2)
        assert entry.full_rank and entry.ambient_dim == 8
        assert contains(entry, omega_total(8))
        assert contains(entry, 8 * omega_component(8, 3))

    def test_sixteenth_c16_low_levels(self):
        h = HVector.sixteenth(16)
        for level in (0, 1, 2):
            entry = lattice_at_level(c16(), h, level)
            assert entry.full_rank

    def test_contains_level_mismatch(self):
        entry = lattice_at_level(even_code(4), H4_VAC, 2)
        with pytest.raises(ValueError):
            contains(entry, evaluate_monomial(
                spanning_monomials(even_code(4), H4_VAC, 3)[0], H4_VAC))

    def test_lattice_hashes_with_its_code(self):
        entry = lattice_at_level(even_code(4), H4_VAC, 2)
        again = entry._replace(code=even_code(4))
        assert entry.code is not again.code
        assert hash(entry) == hash(again)
        assert {entry, again} == {entry}

    def test_zero_vector_always_contained(self):
        entry = lattice_at_level(even_code(4), H4_VAC, 2)
        assert contains(entry, TensorVector(H4_VAC))


class TestFromRows:
    def test_zero_or_no_rows_give_the_zero_lattice(self):
        for rows in ([], [[0, 0, 0, 0]]):
            entry = _from_rows(H4_VAC, None, 2, sparse(rows), Fraction(3, 7))
            assert (entry.denominator, entry.basis, entry.rank) == (1, (), 0)

    def test_content_and_scale_give_the_least_denominator(self):
        # content 2 times scale 1/4 is 1/2 over the primitive rows (3, 0), (0, 2)
        rows = sparse([[0, 4, 0, 0], [6, 0, 0, 0]])
        entry = _from_rows(H4_VAC, None, 2, rows, Fraction(1, 4))
        assert entry.denominator == 2
        assert dense_basis(entry) == ((3, 0, 0, 0), (0, 2, 0, 0))
        entry = _from_rows(H4_VAC, None, 2, rows, Fraction(3))
        assert (entry.denominator, dense_basis(entry)) == (1, ((18, 0, 0, 0), (0, 12, 0, 0)))


def monomial_route(code, weights, level):
    """The lattice as the Z-span of every straightened product's vector."""
    rows = [evaluate_monomial(mon, weights).coordinates(level)
            for mon in spanning_monomials(code, weights, level)]
    return from_fraction_rows(weights, code, level, rows)


# (code, weights, top level) cases whose levels 0..top are checked against a
# slower route; CASE_IDS name them
CASES = [
    (even_code(4), H4_VAC, 6),
    (even_code(4), H4_HALF, 5),
    (even_code(4), HVector.parse("1/2,1/2,1/2,1/2"), 4),
    (hamming8(), HVector.parse("1/2,1/2,0,0,0,0,0,0"), 3),
    (c16(), HVector.sixteenth(16), 1),
]
CASE_IDS = ["even4-vacuum", "even4-half-pair", "even4-all-half",
            "hamming8-half-pair", "c16-sixteenth"]


def full_generator_route(code, weights, top):
    """Levels 0..top, each the span of L_T(-m) b over every mode m >= the
    lowest one, through lt_action: no mode left out."""
    reps = complement_reduce(code)
    min_mode = 2 if weights.total == 0 else 1
    entries = []
    for n in range(top + 1):
        if n == 0:
            rows = [TensorVector.lowest(weights).coordinates(0)]
        else:
            rows = [lt_action(t, -m, b).coordinates(n)
                    for m in range(min_mode, n + 1)
                    for b in basis_vectors(entries[n - m])
                    for t in reps]
        entries.append(from_fraction_rows(weights, code, n, rows))
    return entries


class TestOddModePruning:
    def test_generator_modes(self):
        assert lattices._generator_modes(1, 7) == [6, 4, 2, 1]
        assert lattices._generator_modes(2, 9) == [8, 6, 4, 3, 2]
        assert lattices._generator_modes(2, 1) == []

    @pytest.mark.parametrize("code, weights, top", [
        (hamming8(), HVector.parse("1/2,1/2,0,0,0,0,0,0"), 5),
        (even_code(4), H4_VAC, 8),
        (even_code(4), H4_HALF, 7),
        (hamming8(), HVector.vacuum(8), 6),
        (c16(), HVector.sixteenth(16), 2),
    ], ids=["hamming8-half-pair", "even4-vacuum", "even4-half-pair",
            "hamming8-vacuum", "c16-sixteenth"])
    def test_levels_match_every_mode(self, code, weights, top):
        for level, want in enumerate(full_generator_route(code, weights, top)):
            assert lattice_at_level(code, weights, level) == want


class TestSignBasis:
    @pytest.mark.parametrize("code, rank", [(even_code(4), 4), (hamming8(), 8), (c16(), 16)],
                             ids=["even4", "hamming8", "c16"])
    def test_hermite_basis_of_every_codewords_signs(self, code, rank):
        basis = [list(row) for row in sign_basis(code)]
        signs = [t.signs() for t in code.words()]
        assert dense_hnf(basis) == basis == sweep_hnf(signs) == dense_hnf(signs[::-1])
        assert len(basis) == rank == RowSpanSolver(signs).rank
        pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
        assert pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(basis, pivots)):
            assert row[c] > 0
            assert all(0 <= above[c] < row[c] for above in basis[:i])


def per_codeword_levels(monkeypatch, code, weights, top):
    """Levels 0..top built on one sign row s(T) per complement-reduced
    codeword T in place of the sign basis, each level built afresh."""
    lattices._level.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(lattices, "sign_basis",
                      lambda c: [t.signs() for t in complement_reduce(c)])
        levels = [lattice_at_level(code, weights, level) for level in range(top + 1)]
    lattices._level.cache_clear()
    return levels


class TestSignBasisRoute:
    @pytest.mark.parametrize("code, weights, top", [
        (even_code(4), H4_HALF, 7),
        (even_code(8), HVector.vacuum(8), 5),
        (even_code(8), HVector.parse("1/2,1/2,0,0,0,0,0,0"), 5),
        (hamming8(), HVector.vacuum(8), 5),
        (hamming8(), HVector.parse("1/2,1/2,0,0,0,0,0,0"), 5),
        (c16(), HVector.sixteenth(16), 2),
    ], ids=["even4-half-pair", "even8-vacuum", "even8-half-pair", "hamming8-vacuum",
            "hamming8-half-pair", "c16-sixteenth"])
    def test_levels_match_per_codeword_signs(self, monkeypatch, code, weights, top):
        """The lattice is Z-linear in the sign vector, so the sign basis and
        the codewords' own signs span the same levels."""
        for level, want in enumerate(per_codeword_levels(monkeypatch, code, weights, top)):
            got = lattice_at_level(code, weights, level)
            assert (got.denominator, got.basis) == (want.denominator, want.basis)


def in_lattice(entry, big, row) -> bool:
    """Whether the integer row over big lies in the lattice: first the
    denominator, then the Hermite solve."""
    scaled = {j: c * entry.denominator for j, c in row.items()}
    if any(c % big for c in scaled.values()):
        return False
    return hnf_solve(entry.basis, {j: c // big for j, c in scaled.items()}) is not None


def closure_failures(code, weights, top):
    """The (n, k) with n + k <= top, in order of n and then k, at which some
    Hermite row of level n + k leaves level n under sum_i s_i L^(i)(k), for
    the signs s of some complement-reduced codeword. Levels come from
    lattices._level, which skips the form conditions lattice_at_level
    checks; the signs are every representative's own, not the sign basis the
    build combines, so the check shares no basis with it."""
    signs = [t.signs() for t in complement_reduce(code)]
    failures = []
    for n in range(top + 1):
        target = lattices._level(code, weights, n)
        for k in range(top - n + 1):
            source = lattices._level(code, weights, n + k)
            items = [(-k, source.denominator, b, signs) for b in source.basis]
            big, images = tensor.lowered_rows(weights, n, items)
            if not all(in_lattice(target, big, row) for rows in images for row in rows):
                failures.append((n, k))
    return failures


class TestModeClosure:
    """An integral form is closed under the modes of Y(omega_T, x), k >= 0
    included: each level lattice maps into the lower ones under L_T(k). The
    build only lowers, so this is a property of the lattices, not of their
    construction. The form conditions do their work at k = 2, where
    [L_S(2), L_T(-2)] carries the central term (N - 2|S+T|)/4: that is
    integral for every S and T exactly when 4 divides N and every codeword
    is even."""

    @pytest.mark.parametrize("code, weights, top", [
        (even_code(4), H4_VAC, 8),
        (hamming8(), HVector.parse("1/2,1/2,0,0,0,0,0,0"), 5),
        (c16(), HVector.vacuum(16), 4),
        (c16(), HVector.sixteenth(16), 2),
        (even_code(4), HVector.parse("1/2,1/2,1/2,1/2"), 6),
    ], ids=["even4-vacuum", "hamming8-half-pair", "c16-vacuum", "c16-sixteenth",
            "even4-all-half"])
    def test_levels_are_closed_under_every_mode(self, code, weights, top):
        assert closure_failures(code, weights, top) == []

    @pytest.mark.parametrize("code", [
        even_code(6),
        BinaryCode(8, hamming8().basis() + [Word.from_string("10000000")]),
    ], ids=["even6", "hamming8-plus-10000000"])
    def test_a_failed_form_condition_fails_first_at_level_0_mode_2(self, code):
        report = goodform_conditions(code)
        failed = [name for name in ("n_multiple_of_4", "inside_even_code", "contains_full_set",
                                    "separating") if not getattr(report, name)]
        assert failed == (["n_multiple_of_4"] if code.n == 6 else ["inside_even_code"])
        assert closure_failures(code, HVector.vacuum(code.n), 2)[0] == (0, 2)


class TestRecursionAgainstMonomials:
    @pytest.mark.parametrize("code, weights, top", CASES, ids=CASE_IDS)
    def test_levels_match_monomial_route(self, code, weights, top):
        for level in range(top + 1):
            got = lattice_at_level(code, weights, level)
            want = monomial_route(code, weights, level)
            assert got.basis == want.basis
            assert got.denominator == want.denominator
            assert got.ambient_dim == want.ambient_dim

    @pytest.mark.parametrize("code, weights, top", [
        (hamming8(), HVector.vacuum(8), 5),
        (even_code(4), H4_HALF, 5),
    ], ids=["hamming8-vacuum", "even4-half-pair"])
    def test_top_level_first_matches_levels_in_order(self, code, weights, top):
        """The top level asked for first, then each lower one, gives the
        lattices of a fresh build in order."""
        lattices._level.cache_clear()
        top_first = {level: lattice_at_level(code, weights, level)
                     for level in range(top, -1, -1)}
        lattices._level.cache_clear()
        in_order = {level: lattice_at_level(code, weights, level) for level in range(top + 1)}
        assert top_first == in_order

    def test_bad_requests_raise(self):
        with pytest.raises(ValueError):
            lattice_at_level(even_code(4), H4_VAC, -1)
        with pytest.raises(ValueError):
            lattice_at_level(even_code(4), HVector.sixteenth(4), 2)


class TestGram:
    def stated_basis(self):
        v = TensorVector.lowest(H4_HALF)
        plus = apply_factor_mode(1, -1, v) + apply_factor_mode(2, -1, v)
        minus = apply_factor_mode(1, -1, v) - apply_factor_mode(2, -1, v)
        return plus, minus

    def test_level_zero(self):
        assert gram_matrix(H4_VAC, 0, [TensorVector.lowest(H4_VAC)]) == [[1]]

    def test_stated_basis_is_diagonal_two(self):
        plus, minus = self.stated_basis()
        g = gram_matrix(H4_HALF, 1, [plus, minus])
        assert g == [[2, 0], [0, 2]]

    def test_accepts_coordinate_rows(self):
        g = gram_matrix(H4_HALF, 1, [[1, 0], [0, 1]])
        assert g == [[1, 0], [0, 1]]

    def test_symmetry(self):
        entry = lattice_at_level(even_code(4), H4_VAC, 4)
        g = gram_matrix(H4_VAC, 4, basis_vectors(entry))
        assert all(g[i][j] == g[j][i] for i in range(len(g)) for j in range(len(g)))

    def test_float_coordinates_rejected(self):
        with pytest.raises(TypeError):
            gram_matrix(H4_HALF, 1, [[0.5, 0]])

    @pytest.mark.parametrize("row", [[1], [1, 0, 0]], ids=["short", "long"])
    def test_coordinate_row_of_the_wrong_length_rejected(self, row):
        with pytest.raises(ValueError):
            gram_matrix(H4_HALF, 1, [[0, 1], row])

    def test_vector_of_another_module_rejected(self):
        """A level 2 vector of W_(0,1/2) has the norm 1/4 there; paired under
        (1/2, 0) its coordinates would read 9/4."""
        own = HVector.parse("0,1/2")
        v = TensorVector(own, {space(own).keys(2)[0]: Fraction(1)})
        assert gram_matrix(own, 2, [v]) == [[Fraction(1, 4)]]
        with pytest.raises(ValueError, match="different tensor module"):
            gram_matrix(HVector.parse("1/2,0"), 2, [v])


def level_patterns(level, parts):
    """Every tuple of parts factor levels, each >= 0, that sum to level."""
    if parts == 1:
        yield (level,)
        return
    for k in range(level + 1):
        for rest in level_patterns(level - k, parts - 1):
            yield (k, *rest)


def dense_key_gram(weights, level):
    """The invariant form on the state keys as one dense matrix: entry
    (k1, k2) is the product over factors of the pivot Gram entries, zero
    where the factor levels differ."""
    sp = space(weights)
    keys = sp.keys(level)
    out = []
    for k1 in keys:
        row = []
        for k2 in keys:
            p = Fraction(1)
            for pos, (s1, s2) in enumerate(zip(k1, k2)):
                l1 = tensor._sid_level(s1)
                if l1 != tensor._sid_level(s2):
                    p = Fraction(0)
                    break
                g = sp.factors[pos].basis(l1).gram
                p *= g[s1 % tensor._SID_STRIDE][s2 % tensor._SID_STRIDE]
            row.append(p)
        out.append(row)
    return out


class TestFactorwiseForm:
    """The per-factor form against the dense key Gram P as oracle."""

    @pytest.mark.parametrize("code, weights, top", CASES, ids=CASE_IDS)
    def test_gram_matrix_is_coords_p_coords_transpose(self, code, weights, top):
        for level in range(top + 1):
            entry = lattice_at_level(code, weights, level)
            coords = [v.coordinates(level) for v in basis_vectors(entry)]
            p = dense_key_gram(weights, level)
            expected = [[sum((a * p[i][j] * b
                              for i, a in enumerate(x) if a
                              for j, b in enumerate(y) if b), Fraction(0))
                         for y in coords]
                        for x in coords]
            assert gram_matrix(weights, level, coords) == expected

    @pytest.mark.parametrize("code, weights, top", CASES, ids=CASE_IDS)
    def test_dense_determinant_is_the_kronecker_product_of_factor_grams(
            self, code, weights, top):
        """P is a direct sum, over factor-level patterns, of Kronecker
        products of the factors' pivot Grams, so det P is the product over
        patterns of prod_i det(G_i)^(prod_{j != i} dim_j), and it is nonzero.
        The patterns are enumerated here, not read off the space's keys."""
        for level in range(top + 1):
            want = Fraction(1)
            for pattern in level_patterns(level, weights.n):
                grams = [irreducible_basis(ising_params(h), k).gram
                         for h, k in zip(weights.entries, pattern)]
                for i, g in enumerate(grams):
                    want *= frac_det(g) ** prod(len(o) for j, o in enumerate(grams) if j != i)
            got = frac_det(dense_key_gram(weights, level))
            assert got == want and got != 0

    def test_preimage_matches_dense_inverse(self):
        """T P^-1 from the factors' stored inverses against frac_inverse of
        the dense key Gram, on a weight vector whose factor inverses carry
        the odd denominators 49 and 27 by level 6, and P^-1 (P v) = v."""
        weights = HVector.parse("1/16,1/2,0")
        t6, _ = form_map(weights, 6, [], inverse=True)
        assert t6 % 49 == 0 and t6 % 27 == 0
        rng = random.Random(14)
        for level in range(7):
            keys = space(weights).keys(level)
            inv = frac_inverse(dense_key_gram(weights, level))
            xs = [[rng.randint(-5, 5) for _ in keys] for _ in range(3)]
            s, images = form_map(weights, level, sparse(xs))
            t, preimages = form_map(weights, level, sparse(xs), inverse=True)
            _, round_trips = form_map(weights, level, images, inverse=True)
            for x, preimage, back in zip(xs, dense(preimages, len(keys)),
                                         dense(round_trips, len(keys)), strict=True):
                expected = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in inv]
                assert [Fraction(c, t) for c in preimage] == expected
                assert back == [s * t * c for c in x]

    @pytest.mark.parametrize("factor_level", [2, 3, 4])
    def test_singular_factor_gram_stops_the_first_level_that_uses_it(
            self, monkeypatch, factor_level):
        """A null monomial L(-1)^k put first among the vacuum Fock pivots at
        factor level k makes that pivot Gram singular. The correlation builds
        and checks through level k - 1, and from level k on the build raises
        where the factor block is inverted."""
        # Fresh caches, so no factor basis built before the patch is reused.
        monkeypatch.setattr(virasoro, "_engine", functools.cache(virasoro._Engine))
        monkeypatch.setattr(tensor, "_factor", functools.cache(tensor._Factor))
        fresh_space = functools.cache(tensor.TensorSpace)
        for module in (tensor, lattices, intertwining):
            monkeypatch.setattr(module, "space", fresh_space)
        real_pivots = virasoro._Fock.pivots

        def null_first(self, level):
            pivots = real_pivots(self, level)
            if self.params.h == 0 and level == factor_level:
                return ((1,) * level,) + pivots[1:]
            return pivots

        monkeypatch.setattr(virasoro._Fock, "pivots", null_first)
        spec = intertwining.TripleSpec(H4_HALF, H4_HALF, H4_VAC, even_code(4), Fraction(1))
        below = intertwining.build_correlation(spec, factor_level - 1)
        assert intertwining.check_well_defined(below).well_defined
        for top in (factor_level, 5):
            with pytest.raises(ValueError,
                               match=f"singular Fock pivot Gram at level {factor_level}"):
                intertwining.check_well_defined(intertwining.build_correlation(spec, top))


def dense_dual(entry):
    """The dual as the dense product frac_inverse(G) B, with index |det G|."""
    rows = [[Fraction(c, entry.denominator) for c in row] for row in dense_basis(entry)]
    gram = gram_matrix(entry.weights, entry.level, rows)
    inv = frac_inverse(gram)
    dual_rows = [[sum((inv[i][k] * rows[k][j] for k in range(len(rows))), Fraction(0))
                  for j in range(entry.ambient_dim)] for i in range(len(rows))]
    dual = from_fraction_rows(entry.weights, entry.code, entry.level, dual_rows)
    return dual, abs(frac_det(gram))


DUAL_CASES = CASES + [(hamming8(), HVector.vacuum(8), 4)]


class TestDual:
    @pytest.mark.parametrize("code, weights, top", DUAL_CASES,
                             ids=CASE_IDS + ["hamming8-vacuum"])
    def test_matches_dense_inverse_and_determinant(self, code, weights, top):
        for level in range(top + 1):
            entry = lattice_at_level(code, weights, level)
            if not entry.full_rank:
                continue
            rep = graded_dual(entry)
            dual, index = dense_dual(entry)
            assert (rep.dual.basis, rep.dual.denominator) == (dual.basis, dual.denominator)
            assert rep.index == index and type(rep.index) is Fraction

    def test_example_dual_index_four(self):
        entry = lattice_at_level(even_code(4), H4_HALF, 1)
        rep = graded_dual(entry)
        assert rep.index == 4
        assert rep.contains_lattice
        assert not rep.self_dual
        v = TensorVector.lowest(H4_HALF)
        half = Fraction(1, 2)
        plus = half * (apply_factor_mode(1, -1, v) + apply_factor_mode(2, -1, v))
        minus = half * (apply_factor_mode(1, -1, v) - apply_factor_mode(2, -1, v))
        assert contains(rep.dual, plus)
        assert contains(rep.dual, minus)
        report = compare(entry, rep.dual)
        assert report.a_in_b and not report.b_in_a
        assert report.index == 4

    def test_level_zero_self_dual(self):
        entry = lattice_at_level(even_code(4), H4_HALF, 0)
        rep = graded_dual(entry)
        assert rep.index == 1
        assert rep.self_dual
        assert (rep.dual.denominator, rep.dual.basis) == (entry.denominator, entry.basis)

    def test_degenerate_gram_rejected(self, monkeypatch):
        entry = lattice_at_level(even_code(4), H4_HALF, 0)
        real = lattices.form_map

        def zero_images(weights, level, rows, inverse=False):
            scale, images = real(weights, level, rows, inverse)
            return scale, images if inverse else [{} for _ in images]

        monkeypatch.setattr(lattices, "form_map", zero_images)
        with pytest.raises(ValueError, match="degenerate Gram matrix"):
            graded_dual(entry)

    def test_preimage_off_the_gram_route_rejected(self, monkeypatch):
        """The integer check ties the printed Gram to the dual: a P^-1 map
        off by a factor 2 makes them disagree."""
        entry = lattice_at_level(even_code(4), H4_HALF, 2)
        real = lattices.form_map

        def doubled_preimages(weights, level, rows, inverse=False):
            scale, images = real(weights, level, rows, inverse)
            return scale, ([{j: 2 * c for j, c in row.items()} for row in images]
                           if inverse else images)

        monkeypatch.setattr(lattices, "form_map", doubled_preimages)
        with pytest.raises(ValueError, match="degenerate Gram matrix"):
            graded_dual(entry)

    def test_requires_full_rank(self):
        entry = lattice_at_level(even_code(4), H4_VAC, 2)
        thin = entry._replace(basis=entry.basis[:2])
        with pytest.raises(ValueError):
            graded_dual(thin)


class TestCompare:
    def test_equal_lattices(self):
        a = lattice_at_level(even_code(4), H4_VAC, 2)
        report = compare(a, lattice_at_level(even_code(4), H4_VAC, 2))
        assert report.equal and report.index == 1

    def test_doubled_sublattice(self):
        a = lattice_at_level(even_code(4), H4_VAC, 2)
        doubled = a._replace(
            basis=tuple({j: 2 * c for j, c in row.items()} for row in a.basis))
        report = compare(doubled, a)
        assert report.a_in_b and not report.b_in_a
        assert report.index == 2 ** a.rank

    def test_incomparable(self):
        a = lattice_at_level(even_code(4), H4_VAC, 2)
        first = a._replace(basis=(a.basis[0],))
        second = a._replace(basis=(a.basis[1],))
        report = compare(first, second)
        assert not report.a_in_b and not report.b_in_a
        assert report.index is None

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            compare(lattice_at_level(even_code(4), H4_VAC, 2),
                    lattice_at_level(even_code(4), H4_VAC, 3))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_index_is_the_transition_determinant(self, data):
        """Random nested lattices in the 4 coordinates of H4_VAC level 2:
        big from random rows over a random denominator (rank 0 to 4), small
        from random integer combinations of its basis, possibly of lower
        rank. The index is |det| of the transition matrix, solved row by row
        over the common denominator."""
        ints = st.integers(min_value=-6, max_value=6)
        rows = data.draw(st.lists(st.lists(ints, min_size=4, max_size=4), max_size=5))
        den = data.draw(st.integers(min_value=1, max_value=4))
        big = from_fraction_rows(H4_VAC, None, 2,
                                  [[Fraction(c, den) for c in row] for row in rows])
        r = big.rank
        mix = data.draw(st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                                          min_size=r, max_size=r), min_size=r, max_size=r))
        small = from_fraction_rows(H4_VAC, None, 2, [
            [sum((Fraction(m * row[j], big.denominator)
                  for m, row in zip(coeffs, dense_basis(big))), Fraction(0)) for j in range(4)]
            for coeffs in mix])
        common = lcm(small.denominator, big.denominator)
        scaled = [{j: common // small.denominator * c for j, c in row.items()}
                  for row in small.basis]
        over = [{j: common // big.denominator * c for j, c in row.items()} for row in big.basis]
        transition = [hnf_solve(over, row) for row in scaled]
        expected = abs(det_bareiss(transition)) if small.rank == r else None
        a, b = (small, big) if data.draw(st.booleans()) else (big, small)
        report = compare(a, b)
        assert report.index == expected
        assert report.a_in_b if a is small else report.b_in_a


def in_span(rows, over) -> tuple[bool, list]:
    """Whether every rational row is an integer combination of the
    independent rows over, by the rational solve, with the coefficients."""
    coeffs = [lattice_coefficients(over, row) for row in rows]
    return None not in coeffs, coeffs


def rational_rows(entry):
    return [[Fraction(c, entry.denominator) for c in row] for row in dense_basis(entry)]


@st.composite
def drawn_lattices(draw, min_rows=0, level=None):
    """A lattice at H4_VAC level 2 (4 coordinates) or 4 (14), spanned by up
    to four random rows over random denominators."""
    if level is None:
        level = draw(st.sampled_from([2, 4]))
    width = space(H4_VAC).dimension(level)
    rows = draw(st.lists(st.lists(st.integers(min_value=-4, max_value=4), min_size=width,
                                  max_size=width), min_size=min_rows, max_size=4))
    den = st.integers(min_value=1, max_value=4)
    return from_fraction_rows(H4_VAC, None, level,
                              [[Fraction(c, draw(den)) for c in row] for row in rows])


@st.composite
def lattice_pairs(draw):
    """A drawn lattice and another equal to it (a unimodular mix of its
    basis), inside it (an integer mix, possibly of lower rank), around it
    (its basis and more rows) or drawn on its own; in either order."""
    first = draw(drawn_lattices())
    basis, r, width = rational_rows(first), first.rank, first.ambient_dim
    ints = st.integers(min_value=-4, max_value=4)
    kind = draw(st.sampled_from(["equal", "inside", "around", "apart"]))
    if kind == "equal":
        mixed = [list(row) for row in basis]
        for _ in range(draw(st.integers(min_value=0, max_value=4)) if r > 1 else 0):
            i, j = draw(st.permutations(range(r)))[:2]
            k = draw(ints)
            mixed[i] = [a + k * b for a, b in zip(mixed[i], mixed[j])]
    elif kind == "inside":
        mix = draw(st.lists(st.lists(ints, min_size=r, max_size=r), max_size=r))
        mixed = [[sum((m * row[j] for m, row in zip(coeffs, basis)), Fraction(0))
                  for j in range(width)] for coeffs in mix]
    else:
        extra = rational_rows(draw(drawn_lattices(level=first.level)))
        mixed = basis + extra if kind == "around" else extra
    second = from_fraction_rows(H4_VAC, None, first.level, mixed)
    return (first, second) if draw(st.booleans()) else (second, first)


@st.composite
def membership_vectors(draw):
    """A drawn lattice and vectors around it: the zero vector, an integer
    combination of its basis, half of each basis row and random rational
    vectors, some with leading zeros."""
    entry = draw(drawn_lattices(min_rows=1))
    basis, width = rational_rows(entry), entry.ambient_dim
    ints = st.integers(min_value=-4, max_value=4)
    coeffs = draw(st.lists(ints, min_size=entry.rank, max_size=entry.rank))
    vectors = [[Fraction(0)] * width,
               [sum((c * row[j] for c, row in zip(coeffs, basis)), Fraction(0))
                for j in range(width)]]
    vectors += [[x / 2 for x in row] for row in basis]
    for _ in range(2):
        lead = draw(st.integers(min_value=0, max_value=width))
        tail = draw(st.lists(ints, min_size=width - lead, max_size=width - lead))
        vectors.append([Fraction(0)] * lead + [Fraction(c, draw(st.sampled_from(
            [1, 2, entry.denominator]))) for c in tail])
    return entry, vectors


# 2 Z^4 at H4_VAC level 2, and Z^4: each unit vector is half a row of the first.
DOUBLED = from_fraction_rows(H4_VAC, None, 2, [[2 * int(i == j) for j in range(4)]
                                               for i in range(4)])
UNIT = from_fraction_rows(H4_VAC, None, 2, [[int(i == j) for j in range(4)] for i in range(4)])


class TestMembership:
    """compare and contains against the rational solve."""

    @given(lattice_pairs())
    @example((UNIT, DOUBLED))
    @example((DOUBLED, UNIT))
    @settings(max_examples=200, deadline=None)
    def test_compare_matches_the_rational_solve(self, pair):
        a, b = pair
        ra, rb = rational_rows(a), rational_rows(b)
        a_in_b, ta = in_span(ra, rb)
        b_in_a, tb = in_span(rb, ra)
        index = None
        if (a_in_b or b_in_a) and a.rank == b.rank:
            index = int(abs(frac_det(ta if a_in_b else tb)))
        assert compare(a, b) == (a_in_b, b_in_a, a_in_b and b_in_a, index)

    @given(membership_vectors())
    @example((DOUBLED, [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]))
    @settings(max_examples=150, deadline=None)
    def test_contains_matches_the_rational_solve(self, case):
        entry, vectors = case
        keys = space(H4_VAC).keys(entry.level)
        for coords in vectors:
            v = TensorVector(H4_VAC, dict(zip(keys, coords)))
            assert contains(entry, v) == in_span([coords], rational_rows(entry))[0]


class TestSaturation:
    def test_empty_generators(self):
        report = saturate_generated_form([], 4, 2)
        assert report.stabilized
        assert set(report.per_level) == {0}
        assert dense_basis(report.per_level[0]) == ((1,),)

    def test_doubled_conformal_vector(self):
        gen = 2 * omega_total(1)
        report = saturate_generated_form([gen], 6, 6)
        assert report.stabilized
        assert report.message == "stabilized (heuristic)"
        level2 = report.per_level[2]
        assert contains(level2, gen)
        assert not contains(level2, omega_total(1))
        assert dense_basis(level2) == ((2,),)

    def test_plain_conformal_vector_diverges(self):
        # L(2)L(-2)1 = (1/4)1, so the omega closure keeps dividing by 4;
        # this is the k = 1 side of the scaling parity check
        report = saturate_generated_form([omega_total(1)], 4, 4)
        assert not report.stabilized
        assert report.message == "round budget exhausted"
        assert report.per_level[0].denominator > 1

    def test_scaling_parity_matches_the_two_generators(self):
        assert scaling_admissible(2, Fraction(1, 2))
        assert not scaling_admissible(1, Fraction(1, 2))

    def test_signed_generators_recover_spanning_lattice(self):
        gens = [omega_word(t) for t in complement_reduce(even_code(4))]
        report = saturate_generated_form(gens, 4, 4)
        assert report.stabilized
        for level in (0, 2, 3, 4):
            expected = lattice_at_level(even_code(4), H4_VAC, level)
            got = report.per_level[level]
            assert (got.denominator, got.basis) == (expected.denominator, expected.basis)

    def test_rejects_non_conformal_generator(self):
        with pytest.raises(ValueError):
            saturate_generated_form([TensorVector.lowest(H4_VAC)], 2, 2)

    @pytest.mark.parametrize("generator, max_level, budget, max_rounds", [
        pytest.param(gen, level, level, rounds,
                     id=name if rounds == 8 else f"{name}-rounds-{rounds}")
        for name, gen, level in [
            ("2omega", 2 * omega_total(4), 6),
            ("3omega1+omega2", 3 * omega_component(4, 1) + omega_component(4, 2), 6),
            ("half-omega1+omega2",
             Fraction(1, 2) * omega_component(4, 1) + omega_component(4, 2), 6),
            ("omega-diverging", omega_total(1), 4),
        ]
        for rounds in (1, 2, 3, 4, 8)
    ])
    def test_factor_modes_match_signed_word_decomposition(self, generator, max_level, budget,
                                                          max_rounds):
        """The per-factor integer modes sum_i u_i L^(i)(m), each round lowering
        only the levels the round before changed, close to the same report as
        the TensorVector saturation, which lowers every level each round with
        the generator's modes written as sum_T a_T L_T(m) over signed
        conformal vectors. Budgets of 1 to 3 rounds stop while levels still
        change; for 2omega round 4 is the first quiet one and round 5 the
        confirming one."""
        assert (saturate_generated_form([generator], max_level, budget, max_rounds)
                == tensor_vector_saturation([generator], max_level, budget, max_rounds))


def signed_word_modes(u: TensorVector):
    """m, v -> sum_T a_T L_T(m) v over all 2^(n-1) signed conformal vectors,
    the a_T solved for by row span."""
    n = u.weights.n
    reps = [Word(2 * b, n) for b in range(2 ** (n - 1))]  # avoid position 1
    solver = RowSpanSolver([omega_word(t).coordinates(2) for t in reps])
    coeffs = solver.solve(u.coordinates(2))
    assert coeffs is not None
    pairs = [(t, a) for a, t in zip(coeffs, reps) if a]

    def act(m, v):
        return sum((a * lt_action(t, m, v) for t, a in pairs), TensorVector(v.weights))
    return act


def tensor_vector_saturation(generators, max_level, mode_budget, max_rounds=8):
    """The saturation on TensorVectors: each round snapshots every level's
    basis vectors, applies signed_word_modes(g)(m, .) for every generator g
    and |m| <= mode_budget, and merges each target level's Fraction
    coordinates into its Hermite basis, a level changing when its
    denominator or Hermite basis moves."""
    weights = generators[0].weights
    ops = [signed_word_modes(g) for g in generators]
    state = {}

    def merge(level, vectors):
        rows = [v.coordinates(level) for v in vectors if not v.is_zero()]
        if not rows:
            return False
        prev = state.get(level)
        if prev is not None:
            rows = rational_rows(prev) + rows
        new = from_fraction_rows(weights, None, level, rows)
        if prev is not None and (prev.denominator, prev.basis) == (new.denominator, new.basis):
            return False
        state[level] = new
        return True

    merge(0, [TensorVector.lowest(weights)])
    rounds = stable_streak = 0
    while rounds < max_rounds and stable_streak < 2:
        rounds += 1
        pending = {}
        for level, entry in list(state.items()):
            for v in basis_vectors(entry):
                for act in ops:
                    for m in range(-mode_budget, mode_budget + 1):
                        if 0 <= level - m <= max_level:
                            pending.setdefault(level - m, []).append(act(m, v))
        changed = [merge(level, pending[level]) for level in sorted(pending)]
        stable_streak = 0 if any(changed) else stable_streak + 1
    stabilized = stable_streak >= 2
    return lattices.GeneratedFormReport(
        per_level=state,
        rounds=rounds,
        stabilized=stabilized,
        message="stabilized (heuristic)" if stabilized else "round budget exhausted",
    )


class TestStability:
    def test_lowering_stays_in_lattice(self):
        code = even_code(4)
        lat = {l: lattice_at_level(code, H4_VAC, l) for l in range(6)}
        for level in (2, 3):
            for v in basis_vectors(lat[level]):
                for t in code.words():
                    for m in (1, 2):
                        image = lt_action(t, -m, v)
                        if not image.is_zero():
                            assert contains(lat[level + m], image)

    def test_module_lowering_stays_in_lattice(self):
        code = even_code(4)
        lat = {l: lattice_at_level(code, H4_HALF, l) for l in range(4)}
        for level in (0, 1):
            for v in basis_vectors(lat[level]):
                for t in code.words():
                    for m in (1, 2):
                        image = lt_action(t, -m, v)
                        if not image.is_zero():
                            assert contains(lat[level + m], image)

    def test_dual_is_stable_under_code_modes(self):
        code = even_code(4)
        duals = {
            l: graded_dual(lattice_at_level(code, H4_HALF, l)).dual
            for l in range(3)
        }
        for level in (0, 1):
            for v in basis_vectors(duals[level]):
                for t in code.words():
                    image = lt_action(t, -1, v)
                    if not image.is_zero():
                        assert contains(duals[level + 1], image)
        for v in basis_vectors(duals[2]):
            for t in code.words():
                image = lt_action(t, 1, v)
                if not image.is_zero():
                    assert contains(duals[1], image)


small_matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    min_size=1, max_size=5,
)


class TestHermiteProperties:
    @given(small_matrices, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_shuffle_invariance(self, rows, rng):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert dense_hnf(rows) == dense_hnf(shuffled)

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, rows):
        h = dense_hnf(rows)
        assert dense_hnf(h) == h

    @given(small_matrices, st.lists(st.integers(min_value=-4, max_value=4),
                                    min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_membership_roundtrip(self, rows, coeffs):
        h = dense_hnf(rows)
        vec = [0, 0, 0]
        for c, row in zip(coeffs, rows):
            vec = [a + c * b for a, b in zip(vec, row)]
        sol = hnf_solve(sparse(h), {j: x for j, x in enumerate(vec) if x})
        assert sol is not None
        rebuilt = [0, 0, 0]
        for c, row in zip(sol, h):
            rebuilt = [a + c * b for a, b in zip(rebuilt, row)]
        assert rebuilt == vec

    def test_spanning_shuffle_gives_same_lattice(self):
        mons = spanning_monomials(even_code(4), H4_VAC, 4)
        rows = [evaluate_monomial(m, H4_VAC).coordinates(4) for m in mons]
        ints = [[int(c) for c in row] for row in rows]
        assert all(c.denominator == 1 for row in rows for c in row)
        shuffled = list(ints)
        random.Random(7).shuffle(shuffled)
        assert dense_hnf(ints) == dense_hnf(shuffled)
