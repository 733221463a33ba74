"""Spanning lattices, Hermite bases, Gram matrices, duals, saturation."""

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingforms import intertwining, lattices, tensor
from isingforms.codes import (
    RequestError,
    Word,
    c16,
    complement_reduce,
    even_code,
    hamming8,
    trivial_code,
)
from isingforms.intmat import (
    RowSpanSolver,
    det_bareiss,
    frac_det,
    frac_inverse,
    hnf,
    hnf_solve,
)
from isingforms.lattices import (
    _from_rational_rows,
    admissible_weights,
    compare,
    contains,
    evaluate_monomial,
    gram_matrix,
    graded_dual,
    lattice_at_level,
    lattices_equal,
    saturate_generated_form,
    spanning_monomials,
)
from isingforms.tensor import (
    HVector,
    TensorVector,
    apply_factor_mode,
    form_nondegenerate,
    lt_action,
    omega_component,
    omega_total,
    omega_word,
    space,
)
from isingforms.virasoro import scaling_admissible

H4_VAC = HVector.vacuum(4)
H4_HALF = HVector.parse("1/2,1/2,0,0")


def word(chars: str) -> Word:
    return Word.from_string(chars)


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
        assert entry.basis == ((1,),)

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
        assert entry.basis == ((1, 1), (0, 2))

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

    def test_zero_vector_always_contained(self):
        entry = lattice_at_level(even_code(4), H4_VAC, 2)
        assert contains(entry, TensorVector(H4_VAC))

    @pytest.mark.parametrize("code, weights, below", [
        # levels 0..2 of another module; unchecked, they gave rank 10 in 4 dimensions
        (even_code(4), H4_VAC, [(even_code(4), H4_HALF, n) for n in range(3)]),
        (even_code(8), HVector.vacuum(8), [(hamming8(), HVector.vacuum(8), n) for n in range(2)]),
        (even_code(4), H4_HALF, [(even_code(4), H4_HALF, n) for n in (0, 2, 1)]),
    ], ids=["weights", "code", "level"])
    def test_below_of_another_piece_rejected(self, code, weights, below):
        entries = [lattice_at_level(*args) for args in below]
        with pytest.raises(ValueError, match="below"):
            lattice_at_level(code, weights, 3, below=entries)


def monomial_route(code, weights, level):
    """The lattice as the Z-span of every straightened product's vector."""
    rows = [evaluate_monomial(mon, weights).coordinates(level)
            for mon in spanning_monomials(code, weights, level)]
    return _from_rational_rows(weights, code, level, rows)


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


class TestRecursionAgainstMonomials:
    @pytest.mark.parametrize("code, weights, top", CASES, ids=CASE_IDS)
    def test_levels_match_monomial_route(self, code, weights, top):
        entries = []
        for level in range(top + 1):
            entries.append(lattice_at_level(code, weights, level, below=entries))
            got, want = entries[-1], monomial_route(code, weights, level)
            assert got.basis == want.basis
            assert got.denominator == want.denominator
            assert got.ambient_dim == want.ambient_dim
        assert lattice_at_level(code, weights, top) == entries[-1]

    def test_short_below_is_completed(self):
        below = [lattice_at_level(even_code(4), H4_HALF, 0)]
        assert (lattice_at_level(even_code(4), H4_HALF, 3, below=below)
                == lattice_at_level(even_code(4), H4_HALF, 3))

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
        g = gram_matrix(H4_VAC, 4, entry.basis_vectors())
        assert all(g[i][j] == g[j][i] for i in range(len(g)) for j in range(len(g)))


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
        entries = []
        for level in range(top + 1):
            entries.append(lattice_at_level(code, weights, level, below=entries))
            coords = [v.coordinates(level) for v in entries[-1].basis_vectors()]
            p = dense_key_gram(weights, level)
            expected = [[sum((a * p[i][j] * b
                              for i, a in enumerate(x) if a
                              for j, b in enumerate(y) if b), Fraction(0))
                         for y in coords]
                        for x in coords]
            assert gram_matrix(weights, level, coords) == expected

    @pytest.mark.parametrize("code, weights, top", CASES, ids=CASE_IDS)
    def test_nondegeneracy_matches_dense_determinant(self, code, weights, top):
        for level in range(top + 1):
            p = dense_key_gram(weights, level)
            assert form_nondegenerate(weights, level) == (not p or frac_det(p) != 0)

    @pytest.mark.parametrize("factor_level", [0, 2, 3, 4])
    def test_singular_factor_gram_is_degenerate(self, monkeypatch, factor_level):
        """Zeroing the vacuum factor's pivot Gram at one factor level makes
        exactly the levels whose keys use it degenerate, in the dense oracle,
        in form_nondegenerate and in check_well_defined."""
        spec = intertwining.TripleSpec(H4_HALF, H4_HALF, H4_VAC, even_code(4), Fraction(1))
        corr = intertwining.build_correlation(spec, 5)
        # the order checks reuse these expansions; the patch below must not reach them
        assert intertwining.check_well_defined(corr).well_defined
        real_basis = tensor._Factor.basis

        def singular_basis(self, level):
            b = real_basis(self, level)
            if self.h == 0 and level == factor_level:
                return dataclasses.replace(
                    b, gram=tuple((Fraction(0),) * len(row) for row in b.gram),
                    det=Fraction(0))
            return b

        monkeypatch.setattr(tensor._Factor, "basis", singular_basis)
        report = intertwining.check_well_defined(corr)
        expected = {level: frac_det(dense_key_gram(H4_VAC, level)) != 0
                    for level in range(6)}
        assert report.nondegenerate_levels == expected
        assert {level: form_nondegenerate(H4_VAC, level) for level in range(6)} == expected
        assert not all(expected.values())
        assert not report.well_defined
        assert report.order_failures == () and report.relation_failures == ()


def dense_dual(entry):
    """The dual as the dense product frac_inverse(G) B, with index |det G|."""
    rows = [[Fraction(c, entry.denominator) for c in row] for row in entry.basis]
    gram = gram_matrix(entry.weights, entry.level, rows)
    inv = frac_inverse(gram)
    dual_rows = [[sum((inv[i][k] * rows[k][j] for k in range(len(rows))), Fraction(0))
                  for j in range(entry.ambient_dim)] for i in range(len(rows))]
    dual = _from_rational_rows(entry.weights, entry.code, entry.level, dual_rows)
    return dual, abs(frac_det(gram))


DUAL_CASES = CASES + [(hamming8(), HVector.vacuum(8), 4)]


class TestDual:
    @pytest.mark.parametrize("code, weights, top", DUAL_CASES,
                             ids=CASE_IDS + ["hamming8-vacuum"])
    def test_matches_dense_inverse_and_determinant(self, code, weights, top):
        entries = []
        for level in range(top + 1):
            entries.append(lattice_at_level(code, weights, level, below=entries))
            if not entries[-1].full_rank:
                continue
            rep = graded_dual(entries[-1])
            dual, index = dense_dual(entries[-1])
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
        assert lattices_equal(rep.dual, entry)

    def test_degenerate_gram_rejected(self, monkeypatch):
        entry = lattice_at_level(even_code(4), H4_HALF, 0)
        monkeypatch.setattr(lattices, "form_image", lambda v: TensorVector(v.weights))
        with pytest.raises(ValueError, match="degenerate Gram matrix"):
            graded_dual(entry)

    def test_requires_full_rank(self):
        entry = lattice_at_level(even_code(4), H4_VAC, 2)
        thin = dataclasses.replace(entry, basis=entry.basis[:2])
        with pytest.raises(ValueError):
            graded_dual(thin)


class TestCompare:
    def test_equal_lattices(self):
        a = lattice_at_level(even_code(4), H4_VAC, 2)
        report = compare(a, lattice_at_level(even_code(4), H4_VAC, 2))
        assert report.equal and report.index == 1

    def test_doubled_sublattice(self):
        a = lattice_at_level(even_code(4), H4_VAC, 2)
        doubled = dataclasses.replace(
            a, basis=tuple(tuple(2 * c for c in row) for row in a.basis))
        report = compare(doubled, a)
        assert report.a_in_b and not report.b_in_a
        assert report.index == 2 ** a.rank

    def test_incomparable(self):
        a = lattice_at_level(even_code(4), H4_VAC, 2)
        first = dataclasses.replace(a, basis=(a.basis[0],))
        second = dataclasses.replace(a, basis=(a.basis[1],))
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
        big = _from_rational_rows(H4_VAC, None, 2,
                                  [[Fraction(c, den) for c in row] for row in rows])
        r = big.rank
        mix = data.draw(st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                                          min_size=r, max_size=r), min_size=r, max_size=r))
        small = _from_rational_rows(H4_VAC, None, 2, [
            [sum((Fraction(m * row[j], big.denominator) for m, row in zip(coeffs, big.basis)),
                 Fraction(0)) for j in range(4)]
            for coeffs in mix])
        common = lcm(small.denominator, big.denominator)
        scaled = [[common // small.denominator * c for c in row] for row in small.basis]
        over = [[common // big.denominator * c for c in row] for row in big.basis]
        transition = [hnf_solve(over, row) for row in scaled]
        expected = abs(det_bareiss(transition)) if small.rank == r else None
        a, b = (small, big) if data.draw(st.booleans()) else (big, small)
        report = compare(a, b)
        assert report.index == expected
        assert report.a_in_b if a is small else report.b_in_a


class TestSaturation:
    def test_empty_generators(self):
        report = saturate_generated_form([], 4, 2)
        assert report.stabilized
        assert set(report.per_level) == {0}
        assert report.per_level[0].basis == ((1,),)

    def test_doubled_conformal_vector(self):
        gen = 2 * omega_total(1)
        report = saturate_generated_form([gen], 6, 6)
        assert report.stabilized
        assert report.message == "stabilized (heuristic)"
        level2 = report.per_level[2]
        assert contains(level2, gen)
        assert not contains(level2, omega_total(1))
        assert level2.basis == ((2,),)

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
            assert lattices_equal(report.per_level[level], expected)

    def test_rejects_non_conformal_generator(self):
        with pytest.raises(ValueError):
            saturate_generated_form([TensorVector.lowest(H4_VAC)], 2, 2)

    @pytest.mark.parametrize("generator", [
        2 * omega_total(4),
        3 * omega_component(4, 1) + omega_component(4, 2),
    ], ids=["2omega", "3omega1+omega2"])
    def test_factor_modes_match_signed_word_decomposition(self, monkeypatch, generator):
        """The generator's modes as sum_T a_T L_T(m) over all 2^(n-1) signed
        conformal vectors, the a_T solved for by row span, close to the same
        report as the per-factor modes sum_i u_i L^(i)(m)."""
        new = saturate_generated_form([generator], 6, 6)

        def signed_words(u):
            n = u.weights.n
            reps = [Word(2 * b, n) for b in range(2 ** (n - 1))]  # avoid position 1
            solver = RowSpanSolver([omega_word(t).coordinates(2) for t in reps])
            coeffs = solver.solve(u.coordinates(2))
            assert coeffs is not None
            return [(t, a) for a, t in zip(coeffs, reps) if a]

        def signed_modes(coeffs, m, v):
            out = TensorVector(v.weights)
            for t, a in coeffs:
                out = out + a * lt_action(t, m, v)
            return out

        monkeypatch.setattr(lattices, "_factor_coefficients", signed_words)
        monkeypatch.setattr(lattices, "factor_mode_sum", signed_modes)
        old = saturate_generated_form([generator], 6, 6)
        assert new == old


class TestStability:
    def test_lowering_stays_in_lattice(self):
        code = even_code(4)
        lat = {l: lattice_at_level(code, H4_VAC, l) for l in range(6)}
        for level in (2, 3):
            for v in lat[level].basis_vectors():
                for t in code.words():
                    for m in (1, 2):
                        image = lt_action(t, -m, v)
                        if not image.is_zero():
                            assert contains(lat[level + m], image)

    def test_module_lowering_stays_in_lattice(self):
        code = even_code(4)
        lat = {l: lattice_at_level(code, H4_HALF, l) for l in range(4)}
        for level in (0, 1):
            for v in lat[level].basis_vectors():
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
            for v in duals[level].basis_vectors():
                for t in code.words():
                    image = lt_action(t, -1, v)
                    if not image.is_zero():
                        assert contains(duals[level + 1], image)
        for v in duals[2].basis_vectors():
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
        assert hnf(rows) == hnf(shuffled)

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, rows):
        h = hnf(rows)
        assert hnf(h) == h

    @given(small_matrices, st.lists(st.integers(min_value=-4, max_value=4),
                                    min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_membership_roundtrip(self, rows, coeffs):
        h = hnf(rows)
        vec = [0, 0, 0]
        for c, row in zip(coeffs, rows):
            vec = [a + c * b for a, b in zip(vec, row)]
        sol = hnf_solve(h, vec)
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
        assert hnf(ints) == hnf(shuffled)
