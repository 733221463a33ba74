"""Tensor power states, signed diagonal modes, and the commutator sweep."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isingforms import lattices, tensor
from isingforms.codes import BinaryCode, RequestError, Word, even_code, hamming8
from isingforms.tensor import (
    CommutatorTerms,
    HVector,
    TensorVector,
    apply_factor_mode,
    commutator_symbolic,
    dimension_at_level,
    lt0_eigenvalue,
    lt_action,
    omega_component,
    omega_total,
    space,
    verify_commutator,
    verify_commutator_sweep,
    weight1_count_e8,
)
from isingforms.virasoro import ISING_WEIGHTS, irreducible_basis
from test_intmat import dense, sparse

HALF = Fraction(1, 2)
SIXTEENTH = Fraction(1, 16)
H4_VAC = HVector.vacuum(4)
H4_HALF = HVector((HALF, HALF, Fraction(0), Fraction(0)))


def word(chars: str) -> Word:
    return Word.from_string(chars)


def prime_factors(n: int) -> set[int]:
    """The primes dividing n >= 1."""
    out, p = set(), 2
    while n > 1:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out


def omega_word(T: Word) -> TensorVector:
    """The signed conformal vector attached to a subset."""
    return lt_action(T, -2, TensorVector.lowest(HVector.vacuum(T.n)))


class TestHVector:
    def test_parse_accepts_mixed_notation(self):
        h = HVector.parse("1/2, 0, 0.5, 1/16")
        assert h.entries == (HALF, Fraction(0), HALF, SIXTEENTH)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            HVector.parse("1/2, x")

    def test_rejects_weights_outside_the_three_modules(self):
        with pytest.raises(ValueError):
            HVector((Fraction(1, 4),))
        with pytest.raises(ValueError):
            HVector(())

    def test_parse_names_the_allowed_weights(self):
        with pytest.raises(RequestError, match=r"must be 0, 1/2 or 1/16; got 1/4$"):
            HVector.parse("1/4,0,0,0")

    def test_support_and_total(self):
        h = HVector.parse("1/2,0,1/2,0,1/2,1/2")
        assert h.support == Word.from_set({1, 3, 5, 6}, 6)
        assert h.total == 2
        assert not h.has_sixteenth

    def test_constructors(self):
        assert HVector.vacuum(3).entries == (0, 0, 0)
        assert HVector.sixteenth(2).all_sixteenth
        assert HVector.half(4, (0, 1)) == H4_HALF
        assert HVector.half(3, ()) == HVector.vacuum(3)
        assert str(H4_HALF) == "1/2,1/2,0,0"


class TestSpaceEnumeration:
    def test_vacuum_power_dimensions(self):
        sp = space(H4_VAC)
        assert [sp.dimension(l) for l in range(6)] == [1, 0, 4, 4, 14, 20]

    def test_half_pair_dimensions(self):
        sp = space(H4_HALF)
        assert [sp.dimension(l) for l in range(6)] == [1, 2, 5, 10, 22, 40]

    def test_eight_factor_vacuum_level_four(self):
        assert space(HVector.vacuum(8)).dimension(4) == 44

    def test_sixteen_factor_sixteenth_level_two(self):
        assert space(HVector.sixteenth(16)).dimension(2) == 136

    def test_enumeration_agrees_with_series_convolution(self):
        # two independent counts of the same graded piece
        for h in (H4_VAC, H4_HALF, HVector.parse("1/16,1/16,0,1/2")):
            sp = space(h)
            for level in range(5):
                assert sp.dimension(level) == dimension_at_level(h, level)

    def test_keys_are_homogeneous_and_distinct(self):
        sp = space(H4_HALF)
        for level in range(5):
            keys = sp.keys(level)
            assert len(set(keys)) == len(keys)
            assert all(sp.key_level(k) == level for k in keys)

    def test_negative_level_is_empty(self):
        assert dimension_at_level(H4_VAC, -1) == 0

    def test_sid_packing_round_trips_past_64_states(self):
        for level in (0, 20, 21, 40):
            for idx in (0, 63, 64, 1000):
                sid = tensor._sid(level, idx)
                assert tensor._sid_level(sid) == level
                assert sid % tensor._SID_STRIDE == idx

    def test_level_overflowing_sid_packing_is_a_clean_error(self, monkeypatch):
        monkeypatch.setattr(tensor, "_SID_STRIDE", 2)
        factor = tensor._Factor(SIXTEENTH)
        assert factor.basis(4).dimension == 2
        with pytest.raises(ValueError, match="limited to 2 per level"):
            factor.basis(5)


class TestFloatCoefficients:
    def test_constructor_rejects_float(self):
        key = next(iter(TensorVector.lowest(H4_HALF).terms))
        with pytest.raises(TypeError, match="float"):
            TensorVector(H4_HALF, {key: 0.5})

    def test_scalar_multiple_rejects_float(self):
        with pytest.raises(TypeError, match="float"):
            0.1 * TensorVector.lowest(H4_HALF)


class TestModeActions:
    def test_single_factor_lowering(self):
        v = apply_factor_mode(1, -2, TensorVector.lowest(H4_VAC))
        assert not v.is_zero()
        assert v.level() == 2
        assert len(v.terms) == 1

    def test_vacuum_factor_kills_level_one(self):
        # L(-1) on the vacuum lowest vector vanishes in the irreducible module
        v = apply_factor_mode(2, -1, TensorVector.lowest(H4_VAC))
        assert v.is_zero()

    def test_positive_modes_annihilate_lowest(self):
        for h in (H4_VAC, H4_HALF, HVector.sixteenth(4)):
            low = TensorVector.lowest(h)
            for m in (1, 2, 3):
                assert lt_action(word("0110"), m, low).is_zero()

    def test_omega_total_is_sum_of_components(self):
        total = omega_total(4)
        parts = omega_component(4, 1)
        for i in (2, 3, 4):
            parts = parts + omega_component(4, i)
        assert total == parts
        assert total.level() == 2
        assert len(total.terms) == 4

    def test_omega_word_flips_sign_under_complement(self):
        for chars in ("0000", "1100", "0101", "1111"):
            t = word(chars)
            assert omega_word(t.complement()) == (-1) * omega_word(t)

    def test_level_shift(self):
        sp = space(H4_HALF)
        start = TensorVector(H4_HALF, {sp.keys(2)[1]: Fraction(1)})
        for m in (-2, -1, 1, 2):
            image = lt_action(word("1010"), m, start)
            if not image.is_zero():
                assert image.level() == 2 - m

    def test_lt0_closed_forms_match_direct_action(self):
        # sign pattern route versus the factor-by-factor route
        cases = [(H4_HALF, t) for t in ("0000", "0110", "1100", "1111", "0011")]
        cases += [(HVector.sixteenth(4), t) for t in ("0000", "1000", "1110", "1111")]
        for h, chars in cases:
            t = word(chars)
            low = TensorVector.lowest(h)
            expected = lt0_eigenvalue(t, h)
            assert lt_action(t, 0, low) == expected * low

    def test_lt0_eigenvalue_values(self):
        assert lt0_eigenvalue(word("0000"), H4_HALF) == 1
        assert lt0_eigenvalue(word("0110"), H4_HALF) == 0
        assert lt0_eigenvalue(word("1100"), H4_HALF) == -1
        assert lt0_eigenvalue(word("0011"), H4_HALF) == 1
        h16 = HVector.sixteenth(16)
        for w in (0, 8, 16):
            t = Word.from_set(set(range(1, w + 1)), 16)
            assert lt0_eigenvalue(t, h16) == Fraction(16 - 2 * w, 16)

    @pytest.mark.parametrize("text, total", [
        ("1/16,0", "1/16"),
        ("1/16,1/2,0,0", "9/16"),
        ("0,1/16,1/2,1/16", "5/8"),
    ])
    def test_lt0_eigenvalue_mixed_sixteenth_matches_action(self, text, total):
        """Mixed 1/16 vectors against the factor-by-factor action, for every
        subset, so every codeword of every code of that length."""
        h = HVector.parse(text)
        assert lt0_eigenvalue(Word.empty(h.n), h) == Fraction(total)
        low = TensorVector.lowest(h)
        for bits in range(2 ** h.n):
            t = Word(bits, h.n)
            assert lt_action(t, 0, low) == lt0_eigenvalue(t, h) * low

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError):
            lt_action(word("110"), 0, TensorVector.lowest(H4_VAC))
        with pytest.raises(ValueError):
            apply_factor_mode(5, -1, TensorVector.lowest(H4_VAC))
        with pytest.raises(ValueError, match="factor 5 outside"):
            apply_factor_mode(5, -1, TensorVector(H4_VAC))

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=16, deadline=None)
    def test_omega_word_components_carry_signs(self, bits):
        t = Word(bits, 4)
        v = omega_word(t)
        expected = TensorVector(H4_VAC)
        for i in range(1, 5):
            sign = -1 if t.contains(i) else 1
            expected = expected + sign * omega_component(4, i)
        assert v == expected


CODE_MODULES = [
    (hamming8(), HVector.parse("1/2,1/2,0,0,0,0,0,0")),
    (hamming8(), HVector.vacuum(8)),
    (even_code(4), H4_HALF),
    (even_code(4), H4_VAC),
]
SIXTEENTH_MODULES = [
    (hamming8(), HVector.parse("1/16,1/16,1/16,1/16,1/16,1/16,1/16,1/16")),
    (hamming8(), HVector.parse("1/16,1/2,0,1/16,0,0,1/2,1/16")),
    (even_code(4), HVector.parse("1/16,1/16,1/16,1/16")),
    (even_code(4), HVector.parse("1/16,0,1/2,1/16")),
]


@st.composite
def code_vectors(draw, modules=tuple(CODE_MODULES)):
    """A code, a weight vector on its length and a random rational vector on
    a random level of that module; by default the code admits the weights."""
    code, weights = draw(st.sampled_from(modules))
    keys = space(weights).keys(draw(st.integers(min_value=0, max_value=4)))
    picked = draw(st.lists(st.sampled_from(keys), max_size=4)) if keys else []
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return code, TensorVector(weights, {k: draw(coeffs) for k in picked})


class TestFactorImages:
    @given(code_vectors(), st.integers(min_value=-4, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_signed_sum_is_lt_action(self, case, m):
        code, v = case
        images = [apply_factor_mode(i, m, v) for i in range(1, v.weights.n + 1)]
        for t in code.words():
            total = TensorVector(v.weights)
            for i, image in enumerate(images, start=1):
                total = total + (-1 if t.contains(i) else 1) * image
            assert total == lt_action(t, m, v)


class TestLtActions:
    @given(code_vectors(tuple(CODE_MODULES + SIXTEENTH_MODULES)))
    @settings(max_examples=40, deadline=None)
    def test_matches_lt_action_per_word(self, case):
        """Every word, m in -4..4: lowered_rows, given the words' sign vectors
        and the integer vector u = (1, ..., n), gives [lt_action(t, m, v) for
        t in words] and sum_i u_i L^(i)(m) v as integer rows over big. Both
        read the factor tables, so both are also held to the tuple walk."""
        code, v = case
        assume(not v.is_zero())
        words, n, level = code.words(), v.weights.n, v.level()
        den = lcm(*(c.denominator for c in v.terms.values()))
        row = sparse([[c.numerator * (den // c.denominator) for c in v.coordinates(level)]])[0]
        u = list(range(1, n + 1))
        signs = [[-1 if t.contains(i) else 1 for i in range(1, n + 1)] for t in words] + [u]
        for m in range(-4, 5):
            expected = [lt_action(t, m, v) for t in words] + [sum(
                (c * apply_factor_mode(i, m, v) for i, c in enumerate(u, start=1)),
                TensorVector(v.weights))]
            assert expected == [walked_action(v, m, sign) for sign in signs]
            if level - m < 0:
                assert all(w.is_zero() for w in expected)
                continue
            big, [images] = tensor.lowered_rows(v.weights, level - m, [(-m, den, row, signs)])
            width = space(v.weights).dimension(level - m)
            assert ([[Fraction(c, big) for c in image] for image in dense(images, width)]
                    == [w.coordinates(level - m) for w in expected])

    def test_vector_across_levels_matches_the_tuple_walk(self):
        """A vector with terms at levels 0, 2 and 3: every word and every
        single factor, m in -3..3, against the tuple walk over expansion."""
        weights = HVector.parse("1/2,1/16,0,1/16")
        sp = space(weights)
        v = TensorVector(weights, {sp.keys(0)[0]: Fraction(2), sp.keys(2)[1]: Fraction(-1, 3),
                                   sp.keys(3)[0]: Fraction(5), sp.keys(3)[-1]: Fraction(1, 2)})
        for m in range(-3, 4):
            for t in (Word(bits, 4) for bits in range(16)):
                assert lt_action(t, m, v) == walked_action(v, m, t.signs())
            for i in range(1, 5):
                unit = [int(pos == i - 1) for pos in range(4)]
                assert apply_factor_mode(i, m, v) == walked_action(v, m, unit)
        assert len(set(map(sp.key_level, lt_action(Word.empty(4), -1, v).terms))) == 3

    def test_rejects_a_word_of_another_length(self):
        with pytest.raises(ValueError, match="subset on 3 points"):
            lt_action(word("110"), -1, TensorVector.lowest(H4_VAC))


class TestCommutatorSymbolic:
    def test_disjoint_overlap_example(self):
        terms = commutator_symbolic(word("1100"), word("0110"), 3, -3)
        assert terms == CommutatorTerms(linear=6, word=word("1010"), central=Fraction(0))

    def test_central_on_equal_words(self):
        terms = commutator_symbolic(word("1100"), word("1100"), 2, -2)
        assert terms.word == word("0000")
        assert terms.linear == 4
        assert terms.central == 1  # (4 - 0)/4 * binom(3, 3)

    def test_central_is_odd_in_the_mode(self):
        for m in range(-4, 5):
            plus = commutator_symbolic(word("1100"), word("1100"), m, -m).central
            minus = commutator_symbolic(word("1100"), word("1100"), -m, m).central
            assert plus == -minus

    def test_central_vanishes_at_half_weight_overlap(self):
        # |S + T| = N/2 kills the central term regardless of the mode
        terms = commutator_symbolic(word("11000000"), word("00110000"), 5, -5)
        assert terms.word.weight == 4
        assert terms.central == 0

    def test_central_zero_off_diagonal(self):
        assert commutator_symbolic(word("1100"), word("0110"), 2, -1).central == 0

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError):
            commutator_symbolic(word("11"), word("110"), 1, -1)


class TestVerifyCommutator:
    def test_direct_check_small_window(self):
        assert verify_commutator(word("1100"), word("0110"), 2, -1, H4_HALF, 2)
        assert verify_commutator(word("1100"), word("1100"), 2, -2, H4_VAC, 2)
        assert verify_commutator(word("1111"), word("0000"), -1, 1, H4_HALF, 2)

    def test_direct_check_sixteenth(self):
        h = HVector.sixteenth(4)
        assert verify_commutator(word("1100"), word("0101"), 1, -1, h, 1)

    def test_direct_check_rejects_negative_level(self):
        with pytest.raises(ValueError):
            verify_commutator(word("1100"), word("0110"), 1, -1, H4_VAC, -1)


class TestSweep:
    def test_sweep_vacuum_agrees_with_direct_route(self):
        code = even_code(4)
        report = verify_commutator_sweep(code, H4_VAC, 2, 2)
        assert report.ok
        assert report.pairs == 64
        assert report.instances == 64 * 25 * 5
        assert report.failures == ()
        # spot check the same window through the unscaled route
        for s, t in (("1100", "0110"), ("1111", "1010"), ("0000", "0011")):
            assert verify_commutator(word(s), word(t), 2, -2, H4_VAC, 2)

    def test_sweep_half_pair(self):
        report = verify_commutator_sweep(even_code(4), H4_HALF, 2, 2)
        assert report.ok
        assert report.instances == 64 * 25 * 8

    def test_sweep_sixteenth(self):
        report = verify_commutator_sweep(even_code(4), HVector.sixteenth(4), 1, 1)
        assert report.ok

    @pytest.mark.parametrize("entries", [(0, 0), (HALF, HALF), (SIXTEENTH, SIXTEENTH),
                                         (0, HALF, SIXTEENTH)],
                             ids=["vacuum", "half", "sixteenth", "mixed"])
    def test_cross_factor_brackets_vanish(self, entries):
        """[L^(i)(m), L^(j)(n)] w = 0 for i != j on every key up to level 2,
        |m|, |n| <= 2: the sweep reads only the diagonal factor brackets."""
        weights = HVector(entries)
        pairs = [(i, j) for i in range(1, weights.n + 1)
                 for j in range(1, weights.n + 1) if i != j]
        for level in range(3):
            for key in space(weights).keys(level):
                w = TensorVector(weights, {key: Fraction(1)})
                for m in range(-2, 3):
                    for n in range(-2, 3):
                        for i, j in pairs:
                            assert (apply_factor_mode(i, m, apply_factor_mode(j, n, w))
                                    == apply_factor_mode(j, n, apply_factor_mode(i, m, w)))

    def test_sweep_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            verify_commutator_sweep(even_code(6), H4_VAC, 1, 1)

    @pytest.mark.parametrize("mode_bound, max_level", [(-1, 2), (2, -1)])
    def test_sweep_rejects_empty_window(self, mode_bound, max_level):
        with pytest.raises(ValueError):
            verify_commutator_sweep(even_code(4), H4_VAC, mode_bound, max_level)

    @pytest.fixture
    def doubled_raising_mode(self, monkeypatch):
        """Double L(-1) on the lowest state of the 1/2 factor. The caches built
        on expansion are emptied before and after, so no test sees a table
        built on the other side of the fault."""
        original = tensor._Factor.expansion

        def faulty(factor, sid, m):
            exp = original(factor, sid, m)
            if factor.h == HALF and sid == tensor._sid(0, 0) and m == -1:
                return tuple((s, 2 * c) for s, c in exp)
            return exp

        def clear():
            tensor.TensorSpace.table.cache_clear()
            lattices._level.cache_clear()

        monkeypatch.setattr(tensor._Factor, "expansion", faulty)
        clear()
        yield
        clear()

    def test_sweep_failures_fail_the_direct_route(self, doubled_raising_mode):
        report = verify_commutator_sweep(even_code(4), H4_HALF, 2, 3)
        assert not report.ok
        for s, t, m, n, _ in report.failures:
            assert not verify_commutator(word(s), word(t), m, n, H4_HALF, 3)

    def test_sweep_failing_set_is_the_direct_one(self, doubled_raising_mode):
        code = BinaryCode(4, [word("1010")])
        report = verify_commutator_sweep(code, H4_HALF, 1, 1)
        assert 0 < len(report.failures) < 20
        direct = {
            (S.to_string(), T.to_string(), m, n)
            for S in code.words() for T in code.words()
            for m in range(-1, 2) for n in range(-1, 2)
            if not verify_commutator(S, T, m, n, H4_HALF, 1)
        }
        assert {f[:4] for f in report.failures} == direct


    def test_sweep_records_each_failure_once(self, doubled_raising_mode):
        code = BinaryCode(4, [word("1100")])
        report = verify_commutator_sweep(code, H4_HALF, 1, 2)
        # four failing (S, T, m, n), each at levels 0 and 2: all of them fit in 20
        assert len(set(report.failures)) == len(report.failures) == 16
        direct = {
            (S.to_string(), T.to_string(), m, n)
            for S in code.words() for T in code.words()
            for m in range(-1, 2) for n in range(-1, 2)
            if not verify_commutator(S, T, m, n, H4_HALF, 2)
        }
        assert {f[:4] for f in report.failures} == direct

    def test_tables_see_the_fault(self, doubled_raising_mode):
        # the last fault test: TestTableScale below finds a table it leaves behind
        sp = space(H4_HALF)
        raised = sp.index(1)[(tensor._sid(1, 0),) + (tensor._sid(0, 0),) * 3]
        assert sp.table(0, 0, -1) == (1, [{raised: 2}])


def factor_image(factor, sid: int, op) -> list:
    """A factor state's image as (sid, coefficient) pairs: its row of the
    irreducible_basis Gram (op "form") or inverse (op "inverse") at its
    level, or L(m) on it by expansion for an int op m."""
    if not isinstance(op, str):
        return list(factor.expansion(sid, op))
    level, i = divmod(sid, tensor._SID_STRIDE)
    b = irreducible_basis(factor.params, level)
    row = (b.inverse if op == "inverse" else b.gram)[i]
    return [(tensor._sid(level, j), x) for j, x in enumerate(row) if x]


TABLE_OPS = ["form", "inverse", *range(-4, 5)]


class TestTableScale:
    """Runs after TestSweep, whose fault fixture must not leave its tables behind."""

    @pytest.mark.parametrize("h", ISING_WEIGHTS)
    def test_tables_are_the_least_integer_multiple_of_the_images(self, h):
        """Each factor next to a vacuum factor, whose level 1 is empty, so the
        keys at a level L never put the other factor at L - 1: the scale
        clears the images of the states the keys use and no others."""
        sp = space(HVector((Fraction(h), Fraction(0))))
        for level in range(7):
            keys = sp.keys(level)
            for pos, factor in enumerate(sp.factors):
                for op in TABLE_OPS:
                    s, rows = sp.table(level, pos, op)
                    index = sp.index(level if isinstance(op, str) else level - op)
                    coeffs = []
                    for key, row in zip(keys, rows, strict=True):
                        image = factor_image(factor, key[pos], op)
                        assert list(row.items()) == [
                            (index[key[:pos] + (t,) + key[pos + 1:]], s * c) for t, c in image]
                        coeffs += [c for _, c in image]
                    for p in prime_factors(s):
                        assert any((s // p * c).denominator != 1 for c in coeffs)


def tuple_walk(terms: dict, vec: dict, pos: int, fmap, scale) -> dict:
    """terms += scale * (fmap on factor pos, identity elsewhere) applied to
    vec, on key tuples: fmap sends a factor state sid to (sid, coefficient)
    pairs. The factor-map step as it ran before the tables, kept as their
    reference."""
    for key, c in vec.items():
        sc = scale * c
        head, tail = key[:pos], key[pos + 1:]
        for sid2, c2 in fmap(key[pos]):
            nk = head + (sid2,) + tail
            terms[nk] = terms.get(nk, 0) + sc * c2
    return terms


def walked_action(v: TensorVector, m: int, u) -> TensorVector:
    """sum_i u_i L^(i)(m) v by the tuple walk over expansion."""
    terms: dict = {}
    for pos, f in enumerate(space(v.weights).factors):
        tuple_walk(terms, v.terms, pos, lambda sid: f.expansion(sid, m), u[pos])
    return TensorVector(v.weights, terms)


def walked_form_map(weights, level, rows, inverse=False):
    """P r (P^-1 r with inverse) for each row r, as rational rows, by the
    tuple walk over each factor's irreducible_basis Gram (inverse) rows."""
    sp = space(weights)
    keys = sp.keys(level)
    op = "inverse" if inverse else "form"
    out = []
    for row in rows:
        terms = {k: c for k, c in zip(keys, row, strict=True) if c}
        for pos, f in enumerate(sp.factors):
            terms = tuple_walk({}, terms, pos, lambda sid: factor_image(f, sid, op), 1)
        out.append([terms.get(k, 0) for k in keys])
    return out


def walked_lowered_rows(weights, n, items):
    """Per item (m, den, row, signs), sum_i u_i L^(i)(-m) (row / den) for
    each sign row u, as rational rows, by the tuple walk over expansion."""
    sp = space(weights)
    index = sp.index(n)
    out = []
    for m, den, row, signs in items:
        keys = sp.keys(n - m)
        vec = {keys[j]: Fraction(c, den) for j, c in enumerate(row) if c}
        images = [tuple_walk({}, vec, pos, lambda sid: f.expansion(sid, -m), 1)
                  for pos, f in enumerate(sp.factors)]
        totals = [[0] * len(index) for _ in signs]
        for t, total in zip(signs, totals):
            for sign, image in zip(t, images):
                for k, c in image.items():
                    total[index[k]] += sign * c
        out.append(totals)
    return out


TABLE_WEIGHTS = [H4_VAC, H4_HALF, HVector.sixteenth(4), HVector.vacuum(8)]


class TestFactorTables:
    """form_map and lowered_rows on the cached factor tables against the
    tuple walk, on random integer rows at levels 0-4. The rows are drawn
    dense, as the walk reads them, and go to the package as sparse rows."""

    @staticmethod
    def random_rows(rng, width, count):
        return [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(width)]
                for _ in range(count)]

    @pytest.mark.parametrize("weights", TABLE_WEIGHTS, ids=str)
    def test_form_map_matches_the_tuple_walk(self, weights):
        rng = random.Random(27)
        for level in range(5):
            rows = self.random_rows(rng, space(weights).dimension(level), 3)
            for inverse in (False, True):
                s, images = tensor.form_map(weights, level, sparse(rows), inverse)
                width = space(weights).dimension(level)
                assert ([[Fraction(x, s) for x in row] for row in dense(images, width)]
                        == walked_form_map(weights, level, rows, inverse))

    @pytest.mark.parametrize("weights", TABLE_WEIGHTS, ids=str)
    def test_lowered_rows_match_the_tuple_walk(self, weights):
        """Modes from -2 (raising, the row above level n) up to n, and sign
        rows with zero entries."""
        rng = random.Random(28)
        n_factors = weights.n
        signs = [[1] * n_factors, [-1, 0] * (n_factors // 2),
                 [rng.randint(-2, 2) for _ in range(n_factors)]]
        for n in range(5):
            items = [(m, rng.randint(1, 4),
                      self.random_rows(rng, space(weights).dimension(n - m), 1)[0], signs)
                     for m in range(-2, n + 1)]
            big, images = tensor.lowered_rows(
                weights, n, [(m, den, sparse([row])[0], u) for m, den, row, u in items])
            width = space(weights).dimension(n)
            assert ([[[Fraction(x, big) for x in row] for row in dense(item, width)]
                     for item in images]
                    == walked_lowered_rows(weights, n, items))

    @pytest.mark.parametrize("before", [True, False], ids=["before-the-first", "past-the-last"])
    def test_form_map_rejects_a_column_outside_the_level(self, before):
        width = space(H4_HALF).dimension(3)
        with pytest.raises(ValueError):
            tensor.form_map(H4_HALF, 3, [{0: 1, -1 if before else width: 1}])


class TestWeightOne:
    def test_e8_dimension_count(self):
        report = weight1_count_e8()
        assert report.total == 248
        assert report.vacuum_dimension == 0
        assert report.two_half_count == 120
        assert report.two_half_dimension == 120
        assert report.sixteenth_copies == 128
        assert report.sixteenth_dimension == 1

    def test_ising_weights_are_the_allowed_entries(self):
        for h in ISING_WEIGHTS:
            HVector((Fraction(h),))
