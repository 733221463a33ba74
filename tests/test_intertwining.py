"""Forced coefficient systems: recursion values, consistency, integrality."""

import functools
import itertools
import math
import random
from collections import Counter, namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingforms import intertwining
from isingforms.codes import (
    BinaryCode,
    RequestError,
    Word,
    c16,
    even_code,
    goodform_conditions,
    hamming8,
    sign_basis,
)
from isingforms.intertwining import (
    TripleSpec,
    build_correlation,
    check_well_defined,
    cross_bracket_step,
    framed_criterion,
    framed_summands,
    integrality_verdict,
    parse_lowest_table,
)
from isingforms.intmat import RowSpanSolver, _rref
from isingforms.lattices import (
    SpanningMonomial,
    evaluate_monomial,
    lattice_at_level,
    spanning_monomials,
)
from isingforms.tensor import (
    _SID_STRIDE,
    HVector,
    _factor,
    TensorVector,
    commutator_symbolic,
    lt0_eigenvalue,
    lt_action,
    space,
)
from isingforms.virasoro import ISING_WEIGHTS, irreducible_basis, ising_params
from test_intmat import dense
from test_lattices import basis_vectors

H_HALF = HVector.parse("1/2,1/2,0,0")
H_VAC = HVector.vacuum(4)
H8_HALF = HVector.parse("1/2,1/2,0,0,0,0,0,0")


def main_spec(c=1) -> TripleSpec:
    return TripleSpec(H_HALF, H_HALF, H_VAC, even_code(4), Fraction(c))


def hamming_spec() -> TripleSpec:
    return TripleSpec(HVector.vacuum(8), H8_HALF, H8_HALF, hamming8(), Fraction(1))


def ill_defined_spec(h3: str) -> TripleSpec:
    return TripleSpec(H_HALF, H_HALF, HVector.parse(h3), even_code(4), Fraction(1))


def dot(xs, ys):
    return sum((x * y for x, y in zip(xs, ys)), Fraction(0))


def row_span_route(spec: TripleSpec, max_level: int):
    """The former build: per level the monomials, their multipliers, and a
    RowSpanSolver over their vectors through whose solves later levels peel."""
    levels = {}

    def vector_multiplier(v):
        if v.is_zero():
            return Fraction(0)
        _, mults, solver = levels[v.level()]
        return dot(solver.solve(v.coordinates(v.level())), mults)

    for level in range(max_level + 1):
        mons = spanning_monomials(spec.code, spec.h3, level)
        mults = []
        for mon in mons:
            if not mon.ops:
                mults.append(Fraction(1))
                continue
            m, t = mon.ops[0]
            rest = evaluate_monomial(SpanningMonomial(mon.ops[1:]), spec.h3)
            mults.append(cross_bracket_step(
                m, vector_multiplier(lt_action(t, 0, rest)), vector_multiplier(rest),
                lt0_eigenvalue(t, spec.h1), lt0_eigenvalue(t, spec.h2)))
        rows = [evaluate_monomial(mon, spec.h3).coordinates(level) for mon in mons]
        levels[level] = (mons, mults, RowSpanSolver(rows))
    return levels


def lt_action_peel(corr, t, m: int, w: TensorVector) -> Fraction:
    """The oracle peel: F(L_T(0) w) read off lt_action(t, 0, w) through
    vector_multiplier, with no moments."""
    spec = corr.spec
    return cross_bracket_step(
        m, corr.vector_multiplier(lt_action(t, 0, w)), corr.vector_multiplier(w),
        lt0_eigenvalue(t, spec.h1), lt0_eigenvalue(t, spec.h2))


def lt_action_order_checks(corr) -> tuple[int, tuple[str, ...]]:
    """The order check on every monomial with two or more operators: peeling
    the second operator first and adding the symbolic commutator must give
    the stored multiplier, every peel through lt_action_peel. Returns
    (checks, labels of the failing monomials); check_well_defined counts the
    same checks, and its factor check decides them."""
    checks, failures = 0, []
    for level in range(corr.max_level + 1):
        for mon in corr.monomials(level):
            if len(mon.ops) < 2:
                continue
            (m1, t1), (m2, t2) = mon.ops[:2]
            tail = corr.vector(SpanningMonomial(mon.ops[2:]))
            swapped = lt_action_peel(
                corr, t2, m2, corr.vector(SpanningMonomial(mon.ops[:1] + mon.ops[2:])))
            terms = commutator_symbolic(t1, t2, -m1, -m2)
            rewritten = swapped + terms.linear * lt_action_peel(corr, terms.word, m1 + m2, tail) \
                + terms.central * corr.vector_multiplier(tail)
            checks += 1
            if corr.multiplier(mon) != rewritten:
                failures.append(mon.label())
    return checks, tuple(failures)


def level_two_multipliers(corr):
    return {
        mon.ops[0][1].to_string(): corr.multiplier(mon)
        for mon in corr.monomials(2)
    }


class TestCrossBracketStep:
    def test_lowest_vector_substitution(self):
        # peeling off the lowest vector gives (a3 - a2 + m*a1) times the base value
        a1, a2, a3 = Fraction(1), Fraction(1), Fraction(0)
        assert cross_bracket_step(1, a3, Fraction(1), a1, a2) == 0
        assert cross_bracket_step(2, a3, Fraction(1), a1, a2) == 1

    def test_all_zero_eigenvalues(self):
        assert cross_bracket_step(3, Fraction(0), Fraction(5), Fraction(0), Fraction(0)) == 0

    def test_linear_in_mode(self):
        base = cross_bracket_step(0, Fraction(2), Fraction(3), Fraction(7), Fraction(5))
        for m in range(1, 4):
            assert cross_bracket_step(m, Fraction(2), Fraction(3), Fraction(7), Fraction(5)) \
                == base + m * 7 * 3


# the fields _label_constants reads, without TripleSpec's admissibility check:
# every admissible triple has integral zero-mode eigenvalues, so k = 1 there
LabelSpec = namedtuple("LabelSpec", "h1 h2 h3 code")
C16_WORDS = c16().words()
weight_vectors = st.lists(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 16)]),
                          min_size=16, max_size=16).map(lambda xs: HVector(tuple(xs)))


class TestIntegerPeel:
    """The build's peel on integer moments M over q against fraction_peel
    (cross_bracket_step) on the moments M / q, for every c16 codeword, with
    weights over {0, 1/2, 1/16} so that k runs up to 16."""

    @given(hs=st.tuples(weight_vectors, weight_vectors, weight_vectors),
           m=st.integers(min_value=1, max_value=12),
           moments=st.lists(st.integers(min_value=-10**6, max_value=10**6),
                            min_size=17, max_size=17),
           q=st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=60, deadline=None)
    def test_matches_cross_bracket_step(self, hs, m, moments, q):
        spec = LabelSpec(*hs, c16())
        labels = intertwining._label_constants(spec)
        assert labels[C16_WORDS[0]][1] == functools.reduce(
            math.lcm, (lt0_eigenvalue(t, h).denominator for t in C16_WORDS for h in hs))
        rational = [Fraction(x, q) for x in moments]
        for t in C16_WORDS:
            assert intertwining._peel_multiplier(labels[t], m, (q, moments)) == \
                fraction_peel(spec, t, m, rational)

    def test_k_reaches_sixteen(self):
        h = HVector((Fraction(1, 16),) + (Fraction(0),) * 15)
        labels = intertwining._label_constants(LabelSpec(h, h, h, c16()))
        assert {label[1] for label in labels.values()} == {16}


class TestBuildCorrelation:
    def test_base_value_and_exponent(self):
        corr = build_correlation(main_spec(Fraction(3, 7)), 2)
        empty = corr.monomials(0)[0]
        assert corr.value(empty) == Fraction(3, 7)
        assert corr.base_exponent == -2
        assert corr.exponent(2) == 0

    def test_level_two_values(self):
        corr = build_correlation(main_spec(), 2)
        assert level_two_multipliers(corr) == {
            "0000": 1, "0011": 1, "0101": 0, "0110": 0,
        }

    def test_level_three_values(self):
        corr = build_correlation(main_spec(), 3)
        mults = {
            mon.ops[0][1].to_string(): corr.multiplier(mon)
            for mon in corr.monomials(3)
        }
        assert mults == {"0000": 2, "0011": 2, "0101": 0, "0110": 0}

    def test_multipliers_do_not_depend_on_c(self):
        a = build_correlation(main_spec(1), 4)
        b = build_correlation(main_spec(Fraction(7, 3)), 4)
        for level in range(5):
            assert a.monomials(level) == b.monomials(level)
            assert [a.multiplier(mon) for mon in a.monomials(level)] == \
                [b.multiplier(mon) for mon in b.monomials(level)]

    def test_values_scale_linearly_with_c(self):
        a = build_correlation(main_spec(1), 3)
        b = build_correlation(main_spec(5), 3)
        for level in range(4):
            for mon in a.monomials(level):
                assert b.value(mon) == 5 * a.value(mon)

    def test_monomials_short_of_the_span_raise(self, monkeypatch):
        # vacuum level 2 of even:4: four monomials L_T(-2)v against four keys
        full = intertwining.spanning_monomials
        assert len(full(even_code(4), H_VAC, 2)) == space(H_VAC).dimension(2) == 4

        def one_short(code, weights, level):
            mons = full(code, weights, level)
            return mons[:-1] if level == 2 else mons

        monkeypatch.setattr(intertwining, "spanning_monomials", one_short)
        # the three rows left fit the true F, so only a wrong one reaches _rref
        wrong_product_formula(monkeypatch)
        with pytest.raises(ArithmeticError, match="level 2"):
            build_correlation(main_spec(), 2)

    @pytest.mark.parametrize("weights", [H_HALF, HVector.vacuum(6)], ids=["same-n", "six"])
    def test_vector_multiplier_rejects_other_modules(self, weights):
        corr = build_correlation(main_spec(), 2)
        with pytest.raises(ValueError, match="vector from a different tensor module"):
            corr.vector_multiplier(TensorVector.lowest(weights))

    def test_rejects_negative_max_level(self):
        with pytest.raises(ValueError, match="max_level"):
            build_correlation(main_spec(), -1)

    def test_rejects_inadmissible_weights(self):
        with pytest.raises(ValueError):
            TripleSpec(HVector.parse("1/2,0,0,0"), H_HALF, H_VAC, even_code(4), 1)
        with pytest.raises(RequestError):
            TripleSpec(H_HALF, H_HALF, HVector.parse("1/2,0,0,0"), even_code(4), 1)


class TestWellDefined:
    def test_main_triple_through_level_four(self):
        corr = build_correlation(main_spec(), 4)
        report = check_well_defined(corr)
        assert report.well_defined
        assert report.order_checks == 10  # the ten (2,2)-shaped monomials
        assert lt_action_order_checks(corr) == (10, ())
        assert report.relation_checks == 0  # monomial rows independent so far

    def test_main_triple_through_level_six_has_relations(self):
        report = check_well_defined(build_correlation(main_spec(), 6))
        assert report.well_defined
        assert report.order_checks == 72
        assert report.relation_checks == 4  # 50 spanning rows, rank 46
        assert report.relation_failures == ()

    @pytest.mark.parametrize("h3, max_level, checks", [(H_VAC, 7, 144), (H_HALF, 5, 395)])
    def test_swapped_operand_is_a_stored_monomial(self, h3, max_level, checks):
        """Dropping a monomial's second operator leaves an enumerated monomial,
        whose stored vector is the first operator applied to the tail."""
        corr = build_correlation(TripleSpec(H_HALF, H_HALF, h3, even_code(4), 1), max_level)
        seen = 0
        for level in range(max_level + 1):
            for mon in corr.monomials(level):
                if len(mon.ops) < 2:
                    continue
                (m1, t1), tail = mon.ops[0], mon.ops[2:]
                assert corr.vector(SpanningMonomial(mon.ops[:1] + tail)) == lt_action(
                    t1, -m1, corr.vector(SpanningMonomial(tail)))
                seen += 1
        assert seen == checks == check_well_defined(corr).order_checks

    def test_functional_equation_on_arbitrary_vectors(self):
        # the recursion must hold for the linear extension, not only monomials
        spec = main_spec()
        corr = build_correlation(spec, 4)
        code = even_code(4)
        basis = basis_vectors(lattice_at_level(code, H_VAC, 2))
        for w in basis:
            for t in code.words():
                a1 = lt0_eigenvalue(t, spec.h1)
                a2 = lt0_eigenvalue(t, spec.h2)
                for m in (1, 2):
                    lhs = corr.vector_multiplier(lt_action(t, -m, w))
                    rhs = cross_bracket_step(
                        m,
                        corr.vector_multiplier(lt_action(t, 0, w)),
                        corr.vector_multiplier(w),
                        a1,
                        a2,
                    )
                    assert lhs == rhs


def row_span_relations(spec: TripleSpec, max_level: int) -> int:
    """Check the build against row_span_route level by level: monomials,
    multipliers, the functional on every key and the relation values. Returns
    the number of relations."""
    corr = build_correlation(spec, max_level)
    relations = 0
    for level, (mons, mults, solver) in row_span_route(spec, max_level).items():
        assert corr.monomials(level) == mons
        assert [corr.multiplier(mon) for mon in mons] == mults
        for key in space(spec.h3).keys(level):
            e = TensorVector(spec.h3, {key: Fraction(1)})
            assert corr.vector_multiplier(e) == dot(solver.solve(e.coordinates(level)), mults)
        assert corr.relation_values(level) == [dot(k, mults) for k in solver.kernel()]
        relations += len(solver.kernel())
    return relations


class TestAgainstRowSpanRoute:
    def test_functional_and_relations_match(self):
        assert row_span_relations(main_spec(), 6) == 4

    def test_functional_and_relations_match_on_hamming8(self):
        assert row_span_relations(hamming_spec(), 3) == 211

    def test_relation_failures_match_on_ill_defined_triple(self):
        spec = TripleSpec(H_HALF, H_HALF, HVector.parse("1/2,1/2,1/2,1/2"),
                          even_code(4), Fraction(1))
        report = check_well_defined(build_correlation(spec, 4))
        failures = tuple(
            level
            for level, (_, mults, solver) in row_span_route(spec, 4).items()
            for k in solver.kernel() if dot(k, mults)
        )
        assert len(failures) == 35  # 2, 6 and 27 at levels 2, 3, 4
        assert report.relation_failures == failures

    @pytest.mark.parametrize("h3, failures", [
        ("1/2,1/2,1/2,1/2", 24), ("0,0,1/2,1/2", 20),
    ])
    def test_order_failures_match_lt_action_route(self, h3, failures):
        spec = TripleSpec(H_HALF, H_HALF, HVector.parse(h3), even_code(4), Fraction(1))
        corr = build_correlation(spec, 4)
        report = check_well_defined(corr)
        checks, order_failures = lt_action_order_checks(corr)
        assert report.order_checks == checks == 147
        assert len(order_failures) == failures
        assert report.factor_failures and not report.well_defined
        assert report.relation_failures == tuple(
            level
            for level, (_, mults, solver) in row_span_route(spec, 4).items()
            for k in solver.kernel() if dot(k, mults)
        )


ZERO, HALF, SIXTEENTH = ISING_WEIGHTS
# The Ising fusion rules, 0 the unit, 1/2 x 1/2 = 0, 1/2 x 1/16 = 1/16 and
# 1/16 x 1/16 = 0 + 1/2 (W. Wang, IMRN 1993), as the triples (h1, h2, h3)
# with an intertwining operator of type (h3; h1, h2).
FUSION = ({(ZERO, h, h) for h in ISING_WEIGHTS} | {(h, ZERO, h) for h in ISING_WEIGHTS}
          | {(HALF, HALF, ZERO), (HALF, SIXTEENTH, SIXTEENTH), (SIXTEENTH, HALF, SIXTEENTH),
             (SIXTEENTH, SIXTEENTH, ZERO), (SIXTEENTH, SIXTEENTH, HALF)})


def sampled_triples(code: BinaryCode, count: int, seed: int) -> list[TripleSpec]:
    """count triples of weight vectors over {0, 1/2} with integral totals.
    H1 and H2 are drawn at random; H3 is in turn drawn at random, fused from
    H1 and H2 (h1 + h2 mod 1 per factor), and the vacuum power twice, the
    first time with H2 = H1. So every kind of triple below is met."""
    rng, vectors, vacuum = random.Random(seed), framed_summands(code.n), HVector.vacuum(code.n)
    out = []
    for kind in itertools.islice(itertools.cycle(range(4)), count):
        h1, h2, h3 = rng.choice(vectors), rng.choice(vectors), rng.choice(vectors)
        if kind == 1:
            h3 = HVector(tuple((a + b) % 1 for a, b in zip(h1.entries, h2.entries)))
        elif kind > 1:
            h2, h3 = h1 if kind == 2 else h2, vacuum
        out.append(TripleSpec(h1, h2, h3, code, Fraction(1)))
    return out


class TestFactorwiseFusion:
    """check_well_defined's factor check against the fusion rules, and
    against its order and relation checks on the code module triples."""

    def test_factor_check_is_the_fusion_table(self):
        for h1, h2, h3 in itertools.product(ISING_WEIGHTS, repeat=3):
            want = None if (h1, h2, h3) in FUSION else (0, 1) if h3 == ZERO else (1, 1)
            assert intertwining._factor_failure(_factor(h3), h1, h2, 6) == want, (h1, h2, h3)

    @pytest.mark.parametrize("code, max_level, seed", [(even_code(4), 4, 1), (hamming8(), 3, 2)],
                             ids=["even4", "hamming8"])
    def test_sample_matches_the_order_and_relation_checks(self, code, max_level, seed):
        seen = Counter()
        for spec in sampled_triples(code, 20, seed):
            corr = build_correlation(spec, max_level)
            report = check_well_defined(corr)
            fixed = zip(spec.h1.entries, spec.h2.entries, spec.h3.entries)
            assert [i for i, *_ in report.factor_failures] == [
                i for i, triple in enumerate(fixed) if triple not in FUSION]
            vacuum = spec.h3 == HVector.vacuum(code.n)
            if vacuum:
                assert report.well_defined == (spec.h1 == spec.h2)
            else:
                checks, order_failures = lt_action_order_checks(corr)
                assert checks == report.order_checks
                assert (report.factor_failures == ()) == (
                    order_failures == report.relation_failures == ())
            seen[vacuum, report.well_defined] += 1
        assert len(seen) == 4, seen  # both verdicts, with and without a vacuum H3

    @pytest.mark.parametrize("h1, h2, h3, code, max_level, failures", [
        ("0,0,0,0", "0,0,1/2,1/2", "0,0,0,0", even_code(4), 4, ((2, 0, 1), (3, 0, 1))),
        ("0,0,0,0,0,0,0,0", "1/2,1/2,0,0,0,0,0,0", "0,0,0,0,0,0,0,0", hamming8(), 4,
         ((0, 0, 1), (1, 0, 1))),
        ("1/2,1/2,0,0", "0,0,0,0", "0,0,0,0", even_code(4), 3, ((0, 0, 1), (1, 0, 1))),
    ], ids=["even4", "hamming8", "even4-no-checks"])
    def test_vacuum_target_fails_only_factor_by_factor(self, h1, h2, h3, code, max_level,
                                                      failures):
        # L(-1) kills the vacuum, yet the recursion forces F(L(-1) v) = h1 - h2;
        # no spanning monomial of a vacuum power takes mode 1, so the order and
        # relation checks cannot see it.
        spec = TripleSpec(*map(HVector.parse, (h1, h2, h3)), code, Fraction(1))
        corr = build_correlation(spec, max_level)
        report = check_well_defined(corr)
        assert report.factor_failures == failures
        assert lt_action_order_checks(corr) == (report.order_checks, ())
        assert report.relation_failures == ()
        assert not report.well_defined

    @pytest.mark.parametrize("h1, h2, h3, checks, fails", [
        ("S", "S", "0", 0, False), ("0", "S", "S", 136, False),
        ("S", "0", "S", 136, False), ("S", "S", "S", 136, True),
    ], ids=["SS0", "0SS", "S0S", "SSS"])
    def test_sixteenth_modules_pass_the_order_checks(self, h1, h2, h3, checks, fails):
        # the {0, 1/2} samples never reach h = 1/16; S = (1/16)^16 on c16 to level 2
        weights = {"S": HVector.sixteenth(16), "0": HVector.vacuum(16)}
        spec = TripleSpec(weights[h1], weights[h2], weights[h3], c16(), Fraction(1))
        corr = build_correlation(spec, 2)
        report = check_well_defined(corr)
        assert lt_action_order_checks(corr) == (report.order_checks, ()) == (checks, ())
        assert bool(report.factor_failures) == fails == (not report.well_defined)


def fraction_peel(spec, t, m: int, moments: list[Fraction]) -> Fraction:
    """The peel of a vector w with Fraction moments (F(w), F(N_1 w), ...):
    F(L_T(0) w) = lt0_eigenvalue(T, H3) F(w) + sum_i s_i(T) F(N_i w), then
    cross_bracket_step, all in Fractions."""
    f_lt0_w = lt0_eigenvalue(t, spec.h3) * moments[0] + dot(t.signs(), moments[1:])
    return cross_bracket_step(m, f_lt0_w, moments[0], lt0_eigenvalue(t, spec.h1),
                              lt0_eigenvalue(t, spec.h2))


@functools.cache
def rref_route(spec: TripleSpec, max_level: int):
    """The former build: each monomial vector as a TensorVector through
    lt_action, and per level one _rref over the dense Fraction coordinates
    of every monomial, each with its multiplier as an extra column; every
    peel through fraction_peel. Returns, per level, (multipliers, functional
    on the keys, relation values), and every monomial's vector and moments,
    the moments summed in Fractions."""
    sp = space(spec.h3)
    vectors = {SpanningMonomial(()): TensorVector.lowest(spec.h3)}
    moments, levels = {}, {}
    for level in range(max_level + 1):
        mons = spanning_monomials(spec.code, spec.h3, level)
        mults = {mon: Fraction(1) for mon in mons if not mon.ops}
        groups = {}
        for mon in mons:
            if mon.ops:
                groups.setdefault((mon.ops[0][0], SpanningMonomial(mon.ops[1:])), []).append(mon)
        for (m, rest), group in groups.items():
            words = [mon.ops[0][1] for mon in group]
            vectors.update((mon, lt_action(t, -m, vectors[rest])) for mon, t in zip(group, words))
            mults.update((mon, fraction_peel(spec, t, m, moments[rest]))
                         for mon, t in zip(group, words))
        keys = sp.keys(level)
        reduced, pivots = _rref(
            [vectors[mon].coordinates(level) + [mults[mon]] for mon in mons], len(keys))
        assert len(pivots) == len(keys)
        f = {keys[c]: row[-1] for c, row in zip(pivots, reduced)}
        factor_levels = sp.factor_levels(level)
        for mon in mons:
            terms = vectors[mon].terms.items()
            moments[mon] = [sum((f[k] * c for k, c in terms), Fraction(0))] + [
                sum((f[k] * factor_levels[k][i] * c for k, c in terms), Fraction(0))
                for i in range(sp.n)]
        levels[level] = ([mults[mon] for mon in mons], f,
                         [row[-1] for row in reduced[len(pivots):]])
    return levels, vectors, moments


def assert_matches_rref_route(corr):
    """Multipliers, functional, relation values (in order), vector() and the
    build's moments (intertwining._moments on its stored rows, as rationals
    M / q) of corr equal those of rref_route."""
    levels, vectors, moments = rref_route(corr.spec, corr.max_level)
    assert sorted(levels) == list(range(corr.max_level + 1))
    sp = space(corr.spec.h3)
    for level, (mults, f, relations) in levels.items():
        mons = corr.monomials(level)
        assert [corr.multiplier(mon) for mon in mons] == mults
        assert {k: corr.vector_multiplier(TensorVector(corr.spec.h3, {k: Fraction(1)}))
                for k in f} == f
        assert corr.relation_values(level) == relations
        q, level_moments = intertwining._moments(
            sp, level, [corr._rows[mon] for mon in mons], corr._denominators[level],
            [corr._functional[level][k] for k in sp.keys(level)])
        for mon, integer_moments in zip(mons, level_moments):
            assert corr.vector(mon) == vectors[mon]
            assert [Fraction(x, q) for x in integer_moments] == moments[mon]


def wrong_product_formula(monkeypatch):
    """Add 1 to every single-factor value, so the product formula leaves a
    residual on every level that has rows. Doubling F would not: on the
    hamming8 half-pair triple F is 0 above level 0."""
    orig = intertwining._factor_value
    monkeypatch.setattr(intertwining, "_factor_value", lambda *a: orig(*a) + 1)


def rref_spy(monkeypatch) -> list[tuple[int, int]]:
    """(rows, columns) of every _rref call build_correlation makes."""
    calls = []

    def spy(rows, ncols):
        calls.append((len(rows), ncols))
        return _rref(rows, ncols)

    monkeypatch.setattr(intertwining, "_rref", spy)
    return calls


ROUTE_CASES = [
    (main_spec(), 8),
    (ill_defined_spec("1/2,1/2,1/2,1/2"), 5),
    (ill_defined_spec("0,0,1/2,1/2"), 5),
    (hamming_spec(), 4),
]
ROUTE_IDS = ["even4-vacuum-8", "even4-all-half-5", "even4-second-pair-5", "hamming8-4"]
# well-defined triples: even:4 main, hamming8 half-pair and both c16 triples with a 1/16 pair
WELL_DEFINED_CASES = [
    ROUTE_CASES[0],
    ROUTE_CASES[3],
    (TripleSpec(HVector.sixteenth(16), HVector.sixteenth(16), HVector.vacuum(16), c16(), 1), 2),
    (TripleSpec(HVector.vacuum(16), HVector.sixteenth(16), HVector.sixteenth(16), c16(), 1), 1),
]


class TestAgainstRrefRoute:
    """The product formula, checked on each level's rows, against one full
    elimination per level."""

    @pytest.mark.parametrize("spec, max_level", ROUTE_CASES, ids=ROUTE_IDS)
    def test_build_matches(self, spec, max_level):
        assert_matches_rref_route(build_correlation(spec, max_level))

    @pytest.mark.parametrize("spec, max_level", ROUTE_CASES, ids=ROUTE_IDS)
    def test_wrong_product_formula_falls_back(self, monkeypatch, spec, max_level):
        wrong_product_formula(monkeypatch)
        calls = rref_spy(monkeypatch)
        corr = build_correlation(spec, max_level)
        assert_matches_rref_route(corr)
        # some level ran through _rref on all of its rows, more than its keys
        assert any(rows > cols for rows, cols in calls)

    def test_well_defined_triples_run_no_elimination(self, monkeypatch):
        calls = rref_spy(monkeypatch)
        for spec, max_level in WELL_DEFINED_CASES:
            assert check_well_defined(build_correlation(spec, max_level)).well_defined
        assert calls == []  # every level took F from the product formula

    @pytest.mark.parametrize("spec, max_level", ROUTE_CASES[1:3], ids=ROUTE_IDS[1:3])
    def test_failing_levels_run_every_row(self, monkeypatch, spec, max_level):
        calls = rref_spy(monkeypatch)
        corr = build_correlation(spec, max_level)
        failing = set(check_well_defined(corr).relation_failures)
        assert failing == {2, 3, 4, 5}
        for level in failing:
            assert (len(corr.monomials(level)), space(spec.h3).dimension(level)) in calls


CERTIFICATE_CASES = ROUTE_CASES + WELL_DEFINED_CASES[2:]
CERTIFICATE_IDS = ROUTE_IDS + ["c16-sixteenth-to-vacuum-2", "c16-vacuum-to-sixteenth-1"]


def random_good_codes(draws: int, seed: int) -> list[BinaryCode]:
    """The codes among `draws` seeded draws that pass the form conditions:
    the full set and two to five random even words on 4, 8 or 12 points."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        n = rng.choice((4, 8, 12))
        words = [rng.getrandbits(n) for _ in range(rng.randint(2, 5))]
        code = BinaryCode(n, [Word((1 << n) - 1, n)]
                          + [Word(w ^ w.bit_count() % 2, n) for w in words])
        if goodform_conditions(code).passed:
            out.append(code)
    return out


class TestLatticeCertificate:
    """build_correlation keeps the product formula's F on a level with no
    residual, as the unique solution, because the monomial rows span every
    level. The proof (lattices module docstring): a code passing the form
    conditions contains the full set and separates every pair of positions,
    so its sign vectors are N distinct nontrivial characters of C, linearly
    independent by Artin's lemma; each L^(i)(-m) is then a rational
    combination of the L_T(-m), and the straightened products span each
    level over Q. The first test checks the hypothesis, the second the
    conclusion on the build's own rows."""

    @pytest.mark.parametrize("code", [even_code(4), even_code(8), even_code(12), hamming8(),
                                      c16()], ids=["even4", "even8", "even12", "hamming8", "c16"])
    def test_sign_vectors_have_full_rank(self, code):
        assert len(sign_basis(code)) == code.n

    def test_random_codes_sign_vectors_have_full_rank(self):
        codes = random_good_codes(200, seed=0)
        assert codes  # 57 of the 200 draws pass the form conditions
        assert all(len(sign_basis(code)) == code.n for code in codes)

    @pytest.mark.parametrize("spec, max_level", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
    def test_rows_have_the_rank_of_the_lattice(self, spec, max_level):
        # at every level, on the ill-defined triples too
        corr = build_correlation(spec, max_level)
        for level in range(max_level + 1):
            ncols = space(spec.h3).dimension(level)
            rows = dense([corr._rows[mon] for mon in corr.monomials(level)], ncols)
            _, pivots = _rref(rows, ncols)
            assert len(pivots) == lattice_at_level(spec.code, spec.h3, level).rank == ncols


def closed_form(spec: TripleSpec, key) -> Fraction:
    """F(key) / c on a well-defined triple: the product over the factors of
    the single-factor recursion f(L(-m) w) = (h3 + N(w) + m h1 - h2) f(w)
    run along the factor's pivot monomial L(-m_1)...L(-m_k), N_j = m_{j+1} +
    ... + m_k the level it lowers."""
    out = Fraction(1)
    for h1, h2, h3, sid in zip(spec.h1.entries, spec.h2.entries, spec.h3.entries, key):
        level, idx = divmod(sid, _SID_STRIDE)
        modes = irreducible_basis(ising_params(h3), level).pivots[idx]
        for j, m in enumerate(modes):
            out *= h3 + sum(modes[j + 1:]) + m * h1 - h2
    return out


def closed_form_misses(corr) -> list[int]:
    """Levels where the built functional differs from closed_form on some key."""
    spec = corr.spec
    return [level for level in range(corr.max_level + 1)
            if any(corr.vector_multiplier(TensorVector(spec.h3, {key: Fraction(1)}))
                   != closed_form(spec, key) for key in space(spec.h3).keys(level))]


class TestClosedForm:
    """The test's own closed form against the build, which takes F from the
    same product formula on a well-defined triple; so each of these builds
    is also checked against the _rref route, which does not use it."""

    @pytest.mark.parametrize("spec, max_level", WELL_DEFINED_CASES,
                             ids=["even4-main", "hamming8-half-pair", "c16-sixteenth-to-vacuum",
                                  "c16-vacuum-to-sixteenth"])
    def test_well_defined_triples_match(self, spec, max_level):
        corr = build_correlation(spec, max_level)
        assert closed_form_misses(corr) == []
        assert_matches_rref_route(corr)

    @pytest.mark.parametrize("h3", ["1/2,1/2,1/2,1/2", "0,0,1/2,1/2"])
    def test_ill_defined_triples_differ(self, h3):
        assert closed_form_misses(build_correlation(ill_defined_spec(h3), 4)) == [2, 3, 4]


class TestVerdict:
    def test_true_at_integer_coefficient(self):
        report = integrality_verdict(build_correlation(main_spec(1), 4))
        assert report.integral
        assert report.witness is None

    def test_false_at_half_with_witness(self):
        report = integrality_verdict(build_correlation(main_spec(Fraction(1, 2)), 4))
        assert not report.integral
        assert report.witness is not None
        assert report.witness_value.denominator > 1

    def test_zero_coefficient(self):
        assert integrality_verdict(build_correlation(main_spec(0), 3)).integral

    def test_monotone_in_level(self):
        for level in range(5):
            assert integrality_verdict(build_correlation(main_spec(1), level)).integral


class TestFramed:
    def table_for(self, summands, value=Fraction(1)):
        return {
            (a, b, c): value
            for a in summands for b in summands for c in summands
        }

    def test_summand_enumeration(self):
        summands = framed_summands(4)
        assert len(summands) == 8
        sizes = sorted(h.support.weight for h in summands)
        assert sizes == [0, 2, 2, 2, 2, 2, 2, 4]

    def test_satisfied_report(self):
        decomposition = [(H_VAC, 1), (H_HALF, 1)]
        table = self.table_for([H_VAC, H_HALF])
        report = framed_criterion(decomposition, even_code(4), table, max_level=2)
        assert report.satisfied
        assert len(report.triples) == 8
        assert all(v.confirmed for v in report.triples)
        assert "not claimed" in report.conclusion

    def test_half_entry_flagged(self):
        decomposition = [(H_VAC, 1), (H_HALF, 1)]
        table = self.table_for([H_VAC, H_HALF])
        table[(H_HALF, H_HALF, H_VAC)] = Fraction(1, 2)
        report = framed_criterion(decomposition, even_code(4), table, max_level=0)
        assert not report.satisfied
        flagged = [v for v in report.triples if not v.integral]
        assert len(flagged) == 1
        assert flagged[0].value == Fraction(1, 2)

    def test_empty_decomposition_raises(self):
        with pytest.raises(RequestError, match="empty decomposition"):
            framed_criterion([], even_code(4), {})

    def test_missing_entries_raise(self):
        decomposition = [(H_VAC, 1), (H_HALF, 1)]
        table = self.table_for([H_VAC, H_HALF])
        del table[(H_VAC, H_VAC, H_VAC)]
        with pytest.raises(RequestError, match="missing 1"):
            framed_criterion(decomposition, even_code(4), table)


class TestParseTable:
    def test_round_trip(self):
        text = (
            "# triple table\n"
            "0,0,0,0\t0,0,0,0\t0,0,0,0\t1\n"
            "1/2,1/2,0,0\t0,0,0,0\t1/2,1/2,0,0\t-3/2\n"
        )
        table = parse_lowest_table(text)
        assert len(table) == 2
        assert table[(H_HALF, H_VAC, H_HALF)] == Fraction(-3, 2)

    def test_bad_column_count(self):
        with pytest.raises(RequestError, match="line 2: expected 4"):
            parse_lowest_table("0,0\t0,0\t0,0\t1\n0,0\t0,0\t1\n")

    def test_bad_value(self):
        with pytest.raises(RequestError, match="line 1: Invalid literal"):
            parse_lowest_table("0,0\t0,0\t0,0\tx\n")

    @pytest.mark.parametrize("text, message", [
        ("0,0\t0,0\t0,0\t1/0\n", "line 1: zero denominator in '1/0'"),
        ("0,0\t1/4,0\t0,0\t1\n", "line 1: factor weights must be 0, 1/2 or 1/16"),
    ], ids=["zero-denominator", "weight"])
    def test_bad_lines_are_request_errors(self, text, message):
        with pytest.raises(RequestError, match=message):
            parse_lowest_table(text)
