"""Forced coefficient systems: recursion values, consistency, integrality."""

from fractions import Fraction

import pytest

from isingforms import intertwining
from isingforms.codes import RequestError, Word, even_code
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
from isingforms.intmat import RowSpanSolver
from isingforms.lattices import (
    SpanningMonomial,
    evaluate_monomial,
    lattice_at_level,
    spanning_monomials,
)
from isingforms.tensor import HVector, TensorVector, lt0_eigenvalue, lt_action, space

H_HALF = HVector.parse("1/2,1/2,0,0")
H_VAC = HVector.vacuum(4)


def main_spec(c=1) -> TripleSpec:
    return TripleSpec(H_HALF, H_HALF, H_VAC, even_code(4), Fraction(c))


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
        assert a.table() == b.table()

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
        with pytest.raises(ArithmeticError, match="level 2"):
            build_correlation(main_spec(), 2)

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
        report = check_well_defined(build_correlation(main_spec(), 4))
        assert report.well_defined
        assert report.order_checks == 10  # the ten (2,2)-shaped monomials
        assert report.order_failures == ()
        assert report.relation_checks == 0  # monomial rows independent so far
        assert all(report.nondegenerate_levels.values())

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
        basis = lattice_at_level(code, H_VAC, 2).basis_vectors()
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


class TestAgainstRowSpanRoute:
    def test_functional_and_relations_match(self):
        spec = main_spec()
        corr = build_correlation(spec, 6)
        old = row_span_route(spec, 6)
        relations = 0
        for level, (mons, mults, solver) in old.items():
            assert corr.monomials(level) == mons
            assert [corr.multiplier(mon) for mon in mons] == mults
            for key in space(spec.h3).keys(level):
                e = TensorVector(spec.h3, {key: Fraction(1)})
                assert corr.vector_multiplier(e) == dot(solver.solve(e.coordinates(level)), mults)
            assert corr.relation_values(level) == [dot(k, mults) for k in solver.kernel()]
            relations += len(solver.kernel())
        assert relations == 4

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

    def test_missing_entries_raise(self):
        decomposition = [(H_VAC, 1), (H_HALF, 1)]
        table = self.table_for([H_VAC, H_HALF])
        del table[(H_VAC, H_VAC, H_VAC)]
        with pytest.raises(ValueError, match="missing 1"):
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
        with pytest.raises(ValueError, match="line 2"):
            parse_lowest_table("0,0\t0,0\t0,0\t1\n0,0\t0,0\t1\n")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_lowest_table("0,0\t0,0\t0,0\tx\n")
