"""Matrix coefficients of candidate intertwining maps between code modules.

No intertwining operator is ever constructed. Starting from one formal
scalar c attached to the lowest weight vectors, the cross-bracket recursion

    F(L_T(-m) w) = F(L_T(0) w) + (m * a1 - a2) * F(w),

with a1, a2 the zero-mode eigenvalues on the first two modules, forces a
unique value on every spanning monomial of the third module. The checks
here certify that these forced values are consistent (order-independent and
vanishing on all linear relations) and decide whether they are integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .codes import BinaryCode, RequestError
from .intmat import _rref
from .lattices import SpanningMonomial, admissible_weights, spanning_monomials
from .tensor import (
    HVector,
    TensorVector,
    commutator_symbolic,
    form_nondegenerate,
    lt0_eigenvalue,
    lt_action,
    space,
)


@dataclass(frozen=True)
class TripleSpec:
    """Source pair and target module for one coefficient system."""

    h1: HVector
    h2: HVector
    h3: HVector
    code: BinaryCode
    lowest_coeff: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lowest_coeff", Fraction(self.lowest_coeff))
        for h in (self.h1, self.h2, self.h3):
            ok, reason = admissible_weights(self.code, h)
            if not ok:
                raise RequestError(f"inadmissible weight vector {h}: {reason}")


def cross_bracket_step(m: int, f_lt0_w: Fraction, f_w: Fraction,
                       a1: Fraction, a2: Fraction) -> Fraction:
    """One peeling step of the recursion; m is the positive lowered mode."""
    return f_lt0_w + (m * a1 - a2) * f_w


class CorrelationFunctional:
    """Forced coefficient system on spanning monomials, by level.

    Values are stored as multipliers of the formal scalar c, so linearity in
    c is structural. The attached x-exponent of a level-k monomial is
    base_exponent + k. Per level it keeps the multiplier of each monomial (in
    enumeration order), one functional value per state key (read off a maximal
    independent set of monomial vectors), and the value each linear relation
    among the monomial vectors takes on the multipliers, and each monomial's
    vector. Dropping the first or the second operator of an enumerated
    monomial leaves an enumerated monomial, because modes stay weakly
    decreasing and labels within a run of equal modes stay weakly increasing;
    so every rest and every swapped operand of check_well_defined is stored.
    """

    def __init__(self, spec: TripleSpec, base_exponent: Fraction,
                 multipliers: dict[int, dict[SpanningMonomial, Fraction]],
                 functional: dict[int, dict[tuple[int, ...], Fraction]],
                 relations: dict[int, list[Fraction]],
                 vectors: dict[SpanningMonomial, TensorVector]):
        self.spec = spec
        self.base_exponent = base_exponent
        self._multipliers = multipliers
        self._functional = functional
        self._relations = relations
        self._vectors = vectors

    @property
    def max_level(self) -> int:
        return max(self._multipliers)

    def monomials(self, level: int) -> list[SpanningMonomial]:
        return list(self._multipliers[level])

    def multiplier(self, mon: SpanningMonomial) -> Fraction:
        return self._multipliers[mon.level][mon]

    def vector(self, mon: SpanningMonomial) -> TensorVector:
        """The monomial applied to the lowest weight vector of the third module."""
        return self._vectors[mon]

    def value(self, mon: SpanningMonomial) -> Fraction:
        return self.multiplier(mon) * self.spec.lowest_coeff

    def exponent(self, level: int) -> Fraction:
        return self.base_exponent + level

    def table(self) -> dict[int, dict[SpanningMonomial, Fraction]]:
        return {level: dict(mults) for level, mults in sorted(self._multipliers.items())}

    def relation_values(self, level: int) -> list[Fraction]:
        """Each relation among the monomial vectors applied to the multipliers."""
        return list(self._relations[level])

    def vector_multiplier(self, v: TensorVector) -> Fraction:
        """Linear extension of the multipliers to an arbitrary module vector."""
        if v.is_zero():
            return Fraction(0)
        level = v.level()
        if level not in self._functional:
            raise ValueError(f"no values computed at level {level}")
        f = self._functional[level]
        return sum((f[key] * c for key, c in v.terms.items()), Fraction(0))


def build_correlation(spec: TripleSpec, max_level: int) -> CorrelationFunctional:
    """Propagate the lowest coefficient to every monomial level by level.

    One elimination of the rows [monomial vector | multiplier] per level: its
    pivot rows give the functional on the keys, the other rows the relation
    values. Monomials that do not span their level raise ArithmeticError.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    base_exponent = spec.h3.total - spec.h1.total - spec.h2.total
    multipliers: dict[int, dict[SpanningMonomial, Fraction]] = {}
    functional: dict[int, dict[tuple[int, ...], Fraction]] = {}
    relations: dict[int, list[Fraction]] = {}
    vectors: dict[SpanningMonomial, TensorVector] = {}
    out = CorrelationFunctional(spec, base_exponent, multipliers, functional, relations, vectors)
    for level in range(max_level + 1):
        mults: dict[SpanningMonomial, Fraction] = {}
        rows = []
        for mon in spanning_monomials(spec.code, spec.h3, level):
            if mon.ops:
                m, t = mon.ops[0]
                rest_vec = vectors[SpanningMonomial(mon.ops[1:])]
                mults[mon] = _peel_multiplier(out, spec, t, m, rest_vec)
                vec = lt_action(t, -m, rest_vec)
            else:
                mults[mon] = Fraction(1)
                vec = TensorVector.lowest(spec.h3)
            vectors[mon] = vec
            rows.append(vec.coordinates(level) + [mults[mon]])
        keys = space(spec.h3).keys(level)
        reduced, pivots = _rref(rows, len(keys))
        if len(pivots) < len(keys):
            raise ArithmeticError(
                f"level {level}: monomials span {len(pivots)} of {len(keys)} dimensions")
        multipliers[level] = mults
        functional[level] = {keys[c]: row[-1] for c, row in zip(pivots, reduced)}
        relations[level] = [row[-1] for row in reduced[len(pivots):]]
    return out


def _peel_multiplier(corr: CorrelationFunctional, spec: TripleSpec,
                     t, m: int, w: TensorVector) -> Fraction:
    """Apply the recursion step to an arbitrary vector w, lowering by m."""
    return cross_bracket_step(
        m,
        corr.vector_multiplier(lt_action(t, 0, w)),
        corr.vector_multiplier(w),
        lt0_eigenvalue(t, spec.h1),
        lt0_eigenvalue(t, spec.h2),
    )


@dataclass(frozen=True)
class WellDefinedReport:
    well_defined: bool
    order_checks: int
    order_failures: tuple[str, ...]
    relation_checks: int
    relation_failures: tuple[int, ...]
    nondegenerate_levels: dict[int, bool]


def check_well_defined(corr: CorrelationFunctional) -> WellDefinedReport:
    """Certify the forced values are a single linear functional.

    (a) For every monomial with at least two operators, peeling the second
    operator first and correcting with the symbolic commutator must give the
    stored value. (b) Every rational relation among the monomial coordinate
    rows must kill the stored values; since the factorwise form is checked
    nondegenerate per level, the relations are the whole kernel of the
    quotient from formal products to module vectors.
    """
    spec, max_level = corr.spec, corr.max_level
    order_failures: list[str] = []
    order_checks = 0
    for level in range(max_level + 1):
        for mon in corr.monomials(level):
            if len(mon.ops) < 2:
                continue
            (m1, t1), (m2, t2) = mon.ops[0], mon.ops[1]
            tail_vec = corr.vector(SpanningMonomial(mon.ops[2:]))
            # route one: the stored leftmost peel
            direct = corr.multiplier(mon)
            # route two: swap the first two operators, add the commutator
            swapped_inner = corr.vector(SpanningMonomial(mon.ops[:1] + mon.ops[2:]))
            swapped = _peel_multiplier(corr, spec, t2, m2, swapped_inner)
            terms = commutator_symbolic(t1, t2, -m1, -m2)
            bracket = _peel_multiplier(corr, spec, terms.word, m1 + m2, tail_vec)
            rewritten = swapped + terms.linear * bracket \
                + terms.central * corr.vector_multiplier(tail_vec)
            order_checks += 1
            if direct != rewritten:
                order_failures.append(mon.label())
    relation_failures: list[int] = []
    relation_checks = 0
    nondegenerate: dict[int, bool] = {}
    for level in range(max_level + 1):
        nondegenerate[level] = form_nondegenerate(spec.h3, level)
        for value in corr.relation_values(level):
            relation_checks += 1
            if value:
                relation_failures.append(level)
    return WellDefinedReport(
        well_defined=not order_failures and not relation_failures
        and all(nondegenerate.values()),
        order_checks=order_checks,
        order_failures=tuple(order_failures),
        relation_checks=relation_checks,
        relation_failures=tuple(relation_failures),
        nondegenerate_levels=nondegenerate,
    )


@dataclass(frozen=True)
class VerdictReport:
    integral: bool
    witness: SpanningMonomial | None
    witness_value: Fraction | None


def integrality_verdict(corr: CorrelationFunctional) -> VerdictReport:
    """Whether every forced coefficient lies in Z; first offender if not."""
    for level in range(corr.max_level + 1):
        for mon in corr.monomials(level):
            value = corr.value(mon)
            if value.denominator != 1:
                return VerdictReport(integral=False, witness=mon, witness_value=value)
    return VerdictReport(integral=True, witness=None, witness_value=None)


def framed_summands(n: int) -> list[HVector]:
    """All weight vectors over {0, 1/2} with integral total, support ascending."""
    half = Fraction(1, 2)
    out = []
    for size in range(0, n + 1, 2):
        for support in itertools.combinations(range(n), size):
            entries = [Fraction(0)] * n
            for i in support:
                entries[i] = half
            out.append(HVector(tuple(entries)))
    return out


@dataclass(frozen=True)
class TripleVerdict:
    h1: HVector
    h2: HVector
    h3: HVector
    value: Fraction
    integral: bool
    confirmed: bool | None


@dataclass(frozen=True)
class FramedReport:
    triples: tuple[TripleVerdict, ...]
    satisfied: bool
    conclusion: str


def framed_criterion(decomposition: list[tuple[HVector, int]], code: BinaryCode,
                     lowest_table: dict[tuple[HVector, HVector, HVector], Fraction],
                     max_level: int = 2) -> FramedReport:
    """Integrality of all lowest coefficients across a module decomposition.

    Each ordered triple of summands needs an entry in lowest_table; triples
    with an integral entry are additionally confirmed through max_level via
    the recursion. A passing report means the candidate map sends the form
    into the graded dual form; it never asserts the dual equals the form.
    """
    summands = [h for h, _ in decomposition]
    missing = [
        (a, b, c)
        for a in summands for b in summands for c in summands
        if (a, b, c) not in lowest_table
    ]
    if missing:
        a, b, c = missing[0]
        raise ValueError(
            f"lowest_table is missing {len(missing)} triples, first ({a}; {b}; {c})"
        )
    verdicts = []
    for a in summands:
        for b in summands:
            for c in summands:
                value = Fraction(lowest_table[(a, b, c)])
                integral = value.denominator == 1
                confirmed: bool | None = None
                if integral and max_level > 0:
                    spec = TripleSpec(a, b, c, code, value)
                    confirmed = integrality_verdict(
                        build_correlation(spec, max_level)).integral
                verdicts.append(TripleVerdict(a, b, c, value, integral, confirmed))
    satisfied = all(v.integral and v.confirmed is not False for v in verdicts)
    conclusion = (
        "coefficients land in the graded dual of the candidate form; "
        "equality of the form with its dual is not claimed"
        if satisfied
        else "some lowest coefficient is non-integral; the criterion fails"
    )
    return FramedReport(triples=tuple(verdicts), satisfied=satisfied,
                        conclusion=conclusion)


def parse_lowest_table(text: str) -> dict[tuple[HVector, HVector, HVector], Fraction]:
    """Read triples from tab-separated lines: H1, H2, H3, value."""
    out: dict[tuple[HVector, HVector, HVector], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t") if p.strip()]
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 4 tab-separated columns")
        try:
            key = (HVector.parse(parts[0]), HVector.parse(parts[1]),
                   HVector.parse(parts[2]))
            out[key] = Fraction(parts[3])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out
