"""Matrix coefficients of candidate intertwining maps between code modules.

No intertwining operator is ever constructed. Starting from one formal
scalar c attached to the lowest weight vectors, the cross-bracket recursion

    F(L_T(-m) w) = F(L_T(0) w) + (m * a1 - a2) * F(w),

with a1, a2 the zero-mode eigenvalues on the first two modules, forces a
unique value on every spanning monomial of the third module. The checks
here certify that these forced values are consistent (factor by factor, and
vanishing on all linear relations) and decide whether they are integral.

Every key is an L_T(0) eigenvector: L^(i)(0) = h_i + N_i on W_{H3}, N_i its
factor-i level. So F(L_T(0) w) = lt0_eigenvalue(T, H3) F(w) + sum_i s_i(T)
F(N_i w), s_i(T) = -1 on T and +1 off it, and a peel needs of w only its
moments (F(w), F(N_1 w), ..., F(N_n w)) = M / q: per stored monomial its
integers M, over one denominator q per level, so a peel builds one Fraction.

On a tensor product an intertwining operator is the tensor product of the
factors' operators (Frenkel-Huang-Lepowsky, Mem. AMS 494, 1993, 4.6). So a
triple is well-defined only if each factor's recursion is consistent on
L(1/2, h3_i), the Ising fusion rule (W. Wang, IMRN 1993; _factor_failure), and
F on a key is then the product of the single-factor recursions run up its
factors' pivot monomials. A level keeps that F when no row has a residual,
multiplier - F . vector; otherwise _rref runs on all of the level's rows. The
monomial vectors span every level over Q for a code that passes the form
conditions (lattices module docstring), so F is then the unique solution.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import lcm, prod
from operator import mul

from .codes import BinaryCode, RequestError
from .intmat import _rref
from .lattices import SpanningMonomial, admissible_weights, spanning_monomials
from .tensor import HVector, TensorVector, lowered_rows, lt0_eigenvalue, space
from .virasoro import _as_fraction


class TripleSpec(namedtuple("TripleSpec", "h1 h2 h3 code lowest_coeff")):
    """Source pair and target module for one coefficient system."""

    __slots__ = ()

    def __new__(cls, h1: HVector, h2: HVector, h3: HVector, code: BinaryCode,
                lowest_coeff: Fraction):
        lowest_coeff = _as_fraction(lowest_coeff)
        for h in (h1, h2, h3):
            ok, reason = admissible_weights(code, h)
            if not ok:
                raise RequestError(f"inadmissible weight vector {h}: {reason}")
        return super().__new__(cls, h1, h2, h3, code, lowest_coeff)

    _make = classmethod(lambda cls, fields: cls(*fields))


def cross_bracket_step(m: int, f_lt0_w: Fraction, f_w: Fraction,
                       a1: Fraction, a2: Fraction) -> Fraction:
    """One peeling step of the recursion; m is the positive lowered mode."""
    return f_lt0_w + (m * a1 - a2) * f_w


class CorrelationFunctional:
    """Forced coefficient system on spanning monomials, by level.

    Values are stored as multipliers of the formal scalar c, so linearity in
    c is structural. The attached x-exponent of a level-k monomial is
    base_exponent + k. Per level it keeps the multiplier of each monomial (in
    enumeration order), one functional value per state key (the factors'
    product formula, or _rref where it fails), the value each linear relation
    among the monomial vectors takes on the multipliers, and each monomial's
    vector. Dropping the first operator of an enumerated monomial leaves an
    enumerated monomial, so every rest the build peels from is stored.
    """

    def __init__(self, spec: TripleSpec, base_exponent: Fraction,
                 multipliers: dict[int, dict[SpanningMonomial, Fraction]],
                 functional: dict[int, dict[tuple[int, ...], Fraction]],
                 relations: dict[int, list[Fraction]],
                 rows: dict[SpanningMonomial, dict[int, int]],
                 denominators: dict[int, int]):
        self.spec = spec
        self.base_exponent = base_exponent
        self._multipliers, self._functional, self._relations = multipliers, functional, relations
        self._rows, self._denominators = rows, denominators

    @property
    def max_level(self) -> int:
        return max(self._multipliers)

    def monomials(self, level: int) -> list[SpanningMonomial]:
        return list(self._multipliers[level])

    def multiplier(self, mon: SpanningMonomial) -> Fraction:
        return self._multipliers[mon.level][mon]

    def vector(self, mon: SpanningMonomial) -> TensorVector:
        """The monomial applied to the lowest weight vector of the third module."""
        keys, den = space(self.spec.h3).keys(mon.level), self._denominators[mon.level]
        return TensorVector(self.spec.h3, {keys[j]: Fraction(c, den)
                                           for j, c in self._rows[mon].items()})

    def value(self, mon: SpanningMonomial) -> Fraction:
        return self.multiplier(mon) * self.spec.lowest_coeff

    def exponent(self, level: int) -> Fraction:
        return self.base_exponent + level

    def relation_values(self, level: int) -> list[Fraction]:
        """Each relation among the monomial vectors applied to the multipliers."""
        return list(self._relations[level])

    def vector_multiplier(self, v: TensorVector) -> Fraction:
        """Linear extension of the multipliers to an arbitrary module vector."""
        if v.is_zero():
            return Fraction(0)
        if v.weights != self.spec.h3:
            raise ValueError("vector from a different tensor module")
        level = v.level()
        if level not in self._functional:
            raise ValueError(f"no values computed at level {level}")
        f = self._functional[level]
        return sum((f[key] * c for key, c in v.terms.items()), Fraction(0))


def build_correlation(spec: TripleSpec, max_level: int) -> CorrelationFunctional:
    """Propagate the lowest coefficient to every monomial level by level.

    Monomials sharing the lowered mode and the rest lower its integer row
    once (tensor.lowered_rows). The monomial vectors span each level
    (lattices module docstring), so the product formula F solves them
    uniquely, every relation value zero, when no row has a residual.
    Otherwise _rref on all rows [monomial vector | multiplier] gives F and
    the relation values. Monomials that do not span their level raise
    ArithmeticError.
    """
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    base_exponent = spec.h3.total - spec.h1.total - spec.h2.total
    multipliers: dict[int, dict[SpanningMonomial, Fraction]] = {}
    functional: dict[int, dict[tuple[int, ...], Fraction]] = {}
    relations: dict[int, list[Fraction]] = {}
    rows, denominators = {SpanningMonomial(()): {0: 1}}, {}  # integer rows, per-level denominators
    moments: dict[SpanningMonomial, tuple[int, list[int]]] = {}
    labels, sp = _label_constants(spec), space(spec.h3)
    for level in range(max_level + 1):
        mons = spanning_monomials(spec.code, spec.h3, level)
        mults = {mon: Fraction(1) for mon in mons if not mon.ops}
        groups: dict[tuple, list[SpanningMonomial]] = {}
        for mon in mons:
            if mon.ops:
                groups.setdefault((mon.ops[0][0], SpanningMonomial(mon.ops[1:])), []).append(mon)
        denominators[level], images = lowered_rows(spec.h3, level, [
            (m, denominators[level - m], rows[rest], [labels[mon.ops[0][1]][0] for mon in group])
            for (m, rest), group in groups.items()])
        for ((m, rest), group), group_rows in zip(groups.items(), images):
            rows.update(zip(group, group_rows))
            mults.update((mon, _peel_multiplier(labels[mon.ops[0][1]], m, moments[rest]))
                         for mon in group)
        multipliers[level] = {mon: mults[mon] for mon in mons}
        f, relations[level], (q, level_moments) = _solve_level(
            spec, level, [rows[x] for x in mons], [mults[x] for x in mons], denominators[level])
        functional[level] = dict(zip(sp.keys(level), f))
        moments.update((mon, (q, mom)) for mon, mom in zip(mons, level_moments))
    return CorrelationFunctional(spec, base_exponent, multipliers, functional, relations,
                                 rows, denominators)


def _solve_level(spec, level: int, rows: list[dict[int, int]], mults: list[Fraction], den: int):
    """(F on the keys, relation values, _moments of the rows) of the system
    (row / den) . F = multiplier, as in build_correlation: the rows span the
    level (lattices module docstring), so a product formula F with no
    residual is the unique solution."""
    sp = space(spec.h3)
    keys, ncols = sp.keys(level), sp.dimension(level)
    values = [{sid: _factor_value(*fixed, sid) for sid in set(column)}  # per factor position
              for *fixed, column in zip(sp.factors, spec.h1.entries, spec.h2.entries, zip(*keys))]
    f = [Fraction(prod(x.numerator for x in xs), prod(x.denominator for x in xs))
         for xs in (list(map(dict.__getitem__, values, key)) for key in keys)]
    q, moments = _moments(sp, level, rows, den, f)
    if all(mom[0] * x.denominator == x.numerator * q for mom, x in zip(moments, mults)):
        return f, [Fraction(0)] * (len(rows) - ncols), (q, moments)
    reduced, pivots = _rref([[row.get(j, 0) for j in range(ncols)] + [den * x]
                             for row, x in zip(rows, mults)], ncols)
    if len(pivots) < ncols:
        raise ArithmeticError(f"level {level}: monomials span {len(pivots)} of {ncols} dimensions")
    f = [row[-1] for row in reduced[:ncols]]
    return f, [row[-1] / den for row in reduced[ncols:]], _moments(sp, level, rows, den, f)


@cache
def _factor_value(factor, h1: Fraction, h2: Fraction, sid: int) -> Fraction:
    """F / c on one factor state of weight h3 = factor.h: the recursion step
    with L(0) w = (h3 + N(w)) w, run up the state's pivot monomial."""
    value, level = Fraction(1), 0
    for m in reversed(factor.pivot(sid)):
        value = cross_bracket_step(m, (factor.h + level) * value, value, h1, h2)
        level += m
    return value


@cache
def _factor_failure(factor, h1: Fraction, h2: Fraction, top: int) -> tuple[int, int] | None:
    """The first (factor level l, m), l + m <= top, m = 1, 2 (which generate),
    where f(L(-m) p) = (h3 + l + m h1 - h2) f(p) fails for a pivot p; f = _factor_value."""
    for level, m in itertools.product(range(top), (1, 2)):
        for sid in factor.sids(level) if level + m <= top else ():
            image = sum(c * _factor_value(factor, h1, h2, t) for t, c in factor.expansion(sid, -m))
            if image != (factor.h + level + m * h1 - h2) * _factor_value(factor, h1, h2, sid):
                return level, m
    return None


def _moments(sp, level: int, rows: list[dict[int, int]], den: int, f: list[Fraction]):
    """(q, each row's integers M): w = row / den has (F(w), F(N_1 w), ...,
    F(N_n w)) = M / q, q = den * lcm(F's denominators), over its nonzeros."""
    e, levels = lcm(*(x.denominator for x in f)), sp.factor_levels(level).values()
    fint = [x.numerator * (e // x.denominator) for x in f]
    weights = [fint] + [[x * l[i] for x, l in zip(fint, levels)] for i in range(sp.n)]
    return den * e, [[sum(map(mul, row.values(), map(w.__getitem__, row))) for w in weights]
                     for row in rows]


def _label_constants(spec: TripleSpec) -> dict:
    """Per codeword T: (s(T), k, k a1, k a2, k a3), a_j = lt0_eigenvalue(T, H_j)
    and k the lcm of the denominators of every a_j."""
    a = {t: [lt0_eigenvalue(t, h) for h in spec[:3]] for t in spec.code.words()}
    k = lcm(*(x.denominator for xs in a.values() for x in xs))
    return {t: (t.signs(), k, *(int(x * k) for x in xs)) for t, xs in a.items()}


def _peel_multiplier(label, m: int, moments: tuple[int, list[int]]) -> Fraction:
    """cross_bracket_step lowering by m a stored w with moments M / q, label
    (s, k, A1, A2, A3): F(L_T(0) w) = (A3 M_0 + k sum_i s_i M_i) / (k q), as
    L^(i)(0) = h_i + N_i on W_{H3} and s_i(T) = -1 on T, +1 off it."""
    (signs, k, a1, a2, a3), (q, mom) = label, moments
    return Fraction((a3 + m * a1 - a2) * mom[0] + k * sum(map(mul, signs, mom[1:])), k * q)


WellDefinedReport = namedtuple("WellDefinedReport", "well_defined order_checks "
                               "relation_checks relation_failures factor_failures")


def check_well_defined(corr: CorrelationFunctional) -> WellDefinedReport:
    """Certify the forced values are a single linear functional.

    (a) Every factor recursion must be consistent; factor_failures lists
    (position, *_factor_failure). An intertwining operator on the tensor
    product is the product of the factors' operators, so this decides the
    order of the operators too: order_checks only counts the monomials with
    at least two operators. (b) Every rational relation among the monomial
    coordinate rows must kill the stored values; the form is nondegenerate by
    construction, so the relations are the whole kernel of the quotient from
    formal products to module vectors. A nonzero relation value also flags a
    wrong row or a wrong peel in the build.
    """
    max_level, spec = corr.max_level, corr.spec
    failures = map(_factor_failure, space(spec.h3).factors, spec.h1.entries, spec.h2.entries,
                   itertools.repeat(max_level))
    factor_failures = tuple((i, *failure) for i, failure in enumerate(failures) if failure)
    order_checks = sum(len(mon.ops) > 1 for level in range(max_level + 1)
                       for mon in corr.monomials(level))
    values = [(level, x) for level in range(max_level + 1) for x in corr.relation_values(level)]
    relation_failures = tuple(level for level, x in values if x)
    return WellDefinedReport(
        well_defined=not factor_failures and not relation_failures,
        order_checks=order_checks,
        relation_checks=len(values),
        relation_failures=relation_failures,
        factor_failures=factor_failures,
    )


VerdictReport = namedtuple("VerdictReport", "integral witness witness_value")


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
    return [HVector.half(n, support) for size in range(0, n + 1, 2)
            for support in itertools.combinations(range(n), size)]


TripleVerdict = namedtuple("TripleVerdict", "h1 h2 h3 value integral confirmed")


FramedReport = namedtuple("FramedReport", "triples satisfied conclusion")


def framed_criterion(decomposition: list[tuple[HVector, int]], code: BinaryCode,
                     lowest_table: dict[tuple[HVector, HVector, HVector], Fraction],
                     max_level: int = 2) -> FramedReport:
    """Integrality of all lowest coefficients across a module decomposition.

    Each ordered triple of summands needs an entry in lowest_table (a
    missing one, or no summand at all, is a RequestError); triples with an
    integral entry are additionally confirmed through max_level via the
    recursion. A passing report means the candidate map sends the form into
    the graded dual form; it never asserts the dual equals the form.
    """
    summands = [h for h, _ in decomposition]
    if not summands:
        raise RequestError("empty decomposition: no triples to check")
    triples = list(itertools.product(summands, repeat=3))
    missing = [t for t in triples if t not in lowest_table]
    if missing:
        a, b, c = missing[0]
        raise RequestError(
            f"lowest_table is missing {len(missing)} triples, first ({a}; {b}; {c})"
        )
    verdicts = []
    for a, b, c in triples:
        value = Fraction(lowest_table[(a, b, c)])
        integral = value.denominator == 1
        confirmed: bool | None = None
        if integral and max_level > 0:
            spec = TripleSpec(a, b, c, code, value)
            confirmed = integrality_verdict(build_correlation(spec, max_level)).integral
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
    """Read triples from tab-separated lines: H1, H2, H3, value.

    A bad line raises RequestError naming its line number.
    """
    out: dict[tuple[HVector, HVector, HVector], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t") if p.strip()]
        if len(parts) != 4:
            raise RequestError(f"line {lineno}: expected 4 tab-separated columns")
        try:
            key = (HVector.parse(parts[0]), HVector.parse(parts[1]),
                   HVector.parse(parts[2]))
            out[key] = Fraction(parts[3])
        except ValueError as exc:
            raise RequestError(f"line {lineno}: {exc}") from None
        except ZeroDivisionError:
            raise RequestError(f"line {lineno}: zero denominator in {parts[3]!r}") from None
    return out
