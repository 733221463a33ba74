"""Integer lattices inside graded pieces of code tensor modules.

A graded piece carries the lattice spanned over Z by straightened products
L_{T_1}(-m_1)...L_{T_k}(-m_k) applied to the lowest weight vector, with
labels running over complement-reduced codewords and modes weakly decreasing.
Lattices are stored as one common denominator plus an integer matrix in row
Hermite normal form, so membership, rank, and equality are exact integer
questions. Graded duals live in the same ambient coordinates via the
factorwise invariant form.

The lattices are built level by level: Lambda_n is the Z-span of L_T(-m) b
over modes m >= min_mode, representatives T and Hermite basis rows b of
Lambda_{n-m}. Every straightened product is L_T(-m) applied to a product of
level n - m, so this span contains the products. Conversely, for negative
modes [L_S(-a), L_T(-b)] = (b - a) L_{S+T}(-a-b) has integer coefficients and
no central term, and L_{T^c} = -L_T, so any product of lowering operators
straightens into the products over Z and the span is no larger. Hermite form
and the reduced denominator are unique, so the stored entry is the one the
products themselves would give.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .codes import BinaryCode, RequestError, Word, complement_reduce, goodform_conditions
from .intmat import _rref, hnf, hnf_solve
from .tensor import (
    HVector,
    TensorVector,
    factor_mode_sum,
    form_image,
    lt0_eigenvalue,
    lt_action,
    space,
)
from .virasoro import partitions


def admissible_weights(code: BinaryCode, weights: HVector) -> tuple[bool, str]:
    """Whether the module lattice machinery applies to this (code, H) pair.

    For weights in {0, 1/2} the signed zero-mode eigenvalues are integers
    exactly when the 1/2-support has even size. For the all-1/16 vector the
    requirement is (N - 2|T|)/16 in Z for every codeword T. Mixed 1/16
    entries are rejected outright.
    """
    if weights.n != code.n:
        return False, f"weight vector length {weights.n} against code length {code.n}"
    if weights.has_sixteenth:
        if not weights.all_sixteenth:
            return False, "mixed 1/16 entries are not supported"
        for t in code.words():
            if (weights.n - 2 * t.weight) % 16:
                return False, (
                    f"zero-mode eigenvalue not integral for codeword {t.to_string()}"
                )
        return True, ""
    if weights.support.weight % 2:
        return False, "odd number of weight-1/2 factors"
    return True, ""


def _check_inputs(code: BinaryCode, weights: HVector, level: int):
    ok, reason = admissible_weights(code, weights)
    if not ok:
        raise RequestError(f"inadmissible weight vector {weights}: {reason}")
    if not goodform_conditions(code).passed:
        raise ValueError("code fails the form conditions")
    if level < 0:
        raise ValueError("negative level")


@dataclass(frozen=True)
class SpanningMonomial:
    """Ordered product of lowering operators, leftmost applied last.

    ops is a sequence of (mode, label) pairs with modes weakly decreasing;
    labels are complement-reduced codewords, the opposite sign of each label
    being implied by L_{T^c}(-m) = -L_T(-m).
    """

    ops: tuple[tuple[int, Word], ...]

    @property
    def level(self) -> int:
        return sum(m for m, _ in self.ops)

    def label(self) -> str:
        if not self.ops:
            return "v"
        return "".join(f"L[{t.to_string()}](-{m})" for m, t in self.ops) + "v"


def _min_mode(weights: HVector) -> int:
    """Lowest lowering mode: level-1 factor states vanish in a vacuum power."""
    return 2 if weights.total == 0 and not weights.has_sixteenth else 1


def spanning_monomials(code: BinaryCode, weights: HVector, level: int) -> list[SpanningMonomial]:
    """All straightened spanning products at one level, in a fixed order.

    Modes stay above 1 for the vacuum power (level-1 factor states vanish
    there) and above 0 otherwise. Runs of equal modes take weakly increasing
    label choices so each unordered product appears once.
    """
    _check_inputs(code, weights, level)
    min_mode = _min_mode(weights)
    reps = complement_reduce(code)
    out: list[SpanningMonomial] = []
    for shape in partitions(level):
        if shape and shape[-1] < min_mode:
            continue
        runs = [(m, len(list(g))) for m, g in itertools.groupby(shape)]
        pools = [
            list(itertools.combinations_with_replacement(range(len(reps)), r))
            for _, r in runs
        ]
        for choice in itertools.product(*pools):
            ops: list[tuple[int, Word]] = []
            for (m, _), labels in zip(runs, choice):
                ops.extend((m, reps[i]) for i in labels)
            out.append(SpanningMonomial(tuple(ops)))
    return out


def evaluate_monomial(mon: SpanningMonomial, weights: HVector) -> TensorVector:
    v = TensorVector.lowest(weights)
    for m, t in reversed(mon.ops):
        v = lt_action(t, -m, v)
    return v


@dataclass(frozen=True)
class LevelLattice:
    """One graded piece: rows/denominator span the lattice in key coordinates."""

    weights: HVector
    code: BinaryCode | None
    level: int
    denominator: int
    basis: tuple[tuple[int, ...], ...]
    ambient_dim: int

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def full_rank(self) -> bool:
        return self.rank == self.ambient_dim

    def basis_vectors(self) -> list[TensorVector]:
        keys = space(self.weights).keys(self.level)
        out = []
        for row in self.basis:
            terms = {
                keys[j]: Fraction(c, self.denominator)
                for j, c in enumerate(row) if c
            }
            out.append(TensorVector(self.weights, terms))
        return out


def _from_rational_rows(weights: HVector, code: BinaryCode | None, level: int,
                        rows: list[list[Fraction]]) -> LevelLattice:
    ambient = space(weights).dimension(level)
    den = lcm(*(c.denominator for row in rows for c in row))
    int_rows = [[c.numerator * (den // c.denominator) if c else 0 for c in row]
                for row in rows]
    reduced = hnf(int_rows)
    # drop a denominator no surviving entry needs
    g = gcd(*(c for row in reduced for c in row))
    shrink = gcd(g, den) if g else den
    if shrink > 1:
        den //= shrink
        reduced = [[c // shrink for c in row] for row in reduced]
    return LevelLattice(
        weights=weights,
        code=code,
        level=level,
        denominator=den,
        basis=tuple(tuple(row) for row in reduced),
        ambient_dim=ambient,
    )


def lattice_at_level(code: BinaryCode, weights: HVector, level: int,
                     below: list[LevelLattice] | None = None) -> LevelLattice:
    """The lattice of straightened products at one level, in Hermite form.

    Built from the levels below it: the generators are L_T(-m) b for modes
    m >= min_mode (2 on a vacuum power, else 1), complement-reduced codewords
    T and the Hermite basis rows b of level - m; level 0 is the lowest weight
    vector. The commutator argument in the module docstring shows this spans
    the same lattice as the straightened products themselves. ``below`` holds
    the entries of levels 0, 1, ... in order; the levels up to ``level`` that
    it lacks are built here, each once.
    """
    _check_inputs(code, weights, level)
    entries = list(below or ())[:level]
    if any((e.weights, e.code, e.level) != (weights, code, n) for n, e in enumerate(entries)):
        raise ValueError("below must hold levels 0, 1, ... of the same weights and code")
    reps = complement_reduce(code)
    min_mode = _min_mode(weights)
    for n in range(len(entries), level + 1):
        if n == 0:
            rows = [TensorVector.lowest(weights).coordinates(0)]
        else:
            rows = [
                lt_action(t, -m, b).coordinates(n)
                for m in range(min_mode, n + 1)
                for b in entries[n - m].basis_vectors()
                for t in reps
            ]
        entries.append(_from_rational_rows(weights, code, n, rows))
    return entries[level]


def contains(entry: LevelLattice, v: TensorVector) -> bool:
    if v.is_zero():
        return True
    if v.weights != entry.weights:
        raise ValueError("vector from a different tensor module")
    if v.level() != entry.level:
        raise ValueError(f"vector at level {v.level()}, lattice at level {entry.level}")
    if not entry.basis:
        return False
    scaled = []
    for c in v.coordinates(entry.level):
        s = c * entry.denominator
        if s.denominator != 1:
            return False
        scaled.append(int(s))
    return hnf_solve(list(map(list, entry.basis)), scaled) is not None


def _common_rows(a: LevelLattice, b: LevelLattice):
    """Both Hermite bases as integer rows over the lcm of their denominators."""
    if a.weights != b.weights or a.level != b.level:
        raise ValueError("lattices in different ambient spaces")
    den = lcm(a.denominator, b.denominator)
    return ([[den // a.denominator * c for c in row] for row in a.basis],
            [[den // b.denominator * c for c in row] for row in b.basis])


def lattices_equal(a: LevelLattice, b: LevelLattice) -> bool:
    """Exact equality of the spanned lattices, denominators normalized away."""
    sa, sb = _common_rows(a, b)
    return sa == sb


@dataclass(frozen=True)
class CompareReport:
    a_in_b: bool
    b_in_a: bool
    equal: bool
    index: int | None


def _pivot_product(rows) -> int:
    """Covolume of echelon integer rows, measured on their pivot columns."""
    return prod(next(c for c in row if c) for row in rows)


def compare(a: LevelLattice, b: LevelLattice) -> CompareReport:
    """Containments by membership solves; index = quotient of the shared-pivot products."""
    sa, sb = _common_rows(a, b)
    a_in_b = all(hnf_solve(sb, row) is not None for row in sa)
    b_in_a = all(hnf_solve(sa, row) is not None for row in sb)
    index = None
    small, big = (sa, sb) if a_in_b else (sb, sa) if b_in_a else (None, None)
    if small is not None and len(small) == len(big):
        index = _pivot_product(small) // _pivot_product(big)
    return CompareReport(
        a_in_b=a_in_b,
        b_in_a=b_in_a,
        equal=a_in_b and b_in_a,
        index=index,
    )


def gram_matrix(weights: HVector, level: int, rows) -> list[list[Fraction]]:
    """Pairwise invariant-form values of the given homogeneous rows.

    Rows may be TensorVectors or coordinate sequences in key order.
    """
    keys = space(weights).keys(level)
    coords = [r.coordinates(level) if isinstance(r, TensorVector) else [Fraction(c) for c in r]
              for r in rows]
    # entry (i, j) = coords[i] . P coords[j]
    vectors = [TensorVector(weights, dict(zip(keys, col, strict=True))) for col in coords]
    images = [form_image(v).coordinates(level) for v in vectors]
    return [
        [sum((c * img[a] for a, c in enumerate(row) if c), Fraction(0))
         for img in images]
        for row in coords
    ]


@dataclass(frozen=True)
class DualReport:
    lattice: LevelLattice
    gram: tuple[tuple[Fraction, ...], ...]
    dual: LevelLattice
    index: Fraction
    contains_lattice: bool
    self_dual: bool


def graded_dual(entry: LevelLattice) -> DualReport:
    """Dual basis G^-1 B from Gauss-Jordan on [G | B]; |det G| = covol(B) / covol(dual)."""
    if not entry.full_rank:
        raise ValueError("graded dual needs a full-rank lattice at this level")
    n = entry.rank
    basis_rows = [
        [Fraction(c, entry.denominator) for c in row] for row in entry.basis
    ]
    gram = gram_matrix(entry.weights, entry.level, basis_rows)
    reduced, pivots = _rref([g + b for g, b in zip(gram, basis_rows)], n)
    if len(pivots) < n:
        raise ValueError("degenerate Gram matrix")
    dual = _from_rational_rows(entry.weights, entry.code, entry.level, [r[n:] for r in reduced])
    integral = all(g.denominator == 1 for row in gram for g in row)
    index = Fraction(_pivot_product(entry.basis) * dual.denominator ** n,
                     _pivot_product(dual.basis) * entry.denominator ** n)
    return DualReport(
        lattice=entry,
        gram=tuple(tuple(r) for r in gram),
        dual=dual,
        index=index,
        contains_lattice=integral,
        self_dual=integral and index == 1,
    )


@dataclass(frozen=True)
class GeneratedFormReport:
    per_level: dict[int, LevelLattice]
    rounds: int
    stabilized: bool
    message: str


def _factor_coefficients(u: TensorVector) -> list[tuple[int, Fraction]]:
    """The nonzero u_i of a level-2 vacuum-power vector u = sum_i u_i omega_i.

    Level-1 factor states vanish in the vacuum module, so the level-2 piece has
    exactly one key per factor, omega_i = L^(i)(-2)v, in factor order. The
    modes of u are then sum_i u_i L^(i)(m), which factor_mode_sum applies.
    """
    if any(e != 0 for e in u.weights.entries):
        raise ValueError("generators must live in a vacuum tensor power")
    if u.is_zero() or u.level() != 2:
        raise ValueError("generators must be homogeneous of level 2")
    return [(i, c) for i, c in enumerate(u.coordinates(2), start=1) if c]


def saturate_generated_form(generators: list[TensorVector], max_level: int,
                            mode_budget: int, max_rounds: int = 8) -> GeneratedFormReport:
    """Close the Z-span of generator-mode products from the vacuum.

    Each round applies every generator mode with |m| <= mode_budget to the
    current per-level bases, so products grow one operator per round. The
    loop stops once two consecutive rounds leave every Hermite basis
    unchanged; running out of rounds is reported, not raised. Closure at the
    stopping point is a checked fixed point of single applications only,
    hence the report wording "stabilized (heuristic)".
    """
    if max_level < 0 or mode_budget < 1 or max_rounds < 1:
        raise ValueError("budgets must be positive")
    if not generators:
        weights = HVector.vacuum(1)
    else:
        weights = generators[0].weights
        if any(g.weights != weights for g in generators):
            raise ValueError("generators from different tensor powers")
    ops = [_factor_coefficients(g) for g in generators]
    state: dict[int, LevelLattice] = {}

    def merge(level: int, vectors: list[TensorVector]) -> bool:
        rows = [v.coordinates(level) for v in vectors if not v.is_zero()]
        if not rows:
            return False
        prev = state.get(level)
        if prev is not None:
            rows = [
                [Fraction(c, prev.denominator) for c in row] for row in prev.basis
            ] + rows
        new = _from_rational_rows(weights, None, level, rows)
        if prev is not None and lattices_equal(prev, new):
            return False
        state[level] = new
        return True

    merge(0, [TensorVector.lowest(weights)])
    rounds = 0
    stable_streak = 0
    while rounds < max_rounds and stable_streak < 2:
        rounds += 1
        snapshot = {l: e.basis_vectors() for l, e in state.items()}
        pending: dict[int, list[TensorVector]] = {}
        for level, vectors in snapshot.items():
            for v in vectors:
                for coeffs in ops:
                    for m in range(-mode_budget, mode_budget + 1):
                        target = level - m
                        if not 0 <= target <= max_level:
                            continue
                        image = factor_mode_sum(coeffs, m, v)
                        if not image.is_zero():
                            pending.setdefault(target, []).append(image)
        changed = False
        for level in sorted(pending):
            if merge(level, pending[level]):
                changed = True
        stable_streak = 0 if changed else stable_streak + 1
    stabilized = stable_streak >= 2
    return GeneratedFormReport(
        per_level=state,
        rounds=rounds,
        stabilized=stabilized,
        message="stabilized (heuristic)" if stabilized else "round budget exhausted",
    )


def eigenvalue_table(code: BinaryCode, weights: HVector) -> list[tuple[Word, Fraction]]:
    """Zero-mode eigenvalue of every codeword on the lowest weight vector."""
    return [(t, lt0_eigenvalue(t, weights)) for t in code.words()]
