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

Odd modes m = 2k + 1 with k >= min_mode are not needed as generators. The
bracket above with S = U, T = E the empty word and modes k, k + 1 gives
L_U(-(2k+1)) = [L_U(-k), L_E(-(k+1))], so for a row v of Lambda_{n-m}

    L_U(-m) v = L_U(-k) L_E(-(k+1)) v - L_E(-(k+1)) L_U(-k) v.

L_E(-(k+1)) v lies in Lambda_{n-k} and L_U(-k) v in Lambda_{n-k-1}, each an
integer combination of Hermite rows there, so the two terms are integer
combinations of generators with the modes k and k + 1: both at least
min_mode, both below m, and E is a representative. By induction on m the
generators with m even or m <= 2 min_mode span Lambda_n.

Nor is one generator per representative T needed. With x_i = L^(i)(-m) v,
L_T(-m) v = sum_i s_i(T) x_i is Z-linear in the sign vector s(T), so the
L_T(-m) v span {sum_i a_i x_i : a in Lambda_C}, Lambda_C = span_Z{s(T)} the
code's sign lattice, and the rows a of any Z-basis of Lambda_C give the same
span. The build takes its Hermite basis (codes.sign_basis), whose rows are
sparser than the sign vectors. The odd-mode pruning is per (m, v) and is
unaffected.

Every level has full rank for a code that passes the form conditions, as
_check_inputs requires. The maps chi_i(T) = s_i(T) are characters of the
group C: nontrivial, as the full set is a codeword, and pairwise distinct,
as C separates every pair of positions. Distinct characters are linearly
independent (Artin), so Lambda_C has rank N and each L^(i)(-m) is a rational
combination of the L_T(-m). The products of L^(i)(-m), m >= min_mode, span
each graded piece (the factors commute; L(-1) kills a vacuum factor), and
each is a rational combination of products of the L_T(-m), which straighten
as above; so the straightened products span every level over Q. This is the
tensor-product form of Dong-Griess-Hoehn, Framed vertex operator algebras,
codes and the moonshine module, CMP 193 (1998).
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .codes import (
    BinaryCode,
    RequestError,
    Word,
    complement_reduce,
    goodform_conditions,
    sign_basis,
)
from .intmat import hermite_cofactors, hnf, hnf_solve
from .tensor import (
    HVector,
    TensorVector,
    combine,
    form_map,
    lowered_rows,
    lt0_eigenvalue,
    lt_action,
    space,
)
from .virasoro import _as_fraction, partitions


def admissible_weights(code: BinaryCode, weights: HVector) -> tuple[bool, str]:
    """Whether the module lattice machinery applies to this (code, H) pair.

    For weights in {0, 1/2} the signed zero-mode eigenvalues are integers
    exactly when the 1/2-support has even size. For the all-1/16 vector the
    requirement is lt0_eigenvalue(T, H) = (N - 2|T|)/16 in Z for every
    codeword T. Mixed 1/16 entries are rejected outright.
    """
    if weights.n != code.n:
        return False, f"weight vector length {weights.n} against code length {code.n}"
    if weights.has_sixteenth:
        if not weights.all_sixteenth:
            return False, "mixed 1/16 entries are not supported"
        for t in code.words():
            if lt0_eigenvalue(t, weights).denominator != 1:
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


class SpanningMonomial(namedtuple("SpanningMonomial", "ops")):
    """Ordered product of lowering operators, leftmost applied last.

    ops is a sequence of (mode, label) pairs with modes weakly decreasing;
    labels are complement-reduced codewords, the opposite sign of each label
    being implied by L_{T^c}(-m) = -L_T(-m).
    """

    __slots__ = ()

    @property
    def level(self) -> int:
        return sum(m for m, _ in self.ops)

    def label(self) -> str:
        if not self.ops:
            return "v"
        return "".join(f"L[{t.to_string()}](-{m})" for m, t in self.ops) + "v"


def _min_mode(weights: HVector) -> int:
    """Lowest lowering mode: level-1 factor states vanish in a vacuum power."""
    return 2 if weights.total == 0 else 1


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


class LevelLattice(namedtuple("LevelLattice", "weights code level denominator basis ambient_dim")):
    """One graded piece: basis / denominator spans the lattice in key
    coordinates; basis holds the {key index: int} Hermite rows of intmat.hnf."""

    __slots__ = ()

    def __hash__(self) -> int:
        # equal lattices agree on every field; the dict rows of basis are left out
        return hash(self[:4] + self[5:])

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def full_rank(self) -> bool:
        return self.rank == self.ambient_dim


def _from_rows(weights: HVector, code: BinaryCode | None, level: int,
               rows: list[dict[int, int]], scale: Fraction = Fraction(1)) -> LevelLattice:
    """The lattice spanned by scale times the integer rows, stored as its
    Hermite basis over the least denominator that keeps it integral.

    The rows' content g, the gcd of their entries, comes out before hnf, so
    hnf sees the smallest entries. With scale * g = a / b in lowest terms the
    lattice is a / b times that of the primitive rows, whose entries have
    gcd 1: d times the lattice is integral exactly when b divides d, and the
    stored basis is a times the primitive rows' Hermite basis. All-zero or no
    rows give g = 0: no basis rows, denominator 1. The rows go to hnf latest
    leading column first, its fastest order.
    """
    g = gcd(*itertools.chain.from_iterable(row.values() for row in rows))
    if g > 1:
        rows = [{j: c // g for j, c in row.items()} for row in rows]
    reduced = hnf(sorted(rows, key=lambda r: min(r, default=-1), reverse=True))
    content = scale * g
    if content.numerator != 1:
        reduced = [{j: c * content.numerator for j, c in row.items()} for row in reduced]
    return LevelLattice(
        weights=weights,
        code=code,
        level=level,
        denominator=content.denominator,
        basis=tuple(reduced),
        ambient_dim=space(weights).dimension(level),
    )


def _generator_modes(min_mode: int, n: int) -> list[int]:
    """The modes m whose L_T(-m) span level n, largest first.

    Odd modes 2k + 1 with k >= min_mode are left out (module docstring). The
    order is not the one hnf sees: _from_rows sorts the rows.
    """
    return [m for m in range(n, min_mode - 1, -1) if m % 2 == 0 or m <= 2 * min_mode]


@functools.cache
def _level(code: BinaryCode, weights: HVector, n: int) -> LevelLattice:
    """Level n of the lattice, built on integers from the lower levels: each
    Hermite row b of a lower level B / den lowered by sum_i a_i L^(i)(-m) for
    every row a of the sign lattice's Hermite basis (codes.sign_basis), as
    big times the generators (tensor.lowered_rows)."""
    if n == 0:
        return _from_rows(weights, code, 0, [{0: 1}])
    signs = sign_basis(code)
    lowers = {m: _level(code, weights, n - m) for m in _generator_modes(_min_mode(weights), n)}
    big, images = lowered_rows(weights, n, [(m, lower.denominator, b, signs)
                                            for m, lower in lowers.items() for b in lower.basis])
    return _from_rows(weights, code, n, list(itertools.chain.from_iterable(images)),
                      Fraction(1, big))


def lattice_at_level(code: BinaryCode, weights: HVector, level: int) -> LevelLattice:
    """The lattice of straightened products at one level, in Hermite form.

    Built from the levels below it: the generators are L_T(-m) b for modes
    m >= min_mode (2 on a vacuum power, else 1) that are even or at most
    2 min_mode, complement-reduced codewords T and the Hermite basis rows b
    of level - m; level 0 is the lowest weight vector. The commutator
    arguments in the module docstring show that this spans the same lattice
    as the straightened products themselves. Each (m, b) maps every factor
    once, and each row a of the sign lattice's Hermite basis combines those
    images as sum_i a_i L^(i)(-m) b. Levels are built on demand, only
    those the generators reach, and kept per (code, weights).
    """
    _check_inputs(code, weights, level)
    return _level(code, weights, level)


def contains(entry: LevelLattice, v: TensorVector) -> bool:
    if v.is_zero():
        return True
    if v.weights != entry.weights:
        raise ValueError("vector from a different tensor module")
    if v.level() != entry.level:
        raise ValueError(f"vector at level {v.level()}, lattice at level {entry.level}")
    if not entry.basis:
        return False
    index = space(entry.weights).index(entry.level)
    scaled = {index[k]: c * entry.denominator for k, c in v.terms.items()}
    if any(s.denominator != 1 for s in scaled.values()):
        return False
    return hnf_solve(entry.basis, {j: int(s) for j, s in scaled.items()}) is not None


def _common_rows(a: LevelLattice, b: LevelLattice):
    """Both Hermite bases as integer rows over the lcm of their denominators."""
    if a.weights != b.weights or a.level != b.level:
        raise ValueError("lattices in different ambient spaces")
    den = lcm(a.denominator, b.denominator)
    return tuple([{j: den // x.denominator * c for j, c in row.items()}
                  for row in x.basis] for x in (a, b))


CompareReport = namedtuple("CompareReport", "a_in_b b_in_a equal index")


def _pivot_product(rows) -> int:
    """Covolume of Hermite rows, measured on their pivot columns."""
    return prod(next(iter(row.values())) for row in rows)


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


def _scaled_gram(weights: HVector, level: int, rows) -> tuple[int, list[list[int]]]:
    """(S, rows . S P rows^T) for integer coordinate rows, S from form_map;
    each product runs over the nonzeros of the row on the left. S P is
    symmetric, so only the entries on and right of the diagonal are formed,
    and the rest mirrored."""
    s, images = form_map(weights, level, rows)
    upper = [[sum(map(mul, r.values(), map(y.get, r, itertools.repeat(0)))) for y in images[i:]]
             for i, r in enumerate(rows)]
    return s, [[upper[j][i - j] for j in range(i)] + upper[i] for i in range(len(upper))]


def gram_matrix(weights: HVector, level: int, rows) -> list[list[Fraction]]:
    """Pairwise invariant-form values of the given homogeneous rows.

    Rows may be TensorVectors of this module or coordinate sequences in key
    order, with Fraction, int or str entries (a float raises TypeError, a
    wrong length ValueError). The pairings run on the integer rows r = d *
    row, d the common denominator: entry (i, j) is r_i . S P r_j / (S d^2).
    """
    rows = list(rows)
    if any(isinstance(r, TensorVector) and r.weights != weights for r in rows):
        raise ValueError("vector from a different tensor module")
    coords = [r.coordinates(level) if isinstance(r, TensorVector)
              else [_as_fraction(c) for c in r] for r in rows]
    d = lcm(*(c.denominator for row in coords for c in row))
    keys = range(space(weights).dimension(level))
    int_rows = [{j: c.numerator * (d // c.denominator) for j, c in zip(keys, row, strict=True)
                 if c} for row in coords]
    s, gram = _scaled_gram(weights, level, int_rows)
    return [[Fraction(g, s * d * d) for g in row] for row in gram]


DualReport = namedtuple("DualReport", "lattice gram dual index contains_lattice self_dual")


def graded_dual(entry: LevelLattice) -> DualReport:
    """The dual lattice {x : x P b in Z for every b in the lattice}, on integers.

    With B = B_int / den the full-rank Hermite basis and P the key Gram, the
    dual basis D solves D P B^T = I, so D = G^-1 B for the Gram G = B P B^T,
    and also D = den B_int^-T P^-1 = den / (delta T) * C (T P^-1), with
    (delta, C) = hermite_cofactors(B_int) and T P^-1 from form_map. G is
    B_int S P B_int^T / (S den^2), S P from form_map too. The two routes are
    tied by (G 1)^T D = 1^T B, checked on integers; G is invertible by
    construction, so a mismatch means the routes disagree and raises
    "degenerate Gram matrix". The index
    |det G| = covol(B) / covol(D) is read off the two Hermite bases.
    """
    if not entry.full_rank:
        raise ValueError("graded dual needs a full-rank lattice at this level")
    weights, level, den, n = entry.weights, entry.level, entry.denominator, entry.rank
    s, gram = _scaled_gram(weights, level, entry.basis)
    delta, cofactors = hermite_cofactors(entry.basis)
    t, dual_rows = form_map(weights, level, cofactors, inverse=True)
    g1 = {i: sum(row) for i, row in enumerate(gram)}
    ones = dict.fromkeys(range(n), -s * delta * t)
    if any(combine(entry.basis, ones, out=combine(dual_rows, g1)).values()):
        raise ValueError("degenerate Gram matrix")
    dual = _from_rows(weights, entry.code, level, dual_rows, Fraction(den, delta * t))
    q = s * den * den
    integral = all(g % q == 0 for row in gram for g in row)
    index = Fraction(delta * dual.denominator ** n,
                     _pivot_product(dual.basis) * den ** n)
    zero = Fraction(0)
    return DualReport(
        lattice=entry,
        gram=tuple(tuple(Fraction(g, q) if g else zero for g in row) for row in gram),
        dual=dual,
        index=index,
        contains_lattice=integral,
        self_dual=integral and index == 1,
    )


GeneratedFormReport = namedtuple("GeneratedFormReport", "per_level rounds stabilized message")


def _factor_row(u: TensorVector) -> tuple[int, list[int]]:
    """(d, row) with u = sum_i (row_i / d) omega_i for a level-2 vacuum-power
    vector u, d the least common denominator.

    Level-1 factor states vanish in the vacuum module, so the level-2 piece has
    exactly one key per factor, omega_i = L^(i)(-2)v, in factor order. The
    modes of u are then sum_i (row_i / d) L^(i)(m), which lowered_rows applies
    with row as the sign vector and d folded into the denominator.
    """
    if any(e != 0 for e in u.weights.entries):
        raise ValueError("generators must live in a vacuum tensor power")
    if u.is_zero() or u.level() != 2:
        raise ValueError("generators must be homogeneous of level 2")
    coords = u.coordinates(2)
    d = lcm(*(c.denominator for c in coords))
    return d, [c.numerator * (d // c.denominator) for c in coords]


def saturate_generated_form(generators: list[TensorVector], max_level: int,
                            mode_budget: int, max_rounds: int = 8) -> GeneratedFormReport:
    """Close the Z-span of generator-mode products from the vacuum.

    Each round applies every generator mode with |m| <= mode_budget to the
    per-level Hermite rows, on integers through tensor.lowered_rows as the
    level build does, so products grow one operator per round. Each target
    level is merged over the lcm of its denominators; Hermite form and the
    reduced denominator are canonical, so a level is unchanged exactly when
    the merged entry equals the old one. A round lowers only the rows of the
    levels the round before changed: an unchanged level's rows were lowered
    then, and their images are still in their targets, which only grow. So
    every round ends with the levels a round lowering all rows would give.
    The loop stops once two consecutive rounds leave every level unchanged
    (the second lowers nothing); running out of rounds is reported, not
    raised. Closure at the stopping point is a checked fixed point of single
    applications only, hence the report wording "stabilized (heuristic)".
    """
    if max_level < 0 or mode_budget < 1 or max_rounds < 1:
        raise ValueError("budgets must be positive")
    if not generators:
        weights = HVector.vacuum(1)
    else:
        weights = generators[0].weights
        if any(g.weights != weights for g in generators):
            raise ValueError("generators from different tensor powers")
    ops = [_factor_row(g) for g in generators]
    state = {0: _from_rows(weights, None, 0, [{0: 1}])}
    changed = [0]
    rounds = stable_streak = 0
    while rounds < max_rounds and stable_streak < 2:
        rounds += 1
        pending: dict[int, list] = {}
        for level in changed:
            entry = state[level]
            for m in range(-mode_budget, mode_budget + 1):
                if 0 <= level - m <= max_level:
                    pending.setdefault(level - m, []).extend(
                        (-m, entry.denominator * d, b, [u])
                        for b in entry.basis for d, u in ops)
        changed = []
        for level in sorted(pending):
            big, images = lowered_rows(weights, level, pending[level])
            prev = state.get(level)
            prev_den, prev_rows = (prev.denominator, prev.basis) if prev else (1, ())
            den = lcm(big, prev_den)
            rows = [{j: den // big * c for j, c in row.items()} for [row] in images if row]
            if not rows:
                continue
            rows += [{j: den // prev_den * c for j, c in row.items()} for row in prev_rows]
            new = _from_rows(weights, None, level, rows, Fraction(1, den))
            if new != prev:
                state[level] = new
                changed.append(level)
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
