"""Tensor powers of the c = 1/2 Virasoro irreducible modules.

A weight vector H = (h_1, ..., h_N) with every h_i in {0, 1/2, 1/16} labels
the module W_H, the tensor product of the irreducible factors. States are
indexed by keys: one (level, pivot index) pair per factor, packed into small
integers that no other module unpacks. For a subset T of {1..N} the signed
diagonal operator is

    L_T(m) = sum over i not in T of L^(i)(m)  minus  sum over i in T,

acting on factor i only. These and the invariant form, the product of the
factors' Shapovalov forms, all act through one per-factor map. The form's
Gram P is a direct sum of Kronecker products of invertible factor pivot
Grams, which form_map(..., inverse=True) relies on.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import lcm, prod
from operator import mul

from .codes import BinaryCode, RequestError, Word
from .virasoro import (
    ISING_ELL,
    ISING_WEIGHTS,
    GradedBasis,
    VermaVector,
    _as_fraction,
    _Combination,
    _pivot_count,
    apply_mode,
    bracket,
    irreducible_basis,
    ising_params,
    reduce_vector,
)

# A factor state is sid = _SID_STRIDE * level + pivot index, so sids are small
# ints ordered by (level, index). basis() rejects a level with more states
# than the stride holds.
_SID_STRIDE = 1 << 16


def _sid(level: int, idx: int) -> int:
    return _SID_STRIDE * level + idx


def _sid_level(sid: int) -> int:
    return sid // _SID_STRIDE


class HVector(namedtuple("HVector", "entries")):
    """Tuple of factor highest weights, each 0, 1/2 or 1/16."""

    __slots__ = ()

    def __new__(cls, entries: tuple[Fraction, ...]):
        entries = tuple(_as_fraction(e) for e in entries)
        bad = [e for e in entries if e not in ISING_WEIGHTS]
        if bad:
            raise RequestError(
                f"factor weights must be 0, 1/2 or 1/16; got {', '.join(map(str, bad))}")
        if not entries:
            raise RequestError("empty weight vector")
        return super().__new__(cls, entries)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def parse(cls, text: str) -> "HVector":
        try:
            entries = tuple(Fraction(p.strip()) for p in text.split(","))
        except (ValueError, ZeroDivisionError):
            raise RequestError(f"cannot parse weight vector {text!r}") from None
        return cls(entries)

    @classmethod
    def vacuum(cls, n: int) -> "HVector":
        return cls((Fraction(0),) * n)

    @classmethod
    def sixteenth(cls, n: int) -> "HVector":
        return cls((ISING_WEIGHTS[2],) * n)

    @classmethod
    def half(cls, n: int, positions) -> "HVector":
        """Weight 1/2 at the given 0-based positions, 0 elsewhere."""
        support = set(positions)
        return cls(tuple(ISING_WEIGHTS[1] if i in support else ISING_WEIGHTS[0] for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    @property
    def support(self) -> Word:
        """Positions carrying weight 1/2, as a subset word."""
        return Word.from_set(
            {i for i, e in enumerate(self.entries, start=1) if e == ISING_WEIGHTS[1]},
            self.n,
        )

    @property
    def all_sixteenth(self) -> bool:
        return all(e == ISING_WEIGHTS[2] for e in self.entries)

    @property
    def has_sixteenth(self) -> bool:
        return ISING_WEIGHTS[2] in self.entries

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


class _Factor:
    """Mode action and invariant form of one Ising factor on its graded pivot bases."""

    def __init__(self, h: Fraction):
        self.h = h
        self.params = ising_params(h)

    def basis(self, level: int) -> GradedBasis:
        self.dim(level)  # rejects a level past the sid stride
        return irreducible_basis(self.params, level)

    @cache
    def dim(self, level: int) -> int:
        if level < 0:
            return 0
        dim = _pivot_count(self.params, level)
        if dim > _SID_STRIDE:
            raise RequestError(
                f"weight {self.h} level {level} has {dim} states; "
                f"factor states are limited to {_SID_STRIDE} per level")
        return dim

    def sids(self, level: int) -> range:
        return range(_sid(level, 0), _sid(level, self.dim(level)))

    def pivot(self, sid: int) -> tuple[int, ...]:
        """The PBW monomial of factor state sid."""
        return self.basis(_sid_level(sid)).pivots[sid % _SID_STRIDE]

    @cache
    def expansion(self, sid: int, m: int) -> tuple[tuple[int, Fraction], ...]:
        """L(m) on pivot state sid, as (sid, coefficient) pairs at level - m."""
        target = _sid_level(sid) - m
        if target < 0 or self.dim(target) == 0:
            return ()
        image = apply_mode(m, VermaVector(self.params, {self.pivot(sid): Fraction(1)}))
        coords = reduce_vector(image, self.basis(target))
        return tuple((_sid(target, j), c) for j, c in enumerate(coords) if c)

    @cache
    def form_row(self, sid: int, inverse: bool) -> tuple[tuple[int, Fraction], ...]:
        """sid's row of its level's pivot Gram, or of the inverse, as (sid,
        entry) pairs."""
        level, i = divmod(sid, _SID_STRIDE)
        b = self.basis(level)
        row = (b.inverse if inverse else b.gram)[i]
        return tuple((_sid(level, j), x) for j, x in enumerate(row) if x)


@cache
def _factor(h: Fraction) -> _Factor:
    return _Factor(h)


class TensorSpace:
    """Graded state enumeration for one weight vector."""

    def __init__(self, weights: HVector):
        self.weights = weights
        self.factors = [_factor(h) for h in weights.entries]
        self.n = weights.n

    @cache
    def keys(self, level: int) -> list[tuple[int, ...]]:
        """State keys at the given level above the lowest weight.

        Factor levels are enumerated first factor fastest-varying last, with
        the leading factor taking the largest share first. This fixed order is
        the column order of every coordinate matrix built on this space.
        """
        out: list[tuple[int, ...]] = []

        def rec(pos: int, remaining: int, prefix: tuple[int, ...]):
            if pos == self.n:
                if not remaining:
                    out.append(prefix)
                return
            for part in range(remaining, -1, -1):
                for idx in range(self.factors[pos].dim(part)):
                    rec(pos + 1, remaining - part, prefix + (_sid(part, idx),))

        rec(0, level, ())
        return out

    @cache
    def index(self, level: int) -> dict[tuple[int, ...], int]:
        return {k: i for i, k in enumerate(self.keys(level))}

    def dimension(self, level: int) -> int:
        return len(self.keys(level))

    def key_level(self, key: tuple[int, ...]) -> int:
        return sum(_sid_level(s) for s in key)

    @cache
    def table(self, level: int, pos: int, op) -> tuple[int, list[dict[int, int]]]:
        """(s, rows) for factor pos's integer map on the keys at one level:
        op "form" or "inverse" for the pivot Grams or their inverses
        (_Factor.form_row), an int m for L(m) (_Factor.expansion), whose
        images sit at level - m. s is the lcm of the denominators of the
        images of the factor states these keys use, and rows[i] is key i's
        image times s as a {key index: int} row. Every factor map in the
        package is walked on these tables (combine), integer or rational."""
        factor, keys = self.factors[pos], self.keys(level)
        form = isinstance(op, str)
        images = {sid: factor.form_row(sid, op == "inverse") if form else factor.expansion(sid, op)
                  for sid in dict.fromkeys(key[pos] for key in keys)}
        s = lcm(*(x.denominator for pairs in images.values() for _, x in pairs))
        scaled = {sid: [(t, x.numerator * (s // x.denominator)) for t, x in pairs]
                  for sid, pairs in images.items()}
        index = self.index(level if form else level - op)
        return s, [{index[key[:pos] + (t,) + key[pos + 1:]]: c for t, c in scaled[key[pos]]}
                   for key in keys]

    def factor_levels(self, level: int) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Each key at one level, with the level of each of its factor states."""
        return {k: tuple(_sid_level(s) for s in k) for k in self.keys(level)}


@cache
def space(weights: HVector) -> TensorSpace:
    return TensorSpace(weights)


class TensorVector(_Combination):
    """Rational combination of state keys of one tensor module."""

    __slots__ = ()
    weights = property(lambda self: self._module)

    @classmethod
    def lowest(cls, weights: HVector) -> "TensorVector":
        return cls(weights, {(_sid(0, 0),) * weights.n: Fraction(1)})

    def _key_level(self):
        return space(self.weights).key_level

    def coordinates(self, level: int) -> list[Fraction]:
        index, zero = space(self.weights).index(level), Fraction(0)
        if not index.keys() >= self.terms.keys():
            raise ValueError("vector has terms outside the requested level")
        return [self.terms.get(k, zero) for k in index]

    def __repr__(self) -> str:
        return f"TensorVector({self.weights}, {len(self.terms)} terms)"


def combine(rows, vec: dict, scale=1, out=None) -> dict:
    """out (a new dict by default) plus scale times vec^T rows: the sum of
    scale * c * rows[i] over the entries (i, c) of vec, for {column: int}
    rows. Entries that cancel stay in out as zeros; returns out."""
    out = {} if out is None else out
    for i, c in vec.items():
        c *= scale
        for j, x in rows[i].items():
            out[j] = out.get(j, 0) + c * x
    return out


def lowered_rows(weights: HVector, n: int, items) -> tuple[int, list[list[dict[int, int]]]]:
    """(big, images): per item (m, den, row, signs), big L_T(-m) (row / den)
    at level n for the sign vector of each T in signs, as integer rows: big is
    the lcm of every den * s_i, s_i L^(i)(-m) factor i's integer map
    (TensorSpace.table). Each factor image is formed once per item, on
    the row's nonzeros only, and each L_T(-m) image combines them.

    m may be negative, a raising mode: row then sits above level n. A sign
    row may be any integer vector u, giving sum_i u_i L^(i)(-m) in place of
    L_T(-m); its zero entries add nothing and are skipped."""
    sp = space(weights)
    tables = {m: [sp.table(n - m, pos, -m) for pos in range(sp.n)] for m, *_ in items}
    big = lcm(*{s * den for m, den, *_ in items for s, _ in tables[m]})
    out = []
    for m, den, row, signs in items:
        unit = big // den
        images = [combine(table, row, unit // s) for s, table in tables[m]]
        totals = [combine(images, {i: x for i, x in enumerate(t) if x}) for t in signs]
        out.append([{j: c for j, c in total.items() if c} for total in totals])
    return big, out


def _factor_mode_sum(u, m: int, v: TensorVector) -> TensorVector:
    """sum_i u_i L^(i)(m) v for an integer vector u over the factors, walked
    level by level on key indices through the factor tables at scale u_i / s_i."""
    sp, terms = space(v.weights), {}
    for level in set(map(sp.key_level, v.terms)):
        index, out = sp.index(level), {}
        vec = {index[k]: c for k, c in v.terms.items() if sp.key_level(k) == level}
        for pos, x in enumerate(u):
            if x:
                s, table = sp.table(level, pos, m)
                combine(table, vec, Fraction(x, s), out)
        keys = sp.keys(level - m)
        terms.update((keys[j], c) for j, c in out.items())
    return TensorVector(v.weights, terms)


def apply_factor_mode(i: int, m: int, v: TensorVector) -> TensorVector:
    """L(m) on factor i (1-based), identity elsewhere."""
    if not 1 <= i <= v.weights.n:
        raise ValueError(f"factor {i} outside 1..{v.weights.n}")
    return _factor_mode_sum([int(pos == i) for pos in range(1, v.weights.n + 1)], m, v)


def lt_action(T: Word, m: int, v: TensorVector) -> TensorVector:
    """The signed diagonal operator L_T(m) applied to v."""
    if T.n != v.weights.n:
        raise ValueError(f"subset on {T.n} points against a power of {v.weights.n} factors")
    return _factor_mode_sum(T.signs(), m, v)


def form_map(weights: HVector, level: int, rows,
             inverse: bool = False) -> tuple[int, list[dict[int, int]]]:
    """(S, the rows S P r) for integer coordinate rows r at one level, or
    (T, the rows T P^-1 r) with inverse.

    P, the invariant form's Gram matrix on the state keys, is block-diagonal
    by factor-level pattern, and each block is the Kronecker product of the
    factors' pivot Grams at those levels, so P is the composition over the
    positions of the factor Gram maps, and P^-1 that of the factor inverse
    maps. Each factor map is scaled to integers by its own lcm, and S (T) is
    the product of those lcms, so the images are integer rows. Rows go in
    and come out as {key index: int} rows, walked through the cached factor
    tables (TensorSpace.table). A column outside the level raises ValueError.
    """
    sp = space(weights)
    width = sp.dimension(level)
    tables = [sp.table(level, pos, "inverse" if inverse else "form") for pos in range(sp.n)]
    out = []
    for row in rows:
        if row and not 0 <= min(row) <= max(row) < width:
            raise ValueError(f"row has a column outside the {width} keys of level {level}")
        for _, table in tables:
            row = combine(table, row)
        out.append({j: c for j, c in row.items() if c})
    return prod(s for s, _ in tables), out


def omega_component(power: int, i: int) -> TensorVector:
    """The conformal vector of factor i inside the vacuum tensor power."""
    return apply_factor_mode(i, -2, TensorVector.lowest(HVector.vacuum(power)))


def omega_total(power: int) -> TensorVector:
    """The diagonal conformal vector, the sum of all factor copies."""
    return lt_action(Word.empty(power), -2, TensorVector.lowest(HVector.vacuum(power)))


def lt0_eigenvalue(T: Word, weights: HVector) -> Fraction:
    """Eigenvalue of L_T(0) on the lowest weight vector of W_H.

    L^(i)(0) acts there by h_i, so the value is the sum of the h_i off T
    minus the sum of the h_i on T.
    """
    if T.n != weights.n:
        raise ValueError(f"subset on {T.n} points against {weights.n} factors")
    return sum(map(mul, T.signs(), weights.entries), Fraction(0))


class CommutatorTerms(namedtuple("CommutatorTerms", "linear word central")):
    """Right hand side of the signed diagonal commutator.

    [L_S(m), L_T(mode)] = linear * L_word(m + mode) + central * identity,
    with word = S + T and central nonzero only when m + mode = 0. The central
    scalar is (N - 2|S+T|) ell times the central part of bracket(m, mode), N
    being the tensor power; the power is taken from the ground set size of
    the words, never from a mode.
    """

    __slots__ = ()


def commutator_symbolic(S: Word, T: Word, m: int, n_mode: int) -> CommutatorTerms:
    if S.n != T.n:
        raise ValueError("subsets on different ground sets")
    word = S + T
    linear, central = bracket(m, n_mode)
    return CommutatorTerms(linear, word, (S.n - 2 * word.weight) * ISING_ELL * central)


def verify_commutator(S: Word, T: Word, m: int, n_mode: int,
                      weights: HVector, max_level: int) -> bool:
    """Check the commutator identity on every state key up to max_level.

    Direct route: both compositions evaluated in full through lt_action.
    """
    if max_level < 0:
        raise ValueError(f"level must be >= 0, got {max_level}")
    sp = space(weights)
    terms = commutator_symbolic(S, T, m, n_mode)
    for level in range(max_level + 1):
        for key in sp.keys(level):
            w = TensorVector(weights, {key: Fraction(1)})
            lhs = lt_action(S, m, lt_action(T, n_mode, w)) \
                - lt_action(T, n_mode, lt_action(S, m, w))
            rhs = terms.linear * lt_action(terms.word, m + n_mode, w) + terms.central * w
            if lhs != rhs:
                return False
    return True


SweepReport = namedtuple("SweepReport", "ok pairs instances failures")


def verify_commutator_sweep(code: BinaryCode, weights: HVector,
                            mode_bound: int, max_level: int) -> SweepReport:
    """Commutator identity for every ordered pair of codewords and mode pair.

    Same verdicts as verify_commutator over the grid |m|, |n| <= mode_bound,
    read off the factor brackets. For i != j the operators L^(i)(m) and
    L^(j)(n) act on different key positions, so [L^(i)(m), L^(j)(n)] w is
    exactly 0. For each (m, n) and state key w, with (linear, central) =
    bracket(m, n) and ell the factors' central charge,

        E_i = [L^(i)(m), L^(i)(n)] w - linear L^(i)(m+n) w - central ell w

    is computed once per factor. With s, t the sign vectors of S, T the sign
    of S+T is s_i t_i and sum_i s_i t_i = N - 2|S+T|, so both sides of the
    identity split over the factors and the pair (S, T) fails on w exactly
    when sum_i s_i t_i E_i != 0. Those sums are formed only when some E_i is
    nonzero. Each failing (S, T, m, n, level) is recorded once, at its first
    failing key in the order (m, n, level, key, S, T), and the report keeps
    the first 20.
    """
    sp = space(weights)
    if code.n != sp.n:
        raise ValueError(f"code length {code.n} against a power of {sp.n} factors")
    if mode_bound < 0 or max_level < 0:
        raise ValueError(f"mode bound and level must be >= 0, got {mode_bound} and {max_level}")
    words = [(w.to_string(), w.signs()) for w in code.words()]
    failures: dict[tuple[str, str, int, int, int], None] = {}
    instances = 0

    def act(vec: dict, level: int, i: int, mode: int, out=None, scale=1) -> dict:
        s, table = sp.table(level, i, mode)
        return combine(table, vec, Fraction(scale, s), out)

    modes = range(-mode_bound, mode_bound + 1)
    for m, n in itertools.product(modes, repeat=2):
        linear, central = bracket(m, n)
        for level in range(max_level + 1):
            for j in range(sp.dimension(level)):
                unit = {j: 1}
                errors = []
                for i, factor in enumerate(sp.factors):
                    e = act(act(unit, level, i, n), level - n, i, m)
                    act(act(unit, level, i, m), level - m, i, n, e, -1)
                    act(unit, level, i, m + n, e, -linear)
                    e[j] = e.get(j, 0) - central * factor.params.ell
                    if any(e.values()):
                        errors.append((i, e))
                instances += len(words) ** 2
                if not errors:
                    continue
                for (s_name, s), (t_name, t) in itertools.product(words, repeat=2):
                    total: dict[int, Fraction] = {}
                    for i, e in errors:
                        for k, c in e.items():
                            total[k] = total.get(k, 0) + s[i] * t[i] * c
                    if any(total.values()):
                        failures[s_name, t_name, m, n, level] = None
    return SweepReport(
        ok=not failures,
        pairs=len(words) ** 2,
        instances=instances,
        failures=tuple(failures)[:20],
    )


def dimension_at_level(weights: HVector, level: int) -> int:
    """Dimension of one graded piece, by convolving factor dimension series."""
    if level < 0:
        return 0
    series = [1] + [0] * level
    for h in weights.entries:
        f = _factor(h)
        fdims = [f.dim(l) for l in range(level + 1)]
        series = [
            sum(series[j] * fdims[k - j] for j in range(k + 1))
            for k in range(level + 1)
        ]
    return series[level]


WeightOneReport = namedtuple("WeightOneReport", "total two_half_count two_half_dimension "
                             "vacuum_dimension sixteenth_copies sixteenth_dimension")


def weight1_count_e8() -> WeightOneReport:
    """Dimension of the conformal weight 1 piece of the 16-factor sum.

    The module is the sum of W_H over all H in {0,1/2}^16 with integral total
    weight, plus 128 copies of the all-1/16 module. Weight one means factor
    level 1 - total(H), so only the vacuum (level 1) and the two-half vectors
    (level 0) can contribute; both are counted honestly from the graded bases.
    """
    n = 16
    vacuum_dim = dimension_at_level(HVector.vacuum(n), 1)
    two_half = [dimension_at_level(HVector.half(n, pair), 0)
                for pair in itertools.combinations(range(n), 2)]
    # supports of size 4 or more sit at total weight 2 or more: nothing at weight 1
    sixteenth_dim = dimension_at_level(HVector.sixteenth(n), 0)
    copies = 2 ** 7
    total = vacuum_dim + sum(two_half) + copies * sixteenth_dim
    return WeightOneReport(
        total=total,
        two_half_count=len(two_half),
        two_half_dimension=sum(two_half),
        vacuum_dimension=vacuum_dim,
        sixteenth_copies=copies,
        sixteenth_dimension=sixteenth_dim,
    )
