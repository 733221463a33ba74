"""Tensor powers of the c = 1/2 Virasoro irreducible modules.

A weight vector H = (h_1, ..., h_N) with every h_i in {0, 1/2, 1/16} labels
the module W_H, the tensor product of the irreducible factors. States are
indexed by keys: one (level, pivot index) pair per factor, packed into small
integers that no other module unpacks. For a subset T of {1..N} the signed
diagonal operator is

    L_T(m) = sum over i not in T of L^(i)(m)  minus  sum over i in T,

acting on factor i only. These and the invariant form, the product of the
factors' Shapovalov forms, all act through one per-factor map.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import lcm, prod
from typing import NamedTuple

from .codes import BinaryCode, RequestError, Word
from .virasoro import (
    GradedBasis,
    VermaVector,
    _as_fraction,
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
        allowed = {Fraction(0), Fraction(1, 2), Fraction(1, 16)}
        entries = tuple(_as_fraction(e) for e in entries)
        bad = [e for e in entries if e not in allowed]
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
        return cls((Fraction(1, 16),) * n)

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
            {i for i, e in enumerate(self.entries, start=1) if e == Fraction(1, 2)},
            self.n,
        )

    @property
    def all_sixteenth(self) -> bool:
        return all(e == Fraction(1, 16) for e in self.entries)

    @property
    def has_sixteenth(self) -> bool:
        return any(e == Fraction(1, 16) for e in self.entries)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


class _Factor:
    """Mode action and invariant form of one Ising factor on its graded pivot bases."""

    def __init__(self, h: Fraction):
        self.h = h
        self.params = ising_params(h)

    def basis(self, level: int) -> GradedBasis:
        b = irreducible_basis(self.params, level)
        if b.dimension > _SID_STRIDE:
            raise RequestError(
                f"weight {self.h} level {level} has {b.dimension} states; "
                f"factor states are limited to {_SID_STRIDE} per level")
        return b

    def dim(self, level: int) -> int:
        return self.basis(level).dimension if level >= 0 else 0

    @cache
    def expansion(self, sid: int, m: int) -> tuple[tuple[int, Fraction], ...]:
        """L(m) on pivot state sid, as (sid, coefficient) pairs at level - m."""
        level = _sid_level(sid)
        target = level - m
        if target < 0 or self.dim(target) == 0:
            return ()
        pivot = self.basis(level).pivots[sid % _SID_STRIDE]
        image = apply_mode(m, VermaVector(self.params, {pivot: Fraction(1)}))
        coords = reduce_vector(image, self.basis(target))
        return tuple((_sid(target, j), c) for j, c in enumerate(coords) if c)

    @cache
    def form_rows(self, top: int, inverse: bool) -> tuple[int, dict]:
        """(s, rows) for the pivot Grams, or their inverses, at levels <= top:
        each sid's row of its level's matrix, scaled by _integer_rows."""
        mats = [self.basis(l).inverse if inverse else self.basis(l).gram
                for l in range(top + 1)]
        return _integer_rows({_sid(l, i): [(_sid(l, j), x) for j, x in enumerate(row) if x]
                              for l, mat in enumerate(mats) for i, row in enumerate(mat)})

    @cache
    def mode_rows(self, top: int, m: int) -> tuple[int, dict]:
        """(s, rows) for L(m) on every sid at levels <= top: its expansion,
        scaled by _integer_rows."""
        return _integer_rows({_sid(l, i): self.expansion(_sid(l, i), m)
                              for l in range(top + 1) for i in range(self.dim(l))})


def _integer_rows(rows: dict) -> tuple[int, dict]:
    """(s, s * rows) for a map from sids to (sid, rational) pairs: s is the
    lcm of the denominators, and each image comes back as (sid, int) pairs."""
    s = lcm(*(x.denominator for pairs in rows.values() for _, x in pairs))
    return s, {sid: tuple((sid2, x.numerator * (s // x.denominator)) for sid2, x in pairs)
               for sid, pairs in rows.items()}


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

        def rec(pos: int, remaining: int, prefix: list[int]):
            if pos == self.n - 1:
                d = self.factors[pos].dim(remaining)
                for idx in range(d):
                    out.append(tuple(prefix + [_sid(remaining, idx)]))
                return
            for part in range(remaining, -1, -1):
                d = self.factors[pos].dim(part)
                if d == 0:
                    continue
                for idx in range(d):
                    prefix.append(_sid(part, idx))
                    rec(pos + 1, remaining - part, prefix)
                    prefix.pop()

        rec(0, level, [])
        return out

    @cache
    def index(self, level: int) -> dict[tuple[int, ...], int]:
        return {k: i for i, k in enumerate(self.keys(level))}

    def dimension(self, level: int) -> int:
        return len(self.keys(level))

    def key_level(self, key: tuple[int, ...]) -> int:
        return sum(_sid_level(s) for s in key)


@cache
def space(weights: HVector) -> TensorSpace:
    return TensorSpace(weights)


class TensorVector:
    """Rational combination of state keys of one tensor module."""

    __slots__ = ("weights", "terms")

    def __init__(self, weights: HVector, terms: dict[tuple[int, ...], Fraction] | None = None):
        terms = terms or {}
        if any(isinstance(c, float) for c in terms.values()):
            raise TypeError("floats are not accepted; pass Fraction or int coefficients")
        self.weights = weights
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def lowest(cls, weights: HVector) -> "TensorVector":
        return cls(weights, {(_sid(0, 0),) * weights.n: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def level(self) -> int | None:
        sp = space(self.weights)
        levels = {sp.key_level(k) for k in self.terms}
        if not levels:
            return None
        if len(levels) > 1:
            raise ValueError("vector is not homogeneous")
        return levels.pop()

    def coordinates(self, level: int) -> list[Fraction]:
        sp = space(self.weights)
        idx = sp.index(level)
        out = [Fraction(0)] * len(idx)
        for k, c in self.terms.items():
            pos = idx.get(k)
            if pos is None:
                raise ValueError("vector has terms outside the requested level")
            out[pos] = c
        return out

    def __add__(self, other: "TensorVector") -> "TensorVector":
        if self.weights != other.weights:
            raise ValueError("mixed tensor modules")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        return TensorVector(self.weights, terms)

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "TensorVector":
        s = _as_fraction(scalar)
        return TensorVector(self.weights, {k: s * c for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorVector)
                and self.weights == other.weights and self.terms == other.terms)

    def __repr__(self) -> str:
        return f"TensorVector({self.weights}, {len(self.terms)} terms)"


def _add_factor_map(terms: dict, vec: dict, pos: int, fmap, scale) -> dict:
    """terms += scale * (fmap on factor pos, identity elsewhere) applied to vec,
    fmap sending a factor state sid to its image as (sid, coefficient) pairs;
    returns terms."""
    for key, c in vec.items():
        sc = scale * c
        head, tail = key[:pos], key[pos + 1:]
        for sid2, c2 in fmap(key[pos]):
            nk = head + (sid2,) + tail
            terms[nk] = terms.get(nk, 0) + sc * c2
    return terms


def factor_mode_sum(coeffs, m: int, v: TensorVector) -> TensorVector:
    """sum_i u_i L^(i)(m) v over the (i, u_i) pairs, factors 1-based."""
    sp = space(v.weights)
    terms: dict[tuple[int, ...], Fraction] = {}
    for i, u in coeffs:
        if not 1 <= i <= sp.n:
            raise ValueError(f"factor {i} outside 1..{sp.n}")
        factor = sp.factors[i - 1]
        _add_factor_map(terms, v.terms, i - 1, lambda sid: factor.expansion(sid, m), u)
    return TensorVector(v.weights, terms)


def apply_factor_mode(i: int, m: int, v: TensorVector) -> TensorVector:
    """L(m) on factor i (1-based), identity elsewhere."""
    return factor_mode_sum([(i, 1)], m, v)


def lt_action(T: Word, m: int, v: TensorVector) -> TensorVector:
    """The signed diagonal operator L_T(m) applied to v."""
    n = v.weights.n
    if T.n != n:
        raise ValueError(f"subset on {T.n} points against a power of {n} factors")
    return factor_mode_sum(
        [(i, -1 if T.contains(i) else 1) for i in range(1, n + 1)], m, v)


def form_map(weights: HVector, level: int, rows,
             inverse: bool = False) -> tuple[int, list[list[int]]]:
    """(S, the rows S P r) for integer coordinate rows r at one level, or
    (T, the rows T P^-1 r) with inverse.

    P, the invariant form's Gram matrix on the state keys, is block-diagonal
    by factor-level pattern, and each block is the Kronecker product of the
    factors' pivot Grams at those levels, so P is the composition over the
    positions of the factor Gram maps, and P^-1 that of the factor inverse
    maps. Each factor map is scaled to integers by its own lcm, and S (T) is
    the product of those lcms, so the images are integer rows.
    """
    sp = space(weights)
    keys = sp.keys(level)
    maps = [f.form_rows(level, inverse) for f in sp.factors]
    out = []
    for row in rows:
        terms = {k: c for k, c in zip(keys, row, strict=True) if c}
        for pos, (_, fmap) in enumerate(maps):
            terms = _add_factor_map({}, terms, pos, fmap.__getitem__, 1)
        out.append([terms.get(k, 0) for k in keys])
    return prod(s for s, _ in maps), out


def form_nondegenerate(weights: HVector, level: int) -> bool:
    """Whether the invariant form on one graded piece is nondegenerate.

    The key Gram P is a direct sum of Kronecker products of factor pivot
    Grams; a direct sum has the product of its blocks' determinants and
    det(A x B) = det A^(dim B) det B^(dim A), so det P != 0 exactly when
    every factor Gram that a key at this level uses has nonzero determinant,
    which each factor's pivot scan already holds.
    """
    sp = space(weights)
    used = dict.fromkeys(
        (sp.factors[pos], _sid_level(sid))
        for key in sp.keys(level) for pos, sid in enumerate(key))
    return all(factor.basis(l).det != 0 for factor, l in used)


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
    return sum((-h if T.contains(i) else h
                for i, h in enumerate(weights.entries, start=1)), Fraction(0))


class CommutatorTerms(NamedTuple):
    """Right hand side of the signed diagonal commutator.

    [L_S(m), L_T(mode)] = linear * L_word(m + mode) + central * identity,
    with word = S + T and central nonzero only when m + mode = 0. The central
    scalar is (N - 2|S+T|)/4 * binom(m+1, 3), N being the tensor power; the
    power is taken from the ground set size of the words, never from a mode.
    """

    linear: int
    word: Word
    central: Fraction


def commutator_symbolic(S: Word, T: Word, m: int, n_mode: int) -> CommutatorTerms:
    if S.n != T.n:
        raise ValueError("subsets on different ground sets")
    word = S + T
    power = S.n
    if m + n_mode == 0:
        central = Fraction(power - 2 * word.weight, 4) * Fraction((m + 1) * m * (m - 1), 6)
    else:
        central = Fraction(0)
    return CommutatorTerms(linear=m - n_mode, word=word, central=central)


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


class SweepReport(NamedTuple):
    ok: bool
    pairs: int
    instances: int
    failures: tuple[tuple[str, str, int, int, int], ...]


def verify_commutator_sweep(code: BinaryCode, weights: HVector,
                            mode_bound: int, max_level: int) -> SweepReport:
    """Commutator identity for every ordered pair of codewords and mode pair.

    Same verdicts as verify_commutator over the grid |m|, |n| <= mode_bound,
    read off the factor brackets. For each (m, n) and state key w, with
    (linear, central) = bracket(m, n) and ell the factors' central charge,

        E_ij = [L^(i)(m), L^(j)(n)] w
               - delta_ij (linear L^(i)(m+n) w + central ell w)

    is computed once for every pair of factors, cross-factor ones included;
    nothing is assumed to vanish. With s, t the sign vectors of S, T the sign
    of S+T is s_i t_i and sum_i s_i t_i = N - 2|S+T|, so both sides of the
    identity split over the factors and the pair (S, T) fails on w exactly
    when sum_ij s_i t_j E_ij != 0. Those sums are formed only when some E_ij
    is nonzero. Each failing (S, T, m, n, level) is recorded once, at its
    first failing key in the order (m, n, level, key, S, T), and the report
    keeps the first 20.
    """
    sp = space(weights)
    if code.n != sp.n:
        raise ValueError(f"code length {code.n} against a power of {sp.n} factors")
    if mode_bound < 0 or max_level < 0:
        raise ValueError(f"mode bound and level must be >= 0, got {mode_bound} and {max_level}")
    positions = range(sp.n)
    words = [(w.to_string(), tuple(-1 if w.contains(i + 1) else 1 for i in positions))
             for w in code.words()]
    failures: dict[tuple[str, str, int, int, int], None] = {}
    instances = 0

    def act(terms: dict, vec: dict, pos: int, mode: int, scale=1) -> dict:
        """terms += scale * L^(pos)(mode) vec, returning terms."""
        factor = sp.factors[pos]
        return _add_factor_map(terms, vec, pos, lambda sid: factor.expansion(sid, mode), scale)

    modes = range(-mode_bound, mode_bound + 1)
    for m, n in itertools.product(modes, repeat=2):
        linear, central = bracket(m, n)
        for level in range(max_level + 1):
            for key in sp.keys(level):
                unit = {key: Fraction(1)}
                first_m = [act({}, unit, i, m) for i in positions]
                first_n = [act({}, unit, j, n) for j in positions]
                errors = []
                for i, j in itertools.product(positions, repeat=2):
                    e = act({}, first_n[j], i, m)
                    act(e, first_m[i], j, n, -1)
                    if i == j:
                        act(e, unit, i, m + n, -linear)
                        e[key] = e.get(key, 0) - central * sp.factors[i].params.ell
                    if any(e.values()):
                        errors.append((i, j, e))
                instances += len(words) ** 2
                if not errors:
                    continue
                for (s_name, s), (t_name, t) in itertools.product(words, repeat=2):
                    total: dict[tuple[int, ...], Fraction] = {}
                    for i, j, e in errors:
                        for k, c in e.items():
                            total[k] = total.get(k, 0) + s[i] * t[j] * c
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


class WeightOneReport(NamedTuple):
    total: int
    two_half_count: int
    two_half_dimension: int
    vacuum_dimension: int
    sixteenth_copies: int
    sixteenth_dimension: int


def weight1_count_e8() -> WeightOneReport:
    """Dimension of the conformal weight 1 piece of the 16-factor sum.

    The module is the sum of W_H over all H in {0,1/2}^16 with integral total
    weight, plus 128 copies of the all-1/16 module. Weight one means factor
    level 1 - total(H), so only the vacuum (level 1) and the two-half vectors
    (level 0) can contribute; both are counted honestly from the graded bases.
    """
    n = 16
    vacuum_dim = dimension_at_level(HVector.vacuum(n), 1)
    two_half_count = 0
    two_half_dim = 0
    half = Fraction(1, 2)
    for pair in itertools.combinations(range(n), 2):
        entries = [Fraction(0)] * n
        entries[pair[0]] = half
        entries[pair[1]] = half
        d = dimension_at_level(HVector(tuple(entries)), 0)
        two_half_count += 1
        two_half_dim += d
    # supports of size 4 or more sit at total weight 2 or more: nothing at weight 1
    sixteenth_dim = dimension_at_level(HVector.sixteenth(n), 0)
    copies = 2 ** 7
    total = vacuum_dim + two_half_dim + copies * sixteenth_dim
    return WeightOneReport(
        total=total,
        two_half_count=two_half_count,
        two_half_dimension=two_half_dim,
        vacuum_dimension=vacuum_dim,
        sixteenth_copies=copies,
        sixteenth_dimension=sixteenth_dim,
    )
