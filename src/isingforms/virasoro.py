"""Virasoro highest weight modules with exact rational arithmetic.

Conventions used throughout the package:

  * bracket: [L(m), L(n)] = (m - n) L(m+n) + ((m^3 - m)/12) delta_{m+n,0} ell,
    where ell is the central charge scalar.
  * A PBW monomial is a weakly decreasing tuple (n1, ..., nk) of positive
    integers and stands for L(-n1) ... L(-nk) v, acting on the highest weight
    vector v with L(0) v = h v and L(n) v = 0 for n > 0. The empty tuple is v
    itself. The level of a monomial is n1 + ... + nk.
  * The contravariant (Shapovalov) form is fixed by <v, v> = 1 and by L(n)
    being adjoint to L(-n). Degenerate directions of that form span the
    maximal proper submodule, so graded dimensions of the irreducible quotient
    are ranks of the per-level Gram matrices.

All coefficients are fractions.Fraction; nothing here ever touches floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable

from .codes import RequestError

Monomial = tuple[int, ...]


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not accepted; pass Fraction, int or str")
    return Fraction(x)


@dataclass(frozen=True)
class CentralParams:
    """Central charge and highest weight of a Verma module."""

    ell: Fraction
    h: Fraction

    def __post_init__(self):
        object.__setattr__(self, "ell", _as_fraction(self.ell))
        object.__setattr__(self, "h", _as_fraction(self.h))


def bracket(m: int, n: int) -> tuple[int, Fraction]:
    """Structure constants of [L(m), L(n)].

    Returns (linear, central): the coefficient of L(m+n) and the rational
    multiplier of ell. The central part is (m^3 - m)/12 when m + n = 0 and
    zero otherwise; the caller substitutes its own ell.
    """
    central = Fraction(m**3 - m, 12) if m + n == 0 else Fraction(0)
    return m - n, central


def partitions(level: int) -> list[Monomial]:
    """All PBW monomials of the given level, in descending lexicographic order."""
    if level < 0:
        return []
    if level == 0:
        return [()]
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(level, level, [])
    return out


class VermaVector:
    """A finite rational combination of PBW monomials in one Verma module."""

    __slots__ = ("params", "terms")

    def __init__(self, params: CentralParams, terms: dict[Monomial, Fraction] | None = None):
        self.params = params
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def lowest(cls, params: CentralParams) -> "VermaVector":
        return cls(params, {(): Fraction(1)})

    @classmethod
    def monomial(cls, params: CentralParams, modes: Iterable[int]) -> "VermaVector":
        modes = tuple(modes)
        if any(m <= 0 for m in modes) or list(modes) != sorted(modes, reverse=True):
            raise ValueError(f"not a normal ordered monomial: {modes}")
        return cls(params, {modes: Fraction(1)})

    def coefficient(self, modes: Monomial) -> Fraction:
        return self.terms.get(tuple(modes), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def level(self) -> int | None:
        """Common level of all terms; None for the zero vector."""
        levels = {sum(m) for m in self.terms}
        if not levels:
            return None
        if len(levels) > 1:
            raise ValueError("vector is not homogeneous")
        return levels.pop()

    def __add__(self, other: "VermaVector") -> "VermaVector":
        if self.params != other.params:
            raise ValueError("mixed module parameters")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return VermaVector(self.params, terms)

    def __sub__(self, other: "VermaVector") -> "VermaVector":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "VermaVector":
        s = _as_fraction(scalar)
        return VermaVector(self.params, {m: s * c for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, VermaVector)
                and self.params == other.params and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for modes in sorted(self.terms, reverse=True):
            body = "".join(f"L(-{n})" for n in modes) or "1"
            bits.append(f"{self.terms[modes]}*{body}v")
        return " + ".join(bits)


@dataclass(frozen=True)
class GradedBasis:
    """Pivot monomials of one graded piece of an irreducible quotient.

    pivots are chosen greedily in descending lexicographic order: a monomial
    is kept when its Schur complement against the Gram block of the monomials
    already kept is nonzero, which keeps that block invertible. At c = 1/2 and
    the three Ising weights the free-fermion character (character_dimension)
    bounds the dimension from above, the kept pivots bound it from below, and
    the scan stops where the two meet; elsewhere it runs over every partition.
    gram is the block on the final pivots, inverse its inverse and det its
    determinant, the product of the kept Schur complements.
    """

    params: CentralParams
    level: int
    pivots: tuple[Monomial, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    inverse: tuple[tuple[Fraction, ...], ...]
    det: Fraction

    @property
    def dimension(self) -> int:
        return len(self.pivots)


class _Engine:
    """Straightening and pairing cache for one CentralParams."""

    def __init__(self, params: CentralParams):
        self.params = params

    @cache
    def apply_monomial(self, n: int, modes: Monomial) -> dict[Monomial, Fraction]:
        params = self.params
        if not modes:
            if n > 0:
                out: dict[Monomial, Fraction] = {}
            elif n == 0:
                out = {(): params.h} if params.h else {}
            else:
                out = {(-n,): Fraction(1)}
        elif n < 0 and -n >= modes[0]:
            out = {(-n,) + modes: Fraction(1)}
        else:
            # L(n) L(-a) = L(-a) L(n) + (n + a) L(n - a) + delta_{n,a} (n^3-n)/12 ell
            a = modes[0]
            tail = modes[1:]
            out = {}
            for mono, c in self.apply_monomial(n, tail).items():
                for mono2, c2 in self.apply_monomial(-a, mono).items():
                    out[mono2] = out.get(mono2, Fraction(0)) + c * c2
            f = Fraction(n + a)
            if f:
                for mono, c in self.apply_monomial(n - a, tail).items():
                    out[mono] = out.get(mono, Fraction(0)) + f * c
            if n == a:
                cc = Fraction(n**3 - n, 12) * params.ell
                if cc:
                    out[tail] = out.get(tail, Fraction(0)) + cc
            out = {m: c for m, c in out.items() if c}
        return out

    def apply(self, n: int, v: VermaVector) -> VermaVector:
        terms: dict[Monomial, Fraction] = {}
        for modes, c in v.terms.items():
            for mono, c2 in self.apply_monomial(n, modes).items():
                terms[mono] = terms.get(mono, Fraction(0)) + c * c2
        return VermaVector(self.params, terms)

    def pairing_monomials(self, a: Monomial, b: Monomial) -> Fraction:
        if sum(a) != sum(b):
            return Fraction(0)
        return self._pairing_same_level(a, b)

    @cache
    def _pairing_same_level(self, a: Monomial, b: Monomial) -> Fraction:
        # <L(-n1)...L(-nk) v, w> peels from the left, so L(n1) lands on w first.
        current = {b: Fraction(1)}
        for n in a:
            nxt: dict[Monomial, Fraction] = {}
            for modes, c in current.items():
                for mono, c2 in self.apply_monomial(n, modes).items():
                    nxt[mono] = nxt.get(mono, Fraction(0)) + c * c2
            current = nxt
        return current.get((), Fraction(0))

    def pairing(self, a: VermaVector, b: VermaVector) -> Fraction:
        out = Fraction(0)
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                if sum(ma) == sum(mb):
                    out += ca * cb * self.pairing_monomials(ma, mb)
        return out

    @cache
    def basis(self, level: int) -> GradedBasis:
        """Greedy pivot basis of one level, bordered on integers.

        The scan stops once the kept count reaches character_dimension, an
        upper bound; each kept pivot is a nonzero principal minor, so the
        count is also a lower bound, and a scan that runs out of candidates
        short of the character raises ValueError. The kept Gram block is
        carried as an integer adjugate and determinant over one common
        denominator, the lcm of the pairing denominators seen so far, and
        the Fractions are formed once at the end.
        """
        monos = partitions(level)
        cap = character_dimension(self.params, level)
        kept: list[int] = []
        rows: list[list[Fraction]] = []  # rows[i][j] = <kept i, kept j> for j <= i
        # With K the Gram block on kept and K' = scale * K an integer matrix,
        # det = det(K') and adj = det * K'^-1, an integer matrix as well.
        scale, det = 1, 1
        adj: list[list[int]] = []
        for idx, mono in enumerate(monos):
            if len(kept) == cap:
                break
            g = [self.pairing_monomials(monos[j], mono) for j in kept]
            d = self.pairing_monomials(mono, mono)
            new_scale = math.lcm(scale, d.denominator, *(x.denominator for x in g))
            if new_scale != scale:
                # K' -> f K' takes adj to f^(k-1) adj and det to f^k det.
                f, k = new_scale // scale, len(kept)
                if k > 1:
                    fk = f ** (k - 1)
                    adj = [[a * fk for a in row] for row in adj]
                det *= f ** k
                scale = new_scale
            gi = [x.numerator * (scale // x.denominator) for x in g]
            u = [sum(a * b for a, b in zip(row, gi) if b) for row in adj]
            # det(K' bordered by idx) = det * d' - g'^T adj g', and the block on
            # kept is invertible, so the principal minor rule keeps idx exactly
            # when this bordered determinant s is nonzero.
            s = det * d.numerator * (scale // d.denominator) - sum(
                a * b for a, b in zip(gi, u) if a)
            if not s:
                continue
            # Sylvester's identity makes the division exact (Bareiss):
            # adj' = [[(s adj + u u^T) / det, -u], [-u^T, det]], det' = s.
            for row, ui in zip(adj, u):
                for j, uj in enumerate(u):
                    row[j] = (s * row[j] + ui * uj) // det
                row.append(-ui)
            adj.append([-x for x in u] + [det])
            det = s
            kept.append(idx)
            rows.append(g + [d])
        if cap is not None and len(kept) < cap:
            raise ValueError(
                f"weight {self.params.h}: the pivot scan found {len(kept)} states at "
                f"level {level}, the character gives {cap}")
        return GradedBasis(
            params=self.params,
            level=level,
            pivots=tuple(monos[i] for i in kept),
            gram=tuple(tuple(rows[max(i, j)][min(i, j)] for j in range(len(kept)))
                       for i in range(len(kept))),
            inverse=tuple(tuple(Fraction(scale * a, det) for a in row) for row in adj),
            det=Fraction(det, scale ** len(kept)),
        )


@cache
def _engine(params: CentralParams) -> _Engine:
    return _Engine(params)


def apply_mode(n: int, v: VermaVector) -> VermaVector:
    """L(n) applied to a vector, straightened back to PBW monomials."""
    return _engine(v.params).apply(n, v)


def pairing(a: VermaVector, b: VermaVector) -> Fraction:
    """Contravariant form <a, b> in the Verma module."""
    if a.params != b.params:
        raise ValueError("mixed module parameters")
    return _engine(a.params).pairing(a, b)


def shapovalov_gram(params: CentralParams, level: int) -> list[list[Fraction]]:
    """Gram matrix of the contravariant form on all PBW monomials of a level.

    Rows and columns follow partitions(level). Every entry is computed
    independently; symmetry is a verified property, not an input assumption.
    """
    eng = _engine(params)
    monos = partitions(level)
    return [[eng.pairing_monomials(a, b) for b in monos] for a in monos]


def irreducible_basis(params: CentralParams, level: int) -> GradedBasis:
    """Greedy pivot basis of the level piece of the irreducible quotient."""
    return _engine(params).basis(level)


def reduce_vector(v: VermaVector, basis: GradedBasis) -> list[Fraction]:
    """Coordinates of the image of v in the irreducible quotient.

    c = gram^-1 . (<pivot_i, v>)_i, which kills the radical, so any two
    Verma lifts of the same quotient element reduce identically.
    """
    if v.params != basis.params:
        raise ValueError("mixed module parameters")
    lvl = v.level()
    if lvl is not None and lvl != basis.level:
        raise ValueError(f"vector at level {lvl} against basis at level {basis.level}")
    eng = _engine(v.params)
    rhs = [sum((c * eng.pairing_monomials(piv, mono) for mono, c in v.terms.items()),
               Fraction(0))
           for piv in basis.pivots]
    return [sum((a * b for a, b in zip(row, rhs) if b), Fraction(0))
            for row in basis.inverse]


def graded_dimensions(params: CentralParams, max_level: int) -> list[int]:
    """Dimensions of the irreducible quotient at levels 0..max_level."""
    return [irreducible_basis(params, lvl).dimension for lvl in range(max_level + 1)]


def scaling_admissible(k, c) -> bool:
    """Whether k^2 * c is an even integer.

    This is the arithmetic obstruction for rescaled conformal vectors to span
    integral lattices: the self-pairing of k omega is k^2 c / 2.
    """
    x = _as_fraction(k) ** 2 * _as_fraction(c)
    return x.denominator == 1 and x.numerator % 2 == 0


ISING_ELL = Fraction(1, 2)
ISING_WEIGHTS = (Fraction(0), Fraction(1, 2), Fraction(1, 16))


def ising_params(h) -> CentralParams:
    """CentralParams at central charge 1/2 for one of the three Ising weights."""
    hf = _as_fraction(h)
    if hf not in ISING_WEIGHTS:
        allowed = ", ".join(str(w) for w in ISING_WEIGHTS)
        raise RequestError(f"weight {hf} is not one of {allowed}")
    return CentralParams(ISING_ELL, hf)


def character_dimension(params: CentralParams, level: int) -> int | None:
    """Dimension of the level piece of L(1/2, h) from its free-fermion character.

    With t = q^(1/2), h = 0 and h = 1/2 take the coefficients of t^(2 level)
    and t^(2 level + 1) in prod over odd k of (1 + t^k), and h = 1/16 that of
    q^level in prod over k >= 1 of (1 + q^k) (Kac and Raina, Bombay Lectures,
    1987). None away from central charge 1/2 and the three Ising weights.
    """
    if params.ell != ISING_ELL or params.h not in ISING_WEIGHTS:
        return None
    if level < 0:
        return 0
    if params.h == Fraction(1, 16):
        degree, parts = level, range(1, level + 1)
    else:
        degree = 2 * level + (params.h == Fraction(1, 2))
        parts = range(1, degree + 1, 2)
    coeffs = [1] + [0] * degree
    for e in parts:
        for k in range(degree, e - 1, -1):
            coeffs[k] += coeffs[k - e]
    return coeffs[degree]
