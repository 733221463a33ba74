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

Each level's pivot monomials come from one of two scans. At central charge
1/2 and the three Ising weights the irreducible module is a parity half of a
free-fermion Fock space, whose contravariant form is positive definite, so
the Gram rank of a set of monomials is the rank of their Fock images: _Fock
scans those images and forms no pairing. Any other CentralParams, and
shapovalov_gram, pair monomials in the Verma module (_Engine). intmat's
elimination inverts the Gram block on the pivots.

Coefficients leave the module as fractions.Fraction; inside, _Engine and
_Fock run on ints over powers of one denominator per module. Nothing here
touches floats.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache

from .codes import RequestError
from .intmat import frac_det, frac_inverse

Monomial = tuple[int, ...]


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not accepted; pass Fraction, int or str")
    return Fraction(x)


class _Combination:
    """A finite rational combination of basis keys of one module: the module
    (params or weights, as the subclass names it) and the terms dict. Only
    _key_level, the rule that reads a key's level, differs by subclass; a sum
    across modules or across the two subclasses raises ValueError."""

    __slots__ = ("_module", "terms")

    def __init__(self, module, terms: dict | None = None):
        terms = terms or {}
        if any(isinstance(c, float) for c in terms.values()):
            raise TypeError("floats are not accepted; pass Fraction or int coefficients")
        self._module = module
        self.terms = {k: c for k, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def level(self) -> int | None:
        """Common level of all terms; None for the zero vector."""
        levels = set(map(self._key_level(), self.terms))
        if not levels:
            return None
        if len(levels) > 1:
            raise ValueError("vector is not homogeneous")
        return levels.pop()

    def __add__(self, other: _Combination) -> _Combination:
        if type(other) is not type(self) or self._module != other._module:
            raise ValueError("mixed modules")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        return type(self)(self._module, terms)

    def __sub__(self, other: _Combination) -> _Combination:
        return self + (-1) * other

    def __rmul__(self, scalar) -> _Combination:
        s = _as_fraction(scalar)
        return type(self)(self._module, {k: s * c for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self._module == other._module and self.terms == other.terms)


class CentralParams(namedtuple("CentralParams", "ell h")):
    """Central charge ell and highest weight h of a Verma module, as Fractions."""

    __slots__ = ()

    def __new__(cls, ell: Fraction, h: Fraction):
        return super().__new__(cls, _as_fraction(ell), _as_fraction(h))

    _make = classmethod(lambda cls, fields: cls(*fields))


def bracket(m: int, n: int) -> tuple[int, Fraction]:
    """Structure constants of [L(m), L(n)].

    Returns (linear, central): the coefficient of L(m+n) and the rational
    multiplier of ell. The central part is (m^3 - m)/12 when m + n = 0 and
    zero otherwise; the caller substitutes its own ell.
    """
    central = Fraction(m**3 - m, 12) if m + n == 0 else Fraction(0)
    return m - n, central


@cache
def partitions(level: int) -> tuple[Monomial, ...]:
    """All PBW monomials of the given level, in descending lexicographic order."""
    if level < 0:
        return ()
    if level == 0:
        return ((),)
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
    return tuple(out)


class VermaVector(_Combination):
    """A finite rational combination of PBW monomials in one Verma module."""

    __slots__ = ()
    params = property(lambda self: self._module)

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

    def _key_level(self):
        return sum

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for modes in sorted(self.terms, reverse=True):
            body = "".join(f"L(-{n})" for n in modes) or "1"
            bits.append(f"{self.terms[modes]}*{body}v")
        return " + ".join(bits)


class GradedBasis(namedtuple("GradedBasis", "params level pivots gram inverse det")):
    """Pivot monomials of one graded piece of an irreducible quotient.

    pivots are chosen greedily in descending lexicographic order: a monomial
    is kept when it is independent of the monomials already kept. Away from
    the Ising weights that is read off the Shapovalov form, by the principal
    minor rule. At c = 1/2 and the three Ising weights it is read off the
    free-fermion Fock images (_Fock), and the scan stops at the character
    (character_dimension). The Fock form is positive definite, so the Gram
    block of a set of monomials is invertible exactly when their images are
    independent, and both rules keep the same pivots. gram is the block on
    the final pivots, inverse its inverse and det its determinant.
    """

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.pivots)


def _flip(mask: int, d: int) -> tuple[int, int]:
    """psi(d/2) or psi(-d/2) on a Fock basis state whose bit d is set or
    clear: (sign, new state), the sign that of passing the modes above d.
    For d = 0 it is psi(0), short of the 1/2 it takes on u1."""
    return -1 if (mask >> (d + 1)).bit_count() % 2 else 1, mask ^ (1 << d)


class _Fock:
    """Free-fermion Fock images of the PBW monomials of one Ising weight.

    L(1/2, 0) and L(1/2, 1/2) are the even and odd halves of the
    Neveu-Schwarz Fock space of one real fermion psi(r), r in Z + 1/2, and
    L(1/2, 1/16) is the even half of the Ramond space, r in Z, built on u0
    and u1 with psi(0) u0 = u1 and psi(0) u1 = u0 / 2 (Kac and Raina, Bombay
    Lectures, 1987). The basis state psi(-r1) ... psi(-rk) u, r1 > ... > rk
    > 0, is the bitmask of the doubled modes 2 ri, odd in NS; in Ramond bit
    0 labels u1 = psi(0) u0. The highest weight state is u0, |0> or, for
    h = 1/2, psi(-1/2)|0>. For n > 0

        L(-n) = sum over r > -n/2 of (r + n/2) psi(-n-r) psi(r)

    takes a basis state to an integer combination over one scale, 2 in NS
    and 4 in Ramond (the 1/2 of psi(0) u1), so a monomial's image is an
    integer combination over scale^len; each is cached and extends its
    suffix by one mode. The basis states are orthogonal with norms 1, or 1/2
    when bit 0 is set, and L(n) is adjoint to L(-n), so the Shapovalov Gram
    of a set of monomials is V N V^T for their images V and N the positive
    norms: it is invertible exactly when V has full rank.
    """

    def __init__(self, params: CentralParams):
        self.params = params
        self.ramond = params.h == ISING_WEIGHTS[2]
        self.scale = 4 if self.ramond else 2
        self.top = 2 if params.h == ISING_WEIGHTS[1] else 0

    @cache
    def lower(self, n: int, mask: int) -> dict[int, int]:
        """scale L(-n) on the basis state mask, n > 0, as {state: int}."""
        unit = self.scale // 2  # every coefficient is a multiple of 1/2
        steps = []  # (coefficient, state after psi(r), doubled mode psi(-n-r) creates)
        for d in range(1, mask.bit_length()):  # r = d/2 > 0 annihilates a mode
            if mask >> d & 1:
                sign, m = _flip(mask, d)
                steps.append((sign * unit * (d + n), m, d + 2 * n))
        for e in range(2 if self.ramond else 1, n, 2):  # r = -e/2 creates one
            if not mask >> e & 1:
                sign, m = _flip(mask, e)
                steps.append((sign * unit * (n - e), m, 2 * n - e))
        if self.ramond:  # r = 0: (n/2) psi(-n) psi(0), with psi(0) u1 = u0 / 2
            sign, m = _flip(mask, 0)
            steps.append((sign * (unit >> (mask & 1)) * n, m, 2 * n))
        out: dict[int, int] = {}
        for c, m, d in steps:
            if not m >> d & 1:
                sign, m = _flip(m, d)
                out[m] = out.get(m, 0) + sign * c
        return {m: c for m, c in out.items() if c}

    @cache
    def image(self, mono: Monomial) -> dict[int, int]:
        """mono on the highest weight state, times scale^len(mono)."""
        if not mono:
            return {self.top: 1}
        out: dict[int, int] = {}
        for state, c in self.image(mono[1:]).items():
            for m, x in self.lower(mono[0], state).items():
                out[m] = out.get(m, 0) + c * x
        return {m: c for m, c in out.items() if c}

    @cache
    def states(self, level: int) -> tuple[int, ...]:
        """The basis states of the level piece, increasing: the doubled modes
        are distinct and sum to 2 level, plus 1 for h = 1/2, odd in NS and
        even in Ramond, where bit 0 makes the count of modes even."""
        total, first = 2 * level + self.top // 2, 2 if self.ramond else 1
        out = []

        def rec(remaining, d, mask):
            if not remaining:
                out.append(mask | mask.bit_count() % 2 if self.ramond else mask)
            for e in range(d, remaining + 1, 2):
                rec(remaining - e, e + 2, mask | 1 << e)

        rec(total, first, 0)
        return tuple(sorted(out))

    @cache
    def pivots(self, level: int) -> tuple[Monomial, ...]:
        """Greedy scan of partitions(level) on the Fock images.

        A monomial is kept when its image does not reduce to zero against
        the kept images, held as primitive integer rows keyed by their
        leading state in states(level). A monomial (n,) + tail whose tail is
        no pivot at its level is skipped without its image: the tail's image
        is a combination of those of the pivots p before it in the scan
        order, and L(-n) p straightens into monomials that come before
        (n,) + tail: (n,) + p when p's first part is at most n, else
        monomials whose first part exceeds n. Each of those is kept or has
        its image in the span of the kept. The scan stops at
        character_dimension, the dimension of the Fock level piece, and
        raises ValueError when it runs out of candidates short of it.
        """
        cap = character_dimension(self.params, level)
        column = {m: j for j, m in enumerate(self.states(level))}
        echelon: list[list[int] | None] = [None] * len(column)
        kept: list[Monomial] = []
        below = {n: set(self.pivots(level - n)) for n in range(1, level + 1)}
        for mono in partitions(level):
            if len(kept) == cap:
                break
            if mono and mono[1:] not in below[mono[0]]:
                continue
            v = [0] * len(column)
            for m, c in self.image(mono).items():
                v[column[m]] = c
            for j, row in enumerate(echelon):
                if not v[j]:
                    continue
                if row is None:
                    g = math.gcd(*v)
                    echelon[j] = [c // g for c in v]
                    kept.append(mono)
                    break
                g = math.gcd(row[j], v[j])
                a, b = row[j] // g, v[j] // g
                v[j:] = [a * x - b * y for x, y in zip(v[j:], row[j:])]
                g = math.gcd(*v)
                if g > 1:
                    v = [c // g for c in v]
        if len(kept) < cap:
            raise ValueError(
                f"weight {self.params.h}: the pivot scan found {len(kept)} states at "
                f"level {level}, the character gives {cap}")
        return tuple(kept)


class _Engine:
    """Straightening and pairing cache for one CentralParams, on integers.

    With den = lcm(den(h), den(ell/2)), the coefficient of mono in L(n) on
    modes is the int apply_monomial returns over den^(len(modes) + 1 -
    len(mono)), as each factor of h or ell uses up one operator, and a
    pairing <a, b> is an int over den^(len(a) + len(b)). At the three Ising
    weights fock holds the Fock images that choose the pivots; elsewhere it
    is None and pivots chooses them from the pairings.
    """

    def __init__(self, params: CentralParams):
        self.params = params
        self.den = den = math.lcm(params.h.denominator, (params.ell / 2).denominator)
        # (n^3 - n)/12 ell = (n^3 - n)/6 (ell/2), and (n^3 - n)/6 is an integer.
        self.h, self.central = int(den * params.h), int(den * params.ell / 2) * den
        ising = params.ell == ISING_ELL and params.h in ISING_WEIGHTS
        self.fock = _Fock(params) if ising else None

    @cache
    def apply_monomial(self, n: int, modes: Monomial) -> dict[Monomial, int]:
        if not modes:
            if n > 0:
                out: dict[Monomial, int] = {}
            elif n == 0:
                out = {(): self.h} if self.h else {}
            else:
                out = {(-n,): 1}
        elif n < 0 and -n >= modes[0]:
            out = {(-n,) + modes: 1}
        else:
            # L(n) L(-a) = L(-a) L(n) + (n + a) L(n - a) + delta_{n,a} (n^3-n)/12 ell
            a = modes[0]
            tail = modes[1:]
            out = {}
            for mono, c in self.apply_monomial(n, tail).items():
                for mono2, c2 in self.apply_monomial(-a, mono).items():
                    out[mono2] = out.get(mono2, 0) + c * c2
            f = (n + a) * self.den
            if f:
                for mono, c in self.apply_monomial(n - a, tail).items():
                    out[mono] = out.get(mono, 0) + f * c
            if n == a and self.central:
                out[tail] = out.get(tail, 0) + (n**3 - n) // 6 * self.central
            out = {m: c for m, c in out.items() if c}
        return out

    def apply(self, n: int, v: VermaVector) -> VermaVector:
        terms: dict[Monomial, Fraction] = {}
        for modes, c in v.terms.items():
            for mono, c2 in self.apply_monomial(n, modes).items():
                term = c * Fraction(c2, self.den ** (len(modes) + 1 - len(mono)))
                terms[mono] = terms.get(mono, 0) + term
        return VermaVector(self.params, terms)

    def pairing_monomials(self, a: Monomial, b: Monomial) -> Fraction:
        if sum(a) != sum(b):
            return Fraction(0)
        return Fraction(self._pairing_same_level(a, b), self.den ** (len(a) + len(b)))

    @cache
    def _pairing_same_level(self, a: Monomial, b: Monomial) -> int:
        # <L(-n1)...L(-nk) v, w> peels from the left, so L(n1) lands on w first.
        current = {b: 1}
        for n in a:
            nxt: dict[Monomial, int] = {}
            for modes, c in current.items():
                for mono, c2 in self.apply_monomial(n, modes).items():
                    nxt[mono] = nxt.get(mono, 0) + c * c2
            current = nxt
        return current.get((), 0)

    @cache
    def pivots(self, level: int) -> tuple[Monomial, ...]:
        """The Fock pivots at the Ising weights; elsewhere the principal minor
        rule over partitions(level): a monomial is kept when the Gram block
        on the kept monomials and it has nonzero determinant."""
        if self.fock:
            return self.fock.pivots(level)
        kept: list[Monomial] = []
        for mono in partitions(level):
            if frac_det(self.gram(kept + [mono])):
                kept.append(mono)
        return tuple(kept)

    def gram(self, monos: Sequence[Monomial]) -> tuple[tuple[Fraction, ...], ...]:
        """The Gram block on same-level monos: k(k+1)/2 pairings, mirrored."""
        return tuple(tuple(self.pairing_monomials(monos[min(i, j)], monos[max(i, j)])
                           for j in range(len(monos))) for i in range(len(monos)))

    @cache
    def basis(self, level: int) -> GradedBasis:
        """The Gram block on the pivots, its inverse and determinant. A singular
        block on the Fock pivots, where Fock and Verma disagree, raises ValueError."""
        pivots = self.pivots(level)
        gram = self.gram(pivots)
        inverse = frac_inverse(gram)
        if inverse is None:
            raise ValueError(f"weight {self.params.h}: singular Fock pivot Gram at level {level}")
        return GradedBasis(self.params, level, pivots, gram,
                           tuple(map(tuple, inverse)), frac_det(gram))


@cache
def _engine(params: CentralParams) -> _Engine:
    return _Engine(params)


def apply_mode(n: int, v: VermaVector) -> VermaVector:
    """L(n) applied to a vector, straightened back to PBW monomials."""
    return _engine(v.params).apply(n, v)


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


def _pivot_count(params: CentralParams, level: int) -> int:
    """Dimension of a level piece: the pivot count, with no basis formed."""
    return len(_engine(params).pivots(level))


def graded_dimensions(params: CentralParams, max_level: int) -> list[int]:
    """Dimensions of the irreducible quotient at levels 0..max_level."""
    return [_pivot_count(params, lvl) for lvl in range(max_level + 1)]


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
    if params.h == ISING_WEIGHTS[2]:
        degree, parts = level, range(1, level + 1)
    else:
        degree = 2 * level + (params.h == ISING_WEIGHTS[1])
        parts = range(1, degree + 1, 2)
    coeffs = [1] + [0] * degree
    for e in parts:
        for k in range(degree, e - 1, -1):
            coeffs[k] += coeffs[k - e]
    return coeffs[degree]
