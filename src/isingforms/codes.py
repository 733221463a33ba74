"""Binary linear codes on the ground set {1, ..., n}.

A codeword is a subset of the ground set, stored as a bitmask with position i
on bit i-1, and displayed as a bitstring whose leftmost character is position
1. Addition is symmetric difference, so a code is an F2 subspace of the power
set. The pairing behind duality is the parity of the intersection size.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import namedtuple

from .intmat import hnf


class RequestError(ValueError):
    """A bad request: unparsable or out-of-range caller input, or a size limit.

    Any other ValueError raised by the package means a check of the
    mathematics failed.
    """


class Word(namedtuple("Word", "bits n")):
    """One codeword: a subset of {1, ..., n} as a bitmask."""

    __slots__ = ()

    def __new__(cls, bits: int, n: int):
        if n <= 0 or n > 64:
            raise RequestError(f"ground set size {n} out of range 1..64")
        if bits < 0 or bits >> n:
            raise RequestError(f"bitmask {bits:#x} does not fit in {n} positions")
        return super().__new__(cls, bits, n)

    # _replace rebuilds through _make; route it through the checks above
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_string(cls, text: str) -> "Word":
        if not text or any(ch not in "01" for ch in text):
            raise RequestError(f"not a bitstring: {text!r}")
        return cls(int(text[::-1], 2), len(text))

    @classmethod
    def from_set(cls, elements, n: int) -> "Word":
        bits = 0
        for e in elements:
            if not 1 <= e <= n:
                raise ValueError(f"element {e} outside 1..{n}")
            bits |= 1 << (e - 1)
        return cls(bits, n)

    @classmethod
    def empty(cls, n: int) -> "Word":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "Word":
        return cls((1 << n) - 1, n)

    def to_string(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1]  # position 1, the lowest bit, first

    def elements(self) -> tuple[int, ...]:
        return tuple(pos for pos in range(1, self.n + 1) if self.bits >> (pos - 1) & 1)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def contains(self, pos: int) -> bool:
        if not 1 <= pos <= self.n:
            raise ValueError(f"position {pos} outside 1..{self.n}")
        return bool(self.bits >> (pos - 1) & 1)

    def signs(self) -> tuple[int, ...]:
        """The sign vector s(T): -1 at the positions in the word, +1 elsewhere."""
        return tuple(-1 if self.bits >> pos & 1 else 1 for pos in range(self.n))

    def complement(self) -> "Word":
        return Word(self.bits ^ ((1 << self.n) - 1), self.n)

    def __add__(self, other: "Word") -> "Word":
        if self.n != other.n:
            raise ValueError(f"mixed ground sets: {self.n} vs {other.n}")
        return Word(self.bits ^ other.bits, self.n)

    def __repr__(self) -> str:
        return f"Word({self.to_string()})"


def _echelon(masks: list[int]) -> list[int]:
    """Reduced F2 echelon basis, pivoting on the lowest set bit first."""
    basis: list[int] = []
    for m in masks:
        for b in basis:
            low = b & -b
            if m & low:
                m ^= b
        if m:
            basis.append(m)
            basis.sort(key=lambda x: x & -x)
    # back-substitute so each pivot bit appears in exactly one basis row
    for i, b in enumerate(basis):
        low = b & -b
        for j in range(len(basis)):
            if j != i and basis[j] & low:
                basis[j] ^= b
    return sorted(basis, key=lambda x: x & -x)


class BinaryCode:
    """F2 span of a set of words, with the usual code-theoretic predicates."""

    def __init__(self, n: int, generators=()):
        self.n = n
        masks = []
        for g in generators:
            if isinstance(g, Word):
                if g.n != n:
                    raise ValueError(f"generator on {g.n} points in a length-{n} code")
                masks.append(g.bits)
            else:
                w = Word.from_string(g)
                if w.n != n:
                    raise ValueError(f"generator {g!r} has length {w.n}, expected {n}")
                masks.append(w.bits)
        self._basis = _echelon(masks)
        self._words: list[Word] | None = None

    @property
    def dimension(self) -> int:
        return len(self._basis)

    def __len__(self) -> int:
        return 1 << self.dimension

    def basis(self) -> list[Word]:
        return [Word(b, self.n) for b in self._basis]

    def words(self) -> list[Word]:
        """All codewords, sorted by bitstring. Materialized once."""
        if self._words is None:
            if self.dimension > 24:
                raise RequestError(f"refusing to materialize 2^{self.dimension} words")
            acc = []
            for picks in itertools.product((0, 1), repeat=self.dimension):
                m = 0
                for take, b in zip(picks, self._basis):
                    if take:
                        m ^= b
                acc.append(Word(m, self.n))
            acc.sort(key=lambda w: w.to_string())
            self._words = acc
        return list(self._words)

    def contains(self, word: Word) -> bool:
        if word.n != self.n:
            raise ValueError(f"word on {word.n} points in a length-{self.n} code")
        m = word.bits
        for b in self._basis:
            if m & (b & -b):
                m ^= b
        return m == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, BinaryCode)
                and self.n == other.n and self._basis == other._basis)

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._basis)))

    def __contains__(self, word: Word) -> bool:
        return self.contains(word)

    def dual(self) -> "BinaryCode":
        """All words meeting every codeword evenly: the F2 null space."""
        pivots = [(b & -b).bit_length() - 1 for b in self._basis]
        free = [c for c in range(self.n) if c not in pivots]
        gens = []
        for c in free:
            m = 1 << c
            for b, p in zip(self._basis, pivots):
                if b >> c & 1:
                    m |= 1 << p
            gens.append(Word(m, self.n))
        return BinaryCode(self.n, gens)

    def is_self_dual(self) -> bool:
        return self == self.dual()

    def is_type_ii(self) -> bool:
        """Length divisible by 4, full set a codeword, every weight in 4Z."""
        if self.n % 4 != 0 or not self.contains(Word.full(self.n)):
            return False
        return all(w.weight % 4 == 0 for w in self.words())

    def weight_distribution(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for w in self.words():
            out[w.weight] = out.get(w.weight, 0) + 1
        return dict(sorted(out.items()))

    def __repr__(self) -> str:
        return f"BinaryCode(n={self.n}, dim={self.dimension})"


def even_code(n: int) -> BinaryCode:
    """All subsets of even size."""
    if n < 2:
        raise RequestError("even weight code needs n >= 2")
    return BinaryCode(n, [Word.from_set({1, i}, n) for i in range(2, n + 1)])


def trivial_code(n: int) -> BinaryCode:
    """Just the empty set and the full set."""
    return BinaryCode(n, [Word.full(n)])


_HAMMING8_HALF = [
    set(),
    {1, 2, 3, 4},
    {1, 2, 5, 6},
    {1, 2, 7, 8},
    {1, 3, 5, 7},
    {2, 4, 5, 7},
    {2, 3, 6, 7},
    {2, 3, 5, 8},
]


def hamming8() -> BinaryCode:
    """The [8,4] extended Hamming code, as a fixed 16-word realization.

    Eight listed sets plus their complements. Construction checks that this
    list really is closed under addition, so the exact realization is pinned.
    """
    listed = {Word.from_set(s, 8) for s in _HAMMING8_HALF}
    listed |= {w.complement() for w in listed}
    code = BinaryCode(8, sorted(listed, key=lambda w: w.bits))
    got = set(code.words())
    if got != listed or len(got) != 16:
        raise AssertionError("hamming8 word list is not span-closed")
    return code


def c16() -> BinaryCode:
    """Length-16 code glued from two Hamming copies.

    Words are T + shift(T) and T + complement(shift(T)) for T in the length-8
    code, where shift moves a subset of {1..8} onto {9..16}.
    """
    h8 = hamming8()
    gens = []
    for w in h8.words():
        shifted = w.bits << 8
        gens.append(Word(w.bits | shifted, 16))
        gens.append(Word(w.bits | (shifted ^ (0xFF << 8)), 16))
    code = BinaryCode(16, gens)
    if len(code) != 32:
        raise AssertionError(f"expected 32 words, got {len(code)}")
    return code


class GoodFormReport(namedtuple("GoodFormReport", "n_multiple_of_4 inside_even_code "
                                 "contains_full_set separating witnesses missing_pairs")):
    """Results of the four conditions a code must meet to index an integral form."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (self.n_multiple_of_4 and self.inside_even_code
                and self.contains_full_set and self.separating)


def goodform_conditions(code: BinaryCode) -> GoodFormReport:
    """Check the conditions and collect a separating witness per ordered pair.

    A pair (i, j) is separated by a word containing i but not j. The first
    witness in the sorted word order is recorded for determinism.
    """
    words = code.words()
    witnesses = []
    missing = []
    for i in range(1, code.n + 1):
        for j in range(1, code.n + 1):
            if i == j:
                continue
            found = next((w for w in words if w.contains(i) and not w.contains(j)), None)
            if found is None:
                missing.append((i, j))
            else:
                witnesses.append(((i, j), found))
    return GoodFormReport(
        n_multiple_of_4=code.n % 4 == 0,
        inside_even_code=all(w.weight % 2 == 0 for w in words),
        contains_full_set=code.contains(Word.full(code.n)),
        separating=not missing,
        witnesses=tuple(witnesses),
        missing_pairs=tuple(missing),
    )


def complement_reduce(code: BinaryCode) -> list[Word]:
    """One representative per pair {T, complement(T)}, sorted by bitstring.

    Requires the full set to be a codeword so that complementation acts on the
    code. The representative is the word not containing position 1, which
    prefers the empty set over the full set.
    """
    if not code.contains(Word.full(code.n)):
        raise ValueError("code does not contain the full set")
    reps = {w if not w.contains(1) else w.complement() for w in code.words()}
    return sorted(reps, key=lambda w: w.to_string())


@functools.cache
def sign_basis(code: BinaryCode) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of the sign lattice span_Z{s(T)}, T over complement_reduce.

    s(T^c) = -s(T), so the representatives span the lattice of every
    codeword's signs. Its rows are sparser than the sign vectors: on hamming8
    they are (1^8), (0,2,0,2,0,2,0,2), ..., (0^7,8), dense over the factors.
    """
    rows = hnf([dict(enumerate(t.signs())) for t in complement_reduce(code)])
    return tuple(tuple(row.get(i, 0) for i in range(code.n)) for row in rows)


class CodeFileError(RequestError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_code_file(text: str) -> BinaryCode:
    """Parse the plain code format: a header n=<int>, then one word per line.

    Word lines are bitstrings of length n. Blank lines and # comments are
    skipped anywhere; the header must be the first meaningful line.
    """
    n = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise CodeFileError("expected header n=<int>", lineno)
            try:
                n = int(line[2:])
            except ValueError:
                raise CodeFileError(f"bad header {line!r}", lineno) from None
            if not 1 <= n <= 64:
                raise CodeFileError(f"n={n} out of range 1..64", lineno)
            continue
        if len(line) != n or any(ch not in "01" for ch in line):
            raise CodeFileError(f"expected a length-{n} bitstring, got {line!r}", lineno)
        gens.append(Word.from_string(line))
    if n is None:
        raise CodeFileError("empty file: missing n=<int> header", 1)
    return BinaryCode(n, gens)


def format_code_file(code: BinaryCode, full: bool = False) -> str:
    """Render a code in the parse_code_file format (basis rows by default)."""
    rows = code.words() if full else code.basis()
    lines = [f"n={code.n}"] + [w.to_string() for w in rows]
    return "\n".join(lines) + "\n"


def resolve_code(spec: str) -> BinaryCode:
    """Turn a code name or file path into a code.

    Builtins: even:<n>, trivial:<n>, hamming8, c16. Anything else is read as
    a file in the plain code format.
    """
    if spec == "hamming8":
        return hamming8()
    if spec == "c16":
        return c16()
    for prefix, builder in (("even:", even_code), ("trivial:", trivial_code)):
        if spec.startswith(prefix):
            try:
                n = int(spec[len(prefix):])
            except ValueError:
                raise RequestError(f"bad builtin code name {spec!r}") from None
            return builder(n)
    if not os.path.exists(spec):
        raise RequestError(f"unknown code {spec!r}: not a builtin and not a file")
    try:
        with open(spec, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise RequestError(f"cannot read code file {spec!r}: {exc}") from None
    return parse_code_file(text)
