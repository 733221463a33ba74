"""Independent answers for the benchmark workloads.

The graded dimensions of the three c = 1/2 modules come from free-fermion
character products, not from the package's Gram matrices:

- h = 0 and h = 1/2 (Neveu-Schwarz sector): with x = q^(1/2),
  P+ = prod over odd k of (1 + x^k) and P- = prod over odd k of (1 - x^k);
  the vacuum takes the even powers of (P+ + P-)/2 and h = 1/2 the odd powers
  of (P+ - P-)/2, one level per power of q.
- h = 1/16 (Ramond sector): prod over n >= 1 of (1 + q^n).

A tensor power's ambient dimension is the convolution of its factors' series.
Each ``check_*`` function parses one report in the default ``pretty`` format
and returns a list of problems (empty when the answer is right) together with
the facts that must agree across every seed of the workload.
"""

from __future__ import annotations

from fractions import Fraction


def _times(a: list[int], b: list[int]) -> list[int]:
    n = len(a)
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n)]


def _signed_product(size: int, sign: int) -> list[int]:
    """prod over odd k of (1 + sign * x^k), through x^(size - 1)."""
    out = [1] + [0] * (size - 1)
    for k in range(1, size, 2):
        factor = [0] * size
        factor[0], factor[k] = 1, sign
        out = _times(out, factor)
    return out


def factor_series(h: Fraction, max_level: int) -> list[int]:
    """Graded dimensions of the irreducible c = 1/2 module of weight h."""
    h = Fraction(h)
    if h == Fraction(1, 16):
        out = [1] + [0] * max_level
        for n in range(1, max_level + 1):
            factor = [0] * (max_level + 1)
            factor[0], factor[n] = 1, 1
            out = _times(out, factor)
        return out
    if h not in (0, Fraction(1, 2)):
        raise ValueError(f"no Ising module of weight {h}")
    size = 2 * max_level + 2
    plus, minus = _signed_product(size, 1), _signed_product(size, -1)
    sign, shift = (1, 0) if h == 0 else (-1, 1)
    return [(plus[2 * n + shift] + sign * minus[2 * n + shift]) // 2
            for n in range(max_level + 1)]


def ambient_series(weights: list[Fraction], max_level: int) -> list[int]:
    """Graded dimensions of the tensor product of the given modules."""
    out = [1] + [0] * max_level
    for h in weights:
        out = _times(out, factor_series(h, max_level))
    return out


def parse_pretty(text: str) -> dict[str, str]:
    """The ``key  value`` rows of a pretty report as a dict."""
    rows = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        rows[key] = value.strip()
    return rows


def _weights(text: str) -> list[Fraction]:
    return [Fraction(e) for e in text.split(",")]


def check_vir_dims(text: str, h: Fraction, max_level: int):
    rows = parse_pretty(text)
    want = factor_series(h, max_level)
    got = [int(v) for k, v in rows.items() if k.startswith("dims.")]
    problems = []
    if got != want:
        problems.append(f"dims {got} against the character series {want}")
    return problems, tuple(got)


def check_form_verify(text: str, max_level: int):
    rows = parse_pretty(text)
    want = ambient_series(_weights(rows["weights"]), max_level)
    problems = []
    facts = []
    for n in range(max_level + 1):
        ambient = int(rows.get(f"levels.{n}.ambient", -1))
        rank = int(rows.get(f"levels.{n}.rank", -1))
        if ambient != want[n]:
            problems.append(f"level {n}: ambient {ambient}, character series {want[n]}")
        if rank != ambient or rows.get(f"levels.{n}.full_rank") != "true":
            problems.append(f"level {n}: rank {rank} of {ambient}")
        facts.append((ambient, rank, rows.get(f"levels.{n}.denominator")))
    if f"levels.{max_level + 1}.level" in rows:
        problems.append("report lists more levels than asked for")
    return problems, tuple(facts)


def check_dual(text: str):
    rows = parse_pretty(text)
    level = int(rows["level"])
    want = ambient_series(_weights(rows["weights"]), level)[level]
    rank = int(rows["rank"])
    problems = []
    if rank != want:
        problems.append(f"rank {rank}, character series {want}")
    # |det Gram| (a Fraction) and the Hermite index of the lattice in its dual
    if Fraction(rows["index"]) != Fraction(rows.get("compare.index", "0")):
        problems.append(f"index {rows['index']} against compare.index {rows.get('compare.index')}")
    return problems, (rank, rows["index"])


def check_corr(text: str):
    rows = parse_pretty(text)
    problems = []
    for key in ("well_defined.passed", "verdict.integral"):
        if rows.get(key) != "true":
            problems.append(f"{key} is {rows.get(key)}")
    return problems, (rows.get("well_defined.order_checks"),
                      rows.get("well_defined.relation_checks"))
