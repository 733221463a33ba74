"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass or fail line and enforces a wall-clock
budget. Oracles are implemented here from scratch where a criterion calls
for an independent route; they deliberately avoid the package internals.
"""

import math
import time
from fractions import Fraction

from isingforms.codes import Word, c16, even_code, hamming8, goodform_conditions
from isingforms.intertwining import (
    TripleSpec,
    build_correlation,
    check_well_defined,
    integrality_verdict,
)
from isingforms.lattices import (
    compare,
    contains,
    eigenvalue_table,
    gram_matrix,
    graded_dual,
    lattice_at_level,
    saturate_generated_form,
)
from isingforms.tensor import (
    HVector,
    TensorVector,
    lt_action,
    omega_component,
    omega_total,
    verify_commutator_sweep,
    weight1_count_e8,
)
from isingforms import virasoro


def _report(num: int, label: str, ok: bool, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d} {label}: {verdict} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num:02d} failed"
    assert elapsed < budget, f"criterion {num:02d} overran: {elapsed:.2f}s"


def test_01_central_terms():
    start = time.perf_counter()
    ok = True
    for m in range(-6, 7):
        linear, central = virasoro.bracket(m, -m)
        value = virasoro.ISING_ELL * central
        if m >= 0:
            expected = Fraction(math.comb(m + 1, 3), 4)
        else:
            expected = -Fraction(math.comb(-m + 1, 3), 4)
        ok = ok and value == expected and linear == 2 * m
    _report(1, "central terms at ell one half", ok, time.perf_counter() - start, 1.0)


# Dense Shapovalov oracle for criterion 2, independent of the package
# machinery: Gram matrix over all partitions, rank over Fraction.

def _oracle_partitions(n, smallest=1):
    if n == 0:
        yield ()
        return
    for first in range(n, smallest - 1, -1):
        for rest in _oracle_partitions(n - first, first):
            yield (first,) + tuple(p for p in rest)


def _oracle_act(m, modes, h, c):
    # L(m) applied to L(-modes)|h>, m >= 1; modes ordered left to right
    if not modes:
        return []
    lam, tail = modes[0], modes[1:]
    out = []
    k = m - lam
    if k == 0:
        eig = h + sum(tail)
        out.append(((m + lam) * eig + c * Fraction(m**3 - m, 12), tail))
    elif k < 0:
        out.append((Fraction(m + lam), (-k,) + tail))
    else:
        for coeff, res in _oracle_act(k, tail, h, c):
            out.append(((m + lam) * coeff, res))
    for coeff, res in _oracle_act(m, tail, h, c):
        out.append((coeff, (lam,) + res))
    return out


def _oracle_pair(left, right, h, c):
    states = {tuple(right): Fraction(1)}
    for m in left:
        nxt = {}
        for modes, coeff in states.items():
            for c2, res in _oracle_act(m, modes, h, c):
                key = tuple(res)
                nxt[key] = nxt.get(key, Fraction(0)) + coeff * c2
        states = {k: v for k, v in nxt.items() if v}
    return states.get((), Fraction(0))


def _oracle_rank(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / lead
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_02_vacuum_factor_dimensions():
    start = time.perf_counter()
    params = virasoro.ising_params(0)
    dims = virasoro.graded_dimensions(params, 8)
    ok = dims[0] == 1 and dims[1] == 0
    h, c = Fraction(0), Fraction(1, 2)
    for level in range(2, 9):
        parts = list(_oracle_partitions(level))
        gram = [[_oracle_pair(a, b, h, c) for b in parts] for a in parts]
        ok = ok and dims[level] == _oracle_rank(gram)
    _report(2, "vacuum factor dimensions", ok, time.perf_counter() - start, 10.0)


def test_03_commutator_sweep():
    start = time.perf_counter()
    code = even_code(4)
    ok = True
    for weights in (HVector.vacuum(4), HVector.parse("1/2,1/2,0,0")):
        report = verify_commutator_sweep(code, weights, 3, 5)
        ok = ok and report.ok and not report.failures
    _report(3, "commutator identity sweep", ok, time.perf_counter() - start, 60.0)


def test_04_vacuum_lattices_full_rank():
    start = time.perf_counter()
    ok = True
    for code, n, top in ((even_code(4), 4, 6), (hamming8(), 8, 4)):
        weights = HVector.vacuum(n)
        for level in range(top + 1):
            entry = lattice_at_level(code, weights, level)
            ok = ok and entry.full_rank
        entry2 = lattice_at_level(code, weights, 2)
        ok = ok and contains(entry2, omega_total(n))
        half = len(code.words()) // 2
        for i in range(1, n + 1):
            ok = ok and contains(entry2, half * omega_component(n, i))
    _report(4, "vacuum lattices full rank", ok, time.perf_counter() - start, 600.0)


def test_05_code_facts():
    start = time.perf_counter()
    h8 = hamming8()
    ok = len(h8.words()) == 16 and h8.is_type_ii() and h8.is_self_dual()
    big = c16()
    ok = ok and len(big.words()) == 32
    ok = ok and all(w.weight % 8 == 0 for w in big.words())
    ok = ok and goodform_conditions(big).passed
    _report(5, "distinguished code facts", ok, time.perf_counter() - start, 1.0)


def test_06_integral_eigenvalues():
    start = time.perf_counter()
    code = even_code(4)
    weights = HVector.parse("1/2,1/2,0,0")
    support = weights.support
    ok = True
    for t, value in eigenvalue_table(code, weights):
        expected = Fraction(support.weight, 2) - (support.bits & t.bits).bit_count()
        ok = ok and value == expected and value.denominator == 1
    for level in range(6):
        ok = ok and lattice_at_level(code, weights, level).full_rank
    big = HVector.sixteenth(16)
    for t, value in eigenvalue_table(c16(), big):
        ok = ok and value == Fraction(16 - 2 * t.weight, 16)
        ok = ok and value.denominator == 1
    _report(6, "integral zero mode eigenvalues", ok, time.perf_counter() - start, 600.0)


def test_07_dual_lattice_example():
    start = time.perf_counter()
    weights = HVector.parse("1/2,1/2,0,0")
    code = even_code(4)
    low = TensorVector.lowest(weights)
    stated = [
        lt_action(Word.empty(4), -1, low),
        lt_action(Word.from_string("0101"), -1, low),
    ]
    gram = gram_matrix(weights, 1, stated)
    ok = gram == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
    entry = lattice_at_level(code, weights, 1)
    rep = graded_dual(entry)
    ok = ok and rep.index == 4 and rep.contains_lattice and not rep.self_dual
    cmp_report = compare(entry, rep.dual)
    ok = ok and cmp_report.a_in_b and not cmp_report.b_in_a and cmp_report.index == 4
    halves = [
        Fraction(1, 2) * (stated[0] + stated[1]),
        Fraction(1, 2) * (stated[0] - stated[1]),
    ]
    ok = ok and all(contains(rep.dual, v) for v in halves)
    ok = ok and not any(contains(entry, v) for v in halves)
    _report(7, "dual lattice of the half pair", ok, time.perf_counter() - start, 10.0)


def test_08_weight_one_count():
    start = time.perf_counter()
    report = weight1_count_e8()
    ok = report.total == 248
    ok = ok and report.vacuum_dimension == 0
    ok = ok and report.two_half_count == 120 and report.two_half_dimension == 120
    ok = ok and report.sixteenth_copies == 128 and report.sixteenth_dimension == 1
    _report(8, "weight one count 248", ok, time.perf_counter() - start, 1.0)


def test_09_correlation_integrality():
    start = time.perf_counter()
    code = even_code(4)
    half_pair = HVector.parse("1/2,1/2,0,0")
    vac = HVector.vacuum(4)
    spec1 = TripleSpec(half_pair, half_pair, vac, code, Fraction(1))
    corr1 = build_correlation(spec1, 4)
    wd = check_well_defined(corr1)
    ok = wd.well_defined and not wd.order_failures and not wd.relation_failures
    verdict1 = integrality_verdict(corr1)
    ok = ok and verdict1.integral and verdict1.witness is None
    spec2 = TripleSpec(half_pair, half_pair, vac, code, Fraction(1, 2))
    verdict2 = integrality_verdict(build_correlation(spec2, 4))
    ok = ok and not verdict2.integral
    ok = ok and verdict2.witness is not None
    ok = ok and verdict2.witness_value == Fraction(1, 2)
    _report(9, "correlation integrality verdicts", ok, time.perf_counter() - start, 60.0)


def test_10_doubled_form_stabilizes():
    start = time.perf_counter()
    ok = virasoro.scaling_admissible(2, Fraction(1, 2))
    ok = ok and not virasoro.scaling_admissible(1, Fraction(1, 2))
    report = saturate_generated_form([2 * omega_total(1)], 6, 6)
    ok = ok and report.stabilized
    ok = ok and not contains(report.per_level[2], omega_total(1))
    _report(10, "doubled generated form stabilizes", ok, time.perf_counter() - start, 60.0)
