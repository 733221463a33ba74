"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction

import pytest

import oracle
import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))


def test_self_time_of_nested_spans():
    rec = spans.Recorder()
    rec.open("cli.main", "cli", 0.0)
    rec.open("lattices.lattice_at_level", "lattices", 1.0)
    rec.open("intmat.hnf", "intmat", 2.0)
    assert rec.close(5.0) == 3.0
    rec.open("tensor.lt_action", "tensor", 6.0)
    rec.close(7.0)
    rec.exclude(0.5)  # tracer work inside lattice_at_level belongs to no layer
    rec.close(9.0)
    rec.open("virasoro.graded_dimensions", "virasoro", 9.0)
    rec.open("virasoro.irreducible_basis", "virasoro", 9.5)
    rec.close(9.75)
    rec.close(10.0)
    rec.close(12.0)
    assert rec.self_s == {
        "cli": 12.0 - 8.0 - 1.0,
        "codes": 0.0,
        "virasoro": 1.0,
        "intmat": 3.0,
        "tensor": 1.0,
        "lattices": 8.0 - 3.0 - 1.0 - 0.5,
        "intertwining": 0.0,
    }
    assert rec.total_s["lattices.lattice_at_level"] == 8.0
    assert rec.calls == {name: 1 for name in rec.total_s}
    assert not rec.stack
    metrics = spans.metrics(rec, root_s=12.25, absent=[])
    assert metrics["trace.unattributed_s"] == 12.25 - 11.5
    assert metrics["virasoro.basis_calls"] == 1


def test_install_wraps_every_binding_and_restores(monkeypatch):
    from isingforms import intmat, lattices, virasoro

    originals = (intmat.hnf, lattices.hnf, virasoro.frac_det, intmat.RowSpanSolver.solve)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + ("intmat.no_such_kernel",))
    rec = spans.Recorder()
    restore, absent = spans.install(rec)
    try:
        assert absent == ["intmat.no_such_kernel"]
        assert lattices.hnf is intmat.hnf is not originals[0]
        assert virasoro.frac_det is not originals[2]
        assert lattices.hnf([[2, 4], [0, 3]]) == [[2, 1], [0, 3]]
        intmat.RowSpanSolver([[1, 0]]).solve([2, 0])
    finally:
        spans.uninstall(restore)
    assert (intmat.hnf, lattices.hnf, virasoro.frac_det, intmat.RowSpanSolver.solve) == originals
    assert rec.calls["intmat.hnf"] == 1
    assert rec.calls["intmat.RowSpanSolver.solve"] == 1
    assert rec.counts["hnf_rows_max"] == 2 and rec.counts["hnf_bits_in_max"] == 3


def test_character_series_match_the_listed_values():
    assert oracle.factor_series(Fraction(1, 16), 14) == \
        [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22]
    assert oracle.factor_series(0, 8) == [1, 0, 1, 1, 2, 2, 3, 3, 5]
    assert oracle.factor_series(Fraction(1, 2), 8) == [1, 1, 1, 1, 2, 2, 3, 4, 5]
    half = [Fraction(1, 2)] * 2 + [Fraction(0)] * 6
    assert oracle.ambient_series(half, 5) == [1, 2, 9, 22, 64, 148]
    assert oracle.ambient_series([Fraction(0)] * 8, 5)[5] == 72


@pytest.mark.parametrize("h", ["0", "1/2", "1/16"])
def test_character_series_match_the_package(h):
    from isingforms import virasoro

    params = virasoro.ising_params(Fraction(h))
    assert virasoro.graded_dimensions(params, 8) == oracle.factor_series(Fraction(h), 8)


def test_oracle_rejects_a_wrong_dimension():
    report = "".join(f"dims.{n}  {d}\n" for n, d in enumerate([1, 1, 1, 2, 3]))
    problems, _ = oracle.check_vir_dims(report, Fraction(1, 16), 4)
    assert problems


SMALL = run.Workload(
    {"small": ["vir", "dims", "--h", "1/16", "--max-level", "3"]},
    lambda text: oracle.check_vir_dims(text, Fraction(1, 16), 3),
)


@pytest.fixture(scope="module")
def small_child():
    return run.spawn(SMALL.inputs["small"])


@pytest.fixture(scope="module")
def right(small_child):
    return {"small": {"exit": 0, "sha256": hashlib.sha256(small_child.stdout).hexdigest()}}


def test_fail_rate_counts_a_run_against_a_wrong_hash(small_child, right):
    wrong = {"small": {"exit": 0, "sha256": "0" * 64}}
    tally = run.Tally()
    assert tally.judge(SMALL, "small", small_child, right)
    assert (tally.attempted, tally.failed) == (1, 0)
    assert not tally.judge(SMALL, "small", small_child, wrong)
    assert (tally.attempted, tally.failed, tally.fail_rate) == (2, 1, 0.5)
    assert "stdout differs" in tally.reasons[0]


def test_failed_runs_are_left_out_of_the_medians():
    good = run.Child(0, b"ok", 1.0, 20.0, calibration_s=2 * run.CALIBRATION_S)
    bad = run.Child(1, b"", 9.0, 90.0, calibration_s=run.CALIBRATION_S)
    setup = run.Child(0, b"usage", 0.1, 15.0, calibration_s=run.CALIBRATION_S / 2)
    metrics = run.end_to_end([(good, True), (bad, False)], [setup])
    assert metrics["wall_s"] == [pytest.approx(0.5)] and metrics["raw.wall_s"] == [1.0]
    assert metrics["setup_s"] == [pytest.approx(0.2)] and metrics["peak_rss_mb"] == [20.0]


def test_traced_child_prints_the_untraced_report(right):
    tally = run.Tally()
    setup, plain, traced = run.measure(SMALL, ["small"], 0.0, True, right, tally)
    assert (tally.attempted, tally.failed, setup) == (2, 0, [])
    (first, _), (second, _) = plain[0], traced[0]
    assert second.stdout == first.stdout
    assert second.spans["metrics"]["virasoro.basis_calls"] == 4
    assert second.spans["absent"] == []


def test_untraced_step_times_set_up_and_the_workload(right):
    tally = run.Tally()
    setup, plain, traced = run.measure(SMALL, ["small"], 0.0, False, right, tally)
    assert (tally.attempted, tally.failed, len(setup), len(plain), traced) == (3, 0, 1, 1, [])
    assert setup[0].calibration_s == plain[0][0].calibration_s > 0
