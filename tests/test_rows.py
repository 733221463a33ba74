"""The one integer row format the modules hand each other: a {column: int}
dict that holds no zero entry, and for a Hermite row its columns increasing,
so its first key is its pivot. A zero entry would reach hnf as a zero pivot:
saturate_generated_form keeps every non-empty lowered row."""

import pytest
from hypothesis import given, settings

from isingforms import intertwining, lattices
from isingforms.codes import c16, even_code, hamming8
from isingforms.intertwining import TripleSpec, build_correlation
from isingforms.intmat import hermite_cofactors, hnf
from isingforms.lattices import graded_dual, lattice_at_level, saturate_generated_form
from isingforms.tensor import HVector, lowered_rows, omega_total, space
from test_intmat import hermite_bases, integer_matrices, sparse


def assert_rows(rows, hermite=False):
    for row in rows:
        assert type(row) is dict
        assert all(type(c) is int and c for c in row.values()), row
        if hermite:
            assert list(row) == sorted(row), row


@pytest.fixture
def checked(monkeypatch):
    """Every row lattices and intertwining hand to or take from lowered_rows,
    form_map, hnf and hermite_cofactors is checked, on fresh level builds."""
    calls = {}

    def watch(module, name, rows_in, rows_out):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            for rows in rows_in(args):
                assert_rows(rows, hermite=name == "hermite_cofactors")
            for rows, hermite in rows_out(out):
                assert_rows(rows, hermite)
            calls[name] = calls.get(name, 0) + 1
            return out

        monkeypatch.setattr(module, name, wrapper)

    def item_rows(args):
        return [[row for _, _, row, _ in args[2]]]

    def lowered(out):
        return [(rows, False) for rows in out[1]]

    for module in (lattices, intertwining):
        watch(module, "lowered_rows", item_rows, lowered)
    watch(lattices, "form_map", lambda args: [args[2]], lambda out: [(out[1], False)])
    watch(lattices, "hnf", lambda args: [args[0]], lambda out: [(out, True)])
    watch(lattices, "hermite_cofactors", lambda args: [args[0]], lambda out: [(out[1], False)])
    lattices._level.cache_clear()
    yield calls
    lattices._level.cache_clear()


class TestRowFormat:
    @pytest.mark.parametrize("code, weights, top", [
        (hamming8(), HVector.parse("1/2,1/2,0,0,0,0,0,0"), 5),
        (even_code(4), HVector.vacuum(4), 6),
        (c16(), HVector.sixteenth(16), 2),
    ], ids=["hamming8-half-pair", "even4-vacuum", "c16-sixteenth"])
    def test_level_builds_and_duals(self, checked, code, weights, top):
        for level in range(top + 1):
            entry = lattice_at_level(code, weights, level)
            assert_rows(entry.basis, hermite=True)
            if level <= 3:
                assert_rows(graded_dual(entry).dual.basis, hermite=True)
        assert {"lowered_rows", "hnf", "form_map", "hermite_cofactors"} <= set(checked)

    def test_saturation(self, checked):
        report = saturate_generated_form([2 * omega_total(4)], 6, 4)
        for entry in report.per_level.values():
            assert_rows(entry.basis, hermite=True)
        assert checked["lowered_rows"] > 1

    @pytest.mark.parametrize("h3", ["0,0,0,0", "1/2,1/2,1/2,1/2"], ids=["well", "ill"])
    def test_correlation(self, checked, h3):
        half = HVector.parse("1/2,1/2,0,0")
        corr = build_correlation(TripleSpec(half, half, HVector.parse(h3), even_code(4), 1), 5)
        assert_rows(corr._rows.values())
        assert checked["lowered_rows"] == 6  # one call per level

    def test_cancelling_images_leave_no_zero(self):
        """On the vacuum square at level 2, (L^(1)(-2) - L^(2)(-2)) (omega_1 +
        omega_2) sends omega_1 omega_2 to 1 - 1 = 0."""
        weights = HVector.vacuum(2)
        sp = space(weights)
        (omega_1, _), (_, omega_2) = sp.keys(2)
        _, [[image]] = lowered_rows(weights, 4, [(2, 1, {0: 1, 1: 1}, [(1, -1)])])
        assert_rows([image])
        assert image and sp.index(4)[omega_1, omega_2] not in image

    @given(integer_matrices())
    @settings(max_examples=200, deadline=None)
    def test_hnf(self, rows):
        assert_rows(hnf(sparse(rows)), hermite=True)

    @given(hermite_bases())
    @settings(max_examples=100, deadline=None)
    def test_hermite_cofactors(self, rows):
        assert_rows(hermite_cofactors(hnf(sparse(rows)))[1])
