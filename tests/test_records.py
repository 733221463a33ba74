"""The record contract: validating constructors, immutability, equality, imports.

Every record the package returns is a tuple subclass. The four that check
their input (Word, CentralParams, HVector, TripleSpec) do it in __new__, and
_replace goes through the same checks.
"""

import copy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import isingforms
from isingforms.codes import RequestError, Word, even_code
from isingforms.intertwining import TripleSpec
from isingforms.lattices import lattice_at_level
from isingforms.tensor import HVector
from isingforms.virasoro import CentralParams, irreducible_basis, ising_params

H_HALF = HVector.parse("1/2,1/2,0,0")
H_VAC = HVector.vacuum(4)


class TestValidation:
    @pytest.mark.parametrize("make, message", [
        (lambda: Word(8, 3), "bitmask 0x8 does not fit in 3 positions"),
        (lambda: Word(-1, 3), "bitmask -0x1 does not fit in 3 positions"),
        (lambda: Word(0, 0), "ground set size 0 out of range 1..64"),
        (lambda: Word(0, 65), "ground set size 65 out of range 1..64"),
        (lambda: HVector((Fraction(1, 4),)), "factor weights must be 0, 1/2 or 1/16; got 1/4"),
        (lambda: HVector(()), "empty weight vector"),
        (lambda: TripleSpec(HVector.parse("1/2,0,0,0"), H_HALF, H_VAC, even_code(4), 1),
         "inadmissible weight vector 1/2,0,0,0: odd number of weight-1/2 factors"),
    ])
    def test_request_error_messages(self, make, message):
        with pytest.raises(RequestError) as err:
            make()
        assert str(err.value) == message

    def test_ground_set_checked_before_bitmask(self):
        with pytest.raises(RequestError, match="ground set size 0"):
            Word(1, 0)

    def test_fields_normalised_to_fractions(self):
        params = CentralParams(1, 0)
        assert type(params.ell) is Fraction and type(params.h) is Fraction
        assert CentralParams("1/2", "1/16").h == Fraction(1, 16)
        h = HVector((0, 0))
        assert all(type(x) is Fraction for x in h.entries)
        assert type(TripleSpec(H_HALF, H_HALF, H_VAC, even_code(4), 3).lowest_coeff) is Fraction

    def test_hvector_rejects_floats(self):
        with pytest.raises(TypeError, match="float"):
            HVector((0.5, 0, 0, 0))
        assert HVector.parse("1/2, 0, 0.5, 1/16").entries == (
            Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(1, 16))

    def test_triple_spec_rejects_float_coefficient(self):
        with pytest.raises(TypeError, match="float"):
            TripleSpec(H_HALF, H_HALF, H_VAC, even_code(4), 0.1)
        assert TripleSpec(H_HALF, H_HALF, H_VAC, even_code(4), "1/10").lowest_coeff \
            == Fraction(1, 10)

    def test_triple_spec_normalises_before_admissibility(self):
        # a float coefficient fails on its type even when the weights are bad too
        with pytest.raises(TypeError):
            TripleSpec(HVector.parse("1/2,0,0,0"), H_HALF, H_VAC, even_code(4), 0.1)

    def test_replace_runs_the_checks(self):
        with pytest.raises(RequestError, match="ground set size 0"):
            Word(1, 3)._replace(n=0)
        with pytest.raises(RequestError, match="empty weight vector"):
            H_VAC._replace(entries=())
        with pytest.raises(TypeError, match="float"):
            ising_params(0)._replace(h=0.5)
        spec = TripleSpec(H_HALF, H_HALF, H_VAC, even_code(4), 1)
        with pytest.raises(RequestError, match="inadmissible"):
            spec._replace(h3=HVector.parse("1/2,0,0,0"))
        assert Word(1, 3)._replace(bits=2) == Word(2, 3)
        assert ising_params(0)._replace(h=1) == CentralParams(Fraction(1, 2), 1)


class TestImmutability:
    @pytest.mark.parametrize("record, field", [
        (Word(1, 3), "bits"),
        (ising_params(0), "h"),
        (H_VAC, "entries"),
        (TripleSpec(H_HALF, H_HALF, H_VAC, even_code(4), 1), "lowest_coeff"),
        (irreducible_basis(ising_params(0), 2), "det"),
        (lattice_at_level(even_code(4), H_VAC, 2), "basis"),
    ])
    def test_assigning_a_field_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


class TestWord:
    def test_add_is_symmetric_difference(self):
        total = Word.from_string("0110") + Word.from_string("0011")
        assert type(total) is Word
        assert total == Word.from_string("0101")

    def test_add_rejects_mixed_ground_sets(self):
        with pytest.raises(ValueError, match="mixed ground sets"):
            Word(1, 3) + Word(1, 4)

    def test_repr_is_the_bitstring(self):
        assert repr(Word.from_string("0110")) == "Word(0110)"
        assert str(Word.from_string("1")) == "Word(1)"


class TestEqualityAndHash:
    def test_equal_records_hash_equal(self):
        pairs = [
            (Word(5, 4), Word.from_string("1010")),
            (CentralParams(Fraction(1, 2), 0), ising_params(0)),
            (HVector((0, "1/2")), HVector.parse("0,1/2")),
            (TripleSpec(H_HALF, H_HALF, H_VAC, even_code(4), 2),
             TripleSpec(HVector.parse("1/2,1/2,0,0"), H_HALF, H_VAC, even_code(4), "2")),
        ]
        basis = irreducible_basis(ising_params(Fraction(1, 16)), 3)
        pairs.append((basis, copy.copy(basis)))
        for a, b in pairs:
            assert a is not b
            assert a == b
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_records_are_tuples_of_their_fields(self):
        assert Word(5, 4) == (5, 4)
        assert CentralParams(1, 0) == (Fraction(1), Fraction(0))
        assert Word(5, 4)._asdict() == {"bits": 5, "n": 4}
        bits, n = Word(5, 4)
        assert (bits, n) == (5, 4)


def cli_import_loads(names):
    """Which of the named modules a bare import isingforms.cli loads: -S skips
    site, so only what the package itself imports is loaded."""
    src = str(Path(isingforms.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import isingforms.cli; "
             f"print(sorted({set(names)!r} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert cli_import_loads({"dataclasses", "inspect"}) == "[]"


def test_cli_import_does_not_load_pathlib():
    assert cli_import_loads({"pathlib"}) == "[]"
