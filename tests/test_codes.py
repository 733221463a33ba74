"""Tests for binary codes, duality and the fixed code constructions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingforms.codes import (
    BinaryCode,
    CodeFileError,
    RequestError,
    Word,
    c16,
    complement_reduce,
    even_code,
    format_code_file,
    goodform_conditions,
    hamming8,
    parse_code_file,
    resolve_code,
    trivial_code,
)


def intersection_weight(a: Word, b: Word) -> int:
    return (a.bits & b.bits).bit_count()


class TestWord:
    def test_string_round_trip(self):
        w = Word.from_string("1010")
        assert w.elements() == (1, 3)
        assert w.weight == 2
        assert w.to_string() == "1010"
        assert Word.from_string(w.to_string()) == w

    @pytest.mark.parametrize("code", [c16(), even_code(8)], ids=["c16", "even8"])
    def test_every_codeword_round_trips(self, code):
        for w in code.words():
            text = w.to_string()
            assert Word.from_string(text) == w
            assert text == "".join("1" if w.contains(pos) else "0" for pos in range(1, w.n + 1))

    def test_position_one_is_leftmost(self):
        w = Word.from_string("1000")
        assert w.contains(1)
        assert not w.contains(4)

    def test_signs_are_minus_one_on_the_word(self):
        w = Word.from_string("10110")
        assert w.signs() == (-1, 1, -1, -1, 1)
        assert w.signs() == tuple(-1 if w.contains(i) else 1 for i in range(1, 6))
        assert (w + w.complement()).signs() == (-1,) * 5

    def test_symmetric_difference(self):
        a = Word.from_string("1100")
        b = Word.from_string("0110")
        assert (a + b).to_string() == "1010"
        assert (a + a).weight == 0

    def test_complement_and_intersection(self):
        a = Word.from_string("1100")
        assert a.complement().to_string() == "0011"
        assert intersection_weight(a, Word.from_string("0100")) == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            Word.from_string("10a0")
        with pytest.raises(ValueError):
            Word.from_set({5}, 4)
        with pytest.raises(ValueError):
            Word.from_string("10") + Word.from_string("100")


class TestBinaryCode:
    def test_span_example(self):
        code = BinaryCode(4, ["1100", "0110"])
        got = {w.to_string() for w in code.words()}
        assert got == {"0000", "1100", "0110", "1010"}
        assert code.dimension == 2

    def test_contains(self):
        code = BinaryCode(4, ["1100", "0110"])
        assert Word.from_string("1010") in code
        assert Word.from_string("1000") not in code

    def test_even_code(self):
        code = even_code(4)
        assert code.dimension == 3
        assert len(code) == 8
        assert all(w.weight % 2 == 0 for w in code.words())
        assert even_code(16).dimension == 15

    def test_trivial_code(self):
        code = trivial_code(4)
        assert {w.to_string() for w in code.words()} == {"0000", "1111"}

    def test_dual_of_even_is_repetition(self):
        dual = even_code(6).dual()
        assert {w.to_string() for w in dual.words()} == {"000000", "111111"}

    def test_dual_of_trivial_is_even(self):
        assert trivial_code(4).dual() == even_code(4)

    def test_generators_validate_length(self):
        with pytest.raises(ValueError):
            BinaryCode(4, ["110"])

    @given(
        n=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_codes_hash_equally(self, n, data):
        gens = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=4)
        )
        code = BinaryCode(n, [Word(g, n) for g in gens])
        # the same span from its own words, in reverse order
        again = BinaryCode(n, code.words()[::-1])
        assert again == code
        assert hash(again) == hash(code)
        assert len({code, again, code.dual().dual()}) == 1

    @given(
        n=st.integers(min_value=2, max_value=10),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_duality_properties_random(self, n, data):
        gens = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=5)
        )
        code = BinaryCode(n, [Word(g, n) for g in gens])
        dual = code.dual()
        assert code.dimension + dual.dimension == n
        assert dual.dual() == code
        for w in code.words():
            for d in dual.basis():
                assert intersection_weight(w, d) % 2 == 0


class TestFixedCodes:
    def test_hamming8_word_list(self):
        code = hamming8()
        assert len(code) == 16
        assert code.dimension == 4
        expected = {
            frozenset(),
            frozenset({1, 2, 3, 4}),
            frozenset({1, 2, 5, 6}),
            frozenset({1, 2, 7, 8}),
            frozenset({1, 3, 5, 7}),
            frozenset({2, 4, 5, 7}),
            frozenset({2, 3, 6, 7}),
            frozenset({2, 3, 5, 8}),
        }
        expected |= {frozenset(set(range(1, 9)) - set(s)) for s in expected}
        assert {frozenset(w.elements()) for w in code.words()} == expected

    def test_hamming8_is_type_ii_self_dual(self):
        code = hamming8()
        assert code.is_self_dual()
        assert code.is_type_ii()
        assert code.weight_distribution() == {0: 1, 4: 14, 8: 1}

    def test_c16_weights(self):
        code = c16()
        assert len(code) == 32
        assert code.dimension == 5
        assert code.weight_distribution() == {0: 1, 8: 30, 16: 1}
        assert all(w.weight % 8 == 0 for w in code.words())

    def test_c16_contains_doubled_hamming(self):
        code = c16()
        for w in hamming8().words():
            assert Word(w.bits | (w.bits << 8), 16) in code

    def test_c16_is_type_ii_not_self_dual(self):
        code = c16()
        assert code.is_type_ii()
        assert not code.is_self_dual()


class TestGoodForm:
    def test_even_4_passes(self):
        rep = goodform_conditions(even_code(4))
        assert rep.passed
        assert rep.missing_pairs == ()
        assert len(rep.witnesses) == 12

    def test_hamming8_and_c16_pass(self):
        assert goodform_conditions(hamming8()).passed
        assert goodform_conditions(c16()).passed

    def test_trivial_is_not_separating(self):
        rep = goodform_conditions(trivial_code(4))
        assert not rep.separating
        assert not rep.passed
        assert len(rep.missing_pairs) == 12

    def test_odd_weight_code_flagged(self):
        rep = goodform_conditions(BinaryCode(4, ["1000", "1111"]))
        assert not rep.inside_even_code

    def test_missing_full_set_flagged(self):
        rep = goodform_conditions(BinaryCode(4, ["1100", "0110"]))
        assert not rep.contains_full_set

    def test_witnesses_are_deterministic_and_valid(self):
        rep = goodform_conditions(hamming8())
        again = goodform_conditions(hamming8())
        assert rep.witnesses == again.witnesses
        for (i, j), w in rep.witnesses:
            assert w.contains(i) and not w.contains(j)

    def test_half_split_on_separating_codes(self):
        # For a linear separating code, each ordered pair (i, j) splits the
        # code in half: exactly |C|/2 words contain precisely one of i, j.
        for code in (even_code(4), hamming8(), c16()):
            words = code.words()
            for i in range(1, code.n + 1):
                for j in range(i + 1, code.n + 1):
                    one_of = sum(1 for w in words if w.contains(i) != w.contains(j))
                    assert one_of == len(words) // 2


class TestComplementReduce:
    def test_even_4_representatives(self):
        reps = [w.to_string() for w in complement_reduce(even_code(4))]
        assert reps == ["0000", "0011", "0101", "0110"]

    def test_sizes(self):
        assert len(complement_reduce(hamming8())) == 8
        assert len(complement_reduce(c16())) == 16

    def test_no_representative_contains_position_one(self):
        for code in (even_code(4), hamming8(), c16()):
            for rep in complement_reduce(code):
                assert not rep.contains(1)

    def test_requires_full_set(self):
        with pytest.raises(ValueError):
            complement_reduce(BinaryCode(4, ["1100"]))


class TestCodeFiles:
    def test_round_trip(self):
        for code in (even_code(4), hamming8(), c16()):
            assert parse_code_file(format_code_file(code)) == code
            assert parse_code_file(format_code_file(code, full=True)) == code

    def test_comments_and_blank_lines(self):
        text = "# a code\n\nn=4  # header\n1100\n# middle\n0110\n"
        code = parse_code_file(text)
        assert code.dimension == 2

    def test_missing_header(self):
        with pytest.raises(CodeFileError) as err:
            parse_code_file("1100\n")
        assert err.value.line == 1
        assert isinstance(err.value, RequestError)

    def test_bad_word_line_number(self):
        with pytest.raises(CodeFileError) as err:
            parse_code_file("n=4\n1100\n11\n")
        assert err.value.line == 3

    def test_empty_file(self):
        with pytest.raises(CodeFileError):
            parse_code_file("# nothing here\n")


class TestResolve:
    def test_builtins(self):
        assert resolve_code("even:4") == even_code(4)
        assert resolve_code("trivial:6") == trivial_code(6)
        assert resolve_code("hamming8") == hamming8()
        assert resolve_code("c16") == c16()

    def test_file(self, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text(format_code_file(hamming8()))
        assert resolve_code(str(path)) == hamming8()

    def test_unknown(self):
        # a name too long for the file system is unknown too, not an OSError
        for spec in ("no-such-code", "even:x", "even:1", "trivial:0", "x" * 5000):
            with pytest.raises(RequestError):
                resolve_code(spec)

    def test_unreadable_file_is_request_error(self, tmp_path):
        path = tmp_path / "code.txt"
        path.write_bytes(b"n=4\n\xff\xfe\n")
        with pytest.raises(RequestError, match="cannot read"):
            resolve_code(str(path))
        with pytest.raises(RequestError, match="cannot read"):
            resolve_code(str(tmp_path))

    def test_word_size_limit_is_request_error(self):
        with pytest.raises(RequestError, match="2\\^29"):
            even_code(30).words()
