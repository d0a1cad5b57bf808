"""Unit and property tests for the (72, 64) SEC-DED Hamming code.

The codec under test is table-driven.  The bit-serial definitions below
are its oracle: they walk the codeword layout one position at a time, the
way the code is specified, and the table codec must agree with them bit
for bit.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.hamming import (
    _CHECK_POSITIONS,
    _DATA_POSITIONS,
    CODEWORD_BITS,
    DATA_BITS,
    DecodeStatus,
    EccWord,
    _syndrome,
    decode,
    encode,
    extract_data,
)

WORDS = st.integers(min_value=0, max_value=(1 << 64) - 1)
BITS = st.integers(min_value=0, max_value=CODEWORD_BITS - 1)
FLIP_SETS = st.sets(BITS, max_size=6)
FIXED_WORDS = (0, 0xFFFF_FFFF_FFFF_FFFF, 0xDEADBEEF_CAFEBABE)


# -- bit-serial reference codec ---------------------------------------------


def serial_encode(data: int) -> int:
    data &= (1 << DATA_BITS) - 1
    codeword = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        if (data >> i) & 1:
            codeword |= 1 << pos
    # Hamming check bit at position 2**i covers every position whose binary
    # representation has bit i set.
    for pos in _CHECK_POSITIONS:
        covered = 0
        for p in range(1, CODEWORD_BITS):
            if p & pos and (codeword >> p) & 1:
                covered ^= 1
        if covered:
            codeword |= 1 << pos
    # Overall parity over positions 1..71 stored at position 0.
    if (codeword >> 1).bit_count() & 1:
        codeword |= 1
    return codeword


def serial_syndrome(codeword: int) -> int:
    syndrome = 0
    rest = codeword >> 1
    pos = 1
    while rest:
        if rest & 1:
            syndrome ^= pos
        rest >>= 1
        pos += 1
    return syndrome


def serial_extract_data(codeword: int) -> int:
    data = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        if (codeword >> pos) & 1:
            data |= 1 << i
    return data


def flipped(codeword: int, bits) -> int:
    for bit in bits:
        codeword ^= 1 << bit
    return codeword


def assert_codeword_maps_agree(codeword: int) -> None:
    assert extract_data(codeword) == serial_extract_data(codeword)
    assert _syndrome(codeword) == serial_syndrome(codeword)


class TestTableCodecMatchesBitSerial:
    def test_unit_vectors_encode(self):
        for i in range(DATA_BITS):
            assert encode(1 << i) == serial_encode(1 << i), f"data bit {i}"

    def test_unit_vectors_extract_and_syndrome(self):
        for bit in range(CODEWORD_BITS):
            assert_codeword_maps_agree(1 << bit)

    @pytest.mark.parametrize("word", FIXED_WORDS)
    def test_every_single_and_double_flip(self, word):
        codeword = serial_encode(word)
        assert encode(word) == codeword
        for bit in range(CODEWORD_BITS):
            assert_codeword_maps_agree(flipped(codeword, [bit]))
        for pair in itertools.combinations(range(CODEWORD_BITS), 2):
            assert_codeword_maps_agree(flipped(codeword, pair))

    @given(st.integers(min_value=0, max_value=(1 << 80) - 1))
    @settings(max_examples=300)
    def test_random_words_encode(self, word):
        # Bits above 63 are ignored by both.
        assert encode(word) == serial_encode(word)

    @given(WORDS, FLIP_SETS)
    @settings(max_examples=300)
    def test_random_flip_sets(self, word, bits):
        assert_codeword_maps_agree(flipped(serial_encode(word), bits))


class TestEncode:
    def test_zero_encodes_to_zero(self):
        assert encode(0) == 0

    @given(WORDS)
    def test_roundtrip(self, word):
        assert extract_data(encode(word)) == word

    @given(WORDS)
    def test_clean_codeword_decodes_ok(self, word):
        result = decode(encode(word))
        assert result.status is DecodeStatus.OK
        assert result.data == word

    @given(WORDS)
    def test_codeword_fits_72_bits(self, word):
        assert encode(word) < (1 << CODEWORD_BITS)

    def test_data_is_masked(self):
        assert extract_data(encode(1 << 64)) == 0

    @given(WORDS, WORDS)
    def test_distinct_words_distinct_codewords(self, a, b):
        if a != b:
            assert encode(a) != encode(b)


class TestSingleErrorCorrection:
    def test_every_single_bit_position_corrected(self):
        """Exhaustive: flip each of the 72 codeword bits, decode must fix it."""
        word = 0xDEADBEEF_CAFEBABE
        codeword = encode(word)
        for bit in range(CODEWORD_BITS):
            result = decode(codeword ^ (1 << bit))
            assert result.status is DecodeStatus.CORRECTED, f"bit {bit}"
            assert result.data == word, f"bit {bit}"

    @given(WORDS, BITS)
    @settings(max_examples=200)
    def test_random_single_flips_corrected(self, word, bit):
        result = decode(encode(word) ^ (1 << bit))
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == word
        assert result.usable


class TestDoubleErrorDetection:
    def test_exhaustive_double_flips_on_one_word(self):
        """All C(72,2) = 2556 double flips must be DETECTED, never silent."""
        word = 0x0123456789ABCDEF
        codeword = encode(word)
        for a, b in itertools.combinations(range(CODEWORD_BITS), 2):
            result = decode(codeword ^ (1 << a) ^ (1 << b))
            assert result.status is DecodeStatus.DETECTED, f"bits {a},{b}"
            assert not result.usable

    @given(WORDS, BITS, BITS)
    @settings(max_examples=200)
    def test_random_double_flips_detected(self, word, a, b):
        if a == b:
            return
        result = decode(encode(word) ^ (1 << a) ^ (1 << b))
        assert result.status is DecodeStatus.DETECTED


class TestEccWord:
    def test_clean_read(self):
        cell = EccWord(42)
        result = cell.read()
        assert result.status is DecodeStatus.OK
        assert result.data == 42

    def test_flip_and_correct(self):
        cell = EccWord(42)
        cell.flip_bit(10)
        result = cell.read()
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == 42

    def test_double_flip_detected(self):
        cell = EccWord(42)
        cell.flip_bit(10)
        cell.flip_bit(20)
        result = cell.read()
        assert result.status is DecodeStatus.DETECTED

    def test_rewrite_clears_errors(self):
        cell = EccWord(42)
        cell.flip_bit(0)
        cell.flip_bit(1)
        cell.write(43)
        assert cell.read().status is DecodeStatus.OK

    def test_bad_bit_index_rejected(self):
        cell = EccWord(0)
        with pytest.raises(ValueError):
            cell.flip_bit(CODEWORD_BITS)
        with pytest.raises(ValueError):
            cell.flip_bit(-1)

    def test_data_property_reflects_corruption(self):
        """Raw data access bypasses the decoder (used by silent-error checks)."""
        cell = EccWord(0)
        # Find a data-bit position and flip it via the codeword.
        from repro.coding.hamming import _DATA_POSITIONS

        cell.flip_bit(_DATA_POSITIONS[3])
        assert cell.data == (1 << 3)


class TestConstants:
    def test_layout_counts(self):
        assert DATA_BITS == 64
        assert CODEWORD_BITS == 72

    def test_overhead_matches_paper(self):
        # "8 bit SEC-DED for a 64-bit entity ... 12.5% extra overhead"
        assert (CODEWORD_BITS - DATA_BITS) / DATA_BITS == 0.125
