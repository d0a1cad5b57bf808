"""Tests for the protection-policy layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.hamming import DecodeStatus, EccWord
from repro.coding.parity import WORD_BITS, ParityWord
from repro.coding.protection import (
    STORED_BITS,
    ProtectedWord,
    ProtectionKind,
    protection_energy_fraction,
)

WORDS = st.integers(min_value=0, max_value=(1 << 64) - 1)
STORED = st.integers(min_value=0, max_value=STORED_BITS - 1)


def cell_after_flips(kind, data, bits):
    """Reference: the single-code cell with each stored bit flipped.

    Sites 0..63 of a parity word are its data bits and 64..71 its parity
    bits; sites 0..71 of an ECC word are its codeword bits.
    """
    if kind is ProtectionKind.ECC:
        cell = EccWord(data)
        for bit in bits:
            cell.flip_bit(bit)
        return cell
    cell = ParityWord(data)
    for bit in bits:
        if bit < WORD_BITS:
            cell.flip_data_bit(bit)
        else:
            cell.flip_parity_bit(bit - WORD_BITS)
    return cell


def assert_matches_cell(word, cell):
    outcome = word.read()
    assert word.raw_data == cell.data
    if isinstance(cell, EccWord):
        assert word.bits == cell.codeword
        expected = cell.read()
        assert outcome.data == expected.data
        assert outcome.corrected == (expected.status is DecodeStatus.CORRECTED)
        assert outcome.error_detected == (expected.status is not DecodeStatus.OK)
    else:
        assert word.bits == cell.data | cell.parity << WORD_BITS
        assert outcome.data == cell.data
        assert outcome.error_detected == (not cell.check())
        assert not outcome.corrected


class TestProtectionKind:
    def test_parity_loads_are_single_cycle(self):
        assert ProtectionKind.PARITY.load_hit_cycles == 1

    def test_ecc_loads_are_two_cycles(self):
        assert ProtectionKind.ECC.load_hit_cycles == 2

    def test_only_ecc_corrects(self):
        assert not ProtectionKind.PARITY.can_correct
        assert ProtectionKind.ECC.can_correct

    def test_storage_overhead_is_12_5_percent(self):
        assert ProtectionKind.PARITY.storage_overhead == 0.125
        assert ProtectionKind.ECC.storage_overhead == 0.125


class TestProtectedWord:
    @pytest.mark.parametrize("kind", list(ProtectionKind))
    def test_clean_read(self, kind):
        cell = ProtectedWord(kind, 1234)
        outcome = cell.read()
        assert not outcome.error_detected
        assert outcome.data == 1234

    def test_parity_detects_but_does_not_correct(self):
        cell = ProtectedWord(ProtectionKind.PARITY, 99)
        cell.flip_data_bit(7)
        outcome = cell.read()
        assert outcome.error_detected
        assert not outcome.corrected

    def test_ecc_detects_and_corrects(self):
        cell = ProtectedWord(ProtectionKind.ECC, 99)
        cell.flip_data_bit(7)
        outcome = cell.read()
        assert outcome.error_detected
        assert outcome.corrected
        assert outcome.data == 99

    @pytest.mark.parametrize("kind", list(ProtectionKind))
    @given(word=WORDS)
    def test_write_roundtrip(self, kind, word):
        cell = ProtectedWord(kind, 0)
        cell.write(word)
        assert cell.raw_data == word

    @pytest.mark.parametrize("kind", list(ProtectionKind))
    def test_every_data_bit_flippable(self, kind):
        for bit in range(64):
            cell = ProtectedWord(kind, 0)
            cell.flip_data_bit(bit)
            assert cell.raw_data == (1 << bit)
            assert cell.read().error_detected


class TestFlipBit:
    """One ``flip_bit`` over the 72 stored cells of either kind."""

    @pytest.mark.parametrize("kind", list(ProtectionKind))
    @pytest.mark.parametrize("data", [0, 0xDEADBEEF_CAFEBABE])
    def test_every_stored_bit_matches_single_code_cell(self, kind, data):
        for bit in range(STORED_BITS):
            word = ProtectedWord(kind, data)
            word.flip_bit(bit)
            assert_matches_cell(word, cell_after_flips(kind, data, [bit]))

    @pytest.mark.parametrize("kind", list(ProtectionKind))
    @given(data=WORDS, bits=st.lists(STORED, max_size=4))
    def test_random_flip_sequences(self, kind, data, bits):
        word = ProtectedWord(kind, data)
        for bit in bits:
            word.flip_bit(bit)
        assert_matches_cell(word, cell_after_flips(kind, data, bits))

    @pytest.mark.parametrize("kind", list(ProtectionKind))
    def test_out_of_range_rejected(self, kind):
        word = ProtectedWord(kind, 5)
        for bit in (-1, STORED_BITS):
            with pytest.raises(ValueError):
                word.flip_bit(bit)
        assert word.read().data == 5

    @pytest.mark.parametrize("kind", list(ProtectionKind))
    def test_rewrite_clears_stored_flips(self, kind):
        word = ProtectedWord(kind, 5)
        word.flip_bit(0)
        word.flip_bit(STORED_BITS - 1)
        word.write(6)
        assert word.bits == ProtectedWord(kind, 6).bits


class TestFlipDataBitRange:
    """Regression: an ECC word used to map -1 onto data bit 63 (through a
    negative tuple index) and to raise IndexError for 64."""

    @pytest.mark.parametrize("kind", list(ProtectionKind))
    @pytest.mark.parametrize("bit", [-1, 64])
    def test_out_of_range_data_bit_raises_value_error(self, kind, bit):
        word = ProtectedWord(kind, 0)
        with pytest.raises(ValueError):
            word.flip_data_bit(bit)
        assert word.raw_data == 0
        assert not word.read().error_detected


class TestEnergyFractions:
    def test_defaults_match_figure_17b(self):
        assert protection_energy_fraction(ProtectionKind.PARITY) == 0.15
        assert protection_energy_fraction(ProtectionKind.ECC) == 0.30

    def test_figure_17c_ratios(self):
        assert protection_energy_fraction(
            ProtectionKind.PARITY, parity_fraction=0.10
        ) == 0.10

    def test_ecc_at_least_as_costly_as_parity(self):
        # Bertozzi et al.: ECC is 2-3x the parity computation energy.
        p = protection_energy_fraction(ProtectionKind.PARITY)
        e = protection_energy_fraction(ProtectionKind.ECC)
        assert e >= 2 * p
