"""Protection policies: how a cache line's words are guarded, and at what cost.

The paper considers two protection kinds for cache lines:

* ``PARITY`` — byte parity; detection only; 1-cycle load hits; cheap to
  compute (modeled as 10-15% of an L1 access energy).
* ``ECC`` — (72, 64) SEC-DED; single-error correction; the verification does
  not fit in a 1-cycle load path, so load hits take 2 cycles (unless the
  processor supports speculative loads); expensive to compute (~30% of an
  L1 access energy, i.e. 2-3x parity [Bertozzi et al.]).

ICR schemes mix the two: replicated lines are always parity-protected (the
replica itself is the correction mechanism), while unreplicated lines carry
either parity (``ICR-P-*``) or ECC (``ICR-ECC-*``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.coding.hamming import (
    _DATA_POSITIONS,
    CODEWORD_BITS,
    DecodeStatus,
    decode,
    encode,
    extract_data,
)
from repro.coding.parity import WORD_BITS, byte_parity_bits, check_parity

#: Stored cells per word, the same for both kinds: 64 data + 8 check bits.
STORED_BITS = CODEWORD_BITS
_WORD_MASK = (1 << WORD_BITS) - 1


class ProtectionKind(enum.Enum):
    """The two per-line protection codes evaluated in the paper."""

    PARITY = "parity"
    ECC = "ecc"

    @property
    def load_hit_cycles(self) -> int:
        """dL1 load-hit latency implied by the verification path."""
        return 1 if self is ProtectionKind.PARITY else 2

    @property
    def can_correct(self) -> bool:
        """Whether a single-bit error is correctable from the code alone."""
        return self is ProtectionKind.ECC

    @property
    def storage_overhead(self) -> float:
        """Extra storage per protected bit (both are 8 bits per 64)."""
        return 0.125


@dataclass(frozen=True)
class CheckOutcome:
    """Result of verifying one word under some protection kind."""

    error_detected: bool
    corrected: bool
    data: int


class ProtectedWord:
    """A stored 64-bit word under a chosen :class:`ProtectionKind`.

    The 72 stored cells live in one integer, :attr:`bits`, in the layout a
    strike sees them: the SEC-DED codeword for ``ECC``, and the data with
    its byte-parity bits above it (``data | parity << 64``) for ``PARITY``.
    Bit *b* of :attr:`bits` is therefore fault site *b* of
    :mod:`repro.errors.models` for both kinds.
    """

    __slots__ = ("kind", "bits")

    def __init__(self, kind: ProtectionKind, data: int = 0):
        self.kind = kind
        self.write(data)

    def write(self, data: int) -> None:
        """Store *data*, regenerating check bits."""
        if self.kind is ProtectionKind.ECC:
            self.bits = encode(data)
        else:
            data &= _WORD_MASK
            self.bits = data | byte_parity_bits(data) << WORD_BITS

    @property
    def raw_data(self) -> int:
        """Raw (possibly corrupted) data bits, bypassing verification."""
        if self.kind is ProtectionKind.ECC:
            return extract_data(self.bits)
        return self.bits & _WORD_MASK

    def flip_bit(self, bit: int) -> None:
        """Inject a transient fault into stored cell *bit* (0..71)."""
        if not 0 <= bit < STORED_BITS:
            raise ValueError(f"bit index {bit} out of range for a stored word")
        self.bits ^= 1 << bit

    def flip_data_bit(self, bit: int) -> None:
        """Inject a transient fault into data bit *bit* (0..63)."""
        if not 0 <= bit < WORD_BITS:
            raise ValueError(f"bit index {bit} out of range for a 64-bit word")
        if self.kind is ProtectionKind.ECC:
            # Map the data-bit index onto its codeword position.
            bit = _DATA_POSITIONS[bit]
        self.bits ^= 1 << bit

    def read(self) -> CheckOutcome:
        """Verify (and for ECC, correct) the stored word."""
        if self.kind is ProtectionKind.ECC:
            result = decode(self.bits)
            if result.status is DecodeStatus.OK:
                return CheckOutcome(False, False, result.data)
            if result.status is DecodeStatus.CORRECTED:
                return CheckOutcome(True, True, result.data)
            return CheckOutcome(True, False, result.data)
        data = self.bits & _WORD_MASK
        return CheckOutcome(
            error_detected=not check_parity(data, self.bits >> WORD_BITS),
            corrected=False,
            data=data,
        )


def protection_energy_fraction(
    kind: ProtectionKind, parity_fraction: float = 0.15, ecc_fraction: float = 0.30
) -> float:
    """Energy of one check/compute as a fraction of an L1 access energy.

    The paper reports results for parity:ECC of 15%:30% (Figure 17b) and
    10%:30% (Figure 17c) of the per-access L1 energy.
    """
    if kind is ProtectionKind.PARITY:
        return parity_fraction
    return ecc_fraction
