"""Byte-granularity even parity, the light-weight protection option.

The paper protects cache lines with "one bit parity per eight-bit data"
(one parity bit per byte, 12.5% storage overhead).  A 64-bit word therefore
carries 8 parity bits, one per byte.  Even parity is used: the parity bit is
chosen so that each 9-bit (byte + parity) group has an even number of ones.

Parity detects any odd number of bit flips within a byte — in particular
every single-bit error — but cannot correct anything.  Detection latency is
low enough that a parity-protected load completes in a single cycle
(paper Section 3.2).
"""

from __future__ import annotations

WORD_BITS = 64
BYTES_PER_WORD = WORD_BITS // 8
_WORD_MASK = (1 << WORD_BITS) - 1


def byte_parity_bits(word: int) -> int:
    """Return the 8 even-parity bits for a 64-bit word.

    Bit *i* of the result is the parity bit of byte *i* (byte 0 is the least
    significant byte).  With even parity the stored bit simply equals the
    XOR-reduction of the byte.
    """
    # Fold each byte onto its lowest bit (shifts 4 + 2 + 1 never cross into
    # the next byte's low bit), then gather the eight low bits into one
    # byte: the multiplier moves bit 8*i to bit 56 + i without carries.
    word &= _WORD_MASK
    word ^= word >> 4
    word ^= word >> 2
    word ^= word >> 1
    return ((word & 0x0101010101010101) * 0x0102040810204080 >> 56) & 0xFF


def check_parity(word: int, parity_bits: int) -> bool:
    """Return ``True`` when *word* is consistent with *parity_bits*.

    A ``False`` return means at least one byte failed its parity check, i.e.
    an odd number of bits flipped somewhere in that byte (the common
    single-bit transient error is always caught).
    """
    return byte_parity_bits(word) == (parity_bits & 0xFF)


def failing_bytes(word: int, parity_bits: int) -> list[int]:
    """Return the indices of bytes whose parity check fails."""
    mismatch = byte_parity_bits(word) ^ (parity_bits & 0xFF)
    return [i for i in range(BYTES_PER_WORD) if mismatch & (1 << i)]


class ParityWord:
    """A single-code cell: a 64-bit word with its per-byte parity bits.

    Faults flip bits of :attr:`data` or of :attr:`parity` after encoding,
    and :meth:`check` replays the read-time verification.  The cache's word
    storage is :class:`repro.coding.protection.ProtectedWord`, whose parity
    layout is ``data | parity << 64``.
    """

    __slots__ = ("data", "parity")

    def __init__(self, data: int = 0):
        self.write(data)

    def write(self, data: int) -> None:
        """Store *data* and regenerate its parity bits."""
        self.data = data & _WORD_MASK
        self.parity = byte_parity_bits(self.data)

    def flip_data_bit(self, bit: int) -> None:
        """Model a transient fault in data bit *bit* (0..63)."""
        if not 0 <= bit < WORD_BITS:
            raise ValueError(f"bit index {bit} out of range for a 64-bit word")
        self.data ^= 1 << bit

    def flip_parity_bit(self, bit: int) -> None:
        """Model a transient fault in parity bit *bit* (0..7)."""
        if not 0 <= bit < BYTES_PER_WORD:
            raise ValueError(f"parity bit index {bit} out of range")
        self.parity ^= 1 << bit

    def check(self) -> bool:
        """Read-time verification; ``True`` means no error detected."""
        return check_parity(self.data, self.parity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParityWord(data={self.data:#018x}, parity={self.parity:#04x})"
