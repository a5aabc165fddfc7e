"""Cache-block address arithmetic.

All simulation happens at cache-block granularity: a block id is
``byte_address // BLOCK_SIZE``.  The persistent heap aligns every data
object to a block boundary so no block is shared between objects.
"""

from __future__ import annotations

BLOCK_SIZE = 64
"""Cache block (line) size in bytes, matching the paper's 64 B lines."""

__all__ = ["BLOCK_SIZE", "block_span", "bytes_to_blocks", "align_up"]


def align_up(nbytes: int, alignment: int = BLOCK_SIZE) -> int:
    """Round ``nbytes`` up to a multiple of ``alignment``."""
    if nbytes < 0:
        raise ValueError("size must be non-negative")
    return (nbytes + alignment - 1) // alignment * alignment


def block_span(byte_lo: int, byte_hi: int, block_size: int = BLOCK_SIZE) -> tuple[int, int]:
    """Half-open block-id range covering the byte range ``[byte_lo, byte_hi)``.

    Returns ``(b0, b1)`` such that blocks ``b0 .. b1-1`` contain every byte
    of the range.  An empty byte range yields an empty block range.
    """
    if byte_hi <= byte_lo:
        return (byte_lo // block_size, byte_lo // block_size)
    return (byte_lo // block_size, (byte_hi - 1) // block_size + 1)


def bytes_to_blocks(nbytes: int, block_size: int = BLOCK_SIZE) -> int:
    """Number of blocks needed to hold ``nbytes`` bytes."""
    return (nbytes + block_size - 1) // block_size
