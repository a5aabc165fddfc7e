"""Block address arithmetic."""

import pytest

from repro.memsim.blocks import BLOCK_SIZE, align_up, block_span, bytes_to_blocks


def test_block_span_exact_blocks():
    assert block_span(0, 128) == (0, 2)


def test_block_span_partial_tail():
    assert block_span(0, 65) == (0, 2)


def test_block_span_offset_start():
    assert block_span(63, 65) == (0, 2)


def test_block_span_single_byte():
    assert block_span(64, 65) == (1, 2)


def test_block_span_empty():
    b0, b1 = block_span(100, 100)
    assert b0 == b1


def test_block_span_reversed_is_empty():
    b0, b1 = block_span(200, 100)
    assert b0 == b1


def test_bytes_to_blocks():
    assert bytes_to_blocks(0) == 0
    assert bytes_to_blocks(1) == 1
    assert bytes_to_blocks(64) == 1
    assert bytes_to_blocks(65) == 2


def test_align_up():
    assert align_up(0) == 0
    assert align_up(1) == BLOCK_SIZE
    assert align_up(64) == 64
    assert align_up(65) == 128
    with pytest.raises(ValueError):
        align_up(-1)
