"""Batched sensing primitives must match the scalar paths bit-for-bit.

The vectorized hot path (`read_pages`, `page_error_counts`,
`threshold_sweep_counts`, the fused materialization kernel, and the
epoch-keyed voltage cache) exists purely for speed: every test here pins
it to the per-page scalar reference, including the low-Vpass cutoff-mask
cases and cache invalidation across disturb recording, erase, and
reprogramming.
"""

import numpy as np
import pytest

from repro.flash import FlashBlock, FlashGeometry
from repro.flash.block import _SENSE_CHUNK_CELLS
from repro.flash.sensing import DEFAULT_REFERENCES, sense_page, sense_pages
from repro.rng import RngFactory
from repro.units import days

#: nominal and deeply relaxed pass-through voltage (the latter activates
#: the cutoff-mask path).
VPASS_CASES = (512.0, 430.0)

#: (wordlines, bitlines) of the sense-kernel equivalence blocks: a single
#: chunk, many chunks, and a wordline count that is not a multiple of the
#: chunk rows.
SENSE_GEOMETRIES = ((8, 512), (64, 4096), (13, 4096))


def make_block(seed=7, pe=8000, reads=200_000, wordlines=8, bitlines=512):
    geometry = FlashGeometry(blocks=2, wordlines_per_block=wordlines, bitlines_per_block=bitlines)
    blk = FlashBlock(geometry, RngFactory(seed))
    blk.cycle_wear_to(pe)
    blk.program_random()
    if reads:
        blk.apply_read_disturb(reads, target_wordline=1)
    return blk


def scalar_read_pages(blk, pages, now, vpass):
    return np.stack(
        [blk.read_page(int(p), now, vpass=vpass, record_disturb=False) for p in pages]
    )


def scalar_error_counts(blk, pages, now, vpass):
    return np.array(
        [
            blk.page_error_count(int(p), now, vpass=vpass, record_disturb=False)
            for p in pages
        ],
        dtype=np.int64,
    )


@pytest.mark.parametrize("vpass", VPASS_CASES)
def test_read_pages_matches_scalar_loop(vpass):
    blk = make_block()
    pages = np.array([0, 1, 2, 3, 7, 8, 15, 14, 3])  # unsorted + duplicate
    batched = blk.read_pages(pages, now=days(1), vpass=vpass)
    scalar = scalar_read_pages(blk, pages, days(1), vpass)
    assert np.array_equal(batched, scalar)


@pytest.mark.parametrize("vpass", VPASS_CASES)
def test_page_error_counts_match_scalar_loop(vpass):
    # The 4096-bitline blocks must really span several chunks, and the
    # second must end on a partial one.
    rows = _SENSE_CHUNK_CELLS // 4096
    assert SENSE_GEOMETRIES[1][0] > rows and SENSE_GEOMETRIES[2][0] % rows
    for wordlines, bitlines in SENSE_GEOMETRIES:
        blk = make_block(wordlines=wordlines, bitlines=bitlines)
        n = blk.geometry.pages_per_block
        page_sets = (
            np.arange(n),  # contiguous, the whole block
            np.arange(n // 4, 3 * n // 4),  # contiguous, starting mid-chunk
            np.arange(1, n, 3),  # non-contiguous wordlines
            # Unsorted input with duplicates takes the np.unique fallback.
            np.array([9, 1, 1, 14, 0, 9, 5, n - 1, n - 1]),
        )
        for pages in page_sets:
            batched = blk.page_error_counts(pages, now=days(2), vpass=vpass)
            assert np.array_equal(batched, scalar_error_counts(blk, pages, days(2), vpass))
            masks = blk.page_error_masks(pages, now=days(2), vpass=vpass)
            assert np.array_equal(masks.sum(axis=1), batched)
        if vpass < 512.0:
            # The relaxed-Vpass case must actually exercise cutoff errors,
            # otherwise this equivalence proves less than it claims.
            pages = page_sets[0]
            nominal = blk.page_error_counts(pages, now=days(2), vpass=512.0)
            assert blk.page_error_counts(pages, now=days(2), vpass=vpass).sum() > nominal.sum()


def test_fused_materialization_matches_reference_composition():
    for seed, pe, reads, now in [(0, 0, 0, 0.0), (1, 8000, 500_000, 3600.0), (2, 15000, 2_000_000, days(10))]:
        blk = make_block(seed=seed, pe=max(pe, 1), reads=reads)
        reference = blk.current_voltages(now)
        fused = blk._materialize_rows(slice(None), now)
        assert np.array_equal(reference, fused)
        subset = np.array([0, 3, 5])
        assert np.array_equal(blk.current_voltages(now, subset), blk._materialize_rows(subset, now))


def test_measure_block_rber_matches_manual_loop():
    blk = make_block()
    manual_errors = 0
    manual_bits = 0
    for wordline in range(blk.geometry.wordlines_per_block):
        for page in (2 * wordline, 2 * wordline + 1):
            bits = blk.read_page(page, days(1), record_disturb=False)
            manual_errors += int((bits != blk.expected_page_bits(page)).sum())
            manual_bits += bits.size
    assert blk.measure_block_rber(now=days(1)) == manual_errors / manual_bits


def test_measure_block_rber_skips_unprogrammed_wordlines():
    geometry = FlashGeometry(blocks=1, wordlines_per_block=8, bitlines_per_block=256)
    blk = FlashBlock(geometry, RngFactory(3))
    blk.erase()
    rng = np.random.default_rng(0)
    for wordline in (1, 4):
        lsb = rng.integers(0, 2, 256, dtype=np.uint8)
        msb = rng.integers(0, 2, 256, dtype=np.uint8)
        blk.program_wordline_bits(wordline, lsb, msb)
    pages = np.array([2, 3, 8, 9])
    expected = blk.page_error_counts(pages, record_disturb=False).sum() / (4 * 256)
    assert blk.measure_block_rber() == expected


def test_threshold_sweep_counts_match_scalar_sweep():
    blk = make_block()
    thresholds = np.arange(-40.0, 524.0, 4.0)
    for wordline in (0, 3):
        batched = blk.threshold_sweep_counts(wordline, thresholds, now=days(1))
        scalar = np.zeros(blk.geometry.bitlines_per_block, dtype=np.int64)
        for t in thresholds:
            scalar += blk.threshold_read(wordline, float(t), days(1), record_disturb=False)
        assert np.array_equal(batched, scalar)


def test_expected_pages_bits_matches_scalar():
    blk = make_block(reads=0)
    pages = np.arange(blk.geometry.pages_per_block)
    batched = blk.expected_pages_bits(pages)
    for i, page in enumerate(pages):
        assert np.array_equal(batched[i], blk.expected_page_bits(int(page)))


def test_sense_pages_matches_sense_page():
    rng = np.random.default_rng(5)
    voltages = rng.uniform(-40.0, 520.0, (6, 128))
    is_msb = np.array([False, True, True, False, True, False])
    cutoff = rng.random((6, 128)) < 0.1
    batched = sense_pages(voltages, is_msb, DEFAULT_REFERENCES, cutoff)
    for i in range(6):
        assert np.array_equal(
            batched[i], sense_page(voltages[i], bool(is_msb[i]), DEFAULT_REFERENCES, cutoff[i])
        )


# ----------------------------------------------------------------------
# Voltage-cache epoch contract
# ----------------------------------------------------------------------


def test_cache_invalidated_by_record_reads():
    blk = make_block()
    pages = np.arange(8)
    before = blk.page_error_counts(pages, now=days(1))
    blk.record_reads(np.array([0, 1]), np.array([400_000, 400_000]))
    after = blk.page_error_counts(pages, now=days(1))
    # The heavy extra disturb must be visible (stale cache would hide it),
    # and both answers must still match the scalar path.
    assert not np.array_equal(before, after)
    assert np.array_equal(after, scalar_error_counts(blk, pages, days(1), 512.0))


def test_cache_invalidated_by_record_read_and_apply():
    blk = make_block()
    epoch = blk.voltage_epoch
    blk.record_read(0)
    assert blk.voltage_epoch > epoch
    epoch = blk.voltage_epoch
    blk.apply_read_disturb(1000)
    assert blk.voltage_epoch > epoch


def test_cache_invalidated_by_erase_and_reprogram():
    blk = make_block()
    pages = np.arange(4)
    blk.read_pages(pages, now=0.0)  # warm the cache
    blk.erase()
    erased = blk.read_pages(pages, now=0.0)
    assert np.array_equal(erased, scalar_read_pages(blk, pages, 0.0, 512.0))
    # Erased cells sense as ER: LSB pages read all-ones.
    assert (erased[0] == 1).all() and (erased[2] == 1).all()
    blk.program_random()
    reprogrammed = blk.read_pages(pages, now=0.0)
    assert not np.array_equal(erased, reprogrammed)
    assert np.array_equal(reprogrammed, scalar_read_pages(blk, pages, 0.0, 512.0))


def test_cache_keyed_on_time():
    blk = make_block(pe=15000, reads=1_000_000)
    pages = np.arange(blk.geometry.pages_per_block)
    fresh = blk.page_error_counts(pages, now=0.0)
    aged = blk.page_error_counts(pages, now=days(90))
    # A different `now` must re-materialize (a stale cache would return
    # the fresh counts again) ...
    assert not np.array_equal(fresh, aged)
    # ... and both answers must match the scalar path at their own time.
    assert np.array_equal(fresh, scalar_error_counts(blk, pages, 0.0, 512.0))
    assert np.array_equal(aged, scalar_error_counts(blk, pages, days(90), 512.0))


def test_block_voltages_reuses_materialization_within_epoch():
    blk = make_block()
    first = blk.block_voltages(0.0)
    assert blk.block_voltages(0.0) is first
    blk.record_read(0)
    assert blk.block_voltages(0.0) is not first


def test_invalidate_voltage_cache_covers_out_of_band_mutation():
    blk = make_block()
    pages = np.arange(4)
    blk.page_error_counts(pages, now=0.0)
    blk.cells.v0[:] += 50.0  # out-of-band edit, as the contract describes
    blk.invalidate_voltage_cache()
    assert np.array_equal(
        blk.page_error_counts(pages, now=0.0),
        scalar_error_counts(blk, pages, 0.0, 512.0),
    )


# ----------------------------------------------------------------------
# Vectorized programming
# ----------------------------------------------------------------------


def test_program_block_bits_programs_every_wordline():
    geometry = FlashGeometry(blocks=1, wordlines_per_block=4, bitlines_per_block=256)
    blk = FlashBlock(geometry, RngFactory(1))
    rng = np.random.default_rng(9)
    lsb = rng.integers(0, 2, (4, 256), dtype=np.uint8)
    msb = rng.integers(0, 2, (4, 256), dtype=np.uint8)
    blk.erase()
    blk.program_block_bits(lsb, msb, now=5.0)
    assert blk.programmed.all()
    assert (blk.program_time == 5.0).all()
    for wordline in range(4):
        read_lsb = blk.read_page(2 * wordline, now=5.0, record_disturb=False)
        read_msb = blk.read_page(2 * wordline + 1, now=5.0, record_disturb=False)
        assert (read_lsb != lsb[wordline]).sum() <= 2
        assert (read_msb != msb[wordline]).sum() <= 2


def test_program_block_bits_rejects_programmed_block():
    blk = make_block(reads=0)
    lsb = np.zeros((blk.geometry.wordlines_per_block, blk.geometry.bitlines_per_block), dtype=np.uint8)
    with pytest.raises(RuntimeError):
        blk.program_block_bits(lsb, lsb)


def test_program_random_statistics_match_per_wordline_reference():
    """The one-pass program keeps the same per-state voltage distributions
    as a per-wordline loop (different draws, same physics)."""
    geometry = FlashGeometry(blocks=1, wordlines_per_block=16, bitlines_per_block=2048)
    batched = FlashBlock(geometry, RngFactory(2))
    batched.cycle_wear_to(8000)
    batched.program_random()
    loop = FlashBlock(geometry, RngFactory(2))
    loop.cycle_wear_to(8000)
    rng = loop._rng
    for wordline in range(geometry.wordlines_per_block):
        lsb = rng.integers(0, 2, 2048, dtype=np.uint8)
        msb = rng.integers(0, 2, 2048, dtype=np.uint8)
        loop.program_wordline_bits(wordline, lsb, msb)
    for state in range(4):
        v_batched = batched.cells.v0[batched.cells.true_states == state]
        v_loop = loop.cells.v0[loop.cells.true_states == state]
        assert abs(v_batched.mean() - v_loop.mean()) < 2.0
        assert abs(v_batched.std() - v_loop.std()) < 2.0
