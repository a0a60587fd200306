"""ECC decoder models: capability threshold and symbol-level Reed-Solomon.

Two engines share one batch contract (``decode_pages`` / ``check_pages``
/ ``decode_error_masks``), selected by ``EccConfig.decoder``:

- ``"threshold"`` — the original model: decoding succeeds whenever the
  raw bit-error count is within the page capability, and reports the
  exact corrected-error count (as real controllers expose for wear
  tracking).  Miscorrection does not exist in this model.
- ``"rs"`` — the real codec: pages map onto shortened ``RS(n, k)``
  codewords over GF(256) (:mod:`repro.ecc.rs`) and the batched
  syndrome/Berlekamp-Massey/Chien/Forney pipeline decodes the raw
  bit-error *masks* directly (the simulator knows ground truth, so the
  mask is the received word over the implicit all-zero codeword).  A
  "successful" decode that fails to recover the truth is reported as a
  **miscorrection** — silent data corruption the threshold model cannot
  represent.

Either way an uncorrectable page is the condition RDR exists to repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ecc.config import EccConfig, DEFAULT_ECC
from repro.ecc.rs import RsCode, RsPageDecoder


class UncorrectableError(Exception):
    """Raised when a page read contains more errors than ECC can correct."""

    def __init__(self, errors: int, capability: int):
        super().__init__(
            f"uncorrectable page: {errors} raw bit errors exceed ECC capability {capability}"
        )
        self.errors = errors
        self.capability = capability


def _require_bit_array(name: str, bits: np.ndarray) -> None:
    """Reject non-bit arrays once, at the public API edge.

    Float and bool arrays used to slip through silently (a float ``0.3``
    would count as an error against ``0`` and bools would mask dtype bugs
    upstream); the decode contract is integer 0/1 arrays exactly.
    """
    if bits.dtype == np.bool_ or not np.issubdtype(bits.dtype, np.integer):
        raise ValueError(
            f"{name} must be an integer 0/1 bit array, got dtype {bits.dtype}"
        )
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError(f"{name} must contain only 0/1 bit values")


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one page."""

    success: bool
    raw_errors: int
    capability: int

    @property
    def margin(self) -> int:
        """Unused correction capability (negative when decoding failed)."""
        return self.capability - self.raw_errors


@dataclass(frozen=True)
class RsDecodeResult(DecodeResult):
    """One page decoded by the RS engine.

    ``raw_errors`` stays the raw *bit* count (so wear accounting is
    decoder-independent); ``capability`` and :attr:`margin` are in
    *symbols* — the unit the RS code actually corrects in.
    """

    miscorrected: bool = False
    #: raw symbol errors across the page's codewords.
    symbol_errors: int = 0

    @property
    def margin(self) -> int:
        """Unused symbol-correction capability (negative on failure)."""
        return self.capability - self.symbol_errors


@dataclass(frozen=True)
class BatchDecodeResult:
    """Outcome of decoding a batch of equal-sized pages."""

    #: raw bit errors per page.
    raw_errors: np.ndarray
    #: per-page decode success (errors within capability).
    success: np.ndarray
    #: shared correction capability of the batch's page size.
    capability: int

    def __len__(self) -> int:
        return int(self.raw_errors.size)

    @property
    def margins(self) -> np.ndarray:
        """Unused correction capability per page (negative on failure)."""
        return self.capability - self.raw_errors

    def _check_index(self, index: int) -> int:
        index = int(index)
        if not -len(self) <= index < len(self):
            raise IndexError(
                f"page index {index} out of range for batch of {len(self)} pages"
            )
        return index

    def page(self, index: int) -> DecodeResult:
        """The scalar :class:`DecodeResult` of one page of the batch."""
        index = self._check_index(index)
        return DecodeResult(
            success=bool(self.success[index]),
            raw_errors=int(self.raw_errors[index]),
            capability=self.capability,
        )


@dataclass(frozen=True)
class RsBatchDecodeResult(BatchDecodeResult):
    """A batch decoded by the RS engine (see :class:`RsDecodeResult`).

    ``capability`` / :attr:`margins` are in symbols; ``raw_errors`` in
    bits, identical to what the threshold decoder reports for the same
    masks — the invariant the decoder-equivalence suite pins.
    """

    #: per-page silent-data-corruption flag (decode "succeeded" without
    #: recovering the truth).
    miscorrected: np.ndarray = field(default=None)
    #: raw symbol errors per page.
    symbol_errors: np.ndarray = field(default=None)

    @property
    def margins(self) -> np.ndarray:
        """Unused symbol-correction capability per page."""
        return self.capability - self.symbol_errors

    def page(self, index: int) -> RsDecodeResult:
        """The scalar :class:`RsDecodeResult` of one page of the batch."""
        index = self._check_index(index)
        return RsDecodeResult(
            success=bool(self.success[index]),
            raw_errors=int(self.raw_errors[index]),
            capability=self.capability,
            miscorrected=bool(self.miscorrected[index]),
            symbol_errors=int(self.symbol_errors[index]),
        )


class EccDecoder:
    """Decode pages by comparing raw reads against ground truth.

    The simulator knows the programmed data, so raw errors are exact;
    ``config.decoder`` picks the engine that judges them (see module
    docstring).  One decoder instance caches the RS page layout per page
    size, so batch decodes of a steady geometry pay the table setup once.
    """

    def __init__(self, config: EccConfig = DEFAULT_ECC):
        self.config = config
        self._rs = RsCode(config.rs_n, config.rs_k) if config.decoder == "rs" else None
        self._page_codecs: dict[int, RsPageDecoder] = {}

    @property
    def kind(self) -> str:
        """The active engine: ``"threshold"`` or ``"rs"``."""
        return self.config.decoder

    def _codec(self, page_bits: int) -> RsPageDecoder:
        codec = self._page_codecs.get(page_bits)
        if codec is None:
            codec = RsPageDecoder(self._rs, page_bits)
            self._page_codecs[page_bits] = codec
        return codec

    def decode_error_masks(self, masks: np.ndarray) -> BatchDecodeResult:
        """Decode raw bit-error masks — ``(pages, page_bits)`` bool.

        This is the engine-internal entry: the backend senses, diffs
        against truth (and optionally injects faults), then hands the
        boolean masks here.  The threshold engine counts them; the RS
        engine decodes them as received words (module docstring).
        ``raw_errors`` is the mask popcount under both engines.
        """
        masks = np.asarray(masks)
        if masks.ndim != 2:
            raise ValueError("decode_error_masks expects (pages, page_bits) masks")
        if self._rs is None:
            errors = np.count_nonzero(masks, axis=1).astype(np.int64)
            capability = self.config.page_capability_bits(masks.shape[1])
            return BatchDecodeResult(
                raw_errors=errors, success=errors <= capability, capability=capability
            )
        codec = self._codec(masks.shape[1])
        out = codec.decode_masks(masks)
        return RsBatchDecodeResult(
            raw_errors=out.bit_errors,
            success=out.ok,
            capability=self._rs.t * codec.codewords_per_page,
            miscorrected=out.miscorrected,
            symbol_errors=out.symbol_errors,
        )

    def decode(self, read_bits: np.ndarray, true_bits: np.ndarray) -> DecodeResult:
        """Attempt to decode a raw page read.  Never raises on decode
        failure; inspect :attr:`DecodeResult.success`."""
        read_bits = np.asarray(read_bits)
        true_bits = np.asarray(true_bits)
        if read_bits.shape != true_bits.shape:
            raise ValueError("read and true bit arrays must have the same shape")
        _require_bit_array("read bits", read_bits)
        _require_bit_array("true bits", true_bits)
        if self._rs is not None:
            masks = (read_bits != true_bits).reshape(1, -1)
            return self.decode_error_masks(masks).page(0)
        errors = int((read_bits != true_bits).sum())
        capability = self.config.page_capability_bits(read_bits.size)
        return DecodeResult(success=errors <= capability, raw_errors=errors, capability=capability)

    def decode_or_raise(self, read_bits: np.ndarray, true_bits: np.ndarray) -> DecodeResult:
        """Like :meth:`decode` but raises :class:`UncorrectableError` on
        failure (the data-loss event of Section 4)."""
        result = self.decode(read_bits, true_bits)
        if not result.success:
            raise UncorrectableError(result.raw_errors, result.capability)
        return result

    def decode_pages(
        self, read_bits: np.ndarray, true_bits: np.ndarray
    ) -> BatchDecodeResult:
        """Batched :meth:`decode`: one ``(pages, page_bits)`` comparison.

        Raw errors fall out of a single XOR over the bit matrices; the
        threshold engine resolves capability once per page size, and the
        RS engine decodes the whole XOR-mask batch through one
        syndrome/BM/Chien/Forney pass — either way a flushed batch is a
        few vectorized passes instead of a Python loop.

        **Bit-identity.**  ``decode_pages(R, T).page(i)`` equals
        ``decode(R[i], T[i])`` for every row — same raw-error counts,
        same success flags, same capability (pinned by
        ``tests/ecc/test_decoder.py``).  Decoding only reads its
        arguments; it never mutates block state or consumes RNG, so it
        can run on any sensed batch without perturbing the simulation.
        """
        read_bits = np.asarray(read_bits)
        true_bits = np.asarray(true_bits)
        if read_bits.shape != true_bits.shape:
            raise ValueError("read and true bit arrays must have the same shape")
        if read_bits.ndim != 2:
            raise ValueError("decode_pages expects (pages, page_bits) matrices")
        _require_bit_array("read bits", read_bits)
        _require_bit_array("true bits", true_bits)
        if self._rs is not None:
            return self.decode_error_masks(read_bits != true_bits)
        errors = np.count_nonzero(read_bits != true_bits, axis=1).astype(np.int64)
        capability = self.config.page_capability_bits(read_bits.shape[1])
        return BatchDecodeResult(
            raw_errors=errors, success=errors <= capability, capability=capability
        )

    def check_page(
        self,
        flash_block,
        page: int,
        now: float = 0.0,
        vpass: float | None = None,
        record_disturb: bool = False,
    ) -> DecodeResult:
        """Decode one page of a simulated :class:`~repro.flash.block.FlashBlock`.

        This is the controller-side decode of a host read: sense the page
        at the current simulation time and compare against the programmed
        data.  Disturb recording defaults to off because the caller (the
        simulation engine) accounts read disturb in bulk per window.
        """
        kwargs = {} if vpass is None else {"vpass": vpass}
        read_bits = flash_block.read_page(
            page, now, record_disturb=record_disturb, **kwargs
        )
        true_bits = flash_block.expected_page_bits(page)
        return self.decode(read_bits, true_bits)

    def check_pages(
        self,
        flash_block,
        pages: np.ndarray,
        now: float = 0.0,
        vpass: float | None = None,
        record_disturb: bool = False,
    ) -> BatchDecodeResult:
        """Batched :meth:`check_page` against one simulated block.

        The threshold engine uses the block's fused error counting
        (:meth:`~repro.flash.block.FlashBlock.page_error_counts`); the RS
        engine takes the underlying error *positions*
        (:meth:`~repro.flash.block.FlashBlock.page_error_masks`) and
        decodes them — both run the block's one chunked
        sense-and-compare kernel, which materializes each wordline once
        per call.

        **Bit-identity.**  Results equal a non-recording
        :meth:`check_page` loop over *pages*; every page is sensed at
        the batch's entry exposure (recording, when enabled, charges
        disturb after sensing — the flush-granular contract of
        :meth:`~repro.controller.backends.FlashChipBackend.on_reads`).

        Sensing bypasses the block's ``(now, voltage_epoch)`` voltage
        cache, so decoding always sees the block's current cell state.
        """
        kwargs = {} if vpass is None else {"vpass": vpass}
        if self._rs is not None:
            masks = flash_block.page_error_masks(
                pages, now, record_disturb=record_disturb, **kwargs
            )
            return self.decode_error_masks(masks)
        errors = flash_block.page_error_counts(
            pages, now, record_disturb=record_disturb, **kwargs
        )
        capability = self.config.page_capability_bits(
            flash_block.geometry.bitlines_per_block
        )
        return BatchDecodeResult(
            raw_errors=errors, success=errors <= capability, capability=capability
        )
