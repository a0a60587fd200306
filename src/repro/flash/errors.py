"""Error accounting: compare sensed data against ground truth.

The simulator knows the programmed ground truth, so raw bit error rates are
measured exactly the way the paper's FPGA platform does: program known
(pseudo-random) data, read it back, count differing bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.state import bit_errors_between, lsb_of_state, msb_of_state


@dataclass(frozen=True)
class ErrorBreakdown:
    """Bit error counts of one measurement, by direction of state movement."""

    total_bits: int
    bit_errors: int
    upward_state_errors: int
    downward_state_errors: int

    @property
    def rber(self) -> float:
        """Raw bit error rate of the measurement."""
        if self.total_bits == 0:
            raise ValueError("cannot compute RBER over zero bits")
        return self.bit_errors / self.total_bits


def count_bit_errors(expected_bits: np.ndarray, read_bits: np.ndarray) -> int:
    """Number of differing bits between two bit arrays."""
    expected_bits = np.asarray(expected_bits)
    read_bits = np.asarray(read_bits)
    if expected_bits.shape != read_bits.shape:
        raise ValueError("bit arrays must have the same shape")
    return int((expected_bits != read_bits).sum())


def measure_rber(expected_bits: np.ndarray, read_bits: np.ndarray) -> float:
    """Raw bit error rate between expectation and a read."""
    expected_bits = np.asarray(expected_bits)
    if expected_bits.size == 0:
        raise ValueError("cannot compute RBER over zero bits")
    return count_bit_errors(expected_bits, read_bits) / expected_bits.size


def state_error_breakdown(
    true_states: np.ndarray, sensed_states: np.ndarray
) -> ErrorBreakdown:
    """Full error breakdown between programmed and sensed states."""
    true_states = np.asarray(true_states, dtype=np.int64)
    sensed_states = np.asarray(sensed_states, dtype=np.int64)
    if true_states.shape != sensed_states.shape:
        raise ValueError("state arrays must have the same shape")
    bit_errors = int(bit_errors_between(true_states, sensed_states).sum())
    return ErrorBreakdown(
        total_bits=2 * true_states.size,
        bit_errors=bit_errors,
        upward_state_errors=int((sensed_states > true_states).sum()),
        downward_state_errors=int((sensed_states < true_states).sum()),
    )


def state_transition_matrix(
    true_states: np.ndarray, sensed_states: np.ndarray
) -> np.ndarray:
    """4x4 count matrix T[i, j] = number of cells programmed i, sensed j."""
    true_states = np.asarray(true_states, dtype=np.int64).ravel()
    sensed_states = np.asarray(sensed_states, dtype=np.int64).ravel()
    if true_states.shape != sensed_states.shape:
        raise ValueError("state arrays must have the same shape")
    matrix = np.zeros((4, 4), dtype=np.int64)
    np.add.at(matrix, (true_states, sensed_states), 1)
    return matrix


def page_bits_from_states(states: np.ndarray, is_msb: bool) -> np.ndarray:
    """Ground-truth bits of a page given the programmed states."""
    states = np.asarray(states)
    return msb_of_state(states) if is_msb else lsb_of_state(states)
