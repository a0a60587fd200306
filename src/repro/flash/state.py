"""MLC cell states and their gray-coded bit mapping.

A 2-bit MLC cell is in one of four states ordered by threshold voltage:
ER (erased) < P1 < P2 < P3.  The paper's Figure 1 gives the gray coding as
(LSB, MSB) tuples: ER=11, P1=10, P2=00, P3=01.  Gray coding guarantees that
a misread into an *adjacent* state flips exactly one of the two bits, which
is why state-level error rates convert to raw bit error rates with a factor
of one bit per two stored bits.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np


class MlcState(IntEnum):
    """The four 2-bit MLC states, ordered by increasing threshold voltage."""

    ER = 0
    P1 = 1
    P2 = 2
    P3 = 3


#: States in increasing-Vth order.
STATE_ORDER = (MlcState.ER, MlcState.P1, MlcState.P2, MlcState.P3)

#: Gray code from the paper's Figure 1, as (LSB, MSB) per state.
_STATE_TO_BITS = {
    MlcState.ER: (1, 1),
    MlcState.P1: (1, 0),
    MlcState.P2: (0, 0),
    MlcState.P3: (0, 1),
}

_BITS_TO_STATE = {bits: state for state, bits in _STATE_TO_BITS.items()}

#: Vectorized lookup tables indexed by state value.
_LSB_TABLE = np.array([_STATE_TO_BITS[s][0] for s in STATE_ORDER], dtype=np.uint8)
_MSB_TABLE = np.array([_STATE_TO_BITS[s][1] for s in STATE_ORDER], dtype=np.uint8)

#: state index for each (lsb, msb) pair; -1 marks impossible combinations
#: (none exist for 2-bit gray code, but keep the guard for clarity).
_STATE_TABLE = np.full((2, 2), -1, dtype=np.int8)
for _state, (_lsb, _msb) in _STATE_TO_BITS.items():
    _STATE_TABLE[_lsb, _msb] = int(_state)

#: The lookup tables packed into bitmasks: bit ``s`` is the page bit of
#: state ``s``, so a bit extraction is one shift and one mask instead of
#: a table gather.
_LSB_MASK = sum(int(bit) << state for state, bit in enumerate(_LSB_TABLE))
_MSB_MASK = sum(int(bit) << state for state, bit in enumerate(_MSB_TABLE))


def state_to_bits(state: MlcState) -> tuple[int, int]:
    """Return the (LSB, MSB) tuple stored by *state*."""
    return _STATE_TO_BITS[MlcState(state)]


def bits_to_state(lsb: int, msb: int) -> MlcState:
    """Return the state encoding the (LSB, MSB) pair."""
    if lsb not in (0, 1) or msb not in (0, 1):
        raise ValueError(f"bits must be 0 or 1, got lsb={lsb}, msb={msb}")
    return MlcState(int(_STATE_TABLE[lsb, msb]))


def _as_index(states: np.ndarray) -> np.ndarray:
    """States as an indexable integer array (no copy when already one)."""
    states = np.asarray(states)
    if states.dtype.kind not in "iu":
        states = states.astype(np.int64)
    return states


def _bit_of_state(mask: int, states: np.ndarray) -> np.ndarray:
    """``(mask >> states) & 1`` as uint8, computed in the states' dtype."""
    states = _as_index(states)
    bits = np.empty(states.shape, dtype=states.dtype)
    np.right_shift(states.dtype.type(mask), states, out=bits)
    np.bitwise_and(bits, 1, out=bits)
    if bits.dtype.itemsize == 1:
        return bits.view(np.uint8)
    return bits.astype(np.uint8)


def lsb_of_state(states: np.ndarray) -> np.ndarray:
    """Vectorized LSB extraction for an integer state array."""
    return _bit_of_state(_LSB_MASK, states)


def msb_of_state(states: np.ndarray) -> np.ndarray:
    """Vectorized MSB extraction for an integer state array."""
    return _bit_of_state(_MSB_MASK, states)


def states_from_bits(lsb: np.ndarray, msb: np.ndarray) -> np.ndarray:
    """Vectorized (LSB, MSB) -> state conversion."""
    lsb = _as_index(lsb)
    msb = _as_index(msb)
    if lsb.shape != msb.shape:
        raise ValueError("lsb and msb arrays must have the same shape")
    if ((lsb < 0) | (lsb > 1) | (msb < 0) | (msb > 1)).any():
        raise ValueError("bit arrays must contain only 0 and 1")
    return _STATE_TABLE[lsb, msb].astype(np.int64)


def bit_errors_between(true_states: np.ndarray, read_states: np.ndarray) -> np.ndarray:
    """Per-cell number of bit errors (0, 1, or 2) between two state arrays.

    With gray coding, adjacent-state misreads cost one bit and misreads that
    skip a state may cost two.
    """
    true_states = np.asarray(true_states, dtype=np.int64)
    read_states = np.asarray(read_states, dtype=np.int64)
    lsb_err = _LSB_TABLE[true_states] != _LSB_TABLE[read_states]
    msb_err = _MSB_TABLE[true_states] != _MSB_TABLE[read_states]
    return lsb_err.astype(np.int64) + msb_err.astype(np.int64)
