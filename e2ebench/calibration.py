"""Machine-speed calibration for the end-to-end benchmark.

Raw wall clock does not repeat on a shared VM: the host switches between
speed states every few seconds, and one op can take 165 ms in one state
and 360 ms in the next.  The runner therefore times
:func:`calibration_kernel` between batches and scales every time measured
in a batch by ``REFERENCE_MS / mean(reading before, reading after)``.
Calibrated times read as milliseconds on a machine where one kernel run
takes ``REFERENCE_MS``.

This module must not import ``repro``: the kernel's cost has to be a
property of the machine, never of the code under test.
"""

from __future__ import annotations

import time

#: Calibrated times are expressed on a machine where one kernel run takes
#: this long.  Changing it rescales every recorded number, so it is fixed.
REFERENCE_MS = 5.0

#: Loop trips of one kernel run (about 3-6 ms of interpreter work).
KERNEL_ROUNDS = 10_000


def calibration_kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Fixed pure-Python work: 64-bit LCG arithmetic and ``bytearray`` appends,
    the same mix of int operations and byte building as the bit codec."""
    buffer = bytearray()
    state = 0x2545F491
    for index in range(rounds):
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFF_FFFF_FFFF_FFFF
        buffer += (state >> 40).to_bytes(3, "little")
        state ^= index << 7
    return state ^ len(buffer)


class Calibrator:
    """Every kernel reading taken in one run, in seconds."""

    def __init__(self) -> None:
        self.readings: list[float] = []

    def read(self) -> float:
        start = time.perf_counter()
        calibration_kernel()
        elapsed = time.perf_counter() - start
        self.readings.append(elapsed)
        return elapsed


def scale(before: float, after: float) -> float:
    """Factor turning raw seconds measured between two readings into
    calibrated seconds."""
    return REFERENCE_MS / 1000.0 / ((before + after) / 2.0)
