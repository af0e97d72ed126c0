"""Seeded churn workloads: Zipf-skewed mutation streams with ground truth.

:class:`ChurnGenerator` emits the live-world workload the paper's sensor
fleets imply: a keyed set that keeps changing after the initial
population.  Window 0 inserts the initial membership; every later
window applies ``rate`` mutations whose *delete victims* are drawn
Zipf-style over recency rank — ``skew = 0`` deletes uniformly, larger
``skew`` concentrates churn on the most recently inserted keys (the
hot-key regime of PAPERS.md's "Choice-Memory Tradeoff in Allocations").

Like :class:`~repro.workloads.generators.ReconciliationWorkload`, the
output is a frozen dataclass *with ground truth*: the exact membership
after every window is derivable from the event stream, and
:meth:`ChurnWorkload.membership_after` computes it, so replay layers
can pin their reconstructed state bit-identical to truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hashing import PublicCoins
from ..iblt.backend import MAX_NUMPY_KEY_BITS
from ..stream.events import MutationEvent

__all__ = ["ChurnGenerator", "ChurnWorkload"]


@dataclass(frozen=True)
class ChurnWorkload:
    """A generated mutation stream plus its derivable ground truth.

    ``events`` is the full stream in log order: window 0 populates the
    initial membership, windows ``1..windows`` churn it.  Every key is
    touched at most once per window, so each window's delta obeys the
    strict set discipline of
    :meth:`repro.store.SketchStore.apply_mutations`.
    """

    key_bits: int
    windows: int
    rate: int
    skew: float
    sources: int
    events: tuple[MutationEvent, ...]

    def membership_after(self, window: int) -> set[int]:
        """Ground-truth membership once windows ``0..window`` have applied."""
        members: set[int] = set()
        for event in self.events:
            if event.window > window:
                break
            if event.op == "insert":
                members.add(event.key)
            else:
                members.discard(event.key)
        return members

    @property
    def final_membership(self) -> set[int]:
        return self.membership_after(self.windows)


class ChurnGenerator:
    """Deterministic churn streams from public coins.

    Parameters
    ----------
    coins:
        Seeds the stream; the same coins always yield the same events.
    key_bits:
        Key universe is ``[0, 2^key_bits)`` (at most
        :data:`~repro.iblt.backend.MAX_NUMPY_KEY_BITS`, so every key
        rides the vectorised sketch paths).
    """

    def __init__(self, coins: PublicCoins, key_bits: int = 55):
        if not 1 <= key_bits <= MAX_NUMPY_KEY_BITS:
            raise ValueError(
                f"key_bits must be in [1, {MAX_NUMPY_KEY_BITS}], got {key_bits}"
            )
        self.coins = coins
        self.key_bits = key_bits

    def generate(
        self,
        n: int,
        windows: int,
        rate: int,
        skew: float = 1.0,
        insert_fraction: float = 0.5,
        sources: int = 1,
    ) -> ChurnWorkload:
        """An ``n``-key population plus ``windows`` churn windows.

        Each churn window draws ``rate`` mutations: with probability
        ``insert_fraction`` a fresh (never-seen) key is inserted,
        otherwise a live key is deleted — the victim drawn over recency
        rank with weight ``rank^-skew`` (rank 1 = most recent).  A key
        already touched this window is skipped as a victim, keeping the
        window delta a valid set-discipline delta.  ``source`` labels
        round-robin-free: each event's observing party is drawn
        uniformly from ``range(sources)``.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if windows < 0:
            raise ValueError(f"windows must be >= 0, got {windows}")
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        if not 0.0 <= insert_fraction <= 1.0:
            raise ValueError(f"insert_fraction must be in [0, 1], got {insert_fraction}")
        if sources < 1:
            raise ValueError(f"sources must be >= 1, got {sources}")

        rng = self.coins.numpy_rng("churn", n, windows, rate)
        taken: set[int] = set()
        live: list[int] = []  # insertion order: index = age

        def fresh_key() -> int:
            while True:
                key = int(rng.integers(0, 1 << self.key_bits))
                if key not in taken:
                    taken.add(key)
                    return key

        def draw_source() -> int:
            return int(rng.integers(0, sources))

        events: list[MutationEvent] = []
        for _ in range(n):
            key = fresh_key()
            live.append(key)
            events.append(MutationEvent(key=key, op="insert", window=0, source=draw_source()))

        for window in range(1, windows + 1):
            touched: set[int] = set()
            for _ in range(rate):
                candidates = [key for key in reversed(live) if key not in touched]
                if rng.random() < insert_fraction or not candidates:
                    key = fresh_key()
                    live.append(key)
                    touched.add(key)
                    events.append(
                        MutationEvent(key=key, op="insert", window=window, source=draw_source())
                    )
                else:
                    # candidates[0] is the most recent live key → rank 1.
                    ranks = np.arange(1, len(candidates) + 1, dtype=np.float64)
                    weights = ranks ** -skew
                    weights /= weights.sum()
                    victim = candidates[int(rng.choice(len(candidates), p=weights))]
                    live.remove(victim)
                    touched.add(victim)
                    events.append(
                        MutationEvent(
                            key=victim, op="delete", window=window, source=draw_source()
                        )
                    )

        return ChurnWorkload(
            key_bits=self.key_bits,
            windows=windows,
            rate=rate,
            skew=skew,
            sources=sources,
            events=tuple(events),
        )
