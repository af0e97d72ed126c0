"""Streaming churn: event logs, churn workloads, gossip replay.

The streaming subsystem models the paper's live-world motivation: sets
that change continuously.  Its pieces:

* :mod:`repro.stream.events` — :class:`MutationEvent`, the unified
  mutation atom shared by the log, the workload generator and
  :meth:`repro.store.SketchStore.apply_events`;
* :mod:`repro.stream.log` — the ``repro.events/v1`` crc-stamped
  append-only NDJSON event log;
* :mod:`repro.stream.replay` — :class:`StreamReplayer`, which drives a
  stream through per-party warm stores and reconciles every window
  across a :class:`~repro.core.multiparty.Topology`.
"""

from .events import MutationEvent, events_by_window, split_mutations
from .log import (
    EVENT_LOG_SCHEMA,
    EventLogReader,
    record_line,
    write_event_log,
)
from .replay import ID_KEY_BITS, ReplayReport, StreamReplayer, render_replay_report

__all__ = [
    "EVENT_LOG_SCHEMA",
    "EventLogReader",
    "ID_KEY_BITS",
    "MutationEvent",
    "ReplayReport",
    "StreamReplayer",
    "events_by_window",
    "record_line",
    "render_replay_report",
    "split_mutations",
    "write_event_log",
]
