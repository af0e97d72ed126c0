"""Reconciliation as a service: framed wire protocol + asyncio server.

The in-process protocols in :mod:`repro.reconcile` exchange payloads
through a recorded :class:`~repro.protocol.channel.Channel`; this
package puts the same payloads on an actual byte stream.  Frames
(:mod:`repro.protocol.wire`) carry a session id, so one connection
multiplexes many concurrent reconciliations; the server plays Bob, the
client plays Alice and drives the resilient recovery policy; a seeded
:class:`~repro.server.network.SimulatedNetwork` injects deterministic
loss/corruption/duplication/latency for the service scenarios and the
``client`` command.
"""

from .network import NetworkConfig, SessionLink, SimulatedNetwork
from .transport import (
    AsyncChannel,
    ConnectionClosedError,
    FrameConnection,
    FrameMux,
    SessionWireStats,
    memory_pipe,
)
from .session import SessionConfig, session_configs, session_workload
from .server import ReconcileServer, ServerSession
from .client import (
    ProtocolError,
    ReconcileClient,
    SessionReport,
    render_session_reports,
    run_client,
    serve_in_memory,
    session_aggregate,
)

__all__ = [
    "NetworkConfig",
    "SessionLink",
    "SimulatedNetwork",
    "AsyncChannel",
    "ConnectionClosedError",
    "FrameConnection",
    "FrameMux",
    "SessionWireStats",
    "memory_pipe",
    "SessionConfig",
    "session_configs",
    "session_workload",
    "ReconcileServer",
    "ServerSession",
    "ProtocolError",
    "ReconcileClient",
    "SessionReport",
    "render_session_reports",
    "run_client",
    "serve_in_memory",
    "session_aggregate",
]
