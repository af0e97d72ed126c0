"""The asyncio reconciliation server: Bob as a service.

One :class:`ReconcileServer` accepts any number of connections; each
connection carries any number of interleaved sessions (frames route by
the session id in every header).  The server plays **Bob**: it derives
its half of the session workload from the HELLO config, then answers
requests statelessly enough that a client can retry anything —

* ``REQ_SKETCH {attempt, bound}`` → an IBLT of Bob's points sized for
  ``bound`` differences, built with the attempt's coins (so client and
  server agree on the hypergraph byte for byte);
* ``REQ_STRATA`` (Alice's strata sketch) → ``ESTIMATE {bound}``, Bob's
  measured difference bound — the wire form of the controller's
  circuit-breaker fallback;
* ``PUSH_POINTS`` → merge Alice's difference, verify the union against
  the derived ground truth, answer ``RESULT``.

Session state machine::

    (no session) --HELLO ok--> ACTIVE --BYE--> CLOSED (removed)
         |                       |
         +--HELLO damaged--> ERROR(decode), no session
         ACTIVE --HELLO (retransmit)--> re-ACK (idempotent)
         ACTIVE --damaged frame--> ERROR(decode), stays ACTIVE
         CLOSED/unknown --any frame--> ERROR(unknown-session)

Every failure an attacker (or the fault-injecting link) can trigger is
answered with a typed ``ERROR`` frame or a clean connection close —
never an unhandled exception, never a hang.  Duplicate deliveries are
dropped by sequence number before any state changes.
"""

from __future__ import annotations

import asyncio

from ..errors import DecodeError, MalformedPayloadError
from ..iblt.iblt import IBLT, cells_for_differences
from ..protocol.channel import BOB
from ..protocol.serialize import BitReader, read_points
from ..protocol.wire import HEADER_LEN, Frame, MessageType, decode_body, encode_frame
from ..reconcile.exact_iblt import encode_points
from ..reconcile.strata import StrataEstimator
from ..store import SketchStore
from .session import SessionConfig, json_payload, parse_json_payload
from .transport import ConnectionClosedError, FrameConnection

__all__ = ["ReconcileServer", "ServerSession"]

#: Ceiling on client-requested difference bounds, so a malformed or
#: hostile REQ_SKETCH cannot make the server allocate a huge table.
MAX_BOUND = 1 << 20


class ServerSession:
    """Bob's state for one session on one connection.

    With a :class:`~repro.store.SketchStore` attached, Bob's derived
    set is registered under its workload identity and sketches/strata
    are served from the store's warm shards — byte-identical to the
    stateless path (insert order and cache residency never reach the
    wire), but a repeat request hits cached state instead of re-hashing
    the set.  A session that merges pushed points has *diverged* from
    the derived workload and silently reverts to stateless building;
    the store keeps the derived set for the next session.
    """

    def __init__(self, config: SessionConfig, store: "SketchStore | None" = None) -> None:
        self.config = config
        self.space = config.space()
        alice, bob = config.workload()
        self.bob_points = list(bob)
        self.expected_union = set(alice) | set(bob)
        self.closed = False
        self.store = store
        self._store_key: "int | None" = None
        self._diverged = False
        if store is not None:
            keys = encode_points(self.space, self.bob_points).tolist()
            if len(set(keys)) == len(keys):
                self._store_key = config.store_key()
                if not store.contains(self._store_key):
                    store.put_set(self._store_key, keys, key_bits=config.key_bits)
            # else: the sampled workload collided into a multiset; the
            # store holds sets, so this (astronomically rare) session
            # stays stateless to preserve exact wire parity.

    @property
    def _warm(self) -> bool:
        return self._store_key is not None and not self._diverged

    def build_sketch(self, attempt: int, bound: int) -> "tuple[bytes, int]":
        """Bob's IBLT payload for one attempt (client-matching coins)."""
        coins = self.config.attempt_coins(attempt)
        cells = cells_for_differences(bound, q=self.config.q)
        if self._warm:
            return self.store.serve_iblt(
                self._store_key, coins, "exact-reconcile", cells=cells, q=self.config.q
            )
        table = IBLT(
            coins,
            "exact-reconcile",
            cells=cells,
            q=self.config.q,
            key_bits=self.config.key_bits,
        )
        table.insert_batch(encode_points(self.space, self.bob_points))
        return table.to_payload()

    def estimate_difference(self, strata_payload: bytes) -> int:
        """Load Alice's strata sketch, subtract Bob's, measure the bound."""
        key_bits = self.config.key_bits
        shell = StrataEstimator(
            self.config.strata_coins(), "service-strata", key_bits=key_bits
        )
        received = shell.from_payload(strata_payload)
        if self._warm:
            bob_sketch = self.store.serve_strata(
                self._store_key, self.config.strata_coins(), "service-strata"
            )
        else:
            bob_sketch = StrataEstimator(
                self.config.strata_coins(), "service-strata", key_bits=key_bits
            )
            bob_sketch.insert_batch(encode_points(self.space, self.bob_points))
        return max(4, received.subtract(bob_sketch).estimate())

    def merge_push(self, payload: bytes) -> "tuple[bool, int]":
        """Merge Alice's pushed points; verify against the ground truth."""
        shipped = read_points(BitReader(payload), self.space)
        existing = set(self.bob_points)
        for point in shipped:
            if point not in existing:
                self.bob_points.append(point)
                existing.add(point)
                # Bob no longer matches the store's derived set; any
                # further sketch for this session must be built from
                # the merged points (the store entry stays derived).
                self._diverged = True
        return existing == self.expected_union, len(self.bob_points)


class ReconcileServer:
    """Serves reconciliation sessions over framed streams.

    ``store`` attaches a :class:`~repro.store.SketchStore` shared by
    every connection and session: repeat sketch requests for unchanged
    workloads become warm cache hits (see :class:`ServerSession`).
    Stateless operation (``store=None``) is unchanged and pinned.
    """

    def __init__(self, store: "SketchStore | None" = None) -> None:
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.connections = 0
        self.store = store

    # -- entry points ------------------------------------------------------

    async def serve_tcp(self, host: str, port: int) -> "asyncio.AbstractServer":
        """Start a TCP listener; returns the asyncio server object."""

        async def handler(reader, writer):
            await self.serve_connection(FrameConnection(reader, writer))

        return await asyncio.start_server(handler, host, port)

    async def serve_connection(self, connection: FrameConnection) -> None:
        """Run one connection to completion (EOF or unframeable stream)."""
        self.connections += 1
        sessions: "dict[int, ServerSession]" = {}
        out_seqs: "dict[int, int]" = {}
        # Incoming dedup lives at connection scope (not on the session)
        # so duplicated deliveries are dropped even before a session
        # exists — e.g. a duplicated, damaged HELLO must produce one
        # ERROR, not two, or the client sees stale responses.
        seen_seqs: "dict[int, set[int]]" = {}

        async def reply(
            session_id: int,
            msg_type: MessageType,
            label: str,
            payload: bytes,
            payload_bits: "int | None" = None,
        ) -> None:
            seq = out_seqs.get(session_id, 0)
            out_seqs[session_id] = seq + 1
            frame = Frame(
                msg_type=msg_type,
                session_id=session_id,
                seq=seq,
                sender=BOB,
                label=label,
                payload=payload,
                payload_bits=payload_bits if payload_bits is not None else 8 * len(payload),
            )
            await connection.write_raw(encode_frame(frame))

        async def error(session_id: int, code: str, detail: str) -> None:
            await reply(
                session_id,
                MessageType.ERROR,
                "error",
                json_payload({"code": code, "detail": detail}),
            )

        try:
            while True:
                try:
                    header, raw = await connection.read_raw()
                except ConnectionClosedError:
                    break
                except DecodeError:
                    # Header-level damage: the stream cannot be reframed;
                    # close rather than guess at message boundaries.
                    break
                sid = header.session_id
                if header.seq in seen_seqs.setdefault(sid, set()):
                    continue  # duplicated delivery
                seen_seqs[sid].add(header.seq)
                try:
                    frame = decode_body(header, raw[HEADER_LEN:])
                except DecodeError as exc:
                    # Valid header, unusable body (e.g. a chewed label):
                    # the stream is still framed — answer and carry on.
                    await error(sid, "decode", str(exc))
                    continue

                if frame.msg_type == MessageType.HELLO:
                    if sid in sessions:
                        # Retransmitted HELLO (our ACK was damaged): re-ACK.
                        await reply(sid, MessageType.HELLO_ACK, "hello-ack", b"{}")
                        continue
                    try:
                        frame.verify_payload()
                        config = SessionConfig.from_payload(frame.payload)
                        if config.session_id != sid:
                            raise MalformedPayloadError(
                                f"HELLO session_id {config.session_id} does not "
                                f"match frame header session {sid}"
                            )
                        sessions[sid] = ServerSession(config, store=self.store)
                        self.sessions_opened += 1
                        await reply(sid, MessageType.HELLO_ACK, "hello-ack", b"{}")
                    except DecodeError as exc:
                        await error(sid, "decode", str(exc))
                    continue

                session = sessions.get(sid)
                if session is None:
                    await error(sid, "unknown-session", f"no session {sid} on this connection")
                    continue
                await self._handle(session, frame, reply, error)
                if session.closed:
                    del sessions[sid]
                    self.sessions_closed += 1
        finally:
            connection.close()

    # -- per-frame dispatch ------------------------------------------------

    async def _handle(self, session: ServerSession, frame: Frame, reply, error) -> None:
        sid = session.config.session_id
        try:
            frame.verify_payload()
        except MalformedPayloadError as exc:
            await error(sid, "decode", str(exc))
            return

        try:
            if frame.msg_type == MessageType.REQ_SKETCH:
                request = parse_json_payload(frame.payload)
                attempt = request.get("attempt")
                bound = request.get("bound")
                if (
                    not isinstance(attempt, int)
                    or not isinstance(bound, int)
                    or isinstance(attempt, bool)
                    or isinstance(bound, bool)
                    or attempt < 1
                    or not 1 <= bound <= MAX_BOUND
                ):
                    raise MalformedPayloadError(
                        f"REQ_SKETCH needs integer attempt >= 1 and bound in "
                        f"[1, {MAX_BOUND}], got {request!r}"
                    )
                payload, bits = session.build_sketch(attempt, bound)
                await reply(sid, MessageType.SKETCH, "iblt", payload, bits)
            elif frame.msg_type == MessageType.REQ_STRATA:
                bound = session.estimate_difference(frame.payload)
                await reply(
                    sid,
                    MessageType.ESTIMATE,
                    "strata-estimate",
                    json_payload({"bound": int(bound)}),
                )
            elif frame.msg_type == MessageType.PUSH_POINTS:
                union_ok, bob_size = session.merge_push(frame.payload)
                await reply(
                    sid,
                    MessageType.RESULT,
                    "result",
                    json_payload(
                        {"success": True, "union_ok": union_ok, "bob_size": bob_size}
                    ),
                )
            elif frame.msg_type == MessageType.BYE:
                session.closed = True
            else:
                await error(
                    sid, "bad-type", f"unexpected frame type {frame.msg_type.name}"
                )
        except DecodeError as exc:
            await error(sid, "decode", str(exc))
