"""The reconciliation service end to end: client, server, faulty links.

Everything here runs the *real* client/server stack over an in-memory
framed pipe (:func:`repro.server.memory_pipe`) — the same code paths the
``serve``/``client`` CLI exercises over TCP — inside ``asyncio.run``
with a hard outer timeout, so a protocol bug can fail a test but never
hang the suite.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random

import pytest

from repro.errors import DecodeError, MalformedPayloadError
from repro.hashing import derive_seed
from repro.iblt.iblt import IBLT, cells_for_differences
from repro.metric.spaces import point_tuples
from repro.protocol.serialize import BitWriter, write_points
from repro.reconcile.exact_iblt import encode_points
from repro.protocol.wire import (
    HEADER_LEN,
    Frame,
    MessageType,
    decode_body,
    encode_frame,
)
from repro.server import (
    ConnectionClosedError,
    NetworkConfig,
    ReconcileServer,
    ServerSession,
    SessionConfig,
    SimulatedNetwork,
    memory_pipe,
    render_session_reports,
    serve_in_memory,
)
from repro.server.network import SessionLink
from repro.server.server import MAX_DIM, MAX_WORKLOAD_COORDINATES
from repro.server.session import KEY_BLOCK_BYTES, parse_json_payload

SUITE_TIMEOUT = 60.0


def run_service(configs, network=None, timeout=15.0, store=None):
    """Run sessions against a live server over a memory pipe."""
    server = ReconcileServer(store=store)
    reports = asyncio.run(
        asyncio.wait_for(
            serve_in_memory(server, configs, network=network, timeout=timeout),
            SUITE_TIMEOUT,
        )
    )
    return reports, server


def _configs(n, seed=7, **overrides):
    fields = dict(dim=48, n_shared=64, delta=10, delta_bound=6, max_attempts=8)
    fields.update(overrides)
    return [
        SessionConfig(session_id=sid, seed=seed, **fields)
        for sid in range(1, n + 1)
    ]


class TestCleanService:
    def test_sessions_reconcile(self):
        reports, server = run_service(_configs(4))
        assert len(reports) == 4
        for report in reports:
            assert report.success and report.union_ok
            assert report.rerequests == 0
            assert report.wire.frames_lost == 0
        assert server.sessions_opened == 4
        assert server.sessions_closed == 4

    def test_clean_transcript_matches_in_process_shape(self):
        """A clean exact session's analytical transcript has exactly the
        in-process shape: Bob's IBLT, then Alice's difference push."""
        (report,), _ = run_service(_configs(1, protocol="exact", delta_bound=16))
        assert report.success and report.union_ok
        assert report.attempts == 1
        assert report.escalations == 0
        assert sorted(report.by_label) == ["alice-only-points", "iblt"]
        assert report.transcript_rounds == 2
        assert report.fallback_bound is None

    def test_wire_covers_transcript(self):
        """Physical wire bytes must dominate the analytical transcript:
        framing is overhead on top of the measured payload bits."""
        reports, _ = run_service(_configs(3))
        for report in reports:
            assert 8 * report.wire.wire_bytes >= report.transcript_bits
            assert report.wire.framing_bytes > 0
            assert (
                report.wire.wire_bytes
                == report.wire.payload_bytes + report.wire.framing_bytes
            )


def _faulty_network(seed=7):
    return SimulatedNetwork(
        NetworkConfig(
            seed=derive_seed(seed, "test-service"),
            loss_rate=0.15,
            corrupt_rate=0.1,
            duplicate_rate=0.1,
            jitter_ms=0.4,
        )
    )


class TestFaultyService:
    def test_all_sessions_survive_faults(self):
        reports, _ = run_service(_configs(5), network=_faulty_network())
        assert all(r.success and r.union_ok for r in reports)
        stats = [r.wire for r in reports]
        # At this fault rate the link must actually have misbehaved.
        assert sum(s.frames_lost + s.frames_corrupted for s in stats) > 0
        assert sum(r.rerequests for r in reports) > 0

    def test_reports_deterministic_across_runs(self):
        """Two same-seed runs render byte-identical documents — the
        invariant CI's server-smoke gate checks with ``cmp``."""
        first, _ = run_service(_configs(4), network=_faulty_network())
        second, _ = run_service(_configs(4), network=_faulty_network())
        assert render_session_reports(first, seed=7) == render_session_reports(
            second, seed=7
        )

    def test_breaker_trips_into_strata_fallback(self):
        """An undersized bound with no escalation room must trip the
        breaker; the strata round trip then measures a workable bound."""
        configs = _configs(
            1, delta=32, delta_bound=1, max_escalations=1, max_attempts=10
        )
        (report,), _ = run_service(configs)
        assert report.breaker_tripped
        assert report.fallback_bound is not None and report.fallback_bound >= 4
        assert report.success and report.union_ok
        assert "strata-sketch" in report.by_label
        assert "strata-estimate" in report.by_label

    def test_exact_protocol_never_retries(self):
        (report,), _ = run_service(
            _configs(1, protocol="exact", delta=32, delta_bound=1)
        )
        assert not report.success  # bound 1 cannot hold 32 differences
        assert report.attempts == 1
        assert report.escalations == 0
        assert not report.breaker_tripped


def _reordering_network(seed=7):
    return SimulatedNetwork(
        NetworkConfig(
            seed=derive_seed(seed, "test-reorder"),
            reorder_rate=0.35,
            duplicate_rate=0.1,
            jitter_ms=0.4,
        )
    )


class TestReordering:
    def test_out_of_order_delivery_tolerated(self):
        """Seq-dedup on both ends plus the stateless request/response
        design tolerate genuinely out-of-order frame delivery: late
        stale copies arrive after newer frames and every session still
        reconciles."""
        reports, server = run_service(_configs(4), network=_reordering_network())
        assert all(r.success and r.union_ok for r in reports)
        assert sum(r.wire.frames_reordered for r in reports) > 0
        assert server.sessions_closed == 4

    def test_reordered_reports_deterministic(self):
        first, _ = run_service(_configs(4), network=_reordering_network())
        second, _ = run_service(_configs(4), network=_reordering_network())
        assert render_session_reports(first, seed=7) == render_session_reports(
            second, seed=7
        )

    def test_latency_percentiles_surfaced(self):
        reports, _ = run_service(_configs(3), network=_reordering_network())
        document = json.loads(render_session_reports(reports, seed=7))
        aggregate = document["aggregate"]
        assert aggregate["frames_reordered"] > 0
        assert 0.0 < aggregate["sim_latency_p50_ms"] <= aggregate["sim_latency_p99_ms"]
        for entry in document["sessions"]:
            assert 0.0 < entry["sim_latency_p50_ms"] <= entry["sim_latency_p99_ms"]

    def test_no_network_percentiles_are_zero(self):
        """Without a simulated link there are no latency draws: the
        percentiles report 0.0 rather than failing on an empty sample."""
        (report,), _ = run_service(_configs(1))
        assert report.wire.sim_latency_samples == []
        assert report.wire.latency_percentile(0.5) == 0.0
        assert report.wire.to_dict()["sim_latency_p50_ms"] == 0.0

    def test_percentile_is_nearest_rank(self):
        from repro.server import SessionWireStats

        stats = SessionWireStats()
        for value in (5.0, 1.0, 3.0, 2.0, 4.0):
            stats.record_latency(value)
        assert stats.latency_percentile(0.50) == 3.0
        assert stats.latency_percentile(0.99) == 5.0
        assert stats.latency_percentile(0.20) == 1.0


class TestStoreBackedServer:
    def _store(self):
        from repro.store import SketchStore, StoreConfig

        return SketchStore(StoreConfig(seed=7, shards=4, capacity=16))

    def test_wire_parity_with_stateless(self):
        """Acceptance: the store-backed server is byte-identical on the
        wire to the stateless one — for the same seed and workloads the
        rendered reports (which cover every wire counter) match, cold
        *and* warm."""
        stateless, _ = run_service(_configs(4))
        baseline = render_session_reports(stateless, seed=7)

        store = self._store()
        cold, _ = run_service(_configs(4), store=store)
        assert render_session_reports(cold, seed=7) == baseline
        assert store.stats.misses > 0

        hashed = store.stats.keys_hashed
        warm, _ = run_service(_configs(4), store=store)
        assert render_session_reports(warm, seed=7) == baseline
        # The repeat run served every sketch warm: cache hits happened
        # and not a single fresh Mersenne hash pass was paid.
        assert store.stats.hits > 0
        assert store.stats.rebuilds_avoided > 0
        assert store.stats.keys_hashed == hashed

    def test_faulty_link_parity(self):
        stateless, _ = run_service(_configs(3), network=_faulty_network())
        store = self._store()
        backed, _ = run_service(_configs(3), network=_faulty_network(), store=store)
        assert render_session_reports(backed, seed=7) == render_session_reports(
            stateless, seed=7
        )

    def test_merged_push_diverges_to_stateless_build(self):
        """After PUSH_POINTS merges Alice's difference the session no
        longer matches the store's derived set; later sketches must be
        built from the merged points while the store entry stays
        derived (ready for the next session)."""
        store = self._store()
        reports, _ = run_service(_configs(2), store=store)
        assert all(r.success and r.union_ok for r in reports)
        for config in _configs(2):
            key = config.store_key()
            assert store.contains(key)
            _, bob = config.workload()
            assert len(store.keys_of(key)) == len(bob)

    def test_wide_universe_sessions(self):
        """70-bit keys (python backend) through the escalation path and
        the strata fallback, stateless and store-backed alike."""
        configs = [
            SessionConfig(
                session_id=sid,
                seed=7,
                dim=70,
                delta_bound=2,
                max_escalations=1,
                max_attempts=10,
            )
            for sid in (1, 2)
        ]
        stateless, _ = run_service(configs)
        backed, _ = run_service(configs, store=self._store())
        for reports in (stateless, backed):
            for report in reports:
                assert report.success and report.union_ok
                assert report.breaker_tripped
        assert [r.transcript_bits for r in backed] == [
            r.transcript_bits for r in stateless
        ]
        assert render_session_reports(backed, seed=7) == render_session_reports(
            stateless, seed=7
        )


class TestRenderedReport:
    def test_schema_and_aggregate(self):
        reports, _ = run_service(_configs(2), network=_faulty_network())
        document = json.loads(render_session_reports(reports, seed=7))
        assert document["schema"] == "repro.recon-service/v1"
        assert document["session_count"] == 2
        assert [s["session_id"] for s in document["sessions"]] == [1, 2]
        aggregate = document["aggregate"]
        assert aggregate["all_reconciled"] is True
        assert aggregate["wire_covers_transcript"] is True
        assert (
            aggregate["framing_bytes"]
            == aggregate["wire_bytes"] - aggregate["payload_bytes"]
        )


class TestPinnedReports:
    """The rendered service reports, pinned by SHA-256 across commits.

    The other tests compare a run with itself or with the stateless
    server; these digests hold the bytes still when the server's
    internals change.  A change that alters any byte of a report must
    re-record them and say why.
    """

    @staticmethod
    def _digest(reports) -> str:
        return hashlib.sha256(render_session_reports(reports, seed=7).encode()).hexdigest()

    def test_stateless_faulty_link(self):
        reports, _ = run_service(_configs(4), network=_faulty_network())
        assert sum(r.rerequests for r in reports) > 0
        assert self._digest(reports) == (
            "3fab3502f7ce61a7257de4e2f0a658a5b9f5945cac574f8adacf572d94b78717"
        )

    def test_store_backed_cold_then_warm(self):
        """An undersized bound trips every breaker into the strata
        fallback, so the store serves sketches and strata alike."""
        from repro.store import SketchStore, StoreConfig

        store = SketchStore(StoreConfig(seed=7, shards=4, capacity=16))
        configs = _configs(3, delta=24, delta_bound=4, max_escalations=1)
        expected = "841f5f2ce810644bb7167026bb0fcbb311c5f285188cdc5d043e9140c6beee85"
        cold, _ = run_service(configs, store=store)
        assert all(r.breaker_tripped for r in cold)
        assert self._digest(cold) == expected
        warm, _ = run_service(configs, store=store)
        assert store.stats.hits > 0
        assert self._digest(warm) == expected


# -- raw-frame conversations with a live server ---------------------------


class _RawPeer:
    """Drive a live server with hand-built frames (a misbehaving client)."""

    def __init__(self):
        self.client_conn, self.server_conn = memory_pipe()
        self.server = ReconcileServer()
        self.server_task = asyncio.ensure_future(
            self.server.serve_connection(self.server_conn)
        )
        self.seq = 0

    def frame(self, msg_type, payload, session_id=1, label="x", seq=None):
        if seq is None:
            seq = self.seq
            self.seq += 1
        return encode_frame(
            Frame(
                msg_type=msg_type,
                session_id=session_id,
                seq=seq,
                sender="alice",
                label=label,
                payload=payload,
                payload_bits=8 * len(payload),
            )
        )

    def hello(self, config):
        return self.frame(
            MessageType.HELLO, config.to_json(), config.session_id, "hello"
        )

    async def send(self, raw):
        await self.client_conn.write_raw(raw)

    async def recv(self):
        header, raw = await asyncio.wait_for(self.client_conn.read_raw(), 10.0)
        return decode_body(header, raw[HEADER_LEN:])

    async def finish(self):
        self.client_conn.close()
        try:
            await asyncio.wait_for(self.server_task, 10.0)
        except asyncio.TimeoutError:  # pragma: no cover - the hang branch
            self.server_task.cancel()
            raise AssertionError("server connection never terminated")


def _raw(test_coro):
    """Run a raw-peer conversation under the suite timeout."""

    async def run():
        peer = _RawPeer()
        try:
            await test_coro(peer)
        finally:
            await peer.finish()

    asyncio.run(asyncio.wait_for(run(), SUITE_TIMEOUT))


class TestServerRobustness:
    def test_pure_garbage_closes_connection(self):
        """An unframeable stream ends the connection — typed close, no hang."""

        async def conversation(peer):
            rng = random.Random(0xDEAD)
            await peer.send(bytes(rng.randrange(256) for _ in range(512)))
            with pytest.raises((ConnectionClosedError, DecodeError)):
                while True:
                    await peer.recv()

        _raw(conversation)

    def test_damaged_hello_yields_decode_error_frame(self):
        async def conversation(peer):
            raw = bytearray(peer.hello(SessionConfig(session_id=1, seed=7)))
            raw[HEADER_LEN + 10] ^= 0x20  # chew the JSON payload
            await peer.send(bytes(raw))
            reply = await peer.recv()
            assert reply.msg_type is MessageType.ERROR
            assert parse_json_payload(reply.payload)["code"] == "decode"

        _raw(conversation)

    def test_hello_session_id_mismatch_rejected(self):
        async def conversation(peer):
            config = SessionConfig(session_id=2, seed=7)
            await peer.send(
                peer.frame(MessageType.HELLO, config.to_json(), 1, "hello")
            )
            reply = await peer.recv()
            assert reply.msg_type is MessageType.ERROR
            assert parse_json_payload(reply.payload)["code"] == "decode"

        _raw(conversation)

    def test_unknown_session_gets_typed_error(self):
        async def conversation(peer):
            await peer.send(
                peer.frame(
                    MessageType.REQ_SKETCH, b'{"attempt":1,"bound":4}', 99,
                    "req-sketch",
                )
            )
            reply = await peer.recv()
            assert reply.msg_type is MessageType.ERROR
            assert reply.session_id == 99
            assert parse_json_payload(reply.payload)["code"] == "unknown-session"

        _raw(conversation)

    def test_duplicate_delivery_answered_once(self):
        """Same sequence number twice → one ACK; the stream stays in sync."""

        async def conversation(peer):
            hello = peer.hello(SessionConfig(session_id=1, seed=7))
            await peer.send(hello)
            await peer.send(hello)  # duplicated delivery, same seq
            await peer.send(
                peer.frame(
                    MessageType.REQ_SKETCH, b'{"attempt":1,"bound":4}', 1,
                    "req-sketch",
                )
            )
            first = await peer.recv()
            second = await peer.recv()
            assert first.msg_type is MessageType.HELLO_ACK
            assert second.msg_type is MessageType.SKETCH  # not a second ACK

        _raw(conversation)

    def test_retransmitted_hello_reacked(self):
        """A *new-seq* HELLO for a live session re-ACKs idempotently."""

        async def conversation(peer):
            config = SessionConfig(session_id=1, seed=7)
            await peer.send(peer.hello(config))
            await peer.send(peer.hello(config))  # fresh seq, same session
            assert (await peer.recv()).msg_type is MessageType.HELLO_ACK
            assert (await peer.recv()).msg_type is MessageType.HELLO_ACK

        _raw(conversation)

    def test_bye_closes_session(self):
        async def conversation(peer):
            await peer.send(peer.hello(SessionConfig(session_id=1, seed=7)))
            assert (await peer.recv()).msg_type is MessageType.HELLO_ACK
            await peer.send(peer.frame(MessageType.BYE, b"", 1, "bye"))
            await peer.send(
                peer.frame(
                    MessageType.REQ_SKETCH, b'{"attempt":1,"bound":4}', 1,
                    "req-sketch",
                )
            )
            reply = await peer.recv()
            assert parse_json_payload(reply.payload)["code"] == "unknown-session"

        _raw(conversation)

    def test_hostile_bound_rejected_before_allocation(self):
        async def conversation(peer):
            await peer.send(peer.hello(SessionConfig(session_id=1, seed=7)))
            assert (await peer.recv()).msg_type is MessageType.HELLO_ACK
            for payload in (
                b'{"attempt":1,"bound":1099511627776}',  # over MAX_BOUND
                b'{"attempt":1,"bound":0}',
                b'{"attempt":0,"bound":4}',
                b'{"attempt":true,"bound":4}',  # bools are not attempts
                b'{"bound":4}',
                b"not json at all",
            ):
                await peer.send(
                    peer.frame(MessageType.REQ_SKETCH, payload, 1, "req-sketch")
                )
                reply = await peer.recv()
                assert reply.msg_type is MessageType.ERROR
                assert parse_json_payload(reply.payload)["code"] == "decode"

        _raw(conversation)

    @staticmethod
    def _hello_of(peer, dim, coordinates):
        """A HELLO whose workload is ``coordinates`` coordinates wide."""
        delta = 16
        config = SessionConfig(
            session_id=1, seed=7, dim=dim, n_shared=coordinates // dim - delta, delta=delta
        )
        assert (config.n_shared + config.delta) * config.dim == coordinates
        return peer.hello(config)

    def test_oversized_workload_refused_before_draw(self):
        """One coordinate over the cap is refused at HELLO with a typed
        ERROR and no session; exactly at the cap (32 MB per party's
        int64 matrix) opens one."""

        async def conversation(peer):
            await peer.send(self._hello_of(peer, 1, MAX_WORKLOAD_COORDINATES + 1))
            reply = await peer.recv()
            assert reply.msg_type is MessageType.ERROR
            assert parse_json_payload(reply.payload)["code"] == "decode"
            assert peer.server.sessions_opened == 0
            await peer.send(self._hello_of(peer, 16, MAX_WORKLOAD_COORDINATES))
            assert (await peer.recv()).msg_type is MessageType.HELLO_ACK
            assert peer.server.sessions_opened == 1

        _raw(conversation)

    def test_wide_dim_refused_before_session(self):
        """A single point one coordinate wider than ``MAX_DIM`` passes the
        coordinate cap but is refused at HELLO with a typed ERROR and no
        session; one point exactly ``MAX_DIM`` wide opens one."""

        async def conversation(peer):
            wide = SessionConfig(session_id=1, seed=7, dim=MAX_DIM + 1, n_shared=1, delta=0)
            assert wide.dim <= MAX_WORKLOAD_COORDINATES
            await peer.send(peer.hello(wide))
            reply = await peer.recv()
            assert reply.msg_type is MessageType.ERROR
            assert parse_json_payload(reply.payload)["code"] == "decode"
            assert peer.server.sessions_opened == 0
            await peer.send(
                peer.hello(SessionConfig(session_id=1, seed=7, dim=MAX_DIM, n_shared=1, delta=0))
            )
            assert (await peer.recv()).msg_type is MessageType.HELLO_ACK
            assert peer.server.sessions_opened == 1

        _raw(conversation)

    def test_fuzzed_frames_never_crash_live_session(self):
        """Seeded damage to in-session frames: every delivery is answered
        with a typed ERROR (or ignored as duplicate), never a crash."""

        async def conversation(peer):
            await peer.send(peer.hello(SessionConfig(session_id=1, seed=7)))
            assert (await peer.recv()).msg_type is MessageType.HELLO_ACK
            rng = random.Random(0xF1172)
            for _ in range(24):
                raw = bytearray(
                    peer.frame(
                        MessageType.REQ_STRATA,
                        bytes(rng.randrange(256) for _ in range(40)),
                        1,
                        "strata-sketch",
                    )
                )
                body_bits = 8 * (len(raw) - HEADER_LEN)
                position = rng.randrange(body_bits)
                raw[HEADER_LEN + position // 8] ^= 1 << (position % 8)
                await peer.send(bytes(raw))
                reply = await peer.recv()
                assert reply.msg_type is MessageType.ERROR
                assert parse_json_payload(reply.payload)["code"] == "decode"
            # The session survived all of it and still answers.
            await peer.send(
                peer.frame(
                    MessageType.REQ_SKETCH, b'{"attempt":1,"bound":4}', 1,
                    "req-sketch",
                )
            )
            assert (await peer.recv()).msg_type is MessageType.SKETCH

        _raw(conversation)


class TestSessionConfig:
    def test_json_roundtrip(self):
        config = SessionConfig(session_id=3, seed=11, delta=4)
        assert SessionConfig.from_payload(config.to_json()) == config

    def test_workload_is_shared_and_split(self):
        config = SessionConfig(session_id=1, seed=7, dim=32, n_shared=50, delta=8)
        alice, bob = config.workload()
        assert len(alice) == 54 and len(bob) == 54
        difference = set(point_tuples(alice)) ^ set(point_tuples(bob))
        assert 0 < len(difference) <= 8

    @pytest.mark.parametrize(
        "dim, n_shared, delta",
        [
            (48, 2048, 16),  # many full blocks and a partial one
            (48, 1024, 256),
            (16, KEY_BLOCK_BYTES // 128, 3),  # exactly one full block shared
            (70, 300, 9),  # object keys past 2^64
            (1, 5, 3),
            (48, 0, 0),
            (48, 0, 5),
            (48, 7, 0),
        ],
    )
    def test_workload_keys_are_the_encoded_workload(self, dim, n_shared, delta):
        config = SessionConfig(session_id=3, seed=7, dim=dim, n_shared=n_shared, delta=delta)
        space = config.space()
        for points, keys in zip(config.workload(), config.workload_keys()):
            expected = encode_points(space, points)
            assert keys.dtype == expected.dtype
            assert keys.tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda obj: obj.pop("seed"),
            lambda obj: obj.update(extra=1),
            lambda obj: obj.update(protocol="quantum"),
            lambda obj: obj.update(dim=0),
            lambda obj: obj.update(seed=True),
            lambda obj: obj.update(seed="7"),
        ],
        ids=["missing", "extra", "bad-protocol", "bad-dim", "bool", "string"],
    )
    def test_malformed_hello_rejected(self, mutate):
        obj = json.loads(SessionConfig(session_id=1, seed=7).to_json())
        mutate(obj)
        with pytest.raises(MalformedPayloadError):
            SessionConfig.from_payload(json.dumps(obj).encode())

    def test_attempt_coins_distinct(self):
        config = SessionConfig(session_id=1, seed=7)
        first = config.attempt_coins(1)
        assert first.child_seed("x") == config.coins().child_seed("x")
        assert config.attempt_coins(2).child_seed("x") != first.child_seed("x")
        assert (
            config.attempt_coins(3).child_seed("x")
            != config.attempt_coins(2).child_seed("x")
        )


def _merge_reference(bob, expected_union, shipped):
    """The list-and-set merge ``ServerSession.merge_push`` replaced."""
    final = list(bob)
    existing = set(final)
    for point in shipped:
        if point not in existing:
            final.append(point)
            existing.add(point)
    return existing == expected_union, final


class TestMergePush:
    """``merge_push`` on keys keeps the list semantics of the points it
    replaced: first occurrences not already held, in shipped order."""

    @staticmethod
    def _case(config, shipped):
        alice, bob = (point_tuples(side) for side in config.workload())
        session = ServerSession(config)
        writer = BitWriter()
        write_points(writer, session.space, shipped)
        union_ok, bob_size = session.merge_push(writer.getvalue())
        expected_ok, final = _merge_reference(bob, set(alice) | set(bob), shipped)
        assert (union_ok, bob_size) == (expected_ok, len(final))
        # The merged keys are the reference list's, in its order.
        assert session._bob_keys.tolist() == encode_points(session.space, final).tolist()
        # A later sketch is built from the merged set.
        cells = cells_for_differences(4, q=config.q)
        table = IBLT(
            config.attempt_coins(2), "exact-reconcile", cells=cells, q=config.q,
            key_bits=config.key_bits,
        )
        table.insert_batch(encode_points(session.space, final))
        assert session.build_sketch(2, 4) == table.to_payload()
        return union_ok, bob_size, len(bob)

    @staticmethod
    def _alice_only(config):
        alice, bob = (point_tuples(side) for side in config.workload())
        held = set(bob)
        return [point for point in alice if point not in held], bob

    def test_shipped_duplicates(self):
        config = SessionConfig(session_id=1, seed=7, dim=32, n_shared=40, delta=12)
        alice_only, _ = self._alice_only(config)
        shipped = alice_only + alice_only[::-1] + alice_only[:2]
        union_ok, bob_size, bob_count = self._case(config, shipped)
        assert union_ok and bob_size == bob_count + len(alice_only)

    def test_shipped_points_bob_holds(self):
        config = SessionConfig(session_id=2, seed=7, dim=32, n_shared=40, delta=12)
        alice_only, bob = self._alice_only(config)
        shipped = bob[:5] + alice_only[:3] + bob[-2:] + alice_only[3:]
        union_ok, bob_size, bob_count = self._case(config, shipped)
        assert union_ok and bob_size == bob_count + len(alice_only)

    def test_push_missing_a_point(self):
        config = SessionConfig(session_id=3, seed=7, dim=32, n_shared=40, delta=12)
        alice_only, _ = self._alice_only(config)
        union_ok, bob_size, bob_count = self._case(config, alice_only[1:])
        assert not union_ok and bob_size == bob_count + len(alice_only) - 1

    def test_bob_multiset_counts_like_the_list(self):
        """A 3-bit space forces sampling collisions into Bob's own set:
        his size counts them, as the point list did, and the union test
        compares sets."""
        config = SessionConfig(session_id=4, seed=7, dim=3, n_shared=20, delta=4)
        alice_only, bob = self._alice_only(config)
        assert len(set(bob)) < len(bob)
        union_ok, bob_size, bob_count = self._case(config, alice_only + bob[:3])
        assert union_ok and bob_size == bob_count + len(set(alice_only))


class TestNetworkModel:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(seed=1, loss_rate=-0.1)
        with pytest.raises(ValueError):
            NetworkConfig(seed=1, loss_rate=0.7, corrupt_rate=0.5)
        with pytest.raises(ValueError):
            NetworkConfig(seed=1, jitter_ms=-1.0)

    def test_decisions_depend_only_on_coordinates(self):
        """The fault plan is a pure function of (seed, session, direction,
        seq) — scheduling order cannot change what the link does."""
        config = NetworkConfig(
            seed=42, loss_rate=0.3, corrupt_rate=0.3, duplicate_rate=0.3,
            jitter_ms=1.0,
        )
        raw = encode_frame(
            Frame(
                msg_type=MessageType.SKETCH,
                session_id=5,
                seq=0,
                sender="bob",
                label="iblt",
                payload=b"payload-bytes-here",
                payload_bits=144,
            )
        )
        from repro.protocol.wire import decode_header

        header = decode_header(raw[:HEADER_LEN])

        def plan(order):
            link = SessionLink(config, 5)
            decisions = [
                link.apply("s2c", seq, header, raw) for seq in order
            ]
            return {
                seq: (d.lost, d.corrupted, d.duplicated, d.latency_ms)
                for seq, d in zip(order, decisions)
            }

        forward = plan(list(range(12)))
        shuffled_order = list(range(12))
        random.Random(3).shuffle(shuffled_order)
        assert plan(shuffled_order) == forward

    def test_damage_is_length_preserving_and_detected(self):
        """Loss and corruption keep the frame parseable (headers intact,
        lengths unchanged) but always fail the payload CRC."""
        config = NetworkConfig(
            seed=9, loss_rate=0.5, corrupt_rate=0.5, jitter_ms=0.0
        )
        link = SessionLink(config, 1)
        frame = Frame(
            msg_type=MessageType.SKETCH,
            session_id=1,
            seq=0,
            sender="bob",
            label="iblt",
            payload=b"some sketch payload",
            payload_bits=152,
        )
        raw = encode_frame(frame)
        from repro.protocol.wire import decode_frame, decode_header

        header = decode_header(raw[:HEADER_LEN])
        damaged_seen = 0
        for seq in range(32):
            decision = link.apply("s2c", seq, header, raw)
            for delivery in decision.deliveries:
                assert len(delivery) == len(raw)
                decoded, _ = decode_frame(delivery)  # header always intact
                assert decoded.session_id == 1
                if decision.lost or decision.corrupted:
                    damaged_seen += 1
                    with pytest.raises(MalformedPayloadError):
                        decoded.verify_payload()
        assert damaged_seen > 0
