"""Tests for the streaming churn subsystem: events, log, churn, replay."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core import Topology
from repro.errors import DecodeError, MalformedPayloadError, TruncatedPayloadError
from repro.hashing import PublicCoins
from repro.store import SketchStore, StoreConfig
from repro.stream import (
    EventLogReader,
    MutationEvent,
    StreamReplayer,
    events_by_window,
    record_line,
    render_replay_report,
    split_mutations,
    write_event_log,
)
from repro.stream.log import MAX_HEADER_LINE_BYTES
from repro.workloads import ChurnGenerator

COINS = PublicCoins(0x57FEA)


def _workload(n=16, windows=3, rate=5, skew=1.0, sources=3, key_bits=55):
    generator = ChurnGenerator(COINS.child("workload"), key_bits=key_bits)
    return generator.generate(
        n=n, windows=windows, rate=rate, skew=skew, sources=sources
    )


class TestMutationEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            MutationEvent(key=1, op="upsert", window=0)
        with pytest.raises(ValueError):
            MutationEvent(key=-1, op="insert", window=0)
        with pytest.raises(ValueError):
            MutationEvent(key=1, op="insert", window=-1)
        with pytest.raises(ValueError):
            MutationEvent(key=1, op="insert", window=0, source=-1)
        with pytest.raises(ValueError):
            MutationEvent(key=True, op="insert", window=0)

    def test_record_round_trip(self):
        event = MutationEvent(key=7, op="delete", window=2, source=1)
        assert MutationEvent.from_record(event.to_record(5)) == event

    def test_split_mutations_preserves_order(self):
        events = [
            MutationEvent(key=3, op="insert", window=0),
            MutationEvent(key=1, op="delete", window=0),
            MutationEvent(key=2, op="insert", window=0),
        ]
        assert split_mutations(events) == ([3, 2], [1])
        with pytest.raises(TypeError):
            split_mutations([("not", "an", "event")])


class TestEventLog:
    def test_round_trip(self, tmp_path):
        workload = _workload()
        path = tmp_path / "churn.ndjson"
        count = write_event_log(path, workload.events, key_bits=55, meta={"n": 16})
        assert count == len(workload.events)
        reader = EventLogReader.open(path)
        assert reader.header()["key_bits"] == 55
        assert reader.header()["meta"] == {"n": 16}
        assert tuple(reader.read_all()) == workload.events

    def test_writer_enforces_discipline(self, tmp_path):
        """A bad event anywhere in the stream refuses it and leaves no file."""
        path = tmp_path / "log"
        good = MutationEvent(key=5, op="insert", window=1)
        for bad, error in (
            (MutationEvent(key=5, op="delete", window=0), ValueError),  # regress
            (MutationEvent(key=256, op="insert", window=1), ValueError),  # range
            ("not an event", TypeError),
        ):
            with pytest.raises(error):
                write_event_log(path, [good, bad], key_bits=8)
            assert not path.exists()

    def test_refused_stream_keeps_an_existing_log(self, tmp_path):
        """Validation runs before the file opens, so a refused rewrite
        leaves the previous log byte-for-byte in place."""
        path = tmp_path / "log"
        write_event_log(path, [MutationEvent(key=5, op="insert", window=1)], key_bits=8)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_event_log(path, [MutationEvent(key=256, op="insert", window=1)], key_bits=8)
        assert path.read_bytes() == before

    def test_empty_and_unterminated_are_truncated(self):
        with pytest.raises(TruncatedPayloadError):
            EventLogReader(b"").read_all()
        header = record_line({"kind": "header", "schema": "repro.events/v1",
                              "key_bits": 8, "meta": {}})
        with pytest.raises(TruncatedPayloadError):
            EventLogReader(header[:-1]).read_all()

    def _valid_lines(self) -> list[bytes]:
        header = record_line({"kind": "header", "schema": "repro.events/v1",
                              "key_bits": 8, "meta": {}})
        e0 = record_line(MutationEvent(key=1, op="insert", window=0).to_record(0))
        e1 = record_line(MutationEvent(key=2, op="insert", window=1).to_record(1))
        return [header, e0, e1]

    def test_valid_crafted_log_parses(self):
        events = EventLogReader(b"".join(self._valid_lines())).read_all()
        assert [event.key for event in events] == [1, 2]

    def test_duplicate_seq_rejected(self):
        header, e0, _ = self._valid_lines()
        with pytest.raises(MalformedPayloadError, match="out of order"):
            EventLogReader(header + e0 + e0).read_all()

    def test_seq_gap_rejected(self):
        header, e0, _ = self._valid_lines()
        e2 = record_line(MutationEvent(key=2, op="insert", window=0).to_record(2))
        with pytest.raises(MalformedPayloadError, match="out of order"):
            EventLogReader(header + e0 + e2).read_all()

    def test_window_regression_rejected(self):
        header, _, e1 = self._valid_lines()
        later = record_line(MutationEvent(key=3, op="insert", window=2).to_record(0))
        earlier = record_line(MutationEvent(key=4, op="insert", window=1).to_record(1))
        with pytest.raises(MalformedPayloadError, match="regresses"):
            EventLogReader(header + later + earlier).read_all()

    def test_crc_tamper_rejected(self):
        header, e0, e1 = self._valid_lines()
        tampered = e0.replace(b'"key":1', b'"key":9')
        with pytest.raises(MalformedPayloadError, match="crc"):
            EventLogReader(header + tampered + e1).read_all()

    def test_wrong_schema_and_duplicate_header_rejected(self):
        bad_header = record_line({"kind": "header", "schema": "repro.events/v9",
                                  "key_bits": 8, "meta": {}})
        with pytest.raises(MalformedPayloadError, match="schema"):
            EventLogReader(bad_header).read_all()
        header, e0, _ = self._valid_lines()
        with pytest.raises(MalformedPayloadError, match="duplicate header"):
            EventLogReader(header + header + e0).read_all()

    def test_key_out_of_range_rejected(self):
        header, e0, _ = self._valid_lines()
        big = record_line(MutationEvent(key=256, op="insert", window=1).to_record(1))
        with pytest.raises(MalformedPayloadError, match="outside"):
            EventLogReader(header + e0 + big).read_all()

    def test_garbage_line_rejected(self):
        header, e0, _ = self._valid_lines()
        with pytest.raises(MalformedPayloadError):
            EventLogReader(header + e0 + b"not json at all\n").read_all()


class TestEventLogFuzz:
    """Seeded fuzz mirroring tests/test_errors_fuzz.py: random truncations,
    bit-flips and garbage injections of a valid log may fail or (for a
    truncation landing on a line boundary) succeed, but only the typed
    ``DecodeError`` family may escape the reader."""

    TRIALS = 48

    def _payload(self) -> bytes:
        workload = _workload(n=12, windows=2, rate=4)
        lines = [record_line({"kind": "header", "schema": "repro.events/v1",
                              "key_bits": 55, "meta": {}})]
        lines += [
            record_line(event.to_record(seq))
            for seq, event in enumerate(workload.events)
        ]
        return b"".join(lines)

    def _assert_only_decode_error(self, data: bytes) -> None:
        try:
            EventLogReader(data).read_all()
        except DecodeError:
            pass
        except Exception as error:  # pragma: no cover - the failure branch
            raise AssertionError(
                f"untyped {type(error).__name__} escaped EventLogReader: {error}"
            ) from error

    def test_truncations(self):
        payload = self._payload()
        rng = random.Random(0x7A17)
        for _ in range(self.TRIALS):
            self._assert_only_decode_error(payload[: rng.randrange(len(payload))])

    def test_bit_flips(self):
        payload = self._payload()
        rng = random.Random(0xF11B)
        for _ in range(self.TRIALS):
            corrupted = bytearray(payload)
            for _ in range(1 + rng.randrange(4)):
                position = rng.randrange(8 * len(payload))
                corrupted[position // 8] ^= 1 << (position % 8)
            self._assert_only_decode_error(bytes(corrupted))

    def test_garbage_lines(self):
        payload = self._payload()
        rng = random.Random(0x6A5B)
        lines = payload.split(b"\n")
        for _ in range(self.TRIALS):
            garbage = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
            position = rng.randrange(len(lines))
            mutated = lines[:position] + [garbage] + lines[position:]
            self._assert_only_decode_error(b"\n".join(mutated))

    def _header(self, meta_json: str) -> bytes:
        return (
            '{"crc":0,"key_bits":8,"kind":"header","meta":' + meta_json
            + ',"schema":"repro.events/v1"}\n'
        ).encode()

    def test_huge_integer_in_event_line(self):
        """A 5000-digit integer, past Python's 4300-digit int cap, is a typed error."""
        header = self._payload().split(b"\n")[0] + b"\n"
        line = b'{"crc":0,"key":' + b"9" * 5000 + b"}\n"
        with pytest.raises(MalformedPayloadError):
            EventLogReader(header + line).read_all()
        self._assert_only_decode_error(header + line)

    def test_huge_integer_in_header(self):
        data = self._header("[" + "9" * 5000 + "]")
        with pytest.raises(MalformedPayloadError):
            EventLogReader(data).header()

    def test_deeply_nested_array(self):
        depth = 20_000  # inside the header cap, far past the recursion limit
        data = self._header("[" * depth + "]" * depth)
        assert len(data) < MAX_HEADER_LINE_BYTES
        with pytest.raises(MalformedPayloadError):
            EventLogReader(data).header()
        header = self._payload().split(b"\n")[0] + b"\n"
        with pytest.raises(MalformedPayloadError, match="cap"):
            EventLogReader(header + b"[" * depth + b"\n").read_all()

    def test_writer_refuses_over_cap_header(self, tmp_path):
        with pytest.raises(ValueError):
            write_event_log(
                tmp_path / "log", [], key_bits=8, meta={"pad": "x" * MAX_HEADER_LINE_BYTES}
            )
        assert not (tmp_path / "log").exists()


class TestChurnGenerator:
    def test_deterministic(self):
        assert _workload().events == _workload().events

    def test_window_zero_is_the_population(self):
        workload = _workload(n=16)
        initial = [event for _, event in events_by_window(workload.events)[0]]
        assert len(initial) == 16
        assert all(event.op == "insert" for event in initial)

    def test_each_window_touches_keys_once(self):
        workload = _workload(n=16, windows=4, rate=8)
        for pairs in events_by_window(workload.events).values():
            keys = [event.key for _, event in pairs]
            assert len(keys) == len(set(keys))

    def test_ground_truth_is_consistent(self):
        workload = _workload(n=16, windows=3, rate=6)
        members: set[int] = set()
        for event in workload.events:
            if event.op == "insert":
                assert event.key not in members  # fresh keys only
                members.add(event.key)
            else:
                assert event.key in members  # only live keys die
                members.remove(event.key)
        assert members == workload.final_membership

    def test_sources_are_in_range(self):
        workload = _workload(sources=3)
        assert {event.source for event in workload.events} <= {0, 1, 2}

    def test_skew_zero_and_high_both_valid(self):
        for skew in (0.0, 3.0):
            workload = _workload(skew=skew, windows=2, rate=6)
            assert len(workload.events) > 16

    def test_validation(self):
        generator = ChurnGenerator(COINS, key_bits=8)
        with pytest.raises(ValueError):
            generator.generate(n=0, windows=1, rate=1)
        with pytest.raises(ValueError):
            generator.generate(n=4, windows=1, rate=1, skew=-1.0)
        with pytest.raises(ValueError):
            generator.generate(n=4, windows=1, rate=1, insert_fraction=1.5)
        with pytest.raises(ValueError):
            ChurnGenerator(COINS, key_bits=64)


class TestStoreApplyEvents:
    def test_events_equal_raw_mutations(self):
        workload = _workload(n=16, windows=2, rate=5, sources=1)
        store_a = SketchStore(StoreConfig(seed=11))
        store_b = SketchStore(StoreConfig(seed=11))
        store_a.put_set(1, (), key_bits=55)
        store_b.put_set(1, (), key_bits=55)
        serve = lambda store: store.serve_iblt(1, COINS.child("s"), "slot", 24, q=3)
        serve(store_a), serve(store_b)  # build warm slots over the empty set
        for pairs in events_by_window(workload.events).values():
            batch = [event for _, event in pairs]
            applied = store_a.apply_events(1, batch)
            assert applied == len(batch)
            inserts, deletes = split_mutations(batch)
            store_b.apply_mutations(1, inserts=inserts, deletes=deletes)
        assert store_a.keys_of(1) == store_b.keys_of(1) == workload.final_membership
        assert serve(store_a) == serve(store_b)

    def test_set_discipline_still_enforced(self):
        store = SketchStore(StoreConfig(seed=11))
        store.put_set(1, (5,), key_bits=55)
        with pytest.raises(ValueError):
            store.apply_events(1, [MutationEvent(key=5, op="insert", window=0)])
        with pytest.raises(ValueError):
            store.apply_events(1, [MutationEvent(key=6, op="delete", window=0)])
        assert store.keys_of(1) == {5}


class TestStreamReplayer:
    @pytest.mark.parametrize("kind", ["star", "ring", "tree", "random"])
    def test_replay_converges_and_matches_cold(self, kind):
        workload = _workload(n=14, windows=2, rate=5, sources=4)
        topology = Topology.build(kind, 4, coins=COINS.child("topology"))
        replayer = StreamReplayer(topology, COINS.child("replay"), key_bits=55)
        report = replayer.replay(workload.events)
        assert report.converged
        assert report.matches_cold_rebuild
        assert report.success
        assert report.topology == kind
        assert sum(bits for _, _, bits in report.edge_bits) == report.total_bits

    def test_report_is_backend_free_and_identical(self, monkeypatch):
        workload = _workload(n=10, windows=2, rate=3, sources=3)
        documents = {}
        for backend in ("numpy", "python"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            replayer = StreamReplayer(
                Topology.ring(3), COINS.child("replay"), key_bits=55
            )
            report = replayer.replay(workload.events)
            assert report.success
            documents[backend] = render_replay_report(report, seed=0)
        assert documents["numpy"] == documents["python"]
        assert "backend" not in documents["numpy"]

    def test_incremental_refreshes_engage(self):
        workload = _workload(n=14, windows=3, rate=5, sources=3)
        replayer = StreamReplayer(Topology.star(3), COINS.child("replay"), key_bits=55)
        report = replayer.replay(workload.events)
        assert report.incremental_refreshes > 0
        assert report.store_hits > 0


def _recorded_stream(seed=7):
    """The stream ``stream record --seed 7 --n 32 --windows 3 --rate 6
    --skew 1.2 --sources 5`` writes, drawn in-process."""
    generator = ChurnGenerator(PublicCoins(seed).child("stream-record"), key_bits=55)
    return generator.generate(n=32, windows=3, rate=6, skew=1.2, sources=5)


def _recorded_replay(kind, seed=7, **options):
    """Replay the recorded stream over five parties, as ``stream replay`` does."""
    coins = PublicCoins(seed)
    topology = Topology.build(kind, 5, coins=coins.child("stream-topology"))
    replayer = StreamReplayer(topology, coins.child("stream-replay"), key_bits=55, **options)
    return replayer.replay(_recorded_stream(seed).events)


class TestReplayEscalation:
    """Edge syncs escalate through the shared recovery loop."""

    #: SHA-256 of the rendered report at ``delta_bound=1`` and the
    #: default attempts, per topology.
    PINNED = {
        "star": "9e4a4855fd21da8f38b7d65a6cd731a9812c49ec9f7e84af1c5dfcbdbbf5e675",
        "ring": "d2a51e528ff24a6f26cd2c066fa51d42b5ce35f16871f4403f67d096849347a4",
        "tree": "23c1931ba542b47e5f324bfa99b3451d1827f6c8fb080cc6d5542215434b2a36",
        "random": "053cabca1a77b3a6edcc46a3904486852f9abb992091c60a926012aff9268ef9",
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_escalating_replay_is_pinned(self, kind):
        report = _recorded_replay(kind, delta_bound=1)
        assert report.success
        assert report.decode_failures >= 15
        document = render_replay_report(report, seed=7)
        assert hashlib.sha256(document.encode()).hexdigest() == self.PINNED[kind]

    def test_failed_sync_ends_in_an_unconverged_report(self):
        report = _recorded_replay("ring", delta_bound=1, max_attempts=3)
        assert not report.converged
        assert not report.success
        assert report.decode_failures > 0

    def test_failed_sync_reports_the_windows_gossiped(self):
        """Gossip stops after the window whose sync failed, and the report
        counts the windows gossiped, not the stream's."""
        failed = _recorded_replay("ring", delta_bound=1, max_attempts=3)
        assert (failed.windows, failed.syncs) == (1, 8)
        assert _recorded_replay("ring").windows == _recorded_stream().windows + 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("bound,attempts", [(1, 1), (1, 2), (1, 3), (2, 1)])
    def test_exhausted_attempts_never_crash(self, seed, bound, attempts):
        report = _recorded_replay("ring", seed, delta_bound=bound, max_attempts=attempts)
        assert not report.converged
