"""Deterministic bus: ordering, faults, sealing, and trace hygiene."""

import gc
import hashlib
import heapq
import weakref
from dataclasses import dataclass, replace

import pytest
from cryptography.exceptions import InvalidTag

from idplane import bus as bus_mod
from idplane import crypto, harness
from idplane import encoding as enc
from idplane.actors import Actor, Gather, Join, Message, Request, Sleep
from idplane.bus import (
    BoxKeyPair, BusConfig, FaultRule, Header, SimBus, TickCeilingExceeded, UnknownEndpoint,
)

from conftest import scenario_config


def seed32(label: str) -> bytes:
    return hashlib.sha256(label.encode()).digest()


@dataclass(frozen=True)
class Ping(enc.Record):
    n: int
    marker: str = ""


@dataclass(frozen=True)
class Pong(enc.Record):
    n: int


class EchoActor(Actor):
    REQUESTS = {"ping": ("_pong", Ping, "pong", Pong)}

    def __init__(self, address):
        super().__init__(address)
        self.seen = []

    def _pong(self, sender, ping):
        self.seen.append((sender, ping))
        return Pong(ping.n)


def ping_message(n=0) -> bytes:
    return Message(request_id="driver#0", body=Ping(n).to_bytes()).to_bytes()


class DriverActor(Actor):
    def __init__(self, address):
        super().__init__(address)
        self.log = []

    def script(self, target, count):
        for i in range(count):
            reply = yield Request(target, "ping", Ping(i), timeout=40)
            self.log.append(reply.body.n if reply else None)
        yield Sleep(2)
        self.log.append("done")


def build(config: BusConfig, names=("echo", "driver")):
    bus = SimBus(config)
    actors = {}
    for name in names:
        actor = EchoActor(name) if name.startswith("echo") else DriverActor(name)
        actor.bind(bus)
        bus.register(actor, BoxKeyPair.from_seed(seed32("b" + name)))
        actors[name] = actor
    return bus, actors


class TestDeterminism:
    def run_once(self, seed):
        bus, actors = build(BusConfig(seed=seed, latency_min=1, latency_max=4))
        driver = actors["driver"]
        driver.start_session("s", driver.script("echo", 5))
        final = bus.run_until_quiescent()
        trace = [(e.tick, e.actor, e.kind, tuple(sorted(e.detail.items()))) for e in bus.trace.events]
        return final, driver.log, trace

    def test_same_seed_identical_trace(self):
        assert self.run_once(11) == self.run_once(11)

    def test_different_seed_different_timing_same_outcome(self):
        final_a, log_a, trace_a = self.run_once(11)
        final_b, log_b, trace_b = self.run_once(12)
        assert log_a == log_b == [0, 1, 2, 3, 4, "done"]
        assert trace_a != trace_b

    def test_latency_within_bounds(self):
        bus, actors = build(BusConfig(seed=5, latency_min=2, latency_max=6))
        driver = actors["driver"]
        driver.start_session("s", driver.script("echo", 3))
        bus.run_until_quiescent()
        sends = {}
        for e in bus.trace.events:
            if e.kind == "bus.send":
                sends[e.detail["seq"]] = e.tick
            elif e.kind == "bus.deliver":
                delay = e.tick - sends[e.detail["seq"]]
                assert 2 <= delay <= 6

    def test_no_pending_events_means_zero_additional_ticks(self):
        bus, _ = build(BusConfig(seed=1))
        assert bus.run_until_quiescent() == 0


class TestFaults:
    def test_full_drop_rate_delivers_nothing(self):
        bus, actors = build(BusConfig(seed=3, drop_rate=1.0))
        driver = actors["driver"]
        driver.start_session("s", driver.script("echo", 2))
        bus.run_until_quiescent()
        assert driver.log[:2] == [None, None]
        assert actors["echo"].seen == []
        assert any(e.kind == "bus.drop" for e in bus.trace.events)

    def test_tampered_envelope_discarded_with_trace(self):
        rule = FaultRule(action="tamper", kind="ping", occurrence=1)
        bus, actors = build(BusConfig(seed=3, rules=[rule]))
        driver = actors["driver"]
        driver.start_session("s", driver.script("echo", 2))
        bus.run_until_quiescent()
        # first ping lost to tampering (timeout), second succeeds
        assert driver.log[:2] == [None, 1]
        kinds = [e.kind for e in bus.trace.events]
        assert "bus.tamper" in kinds and "bus.reject_tampered" in kinds
        # the tampered envelope never reached the actor
        assert [ping.n for _, ping in actors["echo"].seen] == [1]

    def test_duplicate_rule_delivers_twice(self):
        rule = FaultRule(action="duplicate", kind="ping", occurrence=1)
        bus, actors = build(BusConfig(seed=3, rules=[rule]))
        driver = actors["driver"]
        driver.start_session("s", driver.script("echo", 1))
        bus.run_until_quiescent()
        assert [ping.n for _, ping in actors["echo"].seen] == [0, 0]
        # Both pongs reach the driver; the second is a late reply and is dropped.
        pongs = [
            e for e in bus.trace.events
            if e.kind == "bus.deliver" and e.detail["msg_kind"] == "pong"
        ]
        assert len(pongs) == 2
        assert driver.log == [0, "done"]

    def test_delay_rule_postpones_delivery(self):
        # Each Request times out after 40 ticks: a 20-tick delay stays inside
        # it, a 60-tick delay does not. Each delay runs in a fresh bus.
        for delay, log in ((20, [0, 1, "done"]), (60, [None, None, "done"])):
            rule = FaultRule(action="delay", kind="ping", delay=delay)
            bus, actors = build(BusConfig(seed=3, latency_min=1, latency_max=1, rules=[rule]))
            driver = actors["driver"]
            driver.start_session("s", driver.script("echo", 2))
            bus.run_until_quiescent()
            deliver = next(e for e in bus.trace.events if e.kind == "bus.deliver")
            assert deliver.tick >= delay + 1
            pongs = [
                e for e in bus.trace.events
                if e.kind == "bus.deliver" and e.detail["msg_kind"] == "pong"
            ]
            assert len(pongs) == 2
            # After a timeout, the first pong arrives while the session waits
            # for the second one, and must not resume it.
            assert driver.log == log

    def test_occurrence_matches_nth_only(self):
        rule = FaultRule(action="drop", kind="ping", occurrence=2)
        bus, actors = build(BusConfig(seed=3, rules=[rule]))
        driver = actors["driver"]
        driver.start_session("s", driver.script("echo", 3))
        bus.run_until_quiescent()
        assert driver.log[:3] == [0, None, 2]

    def test_unknown_endpoint_rejected(self):
        bus, actors = build(BusConfig(seed=1))
        with pytest.raises(UnknownEndpoint):
            bus.send("driver", "ghost", "ping", b"x")

    def test_tick_ceiling_detects_runaway(self):
        bus, _ = build(BusConfig(seed=1))

        class Looper(Actor):
            def on_delivery(self, sender, plaintext, kind):
                # fire a fresh message back forever: a livelock
                self.bus.send(self.address, sender, "ping", ping_message())

        for address in ("pa", "pb"):
            actor = Looper(address)
            actor.bind(bus)
            bus.register(actor, BoxKeyPair.from_seed(seed32("x" + address)))
        bus.send("pa", "pb", "ping", ping_message())
        with pytest.raises(TickCeilingExceeded):
            bus.run_until_quiescent(tick_ceiling=200)


class TestConfidentialityAndAuthenticity:
    def test_payload_plaintext_never_in_trace(self):
        bus, actors = build(BusConfig(seed=5))
        driver = actors["driver"]
        marker = "very-secret-payload-marker-76b1c2d9e0f3"

        def script():
            reply = yield Request("echo", "ping", Ping(1, marker), timeout=40)
            return reply

        driver.start_session("s", script())
        bus.run_until_quiescent()
        dump = "\n".join(e.to_json() for e in bus.trace.events)
        assert marker not in dump
        assert Ping(1, marker).to_bytes().hex() not in dump

    def test_bus_events_carry_only_digests(self):
        bus, actors = build(BusConfig(seed=5))
        driver = actors["driver"]
        driver.start_session("s", driver.script("echo", 2))
        bus.run_until_quiescent()
        from idplane.trace import BUS_EVENT_KEYS

        for e in bus.trace.events:
            if e.kind.startswith("bus."):
                assert set(e.detail) <= BUS_EVENT_KEYS

    def test_sealed_payload_only_opens_for_the_addressed_pair(self):
        from cryptography.exceptions import InvalidTag

        bus, _ = build(BusConfig(seed=5), names=("echo", "echo2", "driver"))
        plaintext = b"for echo only"
        ciphertext = bus._seal(Header("driver", "echo", 17, "ping"), plaintext)
        header = Header("driver", "echo", 17, "ping").to_bytes()
        assert bus._cipher_for("driver", "echo").decrypt(
            bus._nonce(17), ciphertext, header
        ) == plaintext
        with pytest.raises(InvalidTag):
            bus._cipher_for("driver", "echo2").decrypt(bus._nonce(17), ciphertext, header)
        with pytest.raises(InvalidTag):
            bus._cipher_for("echo", "driver").decrypt(bus._nonce(17), ciphertext, header)
        # the header is associated data: the same pair cannot open it under another kind
        with pytest.raises(InvalidTag):
            bus._cipher_for("driver", "echo").decrypt(
                bus._nonce(17), ciphertext, Header("driver", "echo", 17, "pong").to_bytes()
            )

    def test_a_pair_makes_one_exchange_for_both_directions(self, monkeypatch):
        """Each endpoint's private key is built once, at register, and a pair
        seals both directions from one X25519 exchange under two keys."""
        built, exchanges = [], []
        x25519 = bus_mod.X25519PrivateKey

        class Counting:
            def __init__(self, key):
                self.key = key

            @staticmethod
            def from_private_bytes(data):
                built.append(data)
                return Counting(x25519.from_private_bytes(data))

            def public_key(self):
                return self.key.public_key()

            def exchange(self, peer):
                exchanges.append(peer)
                return self.key.exchange(peer)

        keys = {name: BoxKeyPair.from_seed(seed32("b" + name)) for name in ("echo", "driver")}
        monkeypatch.setattr(bus_mod, "X25519PrivateKey", Counting)
        bus = SimBus(BusConfig(seed=5))
        actors = {"echo": EchoActor("echo"), "driver": DriverActor("driver")}
        for name, actor in actors.items():
            actor.bind(bus)
            bus.register(actor, keys[name])
        assert len(built) == 2
        actors["driver"].start_session("s", actors["driver"].script("echo", 3))
        bus.run_until_quiescent()
        assert actors["driver"].log == [0, 1, 2, "done"]
        assert len(built) == 2
        assert len(exchanges) == 1
        header = Header("driver", "echo", 9, "ping").to_bytes()
        ciphertext = bus._cipher_for("driver", "echo").encrypt(bus._nonce(9), b"x", header)
        with pytest.raises(InvalidTag):
            bus._cipher_for("echo", "driver").decrypt(bus._nonce(9), ciphertext, header)

    def test_each_header_is_encoded_once(self, monkeypatch):
        """One encoding per envelope both seals and opens it."""
        encodes = []
        codec = enc._codec(Header)
        encode = codec.encode
        monkeypatch.setattr(codec, "encode", lambda h: encodes.append(h) or encode(h))
        bus, actors = build(BusConfig(seed=5))
        actors["driver"].start_session("s", actors["driver"].script("echo", 3))
        bus.run_until_quiescent()
        sends = [e for e in bus.trace.events if e.kind == "bus.send"]
        assert actors["driver"].log == [0, 1, 2, "done"]
        assert len(encodes) == len(sends) == 6

    def test_each_ciphertext_is_hashed_once(self, monkeypatch):
        """The envelope keeps its ciphertext's digest: the send and the
        deliver event name it without hashing it again, even for a duplicate."""
        hashed = []
        digest = crypto.digest
        monkeypatch.setattr(crypto, "digest", lambda data: hashed.append(data) or digest(data))
        rule = FaultRule(action="duplicate", kind="pong", occurrence=1)
        bus, actors = build(BusConfig(seed=5, rules=[rule]))
        actors["driver"].start_session("s", actors["driver"].script("echo", 3))
        bus.run_until_quiescent()
        sends = [e for e in bus.trace.events if e.kind == "bus.send"]
        delivered = [e for e in bus.trace.events if e.kind == "bus.deliver"]
        assert len(delivered) == len(sends) + 1 == 7
        assert len(hashed) == len(sends)
        digests = {e.detail["seq"]: e.detail["payload_digest"] for e in sends}
        assert all(e.detail["payload_digest"] == digests[e.detail["seq"]] for e in delivered)

    def test_a_tampered_copy_carries_its_own_digest(self):
        bus, _ = build(BusConfig(seed=5))
        bus.send("driver", "echo", "ping", ping_message())
        env = heapq.heappop(bus._queue)[3]
        flipped = replace(env, ciphertext=bytes([env.ciphertext[0] ^ 1]) + env.ciphertext[1:])
        assert env.digest == crypto.digest(env.ciphertext)
        assert flipped.digest == crypto.digest(flipped.ciphertext) != env.digest

    def test_relabelled_kind_is_rejected(self):
        bus, actors = build(BusConfig(seed=5))
        seq = bus.send("driver", "echo", "ping", ping_message())
        time, order, event, env = heapq.heappop(bus._queue)
        assert env.header.seq == seq and env.header.kind == "ping"
        relabelled = replace(env, header=replace(env.header, kind="pong"))
        heapq.heappush(bus._queue, (time, order, event, relabelled))
        bus.run_until_quiescent()
        rejected = [e for e in bus.trace.events if e.kind == "bus.reject_tampered"]
        assert [(e.detail["seq"], e.detail["msg_kind"]) for e in rejected] == [(seq, "pong")]
        assert not any(e.kind == "bus.deliver" for e in bus.trace.events)
        assert actors["echo"].seen == []


class TestGatherSemantics:
    def test_gather_early_exit_and_partial_results(self):
        bus, actors = build(BusConfig(seed=9), names=("echo0", "echo1", "echo2", "driver"))
        driver = actors["driver"]
        results_box = {}

        def script():
            results = yield Gather(
                tuple((f"echo{i}", "ping", Ping(i)) for i in range(3)),
                timeout=50,
                early=lambda rs: sum(r is not None for r in rs) >= 2,
            )
            results_box["r"] = results

        driver.start_session("s", script())
        bus.run_until_quiescent()
        got = results_box["r"]
        assert len(got) == 3
        assert sum(r is not None for r in got) >= 2

    def test_gather_timeout_returns_nones(self):
        rule = FaultRule(action="drop", to="echo1")
        bus, actors = build(BusConfig(seed=9, rules=[rule]), names=("echo0", "echo1", "driver"))
        driver = actors["driver"]
        results_box = {}

        def script():
            results = yield Gather(
                tuple((f"echo{i}", "ping", Ping(i)) for i in range(2)), timeout=30
            )
            results_box["r"] = results

        driver.start_session("s", script())
        bus.run_until_quiescent()
        assert results_box["r"][0] is not None
        assert results_box["r"][1] is None


class TestJoinSemantics:
    @staticmethod
    def after(host, ticks, value, ended):
        yield Sleep(ticks)
        ended.append((value, host.bus.now))
        return value

    def test_join_on_ended_sessions_resumes_at_once(self):
        bus, actors = build(BusConfig(seed=9), names=("echo", "host"))
        host = actors["host"]

        def ended_with(value):
            return value
            yield  # a session that ends on its first step

        sessions = (host.start_session("a", ended_with(1)),
                    host.start_session("b", ended_with(2)))
        box = {}

        def waiter():
            box["r"] = yield Join(sessions)

        record = host.start_session("w", waiter())
        assert record.done and box["r"] == [1, 2]
        assert bus.now == 0 and not bus.trace.events

    def test_results_come_back_in_session_order(self):
        bus, actors = build(BusConfig(seed=9), names=("echo", "host"))
        host = actors["host"]
        ended = []
        sessions = (host.start_session("slow", self.after(host, 9, "slow", ended)),
                    host.start_session("fast", self.after(host, 2, "fast", ended)))
        box = {}

        def waiter():
            box["r"] = yield Join(sessions)

        host.start_session("w", waiter())
        bus.run_until_quiescent()
        assert [value for value, _ in ended] == ["fast", "slow"]
        assert box["r"] == ["slow", "fast"]

    def test_waiter_resumes_only_when_the_last_session_ends(self):
        bus, actors = build(BusConfig(seed=9), names=("echo", "host"))
        host = actors["host"]
        ended = []
        sessions = tuple(
            host.start_session(f"s{t}", self.after(host, t, t, ended)) for t in (3, 7, 5)
        )
        resumed = []

        def waiter():
            yield Join(sessions)
            resumed.append(bus.now)

        host.start_session("w", waiter())
        bus.run_until_quiescent()
        assert ended == [(3, 3), (5, 5), (7, 7)]
        assert resumed == [7]

    def test_error_of_a_joined_session_is_raised_in_the_waiter(self):
        bus, actors = build(BusConfig(seed=9), names=("echo", "host"))
        host = actors["host"]

        def failing():
            yield Sleep(2)
            raise ValueError("boom")

        sessions = (host.start_session("ok", self.after(host, 4, "ok", [])),
                    host.start_session("bad", failing()))
        caught = []

        def waiter():
            try:
                yield Join(sessions)
            except ValueError as e:
                caught.append((str(e), bus.now))

        host.start_session("w", waiter())
        bus.run_until_quiescent()
        assert caught == [("boom", 4)]


    def test_a_failed_session_keeps_its_error_but_not_its_bus(self):
        """A failed session's error keeps no traceback, whose frames would
        lead back to the session's record and up the stack to the bus."""
        gc.disable()
        try:
            bus, actors = build(BusConfig(seed=9), names=("echo", "host"))

            def failing():
                yield Sleep(2)
                raise ValueError("boom")

            record = actors["host"].start_session("bad", failing())
            bus.run_until_quiescent()
            assert str(record.error) == "boom" and record.error.__traceback__ is None
            dropped = weakref.ref(bus)
            del bus, actors, record
            assert dropped() is None
        finally:
            gc.enable()


class CallerActor(Actor):
    """Calls `call(*token)` for each timer token inside the bus loop and keeps
    what it returns; a token None raises instead."""

    def __init__(self, address, call):
        super().__init__(address)
        self.call = call
        self.results = []

    def on_timer(self, token):
        if token is None:
            raise RuntimeError("actor failed")
        self.results.append(self.call(*token))


def caller_bus(call, *tokens):
    """A bus whose actor "caller" calls `call` on each token in turn."""
    bus, _ = build(BusConfig(seed=5), names=())
    caller = CallerActor("caller", call)
    caller.bind(bus)
    bus.register(caller, BoxKeyPair.from_seed(seed32("bcaller")))
    for i, token in enumerate(tokens):
        bus.schedule_timer("caller", i + 1, token)
    return bus, caller


def in_run(call, *tokens):
    """Call `call` on each token in turn inside one bus run; returns the bus
    and the results."""
    bus, caller = caller_bus(call, *tokens)
    bus.run_until_quiescent()
    return bus, caller.results


def verify_in_run(*checks):
    return in_run(crypto.verify, *checks)


@pytest.fixture
def executed(monkeypatch):
    """The triples Ed25519 actually checks, in order."""
    ran = []
    ed25519 = crypto._ed25519_verify

    def counting(*triple):
        ran.append(triple)
        return ed25519(*triple)

    monkeypatch.setattr(crypto, "_ed25519_verify", counting)
    return ran


class TestVerdictMemo:
    keys = crypto.KeyPair.from_seed(seed32("signer"))
    other = crypto.KeyPair.from_seed(seed32("other"))
    message = b"statement"
    sig = keys.sign(message)
    flipped = crypto.Signature(bytes([sig.bytes_[0] ^ 1]) + sig.bytes_[1:])

    def test_a_cached_success_does_not_carry_over_to_a_changed_triple(self, executed):
        good = (self.keys.public_key, self.message, self.sig)
        bus, verdicts = verify_in_run(
            good, good,
            (self.keys.public_key, self.message + b"!", self.sig),
            (self.other.public_key, self.message, self.sig),
            (self.keys.public_key, self.message, self.flipped),
            good,
        )
        assert verdicts == [True, True, False, False, False, True]
        assert len(executed) == len(bus._verdicts) == 4
        assert sorted(bus._verdicts.values()) == [False, False, False, True]

    def test_a_bad_signature_is_rejected_on_its_second_check(self, executed):
        bad = (self.keys.public_key, self.message, self.flipped)
        bus, verdicts = verify_in_run(bad, bad)
        assert verdicts == [False, False]
        assert bus._verdicts == {(self.keys.public_key, self.message, self.flipped.bytes_): False}
        assert len(executed) == 1

    def test_malformed_input_is_false_without_raising(self, executed):
        checks = (
            (self.keys.public_key, self.message, crypto.Signature(self.sig.bytes_, "rsa")),
            (self.keys.public_key[:31], self.message, self.sig),
            (self.keys.public_key, self.message, crypto.Signature(self.sig.bytes_[:63])),
            (self.keys.public_key, self.message.decode(), self.sig),
            (self.keys.public_key, None, self.sig),
        )
        bus, verdicts = verify_in_run(*checks)
        assert verdicts == [False] * len(checks)
        assert [crypto.verify(*check) for check in checks] == [False] * len(checks)
        assert bus._verdicts == {} and executed == []

    def test_two_worlds_from_one_identity_seed_share_no_entry(self, executed):
        memos = []
        for _ in range(2):
            runner = harness.ScenarioRunner(scenario_config("concurrent-commit"))
            assert runner.run().ok
            memos.append(runner.world.bus._verdicts)
        assert memos[0] is not memos[1] and memos[0] == memos[1]
        # the second world runs Ed25519 on every triple the first one did.
        # 36 triples: Buyer and Seller challenge Carrier a tick apart, under
        # two statement nonces, so Carrier signs a presentation for each (33
        # while registry reads asked two replicas and the bus's latency draws
        # put both challenges in one tick, under one nonce)
        in_run = [t for t in executed if t in memos[0]]
        assert len(in_run) == 2 * len(memos[0]) == 72

    def test_no_memo_is_active_after_a_run_returns_or_raises(self):
        checks = [(self.keys.public_key, self.message, self.sig)]
        verify_in_run(*checks)
        assert crypto._verdicts is None
        outer = {}
        with crypto.verdict_memo(outer):
            bus, _ = verify_in_run(*checks)
            assert crypto._verdicts is outer
        assert outer == {} and len(bus._verdicts) == 1

        bus, _ = caller_bus(crypto.verify, checks[0], None)
        with pytest.raises(RuntimeError):
            bus.run_until_quiescent()
        assert crypto._verdicts is None and len(bus._verdicts) == 1
        bus.schedule_timer("caller", 500, checks[0])
        with pytest.raises(TickCeilingExceeded):
            bus.run_until_quiescent(tick_ceiling=100)
        assert crypto._verdicts is None

    def test_a_verify_outside_a_run_leaves_the_memo_untouched(self, executed):
        bus, _ = verify_in_run((self.keys.public_key, self.message, self.sig))
        before = dict(bus._verdicts)
        other_sig = self.other.sign(self.message)
        assert crypto.verify(self.other.public_key, self.message, other_sig)
        assert crypto.verify(self.keys.public_key, self.message, self.sig)
        assert bus._verdicts == before and len(executed) == 3


def decode(cls, data):
    """The record of class `cls` that `data` encodes, or the error it raises."""
    try:
        return cls.from_bytes(data)
    except enc.DecodeError as e:
        return e


def decode_in_run(*tokens):
    return in_run(decode, *tokens)


class TestDecodeMemo:
    keys = crypto.KeyPair.from_seed(seed32("signer"))
    cert = crypto.Certificate.sign(keys, "leaf", keys.public_key, "root", 1, 2)
    data = cert.to_bytes()

    def test_a_repeat_inside_a_run_is_the_same_record(self):
        token = (crypto.Certificate, self.data)
        bus, decoded = decode_in_run(token, token)
        assert decoded[0] is decoded[1] and decoded[0] == self.cert
        assert bus._decoded == {(crypto.Certificate, self.data): self.cert}

    def test_the_memo_is_consulted_only_inside_a_run(self):
        bus, decoded = decode_in_run((crypto.Certificate, self.data))
        assert enc._decoded is None
        outside = [crypto.Certificate.from_bytes(self.data) for _ in range(2)]
        assert outside[0] is not outside[1] and outside[0] is not decoded[0]
        assert outside[0].to_bytes() is self.data
        assert list(bus._decoded.values()) == decoded

    def test_an_undecodable_string_is_not_kept(self):
        bad = self.data[:-1]
        bus, decoded = decode_in_run((crypto.Certificate, bad), (crypto.Certificate, bad))
        assert [type(e) for e in decoded] == [enc.DecodeError, enc.DecodeError]
        assert decoded[0] is not decoded[1]
        assert bus._decoded == {}

    def test_the_outer_memo_is_restored_after_a_run_returns_or_raises(self):
        outer = {}
        with enc.decode_memo(outer):
            bus, _ = decode_in_run((crypto.Certificate, self.data))
            assert enc._decoded is outer
            with enc.decode_memo({}):
                crypto.Certificate.from_bytes(self.data)
            assert enc._decoded is outer
        assert enc._decoded is None
        assert outer == {} and len(bus._decoded) == 1

        bus, _ = caller_bus(decode, (crypto.Certificate, self.data), None)
        with pytest.raises(RuntimeError):
            bus.run_until_quiescent()
        assert enc._decoded is None and len(bus._decoded) == 1

    def test_two_worlds_from_one_identity_seed_share_no_entry(self):
        memos = []
        for _ in range(2):
            runner = harness.ScenarioRunner(scenario_config("concurrent-commit"))
            assert runner.run().ok
            memos.append(runner.world.bus._decoded)
        assert memos[0] is not memos[1] and memos[0] == memos[1]
        assert not any(memos[0][key] is memos[1][key] for key in memos[0])
