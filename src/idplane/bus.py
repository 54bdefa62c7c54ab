"""Deterministic simulated message bus.

Single-threaded discrete-event loop delivering authenticated, sealed envelopes
between registered endpoints. Latency, drops, and scripted faults (drop,
tamper, duplicate, delay) are sampled from a seeded RNG, so identical seed and
fault script reproduce an identical delivery order and an identical trace.

Each payload is sealed with ChaCha20Poly1305 under a key derived for one
sender->recipient pair by static-static X25519, with the bus-global sequence
number as nonce and the header (from, to, seq, kind) as associated data. The
AEAD tag is the envelope's only authenticator: only that pair can produce it,
and it covers both the header and the ciphertext. Tampered or re-labelled
envelopes fail the tag check at delivery and are discarded with a trace
event; the plaintext never appears in bus trace events, only its digest.
A header, like every Record, keeps its encoding once made, so one encoding
both seals and opens its envelope. The plaintext is an `actors.Message`
record, which leaves the kind to the header.

Each bus owns two memos of its world and installs them only while
`run_until_quiescent` runs: the Ed25519 verdict memo (`crypto.verdict_memo`)
and the decode memo (`encoding.decode_memo`). Every actor still checks every
signature it is shown and decodes every record it receives, but the process
runs Ed25519 once per distinct (key, message, signature) triple and decodes
once per distinct (record class, bytes) pair per world; actors that receive
the same bytes share one frozen record, which also keeps those bytes. Both
memos live as long as their bus; verifies and decodes outside the loop, and
every other world, never see them.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field, replace

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from . import crypto
from . import encoding as enc
from .trace import TraceLog


class TransportError(Exception):
    pass


class UnknownEndpoint(TransportError):
    pass


class TickCeilingExceeded(TransportError):
    """Livelock detector: the event queue outran the tick ceiling."""


@dataclass(frozen=True)
class BoxKeyPair:
    """An endpoint's X25519 key pair, held as its 32-byte seed: `SimBus.register`
    builds the private key once and derives the public key from it."""

    secret_key: bytes

    @staticmethod
    def from_seed(seed: bytes) -> "BoxKeyPair":
        return BoxKeyPair(secret_key=seed)


@dataclass(frozen=True)
class Header(enc.Record):
    """An envelope's header, bound to its ciphertext as AEAD associated data."""

    TAG = enc.TAG_ENVELOPE
    from_: str
    to: str
    seq: int
    kind: str


@dataclass(frozen=True)
class Envelope:
    """A sealed message. `digest`, the ciphertext's hash that the trace
    records, is computed once per envelope; a copy made by `replace` (a
    tampered one) computes its own."""

    header: Header
    ciphertext: bytes
    digest: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "digest", crypto.digest(self.ciphertext))


@dataclass
class FaultRule:
    """Match by sender/recipient/message kind; apply to the nth matching
    envelope (occurrence, 1-based), the first `times` matches, or all."""

    action: str  # drop | tamper | duplicate | delay
    from_: str | None = None
    to: str | None = None
    kind: str | None = None
    occurrence: int | None = None
    times: int | None = None
    delay: int = 1
    hits: int = 0

    def matches(self, header: Header) -> bool:
        if self.from_ is not None and header.from_ != self.from_:
            return False
        if self.to is not None and header.to != self.to:
            return False
        if self.kind is not None and header.kind != self.kind:
            return False
        self.hits += 1
        if self.occurrence is not None:
            return self.hits == self.occurrence
        if self.times is not None:
            return self.hits <= self.times
        return True

    def label(self) -> str:
        return f"{self.action}:{self.from_ or '*'}>{self.to or '*'}:{self.kind or '*'}"


@dataclass
class BusConfig:
    seed: int = 0
    latency_min: int = 1
    latency_max: int = 3
    drop_rate: float = 0.0
    rules: list[FaultRule] = field(default_factory=list)


_DELIVER = 0
_TIMER = 1


class SimBus:
    """Event loop owning all actors. Actors never block; everything they do is
    a reaction to a delivered envelope or a timer."""

    def __init__(self, config: BusConfig, trace: TraceLog | None = None):
        self.config = config
        self.trace = trace if trace is not None else TraceLog()
        self.now = 0
        self.rng = random.Random(config.seed)
        self._queue: list[tuple[int, int, int, object]] = []
        self._order = 0
        self._seq = 0
        self._timer_ids = 0
        self._cancelled: set[int] = set()
        self._actors: dict[str, object] = {}
        # endpoint -> its X25519 private key and public key, built at register
        self._box_keys: dict[str, tuple[X25519PrivateKey, X25519PublicKey]] = {}
        # (lower, higher) endpoint -> the pair's X25519 shared secret
        self._pair_secrets: dict[tuple[str, str], bytes] = {}
        self._pair_ciphers: dict[tuple[str, str], ChaCha20Poly1305] = {}
        # this world's Ed25519 verdicts, active only inside run_until_quiescent
        self._verdicts: dict[tuple[bytes, bytes, bytes], bool] = {}
        # this world's decoded records, active only inside run_until_quiescent
        self._decoded: dict[tuple[type, bytes], enc.Record] = {}

    # --- registration --------------------------------------------------

    def register(self, actor, box_keys: BoxKeyPair) -> None:
        address = actor.address
        if address in self._actors:
            raise TransportError(f"duplicate endpoint {address}")
        private = X25519PrivateKey.from_private_bytes(box_keys.secret_key)
        self._actors[address] = actor
        self._box_keys[address] = (private, private.public_key())

    # --- sealing ---------------------------------------------------------

    def _cipher_for(self, sender: str, recipient: str) -> ChaCha20Poly1305:
        cached = self._pair_ciphers.get((sender, recipient))
        if cached is not None:
            return cached
        # X25519 is symmetric, so both directions of a pair share one
        # exchange; the HKDF info below still gives each direction its key
        pair = (sender, recipient) if sender < recipient else (recipient, sender)
        secret = self._pair_secrets.get(pair)
        if secret is None:
            secret = self._box_keys[sender][0].exchange(self._box_keys[recipient][1])
            self._pair_secrets[pair] = secret
        key = HKDF(
            algorithm=hashes.SHA256(),
            length=32,
            salt=None,
            info=b"idplane-seal:" + sender.encode() + b">" + recipient.encode(),
        ).derive(secret)
        cipher = ChaCha20Poly1305(key)
        self._pair_ciphers[(sender, recipient)] = cipher
        return cipher

    @staticmethod
    def _nonce(seq: int) -> bytes:
        return seq.to_bytes(12, "big")

    def _seal(self, header: Header, plaintext: bytes) -> bytes:
        return self._cipher_for(header.from_, header.to).encrypt(
            self._nonce(header.seq), plaintext, header.to_bytes()
        )

    def _unseal(self, env: Envelope) -> bytes | None:
        header = env.header
        try:
            return self._cipher_for(header.from_, header.to).decrypt(
                self._nonce(header.seq), env.ciphertext, header.to_bytes()
            )
        except InvalidTag:
            return None

    # --- scheduling -------------------------------------------------------

    def _push(self, time: int, kind: int, item) -> None:
        heapq.heappush(self._queue, (time, self._order, kind, item))
        self._order += 1

    def send(self, sender: str, to: str, kind: str, plaintext: bytes) -> int:
        """Seal and schedule an envelope. Returns its sequence number."""
        if sender not in self._actors:
            raise UnknownEndpoint(sender)
        if to not in self._actors:
            raise UnknownEndpoint(to)
        seq = self._seq
        self._seq += 1
        header = Header(sender, to, seq, kind)
        ciphertext = self._seal(header, plaintext)
        env = Envelope(header, ciphertext)
        self.trace.record(
            self.now, sender, "bus.send",
            **{"from": sender, "to": to, "seq": seq, "msg_kind": kind,
               "payload_digest": env.digest.hex()},
        )

        deliveries = 1
        extra_delay = 0
        for rule in self.config.rules:
            if not rule.matches(header):
                continue
            if rule.action == "drop":
                self.trace.record(
                    self.now, "bus", "bus.drop",
                    **{"from": sender, "to": to, "seq": seq, "msg_kind": kind,
                       "rule": rule.label()},
                )
                return seq
            if rule.action == "tamper":
                flipped = bytearray(ciphertext)
                flipped[seq % len(flipped)] ^= 0x01
                env = replace(env, ciphertext=bytes(flipped))
                self.trace.record(
                    self.now, "bus", "bus.tamper",
                    **{"from": sender, "to": to, "seq": seq, "msg_kind": kind,
                       "rule": rule.label()},
                )
            elif rule.action == "duplicate":
                deliveries = 2
            elif rule.action == "delay":
                extra_delay += rule.delay

        if self.config.drop_rate > 0 and self.rng.random() < self.config.drop_rate:
            self.trace.record(
                self.now, "bus", "bus.drop",
                **{"from": sender, "to": to, "seq": seq, "msg_kind": kind,
                   "rule": "drop_rate"},
            )
            return seq

        for _ in range(deliveries):
            latency = self.rng.randint(self.config.latency_min, self.config.latency_max)
            self._push(self.now + latency + extra_delay, _DELIVER, env)
        return seq

    def schedule_timer(self, address: str, delay: int, token) -> int:
        self._timer_ids += 1
        timer_id = self._timer_ids
        self._push(self.now + max(1, delay), _TIMER, (timer_id, address, token))
        return timer_id

    def cancel_timer(self, timer_id: int) -> None:
        self._cancelled.add(timer_id)

    # --- event loop -------------------------------------------------------

    def run_until_quiescent(self, tick_ceiling: int = 100_000) -> int:
        """Process the queue in (time, order) sequence until empty. Returns the
        final tick; raises TickCeilingExceeded if events outlive the ceiling.
        Signature checks and record decodes made meanwhile share this world's
        verdict memo and decode memo."""
        with crypto.verdict_memo(self._verdicts), enc.decode_memo(self._decoded):
            while self._queue:
                time, _, kind, item = heapq.heappop(self._queue)
                if kind == _TIMER and item[0] in self._cancelled:
                    self._cancelled.discard(item[0])
                    continue
                if time > tick_ceiling:
                    raise TickCeilingExceeded(f"event at tick {time} > ceiling {tick_ceiling}")
                self.now = max(self.now, time)
                if kind == _TIMER:
                    _, address, token = item
                    actor = self._actors.get(address)
                    if actor is not None:
                        actor.on_timer(token)
                    continue
                env: Envelope = item
                header = env.header
                actor = self._actors.get(header.to)
                if actor is None:
                    continue
                plaintext = self._unseal(env)
                if plaintext is None:
                    self.trace.record(
                        self.now, header.to, "bus.reject_tampered",
                        **{"from": header.from_, "to": header.to, "seq": header.seq,
                           "msg_kind": header.kind},
                    )
                    continue
                self.trace.record(
                    self.now, header.to, "bus.deliver",
                    **{"from": header.from_, "to": header.to, "seq": header.seq,
                       "msg_kind": header.kind,
                       "payload_digest": env.digest.hex()},
                )
                actor.on_delivery(header.from_, plaintext, header.kind)
            return self.now
