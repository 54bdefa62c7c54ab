"""Message-driven actors with generator-based protocol sessions.

Every protocol participant (registry node, trust anchor, agent, ledger) is an
Actor: a state machine that reacts to delivered messages and timers, one event
at a time. Multi-round-trip operations are written as generators that yield
effects (Request, Gather, Join, Sleep); the actor runtime sends envelopes, parks
the generator, and resumes it when replies or timeouts arrive. A Request is a
one-element Gather: both wait on the same path and resume the session with the
reply (or None) once it arrives or the timeout fires. A Join waits for other
sessions of the same actor (started with `start_session`) and resumes with
their results in order when the last of them ends, at once if all have ended;
a joined session that raised is re-raised in the waiter. Sessions interleave
within an actor but each inbound event is processed atomically.

An actor serves each request kind in its `REQUESTS` table as a session
(`_serve`): the handler returns the reply body and the runtime sends it; a
handler that raises is answered with the error's name. A plaintext that is no
message at all is dropped and traced.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Callable, ClassVar, Generator, Optional

from .encoding import canonical_json

DEFAULT_TIMEOUT = 120

Session = Generator  # yields effects, receives results

_ID_TYPES = (str, type(None))


@dataclass(frozen=True)
class Message:
    kind: str
    body: dict
    request_id: Optional[str] = None
    reply_to: Optional[str] = None

    def to_bytes(self) -> bytes:
        return canonical_json(
            {
                "kind": self.kind,
                "body": self.body,
                "request_id": self.request_id,
                "reply_to": self.reply_to,
            }
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Message":
        """Raises ValueError unless `data` is a JSON object with a string
        `kind`, a dict `body` and string-or-null request ids."""
        obj = json.loads(data.decode("utf-8"))
        if not isinstance(obj, dict):
            raise ValueError("not an actor message")
        msg = Message(obj.get("kind"), obj.get("body"), obj.get("request_id"), obj.get("reply_to"))
        if not (
            isinstance(msg.kind, str)
            and isinstance(msg.body, dict)
            and isinstance(msg.request_id, _ID_TYPES)
            and isinstance(msg.reply_to, _ID_TYPES)
        ):
            raise ValueError("not an actor message")
        return msg

    def fields(self, *names: str) -> tuple:
        """The named body fields; raises KeyError or TypeError unless each is a string."""
        values = tuple([self.body[name] for name in names])
        for value in values:
            if not isinstance(value, str):
                raise TypeError(f"{self.kind}: {', '.join(names)} must be strings")
        return values


# --- effects yielded by sessions ---------------------------------------------


@dataclass(frozen=True)
class Request:
    """Send one message; resume with the reply Message, or None on timeout.
    The runtime waits on it as a one-element Gather."""

    to: str
    kind: str
    body: dict
    timeout: int = DEFAULT_TIMEOUT


@dataclass(frozen=True)
class Gather:
    """Send several messages; resume with a list of replies aligned to the
    requests (None where missing) once `early` is satisfied, all replies are
    in, or the timeout fires."""

    requests: tuple[tuple[str, str, dict], ...]  # (to, kind, body)
    timeout: int = DEFAULT_TIMEOUT
    early: Optional[Callable[[list], bool]] = None


@dataclass(frozen=True)
class Sleep:
    ticks: int


@dataclass
class SessionRecord:
    sid: int
    label: str
    gen: Session
    done: bool = False
    result: object = None
    error: Optional[BaseException] = None
    joiners: list[int] = field(default_factory=list)  # sids parked on a Join


@dataclass(frozen=True)
class Join:
    """Wait for sessions of this actor; resume with their results in order
    once every one has ended (at once if all have), or raise the first
    joined session's error."""

    sessions: tuple[SessionRecord, ...]


@dataclass
class _GatherWait:
    sid: int
    results: list
    rids: list[str]
    pending: int
    early: Optional[Callable[[list], bool]]
    timer_id: int
    single: bool  # the effect was a Request: resume with results[0]


class Actor:
    """Base class: binds to a bus, serves requests, and drives sessions."""

    # request kind -> (handler method name, reply kind); see _serve
    REQUESTS: ClassVar[dict[str, tuple[str, str]]] = {}

    def __init__(self, address: str):
        self.address = address
        self._bus = lambda: None
        self.rng = None
        self._sessions: dict[int, SessionRecord] = {}  # running sessions only
        self._next_sid = 0
        self._next_rid = 0
        self._gathers: dict[int, _GatherWait] = {}
        self._gather_routes: dict[str, tuple[int, int]] = {}
        self._waiters = self._gather_routes  # perfbench/tracer.py reads this name
        self._next_gather = 0
        self._joins: dict[int, tuple[SessionRecord, ...]] = {}  # waiter sid -> joined

    def bind(self, bus, rng) -> None:
        self._bus = weakref.ref(bus)
        self.rng = rng

    @property
    def bus(self):
        """The bus this actor is bound to, held weakly, as the bus owns its
        actors; None before `bind` or once the bus is gone."""
        return self._bus()

    # --- subclass surface --------------------------------------------------

    def on_message(self, sender: str, msg: Message) -> None:
        """Serve a request kind named in REQUESTS; ignore any other message."""
        entry = self.REQUESTS.get(msg.kind)
        if entry is not None:
            self.start_session(msg.kind, self._serve(sender, msg, *entry))

    def _serve(self, sender: str, msg: Message, handler: str, reply_kind: str) -> Session:
        """Run the handler and send the body it returns as the `reply_kind`
        reply; for a handler that returns None no reply is sent. A handler
        that raises is answered with the error's name, and the error
        re-raised so that the runtime traces `session.failed`."""
        try:
            body = getattr(self, handler)(sender, msg)
            if isinstance(body, GeneratorType):
                body = yield from body
        except Exception as error:
            self.reply(sender, msg, reply_kind, {"ok": False, "error": type(error).__name__})
            raise
        if body is not None:
            self.reply(sender, msg, reply_kind, body)

    # --- helpers -------------------------------------------------------------

    def trace(self, kind: str, **detail) -> None:
        self.bus.trace.record(self.bus.now, self.address, kind, **detail)

    def nonce(self) -> bytes:
        return self.rng.randbytes(16)

    def reply(self, to: str, request: Message, kind: str, body: dict) -> None:
        msg = Message(kind=kind, body=body, reply_to=request.request_id)
        self.bus.send(self.address, to, kind, msg.to_bytes())

    def start_session(self, label: str, gen: Session) -> SessionRecord:
        self._next_sid += 1
        record = SessionRecord(sid=self._next_sid, label=label, gen=gen)
        self._sessions[record.sid] = record
        self._advance(record.sid, None)
        return record

    # --- runtime -------------------------------------------------------------

    def _new_rid(self) -> str:
        self._next_rid += 1
        return f"{self.address}#{self._next_rid}"

    def _send_message(self, to: str, kind: str, body: dict, rid: Optional[str]) -> None:
        msg = Message(kind=kind, body=body, request_id=rid)
        self.bus.send(self.address, to, kind, msg.to_bytes())

    def _advance(self, sid: int, value, exc: Optional[BaseException] = None) -> None:
        record = self._sessions.get(sid)
        if record is None:
            return
        while True:
            try:
                effect = record.gen.throw(exc) if exc is not None else record.gen.send(value)
            except StopIteration as stop:
                record.result = stop.value
                self._end(record)
                return
            except Exception as error:  # session-level protocol failure
                record.error = error.with_traceback(None)  # its frames hold the bus
                self.trace(
                    "session.failed",
                    label=record.label,
                    error=type(error).__name__,
                    detail=str(error),
                )
                self._end(record)
                return
            exc = None
            single = isinstance(effect, Request)
            if single:
                effect = Gather(((effect.to, effect.kind, effect.body),), effect.timeout)
            if isinstance(effect, Gather):
                if not effect.requests:
                    value = []
                    continue
                self._next_gather += 1
                gid = self._next_gather
                timer = self.bus.schedule_timer(self.address, effect.timeout, ("gather", gid))
                wait = _GatherWait(
                    sid=sid,
                    results=[None] * len(effect.requests),
                    rids=[],
                    pending=len(effect.requests),
                    early=effect.early,
                    timer_id=timer,
                    single=single,
                )
                self._gathers[gid] = wait
                for i, (to, kind, body) in enumerate(effect.requests):
                    rid = self._new_rid()
                    wait.rids.append(rid)
                    self._gather_routes[rid] = (gid, i)
                    self._send_message(to, kind, body, rid)
                return
            if isinstance(effect, Join):
                running = [s for s in effect.sessions if not s.done]
                if not running:
                    value, exc = _join_outcome(effect.sessions)
                    continue
                self._joins[sid] = effect.sessions
                for joined in running:
                    joined.joiners.append(sid)
                return
            if isinstance(effect, Sleep):
                self.bus.schedule_timer(self.address, effect.ticks, ("sleep", sid))
                return
            raise TypeError(f"unknown effect {effect!r} from session {record.label}")

    def _end(self, record: SessionRecord) -> None:
        """Forget an ended session, and resume each session joined on it whose
        joined sessions have now all ended."""
        record.done = True
        del self._sessions[record.sid]
        for waiter in record.joiners:
            sessions = self._joins.get(waiter)
            if sessions is not None and all(s.done for s in sessions):
                del self._joins[waiter]
                self._advance(waiter, *_join_outcome(sessions))

    def on_delivery(self, sender: str, plaintext: bytes, kind: str) -> None:
        """Route one delivered plaintext (sent under envelope kind `kind`)."""
        try:
            msg = Message.from_bytes(plaintext)
        except (ValueError, RecursionError):  # json.loads recurses per nesting level
            self.trace("actor.malformed", sender=sender, msg_kind=kind)
            return
        rid = msg.reply_to
        if rid is None:
            self.on_message(sender, msg)
            return
        route = self._gather_routes.pop(rid, None)
        if route is None:
            return  # reply to a request that already timed out
        gid, index = route
        gather = self._gathers[gid]
        gather.results[index] = msg
        gather.pending -= 1
        if gather.pending == 0 or (gather.early and gather.early(gather.results)):
            self._finish_gather(gid)

    def _finish_gather(self, gid: int) -> None:
        gather = self._gathers.pop(gid, None)
        if gather is None:
            return
        self.bus.cancel_timer(gather.timer_id)
        for rid in gather.rids:
            self._gather_routes.pop(rid, None)
        self._advance(gather.sid, gather.results[0] if gather.single else gather.results)

    def on_timer(self, token) -> None:
        kind, key = token
        if kind == "gather":
            self._finish_gather(key)
        else:  # "sleep"
            self._advance(key, None)


def _join_outcome(sessions: tuple[SessionRecord, ...]) -> tuple[list, Optional[BaseException]]:
    error = next((s.error for s in sessions if s.error is not None), None)
    return [s.result for s in sessions], error
