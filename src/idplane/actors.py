"""Message-driven actors with generator-based protocol sessions.

Every protocol participant (registry node, trust anchor, agent, ledger) is an
Actor: a state machine that reacts to delivered messages and timers, one event
at a time. Multi-round-trip operations are written as generators that yield
effects (Request, Gather, Join, Sleep); the actor runtime sends envelopes, parks
the generator, and resumes it when replies or timeouts arrive. A Request is a
one-element Gather: both wait on the same path and resume the session with the
`Reply` (or None) once it arrives or the timeout fires. A request to an
address no actor holds is a lost reply at once: its slot stays None, and a
Gather with no request left pending resumes at once. A Join waits for other
sessions of the same actor (started with `start_session`) and resumes with
their results in order when the last of them ends, at once if all have ended;
a joined session that raised is re-raised in the waiter. Sessions interleave
within an actor but each inbound event is processed atomically.

Every plaintext is a `Message` record and every body a record of its kind, in
the one codec of `encoding`; the envelope header carries the kind. An actor
serves each kind in its `REQUESTS` table as a session (`_serve`) and answers a
body that does not decode as its kind's record, a handler that raises, or one
that returns an error name, with that name. A reply that does not decode
reaches its session as a `Reply` naming the error; a plaintext that is no
message, or a reply from another sender than the one its request went to,
is dropped and traced, so no actor answers in another's place. Messages and
bodies, one per send, are decoded outside the decode memo; the records
nested in them (`enc.Framed`) share it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Any, Callable, ClassVar, Generator, Optional

from . import encoding as enc
from .bus import UnknownEndpoint

DEFAULT_TIMEOUT = 120

Session = Generator  # yields effects, receives results


@dataclass(frozen=True)
class Message(enc.Record):  # an envelope's plaintext: a request, or the reply to one
    TAG = enc.TAG_MESSAGE
    request_id: str = ""
    reply_to: str = ""
    error: str = ""  # the error a reply names, or ""
    body: bytes = b""  # the body record's bytes; none with an error


@dataclass(frozen=True)
class Reply:  # a reply as its session gets it: the error it names, or "" and the body
    error: str
    body: Any = None


def read(cls: type, data: bytes) -> Any:
    """`data` decoded whole as a `cls` record, outside the decode memo."""
    reader = enc.Reader(data)
    value = cls.read(reader)
    reader.done()
    return value


# request kind -> its reply's body record, of every actor class's REQUESTS
_REPLIES: dict[str, type] = {}


# --- effects yielded by sessions ---------------------------------------------


@dataclass(frozen=True)
class Request:
    """Send one message; resume with its Reply, or None on timeout. The
    runtime waits on it as a one-element Gather."""

    to: str
    kind: str
    body: enc.Record
    timeout: int = DEFAULT_TIMEOUT


@dataclass(frozen=True)
class Gather:
    """Send several messages; resume with a list of replies aligned to the
    requests (None where missing) once `early` is satisfied, all replies are
    in, or the timeout fires."""

    requests: tuple[tuple[str, str, enc.Record], ...]  # (to, kind, body)
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

    # request kind -> (handler method name, body record, reply kind, reply body record)
    REQUESTS: ClassVar[dict[str, tuple[str, type, str, type]]] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for kind, (*_, reply_body) in vars(cls).get("REQUESTS", {}).items():
            _REPLIES[kind] = reply_body

    def __init__(self, address: str):
        self.address = address
        self._bus = lambda: None
        self._sessions: dict[int, SessionRecord] = {}  # running sessions only
        self._next_sid = 0
        self._next_rid = 0
        self._gathers: dict[int, _GatherWait] = {}
        # request id -> (gather id, index, the reply's body record, the recipient)
        self._gather_routes: dict[str, tuple[int, int, type, str]] = {}
        self._waiters = self._gather_routes  # perfbench/tracer.py reads this name
        self._next_gather = 0
        self._joins: dict[int, tuple[SessionRecord, ...]] = {}  # waiter sid -> joined

    def bind(self, bus) -> None:
        self._bus = weakref.ref(bus)

    @property
    def bus(self):
        """The bus this actor is bound to, held weakly, as the bus owns its
        actors; None before `bind` or once the bus is gone."""
        return self._bus()

    # --- serving requests ----------------------------------------------------

    def _serve(self, sender: str, msg: Message, handler: str, body: type, reply_kind: str):
        """Run the handler on the request's body, decoded as a `body` record,
        and send the record it returns as the `reply_kind` reply, or a reply
        naming the error name it returns; None sends nothing. A body that
        does not decode, or a handler that raises, is answered with the
        error's name, re-raised so that the runtime traces `session.failed`."""
        try:
            answer = getattr(self, handler)(sender, read(body, msg.body))
            if isinstance(answer, GeneratorType):
                answer = yield from answer
        except Exception as error:
            self._reply(sender, msg, reply_kind, type(error).__name__)
            raise
        if answer is not None:
            self._reply(sender, msg, reply_kind, answer)

    def _reply(self, to: str, request: Message, kind: str, answer) -> None:
        """Send `answer`, a body record or an error name, as the reply to `request`."""
        if isinstance(answer, str):
            reply = Message(reply_to=request.request_id, error=answer)
        else:
            reply = Message(reply_to=request.request_id, body=answer.to_bytes())
        self.bus.send(self.address, to, kind, reply.to_bytes())

    # --- helpers -------------------------------------------------------------

    def trace(self, kind: str, **detail) -> None:
        self.bus.trace.record(self.bus.now, self.address, kind, **detail)

    def start_session(self, label: str, gen: Session) -> SessionRecord:
        record = self._new_session(label, gen)
        self._advance(record.sid, None)
        return record

    def _new_session(self, label: str, gen: Session) -> SessionRecord:
        """A session of `gen`, not yet run: `_advance(record.sid, None)` starts it."""
        self._next_sid += 1
        record = self._sessions[self._next_sid] = SessionRecord(self._next_sid, label, gen)
        return record

    # --- runtime -------------------------------------------------------------

    def _new_rid(self) -> str:
        self._next_rid += 1
        return f"{self.address}#{self._next_rid}"

    def _advance(self, sid: int, value, exc: Optional[BaseException] = None) -> None:
        """Run session `sid` to its next wait or its end. It ends after the
        `try`, not in a handler: an error raised in a joiner it wakes would
        take the exception handled there as its context, whose traceback
        holds this frame and the stack up to the bus."""
        record = self._sessions.get(sid)
        if record is None:
            return
        while True:
            try:
                effect = record.gen.throw(exc) if exc is not None else record.gen.send(value)
            except StopIteration as stop:
                record.result = stop.value
                break
            except Exception as error:  # session-level protocol failure
                record.error = error.with_traceback(None)  # its frames hold the bus
                self.trace(
                    "session.failed",
                    label=record.label,
                    error=type(error).__name__,
                    detail=str(error),
                )
                break
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
                    self._gather_routes[rid] = (gid, i, _REPLIES[kind], to)
                    message = Message(request_id=rid, body=body.to_bytes())
                    try:
                        self.bus.send(self.address, to, kind, message.to_bytes())
                    except UnknownEndpoint:  # no actor holds `to`: a lost reply
                        del self._gather_routes[rid]
                        wait.pending -= 1
                if not wait.pending:
                    self._finish_gather(gid)
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
        self._end(record)

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
            msg = read(Message, plaintext)
        except enc.DecodeError:
            self.trace("actor.malformed", sender=sender, msg_kind=kind)
            return
        if not msg.reply_to:
            entry = self.REQUESTS.get(kind)
            if entry is not None:
                handler, body, reply_kind, _ = entry
                self.start_session(kind, self._serve(sender, msg, handler, body, reply_kind))
            return
        route = self._gather_routes.get(msg.reply_to)
        if route is None:
            return  # reply to a request that already timed out
        gid, index, reply_body, recipient = route
        if sender != recipient:  # request ids are guessable: only the one asked answers
            self.trace("actor.foreign_reply", sender=sender, expected=recipient, msg_kind=kind)
            return
        del self._gather_routes[msg.reply_to]
        try:
            reply = Reply(msg.error, None if msg.error else read(reply_body, msg.body))
        except enc.DecodeError as error:
            reply = Reply(type(error).__name__)
        gather = self._gathers[gid]
        gather.results[index] = reply
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
