"""Outside-in tracing: wraps the program's module and class attributes with
span-recording shims, from the benchmark's side only.

Every cross-module call in idplane goes through a module attribute
(`crypto.verify`, `enc.record`, `registry.quorum_query`, ...) or a class
attribute looked up on an instance (`SimBus.send`, `Actor.on_delivery`), so
replacing those attributes sees every call. Two kinds of span are kept in
memory:

- wall spans (name, start, end, parent) for synchronous calls, and for each
  resume segment of a wrapped generator, so that work done inside a protocol
  step nests under it;
- tick spans (name, start tick, end tick, parent) for generator protocols
  (registry reads and submits, agent phases), timed on the bus clock.

Self time is a span's duration minus the time its direct child spans cover.
Spans are written out as gzipped JSON lines by `write`.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.bus = None  # the SimBus of the world being driven, for ticks
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("i")
        self.tk_name = array("i")
        self.tk_start = array("q")
        self.tk_end = array("q")
        self.tk_parent = array("i")
        self.tk_failed = array("b")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._gstack: list[int] = []  # open tick spans, innermost last
        self.self_s: dict[int, float] = defaultdict(float)
        self.incl_s: dict[int, float] = defaultdict(float)
        self.calls: Counter = Counter()  # finished wall spans per name
        self.gen_calls: Counter = Counter()  # generator calls per name
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # --- wall spans ---------------------------------------------------------

    def begin(self, nid: int) -> int:
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_parent.append(self._stack[-1][0] if self._stack else -1)
        self.sp_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.sp_start.append(_now())
        return idx

    def end(self, idx: int) -> None:
        t = _now()
        frame = self._stack.pop()
        dur = t - self.sp_start[idx]
        self.sp_end[idx] = t
        nid = self.sp_name[idx]
        self.calls[nid] += 1
        self.incl_s[nid] += dur
        self.self_s[nid] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    # --- tick spans ----------------------------------------------------------

    def tick_begin(self, nid: int) -> int:
        idx = len(self.tk_name)
        self.gen_calls[nid] += 1
        self.tk_name.append(nid)
        self.tk_start.append(self.bus.now if self.bus is not None else 0)
        self.tk_end.append(-1)
        self.tk_parent.append(self._gstack[-1] if self._gstack else -1)
        self.tk_failed.append(0)
        return idx

    def tick_end(self, idx: int, failed: bool) -> None:
        self.tk_end[idx] = self.bus.now if self.bus is not None else 0
        self.tk_failed[idx] = 1 if failed else 0

    def drive(self, nid: int, gen, on_result, on_error):
        """Run `gen` like `yield from gen`, timing it on the bus clock and
        recording each resume segment as a wall span."""
        tidx = self.tick_begin(nid)
        value, exc = None, None
        while True:
            self._gstack.append(tidx)
            sidx = self.begin(nid)
            try:
                effect = gen.throw(exc) if exc is not None else gen.send(value)
            except StopIteration as stop:
                self.end(sidx)
                self._gstack.pop()
                self.tick_end(tidx, False)
                if on_result is not None:
                    on_result(stop.value)
                return stop.value
            except BaseException as error:
                self.end(sidx)
                self._gstack.pop()
                self.tick_end(tidx, True)
                if on_error is not None:
                    on_error(error)
                raise
            self.end(sidx)
            self._gstack.pop()
            try:
                value, exc = (yield effect), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as error:
                value, exc = None, error

    # --- queries -------------------------------------------------------------

    def n_calls(self, name: str) -> int:
        """Calls of a wrapped function; for a generator, calls rather than
        its resume segments."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return self.gen_calls[nid] if nid in self.gen_calls else self.calls[nid]

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def incl_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.incl_s[nid]

    def child_time(self, parent: str, child: str) -> float:
        """Wall time of `child` spans whose direct parent is a `parent` span."""
        pid, cid = self._ids.get(parent), self._ids.get(child)
        if pid is None or cid is None:
            return 0.0
        total = 0.0
        names, parents = self.sp_name, self.sp_parent
        for i in range(len(names)):
            if names[i] == cid and parents[i] >= 0 and names[parents[i]] == pid:
                total += self.sp_end[i] - self.sp_start[i]
        return total

    def tick_spans(self, name: str, parent: str | None = None) -> list[int]:
        """Tick durations of finished `name` spans, optionally only those
        whose direct tick parent is a `parent` span."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        pid = self._ids.get(parent) if parent is not None else None
        if parent is not None and pid is None:
            return []
        out = []
        for i in range(len(self.tk_name)):
            if self.tk_name[i] != nid or self.tk_end[i] < 0:
                continue
            if pid is not None:
                p = self.tk_parent[i]
                if p < 0 or self.tk_name[p] != pid:
                    continue
            out.append(self.tk_end[i] - self.tk_start[i])
        return out

    def exact_counts(self) -> dict[str, int]:
        """Every count that a fixed seed list determines exactly."""
        out = {f"{self.names[nid]}.calls": self.n_calls(self.names[nid]) for nid in self.calls}
        out.update(self.counters)
        return dict(sorted(out.items()))

    def write(self, path: Path) -> int:
        """Write every span as one JSON line; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.sp_name)):
                f.write(
                    f'["w",{self.sp_name[i]},{self.sp_start[i]!r},{self.sp_end[i]!r},'
                    f"{self.sp_parent[i]}]\n"
                )
            for i in range(len(self.tk_name)):
                f.write(
                    f'["t",{self.tk_name[i]},{self.tk_start[i]},{self.tk_end[i]},'
                    f"{self.tk_parent[i]},{self.tk_failed[i]}]\n"
                )
        return len(self.sp_name) + len(self.tk_name)


# --- wrappers -------------------------------------------------------------------


def _wrap_call(tracer: Tracer, name: str, fn, before=None, after=None):
    nid = tracer.name_id(name)
    begin, end = tracer.begin, tracer.end

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        idx = begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _wrap_gen(tracer: Tracer, name: str, fn, before=None, on_result=None, on_error=None):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        return tracer.drive(nid, fn(*args, **kwargs), on_result, on_error)

    return wrapper


class Instrumentation:
    """Installs the wrappers on the idplane modules; `uninstall` restores the
    original attributes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def call(self, owner, attr: str, name: str, before=None, after=None) -> None:
        self._set(owner, attr, _wrap_call(self.tracer, name, getattr(owner, attr), before, after))

    def gen(self, owner, attr: str, name: str, before=None, on_result=None, on_error=None) -> None:
        self._set(
            owner, attr,
            _wrap_gen(self.tracer, name, getattr(owner, attr), before, on_result, on_error),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# (encoding attribute, label) for the domain tags counted per sign and verify
TAGS = (
    ("TAG_ENVELOPE", "envelope"), ("TAG_ACK", "ack"), ("TAG_TX", "tx"),
    ("TAG_ATTESTATION", "attestation"), ("TAG_VP", "vp"),
    ("TAG_MEMBERSHIP_VC", "membership_vc"), ("TAG_MEMBERLIST_VC", "memberlist_vc"),
    ("TAG_CERT", "cert"), ("TAG_ENDORSEMENT", "endorsement"), ("TAG_DATA_PROOF", "data_proof"),
)

SEND_GROUPS = ("registry_read", "registry_write", "agent", "anchor", "ledger")


def send_group(kind: str) -> str:
    if kind.startswith("iin.query"):
        return "registry_read"
    if kind.startswith("iin."):
        return "registry_write"
    if kind.startswith("agent."):
        return "agent"
    if kind.startswith("anchor."):
        return "anchor"
    return "ledger"  # ledger.* and cmdac.*


def _reply_to(plaintext: bytes):
    """The reply_to field of an actor message, read without a full parse.
    Messages are canonical JSON with sorted keys, so the top-level reply_to
    is the last occurrence of the key."""
    at = plaintext.rfind(b'"reply_to":')
    if at < 0:
        return None
    at += len(b'"reply_to":')
    if plaintext[at:at + 1] != b'"':
        return None
    return plaintext[at + 1:plaintext.index(b'"', at + 1)].decode()


def install(tracer: Tracer) -> Instrumentation:
    """Wrap every layer boundary named in BENCHMARK.json's per-layer metrics."""
    from idplane import actors, agent, anchors, bus, credentials, crypto, harness
    from idplane import encoding as enc
    from idplane import network, registry, trace

    inst = Instrumentation(tracer)
    c = tracer.counters
    tags = {getattr(enc, attr): label for attr, label in TAGS}

    # harness
    def world_built(args, _result):
        tracer.bus = args[0].bus

    inst.call(harness.World, "__init__", "harness.world_build", after=world_built)
    inst.call(harness.ScenarioRunner, "_bootstrap", "harness.bootstrap")
    inst.call(harness.ScenarioRunner, "_step_a", "harness.step_a")

    # encoding
    def record_done(_args, result):
        c["encoding.record.bytes"] += len(result)

    inst.call(enc, "record", "encoding.record", after=record_done)

    # crypto
    def signed(args, _result):
        label = tags.get(args[1][0] if args[1] else -1)
        if label is not None:
            c[f"crypto.sign.{label}.calls"] += 1

    def verified(args, result):
        label = tags.get(args[1][0] if args[1] else -1)
        if label is not None:
            c[f"crypto.verify.{label}.calls"] += 1
        if not result:
            c["crypto.verify.rejected"] += 1

    def digested(args, _result):
        c["crypto.digest.bytes"] += len(args[0])

    inst.call(crypto, "sign", "crypto.sign", after=signed)
    inst.call(crypto, "verify", "crypto.verify", after=verified)
    inst.call(crypto, "digest", "crypto.digest", after=digested)
    inst.call(crypto, "verify_certificate_chain", "crypto.chain_verify")
    for attr in ("accumulator_init", "accumulator_add", "accumulator_revoke",
                 "witness_for", "witness_verify"):
        inst.call(crypto, attr, "crypto.accumulator")

    # bus
    def sending(args):
        c["bus.send.bytes"] += len(args[4])
        c[f"bus.send.{send_group(args[3])}.calls"] += 1

    inst.call(bus.SimBus, "send", "bus.send", before=sending)
    inst.call(bus.SimBus, "run_until_quiescent", "bus.loop")

    # trace log
    def recording(args):
        kind = args[3]
        if kind == "bus.deliver":
            c["bus.deliver.calls"] += 1
        elif kind == "bus.drop":
            c["bus.drop.calls"] += 1
        elif kind == "bus.reject_tampered":
            c["bus.reject.calls"] += 1
        elif kind == "session.failed":
            c["actors.sessions.failed"] += 1

    inst.call(trace.TraceLog, "record", "trace.record", before=recording)

    # actors
    def delivering(args):
        actor, plaintext = args[0], args[2]
        rid = _reply_to(plaintext)
        if rid is not None and rid not in actor._waiters and rid not in actor._gather_routes:
            c["actors.late_replies"] += 1

    def timer_firing(args):
        actor, token = args[0], args[1]
        if not isinstance(token, tuple):
            return
        if (token[0] == "req" and token[1] in actor._waiters) or (
            token[0] == "gather" and token[1] in actor._gathers
        ):
            c["actors.timeouts"] += 1

    inst.call(actors.Actor, "on_delivery", "actors.handler", before=delivering)
    inst.call(actors.Actor, "on_timer", "actors.handler", before=timer_firing)
    inst.call(actors.Actor, "start_session", "actors.session_start")

    # registry
    def reading(args):
        what = args[1]
        c[f"registry.read.{'revocation' if what == registry.QUERY_REVOCATION else what}.calls"] += 1

    def read_failed(_error):
        c["registry.read.failed"] += 1

    def submit_failed(_error):
        c["registry.submit.failed"] += 1

    inst.call(registry, "apply_transaction", "registry.apply")
    inst.gen(registry, "quorum_query", "registry.read", before=reading, on_error=read_failed)
    inst.gen(registry, "submit_transaction", "registry.submit", on_error=submit_failed)

    # anchors
    inst.gen(anchors.AnchorService, "_issue_membership", "anchors.issue")
    inst.call(anchors.AnchorService, "_serve_memberlist", "anchors.memberlist")
    inst.call(anchors.AnchorService, "_refresh_witness", "anchors.witness")
    inst.gen(anchors.AnchorService, "revoke_membership", "anchors.revoke")

    # credentials
    def vp_failed(_args):
        c["credentials.verify_vp.failed"] += 1

    inst.call(credentials, "verify_membership_vp", "credentials.verify_vp")
    _count_raises(inst, credentials, "verify_membership_vp", vp_failed)
    inst.call(credentials, "verify_self_signed_vp", "credentials.verify_self_vp")
    inst.call(credentials, "build_membership_vp", "credentials.build_vp")
    inst.call(credentials, "build_self_signed_vp", "credentials.build_vp")

    # agent
    def commit_done(result):
        if result == "DIGEST_MISMATCH":
            c["agent.retries"] += 1

    inst.gen(agent.IinAgent, "_sync_target", "agent.sync_target")
    inst.gen(agent.IinAgent, "_validate_member", "agent.validate")
    inst.gen(agent.IinAgent, "_fetch_identity", "agent.fetch")
    inst.gen(agent.IinAgent, "_commit_identity", "agent.commit", on_result=commit_done)
    inst.gen(agent.IinAgent, "_handle_countersign", "agent.countersign")

    # network
    def cmdac_done(_args, result):
        outcome = result[1]
        if outcome == network.OUTCOME_APPLIED:
            c["network.cmdac.applied"] += 1
        elif outcome == network.OUTCOME_NOOP:
            c["network.cmdac.noop"] += 1
        else:
            c["network.cmdac.rejected"] += 1

    def proof_failed(_args):
        c["network.proof_verify.failed"] += 1

    inst.call(network, "cmdac_update_foreign_identity", "network.cmdac", after=cmdac_done)
    inst.call(network, "generate_data_proof", "network.proof_generate")
    inst.call(network, "verify_data_proof", "network.proof_verify")
    _count_raises(inst, network, "verify_data_proof", proof_failed)
    return inst


def _count_raises(inst: Instrumentation, owner, attr: str, on_raise) -> None:
    """Outermost shim that counts calls ending in an exception; it records no
    span of its own."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception:
            on_raise(args)
            raise

    inst._set(owner, attr, wrapper)
