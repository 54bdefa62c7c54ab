"""Structured run traces: append-only event log, JSONL emission, and replay
verification against trace invariants (monotone ticks, digest-only bus events,
endorsement completeness for ledger commits, each applied commit newer than its
record's last, an error named by every failed session, one tx digest and outcome
per registry sequence number across an IIN's replicas). Every scenario run
checks its own trace against these rules; `verify-trace` checks a file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .encoding import canonical_json

# Bus-level events may carry only routing metadata and digests, never payloads.
BUS_EVENT_KEYS = {"from", "to", "seq", "msg_kind", "payload_digest", "action", "rule"}


class TraceInvariantViolation(Exception):
    def __init__(self, rule: str, line: int, detail: str):
        self.rule = rule
        self.line = line
        super().__init__(f"{rule} at line {line}: {detail}")


@dataclass(frozen=True)
class TraceEvent:
    tick: int
    actor: str
    kind: str
    detail: dict

    def to_json(self) -> str:
        return canonical_json(
            {"tick": self.tick, "actor": self.actor, "kind": self.kind, "detail": self.detail}
        ).decode("utf-8")

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        obj = json.loads(line)
        return TraceEvent(
            tick=obj["tick"], actor=obj["actor"], kind=obj["kind"], detail=obj["detail"]
        )


@dataclass
class TraceLog:
    events: list[TraceEvent] = field(default_factory=list)

    def record(self, tick: int, actor: str, kind: str, **detail) -> None:
        self.events.append(TraceEvent(tick=tick, actor=actor, kind=kind, detail=detail))

    def write(self, path: str | Path) -> None:
        Path(path).write_text("".join(e.to_json() + "\n" for e in self.events), encoding="utf-8")


def read_trace(path: str | Path) -> list[TraceEvent]:
    events = []
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(TraceEvent.from_json(line))
        except (json.JSONDecodeError, KeyError) as e:
            raise TraceInvariantViolation("well-formed", i, str(e))
    return events


def verify_events(events: list[TraceEvent]) -> list[tuple[str, int, str]]:
    """Replay a trace against its invariants. Returns violations as
    (rule, line, message); an empty list means the trace is consistent."""
    violations: list[tuple[str, int, str]] = []
    last_tick = -1
    network_orgs: dict[str, set[str]] = {}
    # (network, foreign network, foreign org) -> tick of its last APPLIED commit
    applied_at: dict[tuple, int] = {}
    # (iin, seq) -> (tx digest, outcome, replica) of the first commit seen
    registry_commits: dict[tuple, tuple] = {}
    for i, ev in enumerate(events, start=1):
        if ev.tick < last_tick:
            violations.append(
                ("monotone-tick", i, f"tick {ev.tick} after {last_tick}")
            )
        last_tick = max(last_tick, ev.tick)

        if ev.kind == "scenario.start":
            try:
                network_orgs = {
                    net: set(orgs) for net, orgs in json.loads(ev.detail["networks"]).items()
                }
            except (KeyError, json.JSONDecodeError, AttributeError):
                violations.append(("scenario-start", i, "malformed networks map"))

        if ev.kind.startswith("bus."):
            extra = set(ev.detail) - BUS_EVENT_KEYS
            if extra:
                violations.append(
                    ("bus-digest-only", i, f"disallowed bus detail keys: {sorted(extra)}")
                )

        if ev.kind == "registry.commit":
            key = (ev.detail.get("iin"), ev.detail.get("seq"))
            tx_digest, outcome = ev.detail.get("tx_digest"), ev.detail.get("outcome")
            first = registry_commits.setdefault(key, (tx_digest, outcome, ev.actor))
            if first[:2] != (tx_digest, outcome):
                violations.append((
                    "registry-commit-agree",
                    i,
                    f"{key[0]} seq {key[1]}: {ev.actor} committed {tx_digest} {outcome}, "
                    f"{first[2]} committed {first[0]} {first[1]}",
                ))

        if ev.kind == "session.failed" and not ev.detail.get("error"):
            violations.append(("session-failed-named", i, "failed session names no error"))

        if ev.kind == "ledger.commit" and ev.detail.get("outcome") in ("APPLIED", "NOOP"):
            required = network_orgs.get(ev.detail.get("network", ""), set())
            endorsers = set(filter(None, ev.detail.get("endorsers", "").split(",")))
            if not required:
                violations.append(
                    ("endorsement-complete", i, "commit for unknown network")
                )
            elif not required <= endorsers:
                violations.append(
                    (
                        "endorsement-complete",
                        i,
                        f"missing endorsers {sorted(required - endorsers)}",
                    )
                )
            # the contract applies only a statement made after its record's
            # last APPLIED commit: an older one was held across that commit
            key = tuple(ev.detail.get(k) for k in ("network", "foreign_network", "foreign_org"))
            made_at = ev.detail.get("made_at")
            if not isinstance(made_at, int):
                violations.append(("commit-current", i, "commit names no made_at"))
            elif ev.detail["outcome"] == "APPLIED":
                if made_at <= applied_at.get(key, -1):
                    violations.append(("commit-current", i, f"{key} made at {made_at}"))
                applied_at[key] = ev.tick
    return violations


def verify_trace(path: str | Path) -> list[tuple[str, int, str]]:
    return verify_events(read_trace(path))
