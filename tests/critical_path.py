"""The critical path of a sync, read from a run's trace.

`critical_path(events, initiator)` takes the events of one sync step and the
initiator's agent address, and returns the ticks at which that sync's step
D path moved, from the `bus.send` events and the initiator's
`agent.committed` events:

  start       the step's first event
  gate        the initiator's first `iin.query` (its memberlist gate)
  challenged  its last `agent.membership_vp.request` before its first
              countersign request
  request     its first `agent.countersign.request`
  signers     per countersigner that request went to: the request's
              arrival (`request`), its first `iin.query` after it (`gate`,
              None when it read nothing), its last fallback challenge, an
              `agent.membership_vp.request` up to its reply (`challenged`,
              None when it judged every forwarded presentation with no
              send), and that reply (`reply`)
  committed   the initiator's last `agent.committed`

A sync that sent no countersign batch has no path (an empty dict).

Only the sync's first countersign batch is followed. Run it from the
repository root to print each sync step of a bundled scenario, with the
ticks each leg took:

    PYTHONPATH=src python3 tests/critical_path.py [scenario ...]

Pytest does not collect this file (its name does not start with `test_`).
"""

import argparse
from typing import Optional

from idplane import harness

from conftest import scenario_config


def _sends(events, sender: str, kind: str, after: int = -1, until: Optional[int] = None):
    """The ticks of `sender`'s sends of `kind` in `events`, from tick `after`
    on (exclusive) up to tick `until` (inclusive)."""
    return [
        e.tick for e in events
        if e.kind == "bus.send" and e.detail["from"] == sender and e.detail["msg_kind"] == kind
        and e.tick > after and (until is None or e.tick <= until)
    ]


def critical_path(events, initiator: str) -> dict:
    """The critical path of `initiator`'s sync in `events`, one sync step's
    events (module docstring)."""
    sent = [e for e in events if e.kind == "bus.send"]
    request = next((
        e for e in sent
        if e.detail["from"] == initiator and e.detail["msg_kind"] == "agent.countersign.request"
    ), None)
    if request is None:
        return {}  # no batch: every target ended UNCHANGED or failed
    path = {
        "start": events[0].tick,
        "gate": _sends(events, initiator, "iin.query")[0],
        "challenged": max(_sends(events, initiator, "agent.membership_vp.request",
                                 until=request.tick)),
        "request": request.tick,
        "signers": {},
    }
    for e in sent:
        if e.detail["from"] != initiator or e.tick != request.tick or (
            e.detail["msg_kind"] != "agent.countersign.request"
        ):
            continue
        signer = e.detail["to"]
        reply = next(
            r.tick for r in sent
            if r.tick >= request.tick and r.detail["from"] == signer
            and r.detail["to"] == initiator and r.detail["msg_kind"] == "agent.countersign.reply"
        )
        arrived = next(
            d.tick for d in events if d.kind == "bus.deliver" and d.tick >= request.tick
            and d.detail["from"] == initiator and d.detail["to"] == signer
            and d.detail["msg_kind"] == "agent.countersign.request"
        )
        gates = _sends(events, signer, "iin.query", request.tick - 1, reply)
        challenges = _sends(events, signer, "agent.membership_vp.request", request.tick - 1, reply)
        path["signers"][signer] = {
            "request": arrived,
            "gate": gates[0] if gates else None,
            "challenged": max(challenges, default=None),
            "reply": reply,
        }
    path["committed"] = max(
        e.tick for e in events if e.actor == initiator and e.kind == "agent.committed"
    )
    return path


def sync_steps(runner: harness.ScenarioRunner):
    """(script step, its events) for each sync step of `runner`'s run."""
    events = runner.world.trace.events
    marks = [i for i, e in enumerate(events) if e.kind == "scenario.step"] + [len(events)]
    for at, end in zip(marks, marks[1:]):
        step = runner.config.script[events[at].detail["index"]]
        if step["step"] == "sync":
            yield step, events[at:end]


def legs(path: dict) -> list[tuple[str, int]]:
    """The ticks between consecutive points of `path`, in order, skipping
    a point it lacks; the countersigner's points are those of the one whose
    reply came last."""
    signer = max(path["signers"].values(), key=lambda s: s["reply"])
    points = [(name, tick) for name, tick in (
        ("start", path["start"]), ("gate", path["gate"]), ("last challenge", path["challenged"]),
        ("countersign request", path["request"]), ("its arrival", signer["request"]),
        ("countersigner's gate", signer["gate"]), ("its fallback challenge", signer["challenged"]),
        ("its reply", signer["reply"]),
        ("committed", path["committed"]),
    ) if tick is not None]
    return [(f"{a} -> {b}", end - begin) for (a, begin), (b, end) in zip(points, points[1:])]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*", default=["two-network"])
    for name in parser.parse_args().scenarios:
        runner = harness.ScenarioRunner(scenario_config(name))
        report = runner.run()
        assert report.ok, report.errors
        for step, events in sync_steps(runner):
            for org in runner._selected_orgs(step.get("initiators", "all"), step["network"]):
                path = critical_path(events, f"agent:{org}")
                if not path:
                    print(f"{name}: {org} syncs {step['foreign']}: no countersign batch")
                    continue
                total = path["committed"] - path["start"]
                print(f"{name}: {org} syncs {step['foreign']} into {step['network']}, "
                      f"{total} ticks")
                print(f"  {path}")
                for leg, ticks in legs(path):
                    print(f"  {leg:45} {ticks:3}")


if __name__ == "__main__":
    main()
