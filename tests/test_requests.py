"""One request path: every actor serves its `REQUESTS` table through
`Actor._serve`, answers a malformed request with the error's name, and drops a
plaintext that is no message at all, so no bad message ends the bus run."""

import importlib
import inspect
import pkgutil

import pytest

import idplane
from idplane.actors import Actor, Message, Request
from idplane.agent import IinAgent
from idplane.anchors import AnchorService
from idplane.network import Endorsement, LedgerNode
from idplane.registry import IinNode

from conftest import add_probe, bootstrapped_runner

SERVERS = (IinAgent, AnchorService, IinNode, LedgerNode)

# request kind -> a body whose fields are all present, one of them wrong-typed
WRONG_TYPED = {
    "agent.membership_vp.request": {"network_id": 5, "nonce": "00"},
    "agent.countersign.request": {"home_network": "SWT", "statements": 5},
    "anchor.verinym.request": {"org_name": "Seller", "doc": 5},
    "anchor.vc.request": {"holder_did": 5, "network_id": "SWT"},
    "anchor.memberlist.request": {"network_id": 5, "nonce": "00"},
    "anchor.witness.request": {"credential_id": 5},
    "iin.submit": {"txs": "00"},
    "iin.order": {"first": "x", "txs": 5},
    "iin.fetch": {"from": "x", "to": 1},
    "iin.query": {"what": 5, "id": "x"},
    "cmdac.submit": {"statement": 5, "bundle": "00", "endorsements": []},
    "ledger.query": {"what": 5},
}

# request kind -> optional field -> a valid body but for that field, wrong-typed
WRONG_TYPED_OPTIONAL = {
    "agent.membership_vp.request": {
        "epochs": {"network_id": "STL", "nonce": "00", "epochs": {"did:iin:x": "1"}},
        "bundle": {"network_id": "STL", "nonce": "00", "bundle": 1},
    },
}

# request kind -> shape -> (a body of the right types but a malformed value, error)
MALFORMED_VALUE = {
    "iin.submit": {"entry-not-hex": ({"txs": ["zz"]}, "ValueError")},
    "agent.countersign.request": {
        "no-statements": ({"home_network": "SWT", "statements": []}, "ValueError"),
        "statement-not-a-string": ({"home_network": "SWT", "statements": [5]}, "TypeError"),
        "statement-not-hex": ({"home_network": "SWT", "statements": ["zz"]}, "ValueError"),
        "undecodable-statement": ({"home_network": "SWT", "statements": ["00"]}, "DecodeError"),
        "statements-of-two-networks": (
            {
                "home_network": "SWT",
                "statements": [
                    Endorsement(network, "Carrier", "did:x", bytes(32), "ACTIVE", b"n").to_bytes()
                    .hex()
                    for network in ("STL", "OTHER")
                ],
            },
            "ValueError",
        ),
    },
    "cmdac.submit": {
        "undecodable-statement": (
            {"statement": "00", "bundle": "00", "endorsements": []}, "DecodeError"
        ),
    },
}

# Open registry reads answer a malformed body as an ordinary miss or an
# empty fetch, and a replica ignores an order from anyone but its sequencer.
LENIENT = {"iin.query", "iin.fetch"}
UNANSWERED = {"iin.order"}


def server_address(world, cls) -> str:
    if cls is IinAgent:
        return world.agents["Seller"].address
    if cls is AnchorService:
        return world.anchors["AnchorSWT"].address
    if cls is IinNode:
        return next(iter(world.iin_nodes.values()))[0].address  # the sequencer
    return world.ledgers["SWT"].address


ENTRIES = [(cls, kind) for cls in SERVERS for kind in sorted(cls.REQUESTS)]
CASES = [
    (cls, kind, shape, body, error)
    for cls, kind in ENTRIES
    for shape, body, error in [
        ("empty", {}, "KeyError"),
        ("wrong-typed", WRONG_TYPED[kind], "TypeError"),
        *((f"wrong-typed-{name}", b, "TypeError")
          for name, b in WRONG_TYPED_OPTIONAL.get(kind, {}).items()),
        *((shape, b, e) for shape, (b, e) in MALFORMED_VALUE.get(kind, {}).items()),
    ]
]


@pytest.fixture(scope="module")
def served():
    """Two-network after step A, with a probe; shared, as each probe request
    leaves the served state as it was."""
    world = bootstrapped_runner().world
    return world, add_probe(world)


@pytest.mark.parametrize(
    "cls, kind, shape, body, error", CASES,
    ids=[f"{cls.__name__}:{kind}-{shape}" for cls, kind, shape, _, _ in CASES],
)
def test_malformed_request_is_answered_with_the_error_name(
    served, cls, kind, shape, body, error
):
    world, probe = served
    target = server_address(world, cls)
    start, sent_at = len(world.trace.events), world.bus.now
    result = {}

    def ask():
        reply = yield Request(target, kind, body, timeout=10)
        result["reply"] = reply

    probe.start_session("ask", ask())
    world.settle()  # the run goes on: no handler error escapes the bus loop
    failed = [
        e for e in world.trace.events[start:]
        if e.kind == "session.failed" and e.actor == target
    ]
    reply = result["reply"]
    if kind in UNANSWERED:
        assert reply is None and failed == []
        return
    assert reply is not None, f"no reply within 10 ticks of tick {sent_at}"
    assert reply.kind == cls.REQUESTS[kind][1]
    if kind in LENIENT:
        assert "error" not in reply.body and failed == []
        return
    assert reply.body == {"ok": False, "error": error}
    assert [(e.detail["label"], e.detail["error"]) for e in failed] == [(kind, error)]


@pytest.mark.parametrize("plaintext", [
    b"not json",
    b"\xff\xfe",
    b"[]",
    b'{"kind": 5, "body": {}}',
    b'{"kind": "ledger.query", "body": []}',
    b'{"kind": "ledger.query", "body": {}, "reply_to": ["x"]}',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["not-json", "not-utf8", "not-an-object", "kind-not-a-string", "body-not-a-dict",
        "reply-to-not-a-string", "nested-too-deep"])
def test_malformed_plaintext_is_dropped_and_traced(plaintext):
    world = bootstrapped_runner(through_step_a=False).world
    add_probe(world)
    start = len(world.trace.events)
    world.bus.send("probe", "ledger:SWT", "ledger.query", plaintext)
    world.settle()
    dropped = [e for e in world.trace.events[start:] if e.kind == "actor.malformed"]
    assert [(e.actor, e.detail) for e in dropped] == [
        ("ledger:SWT", {"sender": "probe", "msg_kind": "ledger.query"})
    ]


@pytest.mark.parametrize("data", [b'{"kind": "k", "body": {}, "request_id": 3}', b"null"])
def test_message_from_bytes_refuses_a_non_message(data):
    with pytest.raises(ValueError):
        Message.from_bytes(data)


def src_actor_classes() -> list[type]:
    for info in pkgutil.iter_modules(idplane.__path__):
        importlib.import_module(f"idplane.{info.name}")
    found, todo = [], [Actor]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("idplane."):
                found.append(sub)
    return found


def test_each_actor_serves_requests_through_its_table_only():
    classes = src_actor_classes()
    assert set(SERVERS) <= set(classes)
    for cls in classes:
        for kind, (handler, reply_kind) in cls.REQUESTS.items():
            assert inspect.isfunction(getattr(cls, handler, None)), f"{cls.__name__}: {kind}"
            assert reply_kind
        assert "on_message" not in vars(cls), f"{cls.__name__} dispatches by hand"
