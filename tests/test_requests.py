"""One request path: every actor serves its `REQUESTS` table through
`Actor._serve`, which decodes each body as its kind's record and answers a
body that does not decode, or a request its handler refuses, with the
error's name; a plaintext that is no message at all is dropped and traced.
No bad message ends the bus run."""

import importlib
import inspect
import pkgutil
import random

import pytest

import idplane
from idplane import actors, crypto
from idplane import encoding as enc
from idplane.actors import Actor, Gather, Message, Reply, Request
from idplane.agent import CountersignRequest, IinAgent
from idplane.anchors import AnchorService, VcRequest, WitnessRequest
from idplane.credentials import Challenge
from idplane.network import CommitRequest, Endorsed, Endorsement, LedgerNode, LedgerQuery
from idplane.registry import (
    DidDocument, Entries, Fetch, IinNode, MemberSnapshot, Order, Query, QueryResult,
    RegistryTransaction, SignedBatch,
)

from conftest import Raw, add_probe, ask, bootstrapped_runner

SERVERS = (IinAgent, AnchorService, IinNode, LedgerNode)


def endorsement(network="STL", home="SWT"):
    return Endorsement(home, network, "Carrier", "did:x", bytes(32), "ACTIVE", 0)


BATCH = SignedBatch(
    (RegistryTransaction("NYM", b"payload", "did:x"),), crypto.Signature(bytes(64))
)

# request kind -> a well-formed body of that kind
EXAMPLES = {
    "agent.countersign.request": CountersignRequest((endorsement(),)),
    "agent.membership_vp.request": Challenge("STL", bytes(16), (("did:x", 1),), 1),
    "anchor.memberlist.request": Challenge("SWT", bytes(16)),
    "anchor.vc.request": VcRequest("did:x", "SWT", (DidDocument("did:x", (b"k",), "e", ()),)),
    "anchor.witness.request": WitnessRequest(bytes(32)),
    "cmdac.submit": CommitRequest(
        ((endorsement(), b"bundle"),), (("Seller", Endorsed((bytes(32),)), bytes(64)),)
    ),
    "iin.fetch": Fetch(0, 0),
    "iin.order": Order(0, BATCH),
    "iin.query": Query("member", ("did:x",), (), (), (), ()),
    "iin.submit": BATCH,
    "ledger.query": LedgerQuery("STL"),
}
KINDS = sorted(EXAMPLES)
# request kind -> the kind whose example body it is sent as its "another kind's
# record" case. Bodies carry no tag, so one whose fields read as this kind's
# decodes as it (see REFUSED): each kind here gets a body that does not.
OTHER = {
    "agent.countersign.request": "agent.membership_vp.request",
    "agent.membership_vp.request": "anchor.vc.request",
    "anchor.memberlist.request": "anchor.vc.request",
    "anchor.vc.request": "anchor.witness.request",
    "anchor.witness.request": "cmdac.submit",
    "cmdac.submit": "iin.fetch",
    "iin.fetch": "iin.order",
    "iin.order": "iin.query",
    "iin.query": "iin.submit",
    "iin.submit": "ledger.query",
    "ledger.query": "agent.countersign.request",
}


def undecodable_statements(*head: bytes) -> Raw:
    """A body whose one statement frame holds a byte that is no statement."""
    return Raw(b"".join(head) + enc.encode_list([enc.encode_bytes(b"\x00")]))


# request kind -> shape -> (a body its handler refuses, or that does not
# decode for one nested record, and the error named)
REFUSED = {
    "agent.countersign.request": {
        "no-statements": (CountersignRequest(()), "ValueError"),
        "statements-of-two-networks": (
            CountersignRequest((endorsement("STL"), endorsement("OTHER"))), "ValueError"
        ),
        "statements-for-two-ledgers": (
            CountersignRequest((endorsement(), endorsement(home="OTHER"))), "ValueError"
        ),
        "undecodable-statement": (undecodable_statements(), "DecodeError"),
    },
    "cmdac.submit": {
        "undecodable-statement": (
            Raw(
                enc.encode_list([enc.encode_bytes(b"\x00") + enc.encode_bytes(b"")])
                + enc.encode_list([])
            ),
            "DecodeError",
        ),
        "undecodable-batch": (
            Raw(
                enc.encode_list([enc.encode_bytes(endorsement().to_bytes()) + enc.encode_bytes(b"")])
                + enc.encode_list([enc.encode_str("Seller") + enc.encode_bytes(b"\x00")
                                   + enc.encode_bytes(bytes(64))])
            ),
            "DecodeError",
        ),
    },
    "iin.submit": {
        "no-transactions": (SignedBatch((), crypto.Signature(b"")), "EmptyBatch"),
        "undecodable-transaction": (undecodable_statements(), "DecodeError"),
    },
}


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
        ("another-kinds-record", EXAMPLES[OTHER[kind]], "DecodeError"),
        ("truncated", Raw(EXAMPLES[kind].to_bytes()[:-1]), "DecodeError"),
        ("trailing-bytes", Raw(EXAMPLES[kind].to_bytes() + b"\x00"), "DecodeError"),
        *((shape, b, e) for shape, (b, e) in REFUSED.get(kind, {}).items()),
    ]
]


@pytest.fixture(scope="module")
def served():
    """Two-network after step A, with a probe; shared, as each probe request
    leaves the served state as it was."""
    world = bootstrapped_runner().world
    return world, add_probe(world)


def failed_sessions(world, actor, start) -> list:
    return [
        (e.detail["label"], e.detail["error"]) for e in world.trace.events[start:]
        if e.kind == "session.failed" and e.actor == actor
    ]


# the errors a handler answers with by returning them: its session ends well
RETURNED = {"NotRepresented"}


def test_every_request_kind_has_an_example_and_another_kinds_body():
    assert sorted(kind for _, kind in ENTRIES) == KINDS == sorted(OTHER)
    for cls, kind in ENTRIES:
        body = cls.REQUESTS[kind][1]
        assert isinstance(EXAMPLES[kind], body)
        assert not isinstance(EXAMPLES[OTHER[kind]], body)


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
    # the run goes on: no handler error escapes the bus loop
    reply = ask(probe, world, target, kind, body, timeout=10)
    assert reply is not None, f"no reply within 10 ticks of tick {sent_at}"
    assert reply == Reply(error)
    raised = [] if error in RETURNED else [(kind, error)]
    assert failed_sessions(world, target, start) == raised


# Open registry reads answer a read of nothing with nothing, and a replica
# ignores an order from anyone but its sequencer.
QUIET = [
    ("iin.query", Query("did", ("did:x",), (), (), (), ()),
     Reply("", QueryResult(MemberSnapshot((), (), (), ()).to_bytes()))),
    ("iin.fetch", Fetch(1, 0), Reply("", Entries(()))),
    ("iin.order", EXAMPLES["iin.order"], None),
]


@pytest.mark.parametrize("kind, body, expected", QUIET, ids=[kind for kind, _, _ in QUIET])
def test_a_read_of_nothing_or_a_strangers_order_fails_no_session(served, kind, body, expected):
    world, probe = served
    target = server_address(world, IinNode)
    start = len(world.trace.events)
    assert ask(probe, world, target, kind, body, timeout=10) == expected
    assert failed_sessions(world, target, start) == []


def ledger_query_message() -> bytes:
    body = LedgerQuery("STL").to_bytes()
    return Message(request_id="probe#1", body=body).to_bytes()


@pytest.mark.parametrize("plaintext", [
    ledger_query_message()[:-1],
    ledger_query_message() + b"\x00",
    random.Random(0).randbytes(64),
], ids=["truncated", "trailing-bytes", "random-bytes"])
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
    assert [e for e in world.trace.events[start:] if e.kind == "bus.send"][1:] == []


def test_a_request_to_an_address_no_actor_holds_is_a_lost_reply_at_once():
    """The send of a request to an address no actor holds fails, so its slot
    is None at once, as a lost reply's, while the Gather's other requests are
    answered; a Gather with no request left pending resumes at once, and no
    timer waits on it."""
    world = bootstrapped_runner(through_step_a=False).world
    probe = add_probe(world)
    query, result = LedgerQuery("STL"), {}

    def asking():
        result["gathered"] = yield Gather(
            (("ledger:SWT", "ledger.query", query), ("nobody", "ledger.query", query)),
            timeout=600,
        )
        resumed = world.bus.now
        result["alone"] = yield Request("nobody", "ledger.query", query, timeout=600)
        result["ticks"] = world.bus.now - resumed

    probe.start_session("ask", asking())
    end = world.settle()
    answered, lost = result["gathered"]
    assert answered is not None and not answered.error and lost is None
    assert result["alone"] is None and result["ticks"] == 0
    assert end == world.trace.events[-1].tick  # no timer outlives the session


@pytest.mark.parametrize("data", [LedgerQuery("STL").to_bytes(), b""],
                         ids=["a-body-alone", "empty"])
def test_message_read_refuses_a_non_message(data):
    with pytest.raises(enc.DecodeError):
        actors.read(Message, data)


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
        for kind, (handler, body, reply_kind, reply_body) in cls.REQUESTS.items():
            assert inspect.isfunction(getattr(cls, handler, None)), f"{cls.__name__}: {kind}"
            assert issubclass(body, enc.Record) and issubclass(reply_body, enc.Record)
            assert reply_kind
        assert "on_delivery" not in vars(cls), f"{cls.__name__} dispatches by hand"
