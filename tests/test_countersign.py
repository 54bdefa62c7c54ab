"""The countersigner's decision table.

Seller's agent answers one statement of STL's Carrier into SWT, alone in its
batch, with its three inputs replaced: the ledger's records
(`_ledger_records`), the memberlist gate (`_fetch_memberlist`) and the
holder's validation (`_validate_member`). Each row fixes one combination of
those inputs and of Seller's own state (its last verified list and its
cached identity), and pins the answer and whether the holder was validated.

A REVOKED statement is endorsed only when the holder's validation was
refuted: a validation that could not check the holder (`MemberUnreachable`,
`QuorumUnavailable`, `InconsistentReplicas`) refuses it by name.

The hint rows (`HINT_ROWS`) keep Seller's real gate and validation and vary
the initiator's hints, which choose where and at which epochs an early
challenge goes: each ends with the answer Seller gives with no hint.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from idplane import agent as agent_mod
from idplane import credentials as creds
from idplane import network as net
from idplane import registry
from idplane.bus import FaultRule

STATED = b"\x01" * 32  # the statement's bundle digest
OTHER = b"\x02" * 32
SNAPSHOT = object()  # the gate's registry read, passed on to each validation
LYING_DID = "did:iin:lying"  # a REVOKED statement's own holder DID, never judged

SIGNED = agent_mod.Answer("signed")


def refused(reason):
    return agent_mod.Answer("validation_failed", reason=reason)


def mismatch(own_digest):
    return agent_mod.Answer("digest_mismatch", own_digest=own_digest)


# a validation's outcome: the identity it checked (org, digest), or its error
VALIDATIONS = {
    "pass": ("Carrier", STATED),
    "stale": ("Carrier", OTHER),
    "other-org": ("Seller", STATED),
    "refuted": creds.MembershipVerificationError(6, "revoked"),
    "bad-presentation": agent_mod.BadPresentation("holder: DecodeError"),
    "unreachable": agent_mod.MemberUnreachable("no reply"),
    "quorum": registry.QuorumUnavailable("lost read"),
    "replicas": registry.InconsistentReplicas("split read"),
}

# a cached identity of the holder: (org, digest)
CACHED = {"same": ("Carrier", STATED), "digest": ("Carrier", OTHER), "org": ("Seller", STATED)}

# (status, records, gate, listed, cached, validation) -> (answer, validated)
#   records: the ledger's record of Carrier: "match", "other" (another
#     digest), "missing", or "lost" (the read failed); None for ACTIVE,
#     which reads no records
#   gate: "reused" (Seller's last list lists the holder; nothing is read),
#     "read" (a fresh list), "refreshed" (a fresh list read though Seller's
#     last list lists the holder), "lost" (the read failed); a batch
#     holding a REVOKED statement reads it alongside its records, always
#   listed: the holder is on the list the batch judges it by
ROWS = [
    # ACTIVE, Seller's last list reused: the cached identity decides
    ("ACTIVE", None, "reused", True, "same", None, SIGNED, False),
    ("ACTIVE", None, "reused", True, "digest", None, mismatch(OTHER), False),
    ("ACTIVE", None, "reused", True, "org", None, refused("OrgMismatch"), False),
    # ACTIVE, a fresh list read
    ("ACTIVE", None, "read", True, "same", None, SIGNED, False),
    ("ACTIVE", None, "read", True, "digest", None, mismatch(OTHER), False),
    ("ACTIVE", None, "read", True, "org", None, refused("OrgMismatch"), False),
    ("ACTIVE", None, "read", False, "same", None, refused("NotListed"), False),
    ("ACTIVE", None, "read", False, None, None, refused("NotListed"), False),
    ("ACTIVE", None, "read", True, None, "pass", SIGNED, True),
    ("ACTIVE", None, "read", True, None, "stale", mismatch(OTHER), True),
    ("ACTIVE", None, "read", True, None, "other-org", refused("OrgMismatch"), True),
    ("ACTIVE", None, "read", True, None, "refuted",
     refused("MembershipVerificationError"), True),
    ("ACTIVE", None, "read", True, None, "bad-presentation", refused("BadPresentation"), True),
    ("ACTIVE", None, "read", True, None, "unreachable", refused("MemberUnreachable"), True),
    ("ACTIVE", None, "read", True, None, "quorum", refused("QuorumUnavailable"), True),
    # ACTIVE, the gate's read failed
    ("ACTIVE", None, "lost", True, None, None, refused("QuorumUnavailable"), False),
    ("ACTIVE", None, "lost", True, "same", None, refused("QuorumUnavailable"), False),
    # REVOKED settled by the records read, whose gate is read alongside it
    ("REVOKED", "lost", "read", True, None, None, refused("LedgerUnreachable"), False),
    ("REVOKED", "other", "read", True, None, None, mismatch(OTHER), False),
    ("REVOKED", "missing", "read", True, None, None, mismatch(b""), False),
    # REVOKED matching its record: the fresh list and the re-validation decide
    ("REVOKED", "match", "lost", True, None, None, refused("QuorumUnavailable"), False),
    ("REVOKED", "match", "read", False, None, None, SIGNED, False),
    ("REVOKED", "match", "read", True, None, "pass", refused("MemberStillValid"), True),
    ("REVOKED", "match", "read", True, None, "refuted", SIGNED, True),
    ("REVOKED", "match", "read", True, "same", "refuted", SIGNED, True),
    ("REVOKED", "match", "read", True, None, "bad-presentation", SIGNED, True),
    ("REVOKED", "match", "read", True, None, "unreachable", refused("MemberUnreachable"), True),
    ("REVOKED", "match", "read", True, None, "quorum", refused("QuorumUnavailable"), True),
    ("REVOKED", "match", "read", True, None, "replicas",
     refused("InconsistentReplicas"), True),
    # a REVOKED statement reads a fresh list even when the last one lists
    # the holder: here the fresh list no longer does
    ("REVOKED", "match", "refreshed", False, "same", None, SIGNED, False),
]


def row_id(row):
    return "-".join(str(v) for v in row[:6] if v is not None)


class Inputs:
    """Seller's agent with its records read, memberlist gate and holder
    validation replaced as one row says; records each gate read and each
    validation made."""

    def __init__(self, world, status, records, gate, listed, cached, validation):
        self.seller = seller = world.agents["Seller"]
        self.holder = world.org_dids["Carrier"]
        self.gate_reads, self.validations = [], []
        fresh = SimpleNamespace(member_dids=(self.holder,) if listed else ())
        if gate in ("reused", "refreshed"):
            seller._memberlists["STL"] = SimpleNamespace(member_dids=(self.holder,))
        else:
            seller._memberlists.pop("STL", None)
        if cached is not None:
            org, digest = CACHED[cached]
            seller.cache[("STL", self.holder)] = self.identity(org, digest)
        record = {
            "match": self.identity("Carrier", STATED, "REVOKED"),
            "other": self.identity("Carrier", OTHER, "REVOKED"),
        }.get(records)

        def ledger_records(home_network, foreign_network):
            yield from ()
            if records == "lost":
                raise agent_mod.LedgerUnreachable(home_network)
            return [] if record is None else [record]

        def fetch_memberlist(home_network, foreign_network):
            self.gate_reads.append(foreign_network)
            yield from ()
            if gate == "lost":
                raise registry.QuorumUnavailable("gate")
            return fresh, SNAPSHOT

        def validate_member(
            home_network, foreign_network, target_did, memberlist=None, with_bundle=False,
            snapshot=None, early=None,
        ):
            # the real check's precondition: a list given must list the target
            if memberlist is not None and target_did not in memberlist.member_dids:
                raise agent_mod.NotListed(target_did)
            self.validations.append((target_did, snapshot))
            yield from ()
            outcome = VALIDATIONS[validation]
            if isinstance(outcome, Exception):
                raise outcome
            return None, self.identity(*outcome) if with_bundle else None

        seller._ledger_records = ledger_records
        seller._fetch_memberlist = fetch_memberlist
        seller._validate_member = validate_member

    def identity(self, org, digest, status="ACTIVE"):
        return net.RecordContent("STL", org, self.holder, b"", digest, status)


@pytest.mark.parametrize("row", ROWS, ids=[row_id(r) for r in ROWS])
def test_countersign_decision_table(world, row):
    status, records, gate, listed, cached, validation, answer, validated = row
    inputs = Inputs(world, status, records, gate, listed, cached, validation)
    seller = inputs.seller
    holder = LYING_DID if status == "REVOKED" else inputs.holder
    statement = net.Endorsement("SWT", "STL", "Carrier", holder, STATED, status, world.bus.now)
    session = seller.start_session(
        "countersign",
        seller._handle_countersign("probe", agent_mod.CountersignRequest((statement,))),
    )
    world.settle()
    assert session.error is None
    reply = session.result
    assert reply.results == (answer,)
    assert len(inputs.gate_reads) == (gate in ("read", "refreshed", "lost"))
    # each validation judges the record's holder on the gate's read
    assert inputs.validations == ([(inputs.holder, SNAPSHOT)] if validated else [])
    if answer == SIGNED:
        # a REVOKED endorsement names the record's holder, not the statement's
        endorsed = replace(statement, holder_did=inputs.holder)
        assert reply.endorsed.statements == (endorsed.digest(),)
    else:
        assert reply.endorsed.statements == () and reply.signature == b""


# The early challenge: a batch that reads its gate challenges each uncached
# ACTIVE holder in the same tick, where and at the epochs the initiator's gate
# read named (`CountersignRequest.endpoints`, `.epochs`). These rows run
# Seller's real gate and validation after step A. A hint only chooses where
# one challenge goes and which epochs it names: each row ends with the answer
# Seller gives with no hint, and a challenge whose endpoint or epochs differ
# from Seller's own gate read is followed by a fresh one after the read.
#
# (hint, lost) -> (answer, challenges): each challenge Seller sent, by
# holder org and whether it left in the gate read's tick
#   hint: "gate's" (the endpoint and epochs the registry holds), "initiator's
#     endpoint" (the initiator's own address), "no actor's endpoint" (an
#     address the bus does not know: the early challenge is lost at once,
#     and none leaves), "stale
#     epochs" (each one epoch behind), "none" (no hints), "revoked" (a
#     REVOKED statement that names the holder's endpoint)
#   lost: the early challenge's reply is dropped
HINT_ROWS = [
    ("gate's", False, SIGNED, [("Carrier", True)]),
    ("initiator's endpoint", False, SIGNED, [("Buyer", True), ("Carrier", False)]),
    ("no actor's endpoint", False, SIGNED, [("Carrier", False)]),
    ("stale epochs", False, SIGNED, [("Carrier", True), ("Carrier", False)]),
    ("none", False, SIGNED, [("Carrier", False)]),
    ("gate's", True, refused("MemberUnreachable"), [("Carrier", True)]),
    ("revoked", False, mismatch(b""), []),
]


@pytest.mark.parametrize(
    "row", HINT_ROWS, ids=[f"{h}{'-lost' if lost else ''}" for h, lost, *_ in HINT_ROWS]
)
def test_countersign_hints(world, row):
    hint, lost, answer, challenges = row
    seller, buyer = world.agents["Seller"], world.agents["Buyer"]
    carrier = world.agents["Carrier"]
    gate = buyer.start_session("gate", buyer._fetch_memberlist("SWT", "STL"))
    world.settle()
    _, snapshot = gate.result  # the initiator's gate read
    epochs = tuple((issuer, state.epoch) for issuer, state in snapshot.revocation().items())
    endpoint = snapshot.holder(carrier.did)[0].service_endpoint
    hints = {
        "gate's": (epochs, (endpoint,)),
        "initiator's endpoint": (epochs, (buyer.address,)),
        "no actor's endpoint": (epochs, ("agent:Nobody",)),
        "stale epochs": (tuple((issuer, epoch - 1) for issuer, epoch in epochs), (endpoint,)),
        "none": ((), ()),
        "revoked": (epochs, (endpoint,)),
    }[hint]
    status = "REVOKED" if hint == "revoked" else "ACTIVE"
    digest = world.organizations[("STL", "Carrier")].bundle_digest()
    statement = net.Endorsement(
        "SWT", "STL", "Carrier", carrier.did, digest, status, world.bus.now
    )
    if lost:
        world.bus.config.rules.append(FaultRule(
            "drop", from_=carrier.address, to=seller.address, kind="agent.membership_vp.reply",
            occurrence=1,
        ))
    start = len(world.trace.events)
    session = seller.start_session(
        "countersign",
        seller._handle_countersign("probe", agent_mod.CountersignRequest((statement,), *hints)),
    )
    settled = world.settle()
    assert session.error is None
    assert session.result.results == (answer,)
    # no challenge waits out its timeout once the batch is answered
    assert settled == world.trace.events[-1].tick
    sent = [e for e in world.trace.events[start:] if e.kind == "bus.send"]
    [gate_tick] = {e.tick for e in sent if e.detail["msg_kind"] == "iin.query"}
    by_address = {a.address: org for org, a in world.agents.items()}
    assert [
        (by_address[e.detail["to"]], e.tick == gate_tick) for e in sent
        if e.detail["msg_kind"] == "agent.membership_vp.request"
    ] == challenges
