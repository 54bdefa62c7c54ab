"""The countersigner's decision table.

Seller's agent answers one statement of STL's Carrier into SWT, alone in its
batch, with its two inputs replaced: the memberlist gate
(`_fetch_memberlist`) and the holder's validation (`_validate_member`). Each
row fixes one combination of those inputs and of Seller's own state (its
last verified list and its cached identity), and pins the answer and whether
the holder was validated. No row reads the ledger's records: the contract
checks that a REVOKED statement names its record (`TestRevokedStatements` in
`test_network.py`).

A REVOKED statement is endorsed only when the holder's validation was
refuted: a validation that could not check the holder (`MemberUnreachable`,
`QuorumUnavailable`, `InconsistentReplicas`) refuses it by name.

The forwarded rows (`FORWARDED_ROWS`) keep Seller's real gate and
validation and vary the presentation the initiator forwards with the
statement, honest or not: each ends with a named answer, and pins which
challenges Seller sent itself and why.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from idplane import agent as agent_mod
from idplane import credentials as creds
from idplane import network as net
from idplane import registry
from idplane.actors import Request, Sleep
from idplane.bus import FaultRule

STATED = b"\x01" * 32  # the statement's bundle digest
OTHER = b"\x02" * 32
SNAPSHOT = object()  # the gate's registry read, passed on to each validation

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

# (status, gate, listed, cached, validation) -> (answer, validated)
#   gate: "reused" (Seller's last list lists the holder; nothing is read),
#     "read" (a fresh list), "refreshed" (a fresh list read though Seller's
#     last list lists the holder), "lost" (the read failed); a batch
#     holding a REVOKED statement reads it, always
#   listed: the holder is on the list the batch judges it by
# Every statement names Carrier's DID, the one its record holds.
ROWS = [
    # ACTIVE, Seller's last list reused: the cached identity decides
    ("ACTIVE", "reused", True, "same", None, SIGNED, False),
    ("ACTIVE", "reused", True, "digest", None, mismatch(OTHER), False),
    ("ACTIVE", "reused", True, "org", None, refused("OrgMismatch"), False),
    # ACTIVE, a fresh list read
    ("ACTIVE", "read", True, "same", None, SIGNED, False),
    ("ACTIVE", "read", True, "digest", None, mismatch(OTHER), False),
    ("ACTIVE", "read", True, "org", None, refused("OrgMismatch"), False),
    ("ACTIVE", "read", False, "same", None, refused("NotListed"), False),
    ("ACTIVE", "read", False, None, None, refused("NotListed"), False),
    ("ACTIVE", "read", True, None, "pass", SIGNED, True),
    ("ACTIVE", "read", True, None, "stale", mismatch(OTHER), True),
    ("ACTIVE", "read", True, None, "other-org", refused("OrgMismatch"), True),
    ("ACTIVE", "read", True, None, "refuted", refused("MembershipVerificationError"), True),
    ("ACTIVE", "read", True, None, "bad-presentation", refused("BadPresentation"), True),
    ("ACTIVE", "read", True, None, "unreachable", refused("MemberUnreachable"), True),
    ("ACTIVE", "read", True, None, "quorum", refused("QuorumUnavailable"), True),
    # ACTIVE, the gate's read failed
    ("ACTIVE", "lost", True, None, None, refused("QuorumUnavailable"), False),
    ("ACTIVE", "lost", True, "same", None, refused("QuorumUnavailable"), False),
    # REVOKED: the fresh list and the re-validation decide
    ("REVOKED", "lost", True, None, None, refused("QuorumUnavailable"), False),
    ("REVOKED", "read", False, None, None, SIGNED, False),
    ("REVOKED", "read", True, None, "pass", refused("MemberStillValid"), True),
    ("REVOKED", "read", True, None, "refuted", SIGNED, True),
    ("REVOKED", "read", True, "same", "refuted", SIGNED, True),
    ("REVOKED", "read", True, None, "bad-presentation", SIGNED, True),
    ("REVOKED", "read", True, None, "unreachable", refused("MemberUnreachable"), True),
    ("REVOKED", "read", True, None, "quorum", refused("QuorumUnavailable"), True),
    ("REVOKED", "read", True, None, "replicas", refused("InconsistentReplicas"), True),
    # a REVOKED statement reads a fresh list even when the last one lists
    # the holder: here the fresh list no longer does
    ("REVOKED", "refreshed", False, "same", None, SIGNED, False),
]


def row_id(row):
    return "-".join(str(v) for v in row[:5] if v is not None)


class Inputs:
    """Seller's agent with its memberlist gate and holder validation
    replaced as one row says; records each gate read and each validation
    made, and any read of the ledger's records, which none makes."""

    def __init__(self, world, status, gate, listed, cached, validation):
        self.seller = seller = world.agents["Seller"]
        self.holder = world.org_dids["Carrier"]
        self.gate_reads, self.validations, self.records_reads = [], [], []
        fresh = SimpleNamespace(member_dids=(self.holder,) if listed else ())
        if gate in ("reused", "refreshed"):
            seller._memberlists["STL"] = SimpleNamespace(member_dids=(self.holder,))
        else:
            seller._memberlists.pop("STL", None)
        if cached is not None:
            org, digest = CACHED[cached]
            seller.cache[("STL", self.holder)] = self.identity(org, digest)

        def ledger_records(home_network, foreign_network):
            self.records_reads.append(foreign_network)
            yield from ()
            return []

        def fetch_memberlist(home_network, foreign_network):
            self.gate_reads.append(foreign_network)
            yield from ()
            if gate == "lost":
                raise registry.QuorumUnavailable("gate")
            return fresh, SNAPSHOT

        def validate_member(
            home_network, foreign_network, target_did, memberlist=None, with_bundle=False,
            snapshot=None, forwarded=None,
        ):
            # the real check's precondition: a list given must list the target
            if memberlist is not None and target_did not in memberlist.member_dids:
                raise agent_mod.NotListed(target_did)
            self.validations.append((target_did, snapshot))
            yield from ()
            outcome = VALIDATIONS[validation]
            if isinstance(outcome, Exception):
                raise outcome
            # checked on a presentation of its own challenge, not a forwarded one
            return None, self.identity(*outcome) if with_bundle else None, (None, b"")

        seller._ledger_records = ledger_records
        seller._fetch_memberlist = fetch_memberlist
        seller._validate_member = validate_member

    def identity(self, org, digest):
        return net.RecordContent("STL", org, self.holder, b"", digest, "ACTIVE")


@pytest.mark.parametrize("row", ROWS, ids=[row_id(r) for r in ROWS])
def test_countersign_decision_table(world, row):
    status, gate, listed, cached, validation, answer, validated = row
    inputs = Inputs(world, status, gate, listed, cached, validation)
    seller = inputs.seller
    statement = net.Endorsement(
        "SWT", "STL", "Carrier", inputs.holder, STATED, status, world.bus.now
    )
    session = seller.start_session(
        "countersign",
        seller._handle_countersign("probe", agent_mod.CountersignRequest((statement,))),
    )
    world.settle()
    assert session.error is None
    reply = session.result
    assert reply.results == (answer,)
    assert len(inputs.gate_reads) == (gate in ("read", "refreshed", "lost"))
    assert inputs.records_reads == []
    # each validation judges the statement's holder on the gate's read
    assert inputs.validations == ([(inputs.holder, SNAPSHOT)] if validated else [])
    if answer == SIGNED:
        assert reply.endorsed.statements == (statement.digest(),)
    else:
        assert reply.endorsed.statements == () and reply.signature == b""




# Forwarded presentations: Buyer, the initiator, checks Carrier with its real
# step B (`_validate_member`), whose challenge nonce is the statement's
# (`agent.StatementNonce`), and asks Seller to countersign the statement it
# makes, forwarding the presentation Carrier made. Seller runs its real gate
# and validation after step A; each row varies what is forwarded, honest or
# not, and ends with a named answer.
#
# (forwarded, answer, challenges, fallbacks, failed check): the challenges
# Seller sent itself, the reasons its `agent.challenge_fallback` events
# name, and the first failed check of the one presentation it refused
#   "holder's": the presentation Carrier made for the statement
#   "made_at shifted": the statement names the tick after the challenge's
#   "another holder's": Seller's presentation, made for a challenge that
#     names the nonce of Carrier's statement
#   "bundle not stated": the statement names another bundle digest
#   "witness behind": AnchorSTL revokes Seller between the challenge and
#     Seller's read, so Carrier's witness is one epoch behind that read
#   "none", "two for one statement" (a list of another length, ignored),
#     "none, reply lost" (Carrier's reply to Seller's challenge dropped)
#   "revoked, no record": a REVOKED statement, presentation attached, of a
#     Carrier the ledger holds no record of: Seller judges the holder it
#     names, who is valid (the contract would refuse it as RecordMismatch)
#   "revoked, refuting one attached": the ledger holds Carrier ACTIVE; the
#     REVOKED statement forwards a presentation that fails check 1, which
#     would refute Carrier if it were judged
FORWARDED_ROWS = [
    ("holder's", SIGNED, 0, [], None),
    ("made_at shifted", refused("MembershipVerificationError"), 0, [], creds.CHECK_NONCE),
    ("another holder's", refused("MembershipVerificationError"), 0, [],
     creds.CHECK_PRESENTER_SIGNATURE),
    ("bundle not stated", refused("PresentationMismatch"), 0, [], None),
    ("witness behind", SIGNED, 1, ["witness at {epoch} < {next}"], None),
    ("none", SIGNED, 1, ["no presentation"], None),
    ("two for one statement", SIGNED, 1, ["no presentation"], None),
    ("none, reply lost", refused("MemberUnreachable"), 1, ["no presentation"], None),
    ("revoked, no record", refused("MemberStillValid"), 1, [], None),
    ("revoked, refuting one attached", refused("MemberStillValid"), 1, [], None),
]


def challenge(world, asker, holder, nonce):
    """`holder`'s reply to `asker`'s challenge for its STL membership and
    bundle, under `nonce`."""
    replies = []

    def ask():
        replies.append((yield Request(
            holder.address, "agent.membership_vp.request",
            creds.Challenge("STL", nonce, (), 1), timeout=500,
        )))

    asker.start_session("ask", ask())
    world.settle()
    [reply] = replies
    return reply


def present(world, asker, holder, nonce):
    """The presentation bytes `holder` answers `asker`'s challenge with."""
    reply = challenge(world, asker, holder, nonce)
    assert reply.error == ""
    return reply.body.vp


def initiators_check(world):
    """Buyer's steps B and C of Carrier: the checked record, and the
    (`made_at`, presentation) they checked it on."""
    buyer = world.agents["Buyer"]
    session = buyer.start_session("check", buyer._validate_member(
        "SWT", "STL", world.agents["Carrier"].did, with_bundle=True
    ))
    world.settle()
    assert session.error is None
    _, record, presented = session.result
    return record, presented


@pytest.mark.parametrize("row", FORWARDED_ROWS, ids=[r[0] for r in FORWARDED_ROWS])
def test_countersign_forwarded(world, monkeypatch, row):
    forwarded, answer, challenges, fallbacks, check = row
    seller, buyer = world.agents["Seller"], world.agents["Buyer"]
    carrier, anchor = world.agents["Carrier"], world.anchors["AnchorSTL"]
    if forwarded == "revoked, refuting one attached":
        session = buyer.start_session("sync", buyer.sync_network("SWT", "STL"))
        world.settle()
        assert session.error is None
    record, (made_at, vp) = initiators_check(world)
    epoch = anchor.acc_state.epoch
    statement = record.statement("SWT", made_at)
    presentations = (vp,)
    if forwarded == "made_at shifted":
        statement = replace(statement, made_at=made_at + 1)
    elif forwarded == "another holder's":
        nonce = agent_mod.StatementNonce("SWT", carrier.did, made_at).to_bytes()
        presentations = (present(world, buyer, seller, nonce),)
    elif forwarded == "bundle not stated":
        statement = replace(statement, bundle_digest=OTHER)
    elif forwarded == "witness behind":
        anchor.enqueue_serialized("revoke", lambda: anchor.revoke_membership(seller.did, "STL"))
        world.settle()
        assert anchor.acc_state.epoch == epoch + 1
    elif forwarded in ("none", "none, reply lost"):
        presentations = ()
    elif forwarded == "two for one statement":
        presentations = (vp, vp)
    elif forwarded.startswith("revoked"):
        statement = replace(statement, status="REVOKED")
        if forwarded == "revoked, refuting one attached":
            statement = replace(statement, made_at=made_at + 1)
    if forwarded == "none, reply lost":
        world.bus.config.rules.append(FaultRule(
            "drop", from_=carrier.address, to=seller.address, kind="agent.membership_vp.reply",
            occurrence=1,
        ))
    failed = []
    verify = creds.verify_membership_vp

    def recording(*args, **kwargs):
        try:
            return verify(*args, **kwargs)
        except creds.MembershipVerificationError as e:
            failed.append(e.check)
            raise

    monkeypatch.setattr(creds, "verify_membership_vp", recording)
    start = len(world.trace.events)
    session = seller.start_session("countersign", seller._handle_countersign(
        "probe", agent_mod.CountersignRequest((statement,), presentations)
    ))
    settled = world.settle()
    assert session.error is None
    assert session.result.results == (answer,)
    # no challenge waits out its timeout once the batch is answered
    assert settled == world.trace.events[-1].tick
    events = world.trace.events[start:]
    assert sum(
        e.kind == "bus.send" and e.detail["msg_kind"] == "agent.membership_vp.request"
        for e in events
    ) == challenges
    assert [
        e.detail["reason"] for e in events if e.kind == "agent.challenge_fallback"
    ] == [f.format(epoch=epoch, next=epoch + 1) for f in fallbacks]
    assert failed == ([check] if check else [])


def test_an_earlier_syncs_presentation_under_its_old_made_at_never_applies(world):
    """Buyer replays Carrier's statement and presentation from its first
    sync after a resync has committed Carrier's rotated bundle. Seller,
    its cache cleared, judges the forwarded presentation on its own read
    and signs it (nothing has moved the epoch), and the contract answers
    StaleStatement: the ledger keeps the newer record."""
    buyer, seller = world.agents["Buyer"], world.agents["Seller"]
    commit, batches = buyer._commit_identity, []

    def recording(home_network, records, presented):
        batches.append(list(zip(records, presented)))
        return (yield from commit(home_network, records, presented))

    buyer._commit_identity = recording
    for sync in (buyer.sync_network("SWT", "STL"), None):
        if sync is None:
            world.organizations[("STL", "Carrier")].rotate(world.bus.now)
            sync = buyer.resync("SWT", "periodic")
        session = buyer.start_session("sync", sync)
        world.settle()
        assert session.error is None
    old = next(pair for pair in batches[0] if pair[0].org_id == "Carrier")
    newer = world.ledger_state("SWT").get_record("STL", "Carrier")
    assert newer.content.bundle_digest != old[0].bundle_digest
    seller.cache.clear()
    session = buyer.start_session("replay", commit("SWT", [old[0]], [old[1]]))
    world.settle()
    [verdict] = session.result
    assert isinstance(verdict, agent_mod.CommitRejected), verdict
    assert str(verdict) == net.OUTCOME_STALE
    assert world.ledger_state("SWT").get_record("STL", "Carrier") == newer
    # Seller keeps nothing it checked on the replayed presentation, so a
    # statement of the old bundle made now is checked afresh: Seller
    # challenges Carrier itself, which presents its rotated bundle
    assert ("STL", old[0].holder_did) not in seller.cache
    session = buyer.start_session("stale", commit("SWT", [old[0]], [(world.bus.now, b"")]))
    world.settle()
    [verdict] = session.result
    assert isinstance(verdict, agent_mod.DigestMismatch), verdict
    assert world.ledger_state("SWT").get_record("STL", "Carrier") == newer


def test_a_presentation_asked_for_ahead_of_its_made_at_is_never_signed(world):
    """Buyer asks Carrier, before Carrier rotates, for a presentation under
    the nonce of a statement it means to make at a later tick, when a
    resync has committed the rotated bundle at an earlier one. Carrier
    refuses a `made_at` later than its own clock (FutureStatement). Once
    that tick has come, Carrier signs under the same nonce with the bundle
    it then holds, the rotated one, so the statement of the old bundle
    that forwards it is refused by name and the ledger keeps the rotated
    record."""
    buyer, carrier = world.agents["Buyer"], world.agents["Carrier"]
    session = buyer.start_session("sync", buyer.sync_network("SWT", "STL"))
    world.settle()
    assert session.error is None
    old = world.ledger_state("SWT").get_record("STL", "Carrier").content
    later = world.bus.now + 200
    nonce = agent_mod.StatementNonce("SWT", carrier.did, later).to_bytes()
    assert challenge(world, buyer, carrier, nonce).error == "FutureStatement"
    world.organizations[("STL", "Carrier")].rotate(world.bus.now)
    session = buyer.start_session("resync", buyer.resync("SWT", "periodic"))
    world.settle()
    assert session.error is None
    newer = world.ledger_state("SWT").get_record("STL", "Carrier")
    assert newer.content.bundle_digest != old.bundle_digest
    assert newer.synced_at < later

    def wait():
        yield Sleep(later - world.bus.now)

    buyer.start_session("wait", wait())
    world.settle()
    vp = present(world, buyer, carrier, nonce)
    session = buyer.start_session("replay", buyer._commit_identity("SWT", [old], [(later, vp)]))
    world.settle()
    [verdict] = session.result
    assert isinstance(verdict, agent_mod.CounterpartyValidationFailed), verdict
    assert str(verdict) == "Seller:PresentationMismatch"
    assert world.ledger_state("SWT").get_record("STL", "Carrier") == newer
