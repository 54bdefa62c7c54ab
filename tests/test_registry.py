"""Registry validation rules (pure) and the replicated pool (simulated)."""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idplane import credentials as creds
from idplane import crypto, registry
from idplane.actors import Actor, Request
from idplane.anchors import membership_schema
from idplane.bus import BoxKeyPair, BusConfig, FaultRule, SimBus


def seed32(label: str) -> bytes:
    return hashlib.sha256(label.encode()).digest()


IIN = "iin0"


def make_identity(label: str, endpoint: str = ""):
    keys = crypto.KeyPair.from_seed(seed32(label))
    did = registry.make_did(IIN, keys.public_key)
    doc = registry.DidDocument(
        did=did,
        verification_keys=(keys.public_key,),
        service_endpoint=endpoint or f"addr:{label}",
        attestations=(),
    )
    return keys, did, doc


def attested(doc: registry.DidDocument, signer_did: str, signer_keys: crypto.KeyPair):
    return registry.DidDocument(
        did=doc.did,
        verification_keys=doc.verification_keys,
        service_endpoint=doc.service_endpoint,
        attestations=doc.attestations
        + ((signer_did, signer_keys.sign(doc.attestation_bytes())),),
        version=doc.version,
    )


@pytest.fixture
def steward():
    return make_identity("steward")


@pytest.fixture
def genesis(steward):
    _, _, doc = steward
    return registry.RegistryState.genesis((doc,))


class TestDid:
    def test_suffix_recomputable_from_key(self):
        keys, did, _ = make_identity("x")
        assert registry.did_matches_key(did, keys.public_key)

    def test_other_key_does_not_match(self):
        _, did, _ = make_identity("x")
        other, _, _ = make_identity("y")
        assert not registry.did_matches_key(did, other.public_key)

    def test_document_roundtrip(self, steward):
        keys, did, doc = steward
        doc2 = attested(doc, did, keys)
        assert registry.DidDocument.from_bytes(doc2.to_bytes()) == doc2


class TestApplyRules:
    def test_nym_attested_by_steward_becomes_verinym(self, steward, genesis):
        s_keys, s_did, _ = steward
        _, org_did, org_doc = make_identity("org")
        doc = attested(org_doc, s_did, s_keys)
        tx = registry.make_transaction(registry.KIND_NYM, doc.to_bytes(), s_did, s_keys)
        state, outcome = registry.apply_transaction(genesis, tx)
        assert outcome == "APPLIED"
        assert state.verinym_status(org_did)

    def test_unattested_self_registration_is_pseudonymous(self, genesis):
        org_keys, org_did, org_doc = make_identity("org")
        tx = registry.make_transaction(
            registry.KIND_NYM, org_doc.to_bytes(), org_did, org_keys
        )
        state, outcome = registry.apply_transaction(genesis, tx)
        assert outcome == "APPLIED"
        assert not state.verinym_status(org_did)

    def test_nym_with_mismatched_suffix_rejected(self, genesis):
        org_keys, _, _ = make_identity("org")
        other_keys, other_did, _ = make_identity("other")
        forged = registry.DidDocument(
            did=other_did,  # did does not match the enclosed key
            verification_keys=(org_keys.public_key,),
            service_endpoint="x",
            attestations=(),
        )
        tx = registry.make_transaction(
            registry.KIND_NYM, forged.to_bytes(), other_did, org_keys
        )
        state, outcome = registry.apply_transaction(genesis, tx)
        assert outcome == "BadSignature"
        assert other_did not in state.docs

    def test_attestation_by_unroled_did_rejected(self, genesis):
        rogue_keys, rogue_did, rogue_doc = make_identity("rogue")
        state, _ = registry.apply_transaction(
            genesis,
            registry.make_transaction(
                registry.KIND_NYM, rogue_doc.to_bytes(), rogue_did, rogue_keys
            ),
        )
        _, _, org_doc = make_identity("org")
        doc = attested(org_doc, rogue_did, rogue_keys)
        tx = registry.make_transaction(registry.KIND_NYM, doc.to_bytes(), rogue_did, rogue_keys)
        state2, outcome = registry.apply_transaction(state, tx)
        assert outcome == "UnauthorizedRole"

    def test_identical_reregistration_is_duplicate(self, steward, genesis):
        s_keys, s_did, _ = steward
        _, _, org_doc = make_identity("org")
        doc = attested(org_doc, s_did, s_keys)
        tx = registry.make_transaction(registry.KIND_NYM, doc.to_bytes(), s_did, s_keys)
        state, outcome = registry.apply_transaction(genesis, tx)
        assert outcome == "APPLIED"
        state2, outcome2 = registry.apply_transaction(state, tx)
        assert outcome2 == "Duplicate"
        assert state2.state_hash() == state.state_hash()

    def test_revoc_update_epoch_jump_is_stale(self, steward, genesis):
        s_keys, s_did, _ = steward
        pmv_keys, pmv_did, pmv_doc = make_identity("pmv")
        state, _ = registry.apply_transaction(
            genesis,
            registry.make_transaction(
                registry.KIND_NYM, attested(pmv_doc, s_did, s_keys).to_bytes(), s_did, s_keys
            ),
        )
        state, outcome = registry.apply_transaction(
            state,
            registry.make_transaction(
                registry.KIND_ANCHOR_GRANT,
                registry.anchor_grant_payload(pmv_did, registry.ROLE_PMV),
                s_did,
                s_keys,
            ),
        )
        assert outcome == "APPLIED"
        reg0, _ = crypto.accumulator_init(pmv_did)
        state, outcome = registry.apply_transaction(
            state,
            registry.make_transaction(
                registry.KIND_REVOC_INIT, reg0.to_bytes(), pmv_did, pmv_keys
            ),
        )
        assert outcome == "APPLIED"
        jumped = crypto.RevocationRegistryState(
            issuer_did=pmv_did, epoch=2, root=reg0.root, size_hint=1
        )
        state2, outcome = registry.apply_transaction(
            state,
            registry.make_transaction(
                registry.KIND_REVOC_UPDATE, jumped.to_bytes(), pmv_did, pmv_keys
            ),
        )
        assert outcome == "StaleEpoch"
        assert state2.revocation[pmv_did].epoch == 0

    def test_registered_org_cannot_rewrite_another_orgs_document(self, steward, genesis):
        s_keys, s_did, _ = steward
        a_keys, a_did, a_doc = make_identity("orgA")
        _, b_did, b_doc = make_identity("orgB")
        state = genesis
        for tx in (
            registry.make_transaction(registry.KIND_NYM, a_doc.to_bytes(), a_did, a_keys),
            registry.make_transaction(
                registry.KIND_NYM, attested(b_doc, s_did, s_keys).to_bytes(), s_did, s_keys
            ),
        ):
            state, outcome = registry.apply_transaction(state, tx)
            assert outcome == "APPLIED"
        # A redirects B's endpoint to itself and drops B's attestation
        hijack = replace(b_doc, service_endpoint="agent:A", version=2)
        after, outcome = registry.apply_transaction(
            state,
            registry.make_transaction(registry.KIND_NYM, hijack.to_bytes(), a_did, a_keys),
        )
        assert outcome == "UnauthorizedRole"
        assert after.docs[b_did] == state.docs[b_did]
        assert after.verinym_status(b_did)

    def test_bad_submitter_signature_rejected(self, steward, genesis):
        s_keys, s_did, _ = steward
        rogue, _, _ = make_identity("rogue")
        schema = membership_schema()
        tx = registry.RegistryTransaction(
            kind=registry.KIND_SCHEMA,
            payload=schema.to_bytes(),
            submitter_did=s_did,
            submitter_signature=rogue.sign(b"not the tx"),
        )
        _, outcome = registry.apply_transaction(genesis, tx)
        assert outcome == "BadSignature"


def expected_outcome(role, kind):
    """Rule table: which single role may apply which transaction kind."""
    if kind == registry.KIND_NYM:  # attestation signer needs STEWARD or OIV
        return "APPLIED" if role in ("STEWARD", "OIV") else "UnauthorizedRole"
    if kind in (registry.KIND_SCHEMA, registry.KIND_CRED_DEF):
        return "APPLIED" if role is not None else "UnauthorizedRole"
    if kind in (registry.KIND_REVOC_INIT, registry.KIND_REVOC_UPDATE):
        return "APPLIED" if role == "PMV" else "UnauthorizedRole"
    if kind == registry.KIND_ANCHOR_GRANT:
        return "APPLIED" if role == "STEWARD" else "UnauthorizedRole"
    raise AssertionError(kind)


ALL_KINDS = (
    registry.KIND_NYM,
    registry.KIND_SCHEMA,
    registry.KIND_CRED_DEF,
    registry.KIND_REVOC_INIT,
    registry.KIND_REVOC_UPDATE,
    registry.KIND_ANCHOR_GRANT,
)


@pytest.mark.parametrize("role", [None, "STEWARD", "OIV", "PMV"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_authorization_soundness_exhaustive(role, kind, steward):
    """Every (role, tx kind) pair applies iff the rule table permits it."""
    s_keys, s_did, s_doc = steward
    actor_keys, actor_did, actor_doc = make_identity("actor")
    state = registry.RegistryState.genesis((s_doc,))
    # register the acting DID and grant it the role under test
    state, _ = registry.apply_transaction(
        state,
        registry.make_transaction(
            registry.KIND_NYM, attested(actor_doc, s_did, s_keys).to_bytes(), s_did, s_keys
        ),
    )
    if role is not None and role != "STEWARD":
        state, outcome = registry.apply_transaction(
            state,
            registry.make_transaction(
                registry.KIND_ANCHOR_GRANT,
                registry.anchor_grant_payload(actor_did, role),
                s_did,
                s_keys,
            ),
        )
        assert outcome == "APPLIED"
    if role == "STEWARD":
        # promote via genesis-equivalent grant
        state = registry.RegistryState(
            docs=state.docs,
            schemas=state.schemas,
            cred_defs=state.cred_defs,
            revocation=state.revocation,
            roles={**state.roles, actor_did: frozenset({"STEWARD"})},
            verinym_threshold=state.verinym_threshold,
            applied=state.applied,
        )
    if kind == registry.KIND_REVOC_UPDATE and role == "PMV":
        # ownership is only reachable through a PMV-gated init; update rights
        # then follow ownership
        reg0, _ = crypto.accumulator_init(actor_did)
        state, outcome = registry.apply_transaction(
            state,
            registry.make_transaction(
                registry.KIND_REVOC_INIT, reg0.to_bytes(), actor_did, actor_keys
            ),
        )
        assert outcome == "APPLIED"

    if kind == registry.KIND_NYM:
        _, _, subject_doc = make_identity("subject")
        payload = attested(subject_doc, actor_did, actor_keys).to_bytes()
    elif kind == registry.KIND_SCHEMA:
        payload = membership_schema().to_bytes()
    elif kind == registry.KIND_CRED_DEF:
        payload = creds.CredentialDefinition(
            "creddef:x", "schema:membership:1", actor_did, actor_keys.public_key
        ).to_bytes()
    elif kind == registry.KIND_REVOC_INIT:
        payload = crypto.accumulator_init(actor_did)[0].to_bytes()
    else:  # REVOC_UPDATE / ANCHOR_GRANT
        if kind == registry.KIND_REVOC_UPDATE:
            next_state, _ = crypto.accumulator_add(
                crypto.accumulator_init(actor_did)[0], (), seed32("cred")
            )
            payload = next_state.to_bytes()
        else:
            _, target_did, _ = make_identity("target")
            payload = registry.anchor_grant_payload(target_did, registry.ROLE_OIV)

    tx = registry.make_transaction(kind, payload, actor_did, actor_keys)
    _, outcome = registry.apply_transaction(state, tx)
    assert outcome == expected_outcome(role, kind), f"role={role} kind={kind}"


def reverified_status(state: registry.RegistryState, did: str) -> bool:
    """Verinym status computed the way reads once did: re-verify each stored
    attestation under its signer's current primary key and roles."""
    doc = state.docs.get(did)
    if doc is None:
        return False
    if state.has_role(did, registry.ROLE_STEWARD):
        return True
    valid = 0
    for signer, sig in doc.attestations:
        signer_doc = state.docs.get(signer)
        if signer_doc is None:
            continue
        if not (state.roles.get(signer, frozenset()) & registry.VERINYM_ATTESTER_ROLES):
            continue
        if crypto.verify(signer_doc.primary_key(), doc.attestation_bytes(), sig):
            valid += 1
    return valid >= state.verinym_threshold


PARTIES = tuple(make_identity(label) for label in ("steward", "party1", "party2", "party3"))
FORGER_KEYS, _, _ = make_identity("forger")

party = st.integers(0, len(PARTIES) - 1)
steward_mostly = st.sampled_from((0, 0, 1, 2, 3))  # the genesis steward is party 0
nym_steps = st.tuples(
    st.just(registry.KIND_NYM),
    party,  # subject
    st.one_of(st.none(), party),  # submitter; None is the subject itself
    st.sampled_from((1, 1, 1, 0, 2)),  # version bump over the stored document
    st.sampled_from(("e0", "e1")),  # service endpoint
    st.lists(st.tuples(steward_mostly, st.booleans()), max_size=2),  # (signer, forged)
)
grant_steps = st.tuples(
    st.just(registry.KIND_ANCHOR_GRANT),
    party,  # target
    steward_mostly,  # submitter
    st.sampled_from(registry.ROLES),
)


def step_transaction(state: registry.RegistryState, step) -> registry.RegistryTransaction:
    kind, target, submitter, *rest = step
    _, t_did, t_doc = PARTIES[target]
    s_keys, s_did, _ = PARTIES[target if submitter is None else submitter]
    if kind == registry.KIND_ANCHOR_GRANT:
        (role,) = rest
        return registry.make_transaction(
            kind, registry.anchor_grant_payload(t_did, role), s_did, s_keys
        )
    bump, endpoint, attestations = rest
    stored = state.docs.get(t_did)
    doc = replace(
        t_doc, service_endpoint=endpoint, version=(stored.version if stored else 1) + bump
    )
    for signer, forged in attestations:
        signer_keys, signer_did, _ = PARTIES[signer]
        doc = attested(doc, signer_did, FORGER_KEYS if forged else signer_keys)
    return registry.make_transaction(kind, doc.to_bytes(), s_did, s_keys)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 2),
    st.lists(st.one_of(nym_steps, grant_steps), min_size=1, max_size=12),
)
def test_verinym_lookup_matches_reverified_attestations(threshold, steps):
    """Reading the status from write-validated state agrees with re-verifying
    every stored attestation, after every NYM and role grant."""
    state = registry.RegistryState.genesis((PARTIES[0][2],), verinym_threshold=threshold)
    for keys, did, doc in PARTIES[1:3]:  # two pseudonyms; the last party starts unknown
        tx = registry.make_transaction(registry.KIND_NYM, doc.to_bytes(), did, keys)
        state, _ = registry.apply_transaction(state, tx)
    for step in steps:
        state, _ = registry.apply_transaction(state, step_transaction(state, step))
        for _, did, _ in PARTIES:
            assert state.verinym_status(did) == reverified_status(state, did), step


# --- simulated pool ----------------------------------------------------------


class Client(Actor):
    """Bare session-running client for pool protocols."""


def build_pool(seed=0, rules=None, n=4):
    bus = SimBus(BusConfig(seed=seed, rules=list(rules or [])))
    steward_keys, steward_did, steward_doc = make_identity("steward")
    genesis = registry.RegistryState.genesis((steward_doc,))
    addresses = tuple(f"iin:{IIN}:{i}" for i in range(n))
    node_keys = {a: crypto.KeyPair.from_seed(seed32("node" + a)) for a in addresses}
    pool = registry.PoolInfo(
        iin_id=IIN,
        node_addresses=addresses,
        node_public_keys={a: k.public_key for a, k in node_keys.items()},
    )
    nodes = []
    for i, address in enumerate(addresses):
        node = registry.IinNode(address, f"{IIN}:{i}", node_keys[address], genesis, pool)
        node.bind(bus, random.Random(i))
        bus.register(node, BoxKeyPair.from_seed(seed32("bx" + address)))
        nodes.append(node)
    client = Client("client")
    client.bind(bus, random.Random(99))
    bus.register(client, BoxKeyPair.from_seed(seed32("bxc")))
    return bus, pool, nodes, client, (steward_keys, steward_did, steward_doc)


def org_nym_tx(steward):
    s_keys, s_did, _ = steward
    _, org_did, org_doc = make_identity("org")
    doc = attested(org_doc, s_did, s_keys)
    return registry.make_transaction(registry.KIND_NYM, doc.to_bytes(), s_did, s_keys), org_did


def query_sends(bus) -> list[str]:
    return [
        e.detail["to"]
        for e in bus.trace.events
        if e.kind == "bus.send" and e.detail["msg_kind"] == "iin.query"
    ]


def with_endpoint(state: registry.RegistryState, did: str, endpoint: str):
    """A copy of `state` whose document for `did` names another endpoint."""
    doc = state.docs[did]
    forged = registry.DidDocument(
        did=doc.did,
        verification_keys=doc.verification_keys,
        service_endpoint=endpoint,
        attestations=doc.attestations,
        version=doc.version,
    )
    return registry.RegistryState(
        docs={**state.docs, did: forged},
        schemas=state.schemas,
        cred_defs=state.cred_defs,
        revocation=state.revocation,
        roles=state.roles,
        verinym_threshold=state.verinym_threshold,
        applied=state.applied,
    )


class TestPoolArithmetic:
    def test_quorums_for_four_nodes(self):
        _, pool, _, _, _ = build_pool()
        assert pool.n == 4
        assert pool.f == 1
        assert pool.write_quorum == 3  # 2f+1
        assert pool.read_quorum == 2  # f+1

class TestPoolProtocol:
    def test_submit_commits_with_quorum_receipt(self):
        bus, pool, nodes, client, steward = build_pool()
        tx, org_did = org_nym_tx(steward)
        record = client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        assert record.error is None
        receipt = record.result
        assert receipt["outcome"] == "APPLIED"
        assert len(receipt["acks"]) >= pool.write_quorum
        for node in nodes:
            assert org_did in node.state.docs

    def test_replica_convergence_hashes_identical(self):
        bus, pool, nodes, client, steward = build_pool(seed=5)
        s_keys, s_did, _ = steward
        for label in ("a", "b", "c"):
            _, _, doc = make_identity("org" + label)
            tx = registry.make_transaction(
                registry.KIND_NYM, attested(doc, s_did, s_keys).to_bytes(), s_did, s_keys
            )
            client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        hashes = {node.state.state_hash() for node in nodes}
        assert len(hashes) == 1

    def test_two_nodes_dropped_yields_quorum_unavailable(self):
        rules = [
            FaultRule(action="drop", to="iin:iin0:2"),
            FaultRule(action="drop", to="iin:iin0:3"),
            FaultRule(action="drop", from_="iin:iin0:2"),
            FaultRule(action="drop", from_="iin:iin0:3"),
        ]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        tx, _ = org_nym_tx(steward)
        record = client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        assert isinstance(record.error, registry.QuorumUnavailable)

    def test_duplicate_submission_commits_as_rejection(self):
        bus, pool, nodes, client, steward = build_pool()
        tx, _ = org_nym_tx(steward)
        r1 = client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        hash_before = nodes[0].state.state_hash()
        r2 = client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        assert r1.result["outcome"] == "APPLIED"
        assert r2.result["outcome"] == "Duplicate"
        assert nodes[0].state.state_hash() == hash_before
        # the rejection is part of every replica's log
        for node in nodes:
            assert [o for _, _, o in node.log] == ["APPLIED", "Duplicate"]

    def test_resolve_did_from_quorum(self):
        bus, pool, nodes, client, steward = build_pool()
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        doc, verinym = record.result
        assert doc.did == org_did
        assert verinym is True

    def test_resolve_unknown_did_not_found(self):
        bus, pool, nodes, client, steward = build_pool()
        record = client.start_session(
            "resolve", registry.resolve_did(pool, "did:iin:iin0:nosuch")
        )
        bus.run_until_quiescent()
        assert isinstance(record.error, registry.NotFound)

    def test_resolve_survives_one_corrupted_reply(self):
        rules = [FaultRule(action="tamper", from_="iin:iin0:1", kind="iin.query.reply")]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        assert record.error is None
        doc, _ = record.result
        assert doc.did == org_did

    def test_divergent_replicas_yield_inconsistency_error(self):
        bus, pool, nodes, client, steward = build_pool()
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        # corrupt three replicas' copies distinctly (beyond the fault model,
        # checking the read discipline itself)
        for i, node in enumerate(nodes[1:], start=1):
            doc = node.state.docs[org_did]
            forged = registry.DidDocument(
                did=doc.did,
                verification_keys=doc.verification_keys,
                service_endpoint=f"forged:{i}",
                attestations=doc.attestations,
                version=doc.version,
            )
            node.state = registry.RegistryState(
                docs={**node.state.docs, org_did: forged},
                schemas=node.state.schemas,
                cred_defs=node.state.cred_defs,
                revocation=node.state.revocation,
                roles=node.state.roles,
                verinym_threshold=node.state.verinym_threshold,
                applied=node.state.applied,
            )
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        assert isinstance(record.error, registry.InconsistentReplicas)

    def test_lossless_read_asks_only_the_first_f_plus_1_nodes(self):
        bus, pool, nodes, client, steward = build_pool()
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        assert record.result[0].did == org_did
        assert query_sends(bus) == list(pool.node_addresses[: pool.read_quorum])

    def test_disagreeing_first_stage_falls_back_to_the_other_nodes(self):
        bus, pool, nodes, client, steward = build_pool()
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        nodes[1].state = with_endpoint(nodes[1].state, org_did, "forged:1")
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        assert record.error is None
        doc, _ = record.result
        assert doc == nodes[0].state.docs[org_did]
        assert sorted(query_sends(bus)) == sorted(pool.node_addresses)

    def test_lost_first_stage_query_falls_back_after_the_timeout(self):
        rules = [FaultRule(action="drop", kind="iin.query", occurrence=1)]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        assert record.error is None
        doc, _ = record.result
        assert doc.did == org_did
        assert len(query_sends(bus)) == pool.n

    def test_repeated_did_read_reuses_each_replicas_verinym_status(self, monkeypatch):
        bus, pool, nodes, client, steward = build_pool()
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        verifies = []
        verify = crypto.verify

        def counting(*args):
            verifies.append(args)
            return verify(*args)

        monkeypatch.setattr(crypto, "verify", counting)
        for _ in range(2):  # attestations were checked when the NYM applied
            verifies.clear()
            record = client.start_session("resolve", registry.resolve_did(pool, org_did))
            bus.run_until_quiescent()
            assert record.result[1] is True
            assert verifies == []

    @pytest.mark.parametrize("write", ["nym", "anchor_grant"])
    def test_write_between_reads_gives_the_new_verinym_status(self, write):
        bus, pool, nodes, client, steward = build_pool()
        s_keys, s_did, _ = steward
        org_keys, org_did, org_doc = make_identity("org")

        def commit(tx):
            record = client.start_session("submit", registry.submit_transaction(pool, tx))
            bus.run_until_quiescent()
            assert record.result["outcome"] == "APPLIED"

        def verinym():
            record = client.start_session("resolve", registry.resolve_did(pool, org_did))
            bus.run_until_quiescent()
            return record.result[1]

        commit(registry.make_transaction(
            registry.KIND_NYM, org_doc.to_bytes(), org_did, org_keys
        ))
        assert verinym() is False  # self-registered: a pseudonym
        if write == "nym":
            bumped = attested(replace(org_doc, version=2), s_did, s_keys)
            kind, payload = registry.KIND_NYM, bumped.to_bytes()
        else:
            kind = registry.KIND_ANCHOR_GRANT
            payload = registry.anchor_grant_payload(org_did, registry.ROLE_STEWARD)
        commit(registry.make_transaction(kind, payload, s_did, s_keys))
        assert verinym() is True

    def test_catch_up_after_missed_order(self):
        # node 3 misses the first ORDER, must fetch it before acking later ones
        rules = [FaultRule(action="drop", to="iin:iin0:3", kind="iin.order", occurrence=1)]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        s_keys, s_did, _ = steward
        for label in ("a", "b"):
            _, _, doc = make_identity("org" + label)
            tx = registry.make_transaction(
                registry.KIND_NYM, attested(doc, s_did, s_keys).to_bytes(), s_did, s_keys
            )
            client.start_session("submit", registry.submit_transaction(pool, tx))
            bus.run_until_quiescent()
        assert len({node.state.state_hash() for node in nodes}) == 1
        assert nodes[3].next_seq == 2

    def test_log_replay_reproduces_state_hash(self):
        bus, pool, nodes, client, steward = build_pool(seed=8)
        s_keys, s_did, _ = steward
        for label in ("a", "b", "c"):
            _, _, doc = make_identity("org" + label)
            tx = registry.make_transaction(
                registry.KIND_NYM, attested(doc, s_did, s_keys).to_bytes(), s_did, s_keys
            )
            client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        _, _, steward_doc = steward
        fresh = registry.replay_log(
            registry.RegistryState.genesis((steward_doc,)), nodes[0].log
        )
        assert fresh.state_hash() == nodes[0].state.state_hash()

    def test_membership_schema_readable_by_anyone(self):
        bus, pool, nodes, client, steward = build_pool()
        s_keys, s_did, _ = steward
        client.start_session(
            "submit",
            registry.submit_transaction(
                pool,
                registry.make_transaction(
                    registry.KIND_SCHEMA, membership_schema().to_bytes(), s_did, s_keys
                ),
            ),
        )
        bus.run_until_quiescent()
        record = client.start_session(
            "read", registry.read_schema(pool, "schema:membership:1")
        )
        bus.run_until_quiescent()
        assert record.error is None
        assert record.result.attribute_names == ("holder_did", "network_id")

    def test_reads_need_no_role_writes_do(self):
        bus, pool, nodes, client, steward = build_pool()
        # unprivileged client can read
        record = client.start_session(
            "read", registry.quorum_query(pool, registry.QUERY_SCHEMA, "schema:membership:1")
        )
        bus.run_until_quiescent()
        found, _, _ = record.result
        assert found is False  # open read, clean miss
        # unprivileged write is rejected, not errored
        rogue_keys, rogue_did, rogue_doc = make_identity("rogue")
        client.start_session(
            "submit",
            registry.submit_transaction(
                pool,
                registry.make_transaction(
                    registry.KIND_NYM, rogue_doc.to_bytes(), rogue_did, rogue_keys
                ),
            ),
        )
        bus.run_until_quiescent()
        schema_tx = registry.make_transaction(
            registry.KIND_SCHEMA, membership_schema().to_bytes(), rogue_did, rogue_keys
        )
        record = client.start_session(
            "submit", registry.submit_transaction(pool, schema_tx)
        )
        bus.run_until_quiescent()
        assert record.result["outcome"] == "UnauthorizedRole"


class TestMemberSnapshot:
    """`resolve_member`: a holder's document and issuers' revocation states
    from one replica state, under the f+1-matching rule."""

    ISSUER = "did:iin:iin0:issuer"

    def setup_pool(self):
        bus, pool, nodes, client, steward = build_pool()
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        return bus, pool, nodes, client, org_did

    def set_epochs(self, nodes, epochs):
        """Give replica i the issuer's revocation state at `epochs[i]`; the
        DID documents stay as committed."""
        base, _ = crypto.accumulator_init(self.ISSUER)
        for node, epoch in zip(nodes, epochs):
            node.state = replace(
                node.state, revocation={self.ISSUER: replace(base, epoch=epoch)}
            )

    def resolve(self, bus, pool, client, did, issuers=(ISSUER,)):
        record = client.start_session("resolve", registry.resolve_member(pool, did, issuers))
        bus.run_until_quiescent()
        return record

    def test_one_read_returns_document_verinym_and_revocation_states(self):
        bus, pool, nodes, client, org_did = self.setup_pool()
        self.set_epochs(nodes, (3, 3, 3, 3))
        record = self.resolve(bus, pool, client, org_did, (self.ISSUER, "did:iin:iin0:none"))
        doc, verinym, revocation = record.result
        assert doc == nodes[0].state.docs[org_did]
        assert verinym is True
        assert revocation == {self.ISSUER: nodes[0].state.revocation[self.ISSUER]}
        assert query_sends(bus) == list(pool.node_addresses[: pool.read_quorum])

    def test_unknown_holder_not_found(self):
        bus, pool, nodes, client, _ = self.setup_pool()
        record = self.resolve(bus, pool, client, "did:iin:iin0:nosuch")
        assert isinstance(record.error, registry.NotFound)

    def test_one_replica_at_another_epoch_still_resolves(self):
        bus, pool, nodes, client, org_did = self.setup_pool()
        self.set_epochs(nodes, (1, 2, 1, 1))
        record = self.resolve(bus, pool, client, org_did)
        assert record.error is None
        _, _, revocation = record.result
        assert revocation[self.ISSUER].epoch == 1
        assert sorted(query_sends(bus)) == sorted(pool.node_addresses)

    def test_mixed_epochs_with_matching_documents_are_inconsistent(self):
        bus, pool, nodes, client, org_did = self.setup_pool()
        self.set_epochs(nodes, (0, 1, 2, 3))
        assert len({node.state.docs[org_did] for node in nodes}) == 1
        record = self.resolve(bus, pool, client, org_did)
        assert isinstance(record.error, registry.InconsistentReplicas)

    @pytest.mark.parametrize("body", [
        {"what": registry.QUERY_MEMBER, "issuers": 5},
        {"what": registry.QUERY_MEMBER, "issuers": [5]},
        {"what": 5},
        {"what": registry.QUERY_DID, "id": ["x"]},
    ], ids=["issuers-not-a-list", "issuer-not-a-string", "what-not-a-string", "id-not-a-string"])
    def test_malformed_query_is_a_miss_and_the_replica_keeps_serving(self, body):
        bus, pool, nodes, client, org_did = self.setup_pool()
        body = {"id": org_did, **body}

        def ask():
            reply = yield Request(pool.sequencer, "iin.query", body, timeout=50)
            return registry.parse_query_reply(bytes.fromhex(reply.body["result"]))

        record = client.start_session("ask", ask())
        bus.run_until_quiescent()
        assert record.result == ("", "", False, b"", False)
        assert self.resolve(bus, pool, client, org_did).result[0].did == org_did
