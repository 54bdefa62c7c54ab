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

    @pytest.mark.parametrize("submitter", ["steward", "self"])
    def test_nym_with_invalid_utf8_is_rejected_not_raised(self, steward, genesis, submitter):
        s_keys, s_did, _ = steward
        org_keys, org_did, org_doc = make_identity("org", endpoint="agent:~")
        if submitter == "steward":
            org_doc = attested(org_doc, s_did, s_keys)
        payload = org_doc.to_bytes().replace(b"agent:~", b"agent:\xff")
        keys, did = (s_keys, s_did) if submitter == "steward" else (org_keys, org_did)
        tx = registry.make_transaction(registry.KIND_NYM, payload, did, keys)
        state, outcome = registry.apply_transaction(genesis, tx)
        assert outcome == "BadSignature"
        assert org_did not in state.docs

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
                registry.AnchorGrant(pmv_did, registry.ROLE_PMV).to_bytes(),
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

    def test_anchor_cannot_take_another_anchors_cred_def_id(self, steward, genesis):
        s_keys, s_did, _ = steward
        anchors = [make_identity(label) for label in ("pmvA", "pmvB")]
        state = genesis
        for _, did, doc in anchors:
            for tx in (
                registry.make_transaction(
                    registry.KIND_NYM, attested(doc, s_did, s_keys).to_bytes(), s_did, s_keys
                ),
                registry.make_transaction(
                    registry.KIND_ANCHOR_GRANT,
                    registry.AnchorGrant(did, registry.ROLE_PMV).to_bytes(), s_did, s_keys,
                ),
            ):
                state, outcome = registry.apply_transaction(state, tx)
                assert outcome == "APPLIED"
        (a_keys, a_did, _), (b_keys, b_did, _) = anchors
        schema_id = creds.schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME)
        b_id = creds.cred_def_id_for(b_did, schema_id)

        def cred_def_tx(issuer_did, keys):
            cred_def = creds.CredentialDefinition(b_id, schema_id, issuer_did, keys.public_key)
            return registry.make_transaction(
                registry.KIND_CRED_DEF, cred_def.to_bytes(), issuer_did, keys
            )

        state, outcome = registry.apply_transaction(state, cred_def_tx(a_did, a_keys))
        assert outcome == "UnauthorizedRole"
        assert b_id not in state.cred_defs
        state, outcome = registry.apply_transaction(state, cred_def_tx(b_did, b_keys))
        assert outcome == "APPLIED"
        assert state.cred_defs[b_id].issuer_did == b_did

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


@pytest.fixture(scope="module")
def published():
    """A registry with the steward, an anchor `pmv` holding a revocation state,
    a schema and a credential definition, an anchor `pmv2` with none, and a
    self-registered `member` that holds no role."""
    s_keys, s_did, s_doc = make_identity("steward")
    pmv, pmv2 = make_identity("pmv"), make_identity("pmv2")
    m_keys, m_did, m_doc = make_identity("member")
    state = registry.RegistryState.genesis((s_doc,))
    txs = [registry.make_transaction(registry.KIND_NYM, m_doc.to_bytes(), m_did, m_keys)]
    for _, did, doc in (pmv, pmv2):
        txs += [
            registry.make_transaction(
                registry.KIND_NYM, attested(doc, s_did, s_keys).to_bytes(), s_did, s_keys
            ),
            registry.make_transaction(
                registry.KIND_ANCHOR_GRANT,
                registry.AnchorGrant(did, registry.ROLE_PMV).to_bytes(), s_did, s_keys,
            ),
        ]
    keys, did, _ = pmv
    schema = membership_schema()
    cred_def = creds.CredentialDefinition(
        creds.cred_def_id_for(did, schema.schema_id), schema.schema_id, did, keys.public_key
    )
    for kind, payload in (
        (registry.KIND_REVOC_INIT, crypto.accumulator_init(did)[0].to_bytes()),
        (registry.KIND_SCHEMA, schema.to_bytes()),
        (registry.KIND_CRED_DEF, cred_def.to_bytes()),
    ):
        txs.append(registry.make_transaction(kind, payload, did, keys))
    for tx in txs:
        state, outcome = registry.apply_transaction(state, tx)
        assert outcome == "APPLIED"
    ids = {"steward": (s_keys, s_did), "pmv": pmv[:2], "pmv2": pmv2[:2], "member": (m_keys, m_did)}
    return state, ids, cred_def


@pytest.mark.parametrize("submitter, kind, payload, outcome", [
    ("pmv2", registry.KIND_REVOC_INIT,
     lambda ids, _: crypto.accumulator_init(ids["pmv"][1])[0].to_bytes(), "UnauthorizedRole"),
    ("pmv", registry.KIND_REVOC_INIT,
     lambda ids, _: crypto.accumulator_init(ids["pmv"][1], (b"x",))[0].to_bytes(), "DuplicateId"),
    ("pmv2", registry.KIND_REVOC_INIT, lambda ids, _: crypto.RevocationRegistryState(
        issuer_did=ids["pmv2"][1], epoch=1, root=b"\x00" * 32, size_hint=0
    ).to_bytes(), "StaleEpoch"),
    ("pmv", registry.KIND_SCHEMA, lambda ids, _: replace(
        membership_schema(), version="2"
    ).to_bytes(), "DuplicateId"),
    ("pmv", registry.KIND_CRED_DEF, lambda ids, cred_def: replace(
        cred_def, authentication_public_key=ids["pmv2"][0].public_key
    ).to_bytes(), "DuplicateId"),
    ("steward", registry.KIND_ANCHOR_GRANT,
     lambda ids, _: registry.AnchorGrant(ids["pmv2"][1], "KING").to_bytes(), "BadSignature"),
    *[
        (submitter, kind, lambda ids, _: b"\xffjunk", "BadSignature")
        for submitter, kind in (
            ("steward", registry.KIND_NYM), ("pmv", registry.KIND_SCHEMA),
            ("pmv", registry.KIND_CRED_DEF), ("pmv2", registry.KIND_REVOC_INIT),
            ("pmv", registry.KIND_REVOC_UPDATE), ("steward", registry.KIND_ANCHOR_GRANT),
        )
    ],
    ("steward", "BOGUS", lambda ids, _: b"", "BadSignature"),
    # the role gate comes before the payload's decoding
    *[
        (submitter, kind, lambda ids, _: b"\xffjunk", "UnauthorizedRole")
        for submitter, kind in (
            ("member", registry.KIND_SCHEMA), ("member", registry.KIND_CRED_DEF),
            ("steward", registry.KIND_REVOC_INIT), ("pmv", registry.KIND_ANCHOR_GRANT),
        )
    ],
], ids=[
    "revoc-init-naming-another-issuer", "second-revoc-init", "revoc-init-at-epoch-1",
    "existing-schema-id", "existing-cred-def-id", "grant-of-an-unknown-role",
    "undecodable-nym", "undecodable-schema", "undecodable-cred-def",
    "undecodable-revoc-init", "undecodable-revoc-update", "undecodable-anchor-grant",
    "unknown-kind",
    "undecodable-schema-without-role", "undecodable-cred-def-without-role",
    "undecodable-revoc-init-without-role", "undecodable-anchor-grant-without-role",
])
def test_write_rule_rejects_and_leaves_the_state(published, submitter, kind, payload, outcome):
    state, ids, cred_def = published
    keys, did = ids[submitter]
    tx = registry.make_transaction(kind, payload(ids, cred_def), did, keys)
    after, got = registry.apply_transaction(state, tx)
    assert got == outcome
    assert after.state_hash() == state.state_hash()


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
                registry.AnchorGrant(actor_did, role).to_bytes(),
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
        schema_id = creds.schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME)
        payload = creds.CredentialDefinition(
            creds.cred_def_id_for(actor_did, schema_id), schema_id, actor_did,
            actor_keys.public_key,
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
            payload = registry.AnchorGrant(target_did, registry.ROLE_OIV).to_bytes()

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
    return valid > 0


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
            kind, registry.AnchorGrant(t_did, role).to_bytes(), s_did, s_keys
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
@given(st.lists(st.one_of(nym_steps, grant_steps), min_size=1, max_size=12))
def test_verinym_lookup_matches_reverified_attestations(steps):
    """Reading the status from write-validated state agrees with re-verifying
    every stored attestation, after every NYM and role grant."""
    state = registry.RegistryState.genesis((PARTIES[0][2],))
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
        assert receipt["outcomes"] == ["APPLIED"]
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
        assert r1.result["outcomes"] == ["APPLIED"]
        assert r2.result["outcomes"] == ["Duplicate"]
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
                applied=node.state.applied,
            )
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        assert isinstance(record.error, registry.InconsistentReplicas)

    @pytest.mark.parametrize("stage", ["first", "second"])
    def test_reply_with_a_non_string_result_matches_no_other(self, stage):
        # the second stage's honest reply comes last, so the faulty one is tallied
        rules = [FaultRule(action="delay", from_="iin:iin0:3", kind="iin.query.reply", delay=30)]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        faulty = nodes[1] if stage == "first" else nodes[2]
        if stage == "second":
            nodes[1].state = with_endpoint(nodes[1].state, org_did, "forged:1")
        faulty._query = lambda sender, msg: {"result": ["not", "hex"]}
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        assert record.error is None
        assert record.result[0] == nodes[0].state.docs[org_did]

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
            assert record.result["outcomes"] == ["APPLIED"]

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
            payload = registry.AnchorGrant(org_did, registry.ROLE_STEWARD).to_bytes()
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

    @pytest.mark.parametrize("body", [
        {"from": "x", "to": 1}, {"to": 1}, {"from": 0},
    ], ids=["from-not-an-int", "from-missing", "to-missing"])
    def test_malformed_fetch_gets_no_entries_and_the_replica_keeps_serving(self, body):
        bus, pool, nodes, client, steward = build_pool()
        tx, _ = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()

        def fetch(body):
            reply = yield Request(pool.sequencer, "iin.fetch", body, timeout=50)
            return reply.body["entries"]

        malformed = client.start_session("fetch", fetch(body))
        bus.run_until_quiescent()
        assert malformed.error is None and malformed.result == []
        wellformed = client.start_session("fetch", fetch({"from": 0, "to": 0}))
        bus.run_until_quiescent()
        assert [seq for seq, _, _ in wellformed.result] == [0]

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
            "read", registry.resolve_member(pool, (), (), ("schema:membership:1",))
        )
        bus.run_until_quiescent()
        assert record.error is None
        [schema] = record.result.schemas
        assert schema.attribute_names == ("holder_did", "network_id")

    def test_reads_need_no_role_writes_do(self):
        bus, pool, nodes, client, steward = build_pool()
        # unprivileged client can read
        record = client.start_session(
            "read", registry.resolve_member(pool, (), (), ("schema:membership:1",))
        )
        bus.run_until_quiescent()
        assert record.result.schemas == ()  # open read, clean miss
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
        assert record.result["outcomes"] == ["UnauthorizedRole"]


def org_nym_txs(steward, *labels):
    s_keys, s_did, _ = steward
    return [
        registry.make_transaction(
            registry.KIND_NYM,
            attested(make_identity("org" + label)[2], s_did, s_keys).to_bytes(),
            s_did,
            s_keys,
        )
        for label in labels
    ]


def doctor_receipts(sequencer, change):
    """Make the sequencer answer each submit with `change(receipt)`."""
    original = sequencer._sequence

    def doctored(sender, msg):
        receipt = yield from original(sender, msg)
        return change(receipt)

    sequencer._sequence = doctored


def forge_acks(node, forged_bytes):
    """Make `node` sign its acks over `forged_bytes(first, last, digest)`
    while its ack bodies name the batch it applied."""
    original = node._ack_body

    def forged(first, last, digest):
        return {**original(first, last, digest),
                "ack": node.keys.sign(forged_bytes(first, last, digest)).bytes_.hex()}

    node._ack_body = forged


OTHER_ACKS = {
    "other-range": lambda first, last, digest: registry.Ack(
        first + 1, last + 1, digest
    ).to_bytes(),
    "other-digest": lambda first, last, digest: registry.Ack(
        first, last, crypto.digest(b"another batch")
    ).to_bytes(),
}


class TestBatches:
    """One order and one 2f+1 ack set per batch of a client's transactions."""

    def submit(self, bus, client, pool, txs):
        record = client.start_session("submit", registry.submit_transaction(pool, *txs))
        bus.run_until_quiescent()
        return record

    def order_sends(self, bus) -> int:
        return sum(
            1 for e in bus.trace.events
            if e.kind == "bus.send" and e.detail["msg_kind"] == "iin.order"
        )

    def test_batch_applies_in_order_with_one_order_per_replica(self):
        bus, pool, nodes, client, steward = build_pool()
        txs = org_nym_txs(steward, "a", "b", "c")
        receipt = self.submit(bus, client, pool, txs).result
        assert (receipt["first"], receipt["last"]) == (0, 2)
        assert receipt["outcomes"] == ["APPLIED"] * 3
        assert receipt["tx_digests"] == [tx.digest().hex() for tx in txs]
        assert self.order_sends(bus) == pool.n - 1
        for node in nodes:
            assert [entry[1] for entry in node.log] == [tx.to_bytes() for tx in txs]
        assert len({node.state.state_hash() for node in nodes}) == 1

    @pytest.mark.parametrize("change", [
        lambda txs: txs[::-1],
        lambda txs: txs[:1],
    ], ids=["reordered", "missing-one"])
    def test_receipt_for_another_batch_is_refused(self, change):
        bus, pool, nodes, client, steward = build_pool()
        # the pool orders and acks the changed batch, so every ack is valid
        sequence = nodes[0]._sequence
        nodes[0]._sequence = lambda sender, msg: sequence(
            sender, replace(msg, body={"txs": change(msg.body["txs"])})
        )
        record = self.submit(bus, client, pool, org_nym_txs(steward, "a", "b"))
        assert isinstance(record.error, registry.QuorumUnavailable)
        assert str(record.error) == "receipt names other transactions"

    @pytest.mark.parametrize("forged", sorted(OTHER_ACKS))
    def test_sequencer_counts_no_ack_over_another_batch(self, forged):
        bus, pool, nodes, client, steward = build_pool()
        for node in nodes[2:]:
            forge_acks(node, OTHER_ACKS[forged])
        record = self.submit(bus, client, pool, org_nym_txs(steward, "a", "b"))
        assert isinstance(record.error, registry.QuorumUnavailable)
        assert str(record.error) == "QuorumUnavailable"

    @pytest.mark.parametrize("forged", [*sorted(OTHER_ACKS), "forger-key"])
    def test_client_counts_no_ack_over_another_batch(self, forged):
        bus, pool, nodes, client, steward = build_pool()
        txs = org_nym_txs(steward, "a", "b")
        digest = registry.batch_digest([tx.digest() for tx in txs])

        def sign(node):
            if forged == "forger-key":
                return FORGER_KEYS.sign(registry.Ack(0, 1, digest).to_bytes())
            return node.keys.sign(OTHER_ACKS[forged](0, 1, digest))

        acks = [[node.address, sign(node).bytes_.hex()] for node in nodes]
        doctor_receipts(nodes[0], lambda receipt: {**receipt, "acks": acks})
        record = self.submit(bus, client, pool, txs)
        assert isinstance(record.error, registry.QuorumUnavailable)
        assert str(record.error) == "receipt carries 0 valid acks"

    @pytest.mark.parametrize("garble", [
        {"ack": "zz"}, {"ack": 5}, {"address": ["iin:iin0:1"]},
    ], ids=["ack-not-hex", "ack-not-a-string", "address-not-a-string"])
    def test_malformed_ack_counts_as_invalid(self, garble):
        bus, pool, nodes, client, steward = build_pool()
        handle_order = nodes[1]._handle_order

        def garbled(sender, msg):
            body = yield from handle_order(sender, msg)
            return {**body, **garble}

        nodes[1]._handle_order = garbled
        receipt = self.submit(bus, client, pool, org_nym_txs(steward, "a")).result
        assert receipt["outcomes"] == ["APPLIED"]
        assert sorted(address for address, _ in receipt["acks"]) == [
            node.address for node in nodes if node is not nodes[1]
        ]

    def test_repeated_ack_counts_once(self):
        bus, pool, nodes, client, steward = build_pool()
        doctor_receipts(nodes[0], lambda receipt: {
            **receipt, "acks": receipt["acks"][:1] * pool.write_quorum
        })
        record = self.submit(bus, client, pool, org_nym_txs(steward, "a"))
        assert str(record.error) == "receipt carries 1 valid acks"

    def test_replica_that_missed_a_batch_catches_up_on_the_next_and_acks_it(self):
        rules = [
            FaultRule(action="drop", to="iin:iin0:3", kind="iin.order", occurrence=1),
            # without node 2's ack the second receipt needs node 3's
            FaultRule(action="drop", to="iin:iin0:2", kind="iin.order", occurrence=2),
        ]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        first = self.submit(bus, client, pool, org_nym_txs(steward, "a", "b"))
        assert nodes[3].next_seq == 0
        second = self.submit(bus, client, pool, org_nym_txs(steward, "c", "d"))
        assert first.error is None and second.error is None
        assert "iin:iin0:3" in [address for address, _ in second.result["acks"]]
        assert nodes[3].next_seq == 4
        assert nodes[3].state.state_hash() == nodes[0].state.state_hash()
        assert nodes[3].log == nodes[0].log

    def test_empty_batch_is_refused_by_name_and_takes_no_seq(self):
        bus, pool, nodes, client, steward = build_pool()

        def ask():
            return (yield Request(pool.sequencer, "iin.submit", {"txs": []}, timeout=50))

        record = client.start_session("ask", ask())
        bus.run_until_quiescent()
        assert record.result.body == {"ok": False, "error": "EmptyBatch"}
        assert self.submit(bus, client, pool, []).error.args == ("EmptyBatch",)
        assert [node.next_seq for node in nodes] == [0] * pool.n
        assert self.order_sends(bus) == 0

    @pytest.mark.parametrize("resent, acked", [
        ("same", True), ("other-tx", False), ("reordered", False), ("longer", False),
    ])
    def test_applied_range_is_acked_only_for_the_logged_transactions(self, resent, acked):
        bus, pool, nodes, client, steward = build_pool()
        txs = org_nym_txs(steward, "a", "b")
        self.submit(bus, client, pool, txs)
        other = org_nym_txs(steward, "c")
        batch = {
            "same": txs, "other-tx": [txs[0], *other], "reordered": txs[::-1],
            "longer": [*txs, *other],
        }[resent]

        def reorder():  # as the sequencer, re-send an order for seqs 0..
            body = {"first": 0, "txs": [tx.to_bytes().hex() for tx in batch]}
            return (yield Request(nodes[1].address, "iin.order", body, timeout=50))

        record = nodes[0].start_session("reorder", reorder())
        bus.run_until_quiescent()
        if acked:
            digest = registry.batch_digest([tx.digest() for tx in txs])
            assert (record.result.body["first"], record.result.body["last"]) == (0, 1)
            assert crypto.verify(
                nodes[1].keys.public_key,
                registry.Ack(0, 1, digest).to_bytes(),
                crypto.Signature(bytes.fromhex(record.result.body["ack"])),
            )
        else:
            assert record.result is None
        assert nodes[1].next_seq == 2


class TestMemberSnapshot:
    """`resolve_member`: holders' documents and issuers' revocation states
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

    def resolve(self, bus, pool, client, dids, issuers=(ISSUER,)):
        record = client.start_session("resolve", registry.resolve_member(pool, dids, issuers))
        bus.run_until_quiescent()
        return record

    def test_one_read_returns_document_verinym_and_revocation_states(self):
        bus, pool, nodes, client, org_did = self.setup_pool()
        steward_did = next(iter(nodes[0].state.roles))
        self.set_epochs(nodes, (3, 3, 3, 3))
        record = self.resolve(
            bus, pool, client, (org_did, steward_did), (self.ISSUER, "did:iin:iin0:none")
        )
        snapshot = record.result
        assert snapshot.holder(org_did) == (nodes[0].state.docs[org_did], True)
        assert snapshot.holder(steward_did) == (nodes[0].state.docs[steward_did], True)
        assert snapshot.revocation() == {self.ISSUER: nodes[0].state.revocation[self.ISSUER]}
        assert query_sends(bus) == list(pool.node_addresses[: pool.read_quorum])

    def test_unknown_holder_not_found(self):
        bus, pool, nodes, client, org_did = self.setup_pool()
        record = self.resolve(bus, pool, client, ("did:iin:iin0:nosuch", org_did))
        snapshot = record.result
        with pytest.raises(registry.NotFound):
            snapshot.holder("did:iin:iin0:nosuch")
        with pytest.raises(registry.NotFound):
            snapshot.holder("did:iin:iin0:not-asked")
        assert snapshot.holder(org_did)[0].did == org_did

    def test_a_read_of_no_holders_returns_the_revocation_states(self):
        bus, pool, nodes, client, _ = self.setup_pool()
        self.set_epochs(nodes, (2, 2, 2, 2))
        snapshot = self.resolve(bus, pool, client, ()).result
        assert snapshot.holders == ()
        assert snapshot.revocation()[self.ISSUER].epoch == 2

    def test_one_replica_at_another_epoch_still_resolves(self):
        bus, pool, nodes, client, org_did = self.setup_pool()
        self.set_epochs(nodes, (1, 2, 1, 1))
        record = self.resolve(bus, pool, client, (org_did,))
        assert record.error is None
        assert record.result.revocation()[self.ISSUER].epoch == 1
        assert sorted(query_sends(bus)) == sorted(pool.node_addresses)

    def test_mixed_epochs_with_matching_documents_are_inconsistent(self):
        bus, pool, nodes, client, org_did = self.setup_pool()
        self.set_epochs(nodes, (0, 1, 2, 3))
        assert len({node.state.docs[org_did] for node in nodes}) == 1
        record = self.resolve(bus, pool, client, (org_did,))
        assert isinstance(record.error, registry.InconsistentReplicas)

    @pytest.mark.parametrize("body", [
        {"what": registry.QUERY_MEMBER, "issuers": 5},
        {"what": registry.QUERY_MEMBER, "issuers": [5]},
        {"what": registry.QUERY_MEMBER, "holders": "x"},
        {"what": registry.QUERY_MEMBER, "holders": [["x"]]},
        {"what": registry.QUERY_MEMBER, "schemas": "schema:membership:1"},
        {"what": registry.QUERY_MEMBER, "schemas": [5]},
        {"what": registry.QUERY_MEMBER, "cred_defs": {}},
        {"what": registry.QUERY_MEMBER, "cred_defs": [None]},
        {"what": 5},
        {"what": "did"},
    ], ids=["issuers-not-a-list", "issuer-not-a-string", "holders-not-a-list",
            "holder-not-a-string", "schemas-not-a-list", "schema-not-a-string",
            "cred-defs-not-a-list", "cred-def-not-a-string", "what-not-a-string",
            "what-not-member"])
    def test_malformed_query_is_a_miss_and_the_replica_keeps_serving(self, body):
        bus, pool, nodes, client, org_did = self.setup_pool()
        body = {"holders": [org_did], "schemas": ["schema:membership:1"], **body}

        def ask():
            reply = yield Request(pool.sequencer, "iin.query", body, timeout=50)
            return registry.MemberSnapshot.from_bytes(bytes.fromhex(reply.body["result"]))

        record = client.start_session("ask", ask())
        bus.run_until_quiescent()
        assert record.result == registry.MemberSnapshot((), (), (), ())
        assert self.resolve(bus, pool, client, (org_did,)).result.holder(org_did)[0].did == org_did
