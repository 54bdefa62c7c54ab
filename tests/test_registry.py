"""Registry validation rules (pure) and the replicated pool (simulated)."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idplane import actors
from idplane import credentials as creds
from idplane import crypto, registry
from idplane import encoding as enc
from idplane.actors import Actor, Reply, Request
from idplane.anchors import membership_schema
from idplane.bus import BoxKeyPair, BusConfig, FaultRule, SimBus

from conftest import Raw


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


def signed(kind: str, payload: bytes, did: str, keys: crypto.KeyPair) -> registry.SignedBatch:
    """A batch of one transaction of `did`'s, signed with `keys`."""
    return registry.sign_batch(keys, registry.RegistryTransaction(kind, payload, did))


def apply_one(state: registry.RegistryState, batch: registry.SignedBatch):
    """The state after a one-transaction batch, and its outcome."""
    state, (outcome,) = registry.apply_batch(state, batch)
    return state, outcome


def revocation(state: crypto.RevocationRegistryState, *memberlists) -> bytes:
    """A REVOC_INIT or REVOC_UPDATE payload: `state` and `memberlists`."""
    return registry.RevocationUpdate(state, memberlists).to_bytes()


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
        tx = signed(registry.KIND_NYM, doc.to_bytes(), s_did, s_keys)
        state, outcome = apply_one(genesis, tx)
        assert outcome == "APPLIED"
        assert state.verinym_status(org_did)

    def test_unattested_self_registration_is_pseudonymous(self, genesis):
        org_keys, org_did, org_doc = make_identity("org")
        tx = signed(
            registry.KIND_NYM, org_doc.to_bytes(), org_did, org_keys
        )
        state, outcome = apply_one(genesis, tx)
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
        tx = signed(
            registry.KIND_NYM, forged.to_bytes(), other_did, org_keys
        )
        state, outcome = apply_one(genesis, tx)
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
        tx = signed(registry.KIND_NYM, payload, did, keys)
        state, outcome = apply_one(genesis, tx)
        assert outcome == "BadSignature"
        assert org_did not in state.docs

    def test_attestation_by_unroled_did_rejected(self, genesis):
        rogue_keys, rogue_did, rogue_doc = make_identity("rogue")
        state, _ = apply_one(
            genesis,
            signed(
                registry.KIND_NYM, rogue_doc.to_bytes(), rogue_did, rogue_keys
            ),
        )
        _, _, org_doc = make_identity("org")
        doc = attested(org_doc, rogue_did, rogue_keys)
        tx = signed(registry.KIND_NYM, doc.to_bytes(), rogue_did, rogue_keys)
        state2, outcome = apply_one(state, tx)
        assert outcome == "UnauthorizedRole"

    def test_identical_reregistration_is_duplicate(self, steward, genesis):
        s_keys, s_did, _ = steward
        _, _, org_doc = make_identity("org")
        doc = attested(org_doc, s_did, s_keys)
        tx = signed(registry.KIND_NYM, doc.to_bytes(), s_did, s_keys)
        state, outcome = apply_one(genesis, tx)
        assert outcome == "APPLIED"
        state2, outcome2 = apply_one(state, tx)
        assert outcome2 == "Duplicate"
        assert state2.state_hash() == state.state_hash()

    def test_revoc_update_epoch_jump_is_stale(self, steward, genesis):
        s_keys, s_did, _ = steward
        pmv_keys, pmv_did, pmv_doc = make_identity("pmv")
        state, _ = apply_one(
            genesis,
            signed(
                registry.KIND_NYM, attested(pmv_doc, s_did, s_keys).to_bytes(), s_did, s_keys
            ),
        )
        state, outcome = apply_one(
            state,
            signed(
                registry.KIND_ANCHOR_GRANT,
                registry.AnchorGrant(pmv_did, registry.ROLE_PMV).to_bytes(),
                s_did,
                s_keys,
            ),
        )
        assert outcome == "APPLIED"
        reg0, _ = crypto.accumulator_init(pmv_did)
        state, outcome = apply_one(
            state,
            signed(
                registry.KIND_REVOC_INIT, revocation(reg0), pmv_did, pmv_keys
            ),
        )
        assert outcome == "APPLIED"
        jumped = crypto.RevocationRegistryState(
            issuer_did=pmv_did, epoch=2, root=reg0.root, size_hint=1
        )
        state2, outcome = apply_one(
            state,
            signed(
                registry.KIND_REVOC_UPDATE, revocation(jumped), pmv_did, pmv_keys
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
                signed(
                    registry.KIND_NYM, attested(doc, s_did, s_keys).to_bytes(), s_did, s_keys
                ),
                signed(
                    registry.KIND_ANCHOR_GRANT,
                    registry.AnchorGrant(did, registry.ROLE_PMV).to_bytes(), s_did, s_keys,
                ),
            ):
                state, outcome = apply_one(state, tx)
                assert outcome == "APPLIED"
        (a_keys, a_did, _), (b_keys, b_did, _) = anchors
        schema_id = creds.schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME)
        b_id = creds.cred_def_id_for(b_did, schema_id)

        def cred_def_tx(issuer_did, keys):
            cred_def = creds.CredentialDefinition(b_id, schema_id, issuer_did, keys.public_key)
            return signed(
                registry.KIND_CRED_DEF, cred_def.to_bytes(), issuer_did, keys
            )

        state, outcome = apply_one(state, cred_def_tx(a_did, a_keys))
        assert outcome == "UnauthorizedRole"
        assert b_id not in state.cred_defs
        state, outcome = apply_one(state, cred_def_tx(b_did, b_keys))
        assert outcome == "APPLIED"
        assert state.cred_defs[b_id].issuer_did == b_did

    def test_registered_org_cannot_rewrite_another_orgs_document(self, steward, genesis):
        s_keys, s_did, _ = steward
        a_keys, a_did, a_doc = make_identity("orgA")
        _, b_did, b_doc = make_identity("orgB")
        state = genesis
        for tx in (
            signed(registry.KIND_NYM, a_doc.to_bytes(), a_did, a_keys),
            signed(
                registry.KIND_NYM, attested(b_doc, s_did, s_keys).to_bytes(), s_did, s_keys
            ),
        ):
            state, outcome = apply_one(state, tx)
            assert outcome == "APPLIED"
        # A redirects B's endpoint to itself and drops B's attestation
        hijack = replace(b_doc, service_endpoint="agent:A", version=2)
        after, outcome = apply_one(
            state,
            signed(registry.KIND_NYM, hijack.to_bytes(), a_did, a_keys),
        )
        assert outcome == "UnauthorizedRole"
        assert after.docs[b_did] == state.docs[b_did]
        assert after.verinym_status(b_did)

    def test_bad_submitter_signature_rejected(self, steward, genesis):
        s_keys, s_did, _ = steward
        rogue, _, _ = make_identity("rogue")
        schema = membership_schema()
        tx = registry.RegistryTransaction(registry.KIND_SCHEMA, schema.to_bytes(), s_did)
        batch = registry.SignedBatch((tx,), rogue.sign(registry.authorization((tx,))))
        state, outcome = apply_one(genesis, batch)
        assert outcome == "BadSignature"
        assert state is genesis


@pytest.fixture(scope="module")
def published():
    """A registry with the steward, an anchor `pmv` holding a revocation state,
    a schema and a credential definition, an anchor `pmv2` with none, and a
    self-registered `member` that holds no role."""
    s_keys, s_did, s_doc = make_identity("steward")
    pmv, pmv2 = make_identity("pmv"), make_identity("pmv2")
    m_keys, m_did, m_doc = make_identity("member")
    state = registry.RegistryState.genesis((s_doc,))
    txs = [signed(registry.KIND_NYM, m_doc.to_bytes(), m_did, m_keys)]
    for _, did, doc in (pmv, pmv2):
        txs += [
            signed(
                registry.KIND_NYM, attested(doc, s_did, s_keys).to_bytes(), s_did, s_keys
            ),
            signed(
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
        (registry.KIND_REVOC_INIT, revocation(crypto.accumulator_init(did)[0])),
        (registry.KIND_SCHEMA, schema.to_bytes()),
        (registry.KIND_CRED_DEF, cred_def.to_bytes()),
    ):
        txs.append(signed(kind, payload, did, keys))
    for tx in txs:
        state, outcome = apply_one(state, tx)
        assert outcome == "APPLIED"
    ids = {"steward": (s_keys, s_did), "pmv": pmv[:2], "pmv2": pmv2[:2], "member": (m_keys, m_did)}
    return state, ids, cred_def


@pytest.mark.parametrize("submitter, kind, payload, outcome", [
    ("pmv2", registry.KIND_REVOC_INIT,
     lambda ids, _: revocation(crypto.accumulator_init(ids["pmv"][1])[0]), "UnauthorizedRole"),
    ("pmv", registry.KIND_REVOC_INIT,
     lambda ids, _: revocation(crypto.accumulator_init(ids["pmv"][1], (b"x",))[0]), "DuplicateId"),
    ("pmv2", registry.KIND_REVOC_INIT, lambda ids, _: revocation(crypto.RevocationRegistryState(
        issuer_did=ids["pmv2"][1], epoch=1, root=b"\x00" * 32, size_hint=0
    )), "StaleEpoch"),
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
    tx = signed(kind, payload(ids, cred_def), did, keys)
    after, got = apply_one(state, tx)
    assert got == outcome
    assert after.state_hash() == state.state_hash()


def memberlist(ids, issuer="pmv", network="NET", members=(), version=1, signer=None):
    """A memberlist credential of `network` naming `issuer`, signed by `signer`'s keys."""
    return creds.issue_memberlist_credential(
        ids[signer or issuer][0], ids[issuer][1], creds.cred_def_id_for(ids[issuer][1], "memberlist"), network,
        members, version,
    )


def next_epoch(state: registry.RegistryState, did: str) -> crypto.RevocationRegistryState:
    return replace(state.revocation[did], epoch=state.revocation[did].epoch + 1)


class TestMemberlistWrites:
    """A memberlist rides its issuer's revocation transaction: one list per
    (issuer, network), written only by its issuer, at a rising roster
    version, and committed with the revocation state or not at all."""

    def apply(self, state, ids, *lists, submitter="pmv", kind=registry.KIND_REVOC_UPDATE):
        keys, did = ids[submitter]
        update = next_epoch(state, ids["pmv"][1])
        tx = signed(kind, revocation(update, *lists), did, keys)
        return apply_one(state, tx)

    def test_issuer_writes_its_list_with_the_epoch_step(self, published):
        state, ids, _ = published
        ml = memberlist(ids, members=(ids["member"][1],))
        after, outcome = self.apply(state, ids, ml)
        assert outcome == "APPLIED"
        assert after.memberlists == {(ids["pmv"][1], "NET"): ml}
        assert after.revocation[ids["pmv"][1]].epoch == 1

    @pytest.mark.parametrize("issuer, signer", [("pmv2", "pmv2"), ("pmv2", "pmv")],
                             ids=["issued-by-another-anchor", "naming-another-issuer"])
    def test_a_list_of_another_issuer_is_refused(self, published, issuer, signer):
        state, ids, _ = published
        after, outcome = self.apply(state, ids, memberlist(ids, issuer=issuer, signer=signer))
        assert outcome == "UnauthorizedRole"
        assert after.state_hash() == state.state_hash()

    @pytest.mark.parametrize("version", [1, 0], ids=["same-version", "lower-version"])
    def test_a_list_that_does_not_raise_its_roster_version_is_refused(self, published, version):
        state, ids, _ = published
        state, outcome = self.apply(state, ids, memberlist(ids, version=1))
        assert outcome == "APPLIED"
        after, outcome = self.apply(state, ids, memberlist(ids, version=version, members=("x",)))
        assert outcome == "StaleRoster"
        assert after.state_hash() == state.state_hash()
        # the refused list takes the epoch step down with it
        assert after.revocation == state.revocation

    def test_two_lists_of_one_network_in_one_write_must_rise_too(self, published):
        state, ids, _ = published
        first, second = memberlist(ids, version=2), memberlist(ids, version=2, members=("x",))
        assert self.apply(state, ids, first, second)[1] == "StaleRoster"
        after, outcome = self.apply(state, ids, first, memberlist(ids, network="OTHER"))
        assert outcome == "APPLIED"
        assert sorted(after.memberlists) == [(ids["pmv"][1], "NET"), (ids["pmv"][1], "OTHER")]

    def test_the_fold_does_not_verify_the_lists_signature(self, published):
        """Readers verify a list under its issuer's credential definition;
        the registry only checks who wrote it."""
        state, ids, _ = published
        forged = memberlist(ids, signer="pmv2")
        after, outcome = self.apply(state, ids, forged)
        assert outcome == "APPLIED"
        assert after.memberlists[(ids["pmv"][1], "NET")] == forged


class TestListedMembersNeedDocuments:
    """A revocation update may add to a list only DIDs the registry holds a
    document of at that point of the fold: a holder's NYM may ride ahead of
    it in one batch, and if that NYM is refused, so is the update."""

    @staticmethod
    def update(state, ids, *members):
        did = ids["pmv"][1]
        payload = revocation(next_epoch(state, did), memberlist(ids, members=members))
        return registry.RegistryTransaction(registry.KIND_REVOC_UPDATE, payload, did)

    def test_an_update_adding_an_unregistered_did_is_refused_by_name(self, published):
        state, ids, _ = published
        _, stranger, _ = make_identity("stranger")
        after, outcome = registry.apply_transaction(
            state, self.update(state, ids, ids["member"][1], stranger)
        )
        assert outcome == "UnregisteredMember"
        assert after is state

    @pytest.mark.parametrize("nym, outcomes", [
        (lambda doc: doc, ("APPLIED", "APPLIED")),
        (lambda doc: replace(doc, did=make_identity("other")[1]),
         ("BadSignature", "UnregisteredMember")),
    ], ids=["registered-first", "refused-first"])
    def test_a_holder_s_nym_ahead_of_the_update_in_one_batch(self, published, nym, outcomes):
        state, ids, _ = published
        keys, did = ids["pmv"]
        _, stranger, doc = make_identity("stranger")
        batch = registry.sign_batch(
            keys,
            registry.RegistryTransaction(registry.KIND_NYM, nym(doc).to_bytes(), did),
            self.update(state, ids, stranger),
        )
        after, got = registry.apply_batch(state, batch)
        assert got == outcomes
        listed = after.memberlists.get((did, "NET"))
        assert (listed is not None and stranger in listed.member_dids) == (outcomes[1] == "APPLIED")

    def test_the_pool_replay_and_a_catching_up_replica_reproduce_the_refusal(self):
        # node 3 misses the refused update's order and fetches it with the next one
        rules = [FaultRule(action="drop", to="iin:iin0:3", kind="iin.order", occurrence=3)]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        s_keys, s_did, _ = steward
        p_keys, p_did, p_doc = make_identity("pmv")
        _, stranger, s_doc = make_identity("stranger")

        def listing(epoch, *txs):
            state = crypto.RevocationRegistryState(p_did, epoch, bytes(32), 0)
            ml = creds.issue_memberlist_credential(
                p_keys, p_did, "memberlist", "NET", (stranger,), epoch
            )
            kind = registry.KIND_REVOC_UPDATE if epoch else registry.KIND_REVOC_INIT
            payload = revocation(state, ml) if epoch else revocation(state)
            return (*txs, registry.RegistryTransaction(kind, payload, p_did))

        nym = registry.RegistryTransaction(registry.KIND_NYM, s_doc.to_bytes(), p_did)
        batches = [
            registry.sign_batch(s_keys, *(
                registry.RegistryTransaction(kind, payload, s_did) for kind, payload in (
                    (registry.KIND_NYM, attested(p_doc, s_did, s_keys).to_bytes()),
                    (registry.KIND_ANCHOR_GRANT,
                     registry.AnchorGrant(p_did, registry.ROLE_PMV).to_bytes()),
                )
            )),
            registry.sign_batch(p_keys, *listing(0)),
            registry.sign_batch(p_keys, *listing(1)),
            registry.sign_batch(p_keys, *listing(1, nym)),
        ]
        outcomes = []
        for batch in batches:
            record = client.start_session("submit", registry.submit_transaction(pool, batch))
            bus.run_until_quiescent()
            outcomes.append(record.result.outcomes)
        assert outcomes == [
            ("APPLIED",) * 2, ("APPLIED",), ("UnregisteredMember",), ("APPLIED",) * 2
        ]
        assert [e.kind for e in bus.trace.events if e.kind == "bus.drop"] == ["bus.drop"]
        assert all(node.log == nodes[0].log for node in nodes)
        assert [entry.outcomes for entry in nodes[3].log] == outcomes
        fresh = registry.replay_log(nodes[0].genesis, nodes[0].log)
        assert {node.state.state_hash() for node in nodes} == {fresh.state_hash()}
        assert fresh.memberlists[(p_did, "NET")].member_dids == (stranger,)


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
    state, _ = apply_one(
        state,
        signed(
            registry.KIND_NYM, attested(actor_doc, s_did, s_keys).to_bytes(), s_did, s_keys
        ),
    )
    if role is not None and role != "STEWARD":
        state, outcome = apply_one(
            state,
            signed(
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
        state, outcome = apply_one(
            state,
            signed(
                registry.KIND_REVOC_INIT, revocation(reg0), actor_did, actor_keys
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
        payload = revocation(crypto.accumulator_init(actor_did)[0])
    else:  # REVOC_UPDATE / ANCHOR_GRANT
        if kind == registry.KIND_REVOC_UPDATE:
            next_state, _ = crypto.accumulator_add(
                crypto.accumulator_init(actor_did)[0], (), seed32("cred")
            )
            payload = revocation(next_state)
        else:
            _, target_did, _ = make_identity("target")
            payload = registry.AnchorGrant(target_did, registry.ROLE_OIV).to_bytes()

    tx = signed(kind, payload, actor_did, actor_keys)
    _, outcome = apply_one(state, tx)
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
        return signed(
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
    return signed(kind, doc.to_bytes(), s_did, s_keys)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(nym_steps, grant_steps), min_size=1, max_size=12))
def test_verinym_lookup_matches_reverified_attestations(steps):
    """Reading the status from write-validated state agrees with re-verifying
    every stored attestation, after every NYM and role grant."""
    state = registry.RegistryState.genesis((PARTIES[0][2],))
    for keys, did, doc in PARTIES[1:3]:  # two pseudonyms; the last party starts unknown
        tx = signed(registry.KIND_NYM, doc.to_bytes(), did, keys)
        state, _ = apply_one(state, tx)
    for step in steps:
        state, _ = apply_one(state, step_transaction(state, step))
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
        node.bind(bus)
        bus.register(node, BoxKeyPair.from_seed(seed32("bx" + address)))
        nodes.append(node)
    client = Client("client")
    client.bind(bus)
    bus.register(client, BoxKeyPair.from_seed(seed32("bxc")))
    return bus, pool, nodes, client, (steward_keys, steward_did, steward_doc)


def org_nym_tx(steward):
    s_keys, s_did, _ = steward
    _, org_did, org_doc = make_identity("org")
    doc = attested(org_doc, s_did, s_keys)
    return signed(registry.KIND_NYM, doc.to_bytes(), s_did, s_keys), org_did


def query_sends(bus) -> list[str]:
    return [
        e.detail["to"]
        for e in bus.trace.events
        if e.kind == "bus.send" and e.detail["msg_kind"] == "iin.query"
    ]


def lose_sequencer_reads(bus, pool) -> None:
    """Drop every `iin.query` to the sequencer from here on: each read then
    falls back to the other nodes."""
    bus.config.rules.append(FaultRule(action="drop", to=pool.sequencer, kind="iin.query"))


# a read with the sequencer's reply in hand, and one whose fallback decides it
READS = pytest.mark.parametrize("lost", [False, True], ids=["lossless", "sequencer-lost"])


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
        assert receipt.outcomes == ("APPLIED",)
        # 2f replica acks: the receipt itself is the sequencer's
        assert len(receipt.acks) == pool.write_quorum - 1
        assert pool.sequencer not in dict(receipt.acks)
        for node in nodes:
            assert org_did in node.state.docs

    def test_replica_convergence_hashes_identical(self):
        bus, pool, nodes, client, steward = build_pool(seed=5)
        s_keys, s_did, _ = steward
        for label in ("a", "b", "c"):
            _, _, doc = make_identity("org" + label)
            tx = signed(
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
        assert r1.result.outcomes == ("APPLIED",)
        assert r2.result.outcomes == ("Duplicate",)
        assert nodes[0].state.state_hash() == hash_before
        # the rejection is part of every replica's log
        for node in nodes:
            assert [entry.outcomes for entry in node.log] == [("APPLIED",), ("Duplicate",)]

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

    def test_resolve_survives_one_corrupted_reply_in_each_stage(self):
        rules = [
            FaultRule(action="tamper", from_=f"iin:iin0:{i}", kind="iin.query.reply")
            for i in (0, 1)
        ]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        assert record.error is None
        doc, _ = record.result
        assert doc.did == org_did

    @READS
    def test_divergent_replicas_yield_inconsistency_error(self, lost):
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
        if lost:
            lose_sequencer_reads(bus, pool)
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        if lost:
            assert isinstance(record.error, registry.InconsistentReplicas)
        else:  # the other replicas are not asked
            assert record.result[0] == nodes[0].state.docs[org_did]
            assert query_sends(bus) == [pool.sequencer]

    @pytest.mark.parametrize("stage", ["sequencer", "fallback"])
    def test_reply_with_a_non_string_result_matches_no_other(self, stage):
        # the fallback's last honest reply comes last, so the faulty one is tallied
        rules = [FaultRule(action="delay", from_="iin:iin0:3", kind="iin.query.reply", delay=30)]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        faulty = nodes[0] if stage == "sequencer" else nodes[2]
        if stage == "fallback":
            lose_sequencer_reads(bus, pool)
        faulty._query = lambda sender, msg: {"result": ["not", "hex"]}
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        assert record.error is None
        assert record.result[0] == nodes[0].state.docs[org_did]

    def test_lossless_read_asks_only_the_sequencer(self):
        bus, pool, nodes, client, steward = build_pool()
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        assert record.result[0].did == org_did
        assert query_sends(bus) == [pool.sequencer]

    @READS
    def test_a_forged_replica_is_outvoted_in_the_fallback(self, lost):
        bus, pool, nodes, client, steward = build_pool()
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        nodes[1].state = with_endpoint(nodes[1].state, org_did, "forged:1")
        if lost:
            lose_sequencer_reads(bus, pool)
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        bus.run_until_quiescent()
        assert record.error is None
        doc, _ = record.result
        assert doc == nodes[0].state.docs[org_did]
        assert sorted(query_sends(bus)) == sorted(pool.node_addresses if lost else [pool.sequencer])

    def test_lost_sequencer_query_falls_back_after_the_timeout(self):
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

    @READS
    def test_a_write_acked_without_a_lagging_replica_is_hidden_only_in_the_fallback(self, lost):
        """tx2 commits with the acks of nodes 1 and 3, as node 2 missed its
        order, and node 1 then answers from before tx2. The sequencer holds
        tx2, so a lossless read returns its document. Without the
        sequencer's reply, nodes 1 and 2 match on the state before tx2:
        f+1 matching replies prove only that one honest node holds that
        state. This pins the residual as NotFound (ROADMAP item 4)."""
        rules = [FaultRule(action="drop", to="iin:iin0:2", kind="iin.order", occurrence=2)]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        s_keys, s_did, _ = steward
        tx1, _ = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx1))
        bus.run_until_quiescent()
        before = nodes[1].state
        _, did2, doc2 = make_identity("org2")
        tx2 = signed(registry.KIND_NYM, attested(doc2, s_did, s_keys).to_bytes(), s_did, s_keys)
        record = client.start_session("submit", registry.submit_transaction(pool, tx2))
        bus.run_until_quiescent()
        assert record.result.outcomes == ("APPLIED",)
        assert sorted(dict(record.result.acks)) == [nodes[1].address, nodes[3].address]
        assert did2 not in nodes[2].state.docs
        nodes[1].state = before
        if lost:
            lose_sequencer_reads(bus, pool)
        record = client.start_session("resolve", registry.resolve_did(pool, did2))
        bus.run_until_quiescent()
        if lost:
            assert isinstance(record.error, registry.NotFound)
        else:
            assert record.result[0] == nodes[0].state.docs[did2]

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
            assert record.result.outcomes == ("APPLIED",)

        def verinym():
            record = client.start_session("resolve", registry.resolve_did(pool, org_did))
            bus.run_until_quiescent()
            return record.result[1]

        commit(signed(
            registry.KIND_NYM, org_doc.to_bytes(), org_did, org_keys
        ))
        assert verinym() is False  # self-registered: a pseudonym
        if write == "nym":
            bumped = attested(replace(org_doc, version=2), s_did, s_keys)
            kind, payload = registry.KIND_NYM, bumped.to_bytes()
        else:
            kind = registry.KIND_ANCHOR_GRANT
            payload = registry.AnchorGrant(org_did, registry.ROLE_STEWARD).to_bytes()
        commit(signed(kind, payload, s_did, s_keys))
        assert verinym() is True

    def test_catch_up_after_missed_order(self):
        # node 3 misses the first ORDER, must fetch it before acking later ones
        rules = [FaultRule(action="drop", to="iin:iin0:3", kind="iin.order", occurrence=1)]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        s_keys, s_did, _ = steward
        for label in ("a", "b"):
            _, _, doc = make_identity("org" + label)
            tx = signed(
                registry.KIND_NYM, attested(doc, s_did, s_keys).to_bytes(), s_did, s_keys
            )
            client.start_session("submit", registry.submit_transaction(pool, tx))
            bus.run_until_quiescent()
        assert len({node.state.state_hash() for node in nodes}) == 1
        assert nodes[3].next_seq == 2

    @pytest.mark.parametrize("body, reply", [
        (registry.Fetch(1, 0), Reply("", registry.Entries(()))),
        (registry.Fetch(5, 9), Reply("", registry.Entries(()))),
        (registry.Fetch(0, 0).to_bytes()[:-1], Reply("DecodeError")),
    ], ids=["ends-before-it-starts", "past-the-log", "truncated"])
    def test_fetch_of_no_entries_gets_none_and_the_replica_keeps_serving(self, body, reply):
        bus, pool, nodes, client, steward = build_pool()
        tx, _ = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()

        def fetch(body):
            return (yield Request(pool.sequencer, "iin.fetch", body, timeout=50))

        if isinstance(body, bytes):
            body = Raw(body)
        asked = client.start_session("fetch", fetch(body))
        bus.run_until_quiescent()
        assert asked.error is None and asked.result == reply
        wellformed = client.start_session("fetch", fetch(registry.Fetch(0, 0)))
        bus.run_until_quiescent()
        assert [entry.first for entry in wellformed.result.body.entries] == [0]

    def test_log_replay_reproduces_state_hash(self):
        bus, pool, nodes, client, steward = build_pool(seed=8)
        s_keys, s_did, _ = steward
        for label in ("a", "b", "c"):
            _, _, doc = make_identity("org" + label)
            tx = signed(
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
                signed(
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
                signed(
                    registry.KIND_NYM, rogue_doc.to_bytes(), rogue_did, rogue_keys
                ),
            ),
        )
        bus.run_until_quiescent()
        schema_tx = signed(
            registry.KIND_SCHEMA, membership_schema().to_bytes(), rogue_did, rogue_keys
        )
        record = client.start_session(
            "submit", registry.submit_transaction(pool, schema_tx)
        )
        bus.run_until_quiescent()
        assert record.result.outcomes == ("UnauthorizedRole",)


def org_nym_txs(steward, *labels) -> list[registry.RegistryTransaction]:
    """The steward's unsigned NYM of an attested org per label."""
    s_keys, s_did, _ = steward
    return [
        registry.RegistryTransaction(
            registry.KIND_NYM,
            attested(make_identity("org" + label)[2], s_did, s_keys).to_bytes(),
            s_did,
        )
        for label in labels
    ]


def steward_batch(steward, *labels) -> registry.SignedBatch:
    """The steward's NYMs of `org_nym_txs`, signed as one batch."""
    return registry.sign_batch(steward[0], *org_nym_txs(steward, *labels))


def doctor_receipts(sequencer, change):
    """Make the sequencer answer each submit with `change(receipt)`."""
    original = sequencer._sequence

    def doctored(sender, submit):
        receipt = yield from original(sender, submit)
        return change(receipt)

    sequencer._sequence = doctored


def forge_acks(node, forged_bytes):
    """Make `node` sign its acks over `forged_bytes(first, last, digest)`
    while its ack bodies name the batch it applied."""
    handle_order = node._handle_order

    def forged(sender, order):
        acked = yield from handle_order(sender, order)
        ack = acked.ack
        signature = node.keys.sign(forged_bytes(ack.first, ack.last, ack.batch_digest)).bytes_
        return replace(acked, signature=signature)

    node._handle_order = forged


OTHER_ACKS = {
    "other-range": lambda first, last, digest: registry.Ack(
        first + 1, last + 1, digest
    ).to_bytes(),
    "other-digest": lambda first, last, digest: registry.Ack(
        first, last, crypto.digest(b"another batch")
    ).to_bytes(),
}


class TestBatches:
    """One order and 2f replica acks per batch of a client's transactions."""

    def submit(self, bus, client, pool, batch):
        record = client.start_session("submit", registry.submit_transaction(pool, batch))
        bus.run_until_quiescent()
        return record

    def order_sends(self, bus) -> int:
        return sum(
            1 for e in bus.trace.events
            if e.kind == "bus.send" and e.detail["msg_kind"] == "iin.order"
        )

    def test_batch_applies_in_order_with_one_order_per_replica(self):
        bus, pool, nodes, client, steward = build_pool()
        batch = steward_batch(steward, "a", "b", "c")
        receipt = self.submit(bus, client, pool, batch).result
        assert (receipt.first, receipt.last) == (0, 2)
        assert receipt.outcomes == ("APPLIED",) * 3
        assert receipt.tx_digests == tuple(tx.digest() for tx in batch.txs)
        assert self.order_sends(bus) == pool.n - 1
        for node in nodes:
            assert node.log == [registry.Logged(0, batch, receipt.outcomes)]
        assert len({node.state.state_hash() for node in nodes}) == 1

    @pytest.mark.parametrize("change", [
        lambda txs: txs[::-1],
        lambda txs: txs[:1],
    ], ids=["reordered", "missing-one"])
    def test_receipt_for_another_batch_is_refused(self, change):
        bus, pool, nodes, client, steward = build_pool()
        # the pool orders and acks the changed batch, so every ack is valid
        sequence = nodes[0]._sequence
        nodes[0]._sequence = lambda sender, batch: sequence(
            sender, replace(batch, txs=change(batch.txs))
        )
        record = self.submit(bus, client, pool, steward_batch(steward, "a", "b"))
        assert isinstance(record.error, registry.QuorumUnavailable)
        assert str(record.error) == "receipt names other transactions"

    @pytest.mark.parametrize("forged", sorted(OTHER_ACKS))
    def test_sequencer_counts_no_ack_over_another_batch(self, forged):
        bus, pool, nodes, client, steward = build_pool()
        for node in nodes[2:]:
            forge_acks(node, OTHER_ACKS[forged])
        record = self.submit(bus, client, pool, steward_batch(steward, "a", "b"))
        assert isinstance(record.error, registry.QuorumUnavailable)
        assert str(record.error) == "QuorumUnavailable"

    @pytest.mark.parametrize("forged", [*sorted(OTHER_ACKS), "forger-key"])
    def test_client_counts_no_ack_over_another_batch(self, forged):
        bus, pool, nodes, client, steward = build_pool()
        batch = steward_batch(steward, "a", "b")
        digest = registry.batch_digest([tx.digest() for tx in batch.txs])

        def sign(node):
            if forged == "forger-key":
                return FORGER_KEYS.sign(registry.Ack(0, 1, digest).to_bytes())
            return node.keys.sign(OTHER_ACKS[forged](0, 1, digest))

        acks = tuple((node.address, sign(node).bytes_) for node in nodes)
        doctor_receipts(nodes[0], lambda receipt: replace(receipt, acks=acks))
        record = self.submit(bus, client, pool, batch)
        assert isinstance(record.error, registry.QuorumUnavailable)
        assert str(record.error) == "receipt carries 0 valid replica acks"

    @pytest.mark.parametrize("garble", [
        lambda acked: replace(acked, signature=b"zz"),
        lambda acked: replace(acked, address="iin:iin0:9"),
        lambda acked: Raw(acked.to_bytes()[:-1]),
    ], ids=["signature-not-an-ed25519-signature", "unknown-address", "truncated"])
    def test_malformed_ack_counts_as_invalid(self, garble):
        bus, pool, nodes, client, steward = build_pool()
        handle_order = nodes[1]._handle_order

        def garbled(sender, order):
            acked = yield from handle_order(sender, order)
            return garble(acked)

        nodes[1]._handle_order = garbled
        receipt = self.submit(bus, client, pool, steward_batch(steward, "a")).result
        assert receipt.outcomes == ("APPLIED",)
        assert sorted(address for address, _ in receipt.acks) == [
            node.address for node in nodes[2:]
        ]

    def test_repeated_ack_counts_once(self):
        bus, pool, nodes, client, steward = build_pool()
        doctor_receipts(nodes[0], lambda receipt: replace(
            receipt, acks=receipt.acks[:1] * pool.write_quorum
        ))
        record = self.submit(bus, client, pool, steward_batch(steward, "a"))
        assert str(record.error) == "receipt carries 1 valid replica acks"

    def test_the_sequencers_own_ack_in_its_receipt_does_not_count(self):
        """The receipt is the sequencer's ack: a signature of its own in the
        ack list adds nothing to the replicas' 2f."""
        bus, pool, nodes, client, steward = build_pool()

        def with_own_ack(receipt):
            digest = registry.batch_digest(receipt.tx_digests)
            ack = registry.Ack(receipt.first, receipt.last, digest)
            own = (nodes[0].address, nodes[0].keys.sign(ack.to_bytes()).bytes_)
            return replace(receipt, acks=(own, receipt.acks[0]))

        doctor_receipts(nodes[0], with_own_ack)
        record = self.submit(bus, client, pool, steward_batch(steward, "a"))
        assert str(record.error) == "receipt carries 1 valid replica acks"

    def test_replica_that_missed_a_batch_catches_up_on_the_next_and_acks_it(self):
        rules = [
            FaultRule(action="drop", to="iin:iin0:3", kind="iin.order", occurrence=1),
            # without node 2's ack the second receipt needs node 3's
            FaultRule(action="drop", to="iin:iin0:2", kind="iin.order", occurrence=2),
        ]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        first = self.submit(bus, client, pool, steward_batch(steward, "a", "b"))
        assert nodes[3].next_seq == 0
        second = self.submit(bus, client, pool, steward_batch(steward, "c", "d"))
        assert first.error is None and second.error is None
        assert "iin:iin0:3" in [address for address, _ in second.result.acks]
        assert nodes[3].next_seq == 4
        assert nodes[3].state.state_hash() == nodes[0].state.state_hash()
        assert nodes[3].log == nodes[0].log

    def test_replica_hashes_each_ordered_transaction_once_and_encodes_none(self, monkeypatch):
        """A replica applies the transactions it decoded from an order by
        their kept bytes: the codec encodes neither a transaction nor its
        signing bytes, and each transaction is hashed once."""
        bus, pool, nodes, client, steward = build_pool()
        batch = steward_batch(steward, "a", "b", "c")
        order = actors.read(registry.Order, registry.Order(0, batch).to_bytes())
        txs = batch.txs
        encodes, hashed = [], []
        codec = enc._codec(registry.RegistryTransaction)
        encode, digest = codec.encode, crypto.digest
        monkeypatch.setattr(codec, "encode", lambda tx: encodes.append(tx) or encode(tx))
        monkeypatch.setattr(crypto, "digest", lambda data: hashed.append(data) or digest(data))
        with pytest.raises(StopIteration) as done:
            next(nodes[1]._handle_order(pool.sequencer, order))
        assert done.value.value.ack.batch_digest == registry.batch_digest(
            [digest(tx.to_bytes()) for tx in txs]
        )
        assert [entry.outcomes for entry in nodes[1].log] == [("APPLIED",) * 3]
        assert encodes == []
        sent = [tx.to_bytes() for tx in txs]
        assert [data for data in hashed if data in sent] == sent

    def test_a_transaction_ordered_by_the_pool_is_hashed_once_by_all_its_replicas(
        self, monkeypatch
    ):
        """Inside the bus loop the replicas share the transaction the
        sequencer decoded, and it keeps its digest: the client hashes its
        own transaction once, and the four replicas together hash theirs
        once."""
        bus, pool, nodes, client, steward = build_pool()
        txs = org_nym_txs(steward, "a", "b")
        hashed, digest = [], crypto.digest
        monkeypatch.setattr(crypto, "digest", lambda data: hashed.append(data) or digest(data))
        record = self.submit(bus, client, pool, registry.sign_batch(steward[0], *txs))
        assert record.result.outcomes == ("APPLIED",) * 2
        assert [node.next_seq for node in nodes] == [2] * pool.n
        sent = [tx.to_bytes() for tx in txs]
        assert sorted(data for data in hashed if data in sent) == sorted(sent * 2)

    def test_empty_batch_is_refused_by_name_and_takes_no_seq(self):
        bus, pool, nodes, client, steward = build_pool()

        def ask():
            body = registry.SignedBatch((), crypto.Signature(b""))
            return (yield Request(pool.sequencer, "iin.submit", body, timeout=50))

        record = client.start_session("ask", ask())
        bus.run_until_quiescent()
        assert record.result == Reply("EmptyBatch")
        assert self.submit(bus, client, pool, steward_batch(steward)).error.args == ("EmptyBatch",)
        assert [node.next_seq for node in nodes] == [0] * pool.n
        assert self.order_sends(bus) == 0

    @pytest.mark.parametrize("resent, acked", [
        ("same", True), ("other-tx", False), ("reordered", False), ("longer", False),
        ("other-signature", False),
    ])
    def test_applied_range_is_acked_only_for_the_logged_transactions(self, resent, acked):
        bus, pool, nodes, client, steward = build_pool()
        txs = org_nym_txs(steward, "a", "b")
        self.submit(bus, client, pool, registry.sign_batch(steward[0], *txs))
        other = org_nym_txs(steward, "c")
        batch = {
            "same": txs, "other-tx": [txs[0], *other], "reordered": txs[::-1],
            "longer": [*txs, *other], "other-signature": txs,
        }[resent]
        keys = FORGER_KEYS if resent == "other-signature" else steward[0]

        def reorder():  # as the sequencer, re-send an order for seqs 0..
            body = registry.Order(0, registry.sign_batch(keys, *batch))
            return (yield Request(nodes[1].address, "iin.order", body, timeout=50))

        record = nodes[0].start_session("reorder", reorder())
        bus.run_until_quiescent()
        if acked:
            digest = registry.batch_digest([tx.digest() for tx in txs])
            assert record.result.body.ack == registry.Ack(0, 1, digest)
            assert crypto.verify(
                nodes[1].keys.public_key,
                registry.Ack(0, 1, digest).to_bytes(),
                crypto.Signature(record.result.body.signature),
            )
        else:
            assert record.result is None
        assert nodes[1].next_seq == 2


def forged_batches(steward) -> dict[str, registry.SignedBatch]:
    """Batches of the steward's NYMs whose signature authorizes none of
    their transactions."""
    s_keys, _, _ = steward
    txs = tuple(org_nym_txs(steward, "a", "b"))
    self_nym = registry.RegistryTransaction(
        registry.KIND_NYM, make_identity("orgself")[2].to_bytes(), make_identity("orgself")[1]
    )
    return {
        "other-digest-list": registry.SignedBatch(
            txs, s_keys.sign(registry.authorization(txs[::-1]))
        ),
        "subset": registry.SignedBatch(txs, s_keys.sign(registry.authorization(txs[:1]))),
        "other-key": registry.SignedBatch(txs, FORGER_KEYS.sign(registry.authorization(txs))),
        "two-submitters": registry.sign_batch(s_keys, txs[0], self_nym),
    }


FORGED = ("other-digest-list", "subset", "other-key", "two-submitters")


class TestBatchSignature:
    """One signature per writer per batch: a replica checks it once, as it
    applies the batch, and a signature that does not authorize the batch
    rejects each of its transactions as BadSignature."""

    @pytest.mark.parametrize("form", FORGED)
    def test_a_forged_batch_rejects_every_transaction_and_changes_nothing(
        self, steward, genesis, form
    ):
        batch = forged_batches(steward)[form]
        after, outcomes = registry.apply_batch(genesis, batch)
        assert outcomes == ("BadSignature",) * len(batch.txs)
        assert after is genesis

    @pytest.mark.parametrize("form", FORGED)
    def test_replay_and_a_catching_up_replica_reproduce_a_forged_batch(self, form):
        # node 3 misses the forged batch's order and fetches it with the next one
        rules = [FaultRule(action="drop", to="iin:iin0:3", kind="iin.order", occurrence=1)]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        batch = forged_batches(steward)[form]
        forged = client.start_session("submit", registry.submit_transaction(pool, batch))
        bus.run_until_quiescent()
        assert forged.result.outcomes == ("BadSignature",) * len(batch.txs)
        assert nodes[0].state.state_hash() == nodes[0].genesis.state_hash()
        valid = client.start_session(
            "submit", registry.submit_transaction(pool, steward_batch(steward, "c"))
        )
        bus.run_until_quiescent()
        assert valid.result.outcomes == ("APPLIED",)
        assert [entry.outcomes for entry in nodes[3].log] == [
            forged.result.outcomes, ("APPLIED",)
        ]
        assert all(node.log == nodes[0].log for node in nodes)
        fresh = registry.replay_log(nodes[0].genesis, nodes[0].log)
        assert {node.state.state_hash() for node in nodes} == {fresh.state_hash()}

    @pytest.mark.parametrize("change, error", [
        (lambda log: [replace(log[0], batch=replace(
            log[0].batch, signature=FORGER_KEYS.sign(registry.authorization(log[0].batch.txs))
        )), log[1]], "replay divergence at seq 0"),
        (lambda log: [replace(log[0], batch=replace(log[0].batch, txs=log[0].batch.txs[:1])),
                      log[1]], "replay divergence at seq 0"),
        (lambda log: log[1:], "replay gap at seq 0: the next batch begins at 2"),
    ], ids=["other-signature", "fewer-transactions", "missing-batch"])
    def test_a_logged_batch_cannot_be_forged(self, change, error):
        bus, pool, nodes, client, steward = build_pool()
        for labels in (("a", "b"), ("c",)):
            batch = steward_batch(steward, *labels)
            client.start_session("submit", registry.submit_transaction(pool, batch))
            bus.run_until_quiescent()
        with pytest.raises(registry.RegistryError, match=error):
            registry.replay_log(nodes[0].genesis, change(nodes[0].log))

    @pytest.mark.parametrize("signer, outcomes", [
        ("self", ("APPLIED", "APPLIED")), ("forger", ("BadSignature", "BadSignature")),
    ])
    def test_a_first_registration_is_signed_with_the_key_its_own_nym_registers(
        self, genesis, signer, outcomes
    ):
        org_keys, org_did, org_doc = make_identity("org")
        txs = [
            registry.RegistryTransaction(registry.KIND_NYM, doc.to_bytes(), org_did)
            for doc in (org_doc, replace(org_doc, service_endpoint="addr:moved", version=2))
        ]
        keys = org_keys if signer == "self" else FORGER_KEYS
        state, got = registry.apply_batch(genesis, registry.sign_batch(keys, *txs))
        assert got == outcomes
        assert (org_did in state.docs) == (signer == "self")

    @pytest.mark.parametrize("n", range(1, 5))
    def test_a_batch_costs_four_signs_and_three_executed_verifies(self, monkeypatch, n):
        """One writer signature and 2f+1 = 3 replica acks of which the
        sequencer signs none: 4 signs at any n. The memo runs the batch
        signature once for the four replicas, and the 2f acks the sequencer
        verifies once for it and the client: 3 executed verifies. Each
        replica checks the batch signature once (4), the sequencer 2 acks and
        the client 2: 8 logical verifies."""
        bus, pool, nodes, client, steward = build_pool()
        s_keys, s_did, _ = steward
        txs = [
            registry.RegistryTransaction(
                registry.KIND_NYM, make_identity(f"org{i}")[2].to_bytes(), s_did
            )
            for i in range(n)
        ]
        calls = {"sign": 0, "verify": 0, "executed": 0}

        def counting(op, fn):
            def wrapped(*args):
                calls[op] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(crypto, "sign", counting("sign", crypto.sign))
        monkeypatch.setattr(crypto, "verify", counting("verify", crypto.verify))
        monkeypatch.setattr(
            crypto, "_ed25519_verify", counting("executed", crypto._ed25519_verify)
        )
        batch = registry.sign_batch(s_keys, *txs)
        record = client.start_session("submit", registry.submit_transaction(pool, batch))
        bus.run_until_quiescent()
        assert record.result.outcomes == ("APPLIED",) * n
        assert (calls["sign"], calls["verify"], calls["executed"]) == (4, 8, 3)


def foreign_replies(bus) -> list:
    return [e for e in bus.trace.events if e.kind == "actor.foreign_reply"]


class TestReplySender:
    """A session takes a reply only from the actor its request went to:
    request ids are sequential, so any actor can name another's."""

    def test_a_replica_cannot_answer_a_read_in_the_sequencers_place(self):
        rules = [
            FaultRule(action="delay", from_="iin:iin0:0", kind="iin.query.reply", delay=20)
        ]
        bus, pool, nodes, client, steward = build_pool(rules=rules)
        tx, org_did = org_nym_tx(steward)
        client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        liar = nodes[1]
        liar.state = liar.genesis  # it answers from genesis, where org_did is unknown,
        record = client.start_session("resolve", registry.resolve_did(pool, org_did))
        # unasked, under the read's request id and ahead of the sequencer's reply
        query = registry.Query(registry.QUERY_MEMBER, (org_did,), (), (), (), ())
        message = actors.Message(
            reply_to=f"{client.address}#{client._next_rid}",
            body=liar._query(client.address, query).to_bytes(),
        )
        liar.bus.send(liar.address, client.address, "iin.query.reply", message.to_bytes())
        bus.run_until_quiescent()
        assert record.error is None
        assert record.result == (nodes[0].state.docs[org_did], True)
        [dropped] = foreign_replies(bus)
        assert (dropped.actor, dropped.detail) == (client.address, {
            "sender": liar.address, "expected": pool.sequencer, "msg_kind": "iin.query.reply",
        })

    def test_a_receipt_from_another_node_than_the_sequencer_is_dropped(self):
        bus, pool, nodes, client, steward = build_pool()
        liar = nodes[1]
        handle_order = liar._handle_order

        def forging(sender, order):
            acked = yield from handle_order(sender, order)
            # a receipt under the client's submit request id, ahead of the sequencer's
            receipt = registry.Receipt(
                order.first, order.first, ("Duplicate",),
                tuple(tx.digest() for tx in order.batch.txs), ((liar.address, acked.signature),),
            )
            message = actors.Message(
                reply_to=f"{client.address}#{client._next_rid}", body=receipt.to_bytes()
            )
            liar.bus.send(liar.address, client.address, "iin.submit.reply", message.to_bytes())
            return acked

        liar._handle_order = forging
        tx, org_did = org_nym_tx(steward)
        record = client.start_session("submit", registry.submit_transaction(pool, tx))
        bus.run_until_quiescent()
        assert record.result.outcomes == ("APPLIED",)
        assert pool.sequencer not in dict(record.result.acks)
        [dropped] = foreign_replies(bus)
        assert dropped.detail == {
            "sender": liar.address, "expected": pool.sequencer, "msg_kind": "iin.submit.reply",
        }


class TestMemberSnapshot:
    """`resolve_member`: holders' documents and issuers' revocation states
    from one replica state: the sequencer's, or f+1 matching replicas' when
    its reply is lost."""

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
        assert query_sends(bus) == [pool.sequencer]

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

    @READS
    def test_one_replica_at_another_epoch_still_resolves(self, lost):
        bus, pool, nodes, client, org_did = self.setup_pool()
        self.set_epochs(nodes, (1, 2, 1, 1))
        if lost:
            lose_sequencer_reads(bus, pool)
        record = self.resolve(bus, pool, client, (org_did,))
        assert record.error is None
        assert record.result.revocation()[self.ISSUER].epoch == 1
        assert sorted(query_sends(bus)) == sorted(pool.node_addresses if lost else [pool.sequencer])

    def test_one_read_returns_the_list_its_revocation_state_and_its_holders(self):
        """A read naming an (issuer, network) memberlist gets the list, the
        documents of every member it lists (after the holders named) and the
        issuer's revocation state, all from the one state the replicas
        hold."""
        bus, pool, nodes, client, org_did = self.setup_pool()
        steward_did = next(iter(nodes[0].state.roles))
        keys = crypto.KeyPair.from_seed(seed32("issuer"))
        ml = creds.issue_memberlist_credential(
            keys, self.ISSUER, "cd", "NET", (org_did, "did:iin:iin0:gone"), 4
        )
        base, _ = crypto.accumulator_init(self.ISSUER)
        for node in nodes:
            node.state = replace(
                node.state,
                revocation={self.ISSUER: replace(base, epoch=4)},
                memberlists={(self.ISSUER, "NET"): ml},
            )
        record = client.start_session("resolve", registry.resolve_member(
            pool, (steward_did, org_did), (self.ISSUER,),
            memberlists=((self.ISSUER, "NET"), (self.ISSUER, "NONE")),
        ))
        bus.run_until_quiescent()
        snapshot = record.result
        assert snapshot.memberlists == (ml,)
        assert [e.did for e in snapshot.holders] == [steward_did, org_did, "did:iin:iin0:gone"]
        assert snapshot.holder(org_did) == (nodes[0].state.docs[org_did], True)
        assert snapshot.holders[-1].doc == ()
        assert snapshot.revocation()[self.ISSUER].epoch == 4
        assert query_sends(bus) == [pool.sequencer]

    @READS
    def test_replicas_at_different_lists_are_inconsistent(self, lost):
        """A list from one state and a revocation state from another never
        make one answer: replicas whose lists differ do not match. A lossless
        read takes the sequencer's list alone."""
        bus, pool, nodes, client, org_did = self.setup_pool()
        keys = crypto.KeyPair.from_seed(seed32("issuer"))
        self.set_epochs(nodes, (1, 1, 1, 1))
        for i, node in enumerate(nodes):
            ml = creds.issue_memberlist_credential(keys, self.ISSUER, "cd", "NET", (), i)
            node.state = replace(node.state, memberlists={(self.ISSUER, "NET"): ml})
        if lost:
            lose_sequencer_reads(bus, pool)
        record = client.start_session("resolve", registry.resolve_member(
            pool, (), (self.ISSUER,), memberlists=((self.ISSUER, "NET"),)
        ))
        bus.run_until_quiescent()
        if lost:
            assert isinstance(record.error, registry.InconsistentReplicas)
        else:
            assert record.result.memberlists == (nodes[0].state.memberlists[(self.ISSUER, "NET")],)

    @READS
    def test_mixed_epochs_with_matching_documents_are_inconsistent(self, lost):
        bus, pool, nodes, client, org_did = self.setup_pool()
        self.set_epochs(nodes, (0, 1, 2, 3))
        assert len({node.state.docs[org_did] for node in nodes}) == 1
        if lost:
            lose_sequencer_reads(bus, pool)
        record = self.resolve(bus, pool, client, (org_did,))
        if lost:
            assert isinstance(record.error, registry.InconsistentReplicas)
        else:
            assert record.result.revocation()[self.ISSUER].epoch == 0

    @pytest.mark.parametrize("what", ["did", ""], ids=["what-not-member", "what-empty"])
    def test_query_of_another_what_is_a_miss_and_the_replica_keeps_serving(self, what):
        bus, pool, nodes, client, org_did = self.setup_pool()
        body = registry.Query(what, (org_did,), (), ("schema:membership:1",), (), ())

        def ask():
            reply = yield Request(pool.sequencer, "iin.query", body, timeout=50)
            return registry.MemberSnapshot.from_bytes(reply.body.snapshot)

        record = client.start_session("ask", ask())
        bus.run_until_quiescent()
        assert record.result == registry.MemberSnapshot((), (), (), (), ())
        assert self.resolve(bus, pool, client, (org_did,)).result.holder(org_did)[0].did == org_did
