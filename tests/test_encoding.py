"""Canonical encoding: roundtrips, determinism, and strictness."""

import ast
import dataclasses
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idplane import actors, agent, anchors, bus, crypto, registry
from idplane import credentials as creds
from idplane import network as net
from idplane import encoding as enc


def test_record_prefixes_tag():
    data = enc.record(enc.TAG_CERT, enc.encode_str("a"), enc.encode_u64(5))
    assert data[0] == enc.TAG_CERT


def test_reader_roundtrip():
    data = enc.record(
        enc.TAG_TX,
        enc.encode_str("hello"),
        enc.encode_bytes(b"\x00\x01"),
        enc.encode_u64(2**40),
        enc.encode_list([enc.encode_str("x"), enc.encode_str("y")]),
    )
    reader = enc.Reader(data, expect_tag=enc.TAG_TX)
    assert reader.str_() == "hello"
    assert reader.bytes_() == b"\x00\x01"
    assert reader.u64() == 2**40
    assert reader.count() == 2
    assert reader.str_() == "x"
    assert reader.str_() == "y"
    reader.done()


def test_reader_rejects_wrong_tag():
    data = enc.record(enc.TAG_CERT, enc.encode_str("a"))
    with pytest.raises(enc.DecodeError):
        enc.Reader(data, expect_tag=enc.TAG_CHAIN)


def test_reader_rejects_trailing_bytes():
    data = enc.record(enc.TAG_CERT, enc.encode_str("a")) + b"junk"
    reader = enc.Reader(data, expect_tag=enc.TAG_CERT)
    reader.str_()
    with pytest.raises(enc.DecodeError):
        reader.done()


def test_reader_rejects_truncation():
    data = enc.record(enc.TAG_CERT, enc.encode_bytes(b"abcdef"))
    reader = enc.Reader(data[:-3], expect_tag=enc.TAG_CERT)
    with pytest.raises(enc.DecodeError):
        reader.bytes_()


def test_negative_u64_rejected():
    with pytest.raises(ValueError):
        enc.encode_u64(-1)


def test_distinct_domain_tags():
    tags = [v for name, v in vars(enc).items() if name.startswith("TAG_")]
    assert len(tags) == len(set(tags))


@settings(max_examples=60)
@given(st.lists(st.binary(max_size=40), max_size=8), st.integers(0, 2**64 - 1))
def test_field_concatenation_unambiguous(chunks, n):
    data = enc.record(
        enc.TAG_BUNDLE,
        enc.encode_list(enc.encode_bytes(c) for c in chunks),
        enc.encode_u64(n),
    )
    reader = enc.Reader(data, expect_tag=enc.TAG_BUNDLE)
    decoded = [reader.bytes_() for _ in range(reader.count())]
    assert decoded == chunks
    assert reader.u64() == n
    reader.done()


def test_canonical_json_is_sorted_and_compact():
    assert enc.canonical_json({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'


# --- Record codec --------------------------------------------------------------
#
# The oracle is the hand-written encoders the Record classes replaced, kept
# here so that the derived codec is checked byte for byte against them.


def old_signature(s):
    return enc.encode_bytes(s.bytes_) + enc.encode_str(s.scheme_id)


def old_cert_signing(c):
    return enc.record(
        enc.TAG_CERT,
        enc.encode_str(c.subject_name),
        enc.encode_bytes(c.subject_public_key),
        enc.encode_str(c.issuer_name),
        enc.encode_u64(c.valid_from),
        enc.encode_u64(c.valid_to),
    )


def old_revocation_state(s):
    return enc.record(
        enc.TAG_REVOCATION_STATE,
        enc.encode_str(s.issuer_did),
        enc.encode_u64(s.epoch),
        enc.encode_bytes(s.root),
        enc.encode_u64(s.size_hint),
    )


def old_witness(w):
    return enc.record(
        enc.TAG_WITNESS,
        enc.encode_bytes(w.element),
        enc.encode_u64(w.epoch),
        enc.encode_list(enc.encode_bytes(sib) + enc.encode_u64(side) for sib, side in w.path),
    )


def old_schema(s):
    return enc.record(
        enc.TAG_SCHEMA,
        enc.encode_str(s.schema_id),
        enc.encode_str(s.name),
        enc.encode_str(s.version),
        enc.encode_list(enc.encode_str(a) for a in s.attribute_names),
    )


def old_cred_def(d):
    return enc.record(
        enc.TAG_CRED_DEF,
        enc.encode_str(d.cred_def_id),
        enc.encode_str(d.schema_id),
        enc.encode_str(d.issuer_did),
        enc.encode_bytes(d.authentication_public_key),
    )


def old_membership_signing(vc):
    return enc.record(
        enc.TAG_MEMBERSHIP_VC,
        enc.encode_bytes(vc.credential_id),
        enc.encode_str(vc.holder_did),
        enc.encode_str(vc.network_id),
        enc.encode_str(vc.issuer_did),
        enc.encode_str(vc.cred_def_id),
    )


def old_memberlist_signing(vc):
    return enc.record(
        enc.TAG_MEMBERLIST_VC,
        enc.encode_str(vc.network_id),
        enc.encode_list(enc.encode_str(d) for d in vc.member_dids),
        enc.encode_u64(vc.roster_version),
        enc.encode_str(vc.issuer_did),
        enc.encode_str(vc.cred_def_id),
    )


def old_vp_signing(vp):
    return enc.record(
        enc.TAG_VP,
        enc.encode_str(vp.kind),
        enc.encode_bytes(vp.body),
        enc.encode_str(vp.presenter_did),
        enc.encode_bytes(vp.challenge_nonce),
    )


def old_did_doc(d):
    return enc.record(
        enc.TAG_DID_DOC,
        enc.encode_str(d.did),
        enc.encode_list(enc.encode_bytes(k) for k in d.verification_keys),
        enc.encode_str(d.service_endpoint),
        enc.encode_list(enc.encode_str(signer) + old_signature(sig) for signer, sig in d.attestations),
        enc.encode_u64(d.version),
    )


def old_tx(tx):
    return enc.record(
        enc.TAG_REGISTRY_TX,
        enc.encode_str(tx.kind),
        enc.encode_bytes(tx.payload),
        enc.encode_str(tx.submitter_did),
    )


def old_chain(c):
    return enc.record(
        enc.TAG_CHAIN, enc.encode_list(enc.encode_bytes(cert.to_bytes()) for cert in c.certificates)
    )


def old_bundle(b):
    return enc.record(
        enc.TAG_BUNDLE,
        enc.encode_str(b.org_id),
        enc.encode_str(b.network_id),
        enc.encode_list(enc.encode_bytes(old_chain(c)) for c in b.chains),
    )


def old_membership_body(b):
    return (
        enc.encode_bytes(b.vc.to_bytes()) + enc.encode_bytes(b.witness.to_bytes())
        + enc.encode_bytes(b.bundle)
    )


def old_anchor_grant(g):
    return enc.record(enc.TAG_ANCHOR_GRANT, enc.encode_str(g.target_did), enc.encode_str(g.role))


def old_member_entry(e):
    return (
        enc.encode_str(e.did)
        + enc.encode_list(enc.encode_bytes(doc.to_bytes()) for doc in e.doc)
        + enc.encode_u64(e.verinym)
    )


def old_member_snapshot(s):
    return enc.encode_list(old_member_entry(e) for e in s.holders) + b"".join(
        enc.encode_list(enc.encode_bytes(r.to_bytes()) for r in table)
        for table in (s.states, s.schemas, s.cred_defs, s.memberlists)
    ) + enc.encode_list(enc.encode_bytes(d) for d in s.applied)


def old_revocation_update(u):
    return enc.record(
        enc.TAG_REVOCATION_UPDATE,
        enc.encode_bytes(u.state.to_bytes()),
        enc.encode_list(enc.encode_bytes(m.to_bytes()) for m in u.memberlists),
    )


def old_attestation(a):
    return enc.record(
        enc.TAG_ATTESTATION,
        enc.encode_str(a.did),
        enc.encode_list(enc.encode_bytes(k) for k in a.verification_keys),
        enc.encode_str(a.service_endpoint),
    )


def old_registry_image(i):
    return enc.record(
        enc.TAG_REGISTRY_STATE,
        *(
            enc.encode_list(enc.encode_bytes(v.to_bytes()) for v in table)
            for table in (i.docs, i.schemas, i.cred_defs, i.revocation, i.memberlists)
        ),
        enc.encode_list(
            enc.encode_str(did) + enc.encode_list(enc.encode_str(r) for r in roles)
            for did, roles in i.roles
        ),
        enc.encode_list(enc.encode_bytes(d) for d in i.applied),
    )


def old_registry_state(state):
    """`RegistryState.to_bytes` as it was: each table sorted by key."""
    return enc.record(
        enc.TAG_REGISTRY_STATE,
        enc.encode_list(
            enc.encode_bytes(state.docs[k].to_bytes()) for k in sorted(state.docs)
        ),
        enc.encode_list(
            enc.encode_bytes(state.schemas[k].to_bytes()) for k in sorted(state.schemas)
        ),
        enc.encode_list(
            enc.encode_bytes(state.cred_defs[k].to_bytes()) for k in sorted(state.cred_defs)
        ),
        enc.encode_list(
            enc.encode_bytes(state.revocation[k].to_bytes()) for k in sorted(state.revocation)
        ),
        enc.encode_list(
            enc.encode_bytes(state.memberlists[k].to_bytes()) for k in sorted(state.memberlists)
        ),
        enc.encode_list(
            enc.encode_str(did) + enc.encode_list(
                enc.encode_str(r) for r in sorted(state.roles[did])
            )
            for did in sorted(state.roles)
        ),
        enc.encode_list(enc.encode_bytes(d) for d in sorted(state.applied)),
    )


def old_batch(b):
    return enc.encode_list(enc.encode_bytes(d) for d in b.tx_digests)


def old_ack(a):
    return enc.record(
        enc.TAG_ACK,
        enc.encode_u64(a.first),
        enc.encode_u64(a.last),
        enc.encode_bytes(a.batch_digest),
    )


def old_record_content(r):
    return (
        enc.encode_str(r.network_id)
        + enc.encode_str(r.org_id)
        + enc.encode_str(r.holder_did)
        + enc.encode_bytes(r.bundle)
        + enc.encode_bytes(r.bundle_digest)
        + enc.encode_str(r.status)
    )


def old_ledger_image(i):
    return enc.record(
        enc.TAG_LEDGER_STATE,
        enc.encode_str(i.network_id),
        enc.encode_list(enc.encode_str(n) for n in i.interop_networks),
        enc.encode_list(
            enc.encode_str(iin) + enc.encode_str(a) + enc.encode_str(n)
            for iin, a, n in i.trust_entries
        ),
        enc.encode_list(enc.encode_str(org) + enc.encode_bytes(key) for org, key in i.admin_keys),
        enc.encode_list(enc.encode_bytes(old_record_content(r)) for r in i.foreign),
    )


def old_ledger_state(state):
    """What `LocalLedgerState.state_hash` hashed: the tables sorted by key."""
    return enc.record(
        enc.TAG_LEDGER_STATE,
        enc.encode_str(state.network_id),
        enc.encode_list(enc.encode_str(n) for n in state.interop_networks),
        enc.encode_list(
            enc.encode_str(i) + enc.encode_str(a) + enc.encode_str(n)
            for i, a, n in state.trust_entries
        ),
        enc.encode_list(
            enc.encode_str(org) + enc.encode_bytes(state.admin_keys[org])
            for org in sorted(state.admin_keys)
        ),
        enc.encode_list(
            enc.encode_bytes(old_record_content(state.foreign[k].content))
            for k in sorted(state.foreign)
        ),
    )


def old_endorsement(e):
    return enc.record(
        enc.TAG_ENDORSEMENT,
        enc.encode_str(e.home_network),
        enc.encode_str(e.foreign_network),
        enc.encode_str(e.foreign_org),
        enc.encode_str(e.holder_did),
        enc.encode_bytes(e.bundle_digest),
        enc.encode_str(e.status),
        enc.encode_u64(e.made_at),
    )


def old_proof_statement(p):
    return enc.record(enc.TAG_DATA_PROOF, enc.encode_bytes(p.data_digest))


def old_credential_id_seed(c):
    return enc.record(
        enc.TAG_CREDENTIAL_ID,
        enc.encode_str(c.holder_did),
        enc.encode_str(c.network_id),
        enc.encode_u64(c.issuance_counter),
    )


def old_header(h):
    return enc.record(
        enc.TAG_ENVELOPE,
        enc.encode_str(h.from_),
        enc.encode_str(h.to),
        enc.encode_u64(h.seq),
        enc.encode_str(h.kind),
    )


# The message records below had no earlier encoder: each oracle spells out
# its wire format field by field.


def old_write_authorization(a):
    return enc.record(enc.TAG_TX, enc.encode_list(enc.encode_bytes(d) for d in a.tx_digests))


def old_signed_batch(b):
    return framed(old_tx, b.txs) + old_signature(b.signature)


def old_logged(e):
    return enc.encode_u64(e.first) + old_signed_batch(e.batch) + strs(e.outcomes)


def old_message(m):
    return enc.record(
        enc.TAG_MESSAGE,
        enc.encode_str(m.request_id),
        enc.encode_str(m.reply_to),
        enc.encode_str(m.error),
        enc.encode_bytes(m.body),
    )


def strs(values):
    return enc.encode_list(enc.encode_str(v) for v in values)


def framed(encode, values):
    return enc.encode_list(enc.encode_bytes(encode(v)) for v in values)


def old_receipt(r):
    return (
        enc.encode_u64(r.first)
        + enc.encode_u64(r.last)
        + strs(r.outcomes)
        + enc.encode_list(enc.encode_bytes(d) for d in r.tx_digests)
        + enc.encode_list(enc.encode_str(a) + enc.encode_bytes(sig) for a, sig in r.acks)
    )


def old_query(q):
    return (
        enc.encode_str(q.what)
        + strs(q.holders) + strs(q.issuers) + strs(q.schemas) + strs(q.cred_defs)
        + enc.encode_list(enc.encode_str(i) + enc.encode_str(n) for i, n in q.memberlists)
        + enc.encode_list(enc.encode_bytes(d) for d in q.applied)
    )


def old_membership_vc(vc):
    return old_membership_signing(vc) + old_signature(vc.issuer_signature)


def old_answer(a):
    return enc.encode_str(a.result) + enc.encode_bytes(a.own_digest) + enc.encode_str(a.reason)


def old_endorsed(b):
    return enc.record(enc.TAG_ENDORSED, enc.encode_list(enc.encode_bytes(d) for d in b.statements))


text = st.text(max_size=12)
blob = st.binary(max_size=40)
u64 = st.integers(0, 2**64 - 1)
signature = st.builds(crypto.Signature, blob, text)
certificate = st.builds(crypto.Certificate, text, blob, text, u64, u64, signature)
chain = st.builds(crypto.Chain, st.lists(certificate, max_size=3).map(tuple))
revocation_state = st.builds(crypto.RevocationRegistryState, text, u64, blob, u64)
witness = st.builds(
    crypto.AccumulatorWitness,
    blob,
    u64,
    st.lists(st.tuples(blob, st.integers(0, 1)), max_size=4).map(tuple),
)
membership_vc = st.builds(creds.MembershipCredential, blob, text, text, text, text, signature)
did_doc = st.builds(
    registry.DidDocument,
    text,
    st.lists(blob, max_size=3).map(tuple),
    text,
    st.lists(st.tuples(text, signature), max_size=3).map(tuple),
    u64,
)
member_entry = st.builds(
    registry.MemberEntry, text, st.lists(did_doc, max_size=1).map(tuple), u64
)
schema = st.builds(
    creds.CredentialSchema,
    text,
    text,
    text,
    st.lists(text, unique=True, max_size=4).map(tuple),
)
cred_def = st.builds(creds.CredentialDefinition, text, text, text, blob)
memberlist_vc = st.builds(
    creds.MemberlistCredential,
    text,
    st.lists(text, max_size=4).map(tuple),
    u64,
    text,
    text,
    signature,
)
record_content = st.builds(net.RecordContent, text, text, text, blob, blob, text)
transaction = st.builds(registry.RegistryTransaction, text, blob, text)
endorsement = st.builds(net.Endorsement, text, text, text, text, blob, text, u64)
answer = st.builds(agent.Answer, text, blob, text)


def up_to_3(strategy):
    return st.lists(strategy, max_size=3).map(tuple)


endorsed = st.builds(net.Endorsed, up_to_3(blob))
signed_batch = st.builds(registry.SignedBatch, up_to_3(transaction), signature)
logged = st.builds(registry.Logged, u64, signed_batch, up_to_3(text))

# class -> (example strategy, old signing_bytes or None, old to_bytes)
RECORDS = {
    crypto.Signature: (signature, None, old_signature),
    crypto.Certificate: (
        certificate,
        old_cert_signing,
        lambda c: old_cert_signing(c) + old_signature(c.issuer_signature),
    ),
    crypto.RevocationRegistryState: (revocation_state, None, old_revocation_state),
    crypto.AccumulatorWitness: (witness, None, old_witness),
    crypto.Chain: (chain, None, old_chain),
    creds.CredentialSchema: (schema, None, old_schema),
    creds.CredentialDefinition: (cred_def, None, old_cred_def),
    creds.CredentialIdSeed: (
        st.builds(creds.CredentialIdSeed, text, text, u64), None, old_credential_id_seed
    ),
    creds.MembershipCredential: (
        membership_vc,
        old_membership_signing,
        lambda vc: old_membership_signing(vc) + old_signature(vc.issuer_signature),
    ),
    creds.MemberlistCredential: (
        memberlist_vc,
        old_memberlist_signing,
        lambda vc: old_memberlist_signing(vc) + old_signature(vc.issuer_signature),
    ),
    creds.VerifiablePresentation: (
        st.builds(creds.VerifiablePresentation, text, blob, text, blob, signature),
        old_vp_signing,
        lambda vp: old_vp_signing(vp) + old_signature(vp.presenter_signature),
    ),
    creds.MembershipBody: (
        st.builds(creds.MembershipBody, membership_vc, witness, blob),
        None,
        old_membership_body,
    ),
    registry.DidDocument: (did_doc, None, old_did_doc),
    registry.Attestation: (
        st.builds(registry.Attestation, text, up_to_3(blob), text), None, old_attestation
    ),
    registry.RegistryImage: (
        st.builds(
            registry.RegistryImage,
            up_to_3(did_doc),
            up_to_3(schema),
            up_to_3(cred_def),
            up_to_3(revocation_state),
            up_to_3(memberlist_vc),
            up_to_3(st.tuples(text, up_to_3(text))),
            up_to_3(blob),
        ),
        None,
        old_registry_image,
    ),
    registry.RevocationUpdate: (
        st.builds(registry.RevocationUpdate, revocation_state, up_to_3(memberlist_vc)),
        None,
        old_revocation_update,
    ),
    registry.Batch: (st.builds(registry.Batch, up_to_3(blob)), None, old_batch),
    registry.Ack: (st.builds(registry.Ack, u64, u64, blob), None, old_ack),
    registry.RegistryTransaction: (transaction, None, old_tx),
    registry.WriteAuthorization: (
        st.builds(registry.WriteAuthorization, up_to_3(blob)), None, old_write_authorization
    ),
    registry.AnchorGrant: (st.builds(registry.AnchorGrant, text, text), None, old_anchor_grant),
    registry.MemberEntry: (member_entry, None, old_member_entry),
    registry.MemberSnapshot: (
        st.builds(
            registry.MemberSnapshot,
            st.lists(member_entry, max_size=3).map(tuple),
            st.lists(revocation_state, max_size=3).map(tuple),
            up_to_3(schema),
            up_to_3(cred_def),
            up_to_3(memberlist_vc),
            up_to_3(blob),
        ),
        None,
        old_member_snapshot,
    ),
    net.Bundle: (
        st.builds(net.Bundle, text, text, st.lists(chain, max_size=3).map(tuple)),
        None,
        old_bundle,
    ),
    net.RecordContent: (record_content, None, old_record_content),
    net.LedgerImage: (
        st.builds(
            net.LedgerImage,
            text,
            up_to_3(text),
            up_to_3(st.tuples(text, text, text)),
            up_to_3(st.tuples(text, blob)),
            up_to_3(record_content),
        ),
        None,
        old_ledger_image,
    ),
    net.Endorsement: (
        endorsement, None, old_endorsement
    ),
    net.Endorsed: (endorsed, None, old_endorsed),
    net.ProofStatement: (st.builds(net.ProofStatement, blob), None, old_proof_statement),
    bus.Header: (st.builds(bus.Header, text, text, u64, text), None, old_header),
    actors.Message: (st.builds(actors.Message, text, text, text, blob), None, old_message),
    registry.SignedBatch: (signed_batch, None, old_signed_batch),
    registry.Logged: (logged, None, old_logged),
    registry.Receipt: (
        st.builds(
            registry.Receipt, u64, u64, up_to_3(text), up_to_3(blob),
            up_to_3(st.tuples(text, blob)),
        ),
        None,
        old_receipt,
    ),
    registry.Order: (
        st.builds(registry.Order, u64, signed_batch),
        None,
        lambda o: enc.encode_u64(o.first) + old_signed_batch(o.batch),
    ),
    registry.Acked: (
        st.builds(registry.Acked, text, st.builds(registry.Ack, u64, u64, blob), blob),
        None,
        lambda a: enc.encode_str(a.address) + old_ack(a.ack) + enc.encode_bytes(a.signature),
    ),
    registry.Fetch: (
        st.builds(registry.Fetch, u64, u64),
        None,
        lambda f: enc.encode_u64(f.first) + enc.encode_u64(f.last),
    ),
    registry.Entries: (
        st.builds(registry.Entries, up_to_3(logged)),
        None,
        lambda e: enc.encode_list(old_logged(entry) for entry in e.entries),
    ),
    registry.Query: (
        st.builds(
            registry.Query, text, up_to_3(text), up_to_3(text), up_to_3(text), up_to_3(text),
            up_to_3(st.tuples(text, text)), up_to_3(blob),
        ),
        None,
        old_query,
    ),
    registry.QueryResult: (
        st.builds(registry.QueryResult, blob), None, lambda r: enc.encode_bytes(r.snapshot)
    ),
    net.CommitRequest: (
        st.builds(
            net.CommitRequest,
            up_to_3(st.tuples(endorsement, blob)),
            up_to_3(st.tuples(text, endorsed, blob)),
        ),
        None,
        lambda c: (
            enc.encode_list(
                enc.encode_bytes(old_endorsement(s)) + enc.encode_bytes(bundle)
                for s, bundle in c.statements
            )
            + enc.encode_list(
                enc.encode_str(o) + enc.encode_bytes(old_endorsed(b)) + enc.encode_bytes(sig)
                for o, b, sig in c.endorsements
            )
        ),
    ),
    net.Committed: (
        st.builds(net.Committed, up_to_3(text)),
        None,
        lambda c: enc.encode_list(enc.encode_str(o) for o in c.outcomes),
    ),
    net.LedgerQuery: (
        st.builds(net.LedgerQuery, text),
        None,
        lambda q: enc.encode_str(q.network),
    ),
    net.LedgerAnswer: (
        st.builds(net.LedgerAnswer, up_to_3(record_content)),
        None,
        lambda a: framed(old_record_content, a.records),
    ),
    anchors.VcRequest: (
        st.builds(anchors.VcRequest, text, text, st.lists(did_doc, max_size=1).map(tuple)),
        None,
        lambda r: (
            enc.encode_str(r.holder_did) + enc.encode_str(r.network_id)
            + enc.encode_list(enc.encode_bytes(old_did_doc(d)) for d in r.doc)
        ),
    ),
    anchors.Issued: (
        st.builds(anchors.Issued, membership_vc, witness, u64),
        None,
        lambda i: (
            enc.encode_bytes(old_membership_vc(i.vc)) + enc.encode_bytes(old_witness(i.witness))
            + enc.encode_u64(i.already_member)
        ),
    ),
    anchors.WitnessRequest: (
        st.builds(anchors.WitnessRequest, blob),
        None,
        lambda r: enc.encode_bytes(r.credential_id),
    ),
    anchors.Witness: (
        st.builds(anchors.Witness, witness),
        None,
        lambda w: enc.encode_bytes(old_witness(w.witness)),
    ),
    creds.Presented: (st.builds(creds.Presented, blob), None, lambda p: enc.encode_bytes(p.vp)),
    creds.Challenge: (
        st.builds(creds.Challenge, text, blob, up_to_3(st.tuples(text, u64)), u64),
        None,
        lambda c: (
            enc.encode_str(c.network_id) + enc.encode_bytes(c.nonce)
            + enc.encode_list(enc.encode_str(i) + enc.encode_u64(e) for i, e in c.epochs)
            + enc.encode_u64(c.bundle)
        ),
    ),
    agent.CountersignRequest: (  # the statements, then each one's forwarded presentation
        st.builds(agent.CountersignRequest, up_to_3(endorsement), up_to_3(blob)),
        None,
        lambda c: (
            framed(old_endorsement, c.statements)
            + enc.encode_list(enc.encode_bytes(vp) for vp in c.presentations)
        ),
    ),
    agent.StatementNonce: (
        st.builds(agent.StatementNonce, text, text, u64),
        None,
        lambda n: enc.record(
            enc.TAG_NONCE, enc.encode_str(n.home_network), enc.encode_str(n.holder_did),
            enc.encode_u64(n.made_at),
        ),
    ),
    agent.Answer: (answer, None, old_answer),
    agent.Countersigned: (
        st.builds(agent.Countersigned, up_to_3(answer), endorsed, blob),
        None,
        lambda c: (
            enc.encode_list(old_answer(a) for a in c.results)
            + enc.encode_bytes(old_endorsed(c.endorsed)) + enc.encode_bytes(c.signature)
        ),
    ),
}


def record_classes() -> set[type]:
    """The program's record classes; the tests' own are no part of it."""
    found, todo = set(), [enc.Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub is not enc.Signed and sub.__module__.startswith("idplane."):
                found.add(sub)
    return found


def any_record():
    return st.sampled_from(list(RECORDS)).flatmap(lambda cls: RECORDS[cls][0])


def test_every_record_class_has_an_oracle():
    assert record_classes() == set(RECORDS)


def test_record_tags_are_distinct_domain_tags():
    domain_tags = {v for name, v in vars(enc).items() if name.startswith("TAG_")}
    tags = [cls.TAG for cls in RECORDS if cls.TAG is not None]
    assert len(tags) == len(set(tags))
    assert set(tags) <= domain_tags


@settings(max_examples=200)
@given(any_record())
def test_record_bytes_match_the_oracle_and_roundtrip(value):
    _, old_signing, old_to_bytes = RECORDS[type(value)]
    data = value.to_bytes()
    assert data == old_to_bytes(value)
    if old_signing is not None:
        assert value.signing_bytes() == old_signing(value)
    assert type(value).from_bytes(data) == value


@contextmanager
def encoder_runs():
    """The records the codec encodes (all fields, or all but a Signed
    record's signature) while the block runs."""
    ran = []
    codecs = [enc._codec(cls) for cls in RECORDS]
    encoders = [codec.encode for codec in codecs]
    for codec, encode in zip(codecs, encoders):
        codec.encode = lambda value, encode=encode: ran.append(value) or encode(value)
    try:
        yield ran
    finally:
        for codec, encode in zip(codecs, encoders):
            codec.encode = encode


@settings(max_examples=200)
@given(any_record())
def test_a_decoded_record_keeps_the_bytes_it_was_decoded_from(value):
    data = value.to_bytes()
    with encoder_runs() as ran:
        decoded = type(value).from_bytes(data)
        assert decoded.to_bytes() is data
    assert ran == []


@settings(max_examples=200)
@given(
    st.sampled_from([cls for cls in RECORDS if issubclass(cls, enc.Signed)])
    .flatmap(lambda cls: RECORDS[cls][0])
)
def test_a_decoded_signed_record_keeps_its_signing_bytes_from_the_decoder(value):
    """The signing bytes are the decoded bytes up to the signature field: no
    encoder runs, not even the signature's, to find where that field starts."""
    data = value.to_bytes()
    decoded = type(value).from_bytes(data)
    with encoder_runs() as ran:
        signing = decoded.signing_bytes()
    assert ran == []
    assert signing == value.signing_bytes() and data.startswith(signing)


@settings(max_examples=200)
@given(any_record())
def test_kept_bytes_are_the_oracles(value):
    _, old_signing, old_to_bytes = RECORDS[type(value)]
    fresh = dataclasses.replace(value)
    assert fresh._encoding is None
    for record in (fresh, type(value).from_bytes(value.to_bytes())):
        record.to_bytes()
        assert record._encoding == old_to_bytes(value)
        assert record.digest() == crypto.digest(old_to_bytes(value))
        assert record.digest() is record._digest
        if old_signing is not None:
            record.signing_bytes()
            assert record._signing == old_signing(value)


@settings(max_examples=200)
@given(any_record())
def test_a_decoded_record_equals_and_hashes_as_a_fresh_one(value):
    decoded = type(value).from_bytes(value.to_bytes())
    fresh = dataclasses.replace(value)
    assert decoded == fresh and hash(decoded) == hash(fresh)
    assert repr(decoded) == repr(fresh)
    decoded.digest()
    copy = dataclasses.replace(decoded)
    assert copy == decoded and copy._encoding is None and copy._digest is None


@settings(max_examples=100)
@given(any_record(), st.data())
def test_truncated_input_is_a_decode_error(value, data):
    encoded = value.to_bytes()
    cut = data.draw(st.integers(0, len(encoded) - 1))
    with pytest.raises(enc.DecodeError):
        type(value).from_bytes(encoded[:cut])


@settings(max_examples=100)
@given(any_record(), st.binary(min_size=1, max_size=4))
def test_trailing_bytes_are_a_decode_error(value, junk):
    with pytest.raises(enc.DecodeError):
        type(value).from_bytes(value.to_bytes() + junk)


@settings(max_examples=100)
@given(any_record().filter(lambda v: v.TAG is not None), st.integers(0, 0xFF))
def test_wrong_tag_is_a_decode_error(value, tag):
    assume(tag != value.TAG)
    with pytest.raises(enc.DecodeError):
        type(value).from_bytes(bytes([tag]) + value.to_bytes()[1:])


def test_invalid_utf8_string_is_a_decode_error():
    with pytest.raises(enc.DecodeError):
        enc.Reader(enc.encode_bytes(b"\xff")).str_()


@settings(max_examples=50)
@given(
    st.dictionaries(text, did_doc, max_size=3),
    st.dictionaries(text, schema, max_size=3),
    st.dictionaries(text, cred_def, max_size=3),
    st.dictionaries(text, revocation_state, max_size=3),
    st.dictionaries(text, st.frozensets(text, max_size=3), max_size=3),
    st.frozensets(blob, max_size=3),
    st.dictionaries(st.tuples(text, text), memberlist_vc, max_size=3),
)
def test_registry_state_hash_is_over_the_old_image(
    docs, schemas, cred_defs, revocation, roles, applied, memberlists
):
    state = registry.RegistryState(
        docs, schemas, cred_defs, revocation, roles, applied, memberlists
    )
    assert state.state_hash() == crypto.digest(old_registry_state(state))


@settings(max_examples=50)
@given(
    text,
    up_to_3(text),
    up_to_3(st.tuples(text, text, text)),
    st.dictionaries(text, blob, max_size=3),
    st.dictionaries(
        text,
        st.builds(net.ForeignIdentityRecord, record_content, u64),
        max_size=3,
    ),
)
def test_ledger_state_hash_is_over_the_old_image(
    network_id, interop, trust_entries, admin_keys, foreign
):
    state = net.LocalLedgerState(network_id, interop, trust_entries, admin_keys, foreign)
    assert state.state_hash() == crypto.digest(old_ledger_state(state))


@pytest.mark.parametrize(
    "cls, fields",
    [
        (crypto.Certificate, dict(
            subject_name="leaf", subject_public_key=b"k", issuer_name="root",
            valid_from=1, valid_to=2,
        )),
        (creds.VerifiablePresentation, dict(
            kind="membership", body=b"b", presenter_did="did", challenge_nonce=b"n",
        )),
    ],
)
def test_sign_fills_the_last_field_with_a_signature_over_the_others(cls, fields):
    keys = crypto.KeyPair.from_seed(bytes(32))
    signed = cls.sign(keys, **fields)
    with encoder_runs() as ran:  # the signed record keeps the bytes it signed
        signed.to_bytes()
        assert signed.signing_bytes() is signed.signing_bytes()
    assert [value for value in ran if type(value) is cls] == []
    *names, last = [f.name for f in dataclasses.fields(cls)]
    assert {name: getattr(signed, name) for name in names} == fields
    assert signed.signing_bytes() == cls(**fields, **{last: None}).signing_bytes()
    assert crypto.verify(keys.public_key, signed.signing_bytes(), getattr(signed, last))


SRC = Path(enc.__file__).resolve().parent


def test_only_the_codec_composes_bytes_and_signing_goes_through_sign():
    """Every other module declares its formats as Records and signs a Signed
    record with `sign`, rather than composing bytes or filling a placeholder
    signature by hand."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                path.name != "encoding.py"
                and isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "enc"
                and (node.attr == "record" or node.attr.startswith("encode_"))
            ):
                found.append(f"{path.name}:{node.lineno} enc.{node.attr}")
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "replace"
                and node.args
                and getattr(node.args[0], "id", None) == "unsigned"
            ):
                found.append(f"{path.name}:{node.lineno} replace(unsigned, ...)")
    assert found == []
