"""Per-organization identity agent.

The agent is the org's protocol engine for the identity plane:

  step A  configure identity: register the org's DID as a verinym through an
          identity validator, then obtain a membership credential (plus
          revocation witness) from each home network's membership validator;
  step B  validate a foreign network's membership: fetch the memberlist from
          the trusted validator, resolve each member's DID document, challenge
          the member at its service endpoint, and verify the returned
          membership presentation against registry artifacts;
  step C  fetch the member's network-issued certificate bundle as a
          self-signed presentation and check its internal consistency;
  step D  commit the bundle to the local ledger: collect a countersignature
          from every other local org (each validates independently) and submit
          the contract transaction; on a digest mismatch the agent refetches
          and retries up to its retry budget.

A sync runs B-D for all of its targets at once, one session per target, and
flips records to REVOKED, one at a time, only after every target has ended. A
resync (a scheduled scenario step, or a proof failure in the data plane; the
harness starts it, no message does) re-runs B-D for every network on the
interoperation list, updating rotated bundles and flipping records to REVOKED
for members that no longer validate.

Concurrent sessions of one agent share reads: while a read of the
interoperation list, the trust list, a write-once registry artifact or a
countersigner's memberlist is in flight, a second session that needs the same
one waits for it instead of sending its own (`_shared`); values that never
change are kept after their first successful read (`_read_once`). A target's
outcome is recorded only in the trace: `agent.sync_done` and
`agent.sync_failed` carry `attempts`, and a protocol failure its `detail`.

One agent serves all of its organization's network memberships: the DID
document has a single service endpoint, and an org that belongs to several
networks holds one credential per network in the same wallet, presenting only
the requested one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from . import credentials as creds
from . import crypto
from . import network as net
from . import registry
from .actors import Actor, Gather, Join, Message, Request, SessionRecord, Sleep
from .anchors import cred_def_id_for, schema_id_for

PHASE_DONE = "DONE"
PHASE_FAILED = "FAILED"

RESULT_SIGNED = "signed"
RESULT_DIGEST_MISMATCH = "digest_mismatch"
RESULT_VALIDATION_FAILED = "validation_failed"


class AgentError(Exception):
    pass


class PolicyViolation(AgentError):
    """Counterparty network absent from the interoperation list."""


class NoTrustedPMV(AgentError):
    pass


class NotListed(AgentError):
    """Target DID absent from the counterparty memberlist."""


class MemberUnreachable(AgentError):
    pass


class MalformedBundle(AgentError):
    pass


class StaleMemberlist(AgentError):
    pass


class OrgMismatch(AgentError):
    """A bundle committed under another org's name than the one it carries."""


class MissingCountersignature(AgentError):
    pass


class CounterpartyValidationFailed(AgentError):
    pass


class LedgerUnreachable(AgentError):
    pass


class CommitRejected(AgentError):
    pass


# Everything a protocol step may raise on bad or missing input from a peer,
# the registry or the ledger; a session that catches these names the failure.
PROTOCOL_ERRORS = (AgentError, creds.CredentialError, crypto.CryptoError, registry.RegistryError)

# Attempts per sync target while countersigners report a digest mismatch, and
# the ticks waited before each new attempt.
RETRY_LIMIT = 3
RETRY_BACKOFF = 1


@dataclass
class AgentConfig:
    org_id: str
    address: str
    keys: crypto.KeyPair
    pool: registry.PoolInfo
    oiv_address: str
    home_pmv: dict[str, str]  # home network -> issuing anchor address
    ledgers: dict[str, str]  # home network -> ledger address, in home-network order
    peer_agents: dict[str, dict[str, str]]  # home network -> org id -> agent address
    organizations: dict[str, net.Organization] = field(default_factory=dict)


@dataclass
class CachedIdentity:
    org_id: str
    bundle: bytes
    digest: bytes


class IinAgent(Actor):
    def __init__(self, config: AgentConfig):
        super().__init__(config.address)
        self.config = config
        self.keys = config.keys
        self.org_id = config.org_id
        self.pool = config.pool
        self.did = registry.make_did(config.pool.iin_id, config.keys.public_key)
        self.doc: Optional[registry.DidDocument] = None
        self.wallet: dict[str, tuple[creds.MembershipCredential, crypto.AccumulatorWitness]] = {}
        self.cache: dict[tuple[str, str], CachedIdentity] = {}
        # foreign network -> last verified memberlist (also the rollback floor)
        self._memberlists: dict[str, creds.MemberlistCredential] = {}
        # read key -> first successful result of a read that never changes
        self._kept: dict[tuple, object] = {}
        # read key -> the session running that read now (see _shared)
        self._in_flight: dict[tuple, SessionRecord] = {}

    # --- inbound messages ---------------------------------------------------

    def on_message(self, sender: str, msg: Message) -> None:
        if msg.kind == "agent.membership_vp.request":
            self.start_session("serve-membership-vp", self._serve_membership_vp(sender, msg))
            return
        if msg.kind == "agent.identity_vp.request":
            self._serve_identity_vp(sender, msg)
            return
        if msg.kind == "agent.countersign.request":
            self.start_session("countersign", self._handle_countersign(sender, msg))
            return

    # --- step A: configure identity -----------------------------------------

    def step_a(self) -> Generator:
        """Register the verinym and obtain a membership VC per home network.
        Safe to re-run: re-registration surfaces as a registry duplicate, and
        re-issuance returns the existing credential with a fresh witness."""
        doc = registry.new_did_document(self.pool.iin_id, self.keys, self.address)
        reply = yield Request(
            self.config.oiv_address,
            "anchor.verinym.request",
            {"org_name": self.org_id, "doc": doc.to_bytes().hex()},
            timeout=400,
        )
        if reply is None:
            raise AgentError("identity validator unreachable")
        if not reply.body.get("ok"):
            raise AgentError(reply.body.get("error", "verinym registration failed"))
        self.doc = registry.DidDocument.from_bytes(bytes.fromhex(reply.body["doc"]))
        for network_id in self.config.ledgers:
            reply = yield Request(
                self.config.home_pmv[network_id],
                "anchor.vc.request",
                {"holder_did": self.did, "network_id": network_id},
                timeout=600,
            )
            if reply is None:
                raise AgentError(f"membership validator for {network_id} unreachable")
            if not reply.body.get("ok"):
                raise AgentError(reply.body.get("error", "issuance failed"))
            vc = creds.MembershipCredential.from_bytes(bytes.fromhex(reply.body["vc"]))
            witness = crypto.AccumulatorWitness.from_bytes(bytes.fromhex(reply.body["witness"]))
            self.wallet[network_id] = (vc, witness)
        self.trace("agent.configured", did=self.did, networks=",".join(self.config.ledgers))
        return self.did

    # --- serving counterparties ----------------------------------------------

    def _serve_membership_vp(self, sender: str, msg: Message) -> Generator:
        network_id = msg.body["network_id"]
        nonce = bytes.fromhex(msg.body["nonce"])
        entry = self.wallet.get(network_id)
        if entry is None:
            self.reply(
                sender, msg, "agent.membership_vp.reply",
                {"ok": False, "error": "NoCredential"},
            )
            return
        vc, witness = entry
        witness = yield from self._freshen_witness(network_id, vc, witness)
        vp = creds.build_membership_vp(self.did, self.keys, vc, witness, nonce)
        self.reply(
            sender, msg, "agent.membership_vp.reply",
            {"ok": True, "vp": vp.to_bytes().hex()},
        )

    def _freshen_witness(
        self,
        network_id: str,
        vc: creds.MembershipCredential,
        witness: crypto.AccumulatorWitness,
    ) -> Generator:
        """Ask the issuing anchor for a witness at its current epoch. The anchor
        alone writes the revocation state, so it needs no registry read to know
        the epoch. A revoked holder's refresh is refused (NotAMember) and a
        silent anchor leaves the stored witness; either way the verifier's
        accumulator check decides."""
        reply = yield Request(
            self.config.home_pmv[network_id],
            "anchor.witness.request",
            {"credential_id": vc.credential_id.hex()},
            timeout=120,
        )
        if reply is not None and reply.body.get("ok"):
            witness = crypto.AccumulatorWitness.from_bytes(bytes.fromhex(reply.body["witness"]))
            self.wallet[network_id] = (vc, witness)
        return witness

    def _serve_identity_vp(self, sender: str, msg: Message) -> None:
        network_id = msg.body["network_id"]
        organization = self.config.organizations.get(network_id)
        if organization is None:
            self.reply(
                sender, msg, "agent.identity_vp.reply",
                {"ok": False, "error": "NotAMemberHere"},
            )
            return
        vp = creds.build_self_signed_vp(
            self.did, self.keys, organization.bundle_bytes(), bytes.fromhex(msg.body["nonce"])
        )
        self.reply(
            sender, msg, "agent.identity_vp.reply", {"ok": True, "vp": vp.to_bytes().hex()}
        )

    # --- local ledger views ---------------------------------------------------

    def _ledger_query(self, home_network: str, body: dict) -> Generator:
        reply = yield Request(
            self.config.ledgers[home_network], "ledger.query", body, timeout=120
        )
        if reply is None:
            raise LedgerUnreachable(home_network)
        return reply.body

    def _shared(self, key: tuple, gen: Generator) -> Generator:
        """Run the read `gen` once for all sessions that need `key` at the
        same time: the first caller starts it as a session of its own, and
        every caller, that one included, joins it; later callers' `gen` is
        never run. The read's protocol error is raised in each waiter, which
        names it as its own, and no `session.failed` is traced for it. A
        caller after the read has ended starts a fresh one."""
        record = self._in_flight.get(key)
        if record is None:
            record = self.start_session(f"shared:{key[0]}", self._run_shared(key, gen))
            if not record.done:
                self._in_flight[key] = record
        [result] = yield Join((record,))
        if isinstance(result, PROTOCOL_ERRORS):
            raise result
        return result

    def _run_shared(self, key: tuple, gen: Generator) -> Generator:
        try:
            return (yield from gen)
        except PROTOCOL_ERRORS as e:
            return e
        finally:
            self._in_flight.pop(key, None)

    def _read_once(self, key: tuple, gen: Generator) -> Generator:
        """Keep the first successful result of the shared read `gen` for the
        agent's lifetime: the interoperation and trust lists, schemas and
        credential definitions never change (a second write is DuplicateId).
        Errors propagate and are never kept."""
        if key not in self._kept:
            self._kept[key] = yield from self._shared(key, gen)
        return self._kept[key]

    def _interop(self, home_network: str) -> Generator:
        body = yield from self._read_once(
            ("interop", home_network), self._ledger_query(home_network, {"what": "interop"})
        )
        return body["networks"]

    def _trust_entries(self, home_network: str) -> Generator:
        body = yield from self._read_once(
            ("trust", home_network), self._ledger_query(home_network, {"what": "trust"})
        )
        return body["entries"]

    def _ledger_records(self, home_network: str, foreign_network: str) -> Generator:
        body = yield from self._ledger_query(
            home_network, {"what": "records", "network": foreign_network}
        )
        return [net.record_from_body(b) for b in body["records"]]

    # --- step B: validate membership ------------------------------------------

    def _fetch_memberlist(self, home_network: str, foreign_network: str) -> Generator:
        entries = yield from self._trust_entries(home_network)
        anchor_did = next((a for _, a, n in entries if n == foreign_network), None)
        if anchor_did is None:
            raise NoTrustedPMV(f"no trusted membership validator for {foreign_network}")
        anchor_doc, anchor_verinym = yield from registry.resolve_did(self.pool, anchor_did)
        nonce = self.nonce()
        reply = yield Request(
            anchor_doc.service_endpoint,
            "anchor.memberlist.request",
            {"network_id": foreign_network, "nonce": nonce.hex()},
            timeout=150,
        )
        if reply is None or not reply.body.get("ok"):
            raise NoTrustedPMV(
                f"memberlist for {foreign_network} unavailable"
                + (f": {reply.body.get('error')}" if reply else "")
            )
        vp = creds.VerifiablePresentation.from_bytes(bytes.fromhex(reply.body["vp"]))
        payload = creds.verify_self_signed_vp(vp, nonce, anchor_doc, anchor_verinym)
        memberlist = creds.MemberlistCredential.from_bytes(payload)
        if memberlist.issuer_did != anchor_did or memberlist.network_id != foreign_network:
            raise NoTrustedPMV("memberlist not issued by the trusted validator")
        cred_def_id = cred_def_id_for(anchor_did, creds.MEMBERLIST_SCHEMA_NAME)
        cred_def = yield from self._read_once(
            (registry.QUERY_CRED_DEF, cred_def_id),
            registry.read_cred_def(self.pool, cred_def_id),
        )
        if not crypto.verify(
            cred_def.authentication_public_key,
            memberlist.signing_bytes(),
            memberlist.issuer_signature,
        ):
            raise NoTrustedPMV("memberlist signature invalid")
        previous = self._memberlists.get(foreign_network)
        if previous is not None and memberlist.roster_version < previous.roster_version:
            raise StaleMemberlist(
                f"{foreign_network} roster went backwards: "
                f"{memberlist.roster_version} < {previous.roster_version}"
            )
        self._memberlists[foreign_network] = memberlist
        self.trace(
            "agent.memberlist",
            network=foreign_network,
            version=memberlist.roster_version,
            members=len(memberlist.member_dids),
        )
        return memberlist

    def _verification_artifacts(
        self,
        vc: Optional[creds.MembershipCredential],
        presenter_doc: registry.DidDocument,
        presenter_verinym: bool,
        revocation: dict[str, crypto.RevocationRegistryState],
    ) -> Generator:
        """The registry inputs of the seven checks: the holder's snapshot
        (document, verinym status, `revocation` states by issuer) plus the
        write-once schema and the credential definition `vc` names."""
        schema = cred_def = None
        try:
            schema_id = schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME)
            schema = yield from self._read_once(
                (registry.QUERY_SCHEMA, schema_id), registry.read_schema(self.pool, schema_id)
            )
        except registry.NotFound:
            pass
        if vc is not None:
            try:
                cred_def = yield from self._read_once(
                    (registry.QUERY_CRED_DEF, vc.cred_def_id),
                    registry.read_cred_def(self.pool, vc.cred_def_id),
                )
            except registry.NotFound:
                pass
        return creds.VerificationArtifacts(
            presenter_doc=presenter_doc,
            presenter_verinym=presenter_verinym,
            schema=schema,
            cred_def=cred_def,
            revocation_state=revocation.get(vc.issuer_did) if vc is not None else None,
        )

    def _challenge_and_verify(
        self, home_network: str, foreign_network: str, target_did: str
    ) -> Generator:
        """Resolve, challenge, and verify one foreign member's membership
        presentation. Returns (claim, doc, verinym).

        One registry read before the challenge (`registry.resolve_member`)
        gives the holder's document, its verinym status and the revocation
        state of each trusted anchor of `foreign_network` from one replica
        state. A credential of any other issuer fails check 5, or check 6 if
        the trust list names its issuer for another network, as the snapshot
        holds no state for it. The revocation state is as of the start of the
        validation: a revocation committed before the read fails check 6.
        Any issuance or revocation by the issuer moves its epoch, and the
        holder's witness is made at the anchor's epoch when the challenge
        arrives, so a witness newer than the snapshot means such a commit
        landed during the round trip: the snapshot is read once more, so an
        honest holder is not refused for it. The holder's own revocation
        committed during the round trip is seen only by the next validation:
        its refresh is refused, so it presents its witness at the snapshot's
        epoch."""
        entries = yield from self._trust_entries(home_network)
        trusted = frozenset((anchor, network) for _, anchor, network in entries)
        issuers = tuple(sorted(a for a, network in trusted if network == foreign_network))
        doc, verinym, revocation = yield from registry.resolve_member(
            self.pool, target_did, issuers
        )
        nonce = self.nonce()
        reply = yield Request(
            doc.service_endpoint,
            "agent.membership_vp.request",
            {"network_id": foreign_network, "nonce": nonce.hex()},
            timeout=400,
        )
        if reply is None or not reply.body.get("ok"):
            raise MemberUnreachable(target_did)
        vp = creds.VerifiablePresentation.from_bytes(bytes.fromhex(reply.body["vp"]))
        try:
            vc, witness = creds.parse_membership_body(vp.body)
        except Exception:
            vc = witness = None  # verification will fail at the schema check
        state = revocation.get(vc.issuer_did) if vc is not None else None
        if state is not None and witness.epoch > state.epoch:
            doc, verinym, revocation = yield from registry.resolve_member(
                self.pool, target_did, issuers
            )
        artifacts = yield from self._verification_artifacts(vc, doc, verinym, revocation)
        claim = creds.verify_membership_vp(vp, foreign_network, nonce, trusted, artifacts)
        self.trace(
            "agent.member_validated", network=foreign_network, holder=claim.holder_did
        )
        return claim, doc, verinym

    def _validate_member(
        self,
        home_network: str,
        foreign_network: str,
        target_did: str,
        memberlist: creds.MemberlistCredential,
    ) -> Generator:
        if target_did not in memberlist.member_dids:
            raise NotListed(target_did)
        result = yield from self._challenge_and_verify(
            home_network, foreign_network, target_did
        )
        return result

    # --- step C: fetch network identity ----------------------------------------

    def _fetch_identity(
        self,
        foreign_network: str,
        target_did: str,
        doc: registry.DidDocument,
        verinym: bool,
    ) -> Generator:
        nonce = self.nonce()
        reply = yield Request(
            doc.service_endpoint,
            "agent.identity_vp.request",
            {"network_id": foreign_network, "nonce": nonce.hex()},
            timeout=150,
        )
        if reply is None or not reply.body.get("ok"):
            raise MemberUnreachable(target_did)
        vp = creds.VerifiablePresentation.from_bytes(bytes.fromhex(reply.body["vp"]))
        payload = creds.verify_self_signed_vp(vp, nonce, doc, verinym)
        try:
            org_id, bundle_network, chains = net.parse_bundle(payload)
        except Exception as e:
            raise MalformedBundle(str(e))
        if bundle_network != foreign_network or not chains:
            raise MalformedBundle(f"bundle for {bundle_network!r} with {len(chains)} chains")
        for chain in chains:
            crypto.verify_certificate_chain(chain, self.bus.now)
        identity = CachedIdentity(
            org_id=org_id,
            bundle=payload,
            digest=crypto.digest(payload),
        )
        self.cache[(foreign_network, target_did)] = identity
        self.trace(
            "agent.identity_fetched",
            network=foreign_network,
            org=org_id,
            digest=identity.digest.hex(),
        )
        return identity

    # --- step D: consensus commit ----------------------------------------------

    def _commit_identity(
        self,
        home_network: str,
        foreign_network: str,
        foreign_org: str,
        foreign_did: str,
        bundle: bytes,
        digest: bytes,
        status: str,
        roster_version: Optional[int] = None,
    ) -> Generator:
        """Collect a countersignature from every other local org and submit.
        Every endorsement covers `foreign_did`, which the record keeps.
        `roster_version` is the version of the memberlist the target was
        validated against; countersigners whose own verified copy is at least
        that new skip refetching it."""
        nonce = self.nonce()
        message = net.endorsement_bytes(
            foreign_network, foreign_org, foreign_did, digest, status, nonce
        )
        own_signature = self.keys.sign(message)
        peers = sorted(
            (org, addr)
            for org, addr in self.config.peer_agents[home_network].items()
            if org != self.org_id
        )
        request_body = {
            "home_network": home_network,
            "foreign_network": foreign_network,
            "foreign_org": foreign_org,
            "foreign_did": foreign_did,
            "digest": digest.hex(),
            "status": status,
            "nonce": nonce.hex(),
        }
        if roster_version is not None:
            request_body["roster_version"] = roster_version
        replies = yield Gather(
            tuple((addr, "agent.countersign.request", request_body) for _, addr in peers),
            timeout=1500,
        )
        missing = [org for (org, _), r in zip(peers, replies) if r is None]
        if missing:
            raise MissingCountersignature(",".join(missing))
        if any(r.body.get("result") == RESULT_DIGEST_MISMATCH for r in replies):
            theirs = [
                r.body.get("own_digest", "")
                for r in replies
                if r.body.get("result") == RESULT_DIGEST_MISMATCH
            ]
            self.trace(
                "agent.sync.digest_mismatch",
                network=foreign_network,
                org=foreign_org,
                ours=digest.hex(),
                theirs=",".join(theirs),
            )
            return "DIGEST_MISMATCH"
        failed = [
            (org, r.body.get("reason", ""))
            for (org, _), r in zip(peers, replies)
            if r.body.get("result") == RESULT_VALIDATION_FAILED
        ]
        if failed:
            raise CounterpartyValidationFailed(
                ";".join(f"{org}:{reason}" for org, reason in failed)
            )
        endorsements = [[self.org_id, own_signature.bytes_.hex()]] + [
            [org, r.body["sig"]] for (org, _), r in zip(peers, replies)
        ]
        reply = yield Request(
            self.config.ledgers[home_network],
            "cmdac.submit",
            {
                "foreign_network": foreign_network,
                "foreign_org": foreign_org,
                "holder_did": foreign_did,
                "bundle": bundle.hex(),
                "status": status,
                "nonce": nonce.hex(),
                "endorsements": endorsements,
            },
            timeout=150,
        )
        if reply is None:
            raise LedgerUnreachable(home_network)
        outcome = reply.body["outcome"]
        if outcome not in (net.OUTCOME_APPLIED, net.OUTCOME_NOOP):
            raise CommitRejected(outcome)
        self.trace(
            "agent.committed",
            network=foreign_network,
            org=foreign_org,
            status=status,
            outcome=outcome,
        )
        return outcome

    def _handle_countersign(self, sender: str, msg: Message) -> Generator:
        body = msg.body
        home_network = body["home_network"]
        foreign_network = body["foreign_network"]
        foreign_org = body["foreign_org"]
        foreign_did = body["foreign_did"]
        digest = bytes.fromhex(body["digest"])
        status = body["status"]
        nonce = bytes.fromhex(body["nonce"])

        def respond(result: str, **extra) -> None:
            self.reply(
                sender, msg, "agent.countersign.reply",
                {"result": result, "org": self.org_id, **extra},
            )

        if home_network not in self.config.ledgers:
            respond(RESULT_VALIDATION_FAILED, reason="NotLocal")
            return
        try:
            interop = yield from self._interop(home_network)
        except LedgerUnreachable as e:
            respond(RESULT_VALIDATION_FAILED, reason=type(e).__name__)
            return
        if foreign_network not in interop:
            respond(RESULT_VALIDATION_FAILED, reason="PolicyViolation")
            return

        if status == net.STATUS_ACTIVE:
            # One memberlist gate for cached and fresh identities alike. A
            # cached list at least as new as the initiator's is reused: a
            # member revoked since still fails the fresh accumulator check in
            # _validate_member, and a low hint only fails the initiator's own
            # commit with NotListed. A cached identity skips steps B and C only
            # while its DID is listed, so a revoked member's old bundle cannot
            # be signed back to ACTIVE.
            memberlist = self._memberlists.get(foreign_network)
            hint = body.get("roster_version")
            identity = self.cache.get((foreign_network, foreign_did))
            try:
                if (
                    memberlist is None
                    or not isinstance(hint, int)
                    or memberlist.roster_version < hint
                ):
                    memberlist = yield from self._shared(
                        ("memberlist", home_network, foreign_network),
                        self._fetch_memberlist(home_network, foreign_network),
                    )
                if identity is None or foreign_did not in memberlist.member_dids:
                    _, doc, verinym = yield from self._validate_member(
                        home_network, foreign_network, foreign_did, memberlist
                    )
                    identity = yield from self._fetch_identity(
                        foreign_network, foreign_did, doc, verinym
                    )
                if identity.org_id != foreign_org:
                    raise OrgMismatch(f"{identity.org_id} presented as {foreign_org}")
            except PROTOCOL_ERRORS as e:
                self.trace(
                    "agent.countersign_refused",
                    network=foreign_network,
                    org=foreign_org,
                    reason=type(e).__name__,
                )
                respond(RESULT_VALIDATION_FAILED, reason=type(e).__name__)
                return
            if identity.digest != digest:
                # stale copy on one side; drop ours so the retry refetches
                self.cache.pop((foreign_network, foreign_did), None)
                self.trace(
                    "agent.countersign_mismatch",
                    network=foreign_network,
                    org=foreign_org,
                    ours=identity.digest.hex(),
                    theirs=digest.hex(),
                )
                respond(RESULT_DIGEST_MISMATCH, own_digest=identity.digest.hex())
                return
            respond(RESULT_SIGNED, sig=self._endorse(
                foreign_network, foreign_org, foreign_did, digest, status, nonce
            ))
            return

        # REVOKED: endorse only when the member no longer validates here either,
        # under the DID its ledger record was committed with; the request's
        # foreign_did is ignored, so an initiator cannot name no DID or
        # another org's to skip the check. Always against a fresh memberlist:
        # a cached one that lacks a re-admitted member would endorse a lying
        # initiator's revocation.
        try:
            records = yield from self._ledger_records(home_network, foreign_network)
        except LedgerUnreachable as e:
            respond(RESULT_VALIDATION_FAILED, reason=type(e).__name__)
            return
        record = next((r for r in records if r.org_id == foreign_org), None)
        if record is None or record.bundle_digest != digest:
            respond(
                RESULT_DIGEST_MISMATCH,
                own_digest=record.bundle_digest.hex() if record else "",
            )
            return
        still_valid = False
        try:
            memberlist = yield from self._fetch_memberlist(home_network, foreign_network)
            if record.holder_did in memberlist.member_dids:
                yield from self._validate_member(
                    home_network, foreign_network, record.holder_did, memberlist
                )
                still_valid = True
        except PROTOCOL_ERRORS:
            still_valid = False
        if still_valid:
            respond(RESULT_VALIDATION_FAILED, reason="MemberStillValid")
            return
        respond(RESULT_SIGNED, sig=self._endorse(
            foreign_network, foreign_org, record.holder_did, digest, status, nonce
        ))

    def _endorse(
        self,
        foreign_network: str,
        foreign_org: str,
        holder_did: str,
        digest: bytes,
        status: str,
        nonce: bytes,
    ) -> str:
        signature = self.keys.sign(
            net.endorsement_bytes(foreign_network, foreign_org, holder_did, digest, status, nonce)
        )
        self.trace(
            "agent.countersigned", network=foreign_network, org=foreign_org, status=status
        )
        return signature.bytes_.hex()

    # --- whole-target sessions ---------------------------------------------

    def _sync_target(
        self,
        home_network: str,
        foreign_network: str,
        target_did: str,
        memberlist: creds.MemberlistCredential,
    ) -> Generator:
        attempt = 1
        while True:
            try:
                if attempt > 1:
                    memberlist = yield from self._fetch_memberlist(
                        home_network, foreign_network
                    )
                _, doc, verinym = yield from self._validate_member(
                    home_network, foreign_network, target_did, memberlist
                )
                identity = yield from self._fetch_identity(
                    foreign_network, target_did, doc, verinym
                )
                outcome = yield from self._commit_identity(
                    home_network,
                    foreign_network,
                    identity.org_id,
                    target_did,
                    identity.bundle,
                    identity.digest,
                    net.STATUS_ACTIVE,
                    roster_version=memberlist.roster_version,
                )
            except PROTOCOL_ERRORS as e:
                failure = {"error": type(e).__name__}
                if isinstance(e, creds.MembershipVerificationError):
                    failure["check"] = e.check
                self.trace(
                    "agent.sync_failed", network=foreign_network, target=target_did,
                    attempts=attempt, detail=str(e), **failure,
                )
                return {"status": PHASE_FAILED, **failure}

            if outcome != "DIGEST_MISMATCH":
                self.trace(
                    "agent.sync_done",
                    network=foreign_network,
                    org=identity.org_id,
                    attempts=attempt,
                    outcome=outcome,
                )
                return {
                    "status": PHASE_DONE,
                    "org_id": identity.org_id,
                    "outcome": outcome,
                    "attempts": attempt,
                }

            if attempt >= RETRY_LIMIT:
                self.trace(
                    "agent.sync_failed",
                    network=foreign_network,
                    target=target_did,
                    attempts=attempt,
                    error="RetriesExhausted",
                )
                return {"status": PHASE_FAILED, "error": "RetriesExhausted"}
            attempt += 1
            self.cache.pop((foreign_network, target_did), None)
            yield Sleep(RETRY_BACKOFF)

    def _revoke_record(
        self, home_network: str, foreign_network: str, record: net.ForeignIdentityRecord
    ) -> Generator:
        try:
            outcome = yield from self._commit_identity(
                home_network,
                foreign_network,
                record.org_id,
                record.holder_did,
                record.bundle,
                record.bundle_digest,
                net.STATUS_REVOKED,
            )
        except PROTOCOL_ERRORS as e:
            self.trace(
                "agent.revoke_failed",
                network=foreign_network,
                org=record.org_id,
                error=type(e).__name__,
            )
            return {"status": PHASE_FAILED, "error": type(e).__name__}
        if outcome == "DIGEST_MISMATCH":
            return {"status": PHASE_FAILED, "error": "DigestMismatch"}
        self.trace("agent.record_revoked", network=foreign_network, org=record.org_id)
        return {"status": PHASE_DONE, "org_id": record.org_id, "outcome": outcome}

    def sync_network(
        self,
        home_network: str,
        foreign_network: str,
        targets: Optional[tuple[str, ...]] = None,
    ) -> Generator:
        """Steps B-D against every listed member of the foreign network (or an
        explicit target subset), all targets at once, one session each; a
        full pass then flips records to REVOKED, one at a time, for orgs that
        no longer validate. The targets' sessions share the agent's reads
        (`_shared`), so a cold cache is filled once per sync."""
        interop = yield from self._interop(home_network)
        if foreign_network not in interop:
            self.trace("agent.policy_violation", network=foreign_network)
            raise PolicyViolation(f"{foreign_network} not on interoperation list")
        memberlist = yield from self._fetch_memberlist(home_network, foreign_network)
        dids = tuple(targets) if targets is not None else memberlist.member_dids
        sessions = tuple(
            self.start_session(
                "sync-target",
                self._sync_target(home_network, foreign_network, target_did, memberlist),
            )
            for target_did in dids
        )
        outcomes = yield Join(sessions)
        results: dict[str, dict] = dict(zip(dids, outcomes))
        if targets is None:
            synced_orgs = {
                r["org_id"] for r in results.values() if r["status"] == PHASE_DONE
            }
            records = yield from self._ledger_records(home_network, foreign_network)
            for record in records:
                if record.status == net.STATUS_ACTIVE and record.org_id not in synced_orgs:
                    results[f"revoke:{record.org_id}"] = yield from self._revoke_record(
                        home_network, foreign_network, record
                    )
        return results

    def resync(self, home_network: str, trigger: str) -> Generator:
        """Re-run B-D for every foreign network on the interoperation list.
        Triggered by a scheduled scenario step or a data-plane proof failure."""
        self.trace("agent.resync", network=home_network, trigger=trigger)
        self.cache.clear()
        interop = yield from self._interop(home_network)
        results = {}
        for foreign_network in interop:
            results[foreign_network] = yield from self.sync_network(
                home_network, foreign_network
            )
        return results

    def prefetch(
        self, home_network: str, foreign_network: str, target_did: str
    ) -> Generator:
        """Run steps B and C for one member without committing, populating the
        countersigner cache."""
        memberlist = yield from self._fetch_memberlist(home_network, foreign_network)
        _, doc, verinym = yield from self._validate_member(
            home_network, foreign_network, target_did, memberlist
        )
        identity = yield from self._fetch_identity(foreign_network, target_did, doc, verinym)
        return identity.digest.hex()

    def validate_org(
        self, home_network: str, foreign_network: str, target_did: str
    ) -> Generator:
        """Directly challenge one foreign org and verify its membership
        presentation (no memberlist gate); used to probe revoked members."""
        try:
            claim, _, _ = yield from self._challenge_and_verify(
                home_network, foreign_network, target_did
            )
            return {"status": "ok", "holder": claim.holder_did, "network": claim.network_id}
        except PROTOCOL_ERRORS as e:
            check = e.check if isinstance(e, creds.MembershipVerificationError) else 0
            return {"status": "failed", "error": type(e).__name__, "check": check}
