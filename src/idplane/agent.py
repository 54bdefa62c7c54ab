"""Per-organization identity agent.

The agent is the org's protocol engine for the identity plane:

  step A  configure identity: register the org's DID as a verinym through an
          identity validator, then obtain a membership credential (plus
          revocation witness) from each home network's membership validator;
  step B  validate a foreign network's membership: fetch the memberlist from
          the trusted validator, read each member's snapshot (DID document,
          verinym status, the trusted issuers' revocation states), challenge
          the member at its service endpoint naming the snapshot's epochs, and
          verify the returned membership presentation against registry
          artifacts;
  step C  check the member's network-issued certificate bundle, a
          self-signed presentation that the same challenge reply carries
          when step C follows, and its internal consistency;
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

from dataclasses import dataclass, field, replace
from typing import Generator, Optional, TypeVar

from . import credentials as creds
from . import crypto
from . import network as net
from . import registry
from .actors import Actor, Gather, Join, Message, Request, SessionRecord, Sleep

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


class WitnessUnavailable(AgentError):
    """The holder's witness is older than the challenge's epoch and its
    issuing anchor did not answer the refresh, or answered it with a witness
    that does not decode."""


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


class RetriesExhausted(AgentError):
    """Countersigners reported a digest mismatch on every attempt."""


class LedgerUnreachable(AgentError):
    pass


class LedgerRefused(AgentError):
    """The ledger answered a query with an error."""


class CommitRejected(AgentError):
    pass


# Everything a protocol step may raise on bad or missing input from a peer,
# the registry or the ledger; a session that catches these names the failure.
PROTOCOL_ERRORS = (AgentError, creds.CredentialError, crypto.CryptoError, registry.RegistryError)

# Attempts per sync target while countersigners report a digest mismatch, and
# the ticks waited before each new attempt.
RETRY_LIMIT = 3
RETRY_BACKOFF = 1


R = TypeVar("R")


def _decode(record_cls: type[R], raw: object, error: type[AgentError], peer: str) -> R:
    """The `record_cls` that `peer` sent, as bytes or as hex; a missing or
    undecodable one raises `error` naming `peer`."""
    try:
        return record_cls.from_bytes(raw if isinstance(raw, bytes) else bytes.fromhex(raw))
    except (TypeError, ValueError) as e:
        raise error(f"{peer}: undecodable {record_cls.__name__}: {e}") from None


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
        self.wallet: dict[str, tuple[creds.MembershipCredential, crypto.AccumulatorWitness]] = {}
        self.cache: dict[tuple[str, str], CachedIdentity] = {}
        # foreign network -> last verified memberlist (also the rollback floor)
        self._memberlists: dict[str, creds.MemberlistCredential] = {}
        # read key -> first successful result of a read that never changes
        self._kept: dict[tuple, object] = {}
        # read key -> the session running that read now (see _shared)
        self._in_flight: dict[tuple, SessionRecord] = {}

    REQUESTS = {
        "agent.membership_vp.request": ("_serve_membership_vp", "agent.membership_vp.reply"),
        "agent.countersign.request": ("_handle_countersign", "agent.countersign.reply"),
    }

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
        for network_id in self.config.ledgers:
            anchor = self.config.home_pmv[network_id]
            reply = yield Request(
                anchor,
                "anchor.vc.request",
                {"holder_did": self.did, "network_id": network_id},
                timeout=600,
            )
            if reply is None:
                raise AgentError(f"membership validator for {network_id} unreachable")
            if not reply.body.get("ok"):
                raise AgentError(reply.body.get("error", "issuance failed"))
            vc = _decode(creds.MembershipCredential, reply.body.get("vc"), AgentError, anchor)
            witness = _decode(
                crypto.AccumulatorWitness, reply.body.get("witness"), AgentError, anchor
            )
            self.wallet[network_id] = (vc, witness)
        self.trace("agent.configured", did=self.did, networks=",".join(self.config.ledgers))
        return self.did

    # --- serving counterparties ----------------------------------------------

    def _serve_membership_vp(self, sender: str, msg: Message) -> Generator:
        """Answer a challenge with the membership presentation and, when it
        carries a `bundle_nonce`, the bundle presentation as `identity_vp`."""
        network_id, nonce = msg.fields("network_id", "nonce")
        epochs = msg.body.get("epochs", {})
        if not isinstance(epochs, dict) or not all(isinstance(e, int) for e in epochs.values()):
            raise TypeError(f"{msg.kind}: epochs must map issuer DIDs to integers")
        bundle_nonce = msg.body.get("bundle_nonce")
        if bundle_nonce is not None:
            bundle_nonce = bytes.fromhex(*msg.fields("bundle_nonce"))
        nonce = bytes.fromhex(nonce)
        entry = self.wallet.get(network_id)
        if entry is None:
            return {"ok": False, "error": "NoCredential"}
        vc, witness = entry
        epoch = epochs.get(vc.issuer_did)
        if epoch is None or witness.epoch < epoch:
            witness = yield from self._freshen_witness(network_id, vc, witness, epoch)
        vp = creds.build_membership_vp(self.did, self.keys, vc, witness, nonce)
        reply = {"ok": True, "vp": vp.to_bytes().hex()}
        if bundle_nonce is not None:
            bundle = self.config.organizations[network_id].bundle_bytes()
            vp = creds.build_self_signed_vp(self.did, self.keys, bundle, bundle_nonce)
            reply["identity_vp"] = vp.to_bytes().hex()
        return reply

    def _freshen_witness(
        self,
        network_id: str,
        vc: creds.MembershipCredential,
        witness: crypto.AccumulatorWitness,
        epoch: Optional[int],
    ) -> Generator:
        """Ask the issuing anchor for a witness at its current epoch; the
        holder asks only when the challenge names no `epoch` for the issuer
        or a newer one than its witness's, so a wrong epoch can fail only its
        verifier's check 6. The anchor alone writes the revocation state, so
        it needs no registry read to know the epoch. A revoked holder's
        refresh is refused (NotAMember): it presents the stored witness and
        the verifier's accumulator check refutes it. A lost refresh raises
        WitnessUnavailable when the stored witness is behind a named epoch,
        and an undecodable one always does."""
        anchor = self.config.home_pmv[network_id]
        reply = yield Request(
            anchor,
            "anchor.witness.request",
            {"credential_id": vc.credential_id.hex()},
            timeout=120,
        )
        if reply is None and epoch is not None:
            raise WitnessUnavailable(f"{network_id}: witness at {witness.epoch} < {epoch}")
        if reply is not None and reply.body.get("ok"):
            witness = _decode(
                crypto.AccumulatorWitness, reply.body.get("witness"), WitnessUnavailable, anchor
            )
            self.wallet[network_id] = (vc, witness)
        return witness

    # --- local ledger views ---------------------------------------------------

    def _ledger_query(self, home_network: str, body: dict) -> Generator:
        reply = yield Request(
            self.config.ledgers[home_network], "ledger.query", body, timeout=120
        )
        if reply is None:
            raise LedgerUnreachable(home_network)
        if "error" in reply.body:
            raise LedgerRefused(f"{home_network}: {reply.body['error']}")
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
        ledger = self.config.ledgers[home_network]
        return [_decode(net.RecordContent, r, LedgerRefused, ledger) for r in body["records"]]

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
        vp = _decode(creds.VerifiablePresentation, reply.body.get("vp"), NoTrustedPMV, anchor_did)
        payload = creds.verify_self_signed_vp(vp, nonce, anchor_doc, anchor_verinym)
        memberlist = _decode(creds.MemberlistCredential, payload, NoTrustedPMV, anchor_did)
        if memberlist.issuer_did != anchor_did or memberlist.network_id != foreign_network:
            raise NoTrustedPMV("memberlist not issued by the trusted validator")
        cred_def_id = creds.cred_def_id_for(
            anchor_did, creds.schema_id_for(creds.MEMBERLIST_SCHEMA_NAME)
        )
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
            schema_id = creds.schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME)
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

    def _validate_member(
        self,
        home_network: str,
        foreign_network: str,
        target_did: str,
        memberlist: Optional[creds.MemberlistCredential] = None,
        with_bundle: bool = False,
    ) -> Generator:
        """Resolve, challenge, and verify one foreign member (step B) and,
        with `with_bundle`, check the certificate bundle the same challenge
        reply carries (step C). A `memberlist`, when given, must list
        `target_did` (NotListed). Returns (claim, identity): `identity` is the
        checked CachedIdentity with `with_bundle`, else None.

        One registry read before the challenge (`registry.resolve_member`)
        gives the holder's document, its verinym status and the revocation
        state of each trusted anchor of `foreign_network` from one replica
        state. A credential of any other issuer fails check 5, or check 6 if
        the trust list names its issuer for another network, as the snapshot
        holds no state for it. The revocation state is as of the start of the
        validation: a revocation committed before the read fails check 6.
        The challenge names each state's epoch, and a holder whose witness is
        older refreshes it at its anchor, which makes it at the anchor's epoch
        when the refresh arrives. Any issuance or revocation by the issuer
        moves its epoch, so a witness newer than the snapshot means such a
        commit landed during the round trip: the snapshot is read once more,
        so an honest holder is not refused for it. The holder's own
        revocation committed during the round trip is seen only by the next
        validation: its refresh is refused, so it presents a witness no newer
        than the snapshot. A holder whose refresh got no reply answers
        WitnessUnavailable, raised here as MemberUnreachable, as is a reply
        whose presentation does not decode."""
        if memberlist is not None and target_did not in memberlist.member_dids:
            raise NotListed(target_did)
        entries = yield from self._trust_entries(home_network)
        trusted = frozenset((anchor, network) for _, anchor, network in entries)
        issuers = tuple(sorted(a for a, network in trusted if network == foreign_network))
        doc, verinym, revocation = yield from registry.resolve_member(
            self.pool, target_did, issuers
        )
        epochs = {issuer: state.epoch for issuer, state in revocation.items()}
        nonce, bundle_nonce = self.nonce(), (self.nonce() if with_bundle else None)
        body = {"network_id": foreign_network, "nonce": nonce.hex(), "epochs": epochs}
        if with_bundle:
            body["bundle_nonce"] = bundle_nonce.hex()
        reply = yield Request(
            doc.service_endpoint, "agent.membership_vp.request", body, timeout=400
        )
        if reply is None or not reply.body.get("ok"):
            raise MemberUnreachable(
                target_did + (f": {reply.body.get('error')}" if reply else "")
            )
        vp = _decode(
            creds.VerifiablePresentation, reply.body.get("vp"), MemberUnreachable, target_did
        )
        vp_body = creds.read_membership_body(vp)  # an error fails the schema check
        vc = vp_body.vc if isinstance(vp_body, creds.MembershipBody) else None
        state = revocation.get(vc.issuer_did) if vc is not None else None
        if state is not None and vp_body.witness.epoch > state.epoch:
            doc, verinym, revocation = yield from registry.resolve_member(
                self.pool, target_did, issuers
            )
        artifacts = yield from self._verification_artifacts(vc, doc, verinym, revocation)
        claim = creds.verify_membership_vp(
            vp, foreign_network, nonce, trusted, artifacts, vp_body
        )
        self.trace(
            "agent.member_validated", network=foreign_network, holder=claim.holder_did
        )
        identity = None
        if with_bundle:
            identity = yield from self._fetch_identity(
                foreign_network, target_did, doc, verinym, bundle_nonce,
                reply.body.get("identity_vp"),
            )
        return claim, identity

    # --- step C: check network identity ----------------------------------------

    def _fetch_identity(
        self,
        foreign_network: str,
        target_did: str,
        doc: registry.DidDocument,
        verinym: bool,
        nonce: bytes,
        identity_vp: object,
    ) -> Generator:
        """Check the bundle presentation `identity_vp` (hex, as received)
        that step B's challenge reply carried under `nonce`. A generator
        though it sends nothing, as the benchmark's tracer drives steps B, C
        and D as generators."""
        yield from ()
        vp = _decode(creds.VerifiablePresentation, identity_vp, MalformedBundle, target_did)
        payload = creds.verify_self_signed_vp(vp, nonce, doc, verinym)
        bundle = _decode(net.Bundle, payload, MalformedBundle, target_did)
        if bundle.network_id != foreign_network or not bundle.chains:
            raise MalformedBundle(
                f"bundle for {bundle.network_id!r} with {len(bundle.chains)} chains"
            )
        for chain in bundle.chains:
            crypto.verify_certificate_chain(chain.certificates, self.bus.now)
        identity = CachedIdentity(
            org_id=bundle.org_id,
            bundle=payload,
            digest=crypto.digest(payload),
        )
        self.cache[(foreign_network, target_did)] = identity
        self.trace(
            "agent.identity_fetched",
            network=foreign_network,
            org=bundle.org_id,
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
        """Build the statement (`net.Endorsement`) once, collect every other
        local org's signature of it, and submit it with the bundle. Every
        endorsement covers `foreign_did`, which the record keeps.
        `roster_version` is the version of the memberlist the target was
        validated against; countersigners whose own verified copy is at least
        that new skip refetching it."""
        statement = net.Endorsement(
            foreign_network, foreign_org, foreign_did, digest, status, self.nonce()
        ).to_bytes()
        own_signature = self.keys.sign(statement)
        peers = sorted(
            (org, addr)
            for org, addr in self.config.peer_agents[home_network].items()
            if org != self.org_id
        )
        request_body = {"home_network": home_network, "statement": statement.hex()}
        if roster_version is not None:
            request_body["roster_version"] = roster_version
        replies = yield Gather(
            tuple((addr, "agent.countersign.request", request_body) for _, addr in peers),
            timeout=1500,
        )
        missing = [org for (org, _), r in zip(peers, replies) if r is None]
        if missing:
            raise MissingCountersignature(",".join(missing))
        mismatched = [
            r.body.get("own_digest", "")
            for r in replies
            if r.body.get("result") == RESULT_DIGEST_MISMATCH
        ]
        theirs = [d for d in mismatched if isinstance(d, str)]  # others fail below
        if theirs:
            self.trace(
                "agent.sync.digest_mismatch",
                network=foreign_network,
                org=foreign_org,
                ours=digest.hex(),
                theirs=",".join(theirs),
            )
            return "DIGEST_MISMATCH"
        failed = [
            (org, r.body.get("reason", r.body.get("error", "NoSignature")))
            for (org, _), r in zip(peers, replies)
            if r.body.get("result") != RESULT_SIGNED or not isinstance(r.body.get("sig"), str)
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
                "statement": statement.hex(),
                "bundle": bundle.hex(),
                "endorsements": endorsements,
            },
            timeout=150,
        )
        if reply is None:
            raise LedgerUnreachable(home_network)
        outcome = reply.body.get("error") or reply.body["outcome"]
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
        """Validate the initiator's statement here and answer with this org's
        signature of it, a digest mismatch or the reason it failed."""
        home_network, statement = msg.fields("home_network", "statement")
        statement = net.Endorsement.from_bytes(bytes.fromhex(statement))
        foreign_network, foreign_org = statement.foreign_network, statement.foreign_org

        def respond(result: str, **extra) -> dict:
            return {"result": result, "org": self.org_id, **extra}

        if home_network not in self.config.ledgers:
            return respond(RESULT_VALIDATION_FAILED, reason="NotLocal")
        try:
            interop = yield from self._interop(home_network)
        except LedgerUnreachable as e:
            return respond(RESULT_VALIDATION_FAILED, reason=type(e).__name__)
        if foreign_network not in interop:
            return respond(RESULT_VALIDATION_FAILED, reason="PolicyViolation")

        if statement.status == net.STATUS_ACTIVE:
            # One memberlist gate for cached and fresh identities alike. A
            # cached list at least as new as the initiator's is reused: a
            # member revoked since still fails the fresh accumulator check in
            # _validate_member, and a low hint only fails the initiator's own
            # commit with NotListed. A cached identity skips steps B and C only
            # while its DID is listed, so a revoked member's old bundle cannot
            # be signed back to ACTIVE.
            foreign_did = statement.holder_did
            memberlist = self._memberlists.get(foreign_network)
            hint = msg.body.get("roster_version")
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
                    _, identity = yield from self._validate_member(
                        home_network, foreign_network, foreign_did, memberlist, with_bundle=True
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
                return respond(RESULT_VALIDATION_FAILED, reason=type(e).__name__)
            if identity.digest != statement.bundle_digest:
                # stale copy on one side; drop ours so the retry refetches
                self.cache.pop((foreign_network, foreign_did), None)
                self.trace(
                    "agent.countersign_mismatch",
                    network=foreign_network,
                    org=foreign_org,
                    ours=identity.digest.hex(),
                    theirs=statement.bundle_digest.hex(),
                )
                return respond(RESULT_DIGEST_MISMATCH, own_digest=identity.digest.hex())
            return respond(RESULT_SIGNED, sig=self._endorse(statement))

        # REVOKED: endorse only when the member no longer validates here either,
        # under the DID its ledger record was committed with; the statement's
        # holder DID is ignored, so an initiator cannot name no DID or another
        # org's to skip the check. Always against a fresh memberlist: a cached
        # one that lacks a re-admitted member would endorse a lying initiator's
        # revocation.
        try:
            records = yield from self._ledger_records(home_network, foreign_network)
        except LedgerUnreachable as e:
            return respond(RESULT_VALIDATION_FAILED, reason=type(e).__name__)
        record = next((r for r in records if r.org_id == foreign_org), None)
        if record is None or record.bundle_digest != statement.bundle_digest:
            return respond(
                RESULT_DIGEST_MISMATCH,
                own_digest=record.bundle_digest.hex() if record else "",
            )
        try:
            memberlist = yield from self._fetch_memberlist(home_network, foreign_network)
            if record.holder_did in memberlist.member_dids:
                yield from self._validate_member(home_network, foreign_network, record.holder_did)
                return respond(RESULT_VALIDATION_FAILED, reason="MemberStillValid")
        except PROTOCOL_ERRORS:
            pass
        return respond(
            RESULT_SIGNED, sig=self._endorse(replace(statement, holder_did=record.holder_did))
        )

    def _endorse(self, endorsement: net.Endorsement) -> str:
        self.trace(
            "agent.countersigned",
            network=endorsement.foreign_network,
            org=endorsement.foreign_org,
            status=endorsement.status,
        )
        return self.keys.sign(endorsement.to_bytes()).bytes_.hex()

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
                _, identity = yield from self._validate_member(
                    home_network, foreign_network, target_did, memberlist, with_bundle=True
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
                if outcome == "DIGEST_MISMATCH" and attempt >= RETRY_LIMIT:
                    raise RetriesExhausted("countersigners' digests differ on every attempt")
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

            attempt += 1
            self.cache.pop((foreign_network, target_did), None)
            yield Sleep(RETRY_BACKOFF)

    def _revoke_record(
        self, home_network: str, foreign_network: str, record: net.RecordContent
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
        _, identity = yield from self._validate_member(
            home_network, foreign_network, target_did, memberlist, with_bundle=True
        )
        return identity.digest.hex()

    def validate_org(
        self, home_network: str, foreign_network: str, target_did: str
    ) -> Generator:
        """Directly challenge one foreign org and verify its membership
        presentation (no memberlist gate); used to probe revoked members."""
        try:
            claim, _ = yield from self._validate_member(home_network, foreign_network, target_did)
            return {"status": "ok", "holder": claim.holder_did, "network": claim.network_id}
        except PROTOCOL_ERRORS as e:
            check = e.check if isinstance(e, creds.MembershipVerificationError) else 0
            return {"status": "failed", "error": type(e).__name__, "check": check}
