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
  step D  commit the bundles to the local ledger: send every other local org
          one countersign request that lists the statement of each bundle,
          all of one foreign network;
          each org validates every statement independently and answers per
          statement. Each statement every org signed is submitted as its own
          contract transaction; on a digest mismatch the agent refetches and
          retries up to its retry budget.

A sync runs in rounds. A round reads the registry snapshot of all of its
targets at once, runs B and C for each target in a session of its own, and
then step D for every target that passed, as one batch. The targets with a
digest mismatch run again as the next round, which starts as soon as the
countersign replies are in. One refused statement fails only its own target.
Once every target has ended, the sync flips records to REVOKED, one at a time.
A resync (a scheduled scenario step, or a proof failure in the data plane; the
harness starts it, no message does) re-runs B-D for every network on the
interoperation list, updating rotated bundles and flipping records to REVOKED
for members that no longer validate.

Concurrent sessions of one agent share reads: while a read of the ledger's
policy or of a countersigner's memberlist is in flight, a second session that
needs the same one waits for it instead of sending its own (`_shared`); the
policy never changes, so it is kept after its first successful read
(`_read_once`). Registry reads are never kept. A target's
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

# Step D's verdict on a statement whose countersigners hold another bundle.
DIGEST_MISMATCH = "DIGEST_MISMATCH"

MEMBERSHIP_SCHEMA_ID = creds.schema_id_for(creds.MEMBERSHIP_SCHEMA_NAME)


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


def _caught(gen: Generator) -> Generator:
    """Run `gen`, returning the protocol error it raises instead: a session
    running it ends without `session.failed`, and whoever joins it names the
    error as its own."""
    try:
        return (yield from gen)
    except PROTOCOL_ERRORS as e:
        return e


def _strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _refusal(reason: str) -> dict:
    """A countersigner's answer to a statement it does not sign."""
    return {"result": RESULT_VALIDATION_FAILED, "reason": reason}


def _batch_answers(reply: Optional[Message], n: int) -> Optional[list[dict]]:
    """A countersigner's answer to each statement of an `n`-statement batch,
    or None when it did not reply. A reply whose `results` is not a list of
    `n` signs none of them: an error reply for the error it names, any other
    for NoSignature; so does an entry that is not a dict."""
    if reply is None:
        return None
    results = reply.body.get("results")
    if isinstance(results, list) and len(results) == n:
        return [r if isinstance(r, dict) else {} for r in results]
    return [{"error": reply.body.get("error", "NoSignature")}] * n


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
        # home network -> its ledger's policy, once read (see _read_once)
        self._kept: dict[str, tuple] = {}
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
        re-issuance returns the existing credential with a fresh witness, so a
        credential request whose reply is lost is sent once more."""
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
            body = {"holder_did": self.did, "network_id": network_id}
            reply = yield Request(anchor, "anchor.vc.request", body, timeout=600)
            if reply is None:
                # asked once more: the anchor answers a repeat with the
                # credential it already issued (`already_member`)
                reply = yield Request(anchor, "anchor.vc.request", body, timeout=600)
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
            return (yield from _caught(gen))
        finally:
            self._in_flight.pop(key, None)

    def _read_once(self, home_network: str) -> Generator:
        """The home ledger's policy: its interoperation list and its trust
        list entries (iin id, anchor DID, network), kept after the first
        successful read, as the ledger's genesis state fixes both. A reply
        missing a list or holding a wrong-typed field is LedgerRefused."""
        if home_network not in self._kept:
            body = yield from self._shared(
                ("policy", home_network), self._ledger_query(home_network, {"what": "policy"})
            )
            networks, entries = body.get("networks"), body.get("entries")
            if not (
                _strings(networks)
                and isinstance(entries, list)
                and all(_strings(e) and len(e) == 3 for e in entries)
            ):
                raise LedgerRefused(f"{home_network}: malformed policy reply")
            self._kept[home_network] = tuple(networks), tuple(tuple(e) for e in entries)
        return self._kept[home_network]

    def _ledger_records(self, home_network: str, foreign_network: str) -> Generator:
        body = yield from self._ledger_query(
            home_network, {"what": "records", "network": foreign_network}
        )
        records = body.get("records")
        if not isinstance(records, list):
            raise LedgerRefused(f"{home_network}: records must be a list")
        ledger = self.config.ledgers[home_network]
        return [_decode(net.RecordContent, r, LedgerRefused, ledger) for r in records]

    # --- step B: validate membership ------------------------------------------

    def _fetch_memberlist(self, home_network: str, foreign_network: str) -> Generator:
        _, entries = yield from self._read_once(home_network)
        anchor_did = next((a for _, a, n in entries if n == foreign_network), None)
        if anchor_did is None:
            raise NoTrustedPMV(f"no trusted membership validator for {foreign_network}")
        cred_def_id = creds.cred_def_id_for(
            anchor_did, creds.schema_id_for(creds.MEMBERLIST_SCHEMA_NAME)
        )
        snapshot = yield from registry.resolve_member(
            self.pool, (anchor_did,), (), cred_def_ids=(cred_def_id,)
        )
        anchor_doc, anchor_verinym = snapshot.holder(anchor_did)
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
        cred_def = snapshot.cred_def(cred_def_id)
        if cred_def is None:
            raise registry.NotFound(cred_def_id)
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

    def _trusted(self, home_network: str, foreign_network: str) -> Generator:
        """The trust list's (anchor DID, network) pairs, and the anchors it
        names for `foreign_network`, sorted."""
        _, entries = yield from self._read_once(home_network)
        trusted = frozenset((anchor, network) for _, anchor, network in entries)
        return trusted, tuple(sorted(a for a, network in trusted if network == foreign_network))

    def _read_members(
        self, home_network: str, foreign_network: str, dids: tuple[str, ...]
    ) -> Generator:
        """One registry snapshot of the holders `dids` with every registry
        input their checks need: the membership schema, the membership
        credential definition of each anchor on the trust list and the
        revocation state of each anchor it names for `foreign_network`. No
        holder chooses what is read: no id a presentation carries is named."""
        trusted, issuers = yield from self._trusted(home_network, foreign_network)
        cred_defs = tuple(sorted({
            creds.cred_def_id_for(anchor, MEMBERSHIP_SCHEMA_ID) for anchor, _ in trusted
        }))
        return (yield from registry.resolve_member(
            self.pool, dids, issuers, (MEMBERSHIP_SCHEMA_ID,), cred_defs
        ))

    def _validate_member(
        self,
        home_network: str,
        foreign_network: str,
        target_did: str,
        memberlist: Optional[creds.MemberlistCredential] = None,
        with_bundle: bool = False,
        snapshot: Optional[registry.MemberSnapshot] = None,
    ) -> Generator:
        """Resolve, challenge, and verify one foreign member (step B) and,
        with `with_bundle`, check the certificate bundle the same challenge
        reply carries (step C). A `memberlist`, when given, must list
        `target_did` (NotListed). Returns (claim, identity): `identity` is the
        checked CachedIdentity with `with_bundle`, else None.

        The checks read nothing but one registry snapshot (`_read_members`),
        taken before the challenge, so a revocation committed before it fails
        check 6; a `snapshot` given is that read, made for several holders at
        once. A credential naming a credential definition the snapshot lacks
        fails check 5, and one whose issuer the trust list names for another
        network fails check 6, as the snapshot holds no state for it. The
        challenge names each state's epoch, and a holder with an older witness
        refreshes it at its anchor. A witness newer than the snapshot means an
        issuance or revocation by its issuer landed during the round trip, so
        the snapshot is read once more and an honest holder is not refused
        for it; the holder's own revocation then is seen only by the next
        validation, as its refresh is refused. A holder whose refresh got no
        reply answers WitnessUnavailable, raised here as MemberUnreachable, as
        is a reply whose presentation does not decode."""
        if memberlist is not None and target_did not in memberlist.member_dids:
            raise NotListed(target_did)
        trusted, _ = yield from self._trusted(home_network, foreign_network)
        if snapshot is None:
            snapshot = yield from self._read_members(home_network, foreign_network, (target_did,))
        (doc, _), revocation = snapshot.holder(target_did), snapshot.revocation()
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
        # a body that does not decode fails check 4 before these are looked at
        issuer, cred_def_id = (vc.issuer_did, vc.cred_def_id) if vc is not None else ("", "")
        state = revocation.get(issuer)
        if state is not None and vp_body.witness.epoch > state.epoch:
            snapshot = yield from self._read_members(home_network, foreign_network, (target_did,))
        artifacts = snapshot.artifacts(target_did, issuer, MEMBERSHIP_SCHEMA_ID, cred_def_id)
        claim = creds.verify_membership_vp(
            vp, foreign_network, nonce, trusted, artifacts, vp_body
        )
        self.trace(
            "agent.member_validated", network=foreign_network, holder=claim.holder_did
        )
        identity = None
        if with_bundle:
            identity = yield from self._fetch_identity(
                foreign_network, target_did, artifacts.presenter_doc,
                artifacts.presenter_verinym, bundle_nonce, reply.body.get("identity_vp"),
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
        records: list[net.RecordContent],
        roster_version: Optional[int] = None,
    ) -> Generator:
        """Step D for a batch of `records`: make each one's statement
        (`net.Endorsement`) under a fresh nonce and ask every other local org
        to countersign all of them in one request. Each statement that every
        org signed is signed here too and submitted, one `cmdac.submit` each,
        by a session of its own. Returns one verdict per record, in order, as
        soon as the countersign replies are in: DIGEST_MISMATCH, the
        AgentError that refused it, or the session that submits it (see
        `_settled`). Every endorsement covers the record's holder DID, which
        the ledger keeps. `roster_version` is the version of the memberlist
        the records were validated against; countersigners whose own verified
        copy is at least that new skip refetching it."""
        if not records:
            return []
        statements = [r.statement(self.nonce()) for r in records]
        peers = sorted(
            (org, addr)
            for org, addr in self.config.peer_agents[home_network].items()
            if org != self.org_id
        )
        request_body = {
            "home_network": home_network,
            "statements": [s.to_bytes().hex() for s in statements],
        }
        if roster_version is not None:
            request_body["roster_version"] = roster_version
        replies = yield Gather(
            tuple((addr, "agent.countersign.request", request_body) for _, addr in peers),
            timeout=1500,
        )
        answers = [_batch_answers(r, len(statements)) for r in replies]
        verdicts = []
        for i, (record, statement) in enumerate(zip(records, statements)):
            verdict = self._verdict(statement, [
                (org, None if a is None else a[i]) for (org, _), a in zip(peers, answers)
            ])
            if isinstance(verdict, list):
                submit = self._submit(home_network, statement, record.bundle, verdict)
                verdict = self.start_session("submit", _caught(submit))
            verdicts.append(verdict)
        return verdicts

    def _verdict(
        self, statement: net.Endorsement, answers: list[tuple[str, Optional[dict]]]
    ) -> object:
        """What every other org's answer (org, answer or None) to `statement`
        decides: its endorsements, this org's first, when every org signed
        it; else DIGEST_MISMATCH or the AgentError that refuses it."""
        missing = [org for org, a in answers if a is None]
        if missing:
            return MissingCountersignature(",".join(missing))
        mismatched = [
            a.get("own_digest", "")
            for _, a in answers
            if a.get("result") == RESULT_DIGEST_MISMATCH
        ]
        theirs = [d for d in mismatched if isinstance(d, str)]  # others fail below
        if theirs:
            self.trace(
                "agent.sync.digest_mismatch",
                network=statement.foreign_network,
                org=statement.foreign_org,
                ours=statement.bundle_digest.hex(),
                theirs=",".join(theirs),
            )
            return DIGEST_MISMATCH
        failed = [
            (org, a.get("reason", a.get("error", "NoSignature")))
            for org, a in answers
            if a.get("result") != RESULT_SIGNED or not isinstance(a.get("sig"), str)
        ]
        if failed:
            return CounterpartyValidationFailed(
                ";".join(f"{org}:{reason}" for org, reason in failed)
            )
        own = self.keys.sign(statement.to_bytes()).bytes_.hex()
        return [[self.org_id, own]] + [[org, a["sig"]] for org, a in answers]

    def _submit(
        self, home_network: str, statement: net.Endorsement, bundle: bytes, endorsements: list
    ) -> Generator:
        """Submit one fully endorsed statement with its bundle; returns the
        ledger's outcome, APPLIED or NOOP."""
        reply = yield Request(
            self.config.ledgers[home_network],
            "cmdac.submit",
            {
                "statement": statement.to_bytes().hex(),
                "bundle": bundle.hex(),
                "endorsements": endorsements,
            },
            timeout=150,
        )
        if reply is None:
            raise LedgerUnreachable(home_network)
        outcome = reply.body.get("error") or reply.body.get("outcome")
        if not isinstance(outcome, str):
            raise LedgerRefused(f"{home_network}: submit reply names no outcome")
        if outcome not in (net.OUTCOME_APPLIED, net.OUTCOME_NOOP):
            raise CommitRejected(outcome)
        self.trace(
            "agent.committed",
            network=statement.foreign_network,
            org=statement.foreign_org,
            status=statement.status,
            outcome=outcome,
        )
        return outcome

    def _settled(self, verdicts: list) -> Generator:
        """`_commit_identity`'s verdicts once every submit has ended, each
        submit session replaced by its result: the ledger's outcome or the
        AgentError that failed the submit."""
        yield Join(tuple(v for v in verdicts if isinstance(v, SessionRecord)))
        return [v.result if isinstance(v, SessionRecord) else v for v in verdicts]

    def _handle_countersign(self, sender: str, msg: Message) -> Generator:
        """Check each statement of the initiator's batch here and answer, per
        statement and in order, with this org's signature of it, a digest
        mismatch or the reason it failed. Every statement of a batch names
        one foreign network: initiators batch one network's records at a
        time. The ACTIVE ones share one memberlist gate and one registry read
        for the holders that are listed but not cached; a gate or read that
        fails refuses each statement that needed it, by name. A cached list
        at least as new as the initiator's `roster_version` is reused: a
        member revoked since still fails the fresh accumulator check in
        _validate_member, and a low hint only fails the initiator's own
        commit with NotListed."""
        (home_network,) = msg.fields("home_network")
        raw = msg.body["statements"]
        if not _strings(raw):
            raise TypeError(f"{msg.kind}: statements must be a list of strings")
        if not raw:
            raise ValueError(f"{msg.kind}: no statements")
        statements = [net.Endorsement.from_bytes(bytes.fromhex(s)) for s in raw]
        networks = {s.foreign_network for s in statements}
        if len(networks) > 1:
            raise ValueError(f"{msg.kind}: statements of {len(networks)} foreign networks")
        (foreign_network,) = networks
        hint = msg.body.get("roster_version")

        def answer(results: list) -> dict:
            return {"org": self.org_id, "results": results}

        if home_network not in self.config.ledgers:
            return answer([_refusal("NotLocal")] * len(statements))
        try:
            interop, _ = yield from self._read_once(home_network)
        except (LedgerUnreachable, LedgerRefused) as e:
            return answer([_refusal(type(e).__name__)] * len(statements))
        if foreign_network not in interop:
            return answer([_refusal("PolicyViolation")] * len(statements))
        active = [s for s in statements if s.status == net.STATUS_ACTIVE]
        memberlist = self._memberlists.get(foreign_network)
        snapshot, unchecked = None, ()
        errors: dict[str, Exception] = {}  # holder DID -> what refuses its ACTIVE statements
        if active:
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
                unchecked = tuple(dict.fromkeys(
                    s.holder_did for s in active
                    if s.holder_did in memberlist.member_dids
                    and (foreign_network, s.holder_did) not in self.cache
                ))
                if unchecked:
                    snapshot = yield from self._read_members(
                        home_network, foreign_network, unchecked
                    )
            except PROTOCOL_ERRORS as e:
                # a failed gate refuses every ACTIVE statement, a failed read
                # those whose holders it named
                errors = dict.fromkeys(unchecked or [s.holder_did for s in active], e)
        sessions = []
        for s in statements:
            if s.status != net.STATUS_ACTIVE:
                check = self._countersign_revoked(home_network, s)
            else:
                # a holder cached before the read but dropped since reads alone
                read = snapshot if s.holder_did in unchecked else None
                check = self._countersign_active(
                    home_network, s, memberlist, read, errors.get(s.holder_did)
                )
            sessions.append(self.start_session("countersign", check))
        return answer(list((yield Join(tuple(sessions)))))

    def _countersign_active(
        self,
        home_network: str,
        statement: net.Endorsement,
        memberlist: Optional[creds.MemberlistCredential],
        snapshot: Optional[registry.MemberSnapshot],
        error: Optional[Exception],
    ) -> Generator:
        """Answer an ACTIVE statement: refused by `error` when its gate or
        read failed. A cached identity skips steps B and C only while its DID
        is listed, so a revoked member's old bundle cannot be signed back to
        ACTIVE."""
        foreign_network, foreign_did = statement.foreign_network, statement.holder_did
        identity = self.cache.get((foreign_network, foreign_did))
        try:
            if error is not None:
                raise error
            if identity is None or foreign_did not in memberlist.member_dids:
                _, identity = yield from self._validate_member(
                    home_network, foreign_network, foreign_did, memberlist,
                    with_bundle=True, snapshot=snapshot,
                )
            if identity.org_id != statement.foreign_org:
                raise OrgMismatch(f"{identity.org_id} presented as {statement.foreign_org}")
        except PROTOCOL_ERRORS as e:
            self.trace(
                "agent.countersign_refused",
                network=foreign_network,
                org=statement.foreign_org,
                reason=type(e).__name__,
            )
            return _refusal(type(e).__name__)
        if identity.digest != statement.bundle_digest:
            # stale copy on one side; drop ours so the retry refetches
            self.cache.pop((foreign_network, foreign_did), None)
            self.trace(
                "agent.countersign_mismatch",
                network=foreign_network,
                org=statement.foreign_org,
                ours=identity.digest.hex(),
                theirs=statement.bundle_digest.hex(),
            )
            return {"result": RESULT_DIGEST_MISMATCH, "own_digest": identity.digest.hex()}
        return {"result": RESULT_SIGNED, "sig": self._endorse(statement)}

    def _countersign_revoked(self, home_network: str, statement: net.Endorsement) -> Generator:
        """Answer a REVOKED statement: endorse only when the member no longer
        validates here either, under the DID its ledger record was committed
        with; the statement's holder DID is ignored, so an initiator cannot
        name no DID or another org's to skip the check. Always against a fresh
        memberlist: a cached one that lacks a re-admitted member would endorse
        a lying initiator's revocation."""
        foreign_network, foreign_org = statement.foreign_network, statement.foreign_org
        try:
            records = yield from self._ledger_records(home_network, foreign_network)
        except (LedgerUnreachable, LedgerRefused) as e:
            return _refusal(type(e).__name__)
        record = next((r for r in records if r.org_id == foreign_org), None)
        if record is None or record.bundle_digest != statement.bundle_digest:
            return {
                "result": RESULT_DIGEST_MISMATCH,
                "own_digest": record.bundle_digest.hex() if record else "",
            }
        try:
            memberlist = yield from self._fetch_memberlist(home_network, foreign_network)
            if record.holder_did in memberlist.member_dids:
                yield from self._validate_member(home_network, foreign_network, record.holder_did)
                return _refusal("MemberStillValid")
        except PROTOCOL_ERRORS:
            pass
        return {
            "result": RESULT_SIGNED,
            "sig": self._endorse(replace(statement, holder_did=record.holder_did)),
        }

    def _endorse(self, endorsement: net.Endorsement) -> str:
        self.trace(
            "agent.countersigned",
            network=endorsement.foreign_network,
            org=endorsement.foreign_org,
            status=endorsement.status,
        )
        return self.keys.sign(endorsement.to_bytes()).bytes_.hex()

    # --- sync rounds -------------------------------------------------------

    def _sync_target(
        self,
        home_network: str,
        foreign_network: str,
        target_did: str,
        memberlist: creds.MemberlistCredential,
        snapshot: Optional[registry.MemberSnapshot],
    ) -> Generator:
        """Steps B and C for one target of a sync round; returns its checked
        CachedIdentity."""
        _, identity = yield from self._validate_member(
            home_network, foreign_network, target_did, memberlist,
            with_bundle=True, snapshot=snapshot,
        )
        return identity

    def _target_failed(
        self, foreign_network: str, target_did: str, attempt: int, error: Exception
    ) -> dict:
        failure = {"error": type(error).__name__}
        if isinstance(error, creds.MembershipVerificationError):
            failure["check"] = error.check
        self.trace(
            "agent.sync_failed", network=foreign_network, target=target_did,
            attempts=attempt, detail=str(error), **failure,
        )
        return {"status": PHASE_FAILED, **failure}

    def _sync_round(
        self,
        home_network: str,
        foreign_network: str,
        dids: tuple[str, ...],
        attempt: int,
        memberlist: Optional[creds.MemberlistCredential] = None,
    ) -> Generator:
        """Steps B-D for the targets `dids` at once: one registry read for
        the listed ones, steps B and C for each in a session of its own, then
        one step D batch for those that passed. A retry round (no
        `memberlist`) first waits out the backoff and fetches the memberlist
        afresh. The targets whose countersigners hold another bundle run
        again as the next round, which starts as soon as the countersign
        replies are in. A memberlist fetch or registry read that fails fails
        each target of the round by name. Returns each target's result, in
        the order of `dids`."""
        try:
            if memberlist is None:
                yield Sleep(RETRY_BACKOFF)
                memberlist = yield from self._fetch_memberlist(home_network, foreign_network)
            snapshot = None
            listed = tuple(d for d in dids if d in memberlist.member_dids)
            if listed:
                snapshot = yield from self._read_members(home_network, foreign_network, listed)
        except PROTOCOL_ERRORS as e:
            return {did: self._target_failed(foreign_network, did, attempt, e) for did in dids}
        checked = yield Join(tuple(
            self.start_session("sync-target", _caught(self._sync_target(
                home_network, foreign_network, did, memberlist, snapshot
            )))
            for did in dids
        ))
        results: dict[str, dict] = {}
        ready = []
        for did, identity in zip(dids, checked):
            if isinstance(identity, CachedIdentity):
                ready.append((did, identity))
            else:
                results[did] = self._target_failed(foreign_network, did, attempt, identity)
        verdicts = yield from self._commit_identity(
            home_network,
            [
                net.RecordContent(
                    foreign_network, identity.org_id, did, identity.bundle, identity.digest,
                    net.STATUS_ACTIVE,
                )
                for did, identity in ready
            ],
            roster_version=memberlist.roster_version,
        )
        retry = tuple(did for (did, _), v in zip(ready, verdicts) if v == DIGEST_MISMATCH)
        next_round = None
        if retry and attempt < RETRY_LIMIT:
            for did in retry:
                self.cache.pop((foreign_network, did), None)
            next_round = self.start_session(
                "sync-round", self._sync_round(home_network, foreign_network, retry, attempt + 1)
            )
        verdicts = yield from self._settled(verdicts)
        for (did, identity), verdict in zip(ready, verdicts):
            if verdict == DIGEST_MISMATCH:
                if next_round is not None:
                    continue
                verdict = RetriesExhausted("countersigners' digests differ on every attempt")
            if isinstance(verdict, Exception):
                results[did] = self._target_failed(foreign_network, did, attempt, verdict)
                continue
            self.trace(
                "agent.sync_done",
                network=foreign_network,
                org=identity.org_id,
                attempts=attempt,
                outcome=verdict,
            )
            results[did] = {
                "status": PHASE_DONE,
                "org_id": identity.org_id,
                "outcome": verdict,
                "attempts": attempt,
            }
        if next_round is not None:
            [retried] = yield Join((next_round,))
            results.update(retried)
        return {did: results[did] for did in dids}

    def _revoke_record(
        self, home_network: str, foreign_network: str, record: net.RecordContent
    ) -> Generator:
        verdicts = yield from self._commit_identity(
            home_network, [replace(record, status=net.STATUS_REVOKED)]
        )
        [outcome] = yield from self._settled(verdicts)
        if outcome == DIGEST_MISMATCH:
            return {"status": PHASE_FAILED, "error": "DigestMismatch"}
        if isinstance(outcome, Exception):
            self.trace(
                "agent.revoke_failed",
                network=foreign_network,
                org=record.org_id,
                error=type(outcome).__name__,
            )
            return {"status": PHASE_FAILED, "error": type(outcome).__name__}
        self.trace("agent.record_revoked", network=foreign_network, org=record.org_id)
        return {"status": PHASE_DONE, "org_id": record.org_id, "outcome": outcome}

    def sync_network(
        self,
        home_network: str,
        foreign_network: str,
        targets: Optional[tuple[str, ...]] = None,
    ) -> Generator:
        """Steps B-D against every listed member of the foreign network (or an
        explicit target subset), in rounds (`_sync_round`); a full pass then
        flips records to REVOKED, one at a time, for orgs that no longer
        validate. The targets' sessions share the agent's reads (`_shared`),
        so a cold cache is filled once per sync."""
        interop, _ = yield from self._read_once(home_network)
        if foreign_network not in interop:
            self.trace("agent.policy_violation", network=foreign_network)
            raise PolicyViolation(f"{foreign_network} not on interoperation list")
        memberlist = yield from self._fetch_memberlist(home_network, foreign_network)
        dids = tuple(targets) if targets is not None else memberlist.member_dids
        results = yield from self._sync_round(
            home_network, foreign_network, dids, 1, memberlist
        )
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
        interop, _ = yield from self._read_once(home_network)
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
