"""Per-organization identity agent.

The agent is the org's protocol engine for the identity plane:

  step A  configure identity: obtain a membership credential (plus
          revocation witness) from each home network's membership validator,
          the first from the org's identity validator, which registers the
          org's DID as a verinym in the same request;
  step B  validate a foreign network's membership: pass the memberlist
          gate, one registry read of the trusted validator's memberlist with
          the snapshot of every member it lists (DID document, verinym
          status, the trusted issuers' revocation states), then challenge
          each member at its service endpoint naming the snapshot's epochs,
          under the nonce of the statement step D will make of it, and
          verify its membership presentation against that snapshot;
  step C  check the member's certificate bundle, which the same
          presentation carries under its one signature;
  step D  send every other local org one countersign request with the
          statement of each bundle, all of one foreign network, forwarding
          each ACTIVE holder's presentation. Each org checks it against its
          own gate read, challenging the holder itself only when the
          presented witness is behind that read, answers per statement and
          signs once, over the digests of the statements it endorses. These
          go to the ledger in one `cmdac.submit`, whose contract answers one
          outcome per statement. On a digest mismatch the agent refetches
          and retries up to its budget.

A sync runs in rounds, all in one loop (`sync_network`, which orders a
round's step D batches): a round passes the memberlist gate, whose one read
holds the snapshot of all of its targets, runs B and C for each target in a
session of its own, which a countersign batch for the same holder joins
before it decides, and settles its batches (`_settle`). Targets with a digest
mismatch run again as the next round. A full sync reads the ledger's records
of the foreign network alongside its gate: a target whose checked record the
ledger holds ends UNCHANGED, and an ACTIVE record is flipped to REVOKED only
on evidence against its holder (checks that refute it, or a fresh list that
lacks it). A targeted sync reads no records and commits every target that
passed. A resync (a scheduled scenario step, or a proof failure in the data
plane) runs a full sync of every network on the interoperation list.

Each home ledger's policy, its interoperation list and its trust list, is
fixed in its genesis state, and the agent is configured with it
(`AgentConfig.policies`), so it never asks the ledger for it; registry reads
are never kept. A target's outcome is recorded only in the trace:
`agent.sync_done` and `agent.sync_failed` carry `attempts`, and a protocol
failure its `detail`, as does a failed REVOKED flip (`agent.revoke_failed`).

One agent serves all of its organization's network memberships: the DID
document has a single service endpoint, and an org that belongs to several
networks holds one credential per network in the same wallet, presenting only
the requested one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, Optional, Sequence, TypeVar

from . import anchors
from . import credentials as creds
from . import crypto
from . import encoding as enc
from . import network as net
from . import registry
from .actors import Actor, Gather, Join, Reply, Request, SessionRecord, Sleep

PHASE_DONE = "DONE"
PHASE_FAILED = "FAILED"

RESULT_SIGNED = "signed"
RESULT_DIGEST_MISMATCH = "digest_mismatch"
RESULT_VALIDATION_FAILED = "validation_failed"

# A full sync's outcome for a target whose checked record the ledger holds.
UNCHANGED = "UNCHANGED"

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
    """The holder did not answer a challenge, or answered that it could not
    refresh its witness (WitnessUnavailable): its membership went
    unchecked."""


class BadPresentation(AgentError):
    """The holder answered a challenge with another error, or with a
    presentation that does not decode."""


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


class DigestMismatch(AgentError):
    """Step D's verdict on a statement whose countersigners hold another
    bundle; names each one's digest."""


class RetriesExhausted(AgentError):
    """Countersigners reported a digest mismatch on every attempt."""


class LedgerUnreachable(AgentError):
    pass


class LedgerRefused(AgentError):
    """The ledger answered a query or a submit with an error, or a submit
    with another number of outcomes than statements."""


class CommitRejected(AgentError):
    pass


# Everything a protocol step may raise on bad or missing input from a peer,
# the registry or the ledger; a session that catches these names the failure.
PROTOCOL_ERRORS = (AgentError, creds.CredentialError, crypto.CryptoError, registry.RegistryError)
# The ones that say a check could not be made, not that it failed: no
# evidence that a member was revoked.
UNCHECKED = (MemberUnreachable, registry.QuorumUnavailable, registry.InconsistentReplicas)

# Attempts per sync target while countersigners report a digest mismatch, and
# the ticks waited before each new attempt.
RETRY_LIMIT = 3
RETRY_BACKOFF = 1


R = TypeVar("R")


def _decode(record_cls: type[R], raw: bytes, error: type[AgentError], peer: str) -> R:
    """The `record_cls` that `peer` sent as `raw`; bytes that do not decode
    raise `error` naming `peer`."""
    try:
        return record_cls.from_bytes(raw)
    except enc.DecodeError as e:
        raise error(f"{peer}: undecodable {record_cls.__name__}: {e}") from None


def _presented(raw: bytes, holder: str) -> tuple:
    """The presentation `holder` made as `raw`, its body or the error its
    decoding raised (which fails the schema check), and the body's
    credential (None then)."""
    vp = _decode(creds.VerifiablePresentation, raw, BadPresentation, holder)
    body = creds.read_membership_body(vp)
    return vp, body, body.vc if isinstance(body, creds.MembershipBody) else None


def _caught(gen: Generator) -> Generator:
    """Run `gen`, returning the protocol error it raises instead: a session
    running it ends without `session.failed`, and whoever joins it names the
    error as its own."""
    try:
        return (yield from gen)
    except PROTOCOL_ERRORS as e:
        return e


# --- message bodies: one record per request and reply kind (`IinAgent.REQUESTS`)


@dataclass(frozen=True)
class CountersignRequest(enc.Record):  # agent.countersign.request: one network's statements
    statements: tuple[enc.Framed[net.Endorsement], ...]
    # per statement: its ACTIVE holder's presentation (`creds.Presented.vp`),
    # undecoded; empty for a REVOKED one
    presentations: tuple[bytes, ...] = ()


@dataclass(frozen=True)
class StatementNonce(enc.Record):
    """A challenge nonce: the statement to be made of the presentation as
    far as known at the challenge, whose tick, `made_at`, the holder reads."""

    TAG = enc.TAG_NONCE
    home_network: str
    holder_did: str
    made_at: int


@dataclass(frozen=True)
class Answer(enc.Record):  # a countersigner's answer to one statement (RESULT_*)
    result: str
    own_digest: bytes = b""
    reason: str = ""


SIGNED = Answer(RESULT_SIGNED)


@dataclass(frozen=True)
class Countersigned(enc.Record):
    """agent.countersign.reply: one answer per statement, and the batch of
    the statements answered SIGNED with this org's signature over it (none
    when it signed no statement)."""

    results: tuple[Answer, ...]
    endorsed: enc.Framed[net.Endorsed] = net.Endorsed(())
    signature: bytes = b""


def _refusal(reason: str) -> Answer:
    """A countersigner's answer to a statement it does not sign."""
    return Answer(RESULT_VALIDATION_FAILED, reason=reason)


def _batch_answers(reply: Optional[Reply], n: int) -> Optional[tuple[Answer, ...]]:
    """A countersigner's answer to each statement of an `n`-statement batch,
    or None when it did not reply: an error reply refuses each by its error,
    a reply of another number of answers by NoSignature."""
    if reply is None:
        return None
    if reply.error:
        return (_refusal(reply.error),) * n
    if len(reply.body.results) != n:
        return (_refusal("NoSignature"),) * n
    return reply.body.results


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
    # home network -> its ledger's genesis policy: (interoperation list, trust
    # list entries (iin id, anchor DID, network))
    policies: dict[str, tuple[tuple[str, ...], tuple[tuple[str, str, str], ...]]]
    organizations: dict[str, net.Organization] = field(default_factory=dict)


class IinAgent(Actor):
    def __init__(self, config: AgentConfig):
        super().__init__(config.address)
        self.config = config
        self.keys = config.keys
        self.org_id = config.org_id
        self.pool = config.pool
        self.did = registry.make_did(config.pool.iin_id, config.keys.public_key)
        self.wallet: dict[str, tuple[creds.MembershipCredential, crypto.AccumulatorWitness]] = {}
        # (foreign network, holder DID) -> the ACTIVE record steps B and C checked
        self.cache: dict[tuple[str, str], net.RecordContent] = {}
        # foreign network -> last verified memberlist (also the rollback floor)
        self._memberlists: dict[str, creds.MemberlistCredential] = {}
        # home network -> the witness refresh last started (see _freshen_witness)
        self._refreshing: dict[str, SessionRecord] = {}
        # (foreign network, holder DID) -> the steps B and C a sync round last started
        self._checking: dict[tuple[str, str], SessionRecord] = {}

    REQUESTS = {
        "agent.membership_vp.request":
            ("_serve_membership_vp", creds.Challenge, "agent.membership_vp.reply", creds.Presented),
        "agent.countersign.request":
            ("_handle_countersign", CountersignRequest, "agent.countersign.reply", Countersigned),
    }

    # --- step A: configure identity -----------------------------------------

    def step_a(self) -> Generator:
        """Obtain a membership VC per home network, the first from the org's
        identity validator, whose request carries the DID document to register
        as a verinym. Safe to re-run: the anchor writes no NYM for a document
        the registry holds, and re-issuance returns the existing credential
        with a fresh witness, so a request whose reply is lost is sent again."""
        doc = registry.new_did_document(self.pool.iin_id, self.keys, self.address)
        oiv = self.config.oiv_address
        for network_id in sorted(self.config.ledgers, key=lambda n: self.config.home_pmv[n] != oiv):
            anchor = self.config.home_pmv[network_id]
            body = anchors.VcRequest(self.did, network_id, (doc,) if anchor == oiv else ())
            reply = yield Request(anchor, "anchor.vc.request", body, timeout=600)
            if reply is None:
                # asked once more: the anchor answers a repeat with the
                # credential it already issued (`already_member`)
                reply = yield Request(anchor, "anchor.vc.request", body, timeout=600)
            if reply is None:
                raise AgentError(f"membership validator for {network_id} unreachable")
            if reply.error:
                raise AgentError(reply.error)
            self.wallet[network_id] = (reply.body.vc, reply.body.witness)
        self.trace("agent.configured", did=self.did, networks=",".join(self.config.ledgers))
        return self.did

    # --- serving counterparties ----------------------------------------------

    def _serve_membership_vp(self, sender: str, challenge: creds.Challenge) -> Generator:
        """Answer a challenge with one membership presentation, signed once,
        that carries the org's certificate bundle for the network too when
        the challenge asks for it (`bundle`). A statement's nonce is refused
        before its `made_at` (FutureStatement): no presentation can carry a
        bundle older than its statement's tick."""
        network_id = challenge.network_id
        entry = self.wallet.get(network_id)
        if entry is None:
            return "NoCredential"
        try:
            if StatementNonce.from_bytes(challenge.nonce).made_at > self.bus.now:
                return "FutureStatement"
        except enc.DecodeError:
            pass  # a nonce of the asker's own, which no statement names
        vc, witness = entry
        epoch = dict(challenge.epochs).get(vc.issuer_did)
        if epoch is None or witness.epoch < epoch:
            witness = yield from self._freshen_witness(network_id, epoch)
        bundle = self.config.organizations[network_id].bundle_bytes() if challenge.bundle else b""
        vp = creds.build_membership_vp(self.did, self.keys, vc, witness, challenge.nonce, bundle)
        return creds.Presented(vp.to_bytes())

    def _freshen_witness(self, network_id: str, epoch: Optional[int]) -> Generator:
        """The wallet's witness for `network_id` once the issuing anchor has
        been asked for one at its current epoch; the holder asks only when
        the challenge names no `epoch` for the issuer or a newer one than its
        witness's, so a wrong epoch can fail only its verifier's check 6. The
        anchor alone writes the revocation state, so it needs no registry
        read to know the epoch. One refresh per network is in flight at a
        time: a challenge that finds one joins it and rechecks its epoch,
        asking on its own only when the joined refresh left the witness
        behind a named epoch. A revoked holder's refresh is refused
        (NotAMember): it presents the stored witness and the verifier's
        accumulator check refutes it. A lost refresh raises
        WitnessUnavailable when the stored witness is behind a named epoch,
        and one answered with a witness that does not decode always does."""
        refresh = self._refreshing.get(network_id)
        if refresh is not None and not refresh.done:
            yield Join((refresh,))
            witness = self.wallet[network_id][1]
            if epoch is None or witness.epoch >= epoch:
                return witness
        refresh = self.start_session("witness", _caught(self._ask_witness(network_id)))
        self._refreshing[network_id] = refresh
        (reply,) = yield Join((refresh,))
        if isinstance(reply, Exception):
            raise reply
        witness = self.wallet[network_id][1]
        if reply is None and epoch is not None and witness.epoch < epoch:
            raise WitnessUnavailable(f"{network_id}: witness at {witness.epoch} < {epoch}")
        return witness

    def _ask_witness(self, network_id: str) -> Generator:
        """One witness refresh at the issuing anchor: keeps the witness it
        answers with in the wallet, and returns the reply (None when lost)."""
        vc, _ = self.wallet[network_id]
        anchor = self.config.home_pmv[network_id]
        request = anchors.WitnessRequest(vc.credential_id)
        reply = yield Request(anchor, "anchor.witness.request", request, timeout=120)
        if reply is not None and reply.error == enc.DecodeError.__name__:
            raise WitnessUnavailable(f"{anchor}: undecodable witness reply")
        if reply is not None and not reply.error:
            self.wallet[network_id] = (vc, reply.body.witness)
        return reply

    # --- local ledger views ---------------------------------------------------

    def _ledger_records(self, home_network: str, foreign_network: str) -> Generator:
        """The home ledger's records of `foreign_network`."""
        query = net.LedgerQuery(foreign_network)
        reply = yield Request(self.config.ledgers[home_network], "ledger.query", query, timeout=120)
        if reply is None:
            raise LedgerUnreachable(home_network)
        if reply.error:
            raise LedgerRefused(f"{home_network}: {reply.error}")
        return reply.body.records

    # --- step B: validate membership ------------------------------------------

    def _fetch_memberlist(self, home_network: str, foreign_network: str) -> Generator:
        """The foreign network's memberlist, as the anchor the trust list
        names for it last wrote it to the registry, and the snapshot it came
        in; returns (memberlist, snapshot). The gate is one `_read_members`
        read, and no anchor round trip: the anchor's current list, the
        document of every member it lists, the list's credential definition
        and the trusted issuers' revocation states, all from one registry
        state. The anchor writes a list in the same transaction as the
        revocation state of its roster step, so the two cannot disagree, and
        a caller validates every listed holder from this snapshot with no
        second read. A missing list, or one that does not verify under the
        anchor's memberlist credential definition, is NoTrustedPMV, as is a
        snapshot whose holders are not exactly the list's members."""
        _, entries = self.config.policies[home_network]
        anchor_did = next((a for _, a, n in entries if n == foreign_network), None)
        if anchor_did is None:
            raise NoTrustedPMV(f"no trusted membership validator for {foreign_network}")
        cred_def_id = creds.cred_def_id_for(
            anchor_did, creds.schema_id_for(creds.MEMBERLIST_SCHEMA_NAME)
        )
        snapshot = yield from self._read_members(
            home_network, foreign_network, (), cred_def_id,
            memberlists=((anchor_did, foreign_network),),
        )
        memberlist = next(iter(snapshot.memberlists), None)
        if memberlist is None:
            raise NoTrustedPMV(f"registry holds no memberlist for {foreign_network}")
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
        if tuple(e.did for e in snapshot.holders) != memberlist.member_dids:
            raise NoTrustedPMV("snapshot holders are not the memberlist's members")
        # the rollback floor: of two fetches in flight at once, an older list
        # that arrives second fails only the fetch that asked for it
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
        return memberlist, snapshot

    def _trusted(self, home_network: str, foreign_network: str) -> tuple:
        """The trust list's (anchor DID, network) pairs, and the anchors it
        names for `foreign_network`, sorted."""
        _, entries = self.config.policies[home_network]
        trusted = frozenset((anchor, network) for _, anchor, network in entries)
        return trusted, tuple(sorted(a for a, network in trusted if network == foreign_network))

    def _read_members(
        self,
        home_network: str,
        foreign_network: str,
        dids: tuple[str, ...],
        *cred_def_ids: str,
        memberlists: tuple[tuple[str, str], ...] = (),
    ) -> Generator:
        """One registry snapshot of the holders `dids` with every registry
        input their checks need: the membership schema, the membership
        credential definition of each anchor on the trust list and the
        revocation state of each anchor it names for `foreign_network`, and
        any further `cred_def_ids` and (issuer, network) `memberlists`, with
        the holders those lists list. No holder chooses what is read: no id a
        presentation carries is named."""
        trusted, issuers = self._trusted(home_network, foreign_network)
        cred_defs = tuple(sorted({
            creds.cred_def_id_for(anchor, MEMBERSHIP_SCHEMA_ID) for anchor, _ in trusted
        }.union(cred_def_ids)))
        return (yield from registry.resolve_member(
            self.pool, dids, issuers, (MEMBERSHIP_SCHEMA_ID,), cred_defs, memberlists
        ))

    def _validate_member(
        self,
        home_network: str,
        foreign_network: str,
        target_did: str,
        memberlist: Optional[creds.MemberlistCredential] = None,
        with_bundle: bool = False,
        snapshot: Optional[registry.MemberSnapshot] = None,
        forwarded: Optional[tuple[int, bytes]] = None,
    ) -> Generator:
        """Resolve, challenge, and verify one foreign member (step B) and, with
        `with_bundle`, check the certificate bundle that the same presentation
        carries (step C). A `memberlist`, when given, must list `target_did`
        (NotListed). Returns (claim, record, presented): `record` is the
        checked ACTIVE `net.RecordContent` with `with_bundle`, else None, and
        `presented` the (`made_at`, presentation bytes) it was checked on.

        The checks read nothing but one registry snapshot (`_read_members`), so
        a revocation committed before it fails check 6; a `snapshot` given is
        that read, most often the memberlist gate's (`_fetch_memberlist`). A
        credential definition the snapshot lacks fails check 5, and an issuer
        the trust list names for another network check 6. The challenge, made
        at tick `made_at` under its `StatementNonce`, names each state's epoch,
        and a holder with an older witness refreshes it at its anchor. A
        countersigner passes its statement's (`made_at`, forwarded
        presentation) as `forwarded`: the checks run on that, with no send,
        unless it is empty or its witness is behind the snapshot, when the
        holder is challenged here and the trace names why
        (`agent.challenge_fallback`). Only a record this org's own challenge
        checked is cached: a forwarded one may be an earlier sync's, replayed.
        A witness newer than the snapshot means its issuer wrote since the
        read, so the snapshot is read once more. A challenge with no reply, and
        a holder whose refresh got none (it answers WitnessUnavailable), are
        MemberUnreachable: the holder went unchecked. Any other error answer,
        and a presentation that does not decode, are BadPresentation."""
        if memberlist is not None and target_did not in memberlist.member_dids:
            raise NotListed(target_did)
        trusted, _ = self._trusted(home_network, foreign_network)
        if snapshot is None:
            snapshot = yield from self._read_members(home_network, foreign_network, (target_did,))
        (doc, _), revocation = snapshot.holder(target_did), snapshot.revocation()
        made_at, raw = forwarded or (self.bus.now, b"")
        why = "no presentation" if forwarded and not raw else None
        if raw:
            vp, vp_body, vc = _presented(raw, target_did)
            state = revocation.get(vc.issuer_did) if vc is not None else None
            if state is not None and vp_body.witness.epoch < state.epoch:
                why = f"witness at {vp_body.witness.epoch} < {state.epoch}"
        own = bool(why or not raw)  # this org's own challenge, not a forwarded presentation
        if own:
            if why:
                self.trace("agent.challenge_fallback", network=foreign_network,
                           holder=target_did, reason=why)
            made_at, epochs = self.bus.now, tuple((i, s.epoch) for i, s in revocation.items())
            nonce = StatementNonce(home_network, target_did, made_at).to_bytes()
            challenge = creds.Challenge(foreign_network, nonce, epochs, int(with_bundle))
            reply = yield Request(
                doc.service_endpoint, "agent.membership_vp.request", challenge, timeout=400
            )
            if reply is None or reply.error == WitnessUnavailable.__name__:
                raise MemberUnreachable(target_did + (f": {reply.error}" if reply else ""))
            if reply.error:
                raise BadPresentation(f"{target_did}: {reply.error}")
            raw = reply.body.vp  # decoded in the memo, as each countersigner it goes to
            vp, vp_body, vc = _presented(raw, target_did)
        # a body that does not decode fails check 4 before these are looked at
        issuer, cred_def_id = (vc.issuer_did, vc.cred_def_id) if vc is not None else ("", "")
        state = revocation.get(issuer)
        if state is not None and vp_body.witness.epoch > state.epoch:
            snapshot = yield from self._read_members(home_network, foreign_network, (target_did,))
        artifacts = snapshot.artifacts(target_did, issuer, MEMBERSHIP_SCHEMA_ID, cred_def_id)
        nonce = StatementNonce(home_network, target_did, made_at).to_bytes()
        claim = creds.verify_membership_vp(
            vp, foreign_network, nonce, trusted, artifacts, vp_body
        )
        self.trace(
            "agent.member_validated", network=foreign_network, holder=claim.holder_did
        )
        record = None
        if with_bundle:
            record = yield from self._fetch_identity(foreign_network, target_did, vp_body.bundle)
            if own:
                self.cache[(foreign_network, target_did)] = record
        return claim, record, (made_at, raw)

    # --- step C: check network identity ----------------------------------------

    def _fetch_identity(self, foreign_network: str, target_did: str, payload: bytes) -> Generator:
        """Check the certificate bundle `payload` that `target_did`'s
        membership presentation carried, once that presentation has passed
        checks 1-7, so its one signature, under the holder's DID key and
        bound to this challenge's nonce, already covers the bundle. Returns
        the ACTIVE record that step D commits; an empty bundle, one that
        does not decode, or one of another network is MalformedBundle. A
        generator though it sends nothing, as the benchmark's tracer drives
        steps B, C and D as generators."""
        yield from ()
        bundle = _decode(net.Bundle, payload, MalformedBundle, target_did)
        if bundle.network_id != foreign_network or not bundle.chains:
            raise MalformedBundle(
                f"bundle for {bundle.network_id!r} with {len(bundle.chains)} chains"
            )
        for chain in bundle.chains:
            crypto.verify_certificate_chain(chain.certificates, self.bus.now)
        record = net.RecordContent(
            foreign_network, bundle.org_id, target_did, payload, bundle.digest(),
            net.STATUS_ACTIVE,
        )
        self.trace(
            "agent.identity_fetched",
            network=foreign_network,
            org=bundle.org_id,
            digest=record.bundle_digest.hex(),
        )
        return record

    # --- step D: consensus commit ----------------------------------------------

    def _commit_identity(
        self, home_network: str, records: Sequence[net.RecordContent],
        presented: Sequence[tuple[int, bytes]],
    ) -> Generator:
        """Step D for a non-empty batch of `records`: make each one's
        statement (`net.Endorsement`) at the `made_at` of its (`made_at`,
        presentation) in `presented`, as steps B and C checked it (none for
        a REVOKED record), and ask every other local org to countersign all
        of them in one request that forwards each presentation. This org
        signs one batch (`net.Endorsed`) of the statements that every org
        signed, and submits them together, each org's batch and signature
        once, in one `cmdac.submit`. Returns one verdict per record, in
        order: the ledger's outcome (APPLIED or NOOP), or the AgentError
        that refused the record, DigestMismatch among them. Every check is per statement,
        so a refusal fails only its own record; only a transport failure of
        the submit fails each record it carried (`_submit`)."""
        statements = [r.statement(home_network, t) for r, (t, _) in zip(records, presented)]
        peers = sorted(
            (org, addr)
            for org, addr in self.config.peer_agents[home_network].items()
            if org != self.org_id
        )
        request_body = CountersignRequest(tuple(statements), tuple(vp for _, vp in presented))
        replies = yield Gather(
            tuple((addr, "agent.countersign.request", request_body) for _, addr in peers),
            timeout=1500,
        )
        answers = [_batch_answers(r, len(statements)) for r in replies]
        verdicts = [
            self._verdict(statement, [
                (org, None if a is None else a[i]) for (org, _), a in zip(peers, answers)
            ])
            for i, statement in enumerate(statements)
        ]
        ready = [i for i, verdict in enumerate(verdicts) if verdict is None]
        if ready:
            endorsed = net.Endorsed(tuple(statements[i].digest() for i in ready))
            endorsements = ((self.org_id, endorsed, self.keys.sign(endorsed.to_bytes()).bytes_),)
            endorsements += tuple(
                (org, r.body.endorsed, r.body.signature) for (org, _), r in zip(peers, replies)
            )
            submitted = yield from self._submit(
                home_network, [(statements[i], records[i].bundle) for i in ready], endorsements
            )
            for i, verdict in zip(ready, submitted):
                verdicts[i] = verdict
        return verdicts

    def _verdict(
        self, statement: net.Endorsement, answers: list[tuple[str, Optional[Answer]]]
    ) -> object:
        """What every other org's answer (org, answer or None) to `statement`
        decides: None when every org signed it, else the AgentError that
        refuses it."""
        missing = [org for org, a in answers if a is None]
        if missing:
            return MissingCountersignature(",".join(missing))
        theirs = {
            org: a.own_digest.hex() for org, a in answers if a.result == RESULT_DIGEST_MISMATCH
        }
        if theirs:
            self.trace(
                "agent.sync.digest_mismatch",
                network=statement.foreign_network,
                org=statement.foreign_org,
                ours=statement.bundle_digest.hex(),
                theirs=",".join(theirs.values()),
            )
            return DigestMismatch(";".join(f"{org}:{d}" for org, d in theirs.items()))
        failed = [
            (org, a.reason or "NoSignature") for org, a in answers if a.result != RESULT_SIGNED
        ]
        if failed:
            return CounterpartyValidationFailed(
                ";".join(f"{org}:{reason}" for org, reason in failed)
            )
        return None

    def _submit(
        self, home_network: str, statements: list[tuple[net.Endorsement, bytes]],
        endorsements: net.Endorsements,
    ) -> Generator:
        """Submit fully endorsed (statement, bundle) pairs as one batch;
        returns one verdict per statement, in order: the ledger's outcome,
        APPLIED or NOOP, or CommitRejected naming the contract's refusal. A
        batch whose request or reply is lost is sent once more, which is safe
        because the ledger answers a statement it already applied NOOP; a
        second loss fails each statement as LedgerUnreachable, and an error
        reply, or one with another number of outcomes, as LedgerRefused
        naming it."""
        body = net.CommitRequest(tuple(statements), endorsements)
        submit = Request(self.config.ledgers[home_network], "cmdac.submit", body, timeout=150)
        reply = yield submit
        if reply is None:
            reply = yield submit
        if reply is None:
            return [LedgerUnreachable(home_network) for _ in statements]
        error = reply.error
        if not error and len(reply.body.outcomes) != len(statements):
            error = f"answered {len(reply.body.outcomes)} of {len(statements)} statements"
        if error:
            return [LedgerRefused(f"{home_network}: {error}") for _ in statements]
        verdicts = []
        for (statement, _), outcome in zip(statements, reply.body.outcomes):
            if outcome not in (net.OUTCOME_APPLIED, net.OUTCOME_NOOP):
                verdicts.append(CommitRejected(outcome))
                continue
            self.trace(
                "agent.committed",
                network=statement.foreign_network,
                org=statement.foreign_org,
                status=statement.status,
                outcome=outcome,
            )
            verdicts.append(outcome)
        return verdicts

    def _handle_countersign(self, sender: str, request: CountersignRequest) -> Generator:
        """Judge each statement of the initiator's batch here (`_countersign`) and
        answer, per statement and in order, SIGNED, a digest mismatch or the
        reason it failed; once every answer is settled, sign one batch
        (`net.Endorsed`) of the digests of the statements answered SIGNED, in
        request order, or nothing when there is none. A batch names one home
        and one foreign network. A statement made later than this org's clock,
        which no later commit would make stale, refuses the batch as
        FutureStatement. A batch that arrives while this org's own sync round
        checks one of its ACTIVE holders joins that check first, so it decides
        as it would had it arrived after: one answer, whatever the latency.
        It reads no ledger records: the contract refuses a REVOKED statement
        that does not name its record (`net.OUTCOME_RECORD_MISMATCH`). The
        batch makes at most one registry read, decided from this org's own
        state alone: none when it holds no REVOKED statement and every ACTIVE
        holder is cached (`_cached`) and on the last list verified here, and
        otherwise the memberlist gate
        (`_fetch_memberlist`), whose snapshot holds every holder the batch
        checks. A REVOKED statement is thus always judged on a fresh list: a
        reused one that lacks a re-admitted member would endorse a lying
        initiator's revocation. A member revoked since the reused list was
        verified is signed while it stays cached. A presentation list of
        another length than the statements is ignored, as if none came."""
        statements = request.statements
        # a batch names one pair of networks: none, or two, is a ValueError
        ((home_network, foreign_network),) = {(s.home_network, s.foreign_network) for s in statements}

        def refused(reason: str) -> Countersigned:
            return Countersigned((_refusal(reason),) * len(statements))

        if home_network not in self.config.ledgers:
            return refused("NotLocal")
        if any(s.made_at > self.bus.now for s in statements):
            return refused("FutureStatement")
        interop, _ = self.config.policies[home_network]
        if foreign_network not in interop:
            return refused("PolicyViolation")
        active = [s.holder_did for s in statements if s.status == net.STATUS_ACTIVE]
        # decide as after this org's own checks of the same holders
        yield Join(tuple(filter(None, (self._checking.get((foreign_network, h)) for h in active))))
        memberlist = self._memberlists.get(foreign_network)
        gate: object = (memberlist, None)
        if len(active) < len(statements) or any(
            self._cached(foreign_network, h) is None
            or memberlist is None or h not in memberlist.member_dids
            for h in active
        ):
            gate = yield from _caught(self._fetch_memberlist(home_network, foreign_network))
        presentations = request.presentations
        if len(presentations) != len(statements):
            presentations = (b"",) * len(statements)
        # each check ends with its refusal, or the digest it endorsed
        settled = yield Join(tuple(
            self.start_session(
                "countersign", self._countersign(home_network, s, gate, vp)
            ) for s, vp in zip(statements, presentations)
        ))
        endorsed = net.Endorsed(tuple(a for a in settled if isinstance(a, bytes)))
        return Countersigned(
            tuple(SIGNED if isinstance(a, bytes) else a for a in settled),
            endorsed,
            self.keys.sign(endorsed.to_bytes()).bytes_ if endorsed.statements else b"",
        )

    def _countersign(
        self, home_network: str, statement: net.Endorsement, gate: object, vp: bytes
    ) -> Generator:
        """Answer `statement` with the digest it endorses, or its refusal.
        `gate` is the batch's (memberlist, snapshot), or the error its
        memberlist gate failed with, which refuses the statement by name.
        Each statement is judged under the holder DID it names, an ACTIVE one
        on `vp`, the presentation forwarded with it. A REVOKED statement that
        names no DID, or another org's, is endorsed (NotListed), and the
        contract refuses it, as the DID is not its record's
        (`net.OUTCOME_RECORD_MISMATCH`). The holder is judged once: NotListed
        when the list lacks it, then its cached identity (ACTIVE only, so a
        revoked member's old bundle cannot be signed back to ACTIVE) or its
        validation on the gate's snapshot, then OrgMismatch. An ACTIVE
        statement is signed when the holder passes with the statement's
        digest; another is a digest mismatch, but on the forwarded
        presentation itself PresentationMismatch, which starts no retry. A
        REVOKED statement's holder is challenged here, so no forwarded bytes
        count against it; it is refused as MemberStillValid when the holder
        passes, and endorsed only when the judgement refutes it: one that
        could not check the holder (UNCHECKED) refuses it by name."""
        holder, active = statement.holder_did, statement.status == net.STATUS_ACTIVE
        if isinstance(gate, Exception):
            return self._refused(statement, type(gate).__name__)
        (memberlist, snapshot), network = gate, statement.foreign_network
        try:
            if holder not in memberlist.member_dids:
                raise NotListed(holder)
            identity = self._cached(network, holder) if active else None
            stated = False  # judged on the presentation forwarded with the statement
            if identity is None:
                _, identity, presented = yield from self._validate_member(
                    home_network, network, holder, with_bundle=active, snapshot=snapshot,
                    forwarded=(statement.made_at, vp) if active else None,
                )
                stated = presented == (statement.made_at, vp)
            if active and identity.org_id != statement.foreign_org:
                raise OrgMismatch(f"{identity.org_id} presented as {statement.foreign_org}")
        except PROTOCOL_ERRORS as e:
            if active or isinstance(e, UNCHECKED):
                return self._refused(statement, type(e).__name__)
            return self._endorse(statement)
        if not active:
            return self._refused(statement, "MemberStillValid")
        if identity.bundle_digest != statement.bundle_digest:
            # stale copy on one side; drop ours so the retry refetches
            self.cache.pop((network, holder), None)
            if stated:
                return self._refused(statement, "PresentationMismatch")
            self.trace(
                "agent.countersign_mismatch",
                network=network,
                org=statement.foreign_org,
                ours=identity.bundle_digest.hex(),
                theirs=statement.bundle_digest.hex(),
            )
            return Answer(RESULT_DIGEST_MISMATCH, own_digest=identity.bundle_digest)
        return self._endorse(statement)

    def _cached(self, network: str, holder: str) -> Optional[net.RecordContent]:
        """The identity cached for `holder` in `network`, or None; this org's
        own counts as uncached once its bundle has rotated."""
        identity = self.cache.get((network, holder))
        own = self.config.organizations.get(network) if holder == self.did else None
        stale = identity and own and identity.bundle_digest != own.bundle_digest()
        return None if stale else identity

    def _refused(self, statement: net.Endorsement, reason: str) -> Answer:
        """This countersigner's refusal of `statement`, traced by its reason."""
        self.trace(
            "agent.countersign_refused",
            network=statement.foreign_network,
            org=statement.foreign_org,
            reason=reason,
        )
        return _refusal(reason)

    def _endorse(self, endorsement: net.Endorsement) -> bytes:
        """The digest of `endorsement`, which the batch's signature will cover."""
        self.trace(
            "agent.countersigned",
            network=endorsement.foreign_network,
            org=endorsement.foreign_org,
            status=endorsement.status,
        )
        return endorsement.digest()

    # --- sync rounds -------------------------------------------------------

    def _sync_target(
        self,
        home_network: str,
        foreign_network: str,
        target_did: str,
        memberlist: creds.MemberlistCredential,
        snapshot: Optional[registry.MemberSnapshot],
    ) -> Generator:
        """Steps B and C for one target of a sync round; returns the ACTIVE
        record they checked and the (`made_at`, presentation) they checked it
        on, which step D states and forwards."""
        _, record, presented = yield from self._validate_member(
            home_network, foreign_network, target_did, memberlist,
            with_bundle=True, snapshot=snapshot,
        )
        return record, presented

    def _target_done(
        self, foreign_network: str, record: net.RecordContent, attempt: int, outcome: str
    ) -> dict:
        self.trace(
            "agent.sync_done",
            network=foreign_network,
            org=record.org_id,
            attempts=attempt,
            outcome=outcome,
        )
        return {
            "status": PHASE_DONE,
            "org_id": record.org_id,
            "outcome": outcome,
            "attempts": attempt,
        }

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

    def _settle(
        self,
        home_network: str,
        foreign_network: str,
        checks: dict[str, SessionRecord],
        attempt: int,
        held: Sequence[net.RecordContent],
        gone: Sequence[net.RecordContent] = (),
    ) -> Generator:
        """Join the steps B and C `checks` of a round's targets, by DID, and
        turn their verdicts into one step D batch: end each whose checked
        record the ledger `held` as UNCHANGED, commit the others that passed
        (`_sync_target`),
        and end each that failed by name, flipping the record `held` ACTIVE
        for its DID when the failure refutes the holder (outside UNCHECKED).
        The `gone` records, whose holder the fresh list lacks, are flipped
        with no check. Returns the result of each target that ended, by DID,
        and of each flip, by `revoke:<org>`, and the targets to run again
        (`sync_network`), which a flip never is."""
        checked = yield Join(tuple(checks.values()))
        results: dict[str, dict] = {}
        ready, flips = [], list(gone)
        active = {r.holder_did: r for r in held if r.status == net.STATUS_ACTIVE}
        for did, target in zip(checks, checked):
            if isinstance(target, Exception):
                results[did] = self._target_failed(foreign_network, did, attempt, target)
                if did in active and not isinstance(target, UNCHECKED):
                    flips.append(active[did])
            elif target[0] in held:
                results[did] = self._target_done(foreign_network, target[0], attempt, UNCHANGED)
            else:
                ready.append(target)
        ready += [(replace(r, status=net.STATUS_REVOKED), (self.bus.now, b"")) for r in flips]
        if not ready:
            return results, ()
        # the records, and the (made_at, presentation) each one was checked on
        verdicts = yield from self._commit_identity(home_network, *zip(*ready))
        retry = []
        for (record, _), verdict in zip(ready, verdicts):
            did = record.holder_did
            if record.status == net.STATUS_REVOKED:
                results[f"revoke:{record.org_id}"] = self._flipped(foreign_network, record, verdict)
                continue
            if isinstance(verdict, DigestMismatch):
                if attempt < RETRY_LIMIT:
                    self.cache.pop((foreign_network, did), None)
                    retry.append(did)
                    continue
                verdict = RetriesExhausted("countersigners' digests differ on every attempt")
            if isinstance(verdict, Exception):
                results[did] = self._target_failed(foreign_network, did, attempt, verdict)
            else:
                results[did] = self._target_done(foreign_network, record, attempt, verdict)
        return results, tuple(retry)

    def sync_network(
        self,
        home_network: str,
        foreign_network: str,
        targets: Optional[tuple[str, ...]] = None,
    ) -> Generator:
        """Steps B-D against every listed member of the foreign network (or an
        explicit target subset), in rounds until no target is left. The first
        round's one registry read is the memberlist gate, whose snapshot holds
        every listed member, so a first sync and a resync alike read once. A
        full sync reads the ledger's records of the foreign network once, in a
        session started before the gate and joined once the first round's
        checks have started, as the records decide only how step D splits; its
        failure fails the sync by name. A targeted sync reads none.

        A round checks each target (steps B and C) in a session of its own, on
        the gate's snapshot, and starts its step D batches as `_settle`
        sessions, in this order: the first round's flips of the ACTIVE records
        whose holder the fresh list lacks; the new targets, whose DID has no
        ACTIVE record among those read (every target of a targeted sync); and
        the others, whose refuted holders their batch flips. It joins them all
        at once. The targets whose countersigners
        hold another bundle run again as the next round while the attempt is
        below RETRY_LIMIT; a retry round waits out the backoff and passes the
        gate afresh, and a gate that fails then fails each target by name.
        Returns each target's result by DID, then each flip's by
        `revoke:<org>`, a refuted holder's before a gone one's."""
        interop, _ = self.config.policies[home_network]
        if foreign_network not in interop:
            self.trace("agent.policy_violation", network=foreign_network)
            raise PolicyViolation(f"{foreign_network} not on interoperation list")
        # the records read runs alongside the memberlist gate
        reading = self.start_session(
            "records", _caught(self._ledger_records(home_network, foreign_network))
        ) if targets is None else None
        memberlist, snapshot = yield from self._fetch_memberlist(home_network, foreign_network)
        dids, records = memberlist.member_dids if targets is None else tuple(targets), []
        ended: dict[str, dict] = {}
        pending, attempt = dids, 1
        while pending or attempt == 1:
            if attempt > 1:
                yield Sleep(RETRY_BACKOFF)
                try:
                    memberlist, snapshot = yield from self._fetch_memberlist(
                        home_network, foreign_network
                    )
                except PROTOCOL_ERRORS as e:
                    for did in pending:
                        ended[did] = self._target_failed(foreign_network, did, attempt, e)
                    break
            checks = {
                did: self.start_session("sync-target", _caught(self._sync_target(
                    home_network, foreign_network, did, memberlist, snapshot
                )))
                for did in pending
            }
            self._checking.update(((foreign_network, did), s) for did, s in checks.items())
            gone = []
            if reading is not None and attempt == 1:  # joined once the first checks run
                (records,) = yield Join((reading,))
                if isinstance(records, Exception):
                    raise records
                gone = [
                    r for r in records if r.status == net.STATUS_ACTIVE and r.holder_did not in dids
                ]
            active = {r.holder_did for r in records if r.status == net.STATUS_ACTIVE}
            flips = (self.start_session("revoke", self._settle(
                home_network, foreign_network, {}, attempt, (), gone=gone
            )),) if gone else ()
            new = {did: s for did, s in checks.items() if did not in active}
            known = {did: s for did, s in checks.items() if did in active}
            batches = tuple(self.start_session("commit", self._settle(
                home_network, foreign_network, group, attempt, records
            )) for group in (new, known) if group)
            retry = set()
            for round_ended, again in (yield Join(batches + flips)):  # the gone flips last
                ended.update(round_ended)
                retry.update(again)
            pending, attempt = tuple(d for d in pending if d in retry), attempt + 1
        results = {did: ended[did] for did in dids}
        results.update(ended)  # the flips, after the targets
        return results

    def _flipped(self, foreign_network: str, record: net.RecordContent, verdict: object) -> dict:
        """The result of the REVOKED flip `record` from its step D verdict."""
        if isinstance(verdict, Exception):
            error = type(verdict).__name__
            self.trace(
                "agent.revoke_failed", network=foreign_network, org=record.org_id, error=error,
                detail=str(verdict),
            )
            return {"status": PHASE_FAILED, "error": error}
        self.trace("agent.record_revoked", network=foreign_network, org=record.org_id)
        return {"status": PHASE_DONE, "org_id": record.org_id, "outcome": verdict}

    def resync(self, home_network: str, trigger: str) -> Generator:
        """A full sync of every foreign network on the interoperation list,
        with steps B and C re-run from an empty cache; only records that
        changed are committed. Triggered by a scheduled scenario step or a
        data-plane proof failure."""
        self.trace("agent.resync", network=home_network, trigger=trigger)
        self.cache.clear()
        interop, _ = self.config.policies[home_network]
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
        memberlist, snapshot = yield from self._fetch_memberlist(home_network, foreign_network)
        record, _ = yield from self._sync_target(
            home_network, foreign_network, target_did, memberlist, snapshot
        )
        return record.bundle_digest.hex()

    def validate_org(
        self, home_network: str, foreign_network: str, target_did: str
    ) -> Generator:
        """Directly challenge one foreign org and verify its membership
        presentation (no memberlist gate); used to probe revoked members."""
        try:
            claim, *_ = yield from self._validate_member(home_network, foreign_network, target_did)
            return {"status": "ok", "holder": claim.holder_did, "network": claim.network_id}
        except PROTOCOL_ERRORS as e:
            check = e.check if isinstance(e, creds.MembershipVerificationError) else 0
            return {"status": "failed", "error": type(e).__name__, "check": check}
