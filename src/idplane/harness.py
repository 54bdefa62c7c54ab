"""Scenario runner: loads a declarative YAML scenario, wires identity networks,
anchors, permissioned networks, and agents onto one deterministic bus, executes
the scripted steps, and evaluates the scenario's assertions into a run report.
Every run also replays its own trace against the rules of `trace.verify_events`;
each broken rule is one failed `trace:<rule>` assertion.

A scenario's identity material (keys, DIDs, MSP hierarchies) derives from
`identity_seed`, while message timing, nonces, and sealing derive from the run
seed; runs of the same scenario under different seeds therefore exercise
different interleavings over identical identities, and committed ledger
content is seed-independent.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from . import crypto
from . import network as net
from . import registry
from .actors import Actor
from .agent import AgentConfig, IinAgent
from .anchors import AnchorService, StewardService, TrustAnchorProfile
from .bus import BoxKeyPair, BusConfig, FaultRule, SimBus, TickCeilingExceeded
from .trace import TraceLog, verify_events

SCENARIO_DIR = Path(__file__).parent / "scenarios"

STEP_KINDS = {
    "bootstrap",
    "step_a",
    "sync",
    "prefetch",
    "validate",
    "revoke",
    "rotate_cert",
    "advance_time",
    "resync",
    "data_proof",
    "fault",
    "assert",
}

ASSERT_KINDS = {
    "record_status",
    "record_digest_matches",
    "trace_count",
    "trace_order",
    "no_failed_sessions",
    "session_attempts_max",
}


class ScenarioError(Exception):
    pass


class ParseError(ScenarioError):
    pass


class ScenarioValidationError(ScenarioError):
    """Carries every validation problem found, not just the first."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass
class AnchorSpec:
    name: str
    iin: str
    whitelist: tuple[str, ...]
    represents: tuple[str, ...]


@dataclass
class NetworkSpec:
    network_id: str
    orgs: tuple[tuple[str, int], ...]  # (org name, peer count)
    interop: tuple[str, ...]
    trust: tuple[tuple[str, str, str], ...]  # (iin, anchor name, network)
    pmv: str

    def org_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.orgs)


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    identity_seed: int
    tick_ceiling: int
    verinym_threshold: int
    cert_lifetime: int
    latency: tuple[int, int]
    drop_rate: float
    iins: tuple[tuple[str, int], ...]  # (iin id, node count)
    anchors: tuple[AnchorSpec, ...]
    networks: tuple[NetworkSpec, ...]
    script: tuple[dict, ...]

    def network(self, network_id: str) -> NetworkSpec:
        return next(n for n in self.networks if n.network_id == network_id)

    def all_org_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for network in self.networks:
            for name in network.org_names():
                if name not in names:
                    names.append(name)
        return tuple(names)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file; reports every validation error."""
    raw_text = Path(path).read_text(encoding="utf-8")
    try:
        raw = yaml.safe_load(raw_text)
    except yaml.YAMLError as e:
        raise ParseError(f"{path}: {e}")
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: scenario must be a mapping")
    return parse_scenario(raw, source=str(path))


def parse_scenario(raw: dict, source: str = "<inline>") -> ScenarioConfig:
    problems: list[str] = []

    def need(key: str, default=None):
        if key not in raw and default is None:
            problems.append(f"missing required field {key!r}")
            return None
        return raw.get(key, default)

    def complete(where: str, entry, *keys: str) -> bool:
        """Record one problem per required key the entry lacks."""
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be a mapping")
            return False
        missing = [k for k in keys if k not in entry]
        problems.extend(f"{where}: missing field {k!r}" for k in missing)
        return not missing

    def number(where: str, value, kind=int):
        """`value` as `kind`; a wrong-typed value is a problem naming `where`."""
        try:
            return kind(value)
        except (TypeError, ValueError):
            expected = "an integer" if kind is int else "a number"
            problems.append(f"{where}: expected {expected}, got {value!r}")
            return None

    name = need("name") or "unnamed"
    iins_raw = need("iins") or []
    networks_raw = need("networks") or []
    anchors_raw = need("anchors") or []
    script_raw = raw.get("script", [])

    iins = tuple(
        (i["id"], number(f"iins[{idx}].nodes", i.get("nodes", 4)))
        for idx, i in enumerate(iins_raw) if complete(f"iins[{idx}]", i, "id")
    )
    iin_ids = {i for i, _ in iins}
    for iin_id, nodes in iins:
        if nodes is not None and (nodes < 4 or (nodes - 1) % 3 != 0):
            problems.append(f"iin {iin_id}: node count must be 3f+1 with f >= 1")

    anchors = tuple(
        AnchorSpec(
            name=a["name"],
            iin=a["iin"],
            whitelist=tuple(a.get("whitelist", [])),
            represents=tuple(a.get("represents", [])),
        )
        for idx, a in enumerate(anchors_raw) if complete(f"anchors[{idx}]", a, "name", "iin")
    )
    anchor_names = {a.name for a in anchors}
    for a in anchors:
        if a.iin not in iin_ids:
            problems.append(f"anchor {a.name}: unknown iin {a.iin!r}")

    networks = []
    for idx, n in enumerate(networks_raw):
        if not complete(f"networks[{idx}]", n, "id"):
            continue
        orgs = tuple(
            (o["name"], number(f"networks[{idx}].orgs[{j}].peers", o.get("peers", 1)))
            if isinstance(o, dict) else (o, 1)
            for j, o in enumerate(n.get("orgs", []))
            if not isinstance(o, dict) or complete(f"networks[{idx}].orgs[{j}]", o, "name")
        )
        networks.append(
            NetworkSpec(
                network_id=n["id"],
                orgs=orgs,
                interop=tuple(n.get("interop", [])),
                trust=tuple(
                    (t["iin"], t["anchor"], t["network"])
                    for j, t in enumerate(n.get("trust", []))
                    if complete(f"networks[{idx}].trust[{j}]", t, "iin", "anchor", "network")
                ),
                pmv=n.get("pmv", ""),
            )
        )
    networks = tuple(networks)
    network_ids = {n.network_id for n in networks}
    org_names = set()
    for n in networks:
        if not n.orgs:
            problems.append(f"network {n.network_id}: needs at least one org")
        org_names.update(n.org_names())
        if n.pmv not in anchor_names:
            problems.append(f"network {n.network_id}: unknown pmv anchor {n.pmv!r}")
        else:
            pmv = next(a for a in anchors if a.name == n.pmv)
            if n.network_id not in pmv.represents:
                problems.append(
                    f"network {n.network_id}: anchor {n.pmv} does not represent it"
                )
        for other in n.interop:
            if other not in network_ids:
                problems.append(f"network {n.network_id}: unknown interop network {other!r}")
        for iin_id, anchor, target in n.trust:
            if iin_id not in iin_ids:
                problems.append(f"network {n.network_id}: trust entry unknown iin {iin_id!r}")
            if anchor not in anchor_names:
                problems.append(
                    f"network {n.network_id}: trust entry unknown anchor {anchor!r}"
                )
            if target not in network_ids:
                problems.append(
                    f"network {n.network_id}: trust entry unknown network {target!r}"
                )
    for a in anchors:
        for w in a.whitelist:
            if w not in org_names:
                problems.append(f"anchor {a.name}: whitelisted org {w!r} not in any network")
        for r in a.represents:
            if r not in network_ids:
                problems.append(f"anchor {a.name}: represents unknown network {r!r}")

    script = []
    for idx, step in enumerate(script_raw):
        if isinstance(step, str):
            step = {"step": step}
        kind = step.get("step")
        if kind not in STEP_KINDS:
            problems.append(f"script[{idx}]: unknown step {kind!r}")
            continue
        if kind == "assert" and step.get("kind") not in ASSERT_KINDS:
            problems.append(f"script[{idx}]: unknown assert kind {step.get('kind')!r}")
        for key in ("network", "foreign", "source", "dest"):
            if key in step and step[key] not in network_ids:
                problems.append(f"script[{idx}]: unknown network {step[key]!r} in {key!r}")
        for key in ("org", "target"):
            if key in step and kind != "assert" and step[key] not in org_names:
                problems.append(f"script[{idx}]: unknown org {step[key]!r} in {key!r}")
        script.append(step)

    scalars = {
        key: number(key, raw.get(key, default), type(default))
        for key, default in (
            ("seed", 0),
            ("identity_seed", 7),
            ("tick_ceiling", 60_000),
            ("verinym_threshold", 1),
            ("cert_lifetime", 20_000),
            ("drop_rate", 0.0),
        )
    }
    latency = raw.get("latency", [1, 3])
    if isinstance(latency, (list, tuple)) and len(latency) == 2:
        latency = tuple(number(f"latency[{j}]", v) for j, v in enumerate(latency))
    else:
        problems.append(f"latency: expected [min, max] ticks, got {latency!r}")

    if problems:
        raise ScenarioValidationError(problems)

    return ScenarioConfig(
        name=name,
        **scalars,
        latency=latency,
        iins=iins,
        anchors=anchors,
        networks=networks,
        script=tuple(script),
    )


def bundled_scenarios() -> dict[str, Path]:
    return {p.stem.replace("_", "-"): p for p in sorted(SCENARIO_DIR.glob("*.yaml"))}


# --- report --------------------------------------------------------------------


@dataclass
class AssertionResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class RunReport:
    scenario: str
    seed: int
    assertions: list[AssertionResult] = field(default_factory=list)
    proof_outcomes: dict[str, str] = field(default_factory=dict)
    validate_outcomes: dict[str, dict] = field(default_factory=dict)
    state_hashes: dict[str, str] = field(default_factory=dict)
    final_tick: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and all(a.ok for a in self.assertions)

    def summary_lines(self) -> list[str]:
        lines = [f"scenario {self.scenario} (seed {self.seed}): ticks={self.final_tick}"]
        for a in self.assertions:
            status = "PASS" if a.ok else "FAIL"
            lines.append(f"  [{status}] {a.name}" + (f" -- {a.detail}" if a.detail else ""))
        for e in self.errors:
            lines.append(f"  [ERROR] {e}")
        lines.append(f"  result: {'PASS' if self.ok else 'FAIL'}")
        return lines

    def to_json(self) -> str:
        return json.dumps(
            {
                "scenario": self.scenario,
                "seed": self.seed,
                "ok": self.ok,
                "final_tick": self.final_tick,
                "assertions": [
                    {"name": a.name, "ok": a.ok, "detail": a.detail} for a in self.assertions
                ],
                "proof_outcomes": self.proof_outcomes,
                "validate_outcomes": self.validate_outcomes,
                "state_hashes": self.state_hashes,
                "errors": self.errors,
            },
            indent=2,
            sort_keys=True,
        )


# --- world ----------------------------------------------------------------------


def _derive_bytes(seed: int, label: str) -> bytes:
    return hashlib.sha256(b"idplane:" + seed.to_bytes(8, "big") + label.encode()).digest()


def _derive_int(seed: int, label: str) -> int:
    return int.from_bytes(_derive_bytes(seed, label)[:8], "big")


class World:
    """Everything a scenario wires together, addressable by name."""

    def __init__(self, config: ScenarioConfig, seed: int):
        self.config = config
        self.seed = seed
        self.trace = TraceLog()
        self.bus = SimBus(
            BusConfig(
                seed=seed,
                latency_min=config.latency[0],
                latency_max=config.latency[1],
                drop_rate=config.drop_rate,
            ),
            self.trace,
        )
        self.pools: dict[str, registry.PoolInfo] = {}
        self.iin_nodes: dict[str, list[registry.IinNode]] = {}
        self.stewards: dict[str, StewardService] = {}
        self.anchors: dict[str, AnchorService] = {}
        self.anchor_docs: dict[str, registry.DidDocument] = {}
        self.ledgers: dict[str, net.LedgerNode] = {}
        self.agents: dict[str, IinAgent] = {}
        self.org_dids: dict[str, str] = {}
        self.organizations: dict[tuple[str, str], net.Organization] = {}
        self._build()

    # identity material is scenario-stable; timing material is run-seeded
    def _identity_seed(self, label: str) -> bytes:
        return _derive_bytes(self.config.identity_seed, "identity:" + label)

    def _register(self, actor: Actor) -> None:
        actor.bind(self.bus, random.Random(_derive_int(self.seed, "rng:" + actor.address)))
        box = BoxKeyPair.from_seed(self._identity_seed("box:" + actor.address))
        self.bus.register(actor, box)

    def _build(self) -> None:
        config = self.config
        primary_iin = config.iins[0][0]

        org_keys = {
            name: crypto.KeyPair.from_seed(self._identity_seed(f"org:{name}"))
            for name in config.all_org_names()
        }
        self.org_dids = {
            name: registry.make_did(primary_iin, keys.public_key)
            for name, keys in org_keys.items()
        }

        anchor_keys = {
            a.name: crypto.KeyPair.from_seed(self._identity_seed(f"anchor:{a.name}"))
            for a in config.anchors
        }
        self.anchor_docs = {
            a.name: registry.new_did_document(a.iin, anchor_keys[a.name], f"anchor:{a.name}")
            for a in config.anchors
        }

        # identity networks
        for iin_id, node_count in config.iins:
            steward_address = f"steward:{iin_id}"
            steward_keys = crypto.KeyPair.from_seed(self._identity_seed(f"steward:{iin_id}"))
            steward_doc = registry.new_did_document(iin_id, steward_keys, steward_address)
            genesis = registry.RegistryState.genesis(
                (steward_doc,), verinym_threshold=config.verinym_threshold
            )
            addresses = tuple(f"iin:{iin_id}:{i}" for i in range(node_count))
            node_keys = {
                address: crypto.KeyPair.from_seed(self._identity_seed(f"node:{address}"))
                for address in addresses
            }
            pool = registry.PoolInfo(
                iin_id=iin_id,
                node_addresses=addresses,
                node_public_keys={a: k.public_key for a, k in node_keys.items()},
            )
            self.pools[iin_id] = pool
            nodes = []
            for i, address in enumerate(addresses):
                node = registry.IinNode(
                    address=address,
                    node_id=f"{iin_id}:{i}",
                    keys=node_keys[address],
                    genesis=genesis,
                    pool=pool,
                )
                self._register(node)
                nodes.append(node)
            self.iin_nodes[iin_id] = nodes
            steward = StewardService(steward_address, steward_doc.did, steward_keys, pool)
            self._register(steward)
            self.stewards[iin_id] = steward

        # trust anchors
        for spec in config.anchors:
            doc = self.anchor_docs[spec.name]
            roles = set()
            if spec.whitelist:
                roles.add(registry.ROLE_OIV)
            if spec.represents:
                roles.add(registry.ROLE_PMV)
            profile = TrustAnchorProfile(
                name=spec.name,
                did=doc.did,
                roles=frozenset(roles),
                represented_networks=spec.represents,
                evidence_whitelist={
                    org: org_keys[org].public_key for org in spec.whitelist
                },
            )
            eligibility = {
                n.network_id: {
                    self.org_dids[org]: org for org in n.org_names()
                }
                for n in config.networks
                if n.network_id in spec.represents
            }
            anchor = AnchorService(
                address=doc.service_endpoint,
                profile=profile,
                keys=anchor_keys[spec.name],
                pool=self.pools[spec.iin],
                eligibility=eligibility,
            )
            self._register(anchor)
            self.anchors[spec.name] = anchor

        # permissioned networks: MSPs, ledgers, and agents
        org_home_networks: dict[str, list[str]] = {}
        for network in config.networks:
            for org, peer_count in network.orgs:
                org_home_networks.setdefault(org, []).append(network.network_id)
                organization = net.Organization.create(
                    org_id=org,
                    network_id=network.network_id,
                    agent_address=f"agent:{org}",
                    seed_fn=self._identity_seed,
                    peer_count=peer_count,
                    now=0,
                    cert_lifetime=config.cert_lifetime,
                )
                self.organizations[(network.network_id, org)] = organization

        for network in config.networks:
            genesis = net.LocalLedgerState(
                network_id=network.network_id,
                interop_networks=network.interop,
                trust_entries=tuple(
                    (iin, self.anchor_docs[anchor].did, target)
                    for iin, anchor, target in network.trust
                ),
                admin_keys={
                    org: org_keys[org].public_key for org in network.org_names()
                },
            )
            ledger = net.LedgerNode(f"ledger:{network.network_id}", genesis)
            self._register(ledger)
            self.ledgers[network.network_id] = ledger

        for org in config.all_org_names():
            homes = tuple(org_home_networks.get(org, ()))
            agent_config = AgentConfig(
                org_id=org,
                address=f"agent:{org}",
                keys=org_keys[org],
                pool=self.pools[primary_iin],
                oiv_address=self._oiv_address_for(org),
                home_pmv={
                    n: f"anchor:{config.network(n).pmv}" for n in homes
                },
                ledgers={n: f"ledger:{n}" for n in homes},
                peer_agents={
                    n: {o: f"agent:{o}" for o in config.network(n).org_names()}
                    for n in homes
                },
                organizations={
                    n: self.organizations[(n, org)] for n in homes
                },
            )
            agent = IinAgent(agent_config)
            self._register(agent)
            self.agents[org] = agent

        self.trace.record(
            0,
            "harness",
            "scenario.start",
            scenario=config.name,
            seed=self.seed,
            networks=json.dumps(
                {n.network_id: sorted(n.org_names()) for n in config.networks},
                sort_keys=True,
            ),
        )

    def _oiv_address_for(self, org: str) -> str:
        for spec in self.config.anchors:
            if org in spec.whitelist:
                return f"anchor:{spec.name}"
        # no anchor vouches for this org; point at the first OIV so the
        # evidence check fails explicitly rather than the send failing
        for spec in self.config.anchors:
            if spec.whitelist:
                return f"anchor:{spec.name}"
        return f"anchor:{self.config.anchors[0].name}"

    def settle(self) -> int:
        return self.bus.run_until_quiescent(self.config.tick_ceiling)

    def ledger_state(self, network_id: str) -> net.LocalLedgerState:
        return self.ledgers[network_id].state

    def collect_state_hashes(self) -> dict[str, str]:
        hashes = {}
        for network_id in sorted(self.ledgers):
            hashes[f"ledger:{network_id}"] = self.ledger_state(network_id).state_hash().hex()
        for iin_id in sorted(self.iin_nodes):
            for node in self.iin_nodes[iin_id]:
                hashes[node.address] = node.state.state_hash().hex()
        return hashes


# --- scenario execution -----------------------------------------------------------


class ScenarioRunner:
    def __init__(
        self,
        config: ScenarioConfig,
        seed: Optional[int] = None,
        trace_path: Optional[str | Path] = None,
    ):
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.trace_path = trace_path
        self.world = World(config, self.seed)
        self.report = RunReport(scenario=config.name, seed=self.seed)

    def run(self) -> RunReport:
        try:
            for index, step in enumerate(self.config.script):
                self._execute(index, step)
        except TickCeilingExceeded as e:
            self.report.errors.append(f"TickCeilingExceeded: {e}")
        except ScenarioError as e:
            self.report.errors.append(str(e))
        except Exception as e:  # a malformed step must not escape as a traceback
            self.report.errors.append(f"{type(e).__name__}: {e}")
        for rule, line, message in verify_events(self.world.trace.events):
            self.report.assertions.append(
                AssertionResult(name=f"trace:{rule}", ok=False, detail=f"line {line}: {message}")
            )
        self.report.final_tick = self.world.bus.now
        self.report.state_hashes = self.world.collect_state_hashes()
        self.world.trace.record(
            self.world.bus.now, "harness", "scenario.end", ok=self.report.ok
        )
        if self.trace_path is not None:
            self.world.trace.write(self.trace_path)
        return self.report

    # --- steps -----------------------------------------------------------

    def _execute(self, index: int, step: dict) -> None:
        kind = step["step"]
        world = self.world
        world.trace.record(world.bus.now, "harness", "scenario.step", step=kind, index=index)
        if kind == "bootstrap":
            self._bootstrap()
        elif kind == "step_a":
            self._step_a(step)
        elif kind == "sync":
            self._sync(step)
        elif kind == "prefetch":
            agent = world.agents[step["org"]]
            record = agent.start_session(
                "prefetch",
                agent.prefetch(
                    step["network"], step["foreign"], world.org_dids[step["target"]]
                ),
            )
            world.settle()
            if record.error is not None:
                self.report.errors.append(f"prefetch {step['org']}: {record.error}")
        elif kind == "validate":
            self._validate(step)
        elif kind == "revoke":
            self._revoke(step)
        elif kind == "rotate_cert":
            org = world.organizations[(step["network"], step["org"])]
            org.rotate(world.bus.now)
            world.trace.record(
                world.bus.now, "harness", "scenario.rotate_cert",
                network=step["network"], org=step["org"],
                digest=org.bundle_digest().hex(),
            )
        elif kind == "advance_time":
            world.bus.now += int(step["ticks"])
            world.trace.record(world.bus.now, "harness", "scenario.advance_time")
        elif kind == "resync":
            self._resync(step)
        elif kind == "data_proof":
            self._data_proof(step)
        elif kind == "fault":
            self._fault(step)
        elif kind == "assert":
            self._assert(step)

    def _bootstrap(self) -> None:
        world = self.world
        for iin_id, _ in self.config.iins:
            steward = world.stewards[iin_id]
            anchor_docs = [
                (world.anchor_docs[spec.name], world.anchors[spec.name].profile.roles)
                for spec in self.config.anchors
                if spec.iin == iin_id
            ]
            record = steward.start_session("bootstrap", steward.bootstrap(anchor_docs))
            world.settle()
            if record.error is not None:
                raise ScenarioError(f"bootstrap failed: {record.error}")
        for name in sorted(world.anchors):
            anchor = world.anchors[name]
            record = anchor.start_session("publish", anchor.publish_artifacts())
            world.settle()
            if record.error is not None:
                raise ScenarioError(f"anchor {name} bootstrap failed: {record.error}")
        world.trace.record(world.bus.now, "harness", "scenario.bootstrap_complete")

    def _selected_orgs(self, step: dict, key: str = "orgs") -> list[str]:
        value = step.get(key, "all")
        if value == "all":
            if "network" in step:
                return sorted(self.config.network(step["network"]).org_names())
            return sorted(self.config.all_org_names())
        return list(value)

    def _step_a(self, step: dict) -> None:
        world = self.world
        records = []
        for org in self._selected_orgs(step):
            agent = world.agents[org]
            records.append((org, agent.start_session("step_a", agent.step_a())))
        world.settle()
        for org, record in records:
            if record.error is not None:
                self.report.errors.append(f"step_a {org}: {record.error}")

    def _sync(self, step: dict) -> None:
        world = self.world
        home = step["network"]
        foreign = step["foreign"]
        initiators = step.get("initiators", "all")
        if initiators == "all":
            initiators = sorted(self.config.network(home).org_names())
        targets = step.get("targets")
        if targets is not None:
            targets = tuple(world.org_dids[name] for name in targets)
        for org in initiators:
            agent = world.agents[org]
            agent.start_session(
                f"sync:{foreign}", agent.sync_network(home, foreign, targets)
            )
        world.settle()

    def _validate(self, step: dict) -> None:
        world = self.world
        agent = world.agents[step["org"]]
        target_did = world.org_dids[step["target"]]
        record = agent.start_session(
            "validate", agent.validate_org(step["network"], step["foreign"], target_did)
        )
        world.settle()
        outcome = record.result if record.result is not None else {
            "status": "failed", "error": str(record.error), "check": 0
        }
        self.report.validate_outcomes[step["id"]] = outcome
        world.trace.record(
            world.bus.now, "harness", "scenario.validate",
            id=step["id"], outcome=outcome["status"], check=outcome.get("check", 0),
        )
        if "expect" in step:
            # `expect` is "ok", or "check:N" for a failure at verification check N
            got = "ok" if outcome["status"] == "ok" else f"check:{outcome['check']}"
            self.report.assertions.append(
                AssertionResult(
                    name=f"validate:{step['id']}",
                    ok=got == step["expect"],
                    detail=f"expected {step['expect']}, got {outcome}",
                )
            )

    def _revoke(self, step: dict) -> None:
        world = self.world
        network_id = step["network"]
        anchor = world.anchors[self.config.network(network_id).pmv]
        holder_did = world.org_dids[step["org"]]
        anchor.enqueue_serialized(
            "revoke", lambda: anchor.revoke_membership(holder_did, network_id)
        )
        world.settle()

    def _resync(self, step: dict) -> None:
        world = self.world
        home = step["network"]
        trigger = step.get("trigger", "periodic")
        for org in self._selected_orgs(step):
            agent = world.agents[org]
            agent.start_session(f"resync:{trigger}", agent.resync(home, trigger))
        world.settle()

    def _data_proof(self, step: dict) -> None:
        world = self.world
        source = step["source"]
        dest = step["dest"]
        payload = step.get("payload", "").encode("utf-8")
        signers = step.get("signers") or sorted(self.config.network(source).org_names())
        policy = net.VerificationPolicy(
            source_network_id=source, required_orgs=tuple(signers)
        )
        organizations = {
            org: world.organizations[(source, org)] for org in signers
        }
        proof = net.generate_data_proof(organizations, payload, policy)
        try:
            net.verify_data_proof(
                world.ledger_state(dest), source, proof, policy, world.bus.now
            )
            outcome = "ok"
        except net.DataProofError as e:
            outcome = type(e).__name__
        self.report.proof_outcomes[step["id"]] = outcome
        world.trace.record(
            world.bus.now, "harness", "dataplane.verify",
            id=step["id"], source=source, dest=dest, outcome=outcome,
        )
        if "expect" in step:
            self.report.assertions.append(
                AssertionResult(
                    name=f"proof:{step['id']}",
                    ok=outcome == step["expect"],
                    detail=f"expected {step['expect']}, got {outcome}",
                )
            )
        if outcome != "ok" and step.get("resync_on_failure"):
            world.trace.record(
                world.bus.now, "harness", "dataplane.resync_trigger",
                dest=dest, reason=outcome,
            )
            for org in sorted(self.config.network(dest).org_names()):
                agent = world.agents[org]
                agent.start_session(
                    "resync:proof_failure", agent.resync(dest, "proof_failure")
                )
            world.settle()

    def _fault(self, step: dict) -> None:
        if step.get("clear"):
            self.world.bus.config.rules.clear()
            return
        self.world.bus.config.rules.append(
            FaultRule(
                action=step["action"],
                from_=step.get("from"),
                to=step.get("to"),
                kind=step.get("kind"),
                occurrence=step.get("occurrence"),
                times=step.get("times"),
                delay=step.get("delay", 1),
            )
        )

    # --- assertions ------------------------------------------------------------

    def _assert(self, step: dict) -> None:
        kind = step["kind"]
        name = step.get("name", f"{kind}")
        try:
            ok, detail = self._evaluate_assert(kind, step)
        except Exception as e:  # assertion evaluation must not abort the run
            ok, detail = False, f"evaluation error: {type(e).__name__}: {e}"
        self.report.assertions.append(AssertionResult(name=name, ok=ok, detail=detail))

    def _evaluate_assert(self, kind: str, step: dict) -> tuple[bool, str]:
        world = self.world
        if kind == "record_status":
            record = world.ledger_state(step["network"]).get_record(
                step["foreign"], step["org"]
            )
            if record is None:
                return False, "no record"
            return record.status == step["status"], f"status={record.status}"
        if kind == "record_digest_matches":
            record = world.ledger_state(step["network"]).get_record(
                step["foreign"], step["org"]
            )
            if record is None:
                return False, "no record"
            source = world.organizations[(step["foreign"], step["org"])]
            expected = source.bundle_digest()
            ok = (
                record.bundle_digest == expected
                and record.bundle == source.bundle_bytes()
            )
            return ok, f"record={record.bundle_digest.hex()[:16]} source={expected.hex()[:16]}"
        if kind == "trace_count":
            events = [
                e for e in world.trace.events
                if e.kind == step["event"]
                and all(str(e.detail.get(k)) == str(v) for k, v in step.get("detail", {}).items())
            ]
            return len(events) == int(step["count"]), f"count={len(events)}"
        if kind == "trace_order":
            expected = step["events"]
            position = 0
            for event in world.trace.events:
                want = expected[position]
                if event.kind == want.get("kind") and all(
                    str(event.detail.get(k)) == str(v)
                    for k, v in want.get("detail", {}).items()
                ):
                    position += 1
                    if position == len(expected):
                        return True, f"matched all {len(expected)} events in order"
            return False, f"matched {position}/{len(expected)} events"
        if kind == "no_failed_sessions":
            orgs = self._selected_orgs(step) if "network" in step or "orgs" in step else sorted(
                world.agents
            )
            org_of = {world.agents[org].address: org for org in orgs}
            # a failed target names its DID; a whole failed session its label
            failed = [
                f"{org_of[e.actor]}:"
                + (e.detail["target"][-8:] if "target" in e.detail else e.detail["label"])
                + f":{e.detail['error']}"
                + (f"({e.detail['detail']})" if e.detail.get("detail") else "")
                for e in world.trace.events
                if e.kind in ("agent.sync_failed", "session.failed") and e.actor in org_of
            ]
            return not failed, f"failed={failed}" if failed else "all sessions clean"
        if kind == "session_attempts_max":
            attempts = [
                e.detail["attempts"]
                for e in world.trace.events
                if e.kind in ("agent.sync_done", "agent.sync_failed")
            ]
            top = max(attempts) if attempts else 0
            return top <= int(step["max"]), f"max_attempts={top}"
        return False, f"unknown assertion {kind}"


def run_scenario(
    config: ScenarioConfig,
    seed: Optional[int] = None,
    trace_path: Optional[str | Path] = None,
) -> RunReport:
    return ScenarioRunner(config, seed=seed, trace_path=trace_path).run()
