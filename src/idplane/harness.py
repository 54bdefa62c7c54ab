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

import functools
import hashlib
import inspect
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Annotated, Literal, NewType, Optional, Union
from typing import get_args, get_origin, get_type_hints

import yaml

from . import crypto
from . import network as net
from . import registry
from .actors import Actor
from .agent import AgentConfig, IinAgent
from .anchors import AnchorService, StewardService, TrustAnchorProfile
from .bus import BoxKeyPair, BusConfig, FaultRule, SimBus
from .trace import TraceLog, verify_events

SCENARIO_DIR = Path(__file__).parent / "scenarios"

# "all" is every org of the step's network, or of the scenario for a step without one
Orgs = Union[Literal["all"], tuple[str, ...]]
Scalar = Union[str, bool, int, float]
# a script entry, {"step": kind, parameter: value}, read by its handler's parameters
Step = NewType("Step", dict)


class ScenarioError(Exception):
    pass


class ParseError(ScenarioError):
    pass


class ScenarioValidationError(ScenarioError):
    """Carries every validation problem found, not just the first; the
    message names the scenario's `source` first."""

    def __init__(self, problems: list[str], source: str):
        self.problems = problems
        super().__init__(f"{source}: " + "; ".join(problems))


@dataclass(kw_only=True)
class IinSpec:
    id: str
    nodes: int = 4


@dataclass(kw_only=True)
class AnchorSpec:
    name: str
    iin: str
    whitelist: tuple[str, ...] = ()
    represents: tuple[str, ...] = ()


@dataclass(kw_only=True)
class OrgSpec:
    name: str
    peers: int = 1


@dataclass(kw_only=True)
class TrustSpec:
    iin: str
    anchor: str
    network: str


@dataclass(kw_only=True)
class NetworkSpec:
    id: str
    orgs: tuple[OrgSpec, ...] = ()
    interop: tuple[str, ...] = ()
    trust: tuple[TrustSpec, ...] = ()
    pmv: str = ""

    def org_names(self) -> tuple[str, ...]:
        return tuple(org.name for org in self.orgs)


@dataclass(kw_only=True)
class EventPattern:
    """Matches a trace event of `kind` whose detail holds `detail`, compared as text."""

    kind: str
    detail: dict[str, Scalar] = field(default_factory=dict)

    def matches(self, event) -> bool:
        return event.kind == self.kind and all(
            str(event.detail.get(k)) == str(v) for k, v in self.detail.items()
        )


@dataclass(kw_only=True)
class ScenarioConfig:
    name: str
    iins: tuple[IinSpec, ...]
    anchors: tuple[AnchorSpec, ...]
    networks: tuple[NetworkSpec, ...]
    script: tuple[Step, ...] = ()
    seed: int = 0
    identity_seed: int = 7
    tick_ceiling: int = 60_000
    cert_lifetime: int = 20_000
    latency: Annotated[tuple[int, int], "[min, max] ticks"] = (1, 3)
    drop_rate: float = 0.0

    def network(self, network_id: str) -> NetworkSpec:
        return next(n for n in self.networks if n.id == network_id)

    def all_org_names(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(o for n in self.networks for o in n.org_names()))


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
    """Read `raw` as a ScenarioConfig; raises ScenarioValidationError naming
    every problem: an unknown key, a missing field or a wrong-typed value,
    found by the declared types, and each bad reference between entries."""
    problems: list[str] = []
    config = _read(raw, ScenarioConfig, "", problems)
    if config is not None:
        problems += _reference_problems(config)
    if problems:
        raise ScenarioValidationError(problems, source)
    return config


# --- reading declared types ---------------------------------------------------------


def _fields(declared) -> dict[str, tuple[str, object, bool]]:
    """The keyword parameters of a dataclass or a step handler, by the key that
    names each in a scenario (`from_` is `from`): (name, type, required)."""
    hints = get_type_hints(declared, include_extras=True)
    return {
        p.name.rstrip("_"): (p.name, hints[p.name], p.default is p.empty)
        for p in inspect.signature(declared).parameters.values()
        if p.name != "self" and p.kind is not p.VAR_KEYWORD
    }


_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false"}


def _describe(tp) -> str:
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        return args[1]
    if origin is Union:
        return " or ".join(_describe(a) for a in args if a is not type(None))
    if origin is Literal:
        return " or ".join(map(repr, args))
    if origin is tuple:
        return "a list" if args[-1] is ... else f"a list of {len(args)}"
    return _NAMES.get(tp, "a mapping")


def _at(path: str) -> str:
    return f"{path}: " if path else ""


def _read(value, tp, path: str, problems: list[str]):
    """`value` read as type `tp`. Each misfit adds one problem naming its path
    to `problems`; a misfit reads as None, and a list keeps the items that read."""
    expected = _describe(tp)
    if get_origin(tp) is Annotated:
        tp = get_args(tp)[0]
    origin, args = get_origin(tp), get_args(tp)
    if tp is Step:
        return _read_step(value, path, problems)
    if is_dataclass(tp):
        if not isinstance(value, dict):
            problems.append(f"{_at(path)}must be a mapping")
            return None
        declared = _fields(tp)
        fields = _read_fields(declared, value, path, problems)
        if all(name in fields for name, _, required in declared.values() if required):
            return tp(**fields)
        return None
    if origin is Union:
        options = [a for a in args if a is not type(None)]
        if value is None and len(options) < len(args):
            return None
        if len(options) == 1:
            return _read(value, options[0], path, problems)
        for option in options:
            misfits: list[str] = []
            result = _read(value, option, path, misfits)
            if not misfits:
                return result
    elif origin is Literal:
        if value in args:
            return value
    elif origin is tuple and isinstance(value, (list, tuple)):
        types = [args[0]] * len(value) if args[-1] is ... else args
        if len(types) == len(value):
            items = [_read(v, types[i], f"{path}[{i}]", problems) for i, v in enumerate(value)]
            return tuple(item for item in items if item is not None)
    elif origin is dict and isinstance(value, dict):
        return {
            _read(k, args[0], path, problems): _read(v, args[1], f"{path}.{k}", problems)
            for k, v in value.items()
        }
    elif tp is float and type(value) in (int, float):
        return float(value)
    elif type(value) is tp:
        return value
    problems.append(f"{_at(path)}expected {expected}, got {value!r}")
    return None


def _read_fields(declared: dict, raw: dict, path: str, problems: list[str]) -> dict:
    """The entries of `raw` read as their `declared` fields (see `_fields`), by
    parameter name; each unknown, missing or misfit entry is one problem. A
    list or a step read in part is kept, so that its references are checked."""
    fields = {}
    for key, value in raw.items():
        if key not in declared:
            problems.append(f"{_at(path)}unknown field {key!r}")
            continue
        name, tp, _ = declared[key]
        before = len(problems)
        value = _read(value, tp, f"{path}.{key}" if path else key, problems)
        if value is not None or len(problems) == before:
            fields[name] = value
    problems.extend(
        f"{_at(path)}missing field {key!r}"
        for key, (_, _, required) in declared.items() if required and key not in raw
    )
    return fields


def _read_step(raw, path: str, problems: list[str]) -> dict:
    """A script entry as `{"step": kind, parameter: value}`: its fields are the
    keyword parameters of the kind's handler, and of its check for an assert.
    An entry that does not read is `{}`, so that later entries keep their index."""
    if not isinstance(raw, dict):
        problems.append(f"{path}: must be a mapping")
        return {}
    kind = raw.get("step")
    if not isinstance(kind, str) or kind not in STEPS:
        problems.append(f"{path}: unknown step {kind!r}")
        return {}
    declared = STEPS[kind]
    if kind == "assert":
        check = raw.get("kind")
        if not isinstance(check, str) or check not in CHECKS:
            problems.append(f"{path}: unknown assert kind {check!r}")
            return {}
        declared = {**declared, **CHECKS[check]}
    fields = {k: v for k, v in raw.items() if k != "step"}
    return {"step": kind, **_read_fields(declared, fields, path, problems)}


# the network each org-naming step field names a member of; an assert's `org` is foreign
_ORG_HOMES = {
    "org": "network", "initiators": "network", "orgs": "network",
    "target": "foreign", "targets": "foreign", "signers": "source",
}


def _reference_problems(config: ScenarioConfig) -> list[str]:
    """What the types cannot say: every number is in range, every name refers
    to a declared iin, anchor, network or org, each pool is 3f+1 nodes, each
    pmv represents its network, and each org has an identity validator."""
    problems = []
    if config.cert_lifetime < 1:
        problems.append(f"cert_lifetime: must be at least 1, got {config.cert_lifetime}")
    # a latency read in part has its problem already
    if len(config.latency) == 2 and not 0 <= config.latency[0] <= config.latency[1]:
        problems.append(f"latency: expected 0 <= min <= max, got {list(config.latency)}")
    if not 0 <= config.drop_rate <= 1:
        problems.append(f"drop_rate: must be between 0 and 1, got {config.drop_rate}")
    iin_ids = {i.id for i in config.iins}
    anchors = {a.name: a for a in config.anchors}
    members = {n.id: n.org_names() for n in config.networks}
    org_names = set(config.all_org_names())
    for i in config.iins:
        if i.nodes < 4 or (i.nodes - 1) % 3 != 0:
            problems.append(f"iin {i.id}: node count must be 3f+1 with f >= 1")
    for a in config.anchors:
        if a.iin not in iin_ids:
            problems.append(f"anchor {a.name}: unknown iin {a.iin!r}")
        problems += [
            f"anchor {a.name}: whitelisted org {w!r} not in any network"
            for w in a.whitelist if w not in org_names
        ]
        problems += [
            f"anchor {a.name}: represents unknown network {r!r}"
            for r in a.represents if r not in members
        ]
    vouched = {w for a in config.anchors for w in a.whitelist}
    problems += [
        f"org {o}: no anchor whitelists it" if o not in vouched else
        f"org {o}: no anchor that whitelists it is the pmv of one of its networks"
        for o in config.all_org_names() if not _oivs(config, o)
    ]
    for n in config.networks:
        where = f"network {n.id}"
        if not n.orgs:
            problems.append(f"{where}: needs at least one org")
        problems += [
            f"{where}: org {o.name} needs at least one peer, got {o.peers}"
            for o in n.orgs if o.peers < 1
        ]
        if n.pmv not in anchors:
            problems.append(f"{where}: unknown pmv anchor {n.pmv!r}")
        elif n.id not in anchors[n.pmv].represents:
            problems.append(f"{where}: anchor {n.pmv} does not represent it")
        problems += [
            f"{where}: unknown interop network {o!r}" for o in n.interop if o not in members
        ]
        for t in n.trust:
            for what, ref, known in (
                ("iin", t.iin, iin_ids), ("anchor", t.anchor, anchors),
                ("network", t.network, members),
            ):
                if ref not in known:
                    problems.append(f"{where}: trust entry unknown {what} {ref!r}")
    for idx, step in enumerate(config.script):
        for key in ("network", "foreign", "source", "dest"):
            if key in step and step[key] not in members:
                problems.append(f"script[{idx}].{key}: unknown network {step[key]!r}")
        homes = dict(_ORG_HOMES, org="foreign") if step.get("step") == "assert" else _ORG_HOMES
        for key, home in homes.items():
            value = step.get(key)
            if value is None or value == "all" and key in ("initiators", "orgs"):
                continue
            for name in (value,) if isinstance(value, str) else value:
                if name not in org_names:
                    problems.append(f"script[{idx}].{key}: unknown org {name!r}")
                elif step.get(home) in members and name not in members[step[home]]:
                    problems.append(
                        f"script[{idx}].{key}: org {name!r} is not in network {step[home]!r}"
                    )
    return problems


def _oivs(config: ScenarioConfig, org: str) -> list[str]:
    """The pmvs of `org`'s networks that whitelist it, in network order: its OIVs."""
    whitelist = {a.name for a in config.anchors if org in a.whitelist}
    return [n.pmv for n in config.networks if org in n.org_names() and n.pmv in whitelist]


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
        return json.dumps({**asdict(self), "ok": self.ok}, indent=2, sort_keys=True)


# --- world ----------------------------------------------------------------------


def _derive_bytes(seed: int, label: str) -> bytes:
    return hashlib.sha256(b"idplane:" + seed.to_bytes(8, "big") + label.encode()).digest()


def _identity_bytes(identity_seed: int, label: str) -> bytes:
    return _derive_bytes(identity_seed, "identity:" + label)


class World:
    """Everything a scenario wires together, addressable by name."""

    def __init__(self, config: ScenarioConfig, seed: int):
        self.config = config
        self.seed = seed
        self.trace = TraceLog()
        latency_min, latency_max = config.latency
        self.bus = SimBus(
            BusConfig(seed, latency_min, latency_max, drop_rate=config.drop_rate), self.trace
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
        # scenario-stable identity material; a partial, not a bound method, as
        # organizations keep it and must not keep the World alive
        self._identity_seed = functools.partial(_identity_bytes, config.identity_seed)
        self._build()

    def _register(self, actor: Actor) -> None:
        actor.bind(self.bus)
        box = BoxKeyPair.from_seed(self._identity_seed("box:" + actor.address))
        self.bus.register(actor, box)

    def _build(self) -> None:
        config = self.config
        primary_iin = config.iins[0].id

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
        for iin in config.iins:
            iin_id = iin.id
            steward_address = f"steward:{iin_id}"
            steward_keys = crypto.KeyPair.from_seed(self._identity_seed(f"steward:{iin_id}"))
            steward_doc = registry.new_did_document(iin_id, steward_keys, steward_address)
            genesis = registry.RegistryState.genesis((steward_doc,))
            addresses = tuple(f"iin:{iin_id}:{i}" for i in range(iin.nodes))
            pool = registry.PoolInfo(iin_id=iin_id, node_addresses=addresses)
            self.pools[iin_id] = pool
            nodes = []
            for i, address in enumerate(addresses):
                node = registry.IinNode(
                    address=address,
                    node_id=f"{iin_id}:{i}",
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
                evidence_whitelist={org: org_keys[org].public_key for org in spec.whitelist},
            )
            eligibility = {
                n.id: {self.org_dids[org]: org for org in n.org_names()}
                for n in config.networks
                if n.id in spec.represents
            }
            anchor = AnchorService(
                doc.service_endpoint, profile, anchor_keys[spec.name], self.pools[spec.iin],
                eligibility,
            )
            self._register(anchor)
            self.anchors[spec.name] = anchor

        # permissioned networks: MSPs, ledgers, and agents
        for network in config.networks:
            for org in network.orgs:
                self.organizations[(network.id, org.name)] = net.Organization.create(
                    org_id=org.name,
                    network_id=network.id,
                    seed_fn=self._identity_seed,
                    peer_count=org.peers,
                    now=0,
                    cert_lifetime=config.cert_lifetime,
                )

        # each network's policy (interoperation list, trust entries), derived
        # once: its ledger's genesis fixes it and its members' agents hold it
        policies = {
            n.id: (n.interop, tuple(
                (t.iin, self.anchor_docs[t.anchor].did, t.network) for t in n.trust
            ))
            for n in config.networks
        }
        for network in config.networks:
            genesis = net.LocalLedgerState(
                network.id,
                *policies[network.id],
                admin_keys={org: org_keys[org].public_key for org in network.org_names()},
            )
            ledger = net.LedgerNode(f"ledger:{network.id}", genesis)
            self._register(ledger)
            self.ledgers[network.id] = ledger

        for org in config.all_org_names():
            homes = tuple(n.id for n in config.networks if org in n.org_names())
            agent_config = AgentConfig(
                org_id=org,
                address=f"agent:{org}",
                keys=org_keys[org],
                pool=self.pools[primary_iin],
                oiv_address=f"anchor:{_oivs(config, org)[0]}",
                home_pmv={n: f"anchor:{config.network(n).pmv}" for n in homes},
                ledgers={n: f"ledger:{n}" for n in homes},
                peer_agents={
                    n: {o: f"agent:{o}" for o in config.network(n).org_names()} for n in homes
                },
                policies={n: policies[n] for n in homes},
                organizations={n: self.organizations[(n, org)] for n in homes},
            )
            agent = IinAgent(agent_config)
            self._register(agent)
            self.agents[org] = agent

        networks = {n.id: sorted(n.org_names()) for n in config.networks}
        self.trace.record(
            0, "harness", "scenario.start", scenario=config.name, seed=self.seed,
            networks=json.dumps(networks, sort_keys=True),
        )

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


# each step kind's fields, by the keyword parameters of its handler `_<kind>`
STEPS: dict[str, dict] = {}


def _handles_step(handler):
    """Declare `handler`, named `_<kind>`, to run the script steps of that kind."""
    STEPS[handler.__name__[1:]] = _fields(handler)
    return handler


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

    # --- steps: each kind's fields are its handler's keyword parameters ----

    def _execute(self, index: int, step: dict) -> None:
        kind = step["step"]
        world = self.world
        world.trace.record(world.bus.now, "harness", "scenario.step", step=kind, index=index)
        getattr(self, "_" + kind)(**{k: v for k, v in step.items() if k != "step"})

    @_handles_step
    def _bootstrap(self) -> None:
        world = self.world
        for iin in self.config.iins:
            steward = world.stewards[iin.id]
            anchor_docs = [
                (world.anchor_docs[spec.name], world.anchors[spec.name].profile.roles)
                for spec in self.config.anchors
                if spec.iin == iin.id
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

    def _selected_orgs(self, orgs: Orgs, network: Optional[str] = None) -> list[str]:
        if orgs != "all":
            return list(orgs)
        if network is None:
            return sorted(self.config.all_org_names())
        return sorted(self.config.network(network).org_names())

    @_handles_step
    def _step_a(self, orgs: Orgs = "all") -> None:
        world = self.world
        records = []
        for org in self._selected_orgs(orgs):
            agent = world.agents[org]
            records.append((org, agent.start_session("step_a", agent.step_a())))
        world.settle()
        for org, record in records:
            if record.error is not None:
                self.report.errors.append(f"step_a {org}: {record.error}")

    @_handles_step
    def _sync(
        self, network: str, foreign: str, initiators: Orgs = "all",
        targets: Optional[tuple[str, ...]] = None,
    ) -> None:
        world = self.world
        if targets is not None:
            targets = tuple(world.org_dids[name] for name in targets)
        for org in self._selected_orgs(initiators, network):
            agent = world.agents[org]
            agent.start_session(f"sync:{foreign}", agent.sync_network(network, foreign, targets))
        world.settle()

    @_handles_step
    def _prefetch(self, network: str, org: str, foreign: str, target: str) -> None:
        world = self.world
        agent = world.agents[org]
        record = agent.start_session(
            "prefetch", agent.prefetch(network, foreign, world.org_dids[target])
        )
        world.settle()
        if record.error is not None:
            self.report.errors.append(f"prefetch {org}: {record.error}")

    @_handles_step
    def _validate(
        self, id: str, org: str, network: str, foreign: str, target: str,
        expect: Optional[str] = None,
    ) -> None:
        """`expect` is "ok", or "check:N" for a failure at verification check N."""
        world = self.world
        agent = world.agents[org]
        record = agent.start_session(
            "validate", agent.validate_org(network, foreign, world.org_dids[target])
        )
        world.settle()
        outcome = record.result if record.result is not None else {
            "status": "failed", "error": str(record.error), "check": 0
        }
        self.report.validate_outcomes[id] = outcome
        world.trace.record(
            world.bus.now, "harness", "scenario.validate",
            id=id, outcome=outcome["status"], check=outcome.get("check", 0),
        )
        if expect is not None:
            got = "ok" if outcome["status"] == "ok" else f"check:{outcome['check']}"
            detail = f"expected {expect}, got {outcome}"
            self.report.assertions.append(AssertionResult(f"validate:{id}", got == expect, detail))

    @_handles_step
    def _revoke(self, network: str, org: str) -> None:
        world = self.world
        anchor = world.anchors[self.config.network(network).pmv]
        holder_did = world.org_dids[org]
        anchor.enqueue_serialized("revoke", lambda: anchor.revoke_membership(holder_did, network))
        world.settle()

    @_handles_step
    def _rotate_cert(self, network: str, org: str) -> None:
        world = self.world
        organization = world.organizations[(network, org)]
        organization.rotate(world.bus.now)
        world.trace.record(
            world.bus.now, "harness", "scenario.rotate_cert",
            network=network, org=org, digest=organization.bundle_digest().hex(),
        )

    @_handles_step
    def _advance_time(self, ticks: int) -> None:
        self.world.bus.now += ticks
        self.world.trace.record(self.world.bus.now, "harness", "scenario.advance_time")

    @_handles_step
    def _resync(self, network: str, orgs: Orgs = "all", trigger: str = "periodic") -> None:
        world = self.world
        for org in self._selected_orgs(orgs, network):
            agent = world.agents[org]
            agent.start_session(f"resync:{trigger}", agent.resync(network, trigger))
        world.settle()

    @_handles_step
    def _data_proof(
        self, id: str, source: str, dest: str, payload: str = "",
        signers: Optional[tuple[str, ...]] = None, expect: Optional[str] = None,
        resync_on_failure: bool = False,
    ) -> None:
        world = self.world
        signers = signers or tuple(sorted(self.config.network(source).org_names()))
        policy = net.VerificationPolicy(source_network_id=source, required_orgs=signers)
        organizations = {org: world.organizations[(source, org)] for org in signers}
        proof = net.generate_data_proof(organizations, payload.encode("utf-8"), policy)
        try:
            net.verify_data_proof(world.ledger_state(dest), source, proof, policy, world.bus.now)
            outcome = "ok"
        except net.DataProofError as e:
            outcome = type(e).__name__
        self.report.proof_outcomes[id] = outcome
        world.trace.record(
            world.bus.now, "harness", "dataplane.verify",
            id=id, source=source, dest=dest, outcome=outcome,
        )
        if expect is not None:
            ok, detail = outcome == expect, f"expected {expect}, got {outcome}"
            self.report.assertions.append(AssertionResult(f"proof:{id}", ok, detail))
        if outcome != "ok" and resync_on_failure:
            world.trace.record(
                world.bus.now, "harness", "dataplane.resync_trigger", dest=dest, reason=outcome
            )
            self._resync(dest, trigger="proof_failure")

    @_handles_step
    def _fault(
        self, action: Literal["drop", "tamper", "duplicate", "delay"],
        from_: Optional[str] = None, to: Optional[str] = None, kind: Optional[str] = None,
        occurrence: Optional[int] = None, times: Optional[int] = None, delay: int = 1,
    ) -> None:
        # a fresh rule on each execution: a rule counts its own hits
        self.world.bus.config.rules.append(
            FaultRule(action, from_, to, kind, occurrence, times, delay)
        )

    # --- assertions: each kind's fields are its check's keyword parameters ----

    @_handles_step
    def _assert(self, kind: str, name: Optional[str] = None, **fields) -> None:
        try:
            ok, detail = getattr(self, "_check_" + kind)(**fields)
        except Exception as e:  # assertion evaluation must not abort the run
            ok, detail = False, f"evaluation error: {type(e).__name__}: {e}"
        self.report.assertions.append(AssertionResult(name=name or kind, ok=ok, detail=detail))

    def _check_record_status(
        self, network: str, foreign: str, org: str, status: Literal["ACTIVE", "REVOKED"]
    ) -> tuple[bool, str]:
        record = self.world.ledger_state(network).get_record(foreign, org)
        if record is None:
            return False, "no record"
        return record.content.status == status, f"status={record.content.status}"

    def _check_record_digest_matches(
        self, network: str, foreign: str, org: str
    ) -> tuple[bool, str]:
        world = self.world
        record = world.ledger_state(network).get_record(foreign, org)
        if record is None:
            return False, "no record"
        source = world.organizations[(foreign, org)]
        expected = source.bundle_digest()
        content = record.content
        ok = content.bundle_digest == expected and content.bundle == source.bundle_bytes()
        return ok, f"record={content.bundle_digest.hex()[:16]} source={expected.hex()[:16]}"

    def _check_trace_count(
        self, event: str, count: int, detail: Optional[dict[str, Scalar]] = None
    ) -> tuple[bool, str]:
        pattern = EventPattern(kind=event, detail=detail or {})
        seen = sum(1 for e in self.world.trace.events if pattern.matches(e))
        return seen == count, f"count={seen}"

    def _check_trace_order(self, events: tuple[EventPattern, ...]) -> tuple[bool, str]:
        position = 0
        for event in self.world.trace.events:
            if events[position].matches(event):
                position += 1
                if position == len(events):
                    return True, f"matched all {len(events)} events in order"
        return False, f"matched {position}/{len(events)} events"

    def _check_no_failed_sessions(
        self, network: Optional[str] = None, orgs: Orgs = "all"
    ) -> tuple[bool, str]:
        world = self.world
        org_of = {world.agents[org].address: org for org in self._selected_orgs(orgs, network)}
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

    def _check_session_attempts_max(self, max_: int) -> tuple[bool, str]:
        top = max((
            e.detail["attempts"] for e in self.world.trace.events
            if e.kind in ("agent.sync_done", "agent.sync_failed")
        ), default=0)
        return top <= max_, f"max_attempts={top}"


CHECKS = {
    name.removeprefix("_check_"): _fields(check)
    for name, check in vars(ScenarioRunner).items() if name.startswith("_check_")
}
ASSERT_KINDS = frozenset(CHECKS)


def run_scenario(
    config: ScenarioConfig,
    seed: Optional[int] = None,
    trace_path: Optional[str | Path] = None,
) -> RunReport:
    return ScenarioRunner(config, seed=seed, trace_path=trace_path).run()
