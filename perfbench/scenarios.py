"""Scenario generators for the benchmark workloads.

Every world the benchmark builds is described as a plain scenario mapping and
passed through `harness.parse_scenario`, so it is validated exactly like a
bundled YAML file. Only set-up steps go into the script (bootstrap and step
A); the timed steps are driven through the agent session generators.
"""

from __future__ import annotations

from idplane import harness

IIN = "iin0"
NET_A = "NA"
NET_B = "NB"


def org_names(network: str, k: int) -> list[str]:
    return [f"{network}o{i:02d}" for i in range(k)]


def two_networks(name: str, k: int, cert_lifetime: int = 20_000,
                 tick_ceiling: int = 10_000_000, identity_seed: int = 7) -> dict:
    """Two permissioned networks of `k` orgs each on one 4-node IIN, with one
    anchor per network acting as identity validator for its own orgs and as
    membership validator for its network."""
    orgs_a = org_names(NET_A, k)
    orgs_b = org_names(NET_B, k)
    return {
        "name": name,
        "seed": 0,
        "identity_seed": identity_seed,
        "tick_ceiling": tick_ceiling,
        "cert_lifetime": cert_lifetime,
        "latency": [1, 3],
        "iins": [{"id": IIN, "nodes": 4}],
        "anchors": [
            {"name": f"Anchor{NET_A}", "iin": IIN, "whitelist": orgs_a, "represents": [NET_A]},
            {"name": f"Anchor{NET_B}", "iin": IIN,
             "whitelist": orgs_b, "represents": [NET_B]},
        ],
        "networks": [
            {
                "id": NET_A,
                "orgs": [{"name": o, "peers": 1} for o in orgs_a],
                "interop": [NET_B],
                "trust": [{"iin": IIN, "anchor": f"Anchor{NET_B}", "network": NET_B}],
                "pmv": f"Anchor{NET_A}",
            },
            {
                "id": NET_B,
                "orgs": [{"name": o, "peers": 1} for o in orgs_b],
                "interop": [NET_A],
                "trust": [{"iin": IIN, "anchor": f"Anchor{NET_A}", "network": NET_A}],
                "pmv": f"Anchor{NET_B}",
            },
        ],
        "script": [{"step": "bootstrap"}, {"step": "step_a", "orgs": "all"}],
    }


def config(raw: dict) -> harness.ScenarioConfig:
    return harness.parse_scenario(raw, source=f"<perfbench:{raw['name']}>")


def criterion05_shape(identity_seed: int) -> dict:
    """The topology of the bundled concurrent-commit scenarios: STL = Seller +
    Carrier, SWT = Seller + Buyer, the Seller a member of both networks."""
    return {
        "name": "commit-race",
        "seed": 0,
        "identity_seed": identity_seed,
        "tick_ceiling": 60_000,
        "cert_lifetime": 20_000,
        "latency": [1, 3],
        "iins": [{"id": IIN, "nodes": 4}],
        "anchors": [
            {"name": "AnchorSWT", "iin": IIN, "whitelist": ["Seller", "Buyer"],
             "represents": ["SWT"]},
            {"name": "AnchorSTL", "iin": IIN, "whitelist": ["Seller", "Carrier"],
             "represents": ["STL"]},
        ],
        "networks": [
            {
                "id": "STL",
                "orgs": [{"name": "Seller", "peers": 1}, {"name": "Carrier", "peers": 1}],
                "interop": ["SWT"],
                "trust": [{"iin": IIN, "anchor": "AnchorSWT", "network": "SWT"}],
                "pmv": "AnchorSTL",
            },
            {
                "id": "SWT",
                "orgs": [{"name": "Seller", "peers": 2}, {"name": "Buyer", "peers": 2}],
                "interop": ["STL"],
                "trust": [{"iin": IIN, "anchor": "AnchorSTL", "network": "STL"}],
                "pmv": "AnchorSWT",
            },
        ],
        "script": [{"step": "bootstrap"}, {"step": "step_a", "orgs": "all"}],
    }
