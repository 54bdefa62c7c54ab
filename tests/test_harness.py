"""Scenario loading, trace verification, and the CLI contract."""

import gc
import json
import weakref

import pytest
import yaml

from idplane import cli, harness
from idplane.trace import TraceEvent, read_trace, verify_events, verify_trace

from conftest import scenario_config


def minimal_raw() -> dict:
    return yaml.safe_load(
        (harness.SCENARIO_DIR / "two_network.yaml").read_text(encoding="utf-8")
    )


class TestLoadScenario:
    def test_bundled_scenarios_all_load(self):
        scenarios = harness.bundled_scenarios()
        assert set(scenarios) == {
            "two-network",
            "revoke-carrier",
            "concurrent-commit",
            "concurrent-commit-serial",
            "digest-mismatch-retry",
            "rotate-resync",
        }
        for path in scenarios.values():
            harness.load_scenario(path)

    def test_two_network_shape_matches_use_case(self):
        config = scenario_config("two-network")
        assert config.iins == (harness.IinSpec(id="iin0", nodes=4),)
        assert {a.name for a in config.anchors} == {"AnchorSWT", "AnchorSTL"}
        stl = config.network("STL")
        swt = config.network("SWT")
        assert {o.name: o.peers for o in stl.orgs} == {"Seller": 1, "Carrier": 1}
        assert {o.name: o.peers for o in swt.orgs} == {"Seller": 2, "Buyer": 2}

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(harness.ParseError):
            harness.load_scenario(path)

    def test_unparseable_yaml_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("networks: [unclosed")
        with pytest.raises(harness.ParseError):
            harness.load_scenario(path)

    def test_unknown_anchor_reference_collected(self, tmp_path):
        raw = minimal_raw()
        raw["networks"][0]["trust"].append(
            {"iin": "iin0", "anchor": "Nobody", "network": "SWT"}
        )
        raw["networks"][1]["pmv"] = "AlsoNobody"
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(harness.ScenarioValidationError) as err:
            harness.load_scenario(path)
        problems = "\n".join(err.value.problems)
        # every problem reported, not just the first
        assert "Nobody" in problems and "AlsoNobody" in problems

    def test_org_that_no_anchor_whitelists_is_rejected(self):
        raw = minimal_raw()
        for anchor in raw["anchors"]:
            anchor["whitelist"] = [o for o in anchor["whitelist"] if o != "Carrier"]
        with pytest.raises(harness.ScenarioValidationError) as err:
            harness.parse_scenario(raw)
        assert err.value.problems == ["org Carrier: no anchor whitelists it"]

    def test_org_whose_whitelisting_anchors_issue_none_of_its_networks_is_rejected(self):
        """An org registers its verinym with the credential of one of its
        networks, so the anchor that vouches for it must be that network's
        pmv: AnchorSWT, the pmv of SWT only, cannot vouch for STL's Carrier."""
        raw = minimal_raw()
        swt, stl = raw["anchors"]
        stl["whitelist"].remove("Carrier")
        swt["whitelist"].append("Carrier")
        with pytest.raises(harness.ScenarioValidationError) as err:
            harness.parse_scenario(raw)
        assert err.value.problems == [
            "org Carrier: no anchor that whitelists it is the pmv of one of its networks"
        ]

    def test_an_org_s_oiv_is_the_pmv_of_its_first_network_that_whitelists_it(self):
        """Seller is in STL, then SWT, and both pmvs whitelist it: AnchorSTL
        registers its verinym with its STL credential, so step A asks for
        its credentials in network order. An anchor that issues none of its
        networks' credentials is never its OIV, even when listed first."""
        raw = minimal_raw()
        raw["anchors"].insert(0, {"name": "AnchorOIV", "iin": "iin0", "whitelist": ["Seller"]})
        runner = harness.ScenarioRunner(harness.parse_scenario(raw))
        assert runner.world.agents["Seller"].config.oiv_address == "anchor:AnchorSTL"
        report = runner.run()
        assert report.ok, report.errors

    def test_invalid_step_and_bad_pool_size_reported(self, tmp_path):
        raw = minimal_raw()
        raw["iins"][0]["nodes"] = 5
        raw["script"].append({"step": "explode"})
        raw["script"].append({"step": "assert", "kind": "nonsense"})
        # a deleted kind: trace rule endorsement-complete checks this every run
        raw["script"].append({"step": "assert", "kind": "endorsement_complete"})
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(harness.ScenarioValidationError) as err:
            harness.load_scenario(path)
        problems = "\n".join(err.value.problems)
        assert "3f+1" in problems
        assert "explode" in problems
        assert "nonsense" in problems
        assert "unknown assert kind 'endorsement_complete'" in problems

    def test_problems_name_the_scenario_source(self):
        raw = minimal_raw()
        raw["script"].append({"step": "explode"})
        with pytest.raises(harness.ScenarioValidationError) as err:
            harness.parse_scenario(raw, source="<perfbench:wide-sync>")
        assert str(err.value).startswith("<perfbench:wide-sync>: script[")
        # `idplane run` prints each problem on its own line, without the source
        assert all(p.startswith("script[") for p in err.value.problems)

    def test_every_assert_kind_is_used_by_a_bundled_scenario(self):
        used = {
            step["kind"]
            for path in harness.bundled_scenarios().values()
            for step in harness.load_scenario(path).script
            if step["step"] == "assert"
        }
        assert used == harness.ASSERT_KINDS

    @pytest.mark.parametrize("name", sorted(harness.bundled_scenarios()))
    def test_each_agent_holds_its_home_ledgers_genesis_policy(self, name):
        """Each agent is configured with the policy that its home ledger's
        genesis fixes: one derivation, the same objects in both."""
        config = scenario_config(name)
        world = harness.World(config, config.seed)
        for agent in world.agents.values():
            assert set(agent.config.policies) == set(agent.config.ledgers), agent.org_id
            for home, (interop, entries) in agent.config.policies.items():
                genesis = world.ledgers[home].genesis
                assert (interop, entries) == (genesis.interop_networks, genesis.trust_entries)
                assert interop is genesis.interop_networks
                assert entries is genesis.trust_entries


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "two_network.jsonl"
    harness.run_scenario(scenario_config("two-network"), trace_path=path)
    return path


class TestTraceVerification:
    def test_happy_path_trace_verifies(self, trace_path):
        assert verify_trace(trace_path) == []

    def test_removed_endorser_violates_completeness(self, trace_path):
        events = read_trace(trace_path)
        doctored = []
        for e in events:
            if e.kind == "ledger.commit" and e.detail.get("outcome") == "APPLIED":
                detail = dict(e.detail)
                detail["endorsers"] = detail["endorsers"].split(",")[0]
                e = TraceEvent(tick=e.tick, actor=e.actor, kind=e.kind, detail=detail)
            doctored.append(e)
        violations = verify_events(doctored)
        assert any(rule == "endorsement-complete" for rule, _, _ in violations)

    def test_held_statement_applied_violates_currency(self, trace_path):
        events = read_trace(trace_path)
        applied = [
            i for i, e in enumerate(events)
            if e.kind == "ledger.commit" and e.detail["outcome"] == "APPLIED"
        ]
        assert verify_events(events) == []
        held = events[applied[0]]
        # the same record applied again later by the statement of its first commit
        events.insert(applied[-1] + 1, TraceEvent(
            tick=events[applied[-1]].tick, actor=held.actor, kind=held.kind,
            detail=dict(held.detail),
        ))
        violations = verify_events(events)
        assert [rule for rule, _, _ in violations] == ["commit-current"]
        assert violations[0][1] == applied[-1] + 2  # 1-based line of the held commit

    def test_commit_without_made_at_violates_currency(self, trace_path):
        events = read_trace(trace_path)
        at = next(i for i, e in enumerate(events) if e.kind == "ledger.commit")
        detail = {k: v for k, v in events[at].detail.items() if k != "made_at"}
        events[at] = TraceEvent(
            tick=events[at].tick, actor=events[at].actor, kind=events[at].kind, detail=detail
        )
        assert verify_events(events) == [("commit-current", at + 1, "commit names no made_at")]

    def test_decreasing_tick_violates_monotonicity(self, trace_path):
        events = read_trace(trace_path)
        events[5] = TraceEvent(
            tick=events[-1].tick + 100,
            actor=events[5].actor,
            kind=events[5].kind,
            detail=events[5].detail,
        )
        violations = verify_events(events)
        assert any(rule == "monotone-tick" for rule, _, _ in violations)

    def test_payload_key_on_bus_event_violates_schema(self, trace_path):
        events = read_trace(trace_path)
        target = next(i for i, e in enumerate(events) if e.kind == "bus.send")
        detail = dict(events[target].detail)
        detail["payload"] = "deadbeef"
        events[target] = TraceEvent(
            tick=events[target].tick, actor=events[target].actor,
            kind="bus.send", detail=detail,
        )
        violations = verify_events(events)
        assert any(rule == "bus-digest-only" for rule, _, _ in violations)

    @pytest.mark.parametrize("field", ["tx_digest", "outcome"])
    def test_replicas_committing_apart_violate_agreement(self, trace_path, field):
        events = read_trace(trace_path)
        assert verify_events(events) == []
        commits = [i for i, e in enumerate(events) if e.kind == "registry.commit"]
        first = events[commits[0]]
        at = next(
            i for i in commits[1:]
            if events[i].detail["seq"] == first.detail["seq"] and events[i].actor != first.actor
        )
        detail = dict(events[at].detail, **{field: "forged"})
        events[at] = TraceEvent(
            tick=events[at].tick, actor=events[at].actor, kind=events[at].kind, detail=detail
        )
        violations = verify_events(events)
        assert [(rule, line) for rule, line, _ in violations] == [
            ("registry-commit-agree", at + 1)
        ]
        assert first.actor in violations[0][2] and events[at].actor in violations[0][2]

    def test_unnamed_session_failure_violates_rule(self, trace_path):
        events = read_trace(trace_path)
        last = events[-1]
        events.append(TraceEvent(
            tick=last.tick, actor="agent:Buyer", kind="session.failed",
            detail={"label": "sync", "detail": "gave up"},
        ))
        violations = verify_events(events)
        assert ("session-failed-named", len(events), "failed session names no error") in violations

    @pytest.mark.parametrize("name", sorted(harness.bundled_scenarios()))
    def test_every_bundled_scenario_trace_verifies(self, tmp_path, name):
        path = tmp_path / "trace.jsonl"
        harness.run_scenario(scenario_config(name), trace_path=path)
        assert verify_trace(path) == []

    def test_trace_has_no_sealed_plaintext(self, trace_path):
        # a unique marker embedded in every VC body: an org DID suffix
        text = trace_path.read_text(encoding="utf-8")
        config = scenario_config("two-network")
        world = harness.World(config, seed=config.seed)
        vc_like = world.org_dids["Buyer"]
        # DIDs appear in actor-level events legitimately; raw message
        # plaintext (canonical json of bodies) must not
        assert '"vp":' not in text
        assert '"tx":' not in text


class TestRunnerAndReport:
    def test_seed_change_keeps_outcomes_changes_timing(self):
        config = scenario_config("two-network")
        a = harness.run_scenario(config, seed=7)
        b = harness.run_scenario(config, seed=8)
        assert a.ok and b.ok
        assert [(r.name, r.ok) for r in a.assertions] == [
            (r.name, r.ok) for r in b.assertions
        ]
        assert a.final_tick != b.final_tick

    def test_report_json_roundtrips(self):
        report = harness.run_scenario(scenario_config("concurrent-commit"))
        data = json.loads(report.to_json())
        assert data["ok"] is True
        assert data["scenario"] == "concurrent-commit"
        assert data["state_hashes"]["ledger:SWT"]

    def test_iin_replicas_converge_after_full_scenario(self):
        config = scenario_config("two-network")
        runner = harness.ScenarioRunner(config)
        report = runner.run()
        assert report.ok
        hashes = {n.state.state_hash() for n in runner.world.iin_nodes["iin0"]}
        assert len(hashes) == 1

    def test_registry_log_replay_after_full_scenario(self):
        from idplane import registry

        config = scenario_config("two-network")
        runner = harness.ScenarioRunner(config)
        runner.run()
        node = runner.world.iin_nodes["iin0"][0]
        fresh = registry.replay_log(node.genesis, node.log)
        assert fresh.state_hash() == node.state.state_hash()

    def test_ledger_block_log_replay_after_full_scenario(self):
        from idplane import network as net

        config = scenario_config("two-network")
        runner = harness.ScenarioRunner(config)
        runner.run()
        ledger = runner.world.ledgers["SWT"]
        replayed = net.replay_block_log(ledger.genesis, ledger.state.block_log)
        assert replayed.state_hash() == ledger.state.state_hash()

    def test_no_failed_sessions_names_org_target_and_error(self, tmp_path):
        raw = minimal_raw()
        # lose every countersign request to Seller, the one countersigner of
        # both syncs, after step A
        raw["script"].insert(2, {
            "step": "fault", "action": "drop",
            "to": "agent:Seller", "kind": "agent.countersign.request",
        })
        path = tmp_path / "lossy.yaml"
        path.write_text(yaml.safe_dump(raw))
        runner = harness.ScenarioRunner(harness.load_scenario(path))
        report = runner.run()
        result = next(r for r in report.assertions if r.name == "all-sync-sessions-clean")
        assert not result.ok
        dids = runner.world.org_dids
        for initiator, target in (
            ("Buyer", "Carrier"), ("Buyer", "Seller"),
            ("Carrier", "Buyer"), ("Carrier", "Seller"),
        ):
            assert f"{initiator}:{dids[target][-8:]}:" in result.detail
        assert "Seller" in result.detail  # the countersigner that never answered

    def test_no_failed_sessions_names_a_whole_failed_session(self, tmp_path):
        raw = minimal_raw()
        # the reply to Buyer's first ledger query of its sync is lost, which
        # ends Buyer's whole sync session
        first_sync = next(i for i, s in enumerate(raw["script"]) if s["step"] == "sync")
        raw["script"].insert(first_sync, {
            "step": "fault", "action": "drop", "from": "ledger:SWT", "to": "agent:Buyer",
            "kind": "ledger.reply", "occurrence": 1,
        })
        path = tmp_path / "lost-ledger-reply.yaml"
        path.write_text(yaml.safe_dump(raw))
        report = harness.run_scenario(harness.load_scenario(path))
        result = next(r for r in report.assertions if r.name == "all-sync-sessions-clean")
        assert not result.ok
        assert "Buyer:sync:STL:LedgerUnreachable(SWT)" in result.detail

    def test_run_fails_on_its_own_bad_trace(self):
        runner = harness.ScenarioRunner(scenario_config("concurrent-commit"))
        runner.world.trace.record(0, "anchor:AnchorSWT", "session.failed", label="publish")
        line = len(runner.world.trace.events)
        report = runner.run()
        assert report.ok is False
        assert not report.errors
        failed = [r for r in report.assertions if not r.ok]
        assert [(r.name, r.detail) for r in failed] == [
            ("trace:session-failed-named", f"line {line}: failed session names no error")
        ]
        assert runner.world.trace.events[-1].detail == {"ok": False}

    def test_session_attempts_max_fails_above_the_bound(self, tmp_path):
        raw = yaml.safe_load(
            (harness.SCENARIO_DIR / "digest_mismatch_retry.yaml").read_text(encoding="utf-8")
        )
        step = next(s for s in raw["script"] if s.get("kind") == "session_attempts_max")
        step["max"] = 1
        path = tmp_path / "strict.yaml"
        path.write_text(yaml.safe_dump(raw))
        report = harness.run_scenario(harness.load_scenario(path))
        result = next(r for r in report.assertions if r.name == step["name"])
        assert not result.ok
        assert result.detail == "max_attempts=2"

    def test_scripted_fault_runs_are_deterministic(self, tmp_path):
        raw = minimal_raw()
        # each run starts with a fresh rule: a rule shared across runs would
        # keep its hit count and drop nothing in the second run
        first_sync = next(i for i, s in enumerate(raw["script"]) if s["step"] == "sync")
        raw["script"].insert(first_sync, {
            "step": "fault", "action": "drop", "from": "ledger:SWT", "to": "agent:Buyer",
            "kind": "ledger.reply", "occurrence": 1,
        })
        config = harness.parse_scenario(raw)
        paths = [tmp_path / f"run{i}.jsonl" for i in range(2)]
        for path in paths:
            harness.run_scenario(config, seed=2024, trace_path=path)
        assert '"bus.drop"' in paths[1].read_text(encoding="utf-8")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("name, seed", [
        *(pytest.param(name, None, id=name) for name in sorted(harness.bundled_scenarios())),
        *(pytest.param(name, seed, id=f"{name}-lossy-{seed}") for name, seed in (
            # seeds whose lossy run fails; revoke-carrier's 0 and 4 pass since
            # step A makes fewer sends, and two-network's 3 and 7 since it
            # leaves fewer witnesses to refresh. Since a read asks the
            # sequencer alone the draws move again: two-network's 4 and
            # revoke-carrier's 8 pass, so 5 and 9 stand in for them
            ("two-network", 2), ("two-network", 5), ("revoke-carrier", 6), ("revoke-carrier", 9),
        )),
    ])
    def test_a_dropped_world_is_freed_by_reference_counting(self, name, seed):
        """The bus owns its actors and the world owns the bus; no link runs
        back, so a world needs no cycle collector to be freed. With a seed,
        the run drops 5% of its messages: sessions fail, and their errors
        are re-raised into the sessions joined on them or returned as
        values, and none of those errors holds a frame of the session that
        ended."""
        config = scenario_config(name)
        gc.disable()
        try:
            runner = harness.ScenarioRunner(config, seed=seed)
            if seed is not None:
                runner.world.bus.config.drop_rate = 0.05
                assert not runner.run().ok
            else:
                assert runner.run().ok
            world = weakref.ref(runner.world)
            del runner
            assert world() is None
        finally:
            gc.enable()

    def test_tick_ceiling_becomes_runtime_error(self):
        config = scenario_config("two-network")
        config.tick_ceiling = 5
        report = harness.run_scenario(config)
        assert report.errors and "TickCeiling" in report.errors[0]
        assert not report.ok


class TestCli:
    def test_run_exit_zero_on_pass(self, tmp_path, capsys):
        scenario = harness.SCENARIO_DIR / "concurrent_commit.yaml"
        trace = tmp_path / "t.jsonl"
        report = tmp_path / "r.json"
        code = cli.main([
            "run", "--scenario", str(scenario), "--trace", str(trace),
            "--report", str(report),
        ])
        assert code == cli.EXIT_OK
        assert trace.exists() and report.exists()
        out = capsys.readouterr().out
        assert "[PASS]" in out and "result: PASS" in out

    def test_assertion_failure_exit_one(self, tmp_path):
        raw = minimal_raw()
        raw["script"].append({
            "step": "assert", "kind": "record_status", "name": "wrong",
            "network": "SWT", "foreign": "STL", "org": "Carrier", "status": "REVOKED",
        })
        path = tmp_path / "failing.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", "--scenario", str(path)]) == cli.EXIT_ASSERTION

    @pytest.mark.parametrize("breakage, problem", [
        (lambda raw: raw["networks"][0].update(pmv="Nobody"),
         "network STL: unknown pmv anchor 'Nobody'"),
        (lambda raw: raw.update(iins=[{"nodes": 4}]), "iins[0]: missing field 'id'"),
        (lambda raw: raw["networks"][1]["trust"][0].pop("network"),
         "networks[1].trust[0]: missing field 'network'"),
        (lambda raw: raw["networks"][0]["orgs"][1].pop("name"),
         "networks[0].orgs[1]: missing field 'name'"),
        (lambda raw: raw["networks"].append(5), "networks[2]: must be a mapping"),
        (lambda raw: raw["iins"][0].update(nodes="four"),
         "iins[0].nodes: expected an integer, got 'four'"),
        (lambda raw: raw["networks"][0]["orgs"][1].update(peers="x"),
         "networks[0].orgs[1].peers: expected an integer, got 'x'"),
        (lambda raw: raw.update(seed="high"), "seed: expected an integer, got 'high'"),
        (lambda raw: raw.update(tick_ceiling="high"),
         "tick_ceiling: expected an integer, got 'high'"),
        (lambda raw: raw.update(drop_rate="high"), "drop_rate: expected a number, got 'high'"),
        (lambda raw: raw.update(latency="high"),
         "latency: expected [min, max] ticks, got 'high'"),
        (lambda raw: raw.update(latency=[1, "x"]), "latency[1]: expected an integer, got 'x'"),
        (lambda raw: raw.update(tick_ceilling=5), "unknown field 'tick_ceilling'"),
        (lambda raw: raw["script"][3].update(initiator=raw["script"][3].pop("initiators")),
         "script[3]: unknown field 'initiator'"),
        (lambda raw: raw["script"][3].update(initiators=["Buyr"]),
         "script[3].initiators: unknown org 'Buyr'"),
        (lambda raw: raw["script"][2].update(signers=["Seller", "Carier"]),
         "script[2].signers: unknown org 'Carier'"),
        (lambda raw: raw["script"].insert(2, {"step": "rotate_cert", "network": "STL",
                                              "org": "Buyer"}),
         "script[2].org: org 'Buyer' is not in network 'STL'"),
        (lambda raw: raw["script"].insert(2, {"step": "fault", "action": "drop",
                                              "too": "agent:Seller"}),
         "script[2]: unknown field 'too'"),
        (lambda raw: raw["script"].insert(2, {"step": "fault", "action": "dorp"}),
         "script[2].action: expected 'drop' or 'tamper' or 'duplicate' or 'delay', got 'dorp'"),
        (lambda raw: raw["script"].insert(2, {"step": "advance_time", "ticks": "soon"}),
         "script[2].ticks: expected an integer, got 'soon'"),
        (lambda raw: raw["script"].insert(2, {"step": "validate", "org": "Buyer",
                                              "network": "SWT", "foreign": "STL",
                                              "target": "Carrier"}),
         "script[2]: missing field 'id'"),
        (lambda raw: raw["script"][7].update(staus=raw["script"][7].pop("status")),
         "script[7]: unknown field 'staus'"),
        (lambda raw: raw.update(cert_lifetime=0), "cert_lifetime: must be at least 1, got 0"),
        (lambda raw: raw.update(latency=[3, 1]), "latency: expected 0 <= min <= max, got [3, 1]"),
        (lambda raw: raw.update(latency=[-1, 2]),
         "latency: expected 0 <= min <= max, got [-1, 2]"),
        (lambda raw: raw.update(drop_rate=1.5), "drop_rate: must be between 0 and 1, got 1.5"),
        (lambda raw: raw.update(drop_rate=-0.1), "drop_rate: must be between 0 and 1, got -0.1"),
        (lambda raw: raw["networks"][0]["orgs"][1].update(peers=0),
         "network STL: org Carrier needs at least one peer, got 0"),
    ], ids=[
        "unknown-pmv", "iin-without-id", "trust-without-network", "org-without-name",
        "network-not-a-mapping", "nodes-not-a-number", "peers-not-a-number",
        "seed-not-a-number", "tick-ceiling-not-a-number", "drop-rate-not-a-number",
        "latency-not-a-pair", "latency-bound-not-a-number", "misspelled-top-level-key",
        "misspelled-step-key", "unknown-initiator", "unknown-signer", "org-of-other-network",
        "misspelled-fault-key", "unknown-fault-action", "ticks-not-a-number",
        "validate-without-id", "misspelled-assert-key", "cert-lifetime-zero",
        "latency-min-above-max", "latency-negative", "drop-rate-above-one",
        "drop-rate-negative", "no-peers",
    ])
    def test_config_error_exit_two(self, tmp_path, capsys, breakage, problem):
        raw = minimal_raw()
        breakage(raw)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", "--scenario", str(path)]) == cli.EXIT_CONFIG
        assert f"config error: {problem}" in capsys.readouterr().err.splitlines()

    def test_missing_file_exit_two(self):
        assert cli.main(["run", "--scenario", "/no/such.yaml"]) == cli.EXIT_CONFIG

    def test_runtime_error_exit_three(self, tmp_path):
        scenario = harness.SCENARIO_DIR / "two_network.yaml"
        assert cli.main(
            ["run", "--scenario", str(scenario), "--ticks", "5"]
        ) == cli.EXIT_RUNTIME

    def test_demo_and_list(self, capsys):
        assert cli.main(["list-scenarios"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "two-network" in out
        assert cli.main(["demo", "concurrent-commit"]) == cli.EXIT_OK
        assert cli.main(["demo", "no-such-demo"]) == cli.EXIT_CONFIG

    def test_bad_bundled_scenario_prints_one_line_per_problem(
        self, tmp_path, capsys, monkeypatch
    ):
        raw = minimal_raw()
        raw.update(seed="high", tick_ceiling="high")
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        monkeypatch.setattr(harness, "bundled_scenarios", lambda: {"bad": path})
        assert cli.main(["demo", "bad"]) == cli.EXIT_CONFIG
        errors = capsys.readouterr().err.splitlines()
        assert "config error: seed: expected an integer, got 'high'" in errors
        assert "config error: tick_ceiling: expected an integer, got 'high'" in errors

    def test_verify_trace_cli(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        harness.run_scenario(scenario_config("concurrent-commit"), trace_path=trace)
        assert cli.main(["verify-trace", str(trace)]) == cli.EXIT_OK
        # doctor the trace: strip an endorser from a commit
        lines = trace.read_text().splitlines()
        doctored = []
        for line in lines:
            obj = json.loads(line)
            if obj["kind"] == "ledger.commit" and obj["detail"].get("outcome") == "APPLIED":
                obj["detail"]["endorsers"] = obj["detail"]["endorsers"].split(",")[0]
            doctored.append(json.dumps(obj))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(doctored) + "\n")
        assert cli.main(["verify-trace", str(bad)]) == cli.EXIT_ASSERTION
        assert cli.main(["verify-trace", "/no/such.jsonl"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("line", ['{"tick": 1, "actor": "a"', '{"tick": 1, "actor": "a"}'])
    def test_verify_trace_cli_names_a_malformed_line(self, tmp_path, capsys, line):
        """A line cut short, or one that lacks a field, is not well-formed."""
        event = TraceEvent(tick=0, actor="harness", kind="scenario.bootstrap_complete", detail={})
        bad = tmp_path / "bad.jsonl"
        bad.write_text(event.to_json() + "\n" + line + "\n")
        assert cli.main(["verify-trace", str(bad)]) == cli.EXIT_ASSERTION
        err = capsys.readouterr().err
        assert "trace invariant violation: well-formed at line 2" in err
