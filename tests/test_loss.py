"""The single-fault search of `loss_search.py`, pinned on concurrent-commit,
and its duplicated registry writes on revoke-carrier.

Each send of the scenario's lossless run is dropped in turn, one run per
send. The failed runs per dropped message kind are pinned, so a change that
makes the protocol lose a run to one more kind of single loss fails here,
and one that mends a kind must lower its pin on purpose. No run may apply a
REVOKED statement (the scenario revokes no one), send a REVOKED flip, or
have a `ledger.commit` refused by the contract. Each `iin.submit` is also
duplicated in turn, with its failed runs pinned the same way, and so is each
of revoke-carrier's over four bus seeds.
"""

import collections

import loss_search

# dropped kind -> (failed runs, runs)
CONCURRENT_COMMIT = {
    "iin.submit": (7, 7),
    "agent.countersign.reply": (2, 2),
    "agent.countersign.request": (2, 2),
    "agent.membership_vp.reply": (2, 2),
    "agent.membership_vp.request": (2, 2),
    "anchor.vc.reply": (0, 4),  # step A asks once more; it also carries the verinym
    "anchor.vc.request": (0, 4),
    "cmdac.reply": (0, 2),  # the lost batch is sent once more
    "cmdac.submit": (0, 2),
    "iin.ack": (0, 21),  # 2f of the 3 other replicas' acks suffice
    "iin.order": (0, 21),
    # a read asks the other nodes after its timeout; step A leaves every
    # witness current here, so no refresh is sent (its 2 runs each failed),
    # and a countersign batch that arrives during its countersigner's own
    # check of Carrier joins that check rather than read (14 -> 12 runs).
    # Each read asks the sequencer alone, one query and one reply where two
    # replicas were asked (12 -> 6 runs)
    "iin.query": (0, 6),
    "iin.query.reply": (0, 6),
    "iin.submit.reply": (0, 7),  # a lost receipt is read back from the applied set
}


def test_single_drops_of_concurrent_commit_fail_as_pinned():
    refused = collections.Counter()
    runs, failed, revoked, flips_failed = loss_search.single("concurrent-commit", refused)
    assert {kind: (failed[kind], runs[kind]) for kind in runs} == CONCURRENT_COMMIT
    assert sum(failed.values()) == 15 and sum(runs.values()) == 88
    assert revoked == []
    assert flips_failed == 0
    assert refused == {}


def test_duplicated_registry_submits_of_concurrent_commit_fail_as_pinned():
    """A duplicated `iin.submit` is served twice: the sequencer orders the
    batch twice, and the writer takes whichever receipt arrives first. In 2
    of the 7 runs that is the second ordering's, every transaction of it
    `Duplicate`: AnchorSTL's publication fails though its batch applied, and
    so does AnchorSWT's step-A batch for Buyer, after which the anchor's
    next batch, for Seller, is refused `StaleEpoch`, as the anchor kept the
    epoch that batch left (ROADMAP items 26 and 29). Mending item 26 lowers
    the pin to 0. The second race shows since each registry read asks the
    sequencer alone: the run sends fewer messages and the bus's latency
    draws move (1 of 7 before; over bus seeds 0-59 these duplicates fail 65
    of 420 runs, 56 before).
    The work beyond the lossless run is pinned too: each batch ordered
    twice costs 3 orders, 3 acks and a second receipt (7 sends) and 3
    signatures; one run adds 2 sends of a replica's catch-up, and the run
    whose publication fails stops short (-65 sends, -35 signatures). While a
    countersign batch could read the registry during its countersigner's
    own check of Carrier, the shifted timing skipped a 4-send read in each
    passing run (-55 sends in all, the failing run -81)."""
    refused = collections.Counter()
    work = {}
    runs, failed, revoked, flips_failed = loss_search.single(
        "concurrent-commit", refused, action="duplicate", kind="iin.submit", work=work
    )
    assert (failed["iin.submit"], runs["iin.submit"]) == (2, 7)
    assert work == {"iin.submit": [6 * 7 + 2 - 65, 6 * 3 - 35]}
    assert runs.keys() == {"iin.submit"}
    assert revoked == []
    assert flips_failed == 0
    assert refused == {}


def test_duplicated_registry_submits_of_revoke_carrier_over_bus_seeds_fail_as_pinned():
    """Revoke-carrier with each `iin.submit` duplicated in turn, at bus seeds
    2-5 (8 runs each). Whether the writer takes the second ordering's
    `Duplicate` receipt first depends on the seed's latency draws, so the
    scenario's own seed shows only one such race (ROADMAP item 31). At
    seed 2 it fails AnchorSTL's step-A batches, of Seller and of Carrier, and
    its revocation of Carrier, though the revocation applied, and SWT's
    resync flips the honest Seller, whom the registry still lists (item 29):
    the wrongful revocation this pin keeps in view. At seed 4 it fails
    AnchorSWT's publication. Since each countersigner judges forwarded
    presentations, and again since each registry read asks the sequencer
    alone, the run sends fewer messages and the draws move: the race that
    revoked Seller at seed 0, then at seeds 6, 7 and 10, now shows at seed 2
    among seeds 0-11, and at 10 of bus seeds 0-59 (11 before), so the pin
    moved from seeds 0-3 to 3-6 and then to 2-5. Both pins fall to none once
    a request is served once (item 26)."""
    failed, revoked = {}, []
    for seed in range(2, 6):
        refused = collections.Counter()
        runs, failures, wrongful, flips_failed = loss_search.single(
            "revoke-carrier", refused, action="duplicate", kind="iin.submit", seed=seed
        )
        assert runs == {"iin.submit": 8}
        assert flips_failed == 0 and refused == {}
        failed[seed] = failures["iin.submit"]
        revoked += [(seed, org) for *_, org in wrongful]
    assert failed == {2: 3, 3: 0, 4: 1, 5: 0}
    assert revoked == [(2, "Seller")]
