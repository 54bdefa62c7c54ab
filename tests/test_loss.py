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
    # check of Carrier joins that check rather than read (14 -> 12 runs)
    "iin.query": (0, 12),
    "iin.query.reply": (0, 12),
    "iin.submit.reply": (0, 7),  # a lost receipt is read back from the applied set
}


def test_single_drops_of_concurrent_commit_fail_as_pinned():
    refused = collections.Counter()
    runs, failed, revoked, flips_failed = loss_search.single("concurrent-commit", refused)
    assert {kind: (failed[kind], runs[kind]) for kind in runs} == CONCURRENT_COMMIT
    assert sum(failed.values()) == 15 and sum(runs.values()) == 100
    assert revoked == []
    assert flips_failed == 0
    assert refused == {}


def test_duplicated_registry_submits_of_concurrent_commit_fail_as_pinned():
    """A duplicated `iin.submit` is served twice: the sequencer orders the
    batch twice, and the writer takes whichever receipt arrives first. In 1
    of the 7 runs that is the second ordering's, every transaction of it
    `Duplicate`, so AnchorSTL's publication fails though its batch applied
    (ROADMAP item 26). Mending that lowers the pin to 0.
    The work beyond the lossless run is pinned too: each batch ordered
    twice costs 3 orders, 3 acks and a second receipt (7 sends) and 3
    signatures; one run adds 8 sends of a replica's catch-up, and the
    failing run stops short (-77 sends, -35 signatures). While a
    countersign batch could read the registry during its countersigner's
    own check of Carrier, the shifted timing skipped a 4-send read in each
    passing run (-55 sends in all, the failing run -81)."""
    refused = collections.Counter()
    work = {}
    runs, failed, revoked, flips_failed = loss_search.single(
        "concurrent-commit", refused, action="duplicate", kind="iin.submit", work=work
    )
    assert (failed["iin.submit"], runs["iin.submit"]) == (1, 7)
    assert work == {"iin.submit": [6 * 7 + 8 - 77, 6 * 3 - 35]}
    assert runs.keys() == {"iin.submit"}
    assert revoked == []
    assert flips_failed == 0
    assert refused == {}


def test_duplicated_registry_submits_of_revoke_carrier_over_bus_seeds_fail_as_pinned():
    """Revoke-carrier with each `iin.submit` duplicated in turn, at bus seeds
    3-6 (8 runs each). Whether the writer takes the second ordering's
    `Duplicate` receipt first depends on the seed's latency draws, so the
    scenario's own seed shows only one such race (ROADMAP item 31). At
    seeds 3 and 4 it fails Seller's step A. At seed 6 it fails AnchorSTL's
    revocation of Carrier, though the revocation applied, and SWT's resync
    flips the honest Seller, whom the registry still lists (item 29): the
    wrongful revocation this pin keeps in view. Since each countersigner
    judges forwarded presentations, the run sends fewer messages and the
    draws move: the race that revoked Seller at seed 0 now shows at seeds
    6, 7 and 10 (`loss_search.py single --seeds 12`), so the pin moved from
    seeds 0-3 to 3-6. Both pins fall to none once a request is served once
    (item 26)."""
    failed, revoked = {}, []
    for seed in range(3, 7):
        refused = collections.Counter()
        runs, failures, wrongful, flips_failed = loss_search.single(
            "revoke-carrier", refused, action="duplicate", kind="iin.submit", seed=seed
        )
        assert runs == {"iin.submit": 8}
        assert flips_failed == 0 and refused == {}
        failed[seed] = failures["iin.submit"]
        revoked += [(seed, org) for *_, org in wrongful]
    assert failed == {3: 1, 4: 1, 5: 0, 6: 1}
    assert revoked == [(6, "Seller")]
