import pytest

from limitlab import (
    Collection,
    CollectionOracle,
    EnumerationStream,
    GameScenario,
    Language,
    LanguageCandidateOracle,
    QueryLedger,
    ReductionIdentifier,
    ScanDetector,
    Strategy,
    catalog,
    harness,
    run_game,
)
from limitlab.identifiers import (
    ConsistencyMinIdentifier,
    TelltaleIdentifier,
    make_identifier,
)
from limitlab.languages import PURPOSE_CONSISTENCY, PURPOSE_DETECTOR

from tests.oracles import sim_reduction_guesses

CATALOG = catalog()
MULTIPLES = CATALOG["multiples"]
PREFIXES = CATALOG["finite_prefixes"]


# The multiples with no tell-tale for index 3: the identifier, and so
# every inner detector, becomes inapplicable at step 3, not step 1.
GAPPED = Collection(
    id="gapped",
    family=lambda i: Language(modulus=i),
    telltale=lambda i: None if i == 3 else (i,),
)
COLLECTIONS = dict(CATALOG, gapped=GAPPED)


def build_reduction(collection, ledger, fresh_copies=False, identifier="telltale"):
    detector_oracle = CollectionOracle(collection, ledger, PURPOSE_DETECTOR)

    def factory(index):
        return ScanDetector(
            make_identifier(identifier, collection, detector_oracle),
            LanguageCandidateOracle(detector_oracle, index),
            detector_oracle,
        )

    return ReductionIdentifier(
        factory,
        CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY),
        fresh_copies=fresh_copies,
    )


def drive(collection, prefix, **kwargs):
    ledger = QueryLedger()
    reduction = build_reduction(collection, ledger, **kwargs)
    guesses, rounds = [], []
    for t, w in enumerate(prefix, start=1):
        ledger.begin_step(t)
        guesses.append(reduction.step(w))
        rounds.append(reduction.last_round)
    return guesses, reduction, ledger, rounds


def test_prefixes_roundtrip_example():
    prefix = EnumerationStream(PREFIXES.language(2)).take(12)
    guesses, reduction, _, _ = drive(PREFIXES, prefix)
    assert guesses[0] == 1 and set(guesses[1:]) == {2}
    final = reduction.last_round
    assert final.guess == 2 and 2 in final.consistent and final.accepted[0] == 2


def test_matches_literal_simulation_oracle():
    cases = [
        (PREFIXES, EnumerationStream(PREFIXES.language(3)).take(10)),
        (MULTIPLES, EnumerationStream(MULTIPLES.language(4)).take(10)),
        (MULTIPLES, EnumerationStream(
            MULTIPLES.language(2), Strategy("block_shuffle", seed=4, block_growth=2)
        ).take(10)),
        (CATALOG["finite_sets"], EnumerationStream(CATALOG["finite_sets"].language(6)).take(10)),
    ]
    for collection, prefix in cases:
        guesses, _, _, _ = drive(collection, prefix)
        assert guesses == sim_reduction_guesses(collection, prefix), (collection.id, prefix)


def test_empty_acceptance_set_falls_back_to_one():
    # First round on the finite-set collection with target {2}: index 1
    # encodes {1}, which is inconsistent with the first element.
    guesses, reduction, _, _ = drive(CATALOG["finite_sets"], [2])
    assert guesses == [1]
    assert reduction.last_round.accepted == ()
    assert reduction.last_round.consistent == ()


def test_pool_matches_fresh_detector_spot_check():
    prefix = EnumerationStream(PREFIXES.language(3)).take(5)
    _, reduction, ledger, _ = drive(PREFIXES, prefix)
    assert 3 in reduction._pool
    fresh = build_reduction(PREFIXES, ledger)._factory(3)
    verdict = None
    for w in prefix:
        verdict = fresh.step(w)
    assert reduction.last_round.verdicts[3 - 1] == verdict


@pytest.mark.parametrize(
    "cid,k,strategy,identifier",
    [
        ("multiples", 6, Strategy("canonical"), "telltale"),
        ("multiples", 3, Strategy("repeat_heavy", seed=2), "telltale"),
        ("finite_prefixes", 4, Strategy("block_shuffle", seed=5, block_growth=2), "telltale"),
        ("finite_sets", 5, Strategy("canonical"), "telltale"),
        # a recorded Inapplicable, at step 1 and at step 3
        ("finite_plus_all", 3, Strategy("repeat_heavy", seed=3), "telltale"),
        ("gapped", 6, Strategy("canonical"), "telltale"),
        ("multiples", 4, Strategy("repeat_heavy", seed=2), "consistency_min"),
        ("finite_prefixes", 3, Strategy("canonical"), "consistency_min"),
        ("finite_plus_all", 2, Strategy("block_shuffle", seed=1, block_growth=2),
         "consistency_min"),
    ],
)
def test_incremental_pool_agrees_with_fresh_copies(cid, k, strategy, identifier):
    collection = COLLECTIONS[cid]
    prefix = EnumerationStream(collection.language(k), strategy).take(30)
    incremental, _, inc_ledger, inc_rounds = drive(collection, prefix, identifier=identifier)
    fresh, _, fresh_ledger, fresh_rounds = drive(
        collection, prefix, identifier=identifier, fresh_copies=True
    )
    assert incremental == fresh
    assert len(inc_rounds) == len(fresh_rounds) == len(prefix)
    for a, b in zip(inc_rounds, fresh_rounds):
        assert a == b  # bit-for-bit round dumps, verdict vectors included
    for t in range(1, len(prefix) + 1):
        for purpose in (PURPOSE_CONSISTENCY, PURPOSE_DETECTOR):
            assert inc_ledger.at(t, purpose) == fresh_ledger.at(t, purpose), (t, purpose)


@pytest.mark.parametrize(
    "identifier_class", [TelltaleIdentifier, ConsistencyMinIdentifier]
)
def test_pooled_run_steps_one_identifier_and_replays_no_detector(
    monkeypatch, identifier_class
):
    calls = {"identifier": 0, "detector": 0, "made": 0}

    def counting(owner, key):
        original = owner.step

        def step(self, w):
            calls[key] += 1
            return original(self, w)

        monkeypatch.setattr(owner, "step", step)

    counting(identifier_class, "identifier")
    counting(ScanDetector, "detector")

    def counting_make_identifier(*args):
        calls["made"] += 1
        return make_identifier(*args)

    monkeypatch.setattr(harness, "make_identifier", counting_make_identifier)

    def run(horizon, fresh_copies):
        calls.update(identifier=0, detector=0, made=0)
        scenario = GameScenario(
            "pin", "multiples", 6, "alg2", identifier=identifier_class.name,
            horizon=horizon, fresh_copies=fresh_copies,
        )
        assert run_game(scenario, CATALOG).status == "ok"

    horizon = 150
    run(horizon, fresh_copies=False)
    # one guess tape for the pool; catch-up sweeps without replaying steps
    assert calls["identifier"] <= horizon
    assert calls["detector"] == 0
    assert calls["made"] == 1
    # the literal protocol keeps a private identifier in every detector
    run(10, fresh_copies=True)
    assert calls["identifier"] == calls["detector"] == sum(t * t for t in range(1, 11))
    assert calls["made"] == sum(range(1, 11))


def test_consistent_set_is_antitone():
    prefix = EnumerationStream(
        MULTIPLES.language(4), Strategy("repeat_heavy", seed=6)
    ).take(40)
    _, _, _, rounds = drive(MULTIPLES, prefix)
    dropped = set()
    for state in rounds:
        current = set(state.consistent)
        assert not (dropped & current)
        dropped |= set(range(1, state.t + 1)) - current


def test_partition_logic_at_the_final_round():
    prefix = EnumerationStream(MULTIPLES.language(6)).take(40)
    _, reduction, _, _ = drive(MULTIPLES, prefix)
    final = reduction.last_round
    z = final.guess
    assert MULTIPLES.equals(z, 6)
    consistent = set(final.consistent)
    for i in range(1, z):
        assert i not in consistent or final.verdicts[i - 1] == 0
    assert z in consistent and final.verdicts[z - 1] == 1


def test_consistency_query_bound_2t_minus_1():
    for strategy in (Strategy("canonical"), Strategy("repeat_heavy", seed=1)):
        prefix = EnumerationStream(MULTIPLES.language(2), strategy).take(60)
        ledger = QueryLedger()
        reduction = build_reduction(MULTIPLES, ledger)
        for t, w in enumerate(prefix, start=1):
            ledger.begin_step(t)
            reduction.step(w)
            assert ledger.at(t, PURPOSE_CONSISTENCY) <= 2 * t - 1


def test_inapplicable_inner_detectors_are_pinned_to_zero():
    fpa = CATALOG["finite_plus_all"]
    prefix = EnumerationStream(fpa.language(3)).take(8)
    guesses, reduction, _, _ = drive(fpa, prefix)
    # every pooled detector hits the missing index-1 tell-tale immediately
    assert guesses == [1] * 8
    final = reduction.last_round
    assert final.inapplicable == tuple(range(1, 9))
    assert all(v == 0 for v in final.verdicts)


def test_run_game_wires_the_reduction():
    scenario = GameScenario(
        "alg2-run", "multiples", 4, "alg2", identifier="telltale", horizon=50,
    )
    outcome = run_game(scenario, CATALOG)
    assert outcome.status == "ok"
    assert outcome.report.stabilized
    assert outcome.report.final_output == 4
    assert outcome.transcript.final_state is not None
