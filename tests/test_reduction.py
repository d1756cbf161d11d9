import copy
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from limitlab import (
    Collection,
    CollectionOracle,
    EnumerationStream,
    GameScenario,
    Language,
    QueryLedger,
    ReductionIdentifier,
    ScanDetector,
    Strategy,
    catalog,
    run_game,
    standard_strategies,
)
from limitlab.harness import STANDARD_SEEDS
from limitlab.identifiers import (
    IDENTIFIERS,
    ConsistencyMinIdentifier,
    TelltaleIdentifier,
    make_identifier,
)
from limitlab.languages import PURPOSE_CONSISTENCY, PURPOSE_DETECTOR

from tests.oracles import (
    AnswerCacheOracle,
    assert_same_asked_keys,
    ledger_columns,
    sim_reduction_guesses,
    sim_round_verdicts,
    take,
)

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
    return ReductionIdentifier(
        collection,
        identifier,
        CollectionOracle(collection, ledger, PURPOSE_DETECTOR),
        CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY),
        fresh_copies=fresh_copies,
    )


def drive(collection, prefix, **kwargs):
    ledger = QueryLedger()
    reduction = build_reduction(collection, ledger, **kwargs)
    guesses, rounds = [], []
    ledger.open_steps(len(prefix))
    for ledger.step, w in enumerate(prefix, start=1):
        guesses.append(reduction.step(w))
        rounds.append(reduction.last_round)
    return guesses, reduction, ledger, rounds


def test_prefixes_roundtrip_example():
    prefix = take(EnumerationStream(PREFIXES.language(2)), 12)
    guesses, reduction, _, _ = drive(PREFIXES, prefix)
    assert guesses[0] == 1 and set(guesses[1:]) == {2}
    final = reduction.last_round
    assert final.guess == 2 and 2 in final.consistent and final.accepted[0] == 2


def test_matches_literal_simulation_oracle():
    cases = [
        (PREFIXES, take(EnumerationStream(PREFIXES.language(3)), 10)),
        (MULTIPLES, take(EnumerationStream(MULTIPLES.language(4)), 10)),
        (MULTIPLES, take(EnumerationStream(
            MULTIPLES.language(2), Strategy("block_shuffle", seed=4, block_growth=2)
        ), 10)),
        (CATALOG["finite_sets"], take(EnumerationStream(CATALOG["finite_sets"].language(6)), 10)),
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


@pytest.mark.parametrize("fresh_copies", [False, True], ids=["pooled", "fresh_copies"])
@pytest.mark.parametrize("cid", sorted(CATALOG))
def test_last_round_is_built_from_the_completed_step(cid, fresh_copies):
    collection = CATALOG[cid]
    prefix = take(EnumerationStream(collection.language(3), Strategy("repeat_heavy", seed=2)), 14)
    ledger = QueryLedger()
    reduction = build_reduction(collection, ledger, fresh_copies=fresh_copies)
    assert reduction.last_round is None
    rounds, accepted = [], []
    ledger.open_steps(len(prefix))
    for t, w in enumerate(prefix, start=1):
        ledger.step = t
        guess = reduction.step(w)
        state = reduction.last_round
        assert state == reduction.last_round
        assert state.t == t and state.guess == guess
        verdicts = sim_round_verdicts(collection, prefix[:t], state.inapplicable)
        accepted.append(tuple(i for i in state.consistent if verdicts[i - 1] == 1))
        assert state.accepted == accepted[-1]
        rounds.append(state)
    # a state read earlier is not changed by the steps after it
    assert [state.t for state in rounds] == list(range(1, len(prefix) + 1))
    assert [state.accepted for state in rounds] == accepted


def traced_alg2_peak(horizon):
    """tracemalloc's peak over pooled alg2 on multiples k=6, and its fresh detector queries."""
    scenario = GameScenario("mem", "multiples", 6, "alg2", identifier="telltale",
                            horizon=horizon)
    tracemalloc.start()
    try:
        outcome = run_game(scenario, catalog())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.status == "ok"
    return peak, outcome.queries[PURPOSE_DETECTOR]


def test_cached_detector_answer_memory_is_pinned():
    # The detector handle keeps which keys were asked, as a prefix per index
    # plus a small set of keys above it, not one answer per key: about 3.4 B
    # per fresh detector query here, against 51 B for per-index answer rows
    # (tracemalloc, Python 3.11).
    peak, fresh = traced_alg2_peak(400)
    assert peak / fresh < 10, peak / fresh


def test_detector_handle_memory_grows_linearly_with_the_horizon():
    # Fresh detector queries grow 4x from H=400 to H=800; the traced peak
    # grows about 1.7x. Per-key answer storage grew it 4.7x.
    small, _ = traced_alg2_peak(400)
    large, _ = traced_alg2_peak(800)
    assert large < 2.5 * small, large / small


def test_pool_matches_fresh_detector_spot_check():
    prefix = take(EnumerationStream(PREFIXES.language(3)), 5)
    _, reduction, ledger, _ = drive(PREFIXES, prefix)
    assert 3 in reduction._pool
    detector_oracle = CollectionOracle(PREFIXES, ledger, PURPOSE_DETECTOR)
    fresh = ScanDetector(
        TelltaleIdentifier(PREFIXES, detector_oracle),
        lambda x: detector_oracle.member(3, x),
        detector_oracle,
    )
    verdict = None
    for w in prefix:
        verdict = fresh.step(w)
    assert sim_round_verdicts(PREFIXES, prefix)[3 - 1] == verdict
    final = reduction.last_round
    assert 3 in final.consistent and (3 in final.accepted) == (verdict == 1)


def record_pool_paths(monkeypatch):
    """Names of the rarer pool paths that rounds take from now on.

    A catch-up sweeps just the round's new index, t; the round's pool
    sweep never includes t. A fast round asks the clean indices about t
    through ``advance`` instead of a pool sweep; a watermark flush is a
    pool sweep that ends a run of fast rounds, under their watermark.
    """
    taken = set()
    sweep, advance = CollectionOracle.sweep, CollectionOracle.advance
    last_round_fast = [False]

    def recording(oracle, indices, guess, xs):
        indices = list(indices)
        if indices != [oracle._ledger.step]:
            if last_round_fast[0] and oracle._watermark:
                taken.add("watermark_flush")
            last_round_fast[0] = False
        violators = sweep(oracle, indices, guess, xs)
        if indices == [oracle._ledger.step]:
            if violators:
                taken.add("catchup_violation")
        elif xs.start > 1 and len(xs) >= 3:
            # the guess was last made at step xs.start - 1, two or more rounds ago
            taken.add("returning_guess")
        return violators

    def recording_advance(oracle, guess, holders):
        taken.add("fast_round")
        last_round_fast[0] = True
        return advance(oracle, guess, holders)

    monkeypatch.setattr(CollectionOracle, "sweep", recording)
    monkeypatch.setattr(CollectionOracle, "advance", recording_advance)
    return taken


@pytest.mark.parametrize(
    "cid,k,strategy,identifier,paths",
    [
        # guesses 1 (five rounds), then 6: fast rounds under 1 end in a flush
        ("multiples", 6, Strategy("canonical"), "telltale",
         {"catchup_violation", "fast_round", "watermark_flush"}),
        ("multiples", 3, Strategy("repeat_heavy", seed=2), "telltale",
         {"catchup_violation", "fast_round", "watermark_flush"}),
        # guesses 1, 2, 1, 4, 4, ...: fast rounds start once the guess settles
        ("finite_prefixes", 4, Strategy("block_shuffle", seed=5, block_growth=2), "telltale",
         {"catchup_violation", "fast_round"}),
        ("finite_sets", 5, Strategy("canonical"), "telltale",
         {"catchup_violation", "fast_round", "watermark_flush"}),
        # a recorded Inapplicable, at step 1 and at step 3; gapped has no holders_below
        ("finite_plus_all", 3, Strategy("repeat_heavy", seed=3), "telltale", set()),
        ("gapped", 6, Strategy("canonical"), "telltale", set()),
        ("multiples", 4, Strategy("repeat_heavy", seed=2), "consistency_min", {"fast_round"}),
        ("finite_prefixes", 3, Strategy("canonical"), "consistency_min",
         {"catchup_violation", "fast_round"}),
        ("finite_plus_all", 2, Strategy("block_shuffle", seed=1, block_growth=2),
         "consistency_min", {"fast_round"}),
        # guesses 1, 2, 2, 2, 1, ...: guess 1 returns after three rounds away,
        # and its sweep follows a flush of the fast rounds under 2
        ("finite_sets", 6, Strategy("repeat_heavy", seed=2), "telltale",
         {"returning_guess", "catchup_violation", "fast_round", "watermark_flush"}),
        ("finite_sets", 6, Strategy("repeat_heavy", seed=2), "consistency_min",
         {"returning_guess", "catchup_violation", "fast_round", "watermark_flush"}),
    ],
)
def test_incremental_pool_agrees_with_fresh_copies(
    monkeypatch, cid, k, strategy, identifier, paths
):
    collection = COLLECTIONS[cid]
    prefix = take(EnumerationStream(collection.language(k), strategy), 30)
    fresh, _, fresh_ledger, fresh_rounds = drive(
        collection, prefix, identifier=identifier, fresh_copies=True
    )
    taken = record_pool_paths(monkeypatch)
    incremental, reduction, inc_ledger, inc_rounds = drive(
        collection, prefix, identifier=identifier
    )
    assert paths <= taken
    assert incremental == fresh
    assert len(inc_rounds) == len(fresh_rounds) == len(prefix)
    for a, b in zip(inc_rounds, fresh_rounds):
        assert a == b  # bit-for-bit round dumps, verdict vectors included
    assert ledger_columns(inc_ledger) == ledger_columns(fresh_ledger)
    assert_asks_what_the_sweeps_ask(collection, prefix, identifier, reduction, inc_ledger)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(CATALOG)),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([s for seed in STANDARD_SEEDS for s in standard_strategies(seed)]),
    st.sampled_from(sorted(IDENTIFIERS)),
    st.integers(min_value=1, max_value=40),
)
def test_pool_bills_what_fresh_copies_bill(cid, k, strategy, identifier, horizon):
    # A pool sweep asks L_guess about its whole run up front; the literal
    # protocol asks those keys in the same round, so the ledgers agree.
    collection = CATALOG[cid]
    prefix = take(EnumerationStream(collection.language(k), strategy), horizon)
    pooled, _, pooled_ledger, pooled_rounds = drive(collection, prefix, identifier=identifier)
    fresh, _, fresh_ledger, fresh_rounds = drive(
        collection, prefix, identifier=identifier, fresh_copies=True
    )
    assert pooled == fresh
    assert pooled_rounds == fresh_rounds
    assert ledger_columns(pooled_ledger) == ledger_columns(fresh_ledger)


def without_holders(collection):
    """A copy of the collection whose pooled alg2 sweeps every round."""
    stripped = copy.copy(collection)
    stripped.holders_below = None
    return stripped


def assert_asks_what_the_sweeps_ask(collection, prefix, identifier, reduction, ledger):
    """A per-key answer cache driven through pool sweeps alone bills the same
    steps as ``reduction``'s detector handle, and holds the same keys i, x <=
    len(prefix) + 2 as that handle, which may be left with a live watermark."""
    reference_ledger = QueryLedger()
    reference = AnswerCacheOracle(collection, reference_ledger, PURPOSE_DETECTOR)
    literal = ReductionIdentifier(
        without_holders(collection), identifier, reference,
        CollectionOracle(collection, reference_ledger, PURPOSE_CONSISTENCY),
    )
    reference_ledger.open_steps(len(prefix))
    for reference_ledger.step, w in enumerate(prefix, start=1):
        literal.step(w)
    detector = ledger_columns(reference_ledger)[PURPOSE_DETECTOR]
    assert detector == ledger_columns(ledger)[PURPOSE_DETECTOR]
    keys = range(1, len(prefix) + 3)
    assert_same_asked_keys(reduction._oracle, ledger, reference, keys, keys)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(CATALOG)),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([s for seed in STANDARD_SEEDS for s in standard_strategies(seed)]),
    st.sampled_from(sorted(IDENTIFIERS)),
    st.integers(min_value=1, max_value=60),
)
def test_fast_rounds_ask_the_keys_the_pool_sweep_asks(cid, k, strategy, identifier, horizon):
    collection = CATALOG[cid]
    prefix = take(EnumerationStream(collection.language(k), strategy), horizon)
    fast, reduction, ledger, rounds = drive(collection, prefix, identifier=identifier)
    swept, _, swept_ledger, swept_rounds = drive(
        without_holders(collection), prefix, identifier=identifier
    )
    assert fast == swept
    assert rounds == swept_rounds
    assert ledger_columns(ledger) == ledger_columns(swept_ledger)
    assert_asks_what_the_sweeps_ask(collection, prefix, identifier, reduction, ledger)


# L_1 = L_2 = everything, and index 1 waits for element 1 as its tell-tale.
TWINS = Collection(
    id="twins",
    family=lambda i: Language(modulus=1 if i <= 2 else i),
    telltale=lambda i: (1,) if i == 1 else () if i == 2 else (i,),
    holders_below=lambda x: [i for i in range(1, x) if i <= 2 or x % i == 0],
)
# L_i = {1..i}, but L_2 is everything, and never guessed: its tell-tale never shows up.
ALL_AT_2 = Collection(
    id="all_at_2",
    family=lambda i: Language(modulus=1) if i == 2 else Language(elements=range(1, i + 1)),
    telltale=lambda i: (10**6,) if i == 2 else (i,),
    holders_below=lambda x: (2,) if x > 2 else (),
)
# L_1 = {1, 2, 3}, L_2 = {1, 2, 3, 4, 10}, and L_i = {i + 100} otherwise.
LOW_SETS = Collection(
    id="low_sets",
    family=lambda i: Language(elements=(1, 2, 3) if i == 1 else (1, 2, 3, 4, 10) if i == 2
                              else (i + 100,)),
    telltale=lambda i: (1,) if i <= 2 else (i + 100,),
    holders_below=lambda x: [i for i in range(1, x) if LOW_SETS.language(i).member(x)],
)


@pytest.mark.parametrize(
    "collection,prefix",
    [
        # Tape guesses 1, 2, 2, 1, 1, ...: element 1 admits index 1 in round 4,
        # whose tell-tale check asks it about 4 and then 5, past the round. The
        # sweep under the returning guess 1 leaves it asked up to 5, so sharing
        # it at watermark 4 would bill its key 5 again in round 5.
        (TWINS, [4, 5, 2, 1, 6, 3, 7, 8]),
        # Tape guesses 1, 1, 3, 3, 3, 4, ...: index 2 holds 4 and violates guess 3
        # in fast round 4, leaving the shared set asked up to 4. Guess 4 sweeps
        # it again from 1, so a stale bound of 3 would bill its key 4 twice.
        (ALL_AT_2, [1, 2, 3, 3, 3, 4, 4, 4, 5, 5]),
        # Tape guesses 1, 2, 2, 2, 1, ...: index 3 is shared under guess 2 from
        # round 3 and asked up to 4 by fast round 4, though its own bound says
        # 3; the sweep under the returning guess 1 meets it.
        (TWINS, [2, 5, 2, 2, 1, 1, 5]),
        # Tape guesses 1, 1, 3, 3, 1, 1: index 2, violated under guess 1 in round
        # 2, is shared under guess 3 and asked up to 4 by fast round 4. The
        # returning guess 1 does not sweep it, so only the flush records key 4.
        (PREFIXES, [2, 3, 3, 1, 7, 4]),
        # Tape guesses 1 (five rounds), then 2: the tape asks index 2 about
        # element 3 in round 2, above the watermark, so index 2 is an exception
        # when fast round 4 finds 4 in L_2 but not in L_1. Left an exception,
        # it would be asked the phantom key 5 in fast round 5, and the sweep
        # under guess 2 would bill one key short in round 6.
        (LOW_SETS, [1, 3, 2, 1, 1, 4, 10, 1]),
        # The same with one more fast round under 1: two phantom keys, and
        # the sweep under guess 2 two keys short in round 7.
        (LOW_SETS, [1, 3, 2, 1, 1, 1, 4, 10]),
    ],
    ids=["asked_past_the_round", "violated_in_a_fast_round", "swept_while_shared",
         "flushed_unswept", "violated_exception", "violated_exception_twice"],
)
def test_watermark_corners_bill_what_fresh_copies_bill(collection, prefix):
    fresh, _, fresh_ledger, fresh_rounds = drive(collection, prefix, fresh_copies=True)
    pooled, reduction, ledger, rounds = drive(collection, prefix)
    assert pooled == fresh
    assert rounds == fresh_rounds
    assert ledger_columns(ledger) == ledger_columns(fresh_ledger)
    assert_asks_what_the_sweeps_ask(collection, prefix, "telltale", reduction, ledger)


def test_rounds_that_keep_their_guess_sweep_no_pool(monkeypatch):
    # Counted work, no clock: with the guess settled on 2, each round
    # sweeps only its new index, once per distinct guess. A pool sweep
    # every round passes 40,600 indices here.
    swept = []
    sweep = CollectionOracle.sweep

    def counting(oracle, indices, guess, xs):
        indices = list(indices)
        swept.append(len(indices))
        return sweep(oracle, indices, guess, xs)

    monkeypatch.setattr(CollectionOracle, "sweep", counting)
    horizon = 400
    scenario = GameScenario("guard", "multiples", 2, "alg2", identifier="telltale",
                            horizon=horizon)
    outcome = run_game(scenario, catalog())
    assert outcome.status == "ok"
    assert outcome.queries[PURPOSE_DETECTOR] == 120200
    assert sum(swept) <= 3 * horizon, (sum(swept), len(swept))


def test_fast_rounds_walk_only_their_exceptions(monkeypatch):
    # Counted work, no clock: ``advance`` asks the shared indices in one
    # count and walks only its exceptions, which never include an outside
    # index. Exceptions that kept their outside indices walk 125.75 * H on
    # the finite_sets k=6 consistency_min runs; the worst run walks 10.93 * H.
    walked = [0]
    advance = CollectionOracle.advance

    def counting(oracle, guess, holders):
        assert oracle._exceptions.isdisjoint(oracle._outside)
        walked[0] += len(oracle._exceptions)
        return advance(oracle, guess, holders)

    monkeypatch.setattr(CollectionOracle, "advance", counting)
    horizon = 1000
    strategies = (*standard_strategies(1), Strategy("delay_pattern", period=2))
    for cid in sorted(CATALOG):
        for identifier in sorted(IDENTIFIERS):
            if cid == "finite_plus_all" and identifier == "telltale":
                continue  # the identifier is inapplicable there
            for k in (1, 3, 6):
                for strategy in strategies:
                    walked[0] = 0
                    scenario = GameScenario("guard", cid, k, "alg2", identifier=identifier,
                                            strategy=strategy, horizon=horizon)
                    assert run_game(scenario, CATALOG).status == "ok"
                    assert walked[0] <= 16 * horizon, (cid, identifier, k, strategy, walked[0])


def test_catch_ups_walk_only_the_new_index_elements(monkeypatch):
    # Counted work, no clock: a sweep walks only L_i's elements in its
    # run, so each round's catch-up of index t passes the multiples of t
    # up to the guess's last round. A walk over every x of each run
    # passes about H^2/2 elements here.
    walked = []
    within = Language.within

    def counting(lang, first, last):
        window = within(lang, first, last)
        walked.append(len(window))
        return window

    monkeypatch.setattr(Language, "within", counting)
    horizon = 800
    scenario = GameScenario("guard", "multiples", 2, "alg2", identifier="telltale",
                            horizon=horizon)
    outcome = run_game(scenario, catalog())
    assert outcome.status == "ok"
    assert outcome.queries[PURPOSE_DETECTOR] == 480400
    assert len(walked) >= horizon  # every round's catch-up goes through within
    assert sum(walked) <= 2 * horizon, (sum(walked), len(walked))


@pytest.mark.parametrize(
    "identifier_class", [TelltaleIdentifier, ConsistencyMinIdentifier]
)
def test_pooled_run_steps_one_identifier_and_replays_no_detector(
    monkeypatch, identifier_class
):
    calls = {"identifier": 0, "detector": 0, "made": 0, "built": 0}

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

    monkeypatch.setattr("limitlab.reduction.make_identifier", counting_make_identifier)
    build = ScanDetector.__init__

    def counting_build(self, *args):
        calls["built"] += 1
        build(self, *args)

    monkeypatch.setattr(ScanDetector, "__init__", counting_build)
    name = {cls: key for key, cls in IDENTIFIERS.items()}[identifier_class]

    def run(horizon, fresh_copies):
        calls.update(identifier=0, detector=0, made=0, built=0)
        scenario = GameScenario(
            "pin", "multiples", 6, "alg2", identifier=name,
            horizon=horizon, fresh_copies=fresh_copies,
        )
        assert run_game(scenario, CATALOG).status == "ok"

    horizon = 150
    run(horizon, fresh_copies=False)
    # one guess tape for the pool; catch-up sweeps without replaying steps
    assert calls["identifier"] <= horizon
    assert calls["detector"] == calls["built"] == 0
    assert calls["made"] == 1
    # the literal protocol keeps a private identifier in every detector
    run(10, fresh_copies=True)
    assert calls["identifier"] == calls["detector"] == sum(t * t for t in range(1, 11))
    assert calls["made"] == calls["built"] == sum(range(1, 11))


def test_consistent_set_is_antitone():
    prefix = take(EnumerationStream(
        MULTIPLES.language(4), Strategy("repeat_heavy", seed=6)
    ), 40)
    _, _, _, rounds = drive(MULTIPLES, prefix)
    dropped = set()
    for state in rounds:
        current = set(state.consistent)
        assert not (dropped & current)
        dropped |= set(range(1, state.t + 1)) - current


def test_partition_logic_at_the_final_round():
    prefix = take(EnumerationStream(MULTIPLES.language(6)), 40)
    _, reduction, _, _ = drive(MULTIPLES, prefix)
    final = reduction.last_round
    z = final.guess
    assert MULTIPLES.equals(z, 6)
    consistent = set(final.consistent)
    verdicts = sim_round_verdicts(MULTIPLES, prefix)
    assert final.accepted == tuple(i for i in final.consistent if verdicts[i - 1] == 1)
    for i in range(1, z):
        assert i not in consistent or verdicts[i - 1] == 0
    assert z in consistent and verdicts[z - 1] == 1


def test_consistency_query_bound_2t_minus_1():
    for strategy in (Strategy("canonical"), Strategy("repeat_heavy", seed=1)):
        prefix = take(EnumerationStream(MULTIPLES.language(2), strategy), 60)
        ledger = QueryLedger()
        reduction = build_reduction(MULTIPLES, ledger)
        for t, w in enumerate(prefix, start=1):
            before = ledger.totals_by_purpose()[PURPOSE_CONSISTENCY]
            reduction.step(w)
            assert ledger.totals_by_purpose()[PURPOSE_CONSISTENCY] - before <= 2 * t - 1


def test_inapplicable_inner_detectors_are_pinned_to_zero():
    fpa = CATALOG["finite_plus_all"]
    prefix = take(EnumerationStream(fpa.language(3)), 8)
    guesses, reduction, _, _ = drive(fpa, prefix)
    # every pooled detector hits the missing index-1 tell-tale immediately
    assert guesses == [1] * 8
    final = reduction.last_round
    assert final.inapplicable == tuple(range(1, 9))
    assert sim_round_verdicts(fpa, prefix, final.inapplicable) == [0] * 8
    assert final.accepted == ()


def test_run_game_wires_the_reduction():
    scenario = GameScenario(
        "alg2-run", "multiples", 4, "alg2", identifier="telltale", horizon=50,
    )
    outcome = run_game(scenario, CATALOG)
    assert outcome.status == "ok"
    assert outcome.report.stabilized
    assert outcome.report.final_output == 4
    assert outcome.transcript.final_state is not None
