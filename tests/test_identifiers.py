import pytest
from hypothesis import example, given, settings, strategies as st

from limitlab import (
    Collection,
    CollectionOracle,
    ConfigError,
    ConsistencyMinIdentifier,
    EnumerationStream,
    GameScenario,
    Inapplicable,
    Language,
    QueryLedger,
    ReductionIdentifier,
    Strategy,
    TelltaleIdentifier,
    catalog,
    run_game,
)
from limitlab.harness import identification_grid
from limitlab.identifiers import ConsistentIndices
from limitlab.languages import PURPOSE_CONSISTENCY, PURPOSE_DETECTOR

from tests.oracles import (
    LoggingLedger,
    rule_consistency_guesses,
    rule_telltale_guesses,
    sim_round_verdicts,
    take,
)

CATALOG = catalog()
MULTIPLES = CATALOG["multiples"]
PREFIXES = CATALOG["finite_prefixes"]
FINITE_SETS = CATALOG["finite_sets"]


def drive(identifier_cls, collection, prefix):
    ledger = QueryLedger()
    oracle = CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY)
    identifier = identifier_cls(collection, oracle)
    guesses = []
    ledger.open_steps(len(prefix))
    for ledger.step, w in enumerate(prefix, start=1):
        guesses.append(identifier.step(w))
    return guesses, identifier, ledger


# ---------------------------------------------------------------------------
# frozen rule-oracle values


def test_telltale_multiples_adversarial_order():
    # Computed with the literal rule oracle: no index i <= t qualifies
    # until the target's own index enters the candidate range at t = 6.
    prefix = [12, 18, 6, 24, 30, 36, 42, 48]
    expected = [1, 1, 1, 1, 1, 6, 6, 6]
    assert rule_telltale_guesses(MULTIPLES, prefix) == expected
    guesses, _, _ = drive(TelltaleIdentifier, MULTIPLES, prefix)
    assert guesses == expected


def test_telltale_prefixes_canonical():
    prefix = [1, 2, 3, 1, 2]
    expected = [1, 2, 3, 3, 3]
    assert rule_telltale_guesses(PREFIXES, prefix) == expected
    guesses, _, _ = drive(TelltaleIdentifier, PREFIXES, prefix)
    assert guesses == expected


def test_consistency_min_always_one_on_multiples():
    stream = EnumerationStream(MULTIPLES.language(2))
    prefix = take(stream, 40)
    guesses, _, _ = drive(ConsistencyMinIdentifier, MULTIPLES, prefix)
    assert guesses == [1] * 40
    assert rule_consistency_guesses(MULTIPLES, prefix[:10]) == [1] * 10


def test_consistency_min_succeeds_on_prefixes():
    guesses, _, _ = drive(ConsistencyMinIdentifier, PREFIXES, [1, 2, 3, 1, 2])
    assert guesses == [1, 2, 3, 3, 3]


def test_consistency_min_on_finite_sets_singleton():
    guesses, _, _ = drive(ConsistencyMinIdentifier, FINITE_SETS, [2, 2, 2])
    assert guesses == [1, 2, 2]


# ---------------------------------------------------------------------------
# cross-validation against the literal rule oracles


CROSS_CASES = [
    ("multiples", 6, Strategy("canonical")),
    ("multiples", 4, Strategy("block_shuffle", seed=5, block_growth=2)),
    ("multiples", 9, Strategy("repeat_heavy", seed=2)),
    ("finite_prefixes", 5, Strategy("canonical")),
    ("finite_prefixes", 7, Strategy("repeat_heavy", seed=8)),
    ("finite_sets", 11, Strategy("canonical")),
    ("finite_sets", 6, Strategy("block_shuffle", seed=3, block_growth=1)),
]


@pytest.mark.parametrize("cid,k,strategy", CROSS_CASES)
def test_telltale_matches_rule_oracle(cid, k, strategy):
    collection = CATALOG[cid]
    prefix = take(EnumerationStream(collection.language(k), strategy), 40)
    expected = rule_telltale_guesses(collection, prefix)
    guesses, _, _ = drive(TelltaleIdentifier, collection, prefix)
    assert guesses == expected


@pytest.mark.parametrize("cid,k,strategy", CROSS_CASES)
def test_consistency_min_matches_rule_oracle(cid, k, strategy):
    collection = CATALOG[cid]
    prefix = take(EnumerationStream(collection.language(k), strategy), 40)
    expected = rule_consistency_guesses(collection, prefix)
    guesses, _, _ = drive(ConsistencyMinIdentifier, collection, prefix)
    assert guesses == expected


# ---------------------------------------------------------------------------
# contract properties


def test_missing_telltale_reports_inapplicable():
    ledger = QueryLedger()
    fpa = CATALOG["finite_plus_all"]
    identifier = TelltaleIdentifier(fpa, CollectionOracle(fpa, ledger, PURPOSE_CONSISTENCY))
    with pytest.raises(Inapplicable):
        identifier.step(3)


def test_telltale_identification_builds_only_the_languages_it_reads():
    # multiples k=2, canonical: each even index is admitted at once, and
    # each odd index waits forever for its odd tell-tale, unbuilt.
    horizon, multiples = 2000, catalog()["multiples"]
    prefix = take(EnumerationStream(multiples.language(2)), horizon)
    guesses, identifier, _ = drive(TelltaleIdentifier, multiples, prefix)
    assert guesses[-1] == 2
    assert len(multiples._language_cache) <= horizon // 2 + 2
    # every waiting index is an int, filed under exactly one element: a lone
    # waiter as the int itself, more as a list of them
    filed = []
    for waiting in identifier._waiting.values():
        assert type(waiting) is int or type(waiting) is list and len(waiting) > 1
        filed.extend([waiting] if type(waiting) is int else waiting)
    assert all(type(index) is int for index in filed)
    assert sorted(filed) == list(range(1, horizon, 2))


def test_guess_sequence_is_a_function_of_the_prefix():
    prefix = take(EnumerationStream(MULTIPLES.language(3), Strategy("repeat_heavy", seed=4)), 50)
    first, _, _ = drive(TelltaleIdentifier, MULTIPLES, prefix)
    second, _, _ = drive(TelltaleIdentifier, MULTIPLES, prefix)
    assert first == second


def test_seen_set_is_monotone():
    prefix = take(EnumerationStream(PREFIXES.language(6), Strategy("repeat_heavy", seed=9)), 30)
    ledger = QueryLedger()
    identifier = TelltaleIdentifier(PREFIXES, CollectionOracle(PREFIXES, ledger, PURPOSE_CONSISTENCY))
    previous = frozenset()
    ledger.open_steps(len(prefix))
    for ledger.step, w in enumerate(prefix, start=1):
        identifier.step(w)
        seen = frozenset(identifier._indices.seen)
        assert previous <= seen
        previous = seen


# A small family repeated with period len(languages), with arbitrary
# tell-tales, so that a waiting index is often admitted below survivors.
@st.composite
def periodic_collections(draw):
    languages = draw(st.lists(
        st.one_of(
            st.integers(1, 4).map(lambda m: Language(modulus=m)),
            st.frozensets(st.integers(1, 12), max_size=4).map(
                lambda xs: Language(elements=tuple(sorted(xs)))
            ),
        ),
        min_size=1, max_size=6,
    ))
    n = len(languages)
    telltales = draw(st.lists(
        st.frozensets(st.integers(1, 12), max_size=2).map(lambda xs: tuple(sorted(xs))),
        min_size=n, max_size=n,
    ))
    return Collection(
        id="periodic",
        family=lambda i: languages[(i - 1) % n],
        telltale=lambda i: telltales[(i - 1) % n],
    )


# Index 2 (the multiples of 3) survives at step 3, when element 12 admits
# the waiting index 1 (the even numbers) below it.
LATE_BELOW = Collection(
    id="late-below",
    family=lambda i: Language(modulus=2 if i % 2 else 3),
    telltale=lambda i: (12,) if i % 2 else (6,),
)


def brute_consistent(collection, seen, t, telltales=False):
    """Indices i <= t holding every seen element (and, if asked, their tell-tale)."""
    return [
        i for i in range(1, t + 1)
        if all(collection.member(i, x) for x in seen)
        and (not telltales or set(collection.telltale(i)) <= seen)
    ]


@example(collection=LATE_BELOW, prefix=[6, 6, 12, 6])
@given(collection=periodic_collections(), prefix=st.lists(st.integers(1, 12), max_size=16))
@settings(max_examples=150, deadline=None)
def test_consistent_indices_stay_ascending_and_exact(collection, prefix):
    ledger = QueryLedger()
    identifiers = {
        cls: cls(collection, CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY))
        for cls in (TelltaleIdentifier, ConsistencyMinIdentifier)
    }
    reduction = ReductionIdentifier(
        collection, "telltale",
        CollectionOracle(collection, ledger, PURPOSE_DETECTOR),
        CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY),
    )
    seen = set()
    ledger.open_steps(len(prefix))
    for t, w in enumerate(prefix, start=1):
        ledger.step = t
        seen.add(w)
        for cls, identifier in identifiers.items():
            guess = identifier.step(w)
            alive = identifier._indices.alive
            assert alive == brute_consistent(collection, seen, t, cls is TelltaleIdentifier)
            assert all(a < b for a, b in zip(alive, alive[1:]))
            assert guess == (alive[0] if alive else 1)
        reduction.step(w)
        state = reduction.last_round
        expected = brute_consistent(collection, seen, t)
        assert list(state.consistent) == reduction._consistent.alive == expected
        assert all(a < b for a, b in zip(state.consistent, state.consistent[1:]))
        verdicts = sim_round_verdicts(collection, prefix[:t], state.inapplicable)
        assert state.accepted == tuple(i for i in expected if verdicts[i - 1] == 1)


def test_stabilization_grid_telltale_identifier():
    # Every telltale-equipped catalog collection, every target index up to
    # 12, every standard strategy and seed: stable and index-exact through
    # the horizon.
    scenarios = identification_grid(
        "telltale",
        ["multiples", "finite_prefixes", "finite_sets"],
        max_target=12,
        horizon=1000,
    )
    for scenario in scenarios:
        outcome = run_game(scenario, CATALOG)
        assert outcome.status == "ok", scenario.scenario_id
        report = outcome.report
        assert report.stabilized and report.correct_at_horizon, scenario.scenario_id
        collection = CATALOG[scenario.collection_id]
        assert collection.equals(report.final_output, scenario.target_index)
        # injective encodings: equality of languages is equality of indices
        assert report.final_output == scenario.target_index


def test_seeing_an_element_asks_the_survivors_in_one_call(monkeypatch):
    # consistency_min on {1..5} at H=1000: every survivor is asked about each
    # new element, through one ``holders`` call and no per-index ``member`` call.
    see, member = ConsistentIndices.see, CollectionOracle.member
    inside_see, member_calls_in_see = [False], [0]

    def counting_see(self, w):
        inside_see[0] = True
        try:
            return see(self, w)
        finally:
            inside_see[0] = False

    def counting_member(self, i, x):
        member_calls_in_see[0] += inside_see[0]
        return member(self, i, x)

    monkeypatch.setattr(ConsistentIndices, "see", counting_see)
    monkeypatch.setattr(CollectionOracle, "member", counting_member)
    scenario = GameScenario("see-guard", "finite_prefixes", 5, "consistency_min", horizon=1000)
    outcome = run_game(scenario, CATALOG)
    assert outcome.queries[PURPOSE_CONSISTENCY] > 1000
    assert member_calls_in_see[0] == 0


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_admitting_an_index_asks_the_seen_set_in_one_call(monkeypatch, cached):
    # Multiples, seen 6, 9, 4, 12 in that order: L_3 misses 4, L_2 misses 9, L_1
    # holds all. Admission asks the seen elements in first-sight order, up to and
    # including the first miss, and bills them in one record call; a cached
    # handle bills only the keys it had not been asked.
    asked: list[tuple[int, int]] = []
    member = Language.member

    def logging_member(self, x):
        asked.append((self.modulus, x))
        return member(self, x)

    ledger = LoggingLedger()
    ledger.open_steps(1)
    ledger.step = 1
    oracle = CollectionOracle(MULTIPLES, ledger, PURPOSE_CONSISTENCY, cached=cached)
    indices = ConsistentIndices(oracle)
    for w in (6, 9, 4, 12):
        indices.see(w)
    assert ledger.log == [] and indices.alive == []
    oracle.member(3, 9)
    ledger.log.clear()
    monkeypatch.setattr(Language, "member", logging_member)
    for index in (3, 2, 1):
        indices.admit(index)
    assert asked == [(3, 6), (3, 9), (3, 4), (2, 6), (2, 9), (1, 6), (1, 9), (1, 4), (1, 12)]
    assert indices.alive == [1]
    bills = [2, 2, 4] if cached else [3, 2, 4]  # cached: (3, 9) was asked before
    assert ledger.log == [(1, PURPOSE_CONSISTENCY, n) for n in bills]
    ledger.log.clear()
    indices.admit(3)
    assert ledger.log == ([] if cached else [(1, PURPOSE_CONSISTENCY, 3)])
    # a bad index or element raises and bills nothing; a cached handle marks no key
    for index, xs in ((0, [6]), (True, [6]), (3.0, [6]), ("3", [6]),
                      (5, [10, 0]), (5, [10, 5.0]), (5, [10, True]), (5, [10, "5"])):
        with pytest.raises(ConfigError):
            oracle.holds_all(index, xs)
    assert oracle.holds_all(5, [])  # asks nothing
    assert ledger.log == ([] if cached else [(1, PURPOSE_CONSISTENCY, 3)])
    ledger.log.clear()
    oracle.member(5, 10)
    assert ledger.log == [(1, PURPOSE_CONSISTENCY, 1)]
