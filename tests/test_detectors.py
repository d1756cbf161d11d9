import pytest
from hypothesis import given, settings, strategies as st

from limitlab import (
    CollectionOracle,
    GameScenario,
    LabeledStream,
    QueryLedger,
    Strategy,
    candidate_subset_of,
    catalog,
    domain_candidate,
    empty_candidate,
    language_candidate,
    run_game,
    union_candidate,
)
from limitlab.identifiers import make_identifier
from limitlab.languages import PURPOSE_CONSISTENCY

from tests.oracles import negex_expected_t_star, negex_flag_step, sim_scan_verdicts

CATALOG = catalog()
MULTIPLES = CATALOG["multiples"]
PREFIXES = CATALOG["finite_prefixes"]


def run(scenario):
    outcome = run_game(scenario, CATALOG)
    assert outcome.status == "ok"
    return outcome


def inner_guesses(outcome, collection):
    """An alg1 run's identifier guesses: a fresh identifier over its w column."""
    identifier = make_identifier(
        outcome.scenario.identifier, collection,
        CollectionOracle(collection, QueryLedger(), PURPOSE_CONSISTENCY),
    )
    return [identifier.step(row.w) for row in outcome.transcript.rows]


# ---------------------------------------------------------------------------
# identify-then-scan detection


def test_scan_detector_flags_superset_candidate():
    scenario = GameScenario(
        "alg1-prefix", "finite_prefixes", 3, "alg1",
        candidate=language_candidate(PREFIXES, 4), identifier="telltale", horizon=10,
    )
    outcome = run(scenario)
    verdicts = [row.output for row in outcome.transcript.rows]
    # identifier correct from t=3; the witness element 4 enters the scan at t=4
    assert verdicts == [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    assert outcome.report.stabilized and outcome.report.t_star == 4
    assert inner_guesses(outcome, PREFIXES)[:4] == [1, 2, 3, 3]


def test_scan_detector_accepts_contained_candidate():
    scenario = GameScenario(
        "alg1-mult", "multiples", 2, "alg1",
        candidate=language_candidate(MULTIPLES, 4), identifier="telltale", horizon=60,
    )
    outcome = run(scenario)
    assert outcome.ground_truth_subset is True
    assert all(row.output == 1 for row in outcome.transcript.rows)
    assert outcome.report.t_star == 1


def test_scan_detector_empty_candidate_is_always_clean():
    scenario = GameScenario(
        "alg1-empty", "multiples", 5, "alg1",
        candidate=empty_candidate(), identifier="telltale", horizon=30,
    )
    outcome = run(scenario)
    assert all(row.output == 1 for row in outcome.transcript.rows)


SCAN_CASES = [
    ("multiples", 2, language_candidate(MULTIPLES, 3)),
    ("multiples", 3, language_candidate(MULTIPLES, 6)),
    ("multiples", 2, union_candidate(language_candidate(MULTIPLES, 2), [7])),
    ("finite_prefixes", 4, language_candidate(PREFIXES, 2)),
    ("finite_prefixes", 2, domain_candidate()),
]


@pytest.mark.parametrize("cid,k,candidate", SCAN_CASES, ids=range(len(SCAN_CASES)))
def test_scan_detector_matches_literal_simulation(cid, k, candidate):
    collection = CATALOG[cid]
    scenario = GameScenario(
        "alg1-sim", cid, k, "alg1", candidate=candidate, identifier="telltale",
        strategy=Strategy("block_shuffle", seed=6, block_growth=2), horizon=24,
    )
    outcome = run(scenario)
    prefix = [row.w for row in outcome.transcript.rows]
    expected = sim_scan_verdicts(collection, prefix, candidate.member)
    assert [row.output for row in outcome.transcript.rows] == expected


def test_scan_detector_conditional_correctness_bound():
    # Once the inner guesses settle on the target's index, verdicts match
    # the ground truth from max(settle step, least witness value) onward.
    candidate = language_candidate(MULTIPLES, 3)
    scenario = GameScenario(
        "alg1-bound", "multiples", 6, "alg1", candidate=candidate,
        identifier="telltale", horizon=200,
    )
    outcome = run(scenario)
    guesses = inner_guesses(outcome, MULTIPLES)
    k = scenario.target_index
    settle = next(
        t for t in range(1, len(guesses) + 2)
        if all(MULTIPLES.equals(g, k) for g in guesses[t - 1:])
    )
    witness_rank = 3  # least element of the candidate outside the target
    expected = 1 if candidate_subset_of(candidate, MULTIPLES.language(k)) else 0
    start = max(settle, witness_rank)
    assert all(row.output == expected for row in outcome.transcript.rows[start - 1:])
    assert outcome.report.t_star <= start


def test_scan_detector_per_step_query_bounds():
    scenario = GameScenario(
        "alg1-queries", "multiples", 4, "alg1",
        candidate=language_candidate(MULTIPLES, 2), identifier="telltale",
        strategy=Strategy("repeat_heavy", seed=3), horizon=300,
    )
    outcome = run(scenario)
    for row in outcome.transcript.rows:
        assert row.fresh_candidate <= row.t
        assert row.fresh_consistency <= 2 * row.t
        assert row.fresh_detector <= 2 * row.t


def test_scan_detector_inapplicable_identifier_propagates():
    scenario = GameScenario(
        "alg1-fpa", "finite_plus_all", 2, "alg1",
        candidate=language_candidate(CATALOG["finite_plus_all"], 3),
        identifier="telltale", horizon=10,
    )
    outcome = run_game(scenario, CATALOG)
    assert outcome.status == "inapplicable"
    assert "tell-tale" in outcome.detail
    assert outcome.report is None


# ---------------------------------------------------------------------------
# negative-example detection


def test_negex_example_from_the_multiples_game():
    scenario = GameScenario(
        "negex-l3", "multiples", 2, "negex",
        candidate=language_candidate(MULTIPLES, 3), horizon=6,
    )
    outcome = run(scenario)
    assert [row.output for row in outcome.transcript.rows] == [1, 1, 0, 0, 0, 0]


def test_negex_domain_candidate_flags_first_zero_label():
    scenario = GameScenario(
        "negex-all", "finite_prefixes", 3, "negex",
        candidate=domain_candidate(), horizon=10,
    )
    outcome = run(scenario)
    verdicts = [row.output for row in outcome.transcript.rows]
    first_zero = next(row.t for row in outcome.transcript.rows if row.y == 0)
    assert all(v == 0 for v in verdicts[first_zero - 1 :])
    assert all(v == 1 for v in verdicts[: first_zero - 1])


def test_negex_contained_candidate_never_flags():
    for candidate in (language_candidate(MULTIPLES, 4), empty_candidate()):
        scenario = GameScenario(
            "negex-sub", "multiples", 2, "negex", candidate=candidate, horizon=80,
        )
        outcome = run(scenario)
        assert all(row.output == 1 for row in outcome.transcript.rows)
        assert outcome.report.t_star == 1


def test_negex_query_accounting_is_exact():
    scenario = GameScenario(
        "negex-queries", "multiples", 2, "negex",
        candidate=language_candidate(MULTIPLES, 3),
        strategy=Strategy("repeat_heavy", seed=5), horizon=120,
    )
    outcome = run(scenario)
    flagged = False
    for row in outcome.transcript.rows:
        expected = 1 if (row.y == 0 and not flagged) else 0
        assert row.fresh_candidate == expected, row
        assert row.fresh_consistency == 0 and row.fresh_detector == 0
        if row.output == 0:
            flagged = True


@settings(max_examples=80, deadline=None)
@given(
    cid=st.sampled_from(list(CATALOG)),
    k=st.integers(min_value=1, max_value=10),
    strategy=st.sampled_from(
        [Strategy("canonical"), Strategy("repeat_heavy", seed=7), Strategy("block_shuffle", seed=7, block_growth=2)]
    ),
    pick=st.integers(min_value=0, max_value=3),
)
def test_negex_exact_characterization_and_monotonicity(cid, k, strategy, pick):
    collection = CATALOG[cid]
    candidates = [
        language_candidate(collection, k),
        language_candidate(collection, k + 1),
        domain_candidate(),
        union_candidate(language_candidate(collection, k), [k + 13]),
    ]
    candidate = candidates[pick]
    scenario = GameScenario(
        "negex-prop", cid, k, "negex", candidate=candidate, strategy=strategy, horizon=60,
    )
    outcome = run(scenario)
    pairs = [(row.w, row.y) for row in outcome.transcript.rows]
    flag_step = negex_flag_step(pairs, candidate.member)
    zero_seen = False
    for row in outcome.transcript.rows:
        # verdict 0 exactly when some earlier pair was a 0-labeled member
        expected = 0 if (flag_step is not None and row.t >= flag_step) else 1
        assert row.output == expected
        if row.output == 0:
            zero_seen = True
        if zero_seen:
            assert row.output == 0  # monotone once zero


def test_negex_stabilization_bound_holds():
    candidate = language_candidate(MULTIPLES, 2)
    scenario = GameScenario(
        "negex-bound", "multiples", 4, "negex", candidate=candidate,
        strategy=Strategy("block_shuffle", seed=9, block_growth=3), horizon=200,
    )
    outcome = run(scenario)
    expected_t_star, least_step = negex_expected_t_star(scenario, MULTIPLES)
    assert outcome.report.t_star == expected_t_star
    assert least_step is None or expected_t_star <= least_step
