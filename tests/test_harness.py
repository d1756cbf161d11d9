import json
from dataclasses import replace

import pytest

from limitlab import (
    Collection,
    ConfigError,
    GameScenario,
    Inapplicable,
    Language,
    Strategy,
    analyze_stabilization,
    candidate_subset_of,
    catalog,
    check_angluin,
    detection_grid,
    domain_candidate,
    empty_candidate,
    language_candidate,
    replay_certificate,
    run_game,
    run_roundtrip,
    run_sweep,
    scenario_from_config,
    scenario_to_config,
    standard_candidates,
    sweep_to_csv,
    transcript_to_jsonl,
    union_candidate,
)
from limitlab.harness import (
    VERDICT_INCONCLUSIVE,
    VERDICT_SATISFIED,
    VERDICT_VIOLATION,
    least_nonmember,
    proper_subset_index,
    proper_superset_index,
)

from tests.oracles import (
    candidate_members_upto,
    language_members_upto,
    reference_transcript_to_jsonl,
)

CATALOG = catalog()
MULTIPLES = CATALOG["multiples"]
PREFIXES = CATALOG["finite_prefixes"]
FINITE_PLUS_ALL = CATALOG["finite_plus_all"]


# ---------------------------------------------------------------------------
# run_game


def test_run_game_negex_contained():
    scenario = GameScenario(
        "h1", "multiples", 2, "negex", candidate=language_candidate(MULTIPLES, 4), horizon=50
    )
    outcome = run_game(scenario, CATALOG)
    assert outcome.report.stabilized and outcome.report.t_star == 1
    assert outcome.report.final_output == 1


def test_run_game_negex_witnessed():
    scenario = GameScenario(
        "h2", "multiples", 2, "negex", candidate=language_candidate(MULTIPLES, 3), horizon=50
    )
    outcome = run_game(scenario, CATALOG)
    assert outcome.report.stabilized and outcome.report.t_star == 3
    assert outcome.report.final_output == 0


def test_run_game_consistency_min_failure():
    scenario = GameScenario("h3", "multiples", 2, "consistency_min", horizon=100)
    outcome = run_game(scenario, CATALOG)
    assert not outcome.report.correct_at_horizon
    assert outcome.report.final_output == 1


def test_run_game_validates_scenarios():
    with pytest.raises(ConfigError):
        run_game(GameScenario("bad", "mystery", 1, "negex", candidate=empty_candidate()), CATALOG)
    with pytest.raises(ConfigError):
        run_game(GameScenario("bad", "multiples", 1, "negex"), CATALOG)  # no candidate
    with pytest.raises(ConfigError):
        run_game(
            GameScenario("bad", "multiples", 1, "telltale", candidate=empty_candidate()),
            CATALOG,
        )
    with pytest.raises(ConfigError):
        run_game(GameScenario("bad", "multiples", 1, "negex", candidate=empty_candidate(), horizon=0), CATALOG)
    with pytest.raises(ConfigError):
        run_game(GameScenario("bad", "multiples", 1, "alg1", candidate=empty_candidate()), CATALOG)


def test_stabilization_report_recomputable_from_transcript():
    scenarios = [
        GameScenario("s1", "multiples", 2, "negex",
                     candidate=language_candidate(MULTIPLES, 3),
                     strategy=Strategy("repeat_heavy", seed=3), horizon=80),
        GameScenario("s2", "finite_prefixes", 4, "telltale",
                     strategy=Strategy("block_shuffle", seed=2, block_growth=2), horizon=80),
        GameScenario("s3", "multiples", 3, "alg2", identifier="telltale", horizon=40),
    ]
    for scenario in scenarios:
        outcome = run_game(scenario, CATALOG)
        outputs = [row.output for row in outcome.transcript.rows]
        if scenario.algorithm == "negex":
            expected = 1 if outcome.ground_truth_subset else 0
            report = analyze_stabilization(outputs, lambda v: v == expected)
        else:
            collection = CATALOG[scenario.collection_id]
            report = analyze_stabilization(
                outputs, lambda g: collection.equals(g, scenario.target_index)
            )
        assert report == outcome.report


def test_ground_truth_matches_exhaustive_membership_on_the_grid():
    for collection in CATALOG.values():
        for k in (1, 2, 5, 8):
            target = collection.language(k)
            target_below = language_members_upto(target, 200)
            for _, candidate in standard_candidates(collection, k):
                decided = candidate_subset_of(candidate, target)
                assert decided == (
                    candidate_members_upto(candidate, 200) <= target_below
                ), (collection.id, k, candidate.describe())


def test_duplicate_collection_identification_uses_language_equality():
    everything = Language(modulus=1)
    dup = Collection(
        id="dup",
        family=lambda i: everything,
        telltale=lambda i: (1,),
    )
    collections = {"dup": dup}
    scenario = GameScenario("dup-run", "dup", 3, "telltale", horizon=30)
    outcome = run_game(scenario, collections)
    # the guess settles on index 1, a duplicate occurrence of the target
    assert outcome.report.stabilized
    assert outcome.report.final_output == 1
    assert outcome.report.correct_at_horizon


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_row_count_matches_grid_product():
    scenarios = detection_grid("negex", ["finite_prefixes"], max_target=3, horizon=30)
    # finite_prefixes: k=1 has no proper subset, so 5 specs; k>=2 have 6.
    assert len(scenarios) == (5 + 6 + 6) * 3 * 2
    rows = run_sweep(scenarios, CATALOG)
    assert len(rows) == len(scenarios)
    assert all(row["status"] == "ok" for row in rows)
    assert all(row["correct_at_horizon"] == "true" for row in rows)


def test_sweep_is_byte_identical_across_runs():
    scenarios = detection_grid("negex", ["multiples"], max_target=2, horizon=40)
    first = sweep_to_csv(run_sweep(scenarios, CATALOG))
    second = sweep_to_csv(run_sweep(scenarios, catalog()))
    assert first == second
    assert first.endswith("\n")


def test_sweep_captures_failures_and_continues():
    scenarios = [
        GameScenario("ok-run", "multiples", 2, "negex",
                     candidate=language_candidate(MULTIPLES, 4), horizon=10),
        GameScenario("inapplicable-run", "finite_plus_all", 2, "telltale", horizon=10),
        GameScenario("broken-run", "multiples", 2, "negex", horizon=10),
    ]
    rows = run_sweep(scenarios, CATALOG)
    by_id = {row["scenario_id"]: row for row in rows}
    assert by_id["ok-run"]["status"] == "ok"
    assert by_id["inapplicable-run"]["status"] == "inapplicable"
    assert by_id["broken-run"]["status"] == "error"
    assert "candidate" in by_id["broken-run"]["detail"]


def test_block_growth_is_bounded_by_the_horizon():
    at_bound = GameScenario("at-bound", "multiples", 2, "telltale", horizon=10,
                            strategy=Strategy("block_shuffle", seed=1, block_growth=10))
    over = replace(at_bound, scenario_id="over", horizon=9)
    rows = {row["scenario_id"]: row for row in run_sweep([at_bound, over], CATALOG)}
    assert rows["at-bound"]["status"] == "ok"
    assert rows["over"]["status"] == "error"
    assert "block_growth" in rows["over"]["detail"]


def test_sweep_rejects_duplicate_ids():
    scenario = GameScenario("same", "multiples", 2, "consistency_min", horizon=5)
    with pytest.raises(ConfigError):
        run_sweep([scenario, scenario], CATALOG)


# ---------------------------------------------------------------------------
# the tell-tale condition checker


def test_checker_full_domain_index_is_always_violated():
    result = check_angluin(FINITE_PLUS_ALL, 1, telltale=[1, 2, 3], bounds=(64, 64))
    assert result.verdict == VERDICT_VIOLATION
    assert result.witness_index == 8  # the language {1, 2, 3}
    assert replay_certificate(FINITE_PLUS_ALL, result)


def test_checker_prefix_telltales_are_exact():
    result = check_angluin(PREFIXES, 5)
    assert result.verdict == VERDICT_SATISFIED
    assert result.method == "closed_form"


def test_checker_multiples_singleton_telltale_reported_satisfied():
    # Empirical answer to the open case: the closed-form search finds no
    # family member strictly between {i} and the multiples of i.
    for i in (2, 3, 12):
        result = check_angluin(MULTIPLES, i)
        assert result.verdict == VERDICT_SATISFIED
    # A loose tell-tale, by contrast, is violated and replays.
    loose = check_angluin(MULTIPLES, 2, telltale=[8])
    assert loose.verdict == VERDICT_VIOLATION and loose.witness_index == 8
    assert replay_certificate(MULTIPLES, loose)


def test_checker_closed_form_matches_bounded_search_on_small_indices():
    # Strip the closed form off a catalog copy to force the generic search.
    for cid in ("finite_prefixes", "finite_sets"):
        original = CATALOG[cid]
        stripped = Collection(
            id=original.id,
            family=original.language,
            telltale=original.telltale,
        )
        for i in range(1, 17):
            exact = check_angluin(original, i, bounds=(256, 256))
            searched = check_angluin(stripped, i, bounds=(256, 256))
            if exact.verdict == VERDICT_SATISFIED:
                assert searched.verdict == VERDICT_INCONCLUSIVE
            else:
                assert searched.verdict == exact.verdict


def test_checker_requires_a_telltale():
    with pytest.raises(ConfigError):
        check_angluin(FINITE_PLUS_ALL, 1)
    with pytest.raises(ConfigError):
        check_angluin(MULTIPLES, 2, telltale=[3])  # not a subset of L_2


def test_certificates_replay_through_membership_only():
    for telltale in ([], [2], [1, 4], [3, 5, 9]):
        result = check_angluin(FINITE_PLUS_ALL, 1, telltale=telltale, bounds=(64, 64))
        assert result.verdict == VERDICT_VIOLATION
        assert replay_certificate(FINITE_PLUS_ALL, result)


# ---------------------------------------------------------------------------
# round trip


def test_roundtrip_agreement_on_prefixes():
    result = run_roundtrip("finite_prefixes", 2, horizon=60)
    assert result.agreement
    assert result.identifier_run.report.final_output == 2
    assert result.reduced_run.report.final_output == 2
    assert result.detector_run.report.final_output == 1  # target against itself


def test_roundtrip_agreement_on_multiples():
    result = run_roundtrip("multiples", 6, horizon=80)
    assert result.agreement
    assert result.identifier_run.report.final_output == 6
    assert MULTIPLES.equals(result.reduced_run.report.final_output, 6)


def test_roundtrip_refuses_collections_without_telltales():
    with pytest.raises(Inapplicable):
        run_roundtrip("finite_plus_all", 2, horizon=20)


# ---------------------------------------------------------------------------
# grid helpers


def test_superset_and_subset_pickers_are_sound():
    for collection in CATALOG.values():
        for k in range(1, 9):
            sup = proper_superset_index(collection, k)
            if sup is not None:
                assert collection.subset_of(k, sup) and not collection.equals(k, sup)
            sub = proper_subset_index(collection, k)
            if sub is not None:
                assert collection.subset_of(sub, k) and not collection.equals(sub, k)
            outsider = least_nonmember(collection.language(k))
            if outsider is not None:
                assert not collection.member(k, outsider)
                assert all(collection.member(k, x) for x in range(1, outsider))


# ---------------------------------------------------------------------------
# serialization


def test_scenario_config_roundtrip():
    scenarios = [
        GameScenario("c1", "multiples", 2, "negex",
                     candidate=union_candidate(language_candidate(MULTIPLES, 3), [7]),
                     strategy=Strategy("repeat_heavy", seed=5, repeat_num=2, repeat_den=3),
                     horizon=25),
        GameScenario("c2", "finite_prefixes", 3, "alg1",
                     candidate=domain_candidate(), identifier="telltale",
                     strategy=Strategy("block_shuffle", seed=1, block_growth=4), horizon=10),
        GameScenario("c3", "finite_sets", 6, "alg2", identifier="consistency_min",
                     fresh_copies=True, horizon=12),
        GameScenario("c4", "multiples", 9, "telltale", horizon=15),
    ]
    for scenario in scenarios:
        config = scenario_to_config(scenario)
        assert scenario_from_config(json.loads(json.dumps(config)), CATALOG) == scenario


def test_scenario_config_rejects_labeled_detector_in_reduction():
    config = {
        "scenario_id": "x",
        "collection": "multiples",
        "target_index": 2,
        "algorithm": {"name": "alg2", "params": {"detector": "negex", "identifier": "telltale"}},
        "horizon": 5,
    }
    with pytest.raises(ConfigError):
        scenario_from_config(config, CATALOG)


def test_transcript_wire_format():
    scenario = GameScenario(
        "wire", "multiples", 2, "negex", candidate=language_candidate(MULTIPLES, 3), horizon=4
    )
    outcome = run_game(scenario, CATALOG)
    lines = transcript_to_jsonl(outcome).strip().split("\n")
    meta = json.loads(lines[0])["meta"]
    assert meta["scenario_id"] == "wire" and meta["rng_algorithm"] == "mt19937"
    rows = [json.loads(line) for line in lines[1:]]
    assert [r["t"] for r in rows] == [1, 2, 3, 4]
    assert all({"w", "y", "verdict", "fresh_candidate_queries",
                "fresh_collection_queries_by_purpose"} <= set(r) for r in rows)

    ident = run_game(GameScenario("wire2", "multiples", 2, "telltale", horizon=3), CATALOG)
    rows = [json.loads(line) for line in transcript_to_jsonl(ident).strip().split("\n")[1:]]
    assert all("guess" in r and "y" not in r for r in rows)

    reduced = run_game(
        GameScenario("wire3", "multiples", 2, "alg2", identifier="telltale", horizon=3), CATALOG
    )
    last = json.loads(transcript_to_jsonl(reduced).strip().split("\n")[-1])
    assert set(last["final_state"]) == {"t", "consistent", "accepted", "guess", "inapplicable"}


SERIALIZER_CASES = [
    GameScenario("ser-negex", "multiples", 2, "negex",
                 candidate=language_candidate(MULTIPLES, 3),
                 strategy=Strategy("repeat_heavy", seed=4), horizon=80),
    GameScenario("ser-negex-in", "finite_prefixes", 9, "negex",
                 candidate=language_candidate(PREFIXES, 4), horizon=40),
    GameScenario("ser-alg1", "multiples", 6, "alg1", identifier="telltale",
                 candidate=language_candidate(MULTIPLES, 4),
                 strategy=Strategy("block_shuffle", seed=2), horizon=80),
    GameScenario("ser-alg1-min", "finite_prefixes", 5, "alg1", identifier="consistency_min",
                 candidate=domain_candidate(), horizon=40),
    GameScenario("ser-telltale", "multiples", 6, "telltale",
                 strategy=Strategy("delay_pattern", seed=3), horizon=80),
    GameScenario("ser-consistency-min", "finite_prefixes", 7, "consistency_min", horizon=60),
    GameScenario("ser-alg2", "multiples", 6, "alg2", identifier="telltale", horizon=60),
    GameScenario("ser-alg2-fresh", "multiples", 4, "alg2", identifier="consistency_min",
                 fresh_copies=True, horizon=12),
    GameScenario("ser-alg2-pinned", "finite_plus_all", 3, "alg2", identifier="telltale",
                 horizon=10),
    GameScenario("ser-inapplicable", "finite_plus_all", 2, "telltale", horizon=10),
]


@pytest.mark.parametrize("scenario", SERIALIZER_CASES, ids=lambda s: s.scenario_id)
def test_transcript_rows_match_reference_serializer(scenario):
    outcome = run_game(scenario, CATALOG)
    inapplicable = scenario.scenario_id == "ser-inapplicable"
    assert (outcome.status == "inapplicable") == inapplicable
    assert bool(outcome.transcript.rows) != inapplicable  # stops before step 1
    assert (outcome.transcript.final_state is not None) == (scenario.algorithm == "alg2")
    for row in outcome.transcript.rows:
        for name, value in row._asdict().items():
            if name == "y" and scenario.algorithm != "negex":
                assert value is None
            else:
                # %d writes True as 1 where JSON writes true
                assert type(value) is int, (name, value)
    assert transcript_to_jsonl(outcome) == reference_transcript_to_jsonl(outcome)
