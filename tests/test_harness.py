import gc
import hashlib
import json
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from itertools import combinations, zip_longest

import pytest

from limitlab import (
    Collection,
    ConfigError,
    EnumerationStream,
    GameScenario,
    Inapplicable,
    Language,
    QueryLedger,
    StepRecord,
    Strategy,
    Transcript,
    analyze_stabilization,
    candidate_subset_of,
    catalog,
    check_angluin,
    detection_grid,
    domain_candidate,
    empty_candidate,
    identification_grid,
    language_candidate,
    minus_candidate,
    replay_certificate,
    report_to_dict,
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
from limitlab import cli, harness
from limitlab.harness import (
    STEP_BLOCK,
    TRANSCRIPT_CHUNK_ROWS,
    VERDICT_INCONCLUSIVE,
    VERDICT_SATISFIED,
    VERDICT_VIOLATION,
    least_nonmember,
    proper_subset_index,
    proper_superset_index,
    transcript_chunks,
)
from limitlab.languages import PURPOSE_CANDIDATE, PURPOSE_CONSISTENCY, PURPOSE_DETECTOR, PURPOSES

from tests.oracles import (
    KeyRecordingOracle,
    LoggingLedger,
    brute_strictness_element,
    candidate_members_upto,
    language_members_upto,
    reference_transcript_to_jsonl,
    stepwise_run_game,
)
from tests.test_cli import with_field
from tests.test_golden import corpus

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


BIG = 10**12


@pytest.mark.parametrize("collection, target, minus, expected", [
    ("multiples", 1, (), True),
    ("multiples", 2, (), False),
    ("multiples", 2, range(1, 12, 2), False),
    ("finite_prefixes", BIG - 2, (), False),
    ("finite_prefixes", BIG - 2, (BIG - 1, BIG), True),
    ("finite_prefixes", BIG - 2, (5, BIG), False),
])
def test_ground_truth_over_a_huge_prefix_core_is_closed_form(
    monkeypatch, collection, target, minus, expected
):
    # Walking the core {1..10^12} element by element would take hours:
    # fail fast on a walk rather than hang.
    member, calls = Language.member, []

    def counted(lang, x):
        calls.append(x)
        assert len(calls) < 10_000, "the ground truth walks the candidate's core"
        return member(lang, x)

    monkeypatch.setattr(Language, "member", counted)
    candidate = minus_candidate(language_candidate(PREFIXES, BIG), minus)
    scenario = GameScenario("big", collection, target, "negex", candidate=candidate, horizon=5)
    outcome = run_game(scenario, CATALOG)
    assert outcome.ground_truth_subset is expected


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


# ok, unstabilized, inapplicable and error rows; the error detail holds commas
MIXED_SWEEP = [
    GameScenario("ok-negex", "multiples", 2, "negex",
                 candidate=language_candidate(MULTIPLES, 4), horizon=12),
    GameScenario("ok-alg1", "finite_prefixes", 3, "alg1", identifier="telltale",
                 candidate=language_candidate(PREFIXES, 4), horizon=12),
    GameScenario("ok-alg2", "multiples", 3, "alg2", identifier="telltale", horizon=12),
    GameScenario("unstabilized", "multiples", 2, "consistency_min", horizon=12),
    GameScenario("inapplicable", "finite_plus_all", 2, "telltale", horizon=12),
    GameScenario("error-commas", "multiples", 2, "nosuch", horizon=12),
]
MIXED_SWEEP_DIGEST = "7cb29139c73088568159d2b7d7c7eeec3236f8245fa3272e87543cc08f01cf81"


def test_sweep_csv_is_pinned_for_a_mixed_sweep():
    text = sweep_to_csv(run_sweep(MIXED_SWEEP, CATALOG))
    assert '"algorithm: unknown name \'nosuch\' (known: telltale, ' in text
    assert hashlib.sha256(text.encode()).hexdigest() == MIXED_SWEEP_DIGEST


def test_user_paths_build_no_rows(tmp_path, monkeypatch):
    # Sweeps and `limitlab run` render from the transcript columns alone.
    scenarios = tmp_path / "scenarios.json"
    # the error row cannot come from a scenario file: it fails validation
    scenarios.write_text(json.dumps([scenario_to_config(s) for s in MIXED_SWEEP[:-1]]))
    alg2 = tmp_path / "alg2.json"
    alg2.write_text(json.dumps(scenario_to_config(
        GameScenario("alg2", "multiples", 4, "alg2", identifier="telltale", horizon=30)
    )))
    commands = [
        ["run", "--collection", "multiples", "--target", "2", "--detector", "negex",
         "--g", "lang:3", "--strategy", "repeat_heavy", "--horizon", "60", "--id", "negex"],
        ["run", "--scenario", str(alg2)],
        ["sweep", "--scenarios", str(scenarios)],
    ]
    for argv in commands:
        assert cli.main(argv + ["--out", str(tmp_path / "rows")]) == 0

    def no_rows(transcript):
        raise AssertionError("a user path built Transcript.rows")

    monkeypatch.setattr(Transcript, "rows", property(no_rows))
    text = sweep_to_csv(run_sweep(MIXED_SWEEP, CATALOG))
    assert hashlib.sha256(text.encode()).hexdigest() == MIXED_SWEEP_DIGEST
    for argv in commands:
        assert cli.main(argv + ["--out", str(tmp_path / "columns")]) == 0
    written = sorted(path.name for path in (tmp_path / "rows").iterdir())
    assert len(written) == 5
    for name in written:
        assert (tmp_path / "columns" / name).read_bytes() == (tmp_path / "rows" / name).read_bytes()


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


# The documented contract: every algorithm and the params it takes, in wire order.
ALGORITHM_CONTRACT = {
    "telltale": (),
    "consistency_min": (),
    "negex": (),
    "alg1": ("identifier",),
    "alg2": ("identifier", "fresh_copies"),
}
UNTAKEN_VALUES = {"identifier": "consistency_min", "fresh_copies": True}


def contract_scenario(algorithm, scenario_id="good", **fields):
    """A valid short run of ``algorithm`` on the even numbers, ``fields`` put in."""
    base = {"horizon": 5}
    if algorithm in ("negex", "alg1"):
        base["candidate"] = language_candidate(MULTIPLES, 4)
    if "identifier" in ALGORITHM_CONTRACT[algorithm]:
        base["identifier"] = "telltale"
    return GameScenario(scenario_id, "multiples", 2, algorithm, **{**base, **fields})


def assert_refused_by_game_and_sweep(bad, message):
    with pytest.raises(ConfigError) as exc:
        run_game(bad, CATALOG)
    assert str(exc.value) == message
    # the bad id, "bad" or 5, sorts before "good"
    rows = run_sweep([contract_scenario("telltale"), bad], CATALOG)
    assert [(row["scenario_id"], row["status"], row["detail"]) for row in rows] == [
        (bad.scenario_id, "error", message), ("good", "ok", "")
    ]


def test_the_algorithm_table_is_the_documented_contract():
    assert harness.ALGORITHM_PARAMS == ALGORITHM_CONTRACT


@pytest.mark.parametrize("algorithm, key", [
    (algorithm, key)
    for algorithm, taken in ALGORITHM_CONTRACT.items()
    for key in UNTAKEN_VALUES
    if key not in taken
])
def test_untaken_params_are_refused_however_the_scenario_is_built(algorithm, key):
    message = f"algorithm: {algorithm!r} takes no param {key!r}"
    assert_refused_by_game_and_sweep(
        contract_scenario(algorithm, "bad", **{key: UNTAKEN_VALUES[key]}), message
    )
    # a scenario file gets the same text
    config = scenario_to_config(contract_scenario(algorithm))
    config["algorithm"]["params"][key] = UNTAKEN_VALUES[key]
    with pytest.raises(ConfigError) as exc:
        scenario_from_config(config, CATALOG)
    assert str(exc.value) == message


@pytest.mark.parametrize("algorithm, field, value, message", [
    ("alg2", "fresh_copies", "no", "fresh_copies: expected a boolean, got 'no'"),
    ("telltale", "fresh_copies", 0, "fresh_copies: expected a boolean, got 0"),
    ("telltale", "horizon", True, "horizon: expected an integer, got True"),
    ("telltale", "horizon", 2.5, "horizon: expected an integer, got 2.5"),
    ("telltale", "horizon", "5", "horizon: expected an integer, got '5'"),
    ("telltale", "scenario_id", 5, "scenario_id: expected a string, got 5"),
    ("telltale", "collection_id", ["m"], "collection: expected a string, got ['m']"),
    ("telltale", "algorithm", ["telltale"],
     "algorithm: unknown name ['telltale'] (known: telltale, consistency_min, negex, alg1, alg2)"),
    ("telltale", "strategy", "canonical", "strategy: expected a Strategy, got 'canonical'"),
    ("negex", "candidate", "x", "candidate: expected a CandidateSet, got 'x'"),
])
def test_python_scenarios_get_the_field_types_a_file_must_have(algorithm, field, value, message):
    bad = contract_scenario(algorithm, "bad")
    assert_refused_by_game_and_sweep(replace(bad, **{field: value}), message)


@pytest.mark.parametrize("path, value, message", [
    (("horizn",), 5, "scenario takes no field 'horizn'"),
    (("algorithm", "nme"), "alg1", "algorithm takes no field 'nme'"),
    (("adversary", "sed"), 3, "adversary takes no field 'sed'"),
    (("adversary", "params", "period"), 3, "adversary: 'canonical' takes no param 'period'"),
    (("adversary",), {"strategy": "delay_pattern", "params": {"perod": 3}},
     "adversary: 'delay_pattern' takes no param 'perod'"),
    (("candidate", "parms"), {}, "candidate takes no field 'parms'"),
    (("candidate",), {"kind": "all_of_domain", "params": {"elements": [1]}},
     "candidate: 'all_of_domain' takes no param 'elements'"),
    (("candidate", "params", "base"), {"kind": "empty"},
     "candidate: 'language_of' takes no param 'base'"),
    (("candidate", "kind"), [], "candidate: unknown kind []"),
    (("adversary", "strategy"), [], "adversary: unknown strategy []"),
])
def test_scenario_files_refuse_keys_their_object_does_not_take(path, value, message):
    config = with_field(path, value, scenario_to_config(contract_scenario("alg1")))
    with pytest.raises(ConfigError) as exc:
        scenario_from_config(config, CATALOG)
    assert str(exc.value) == message


def test_scenario_files_read_a_null_key_as_absent():
    scenario = contract_scenario("alg1")
    config = scenario_to_config(scenario)
    config["horizn"] = None
    config["algorithm"]["nme"] = None
    config["adversary"].update(strategy=None, sed=None, params={"period": None})
    config["candidate"]["parms"] = None
    config["candidate"]["params"]["elements"] = None
    assert scenario_from_config(config, CATALOG) == scenario


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_CONTRACT))
def test_meta_params_are_the_algorithm_table_entry(algorithm):
    outcome = run_game(contract_scenario(algorithm), CATALOG)
    meta = json.loads(transcript_to_jsonl(outcome).splitlines()[0])["meta"]
    taken = harness.ALGORITHM_PARAMS[algorithm]
    assert tuple(outcome.transcript.meta["algorithm"]["params"]) == taken
    assert tuple(meta["algorithm"]["params"]) == tuple(sorted(taken))


def test_block_growth_is_bounded_by_the_horizon():
    at_bound = GameScenario("at-bound", "multiples", 2, "telltale", horizon=10,
                            strategy=Strategy("block_shuffle", seed=1, block_growth=10))
    over = replace(at_bound, scenario_id="over", horizon=9)
    rows = {row["scenario_id"]: row for row in run_sweep([at_bound, over], CATALOG)}
    assert rows["at-bound"]["status"] == "ok"
    assert rows["over"]["status"] == "error"
    assert "block_growth" in rows["over"]["detail"]


IDENTIFIABLE = ["multiples", "finite_prefixes", "finite_sets"]
GRID_DIGESTS = {
    "negex": (
        lambda: detection_grid("negex"),
        "98de73289661a95d5c4f1d24db9ae53f37142e0bc2d6a51797a0f3e9b38ae334",
    ),
    "alg1-telltale": (
        lambda: detection_grid("alg1", ["multiples", "finite_prefixes"], identifier="telltale"),
        "c082e90114af6f2653f8619580616b1515e1f44e0603d7ccc9dde14a3f60443b",
    ),
    "telltale": (
        lambda: identification_grid("telltale", IDENTIFIABLE),
        "0ce5bf3df65f3524292203983f8c83cf7088db2b6c51ca3b51a02348b9452c0b",
    ),
    "consistency_min": (
        lambda: identification_grid("consistency_min", list(CATALOG)),
        "d33071814e1e9c257c2e6f71ce1f5eb306632661c2074749ca745edb30226071",
    ),
    "alg1-consistency_min-small": (
        lambda: detection_grid(
            "alg1", ["finite_sets", "finite_plus_all"], max_target=3, horizon=77,
            seeds=(5, 0), identifier="consistency_min",
        ),
        "5b79c4a4bf1b1acac2bd05fa9c703b827dda99997f1b1884577ba48f37e82773",
    ),
}


@pytest.mark.parametrize("name", sorted(GRID_DIGESTS))
def test_standard_grids_are_pinned(name):
    # ids, order and every field of each scenario, in the wire form
    build, digest = GRID_DIGESTS[name]
    text = json.dumps([scenario_to_config(s) for s in build()], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


@pytest.mark.parametrize(
    "bounds", [(64, 64.5), ("8", 8), (64,), (64, 64, 64), (True, 5), (5, False), 64, None],
    ids=repr,
)
def test_checker_refuses_bounds_that_are_not_a_pair_of_ints(bounds):
    # unchecked, (True, 5) would run and write "index": true into the certificate
    with pytest.raises(ConfigError, match="^bounds: "):
        check_angluin(FINITE_PLUS_ALL, 1, telltale=[1, 2, 3], bounds=bounds)


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
    # Tell-tales: the catalog's, and every subset of at most 3 of the
    # first 5 elements of L_i. Unequal bounds pin their order on every
    # path a certificate is built on.
    paths = set()
    for original in CATALOG.values():
        stripped = Collection(
            id=original.id,
            family=original.language,
            telltale=original.telltale,
        )
        for i in range(1, 17):
            head, _ = original.language(i).first_elements(5)
            telltales = [None] if original.telltale(i) is not None else []
            telltales += [list(c) for r in range(4) for c in combinations(head, r)]
            for telltale in telltales:
                exact = check_angluin(original, i, telltale=telltale, bounds=(256, 300))
                searched = check_angluin(stripped, i, telltale=telltale, bounds=(256, 300))
                assert (exact.method, searched.method) == ("closed_form", "bounded_search")
                for result in (exact, searched):
                    assert (result.index_bound, result.element_bound) == (256, 300)
                    paths.add((result.method, result.verdict))
                if exact.verdict == VERDICT_SATISFIED:
                    assert searched.verdict == VERDICT_INCONCLUSIVE
                else:
                    assert searched.verdict == exact.verdict, (original.id, i, telltale)
                for result in (exact, searched):
                    if result.verdict == VERDICT_VIOLATION:
                        assert replay_certificate(original, result), (original.id, i, telltale)
    assert paths == {
        ("closed_form", VERDICT_SATISFIED), ("closed_form", VERDICT_VIOLATION),
        ("bounded_search", VERDICT_VIOLATION), ("bounded_search", VERDICT_INCONCLUSIVE),
    }


def test_strictness_element_matches_brute_force():
    # Bounds 1 and 2 lie below most multiples languages' moduli, and most
    # finite languages here end below bounds 64 and 512. The prefixes
    # {1..10^6} and {1..10^12} end far above every bound.
    cases = [(c, i, j) for c in CATALOG.values() for i in range(1, 33) for j in range(1, 65)]
    cases += [(CATALOG["finite_prefixes"], i, j) for i in (10**6, 10**12) for j in range(1, 9)]
    for collection, i, j in cases:
        for bound in (1, 2, 7, 64, 512):
            expected = brute_strictness_element(collection, i, j, bound)
            got = harness._strictness_element(
                collection.language(i), collection.language(j), bound)
            assert got == expected, (collection.id, i, j, bound)


def test_checker_requires_a_telltale():
    with pytest.raises(ConfigError):
        check_angluin(FINITE_PLUS_ALL, 1)
    with pytest.raises(ConfigError):
        check_angluin(MULTIPLES, 2, telltale=[3])  # not a subset of L_2


@pytest.mark.parametrize(
    "collection, index, telltale",
    [
        (MULTIPLES, 2, [2.0]),
        (MULTIPLES, 2, [4.0, 8]),
        (MULTIPLES, 1, [True]),
        (MULTIPLES, 2, ["a"]),
        (MULTIPLES, 2, [[2]]),
        (MULTIPLES, 2, [2, None]),
        (CATALOG["finite_sets"], 3, [1, "a"]),
        (FINITE_PLUS_ALL, 1, [1, 2.5]),
    ],
)
def test_checker_rejects_non_integer_telltale_elements(collection, index, telltale):
    with pytest.raises(ConfigError):
        check_angluin(collection, index, telltale=telltale)


def test_certificates_replay_through_membership_only():
    for telltale in ([], [2], [1, 4], [3, 5, 9]):
        result = check_angluin(FINITE_PLUS_ALL, 1, telltale=telltale, bounds=(64, 64))
        assert result.verdict == VERDICT_VIOLATION
        assert replay_certificate(FINITE_PLUS_ALL, result)


def test_the_checker_keeps_no_witness_language():
    # Each of these certificates has its own finite witness, ~860 B as a
    # Language; no later check reads one again, so none may stay behind.
    collection = catalog()["finite_plus_all"]
    telltales = [t for size in range(5) for t in combinations(range(1, 21), size)]
    assert len(telltales) == 6196

    def check(telltale):
        result = check_angluin(collection, 1, telltale=telltale, bounds=(64, 64))
        assert result.verdict == VERDICT_VIOLATION, telltale
        assert replay_certificate(collection, result), telltale

    for telltale in combinations(range(21, 25), 2):  # warm up, on other witnesses
        check(telltale)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for telltale in telltales:
            check(telltale)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


def test_the_bounded_search_keeps_no_searched_language():
    # Without a closed form the search reads L_1..L_20000; it used to keep
    # every one of them in the collection's cache.
    original = catalog()["finite_sets"]
    collection = Collection(id="finite_sets_search", family=original.uncached_language,
                            telltale=original.telltale)
    collection.language(7)
    before = dict(collection._language_cache)
    result = check_angluin(collection, 7, bounds=(20000, 64))
    assert (result.method, result.verdict) == ("bounded_search", VERDICT_INCONCLUSIVE)
    assert collection._language_cache == before


def test_forged_certificates_do_not_replay():
    finite_sets = CATALOG["finite_sets"]
    loose = check_angluin(MULTIPLES, 2, telltale=[8])  # witness L_8, strictness 2
    finite = check_angluin(finite_sets, 3, telltale=[2])  # L_3 = {1, 2}, witness {2}
    infinite = check_angluin(MULTIPLES, 2, telltale=[6])  # witness L_6, strictness 2
    genuine = [(MULTIPLES, loose), (finite_sets, finite), (MULTIPLES, infinite)]
    assert [(c.witness_index, c.strictness_element) for _, c in genuine] == [
        (8, 2), (2, 1), (6, 2)
    ]
    assert all(replay_certificate(collection, c) for collection, c in genuine)
    forgeries = [
        (MULTIPLES, replace(loose, witness_index=None)),
        (MULTIPLES, replace(loose, witness_index=3)),  # 8 is not in L_3
        (MULTIPLES, replace(loose, strictness_element=3)),  # 3 is not in L_2
        (MULTIPLES, replace(loose, strictness_element=16)),  # 16 is in L_8
        (finite_sets, replace(finite, witness_index=6)),  # L_6 = {2, 3}
        (MULTIPLES, replace(infinite, witness_index=3)),  # L_3 is not inside L_2
    ]
    for collection, forged in forgeries:
        assert replay_certificate(collection, forged) is False, forged
    with pytest.raises(ConfigError):
        replay_certificate(PREFIXES, check_angluin(PREFIXES, 5))


def test_certificates_are_slotted_frozen_records():
    original = CATALOG["finite_sets"]
    searched = Collection(id="finite_sets_search", family=original.uncached_language,
                          telltale=original.telltale)
    results = [
        check_angluin(PREFIXES, 5),
        check_angluin(MULTIPLES, 2, telltale=[8]),
        check_angluin(searched, 7, bounds=(4, 64)),
    ]
    assert [r.verdict for r in results] == [
        VERDICT_SATISFIED, VERDICT_VIOLATION, VERDICT_INCONCLUSIVE
    ]
    for result in results:
        assert not hasattr(result, "__dict__")
        with pytest.raises(FrozenInstanceError):
            result.witness_index = 3
        copied = replace(result, element_bound=7)
        assert not hasattr(copied, "__dict__")
        assert copied.to_dict() == {**result.to_dict(), "bounds": {
            "index": result.index_bound, "element": 7}}
    forged = replace(results[1], strictness_element=3)  # 3 is not in L_2
    assert replay_certificate(MULTIPLES, results[1]) is True
    assert replay_certificate(MULTIPLES, forged) is False


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


# A run per record shape: an identifier's, alg2's, negex's and alg1's. On
# finite_prefixes index 300 the guesses climb past 256, so an identifier's
# heads and alg1's detector counts take a new multi-digit value at each of
# the first 300 steps; pooled alg2's detector count grows with t.
CHUNK_CASES = [
    GameScenario("chunk-telltale", "finite_prefixes", 300, "telltale"),
    GameScenario("chunk-consistency-min", "finite_prefixes", 300, "consistency_min",
                 strategy=Strategy("repeat_heavy", seed=1)),
    GameScenario("chunk-alg2", "multiples", 6, "alg2", identifier="telltale"),
    GameScenario("chunk-negex", "multiples", 2, "negex",
                 candidate=language_candidate(MULTIPLES, 3),
                 strategy=Strategy("repeat_heavy", seed=4)),
    GameScenario("chunk-alg1", "finite_prefixes", 300, "alg1", identifier="telltale",
                 candidate=domain_candidate()),
]


@pytest.mark.parametrize("rows", [TRANSCRIPT_CHUNK_ROWS - 1, TRANSCRIPT_CHUNK_ROWS,
                                  TRANSCRIPT_CHUNK_ROWS + 1])
@pytest.mark.parametrize("scenario", CHUNK_CASES, ids=lambda s: s.scenario_id)
def test_chunks_around_a_chunk_boundary_match_reference_serializer(scenario, rows):
    outcome = run_game(replace(scenario, horizon=rows), CATALOG)
    transcript = outcome.transcript
    assert outcome.status == "ok" and len(transcript.output) == rows
    climbing = {v for v in transcript.output + transcript.fresh_detector if v > 256}
    assert scenario.algorithm == "negex" or len(climbing) > 40
    chunks = list(transcript_chunks(outcome))
    steps = [TRANSCRIPT_CHUNK_ROWS] * (rows // TRANSCRIPT_CHUNK_ROWS)
    steps += [rows % TRANSCRIPT_CHUNK_ROWS] * bool(rows % TRANSCRIPT_CHUNK_ROWS)
    final = [1] * (scenario.algorithm == "alg2")
    assert [chunk.count("\n") for chunk in chunks] == [1, *steps, *final]
    assert "".join(chunks) == reference_transcript_to_jsonl(outcome)


def test_chunk_generators_advanced_in_turn_render_their_own_runs():
    # the head table belongs to one run: runs of every shape, one chunk each in turn
    assert {case.algorithm for case in CHUNK_CASES} == set(harness.ALGORITHM_PARAMS)
    outcomes = [run_game(replace(scenario, horizon=2 * TRANSCRIPT_CHUNK_ROWS + 7), CATALOG)
                for scenario in CHUNK_CASES]
    texts = [""] * len(outcomes)
    for chunks in zip_longest(*map(transcript_chunks, outcomes), fillvalue=""):
        texts = [text + chunk for text, chunk in zip(texts, chunks)]
    assert texts == [reference_transcript_to_jsonl(outcome) for outcome in outcomes]


# Multiples with no tell-tale at index 3, so a tell-tale identifier stops
# at step 3 (as in tests/test_reduction.py).
GAPPED = Collection(
    id="gapped",
    family=lambda i: Language(modulus=i),
    telltale=lambda i: None if i == 3 else (i,),
)

LEDGER_ROW_CASES = [
    GameScenario("rows-negex", "multiples", 2, "negex",
                 candidate=language_candidate(MULTIPLES, 3),
                 strategy=Strategy("repeat_heavy", seed=5), horizon=60),
    GameScenario("rows-alg1", "finite_prefixes", 4, "alg1", identifier="consistency_min",
                 candidate=language_candidate(PREFIXES, 6),
                 strategy=Strategy("block_shuffle", seed=1), horizon=50),
    GameScenario("rows-telltale", "multiples", 6, "telltale",
                 strategy=Strategy("delay_pattern", period=2), horizon=50),
    GameScenario("rows-alg2", "multiples", 4, "alg2", identifier="telltale", horizon=40),
    GameScenario("rows-gapped", "gapped", 2, "alg1", identifier="telltale",
                 candidate=language_candidate(GAPPED, 2), horizon=10),
]


COUNT_COLUMNS = ("fresh_candidate", "fresh_consistency", "fresh_detector")


@pytest.mark.parametrize("scenario", LEDGER_ROW_CASES, ids=lambda s: s.scenario_id)
def test_rows_match_the_ledger(monkeypatch, scenario):
    ledgers: list[LoggingLedger] = []

    def logging_ledger():
        ledgers.append(LoggingLedger())
        return ledgers[-1]

    monkeypatch.setattr(harness, "QueryLedger", logging_ledger)
    outcome = run_game(scenario, dict(CATALOG, gapped=GAPPED))
    (ledger,) = ledgers
    rows = outcome.transcript.rows
    interrupted = scenario.collection_id == "gapped"
    assert outcome.status == ("inapplicable" if interrupted else "ok")
    completed = 2 if interrupted else scenario.horizon
    assert len(rows) == completed
    assert [row.t for row in rows] == list(range(1, completed + 1))
    for name in COUNT_COLUMNS:
        assert len(getattr(outcome.transcript, name)) == completed, name
    assert ledger.step == completed + interrupted
    outside = {}
    for purpose, field in (
        (PURPOSE_CANDIDATE, "fresh_candidate"),
        (PURPOSE_CONSISTENCY, "fresh_consistency"),
        (PURPOSE_DETECTOR, "fresh_detector"),
    ):
        by_step = Counter()
        for t, logged, n in ledger.log:
            if logged == purpose:
                by_step[t] += n
        in_rows = [getattr(row, field) for row in rows]
        assert in_rows == [by_step[t] for t in range(1, completed + 1)]
        # Queries before step 1 and in the interrupted step are in no row.
        outside[purpose] = sum(n for t, n in by_step.items() if not 1 <= t <= completed)
        assert sum(in_rows) + outside[purpose] == outcome.queries[purpose]
    if interrupted:
        assert outcome.queries == {
            PURPOSE_CANDIDATE: 2, PURPOSE_CONSISTENCY: 3, PURPOSE_DETECTOR: 1,
        }
        assert outside == {PURPOSE_CANDIDATE: 0, PURPOSE_CONSISTENCY: 1, PURPOSE_DETECTOR: 0}


COLUMN_CASES = [
    GameScenario("columns-negex", "multiples", 2, "negex",
                 candidate=language_candidate(MULTIPLES, 3), horizon=30),
    GameScenario("columns-alg1", "multiples", 4, "alg1", identifier="telltale",
                 candidate=language_candidate(MULTIPLES, 2), horizon=30),
    GameScenario("columns-telltale", "multiples", 6, "telltale", horizon=30),
    GameScenario("columns-consistency_min", "finite_prefixes", 3, "consistency_min",
                 horizon=30),
    GameScenario("columns-alg2", "multiples", 4, "alg2", identifier="telltale", horizon=30),
    GameScenario("columns-alg2-fresh", "multiples", 4, "alg2", identifier="consistency_min",
                 fresh_copies=True, horizon=12),
]


# The name in harness through which run_game builds each algorithm.
ALGORITHM_FACTORIES = {"negex": "NegativeExampleDetector", "alg1": "ScanDetector",
                      "alg2": "ReductionIdentifier"}


class GivingOut:
    """An algorithm whose ``stop``-th step does its work, then raises
    Inapplicable, as an identifier meeting an index with no tell-tale does."""

    def __init__(self, algorithm, stop):
        self.algorithm, self.stop, self.calls = algorithm, stop, 0

    def step(self, item):
        output = self.algorithm.step(item)
        self.calls += 1
        if self.calls == self.stop:
            raise Inapplicable("the algorithm gives out")
        return output

    def __getattr__(self, name):  # alg2's last_round
        return getattr(self.algorithm, name)


# A stop in the second block lengthens the run past it; alg2's fresh
# copies rebuild a detector per index each round, too slow at that horizon.
STOPS = {"completed": None, "stop1": 1, "stop7": 7, "stop-block2": STEP_BLOCK + 7}
STOP_CASES = [pytest.param(scenario, stop, id=f"{scenario.scenario_id}-{label}")
              for label, stop in STOPS.items() for scenario in COLUMN_CASES
              if label != "stop-block2" or not scenario.fresh_copies]


@pytest.mark.parametrize("scenario, stop", STOP_CASES)
def test_count_columns_hold_exactly_the_completed_steps(monkeypatch, scenario, stop):
    # Transcript.rows and transcript_chunks stop at the shortest column,
    # so a column one entry too long or too short shows only here. The
    # algorithm giving out interrupts a step whose ledger slot is open.
    if stop is not None:
        name = ALGORITHM_FACTORIES.get(scenario.algorithm, "make_identifier")
        build = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args, **kwargs: GivingOut(
            build(*args, **kwargs), stop))
        scenario = replace(scenario, horizon=max(scenario.horizon, stop + 1))
    outcome = run_game(scenario, CATALOG)
    transcript = outcome.transcript
    assert len(transcript.output) == (scenario.horizon if stop is None else stop - 1)
    columns = COUNT_COLUMNS + (("w", "y") if scenario.algorithm == "negex" else ("w",))
    for name in columns:
        assert len(getattr(transcript, name)) == len(transcript.output), name
    for purpose, name in zip(PURPOSES, COUNT_COLUMNS):
        assert sum(getattr(transcript, name)) <= outcome.queries[purpose], name


# Horizons just short of, at and past one block, and inside a third one.
BLOCK_HORIZONS = (STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 2 * STEP_BLOCK + 7)
BLOCK_GAMES = [
    GameScenario("block-negex", "multiples", 2, "negex",
                 candidate=language_candidate(MULTIPLES, 3)),
    GameScenario("block-alg1", "finite_prefixes", 4, "alg1", identifier="consistency_min",
                 candidate=language_candidate(PREFIXES, 6)),
    GameScenario("block-telltale", "multiples", 6, "telltale"),
    GameScenario("block-consistency_min", "finite_plus_all", 3, "consistency_min"),
    GameScenario("block-alg2", "multiples", 4, "alg2", identifier="telltale"),
]
BLOCK_STRATEGIES = [Strategy("canonical"), Strategy("repeat_heavy", seed=3),
                    Strategy("block_shuffle", seed=3, block_growth=2),
                    Strategy("delay_pattern", period=3)]


@pytest.mark.parametrize("strategy", BLOCK_STRATEGIES, ids=lambda s: s.name)
@pytest.mark.parametrize("game", BLOCK_GAMES, ids=lambda s: s.scenario_id)
def test_block_draws_match_the_stepwise_loop(game, strategy):
    for horizon in BLOCK_HORIZONS:
        scenario = replace(game, strategy=strategy, horizon=horizon)
        outcome, reference = run_game(scenario, CATALOG), stepwise_run_game(scenario, CATALOG)
        assert outcome.status == reference.status == "ok"
        assert transcript_to_jsonl(outcome) == transcript_to_jsonl(reference), horizon
        assert outcome.report == reference.report
        assert outcome.queries == reference.queries


# Multiples with no tell-tale at index 1030: a tell-tale identifier stops
# in the second block.
LATE_GAP = STEP_BLOCK + 6
GAPPED_LATE = Collection(
    id="gapped_late",
    family=lambda i: Language(modulus=i),
    telltale=lambda i: None if i == LATE_GAP else (i,),
)


def test_an_interruption_in_the_second_block_keeps_the_completed_steps(monkeypatch):
    ledgers: list[LoggingLedger] = []
    monkeypatch.setattr(harness, "QueryLedger", lambda: ledgers.append(LoggingLedger())
                        or ledgers[-1])
    collections = dict(CATALOG, gapped_late=GAPPED_LATE)
    scenario = GameScenario("block-gapped", "gapped_late", 2, "telltale",
                            horizon=2 * STEP_BLOCK + 7)
    outcome = run_game(scenario, collections)
    reference = stepwise_run_game(scenario, collections)
    assert outcome.status == reference.status == "inapplicable"
    assert outcome.detail == reference.detail
    assert transcript_to_jsonl(outcome) == transcript_to_jsonl(reference)
    assert outcome.queries == reference.queries
    (ledger,) = ledgers
    completed = LATE_GAP - 1
    assert ledger.step == LATE_GAP
    by_step = Counter()
    for t, purpose, n in ledger.log:
        by_step[t, purpose] += n
    assert by_step[LATE_GAP, PURPOSE_CONSISTENCY] > 0
    for purpose, name in zip(PURPOSES, COUNT_COLUMNS):
        column = getattr(outcome.transcript, name)
        assert column == [by_step[t, purpose] for t in range(1, completed + 1)], name
        # The totals hold the queries before step 1 and in the interrupted step.
        assert outcome.queries[purpose] == (sum(column) + by_step[0, purpose]
                                            + by_step[LATE_GAP, purpose]), name


def test_an_inapplicable_run_draws_at_most_one_block(monkeypatch):
    # telltale on finite_plus_all stops at step 1 (L_1, the whole domain, has
    # no tell-tale): however long the horizon, the run draws and opens one block.
    drawn, opened = [], []
    take, open_steps = EnumerationStream.take, QueryLedger.open_steps

    def counted_take(stream, n):
        block = take(stream, n)
        drawn.append(len(block))
        return block

    def counted_open_steps(ledger, n):
        opened.append(n)
        open_steps(ledger, n)

    monkeypatch.setattr(EnumerationStream, "take", counted_take)
    monkeypatch.setattr(QueryLedger, "open_steps", counted_open_steps)
    scenario = GameScenario("cost-guard", "finite_plus_all", 3, "telltale", horizon=10**6)
    outcome = run_game(scenario, CATALOG)
    assert outcome.status == "inapplicable"
    assert len(outcome.transcript.output) == 0
    assert sum(drawn) <= STEP_BLOCK < scenario.horizon
    assert sum(opened) <= STEP_BLOCK


ONE_STORE_HORIZON = 300


@pytest.mark.parametrize("scenario", [
    GameScenario("store-negex", "multiples", 2, "negex",
                 candidate=language_candidate(MULTIPLES, 3), horizon=ONE_STORE_HORIZON),
    GameScenario("store-alg1", "multiples", 2, "alg1", identifier="telltale",
                 candidate=language_candidate(MULTIPLES, 4), horizon=ONE_STORE_HORIZON),
    GameScenario("store-telltale", "multiples", 2, "telltale", horizon=ONE_STORE_HORIZON),
    GameScenario("store-alg2", "multiples", 2, "alg2", identifier="telltale",
                 horizon=ONE_STORE_HORIZON),
], ids=lambda s: s.scenario_id)
def test_a_run_keeps_each_step_column_once(scenario):
    outcome = run_game(scenario, CATALOG)
    transcript = outcome.transcript
    columns = {id(c) for c in (getattr(transcript, f) for f in StepRecord._fields)
               if isinstance(c, list)}
    # Classes are skipped: through them every module's globals are reachable.
    long_lists, seen, todo = set(), set(), [outcome]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, list) and len(obj) >= scenario.horizon:
            long_lists.add(id(obj))
        todo.extend(gc.get_referents(obj))
    assert long_lists == columns


def test_report_queries_are_a_copy():
    outcome = run_game(GameScenario("copy", "multiples", 2, "telltale", horizon=20), CATALOG)
    queries = dict(outcome.queries)
    report = report_to_dict(outcome)
    report["queries"][PURPOSE_CONSISTENCY] += 1
    assert outcome.queries == queries
    assert report_to_dict(outcome)["queries"] == queries


KEY_GUARD_HORIZON = 60
KEY_GUARD_CORPORA = {
    "golden": lambda: corpus(CATALOG),
    "negex": lambda: detection_grid("negex", horizon=KEY_GUARD_HORIZON),
    "alg1-telltale": lambda: detection_grid(
        "alg1", ["multiples", "finite_prefixes"], identifier="telltale",
        horizon=KEY_GUARD_HORIZON,
    ),
    "alg1-consistency_min": lambda: detection_grid(
        "alg1", identifier="consistency_min", horizon=KEY_GUARD_HORIZON
    ),
    "telltale": lambda: identification_grid("telltale", IDENTIFIABLE, horizon=KEY_GUARD_HORIZON),
    "consistency_min": lambda: identification_grid(
        "consistency_min", list(CATALOG), horizon=KEY_GUARD_HORIZON
    ),
}


@pytest.mark.parametrize("name", sorted(KEY_GUARD_CORPORA))
def test_uncached_handles_never_repeat_a_key(monkeypatch, name):
    # An uncached handle counts every call as fresh, so a repeated key
    # would overcount; and every fresh query of its purpose goes through it.
    built: list[KeyRecordingOracle] = []

    def recording(*args, **kwargs):
        built.append(KeyRecordingOracle(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "CollectionOracle", recording)
    guarded = 0
    for scenario in KEY_GUARD_CORPORA[name]():
        built.clear()
        outcome = run_game(scenario, CATALOG)
        assert {handle._purpose: handle.uncached for handle in built} == {
            PURPOSE_CONSISTENCY: True, PURPOSE_DETECTOR: scenario.algorithm != "alg2",
        }
        for handle in built:
            if handle.uncached:
                assert outcome.queries[handle._purpose] == len(handle.keys)
                guarded += len(handle.keys)
    assert (guarded > 0) == (name != "negex")  # negex asks the collection nothing
