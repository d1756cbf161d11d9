"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run with -s to watch them go
by). The grids here are the desk-scale standard: every catalog
collection, target indices up to 8, the full candidate roster, three
presentation strategies, two seeds.
"""

import itertools
import json
import random
from contextlib import contextmanager

import pytest

from limitlab import (
    CollectionOracle,
    GameScenario,
    QueryLedger,
    Strategy,
    catalog,
    check_angluin,
    detection_grid,
    domain_candidate,
    empty_candidate,
    language_candidate,
    replay_certificate,
    run_game,
    run_sweep,
    scenario_to_config,
    standard_candidates,
    standard_strategies,
    transcript_to_jsonl,
    union_candidate,
)
from limitlab.harness import (
    STANDARD_SEEDS,
    VERDICT_SATISFIED,
    VERDICT_VIOLATION,
    identification_grid,
)
from limitlab.identifiers import make_identifier
from limitlab.languages import PURPOSE_CONSISTENCY

from tests.oracles import (
    extensional_subset,
    least_escape,
    negex_expected_t_star,
    sim_round_verdicts,
)

CATALOG = catalog()


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number} PASS - {description}")


def test_criterion_1_negative_example_universality():
    with criterion(1, "negative-example detection universal on the standard grid"):
        scenarios = detection_grid("negex", max_target=8, horizon=1000)
        assert len(scenarios) == 1080  # grid product over realizable cells
        for scenario in scenarios:
            outcome = run_game(scenario, CATALOG)
            assert outcome.status == "ok", scenario.scenario_id
            report = outcome.report
            assert report.stabilized and report.correct_at_horizon, scenario.scenario_id
            collection = CATALOG[scenario.collection_id]
            expected_t_star, least_step = negex_expected_t_star(scenario, collection)
            assert report.t_star == expected_t_star, scenario.scenario_id
            if least_step is not None:
                # classical bound: latch no later than the least escape's arrival
                assert report.t_star <= least_step, scenario.scenario_id


def test_criterion_2_scan_detector_on_identifiable_collections():
    with criterion(2, "identify-then-scan detection correct on identifiable catalogs"):
        scenarios = detection_grid(
            "alg1",
            ["multiples", "finite_prefixes"],
            max_target=8,
            horizon=1000,
            identifier="telltale",
        )
        assert len(scenarios) == 558
        for scenario in scenarios:
            outcome = run_game(scenario, CATALOG)
            assert outcome.status == "ok", scenario.scenario_id
            report = outcome.report
            assert report.stabilized and report.correct_at_horizon, scenario.scenario_id
            collection = CATALOG[scenario.collection_id]
            k = scenario.target_index
            # the inner identifier's guesses, replayed over the transcript's w column
            identifier = make_identifier(
                scenario.identifier, collection,
                CollectionOracle(collection, QueryLedger(), PURPOSE_CONSISTENCY),
            )
            guesses = [identifier.step(row.w) for row in outcome.transcript.rows]
            settle = len(guesses) + 1
            for t in range(len(guesses), 0, -1):
                if collection.equals(guesses[t - 1], k):
                    settle = t
                else:
                    break
            witness = least_escape(scenario.candidate, collection.language(k))
            bound = max(settle, witness or 0)
            assert report.t_star <= bound, (scenario.scenario_id, report.t_star, bound)


def test_criterion_3_roundtrip_identification():
    with criterion(3, "reduced identifier lands on the least index of the target"):
        for cid, k in itertools.product(("multiples", "finite_prefixes"), range(1, 9)):
            scenario = GameScenario(
                scenario_id=f"alg2-{cid}-k{k}",
                collection_id=cid,
                target_index=k,
                algorithm="alg2",
                identifier="telltale",
                horizon=300,
            )
            outcome = run_game(scenario, CATALOG)
            assert outcome.status == "ok", scenario.scenario_id
            report = outcome.report
            assert report.stabilized, scenario.scenario_id
            collection = CATALOG[cid]
            final = report.final_output
            assert collection.equals(final, k)
            least = next(z for z in range(1, k + 1) if collection.equals(z, k))
            assert final == least, scenario.scenario_id

        # pooled detectors versus literal fresh copies, bit for bit
        spots = [
            ("multiples", 2, Strategy("canonical")),
            ("multiples", 5, Strategy("repeat_heavy", seed=1)),
            ("multiples", 6, Strategy("block_shuffle", seed=2, block_growth=2)),
            ("multiples", 1, Strategy("delay_pattern", period=2)),
            ("finite_prefixes", 3, Strategy("canonical")),
            ("finite_prefixes", 7, Strategy("repeat_heavy", seed=3)),
            ("finite_prefixes", 4, Strategy("block_shuffle", seed=4, block_growth=1)),
            ("finite_sets", 5, Strategy("canonical")),
            ("finite_sets", 11, Strategy("repeat_heavy", seed=5)),
            ("finite_sets", 7, Strategy("block_shuffle", seed=6, block_growth=2)),
        ]
        assert len(spots) == 10
        for cid, k, strategy in spots:
            runs = {}
            for fresh in (False, True):
                scenario = GameScenario(
                    scenario_id=f"spot-{cid}-k{k}-{fresh}",
                    collection_id=cid,
                    target_index=k,
                    algorithm="alg2",
                    identifier="telltale",
                    fresh_copies=fresh,
                    strategy=strategy,
                    horizon=50,
                )
                outcome = run_game(scenario, CATALOG)
                transcript = outcome.transcript
                runs[fresh] = (transcript.output, transcript.final_state)
            assert runs[False] == runs[True], (cid, k, strategy.to_config())
            state = transcript.final_state
            verdicts = sim_round_verdicts(CATALOG[cid], transcript.w, state.inapplicable)
            assert state.accepted == tuple(i for i in state.consistent if verdicts[i - 1] == 1)


def test_criterion_4_consistency_query_bound():
    with criterion(4, "fresh consistency queries per round stay within 2t-1"):
        checked_rows = 0
        for cid, k, strategy in [
            ("multiples", 2, Strategy("canonical")),
            ("multiples", 6, Strategy("repeat_heavy", seed=2)),
            ("multiples", 4, Strategy("block_shuffle", seed=7, block_growth=2)),
            ("finite_prefixes", 5, Strategy("canonical")),
            ("finite_prefixes", 8, Strategy("repeat_heavy", seed=9)),
            ("finite_sets", 6, Strategy("canonical")),
            ("finite_plus_all", 3, Strategy("canonical")),
        ]:
            for fresh in (False, True):
                scenario = GameScenario(
                    scenario_id=f"bound-{cid}-k{k}-{fresh}",
                    collection_id=cid,
                    target_index=k,
                    algorithm="alg2",
                    identifier="telltale",
                    fresh_copies=fresh,
                    strategy=strategy,
                    horizon=60 if fresh else 300,
                )
                outcome = run_game(scenario, CATALOG)
                for row in outcome.transcript.rows:
                    assert row.fresh_consistency <= 2 * row.t - 1, (
                        scenario.scenario_id,
                        row.t,
                    )
                    checked_rows += 1
        assert checked_rows == 7 * (300 + 60)


def test_criterion_5_consistency_min_failure():
    with criterion(5, "consistency-min identifier stuck on index 1 for even numbers"):
        for seed in STANDARD_SEEDS:
            for strategy in standard_strategies(seed):
                scenario = GameScenario(
                    scenario_id=f"consmin-{strategy.name}-s{seed}",
                    collection_id="multiples",
                    target_index=2,
                    algorithm="consistency_min",
                    strategy=strategy,
                    horizon=1000,
                )
                outcome = run_game(scenario, CATALOG)
                assert outcome.status == "ok"
                assert all(row.output == 1 for row in outcome.transcript.rows)
                assert not outcome.report.correct_at_horizon
                assert not CATALOG["multiples"].equals(1, 2)


def test_criterion_6_telltale_condition_certificates():
    with criterion(6, "checker certificates: exhaustive violations and exact prefixes"):
        fpa = CATALOG["finite_plus_all"]
        count = 0
        for size in range(0, 7):
            for telltale in itertools.combinations(range(1, 21), size):
                result = check_angluin(fpa, 1, telltale=telltale, bounds=(64, 64))
                assert result.verdict == VERDICT_VIOLATION, telltale
                assert replay_certificate(fpa, result), telltale
                count += 1
        assert count == 60460  # sum of C(20, k) for k = 0..6

        prefixes = CATALOG["finite_prefixes"]
        for i in range(1, 33):
            result = check_angluin(prefixes, i)
            assert result.verdict == VERDICT_SATISFIED, i
        # the closed-form subset predicate behind those verdicts, brute-forced
        for i in range(1, 33):
            for j in range(1, 33):
                assert prefixes.subset_of(i, j) == extensional_subset(prefixes, i, j)


def _random_scenario(rng: random.Random) -> GameScenario:
    cid = rng.choice(list(CATALOG))
    collection = CATALOG[cid]
    k = rng.randint(1, 8)
    algorithm = rng.choice(("negex", "alg1", "telltale", "consistency_min", "alg2"))
    strategy = rng.choice(standard_strategies(rng.randint(0, 99)))
    candidate = None
    identifier = None
    if algorithm in ("negex", "alg1"):
        roster = standard_candidates(collection, k)
        candidate = rng.choice(roster)[1]
    if algorithm in ("alg1", "alg2"):
        identifier = "telltale"
    horizon = 40 if algorithm == "alg2" else 120
    return GameScenario(
        scenario_id=f"rand-{rng.randrange(10**9)}",
        collection_id=cid,
        target_index=k,
        algorithm=algorithm,
        candidate=candidate,
        identifier=identifier,
        strategy=strategy,
        horizon=horizon,
    )


def test_criterion_7_determinism_and_monotonicity():
    with criterion(7, "byte-identical reruns, latched verdicts, antitone consistency"):
        rng = random.Random(20250810)
        for _ in range(100):
            scenario = _random_scenario(rng)
            first = run_game(scenario, CATALOG)
            second = run_game(scenario, catalog())  # fresh collection instances
            assert first.status == second.status, scenario.scenario_id
            assert transcript_to_jsonl(first) == transcript_to_jsonl(second)
            if scenario.algorithm == "negex":
                flagged = False
                for row in first.transcript.rows:
                    if flagged:
                        assert row.output == 0
                    flagged = flagged or row.output == 0
        # antitone consistency over reduction transcripts, via round traces
        from limitlab.languages import (
            CollectionOracle,
            PURPOSE_CONSISTENCY,
            PURPOSE_DETECTOR,
            QueryLedger,
        )
        from limitlab.reduction import ReductionIdentifier
        from limitlab import EnumerationStream

        for cid, k in (("multiples", 4), ("finite_prefixes", 6), ("finite_sets", 7)):
            collection = CATALOG[cid]
            ledger = QueryLedger()
            reduction = ReductionIdentifier(
                collection,
                "telltale",
                CollectionOracle(collection, ledger, PURPOSE_DETECTOR),
                CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY),
            )
            stream = EnumerationStream(collection.language(k), Strategy("repeat_heavy", seed=3))
            dropped: set = set()
            for t in range(1, 121):
                ledger.begin_step(t)
                reduction.step(stream.next())
                current = set(reduction.last_round.consistent)
                assert not (dropped & current)
                dropped |= set(range(1, t + 1)) - current
