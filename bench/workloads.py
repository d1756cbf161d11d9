"""Workload inputs, operations and correctness checks for the benchmark.

Every workload is a list of operations generated from a seed. The seed
only picks adversary strategy seeds (game workloads) or the explicit
non-default tell-tales (checker); the size and mix of each workload do not
depend on it, so runs with different seeds do comparable work. limitlab
receives only the generated wire-format inputs and is driven through its
public API.

Operations:
  sweep, reduction  one scenario: run_game, then transcript_to_jsonl and
                    report_to_dict, which is `limitlab run` minus the disk
                    write;
  checker           one check_angluin call, plus replay_certificate when it
                    certifies a violation, which is `limitlab check-angluin`
                    minus the disk write.

Outputs are checked against ground truth computed here, extensionally with
plain language membership on a separate catalog, and, for the default
seed, against the committed manifest of digests and fresh-query totals.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from limitlab import Strategy, candidate_from_config, catalog, harness
from limitlab.harness import VERDICT_SATISFIED, VERDICT_VIOLATION
from limitlab.languages import PURPOSES, Collection, Language, resolve_collection

# Collections on which the tell-tale identifier, and detectors and
# reductions built on it, must converge (Angluin 1980).
IDENTIFIABLE = ("multiples", "finite_prefixes", "finite_sets")

# Every language a workload touches differs from any other one below this
# value, and every finite one lies below it: targets stay small, and guessed
# indices stay below the horizon (at most 1000), whose finite languages hold
# elements up to 1000.
EXTENSIONAL_BOUND = 2048

# The checker manifest holds one digest per block of consecutive operations
# instead of one per operation; a block mismatch fails the whole block.
CHECKER_BLOCK = 256


@dataclass
class Operation:
    op_id: str
    config: dict          # wire-format input, as a user would write it
    expect: Optional[str] = None  # checker only: the verdict ground truth demands
    parsed: object = None         # set by parse(): GameScenario or (Collection, index, telltale, bounds)


@dataclass
class Result:
    digest_text: str              # what the manifest digest covers
    queries: Optional[dict]       # fresh queries by purpose (game workloads)
    steps: int                    # game steps played (game workloads)
    failure: Optional[str]        # ground-truth check; None when it holds


def strategy_seeds(seed: int) -> tuple[int, int]:
    """Adversary seeds for a benchmark seed; seed 0 gives the standard (1, 2)."""
    return (2 * seed + 1, 2 * seed + 2)


# ---------------------------------------------------------------------------
# Inputs


def sweep_configs(seed: int, tiny: bool) -> list[Operation]:
    """Every fifth cell of each standard grid `limitlab sweep` users run."""
    collections = catalog()
    seeds = strategy_seeds(seed)
    horizon = 100 if tiny else 1000
    grids = (
        harness.detection_grid("negex", horizon=horizon, seeds=seeds, collections=collections),
        harness.detection_grid(
            "alg1", ["multiples", "finite_prefixes"], horizon=horizon, seeds=seeds,
            identifier="telltale", collections=collections,
        ),
        harness.identification_grid(
            "telltale", IDENTIFIABLE, horizon=horizon, seeds=seeds, collections=collections
        ),
        harness.identification_grid(
            "consistency_min", list(collections), horizon=horizon, seeds=seeds,
            collections=collections,
        ),
    )
    stride = 60 if tiny else 5
    return [
        Operation(s.scenario_id, harness.scenario_to_config(s))
        for grid in grids
        for s in grid[::stride]
    ]


# Per (collection, identifier) pair: horizons of the pooled alg2 runs. Most
# are short, so the batch has enough operations for a tail percentile;
# the long ones make the quadratic pool and catch-up dominate.
REDUCTION_HORIZONS = (50, 50, 50, 50, 100, 100, 100, 100, 200, 200, 200)
REDUCTION_LONG = (
    ("multiples", 6, "telltale", 400),
    ("finite_plus_all", 3, "consistency_min", 300),
)


def reduction_configs(seed: int, tiny: bool) -> list[Operation]:
    s1, s2 = strategy_seeds(seed)
    strategies = (
        harness.standard_strategies(s1)
        + harness.standard_strategies(s2)[1:]
        + (Strategy("delay_pattern", period=2),)
    )
    horizons = (20, 40) if tiny else REDUCTION_HORIZONS
    cells = []
    n = 0
    for cid in IDENTIFIABLE + ("finite_plus_all",):
        for identifier in ("telltale", "consistency_min"):
            for h in horizons:
                n += 1
                cells.append((cid, n % 8 + 1, identifier, strategies[n % len(strategies)], h))
    if not tiny:
        for cid, k, identifier, h in REDUCTION_LONG:
            cells.append((cid, k, identifier, Strategy("canonical"), h))
    ops = []
    for n, (cid, k, identifier, strategy, h) in enumerate(cells):
        scenario = harness.GameScenario(
            scenario_id=f"alg2-{cid}-{identifier}-k{k}-{strategy.name}-H{h}-{n}",
            collection_id=cid,
            target_index=k,
            algorithm="alg2",
            identifier=identifier,
            strategy=strategy,
            horizon=h,
        )
        ops.append(Operation(scenario.scenario_id, harness.scenario_to_config(scenario)))
    return ops


def checker_configs(seed: int, tiny: bool) -> list[Operation]:
    """Criterion 6's exhaustive certificates, default tell-tales, and
    non-default tell-tales whose violations have infinite witnesses."""
    ops = []

    def add(cid: str, index: int, telltale, bounds, expect: str) -> None:
        config = {
            "collection": cid,
            "index": index,
            "telltale": None if telltale is None else list(telltale),
            "bounds": list(bounds),
        }
        ops.append(Operation(f"check-{len(ops)}", config, expect))

    universe, max_size = (range(1, 9), 3) if tiny else (range(1, 21), 6)
    for size in range(max_size + 1):
        for telltale in itertools.combinations(universe, size):
            add("finite_plus_all", 1, telltale, (64, 64), VERDICT_VIOLATION)
    top = 8 if tiny else 64
    for cid in IDENTIFIABLE:
        for index in range(1, top + 1):
            add(cid, index, None, harness.DEFAULT_CHECK_BOUNDS, VERDICT_SATISFIED)
    # Multiples of i*m with m >= 2 have a gcd above i: the witness L_gcd is
    # an infinite proper subset of L_i containing the tell-tale.
    rng = random.Random(seed)
    for index in range(1, (8 if tiny else 32) + 1):
        for _ in range(4):
            base = index * rng.randint(2, 6)
            telltale = sorted({base * rng.randint(1, 9) for _ in range(rng.randint(1, 3))})
            add("multiples", index, telltale, harness.DEFAULT_CHECK_BOUNDS, VERDICT_VIOLATION)
    return ops


GENERATORS: dict[str, Callable[[int, bool], list[Operation]]] = {
    "sweep": sweep_configs,
    "reduction": reduction_configs,
    "checker": checker_configs,
}


def parse(workload: str, ops: list[Operation], collections: dict[str, Collection]) -> None:
    """Turn the wire-format inputs into limitlab objects, as the CLI would."""
    for op in ops:
        if workload == "checker":
            c = op.config
            telltale = None if c["telltale"] is None else tuple(c["telltale"])
            op.parsed = (
                resolve_collection(c["collection"], collections),
                c["index"],
                telltale,
                tuple(c["bounds"]),
            )
        else:
            op.parsed = harness.scenario_from_config(op.config, collections)


# ---------------------------------------------------------------------------
# Operations. Both call limitlab through module attributes, so that the
# tracer's patches are seen.


def serialize(outcome) -> tuple[str, dict]:
    return harness.transcript_to_jsonl(outcome), harness.report_to_dict(outcome)


def run_game_op(op: Operation, collections: dict[str, Collection]):
    outcome = harness.run_game(op.parsed, collections)
    jsonl, report = serialize(outcome)
    return outcome, jsonl, report


def run_checker_op(op: Operation, collections: dict[str, Collection]):
    collection, index, telltale, bounds = op.parsed
    result = harness.check_angluin(collection, index, telltale=telltale, bounds=bounds)
    replays = None
    if result.verdict == VERDICT_VIOLATION:
        replays = harness.replay_certificate(collection, result)
    return result, replays


# ---------------------------------------------------------------------------
# Ground truth


def _subset(a: Callable[[int], bool], b: Callable[[int], bool]) -> bool:
    return all(b(x) for x in range(1, EXTENSIONAL_BOUND) if a(x))


def _equal(a: Language, b: Language) -> bool:
    return all(a.member(x) == b.member(x) for x in range(1, EXTENSIONAL_BOUND))


def _expected_status(config: dict) -> str:
    algorithm = config["algorithm"]
    name = algorithm["name"]
    identifier = (algorithm.get("params") or {}).get("identifier")
    # The tell-tale identifier cannot run on finite_plus_all (index 1 has no
    # tell-tale); the reduction pins such detectors to 0 instead of failing.
    if config["collection"] == "finite_plus_all" and name != "alg2" and "telltale" in (
        name, identifier
    ):
        return "inapplicable"
    return "ok"


def check_game(op: Operation, outcome, report: dict, truth: dict[str, Collection]) -> Optional[str]:
    """Why the game's outcome contradicts ground truth, or None."""
    config = op.config
    status = _expected_status(config)
    if outcome.status != status:
        return f"status {outcome.status}, expected {status}"
    if status != "ok":
        return None
    rows = outcome.transcript.rows
    if len(rows) != config["horizon"]:
        return "transcript does not cover the horizon"
    name = config["algorithm"]["name"]
    identifier = (config["algorithm"].get("params") or {}).get("identifier")
    cid = config["collection"]
    collection = truth[cid]
    target = collection.language(config["target_index"])
    if name in ("negex", "alg1"):
        candidate = candidate_from_config(config["candidate"], truth, cid)
        expected = 1 if _subset(candidate.member, target.member) else 0
        if report["ground_truth_subset"] != bool(expected):
            return "ground_truth_subset is wrong"
        correct = lambda v: v == expected  # noqa: E731
        must_settle = name == "negex" or cid in IDENTIFIABLE
    else:
        correct = lambda g: _equal(collection.language(g), target)  # noqa: E731
        must_settle = "telltale" in (name, identifier) and cid in IDENTIFIABLE
    outputs = [r.output for r in rows]
    final = outputs[-1]
    t_star = None
    if correct(final):
        t_star = len(outputs)
        while t_star > 1 and outputs[t_star - 2] == final:
            t_star -= 1
    if (report["stabilized"], report["t_star"], report["final_output"]) != (
        t_star is not None, t_star, final
    ):
        return "report disagrees with the transcript"
    if report["correct_at_horizon"] != (t_star is not None):
        return "correct_at_horizon is wrong"
    if must_settle and t_star is None:
        return "did not stabilize on a correct output"
    if name == "alg2" and must_settle:
        least = next(z for z in range(1, final + 1) if _equal(collection.language(z), target))
        if final != least:
            return f"ended on {final}, not the least equal index {least}"
    return None


def check_certificate(op: Operation, result, replays, truth: dict[str, Collection]) -> Optional[str]:
    """Why the checker's answer contradicts ground truth, or None."""
    if result.verdict != op.expect:
        return f"verdict {result.verdict}, expected {op.expect}"
    if result.verdict != VERDICT_VIOLATION:
        return None
    if replays is not True:
        return "certificate does not replay"
    collection = truth[op.config["collection"]]
    lang = collection.language(result.index)
    witness = collection.language(result.witness_index)
    e = result.strictness_element
    if not all(witness.member(x) for x in result.telltale):
        return "witness misses a tell-tale element"
    if not lang.member(e) or witness.member(e):
        return "strictness element does not separate"
    probe = witness.finite_elements() if witness.is_finite else witness.first_elements(64)[0]
    if not all(lang.member(x) for x in probe):
        return "witness is not inside the checked language"
    return None


def evaluate(workload: str, op: Operation, output, truth: dict[str, Collection]) -> Result:
    """Digest text, counts and ground-truth verdict of one operation's output."""
    if workload == "checker":
        result, replays = output
        payload = result.to_dict()
        if replays is not None:
            payload["replays"] = replays
        return Result(
            json.dumps(payload, sort_keys=True), None, 0,
            check_certificate(op, result, replays, truth),
        )
    outcome, jsonl, report = output
    return Result(
        jsonl + json.dumps(report, sort_keys=True),
        {p: report["queries"][p] for p in PURPOSES},
        len(outcome.transcript.rows),
        check_game(op, outcome, report, truth),
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
