"""Run complete games to a finite horizon and analyze the results.

A ``GameScenario`` pins everything a run needs: collection, target
index, candidate set (for detection games), presentation strategy and
seed, algorithm selection, and horizon. ``run_game`` drives the run,
producing a transcript with per-step fresh-query accounting and a
stabilization report computed against exact ground truth.

Finite horizons cannot prove limit statements, so reports only ever say
an output was stable and correct *through* the horizon.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, fields, replace
from itertools import chain, filterfalse, islice, repeat
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .adversary import RNG_ALGORITHM, EnumerationStream, LabeledStream, Strategy
from .detectors import NegativeExampleDetector, ScanDetector
from .identifiers import IDENTIFIER_NAMES, Inapplicable, make_identifier
from .languages import (
    CandidateOracle,
    CandidateSet,
    Collection,
    CollectionOracle,
    ConfigError,
    Language,
    PURPOSE_CONSISTENCY,
    PURPOSE_DETECTOR,
    QueryLedger,
    _element_tuple,
    candidate_from_config,
    candidate_subset_of,
    candidate_to_config,
    catalog,
    check_kind,
    check_taken,
    config_field,
    domain_candidate,
    empty_candidate,
    language_candidate,
    language_subset,
    resolve_collection,
    union_candidate,
)
from .reduction import ReductionIdentifier, RoundState

# Every algorithm and, in wire order, the params it takes.
ALGORITHM_PARAMS = {"telltale": (), "consistency_min": (), "negex": (),
                    "alg1": ("identifier",), "alg2": ("identifier", "fresh_copies")}
DETECTION_ALGORITHMS = ("negex", "alg1")

# The fields a scenario file takes.
SCENARIO_FIELDS = ("scenario_id", "collection", "target_index", "candidate", "adversary",
                   "algorithm", "horizon")

# Scenario ids name output files, so they may not hold path separators.
SCENARIO_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

# Steps of the presentation run_game draws at once: no output feeds back
# into it, and an interrupted run draws at most one block.
STEP_BLOCK = 1024


@dataclass(frozen=True)
class GameScenario:
    """One complete game configuration."""

    scenario_id: str
    collection_id: str
    target_index: int
    algorithm: str
    candidate: Optional[CandidateSet] = None
    identifier: Optional[str] = None
    fresh_copies: bool = False
    strategy: Strategy = Strategy()
    horizon: int = 1000


class StepRecord(NamedTuple):
    t: int
    w: int
    y: Optional[int]
    output: int
    fresh_candidate: int
    fresh_consistency: int
    fresh_detector: int


@dataclass
class Transcript:
    """Completed steps as ``StepRecord`` columns; ``rows`` builds the records."""

    meta: dict
    t: range
    w: list[int]
    y: Optional[list[int]]  # labeled games only
    output: list[int]
    fresh_candidate: list[int]
    fresh_consistency: list[int]
    fresh_detector: list[int]
    final_state: Optional[RoundState] = None

    @property
    def rows(self) -> list[StepRecord]:
        columns = [getattr(self, name) for name in StepRecord._fields]
        return list(map(StepRecord, *[repeat(None) if c is None else c for c in columns]))


@dataclass(frozen=True)
class StabilizationReport:
    """Finite-horizon convergence evidence.

    ``stabilized`` means the output was constant and correct from
    ``t_star`` through the horizon; it never claims more than that.
    """

    stabilized: bool
    t_star: Optional[int]
    final_output: Optional[int]
    correct_at_horizon: bool


def _report_fields(report: Optional[StabilizationReport]) -> dict:
    """The report's fields by name, all None when the run has no report."""
    return {
        f.name: None if report is None else getattr(report, f.name)
        for f in fields(StabilizationReport)
    }


@dataclass
class RunOutcome:
    """One run: the transcript keeps each completed step's counts, ``queries`` the totals."""

    scenario: GameScenario
    status: str  # "ok" | "inapplicable"
    transcript: Transcript
    report: Optional[StabilizationReport]
    queries: dict[str, int]  # per purpose, queries before step 1 and in an interrupted step too
    ground_truth_subset: Optional[bool] = None  # detection games only
    detail: Optional[str] = None


def analyze_stabilization(
    outputs: Sequence[int], is_correct: Callable[[int], bool]
) -> StabilizationReport:
    """Least step from which the output is constant and correct through the end."""
    if not outputs:
        return StabilizationReport(False, None, None, False)
    final = outputs[-1]
    if not is_correct(final):
        return StabilizationReport(False, None, final, False)
    start = len(outputs)
    while start > 1 and outputs[start - 2] == final:
        start -= 1
    return StabilizationReport(True, start, final, True)


def _check_algorithm(name: object, params: Mapping) -> None:
    """ConfigError for an unknown algorithm or a non-null param it does not take."""
    if not isinstance(name, str) or name not in ALGORITHM_PARAMS:
        known = ", ".join(ALGORITHM_PARAMS)
        raise ConfigError(f"algorithm: unknown name {name!r} (known: {known})")
    check_taken(params, ALGORITHM_PARAMS[name], f"algorithm: {name!r}")


def validate_scenario(
    scenario: GameScenario, collections: Mapping[str, Collection]
) -> Collection:
    """Check a scenario against the rules a scenario file is held to."""
    sid = check_kind("scenario_id", scenario.scenario_id, str)
    if not SCENARIO_ID_PATTERN.fullmatch(sid):
        raise ConfigError(f"scenario_id: {sid!r} must match {SCENARIO_ID_PATTERN.pattern}")
    collection = resolve_collection(check_kind("collection", scenario.collection_id, str),
                                    collections)
    collection.language(scenario.target_index)
    if check_kind("horizon", scenario.horizon, int) < 1:
        raise ConfigError("horizon: must be >= 1")
    check_kind("fresh_copies", scenario.fresh_copies, bool)
    alg = scenario.algorithm
    # fresh_copies unset is False; a file's unset param is null
    _check_algorithm(alg, {"identifier": scenario.identifier,
                           "fresh_copies": scenario.fresh_copies or None})
    if alg in DETECTION_ALGORITHMS:
        if scenario.candidate is None:
            raise ConfigError(f"candidate: algorithm {alg!r} requires a candidate set")
        check_kind("candidate", scenario.candidate, CandidateSet)
    elif scenario.candidate is not None:
        raise ConfigError(f"candidate: identification algorithm {alg!r} takes no candidate set")
    if "identifier" in ALGORITHM_PARAMS[alg] and scenario.identifier not in IDENTIFIER_NAMES:
        raise ConfigError(
            f"identifier: algorithm {alg!r} requires one of {', '.join(IDENTIFIER_NAMES)}"
        )
    strategy = check_kind("strategy", scenario.strategy, Strategy)
    if strategy.name == "block_shuffle" and strategy.block_growth > scenario.horizon:
        # The first block alone holds block_growth elements.
        raise ConfigError("block_growth: must not exceed the horizon")
    return collection


def run_game(
    scenario: GameScenario, collections: Optional[Mapping[str, Collection]] = None
) -> RunOutcome:
    """Drive one game for the scenario's horizon; never raises Inapplicable."""
    collections = catalog() if collections is None else collections
    collection = validate_scenario(scenario, collections)
    target = collection.language(scenario.target_index)
    alg = scenario.algorithm
    ledger = QueryLedger()
    consistency = CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY, cached=False)
    detector = CollectionOracle(collection, ledger, PURPOSE_DETECTOR, cached=alg == "alg2")
    # validation gives detection games, and only them, a candidate
    candidate = scenario.candidate
    ground_truth = None if candidate is None else candidate_subset_of(candidate, target)

    if alg == "negex":
        stream: object = LabeledStream(target, scenario.strategy)
        algorithm: object = NegativeExampleDetector(
            CandidateOracle(candidate, ledger, cached=False)
        )
    else:
        stream = EnumerationStream(target, scenario.strategy)
        if alg == "alg1":
            algorithm = ScanDetector(
                make_identifier(scenario.identifier, collection, consistency),
                CandidateOracle(candidate, ledger, cached=True).member,
                detector,
            )
        elif alg == "alg2":
            algorithm = ReductionIdentifier(
                collection, scenario.identifier, detector, consistency,
                fresh_copies=scenario.fresh_copies,
            )
        else:
            algorithm = make_identifier(alg, collection, consistency)

    ws, ys = [], ([] if alg == "negex" else None)
    outputs: list[int] = []
    step, append, horizon = algorithm.step, outputs.append, scenario.horizon
    status = "ok"
    detail: Optional[str] = None
    try:
        for start in range(1, horizon + 1, STEP_BLOCK):
            n = min(STEP_BLOCK, horizon + 1 - start)
            items = block = stream.take(n)
            if ys is not None:
                block, labels = items
                ys += labels
                items = zip(block, labels)
            ws += block
            ledger.open_steps(n)
            for ledger.step, item in enumerate(items, start):
                append(step(item))
    except Inapplicable as exc:
        status, detail = "inapplicable", str(exc)
        del ws[len(outputs):]
        if ys is not None:
            del ys[len(outputs):]
    queries = ledger.totals_by_purpose()
    counts = ledger.take(len(outputs))
    final_state = algorithm.last_round if alg == "alg2" else None
    transcript = Transcript(_scenario_fields(scenario, rng_algorithm=RNG_ALGORITHM),
                            range(1, len(outputs) + 1), ws, ys, outputs, *counts, final_state)

    report = None
    if status == "ok":
        if ground_truth is not None:
            expected = int(ground_truth)
            report = analyze_stabilization(outputs, lambda v: v == expected)
        else:
            k = scenario.target_index
            report = analyze_stabilization(outputs, lambda g: collection.equals(g, k))
    return RunOutcome(
        scenario=scenario,
        status=status,
        transcript=transcript,
        report=report,
        queries=queries,
        ground_truth_subset=ground_truth,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# Sweeps

SWEEP_COLUMNS = (
    "scenario_id",
    "algorithm",
    "stabilized",
    "t_star",
    "correct_at_horizon",
    "candidate_queries",
    "consistency_queries",
    "detector_queries",
    "status",
    "detail",
)


def run_sweep(
    scenarios: Sequence[GameScenario],
    collections: Optional[Mapping[str, Collection]] = None,
) -> list[dict]:
    """Run every scenario independently; errors become failed rows.
    Ids are compared and sorted as text: a non-string id gets its row too."""
    ids = [str(s.scenario_id) for s in scenarios]
    if len(set(ids)) != len(ids):
        raise ConfigError("scenario ids must be unique within a sweep")
    collections = catalog() if collections is None else collections
    rows = []
    for scenario in scenarios:
        try:
            outcome = run_game(scenario, collections)
        except ConfigError as exc:
            rows.append(_sweep_row(scenario, None, "error", str(exc)))
            continue
        rows.append(_sweep_row(scenario, outcome, outcome.status, outcome.detail))
    rows.sort(key=lambda row: str(row["scenario_id"]))
    return rows


def _sweep_row(
    scenario: GameScenario, outcome: Optional[RunOutcome], status: str, detail: Optional[str]
) -> dict:
    values = {"scenario_id": scenario.scenario_id, "algorithm": scenario.algorithm,
              "status": status, "detail": detail}
    if outcome is not None:
        values.update(_report_fields(outcome.report))
        values.update({f"{purpose}_queries": n for purpose, n in outcome.queries.items()})
    return {column: _csv_cell(values.get(column)) for column in SWEEP_COLUMNS}


def _csv_cell(value):
    """Bools as true/false, None as an empty cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else value


def sweep_to_csv(rows: Iterable[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Tell-tale condition checking

VERDICT_SATISFIED = "satisfied_exactly"
VERDICT_VIOLATION = "violation_certified"
VERDICT_INCONCLUSIVE = "inconclusive_within_bounds"

DEFAULT_CHECK_BOUNDS = (64, 512)
# Largest element an explicit tell-tale may hold. finite_plus_all
# encodes a finite set as a bit mask, so for element x its witness
# index is about 2^x; at this cap it still prints in ~3000 digits.
MAX_TELLTALE_ELEMENT = 10_000


@dataclass(frozen=True, slots=True)
class AngluinCheckResult:
    """Outcome of the bounded tell-tale condition check.

    ``satisfied_exactly`` is only issued on the strength of a
    closed-form argument covering every index of the family;
    ``violation_certified`` carries a witness index and a strictness
    element and replays through the membership oracle alone;
    ``inconclusive_within_bounds`` is the honest third answer.
    """

    collection_id: str
    index: int
    telltale: tuple[int, ...]
    verdict: str
    index_bound: int
    element_bound: int
    method: str  # "closed_form" | "bounded_search"
    witness_index: Optional[int] = None
    strictness_element: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "collection": self.collection_id,
            "index": self.index,
            "telltale": list(self.telltale),
            "verdict": self.verdict,
            "bounds": {"index": self.index_bound, "element": self.element_bound},
            "method": self.method,
            "witness_index": self.witness_index,
            "strictness_element": self.strictness_element,
        }


def _strictness_element(lang: Language, witness: Language, element_bound: int) -> Optional[int]:
    """First element of ``lang`` outside ``witness`` with value <= element_bound."""
    return next(filterfalse(witness.member, lang.within(1, element_bound)), None)


def _proper_subset(collection: Collection, i: int, j: int) -> bool:
    return collection.subset_of(i, j) and not collection.subset_of(j, i)


def check_angluin(
    collection: Collection,
    index: int,
    telltale: Optional[Iterable[int]] = None,
    bounds: tuple[int, int] = DEFAULT_CHECK_BOUNDS,
) -> AngluinCheckResult:
    """Search for a family member between the tell-tale and L_index.

    A violation is an index j whose language contains the tell-tale yet
    is a proper subset of L_index. Collections with a closed-form search
    settle the question for every j; otherwise indices up to bounds[0]
    are tried, certifying proper subsets through the collection's exact
    relations plus a strictness element of value at most bounds[1].
    An explicit tell-tale may hold elements up to MAX_TELLTALE_ELEMENT.
    """
    if type(bounds) not in (tuple, list) or len(bounds) != 2:
        raise ConfigError(f"bounds: expected a pair of integers, got {bounds!r}")
    index_bound, element_bound = bounds
    if check_kind("bounds", index_bound, int) < 1 or check_kind("bounds", element_bound, int) < 1:
        raise ConfigError("bounds: both the index and element bound must be >= 1")
    lang = collection.language(index)
    if telltale is None:
        tt = collection.telltale(index)
        if tt is None:
            raise ConfigError(
                f"collection {collection.id!r} has no tell-tale for index {index}; "
                "supply one explicitly"
            )
        elements = tuple(sorted(tt))
    else:
        elements = _element_tuple(telltale)
        if elements and elements[-1] > MAX_TELLTALE_ELEMENT:
            raise ConfigError(
                f"telltale: element {elements[-1]} exceeds the cap {MAX_TELLTALE_ELEMENT}"
            )
        for x in elements:
            if not lang.member(x):
                raise ConfigError(
                    f"telltale: element {x} is outside the index-{index} language"
                )

    if collection.finite_telltale_violation is not None:
        method = "closed_form"
        witness = collection.finite_telltale_violation(index, frozenset(elements))
        if witness is None:
            return AngluinCheckResult(collection.id, index, elements, VERDICT_SATISFIED,
                                      index_bound, element_bound, method)
        witnesses: Iterable = ((witness, collection.uncached_language(witness)),)
    else:
        method = "bounded_search"
        searched = ((j, collection.uncached_language(j)) for j in range(1, index_bound + 1))
        witnesses = ((j, lang_j) for j, lang_j in searched
                     if all(map(lang_j.member, elements))
                     and language_subset(lang_j, lang) and not language_subset(lang, lang_j))
    for j, lang_j in witnesses:
        strictness = _strictness_element(lang, lang_j, element_bound)
        if strictness is not None:
            return AngluinCheckResult(collection.id, index, elements, VERDICT_VIOLATION,
                                      index_bound, element_bound, method, j, strictness)
    return AngluinCheckResult(collection.id, index, elements, VERDICT_INCONCLUSIVE,
                              index_bound, element_bound, method)


def replay_certificate(collection: Collection, result: AngluinCheckResult) -> bool:
    """Re-verify a violation certificate with membership queries only."""
    if result.verdict != VERDICT_VIOLATION:
        raise ConfigError("only violation certificates can be replayed")
    j = result.witness_index
    i = result.index
    if j is None or result.strictness_element is None:
        return False
    lang, witness_lang = collection.language(i), collection.uncached_language(j)
    in_i, in_j = lang.member, witness_lang.member
    if not all(map(in_j, result.telltale)):
        return False
    e = result.strictness_element
    if not in_i(e) or in_j(e):
        return False
    if witness_lang.is_finite:
        return all(map(in_i, witness_lang.elements))
    # Infinite witness language: lean on exact relations, then spot-check.
    if not language_subset(witness_lang, lang):
        return False
    return all(map(in_i, islice(witness_lang.listing(), 32)))


# ---------------------------------------------------------------------------
# Round trip: identifier -> detector -> identifier on one scenario


@dataclass
class RoundtripResult:
    identifier_run: RunOutcome
    detector_run: RunOutcome
    reduced_run: RunOutcome
    agreement: bool

    def to_dict(self) -> dict:
        def leg(outcome: RunOutcome) -> dict:
            return {"status": outcome.status, **_report_fields(outcome.report)}

        scenario = self.identifier_run.scenario
        return {
            "collection": scenario.collection_id,
            "target_index": scenario.target_index,
            "horizon": scenario.horizon,
            "legs": {
                "identifier": leg(self.identifier_run),
                "detector_on_target": leg(self.detector_run),
                "reduced_identifier": leg(self.reduced_run),
            },
            "agreement": self.agreement,
        }


def run_roundtrip(
    collection_id: str,
    target_index: int,
    horizon: int = 300,
    strategy: Strategy = Strategy(),
    fresh_copies: bool = False,
    collections: Optional[Mapping[str, Collection]] = None,
) -> RoundtripResult:
    """Direct identifier, detector built on it, identifier rebuilt from that.

    The middle leg tests the target language against itself, so its
    verdicts must settle on 1. Agreement holds when the direct and the
    reduced identifier both end on indices whose languages equal the
    target, stable through the horizon.
    """
    collections = catalog() if collections is None else collections
    collection = resolve_collection(collection_id, collections)
    collection.language(target_index)
    if collection.telltale(1) is None:
        raise Inapplicable(
            f"collection {collection_id!r} lacks a tell-tale oracle for index 1; "
            "the identifier-backed detector cannot be constructed"
        )
    scenario = GameScenario("roundtrip-identifier", collection_id, target_index, "telltale",
                            strategy=strategy, horizon=horizon)
    ident, detector, reduced = (run_game(leg, collections) for leg in (
        scenario,
        replace(scenario, scenario_id="roundtrip-detector", algorithm="alg1",
                identifier="telltale", candidate=language_candidate(collection, target_index)),
        replace(scenario, scenario_id="roundtrip-reduced", algorithm="alg2",
                identifier="telltale", fresh_copies=fresh_copies),
    ))
    agreement = all(leg.report is not None and leg.report.stabilized for leg in (ident, reduced))
    return RoundtripResult(ident, detector, reduced, agreement)


# ---------------------------------------------------------------------------
# Standard grids


def least_nonmember(language: Language) -> Optional[int]:
    """Smallest domain element outside the language, None when it is everything."""
    if language.modulus == 1:
        return None
    x = 1
    while language.member(x):
        x += 1
    return x


# Both searches stop by index 2k+1 so that they end on any collection;
# every catalog collection has its pick inside that range.
def proper_superset_index(collection: Collection, k: int) -> Optional[int]:
    """Least j <= 2k+1 with L_k a proper subset of L_j, else None."""
    return next((j for j in range(1, 2 * k + 2) if _proper_subset(collection, k, j)), None)


def proper_subset_index(collection: Collection, k: int) -> Optional[int]:
    """Greatest j < k with L_j a proper subset of L_k, else the least such
    j in k+1..2k, else None."""
    order = [*range(k - 1, 0, -1), *range(k + 1, 2 * k + 1)]
    return next((j for j in order if _proper_subset(collection, j, k)), None)


def standard_candidates(
    collection: Collection, target_index: int
) -> list[tuple[str, CandidateSet]]:
    """The candidate roster for a target: equal, superset, subset,
    target-plus-outsider, empty, everything. Combinations that do not
    exist in the collection (no proper superset of the full domain, no
    proper nonempty subset of a singleton) are omitted."""
    target = collection.language(target_index)
    roster = [("g-eq", language_candidate(collection, target_index))]
    sup = proper_superset_index(collection, target_index)
    if sup is not None:
        roster.append(("g-sup", language_candidate(collection, sup)))
    sub = proper_subset_index(collection, target_index)
    if sub is not None:
        roster.append(("g-sub", language_candidate(collection, sub)))
    outsider = least_nonmember(target)
    if outsider is not None:
        roster.append(
            ("g-plus", union_candidate(language_candidate(collection, target_index), [outsider]))
        )
    roster.append(("g-empty", empty_candidate()))
    roster.append(("g-all", domain_candidate()))
    return roster


def standard_strategies(seed: int) -> tuple[Strategy, ...]:
    return (
        Strategy("canonical", seed=seed),
        Strategy("repeat_heavy", seed=seed, repeat_num=1, repeat_den=2),
        Strategy("block_shuffle", seed=seed, block_growth=2),
    )


STANDARD_SEEDS = (1, 2)


def _grid(
    algorithm: str, roster: Callable, collection_ids: Optional[Sequence[str]],
    max_target: int, horizon: int, seeds: Sequence[int], identifier: Optional[str],
    collections: Optional[Mapping[str, Collection]],
) -> list[GameScenario]:
    """Collections x targets x roster x seeds x standard strategies, where
    the roster lists (tag, candidate) pairs and a None tag is left out of
    the scenario id."""
    collections = catalog() if collections is None else collections
    scenarios = []
    for cid in list(collections) if collection_ids is None else collection_ids:
        collection = resolve_collection(cid, collections)
        for k in range(1, max_target + 1):
            for tag, candidate in roster(collection, k):
                cell = f"{algorithm}-{cid}-k{k}" + ("" if tag is None else f"-{tag}")
                scenarios.extend(
                    GameScenario(f"{cell}-{strategy.name}-s{seed}", cid, k, algorithm,
                                 candidate=candidate, identifier=identifier,
                                 strategy=strategy, horizon=horizon)
                    for seed in seeds
                    for strategy in standard_strategies(seed)
                )
    return scenarios


def detection_grid(
    algorithm: str,
    collection_ids: Optional[Sequence[str]] = None,
    max_target: int = 8,
    horizon: int = 1000,
    seeds: Sequence[int] = STANDARD_SEEDS,
    identifier: Optional[str] = None,
    collections: Optional[Mapping[str, Collection]] = None,
) -> list[GameScenario]:
    return _grid(algorithm, standard_candidates, collection_ids, max_target, horizon,
                 seeds, identifier, collections)


def identification_grid(
    algorithm: str,
    collection_ids: Sequence[str],
    max_target: int = 12,
    horizon: int = 1000,
    seeds: Sequence[int] = STANDARD_SEEDS,
    identifier: Optional[str] = None,
    collections: Optional[Mapping[str, Collection]] = None,
) -> list[GameScenario]:
    return _grid(algorithm, lambda collection, k: [(None, None)], collection_ids,
                 max_target, horizon, seeds, identifier, collections)


# ---------------------------------------------------------------------------
# Serialization


def _algorithm_config(scenario: GameScenario) -> dict:
    params = {key: getattr(scenario, key) for key in ALGORITHM_PARAMS[scenario.algorithm]}
    return {"name": scenario.algorithm, "params": params}


def _scenario_fields(scenario: GameScenario, **field: object) -> dict:
    """The scenario's wire fields but its candidate, with ``field`` put in its place."""
    return {
        "scenario_id": scenario.scenario_id,
        "collection": scenario.collection_id,
        "target_index": scenario.target_index,
        **field,
        "adversary": scenario.strategy.to_config(),
        "algorithm": _algorithm_config(scenario),
        "horizon": scenario.horizon,
    }


def scenario_to_config(scenario: GameScenario) -> dict:
    candidate = scenario.candidate
    return _scenario_fields(
        scenario, candidate=None if candidate is None else candidate_to_config(candidate)
    )


def scenario_from_config(
    config: Mapping, collections: Optional[Mapping[str, Collection]] = None
) -> GameScenario:
    collections = catalog() if collections is None else collections
    if not isinstance(config, Mapping) or not all(
        key in config for key in ("collection", "target_index", "algorithm")
    ):
        raise ConfigError("scenario: needs collection, target_index and algorithm fields")
    check_taken(config, SCENARIO_FIELDS, "scenario", "field")
    collection_id = config_field(config, "collection", str)
    algorithm = config["algorithm"]
    if isinstance(algorithm, str):
        algorithm = {"name": algorithm}
    elif not isinstance(algorithm, Mapping):
        raise ConfigError(f"algorithm: expected a name or an object, got {algorithm!r}")
    check_taken(algorithm, ("name", "params"), "algorithm", "field")
    name = algorithm.get("name", "")
    params = config_field(algorithm, "params", Mapping, {})
    _check_algorithm(name, params)
    candidate_config = config.get("candidate")
    candidate = (
        None
        if candidate_config is None
        else candidate_from_config(candidate_config, collections, collection_id)
    )
    scenario = GameScenario(
        scenario_id=config_field(config, "scenario_id", str, ""),
        collection_id=collection_id,
        target_index=config["target_index"],
        algorithm=name,
        candidate=candidate,
        identifier=params.get("identifier"),
        fresh_copies=config_field(params, "fresh_copies", bool, False),
        strategy=Strategy.from_config(config_field(config, "adversary", Mapping, {})),
        horizon=config_field(config, "horizon", int, 1000),
    )
    validate_scenario(scenario, collections)
    return scenario


# Per record shape: the head template and the Transcript columns it takes,
# then the row template, whose %s takes the head (a record's leading fields,
# which rarely change within a run), and its %d fields' columns. Keys are in
# json.dumps(sort_keys=True) order; tests and golden digests pin the bytes.
_QUERIES = ('{"fresh_candidate_queries": %d, "fresh_collection_queries_by_purpose": '
            '{"consistency": %d, "detector": ')
_COUNTS = ("fresh_candidate", "fresh_consistency")
_HEAD = (_QUERIES + "%d}, ", (*_COUNTS, "fresh_detector"))
_STEP_FORMATS = {
    **dict.fromkeys(ALGORITHM_PARAMS, (_HEAD[0] + '"guess": %d, ', (*_HEAD[1], "output"),
                                       '%s"t": %d, "w": %d}\n', ("t", "w"))),
    # pooled alg2's detector count grows with t, so its heads would rarely repeat
    "alg2": (_QUERIES, _COUNTS, '%s%d}, "guess": %d, "t": %d, "w": %d}\n',
             ("fresh_detector", "output", "t", "w")),
    "negex": (*_HEAD, '%s"t": %d, "verdict": %d, "w": %d, "y": %d}\n', ("t", "output", "w", "y")),
    "alg1": (*_HEAD, '%s"t": %d, "verdict": %d, "w": %d}\n', ("t", "output", "w")),
}


class _Heads(dict):
    """Rendered heads by their column values, each rendered on first sight."""

    def __init__(self, template: str):
        self.template = template

    def __missing__(self, key: tuple) -> str:
        head = self[key] = self.template % key
        return head


# Step records rendered per chunk: about 150 kB of text.
TRANSCRIPT_CHUNK_ROWS = 1024


def transcript_chunks(outcome: RunOutcome) -> Iterator[str]:
    """The JSONL transcript in pieces of whole lines: the meta record, at most
    ``TRANSCRIPT_CHUNK_ROWS`` step records rendered by one ``%`` each, and
    for reduction runs a trailing final-round state record."""
    head_template, head_columns, template, columns = _STEP_FORMATS[outcome.scenario.algorithm]
    transcript = outcome.transcript
    yield json.dumps({"meta": transcript.meta}, sort_keys=True) + "\n"
    heads = _Heads(head_template)
    rows = zip(map(heads.__getitem__, zip(*[getattr(transcript, name) for name in head_columns])),
               *[getattr(transcript, name) for name in columns])
    while flat := tuple(chain.from_iterable(islice(rows, TRANSCRIPT_CHUNK_ROWS))):
        heads.clear()  # a run whose heads never repeat would hold one per step
        yield template * (len(flat) // (1 + len(columns))) % flat
    state = transcript.final_state
    if state is not None:
        final_state = {name: getattr(state, name)
                       for name in ("t", "consistent", "accepted", "guess", "inapplicable")}
        yield json.dumps({"final_state": final_state}, sort_keys=True) + "\n"


def transcript_to_jsonl(outcome: RunOutcome) -> str:
    """Spec wire format: a meta record, one record per step, and for
    reduction runs a trailing final-round state record."""
    return "".join(transcript_chunks(outcome))


def report_to_dict(outcome: RunOutcome) -> dict:
    return {
        "scenario": scenario_to_config(outcome.scenario),
        "status": outcome.status,
        "detail": outcome.detail,
        "rng_algorithm": RNG_ALGORITHM,
        "ground_truth_subset": outcome.ground_truth_subset,
        **_report_fields(outcome.report),
        "queries": dict(outcome.queries),
    }
