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
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

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
    LanguageCandidateOracle,
    PURPOSE_CANDIDATE,
    PURPOSE_CONSISTENCY,
    PURPOSE_DETECTOR,
    QueryLedger,
    candidate_from_config,
    candidate_subset_of,
    candidate_to_config,
    catalog,
    config_field,
    domain_candidate,
    empty_candidate,
    language_candidate,
    resolve_collection,
    union_candidate,
)
from .reduction import ReductionIdentifier, RoundState

ALGORITHM_NAMES = ("telltale", "consistency_min", "negex", "alg1", "alg2")
IDENTIFICATION_ALGORITHMS = ("telltale", "consistency_min", "alg2")
DETECTION_ALGORITHMS = ("negex", "alg1")

# Scenario ids name output files, so they may not hold path separators.
SCENARIO_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


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
    meta: dict
    rows: list[StepRecord] = field(default_factory=list)
    final_state: Optional[RoundState] = None
    identifier_guesses: Optional[list[int]] = None  # in-memory extra for alg1 runs


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
    scenario: GameScenario
    status: str  # "ok" | "inapplicable"
    transcript: Transcript
    report: Optional[StabilizationReport]
    ledger: QueryLedger
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


def validate_scenario(
    scenario: GameScenario, collections: Mapping[str, Collection]
) -> Collection:
    sid = scenario.scenario_id
    if not SCENARIO_ID_PATTERN.fullmatch(sid):
        raise ConfigError(f"scenario_id: {sid!r} must match {SCENARIO_ID_PATTERN.pattern}")
    collection = resolve_collection(scenario.collection_id, collections)
    collection.language(scenario.target_index)
    if scenario.horizon < 1:
        raise ConfigError("horizon: must be >= 1")
    alg = scenario.algorithm
    if alg not in ALGORITHM_NAMES:
        raise ConfigError(f"algorithm: unknown name {alg!r} (known: {', '.join(ALGORITHM_NAMES)})")
    if alg in DETECTION_ALGORITHMS and scenario.candidate is None:
        raise ConfigError(f"candidate: algorithm {alg!r} requires a candidate set")
    if alg in IDENTIFICATION_ALGORITHMS and scenario.candidate is not None:
        raise ConfigError(f"candidate: identification algorithm {alg!r} takes no candidate set")
    if alg in ("alg1", "alg2"):
        if scenario.identifier not in IDENTIFIER_NAMES:
            raise ConfigError(
                f"identifier: algorithm {alg!r} requires one of {', '.join(IDENTIFIER_NAMES)}"
            )
    strategy = scenario.strategy
    if strategy.name == "block_shuffle" and strategy.block_growth > scenario.horizon:
        # The first block alone holds block_growth elements.
        raise ConfigError("block_growth: must not exceed the horizon")
    return collection


def _transcript_meta(scenario: GameScenario) -> dict:
    meta = scenario_to_config(scenario)
    del meta["candidate"]
    meta["rng_algorithm"] = RNG_ALGORITHM
    return meta


def run_game(
    scenario: GameScenario, collections: Optional[Mapping[str, Collection]] = None
) -> RunOutcome:
    """Drive one game for the scenario's horizon; never raises Inapplicable."""
    collections = catalog() if collections is None else collections
    collection = validate_scenario(scenario, collections)
    target = collection.language(scenario.target_index)
    alg = scenario.algorithm
    ledger = QueryLedger()
    labeled = alg == "negex"
    ground_truth: Optional[bool] = None
    identifier_ref = None

    if alg == "negex":
        stream: object = LabeledStream(target, scenario.strategy)
        candidate_oracle = CandidateOracle(scenario.candidate, ledger, cached=False)
        algorithm: object = NegativeExampleDetector(candidate_oracle)
        ground_truth = candidate_subset_of(scenario.candidate, target)
    elif alg == "alg1":
        stream = EnumerationStream(target, scenario.strategy)
        identifier_ref = make_identifier(
            scenario.identifier, collection,
            CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY),
        )
        algorithm = ScanDetector(
            identifier_ref,
            CandidateOracle(scenario.candidate, ledger, cached=True),
            CollectionOracle(collection, ledger, PURPOSE_DETECTOR),
        )
        ground_truth = candidate_subset_of(scenario.candidate, target)
    elif alg in ("telltale", "consistency_min"):
        stream = EnumerationStream(target, scenario.strategy)
        algorithm = make_identifier(
            alg, collection, CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY)
        )
    else:  # alg2
        stream = EnumerationStream(target, scenario.strategy)
        detector_oracle = CollectionOracle(collection, ledger, PURPOSE_DETECTOR)

        def identifier():
            return make_identifier(scenario.identifier, collection, detector_oracle)

        # Pooled, one identifier is the guess tape for every index;
        # fresh copies keep a private one per detector.
        tape = None if scenario.fresh_copies else identifier()

        def factory(index: int) -> ScanDetector:
            # Everything inside a pooled detector, identifier included,
            # bills to the detector purpose; the candidate is the probed
            # language itself, so its queries hit the collection oracle.
            return ScanDetector(
                tape or identifier(),
                LanguageCandidateOracle(detector_oracle, index),
                detector_oracle,
            )

        algorithm = ReductionIdentifier(
            factory,
            CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY),
            fresh_copies=scenario.fresh_copies,
        )

    rows: list[StepRecord] = []
    status = "ok"
    detail: Optional[str] = None
    try:
        for t in range(1, scenario.horizon + 1):
            ledger.begin_step(t)
            if labeled:
                w, y = stream.next()
                output = algorithm.step((w, y))
            else:
                w = stream.next()
                y = None
                output = algorithm.step(w)
            rows.append(
                StepRecord(
                    t, w, y, output,
                    ledger.at(t, PURPOSE_CANDIDATE),
                    ledger.at(t, PURPOSE_CONSISTENCY),
                    ledger.at(t, PURPOSE_DETECTOR),
                )
            )
    except Inapplicable as exc:
        status = "inapplicable"
        detail = str(exc)

    transcript = Transcript(meta=_transcript_meta(scenario), rows=rows)
    if alg == "alg2":
        transcript.final_state = algorithm.last_round
    if identifier_ref is not None:
        transcript.identifier_guesses = list(identifier_ref.guesses)

    report = None
    if status == "ok":
        outputs = [row.output for row in rows]
        if alg in DETECTION_ALGORITHMS:
            expected = 1 if ground_truth else 0
            report = analyze_stabilization(outputs, lambda v: v == expected)
        else:
            k = scenario.target_index
            report = analyze_stabilization(outputs, lambda g: collection.equals(g, k))
    return RunOutcome(
        scenario=scenario,
        status=status,
        transcript=transcript,
        report=report,
        ledger=ledger,
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
    """Run every scenario independently; errors become failed rows."""
    ids = [s.scenario_id for s in scenarios]
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
    rows.sort(key=lambda row: row["scenario_id"])
    return rows


def _sweep_row(
    scenario: GameScenario, outcome: Optional[RunOutcome], status: str, detail: Optional[str]
) -> dict:
    row = {
        "scenario_id": scenario.scenario_id,
        "algorithm": scenario.algorithm,
        "stabilized": "",
        "t_star": "",
        "correct_at_horizon": "",
        "candidate_queries": "",
        "consistency_queries": "",
        "detector_queries": "",
        "status": status,
        "detail": detail or "",
    }
    if outcome is not None:
        totals = outcome.ledger.totals_by_purpose()
        row["candidate_queries"] = totals[PURPOSE_CANDIDATE]
        row["consistency_queries"] = totals[PURPOSE_CONSISTENCY]
        row["detector_queries"] = totals[PURPOSE_DETECTOR]
        if outcome.report is not None:
            row["stabilized"] = "true" if outcome.report.stabilized else "false"
            row["t_star"] = "" if outcome.report.t_star is None else outcome.report.t_star
            row["correct_at_horizon"] = (
                "true" if outcome.report.correct_at_horizon else "false"
            )
    return row


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


@dataclass(frozen=True)
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


def _strictness_element(
    collection: Collection, index: int, witness: int, element_bound: int
) -> Optional[int]:
    """First element of L_index outside L_witness with value <= element_bound."""
    lang = collection.language(index)
    rank = 1
    while True:
        x = lang.element_at(rank)
        if x > element_bound or (lang.is_finite and rank > len(lang.finite_elements())):
            return None
        if not collection.member(witness, x):
            return x
        rank += 1


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
    index_bound, element_bound = bounds
    if index_bound < 1 or element_bound < 1:
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
        elements = tuple(sorted(set(telltale)))
        if elements and elements[-1] > MAX_TELLTALE_ELEMENT:
            raise ConfigError(
                f"telltale: element {elements[-1]} exceeds the cap {MAX_TELLTALE_ELEMENT}"
            )
        for x in elements:
            if not lang.member(x):
                raise ConfigError(
                    f"telltale: element {x} is outside the index-{index} language"
                )

    def result(verdict: str, method: str, witness=None, strictness=None) -> AngluinCheckResult:
        return AngluinCheckResult(
            collection_id=collection.id,
            index=index,
            telltale=elements,
            verdict=verdict,
            index_bound=index_bound,
            element_bound=element_bound,
            method=method,
            witness_index=witness,
            strictness_element=strictness,
        )

    if collection.finite_telltale_violation is not None:
        witness = collection.finite_telltale_violation(index, frozenset(elements))
        if witness is None:
            return result(VERDICT_SATISFIED, "closed_form")
        strictness = _strictness_element(collection, index, witness, element_bound)
        if strictness is None:
            return result(VERDICT_INCONCLUSIVE, "closed_form")
        return result(VERDICT_VIOLATION, "closed_form", witness, strictness)

    for j in range(1, index_bound + 1):
        if not all(collection.member(j, x) for x in elements):
            continue
        if not _proper_subset(collection, j, index):
            continue
        strictness = _strictness_element(collection, index, j, element_bound)
        if strictness is not None:
            return result(VERDICT_VIOLATION, "bounded_search", j, strictness)
    return result(VERDICT_INCONCLUSIVE, "bounded_search")


def replay_certificate(collection: Collection, result: AngluinCheckResult) -> bool:
    """Re-verify a violation certificate with membership queries only."""
    if result.verdict != VERDICT_VIOLATION:
        raise ConfigError("only violation certificates can be replayed")
    j = result.witness_index
    i = result.index
    if j is None or result.strictness_element is None:
        return False
    if not all(collection.member(j, x) for x in result.telltale):
        return False
    e = result.strictness_element
    if not collection.member(i, e) or collection.member(j, e):
        return False
    witness_lang = collection.language(j)
    if witness_lang.is_finite:
        return all(collection.member(i, x) for x in witness_lang.finite_elements())
    # Infinite witness language: lean on exact relations, then spot-check.
    if not collection.subset_of(j, i):
        return False
    probe, _ = witness_lang.first_elements(32)
    return all(collection.member(i, x) for x in probe)


# ---------------------------------------------------------------------------
# Round trip: identifier -> detector -> identifier on one scenario


@dataclass
class RoundtripResult:
    collection_id: str
    target_index: int
    horizon: int
    identifier_run: RunOutcome
    detector_run: RunOutcome
    reduced_run: RunOutcome
    agreement: bool

    def to_dict(self) -> dict:
        def leg(outcome: RunOutcome) -> dict:
            return {"status": outcome.status, **_report_fields(outcome.report)}

        return {
            "collection": self.collection_id,
            "target_index": self.target_index,
            "horizon": self.horizon,
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
    base = dict(
        collection_id=collection_id,
        target_index=target_index,
        strategy=strategy,
        horizon=horizon,
    )
    ident = run_game(
        GameScenario(scenario_id="roundtrip-identifier", algorithm="telltale", **base),
        collections,
    )
    detector = run_game(
        GameScenario(
            scenario_id="roundtrip-detector",
            algorithm="alg1",
            identifier="telltale",
            candidate=language_candidate(collection, target_index),
            **base,
        ),
        collections,
    )
    reduced = run_game(
        GameScenario(
            scenario_id="roundtrip-reduced",
            algorithm="alg2",
            identifier="telltale",
            fresh_copies=fresh_copies,
            **base,
        ),
        collections,
    )
    agreement = bool(
        ident.report is not None
        and reduced.report is not None
        and ident.report.stabilized
        and reduced.report.stabilized
    )
    return RoundtripResult(
        collection_id=collection_id,
        target_index=target_index,
        horizon=horizon,
        identifier_run=ident,
        detector_run=detector,
        reduced_run=reduced,
        agreement=agreement,
    )


# ---------------------------------------------------------------------------
# Standard grids


def least_nonmember(language: Language) -> Optional[int]:
    """Smallest domain element outside the language, None when it is everything."""
    if candidate_subset_of(domain_candidate(), language):
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


def detection_grid(
    algorithm: str,
    collection_ids: Optional[Sequence[str]] = None,
    max_target: int = 8,
    horizon: int = 1000,
    seeds: Sequence[int] = STANDARD_SEEDS,
    identifier: Optional[str] = None,
    collections: Optional[Mapping[str, Collection]] = None,
) -> list[GameScenario]:
    collections = catalog() if collections is None else collections
    ids = list(collections) if collection_ids is None else list(collection_ids)
    scenarios = []
    for cid in ids:
        collection = resolve_collection(cid, collections)
        for k in range(1, max_target + 1):
            for tag, candidate in standard_candidates(collection, k):
                for seed in seeds:
                    for strategy in standard_strategies(seed):
                        scenarios.append(
                            GameScenario(
                                scenario_id=(
                                    f"{algorithm}-{cid}-k{k}-{tag}-{strategy.name}-s{seed}"
                                ),
                                collection_id=cid,
                                target_index=k,
                                algorithm=algorithm,
                                candidate=candidate,
                                identifier=identifier,
                                strategy=strategy,
                                horizon=horizon,
                            )
                        )
    return scenarios


def identification_grid(
    algorithm: str,
    collection_ids: Sequence[str],
    max_target: int = 12,
    horizon: int = 1000,
    seeds: Sequence[int] = STANDARD_SEEDS,
    identifier: Optional[str] = None,
    collections: Optional[Mapping[str, Collection]] = None,
) -> list[GameScenario]:
    collections = catalog() if collections is None else collections
    scenarios = []
    for cid in collection_ids:
        resolve_collection(cid, collections)
        for k in range(1, max_target + 1):
            for seed in seeds:
                for strategy in standard_strategies(seed):
                    scenarios.append(
                        GameScenario(
                            scenario_id=f"{algorithm}-{cid}-k{k}-{strategy.name}-s{seed}",
                            collection_id=cid,
                            target_index=k,
                            algorithm=algorithm,
                            identifier=identifier,
                            strategy=strategy,
                            horizon=horizon,
                        )
                    )
    return scenarios


# ---------------------------------------------------------------------------
# Serialization


def _algorithm_config(scenario: GameScenario) -> dict:
    params: dict = {}
    if scenario.algorithm in ("alg1", "alg2"):
        params["identifier"] = scenario.identifier
    if scenario.algorithm == "alg2":
        params["fresh_copies"] = scenario.fresh_copies
    return {"name": scenario.algorithm, "params": params}


def scenario_to_config(scenario: GameScenario) -> dict:
    return {
        "scenario_id": scenario.scenario_id,
        "collection": scenario.collection_id,
        "target_index": scenario.target_index,
        "candidate": (
            None if scenario.candidate is None else candidate_to_config(scenario.candidate)
        ),
        "adversary": scenario.strategy.to_config(),
        "algorithm": _algorithm_config(scenario),
        "horizon": scenario.horizon,
    }


def scenario_from_config(
    config: Mapping, collections: Optional[Mapping[str, Collection]] = None
) -> GameScenario:
    collections = catalog() if collections is None else collections
    if not isinstance(config, Mapping) or not all(
        key in config for key in ("collection", "target_index", "algorithm")
    ):
        raise ConfigError("scenario: needs collection, target_index and algorithm fields")
    collection_id = config_field(config, "collection", str)
    algorithm = config["algorithm"]
    if isinstance(algorithm, str):
        algorithm = {"name": algorithm}
    elif not isinstance(algorithm, Mapping):
        raise ConfigError(f"algorithm: expected a name or an object, got {algorithm!r}")
    params = config_field(algorithm, "params", Mapping, {})
    if params.get("detector") not in (None, "alg1"):
        raise ConfigError(
            "algorithm: the reduction consumes positive examples only; "
            f"detector {params['detector']!r} cannot drive it"
        )
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
        algorithm=algorithm.get("name", ""),
        candidate=candidate,
        identifier=params.get("identifier"),
        fresh_copies=config_field(params, "fresh_copies", bool, False),
        strategy=Strategy.from_config(config_field(config, "adversary", Mapping, {})),
        horizon=config_field(config, "horizon", int, 1000),
    )
    validate_scenario(scenario, collections)
    return scenario


def _step_format(output_key: str, labeled: bool = False) -> tuple[str, Callable]:
    """Row template and field getter for one shape of step record.

    ``json.dumps`` of a record whose values name ``StepRecord`` fields
    fixes key order and spacing; each name then becomes ``%d``, and the
    getter picks a row's fields in the order the names appeared.
    """
    record = {
        "t": "<t>",
        "w": "<w>",
        output_key: "<output>",
        "fresh_candidate_queries": "<fresh_candidate>",
        "fresh_collection_queries_by_purpose": {
            "consistency": "<fresh_consistency>",
            "detector": "<fresh_detector>",
        },
    }
    if labeled:
        record["y"] = "<y>"
    text = json.dumps(record, sort_keys=True)
    names = re.findall(r'"<(\w+)>"', text)
    template = re.sub(r'"<\w+>"', "%d", text)
    return template, itemgetter(*map(StepRecord._fields.index, names))


_STEP_FORMATS = {
    "negex": _step_format("verdict", labeled=True),
    "alg1": _step_format("verdict"),
    **dict.fromkeys(IDENTIFICATION_ALGORITHMS, _step_format("guess")),
}


def transcript_to_jsonl(outcome: RunOutcome) -> str:
    """Spec wire format: a meta record, one record per step, and for
    reduction runs a trailing final-round state record."""
    template, step_fields = _STEP_FORMATS[outcome.scenario.algorithm]
    lines = [json.dumps({"meta": outcome.transcript.meta}, sort_keys=True)]
    lines.extend([template % step_fields(row) for row in outcome.transcript.rows])
    state = outcome.transcript.final_state
    if state is not None:
        lines.append(
            json.dumps(
                {
                    "final_state": {
                        "t": state.t,
                        "consistent": list(state.consistent),
                        "accepted": list(state.accepted),
                        "guess": state.guess,
                        "inapplicable": list(state.inapplicable),
                    }
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def report_to_dict(outcome: RunOutcome) -> dict:
    return {
        "scenario": scenario_to_config(outcome.scenario),
        "status": outcome.status,
        "detail": outcome.detail,
        "rng_algorithm": RNG_ALGORITHM,
        "ground_truth_subset": outcome.ground_truth_subset,
        **_report_fields(outcome.report),
        "queries": outcome.ledger.totals_by_purpose(),
    }
