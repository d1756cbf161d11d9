"""Independent brute-force reference implementations.

Everything here restates the algorithm contracts literally, with no
caching, no incremental state, and no reuse of the production code
paths, so the tests can cross-validate the real implementations against
an oracle that is too slow to game. Expected values frozen into tests
were computed with these functions first. ``AnswerCacheOracle`` keeps
state on purpose: it restates what a cached handle bills, with one
stored answer per asked key.
"""

from __future__ import annotations

import json
import random
from itertools import count, islice
from typing import Callable, Iterator, Mapping, Optional, Sequence

from limitlab import (
    RNG_ALGORITHM,
    CandidateOracle,
    CandidateSet,
    Collection,
    CollectionOracle,
    EnumerationStream,
    GameScenario,
    Inapplicable,
    LabeledStream,
    Language,
    NegativeExampleDetector,
    QueryLedger,
    ReductionIdentifier,
    RunOutcome,
    ScanDetector,
    Strategy,
    Transcript,
    analyze_stabilization,
    candidate_subset_of,
    language_subset,
)
from limitlab.harness import _scenario_fields, validate_scenario
from limitlab.identifiers import make_identifier
from limitlab.languages import PURPOSE_CONSISTENCY, PURPOSE_DETECTOR, PURPOSES


def brute_decode_finite_set(index: int) -> tuple[int, ...]:
    """Characteristic-vector decoding by repeated division."""
    out = []
    value = 1
    while index:
        index, bit = divmod(index, 2)
        if bit:
            out.append(value)
        value += 1
    return tuple(out)


def extensional_subset(collection: Collection, i: int, j: int, scale: int = 10) -> bool:
    """Brute-force L_i <= L_j: full check for finite L_i, sampled to
    scale * max(i, j, largest finite element) otherwise."""
    lang_i = collection.language(i)
    if lang_i.is_finite:
        return all(collection.member(j, x) for x in lang_i.finite_elements())
    top = scale * max(i, j)
    elements, _ = lang_i.first_elements(top)
    return all(collection.member(j, x) for x in elements if x <= top)


def brute_strictness_element(collection: Collection, i: int, j: int, bound: int) -> Optional[int]:
    """Least x <= bound with x in L_i and x not in L_j, or None."""
    for x in range(1, bound + 1):
        if collection.member(i, x) and not collection.member(j, x):
            return x
    return None


def candidate_members_upto(candidate: CandidateSet, bound: int) -> set:
    return {x for x in range(1, bound + 1) if candidate.member(x)}


def language_members_upto(language: Language, bound: int) -> set:
    return {x for x in range(1, bound + 1) if language.member(x)}


def take(stream, n: int) -> list:
    """The stream's next n emissions, in order."""
    return [stream.next() for _ in range(n)]


def reference_presentation(language: Language, strategy: Strategy) -> Iterator[int]:
    """A seeded strategy's emissions, drawn through ``random.Random.randrange``
    and ``random.Random.shuffle`` over the language's canonical listing."""
    source, rng = language.listing(), random.Random(strategy.seed)
    if strategy.name == "block_shuffle":
        return reference_block_shuffle(source, rng, strategy.block_growth)
    assert strategy.name == "repeat_heavy", strategy
    return reference_repeat_heavy(source, rng, strategy.repeat_num, strategy.repeat_den)


def reference_block_shuffle(source: Iterator[int], rng: random.Random, growth: int):
    """Blocks of growth*1, growth*2, ... canonical elements, each ``shuffle``d."""
    for n in count(1):
        block = list(islice(source, growth * n))
        rng.shuffle(block)
        yield from block


def reference_repeat_heavy(source: Iterator[int], rng: random.Random, num: int, den: int):
    """With ``randrange(den) < num`` a ``randrange``-chosen seen element, else the next one."""
    seen_list: list[int] = []
    seen: set[int] = set()
    while True:
        if seen_list and rng.randrange(den) < num:
            yield seen_list[rng.randrange(len(seen_list))]
            continue
        value = next(source)
        if value not in seen:
            seen.add(value)
            seen_list.append(value)
        yield value


def rule_telltale_guesses(collection: Collection, prefix: Sequence[int]) -> list[int]:
    """Literal rule: least i <= t with telltale(i) within the seen set and
    every seen element inside L_i, else 1. Recomputed from scratch each step."""
    guesses = []
    for t in range(1, len(prefix) + 1):
        seen = set(prefix[:t])
        guess = 1
        for i in range(1, t + 1):
            telltale = collection.telltale(i)
            if telltale is None:
                raise AssertionError(f"no telltale for probed index {i}")
            if set(telltale) <= seen and all(collection.member(i, x) for x in seen):
                guess = i
                break
        guesses.append(guess)
    return guesses


def rule_consistency_guesses(collection: Collection, prefix: Sequence[int]) -> list[int]:
    guesses = []
    for t in range(1, len(prefix) + 1):
        seen = set(prefix[:t])
        guess = 1
        for i in range(1, t + 1):
            if all(collection.member(i, x) for x in seen):
                guess = i
                break
        guesses.append(guess)
    return guesses


def sim_scan_verdicts(
    collection: Collection,
    prefix: Sequence[int],
    candidate_member: Callable[[int], bool],
    identifier_rule: Callable[[Collection, Sequence[int]], list[int]] = rule_telltale_guesses,
) -> list[int]:
    """Literal identify-then-scan detection, recomputed per step."""
    guesses = identifier_rule(collection, prefix)
    verdicts = []
    for t in range(1, len(prefix) + 1):
        guess = guesses[t - 1]
        hallucinates = any(
            candidate_member(x) and not collection.member(guess, x)
            for x in range(1, t + 1)
        )
        verdicts.append(0 if hallucinates else 1)
    return verdicts


def sim_round_verdicts(
    collection: Collection, prefix: Sequence[int], inapplicable: Sequence[int] = ()
) -> list[int]:
    """Literal reduction round after ``prefix``: for each index i in 1..t,
    the last verdict of a fresh literal tell-tale detector with L_i as the
    candidate, or 0 when i is in ``inapplicable`` (its detector could not run)."""
    applicable = [i for i in range(1, len(prefix) + 1) if i not in inapplicable]
    # every detector's identifier sees the same prefix, so they share one guess list
    guesses = rule_telltale_guesses(collection, prefix) if applicable else []
    verdicts = [0] * len(prefix)
    for i in applicable:
        verdicts[i - 1] = sim_scan_verdicts(
            collection, prefix, lambda x: collection.member(i, x), lambda *_: guesses
        )[-1]
    return verdicts


def sim_reduction_guesses(collection: Collection, prefix: Sequence[int]) -> list[int]:
    """Literal reduction: per round, rebuild the consistent set and run a
    fresh literal detector for every index up to the round number."""
    guesses = []
    for t in range(1, len(prefix) + 1):
        seen = set(prefix[:t])
        consistent = [
            i for i in range(1, t + 1) if all(collection.member(i, x) for x in seen)
        ]
        accepted = []
        for i in range(1, t + 1):
            verdicts = sim_scan_verdicts(
                collection, prefix[:t], lambda x, _i=i: collection.member(_i, x)
            )
            if i in consistent and verdicts[-1] == 1:
                accepted.append(i)
        guesses.append(min(accepted) if accepted else 1)
    return guesses


def negex_flag_step(labeled_prefix: Sequence[tuple[int, int]], member: Callable[[int], bool]) -> Optional[int]:
    """First step whose element carries label 0 yet belongs to the candidate."""
    for t, (w, y) in enumerate(labeled_prefix, start=1):
        if y == 0 and member(w):
            return t
    return None


def least_escape(candidate: CandidateSet, target: Language) -> Optional[int]:
    """Smallest element of candidate \\ target, None when contained."""
    if candidate_subset_of(candidate, target):
        return None
    escapes = [x for x in candidate.plus if not target.member(x)]
    core = candidate.core
    if not (core.is_finite or language_subset(core, target)):
        x = core.modulus
        step = x
        while True:
            if x not in candidate.minus and not target.member(x):
                escapes.append(x)
                break
            x += step
            assert x < 10**7, "escape search ran away"
    if core.is_finite:
        escapes.extend(
            x
            for x in core.finite_elements()
            if x not in candidate.minus and not target.member(x)
        )
    assert escapes, "candidate_subset_of said no, but no escape found"
    return min(escapes)


def negex_expected_t_star(
    scenario: GameScenario, collection: Collection
) -> tuple[int, Optional[int]]:
    """(expected t*, first step the least escape appears) via stream replay.

    The detector latches on the first 0-labeled element it owns, which a
    permuting strategy may deliver before the least-valued escape; the
    second component is the classical bound step for the least escape.
    """
    target = collection.language(scenario.target_index)
    candidate = scenario.candidate
    if candidate_subset_of(candidate, target):
        return 1, None
    least = least_escape(candidate, target)
    stream = LabeledStream(target, scenario.strategy)
    first_any = None
    least_step = None
    for t in range(1, scenario.horizon + 1):
        w, y = stream.next()
        if first_any is None and y == 0 and candidate.member(w):
            first_any = t
        if least_step is None and w == least:
            least_step = t
        if first_any is not None and least_step is not None:
            break
    assert first_any is not None, "no witness surfaced within the horizon"
    return first_any, least_step


class LoggingLedger(QueryLedger):
    """A ``QueryLedger`` that also logs each record call as (step, purpose, n)."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[tuple[int, str, int]] = []

    def record(self, purpose: str, n: int = 1) -> None:
        self.log.append((self.step, purpose, n))
        super().record(purpose, n)


class KeyRecordingOracle(CollectionOracle):
    """A ``CollectionOracle`` that fails on a repeated (index, element)
    key under an uncached handle. There every call is a fresh query, so
    a repeated key would count one membership answer twice; ``keys``
    holds the keys an uncached handle was asked through ``member``,
    ``holders`` or ``holds_all``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.uncached = self._upto is None
        self.keys: set[tuple[int, int]] = set()

    def _record(self, i: int, x: int) -> None:
        if self.uncached:
            key = (i, x)
            if key in self.keys:
                raise AssertionError(f"uncached {self._purpose} handle asked {key} twice")
            self.keys.add(key)

    def member(self, i: int, x: int) -> bool:
        self._record(i, x)
        return super().member(i, x)

    def holders(self, indices, x: int) -> list[int]:
        for i in indices:
            self._record(i, x)
        return super().holders(indices, x)

    def holds_all(self, i: int, xs) -> bool:
        for x in xs:
            self._record(i, x)
            if not self.collection.member(i, x):
                break
        return super().holds_all(i, xs)


class AnswerCacheOracle:
    """The cached detector handle as a per-key answer cache.

    Every asked (index, element) key is stored with its answer, in
    per-index rows; a key missing from its row is a fresh query, billed
    under ``purpose``. ``holders``, ``holds_all`` and ``sweep`` are the
    literal per-key ``member`` loops; a sweep asks L_guess about every x
    in ``xs``, then each index in turn.
    """

    def __init__(self, collection: Collection, ledger, purpose: str) -> None:
        self.collection = collection
        self.ledger = ledger
        self.purpose = purpose
        self.rows: dict[int, dict[int, bool]] = {}

    def member(self, i: int, x: int) -> bool:
        row = self.rows.get(i, {})
        if x not in row:
            row[x] = self.collection.member(i, x)
            self.rows[i] = row
            self.ledger.record(self.purpose)
        return row[x]

    def fresh(self) -> int:
        return sum(self.ledger.totals_by_purpose().values())

    def holders(self, indices, x: int) -> list[int]:
        return [i for i in indices if self.member(i, x)]

    def holds_all(self, i: int, xs) -> bool:
        return all(self.member(i, x) for x in xs)

    def sweep(self, indices, guess: int, xs: range) -> list[int]:
        for x in xs:
            self.member(guess, x)
        violators = []
        for i in indices:
            for x in xs:
                if self.member(i, x) and not self.member(guess, x):
                    violators.append(i)
                    break
        return violators


def assert_same_asked_keys(oracle, ledger, reference, indices, elements) -> None:
    """Ask ``oracle`` (billing ``ledger``) and ``reference`` every key (i, x),
    i in ``indices``, x in ``elements``: the answers agree, and each key
    is fresh on both handles or on neither."""
    for i in indices:
        for x in elements:
            before = sum(ledger.totals_by_purpose().values()), reference.fresh()
            assert oracle.member(i, x) == reference.member(i, x), (i, x)
            after = sum(ledger.totals_by_purpose().values()), reference.fresh()
            assert after[0] - before[0] == after[1] - before[1], (i, x)


def reference_transcript_to_jsonl(outcome: RunOutcome) -> str:
    """The transcript wire format with one ``json.dumps`` per record."""
    algorithm = outcome.scenario.algorithm
    output_key = "verdict" if algorithm in ("negex", "alg1") else "guess"
    lines = [json.dumps({"meta": outcome.transcript.meta}, sort_keys=True)]
    for row in outcome.transcript.rows:
        record = {
            "t": row.t,
            "w": row.w,
            output_key: row.output,
            "fresh_candidate_queries": row.fresh_candidate,
            "fresh_collection_queries_by_purpose": {
                "consistency": row.fresh_consistency,
                "detector": row.fresh_detector,
            },
        }
        if algorithm == "negex":
            record["y"] = row.y
        lines.append(json.dumps(record, sort_keys=True))
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


def stepwise_run_game(scenario: GameScenario, collections: Mapping[str, Collection]) -> RunOutcome:
    """``run_game`` one step at a time: each step opens its ledger slot
    with ``begin_step``, then reads one emission through ``next``."""
    collection = validate_scenario(scenario, collections)
    target = collection.language(scenario.target_index)
    alg = scenario.algorithm
    ledger = QueryLedger()
    consistency = CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY, cached=False)
    detector = CollectionOracle(collection, ledger, PURPOSE_DETECTOR, cached=alg == "alg2")
    candidate = scenario.candidate
    ground_truth = None if candidate is None else candidate_subset_of(candidate, target)
    if alg == "negex":
        stream = LabeledStream(target, scenario.strategy)
        algorithm = NegativeExampleDetector(CandidateOracle(candidate, ledger, cached=False))
    else:
        stream = EnumerationStream(target, scenario.strategy)
        if alg == "alg1":
            algorithm = ScanDetector(
                make_identifier(scenario.identifier, collection, consistency),
                CandidateOracle(candidate, ledger, cached=True).member,
                detector,
            )
        elif alg == "alg2":
            algorithm = ReductionIdentifier(collection, scenario.identifier, detector,
                                            consistency, fresh_copies=scenario.fresh_copies)
        else:
            algorithm = make_identifier(alg, collection, consistency)
    items, outputs, status, detail = [], [], "ok", None
    try:
        for t in range(1, scenario.horizon + 1):
            ledger.begin_step(t)
            item = stream.next()
            outputs.append(algorithm.step(item))
            items.append(item)
    except Inapplicable as exc:
        status, detail = "inapplicable", str(exc)
    if alg == "negex":
        ws, ys = [w for w, _ in items], [y for _, y in items]
    else:
        ws, ys = items, None
    queries = ledger.totals_by_purpose()
    counts = [ledger.per_step(purpose)[:len(outputs)] for purpose in PURPOSES]
    final_state = algorithm.last_round if alg == "alg2" else None
    transcript = Transcript(_scenario_fields(scenario, rng_algorithm=RNG_ALGORITHM),
                            range(1, len(outputs) + 1), ws, ys, outputs, *counts, final_state)
    report = None
    if status == "ok":
        if ground_truth is not None:
            report = analyze_stabilization(outputs, lambda v: v == int(ground_truth))
        else:
            k = scenario.target_index
            report = analyze_stabilization(outputs, lambda g: collection.equals(g, k))
    return RunOutcome(scenario=scenario, status=status, transcript=transcript, report=report,
                      queries=queries, ground_truth_subset=ground_truth, detail=detail)
