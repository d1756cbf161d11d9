"""Independent brute-force reference implementations.

Everything here restates the algorithm contracts literally, with no
caching, no incremental state, and no reuse of the production code
paths, so the tests can cross-validate the real implementations against
an oracle that is too slow to game. Expected values frozen into tests
were computed with these functions first.
"""

from __future__ import annotations

import json
from typing import Callable, Optional, Sequence

from limitlab import (
    CandidateSet,
    Collection,
    GameScenario,
    LabeledStream,
    Language,
    RunOutcome,
    candidate_subset_of,
    language_subset,
)


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


def candidate_members_upto(candidate: CandidateSet, bound: int) -> set:
    return {x for x in range(1, bound + 1) if candidate.member(x)}


def language_members_upto(language: Language, bound: int) -> set:
    return {x for x in range(1, bound + 1) if language.member(x)}


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
    if core is not None and not (
        core.is_finite or language_subset(core, target)
    ):
        x = core.modulus
        step = x
        while True:
            if x not in candidate.minus and not target.member(x):
                escapes.append(x)
                break
            x += step
            assert x < 10**7, "escape search ran away"
    if core is not None and core.is_finite:
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
