"""Golden corpus: frozen sha256 digests of transcripts and reports.

Every scenario below is run and its wire output (the JSONL transcript
followed by the sorted-key report JSON) is hashed. The digests in
``golden_digests.json`` were computed before the consistent-index
bookkeeping was unified, so any refactor that changes a transcript, a
query count or a report byte shows up here.

Regenerate the digest file only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

from limitlab import (
    GameScenario,
    Strategy,
    catalog,
    report_to_dict,
    run_game,
    standard_candidates,
    transcript_to_jsonl,
)

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")

TARGETS = (2, 5)
STRATEGIES = (
    Strategy("canonical"),
    Strategy("repeat_heavy", seed=3),
    Strategy("block_shuffle", seed=3, block_growth=2),
    Strategy("delay_pattern", period=2),
)
IDENTIFIERS = ("telltale", "consistency_min")


def corpus(collections) -> list[GameScenario]:
    scenarios = []
    for cid, collection in collections.items():
        for k in TARGETS:
            for strategy in STRATEGIES:
                cell = f"{cid}-k{k}-{strategy.name}"
                base = dict(collection_id=cid, target_index=k, strategy=strategy)
                for name in IDENTIFIERS:
                    scenarios.append(
                        GameScenario(f"{name}-{cell}", algorithm=name, horizon=120, **base)
                    )
                for tag, candidate in standard_candidates(collection, k):
                    scenarios.append(
                        GameScenario(
                            f"negex-{cell}-{tag}", algorithm="negex",
                            candidate=candidate, horizon=120, **base,
                        )
                    )
                    for name in IDENTIFIERS:
                        scenarios.append(
                            GameScenario(
                                f"alg1-{name}-{cell}-{tag}", algorithm="alg1",
                                candidate=candidate, identifier=name, horizon=120, **base,
                            )
                        )
                for name in IDENTIFIERS:
                    for fresh in (False, True):
                        scenarios.append(
                            GameScenario(
                                f"alg2-{name}-{'fresh' if fresh else 'pooled'}-{cell}",
                                algorithm="alg2", identifier=name, fresh_copies=fresh,
                                horizon=30, **base,
                            )
                        )
    return scenarios


def digests() -> dict[str, str]:
    collections = catalog()
    out = {}
    for scenario in corpus(collections):
        outcome = run_game(scenario, collections)
        wire = transcript_to_jsonl(outcome) + json.dumps(report_to_dict(outcome), sort_keys=True)
        out[scenario.scenario_id] = hashlib.sha256(wire.encode()).hexdigest()
    return out


def test_golden_corpus_digests():
    expected = json.loads(DIGEST_FILE.read_text())
    actual = digests()
    assert len(actual) == 732
    assert sorted(actual) == sorted(expected)
    changed = sorted(sid for sid in expected if actual[sid] != expected[sid])
    assert not changed, f"{len(changed)} transcripts changed, first: {changed[:5]}"


if __name__ == "__main__":
    DIGEST_FILE.write_text(json.dumps(digests(), sort_keys=True, indent=1) + "\n")
