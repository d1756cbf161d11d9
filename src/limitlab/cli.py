"""Command-line driver: single runs, sweeps, round trips, condition checks.

Human-readable summaries go to stdout; machine artifacts (transcripts,
reports, summaries, certificates) go to files under the output
directory, which defaults to $LIMITLAB_OUT or ./limitlab-out. Exit
codes: 0 success, 2 validation error, 3 algorithm inapplicable,
4 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Optional

from .adversary import STRATEGY_NAMES, STRATEGY_PARAMS, Strategy
from .harness import (
    DETECTION_ALGORITHMS,
    RunOutcome,
    check_angluin,
    DEFAULT_CHECK_BOUNDS,
    MAX_TELLTALE_ELEMENT,
    replay_certificate,
    report_to_dict,
    run_game,
    run_roundtrip,
    run_sweep,
    scenario_from_config,
    sweep_to_csv,
    transcript_chunks,
)
from .identifiers import IDENTIFIER_NAMES, Inapplicable
from .languages import ConfigError, catalog, resolve_collection

ENV_OUTPUT_DIR = "LIMITLAB_OUT"


def _default_out() -> str:
    return os.environ.get(ENV_OUTPUT_DIR, "limitlab-out")


def _parse_elements(text: str) -> list[int]:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ConfigError(f"expected a braced element list like {{1,2,3}}, got {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return []
    try:
        return [int(part) for part in inner.split(",")]
    except ValueError:
        raise ConfigError(f"element lists hold integers, got {text!r}") from None


def parse_candidate_flag(text: str) -> dict:
    """Grammar: lang:<i>, lang:<i>+{a,b}, lang:<i>-{a,b}, set:{a,b}, all, empty.

    Plus and minus segments may repeat and mix, applied left to right.
    Returns the candidate's {kind, params} wire config, the form a
    scenario file holds; lang:<i> leaves the collection to the scenario.
    """
    text = text.strip()
    if text == "all":
        return {"kind": "all_of_domain", "params": {}}
    if text == "empty":
        return {"kind": "empty", "params": {}}
    if text.startswith("set:"):
        return {"kind": "explicit_finite", "params": {"elements": _parse_elements(text[4:])}}
    if not text.startswith("lang:"):
        raise ConfigError(
            f"candidate flag {text!r} not understood; use lang:<i>[+{{..}}|-{{..}}], "
            "set:{..}, all, or empty"
        )
    rest = text[5:]
    cut = min((pos for pos in map(rest.find, "+-") if pos != -1), default=len(rest))
    try:
        index = int(rest[:cut])
    except ValueError:
        raise ConfigError(f"candidate flag {text!r}: lang needs an integer index") from None
    config: dict = {"kind": "language_of", "params": {"index": index}}
    tail = rest[cut:]
    while tail:
        op = tail[0]
        end = tail.find("}")
        if op not in "+-" or end == -1:
            raise ConfigError(f"candidate flag {text!r}: malformed edit segment {tail!r}")
        kind = "finite_union_with" if op == "+" else "finite_minus"
        elements = _parse_elements(tail[1 : end + 1])
        config = {"kind": kind, "params": {"base": config, "elements": elements}}
        tail = tail[end + 1 :]
    return config


def _adversary_from_args(args: argparse.Namespace) -> dict:
    params: dict = {"block_growth": args.block_growth, "period": args.period}
    if args.strategy == "repeat_heavy":
        num, _, den = args.repeat_prob.partition("/")
        try:
            params["repeat_prob"] = [int(num), int(den)]
        except ValueError:
            raise ConfigError(
                f"--repeat-prob wants numerator/denominator, got {args.repeat_prob!r}"
            ) from None
    taken = STRATEGY_PARAMS[args.strategy]
    return {"strategy": args.strategy, "seed": args.seed,
            "params": {key: params[key] for key in taken}}


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not a readable JSON file ({exc})") from None


def _write(path: Path, chunks: Iterable[str]) -> None:
    """Write the text pieces in turn, so only one piece is held at a time."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"{path}: not writable ({exc})") from None


def _emit_run(outcome: RunOutcome, out_dir: Path) -> int:
    sid = outcome.scenario.scenario_id
    _write(out_dir / f"{sid}.transcript.jsonl", transcript_chunks(outcome))
    _write(
        out_dir / f"{sid}.report.json",
        [json.dumps(report_to_dict(outcome), sort_keys=True, indent=2) + "\n"],
    )
    report = outcome.report
    if outcome.status != "ok":
        print(f"scenario {sid}: status={outcome.status} ({outcome.detail})")
        return 3
    print(
        f"scenario {sid}: status=ok stabilized={str(report.stabilized).lower()}"
        f" t_star={report.t_star} final_output={report.final_output}"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    collections = catalog()
    if args.scenario:
        config = _load_json(args.scenario)
    else:
        if not args.collection or args.target is None:
            raise ConfigError("run: need --scenario FILE, or --collection and --target")
        if not (args.detector or args.identifier):
            raise ConfigError("run: pick an algorithm via --detector or --identifier")
        # the inline flags, written as the scenario a file would hold
        config = {
            "scenario_id": args.id,
            "collection": args.collection,
            "target_index": args.target,
            "candidate": None if args.g is None else parse_candidate_flag(args.g),
            "adversary": _adversary_from_args(args),
            "algorithm": {
                "name": args.detector or args.identifier,
                "params": {"identifier": args.identifier} if args.detector else {},
            },
            "horizon": args.horizon,
        }
    scenario = scenario_from_config(config, collections)
    return _emit_run(run_game(scenario, collections), Path(args.out))


def cmd_sweep(args: argparse.Namespace) -> int:
    collections = catalog()
    config = _load_json(args.scenarios)
    entries = config.get("scenarios") if isinstance(config, dict) else config
    if not isinstance(entries, list):
        raise ConfigError("sweep: scenario file must hold a 'scenarios' list")
    scenarios = [scenario_from_config(entry, collections) for entry in entries]
    rows = run_sweep(scenarios, collections)
    out_path = Path(args.out) / "summary.csv"
    _write(out_path, [sweep_to_csv(rows)])
    failed = sum(1 for row in rows if row["status"] != "ok")
    print(f"sweep: {len(rows)} scenarios, {failed} not ok -> {out_path}")
    return 0


def cmd_roundtrip(args: argparse.Namespace) -> int:
    if not args.collection or args.target is None:
        raise ConfigError("roundtrip: needs --collection and --target")
    result = run_roundtrip(
        args.collection,
        args.target,
        horizon=args.horizon,
        strategy=Strategy.from_config(_adversary_from_args(args)),
        fresh_copies=args.fresh_copies,
    )
    out_path = Path(args.out) / (
        f"roundtrip-{args.collection}-k{args.target}.json"
    )
    payload = result.to_dict()
    _write(out_path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])
    legs = payload["legs"]
    print(
        f"roundtrip {args.collection} k={args.target}: "
        f"identifier t*={legs['identifier']['t_star']}, "
        f"detector t*={legs['detector_on_target']['t_star']}, "
        f"reduced t*={legs['reduced_identifier']['t_star']}, "
        f"agreement={str(result.agreement).lower()}"
    )
    return 0 if result.agreement else 1


def cmd_check_angluin(args: argparse.Namespace) -> int:
    collections = catalog()
    collection = resolve_collection(args.collection, collections)
    telltale: Optional[list[int]] = None
    if args.telltale is not None:
        telltale = _parse_elements(f"{{{args.telltale}}}")
    bounds = DEFAULT_CHECK_BOUNDS
    if args.bounds:
        try:
            j, _, m = args.bounds.partition(",")
            bounds = (int(j), int(m))
        except ValueError:
            raise ConfigError(f"--bounds wants J,M integers, got {args.bounds!r}") from None
    result = check_angluin(collection, args.index, telltale=telltale, bounds=bounds)
    payload = result.to_dict()
    if result.verdict == "violation_certified":
        payload["replays"] = replay_certificate(collection, result)
    out_path = Path(args.out) / f"angluin-{args.collection}-i{args.index}.json"
    _write(out_path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])
    print(
        f"check-angluin {args.collection} index={args.index}: {result.verdict}"
        + (f" witness={result.witness_index}" if result.witness_index else "")
    )
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    for collection in catalog().values():
        if collection.telltale(1) is None:
            telltales = "partial (none for index 1)"
        else:
            telltales = "yes"
        print(f"{collection.id}: {collection.description} [tell-tales: {telltales}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitlab",
        description="deterministic identification and detection games over language collections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, horizon: int) -> None:
        p.add_argument("--collection", help="catalog collection id")
        p.add_argument("--target", type=int, help="index of the target language")
        p.add_argument("--strategy", default="canonical",
                       choices=STRATEGY_NAMES)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--repeat-prob", default="1/2", help="repeat_heavy probability, e.g. 1/2")
        p.add_argument("--block-growth", type=int, default=2)
        p.add_argument("--period", type=int, default=2)
        p.add_argument("--horizon", type=int, default=horizon)
        p.add_argument("--out", default=_default_out(), help="output directory")

    run = sub.add_parser("run", help="run one scenario and write its transcript and report")
    add_common(run, horizon=1000)
    run.add_argument("--scenario", help="scenario file (JSON), instead of inline flags")
    run.add_argument("--g", help="candidate set: lang:<i>[+{..}|-{..}], set:{..}, all, empty")
    run.add_argument("--detector", choices=DETECTION_ALGORITHMS)
    run.add_argument("--identifier", choices=IDENTIFIER_NAMES)
    run.add_argument("--id", default="cli-run", help="scenario id for output files")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run a scenario file and write a summary table")
    sweep.add_argument("--scenarios", required=True, help="JSON file with a 'scenarios' list")
    sweep.add_argument("--out", default=_default_out())
    sweep.set_defaults(func=cmd_sweep)

    roundtrip = sub.add_parser(
        "roundtrip",
        help="direct identifier, detector built on it, identifier rebuilt from that",
    )
    add_common(roundtrip, horizon=300)
    roundtrip.add_argument("--fresh-copies", action="store_true",
                           help="run the literal quadratic protocol in the reduction")
    roundtrip.set_defaults(func=cmd_roundtrip)

    check = sub.add_parser("check-angluin", help="bounded tell-tale condition check")
    check.add_argument("--collection", required=True)
    check.add_argument("--index", type=int, required=True)
    check.add_argument(
        "--telltale",
        help=f"comma-separated elements, each at most {MAX_TELLTALE_ELEMENT}; "
        "defaults to the catalog rule",
    )
    check.add_argument("--bounds", help="index,element bounds, e.g. 64,64")
    check.add_argument("--out", default=_default_out())
    check.set_defaults(func=cmd_check_angluin)

    cat = sub.add_parser("catalog", help="list the built-in collections")
    cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Inapplicable as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
