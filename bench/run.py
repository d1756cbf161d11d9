"""limitlab benchmark: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload sweep|reduction|checker [--seed N]
                         [--seconds S] [--trace 0|1]
    python3 bench/run.py --self-check

Workloads (closed loop, one client, one process, no threads):
  sweep      every fifth cell of the standard negex, alg1, telltale and
             consistency_min grids at horizon 1000; every oracle call is a
             fresh miss, so streams, oracles, the ledger and the run_game
             loop do the work.
  reduction  pooled alg2 over four collections, both identifiers, varied
             targets and strategies, horizons 50 to 400; the quadratic
             detector pool and catch-up dominate and oracle reads mostly hit.
  checker    check_angluin (and replay_certificate on violations) over every
             tell-tale of size <= 6 from {1..20} for finite_plus_all index 1,
             default tell-tales of the other collections, and tell-tales
             with infinite witness languages; no stream, ledger or oracle.

Each repetition runs in a fresh interpreter (bench/worker.py). With
--trace 0 the run times SETUP_REPEATS set-ups, then runs passes over the
whole workload until --seconds have passed (at least MIN_PASSES). An
operation's latency is its median over the passes; ops_per_s, op_p50_ms and
op_tail_ms are taken over those medians. With --trace 1 the run measures
untraced passes for half the time, then one traced pass that gives exact
per-layer counts and self times, and reports the tracing overhead. Every
output is checked against ground truth and, for the default seed, against
the committed manifest in bench/manifest/. The last line of standard output
is the JSON result; the full record is written to bench/out/.

Times are scaled to a reference machine speed (bench/speed.py): a shared
host drifts by up to half in speed over minutes, which no run length
averages away. Unscaled wall times are kept in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MANIFESTS = BENCH / "manifest"

WORKLOADS = ("sweep", "reduction", "checker")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_PASSES = 3
# No pass starts once the run is this old and the previous pass would take
# it past the limit: a run must end within 180 s.
DEADLINE_S = 150.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = (
    "adversary.enum_next",
    "adversary.labeled_next",
    "languages.collection_oracle",
    "languages.candidate_oracle",
    "languages.ledger_record",
    "languages.collection_member",
    "identifiers.telltale_step",
    "identifiers.consistency_min_step",
    "detectors.scan_step",
    "detectors.negex_step",
    "reduction.round",
    "harness.run_game",
    "harness.serialize",
    "harness.check_angluin",
    "harness.replay_certificate",
)
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in LAYERS},
    **{f"{name}.self_us": "us" for name in LAYERS},
    "languages.collection_oracle.fresh": "count",
    "languages.collection_oracle.hit_ratio": "ratio",
    "languages.candidate_oracle.fresh": "count",
    "languages.language_cache.size": "count",
    "languages.fresh.consistency": "count",
    "languages.fresh.detector": "count",
    "reduction.catchup_steps": "count",
    "reduction.identifier_steps_per_round": "steps/round",
    "reduction.pool_size": "count",
    "harness.run_game.steps": "count",
    "harness.run_game.self_us_per_step": "us",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    pass


def worker(mode: str, workload: str, seed: int, *extra: str, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), *extra]
    # A fixed hash seed makes set and dict layouts, and with them the garbage
    # collector's pauses, repeat from one repetition to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} {workload} failed:\n{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def latency_summary(passes: list[list[float]]) -> dict:
    """Per-operation medians over passes, and the statistics taken over them."""
    per_op = sorted(statistics.median(samples) for samples in zip(*passes))
    n = len(per_op)
    tail_rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "operations": n,
        "passes": len(passes),
        "ops_per_s": n / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": per_op[tail_rank] * 1e3,
        "tail_percentile": round(100.0 * (tail_rank + 1) / n, 2),
        "tail_beyond": n - tail_rank - 1,
        "pass_ops_per_s": [len(p) / sum(p) for p in passes],
    }


class Run:
    """One benchmark run: several fresh-interpreter repetitions of a workload."""

    def __init__(self, workload: str, seed: int, seconds: float, tiny: bool = False,
                 manifest: Path | None = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.manifest = manifest
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counters: dict = {}

    def remaining(self) -> float:
        return DEADLINE_S + 20 - (time.monotonic() - self.started)

    def _worker(self, mode: str, *extra: str) -> dict:
        flags = ["--tiny"] if self.tiny else []
        if mode == "pass" and self.manifest is not None:
            flags += ["--manifest", str(self.manifest)]
        return worker(mode, self.workload, self.seed, *flags, *extra, timeout=self.remaining())

    def setup_times(self) -> list[dict]:
        self._worker("setup")  # warms the bytecode cache; not counted
        return [self._worker("setup") for _ in range(SETUP_REPEATS)]

    def _record(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures.extend(result["failures"][: 20 - len(self.failures)])
        self.counters = result["counters"]

    def passes(self, seconds: float, minimum: int) -> list[dict]:
        results = []
        begun = time.monotonic()
        while True:
            start = time.monotonic()
            result = self._worker("pass")
            self._record(result)
            results.append(result)
            took = time.monotonic() - start
            if len(results) >= minimum and time.monotonic() - begun >= seconds:
                break
            if time.monotonic() - self.started + took > DEADLINE_S:
                break
        return results

    def traced_pass(self, spans: Path) -> dict:
        result = self._worker("pass", "--trace", "--spans", str(spans))
        self._record(result)
        return result


def end_to_end(run: Run) -> tuple[dict, dict]:
    setup_results = run.setup_times()
    setups = [r["setup_s"] for r in setup_results]
    results = run.passes(run.seconds, MIN_PASSES)
    summary = latency_summary([r["latencies"] for r in results])
    rss = [r["rss_kb"] / 1024 for r in results]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": summary["ops_per_s"],
        "op_p50_ms": summary["op_p50_ms"],
        "op_tail_ms": summary["op_tail_ms"],
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {
        "setup_s_samples": setups,
        "setup_wall_s_samples": [r["wall_s"] for r in setup_results],
        "peak_rss_mb_samples": rss,
        "pass_wall_ops_per_s": [r["attempted"] / r["wall_s"] for r in results],
        "pass_probe_s": [r["probe_s"] for r in results],
        "counters": run.counters,
        **summary,
    }
    return metrics, detail


def per_layer(run: Run, spans: Path) -> tuple[dict, dict]:
    untraced = latency_summary(
        [r["latencies"] for r in run.passes(run.seconds / 2, 1)]
    )
    traced = run.traced_pass(spans)
    traced_ops_per_s = len(traced["latencies"]) / sum(traced["latencies"])
    layers = traced["layers"]
    counts = traced["trace_counts"]
    wall = traced["wall_s"]
    # Self times get the pass's mean speed scale, like the end-to-end times.
    scale = sum(traced["latencies"]) / wall
    metrics: dict = {}
    table = []
    for name in LAYERS + ("op",):
        calls, total, child = layers[name]
        self_s = total - child
        self_us = self_s * scale / calls * 1e6 if calls else 0.0
        if name != "op":
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_us"] = self_us
        table.append({"layer": name, "calls": calls, "self_us_per_call": self_us,
                      "share_of_wall": self_s / wall})
    fresh = run.counters
    oracle_calls = layers["languages.collection_oracle"][0]
    oracle_fresh = fresh.get("fresh.consistency", 0) + fresh.get("fresh.detector", 0)
    rounds = layers["reduction.round"][0]
    steps = fresh.get("game.steps", 0)
    run_game = layers["harness.run_game"]
    metrics.update({
        "languages.collection_oracle.fresh": oracle_fresh,
        "languages.collection_oracle.hit_ratio":
            1 - oracle_fresh / oracle_calls if oracle_calls else 0.0,
        "languages.candidate_oracle.fresh": fresh.get("fresh.candidate", 0),
        "languages.language_cache.size": counts.get("languages.language_cache.size", 0),
        "languages.fresh.consistency": fresh.get("fresh.consistency", 0),
        "languages.fresh.detector": fresh.get("fresh.detector", 0),
        "reduction.catchup_steps": counts.get("reduction.catchup_steps", 0),
        "reduction.identifier_steps_per_round":
            counts.get("reduction.identifier_steps", 0) / rounds if rounds else 0.0,
        "reduction.pool_size": counts.get("reduction.pool_size", 0),
        "harness.run_game.steps": steps,
        "harness.run_game.self_us_per_step":
            (run_game[1] - run_game[2]) * scale / steps * 1e6 if steps else 0.0,
        "trace.overhead": untraced["ops_per_s"] / traced_ops_per_s - 1,
    })
    detail = {
        "layers": table,
        "untraced_ops_per_s": untraced["ops_per_s"],
        "traced_ops_per_s": traced_ops_per_s,
        "tracing_overhead": metrics["trace.overhead"],
        "traced_wall_s": wall,
        "traced_speed_scale": scale,
        "counters": {**fresh, **counts},
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, detail


def print_layer_table(workload: str, detail: dict) -> None:
    print(f"per-layer profile, {workload} (traced pass, {detail['traced_wall_s']:.3f} s of "
          f"operations, times scaled by {detail['traced_speed_scale']:.3f})")
    print(f"  {'layer':36} {'calls':>12} {'self us/call':>13} {'share':>7}")
    for row in detail["layers"]:
        name = row["layer"] if row["layer"] != "op" else "op (benchmark glue)"
        print(f"  {name:36} {row['calls']:12d} {row['self_us_per_call']:13.3f} "
              f"{row['share_of_wall'] * 100:6.1f}%")
    print(f"  tracing overhead: {detail['tracing_overhead'] * 100:.1f}% "
          f"(untraced {detail['untraced_ops_per_s']:.1f} ops/s, "
          f"traced {detail['traced_ops_per_s']:.1f} ops/s)")


def manifest_for(workload: str, seed: int, tiny: bool) -> Path | None:
    path = MANIFESTS / f"{workload}.json"
    return path if seed == DEFAULT_SEED and not tiny and path.is_file() else None


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run the benchmark once and return its full record."""
    OUT.mkdir(exist_ok=True)
    manifest = manifest_for(workload, seed, tiny)
    run = Run(workload, seed, seconds, tiny, manifest)
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "commit": git_commit(),
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "manifest": str(manifest.relative_to(ROOT)) if manifest else None,
    }
    suffix = "-tiny" if tiny else ""
    if trace:
        spans = OUT / f"{workload}-seed{seed}-spans{suffix}.json"
        metrics, detail = per_layer(run, spans)
        units = PER_LAYER_UNITS
    else:
        metrics, detail = end_to_end(run)
        units = END_TO_END_UNITS
    env["loadavg_end"] = loadavg()
    record = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "environment": env,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "detail": detail,
    }
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}{suffix}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    record["record_file"] = str(path.relative_to(ROOT))
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print(f"limitlab benchmark: workload={env['workload']} seed={env['seed']} "
          f"trace={env['trace']} python={env['python']} nproc={env['nproc']} "
          f"commit={env['commit']} loadavg={env['loadavg_start']} -> {env['loadavg_end']}")
    detail = record["detail"]
    if env["trace"]:
        print_layer_table(env["workload"], detail)
    else:
        print(f"  {detail['operations']} operations x {detail['passes']} passes; "
              f"tail is p{detail['tail_percentile']} with {detail['tail_beyond']} operations beyond it")
        for name, m in record["metrics"].items():
            print(f"  {name:22} {m['value']:14.4f} {m['unit']}")
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"correct={str(record['correct']).lower()} -> {record['record_file']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def _require(condition: bool, message) -> None:
    if not condition:
        raise BenchError(f"self-check failed: {message}")


def self_check() -> None:
    """Tiny runs of every workload: metric names and units, and a planted
    manifest mismatch that must count as failed operations."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _require([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    for workload in WORKLOADS:
        for trace, want in ((False, want_e2e), (True, want_layer)):
            record = measure(workload, DEFAULT_SEED, 1, trace, tiny=True)
            got = {name: m["unit"] for name, m in record["metrics"].items()}
            _require(got == want, (workload, trace, sorted(set(got.items()) ^ set(want.items()))))
            _require(record["correct"] and record["attempted"] > 0, record["failures"])
            _require(all(isinstance(m["value"], (int, float)) for m in record["metrics"].values()),
                     "non-numeric metric")
        planted = OUT / f"selfcheck-{workload}.json"
        clean = worker("pass", workload, DEFAULT_SEED, "--tiny", "--write-manifest", str(planted),
                       timeout=120)
        manifest = json.loads(planted.read_text())
        if workload == "checker":
            manifest["blocks"][0] = "0" * 16
            expected = min(clean["attempted"], manifest["block"])
        else:
            manifest["ops"][min(manifest["ops"])][0] = "0" * 16
            expected = 1
        planted.write_text(json.dumps(manifest))
        result = worker("pass", workload, DEFAULT_SEED, "--tiny", "--manifest", str(planted),
                        timeout=120)
        planted.unlink()
        _require(clean["failed"] == 0, clean["failures"])
        _require(result["failed"] == expected, (workload, result["failed"], expected))
        print(f"self-check {workload}: metrics and units match BENCHMARK.json; "
              f"planted digest mismatch failed {result['failed']} operation(s)")
    print("self-check passed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="limitlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "limitlab" / "__init__.py").is_file():
        print(f"limitlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.self_check:
            self_check()
            return 0
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 3
    report(record)
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
