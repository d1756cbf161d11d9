"""One benchmark repetition, run in a fresh interpreter by run.py.

    python3 bench/worker.py setup --workload W --seed N [--tiny]
    python3 bench/worker.py pass  --workload W --seed N [--tiny] [--trace]
                                  [--manifest FILE | --write-manifest FILE]
                                  [--spans FILE]

`setup` times importing limitlab, building the workload's wire-format inputs
and parsing them. `pass` runs every operation of the workload once, timing
each, then checks each output outside the timed region. The result is one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


# A pass times the speed probe before every PROBE_STRIDE-th operation, where
# the stride gives about this many probes per pass. Fixed positions, rather
# than a clock, keep the allocation sequence and so the garbage collector's
# pauses at the same operations in every pass.
PROBES_PER_PASS = 256


def setup(args) -> dict:
    probe = speed.SpeedProbe()
    before = [probe.measure() for _ in range(5)]
    start = time.perf_counter()
    import workloads
    from limitlab import catalog

    collections = catalog()
    ops = workloads.GENERATORS[args.workload](args.seed, args.tiny)
    workloads.parse(args.workload, ops, collections)
    wall = time.perf_counter() - start
    probes = before + [probe.measure() for _ in range(5)]
    scale = speed.REFERENCE_S / statistics.median(probes)
    return {"setup_s": wall * scale, "wall_s": wall, "probe_s": statistics.median(probes),
            "ops": len(ops)}


def manifest_text(manifest: dict) -> str:
    """JSON with one operation or block per line, so changes diff by line."""
    lines = []
    for key, value in sorted(manifest.items()):
        if key == "ops":
            items = (f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                     for k, v in sorted(value.items()))
            lines.append(' "ops": {\n' + ",\n".join(items) + "\n }")
        elif key == "blocks":
            lines.append(' "blocks": [\n' + ",\n".join(f"  {json.dumps(v)}" for v in value) + "\n ]")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def run_pass(args) -> dict:
    import workloads
    from limitlab import catalog

    collections = catalog()
    truth = catalog()
    ops = workloads.GENERATORS[args.workload](args.seed, args.tiny)
    workloads.parse(args.workload, ops, collections)
    checker = args.workload == "checker"
    run_op = workloads.run_checker_op if checker else workloads.run_game_op
    header = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny}
    expected = json.loads(Path(args.manifest).read_text()) if args.manifest else None
    if expected is not None and any(expected.get(k) != v for k, v in header.items()):
        raise SystemExit(f"manifest {args.manifest} is for another workload or seed")
    if checker:
        written = dict(header, block=workloads.CHECKER_BLOCK, blocks=[])
    else:
        written = dict(header, ops={})

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    probe = speed.SpeedProbe()
    probe_at: list[int] = []
    probe_s: list[float] = []
    probe_stride = max(1, len(ops) // PROBES_PER_PASS)
    latencies: list[float] = []
    counters: Counter = Counter()
    failures: list[str] = []
    failed = 0
    block_hash = hashlib.sha256()
    block_len = 0
    block_failed_before = 0
    pool_size = 0
    perf = time.perf_counter
    for n, op in enumerate(ops):
        if n % probe_stride == 0:
            probe_at.append(n)
            probe_s.append(probe.measure())
        # An operation that raises is a failed operation; the pass goes on.
        error = None
        if tracer is None:
            start = perf()
            try:
                output = run_op(op, collections)
            except Exception:
                error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            latencies.append(perf() - start)
        else:
            # Traced only while the operation runs, so that the output
            # checks below stay out of the layer statistics.
            span_id = len(tracer.spans)
            tracer.install()
            try:
                with tracer.span("op"):
                    output = run_op(op, collections)
            except Exception:
                error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            finally:
                tracer.uninstall()
            _, _, _, start, end = tracer.spans[span_id]
            latencies.append(end - start)
            pool_size += tracer.take_pool_size()
        if error is None:
            result = workloads.evaluate(args.workload, op, output, truth)
            del output
            # The checks' own languages must not add to the measured memory.
            for collection in truth.values():
                collection._language_cache.clear()
        else:
            result = workloads.Result(f"raised {error}", None, 0, f"raised {error}")
        if result.failure is not None:
            failed += 1
            failures.append(f"{op.op_id}: {result.failure}")
        text_digest = workloads.digest(result.digest_text)
        if checker:
            counters["checker.calls"] += 1
            block_hash.update(text_digest.encode())
            block_len += 1
            if block_len == workloads.CHECKER_BLOCK or n == len(ops) - 1:
                got = block_hash.hexdigest()[:16]
                index = len(written["blocks"])
                written["blocks"].append(got)
                if expected is not None:
                    want = expected["blocks"][index] if index < len(expected["blocks"]) else None
                    if got != want:
                        failed = block_failed_before + block_len
                        failures.append(f"checker block {index}: digest mismatch")
                block_hash = hashlib.sha256()
                block_len = 0
                block_failed_before = failed
        else:
            entry = [text_digest[:16], result.queries]
            written["ops"][op.op_id] = entry
            counters["game.steps"] += result.steps
            for purpose, count in (result.queries or {}).items():
                counters[f"fresh.{purpose}"] += count
            if (expected is not None and expected["ops"].get(op.op_id) != entry
                    and result.failure is None):
                failed += 1
                failures.append(f"{op.op_id}: digest or fresh-query totals differ from manifest")
    probe_at.append(len(ops))
    probe_s.append(probe.measure())
    factors = speed.scale_factors(probe_at, probe_s, len(ops))

    if args.write_manifest:
        Path(args.write_manifest).write_text(manifest_text(written))
    out = {
        "latencies": [t * f for t, f in zip(latencies, factors)],
        "wall_s": sum(latencies),
        "probe_s": statistics.median(probe_s),
        "attempted": len(ops),
        "failed": failed,
        "failures": failures[:20],
        "counters": dict(counters),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        counts = tracer.counts
        counts["reduction.pool_size"] = pool_size
        counts["languages.language_cache.size"] = sum(
            len(c._language_cache) for c in collections.values()
        )
        out["layers"] = {name: list(stat) for name, stat in tracer.stats.items()}
        out["trace_counts"] = dict(counts)
        if args.spans:
            names = sorted({s[2] for s in tracer.spans})
            with open(args.spans, "w") as fh:
                json.dump(
                    {
                        "fields": ["id", "parent", "name", "start_us", "end_us"],
                        "spans": [
                            [i, p, names.index(name), round(a * 1e6, 1), round(b * 1e6, 1)]
                            for i, p, name, a, b in tracer.spans
                        ],
                        "names": names,
                    },
                    fh,
                    separators=(",", ":"),
                )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--manifest")
    parser.add_argument("--write-manifest")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    out = setup(args) if args.mode == "setup" else run_pass(args)
    print(json.dumps(out, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
