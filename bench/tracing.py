"""Span tracing of limitlab's layer entry points, from outside the package.

The tracer patches class and module attributes at run time and restores
them afterwards; limitlab's sources are not edited. Hot entry points are
aggregated in memory per name (calls, total time, time in traced
children), because a sweep makes millions of such calls. Operation and
reduction-round spans are kept in full with their start, end and parent.
A span's self time is its duration minus that of its traced children.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from limitlab import adversary, detectors, harness, identifiers, languages, reduction

import workloads

# Name reported per entry point, and the attribute the tracer wraps.
ENTRY_POINTS = (
    ("adversary.enum_next", adversary.EnumerationStream, "next"),
    ("adversary.labeled_next", adversary.LabeledStream, "next"),
    ("languages.collection_oracle", languages.CollectionOracle, "member"),
    ("languages.candidate_oracle", languages.CandidateOracle, "member"),
    ("languages.ledger_record", languages.QueryLedger, "record"),
    ("languages.collection_member", languages.Collection, "member"),
    ("identifiers.telltale_step", identifiers.TelltaleIdentifier, "step"),
    ("identifiers.consistency_min_step", identifiers.ConsistencyMinIdentifier, "step"),
    ("detectors.scan_step", detectors.ScanDetector, "step"),
    ("detectors.negex_step", detectors.NegativeExampleDetector, "step"),
    ("reduction.round", reduction.ReductionIdentifier, "step"),
    ("harness.run_game", harness, "run_game"),
    ("harness.serialize", workloads, "serialize"),
    ("harness.check_angluin", harness, "check_angluin"),
    ("harness.replay_certificate", harness, "replay_certificate"),
)
LAYER_NAMES = tuple(name for name, _, _ in ENTRY_POINTS)


class Tracer:
    def __init__(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in LAYER_NAMES + ("op",)}
        self.spans: list[tuple] = []      # (id, parent id, name, start, end)
        self.counts: Counter = Counter()
        self._children = [0.0]            # traced-child time of each open span
        self._open: list[int] = []        # ids of open spans kept in full
        self._round_t = [0]               # t of the reduction round in progress
        self._last_pool = [0]
        self._originals: list[tuple] = []
        self.origin = time.perf_counter()

    def _timed(self, name: str, fn, after=None):
        stat = self.stats[name]
        children = self._children
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += children.pop()
                children[-1] += duration
                if after is not None:
                    after(args)

        return wrapper

    def _round(self, fn):
        """Reduction rounds: spans kept in full, plus round and pool bookkeeping."""
        round_t = self._round_t
        last_pool = self._last_pool

        def wrapper(reducer, w):
            round_t[0] = reducer.t + 1
            try:
                with self.span("reduction.round"):
                    return fn(reducer, w)
            finally:
                round_t[0] = 0
                last_pool[0] = len(reducer._pool)

        return wrapper

    def install(self) -> None:
        counts = self.counts
        round_t = self._round_t

        def scan_after(args):
            # A pooled detector still behind the round is catching up.
            if args[0].t < round_t[0]:
                counts["reduction.catchup_steps"] += 1

        def identifier_after(args):
            if round_t[0]:
                counts["reduction.identifier_steps"] += 1

        for name, owner, attr in ENTRY_POINTS:
            original = getattr(owner, attr)
            if name == "reduction.round":
                wrapper = self._round(original)
            elif name == "detectors.scan_step":
                wrapper = self._timed(name, original, scan_after)
            elif name.startswith("identifiers."):
                wrapper = self._timed(name, original, identifier_after)
            else:
                wrapper = self._timed(name, original)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span kept in full, and counted in the stats like the others."""
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(span_id)
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[span_id] = (span_id, parent, name, start - self.origin, end - self.origin)
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += end - start
            stat[2] += self._children.pop()
            self._children[-1] += end - start

    def take_pool_size(self) -> int:
        """Pool size at the last reduction round since the previous call."""
        size, self._last_pool[0] = self._last_pool[0], 0
        return size
