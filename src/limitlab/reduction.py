"""Identification via a pool of per-candidate hallucination detectors.

Each round t tracks two pieces of evidence about every index i <= t:
whether L_i is still consistent with everything enumerated, and whether
a detector testing L_i as the candidate set still reports no
hallucination. Indices that are not supersets of the target eventually
fail consistency; strict supersets eventually trip their detectors; the
least index passing both is the guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import filterfalse
from typing import Optional

from .detectors import ScanDetector
from .identifiers import ConsistentIndices, Inapplicable, make_identifier
from .languages import Collection, CollectionOracle


@dataclass(frozen=True)
class RoundState:
    """State dump of one reduction round."""

    t: int
    consistent: tuple[int, ...]       # surviving consistent indices, ascending
    verdicts: tuple[int, ...]         # detector bit for each index 1..t
    accepted: tuple[int, ...]         # consistent indices whose detector says 1
    guess: int
    inapplicable: tuple[int, ...]     # indices whose detector could not run


class ReductionIdentifier:
    """Identifier rebuilt from one collection's per-index detectors.

    The detector for index i tests L_i as the candidate set with the
    identifier named ``identifier`` inside: it flags a hallucination iff
    some x <= t lies in L_i but not in L_g for the current guess g. All
    its queries go to ``detector_oracle``. Every such identifier makes
    the same guesses, so by default one guess tape, built here, feeds
    the whole pool: it is stepped once per round, and the pool keeps no
    per-index detectors, only this invariant after every round: for
    each pooled index i and each guess g the tape has made, either
    i is in ``_violated[g]``, or L_i was swept under g over x up to
    ``_last_guessed[g]``, exactly. A round therefore makes one
    ``CollectionOracle.sweep`` per distinct past guess to catch the new
    index up, and one over the indices not yet violated under the
    round's guess, for the x since that guess last ran; these ask the
    keys a step-by-step replay of every detector would. A sweep under g
    also asks L_g about its whole run first, which bills nothing extra:
    g is a pooled index never violated under itself, so that round's
    sweep asks it that run anyway, or its catch-up when g is the new
    index, and a past guess's catch-up run lies in its asked prefix. An
    ``Inapplicable`` from the tape at step s pins every index to 0 from
    round s on, since every replay reaches step s. By determinism this
    matches the literal protocol of rebuilding every detector from
    scratch each round; pass ``fresh_copies=True`` to run that
    quadratic protocol verbatim, with a ``ScanDetector`` and a private
    identifier per index, for differential testing.

    A detector that reports itself inapplicable pins its index's verdict
    to 0 and is recorded in the round dumps rather than aborting the run.
    A round keeps only the indices whose detector says 0, in the pool
    its guess's violated set; ``last_round`` builds the dump on read.
    """

    def __init__(
        self,
        collection: Collection,
        identifier: str,
        detector_oracle: CollectionOracle,
        consistency_oracle: CollectionOracle,
        fresh_copies: bool = False,
    ) -> None:
        self._new_identifier = partial(make_identifier, identifier, collection, detector_oracle)
        self._oracle = detector_oracle
        self._consistent = ConsistentIndices(consistency_oracle)
        self._fresh_copies = fresh_copies
        self.t = 0
        self._prefix: list[int] = []           # fresh copies replay it
        self._pool = range(0)                  # 1..t while pooled; only bench/tracing.py reads it
        # the pool's one identifier; None under fresh copies or once it raised Inapplicable
        self._tape = None if fresh_copies else self._new_identifier()
        self._last_guessed: dict[int, int] = {}  # tape guess -> last step with it
        self._violated: dict[int, set[int]] = {}  # tape guess -> indices violated under it
        self._inapplicable: set[int] = set()
        self._says_0: set[int] | range = range(0)  # the last round's indices whose detector says 0

    def _pool_says_0(self, w: int) -> set[int] | range:
        t = self.t
        sweep = self._oracle.sweep
        last_guessed, violated = self._last_guessed, self._violated
        if self._tape is not None:
            try:
                guess = self._tape.step(w)
            except Inapplicable:
                self._tape = None
            else:
                since = last_guessed.get(guess, 0)
                last_guessed[guess] = t
                violated.setdefault(guess, set())
        # Catch the new index up: one sweep per distinct guess so far.
        for g, last in last_guessed.items():
            if sweep((t,), g, range(1, last + 1)):
                violated[g].add(t)
        if self._tape is None:
            self._inapplicable.update(self._pool)
            self._inapplicable.add(t)
            self._pool = range(0)
            return range(1, t + 1)
        self._pool = range(1, t + 1)
        bad = violated[guess]
        unviolated = filterfalse(bad.__contains__, range(1, t))
        bad.update(sweep(unviolated, guess, range(since + 1, t + 1)))
        return bad

    def _fresh_verdict(self, index: int) -> int:
        try:
            detector = ScanDetector(
                self._new_identifier(), partial(self._oracle.member, index), self._oracle
            )
            verdict = 0
            for x in self._prefix:
                verdict = detector.step(x)
            return verdict
        except Inapplicable:
            self._inapplicable.add(index)
            return 0

    def step(self, w: int) -> int:
        t = self.t = self.t + 1
        self._consistent.see(w)
        self._consistent.admit(t)
        if self._fresh_copies:
            self._prefix.append(w)
            self._says_0 = {i for i in range(1, t + 1)
                            if i in self._inapplicable or not self._fresh_verdict(i)}
        else:
            self._says_0 = self._pool_says_0(w)
        return next(filterfalse(self._says_0.__contains__, self._consistent.alive), 1)

    @property
    def last_round(self) -> Optional[RoundState]:
        """The last completed round's state, None before the first step."""
        if not self.t:
            return None
        consistent = tuple(self._consistent.alive)
        accepted = tuple(filterfalse(self._says_0.__contains__, consistent))
        verdicts = tuple(int(i not in self._says_0) for i in range(1, self.t + 1))
        return RoundState(
            t=self.t, consistent=consistent, verdicts=verdicts, accepted=accepted,
            guess=accepted[0] if accepted else 1, inapplicable=tuple(sorted(self._inapplicable)),
        )
