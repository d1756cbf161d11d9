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
from typing import Callable, Optional

from .identifiers import ConsistentIndices, Inapplicable
from .languages import CollectionOracle

DetectorFactory = Callable[[int], object]


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
    """Identifier assembled from a detector factory over one collection.

    ``detector_factory(i)`` must build a fresh deterministic detector
    whose candidate set is the i-th language. By default each index
    keeps one pooled detector advanced a single step per round (a new
    index's detector is first caught up on the earlier prefix), which by
    determinism matches the literal protocol of rebuilding every
    detector from scratch each round; pass ``fresh_copies=True`` to run
    that quadratic protocol verbatim for differential testing.

    A detector that reports itself inapplicable pins its index's verdict
    to 0 and is recorded in the round dumps rather than aborting the run.
    """

    name = "alg2"

    def __init__(
        self,
        detector_factory: DetectorFactory,
        consistency_oracle: CollectionOracle,
        fresh_copies: bool = False,
    ) -> None:
        self._factory = detector_factory
        self._consistent = ConsistentIndices(consistency_oracle)
        self._fresh_copies = fresh_copies
        self.t = 0
        self._prefix: list[int] = []
        self._pool: dict[int, object] = {}
        self._inapplicable: set[int] = set()
        self.guesses: list[int] = []
        self.last_round: Optional[RoundState] = None

    def _pool_verdict(self, index: int, w: int) -> int:
        detector = self._pool.get(index)
        try:
            if detector is None:
                detector = self._factory(index)
                for x in self._prefix[:-1]:
                    detector.step(x)
                self._pool[index] = detector
            return detector.step(w)
        except Inapplicable:
            self._inapplicable.add(index)
            self._pool.pop(index, None)
            return 0

    def _fresh_verdict(self, index: int) -> int:
        try:
            detector = self._factory(index)
            verdict = 0
            for x in self._prefix:
                verdict = detector.step(x)
            return verdict
        except Inapplicable:
            self._inapplicable.add(index)
            return 0

    def step(self, w: int) -> int:
        t = self.t = self.t + 1
        self._prefix.append(w)
        self._consistent.see(w)
        self._consistent.admit(t)
        consistent = self._consistent.alive
        verdicts = []
        for i in range(1, t + 1):
            if i in self._inapplicable:
                verdicts.append(0)
            elif self._fresh_copies:
                verdicts.append(self._fresh_verdict(i))
            else:
                verdicts.append(self._pool_verdict(i, w))
        accepted = tuple(
            i for i in range(1, t + 1) if i in consistent and verdicts[i - 1] == 1
        )
        guess = accepted[0] if accepted else 1
        self.guesses.append(guess)
        self.last_round = RoundState(
            t=t,
            consistent=tuple(sorted(consistent)),
            verdicts=tuple(verdicts),
            accepted=accepted,
            guess=guess,
            inapplicable=tuple(sorted(self._inapplicable)),
        )
        return guess
