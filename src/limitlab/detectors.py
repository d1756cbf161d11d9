"""Detectors: decide whether the candidate set stays inside the target.

Verdict convention: 1 means "the candidate does not hallucinate" (it is
believed to sit inside the target language), 0 means it does. The scan
detector wraps an identifier and sweeps the domain prefix 1..t against
the identified language; the negative-example detector needs no
identifier at all and latches on the first 0-labeled element that the
candidate claims.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .languages import CandidateOracle, CollectionOracle


class _Identifier(Protocol):
    def step(self, w: int) -> int: ...


class ScanDetector:
    """Detection through identification: identify, then sweep the prefix.

    ``candidate`` is the candidate set's membership test. Each step
    feeds the enumerated element to the identifier, takes its guess as
    the presumed target, and reports a hallucination iff some domain
    element x <= t lies in the candidate but not in the presumed
    target. The sweep is resumed per guessed index, and a found witness
    stays found, so steps with an unchanged guess cost one new scan slot.

    alg1 is one such detector, and alg2's ``fresh_copies`` protocol
    rebuilds one per index every round. alg2's pool does not use this
    class: it keeps the same sweep state per guess rather than per
    index, and sweeps through ``CollectionOracle.sweep``.
    """

    def __init__(
        self,
        identifier: _Identifier,
        candidate: Callable[[int], bool],
        oracle: CollectionOracle,
    ) -> None:
        self.identifier = identifier
        self._candidate = candidate
        self._oracle = oracle
        self.t = 0
        self._scanned_upto: dict[int, int] = {}
        self._violated: set[int] = set()

    def step(self, w: int) -> int:
        t = self.t = self.t + 1
        guess = self.identifier.step(w)
        if guess in self._violated:
            return 0
        candidate_member = self._candidate
        oracle_member = self._oracle.member
        for x in range(self._scanned_upto.get(guess, 0) + 1, t + 1):
            if candidate_member(x) and not oracle_member(guess, x):
                self._violated.add(guess)
                return 0
        self._scanned_upto[guess] = t
        return 1


class NegativeExampleDetector:
    """Always-successful detector over labeled domain enumerations.

    Flags a hallucination permanently once some element arrives with
    label 0 while the candidate claims it. Exactly one fresh candidate
    query per 0-labeled step before the witness is found, none after.
    """

    def __init__(self, candidate: CandidateOracle) -> None:
        self._candidate = candidate
        self._latched = False

    def step(self, pair: tuple[int, int]) -> int:
        w, label = pair
        if not self._latched and label == 0 and self._candidate.member(w):
            self._latched = True
        return 0 if self._latched else 1
