"""Online identifiers: guess an index of the hidden target language.

Both identifiers, and the reduction, keep a ``ConsistentIndices`` set
whose candidate indices are capped at the current step count, so every
step makes finitely many oracle calls. The tell-tale identifier guesses
the least consistent index whose tell-tale has fully appeared; the
consistency-min identifier uses the empty tell-tale for every index,
which is exactly what makes it fail on collections with an early
always-consistent superset.
"""

from __future__ import annotations

from bisect import insort

from .languages import Collection, CollectionOracle, ConfigError


class Inapplicable(RuntimeError):
    """The algorithm's oracle requirements are not met for this run."""


class ConsistentIndices:
    """Seen elements, and the admitted indices whose language holds them all.

    ``alive`` lists the survivors in ascending order. ``admit`` vets an
    index against the seen elements once; ``see`` checks survivors only
    against a newly seen element, in one ``CollectionOracle.holders`` call.
    Consistency is antitone in the seen set, which only grows, so a dropped
    index never returns. In round t the survivors lie below t and at most t
    elements have been seen, so seeing w and admitting t cost at most
    (t-1) + t = 2t-1 queries.
    """

    __slots__ = ("_oracle", "seen", "alive")

    def __init__(self, oracle: CollectionOracle) -> None:
        self._oracle = oracle
        self.seen: dict[int, None] = {}  # insertion-ordered: the order of first sight
        self.alive: list[int] = []

    def see(self, w: int) -> bool:
        """Record w; drop the survivors that miss it. True when w is new."""
        if w in self.seen:
            return False
        self.seen[w] = None
        self.alive = self._oracle.holders(self.alive, w)
        return True

    def admit(self, index: int) -> None:
        member = self._oracle.member
        for x in self.seen:
            if not member(index, x):
                return
        # a tell-tale index admitted late can lie below the survivors
        insort(self.alive, index)

    def least(self) -> int:
        return self.alive[0] if self.alive else 1


class _IndexIdentifier:
    """Guess at step t: the least index i <= t whose tell-tale lies in
    the seen set and whose language contains every seen element, else 1.

    An index whose tell-tale is still incomplete waits, filed by index
    alone under one missing element. When that element shows up, its
    tell-tale is read again, and it is admitted or filed anew.
    Subclasses give the tell-tale rule as ``_telltale(index)``.
    """

    def __init__(self, collection: Collection, oracle: CollectionOracle) -> None:
        self._collection = collection
        self.t = 0
        self._indices = ConsistentIndices(oracle)
        # missing telltale element -> the indices waiting on it
        self._waiting: dict[int, list[int]] = {}

    def _admit(self, index: int) -> None:
        for element in self._telltale(index):
            if element not in self._indices.seen:
                self._waiting.setdefault(element, []).append(index)
                return
        self._indices.admit(index)

    def step(self, w: int) -> int:
        self.t += 1
        is_new = self._indices.see(w)
        self._admit(self.t)
        if is_new:
            for index in self._waiting.pop(w, ()):
                self._admit(index)
        return self._indices.least()


class TelltaleIdentifier(_IndexIdentifier):
    """Identification by enumeration over tell-tale certified candidates."""

    def _telltale(self, index: int) -> tuple[int, ...]:
        telltale = self._collection.telltale(index)
        if telltale is None:
            raise Inapplicable(
                f"collection {self._collection.id!r} has no tell-tale for index {index}"
            )
        return telltale


class ConsistencyMinIdentifier(_IndexIdentifier):
    """Guess the least in-range index consistent with everything seen."""

    def _telltale(self, index: int) -> tuple[int, ...]:
        return ()


IDENTIFIERS = {"telltale": TelltaleIdentifier, "consistency_min": ConsistencyMinIdentifier}
IDENTIFIER_NAMES = tuple(IDENTIFIERS)


def make_identifier(name: str, collection: Collection, oracle: CollectionOracle):
    if name not in IDENTIFIERS:
        raise ConfigError(f"unknown identifier {name!r} (known: {', '.join(IDENTIFIER_NAMES)})")
    return IDENTIFIERS[name](collection, oracle)
