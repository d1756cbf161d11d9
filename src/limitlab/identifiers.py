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
    index against the seen elements once, in first-sight order up to the
    first miss, in one ``CollectionOracle.holds_all`` call; ``see`` checks
    survivors only against a newly seen element, in one ``holders`` call.
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
        if self._oracle.holds_all(index, self.seen):
            # a tell-tale index admitted late can lie below the survivors
            insort(self.alive, index)


class _IndexIdentifier:
    """Guess at step t: the least index i <= t whose tell-tale lies in
    the seen set and whose language contains every seen element, else 1.

    An index whose tell-tale is still incomplete waits, filed by index
    alone under one missing element: a lone waiter as its int, more as a
    list. When that element shows up, its tell-tale is read again, and it
    is admitted or filed anew.
    """

    def __init__(self, collection: Collection, oracle: CollectionOracle) -> None:
        self._collection = collection
        # every index it reads is a step count, so it skips ``telltale``'s index check
        self._telltale = collection._telltale
        self.t = 0
        self._indices = ConsistentIndices(oracle)
        # missing tell-tale element -> the index waiting on it, or the list of them
        self._waiting: dict[int, int | list[int]] = {}

    def _admit(self, index: int) -> None:
        telltale = self._telltale(index)
        if telltale is None:
            raise Inapplicable(
                f"collection {self._collection.id!r} has no tell-tale for index {index}"
            )
        seen = self._indices.seen
        for element in telltale:
            if element not in seen:
                others = self._waiting.get(element)
                if type(others) is list:
                    others.append(index)
                else:
                    self._waiting[element] = index if others is None else [others, index]
                return
        self._indices.admit(index)

    def step(self, w: int) -> int:
        t = self.t = self.t + 1
        indices, admit = self._indices, self._admit
        is_new = indices.see(w)
        admit(t)
        if is_new:
            waiting = self._waiting.pop(w, ())
            for index in (waiting,) if type(waiting) is int else waiting:
                admit(index)
        alive = indices.alive
        return alive[0] if alive else 1


class TelltaleIdentifier(_IndexIdentifier):
    """Identification by enumeration over tell-tale certified candidates."""


class ConsistencyMinIdentifier(_IndexIdentifier):
    """Guess the least in-range index consistent with everything seen."""

    def __init__(self, collection: Collection, oracle: CollectionOracle) -> None:
        super().__init__(collection, oracle)
        self._admit = self._indices.admit  # every tell-tale is empty


IDENTIFIERS = {"telltale": TelltaleIdentifier, "consistency_min": ConsistencyMinIdentifier}
IDENTIFIER_NAMES = tuple(IDENTIFIERS)


def make_identifier(name: str, collection: Collection, oracle: CollectionOracle):
    if name not in IDENTIFIERS:
        raise ConfigError(f"unknown identifier {name!r} (known: {', '.join(IDENTIFIER_NAMES)})")
    return IDENTIFIERS[name](collection, oracle)
