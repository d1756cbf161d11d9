"""Adversarial presentations of a target language or of the whole domain.

An ``EnumerationStream`` emits an infinite sequence of elements of the
target language in which every element eventually appears; a
``LabeledStream`` does the same for the whole domain, attaching the bit
"is this element in the target?" to every emission. Four presentation
orders are provided; the seeded ones draw from the stdlib Mersenne
Twister so that a (strategy, seed, target) triple pins the sequence
exactly, and the generator name is recorded in transcripts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional

from .languages import ConfigError, Language, config_field

STRATEGY_NAMES = ("canonical", "repeat_heavy", "block_shuffle", "delay_pattern")

RNG_ALGORITHM = "mt19937"


@dataclass(frozen=True)
class Strategy:
    """Presentation order configuration.

    repeat_heavy re-emits a uniform already-seen element with probability
    repeat_num/repeat_den, otherwise the least not-yet-emitted one.
    block_shuffle permutes consecutive blocks of sizes growth*1, growth*2,
    and so on. delay_pattern stutters each element ``period`` times, so an
    element of canonical rank r appears by step period*r.
    """

    name: str = "canonical"
    seed: int = 0
    repeat_num: int = 1
    repeat_den: int = 2
    block_growth: int = 1
    period: int = 1

    def __post_init__(self) -> None:
        if self.name not in STRATEGY_NAMES:
            raise ConfigError(f"unknown strategy {self.name!r}")
        if self.name == "repeat_heavy" and not 0 <= self.repeat_num < self.repeat_den:
            raise ConfigError("repeat_heavy needs 0 <= numerator < denominator")
        if self.name == "block_shuffle" and self.block_growth < 1:
            raise ConfigError("block_shuffle needs block_growth >= 1")
        if self.name == "delay_pattern" and self.period < 1:
            raise ConfigError("delay_pattern needs period >= 1")

    def describe(self) -> str:
        if self.name == "repeat_heavy":
            return f"repeat_heavy(p={self.repeat_num}/{self.repeat_den},seed={self.seed})"
        if self.name == "block_shuffle":
            return f"block_shuffle(growth={self.block_growth},seed={self.seed})"
        if self.name == "delay_pattern":
            return f"delay_pattern(period={self.period})"
        return "canonical"

    def to_config(self) -> dict:
        params: dict = {}
        if self.name == "repeat_heavy":
            params["repeat_prob"] = [self.repeat_num, self.repeat_den]
        elif self.name == "block_shuffle":
            params["block_growth"] = self.block_growth
        elif self.name == "delay_pattern":
            params["period"] = self.period
        return {"strategy": self.name, "seed": self.seed, "params": params}

    @classmethod
    def from_config(cls, config: Mapping) -> "Strategy":
        name = config.get("strategy", "canonical")
        params = config_field(config, "params", Mapping, {})
        kwargs: dict = {}
        if name == "repeat_heavy":
            prob = params.get("repeat_prob", [1, 2])
            if not (
                isinstance(prob, (list, tuple))
                and len(prob) == 2
                and all(type(p) is int for p in prob)
            ):
                raise ConfigError("repeat_prob must be a [numerator, denominator] integer pair")
            kwargs = {"repeat_num": prob[0], "repeat_den": prob[1]}
        elif name == "block_shuffle":
            kwargs = {"block_growth": config_field(params, "block_growth", int, 1)}
        elif name == "delay_pattern":
            kwargs = {"period": config_field(params, "period", int, 1)}
        return cls(name=name, seed=config_field(config, "seed", int, 0), **kwargs)


class _Cursor:
    """Strategy engine over a canonical source listing.

    The source is the target language's ascending listing (cycling once a
    finite language is spent) or the ascending domain when ``language`` is
    None. Completeness holds for every strategy: canonical and
    delay_pattern by construction, block_shuffle because every block is a
    permutation of a canonical segment, repeat_heavy because its fresh
    branch walks the canonical listing and fires infinitely often.
    """

    __slots__ = ("_lang", "_rng", "_strategy", "_t", "_fresh", "_seen_list", "_seen",
                 "_block", "_block_pos", "_block_no", "_block_base")

    def __init__(self, language: Optional[Language], strategy: Strategy) -> None:
        self._lang = language
        self._strategy = strategy
        self._rng = random.Random(strategy.seed)
        self._t = 0
        self._fresh = 0            # canonical positions consumed by repeat_heavy
        self._seen_list: list[int] = []
        self._seen: set[int] = set()
        self._block: list[int] = []
        self._block_pos = 0
        self._block_no = 0
        self._block_base = 0

    def _source_at(self, position: int) -> int:
        """0-based canonical position, cycling for finite targets."""
        if self._lang is None:
            return position + 1
        return self._lang.element_at(position + 1)

    def next(self) -> int:
        self._t += 1
        name = self._strategy.name
        if name == "canonical":
            return self._source_at(self._t - 1)
        if name == "delay_pattern":
            return self._source_at((self._t - 1) // self._strategy.period)
        if name == "block_shuffle":
            if self._block_pos >= len(self._block):
                self._block_no += 1
                size = self._strategy.block_growth * self._block_no
                self._block = [self._source_at(self._block_base + k) for k in range(size)]
                self._block_base += size
                self._rng.shuffle(self._block)
                self._block_pos = 0
            value = self._block[self._block_pos]
            self._block_pos += 1
            return value
        # repeat_heavy
        if self._seen_list and self._rng.randrange(self._strategy.repeat_den) < self._strategy.repeat_num:
            return self._seen_list[self._rng.randrange(len(self._seen_list))]
        value = self._source_at(self._fresh)
        self._fresh += 1
        if value not in self._seen:
            self._seen.add(value)
            self._seen_list.append(value)
        return value


class EnumerationStream:
    """Complete presentation of a target language, repetitions allowed."""

    def __init__(self, target: Language, strategy: Strategy = Strategy()) -> None:
        if target.is_finite and not target.elements:
            raise ConfigError(
                "an enumeration of the empty language does not exist; "
                "pick a nonempty target"
            )
        self.target = target
        self.strategy = strategy
        self._cursor = _Cursor(target, strategy)

    def next(self) -> int:
        return self._cursor.next()

    def take(self, n: int) -> list[int]:
        return [self.next() for _ in range(n)]


class LabeledStream:
    """Complete presentation of the whole domain, labeled against the target."""

    def __init__(self, target: Language, strategy: Strategy = Strategy()) -> None:
        self.target = target
        self.strategy = strategy
        self._cursor = _Cursor(None, strategy)

    def next(self) -> tuple[int, int]:
        w = self._cursor.next()
        return w, 1 if self.target.member(w) else 0

    def take(self, n: int) -> list[tuple[int, int]]:
        return [self.next() for _ in range(n)]
