"""Adversarial presentations of a target language or of the whole domain.

An ``EnumerationStream`` emits an infinite sequence of elements of the
target language in which every element eventually appears; a
``LabeledStream`` does the same for the whole domain, attaching the bit
"is this element in the target?" to every emission. Four presentation
orders are provided; the seeded ones draw from the stdlib Mersenne
Twister so that a (strategy, seed, target) triple pins the sequence
exactly, and the generator name is recorded in transcripts. Seeds are >= 0
(``random.Random`` seeds -s as s); draws use ``randrange``'s rejection rule
on ``getrandbits``, so MT19937 output alone pins a stream.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from typing import Callable, Iterator, Mapping

from .languages import ConfigError, Language, check_kind, check_taken, config_field

# Every strategy and the param it takes in a scenario file.
STRATEGY_PARAMS = {"canonical": (), "repeat_heavy": ("repeat_prob",),
                   "block_shuffle": ("block_growth",), "delay_pattern": ("period",)}
STRATEGY_NAMES = tuple(STRATEGY_PARAMS)

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
        _check_name(self.name)
        for key in ("seed", "repeat_num", "repeat_den", "block_growth", "period"):
            value = getattr(self, key)
            if type(value) is not int:  # plain ints skip the call
                check_kind(key, value, int)
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.name == "repeat_heavy" and not 0 <= self.repeat_num < self.repeat_den:
            raise ConfigError("repeat_heavy needs 0 <= numerator < denominator")
        if self.name == "block_shuffle" and self.block_growth < 1:
            raise ConfigError("block_shuffle needs block_growth >= 1")
        if self.name == "delay_pattern" and self.period < 1:
            raise ConfigError("delay_pattern needs period >= 1")

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
        check_taken(config, ("strategy", "seed", "params"), "adversary", "field")
        name = config.get("strategy")
        name = _check_name("canonical" if name is None else name)
        params = config_field(config, "params", Mapping, {})
        check_taken(params, STRATEGY_PARAMS[name], f"adversary: {name!r}")
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


def _check_name(name: object) -> str:
    if not isinstance(name, str) or name not in STRATEGY_PARAMS:
        raise ConfigError(f"adversary: unknown strategy {name!r}")
    return name


def _presentation(language: Language, strategy: Strategy) -> Iterator[int]:
    """The strategy's emissions over the language's canonical listing.

    The source is the language's ascending listing, cycling once a finite
    language is spent. Completeness holds for every strategy: canonical and
    delay_pattern by construction, block_shuffle because every block is a
    permutation of a canonical segment, repeat_heavy because its fresh
    branch walks the canonical listing and fires infinitely often.
    """
    source = language.listing()
    if strategy.name == "canonical":
        return source
    if strategy.name == "delay_pattern":
        # repeat() takes a C ssize_t; no run reaches sys.maxsize steps, so the
        # cap leaves every reachable prefix of the stream unchanged.
        period = min(strategy.period, sys.maxsize)
        return chain.from_iterable(map(repeat, source, repeat(period)))
    rng = random.Random(strategy.seed)
    if strategy.name == "block_shuffle":
        return _block_shuffle(source, rng, strategy.block_growth)
    return _repeat_heavy(source, rng, strategy.repeat_num, strategy.repeat_den)


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform draw from 0..n-1, n >= 1: ``randrange(n)`` on CPython 3.10-3.13."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _block_shuffle(source: Iterator[int], rng: random.Random, growth: int) -> Iterator[int]:
    below, bits = _below, rng.getrandbits
    for n in count(1):
        block = list(islice(source, growth * n))
        for i in range(len(block) - 1, 0, -1):  # ``shuffle``'s swaps
            j = below(bits, i + 1)
            block[i], block[j] = block[j], block[i]
        yield from block


def _repeat_heavy(source: Iterator[int], rng: random.Random, num: int, den: int) -> Iterator[int]:
    seen_list: list[int] = []
    seen: set[int] = set()
    below, bits = _below, rng.getrandbits
    while True:
        if seen_list and below(bits, den) < num:
            yield seen_list[below(bits, len(seen_list))]
            continue
        value = next(source)
        if value not in seen:
            seen.add(value)
            seen_list.append(value)
        yield value


class EnumerationStream:
    """Complete presentation of a target language, repetitions allowed."""

    def __init__(self, target: Language, strategy: Strategy = Strategy()) -> None:
        self._source = _presentation(target, strategy)

    def next(self) -> int:
        return next(self._source)

    def take(self, n: int) -> list[int]:
        """The next n emissions, read from the same sequence as ``next``."""
        return list(islice(self._source, n))


class LabeledStream:
    """Complete presentation of the whole domain, labeled against the target."""

    def __init__(self, target: Language, strategy: Strategy = Strategy()) -> None:
        self._member = target.member
        self._source = _presentation(Language(modulus=1), strategy)

    def next(self) -> tuple[int, int]:
        (w,), (y,) = self.take(1)
        return w, y

    def take(self, n: int) -> tuple[list[int], list[int]]:
        """The next n emissions as a column of elements and one of 0/1 labels."""
        ws, member = list(islice(self._source, n)), self._member
        return ws, [1 if member(w) else 0 for w in ws]
