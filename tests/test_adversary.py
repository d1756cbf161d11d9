import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from limitlab import (
    ConfigError,
    EnumerationStream,
    LabeledStream,
    Language,
    Strategy,
    catalog,
)

CATALOG = catalog()
MULTIPLES = CATALOG["multiples"]
PREFIXES = CATALOG["finite_prefixes"]

# Frozen output of the seeded generator, recorded once at build time.
BLOCK_SHUFFLE_GOLDEN = [2, 4, 10, 6, 12, 8, 18, 20, 16, 24, 22, 14]


def test_canonical_examples():
    assert EnumerationStream(MULTIPLES.language(2)).take(4) == [2, 4, 6, 8]
    assert EnumerationStream(PREFIXES.language(2)).take(4) == [1, 2, 1, 2]


def test_labeled_examples():
    assert LabeledStream(MULTIPLES.language(2)).take(4) == [(1, 0), (2, 1), (3, 0), (4, 1)]
    everything = Language(modulus=1)
    assert all(y == 1 for _, y in LabeledStream(everything).take(20))
    labeled = LabeledStream(PREFIXES.language(3)).take(4)
    assert labeled[3] == (4, 0)


def test_block_shuffle_golden_vector():
    stream = EnumerationStream(
        MULTIPLES.language(2), Strategy("block_shuffle", seed=7, block_growth=2)
    )
    assert stream.take(12) == BLOCK_SHUFFLE_GOLDEN
    # Block structure: permutations of canonical segments of sizes 2, 4, 6.
    assert sorted(BLOCK_SHUFFLE_GOLDEN[:2]) == [2, 4]
    assert sorted(BLOCK_SHUFFLE_GOLDEN[2:6]) == [6, 8, 10, 12]
    assert sorted(BLOCK_SHUFFLE_GOLDEN[6:12]) == [14, 16, 18, 20, 22, 24]


def test_empty_target_is_rejected():
    with pytest.raises(ConfigError):
        EnumerationStream(Language())


def test_labeled_stream_accepts_empty_target():
    stream = LabeledStream(Language())
    assert all(y == 0 for _, y in stream.take(10))


def test_prefix_stream_step_takes_constant_space():
    # Each step on a {1..k} target reads one element; it must not list all k.
    tracemalloc.start()
    try:
        EnumerationStream(catalog()["finite_prefixes"].language(10**6)).take(3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


STRATEGIES = [
    Strategy("canonical"),
    Strategy("delay_pattern", period=3),
    Strategy("repeat_heavy", seed=11, repeat_num=1, repeat_den=2),
    Strategy("repeat_heavy", seed=12, repeat_num=3, repeat_den=4),
    Strategy("block_shuffle", seed=11, block_growth=1),
    Strategy("block_shuffle", seed=12, block_growth=3),
]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.describe())
@pytest.mark.parametrize(
    "target", [MULTIPLES.language(3), PREFIXES.language(4), CATALOG["finite_sets"].language(11)],
    ids=["multiples3", "prefix4", "set11"],
)
def test_emissions_stay_inside_target_and_cover_it(strategy, target):
    horizon = 600
    emitted = EnumerationStream(target, strategy).take(horizon)
    assert all(target.member(w) for w in emitted)
    # Completeness up to a bound, verified by exhaustive scan to the horizon.
    expected, _ = target.first_elements(25)
    assert set(expected) <= set(emitted)


def test_finite_target_cycles_forever():
    emitted = EnumerationStream(PREFIXES.language(3)).take(9)
    assert emitted == [1, 2, 3, 1, 2, 3, 1, 2, 3]


def test_fairness_bounds_canonical_and_delay():
    target = MULTIPLES.language(5)
    canonical = EnumerationStream(target, Strategy("canonical")).take(40)
    for rank in range(1, 41):
        element = target.element_at(rank)
        assert canonical.index(element) + 1 == rank
    period = 4
    delayed = EnumerationStream(target, Strategy("delay_pattern", period=period)).take(80)
    for rank in range(1, 21):
        element = target.element_at(rank)
        first = delayed.index(element) + 1
        assert first <= period * rank


def test_labeled_streams_cover_the_domain():
    for strategy in STRATEGIES:
        stream = LabeledStream(MULTIPLES.language(2), strategy)
        pairs = stream.take(800)
        assert all(y == (1 if w % 2 == 0 else 0) for w, y in pairs)
        assert set(range(1, 26)) <= {w for w, _ in pairs}


@settings(max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    name=st.sampled_from(["repeat_heavy", "block_shuffle"]),
    index=st.integers(min_value=1, max_value=9),
)
def test_seed_determinism(seed, name, index):
    strategy = Strategy(name, seed=seed, block_growth=2)
    target = MULTIPLES.language(index)
    first = EnumerationStream(target, strategy).take(60)
    second = EnumerationStream(target, strategy).take(60)
    assert first == second


def test_strategy_validation():
    with pytest.raises(ConfigError):
        Strategy("repeat_heavy", repeat_num=2, repeat_den=2)
    with pytest.raises(ConfigError):
        Strategy("block_shuffle", block_growth=0)
    with pytest.raises(ConfigError):
        Strategy("surprise")


def test_strategy_config_roundtrip():
    for strategy in STRATEGIES:
        assert Strategy.from_config(strategy.to_config()) == strategy
