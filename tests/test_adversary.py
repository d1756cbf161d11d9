import json
import tracemalloc
from dataclasses import replace
from itertools import islice

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

from tests.oracles import reference_presentation, take

CATALOG = catalog()
MULTIPLES = CATALOG["multiples"]
PREFIXES = CATALOG["finite_prefixes"]

# Frozen output of the seeded generator, recorded once at build time.
BLOCK_SHUFFLE_GOLDEN = [2, 4, 10, 6, 12, 8, 18, 20, 16, 24, 22, 14]


def test_canonical_examples():
    assert take(EnumerationStream(MULTIPLES.language(2)), 4) == [2, 4, 6, 8]
    assert take(EnumerationStream(PREFIXES.language(2)), 4) == [1, 2, 1, 2]


def test_labeled_examples():
    assert take(LabeledStream(MULTIPLES.language(2)), 4) == [(1, 0), (2, 1), (3, 0), (4, 1)]
    everything = Language(modulus=1)
    assert all(y == 1 for _, y in take(LabeledStream(everything), 20))
    labeled = take(LabeledStream(PREFIXES.language(3)), 4)
    assert labeled[3] == (4, 0)


def test_block_shuffle_golden_vector():
    stream = EnumerationStream(
        MULTIPLES.language(2), Strategy("block_shuffle", seed=7, block_growth=2)
    )
    assert take(stream, 12) == BLOCK_SHUFFLE_GOLDEN
    # Block structure: permutations of canonical segments of sizes 2, 4, 6.
    assert sorted(BLOCK_SHUFFLE_GOLDEN[:2]) == [2, 4]
    assert sorted(BLOCK_SHUFFLE_GOLDEN[2:6]) == [6, 8, 10, 12]
    assert sorted(BLOCK_SHUFFLE_GOLDEN[6:12]) == [14, 16, 18, 20, 22, 24]


def test_empty_target_is_rejected():
    with pytest.raises(ConfigError):
        EnumerationStream(Language())


def test_labeled_stream_accepts_empty_target():
    stream = LabeledStream(Language())
    assert all(y == 0 for _, y in take(stream, 10))


def test_prefix_stream_step_takes_constant_space():
    # Each step on a {1..k} target reads one element; it must not list all k.
    tracemalloc.start()
    try:
        take(EnumerationStream(catalog()["finite_prefixes"].language(10**6)), 3)
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


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: json.dumps(s.to_config(), separators=(",", ":")))
@pytest.mark.parametrize(
    "target", [MULTIPLES.language(3), PREFIXES.language(4), CATALOG["finite_sets"].language(11)],
    ids=["multiples3", "prefix4", "set11"],
)
def test_emissions_stay_inside_target_and_cover_it(strategy, target):
    horizon = 600
    emitted = take(EnumerationStream(target, strategy), horizon)
    assert all(target.member(w) for w in emitted)
    # Completeness up to a bound, verified by exhaustive scan to the horizon.
    expected, _ = target.first_elements(25)
    assert set(expected) <= set(emitted)


def test_finite_target_cycles_forever():
    emitted = take(EnumerationStream(PREFIXES.language(3)), 9)
    assert emitted == [1, 2, 3, 1, 2, 3, 1, 2, 3]


def test_fairness_bounds_canonical_and_delay():
    target = MULTIPLES.language(5)
    canonical = take(EnumerationStream(target, Strategy("canonical")), 40)
    assert canonical == [5 * rank for rank in range(1, 41)]
    period = 4
    delayed = take(EnumerationStream(target, Strategy("delay_pattern", period=period)), 80)
    for rank in range(1, 21):
        first = delayed.index(5 * rank) + 1
        assert first <= period * rank


def test_delay_pattern_takes_a_period_beyond_machine_ints():
    huge = Strategy("delay_pattern", period=10**20)
    assert take(EnumerationStream(PREFIXES.language(1), huge), 3) == [1, 1, 1]
    assert take(LabeledStream(MULTIPLES.language(2), huge), 2) == [(1, 0), (1, 0)]


def test_labeled_streams_cover_the_domain():
    for strategy in STRATEGIES:
        stream = LabeledStream(MULTIPLES.language(2), strategy)
        pairs = take(stream, 800)
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
    first = take(EnumerationStream(target, strategy), 60)
    second = take(EnumerationStream(target, strategy), 60)
    assert first == second


# repeat_prob num/den: num 0; dens that are powers of two, that are not, and above 2^64
REPEAT_PROBS = [(0, 2), (0, 7), (1, 2), (3, 4), (5, 64), (1, 3), (2, 7), (7, 10),
                (1, 2**70), (2**64, 2**64 + 1), (3, 2**65 + 3)]
SEEDED = [Strategy("repeat_heavy", repeat_num=num, repeat_den=den) for num, den in REPEAT_PROBS]
SEEDED += [Strategy("block_shuffle", block_growth=growth) for growth in range(1, 8)]


@pytest.mark.parametrize("strategy", SEEDED, ids=lambda s: json.dumps(s.to_config()["params"]))
@pytest.mark.parametrize(
    "target", [MULTIPLES.language(3), PREFIXES.language(4), CATALOG["finite_sets"].language(11)],
    ids=["multiples3", "prefix4", "set11"],
)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**80))
def test_seeded_streams_match_randrange_and_shuffle(strategy, target, seed):
    # The streams draw getrandbits under randrange's rejection rule; they must
    # emit what randrange and shuffle would, on every Python the lab supports.
    strategy = replace(strategy, seed=seed)
    horizon = 2000
    expected = list(islice(reference_presentation(target, strategy), horizon))
    assert take(EnumerationStream(target, strategy), horizon) == expected
    domain = list(islice(reference_presentation(Language(modulus=1), strategy), horizon))
    labeled = take(LabeledStream(target, strategy), horizon)
    assert labeled == [(w, int(target.member(w))) for w in domain]


# One seeded strategy of each kind, over one target from each catalog collection.
EVERY_STRATEGY = [Strategy("canonical"),
                  Strategy("repeat_heavy", seed=5, repeat_num=2, repeat_den=3),
                  Strategy("block_shuffle", seed=5, block_growth=3),
                  Strategy("delay_pattern", period=2)]
CATALOG_TARGETS = [pytest.param(collection.language(5), id=name)
                   for name, collection in CATALOG.items()]
BLOCK_SIZES = (1, 7, 1024, 7, 1)


def joined(stream_type, blocks):
    """Concatenate ``take`` results; a labeled block is a (ws, ys) pair of columns."""
    if stream_type is EnumerationStream:
        return [x for block in blocks for x in block]
    return [pair for ws, ys in blocks for pair in zip(ws, ys)]


@pytest.mark.parametrize("stream_type", [EnumerationStream, LabeledStream])
@pytest.mark.parametrize("strategy", EVERY_STRATEGY, ids=lambda s: s.name)
@pytest.mark.parametrize("target", CATALOG_TARGETS)
def test_blocks_read_the_sequence_next_reads(stream_type, strategy, target):
    by_block, by_next = stream_type(target, strategy), stream_type(target, strategy)
    blocks = [by_block.take(n) for n in BLOCK_SIZES]
    assert joined(stream_type, blocks) == take(by_next, sum(BLOCK_SIZES))


@pytest.mark.parametrize("stream_type", [EnumerationStream, LabeledStream])
@pytest.mark.parametrize("strategy", EVERY_STRATEGY, ids=lambda s: s.name)
@pytest.mark.parametrize("target", CATALOG_TARGETS)
def test_take_and_next_interleave_on_one_sequence(stream_type, strategy, target):
    mixed, by_next = stream_type(target, strategy), stream_type(target, strategy)
    read = []
    for n in BLOCK_SIZES:
        read += joined(stream_type, [mixed.take(n)])
        read.append(mixed.next())
    assert read == take(by_next, sum(BLOCK_SIZES) + len(BLOCK_SIZES))


@pytest.mark.parametrize("strategy", EVERY_STRATEGY, ids=lambda s: s.name)
@pytest.mark.parametrize("target", CATALOG_TARGETS)
def test_labeled_blocks_label_membership_with_ints(strategy, target):
    ws, ys = LabeledStream(target, strategy).take(300)
    assert len(ws) == len(ys) == 300
    assert all(type(y) is int for y in ys)
    assert ys == [1 if target.member(w) else 0 for w in ws]
    assert set(ys) == {0, 1}


def test_strategy_validation():
    with pytest.raises(ConfigError):
        Strategy("repeat_heavy", repeat_num=2, repeat_den=2)
    with pytest.raises(ConfigError):
        Strategy("block_shuffle", block_growth=0)
    with pytest.raises(ConfigError):
        Strategy("surprise")


@pytest.mark.parametrize("name", ["canonical", "repeat_heavy", "block_shuffle", "delay_pattern"])
def test_negative_seeds_are_refused(name):
    # random.Random(-s) seeds like s: a negative seed would replay another run
    with pytest.raises(ConfigError) as exc:
        Strategy(name, seed=-3)
    assert str(exc.value) == "seed: must be >= 0, got -3"
    with pytest.raises(ConfigError):
        Strategy.from_config({"strategy": name, "seed": -1})


@pytest.mark.parametrize("name", ["canonical", "repeat_heavy", "block_shuffle", "delay_pattern"])
@pytest.mark.parametrize("field", ["seed", "repeat_num", "repeat_den", "block_growth", "period"])
def test_python_strategies_get_the_int_checks_a_file_gets(name, field):
    for value in ("x", "2", [1], True, 1.5):
        with pytest.raises(ConfigError) as exc:
            Strategy(name, **{field: value})
        assert str(exc.value) == f"{field}: expected an integer, got {value!r}"


def test_strategy_config_roundtrip():
    for strategy in STRATEGIES:
        assert Strategy.from_config(strategy.to_config()) == strategy
