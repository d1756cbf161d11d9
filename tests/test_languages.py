import copy
import pickle
import re
import tracemalloc
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from limitlab import (
    CollectionOracle,
    ConfigError,
    Language,
    QueryLedger,
    candidate_from_config,
    candidate_subset_of,
    candidate_to_config,
    catalog,
    decode_finite_set,
    domain_candidate,
    empty_candidate,
    encode_finite_set,
    finite_candidate,
    language_candidate,
    language_subset,
    minus_candidate,
    union_candidate,
)
from limitlab.languages import (
    PURPOSE_CANDIDATE,
    PURPOSE_CONSISTENCY,
    PURPOSE_DETECTOR,
    PURPOSES,
    CandidateOracle,
    Collection,
)

from tests.oracles import (
    AnswerCacheOracle,
    assert_same_asked_keys,
    brute_decode_finite_set,
    candidate_members_upto,
    extensional_subset,
    language_members_upto,
)

CATALOG = catalog()
MULTIPLES = CATALOG["multiples"]
PREFIXES = CATALOG["finite_prefixes"]
FINITE_SETS = CATALOG["finite_sets"]
FINITE_PLUS_ALL = CATALOG["finite_plus_all"]


# ---------------------------------------------------------------------------
# membership and enumeration


def test_membership_examples():
    assert MULTIPLES.member(2, 6) is True
    assert MULTIPLES.member(4, 6) is False
    assert PREFIXES.member(3, 3) is True


def test_membership_is_deterministic_and_total():
    for _ in range(3):
        assert MULTIPLES.member(7, 49) is True
        assert FINITE_PLUS_ALL.member(1, 12345) is True
    with pytest.raises(ConfigError):
        MULTIPLES.member(2, 0)


def test_unknown_collection_and_bad_index():
    with pytest.raises(ConfigError):
        MULTIPLES.language(0)


def test_enumerate_language_examples():
    assert MULTIPLES.language(2).first_elements(3) == ([2, 4, 6], False)
    assert PREFIXES.language(2).first_elements(5) == ([1, 2], True)
    assert FINITE_PLUS_ALL.language(1).first_elements(4) == ([1, 2, 3, 4], False)
    assert FINITE_SETS.language(5).first_elements(2) == ([1, 3], True)


# ---------------------------------------------------------------------------
# the two closed forms against an extensional listing

# Every language below lies in 1..40 or is the multiples of m <= 12, so
# two of them differ below WINDOW whenever they differ at all.
WINDOW = 160


def _forms():
    """(language, its elements below WINDOW), the set built without Language."""
    return st.one_of(
        st.integers(min_value=1, max_value=12).map(
            lambda m: (Language(modulus=m), set(range(m, WINDOW, m)))
        ),
        st.frozensets(st.integers(min_value=1, max_value=40)).map(
            lambda s: (Language(elements=tuple(sorted(s))), set(s))
        ),
        st.integers(min_value=1, max_value=40).map(
            lambda b: (Language(elements=range(1, b + 1)), set(range(1, b + 1)))
        ),
    )


@settings(max_examples=200)
@given(_forms(), _forms(), st.integers(min_value=0, max_value=13))
def test_closed_forms_match_extensional_listing(form_a, form_b, n):
    a, listed_a = form_a
    b, listed_b = form_b
    ascending = sorted(listed_a)
    assert [x for x in range(1, WINDOW) if a.member(x)] == ascending
    assert a.is_finite == (max(ascending, default=0) <= 40)
    assert a.first_elements(n) == (ascending[:n], a.is_finite and len(ascending) <= n)
    assert language_subset(a, b) == (listed_a <= listed_b)
    with pytest.raises(ConfigError):
        a.member(0)


@given(_forms(), st.integers(min_value=0, max_value=100))
def test_listing_is_ascending_and_cycles(form, n):
    a, listed = form
    ascending = sorted(listed)
    if a.modulus:
        expected = [a.modulus * r for r in range(1, n + 1)]
    elif ascending:
        expected = [ascending[r % len(ascending)] for r in range(n)]
    else:
        with pytest.raises(ConfigError):
            a.listing()
        return
    assert list(islice(a.listing(), n)) == expected


def _windows():
    """(language, first, last) over every closed form: windows at most 200
    wide, some empty (last = first - 1), prefix windows near their top b."""
    width = st.integers(min_value=-1, max_value=199)
    anywhere = st.integers(min_value=1, max_value=10**7)
    multiples = st.tuples(
        st.builds(Language, modulus=st.integers(min_value=1, max_value=10**6)), anywhere, width)
    prefixes = st.integers(min_value=1, max_value=10**12).flatmap(lambda b: st.tuples(
        st.just(Language(elements=range(1, b + 1))),
        st.integers(min_value=max(1, b - 200), max_value=b + 200), width))
    decoded = st.tuples(st.integers(min_value=1, max_value=2**70).map(
        FINITE_SETS.uncached_language), st.integers(min_value=1, max_value=80), width)
    empty = st.tuples(st.just(Language()), anywhere, width)
    return st.one_of(multiples, prefixes, decoded, empty).map(
        lambda drawn: (drawn[0], drawn[1], drawn[1] + drawn[2]))


@settings(max_examples=400)
@given(_windows())
def test_within_matches_membership(window):
    lang, first, last = window
    assert list(lang.within(first, last)) == [
        x for x in range(first, last + 1) if lang.member(x)]


def test_listing_of_a_huge_prefix_is_lazy():
    tracemalloc.start()
    try:
        head = list(islice(Language(elements=range(1, 10**12)).listing(), 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head == [1, 2, 3, 4, 5]
    assert peak < 2**16, peak


# Non-integer elements, among them mixes that a sort or a set would fail
# on; each must be a ConfigError.
_MIXED_ELEMENTS = [(1, "a"), ("a", 1), (1, None), (None,), (1, 2.0), (1, [2])]

_BAD_LANGUAGES = st.one_of(
    st.lists(st.integers(min_value=1, max_value=40), min_size=2)
    .filter(lambda xs: xs != sorted(set(xs)))
    .map(lambda xs: dict(elements=tuple(xs))),
    st.frozensets(st.integers(min_value=1, max_value=40)).map(
        lambda s: dict(elements=(0, *sorted(s)))
    ),
    st.integers(max_value=-1).map(lambda m: dict(modulus=m)),
    st.tuples(
        st.integers(min_value=1, max_value=12),
        st.frozensets(st.integers(min_value=1, max_value=40), min_size=1),
    ).map(lambda ms: dict(modulus=ms[0], elements=tuple(sorted(ms[1])))),
    st.tuples(
        st.integers(min_value=-3, max_value=5).filter(lambda start: start != 1),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=3),
    ).map(lambda r: dict(elements=range(r[0], r[0] + r[1] * r[2], r[2]))),
    st.integers(min_value=2, max_value=40).map(lambda b: dict(elements=range(1, b + 1, 2))),
    st.just(dict(elements=range(1, 1))),
    st.sampled_from(_MIXED_ELEMENTS).map(lambda xs: dict(elements=xs)),
)


@given(_BAD_LANGUAGES)
def test_malformed_languages_are_rejected(fields):
    with pytest.raises(ConfigError):
        Language(**fields)


@pytest.mark.parametrize(
    "elements", [(True,), (2.0,), (0,), (-3,), *_MIXED_ELEMENTS], ids=repr
)
def test_non_elements_are_config_errors(elements):
    match = "domain elements are positive integers"
    with pytest.raises(ConfigError, match=match):
        Language(elements=elements)
    with pytest.raises(ConfigError, match=match):
        encode_finite_set(list(elements))


def test_language_has_slots_and_ignores_its_membership_set():
    for lang in (Language(modulus=3), Language(elements=(2, 5)), Language(elements=range(1, 4))):
        assert not hasattr(lang, "__dict__")
        assert repr(lang) == f"Language(modulus={lang.modulus}, elements={lang.elements!r})"
        assert hash(lang) == hash((lang.modulus, lang.elements))
        twin = Language(lang.modulus, lang.elements)
        object.__setattr__(twin, "_members", frozenset({99}))
        assert twin == lang and hash(twin) == hash(lang) and repr(twin) == repr(lang)
        for copied in (pickle.loads(pickle.dumps(lang)), copy.deepcopy(lang)):
            assert copied == lang and hash(copied) == hash(lang)
            assert [copied.member(x) for x in range(1, 13)] == [
                lang.member(x) for x in range(1, 13)
            ]


@pytest.mark.parametrize("collection", list(CATALOG.values()), ids=list(CATALOG))
def test_collection_member_rejects_element_zero(collection):
    fresh = catalog()[collection.id]
    with pytest.raises(ConfigError):
        fresh.member(5, 0)  # index 5 not yet built
    with pytest.raises(ConfigError):
        fresh.member(5, 0)  # index 5 now cached


# 1.0 and True equal 1 and hash like it, so a cache lookup would answer for L_1.
NON_INT_INDICES = [True, False, 1.0]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("index", NON_INT_INDICES, ids=repr)
def test_collection_member_rejects_non_int_index(index, warm):
    collection = catalog()["multiples"]
    if warm:
        collection.member(1, 5)
    with pytest.raises(ConfigError):
        collection.member(index, 5)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("index", NON_INT_INDICES + [0, -1], ids=repr)
def test_uncached_language_validates_like_language(index, warm):
    collection = catalog()["multiples"]
    if warm:
        collection.language(1)
    for read in (collection.language, collection.uncached_language):
        with pytest.raises(ConfigError, match="language indices are positive integers"):
            read(index)
    assert list(collection._language_cache) == ([1] if warm else [])


@pytest.mark.parametrize("collection", list(CATALOG.values()), ids=list(CATALOG))
def test_telltale_validates_the_index_and_builds_no_language(collection):
    fresh = catalog()[collection.id]
    kept = fresh.language(3)
    for index in (0, -1, True, 2.0, "3"):
        with pytest.raises(ConfigError, match="language indices are positive integers"):
            fresh.telltale(index)
    assert fresh.telltale(7) == collection.telltale(7)
    assert fresh._language_cache == {3: kept}


@pytest.mark.parametrize("collection", list(CATALOG.values()), ids=list(CATALOG))
def test_uncached_language_reads_what_is_kept_and_keeps_nothing(collection):
    fresh = catalog()[collection.id]
    kept = fresh.language(3)
    assert fresh.uncached_language(3) is kept
    built = fresh.uncached_language(5)
    assert built == fresh.uncached_language(5) == collection.language(5)
    assert list(fresh._language_cache) == [3]
    assert fresh.language(5) == built and list(fresh._language_cache) == [3, 5]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("index", NON_INT_INDICES, ids=repr)
def test_collection_oracle_rejects_non_int_index(index, warm):
    ledger = QueryLedger()
    oracle = CollectionOracle(catalog()["multiples"], ledger, PURPOSE_CONSISTENCY)
    if warm:
        oracle.member(1, 5)
    with pytest.raises(ConfigError):
        oracle.member(index, 5)
    assert sum(ledger.totals_by_purpose().values()) == warm


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("element", [2.5, 2.0, True, "2"], ids=repr)
def test_collection_oracle_refuses_non_int_elements(element, cached):
    # A frontier compares keys with <=, so 2.0 would read as an asked key 2.
    ledger = QueryLedger()
    oracle = CollectionOracle(catalog()["multiples"], ledger, PURPOSE_DETECTOR, cached=cached)
    oracle.member(2, 1)
    message = f"domain elements are positive integers, got {element!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        oracle.member(2, element)
    assert sum(ledger.totals_by_purpose().values()) == 1
    assert oracle.member(2, 2) is True  # key 2 is still fresh
    assert sum(ledger.totals_by_purpose().values()) == 2


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("element", [2.0, True, 2.5, "2", None], ids=repr)
def test_candidate_oracle_refuses_non_int_elements(element, cached):
    # Unchecked, a cached handle would answer 2.0 from key 2's entry without billing it.
    ledger = QueryLedger()
    oracle = CandidateOracle(language_candidate(MULTIPLES, 2), ledger, cached=cached)
    assert oracle.member(2) is True
    message = f"domain elements are positive integers, got {element!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        oracle.member(element)
    assert ledger.totals_by_purpose()[PURPOSE_CANDIDATE] == 1


def detector_handles(collection):
    """A cached detector handle, its ledger, and the per-key reference beside it."""
    ledger = QueryLedger()
    oracle = CollectionOracle(collection, ledger, PURPOSE_DETECTOR)
    return oracle, ledger, AnswerCacheOracle(collection, QueryLedger(), PURPOSE_DETECTOR)


@pytest.mark.parametrize("index", NON_INT_INDICES, ids=repr)
def test_collection_oracle_sweep_rejects_non_int_index(index):
    oracle, ledger, reference = detector_handles(catalog()["multiples"])
    for handle in (oracle, reference):
        handle.member(1, 5)
        with pytest.raises(ConfigError):
            handle.sweep([2, index], 3, range(1, 4))
    # the keys asked before the refusal stay asked, as per-key calls leave them
    assert ledger.totals_by_purpose() == reference.ledger.totals_by_purpose()
    with pytest.raises(ConfigError):
        oracle.sweep([4], index, range(1, 4))  # refused before any key is asked
    assert ledger.totals_by_purpose() == reference.ledger.totals_by_purpose()
    assert_same_asked_keys(oracle, ledger, reference, range(1, 6), range(1, 7))


# ---------------------------------------------------------------------------
# the pool sweep kernel


_SWEEP_INDICES = st.integers(min_value=1, max_value=40)


@settings(max_examples=300)
@given(
    st.sampled_from(sorted(CATALOG)),
    st.lists(_SWEEP_INDICES, max_size=8),
    st.one_of(_SWEEP_INDICES, st.integers(min_value=0, max_value=7)),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=2, max_value=12),
    st.lists(st.tuples(_SWEEP_INDICES, st.integers(min_value=1, max_value=42)), max_size=40),
)
def test_sweep_matches_per_key_member_calls(cid, indices, guess, start, length, warm):
    # a small guess below 8 picks one of the indices, when there are any
    if guess < 8 and indices:
        guess = indices[guess % len(indices)]
    guess = max(guess, 1)
    xs = range(start, start + length)
    kernel, ledger, reference = detector_handles(CATALOG[cid])
    for i, x in warm:
        kernel.member(i, x)
        reference.member(i, x)
    assert ledger.totals_by_purpose() == reference.ledger.totals_by_purpose()
    assert kernel.sweep(indices, guess, xs) == reference.sweep(indices, guess, xs)
    assert ledger.totals_by_purpose() == reference.ledger.totals_by_purpose()
    # the same keys asked, with the same answers
    assert_same_asked_keys(kernel, ledger, reference, {*indices, guess, *(i for i, _ in warm)},
                           range(1, 43))


_FAR = 10**6  # keys far above any prefix that these tests ask
_ELEMENTS = st.one_of(st.integers(min_value=1, max_value=30),
                      st.integers(min_value=_FAR, max_value=_FAR + 4))
_ORACLE_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("member"), st.integers(min_value=1, max_value=8), _ELEMENTS),
        st.tuples(st.just("holders"), st.lists(st.integers(min_value=1, max_value=8), max_size=6),
                  _ELEMENTS),
        # a guess below 0 picks one of the indices, when there are any
        st.tuples(st.just("sweep"), st.lists(st.integers(min_value=1, max_value=8), max_size=6),
                  st.integers(min_value=-3, max_value=8), _ELEMENTS,
                  st.integers(min_value=0, max_value=12)),
    ),
    max_size=25,
)


@settings(max_examples=150)
@given(st.sampled_from(sorted(CATALOG)), _ORACLE_CALLS)
def test_member_and_sweep_sequences_match_the_per_key_cache(cid, calls):
    oracle, ledger, reference = detector_handles(CATALOG[cid])
    elements = set(range(1, 31))
    for call in calls:
        if call[0] == "member":
            _, i, x = call
            elements.add(x)
            assert oracle.member(i, x) == reference.member(i, x)
        elif call[0] == "holders":
            _, indices, x = call
            elements.add(x)
            assert oracle.holders(indices, x) == reference.holders(indices, x)
        else:
            _, indices, guess, start, length = call
            if guess < 1:
                guess = indices[guess % len(indices)] if indices else 1
            xs = range(start, start + length)
            elements.update(xs)
            assert oracle.sweep(indices, guess, xs) == reference.sweep(indices, guess, xs)
        # equal after every call: each call bills the same count on both handles
        assert ledger.totals_by_purpose() == reference.ledger.totals_by_purpose()
    assert_same_asked_keys(oracle, ledger, reference, range(1, 9), sorted(elements))


def test_sweep_needs_a_cached_handle():
    # The sweep asks L_guess about one x for many indices; an uncached
    # handle would bill each repeat, so it is refused outright.
    ledger = QueryLedger()
    oracle = CollectionOracle(MULTIPLES, ledger, PURPOSE_CONSISTENCY, cached=False)
    with pytest.raises(ConfigError):
        oracle.sweep([2, 4], 2, range(1, 5))
    assert sum(ledger.totals_by_purpose().values()) == 0


@pytest.mark.parametrize("xs", [range(0, 3), range(1, 9, 2), range(5, 0, -1)], ids=repr)
def test_sweep_asks_a_run_of_positive_elements(xs):
    # The keys an index asks are marked as one run, so xs must be one.
    ledger = QueryLedger()
    oracle = CollectionOracle(MULTIPLES, ledger, PURPOSE_DETECTOR)
    with pytest.raises(ConfigError, match="a sweep asks a run of positive elements"):
        oracle.sweep([2, 4], 2, xs)
    assert sum(ledger.totals_by_purpose().values()) == 0


def test_member_and_sweep_share_rows():
    oracle, ledger, reference = detector_handles(catalog()["multiples"])

    def ask(call, *args):
        answers = [getattr(handle, call)(*args) for handle in (oracle, reference)]
        assert answers[0] == answers[1], (call, args)
        assert sum(ledger.totals_by_purpose().values()) == reference.fresh()
        return answers[0]

    # asks L_3 about 1..6, then (2, 1) and (2, 2): L_2 holds 2, L_3 does not
    assert ask("sweep", [2], 3, range(1, 7)) == [2]
    assert reference.fresh() == 8
    assert [ask("member", 2, 1), ask("member", 2, 2), ask("member", 3, 2)] == [False, True, False]
    assert reference.fresh() == 8
    assert [ask("member", 4, 4), ask("member", 6, 4)] == [True, False]
    assert reference.fresh() == 10
    # asks (6, 4) for the guess, then (4, 4): both first asked by member
    assert ask("sweep", [4], 6, range(4, 5)) == [4]
    assert reference.fresh() == 10


def test_sweep_asking_nothing_leaves_no_empty_row():
    collection = catalog()["multiples"]
    oracle, ledger, reference = detector_handles(collection)
    for handle in (oracle, reference):
        assert handle.sweep([], 3, range(5, 5)) == []
        assert handle.sweep([2, 3], 4, range(5, 5)) == []
    assert sum(ledger.totals_by_purpose().values()) == 0 == reference.fresh()
    for handle in (oracle, reference):
        handle.member(3, 1)
        assert handle.sweep([], 3, range(1, 5)) == []  # L_3 about 2..4, no index
    assert sum(ledger.totals_by_purpose().values()) == 4 == reference.fresh()
    assert_same_asked_keys(oracle, ledger, reference, range(1, 6), range(1, 7))
    # nor does any state outlive a sweep that asked nothing fresh
    guesses = range(10, 1010)
    for g in range(10, 1011):
        collection.language(g)
    for g in guesses:
        oracle.sweep([], g, range(1, 5))  # L_g's prefix 1..4
    assert not oracle._above
    tracemalloc.start()
    try:
        for g in guesses:
            oracle.sweep([], g, range(1, 5))
            oracle.sweep([g], g, range(2, 4))
            oracle.sweep([g, g + 1], g, range(5, 5))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2**12, held


def test_keys_taken_into_the_prefix_leave_no_state_above_it():
    collection = catalog()["multiples"]
    indices = range(10, 1010)
    for i in indices:
        collection.language(i)
    oracle, ledger, reference = detector_handles(collection)
    tracemalloc.start()
    try:
        for i in indices:
            oracle.member(i, 3)  # a key above each empty prefix
        above, _ = tracemalloc.get_traced_memory()
        for i in indices:
            assert oracle.sweep([i], 1, range(1, 4)) == []  # the run (i, 1..3) takes it in
        taken, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for i in indices:
        reference.member(i, 3)
        assert reference.sweep([i], 1, range(1, 4)) == []
    # (1, 1..3) for the guess once, and (i, 1..3) for each index
    assert sum(ledger.totals_by_purpose().values()) == 3 + 3 * len(indices) == reference.fresh()
    assert taken < above / 2, (taken, above)


def test_sweep_records_its_fresh_queries_in_one_call(monkeypatch):
    ledger = QueryLedger()
    oracle = CollectionOracle(MULTIPLES, ledger, PURPOSE_DETECTOR)
    oracle.member(2, 2)
    calls = []
    record = QueryLedger.record
    monkeypatch.setattr(QueryLedger, "record", lambda *args: calls.append(args) or record(*args))
    # index 2 is the guess, so never violated; L_3 holds 3, which L_2 lacks
    assert oracle.sweep([2, 3], 2, range(1, 5)) == [3]
    # asked: (2, 1..4) less the warm (2, 2), then (3, 1..3)
    assert calls == [(ledger, PURPOSE_DETECTOR, 6)]
    assert ledger.totals_by_purpose()[PURPOSE_DETECTOR] == 1 + 6


@settings(max_examples=100)
@given(st.sampled_from(sorted(CATALOG)), st.lists(_SWEEP_INDICES, unique=True, max_size=12),
       _ELEMENTS)
def test_uncached_holders_bill_every_index_in_one_call(cid, indices, x):
    collection = CATALOG[cid]
    ledger = QueryLedger()
    oracle = CollectionOracle(collection, ledger, PURPOSE_CONSISTENCY, cached=False)
    record, calls = QueryLedger.record, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryLedger, "record", lambda *args: calls.append(args) or record(*args))
        held = oracle.holders(indices, x)
    assert held == [i for i in indices if collection.member(i, x)]
    assert calls == ([(ledger, PURPOSE_CONSISTENCY, len(indices))] if indices else [])
    assert ledger.totals_by_purpose()[PURPOSE_CONSISTENCY] == len(indices)


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("bad", NON_INT_INDICES, ids=repr)
def test_holders_refuse_what_member_refuses_and_bill_nothing(cached, bad):
    ledger = QueryLedger()
    oracle = CollectionOracle(MULTIPLES, ledger, PURPOSE_CONSISTENCY, cached=cached)
    for indices, x in (([2, bad], 4), ([2, 3], bad), ([2, 3], 0)):
        with pytest.raises(ConfigError):
            oracle.member(indices[-1], x)
        with pytest.raises(ConfigError):
            oracle.holders(indices, x)
    assert ledger.totals_by_purpose()[PURPOSE_CONSISTENCY] == 0


# ---------------------------------------------------------------------------
# the finite-set encoding


def test_finite_set_decode_against_brute_force():
    for index in range(1, 4097):
        assert decode_finite_set(index) == brute_decode_finite_set(index)


def _assert_matches_validated_constructor(lang: Language) -> None:
    # Catalog families build finite sets past __post_init__'s checks.
    checked = Language(modulus=lang.modulus, elements=lang.elements)
    assert lang == checked and hash(lang) == hash(checked)
    assert type(lang._members) is type(checked._members)
    assert [lang.member(x) for x in range(1, 65)] == [checked.member(x) for x in range(1, 65)]


@pytest.mark.parametrize("collection", list(CATALOG.values()), ids=list(CATALOG))
def test_catalog_languages_match_the_validated_constructor(collection):
    for i in range(1, 4097):
        _assert_matches_validated_constructor(collection.uncached_language(i))


@given(st.sampled_from(list(CATALOG)), st.integers(min_value=1, max_value=10**9))
def test_catalog_languages_at_large_indices_match_the_validated_constructor(cid, index):
    _assert_matches_validated_constructor(CATALOG[cid].uncached_language(index))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(CATALOG)), st.integers(min_value=1, max_value=2048))
def test_holders_below_are_the_smaller_indices_holding_x(cid, x):
    collection = CATALOG[cid]
    holders = list(collection.holders_below(x))
    assert len(holders) == len(set(holders))
    assert set(holders) == {i for i in range(1, x) if collection.uncached_language(i).member(x)}


def test_encoding_example_from_elements():
    index = encode_finite_set({2, 5})
    assert index == 18
    assert FINITE_SETS.member(index, 5) is True
    assert FINITE_SETS.member(index, 3) is False


@given(st.integers(min_value=1, max_value=10**9))
def test_encode_decode_roundtrip(index):
    assert encode_finite_set(decode_finite_set(index)) == index


def test_empty_set_has_no_index():
    with pytest.raises(ConfigError):
        encode_finite_set([])


# ---------------------------------------------------------------------------
# catalog soundness: closed-form relations vs extensional checks


@pytest.mark.parametrize("collection", list(CATALOG.values()), ids=list(CATALOG))
def test_subset_relation_matches_extensional_check(collection):
    for i in range(1, 33):
        for j in range(1, 33):
            assert collection.subset_of(i, j) == extensional_subset(collection, i, j), (
                collection.id,
                i,
                j,
            )


@pytest.mark.parametrize("collection", list(CATALOG.values()), ids=list(CATALOG))
def test_equals_relation_matches_extensional_check(collection):
    for i in range(1, 33):
        for j in range(1, 33):
            expected = extensional_subset(collection, i, j) and extensional_subset(
                collection, j, i
            )
            assert collection.equals(i, j) == expected


def test_subset_relation_worked_example():
    # L_4 (multiples of 4) sits inside L_2 (even numbers).
    assert MULTIPLES.subset_of(4, 2) is True
    assert MULTIPLES.subset_of(2, 4) is False
    assert MULTIPLES.equals(2, 2) is True


def test_telltale_containment_up_to_64():
    for collection in CATALOG.values():
        for i in range(1, 65):
            telltale = collection.telltale(i)
            if telltale is None:
                assert (collection.id, i) == ("finite_plus_all", 1)
                continue
            assert len(telltale) == len(set(telltale))
            assert all(collection.member(i, x) for x in telltale)


def test_duplicate_languages_are_permitted():
    everything = Language(modulus=1)
    dup = Collection(
        id="dup",
        family=lambda i: everything,
        telltale=lambda i: (1,),
    )
    assert dup.member(5, 17) and dup.member(9, 17)
    assert dup.equals(2, 7)


# ---------------------------------------------------------------------------
# candidate sets


def test_candidate_examples():
    g = language_candidate(MULTIPLES, 3)
    assert g.member(3) is True
    assert g.member(4) is False
    assert empty_candidate().member(7) is False
    g2 = union_candidate(language_candidate(PREFIXES, 2), [9])
    assert g2.member(9) is True and g2.member(3) is False


def test_candidate_edit_composition():
    g = minus_candidate(union_candidate(language_candidate(MULTIPLES, 2), [3]), [3, 4])
    assert not g.member(3)      # later removal wins
    assert not g.member(4)
    assert g.member(2) and g.member(6)
    g2 = union_candidate(g, [4])
    assert g2.member(4)          # later addition wins


def _candidate_asts(max_depth=2):
    base = st.one_of(
        st.tuples(
            st.sampled_from(list(CATALOG)), st.integers(min_value=1, max_value=12)
        ).map(lambda ci: language_candidate(CATALOG[ci[0]], ci[1])),
        st.frozensets(st.integers(min_value=1, max_value=30), max_size=4).map(
            finite_candidate
        ),
        st.just(domain_candidate()),
        st.just(empty_candidate()),
    )
    edits = st.frozensets(st.integers(min_value=1, max_value=30), min_size=1, max_size=3)

    def extend(children):
        return st.one_of(
            st.tuples(children, edits).map(lambda be: union_candidate(*be)),
            st.tuples(children, edits).map(lambda be: minus_candidate(*be)),
        )

    return st.recursive(base, extend, max_leaves=max_depth + 1)


@settings(max_examples=120)
@given(_candidate_asts())
def test_candidate_membership_matches_set_arithmetic(candidate):
    # Independent route: rebuild the set below 200 from the wire-form tree.
    def interp(config):
        kind, params = config["kind"], config["params"]
        if kind == "language_of":
            return language_members_upto(
                CATALOG[params["collection"]].language(params["index"]), 200
            )
        if kind == "finite_union_with":
            return interp(params["base"]) | set(params["elements"])
        if kind == "finite_minus":
            return interp(params["base"]) - set(params["elements"])
        if kind == "explicit_finite":
            return set(params["elements"])
        if kind == "all_of_domain":
            return set(range(1, 201))
        assert kind == "empty"
        return set()

    assert candidate_members_upto(candidate, 200) == interp(candidate_to_config(candidate))


@settings(max_examples=120)
@given(
    _candidate_asts(),
    st.sampled_from(list(CATALOG)),
    st.integers(min_value=1, max_value=10),
)
def test_candidate_subset_decision_matches_exhaustive(candidate, cid, k):
    target = CATALOG[cid].language(k)
    decided = candidate_subset_of(candidate, target)
    below = candidate_members_upto(candidate, 200) <= language_members_upto(target, 200)
    if decided:
        assert below
    elif below:
        # Disagreement below 200 must come from a genuine escape above it.
        assert not candidate.core.is_finite
        assert not language_subset(candidate.core, target)


_EDIT = st.tuples(st.booleans(), st.frozensets(st.integers(min_value=1, max_value=24), max_size=6))


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=16),
    st.lists(_EDIT, max_size=3),
    st.sampled_from(list(CATALOG)),
    st.integers(min_value=1, max_value=64),
)
def test_prefix_core_subset_decision_matches_enumeration(b, edits, cid, k):
    # A {1..b} core is decided in closed form; every member lies in 1..max(b, 24).
    candidate = language_candidate(PREFIXES, b)
    for union, elements in edits:
        candidate = (union_candidate if union else minus_candidate)(candidate, elements)
    target = CATALOG[cid].language(k)
    members = [x for x in range(1, max(b, 24) + 1) if candidate.member(x)]
    assert candidate_subset_of(candidate, target) == all(map(target.member, members))
    assert language_subset(PREFIXES.language(b), target) == all(
        target.member(x) for x in range(1, b + 1)
    )


@settings(max_examples=120)
@given(_candidate_asts())
def test_candidate_config_roundtrip(candidate):
    config = candidate_to_config(candidate)
    back = candidate_from_config(config, CATALOG)
    assert back == candidate and hash(back) == hash(candidate)
    assert candidate_to_config(back) == config
    # The returned tree is the caller's: changing it leaves the candidate alone.
    snapshot = copy.deepcopy(config)
    node = config
    while "base" in node["params"]:
        node["params"]["elements"].append(999)
        node = node["params"]["base"]
    node["params"].get("elements", []).append(999)
    node["params"].clear()
    node["kind"] = "mutated"
    assert candidate_to_config(candidate) == snapshot
    assert candidate_from_config(snapshot, CATALOG) == candidate


def test_candidate_config_validation():
    with pytest.raises(ConfigError):
        candidate_from_config({"kind": "language_of", "params": {"index": 0}}, CATALOG, "multiples")
    with pytest.raises(ConfigError):
        candidate_from_config({"kind": "mystery"}, CATALOG)
    with pytest.raises(ConfigError):
        candidate_from_config(
            {"kind": "explicit_finite", "params": {"elements": [0]}}, CATALOG
        )


# ---------------------------------------------------------------------------
# the query ledger


def test_ledger_counts_fresh_queries_only():
    ledger = QueryLedger()
    oracle = CollectionOracle(MULTIPLES, ledger, PURPOSE_CONSISTENCY)
    ledger.open_steps(2)
    ledger.step = 1
    oracle.member(2, 6)
    oracle.member(2, 6)  # cache hit, not fresh
    oracle.member(3, 6)
    ledger.step = 2
    oracle.member(2, 8)
    assert ledger.totals_by_purpose()[PURPOSE_CONSISTENCY] == 3
    assert sum(ledger.totals_by_purpose().values()) == 3
    assert dict(zip(PURPOSES, ledger.take(2)))[PURPOSE_CONSISTENCY] == [2, 1]


def test_uncached_candidate_oracle_bills_every_call():
    ledger = QueryLedger()
    oracle = CandidateOracle(language_candidate(MULTIPLES, 3), ledger, cached=False)
    for _ in range(4):
        oracle.member(3)
    assert ledger.totals_by_purpose()[PURPOSE_CANDIDATE] == 4


def test_cached_false_answer_is_a_hit():
    ledger = QueryLedger()
    oracle = CollectionOracle(MULTIPLES, ledger, PURPOSE_CONSISTENCY)
    assert oracle.member(2, 5) is False
    assert oracle.member(2, 5) is False
    assert ledger.totals_by_purpose()[PURPOSE_CONSISTENCY] == 1
    candidate = language_candidate(MULTIPLES, 3)
    cached = CandidateOracle(candidate, ledger, cached=True)
    assert cached.member(4) is False
    assert cached.member(4) is False
    assert ledger.totals_by_purpose()[PURPOSE_CANDIDATE] == 1
    uncached = CandidateOracle(candidate, ledger, cached=False)
    assert uncached.member(4) is False
    assert uncached.member(4) is False
    assert ledger.totals_by_purpose()[PURPOSE_CANDIDATE] == 3


@given(
    st.lists(
        st.tuples(st.sampled_from(PURPOSES), st.integers(min_value=0, max_value=3)),
        max_size=30,
    )
)
def test_ledger_completeness(plan):
    ledger = QueryLedger()
    ledger.open_steps(len(plan))
    made = 0
    for ledger.step, (purpose, count) in enumerate(plan, start=1):
        for _ in range(count):
            ledger.record(purpose)
            made += 1
    assert sum(ledger.totals_by_purpose().values()) == made


@pytest.mark.parametrize("cut", [0, 3, 4])
def test_ledger_take_hands_over_steps_up_to_the_cut(cut):
    ledger = QueryLedger()
    ledger.record(PURPOSE_CONSISTENCY, 2)  # before step 1
    ledger.open_steps(4)
    for ledger.step, n in enumerate([1, 0, 3, 5], start=1):
        ledger.record(PURPOSE_DETECTOR, n)
        ledger.record(PURPOSE_CANDIDATE)
    totals = ledger.totals_by_purpose()
    columns = dict(zip(PURPOSES, ledger.take(cut)))
    # Step 0 and every step past the cut count in the totals, in no column.
    assert totals == {PURPOSE_CANDIDATE: 4, PURPOSE_CONSISTENCY: 2, PURPOSE_DETECTOR: 9}
    assert columns == {PURPOSE_CANDIDATE: [1] * cut, PURPOSE_CONSISTENCY: [0] * cut,
                       PURPOSE_DETECTOR: [1, 0, 3, 5][:cut]}


@given(st.lists(st.lists(st.sampled_from(PURPOSES), max_size=6), max_size=25))
def test_ledger_matches_a_counter_model(plan):
    # plan[t] lists the purposes recorded during step t; step 0 is before
    # the first step opens
    ledger = QueryLedger()
    model: Counter = Counter()
    for t, purposes in enumerate(plan):
        if t:
            ledger.open_steps(1)
            ledger.step = t
        for purpose in purposes:
            ledger.record(purpose)
            model[(t, purpose)] += 1
    assert ledger.step == max(len(plan) - 1, 0)
    totals = ledger.totals_by_purpose()
    assert sum(totals.values()) == sum(model.values())
    by_purpose = {p: sum(n for (_, q), n in model.items() if q == p) for p in PURPOSES}
    assert totals == by_purpose
    for purpose, steps in zip(PURPOSES, ledger.take(ledger.step)):
        before_first = totals[purpose] - sum(steps)
        expected = [model[(t, purpose)] for t in range(ledger.step + 1)]
        assert [before_first, *steps] == expected, purpose
