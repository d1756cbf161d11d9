from collections import Counter

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
    PURPOSES,
    CandidateOracle,
    Collection,
)

from tests.oracles import (
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
    if ascending:
        for rank in range(1, 14):
            assert a.element_at(rank) == ascending[(rank - 1) % len(ascending)]
    assert language_subset(a, b) == (listed_a <= listed_b)
    with pytest.raises(ConfigError):
        a.member(0)


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
)


@given(_BAD_LANGUAGES)
def test_malformed_languages_are_rejected(fields):
    with pytest.raises(ConfigError):
        Language(**fields)


@pytest.mark.parametrize("collection", list(CATALOG.values()), ids=list(CATALOG))
def test_collection_member_rejects_element_zero(collection):
    fresh = catalog()[collection.id]
    with pytest.raises(ConfigError):
        fresh.member(5, 0)  # index 5 not yet built
    with pytest.raises(ConfigError):
        fresh.member(5, 0)  # index 5 now cached


# ---------------------------------------------------------------------------
# the finite-set encoding


def test_finite_set_decode_against_brute_force():
    for index in range(1, 4097):
        assert decode_finite_set(index) == brute_decode_finite_set(index)


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
    # Independent route: rebuild the set below 200 from the construction tree.
    def interp(ast):
        kind = ast[0]
        if kind == "language_of":
            return language_members_upto(CATALOG[ast[1]].language(ast[2]), 200)
        if kind == "finite_union_with":
            return interp(ast[1]) | set(ast[2])
        if kind == "finite_minus":
            return interp(ast[1]) - set(ast[2])
        if kind == "explicit_finite":
            return set(ast[1])
        if kind == "all_of_domain":
            return set(range(1, 201))
        return set()

    assert candidate_members_upto(candidate, 200) == interp(candidate.ast)


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
        core = candidate.core
        assert core is not None and not core.is_finite
        assert not language_subset(core, target)


def test_candidate_config_roundtrip():
    g = minus_candidate(
        union_candidate(language_candidate(MULTIPLES, 2), [5, 9]), [4]
    )
    config = candidate_to_config(g)
    back = candidate_from_config(config, CATALOG)
    assert back == g
    assert candidate_to_config(back) == config


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
    ledger.begin_step(1)
    oracle.member(2, 6)
    oracle.member(2, 6)  # cache hit, not fresh
    oracle.member(3, 6)
    assert ledger.at(1, PURPOSE_CONSISTENCY) == 2
    ledger.begin_step(2)
    oracle.member(2, 8)
    assert ledger.at(2, PURPOSE_CONSISTENCY) == 1
    assert ledger.total(PURPOSE_CONSISTENCY) == 3
    assert ledger.total() == ledger.calls == 3


def test_uncached_candidate_oracle_bills_every_call():
    ledger = QueryLedger()
    ledger.begin_step(1)
    oracle = CandidateOracle(language_candidate(MULTIPLES, 3), ledger, cached=False)
    for _ in range(4):
        oracle.member(3)
    assert ledger.at(1, PURPOSE_CANDIDATE) == 4


@given(
    st.lists(
        st.tuples(st.sampled_from(PURPOSES), st.integers(min_value=0, max_value=3)),
        max_size=30,
    )
)
def test_ledger_completeness(plan):
    ledger = QueryLedger()
    made = 0
    for step, (purpose, count) in enumerate(plan, start=1):
        ledger.begin_step(step)
        for _ in range(count):
            ledger.record(purpose)
            made += 1
    assert ledger.total() == made
    assert sum(ledger.totals_by_purpose().values()) == made


def test_ledger_steps_advance_one_at_a_time():
    ledger = QueryLedger()
    ledger.begin_step(1)
    with pytest.raises(ConfigError):
        ledger.begin_step(3)


@given(st.lists(st.lists(st.sampled_from(PURPOSES), max_size=6), max_size=25))
def test_ledger_matches_a_counter_model(plan):
    # plan[t] lists the purposes recorded during step t; step 0 is before
    # the first begin_step
    ledger = QueryLedger()
    model: Counter = Counter()
    for t, purposes in enumerate(plan):
        if t:
            ledger.begin_step(t)
        for purpose in purposes:
            ledger.record(purpose)
            model[(t, purpose)] += 1
    assert ledger.step == max(len(plan) - 1, 0)
    for t in range(ledger.step + 2):
        for purpose in PURPOSES:
            assert ledger.at(t, purpose) == model[(t, purpose)], (t, purpose)
    assert ledger.total() == sum(model.values()) == ledger.calls
    by_purpose = {p: sum(n for (_, q), n in model.items() if q == p) for p in PURPOSES}
    assert {p: ledger.total(p) for p in PURPOSES} == by_purpose
    assert ledger.totals_by_purpose() == by_purpose
