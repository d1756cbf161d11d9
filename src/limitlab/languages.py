"""Languages, indexed collections, candidate sets, and query accounting.

The domain is fixed as the positive integers; the canonical domain
enumeration is the identity, so the j-th domain point has value j.
A ``Language`` is a decidable description of a subset of the domain,
a ``Collection`` is a countably indexed family of languages with a
membership oracle and exact inclusion and equality between indices,
and a ``CandidateSet`` is the set under test, built from a small closed
grammar so that both membership and subset questions stay decidable.

All membership traffic that matters for a game run goes through the
oracle handles at the bottom of this module, which count every fresh
(non-cached) query in a ``QueryLedger``.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain, count, filterfalse, repeat
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union


class ConfigError(ValueError):
    """A scenario, catalog lookup, or spec value failed validation."""


# Ledger purposes. Candidate queries go to the set under test; collection
# queries are split by who asked: consistency bookkeeping vs. detector scans.
PURPOSE_CANDIDATE = "candidate"
PURPOSE_CONSISTENCY = "consistency"
PURPOSE_DETECTOR = "detector"
PURPOSES = (PURPOSE_CANDIDATE, PURPOSE_CONSISTENCY, PURPOSE_DETECTOR)


_KIND_NAMES = {bool: "a boolean", int: "an integer", str: "a string", Mapping: "an object"}


def config_field(config: Mapping, key: str, kind: type, default=None):
    """``config[key]`` checked to be a bool, an int, a str or a Mapping, per ``kind``.

    An absent or null field gives ``default``.
    """
    value = config.get(key)
    return default if value is None else check_kind(key, value, kind)


def check_kind(key: str, value, kind: type):
    """``value`` of field ``key`` checked to be of ``kind``; booleans are not integers."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        expected = _KIND_NAMES.get(kind, f"a {kind.__name__}")
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")
    return value


def check_taken(config: Mapping, taken: Iterable[str], owner: str, noun: str = "param") -> None:
    """ConfigError for a non-null key of ``config`` that is not in ``taken``."""
    for key, value in config.items():
        if value is not None and key not in taken:
            raise ConfigError(f"{owner} takes no {noun} {key!r}")


def _index_error(i: object) -> ConfigError:
    return ConfigError(f"language indices are positive integers, got {i!r}")


def _check_index(i: object) -> None:
    if type(i) is not int or i < 1:
        raise _index_error(i)


def _check_element(x: int) -> None:
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise ConfigError(f"domain elements are positive integers, got {x!r}")


@dataclass(frozen=True, slots=True)
class Language:
    """A decidable language over the positive integers, in one of two closed forms.

    ``modulus >= 1``: the multiples of ``modulus``; modulus 1 is the whole
    domain. ``modulus == 0``: the finite set ``elements``, sorted and
    distinct; the prefix {1..b} is kept as ``range(1, b + 1)``, which
    answers ``in``, ``len``, indexing and ``within`` in O(1).
    """

    modulus: int = 0
    elements: Union[tuple[int, ...], range] = ()
    _members: Union[frozenset, tuple, range] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        elems = self.elements
        if self.modulus < 0:
            raise ConfigError(f"modulus must be >= 0, got {self.modulus}")
        if self.modulus and elems:
            raise ConfigError("a language has a modulus or elements, not both")
        if isinstance(elems, range):
            # len() of a range must fit in a machine-size int
            if not elems or elems.start != 1 or elems.step != 1 or elems.stop > sys.maxsize:
                raise ConfigError(
                    f"a prefix language is range(1, b + 1), b < {sys.maxsize}, got {elems!r}"
                )
        elif elems:
            prev = 0
            for x in elems:
                if type(x) is not int or x < 1:
                    _check_element(x)
                if x <= prev:
                    raise ConfigError("finite language elements must be sorted and distinct")
                prev = x
            elems = frozenset(elems)
        # A range answers ``in`` itself; an empty tuple (every multiples
        # language) is shared, where each empty frozenset would cost 216 B.
        object.__setattr__(self, "_members", elems)

    def member(self, x: int) -> bool:
        """Exact membership; total and deterministic for every element."""
        if x < 1:
            raise ConfigError(f"domain elements are positive integers, got {x!r}")
        if self.modulus:
            return x % self.modulus == 0
        return x in self._members

    def within(self, first: int, last: int) -> Union[range, tuple[int, ...]]:
        """The elements in [first, last], ascending, for ``first >= 1``."""
        if self.modulus:
            return range(-(-first // self.modulus) * self.modulus, last + 1, self.modulus)
        members = self._members
        if type(members) is range:
            return range(first, min(last + 1, members.stop))
        elements = self.elements
        return elements[bisect_left(elements, first):bisect_right(elements, last)]

    @property
    def is_finite(self) -> bool:
        return not self.modulus

    def finite_elements(self) -> Union[tuple[int, ...], range]:
        if self.modulus:
            raise ConfigError(f"language {self.describe()} is infinite")
        return self.elements

    def first_elements(self, n: int) -> tuple[list[int], bool]:
        """First min(n, |L|) elements in ascending value order.

        Returns (elements, exhausted) where exhausted is True iff the
        whole language fits in n slots.
        """
        if n < 0:
            raise ConfigError("element count must be >= 0")
        if self.modulus:
            return [self.modulus * j for j in range(1, n + 1)], False
        return list(self.elements[:n]), len(self.elements) <= n

    def listing(self) -> Iterator[int]:
        """The elements in ascending order, cycling once a finite language is spent."""
        if self.modulus:
            return count(self.modulus, self.modulus)
        if not self.elements:
            raise ConfigError("the empty language has no listing; pick a nonempty target")
        return chain.from_iterable(repeat(self.elements))

    def describe(self) -> str:
        if self.modulus == 1:
            return "all positive integers"
        if self.modulus:
            return f"multiples of {self.modulus}"
        if isinstance(self.elements, range):
            return "{1..%d}" % len(self.elements)
        return "{%s}" % ", ".join(str(x) for x in self.elements)


def language_subset(a: Language, b: Language) -> bool:
    """Exact decision of a <= b using the closed language forms."""
    if type(a.elements) is range:
        return len(b.within(1, len(a.elements))) == len(a.elements)
    if a.is_finite:
        return all(b.member(x) for x in a.elements)
    return not b.is_finite and a.modulus % b.modulus == 0


def language_equal(a: Language, b: Language) -> bool:
    return language_subset(a, b) and language_subset(b, a)


# ---------------------------------------------------------------------------
# Collections


class Collection:
    """A countably indexed family of languages with a membership oracle.

    ``family(i)`` yields the i-th language for any index i >= 1.
    ``language(i)`` validates the index, builds L_i on first use and keeps
    it in ``_language_cache``, as ``member``, ``subset_of`` and ``equals``
    do: games read their target, guesses and pooled indices again and
    again. ``uncached_language(i)`` validates alike and returns the kept
    L_i if there is one, but keeps nothing it builds: the checker reads
    each witness that way, since no later check reads it again.
    ``subset_of(i, j)`` decides L_i <= L_j and ``equals(i, j)`` decides
    L_i == L_j, both exactly and from the languages' closed forms.
    ``telltale(i)`` yields a finite subset of L_i that certifies it
    against proper subsets within the family, or None when no such set
    is available for that index; it validates i alike and builds no L_i.

    ``finite_telltale_violation(i, T)`` is the optional closed-form
    search used by the harness checker: it returns an index j with
    T <= L_j and L_j a proper subset of L_i, or None after a universal
    argument that no such j exists anywhere in the family.
    ``holders_below(x)``, optional, gives {i < x : x in L_i} in closed form.
    """

    def __init__(
        self,
        id: str,
        family: Callable[[int], Language],
        telltale: Callable[[int], Optional[tuple[int, ...]]],
        finite_telltale_violation: Optional[Callable[[int, frozenset], Optional[int]]] = None,
        description: str = "",
        holders_below: Optional[Callable[[int], Iterable[int]]] = None,
    ) -> None:
        self.id = id
        self._family = family
        self._telltale = telltale
        self.finite_telltale_violation = finite_telltale_violation
        self.holders_below = holders_below
        self.description = description
        self._language_cache: dict[int, Language] = {}

    def __repr__(self) -> str:
        return f"Collection({self.id!r})"

    def language(self, i: int) -> Language:
        kept = self._language_cache.get(i) if type(i) is int else None
        return kept or self._language_cache.setdefault(i, self.uncached_language(i))

    def uncached_language(self, i: int) -> Language:
        """L_i as kept, or built and not kept, for a language read once."""
        _check_index(i)
        return self._language_cache.get(i) or self._family(i)

    def member(self, i: int, x: int) -> bool:
        """The membership oracle: x in L_i."""
        return self.language(i).member(x)

    def subset_of(self, i: int, j: int) -> bool:
        return language_subset(self.language(i), self.language(j))

    def equals(self, i: int, j: int) -> bool:
        return language_equal(self.language(i), self.language(j))

    def telltale(self, i: int) -> Optional[tuple[int, ...]]:
        """Tell-tale for index i, or None when missing for this index."""
        _check_index(i)
        return self._telltale(i)


def decode_finite_set(index: int) -> tuple[int, ...]:
    """Finite set whose characteristic vector is the binary expansion of index.

    Bit b (value 2**b) of the index marks element b+1, so index 1 encodes
    {1}, index 2 encodes {2}, index 3 encodes {1, 2}, and so on. The
    encoding is injective and never produces the empty set for index >= 1.
    """
    if index < 1:
        raise ConfigError("finite-set indices start at 1")
    out = []
    while index:  # one pass per set bit: the lowest one is element low.bit_length()
        low = index & -index
        out.append(low.bit_length())
        index ^= low
    return tuple(out)


_set_modulus, _set_elements, _set_members = (
    Language.modulus.__set__, Language.elements.__set__, Language._members.__set__)


def _decoded_language(index: int) -> Language:
    """``Language(elements=decode_finite_set(index))``, past checks it passes by construction."""
    lang, elements = object.__new__(Language), decode_finite_set(index)
    _set_modulus(lang, 0)
    _set_elements(lang, elements)
    _set_members(lang, frozenset(elements))
    return lang


def encode_finite_set(elements: Iterable[int]) -> int:
    """Inverse of :func:`decode_finite_set` for nonempty element sets."""
    mask = 0
    for x in elements:
        if type(x) is not int or x < 1:
            _check_element(x)
        mask |= 1 << (x - 1)
    if mask == 0:
        raise ConfigError("the empty set has no index in this encoding")
    return mask


def _multiples_collection() -> Collection:
    def violation(i: int, telltale: frozenset) -> Optional[int]:
        # Candidate supersets of the tell-tale are the divisors of its gcd;
        # proper subsets of L_i are the proper multiples of i.
        if not telltale:
            return 2 * i
        g = 0
        for x in telltale:
            g = gcd(g, x)
        return g if g > i else None

    def holders_below(x: int) -> list[int]:  # the divisors of x below x, in O(sqrt(x))
        small = [d for d in range(1, isqrt(x) + 1) if x % d == 0] if x > 1 else []
        return small + [x // d for d in small if 1 < d < x // d]

    return Collection(
        id="multiples",
        family=lambda i: Language(modulus=i),
        telltale=lambda i: (i,),
        finite_telltale_violation=violation,
        description="L_i holds every multiple of i",
        holders_below=holders_below,
    )


def _finite_prefixes_collection() -> Collection:
    def violation(i: int, telltale: frozenset) -> Optional[int]:
        top = max(telltale) if telltale else 0
        if top < i and i >= 2:
            return max(top, 1)
        return None

    return Collection(
        id="finite_prefixes",
        family=lambda i: Language(elements=range(1, i + 1)),
        telltale=lambda i: (i,),
        finite_telltale_violation=violation,
        description="L_i is the prefix {1..i}",
        holders_below=lambda x: (),  # x in {1..i} needs i >= x
    )


def _finite_sets_violation(index: int, telltale: frozenset) -> Optional[int]:
    mask = encode_finite_set(telltale) if telltale else 0
    if mask == index:
        return None
    if mask:
        return mask
    # Empty tell-tale: any single element of L_index works when it has
    # company; a singleton language has no nonempty proper subset here.
    if index & (index - 1):
        return index & -index
    return None


def _finite_sets_collection() -> Collection:
    return Collection(
        id="finite_sets",
        family=_decoded_language,
        telltale=decode_finite_set,
        finite_telltale_violation=_finite_sets_violation,
        description="L_i decodes the binary expansion of i as a characteristic vector",
        holders_below=lambda x: (),  # x in L_i needs bit x - 1 of i, so i >= 2**(x - 1) >= x
    )


def _finite_plus_all_collection() -> Collection:
    def family(i: int) -> Language:
        return Language(modulus=1) if i == 1 else _decoded_language(i - 1)

    def telltale(i: int) -> Optional[tuple[int, ...]]:
        if i == 1:
            return None  # the full domain admits no finite tell-tale here
        return decode_finite_set(i - 1)

    def violation(i: int, telltale: frozenset) -> Optional[int]:
        if i == 1:
            # Every finite set containing the tell-tale is a proper subset
            # of the full domain, and one always exists in the family.
            return encode_finite_set(telltale) + 1 if telltale else 2
        j = _finite_sets_violation(i - 1, telltale)
        return None if j is None else j + 1

    return Collection(
        id="finite_plus_all",
        family=family,
        telltale=telltale,
        finite_telltale_violation=violation,
        description="L_1 is the whole domain; L_{i+1} is the i-th finite set",
        holders_below=lambda x: (1,) if x > 1 else (),  # L_{i+1} holds x only if i >= x
    )


def catalog() -> dict[str, Collection]:
    """Fresh instances of the built-in collections, keyed by id."""
    collections = (
        _multiples_collection(),
        _finite_prefixes_collection(),
        _finite_sets_collection(),
        _finite_plus_all_collection(),
    )
    return {c.id: c for c in collections}


def resolve_collection(collection_id: str, collections: Mapping[str, Collection]) -> Collection:
    try:
        return collections[collection_id]
    except KeyError:
        known = ", ".join(sorted(collections))
        raise ConfigError(
            f"unknown collection {collection_id!r} (known: {known})"
        ) from None


# ---------------------------------------------------------------------------
# Candidate sets


@dataclass(frozen=True)
class CandidateSet:
    """The set under test, kept in the closed form (core \\ minus) | plus.

    ``core`` is a Language, the empty one when no language contributes,
    and ``plus``/``minus`` are disjoint finite element sets. ``config`` is
    the construction tree in its {kind, params} wire form; membership
    never consults it.
    """

    core: Language
    plus: frozenset
    minus: frozenset
    descriptor: str
    config: dict = field(hash=False)  # unhashable, so compared but left out of the hash

    def member(self, x: int) -> bool:
        if x < 1:
            raise ConfigError(f"domain elements are positive integers, got {x!r}")
        if x in self.plus:
            return True
        if x in self.minus:
            return False
        return self.core.member(x)

    def describe(self) -> str:
        return self.descriptor


def _element_tuple(elements: Iterable[int]) -> tuple[int, ...]:
    out = list(elements)
    for x in out:  # before sorting, which fails on mixed or unhashable types
        if type(x) is not int or x < 1:  # plain positive ints skip the call
            _check_element(x)
    return tuple(sorted(set(out)))


def _brace(elements: Iterable[int]) -> str:
    return "{%s}" % ",".join(str(x) for x in sorted(elements))


def language_candidate(collection: Collection, index: int) -> CandidateSet:
    lang = collection.language(index)
    return CandidateSet(
        core=lang,
        plus=frozenset(),
        minus=frozenset(),
        descriptor=f"lang({collection.id},{index})",
        config={"kind": "language_of", "params": {"collection": collection.id, "index": index}},
    )


def union_candidate(base: CandidateSet, elements: Iterable[int]) -> CandidateSet:
    added = _element_tuple(elements)
    return CandidateSet(
        core=base.core,
        plus=base.plus | set(added),
        minus=base.minus - set(added),
        descriptor=base.descriptor + "+" + _brace(added),
        config={"kind": "finite_union_with",
                "params": {"base": base.config, "elements": list(added)}},
    )


def minus_candidate(base: CandidateSet, elements: Iterable[int]) -> CandidateSet:
    removed = _element_tuple(elements)
    return CandidateSet(
        core=base.core,
        plus=base.plus - set(removed),
        minus=base.minus | set(removed),
        descriptor=base.descriptor + "-" + _brace(removed),
        config={"kind": "finite_minus",
                "params": {"base": base.config, "elements": list(removed)}},
    )


def finite_candidate(elements: Iterable[int]) -> CandidateSet:
    elems = _element_tuple(elements)
    return CandidateSet(
        core=Language(),
        plus=frozenset(elems),
        minus=frozenset(),
        descriptor="set" + _brace(elems),
        config={"kind": "explicit_finite", "params": {"elements": list(elems)}},
    )


def domain_candidate() -> CandidateSet:
    return CandidateSet(
        core=Language(modulus=1),
        plus=frozenset(),
        minus=frozenset(),
        descriptor="all",
        config={"kind": "all_of_domain", "params": {}},
    )


def empty_candidate() -> CandidateSet:
    return CandidateSet(
        core=Language(),
        plus=frozenset(),
        minus=frozenset(),
        descriptor="empty",
        config={"kind": "empty", "params": {}},
    )


def candidate_subset_of(candidate: CandidateSet, target: Language) -> bool:
    """Exact ground-truth decision of candidate <= target."""
    for x in candidate.plus:
        if not target.member(x):
            return False
    core = candidate.core
    if type(core.elements) is range:
        # {1..n} minus a finite set: the minus must hold every element outside the target
        n = len(core.elements)
        outside = sum(x <= n and not target.member(x) for x in candidate.minus)
        return outside == n - len(target.within(1, n))
    if core.is_finite:
        return all(target.member(x) for x in core.elements if x not in candidate.minus)
    # An infinite core leaks infinitely many elements past any finite minus,
    # so the finite edits cannot rescue a failed language-level inclusion.
    return language_subset(core, target)


def candidate_to_config(candidate: CandidateSet) -> dict:
    """The candidate's {kind, params} wire form, a copy the caller may change."""
    return _copy_tree(candidate.config)


def _copy_tree(node: dict) -> dict:
    # A config tree holds dicts, lists of ints and scalars; deepcopy is 3x slower.
    return {key: _copy_tree(value) if type(value) is dict else
            list(value) if type(value) is list else value for key, value in node.items()}


# Every candidate kind and the params it takes.
CANDIDATE_PARAMS = {"language_of": ("collection", "index"),
                    "finite_union_with": ("base", "elements"), "finite_minus": ("base", "elements"),
                    "explicit_finite": ("elements",), "all_of_domain": (), "empty": ()}
# The most edits one candidate may nest: the wire form's copies and
# encoders recurse once per edit.
MAX_CANDIDATE_EDITS = 100
_EDITS = {"finite_union_with": union_candidate, "finite_minus": minus_candidate}


def candidate_from_config(
    config: Mapping, collections: Mapping[str, Collection], default_collection: str = ""
) -> CandidateSet:
    """Build a candidate from the {kind, params} wire form."""
    edits = []  # (build, elements) of each edit, the outermost first
    while True:
        if not isinstance(config, Mapping) or "kind" not in config:
            raise ConfigError("candidate: expected an object with a 'kind' field")
        check_taken(config, ("kind", "params"), "candidate", "field")
        kind = config["kind"]
        if not isinstance(kind, str) or kind not in CANDIDATE_PARAMS:
            raise ConfigError(f"candidate: unknown kind {kind!r}")
        params = config_field(config, "params", Mapping, {})
        check_taken(params, CANDIDATE_PARAMS[kind], f"candidate: {kind!r}")
        elements = params.get("elements")
        if "elements" in CANDIDATE_PARAMS[kind] and not isinstance(elements, (list, tuple)):
            raise ConfigError(f"candidate: {kind} needs an element list")
        if kind not in _EDITS:
            break
        if len(edits) == MAX_CANDIDATE_EDITS:
            raise ConfigError(f"candidate: more than {MAX_CANDIDATE_EDITS} nested edits")
        edits.append((_EDITS[kind], elements))
        config = params.get("base") or {}
    if kind == "language_of":
        cid = config_field(params, "collection", str) or default_collection
        if not cid:
            raise ConfigError("candidate: language_of needs a collection")
        index = params.get("index")
        if not isinstance(index, int) or index < 1:
            raise ConfigError("candidate: language_of needs a positive index")
        candidate = language_candidate(resolve_collection(cid, collections), index)
    elif kind == "explicit_finite":
        candidate = finite_candidate(elements)
    else:
        candidate = domain_candidate() if kind == "all_of_domain" else empty_candidate()
    for build, elements in reversed(edits):
        candidate = build(candidate, elements)
    return candidate


# ---------------------------------------------------------------------------
# Query accounting


class QueryLedger:
    """Per-step counters of fresh oracle queries, one flat list per purpose.

    ``_counts[purpose][t]`` counts the fresh queries made for that purpose
    (one of ``PURPOSES``) during step t, and index 0 those made before the
    first step. ``begin_step`` appends a zero to every list, one game step
    at a time, and refuses any other t. ``open_steps`` appends n zeros in
    one call; ``run_game`` opens each drawn block with it, then advances
    ``step`` through the block with one attribute store a step. Every
    fresh query through a handle increments exactly one counter; counters
    never decrease. ``per_step`` reads steps 1..step; ``totals_by_purpose``
    sums each list, index 0 included. ``take`` hands the lists over as a
    transcript's count columns, so a run keeps each step's counts once.
    """

    __slots__ = ("step", "_counts")

    def __init__(self) -> None:
        self.step = 0
        self._counts: dict[str, list[int]] = {purpose: [0] for purpose in PURPOSES}

    def begin_step(self, t: int) -> None:
        if t != self.step + 1:
            raise ConfigError(f"ledger steps advance one at a time, got {t} after {self.step}")
        self.step = t
        self.open_steps(1)

    def open_steps(self, n: int) -> None:
        for counts in self._counts.values():
            counts += [0] * n

    def record(self, purpose: str, n: int = 1) -> None:
        """Add n to the current step's counter for purpose: n fresh queries."""
        self._counts[purpose][self.step] += n

    def per_step(self, purpose: str) -> list[int]:
        """The counts of steps 1..step, in order."""
        return self._counts[purpose][1:self.step + 1]

    def totals_by_purpose(self) -> dict[str, int]:
        return {p: sum(counts) for p, counts in self._counts.items()}

    def take(self, steps: int) -> list[list[int]]:
        """Steps 1..steps' counts in ``PURPOSES`` order: the ledger's own lists, cut in place."""
        for counts in self._counts.values():
            del counts[steps + 1:], counts[0]
        return list(self._counts.values())


class CollectionOracle:
    """Ledgered membership handle onto one collection.

    Only fresh queries count, under this handle's purpose. Answers come
    from the closed forms, so ``cached=True`` keeps only which keys were
    asked, as a frontier per index: (i, x) was iff x <= ``_upto[i]`` or x
    is in the set ``_above[i]``, whose keys all lie above that prefix.
    ``_ask`` marks every key; ``share`` and ``advance`` move the watermark.
    Pooled alg2 asks each index a prefix and a few stream elements above
    it, so this grows linearly with the horizon. Only alg2's shared
    detector handle can repeat a key: consistency sets and alg1's sweep
    ask each key once, so ``run_game`` builds theirs uncached. ``holders``
    is a consistency filter: many indices asked about one element in one call;
    ``holds_all`` an admission: one index asked about many elements, up to the
    first miss. ``sweep`` is alg2's pool scan: many indices asked about one run.

    Under a watermark W (``share``), 1..W splits into three disjoint sets: ``_outside``
    (the caller's; it only grows), ``_exceptions`` and the shared rest. A shared index
    has asked exactly 1..W: ``_ask`` makes it an exception at ``_upto[i] = W`` before
    marking more, and ``advance`` asks all of them about W + 1 in one count.
    """

    __slots__ = ("collection", "_languages", "_ledger", "_purpose", "_upto", "_above",
                 "_watermark", "_outside", "_exceptions")

    def __init__(self, collection: Collection, ledger: QueryLedger, purpose: str,
                 cached: bool = True) -> None:
        if purpose not in (PURPOSE_CONSISTENCY, PURPOSE_DETECTOR):
            raise ConfigError(f"collection queries use a collection purpose, got {purpose!r}")
        self.collection = collection
        self._languages = collection._language_cache
        self._ledger = ledger
        self._purpose = purpose
        self._upto: Optional[dict[int, int]] = {} if cached else None
        self._above: Optional[dict[int, set[int]]] = {} if cached else None
        self._watermark, self._outside, self._exceptions = 0, set(), set()

    def member(self, i: int, x: int) -> bool:
        # True and 1.0 equal 1, 2.0 equals 2: unchecked, they would alias int keys.
        if type(i) is not int:
            raise _index_error(i)
        if type(x) is not int or x < 1:
            _check_element(x)
        value = (self._languages.get(i) or self.collection.language(i)).member(x)
        if self._upto is None or self._ask(i, x, x):
            self._ledger.record(self._purpose)
        return value

    def holders(self, indices: Sequence[int], x: int) -> list[int]:
        """The indices, in order, whose language holds x: ``member(i, x)`` of
        each, billed in one ledger call; a call that raises bills nothing."""
        if type(x) is not int or x < 1:
            _check_element(x)
        languages, language, held = self._languages, self.collection.language, []
        for i in indices:
            if type(i) is not int:
                raise _index_error(i)
            if (languages.get(i) or language(i)).member(x):
                held.append(i)
        ask = self._ask
        fresh = len(indices) if self._upto is None else sum([ask(i, x, x) for i in indices])
        if fresh:
            self._ledger.record(self._purpose, fresh)
        return held

    def holds_all(self, i: int, xs: Iterable[int]) -> bool:
        """Whether L_i holds all of ``xs``: ``member(i, x)`` of each x in order, up to and
        including the first miss, billed in one ledger call; a call that raises bills nothing."""
        if type(i) is not int:
            raise _index_error(i)
        member = (self._languages.get(i) or self.collection.language(i)).member
        held, asked = True, []
        for x in xs:
            if type(x) is not int or x < 1:
                _check_element(x)
            asked.append(x)
            if not member(x):
                held = False
                break
        fresh = len(asked)
        if self._upto is not None:
            fresh = 0
            for x in asked:
                fresh += self._ask(i, x, x)
        if fresh:
            self._ledger.record(self._purpose, fresh)
        return held

    def _ask(self, i: int, first: int, last: int) -> int:
        """Mark the keys (i, first..last) asked; the number of them that were fresh."""
        if i <= self._watermark and i not in self._exceptions and i not in self._outside:
            if last <= self._watermark:  # a shared index has asked 1..W
                return 0
            self._upto[i] = self._watermark
            self._exceptions.add(i)
        p = self._upto.get(i, 0)
        if last <= p or last < first:  # none above the prefix
            return 0
        above = self._above.get(i, ())
        n = len(above)
        if first > p + 1:
            if not n:
                above = self._above[i] = set()
            above.update(range(first, last + 1))
            return len(above) - n
        self._upto[i] = last
        if n:  # the prefix takes the keys: walk the run or ``above``, whichever is shorter
            above.difference_update(
                range(p + 1, last + 1) if last - p < n else [x for x in above if x <= last])
            if not above:
                del self._above[i]
        return last - p - (n - len(above))

    def sweep(self, indices: Iterable[int], guess: int, xs: range) -> list[int]:
        """The indices i, in order, for which some x in ``xs`` is in L_i but not in L_guess.

        It asks L_guess about all of ``xs``, then asks each index about
        ``xs`` up to the first x in L_i but not in L_guess, walking only
        L_i's elements in ``xs``. One ledger call records the fresh
        queries. L_guess's keys repeat across indices, so the sweep needs
        a cached handle: an uncached one raises ConfigError. Pooled alg2's
        literal protocol asks those L_guess keys in the same round;
        ``ReductionIdentifier`` says why.
        """
        if self._upto is None:
            raise ConfigError("sweep repeats keys, so it needs a cached oracle handle")
        first, last = xs.start, xs.stop - 1
        if xs.step != 1 or first < 1:
            raise ConfigError(f"a sweep asks a run of positive elements, got {xs!r}")
        languages, language, ask = self._languages, self.collection.language, self._ask
        if type(guess) is not int:
            raise _index_error(guess)
        guess_lang = languages.get(guess) or language(guess)
        gmod, gmem = guess_lang.modulus, guess_lang._members
        gtop = gmem.stop if type(gmem) is range else 0
        violators = []
        fresh = ask(guess, first, last)
        try:
            for i in indices:
                if type(i) is not int:
                    raise _index_error(i)
                stop = last
                # L_guess's closed form inlined, a prefix {1..b} as x < b + 1
                for x in (languages.get(i) or language(i)).within(first, last):
                    if not (x % gmod == 0 if gmod else x < gtop if gtop else x in gmem):
                        violators.append(i)
                        stop = x
                        break
                fresh += ask(i, first, stop)
        finally:
            if fresh:
                self._ledger.record(self._purpose, fresh)
        return violators

    def share(self, watermark: int, outside: set[int]) -> None:
        """Write W into each shared index's ``_upto``, then share the indices up
        to ``watermark`` outside ``outside``, none of whose ``_upto`` lies below it."""
        w, unshared = self._watermark, self._outside | self._exceptions
        self._upto.update(dict.fromkeys(filterfalse(unshared.__contains__, range(1, w + 1)), w))
        self._watermark, self._outside = watermark, outside
        self._exceptions = {i for i, p in self._upto.items() if p > watermark}.union(self._above)
        self._exceptions -= outside

    def advance(self, guess: int, holders: Iterable[int]) -> list[int]:
        """``sweep`` of the indices 1..W outside ``_outside`` under ``guess`` over {W + 1},
        with ``holders`` from ``Collection.holders_below(W + 1)``; W then moves on."""
        outside, exceptions, x = self._outside, self._exceptions, self._watermark + 1
        fresh = self._ask(guess, x, x)
        # outside is in 1..x, the exceptions apart from it in 1..x-1; the shared rest is all fresh
        fresh += x - 1 - len(outside) + (x in outside) - len(exceptions)
        fresh += sum([self._ask(i, x, x) for i in exceptions])
        in_guess = (self._languages.get(guess) or self.collection.language(guess)).member(x)
        violators = [] if in_guess else [i for i in holders if i not in outside]
        # a shared violator has asked 1..x; every violator goes outside as the caller adds it
        self._upto.update(dict.fromkeys(filterfalse(exceptions.__contains__, violators), x))
        exceptions.difference_update(violators)
        if x in self._above and x not in outside:
            exceptions.add(x)
        self._watermark = x
        self._ledger.record(self._purpose, fresh)
        return violators


class CandidateOracle:
    """Ledgered membership handle onto the candidate set under test.

    With ``cached=True`` answers are remembered for the whole run (the
    candidate never changes); with ``cached=False`` every call is a
    fresh query, which is what the negative-example detector's exact
    per-step accounting requires.
    """

    __slots__ = ("candidate", "_ledger", "_cache")

    def __init__(self, candidate: CandidateSet, ledger: QueryLedger, cached: bool = True) -> None:
        self.candidate = candidate
        self._ledger = ledger
        self._cache: Optional[dict[int, bool]] = {} if cached else None

    def member(self, x: int) -> bool:
        if type(x) is not int:  # 2.0 would read key 2's cached answer, True key 1's
            _check_element(x)
        cache = self._cache
        value = None if cache is None else cache.get(x)
        if value is None:
            value = self.candidate.member(x)
            self._ledger.record(PURPOSE_CANDIDATE)
            if cache is not None:
                cache[x] = value
        return value
