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

from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Mapping, Optional, Union


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

    An absent or null field gives ``default``. Booleans are not integers.
    """
    value = config.get(key)
    if value is None:
        return default
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{key}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _check_element(x: int) -> None:
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise ConfigError(f"domain elements are positive integers, got {x!r}")


@dataclass(frozen=True)
class Language:
    """A decidable language over the positive integers, in one of two closed forms.

    ``modulus >= 1``: the multiples of ``modulus``; modulus 1 is the whole
    domain. ``modulus == 0``: the finite set ``elements``, sorted and
    distinct; the prefix {1..b} is kept as ``range(1, b + 1)``, which
    answers ``in``, ``len`` and indexing in O(1).
    """

    modulus: int = 0
    elements: Union[tuple[int, ...], range] = ()

    def __post_init__(self) -> None:
        elems = self.elements
        if self.modulus < 0:
            raise ConfigError(f"modulus must be >= 0, got {self.modulus}")
        if self.modulus and elems:
            raise ConfigError("a language has a modulus or elements, not both")
        if isinstance(elems, range):
            if not elems or elems.start != 1 or elems.step != 1:
                raise ConfigError(f"a prefix language is range(1, b + 1), got {elems!r}")
        elif elems:
            if list(elems) != sorted(set(elems)):
                raise ConfigError("finite language elements must be sorted and distinct")
            for x in elems:
                _check_element(x)
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
        return x in self._members  # type: ignore[attr-defined]

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

    def element_at(self, rank: int) -> int:
        """Element of canonical rank (1-based), cycling for finite languages."""
        if rank < 1:
            raise ConfigError("rank must be >= 1")
        if self.modulus:
            return self.modulus * rank
        return self.elements[(rank - 1) % len(self.elements)]

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
    if a.is_finite:
        return all(b.member(x) for x in a.elements)
    return not b.is_finite and a.modulus % b.modulus == 0


def language_equal(a: Language, b: Language) -> bool:
    return language_subset(a, b) and language_subset(b, a)


# ---------------------------------------------------------------------------
# Collections


class Collection:
    """A countably indexed family of languages with a membership oracle.

    ``family(i)`` yields the i-th language for any index i >= 1. Each
    language is built on first use, which also validates the index, and
    kept in ``_language_cache``; ``member`` reads that cache first.
    ``subset_of(i, j)`` decides
    L_i <= L_j and ``equals(i, j)`` decides L_i == L_j, both exactly and
    from the languages' closed forms. ``telltale(i)`` yields a finite subset
    of L_i that certifies it against proper subsets within the family,
    or None when no such set is available for that index.

    ``finite_telltale_violation(i, T)`` is the optional closed-form
    search used by the harness checker: it returns an index j with
    T <= L_j and L_j a proper subset of L_i, or None after a universal
    argument that no such j exists anywhere in the family.
    """

    def __init__(
        self,
        id: str,
        family: Callable[[int], Language],
        telltale: Optional[Callable[[int], Optional[tuple[int, ...]]]] = None,
        finite_telltale_violation: Optional[Callable[[int, frozenset], Optional[int]]] = None,
        description: str = "",
    ) -> None:
        self.id = id
        self._family = family
        self._telltale = telltale
        self.finite_telltale_violation = finite_telltale_violation
        self.description = description
        self._language_cache: dict[int, Language] = {}

    def __repr__(self) -> str:
        return f"Collection({self.id!r})"

    def language(self, i: int) -> Language:
        if not isinstance(i, int) or isinstance(i, bool) or i < 1:
            raise ConfigError(f"language indices are positive integers, got {i!r}")
        lang = self._language_cache.get(i)
        if lang is None:
            lang = self._family(i)
            self._language_cache[i] = lang
        return lang

    def member(self, i: int, x: int) -> bool:
        """The membership oracle: x in L_i."""
        lang = self._language_cache.get(i)
        if lang is None:
            lang = self.language(i)
        return lang.member(x)

    def subset_of(self, i: int, j: int) -> bool:
        return language_subset(self.language(i), self.language(j))

    def equals(self, i: int, j: int) -> bool:
        return language_equal(self.language(i), self.language(j))

    def telltale(self, i: int) -> Optional[tuple[int, ...]]:
        """Tell-tale for index i, or None when missing for this index."""
        if self._telltale is None:
            return None
        self.language(i)  # validate the index
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
    bit = index
    value = 1
    while bit:
        if bit & 1:
            out.append(value)
        bit >>= 1
        value += 1
    return tuple(out)


def encode_finite_set(elements: Iterable[int]) -> int:
    """Inverse of :func:`decode_finite_set` for nonempty element sets."""
    mask = 0
    for x in elements:
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

    return Collection(
        id="multiples",
        family=lambda i: Language(modulus=i),
        telltale=lambda i: (i,),
        finite_telltale_violation=violation,
        description="L_i holds every multiple of i",
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
    )


def _finite_sets_violation(index: int, telltale: frozenset) -> Optional[int]:
    mask = 0
    for x in telltale:
        mask |= 1 << (x - 1)
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
        family=lambda i: Language(elements=decode_finite_set(i)),
        telltale=decode_finite_set,
        finite_telltale_violation=_finite_sets_violation,
        description="L_i decodes the binary expansion of i as a characteristic vector",
    )


def _finite_plus_all_collection() -> Collection:
    def family(i: int) -> Language:
        if i == 1:
            return Language(modulus=1)
        return Language(elements=decode_finite_set(i - 1))

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

    ``core`` is a Language or None (no core contributes nothing), and
    ``plus``/``minus`` are disjoint finite element sets. ``ast`` preserves
    the construction tree for serialization; membership never consults it.
    """

    core: Optional[Language]
    plus: frozenset
    minus: frozenset
    descriptor: str
    ast: tuple

    def member(self, x: int) -> bool:
        if x < 1:
            raise ConfigError(f"domain elements are positive integers, got {x!r}")
        if x in self.plus:
            return True
        if x in self.minus:
            return False
        return self.core.member(x) if self.core is not None else False

    def describe(self) -> str:
        return self.descriptor


def _element_tuple(elements: Iterable[int]) -> tuple[int, ...]:
    out = sorted(set(elements))
    for x in out:
        _check_element(x)
    return tuple(out)


def _brace(elements: Iterable[int]) -> str:
    return "{%s}" % ",".join(str(x) for x in sorted(elements))


def language_candidate(collection: Collection, index: int) -> CandidateSet:
    lang = collection.language(index)
    return CandidateSet(
        core=lang,
        plus=frozenset(),
        minus=frozenset(),
        descriptor=f"lang({collection.id},{index})",
        ast=("language_of", collection.id, index),
    )


def union_candidate(base: CandidateSet, elements: Iterable[int]) -> CandidateSet:
    added = _element_tuple(elements)
    return CandidateSet(
        core=base.core,
        plus=base.plus | set(added),
        minus=base.minus - set(added),
        descriptor=base.descriptor + "+" + _brace(added),
        ast=("finite_union_with", base.ast, added),
    )


def minus_candidate(base: CandidateSet, elements: Iterable[int]) -> CandidateSet:
    removed = _element_tuple(elements)
    return CandidateSet(
        core=base.core,
        plus=base.plus - set(removed),
        minus=base.minus | set(removed),
        descriptor=base.descriptor + "-" + _brace(removed),
        ast=("finite_minus", base.ast, removed),
    )


def finite_candidate(elements: Iterable[int]) -> CandidateSet:
    elems = _element_tuple(elements)
    return CandidateSet(
        core=None,
        plus=frozenset(elems),
        minus=frozenset(),
        descriptor="set" + _brace(elems),
        ast=("explicit_finite", elems),
    )


def domain_candidate() -> CandidateSet:
    return CandidateSet(
        core=Language(modulus=1),
        plus=frozenset(),
        minus=frozenset(),
        descriptor="all",
        ast=("all_of_domain",),
    )


def empty_candidate() -> CandidateSet:
    return CandidateSet(
        core=None,
        plus=frozenset(),
        minus=frozenset(),
        descriptor="empty",
        ast=("empty",),
    )


def candidate_subset_of(candidate: CandidateSet, target: Language) -> bool:
    """Exact ground-truth decision of candidate <= target."""
    for x in candidate.plus:
        if not target.member(x):
            return False
    core = candidate.core
    if core is None:
        return True
    if core.is_finite:
        return all(
            target.member(x) for x in core.finite_elements() if x not in candidate.minus
        )
    # An infinite core leaks infinitely many elements past any finite minus,
    # so the finite edits cannot rescue a failed language-level inclusion.
    return language_subset(core, target)


def candidate_to_config(candidate: CandidateSet) -> dict:
    return _ast_to_config(candidate.ast)


def _ast_to_config(ast: tuple) -> dict:
    kind = ast[0]
    if kind == "language_of":
        return {"kind": kind, "params": {"collection": ast[1], "index": ast[2]}}
    if kind in ("finite_union_with", "finite_minus"):
        return {
            "kind": kind,
            "params": {"base": _ast_to_config(ast[1]), "elements": list(ast[2])},
        }
    if kind == "explicit_finite":
        return {"kind": kind, "params": {"elements": list(ast[1])}}
    return {"kind": kind, "params": {}}


def candidate_from_config(
    config: Mapping, collections: Mapping[str, Collection], default_collection: str = ""
) -> CandidateSet:
    """Build a candidate from the {kind, params} wire form."""
    if not isinstance(config, Mapping) or "kind" not in config:
        raise ConfigError("candidate: expected an object with a 'kind' field")
    kind = config["kind"]
    params = config_field(config, "params", Mapping, {})
    if kind == "language_of":
        cid = config_field(params, "collection", str) or default_collection
        if not cid:
            raise ConfigError("candidate: language_of needs a collection")
        index = params.get("index")
        if not isinstance(index, int) or index < 1:
            raise ConfigError("candidate: language_of needs a positive index")
        return language_candidate(resolve_collection(cid, collections), index)
    if kind in ("finite_union_with", "finite_minus"):
        base = candidate_from_config(
            params.get("base") or {}, collections, default_collection
        )
        elements = params.get("elements")
        if not isinstance(elements, (list, tuple)):
            raise ConfigError(f"candidate: {kind} needs an element list")
        build = union_candidate if kind == "finite_union_with" else minus_candidate
        return build(base, elements)
    if kind == "explicit_finite":
        elements = params.get("elements")
        if not isinstance(elements, (list, tuple)):
            raise ConfigError("candidate: explicit_finite needs an element list")
        return finite_candidate(elements)
    if kind == "all_of_domain":
        return domain_candidate()
    if kind == "empty":
        return empty_candidate()
    raise ConfigError(f"candidate: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Query accounting


class QueryLedger:
    """Per-step counters of fresh oracle queries, one flat list per purpose.

    ``_counts[purpose][t]`` counts the fresh queries made for that purpose
    during step t, and index 0 those made before the first step. Each
    list holds ``step + 1`` entries: ``begin_step`` appends a zero to
    every list. The purposes are ``PURPOSES``. Every fresh query through
    a handle increments exactly one counter; counters never decrease.
    ``begin_step`` must walk the step counter forward one game step at a
    time.
    """

    __slots__ = ("step", "_counts", "calls")

    def __init__(self) -> None:
        self.step = 0
        self._counts: dict[str, list[int]] = {p: [0] for p in PURPOSES}
        self.calls = 0

    def begin_step(self, t: int) -> None:
        if t != self.step + 1:
            raise ConfigError(f"ledger steps advance one at a time, got {t} after {self.step}")
        self.step = t
        for counts in self._counts.values():
            counts.append(0)

    def record(self, purpose: str) -> None:
        self._counts[purpose][self.step] += 1
        self.calls += 1

    def at(self, t: int, purpose: str) -> int:
        counts = self._counts[purpose]
        return counts[t] if 0 <= t < len(counts) else 0

    def total(self, purpose: Optional[str] = None) -> int:
        if purpose is None:
            return sum(map(sum, self._counts.values()))
        return sum(self._counts[purpose])

    def totals_by_purpose(self) -> dict[str, int]:
        return {p: sum(counts) for p, counts in self._counts.items()}


class CollectionOracle:
    """Ledgered membership handle onto one collection.

    Answers are cached per (index, element); only cache misses count as
    fresh queries under this handle's purpose. Pass a shared ``cache``
    dict to let several components reuse each other's answers.
    """

    __slots__ = ("collection", "_ledger", "_purpose", "_cache")

    def __init__(
        self,
        collection: Collection,
        ledger: QueryLedger,
        purpose: str,
        cache: Optional[dict] = None,
    ) -> None:
        if purpose not in (PURPOSE_CONSISTENCY, PURPOSE_DETECTOR):
            raise ConfigError(f"collection queries use a collection purpose, got {purpose!r}")
        self.collection = collection
        self._ledger = ledger
        self._purpose = purpose
        self._cache = {} if cache is None else cache

    def member(self, i: int, x: int) -> bool:
        key = (i, x)
        try:
            return self._cache[key]
        except KeyError:
            pass
        value = self.collection.member(i, x)
        self._ledger.record(self._purpose)
        self._cache[key] = value
        return value


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
        self._cache: Optional[dict] = {} if cached else None

    def member(self, x: int) -> bool:
        if self._cache is not None:
            try:
                return self._cache[x]
            except KeyError:
                pass
        value = self.candidate.member(x)
        self._ledger.record(PURPOSE_CANDIDATE)
        if self._cache is not None:
            self._cache[x] = value
        return value


class LanguageCandidateOracle:
    """Candidate handle whose set is the i-th collection language.

    Used by the detector-to-identifier reduction, where each probed
    index doubles as the set under test: its queries route to the
    collection oracle and inherit that handle's purpose and cache.
    """

    __slots__ = ("_oracle", "index")

    def __init__(self, oracle: CollectionOracle, index: int) -> None:
        self._oracle = oracle
        self.index = index

    def member(self, x: int) -> bool:
        return self._oracle.member(self.index, x)
