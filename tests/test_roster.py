"""The standard candidate roster, pinned literally.

``standard_candidates`` picks the superset, subset and outsider members
of every detection grid. The golden corpus runs the roster at two
targets only; this table pins it for every catalog collection at the
targets the standard grids use, in the wire form of each candidate.
"""

from limitlab import catalog, standard_candidates
from limitlab.languages import candidate_to_config

STANDARD_ROSTER = {
    ("multiples", 1): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "multiples", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "multiples", "index": 2}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("multiples", 2): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "multiples", "index": 2}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "multiples", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "multiples", "index": 4}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "multiples", "index": 2}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("multiples", 3): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "multiples", "index": 3}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "multiples", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "multiples", "index": 6}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "multiples", "index": 3}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("multiples", 4): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "multiples", "index": 4}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "multiples", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "multiples", "index": 8}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "multiples", "index": 4}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("multiples", 5): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "multiples", "index": 5}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "multiples", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "multiples", "index": 10}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "multiples", "index": 5}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("multiples", 6): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "multiples", "index": 6}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "multiples", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "multiples", "index": 12}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "multiples", "index": 6}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("multiples", 7): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "multiples", "index": 7}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "multiples", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "multiples", "index": 14}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "multiples", "index": 7}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("multiples", 8): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "multiples", "index": 8}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "multiples", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "multiples", "index": 16}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "multiples", "index": 8}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_prefixes", 1): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 1}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 2}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 1}},
            "elements": [2]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_prefixes", 2): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 2}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 3}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 1}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 2}},
            "elements": [3]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_prefixes", 3): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 3}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 4}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 2}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 3}},
            "elements": [4]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_prefixes", 4): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 4}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 5}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 3}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 4}},
            "elements": [5]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_prefixes", 5): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 5}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 6}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 4}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 5}},
            "elements": [6]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_prefixes", 6): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 6}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 7}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 5}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 6}},
            "elements": [7]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_prefixes", 7): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 7}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 8}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 6}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 7}},
            "elements": [8]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_prefixes", 8): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 8}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 9}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 7}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_prefixes", "index": 8}},
            "elements": [9]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_sets", 1): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 1}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 3}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_sets", "index": 1}},
            "elements": [2]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_sets", 2): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 2}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 3}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_sets", "index": 2}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_sets", 3): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 3}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 7}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 2}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_sets", "index": 3}},
            "elements": [3]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_sets", 4): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 4}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 5}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_sets", "index": 4}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_sets", 5): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 5}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 7}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 4}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_sets", "index": 5}},
            "elements": [2]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_sets", 6): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 6}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 7}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 4}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_sets", "index": 6}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_sets", 7): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 7}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 15}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 6}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_sets", "index": 7}},
            "elements": [4]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_sets", 8): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 8}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_sets", "index": 9}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_sets", "index": 8}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_plus_all", 1): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 2}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_plus_all", 2): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 2}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 1}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 2}},
            "elements": [2]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_plus_all", 3): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 3}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 1}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 3}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_plus_all", 4): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 4}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 3}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 4}},
            "elements": [3]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_plus_all", 5): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 5}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 1}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 5}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_plus_all", 6): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 6}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 5}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 6}},
            "elements": [2]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_plus_all", 7): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 7}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 5}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 7}},
            "elements": [1]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
    ("finite_plus_all", 8): [
        ("g-eq", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 8}}),
        ("g-sup", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 1}}),
        ("g-sub", {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 7}}),
        ("g-plus", {"kind": "finite_union_with", "params": {
            "base": {"kind": "language_of", "params": {"collection": "finite_plus_all", "index": 8}},
            "elements": [4]}}),
        ("g-empty", {"kind": "empty", "params": {}}),
        ("g-all", {"kind": "all_of_domain", "params": {}}),
    ],
}


def test_standard_roster_is_pinned():
    collections = catalog()
    actual = {
        (cid, k): [(tag, candidate_to_config(c)) for tag, c in standard_candidates(collection, k)]
        for cid, collection in collections.items()
        for k in range(1, 9)
    }
    assert actual == STANDARD_ROSTER
