"""limitlab: a deterministic laboratory for in-the-limit learning games.

The package simulates the two games played between a learner and an
adversary over a countable family of languages: guessing an index of
the hidden target from an enumeration of its elements (identification),
and judging whether a fixed candidate set stays inside the target
(hallucination detection), from positive examples alone or from a
labeled enumeration of the whole domain. Reductions run in both
directions: a detector assembled from any identifier, and an identifier
assembled from any detector, with every oracle call accounted for.

Everything is deterministic given a scenario and a seed; transcripts
are reproducible byte for byte.
"""

from .adversary import RNG_ALGORITHM, EnumerationStream, LabeledStream, Strategy
from .detectors import NegativeExampleDetector, ScanDetector
from .harness import (
    AngluinCheckResult,
    GameScenario,
    RoundtripResult,
    RunOutcome,
    StabilizationReport,
    StepRecord,
    Transcript,
    analyze_stabilization,
    check_angluin,
    detection_grid,
    identification_grid,
    replay_certificate,
    report_to_dict,
    run_game,
    run_roundtrip,
    run_sweep,
    scenario_from_config,
    scenario_to_config,
    standard_candidates,
    standard_strategies,
    sweep_to_csv,
    transcript_to_jsonl,
)
from .identifiers import ConsistencyMinIdentifier, Inapplicable, TelltaleIdentifier
from .languages import (
    CandidateOracle,
    CandidateSet,
    Collection,
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
    language_equal,
    language_subset,
    minus_candidate,
    union_candidate,
)
from .reduction import ReductionIdentifier, RoundState

__version__ = "0.1.0"
