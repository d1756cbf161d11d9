import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from limitlab import GameScenario, catalog, run_game, transcript_to_jsonl
from limitlab.cli import _emit_run, main, parse_candidate_flag
from limitlab.harness import TRANSCRIPT_CHUNK_ROWS, transcript_chunks
from limitlab.languages import (
    MAX_CANDIDATE_EDITS,
    ConfigError,
    candidate_from_config,
    language_candidate,
)

CATALOG = catalog()


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# candidate flag grammar


def test_candidate_flag_grammar():
    def flag(text):
        return candidate_from_config(parse_candidate_flag(text), CATALOG, "multiples")

    assert flag("lang:3").member(9)
    g = flag("lang:3+{4,5}")
    assert g.member(4) and g.member(5) and g.member(6)
    g = flag("lang:2-{4,8}")
    assert g.member(2) and not g.member(4)
    g = flag("lang:1+{5}-{2}")
    assert g.member(5) and not g.member(2) and g.member(3)
    assert parse_candidate_flag("lang:1+{5}-{2}") == {
        "kind": "finite_minus",
        "params": {
            "base": {
                "kind": "finite_union_with",
                "params": {
                    "base": {"kind": "language_of", "params": {"index": 1}},
                    "elements": [5],
                },
            },
            "elements": [2],
        },
    }
    assert flag("set:{1,2,3}").member(2)
    assert flag("all").member(123)
    assert not flag("empty").member(1)
    for bad in ("lang:", "lang:2+{", "plain", "set:1,2"):
        with pytest.raises(ConfigError):
            parse_candidate_flag(bad)


# ---------------------------------------------------------------------------
# commands


def test_run_negex_example(tmp_path, capsys):
    code, out, _ = run_cli(
        ["run", "--collection", "multiples", "--target", "2", "--g", "lang:3",
         "--detector", "negex", "--horizon", "50", "--out", str(tmp_path), "--id", "r1"],
        capsys,
    )
    assert code == 0
    assert "stabilized=true" in out and "t_star=3" in out and "final_output=0" in out
    report = json.loads((tmp_path / "r1.report.json").read_text())
    assert report["t_star"] == 3 and report["final_output"] == 0
    transcript = (tmp_path / "r1.transcript.jsonl").read_text()
    assert len(transcript.strip().split("\n")) == 51  # meta + 50 rows


def test_run_alg1_example(tmp_path, capsys):
    code, out, _ = run_cli(
        ["run", "--collection", "finite_prefixes", "--target", "3", "--g", "lang:4",
         "--detector", "alg1", "--identifier", "telltale", "--horizon", "100",
         "--out", str(tmp_path), "--id", "r2"],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "r2.report.json").read_text())
    assert report["stabilized"] is True and report["t_star"] == 4
    assert report["final_output"] == 0


def test_run_empty_candidate_always_clean(tmp_path, capsys):
    code, out, _ = run_cli(
        ["run", "--collection", "finite_sets", "--target", "6", "--g", "empty",
         "--detector", "negex", "--horizon", "30", "--out", str(tmp_path), "--id", "r3"],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "r3.report.json").read_text())
    assert report["final_output"] == 1 and report["t_star"] == 1


def test_run_identification_inline(tmp_path, capsys):
    code, out, _ = run_cli(
        ["run", "--collection", "multiples", "--target", "2",
         "--identifier", "consistency_min", "--horizon", "40",
         "--out", str(tmp_path), "--id", "r4"],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "r4.report.json").read_text())
    assert report["correct_at_horizon"] is False and report["final_output"] == 1


def test_run_from_scenario_file(tmp_path, capsys):
    config = {
        "scenario_id": "filed",
        "collection": "multiples",
        "target_index": 2,
        "candidate": {"kind": "language_of", "params": {"index": 4}},
        "adversary": {"strategy": "canonical", "seed": 0, "params": {}},
        "algorithm": {"name": "negex", "params": {}},
        "horizon": 20,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path)], capsys)
    assert code == 0 and "scenario filed" in out


def test_run_validation_errors(tmp_path, capsys):
    code, _, err = run_cli(
        ["run", "--collection", "mystery", "--target", "2", "--g", "all",
         "--detector", "negex", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2 and "unknown collection" in err
    code, _, err = run_cli(["run", "--out", str(tmp_path)], capsys)
    assert code == 2
    code, _, _ = run_cli(["run", "--bogus-flag"], capsys)
    assert code == 2


@pytest.mark.parametrize("edits", [MAX_CANDIDATE_EDITS, MAX_CANDIDATE_EDITS + 1])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_nested_edits_past_the_limit_exit_2(tmp_path, capsys, source, edits):
    flag = "lang:3" + "+{5}-{6}" * (edits // 2) + "+{7}" * (edits % 2)
    argv = ["run", "--collection", "multiples", "--target", "2", "--detector", "negex",
            "--g", flag, "--horizon", "8", "--out", str(tmp_path), "--id", "deep"]
    if source == "file":
        config = {"scenario_id": "deep", "collection": "multiples", "target_index": 2,
                  "candidate": parse_candidate_flag(flag), "algorithm": "negex", "horizon": 8}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        argv = ["run", "--scenario", str(path), "--out", str(tmp_path)]
    code, _, err = run_cli(argv, capsys)
    if edits <= MAX_CANDIDATE_EDITS:
        assert code == 0, err
        node = json.loads((tmp_path / "deep.report.json").read_text())["scenario"]["candidate"]
        for _ in range(edits):
            node = node["params"]["base"]
        assert node == {"kind": "language_of", "params": {"collection": "multiples", "index": 3}}
    else:
        assert code == 2, err
        assert err == f"error: candidate: more than {MAX_CANDIDATE_EDITS} nested edits\n"


def test_run_inapplicable_exit_code(tmp_path, capsys):
    code, out, _ = run_cli(
        ["run", "--collection", "finite_plus_all", "--target", "2",
         "--identifier", "telltale", "--horizon", "10", "--out", str(tmp_path), "--id", "r5"],
        capsys,
    )
    assert code == 3 and "inapplicable" in out


def test_roundtrip_command(tmp_path, capsys):
    code, out, _ = run_cli(
        ["roundtrip", "--collection", "finite_prefixes", "--target", "2",
         "--horizon", "60", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0 and "agreement=true" in out
    payload = json.loads((tmp_path / "roundtrip-finite_prefixes-k2.json").read_text())
    assert payload["agreement"] is True
    assert payload["legs"]["reduced_identifier"]["final_output"] == 2


def test_roundtrip_refusal(tmp_path, capsys):
    code, _, err = run_cli(
        ["roundtrip", "--collection", "finite_plus_all", "--target", "2",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 3 and "tell-tale" in err


def test_check_angluin_command(tmp_path, capsys):
    code, out, _ = run_cli(
        ["check-angluin", "--collection", "finite_plus_all", "--index", "1",
         "--telltale", "1,2,3", "--bounds", "64,80", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0 and "violation_certified" in out
    payload = json.loads((tmp_path / "angluin-finite_plus_all-i1.json").read_text())
    assert payload["verdict"] == "violation_certified" and payload["replays"] is True
    assert payload["bounds"] == {"index": 64, "element": 80}

    code, out, _ = run_cli(
        ["check-angluin", "--collection", "finite_prefixes", "--index", "5",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0 and "satisfied_exactly" in out

    code, _, err = run_cli(
        ["check-angluin", "--collection", "finite_plus_all", "--index", "1",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2 and "tell-tale" in err


def test_sweep_command(tmp_path, capsys):
    scenarios = [
        {
            "scenario_id": f"s{k}",
            "collection": "multiples",
            "target_index": 2,
            "candidate": {"kind": "language_of", "params": {"index": k}},
            "algorithm": "negex",
            "horizon": 20,
        }
        for k in (2, 3, 4)
    ]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps({"scenarios": scenarios}))
    code, out, _ = run_cli(["sweep", "--scenarios", str(path), "--out", str(tmp_path)], capsys)
    assert code == 0 and "3 scenarios" in out
    summary = (tmp_path / "summary.csv").read_text()
    header, *rows = summary.strip().split("\n")
    assert header.startswith("scenario_id,algorithm,stabilized,t_star,correct_at_horizon")
    assert len(rows) == 3
    # rerun is byte-identical
    run_cli(["sweep", "--scenarios", str(path), "--out", str(tmp_path)], capsys)
    assert (tmp_path / "summary.csv").read_text() == summary


def test_catalog_command(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    for cid in CATALOG:
        assert cid in out


def test_outputs_reproducible_byte_for_byte(tmp_path, capsys):
    args = ["run", "--collection", "multiples", "--target", "3", "--g", "lang:6",
            "--detector", "alg1", "--identifier", "telltale",
            "--strategy", "block_shuffle", "--seed", "9", "--horizon", "80",
            "--id", "same"]
    run_cli(args + ["--out", str(tmp_path / "a")], capsys)
    run_cli(args + ["--out", str(tmp_path / "b")], capsys)
    for name in ("same.transcript.jsonl", "same.report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "limitlab", "catalog"], capture_output=True, text=True
    )
    assert result.returncode == 0 and "multiples" in result.stdout


# ---------------------------------------------------------------------------
# transcripts streamed to disk

MULTIPLES_3 = language_candidate(CATALOG["multiples"], 3)


@pytest.mark.parametrize(
    "scenario",
    [
        # more than two chunks of step records
        GameScenario("negex", "multiples", 2, "negex", candidate=MULTIPLES_3,
                     horizon=2 * TRANSCRIPT_CHUNK_ROWS + 7),
        GameScenario("alg1", "multiples", 2, "alg1", candidate=MULTIPLES_3,
                     identifier="telltale", horizon=300),
        # exactly one chunk
        GameScenario("telltale", "finite_prefixes", 3, "telltale", horizon=TRANSCRIPT_CHUNK_ROWS),
        GameScenario("alg2", "multiples", 4, "alg2", identifier="telltale", horizon=80),
        GameScenario("alg2-fresh", "finite_sets", 5, "alg2", identifier="consistency_min",
                     fresh_copies=True, horizon=12),
        # every index pinned to 0 by an inapplicable detector
        GameScenario("alg2-inapplicable", "finite_plus_all", 3, "alg2",
                     identifier="telltale", horizon=5),
        # no completed step: the meta record alone
        GameScenario("telltale-inapplicable", "finite_plus_all", 3, "telltale", horizon=5),
    ],
    ids=lambda scenario: scenario.scenario_id,
)
def test_written_transcript_equals_transcript_to_jsonl(tmp_path, capsys, scenario):
    outcome = run_game(scenario, CATALOG)
    _emit_run(outcome, tmp_path)
    written = (tmp_path / f"{scenario.scenario_id}.transcript.jsonl").read_bytes()
    assert written == transcript_to_jsonl(outcome).encode()


def written_peak(outcome, tmp_path):
    """tracemalloc's peak while ``_emit_run`` writes ``outcome``, and its largest chunk."""
    chunk = max(map(len, transcript_chunks(outcome)))
    tracemalloc.start()
    try:
        _emit_run(outcome, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / f"{outcome.scenario.scenario_id}.transcript.jsonl").stat().st_size
    assert size > 50 * chunk
    return peak, chunk


LONG_SCENARIOS = [
    GameScenario("long-negex", "multiples", 2, "negex", candidate=MULTIPLES_3, horizon=10**5),
    GameScenario("long-telltale", "multiples", 2, "telltale", horizon=10**5),
]


def test_writing_a_transcript_holds_one_chunk_at_a_time(tmp_path, capsys):
    for scenario in LONG_SCENARIOS:
        peak, chunk = written_peak(run_game(scenario, CATALOG), tmp_path)
        # the chunk, its encoded bytes and its records' fields as one tuple
        assert peak < 3 * chunk, (scenario.scenario_id, peak, chunk)


def test_heads_that_never_repeat_are_held_one_chunk_at_a_time(tmp_path, capsys):
    outcome = run_game(LONG_SCENARIOS[1], CATALOG)
    # a new consistency count and guess at every step, so every record has a head of its own
    horizon = len(outcome.transcript.output)
    transcript = replace(outcome.transcript, fresh_consistency=list(range(horizon)),
                         output=list(range(horizon, 2 * horizon)))
    peak, chunk = written_peak(replace(outcome, transcript=transcript), tmp_path)
    # a head table kept for the whole run held about 190 chunks here
    assert peak < 4 * chunk, (peak, chunk)


def test_unwritable_transcript_exits_2(tmp_path, capsys):
    (tmp_path / "blocked.transcript.jsonl").mkdir()
    code, _, err = run_cli(
        ["run", "--collection", "multiples", "--target", "2", "--identifier", "telltale",
         "--horizon", "5", "--id", "blocked", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2 and err.startswith("error:") and "not writable" in err, err


# ---------------------------------------------------------------------------
# malformed input: validation errors exit 2, never 4

BASE_SCENARIO = {
    "scenario_id": "base",
    "collection": "multiples",
    "target_index": 2,
    "candidate": {"kind": "language_of", "params": {"index": 4}},
    "adversary": {"strategy": "block_shuffle", "seed": 1, "params": {"block_growth": 2}},
    "algorithm": {"name": "alg1", "params": {"identifier": "telltale"}},
    "horizon": 12,
}


def with_field(path, value, base=BASE_SCENARIO):
    """A deep copy of base with the field at the key path set to value."""
    config = json.loads(json.dumps(base))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def test_scenario_id_cannot_leave_the_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(with_field(("scenario_id",), "../escaped")))
    code, _, err = run_cli(["run", "--scenario", str(path), "--out", str(out)], capsys)
    assert code == 2 and "scenario_id" in err
    code, _, err = run_cli(
        ["run", "--collection", "multiples", "--target", "2", "--identifier", "telltale",
         "--horizon", "5", "--id", "../x", "--out", str(out)],
        capsys,
    )
    assert code == 2 and "scenario_id" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json"]


BAD_FIELDS = [
    (("scenario_id",), None),
    (("algorithm",), ["x"]),
    (("algorithm",), 7),
    (("adversary",), "canonical"),
    (("algorithm", "params"), ["telltale"]),
    (("adversary", "params"), "x"),
    (("candidate", "params"), [4]),
    (("candidate", "params", "collection"), ["multiples"]),
    (("collection",), ["multiples"]),
    (("horizon",), "abc"),
    (("horizon",), 2.5),
    (("horizon",), True),
    (("adversary", "seed"), "x"),
    (("adversary", "seed"), -3),  # random.Random(-3) would replay seed 3
    (("adversary", "params", "block_growth"), "2"),
    (("adversary", "params", "block_growth"), 1.5),
    (("adversary", "params", "block_growth"), 13),  # the horizon is 12
    (("algorithm", "params", "fresh_copies"), "false"),
    (("algorithm", "params", "fresh_copies"), 0),
    (("adversary",), {"strategy": "delay_pattern", "params": {"period": "x"}}),
    (("adversary",), {"strategy": "repeat_heavy", "params": {"repeat_prob": ["1", 2]}}),
    (("adversary",), {"strategy": "repeat_heavy", "params": {"repeat_prob": "1/2"}}),
    (("candidate",), {"kind": "explicit_finite", "params": {"elements": ["a", 1]}}),
    (("candidate",), {"kind": "explicit_finite", "params": {"elements": [[1]]}}),
    (("candidate",), {"kind": "explicit_finite", "params": {"elements": [{}, 2]}}),
    # keys the object does not take
    (("adversary",), {"strategy": "delay_pattern", "params": {"perod": 3}}),
    (("horizn",), 5),
    (("candidate",), {"kind": "all_of_domain", "params": {"elements": [1]}}),
    (("candidate", "kind"), []),
]


@pytest.mark.parametrize(
    "argv",
    [["run", "--scenario", "{file}"], ["sweep", "--scenarios", "{file}"]],
    ids=["run", "sweep"],
)
@pytest.mark.parametrize(
    "text",
    [
        pytest.param(json.dumps(with_field(path, value)), id=f"{'.'.join(path)}={value!r}")
        for path, value in BAD_FIELDS
    ]
    + ["{not json", "", "\xff", pytest.param("[" * 100_000, id="deep-nesting")],
)
def test_malformed_scenario_files_exit_2(tmp_path, capsys, argv, text):
    path = tmp_path / "input.json"
    if argv[0] == "sweep" and text.startswith("{\""):
        text = '{"scenarios": [' + text + "]}"
    path.write_bytes(text.encode("latin-1"))  # "\xff" is not UTF-8
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    code, _, err = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 2 and err.startswith("error:"), err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "{tmp}/missing.json"],
        ["check-angluin", "--collection", "multiples", "--index", "2", "--telltale", "2,x"],
        ["check-angluin", "--collection", "multiples", "--index", "2", "--telltale", "0"],
        ["check-angluin", "--collection", "finite_plus_all", "--index", "1",
         "--telltale", "20000"],
        ["check-angluin", "--collection", "finite_plus_all", "--index", "1",
         "--telltale", "1000000"],
        ["run", "--collection", "multiples", "--target", "2", "--identifier", "telltale",
         "--strategy", "repeat_heavy", "--repeat-prob", "1/x"],
        ["run", "--collection", "multiples", "--target", "2", "--identifier", "telltale",
         "--strategy", "block_shuffle", "--seed", "-3", "--horizon", "5"],
        ["run", "--collection", "finite_prefixes", "--target", "9" * 20,
         "--identifier", "telltale", "--horizon", "5"],
        ["run", "--collection", "multiples", "--target", "2", "--detector", "negex"],
        ["run", "--collection", "multiples", "--target", "2", "--identifier", "telltale",
         "--g", "lang:3"],
        ["run", "--collection", "multiples", "--target", "2", "--identifier", "telltale",
         "--g", ""],
        ["run", "--collection", "multiples", "--target", "2"],
    ],
)
def test_malformed_flags_exit_2(tmp_path, capsys, argv):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, _, err = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 2 and err.startswith("error:"), err


# alg1 takes identifier, alg2 identifier and a boolean fresh_copies, the
# others nothing. BASE_SCENARIO is alg1, so its fresh_copies rows in
# BAD_FIELDS stop at that rule; the alg2 rows here reach the type check.
ALG2_SCENARIO = dict(BASE_SCENARIO, candidate=None,
                     algorithm={"name": "alg2", "params": {"identifier": "telltale"}})


@pytest.mark.parametrize(
    "argv, scenario, param",
    [
        (["run", "--collection", "multiples", "--target", "2", "--detector", "negex",
          "--identifier", "telltale", "--g", "lang:3", "--horizon", "5"], None, "identifier"),
        (["run", "--scenario", "{file}"],
         with_field(("algorithm", "params", "fresh_copies"), True), "fresh_copies"),
        (["run", "--scenario", "{file}"],
         dict(BASE_SCENARIO, candidate=None,
              algorithm={"name": "telltale", "params": {"identifier": "consistency_min"}}),
         "identifier"),
        (["run", "--scenario", "{file}"],
         with_field(("algorithm", "params", "fresh_copies"), "false", ALG2_SCENARIO),
         "fresh_copies"),
        (["run", "--scenario", "{file}"],
         with_field(("algorithm", "params", "fresh_copies"), 0, ALG2_SCENARIO), "fresh_copies"),
    ],
    ids=["negex-identifier-flag", "alg1-fresh_copies", "telltale-identifier",
         "alg2-fresh_copies-string", "alg2-fresh_copies-int"],
)
def test_params_the_algorithm_does_not_take_exit_2(tmp_path, capsys, argv, scenario, param):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    code, _, err = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 2 and err.startswith("error:") and param in err, err
    assert not (tmp_path / "out").exists()


def test_out_that_is_a_file_exits_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    scenarios = tmp_path / "scenarios.json"
    scenarios.write_text(json.dumps({"scenarios": [BASE_SCENARIO]}))
    commands = [
        ["run", "--collection", "multiples", "--target", "2", "--identifier", "telltale",
         "--horizon", "5"],
        ["sweep", "--scenarios", str(scenarios)],
        ["roundtrip", "--collection", "finite_prefixes", "--target", "2", "--horizon", "10"],
        ["check-angluin", "--collection", "finite_prefixes", "--index", "2"],
    ]
    for argv in commands:
        for out in (afile, afile / "sub"):
            code, _, err = run_cli(argv + ["--out", str(out)], capsys)
            assert code == 2 and err.startswith("error:"), (argv, out, err)


def _field_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


FIELD_PATHS = list(_field_paths(BASE_SCENARIO))
SMALL_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=40)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(FIELD_PATHS), value=SMALL_JSON)
def test_scenario_field_fuzz_exit_codes(tmp_path_factory, path, value):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "scenario.json").write_text(json.dumps(with_field(path, value)))
    code = main(["run", "--scenario", str(tmp / "scenario.json"), "--out", str(tmp / "out")])
    assert code in (0, 2, 3)


# ---------------------------------------------------------------------------
# argv fuzz: small flag values, one in eight malformed, horizons of at most 40

MALFORMED = st.sampled_from(["", "x", "1.5", "-1", "0", "{1}", "1/0", "1,2", "9" * 20])
SMALL = st.integers(min_value=1, max_value=12).map(str)
ELEMENTS = st.lists(SMALL, max_size=3).map(",".join)
CANDIDATE_FLAG = st.one_of(
    st.sampled_from(["all", "empty"]),
    SMALL.map("lang:%s".__mod__),
    st.tuples(SMALL, st.sampled_from("+-"), ELEMENTS).map("lang:%s%s{%s}".__mod__),
    ELEMENTS.map("set:{%s}".__mod__),
)
STRATEGY_FLAGS = {
    "--strategy": st.sampled_from(["canonical", "repeat_heavy", "block_shuffle", "delay_pattern"]),
    "--seed": st.integers(min_value=0, max_value=5).map(str),
    "--repeat-prob": st.sampled_from(["1/2", "3/4", "0/1"]),
    "--block-growth": st.integers(min_value=1, max_value=4).map(str),
    "--period": st.integers(min_value=1, max_value=4).map(str),
}
COLLECTION_FLAG = st.sampled_from(sorted(CATALOG))
TARGET_FLAGS = {"--collection": COLLECTION_FLAG, "--target": SMALL}
IDENTIFIER_FLAG = st.sampled_from(["telltale", "consistency_min"])
# subcommand -> (choices of required flags, optional flags); a None value is a bare flag
COMMANDS = {
    "run": (
        [
            {**TARGET_FLAGS, "--detector": st.just("negex"), "--g": CANDIDATE_FLAG},
            {**TARGET_FLAGS, "--detector": st.sampled_from(["alg1", "alg2"]),
             "--identifier": IDENTIFIER_FLAG, "--g": CANDIDATE_FLAG},
            {**TARGET_FLAGS, "--identifier": IDENTIFIER_FLAG},
        ],
        {**STRATEGY_FLAGS, "--id": st.sampled_from(["a", "b-1", "../x"])},
    ),
    "roundtrip": ([TARGET_FLAGS], {**STRATEGY_FLAGS, "--fresh-copies": st.none()}),
    "check-angluin": (
        [{"--collection": COLLECTION_FLAG, "--index": SMALL}],
        {
            "--telltale": ELEMENTS,
            "--bounds": st.tuples(st.integers(1, 40), st.integers(1, 40)).map("%d,%d".__mod__),
        },
    ),
    "catalog": ([{}], {"--bogus": st.none()}),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    choices, optional = COMMANDS[command]
    required = draw(st.sampled_from(choices))
    flags = {**required, **optional}
    argv = [command]
    for flag in [*required, *draw(st.lists(st.sampled_from(sorted(optional)), unique=True))]:
        value = draw(MALFORMED if draw(st.integers(0, 7)) == 0 else flags[flag])
        argv.append(flag if value is None else f"{flag}={value}")
    if command in ("run", "roundtrip"):
        argv.append(f"--horizon={draw(st.integers(min_value=-1, max_value=40))}")
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=cli_argv())
def test_cli_argv_fuzz_exit_codes(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        out = tmp / "out"
        os.chdir(tmp)  # a write to a relative default path would land here
        try:
            code = main(argv + (["--out", str(out)] if argv[0] != "catalog" else []))
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2, 3) and (code != 1 or argv[0] == "roundtrip"), argv
        assert all(out in (path, *path.parents) for path in tmp.rglob("*")), argv
