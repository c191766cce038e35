"""Command-line surface: exit codes, output formats, budget plumbing."""

import json
from pathlib import Path

import pytest
from jsonschema import validate

from txbisim import CheckOptions, TxbisimError, cli, equiv
from txbisim.cli import main
from txbisim.encoding import MAX_UNIVERSE
from txbisim.lts import parse_aut
from txbisim.terms import parse_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

STABILITY = str(FIXTURES / "stability.ccspt")
LAWS = str(FIXTURES / "laws.ccspt")
UNGUARDED = str(FIXTURES / "unguarded.ccspt")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parse


def test_parse_reprints_parseable_text(capsys):
    code, out, _ = run(capsys, ["parse", STABILITY])
    assert code == 0
    again = parse_file(out)
    assert set(again.defs) == set(parse_file(Path(STABILITY).read_text()).defs)


def test_parse_json_payload(capsys):
    code, out, _ = run(capsys, ["parse", STABILITY, "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(
        payload,
        {
            "type": "object",
            "required": ["definitions", "specs"],
            "properties": {
                "definitions": {
                    "type": "object",
                    "additionalProperties": {"type": "string"},
                },
                "specs": {"type": "array", "items": {"type": "string"}},
            },
        },
    )
    assert {"P0", "Q0", "R0"} <= set(payload["definitions"])


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, ["parse", "no/such/file.ccspt"])
    assert code == 2
    assert err.startswith("error:")


def test_parse_reprints_a_deep_prefix_chain(capsys, tmp_path):
    # deep enough that one stack frame per prefix, reading or printing,
    # would overflow
    text = "def Deep = " + "a." * 5000 + "0;\n"
    deep = tmp_path / "deep.ccspt"
    deep.write_text(text)
    code, out, _ = run(capsys, ["parse", str(deep)])
    assert code == 0
    assert parse_file(out) == parse_file(text)


# Deep and wide inputs: each argv reads its file, which holds a 1000-link
# chain pair, a 1200-summand sum or a 1500-prefix definition reference.
DEEP_AND_WIDE = {
    "chain.ccspt": f"def P = {'a.' * 1000}0;\ndef Q = {'a.' * 999}tau.a.0;\n",
    "sum.ccspt": f"def P = {' + '.join(f'a{i}.0' for i in range(1200))};\ndef Q = P;\n",
    "ref.ccspt": "def A = b.0;\ndef B = " + "a." * 1500 + "A;\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "chain.ccspt", "P", "Q", "brb"],
        ["lts", "sum.ccspt", "P"],
        ["check", "sum.ccspt", "P", "Q", "strong"],
        ["parse", "ref.ccspt"],
    ],
)
def test_deep_and_wide_inputs_are_decided_without_recursion_errors(
    capsys, tmp_path, argv
):
    path = tmp_path / argv[1]
    path.write_text(DEEP_AND_WIDE[argv[1]])
    code, _, err = run(capsys, [argv[0], str(path), *argv[2:]])
    assert code == 0, err
    assert "RecursionError" not in err


def test_a_wide_parallel_composition_stops_at_the_state_budget(capsys, tmp_path):
    """A 400-operand left-nested ``||`` derives its spine bottom-up, one
    level at a time, so the state budget stops it, not the recursion
    limit."""
    wide = tmp_path / "wide.ccspt"
    wide.write_text("def P = " + " ||{} ".join(["a.0"] * 400) + ";\n")
    code, _, err = run(capsys, ["lts", str(wide), "P", "--max-states", "5"])
    assert code == 2
    assert "state budget of 5 exceeded" in err


def test_deep_nesting_is_a_parse_error(capsys, tmp_path):
    deep = tmp_path / "nested.ccspt"
    deep.write_text("def Deep = " + "(" * 1000 + "a.0" + ")" * 1000 + ";\n")
    code, _, err = run(capsys, ["parse", str(deep)])
    assert code == 2
    assert err.startswith("error: nesting deeper than")
    assert "RecursionError" not in err


def test_unexpected_failure_exits_with_an_error(capsys, monkeypatch):
    # a failure that is no TxbisimError; exit 1 would read as a negative
    # verdict
    def broken(cfg, args):
        raise RuntimeError("boom")

    monkeypatch.setattr("txbisim.cli.cmd_parse", broken)
    code, _, err = run(capsys, ["parse", STABILITY])
    assert code == 2
    assert err.startswith("error:")


def test_unknown_name_lists_defined_ones(capsys):
    code, _, err = run(capsys, ["lts", STABILITY, "Nope"])
    assert code == 2
    assert "'Nope'" in err and "P0" in err


def test_unguarded_recursion_is_an_error(capsys):
    code, _, err = run(capsys, ["lts", UNGUARDED, "Loop"])
    assert code == 2
    assert err.startswith("error:")


# -- lts


def test_lts_aut_round_trips(capsys):
    code, out, _ = run(capsys, ["lts", STABILITY, "P0"])
    assert code == 0
    lts = parse_aut(out)
    assert lts.n_states == 3
    assert lts.n_transitions == 3


def test_lts_json_payload(capsys):
    code, out, _ = run(capsys, ["lts", STABILITY, "P0", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(
        payload,
        {
            "type": "object",
            "required": ["roots", "states", "transitions"],
            "properties": {
                "roots": {"type": "array", "items": {"type": "integer"}},
                "states": {"type": "array"},
                "transitions": {"type": "array"},
            },
        },
    )
    assert len(payload["states"]) == 3


def test_lts_encoded_adds_environment_states(capsys):
    _, raw, _ = run(capsys, ["lts", STABILITY, "P0"])
    code, encoded, _ = run(capsys, ["lts", STABILITY, "P0", "--encoded"])
    assert code == 0
    assert parse_aut(encoded).n_states > parse_aut(raw).n_states


# -- check


@pytest.mark.parametrize(
    "name1, name2, relation, expected",
    [
        ("Branching", "Grown", "brb", 0),
        ("Branching", "Grown", "rbrb", 0),
        ("Branching", "Grown", "strong", 1),
        ("Branching", "Grown", "srbb", 0),
        ("Branching", "Grown", "rsrbb", 0),
        ("DirectA", "LazyA", "brb", 0),
        ("DirectA", "LazyA", "rbrb", 1),
    ],
)
def test_check_exit_codes(capsys, name1, name2, relation, expected):
    code, _, _ = run(capsys, ["check", LAWS, name1, name2, relation])
    assert code == expected


def test_check_env_relations_need_env(capsys):
    code, _, err = run(capsys, ["check", LAWS, "Timer", "DirectA", "brb-x"])
    assert code == 2
    assert "--env" in err


def test_check_env_relations(capsys):
    # under {a} neither side ever times out, so the stability trio agrees
    code, _, _ = run(
        capsys, ["check", STABILITY, "P0", "Q0", "brb-x", "--env", "{a}"]
    )
    assert code == 0
    code, _, _ = run(
        capsys, ["check", STABILITY, "Q0", "R0", "rbrb-x", "--env", "{}"]
    )
    assert code == 0


@pytest.mark.parametrize("relation", ["brb", "rbrb", "strong", "srbb", "rsrbb"])
def test_check_refuses_env_on_a_relation_without_one(capsys, relation):
    # brb-x under {a} calls this pair equivalent; triggered brb does not
    code, out, err = run(
        capsys, ["check", STABILITY, "P0", "Q0", relation, "--env", "{a}"]
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: relation {relation} takes no environment set")
    assert "-x" in err


@pytest.mark.parametrize("relation", ["strong", "srbb", "rsrbb"])
@pytest.mark.parametrize("method", ["both", "direct", "encode"])
def test_check_refuses_method_on_a_relation_with_one_route(
    capsys, relation, method
):
    code, out, err = run(
        capsys, ["check", STABILITY, "P0", "Q0", relation, "--method", method]
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: relation {relation} has one decision route")
    # without the flag the same check runs
    code, out, _ = run(capsys, ["check", STABILITY, "P0", "Q0", relation])
    assert code in (0, 1) and "method: direct" in out


def test_check_json_payload(capsys):
    code, out, _ = run(
        capsys,
        ["check", STABILITY, "Q0", "R0", "brb", "--output", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    validate(
        payload,
        {
            "type": "object",
            "required": ["equivalent", "method", "relation", "left", "right"],
            "properties": {
                "equivalent": {"type": "boolean"},
                "method": {"type": "string"},
                "relation": {"type": "string"},
                "left": {"type": "string"},
                "right": {"type": "string"},
                "states": {"type": "integer"},
            },
        },
    )
    assert payload["equivalent"] is True
    assert payload["method"] == "both"
    assert (payload["left"], payload["right"]) == ("Q0", "R0")


@pytest.mark.parametrize(
    "method, size", [("direct", 47), ("both", 35), ("encode", 35)]
)
def test_check_reports_the_witness_size(capsys, method, size):
    argv = ["check", STABILITY, "Q0", "R0", "brb", "--method", method]
    code, out, _ = run(capsys, argv + ["--output", "json"])
    assert code == 0
    assert json.loads(out)["witness_size"] == size
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert f"witness size: {size}" in out.splitlines()


def test_check_method_flag_lands_in_payload(capsys):
    code, out, _ = run(
        capsys,
        [
            "check", STABILITY, "P0", "Q0", "brb",
            "--method", "direct", "--output", "json",
        ],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["equivalent"] is False
    assert payload["method"] == "direct"


def test_check_text_states_line(capsys):
    code, out, _ = run(capsys, ["check", STABILITY, "P0", "Q0", "brb"])
    assert code == 1
    assert "verdict: not equivalent" in out
    assert any(line.startswith("states explored:") for line in out.splitlines())


# -- modal


def test_modal_satisfied(capsys):
    code, out, _ = run(
        capsys, ["modal", LAWS, "TimedB", "--formula", "<{}><b>T"]
    )
    assert code == 0
    assert "satisfies" in out


def test_modal_unsatisfied(capsys):
    code, out, _ = run(capsys, ["modal", LAWS, "TimedB", "--formula", "<b>T"])
    assert code == 1
    assert "does not satisfy" in out


def test_modal_bad_formula(capsys):
    code, _, err = run(capsys, ["modal", LAWS, "TimedB", "--formula", "<<"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("formula", ["<a>" * 3000 + "T", "~" * 3000 + "T",
                                     "(" * 3000 + "T" + ")" * 3000])
def test_modal_deep_formula_is_a_parse_error(capsys, formula):
    code, _, err = run(capsys, ["modal", LAWS, "TimedB", "--formula", formula])
    assert code == 2
    assert err.startswith("error: nesting deeper than 200 levels (line 1, column")
    assert "RecursionError" not in err


def test_modal_json_payload(capsys):
    code, out, _ = run(
        capsys,
        [
            "modal", LAWS, "TimedB",
            "--formula", "<{}><b>T", "--output", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    validate(
        payload,
        {
            "type": "object",
            "required": [
                "process", "formula", "environment", "holds", "subclass",
            ],
            "properties": {
                "holds": {"type": "boolean"},
                "subclass": {
                    "type": "object",
                    "required": ["Lbc", "Lbcr"],
                },
            },
        },
    )
    assert payload["holds"] is True
    assert payload["environment"] == "triggered"


def test_modal_env_flag(capsys):
    # in environment {b} the timeout may fire, after which b is on offer
    code, out, _ = run(
        capsys,
        [
            "modal", LAWS, "TimedB",
            "--formula", "<eps><b>T", "--env", "{b}", "--output", "json",
        ],
    )
    payload = json.loads(out)
    assert payload["environment"] == ["b"]


# -- distinguish


def test_distinguish_inequivalent_pair(capsys):
    code, out, _ = run(capsys, ["distinguish", STABILITY, "P0", "Q0"])
    assert code == 1
    assert out.splitlines()[0] == "<eps><{}><eps>~<tau>T"


def test_distinguish_rooted_json(capsys):
    code, out, _ = run(
        capsys,
        [
            "distinguish", STABILITY, "P0", "Q0",
            "--rooted", "--output", "json",
        ],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["formula"] == "<{}><eps>~<tau>T"
    assert payload["subclass"] == "Lbcr"
    assert payload["holds_in"] == "P0"
    assert payload["fails_in"] == "Q0"


def test_distinguish_on_a_long_chain_fails_cleanly_or_succeeds(capsys, tmp_path):
    # a formula as deep as the chain: found (exit 1) once synthesis needs no
    # stack frame per link, else one clean error line (exit 2)
    chains = tmp_path / "chains.ccspt"
    chains.write_text(
        "def L = " + "a." * 100 + "a.0;\n" + "def R = " + "a." * 100 + "b.0;\n"
    )
    code, out, err = run(capsys, ["distinguish", str(chains), "L", "R"])
    assert code in (1, 2)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        assert out.splitlines()[1] == "holds in L, fails in R (Lbc)"


def test_distinguish_equivalent_pair(capsys):
    code, out, _ = run(capsys, ["distinguish", STABILITY, "Q0", "R0"])
    assert code == 0
    assert out.strip() == "equivalent"


# -- quotient


def test_quotient_collapses_internal_stutter(capsys):
    code, out, _ = run(capsys, ["quotient", LAWS, "Branching"])
    assert code == 0
    reduced = parse_aut(out)
    _, raw, _ = run(capsys, ["lts", LAWS, "Branching"])
    assert reduced.n_states < parse_aut(raw).n_states


def test_quotient_json_format(capsys):
    code, out, _ = run(
        capsys, ["quotient", LAWS, "Grown", "--format", "json"]
    )
    assert code == 0
    assert "transitions" in json.loads(out)


def test_quotient_rejects_divergence(capsys):
    code, _, err = run(capsys, ["quotient", STABILITY, "Q0"])
    assert code == 2
    assert "strongly guarded" in err


# -- fuzz-axioms


def test_fuzz_axioms_all_expected(capsys):
    code, out, _ = run(
        capsys,
        ["fuzz-axioms", "--count", "12", "--seed", "3", "--output", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    validate(
        payload,
        {
            "type": "object",
            "required": ["seed", "count", "results", "all_expected"],
            "properties": {
                "results": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": [
                            "axiom", "expected_sound", "instances",
                            "failures", "ok",
                        ],
                    },
                },
            },
        },
    )
    assert payload["all_expected"] is True
    assert len(payload["results"]) >= 25


def test_fuzz_axioms_reports_missed_expectation(capsys):
    # one instance at this seed happens to satisfy the unsound law, so the
    # expected counterexample never shows up and the run flags it
    code, out, _ = run(
        capsys,
        ["fuzz-axioms", "--count", "1", "--seed", "2", "--output", "json"],
    )
    assert code == 1
    payload = json.loads(out)
    missed = [r["axiom"] for r in payload["results"] if not r["ok"]]
    assert missed == ["choice-idem-zero"]


def test_fuzz_axioms_text_shows_nonzero_vacuous_counts(capsys):
    argv = ["fuzz-axioms", "--count", "4", "--seed", "2"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    _, js, _ = run(capsys, [*argv, "--output", "json"])
    vacuous = {
        r["axiom"]: r["vacuous"]
        for r in json.loads(js)["results"]
        if r.get("vacuous")
    }
    assert vacuous["reactive-approximation"] > 0
    for line in out.splitlines()[:-1]:
        name = line.split()[0]
        assert ("vacuous" in line) == (name in vacuous)
        if name in vacuous:
            assert f"ok  {vacuous[name]} vacuous" in line


@pytest.mark.parametrize(
    "flags",
    [["--count", "0"], ["--count", "-3"], ["--depth", "-1"], ["--alphabet", ""]],
)
def test_fuzz_axioms_refuses_bad_input(capsys, flags):
    code, out, err = run(capsys, ["fuzz-axioms", *flags])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Error:" not in err


def test_fuzz_axioms_refuses_a_repeated_action(capsys):
    code, out, err = run(capsys, ["fuzz-axioms", "--alphabet", "a,a"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'a' more than once" in err
    assert "IndexError" not in err


# -- shared plumbing


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("TXBISIM_MAX_STATES", "2")
    code, _, err = run(capsys, ["lts", LAWS, "Grown"])
    assert code == 2
    assert "state budget of 2 exceeded" in err


def test_explicit_budget_overrides_env_var(capsys, monkeypatch):
    monkeypatch.setenv("TXBISIM_MAX_STATES", "2")
    code, _, _ = run(capsys, ["lts", LAWS, "Grown", "--max-states", "50"])
    assert code == 0


def test_junk_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("TXBISIM_MAX_STATES", "zebra")
    code, _, err = run(capsys, ["lts", LAWS, "Grown"])
    assert code == 2
    assert "TXBISIM_MAX_STATES" in err


def test_flags_work_on_either_side_of_the_subcommand(capsys):
    _, before, _ = run(capsys, ["--output", "json", "parse", STABILITY])
    _, after, _ = run(capsys, ["parse", STABILITY, "--output", "json"])
    assert before == after


def test_nonpositive_budget_rejected(capsys):
    code, _, err = run(
        capsys, ["check", LAWS, "Timer", "DirectA", "brb", "--max-states", "0"]
    )
    assert code == 2
    assert "state budget must be positive" in err


@pytest.mark.parametrize("budget", [0, -3])
def test_nonpositive_budget_rejected_by_check_options(budget):
    # the library refuses the budget the command line refuses, with the same
    # message, before any state is explored
    with pytest.raises(TxbisimError, match="state budget must be positive"):
        CheckOptions(max_states=budget)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "P", "Q", "brb"],
        ["distinguish", "P", "Q"],
        ["quotient", "P"],
        ["lts", "P", "--encoded"],
    ],
)
def test_more_actions_than_the_ceiling_are_refused_before_exploring(
    capsys, monkeypatch, tmp_path, argv
):
    wide = " + ".join(f"x{k}.0" for k in range(MAX_UNIVERSE + 1))
    path = tmp_path / "wide.ccspt"
    path.write_text(f"def P = {wide};\ndef Q = tau.({wide});\n")
    code, out, _ = run(capsys, ["lts", str(path), "P"])
    assert code == 0 and out.startswith("des (0,")

    def explored(*args, **kwargs):
        raise AssertionError("a state was explored")

    monkeypatch.setattr(equiv, "explore", explored)
    monkeypatch.setattr(cli, "explore", explored)
    code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
    assert code == 2 and out == ""
    assert err.startswith(f"error: universe of {MAX_UNIVERSE + 1} visible actions")
    assert f"at most {MAX_UNIVERSE} actions" in err


def test_argparse_rejects_unknown_relation():
    with pytest.raises(SystemExit) as exc:
        main(["check", LAWS, "Timer", "DirectA", "weak"])
    assert exc.value.code == 2


def test_argparse_requires_a_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
