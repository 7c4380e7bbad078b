import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from colprob import bayes, parse_formula, prob_explain
from colprob.cli import main

from conftest import MODELS, REPO
from _corpus import child_first_chain

EXAMPLES = str(MODELS / "examples.colp")
CHANNEL = str(MODELS / "channel.colp")
DICE = str(MODELS / "dice.colp")

# Inputs nested deeper than Python's recursion limit: R1 takes one step
# per ``~``, and R4 and R5 one per term of a chain over independent
# experiments, here the coins that ``deep_model`` adds. Every pass is a
# loop, so each evaluates.
DEEP = {
    "negations": "~" * 3000 + "H@c",
    "or-chain": " || ".join(f"H@k{i}" for i in range(2000)),
}
DEEP_VALUES = {
    "negations": "1/2 (≈0.5)\n",
    "or-chain": f"{1 - Fraction(1, 2**2000)} (≈1)\n",
}


@pytest.fixture(scope="module")
def deep_model(tmp_path_factory):
    """examples.colp and the 2,000 coins k0..k1999 of DEEP's or-chain."""
    path = tmp_path_factory.mktemp("deep") / "deep.colp"
    coins = "".join(f"experiment k{i} : H, T\n" for i in range(2000))
    path.write_text((MODELS / "examples.colp").read_text() + coins)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_determined_result_and_exit_zero(self, capsys):
        code, out, err = run(capsys, "eval", "--model", DICE, "--query", "4@d | 5@d")
        assert code == 0
        assert out.startswith("1/3 (≈0.3333)")
        assert err == ""

    def test_undetermined_exit_two(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", EXAMPLES, "--query", "H@c1 | T@c2"
        )
        assert code == 2
        assert out.startswith("undetermined:")

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run(capsys, "eval", "--model", DICE, "--query", "4@d |")
        assert code == 1
        assert "error:" in err

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "no-such.colp", "--query", "x")
        assert code == 1
        assert "error:" in err

    def test_null_condition_exit_one(self, capsys):
        code, _, err = run(
            capsys, "eval", "--model", EXAMPLES, "--query", "H@c given (H@c & T@c)"
        )
        assert code == 1
        assert "null event" in err

    def test_explain_prints_rule_tree(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", EXAMPLES, "--query", "6@d1 || 6@d2", "--explain"
        )
        assert code == 0
        assert "11/36" in out
        assert "[R4]" in out and "[R5]" in out

    def test_oracle_cross_check(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", EXAMPLES, "--query", "6@d1 || 6@d2", "--oracle"
        )
        assert code == 0
        assert "oracle: 11/36 (agree)" in out

    def test_mc_output_is_seed_deterministic(self, capsys):
        args = ("eval", "--model", DICE, "--query", "4@d | 5@d",
                "--mc-samples", "2000", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "mc:" in out1 and "seed=5" in out1

    @pytest.mark.parametrize(
        "flags", [("--mc-samples", "0"), ("--mc-samples", "10", "--seed", "-1")]
    )
    def test_bad_monte_carlo_arguments_exit_one(self, capsys, flags):
        code, out, err = run(capsys, "eval", "--model", DICE, "--query", "4@d", *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("query", [
        "(H@c1 | H@c2) && X@zzz", "H@c pgiven ((H@c1 | H@c2) && X@zzz)",
    ])
    def test_oracle_keeps_a_verdict_before_an_unknown_atom(self, capsys, query):
        args = ("eval", "--model", EXAMPLES, "--query", query)
        assert run(capsys, *args)[0] == 2
        code, out, err = run(capsys, *args, "--oracle")
        assert (code, err) == (2, "")
        assert out.endswith("oracle: undetermined (agree)\n")
        code, out, err = run(capsys, *args, "--mc-samples", "10")
        assert (code, err) == (2, "")
        assert out.startswith("undetermined: choice-or") and "mc:" not in out

    def test_mc_skips_an_undetermined_query(self, capsys):
        args = ("eval", "--model", EXAMPLES, "--query", "H@c1 | T@c2")
        plain = run(capsys, *args)
        assert plain[0] == 2
        assert run(capsys, *args, "--mc-samples", "100") == plain
        code, out, err = run(capsys, *args, "--mc-samples", "100", "--json")
        assert (code, err) == (2, "")
        assert out == run(capsys, *args, "--json")[1]
        payload = json.loads(out)
        assert payload["status"] == "undetermined" and payload["mc"] is None

    def test_oracle_on_undetermined_query(self, capsys):
        args = ("eval", "--model", EXAMPLES, "--query", "H@c | H@c1", "--oracle")
        code, out, _ = run(capsys, *args)
        assert code == 2
        assert out.splitlines()[-1] == "oracle: undetermined (agree)"
        code, out, _ = run(capsys, *args, "--json")
        assert code == 2
        assert json.loads(out)["oracle"] == {
            "status": "undetermined", "value": None, "agrees": True,
        }

    def test_oracle_bound_past_the_printable_ints(self, capsys, tmp_path):
        chain = tmp_path / "chain.colp"
        chain.write_text(child_first_chain(15000))
        args = ("eval", "--model", str(chain), "--query", "0@x14999", "--oracle")
        assert run(capsys, *args) == (1, "", (
            "error: state-space bound exceeded: "
            "more than 10^4515 joint assignments (limit 10000000)\n"))

    def test_channel_conditional(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", CHANNEL, "--query", "0@T pgiven 0@R"
        )
        assert code == 0
        assert out.startswith("9/10 (≈0.9)")


class TestEvalJson:
    def test_json_shape_and_stability(self, capsys):
        args = ("eval", "--model", DICE, "--query", "4@d | 5@d", "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical
        payload = json.loads(out1)
        assert list(payload) == [
            "query", "status", "value", "decimal", "reason",
            "derivation", "oracle", "mc",
        ]
        assert payload["status"] == "determined"
        assert payload["value"] == "1/3"
        assert payload["decimal"] == "0.3333"
        assert payload["reason"] is None
        assert payload["derivation"] is None

    def test_json_undetermined(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", EXAMPLES, "--query", "H@c1 | T@c2", "--json"
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "undetermined"
        assert payload["value"] is None
        assert "supports" in payload["reason"]

    def test_json_with_all_optional_fields(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", CHANNEL, "--query", "0@T && 0@R",
            "--json", "--explain", "--oracle", "--mc-samples", "500", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "9/20"
        assert payload["derivation"]["rule"] == "R5"
        assert payload["oracle"] == {
            "status": "determined", "value": "9/20", "agrees": True,
        }
        assert payload["mc"]["samples"] == 500
        assert payload["mc"]["seed"] == 3


# The one-line invocations documented in the README, checked golden-style:
# each runs the evaluator and the enumeration oracle and both must agree.
WORKED_EXAMPLES = [
    ("4@d | 5@d", "1/3"),
    ("(4@d1|5@d1) || (4@d2|5@d2)", "5/9"),
    ("(H@c1 && H@c2) | (H@c1 && T@c2) | (T@c1 && H@c2)", "3/4"),
    ("H@c || 6@d", "7/12"),
    ("6@d1 || 6@d2", "11/36"),
    ("(6@d1 && 5@d2 | 6@d2 && 5@d1) & (6@d1 || 6@d2)", "1/18"),
    ("(6@d1 && 5@d2 | 6@d2 && 5@d1) given (6@d1 || 6@d2)", "2/11"),
]


@pytest.mark.parametrize("query,expected", WORKED_EXAMPLES)
def test_documented_worked_examples(capsys, query, expected):
    code, out, _ = run(
        capsys, "eval", "--model", EXAMPLES, "--query", query, "--oracle"
    )
    assert code == 0
    assert out.startswith(expected + " ")
    assert f"oracle: {expected} (agree)" in out


class TestBayes:
    def test_channel_parallel_posteriors(self, capsys):
        code, out, _ = run(
            capsys, "bayes", "--model", CHANNEL, "--variant", "parallel",
            "--cell", "0@T", "--cell", "1@T", "--evidence", "0@R",
        )
        assert code == 0
        assert "partition: disjoint, exhaustive" in out
        assert "0@T: 9/10" in out
        assert "1@T: 1/10" in out

    def test_channel_additive_rejected(self, capsys):
        code, _, err = run(
            capsys, "bayes", "--model", CHANNEL, "--variant", "additive",
            "--cell", "0@T", "--cell", "1@T", "--evidence", "0@R",
        )
        assert code == 1
        assert "support mismatch" in err

    def test_coin_additive_evidence_equals_cell(self, capsys):
        code, out, _ = run(
            capsys, "bayes", "--model", EXAMPLES, "--variant", "additive",
            "--cell", "H@c", "--cell", "T@c", "--evidence", "H@c",
        )
        assert code == 0
        assert "H@c: 1" in out
        assert "T@c: 0" in out

    def test_violations_listed_before_aborting(self, capsys):
        code, _, err = run(
            capsys, "bayes", "--model", EXAMPLES, "--variant", "additive",
            "--cell", "H@c", "--cell", "H@c", "--evidence", "H@c",
        )
        assert code == 1
        assert "cells 1,2 not disjoint" in err

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "bayes", "--model", CHANNEL, "--variant", "parallel",
            "--cell", "0@T", "--cell", "1@T", "--evidence", "0@R", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["partition"] == {
            "disjoint": True, "exhaustive": True, "total": "1/1",
        }
        assert [p["value"] for p in payload["posteriors"]] == ["9/10", "1/10"]


# Exact `colprob bayes` output, text and JSON: (argv, exit code, stdout, stderr).
BAYES_GOLDEN = [
    (
        ("--model", EXAMPLES, "--variant", "additive", "--cell", "2@d|4@d|6@d",
         "--cell", "1@d|3@d|5@d", "--evidence", "2@d|3@d"),
        0,
        "partition: disjoint, exhaustive\n"
        "2@d | 4@d | 6@d: 1/2 (≈0.5)\n"
        "1@d | 3@d | 5@d: 1/2 (≈0.5)\n",
        '{"variant": "additive", "evidence": "2@d|3@d", "partition": '
        '{"disjoint": true, "exhaustive": true, "total": "1/1"}, "posteriors": '
        '[{"cell": "2@d | 4@d | 6@d", "value": "1/2", "decimal": "0.5"}, '
        '{"cell": "1@d | 3@d | 5@d", "value": "1/2", "decimal": "0.5"}]}\n',
        "",
    ),
    (
        ("--model", CHANNEL, "--variant", "parallel", "--cell", "0@T",
         "--cell", "1@T", "--evidence", "0@R"),
        0,
        "partition: disjoint, exhaustive\n0@T: 9/10 (≈0.9)\n1@T: 1/10 (≈0.1)\n",
        '{"variant": "parallel", "evidence": "0@R", "partition": '
        '{"disjoint": true, "exhaustive": true, "total": "1/1"}, "posteriors": '
        '[{"cell": "0@T", "value": "9/10", "decimal": "0.9"}, '
        '{"cell": "1@T", "value": "1/10", "decimal": "0.1"}]}\n',
        "",
    ),
    (
        ("--model", EXAMPLES, "--variant", "additive", "--cell", "1@d",
         "--cell", "2@d", "--evidence", "1@d|2@d|3@d"),
        0,
        "partition: disjoint, not exhaustive (cells sum to 1/3)\n"
        "1@d: 1/2 (≈0.5)\n2@d: 1/2 (≈0.5)\n",
        '{"variant": "additive", "evidence": "1@d|2@d|3@d", "partition": '
        '{"disjoint": true, "exhaustive": false, "total": "1/3"}, "posteriors": '
        '[{"cell": "1@d", "value": "1/2", "decimal": "0.5"}, '
        '{"cell": "2@d", "value": "1/2", "decimal": "0.5"}]}\n',
        "",
    ),
    (
        ("--model", CHANNEL, "--variant", "parallel", "--cell", "0@T",
         "--cell", "0@T", "--evidence", "0@R"),
        1,
        "",
        "",
        "error: partition cells overlap\n  cells 1,2 not disjoint\n",
    ),
]


@pytest.mark.parametrize("argv,code,text,payload,err", BAYES_GOLDEN)
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_bayes_output_is_pinned(capsys, argv, code, text, payload, err, as_json):
    got = run(capsys, "bayes", *argv, *(("--json",) if as_json else ()))
    assert got == (code, payload if as_json else text, err)


def count_partition_checks(monkeypatch) -> list:
    """Count partition checks: ``check_partition`` and ``posteriors`` both
    run theirs through ``bayes._check``."""
    calls = []
    real = bayes._check

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bayes, "_check", counted)
    return calls


def test_bayes_checks_the_partition_once(capsys, monkeypatch):
    calls = count_partition_checks(monkeypatch)
    code, _, _ = run(capsys, "bayes", *BAYES_GOLDEN[1][0])
    assert code == 0
    assert len(calls) == 1


class TestDeepInput:
    @pytest.mark.parametrize("name", DEEP)
    def test_eval_reports_one_line(self, capsys, deep_model, name):
        assert run(capsys, "eval", "--model", deep_model, "--query", DEEP[name]) == (
            0, DEEP_VALUES[name], "",
        )

    def test_bayes_reports_one_line(self, capsys):
        # The cells are independent of the evidence, whose probability the
        # evaluator then takes by R1, once per ``~``.
        got = run(
            capsys, "bayes", "--model", EXAMPLES, "--variant", "parallel",
            "--cell", "H@c1", "--cell", "T@c1", "--evidence", DEEP["negations"],
        )
        assert got == (0, "partition: disjoint, exhaustive\nH@c1: 1/2 (≈0.5)\n"
                          "T@c1: 1/2 (≈0.5)\n", "")

    def test_bayes_reads_deep_dependent_evidence_off_its_space(self, capsys):
        # Evidence that shares the cells' experiment is conjoined with them
        # as spaces, which are built without recursion.
        got = run(
            capsys, "bayes", "--model", EXAMPLES, "--variant", "parallel",
            "--cell", "H@c", "--cell", "T@c", "--evidence", DEEP["negations"],
        )
        assert got == (0, "partition: disjoint, exhaustive\nH@c: 1 (≈1)\nT@c: 0 (≈0)\n", "")

    @pytest.mark.parametrize("op", ["||", "&&"])
    def test_long_chain_over_one_experiment_evaluates(self, capsys, op):
        # R4 and R5 read a chain whose sides share an experiment off its
        # space, and the support walk keeps its own stack.
        query = f" {op} ".join(["alien"] * 5000)
        assert run(capsys, "eval", "--model", EXAMPLES, "--query", query) == (
            0, "1/1000 (≈0.001)\n", "",
        )

    def test_long_or_chain_over_distinct_coins_evaluates(self, deep_model):
        # R4 on independent sides takes one step per term, as R5 does; run
        # as the command, at Python's default recursion limit.
        n = 900
        query = " || ".join(f"H@k{i}" for i in range(n))
        done = subprocess.run(
            [sys.executable, "-m", "colprob", "eval", "--model", deep_model, "--query", query],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == f"{2 ** n - 1}/{2 ** n} (≈1)\n"

    def test_repl_evaluates_ten_thousand_levels(self, tmp_path):
        # 10,000 ``~`` and chains of 10,000 independent terms, as the
        # command at Python's default recursion limit: one step per level,
        # no frame.
        n = 10_000
        model = tmp_path / "coins.colp"
        model.write_text("".join(f"experiment k{i} : H, T\n" for i in range(n)))
        script = "".join(q + "\n" for q in (
            "~" * n + "H@k0",
            " && ".join(f"H@k{i}" for i in range(n)),
            " || ".join(f"H@k{i}" for i in range(n)),
        ))
        done = subprocess.run(
            [sys.executable, "-m", "colprob", "repl", "--model", str(model)],
            input=script, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (
            f"1/2 (≈0.5)\n1/{2 ** n} (≈0)\n{2 ** n - 1}/{2 ** n} (≈1)\n"
        )

    @pytest.mark.parametrize("flag", ["--explain", "--oracle"])
    def test_deep_undetermined_query_keeps_its_verdict(self, capsys, flag):
        # The explanation's R1 nodes and the oracle's support check are
        # built without recursion, so both report the verdict.
        query = "~" * 3000 + "(H@c | H@c1)"
        code, out, err = run(capsys, "eval", "--model", EXAMPLES, "--query", query, flag)
        reason = "choice-or (|) across distinct supports {c} and {c1}"
        assert (code, err) == (2, "")
        lines = out.splitlines()
        assert lines[0] == f"undetermined: {reason}"
        if flag == "--explain":
            assert len(lines) == 3002
            assert lines[1] == f"[R1] p({query}) = undetermined ({reason})"
            assert lines[-1] == "  " * 3000 + f"[R2] p(H@c | H@c1) = undetermined ({reason})"
        else:
            assert lines[1:] == ["oracle: undetermined (agree)"]

    def test_deep_parentheses_evaluate(self, capsys):
        # Parentheses build no AST node, and the parser keeps its own stack.
        query = "(" * 10_000 + "H@c" + ")" * 10_000
        assert run(capsys, "eval", "--model", EXAMPLES, "--query", query) == (
            0, "1/2 (≈0.5)\n", "",
        )

    def test_long_and_chain_still_evaluates(self, capsys):
        query = " && ".join(["alien"] * 900)
        assert run(capsys, "eval", "--model", EXAMPLES, "--query", query) == (
            0, "1/1000 (≈0.001)\n", "",
        )

    def test_deep_explain_json(self, capsys, tmp_path):
        # 600 independent coins: a derivation 600 nodes deep, whose JSON
        # nests two levels per node.
        n = 600
        model = tmp_path / "coins.colp"
        model.write_text("".join(f"experiment c{i} : H, T\n" for i in range(n)))
        query = " && ".join(f"H@c{i}" for i in range(n))
        code, out, err = run(
            capsys, "eval", "--model", str(model), "--query", query, "--explain", "--json",
        )
        assert (code, err) == (0, "")
        # json.loads would itself recurse too deeply, so read the text.
        value = f'"value": "1/{2 ** n}"'
        assert out.startswith(f'{{"query": "{query}", "status": "determined", {value}, ')
        assert f'"derivation": {{"rule": "R5", "formula": "{query}", {value}, ' in out
        assert out.count('"rule": ') == 2 * n - 1
        assert out.endswith(']}]}, "oracle": null, "mc": null}\n')


    @pytest.mark.parametrize("query", [
        "1@d | 2@d",  # a node with three leaves
        "(1@d | 2@d) | (2@d | 3@d)",  # closes two levels before a sibling
        "~(H@c1 || H@c2) pgiven H@c",
        "H@c1 | T@c2",  # undetermined: one leaf
    ])
    def test_explain_json_is_the_text_json_dumps_gives(self, capsys, examples_model, query):
        code, out, _ = run(
            capsys, "eval", "--model", EXAMPLES, "--query", query, "--explain", "--json",
        )
        assert code in (0, 2)
        assert out == json.dumps(json.loads(out)) + "\n"
        tree = json.loads(out)["derivation"]
        stack = [(tree, prob_explain(parse_formula(query), examples_model)[1])]
        while stack:
            node, d = stack.pop()
            assert (node["rule"], node["formula"]) == (d.rule, d.formula)
            assert len(node["children"]) == len(d.children)
            stack += zip(node["children"], d.children)


class TestCheck:
    def test_valid_model(self, capsys):
        code, out, _ = run(capsys, "check", "--model", CHANNEL)
        assert code == 0
        assert out.startswith("ok")

    def test_invalid_model_lists_issues_with_lines(self, capsys, tmp_path):
        bad = tmp_path / "bad.colp"
        bad.write_text("experiment d : 1=1/6, 2=1/6, 3=1/6, 4=1/6, 5=1/6\n")
        code, _, err = run(capsys, "check", "--model", str(bad))
        assert code == 1
        assert "line 1" in err and "sums to 5/6" in err

    def test_long_chain_declared_child_first(self, capsys, tmp_path):
        chain = tmp_path / "chain.colp"
        chain.write_text(child_first_chain(1500))
        assert run(capsys, "check", "--model", str(chain)) == (0, "ok (1500 experiments)\n", "")


@pytest.mark.parametrize(
    "argv, expected",
    [(["check"], "ok (1 experiments)\n"), (["eval", "--query", "H@c"], "1/2 (≈0.5)\n")],
    ids=["check", "eval"],
)
def test_byte_order_mark_is_accepted(capsys, tmp_path, argv, expected):
    model = tmp_path / "bom.colp"
    model.write_bytes(b"\xef\xbb\xbfexperiment c : H, T\n")
    assert run(capsys, *argv, "--model", str(model)) == (0, expected, "")


# Model files every subcommand must reject with one positioned or plain
# error line: bytes that are not UTF-8, and a rational longer than int()
# converts from text.
BAD_MODEL_FILES = {
    "non-utf8": (b"experiment c : H, T\xff\n", None),
    "5000-digit": (
        b"experiment c : H=" + b"1" * 5000 + b", T=1\n",
        "error: 1:18: rational with too many digits\n",
    ),
}
SUBCOMMANDS = {
    "eval": ["--query", "H@c"],
    "bayes": ["--variant", "additive", "--cell", "H@c", "--cell", "T@c",
              "--evidence", "H@c"],
    "check": [],
    "repl": [],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("bad", BAD_MODEL_FILES)
def test_bad_model_file_gives_one_error_line(tmp_path, command, bad):
    content, expected = BAD_MODEL_FILES[bad]
    model = tmp_path / "bad.colp"
    model.write_bytes(content)
    done = subprocess.run(
        [sys.executable, "-m", "colprob", command, "--model", str(model),
         *SUBCOMMANDS[command]],
        input="", capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
    if expected is not None:
        assert done.stderr == expected


@pytest.mark.parametrize("argv, message", [
    (["eval", "--model", EXAMPLES], "the following arguments are required: --query"),
    (["eval", "--model", EXAMPLES, "--query", "H@c", "--mc-samples", "abc"],
     "argument --mc-samples: invalid int value: 'abc'"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from "),
], ids=["missing-query", "bad-int", "unknown-command"])
def test_a_usage_error_exits_one_with_one_error_line(capsys, argv, message):
    # argparse's message, whose list of choices Python versions quote differently
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["eval", "-h"]])
def test_help_prints_usage_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: colprob")


class TestRepl:
    def repl(self, capsys, monkeypatch, model, script):
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["repl", "--model", model])
        return code, capsys.readouterr().out

    def test_space_and_normal_form(self, capsys, monkeypatch):
        code, out = self.repl(
            capsys, monkeypatch, EXAMPLES, ":space (3@d | 4@d) & 4@d\n:quit\n"
        )
        assert code == 0
        assert "{ {d=4} }" in out
        assert "4@d" in out

    def test_space_of_a_thousand_points(self, capsys, monkeypatch, tmp_path):
        # The set normal form is a 1,023-term | chain, which prints.
        model = tmp_path / "coins.colp"
        model.write_text("".join(f"experiment c{i} : H, T\n" for i in range(10)))
        query = "~(" + " && ".join(f"H@c{i}" for i in range(10)) + ")"
        code, out = self.repl(capsys, monkeypatch, str(model), f":space {query}\n:quit\n")
        assert code == 0
        support, space, snf = out.splitlines()
        assert support == "support: {" + ", ".join(f"c{i}" for i in range(10)) + "}"
        assert space.startswith("space: { {c0=H, c1=H, ") and space.count("}, {") == 1022
        assert snf.startswith("set normal form: H@c0 && H@c1 && ")
        assert snf.endswith(" | " + " && ".join(f"T@c{i}" for i in range(10)))
        assert snf.count(" | ") == 1022 and "error" not in out

    def test_explain_command(self, capsys, monkeypatch):
        code, out = self.repl(
            capsys, monkeypatch, EXAMPLES, ":explain 6@d1 || 6@d2\n:quit\n"
        )
        assert code == 0
        assert "11/36" in out

    def test_bayes_command(self, capsys, monkeypatch):
        code, out = self.repl(
            capsys, monkeypatch, CHANNEL, ":bayes parallel [0@T, 1@T] 0@R\n:quit\n"
        )
        assert code == 0
        assert "0@T: 9/10" in out

    def test_bayes_command_prints_what_the_cli_prints(self, capsys, monkeypatch):
        code, out = self.repl(
            capsys, monkeypatch, CHANNEL, ":bayes parallel [0@T, 1@T] 0@R\n:quit\n"
        )
        assert code == 0
        assert out == (
            "partition: disjoint, exhaustive\n0@T: 9/10 (≈0.9)\n1@T: 1/10 (≈0.1)\n"
        )

    def test_bayes_command_checks_the_partition_once(self, capsys, monkeypatch):
        calls = count_partition_checks(monkeypatch)
        self.repl(capsys, monkeypatch, CHANNEL, ":bayes parallel [0@T, 1@T] 0@R\n")
        assert len(calls) == 1

    def test_bayes_non_exhaustive_line_matches_the_cli(self, capsys, monkeypatch):
        code, out = self.repl(
            capsys, monkeypatch, EXAMPLES, ":bayes additive [1@d, 2@d] 1@d | 2@d | 3@d\n"
        )
        assert code == 0
        assert out == BAYES_GOLDEN[2][2]

    def test_deep_input_does_not_terminate_the_loop(self, capsys, monkeypatch, deep_model):
        script = "".join(q + "\n" for q in DEEP.values()) + "4@d | 5@d\n"
        code, out = self.repl(capsys, monkeypatch, deep_model, script)
        assert code == 0
        assert out == "".join(DEEP_VALUES.values()) + "1/3 (≈0.3333)\n"

    @pytest.mark.parametrize("line, printed", [
        (":bogus", "error: unknown command ':bogus'\n"),
        (":bayes nope [H@c] H@c", "error: :bayes needs a variant: additive or parallel\n"),
        (":bayes parallel H@c, T@c H@c",
         "error: :bayes syntax: :bayes <variant> [cell, cell, ...] <evidence>\n"),
        (":bayes parallel [H@c, T@c]",
         "error: :bayes syntax: :bayes <variant> [cell, cell, ...] <evidence>\n"),
        (":space H@c1 | T@c2",
         "undetermined: choice-or (|) across distinct supports {c1} and {c2}\n"),
        (":space H@c & T@c", "support: {c}\nspace: { }\nset normal form: none (the empty event "
         "space has no set normal form (no choice-or of atoms denotes it))\n"),
    ], ids=["unknown-command", "bayes-variant", "bayes-no-bracket", "bayes-no-evidence",
            "space-undetermined", "space-empty"])
    def test_a_command_prints_its_line_and_reads_on(self, capsys, monkeypatch, line, printed):
        assert self.repl(capsys, monkeypatch, EXAMPLES, line + "\n:quit\n") == (0, printed)

    def test_errors_do_not_terminate_the_loop(self, capsys, monkeypatch):
        script = "4@d |\nH@zzz\n4@d | 5@d\n:quit\n"
        code, out = self.repl(capsys, monkeypatch, EXAMPLES, script)
        assert code == 0
        assert out.count("error:") == 2
        assert "1/3" in out

    def test_plain_query_line(self, capsys, monkeypatch):
        code, out = self.repl(capsys, monkeypatch, EXAMPLES, "H@c1 && H@c2\n:quit\n")
        assert code == 0
        assert "1/4" in out

    def test_eof_exits_cleanly(self, capsys, monkeypatch):
        code, _ = self.repl(capsys, monkeypatch, EXAMPLES, "")
        assert code == 0

    def test_undetermined_reported_inline(self, capsys, monkeypatch):
        code, out = self.repl(capsys, monkeypatch, EXAMPLES, "H@c1 | T@c2\n:quit\n")
        assert code == 0
        assert "undetermined:" in out
