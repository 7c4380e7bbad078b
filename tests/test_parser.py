import ast
import random
import re
import string
from fractions import Fraction

import pytest

from colprob import (
    AtomNode,
    ChoiceAnd,
    ChoiceOr,
    ExperimentDecl,
    GivenAdd,
    GivenPar,
    ModelError,
    Not,
    ParAnd,
    ParOr,
    ParseError,
    format_formula,
    parse_formula,
    parse_model,
)
from _corpus import random_ast

CHANNEL = (
    "experiment T : 0, 1\nexperiment R : 0, 1 depends T\n"
    "cpt 0 | T=0 = 9/10\ncpt 1 | T=0 = 1/10\ncpt 0 | T=1 = 1/10\ncpt 1 | T=1 = 9/10\n"
)


class TestParseFormula:
    def test_choice_or_of_dice_outcomes(self):
        assert parse_formula("4@d | 5@d") == ChoiceOr(AtomNode("d", "4"), AtomNode("d", "5"))

    def test_single_negation(self):
        assert parse_formula("~(H@c)") == Not(AtomNode("c", "H"))

    def test_parallel_and_binds_tighter_than_choice_or(self):
        got = parse_formula("6@d1 && 5@d2 | 6@d2 && 5@d1")
        want = ChoiceOr(
            ParAnd(AtomNode("d1", "6"), AtomNode("d2", "5")),
            ParAnd(AtomNode("d2", "6"), AtomNode("d1", "5")),
        )
        assert got == want

    def test_and_or_precedence(self):
        got = parse_formula("H@c & T@c | H@c")
        assert got == ChoiceOr(ChoiceAnd(AtomNode("c", "H"), AtomNode("c", "T")),
                               AtomNode("c", "H"))

    def test_left_associativity(self):
        got = parse_formula("1@d | 2@d | 3@d")
        assert got == ChoiceOr(ChoiceOr(AtomNode("d", "1"), AtomNode("d", "2")),
                               AtomNode("d", "3"))

    def test_bare_lowercase_is_predicate_sugar(self):
        assert parse_formula("alien") == AtomNode("alien", "true")
        assert parse_formula("alien") == parse_formula("true@alien")

    def test_conditionals_at_root(self):
        assert parse_formula("H@c given T@c") == GivenAdd(AtomNode("c", "H"), AtomNode("c", "T"))
        assert parse_formula("0@T pgiven 0@R") == GivenPar(AtomNode("T", "0"), AtomNode("R", "0"))

    def test_given_does_not_chain(self):
        with pytest.raises(ParseError, match="non-associative"):
            parse_formula("H@c given T@c given H@c")

    def test_parenthesized_conditional_nests(self):
        got = parse_formula("(H@c given T@c) given H@c")
        assert got == GivenAdd(GivenAdd(AtomNode("c", "H"), AtomNode("c", "T")),
                               AtomNode("c", "H"))

    def test_whitespace_and_comments_ignored(self):
        assert parse_formula(" 4@d|5@d  # tail comment") == parse_formula("4@d | 5@d")
        # a character that starts no token is no error inside a comment
        assert parse_formula("4@d # $é\n| 5@d") == parse_formula("4@d | 5@d")

    def test_bare_uppercase_is_an_error(self):
        with pytest.raises(ParseError) as info:
            parse_formula("H")
        assert info.value.expected == "'@'"

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError, match="unexpected end of input"):
            parse_formula("(4@d | 5@d")

    @pytest.mark.parametrize(
        "text, position, message, expected",
        [
            ("4@d | | 5@d", (1, 7), "unexpected '|'", "an atom, '~', or '('"),
            ("4@d |\n | 5@d", (2, 2), "unexpected '|'", "an atom, '~', or '('"),
            ("# note\n4@d $ 5@d", (2, 5), "unknown token '$'", None),
            ("4@d |\r\n| 5@d", (2, 1), "unexpected '|'", "an atom, '~', or '('"),
            ("(4@d | 5@d\n", (2, 1), "unexpected end of input", "')'"),
            (
                "H@c given T@c\n  given H@c",
                (2, 3),
                "conditionals are non-associative; parenthesize the inner one",
                None,
            ),
            (
                "4@d |\n\n  H",
                (3, 3),
                "'H' is not a predicate name; outcomes must be tagged",
                "'@'",
            ),
            ("4@d 5@d", (1, 5), "unexpected '5' after complete formula", None),
            ("H@", (1, 3), "unexpected end of input", "an experiment name"),
            ("H@c)", (1, 4), "unexpected ')' after complete formula", None),
            ("(H@c given T@c given H@c)", (1, 16), "unexpected 'given'", "')'"),
            ("@c", (1, 1), "unexpected '@'", "an atom, '~', or '('"),
            ("~", (1, 2), "unexpected end of input", "an atom, '~', or '('"),
            ("((H@c)", (1, 7), "unexpected end of input", "')'"),
            ("# $\n4@d é 5@d", (2, 5), "unknown token 'é'", None),
            ("4@d\x0b| 5@d", (1, 4), "unknown token '\\x0b'", None),
            ("5@7", (1, 3), "unexpected '7'", "an experiment name"),
            ("H@given", (1, 3), "unexpected 'given'", "an experiment name"),
            ("(H@c # open\n", (2, 1), "unexpected end of input", "')'"),
            ("H@c pgiven", (1, 11), "unexpected end of input", "an atom, '~', or '('"),
        ],
        ids=[
            "same-line",
            "next-line",
            "after-comment",
            "crlf",
            "eof-after-newline",
            "chained-given",
            "blank-line",
            "trailing-token",
            "missing-experiment",
            "stray-close",
            "chained-given-in-group",
            "tag-without-outcome",
            "negation-at-eof",
            "unclosed-outer-group",
            "unknown-after-comment-with-stray-character",
            "vertical-tab",
            "integer-experiment",
            "keyword-experiment",
            "eof-after-comment",
            "eof-after-keyword",
        ],
    )
    def test_error_position_points_into_source(self, text, position, message, expected):
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        err = info.value
        assert (err.line, err.column, err.message, err.expected) == (
            *position,
            message,
            expected,
        )

    def test_unknown_character(self):
        with pytest.raises(ParseError, match="unknown token"):
            parse_formula("4@d $ 5@d")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_formula("")


class TestFormatFormula:
    def test_direct_rendering(self):
        assert format_formula(ChoiceOr(AtomNode("d", "4"), AtomNode("d", "5"))) == "4@d | 5@d"

    def test_forced_parentheses_under_not(self):
        f = Not(ChoiceOr(AtomNode("d", "4"), AtomNode("d", "5")))
        assert format_formula(f) == "~(4@d | 5@d)"

    def test_parallel_and(self):
        assert format_formula(ParAnd(AtomNode("c1", "H"), AtomNode("c2", "H"))) == "H@c1 && H@c2"

    def test_right_nested_or_keeps_parentheses(self):
        f = ChoiceOr(AtomNode("d", "1"), ChoiceOr(AtomNode("d", "2"), AtomNode("d", "3")))
        assert format_formula(f) == "1@d | (2@d | 3@d)"

    def test_five_thousand_term_chains(self):
        # Deeper than Python's recursion limit: the printer keeps its own stack.
        atoms = [AtomNode(f"c{i}", "H") for i in range(5000)]
        left = atoms[0]
        for a in atoms[1:]:
            left = ChoiceOr(left, a)
        assert format_formula(left) == " | ".join(f"H@c{i}" for i in range(5000))
        right = atoms[-1]
        for a in reversed(atoms[:-1]):
            right = ParAnd(a, Not(right))
        assert format_formula(right) == (
            " && ~(".join(f"H@c{i}" for i in range(4999)) + " && ~H@c4999" + ")" * 4998
        )


def test_round_trip_on_random_asts():
    rng = random.Random(424242)
    for _ in range(1000):
        ast = random_ast(rng, depth=6)
        assert parse_formula(format_formula(ast)) == ast


def test_parsing_is_total_on_fuzzed_input():
    rng = random.Random(7)
    alphabet = string.ascii_letters + string.digits + "@~&|() #pgiven\t\n\r/=_$é"
    checked = {"token": 0, "end": 0}
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        try:
            parse_formula(text)
        except ParseError as err:
            # The position names an existing line and at most one past its end.
            lines = text.split("\n")
            assert 1 <= err.line <= len(lines)
            assert 1 <= err.column <= len(lines[err.line - 1]) + 1
            # A token the message names starts there; at the end of input,
            # only whitespace and comments follow.
            offset = sum(len(line) + 1 for line in lines[:err.line - 1]) + err.column - 1
            named = re.match(r"(?:unexpected |unknown token )?('[^']*')", err.message)
            if named:
                assert text.startswith(ast.literal_eval(named[1]), offset), (text, err)
                checked["token"] += 1
            elif "end of input" in err.message:
                assert re.fullmatch(r"(?:[ \t\r\n]+|#[^\n]*)*", text[offset:]), (text, err)
                checked["end"] += 1
    assert min(checked.values()) > 100


@pytest.mark.parametrize("depth", [200, 10_000])
def test_deep_parentheses_parse(depth):
    text = "(" * depth + "H@c" + ")" * depth
    assert format_formula(parse_formula(text)) == "H@c"


def test_redundant_parentheses_give_the_same_ast():
    rng = random.Random(1986)

    def wrap(m):
        k = rng.randint(0, 3)
        return "(" * k + m[0] + ")" * k

    for _ in range(200):
        ast = random_ast(rng, depth=6)
        text = re.sub(r"\w+@\w+", wrap, format_formula(ast))
        k = rng.randint(0, 2000)
        assert parse_formula("(" * k + text + ")" * k) == ast


class TestParseModel:
    def test_uniform_default(self):
        model = parse_model("experiment c : H, T")
        decl = model.decl("c")
        assert decl.outcomes == ("H", "T")
        assert decl.cpt[()] == {"H": Fraction(1, 2), "T": Fraction(1, 2)}

    def test_explicit_uniform_dice(self):
        model = parse_model(
            "experiment d : 1=1/6,2=1/6,3=1/6,4=1/6,5=1/6,6=1/6"
        )
        assert model.decl("d").cpt[()]["6"] == Fraction(1, 6)

    def test_channel_file_round_trips(self, channel_model):
        r = channel_model.decl("R")
        assert r.parents == ("T",)
        assert r.cpt[("0",)]["0"] == Fraction(9, 10)
        assert r.cpt[("1",)]["0"] == Fraction(1, 10)

    def test_predicate_sugar(self):
        model = parse_model("predicate alien = 1/1000")
        decl = model.decl("alien")
        assert decl.is_predicate
        assert decl.outcomes == ("true", "false")
        assert decl.cpt[()] == {"true": Fraction(1, 1000), "false": Fraction(999, 1000)}

    def test_comments_and_blank_lines(self):
        model = parse_model("# header\n\nexperiment c : H, T  # coin\n")
        assert "c" in model

    def test_validation_errors_carry_line_numbers(self):
        text = "experiment c : H, T\nexperiment d : 1=1/6, 2=1/6\n"
        with pytest.raises(ModelError) as info:
            parse_model(text)
        assert any(issue.startswith("line 2:") and "sums to" in issue
                   for issue in info.value.issues)

    def test_cycle_error_carries_line_number(self):
        text = (
            "experiment R : 0, 1 depends T\n"
            "cpt 0 | T=0 = 1/2\ncpt 1 | T=0 = 1/2\n"
            "cpt 0 | T=1 = 1/2\ncpt 1 | T=1 = 1/2\n"
            "experiment T : 0, 1 depends R\n"
            "cpt 0 | R=0 = 1/2\ncpt 1 | R=0 = 1/2\n"
            "cpt 0 | R=1 = 1/2\ncpt 1 | R=1 = 1/2\n"
        )
        with pytest.raises(ModelError) as info:
            parse_model(text)
        assert any("cycle:" in issue for issue in info.value.issues)

    def test_duplicate_experiment_id(self):
        with pytest.raises(ParseError, match="duplicate experiment id 'c'"):
            parse_model("experiment c : H, T\nexperiment c : H, T\n")

    def test_mixed_weights_rejected(self):
        with pytest.raises(ParseError, match="all outcomes carry weights or none"):
            parse_model("experiment c : H=1/2, T")

    def test_cpt_line_requires_dependent_experiment(self):
        with pytest.raises(ParseError, match="must follow"):
            parse_model("experiment c : H, T\ncpt H | x=1 = 1/2\n")

    def test_missing_cpt_rows_reported(self):
        text = "experiment T : 0, 1\nexperiment R : 0, 1 depends T\n"
        with pytest.raises(ModelError) as info:
            parse_model(text)
        assert any("missing cpt row" in issue for issue in info.value.issues)

    def test_zero_denominator_rational(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_model("predicate p = 1/0")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("experiment c : H, T\nexperiment given : a, b\n", 2),
            ("experiment x : given, other\n", 1),
            ("experiment x : pgiven=1/2, other=1/2\n", 1),
            ("predicate pgiven = 1/2\n", 1),
            ("experiment c : H, T\nexperiment r : 0, 1 depends given\n", 2),
            (
                "experiment T : 0, 1\nexperiment R : 0, given depends T\n"
                "cpt 0 | T=0 = 1/2\ncpt given | T=1 = 1/2\n",
                2,
            ),
            (
                "experiment T : 0, 1\nexperiment R : 0, 1 depends T\n"
                "cpt 0 | T=0 = 1/2\ncpt pgiven | T=0 = 1/2\n",
                4,
            ),
            (
                "experiment T : 0, 1\nexperiment R : 0, 1 depends T\n"
                "cpt 0 | T=given = 1/2\n",
                3,
            ),
        ],
        ids=[
            "experiment-id",
            "outcome",
            "weighted-outcome",
            "predicate-id",
            "parent-id",
            "dependent-outcome",
            "cpt-outcome",
            "cpt-parent-outcome",
        ],
    )
    def test_formula_keywords_are_reserved(self, text, lineno):
        with pytest.raises(ParseError, match="reserved") as info:
            parse_model(text)
        assert info.value.line == lineno
        assert "given" in info.value.message

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            # The offending text also occurs earlier on the line.
            ("experiment given2 : a, given", 1, 24, "outcome 'given' is a reserved word"),
            ("experiment d : 1=1/2, 2=1/2, 1=0", 1, 30, "duplicate outcome '1'"),
            # Its first occurrence is the offending one.
            ("experiment c : H, T\npredicate p = 1/0", 2, 15, "rational with zero denominator"),
            # One case per other line error.
            ("experiment c : H=1/2/3, T=1/2", 1, 18, "malformed rational '1/2/3'"),
            ("predicate p = " + "9" * 5000, 1, 15, "rational with too many digits"),
            ("experiment 1c : H, T", 1, 12, "malformed experiment id '1c'"),
            ("experiment c H, T", 1, 1, "experiment declaration needs ':' before its outcomes"),
            ("experiment R : 0, 1 depends", 1, 1,
             "'depends' needs at least one parent experiment"),
            ("experiment c :", 1, 1, "experiment declares no outcomes"),
            ("experiment T : 0, 1\nexperiment R : 0=1/2, 1=1/2 depends T\n", 2, 1,
             "a dependent experiment takes its probabilities from cpt lines"),
            (CHANNEL + "cpt 0 T=0 = 1/2\n", 7, 1,
             "cpt line needs '|' between outcome and parent assignment"),
            (CHANNEL + "cpt 0 | T\n", 7, 1, "cpt line needs '= <rational>' at the end"),
            (CHANNEL + "cpt 0 | T=0\n", 7, 1, "cpt line needs '= <rational>' at the end"),
            (CHANNEL + "cpt 0 | T 0 = 1/2\n", 7, 1, "malformed parent assignment 'T 0'"),
            ("experiment a : 0, 1\nexperiment b : 0, 1\n"
             "experiment r : 0, 1 depends a, b\ncpt 0 | a=0, b=1\n", 4, 1,
             "cpt line needs '= <rational>' at the end"),
            ("experiment a : 0, 1\nexperiment b : 0, 1\n"
             "experiment r : 0, 1 depends a, b\ncpt 0 | a=0 = 1/2\n", 4, 1,
             "cpt row does not assign parent(s): b"),
            (CHANNEL + "cpt 0 | T=0, S=1 = 1/2\n", 7, 1, "cpt row assigns non-parent(s): S"),
            (CHANNEL + "cpt 0 | T=0 = 9/10\n", 7, 1,
             "duplicate cpt entry for outcome '0' under this assignment"),
            ("predicate p 1/2", 1, 1, "predicate declaration needs '= <rational>'"),
        ],
        ids=["reserved-outcome", "duplicate-outcome", "first-occurrence",
             "malformed-rational", "too-many-digits", "bad-id", "no-colon", "depends-nothing",
             "no-outcomes", "weighted-dependent", "cpt-no-bar", "cpt-no-equals",
             "cpt-no-weight", "cpt-bad-assignment", "cpt-no-weight-two-parents",
             "cpt-missing-parent", "cpt-extra-parent",
             "cpt-duplicate-entry", "predicate-no-weight"],
    )
    def test_error_column_points_at_the_offending_entry(self, text, line, column, message):
        with pytest.raises(ParseError) as info:
            parse_model(text)
        err = info.value
        assert (err.line, err.column, err.message, err.expected) == (line, column, message, None)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("experiment c : H, T", ExperimentDecl.uniform("c", ("H", "T"))),
            (
                "experiment  d :1=1/6,  2 = 1/3 , 3=1/2   # a loaded die",
                ExperimentDecl.weighted(
                    "d", {"1": Fraction(1, 6), "2": Fraction(1, 3), "3": Fraction(1, 2)}
                ),
            ),
            ("predicate alien = 1/1000", ExperimentDecl.predicate("alien", Fraction(1, 1000))),
            (
                "experiment T : 0, 1\nexperiment R : 0, 1 depends T\n"
                "cpt 0 | T=0 = 9/10\ncpt 1 | T=0 = 1/10\n"
                "cpt 0 | T=1 = 1/10\ncpt 1 | T=1 = 9/10\n",
                ExperimentDecl("R", ("0", "1"), ("T",), {
                    ("0",): {"0": Fraction(9, 10), "1": Fraction(1, 10)},
                    ("1",): {"0": Fraction(1, 10), "1": Fraction(9, 10)},
                }),
            ),
        ],
        ids=["uniform", "weighted", "predicate", "dependent"],
    )
    def test_each_line_kind_gives_its_constructors_decl(self, text, expected):
        got = parse_model(text).decl(expected.name)
        fields = ("name", "outcomes", "parents", "cpt", "is_predicate")
        assert [getattr(got, f) for f in fields] == [getattr(expected, f) for f in fields]

    def test_unknown_declaration_word(self):
        with pytest.raises(ParseError, match="unknown declaration"):
            parse_model("experimnt c : H, T")
