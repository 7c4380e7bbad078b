import random
import string
from fractions import Fraction

import pytest

from colprob import (
    AtomNode,
    ChoiceAnd,
    ChoiceOr,
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


def test_round_trip_on_random_asts():
    rng = random.Random(424242)
    for _ in range(1000):
        ast = random_ast(rng, depth=6)
        assert parse_formula(format_formula(ast)) == ast


def test_parsing_is_total_on_fuzzed_input():
    rng = random.Random(7)
    alphabet = string.ascii_letters + string.digits + "@~&|() #pgiven\t\n\r/=_$é"
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        try:
            parse_formula(text)
        except ParseError as err:
            # The position names an existing line and at most one past its end.
            lines = text.split("\n")
            assert 1 <= err.line <= len(lines)
            assert 1 <= err.column <= len(lines[err.line - 1]) + 1


def test_deep_parentheses_parse():
    text = "(" * 200 + "H@c" + ")" * 200
    assert format_formula(parse_formula(text)) == "H@c"


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

    def test_unknown_declaration_word(self):
        with pytest.raises(ParseError, match="unknown declaration"):
            parse_model("experimnt c : H, T")
