import itertools
import random
import re
import threading
import warnings
from fractions import Fraction

import pytest

from colprob import (
    AtomNode,
    ChoiceAnd,
    EvalError,
    ParAnd,
    Partition,
    PartitionError,
    SharedExperimentWarning,
    ancestral_closure,
    bayes,
    bayes_additive,
    bayes_parallel,
    check_partition,
    enumerate_prob,
    parse_formula,
    parse_model,
    prob,
)
from colprob import evaluator, semantics
from colprob.semantics import Undetermined, support
from colprob.bayes import posteriors
from _corpus import child_first_chain, draw_cells, random_dag_model, random_formula, random_model
from _corpus import noisy_channel as corpus_channel

F = Fraction


def partition(*texts):
    return Partition(tuple(parse_formula(t) for t in texts))


class TestCheckPartition:
    def test_binary_coin_additive(self, examples_model):
        report = check_partition(partition("H@c", "T@c"), examples_model, "additive")
        assert report.ok and report.exhaustive and report.total == 1

    def test_binary_channel_parallel(self, channel_model):
        report = check_partition(partition("0@T", "1@T"), channel_model, "parallel")
        assert report.ok and report.exhaustive

    def test_duplicate_cell_violates_disjointness(self, examples_model):
        report = check_partition(partition("H@c", "H@c"), examples_model, "additive")
        assert not report.ok
        assert "cells 1,2 not disjoint" in report.violations

    def test_non_exhaustive_partition_is_reported_not_rejected(self, examples_model):
        report = check_partition(partition("1@d", "2@d"), examples_model, "additive")
        assert report.ok and not report.exhaustive
        assert report.total == F(1, 3)

    def test_undetermined_cell_is_an_error(self, two_coins_cd):
        with pytest.raises(PartitionError, match="undetermined"):
            check_partition(partition("H@c | T@d", "T@c"), two_coins_cd, "additive")

    def test_additive_cells_must_share_support(self, two_coins_cd):
        with pytest.raises(PartitionError, match="support mismatch"):
            check_partition(partition("H@c", "H@d"), two_coins_cd, "additive")

    def test_an_unknown_variant_is_rejected(self, examples_model):
        with pytest.raises(ValueError, match=r"^unknown variant 'nope'$"):
            check_partition(partition("H@c", "T@c"), examples_model, "nope")

    def test_partition_needs_two_cells(self):
        with pytest.raises(ValueError, match="two cells"):
            Partition((AtomNode("c", "H"),))


class TestBayesAdditive:
    def test_dice_posterior_splits_evenly(self, examples_model):
        got = bayes_additive(
            partition("4@d", "~4@d"), parse_formula("3@d | 4@d"), examples_model
        )
        assert got == [F(1, 2), F(1, 2)]

    def test_evidence_equal_to_a_cell(self, examples_model):
        got = bayes_additive(
            partition("H@c", "T@c"), parse_formula("H@c"), examples_model
        )
        assert got == [F(1), F(0)]

    def test_even_odd_cells(self, examples_model):
        got = bayes_additive(
            partition("2@d|4@d|6@d", "1@d|3@d|5@d"),
            parse_formula("2@d | 3@d"),
            examples_model,
        )
        assert got == [F(1, 2), F(1, 2)]

    def test_channel_query_is_rejected_with_support_mismatch(self, channel_model):
        with pytest.raises(PartitionError, match="support mismatch"):
            bayes_additive(
                partition("0@T", "1@T"), parse_formula("0@R"), channel_model
            )

    def test_undetermined_evidence_is_an_error(self, examples_model):
        message = "evidence is undetermined: choice-or (|) across distinct supports {c1} and {c2}"
        with pytest.raises(PartitionError, match=f"^{re.escape(message)}$"):
            bayes_additive(partition("H@c", "T@c"), parse_formula("H@c1 | T@c2"), examples_model)

    def test_zero_denominator(self, examples_model):
        with pytest.raises(PartitionError, match="zero denominator"):
            bayes_additive(
                partition("H@c", "T@c"), parse_formula("H@c & T@c"), examples_model
            )

    def test_overlapping_cells_rejected_with_violations(self, examples_model):
        with pytest.raises(PartitionError) as info:
            bayes_additive(
                partition("1@d | 2@d", "2@d | 3@d"),
                parse_formula("1@d"),
                examples_model,
            )
        assert "cells 1,2 not disjoint" in info.value.violations


class TestPosteriors:
    def test_report_comes_with_the_posteriors(self, examples_model):
        report, values = posteriors(
            partition("1@d", "2@d"), parse_formula("1@d | 2@d | 3@d"),
            examples_model, "additive",
        )
        assert report.ok and not report.exhaustive and report.total == F(1, 3)
        assert report.support == frozenset({"d"})
        assert values == [F(1, 2), F(1, 2)]

    def test_parallel_report_has_no_common_support(self, channel_model):
        report, values = posteriors(
            partition("0@T", "1@T"), parse_formula("0@R"), channel_model, "parallel"
        )
        assert report.exhaustive and report.support is None
        assert values == [F(9, 10), F(1, 10)]


class TestBayesParallel:
    def test_channel_posteriors(self, channel_model):
        got = bayes_parallel(
            partition("0@T", "1@T"), parse_formula("0@R"), channel_model
        )
        assert got == [F(9, 10), F(1, 10)]

    def test_both_forms_agree_on_the_channel(self, channel_model):
        cells = partition("0@T", "1@T")
        evidence = parse_formula("0@R")
        joint = bayes_parallel(cells, evidence, channel_model, form="joint")
        prior = bayes_parallel(cells, evidence, channel_model, form="prior-likelihood")
        assert joint == prior == [F(9, 10), F(1, 10)]

    def test_independent_evidence_leaves_priors(self, examples_model):
        got = bayes_parallel(
            partition("H@c1", "T@c1"), parse_formula("H@c2"), examples_model
        )
        assert got == [F(1, 2), F(1, 2)]

    def test_noiseless_channel(self):
        model = parse_model(
            "experiment T : 0, 1\n"
            "experiment R : 0, 1 depends T\n"
            "cpt 0 | T=0 = 1\ncpt 1 | T=0 = 0\n"
            "cpt 0 | T=1 = 0\ncpt 1 | T=1 = 1\n"
        )
        got = bayes_parallel(partition("0@T", "1@T"), parse_formula("0@R"), model)
        assert got == [F(1), F(0)]

    def test_posteriors_sum_to_exactly_one(self, channel_model, examples_model):
        for model, cells, evidence in [
            (channel_model, partition("0@T", "1@T"), "0@R"),
            (examples_model, partition("1@d", "2@d", "3@d", "4@d", "5@d", "6@d"), "H@c || 6@d"),
        ]:
            got = bayes_parallel(cells, parse_formula(evidence), model)
            assert sum(got, start=F(0)) == 1


def test_both_parallel_forms_agree_on_random_dependent_models():
    rng = random.Random(60)
    checked = 0
    for _ in range(100):
        model = random_model(rng, max_experiments=3, max_outcomes=4, edge_prob=1.0)
        dependents = [n for n, d in model.experiments.items() if d.parents]
        if not dependents:
            continue
        child = dependents[0]
        parent = model.experiments[child].parents[0]
        cells = Partition(tuple(AtomNode(parent, o) for o in model.outcomes(parent)))
        evidence = AtomNode(child, rng.choice(model.outcomes(child)))
        try:
            joint = bayes_parallel(cells, evidence, model, form="joint")
            prior = bayes_parallel(cells, evidence, model, form="prior-likelihood")
        except PartitionError:
            continue  # zero denominator is possible with zero weights
        assert joint == prior
        assert sum(joint, start=F(0)) == 1
        checked += 1
    assert checked > 30


def test_unknown_form_is_rejected_before_the_partition_check(examples_model):
    for cells in (partition("H@c", "H@c"), partition("H@c", "T@c")):
        with pytest.raises(ValueError, match="unknown form 'bogus'"):
            bayes_parallel(cells, parse_formula("H@c"), examples_model, form="bogus")


def pairwise_violations(p, model, variant):
    """The pairwise definition of disjointness, decided by the oracle: a pair
    overlaps when its conjunction has nonzero probability."""
    conj = ChoiceAnd if variant == "additive" else ParAnd
    return tuple(
        f"cells {i},{j} not disjoint"
        for (i, a), (j, b) in itertools.combinations(enumerate(p.cells, start=1), 2)
        if enumerate_prob(conj(a, b), model).value != 0
    )


def test_union_verdict_matches_the_pairwise_oracle(monkeypatch):
    calls = count_prob_calls(monkeypatch)
    eliminations = count_eliminations(monkeypatch)
    rng = random.Random(61)
    seen = {"ok": 0, "overlap": 0, "zero_weight_overlap": 0, "shaped": 0, "mixed": 0}
    for n in range(400):
        model = (random_dag_model(rng) if n % 2 else
                 random_model(rng, max_experiments=3, max_outcomes=4, edge_prob=0.8))
        variant = ("additive", "parallel")[n // 2 % 2]
        if variant == "additive" and rng.random() < 0.25:
            # Arbitrary formulas over one experiment, so one support.
            e = rng.choice(sorted(model.experiments))
            p = Partition(tuple(
                random_formula(rng, model, 3, e) for _ in range(rng.randint(2, 4))
            ))
            sets = None
            seen["shaped"] += 1
        else:
            p, sets = draw_cells(rng, model, variant)
        expected = pairwise_violations(p, model, variant)
        eliminations.clear()
        report = check_partition(p, model, variant)
        assert (report.ok, report.violations) == (not expected, expected)
        seen["ok" if report.ok else "overlap"] += 1
        supports = {support(c, model) for c in p.cells}
        seen["mixed"] += len(supports) > 1
        if len(supports) > 1:  # the pairwise joints lie over the unions
            supports |= {a | b for a, b in itertools.combinations(supports, 2)}
        assert len(eliminations) == len(supports)
        assert {s for s, _ in eliminations} == supports
        if sets and report.ok:
            seen["zero_weight_overlap"] += any(
                a & b for a, b in itertools.combinations(sets, 2)
            )
    assert seen["ok"] > 150 and seen["overlap"] > 150 and seen["shaped"] > 20
    assert seen["zero_weight_overlap"] > 30 and seen["mixed"] > 10
    assert calls == []


def count_prob_calls(monkeypatch) -> list:
    """Count the prob calls that the bayes module makes."""
    calls = []
    real = bayes.prob

    def counted(f, model):
        calls.append(f)
        return real(f, model)

    monkeypatch.setattr(bayes, "prob", counted)
    return calls


def noisy_channel(bits):
    """The channel model of ``_corpus.noisy_channel``, its priors and its
    flips."""
    text, priors, flips = corpus_channel(bits)
    return parse_model(text), priors, flips


def channel_cells(bits):
    sent = list(itertools.product("01", repeat=bits))
    return sent, partition(*(
        " && ".join(f"{t}@t{i}" for i, t in enumerate(s)) for s in sent
    ))


class TestUnionCheckScales:
    # A check makes no prob call: it weighs every cell's points, and over
    # different supports every pair's joint, with one elimination per
    # distinct support among them.
    def test_disjoint_check_makes_one_query_beyond_the_cells(self, monkeypatch):
        model = noisy_channel(5)[0]
        cells = channel_cells(5)[1]
        calls = count_prob_calls(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        report = check_partition(cells, model, "parallel")
        assert report.ok and report.exhaustive
        assert calls == []
        assert eliminations == [(frozenset(f"t{i}" for i in range(5)), 32)]

    def test_overlapping_pairs_are_still_named_in_order(self, examples_model, monkeypatch):
        calls = count_prob_calls(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        report = check_partition(
            partition("1@d | 2@d", "2@d | 3@d", "3@d | 4@d"), examples_model, "additive"
        )
        assert report.violations == ("cells 1,2 not disjoint", "cells 2,3 not disjoint")
        assert not report.ok
        assert calls == [] and eliminations == [(frozenset({"d"}), 4)]
        # One point shared by three cells names all three pairs, in order.
        report = check_partition(
            partition("1@d | 6@d", "2@d", "3@d | 1@d", "1@d", "5@d | 2@d"),
            examples_model, "additive",
        )
        assert report.violations == (
            "cells 1,3 not disjoint", "cells 1,4 not disjoint",
            "cells 2,5 not disjoint", "cells 3,4 not disjoint",
        )
        with pytest.raises(PartitionError) as info:
            bayes_parallel(partition("H@c1", "H@c1 && H@c2", "T@c1"),
                           parse_formula("H@c2"), examples_model)
        assert str(info.value).startswith("partition cells overlap")
        assert info.value.violations == ["cells 1,2 not disjoint"]

    def test_cells_over_one_support_are_joined_without_a_complement(self, monkeypatch):
        # Neither the cells nor the check build a complement: over these 16
        # coins, one would hold 65,535 points.
        model = parse_model("".join(f"experiment t{i} : 0, 1\n" for i in range(16)))
        rest = " && ".join(f"0@t{i}" for i in range(1, 16))
        monkeypatch.setattr(semantics, "_full", no_full_space)
        calls = count_prob_calls(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        report = check_partition(
            partition(f"0@t0 && {rest}", f"1@t0 && {rest}"), model, "parallel"
        )
        assert report.ok and report.total == F(1, 2**15)
        assert calls == [] and len(eliminations) == 1

    def test_cells_over_different_supports_are_checked_pairwise(self, examples_model,
                                                                 monkeypatch):
        calls = count_prob_calls(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        report = check_partition(
            partition("H@c1 && H@c2", "T@c1", "H@c1 && T@c2"), examples_model, "parallel"
        )
        assert report.ok and report.exhaustive
        # {c1, c2}: cells 1 and 3 and all three joints; {c1}: cell 2.
        assert calls == [] and len(eliminations) == 2
        assert {support for support, _ in eliminations} == {
            frozenset({"c1"}), frozenset({"c1", "c2"})}
        eliminations.clear()
        report = check_partition(
            partition("H@c1 && H@c2", "H@c2", "T@c2"), examples_model, "parallel"
        )
        assert report.violations == ("cells 1,2 not disjoint",)
        assert calls == [] and len(eliminations) == 2
        assert {support for support, _ in eliminations} == {
            frozenset({"c1", "c2"}), frozenset({"c2"})}

    def test_seven_bit_channel_posteriors_match_the_closed_form(self):
        model, priors, flips = noisy_channel(7)
        sent, cells = channel_cells(7)
        received = "0110100"
        evidence = parse_formula(" && ".join(f"{r}@r{i}" for i, r in enumerate(received)))
        weights = []
        for s in sent:
            w = F(1)
            for i, (t, r) in enumerate(zip(s, received)):
                w *= priors[i] if t == "0" else 1 - priors[i]
                w *= flips[i] if t != r else 1 - flips[i]
            weights.append(w)
        total = sum(weights)
        assert bayes_parallel(cells, evidence, model) == [w / total for w in weights]

    def test_four_hundred_cell_additive_partition(self, monkeypatch):
        outcomes = [f"o{i}" for i in range(400)]
        model = parse_model(f"experiment e : {', '.join(outcomes)}\n")
        calls = count_prob_calls(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        report = check_partition(
            Partition(tuple(AtomNode("e", o) for o in outcomes)), model, "additive"
        )
        assert report.ok and report.exhaustive and report.total == 1
        assert calls == [] and eliminations == [(frozenset({"e"}), 400)]


def no_full_space(model, experiments):
    raise AssertionError(f"full space over {len(experiments)} experiments")


def count_eliminations(monkeypatch) -> list:
    """Record the support and the number of points of every elimination
    that the evaluator runs, for the bayes module's masses among them; an
    elimination of gates or of a grid's marginal, which has no points,
    records None for them."""
    calls = []
    rows, gates, marginal = evaluator._point_weights, evaluator._gates, evaluator._marginal

    def by_rows(axes, points, model):
        calls.append((frozenset(axes), len(points)))
        return rows(axes, points, model)

    def by_gates(run, model, *args):
        calls.append((frozenset(n.experiment for n in run if isinstance(n, AtomNode)), None))
        return gates(run, model, *args)

    def by_masks(axes, *args):
        calls.append((frozenset(axes), None))
        return marginal(axes, *args)

    monkeypatch.setattr(evaluator, "_point_weights", by_rows)
    monkeypatch.setattr(evaluator, "_gates", by_gates)
    monkeypatch.setattr(evaluator, "_marginal", by_masks)
    return calls


class TestPosteriorWeights:
    def test_wide_independent_evidence_is_one_gate_elimination(self, monkeypatch):
        # p(evidence), a dependent || over thirteen steps of a chain, whose
        # grid of 8,192 cells is past the bound of masks, is one
        # elimination of its gates; the cells are weighed as rows.
        model = parse_model("experiment c : H=1/3, T=2/3\n" + child_first_chain(13))
        evidence = parse_formula(" || ".join(f"0@x{i}" for i in range(13)))
        eliminations = count_eliminations(monkeypatch)
        report, values = posteriors(partition("H@c", "T@c"), evidence, model, "parallel")
        assert report.ok and values == [F(1, 3), F(2, 3)]
        assert eliminations == [(frozenset({"c"}), 2),
                                (frozenset(f"x{i}" for i in range(13)), None)]

    def test_independent_evidence_leaves_the_priors(self, monkeypatch):
        # The evidence shares no ancestor with the cells, so each weight is
        # p(cell) * p(evidence), and p(evidence) is one prob call; the
        # evidence's complement over 16 coins is never built.
        coins = "".join(f"experiment u{i} : 0, 1\n" for i in range(16))
        model = parse_model(
            "experiment s : a=1/2, b=1/3, c=1/6\n"
            "experiment t : 0, 1 depends s\n"
            "cpt 0 | s=a = 1/4\ncpt 1 | s=a = 3/4\n"
            "cpt 0 | s=b = 1\ncpt 1 | s=b = 0\n"
            "cpt 0 | s=c = 1/2\ncpt 1 | s=c = 1/2\n" + coins
        )
        cells = partition("a@s && 0@t", "a@s && 1@t",
                          "b@s && (0@t | 1@t)", "c@s && (0@t | 1@t)")
        evidence = parse_formula("~(" + " && ".join(f"0@u{i}" for i in range(16)) + ")")
        priors = [F(1, 8), F(3, 8), F(1, 3), F(1, 6)]
        monkeypatch.setattr(semantics, "_full", no_full_space)
        calls = count_prob_calls(monkeypatch)
        walks = count_walks(monkeypatch)
        evaluated = []  # the root node of each program evaluated
        real_value = bayes._value

        def value(program, *args):
            evaluated.append(program[0][-1])
            return real_value(program, *args)

        monkeypatch.setattr(bayes, "_value", value)
        report, values = posteriors(cells, evidence, model, "parallel")
        assert report.ok and report.exhaustive
        assert values == priors
        assert [f for f in walks if f is evidence] == [evidence]
        assert evaluated == [evidence] and calls == []

    def test_the_evidence_is_walked_once(self, monkeypatch):
        # Cell 1 shares no ancestor with the evidence, so it weighs
        # p(cell) * p(evidence); cells 2 and 3 are joined with the
        # evidence's space. Whichever module walks it, the evidence is
        # walked once, for its support, closure and p(evidence) at once.
        model = parse_model(
            "experiment a : 0=1/3, 1=2/3\n"
            "experiment b : 0, 1 depends a\n"
            "cpt 0 | a=0 = 1/5\ncpt 1 | a=0 = 4/5\n"
            "cpt 0 | a=1 = 7/10\ncpt 1 | a=1 = 3/10\n"
            "experiment c : 0=1/4, 1=3/4\n"
        )
        p, ev = partition("0@c", "1@c && 0@a", "1@c && 1@a"), parse_formula("0@b || 0@a")
        walks = []
        real = semantics._walk

        def walk(f, *args):
            walks.append(f)
            return real(f, *args)

        for module in (semantics, evaluator, bayes):
            monkeypatch.setattr(module, "_walk", walk, raising=False)
        report, values = posteriors(p, ev, model, "parallel")
        weights = [enumerate_prob(ParAnd(c, ev), model).value for c in p.cells]
        assert report.ok and values == [w / sum(weights) for w in weights]
        assert [f for f in walks if f is ev] == [ev]

    def test_mixed_supports_with_evidence_on_some_cells(self):
        # Cell 1 lies over c alone, which shares no ancestor with the
        # evidence on b; cells 2 and 3 reach b's parent a.
        model = parse_model(
            "experiment a : 0=1/3, 1=2/3\n"
            "experiment b : 0, 1 depends a\n"
            "cpt 0 | a=0 = 1/5\ncpt 1 | a=0 = 4/5\n"
            "cpt 0 | a=1 = 7/10\ncpt 1 | a=1 = 3/10\n"
            "experiment c : 0=1/4, 1=3/4\n"
        )
        for cells, evidence in [
            (("0@c", "1@c && 0@a", "1@c && 1@a"), "0@b"),
            (("0@c", "1@c && 0@a", "1@c && 1@a"), "0@b || 1@c"),
            (("0@c && 1@a", "0@a", "1@c && 1@a"), "1@b && 0@c"),
            (("0@c", "0@c && 0@a", "1@c"), "0@b"),
        ]:
            p, ev = partition(*cells), parse_formula(evidence)
            expected = pairwise_violations(p, model, "parallel")
            if expected:
                with pytest.raises(PartitionError) as info:
                    posteriors(p, ev, model, "parallel")
                assert tuple(info.value.violations) == expected
                continue
            weights = [enumerate_prob(ParAnd(c, ev), model).value for c in p.cells]
            total = sum(weights)
            report, values = posteriors(p, ev, model, "parallel")
            assert report.ok and values == [w / total for w in weights]

    @pytest.mark.parametrize("variant", ["additive", "parallel"])
    def test_posteriors_match_the_oracle_on_random_partitions(self, variant):
        rng = random.Random(62 + (variant == "parallel"))
        seen = {"ok": 0, "rejected": 0, "mixed": 0, "independent": 0}
        for n in range(400):
            model = (random_dag_model(rng) if n % 2 else
                     random_model(rng, max_experiments=3, max_outcomes=4, edge_prob=0.8))
            p, _ = draw_cells(rng, model, variant)
            seen["mixed"] += len({support(c, model) for c in p.cells}) > 1
            if variant == "additive":
                e = next(iter(support(p.cells[0], model)))
            else:  # over one experiment, or else mostly undetermined
                e = rng.choice([None, *sorted(model.experiments)])
            evidence = random_formula(rng, model, 2, e)
            conj = ChoiceAnd if variant == "additive" else ParAnd
            violations = pairwise_violations(p, model, variant)
            weights = [enumerate_prob(conj(c, evidence), model) for c in p.cells]
            try:
                got = posteriors(p, evidence, model, variant)[1]
            except PartitionError as err:
                message = str(err)
                if violations:
                    assert message.startswith("partition cells overlap")
                    assert tuple(err.violations) == violations
                elif any(isinstance(w, Undetermined) for w in weights):
                    assert message.startswith("undetermined weight")
                else:
                    assert message.startswith("zero denominator")
                    assert sum(w.value for w in weights) == 0
                seen["rejected"] += 1
                continue
            total = sum(w.value for w in weights)
            assert got == [w.value / total for w in weights]
            seen["ok"] += 1
            seen["independent"] += any(
                not ancestral_closure(model, support(c, model))
                & ancestral_closure(model, support(evidence, model))
                for c in p.cells
            )
        assert seen["ok"] > 100 and seen["rejected"] > 100
        assert variant == "additive" or seen["mixed"] > 30 and seen["independent"] > 10

    @pytest.mark.parametrize("cells,evidence", [
        (("0@T", "1@T"), "0@R"),
        (("0@T && 0@R", "0@T && 1@R", "1@T"), "1@R"),
    ])
    def test_each_space_is_built_once(self, channel_model, monkeypatch, cells, evidence):
        # One fold over every cell's nodes in turn, one over the evidence's.
        built = []  # the nodes of each run folded
        real = bayes._space

        def counted(nodes, model):
            nodes = list(nodes)
            built.append(nodes)
            return real(nodes, model)

        monkeypatch.setattr(bayes, "_space", counted)
        p, ev = partition(*cells), parse_formula(evidence)
        posteriors(p, ev, channel_model, "parallel")
        program = [semantics._walk(f, channel_model, None)[2][0] for f in p.cells + (ev,)]
        assert [list(map(id, run)) for run in built] == [
            [id(node) for nodes in program[:-1] for node in nodes], list(map(id, program[-1]))]


def count_walks(monkeypatch) -> list:
    """Record the formula of every walk that the bayes module makes."""
    calls = []
    real = bayes._walk

    def counted(f, model, shared):
        calls.append(f)
        return real(f, model, shared)

    monkeypatch.setattr(bayes, "_walk", counted)
    return calls


class TestErrorPrecedence:
    def test_undetermined_cell_is_reported_before_a_support_mismatch(self, two_coins_cd):
        with pytest.raises(PartitionError) as info:
            check_partition(partition("H@c", "H@d", "H@c | T@d"), two_coins_cd, "additive")
        assert str(info.value) == (
            "cell 3 (H@c | T@d) is undetermined: "
            "choice-or (|) across distinct supports {c} and {d}"
        )

    def test_support_mismatch_makes_no_prob_call(self, two_coins_cd, monkeypatch):
        calls = count_prob_calls(monkeypatch)
        with pytest.raises(PartitionError) as info:
            check_partition(partition("H@c", "T@c", "H@d"), two_coins_cd, "additive")
        assert str(info.value) == (
            "support mismatch between cells: cell 1 over {c} but cell 3 over {d}"
        )
        assert calls == []

    @pytest.mark.parametrize("variant", ["additive", "parallel"])
    def test_one_walk_per_cell(self, examples_model, monkeypatch, variant):
        cells = {
            "additive": ("1@d", "2@d | 3@d", "~(1@d | 2@d | 3@d)"),
            "parallel": ("H@c1 && H@c2", "T@c1", "H@c1 && T@c2", "H@c1 && H@c2"),
        }[variant]
        p = partition(*cells)
        calls = count_walks(monkeypatch)
        check_partition(p, examples_model, variant)
        assert list(map(id, calls)) == list(map(id, p.cells))

    @pytest.mark.parametrize("variant", ["additive", "parallel"])
    @pytest.mark.parametrize("cells", [
        ("H@c given (H@c & T@c)", "T@c"),
        ("H@c given T@d", "T@c"),
        ("T@c", "H@c pgiven H@c"),
    ])
    def test_conditional_cell_is_rejected_by_support(self, two_coins_cd, variant, cells):
        with pytest.raises(EvalError) as info:
            check_partition(partition(*cells), two_coins_cd, variant)
        assert type(info.value) is EvalError
        assert str(info.value).startswith(
            "conditionals ('given'/'pgiven') are only allowed at the root"
        )


class TestConcurrentChecks:
    def test_interleaved_checks_leave_the_warnings_filters_alone(self, examples_model,
                                                                 monkeypatch):
        # A enters, B enters, A exits, B exits. A check that swapped the
        # process-wide filters in and out would undo B's quieting when A
        # exits (the third cell shares c) and leave A's filter installed
        # when B exits.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        gates = {"A": (a_in, b_in), "B": (b_in, a_out)}  # (set on entry, wait for)
        real = bayes._space

        def gated(nodes, model):
            gate = gates.pop(threading.current_thread().name, None)
            if gate is not None:
                gate[0].set()
                assert gate[1].wait(10)
            return real(nodes, model)

        monkeypatch.setattr(bayes, "_space", gated)
        reports = {}

        def check(name):
            try:
                reports[name] = check_partition(
                    partition("H@c && H@c1", "H@c && T@c1", "T@c && (T@c || H@c1)"),
                    examples_model, "parallel")
            finally:
                if name == "A":
                    a_out.set()

        before = list(warnings.filters)
        threads = [threading.Thread(target=check, args=(name,), name=name) for name in "AB"]
        threads[0].start()
        assert a_in.wait(10)
        threads[1].start()
        for thread in threads:
            thread.join(20)
        assert not gates and sorted(reports) == ["A", "B"]
        assert all(report.ok and report.exhaustive for report in reports.values())
        assert warnings.filters == before
        with pytest.warns(SharedExperimentWarning, match=r"\{c\}"):
            prob(parse_formula("H@c && T@c"), examples_model)
