import random
from fractions import Fraction

import pytest

from colprob import (
    AtomNode,
    Partition,
    PartitionError,
    bayes_additive,
    bayes_parallel,
    check_partition,
    parse_formula,
    parse_model,
)
from colprob.bayes import posteriors
from _corpus import random_model

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
