"""The contract of colprob's records, one case per record type: the
``repr`` text, keyword construction with defaults, ``==`` and ``hash``
(structural, by identity, or unhashable), frozenness, and the checks that
run at construction."""

from fractions import Fraction

import pytest

from colprob import (
    AtomNode,
    ChoiceAnd,
    ChoiceOr,
    Derivation,
    Determined,
    EventSpace,
    ExperimentDecl,
    GivenAdd,
    GivenPar,
    Model,
    Not,
    ParAnd,
    ParOr,
    Partition,
    PartitionReport,
    Point,
    SampleConfig,
    Undetermined,
)
from colprob.cli import QueryOutput
from colprob.oracle import McEstimate

HALF = Fraction(1, 2)
H = AtomNode(experiment="c", outcome="H")
T = AtomNode(experiment="d", outcome="T")
H_REPR = "AtomNode(experiment='c', outcome='H')"
T_REPR = "AtomNode(experiment='d', outcome='T')"
DECL_REPR = ("ExperimentDecl(name='c', outcomes=('H', 'T'), parents=(), cpt={}, "
             "is_predicate=False)")

STRUCTURAL, IDENTITY, MUTABLE = "structural", "identity", "mutable"

# (build by keywords, fields in order, repr, how == and hash behave)
RECORDS = [
    (lambda: AtomNode(experiment="c", outcome="H"), ("experiment", "outcome"), H_REPR,
     STRUCTURAL),
    (lambda: Not(child=H), ("child",), f"Not(child={H_REPR})", STRUCTURAL),
    (lambda: ChoiceAnd(left=H, right=T), ("left", "right"),
     f"ChoiceAnd(left={H_REPR}, right={T_REPR})", STRUCTURAL),
    (lambda: ChoiceOr(left=H, right=T), ("left", "right"),
     f"ChoiceOr(left={H_REPR}, right={T_REPR})", STRUCTURAL),
    (lambda: ParAnd(left=H, right=T), ("left", "right"),
     f"ParAnd(left={H_REPR}, right={T_REPR})", STRUCTURAL),
    (lambda: ParOr(left=H, right=T), ("left", "right"),
     f"ParOr(left={H_REPR}, right={T_REPR})", STRUCTURAL),
    (lambda: GivenAdd(event=H, condition=T), ("event", "condition"),
     f"GivenAdd(event={H_REPR}, condition={T_REPR})", STRUCTURAL),
    (lambda: GivenPar(event=H, condition=T), ("event", "condition"),
     f"GivenPar(event={H_REPR}, condition={T_REPR})", STRUCTURAL),
    (lambda: Point(items=(("c", "H"),)), ("items",), "Point(items=(('c', 'H'),))", STRUCTURAL),
    (lambda: EventSpace(support=frozenset({"c"}), points=frozenset({Point((("c", "H"),))})),
     ("support", "points"),
     "EventSpace(support=frozenset({'c'}), points=frozenset({Point(items=(('c', 'H'),))}))",
     STRUCTURAL),
    (lambda: Undetermined(reason="why"), ("reason",), "Undetermined(reason='why')", STRUCTURAL),
    (lambda: Determined(value=HALF), ("value",), "Determined(value=Fraction(1, 2))",
     STRUCTURAL),
    (lambda: Derivation(rule="cpt", formula="H@c", result=Determined(HALF)),
     ("rule", "formula", "result", "children", "note"),
     "Derivation(rule='cpt', formula='H@c', result=Determined(value=Fraction(1, 2)), "
     "children=(), note='')", STRUCTURAL),
    (lambda: ExperimentDecl(name="c", outcomes=("H", "T")),
     ("name", "outcomes", "parents", "cpt", "is_predicate"), DECL_REPR, IDENTITY),
    (lambda: Model(experiments={}), ("experiments",), "Model(experiments={})", IDENTITY),
    (lambda: Partition(cells=(H, T)), ("cells",), f"Partition(cells=({H_REPR}, {T_REPR}))",
     STRUCTURAL),
    (lambda: PartitionReport(ok=True, violations=(), exhaustive=False, total=HALF),
     ("ok", "violations", "exhaustive", "total", "support"),
     "PartitionReport(ok=True, violations=(), exhaustive=False, total=Fraction(1, 2), "
     "support=None)", STRUCTURAL),
    (lambda: SampleConfig(sample_count=10), ("sample_count", "seed"),
     "SampleConfig(sample_count=10, seed=0)", STRUCTURAL),
    (lambda: McEstimate(estimate=0.5, stderr=0.25, samples=4, seed=7),
     ("estimate", "stderr", "samples", "seed"),
     "McEstimate(estimate=0.5, stderr=0.25, samples=4, seed=7)", STRUCTURAL),
    (lambda: QueryOutput(query="H@c", result=Determined(HALF)),
     ("query", "result", "derivation", "oracle", "mc"),
     "QueryOutput(query='H@c', result=Determined(value=Fraction(1, 2)), derivation=None, "
     "oracle=None, mc=None)", MUTABLE),
]
IDS = [build().__class__.__name__ for build, *_ in RECORDS]


@pytest.mark.parametrize("build, fields, text, kind", RECORDS, ids=IDS)
def test_repr_shows_every_field_with_its_default(build, fields, text, kind):
    assert repr(build()) == text


@pytest.mark.parametrize("build, fields, text, kind", RECORDS, ids=IDS)
def test_equality_and_hash(build, fields, text, kind):
    a, b = build(), build()
    if kind == IDENTITY:
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        return
    assert a == b and not a != b
    # Equal only within one class: a subclass's record with the same
    # fields is another record.
    other = type("Other", (type(a),), {})(*[getattr(a, name) for name in fields])
    assert a != other and other != a
    if kind == MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in fields))


@pytest.mark.parametrize("build, fields, text, kind", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(build, fields, text, kind):
    record = build()
    if kind == MUTABLE:
        setattr(record, fields[0], "changed")
        assert getattr(record, fields[0]) == "changed"
        return
    for name in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert repr(record) == text


def test_each_decl_gets_its_own_cpt_and_keeps_its_compiled_forms():
    a, b = (ExperimentDecl(name="c", outcomes=("H", "T")) for _ in range(2))
    assert a.cpt == {} and a.cpt is not b.cpt
    coin = ExperimentDecl.uniform("c", ("H", "T"))
    assert coin._sampled is coin._sampled == {(): [0.5, 1.0]}
    assert coin._scaled is coin._scaled
    assert coin._scaled[:3] == ([1, 1], 2, {"H": 0, "T": 1})


@pytest.mark.parametrize("build, message", [
    (lambda: EventSpace(frozenset({"c"}), frozenset({Point((("d", "H"),))})),
     "point {d=H} does not cover support {c}"),
    (lambda: EventSpace(frozenset({"c"}), frozenset({Point((("c", "H"), ("c", "T")))})),
     "point {c=H, c=T} repeats or misorders an experiment of support {c}"),
    (lambda: Partition(cells=(H,)), "a partition needs at least two cells"),
    (lambda: SampleConfig(sample_count=0), "sample_count must be at least 1"),
    (lambda: SampleConfig(sample_count=1, seed=-1), "seed must fit in 64 unsigned bits"),
    (lambda: SampleConfig(sample_count=1, seed=2**64), "seed must fit in 64 unsigned bits"),
], ids=["space-support", "space-repeat", "partition", "sample-count", "seed-low",
        "seed-high"])
def test_construction_checks(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
