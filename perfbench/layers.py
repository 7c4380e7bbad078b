"""Traced run: spans around each layer's public function, size counters,
and the per-size baseline rows.

Spans are recorded by the benchmark around its own calls into colprob;
nothing inside the program is instrumented. Each layer is timed by calling
its public function standalone on the same inputs the requests use, so a
layer's time is what that function costs on the workload, not a share of
one request. The counters are problem sizes for the current algorithm,
computed from the program's public results; they are not counts of work
the program reports about itself.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from colprob import (
    AtomNode,
    GivenAdd,
    GivenPar,
    Not,
    NullConditionError,
    ParAnd,
    Partition,
    PartitionError,
    SampleConfig,
    Undetermined,
    ancestral_closure,
    bayes_parallel,
    check_partition,
    denote,
    enumerate_prob,
    mc_estimate,
    parse_formula,
    parse_model,
    prob,
    prob_explain,
    space_prob,
    validate_model,
)

from workloads import HALF, Request, frac, par_and, par_or

# Spans summed per traced pass and reported as "<span>_ms".
TIMED_LAYERS = (
    "parser.parse_model",
    "model.validate",
    "semantics.denote",
    "evaluator.space_prob",
    "evaluator.prob",
    "evaluator.explain",
    "oracle.enumerate",
    "oracle.mc",
    "bayes.check_partition",
    "bayes.posterior",
    "cli.render",
)
# Size counters set on spans, summed per traced pass.
COUNTERS = (
    "model.closure_size",
    "semantics.space_points",
    "evaluator.lifted_points",
    "evaluator.explain_nodes",
    "oracle.assignments",
)


class Tracer:
    """In-memory spans: id, parent id, name, start and end (seconds on the
    perf_counter clock) plus any counters set on the record."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "name": name, "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def totals(self) -> dict[str, float]:
        """Seconds per span name and summed counters per counter name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
            out[s["name"] + "#calls"] = out.get(s["name"] + "#calls", 0) + 1
            for key in COUNTERS:
                if key in s:
                    out[key] = out.get(key, 0) + s[key]
        return out


def _mentioned(f) -> set[str]:
    if isinstance(f, AtomNode):
        return {f.experiment}
    if isinstance(f, Not):
        return _mentioned(f.child)
    if isinstance(f, (GivenAdd, GivenPar)):
        return _mentioned(f.event) | _mentioned(f.condition)
    return _mentioned(f.left) | _mentioned(f.right)


def _nodes(derivation) -> int:
    return 1 + sum(_nodes(c) for c in derivation.children)


def _outcome_product(model, names) -> int:
    return math.prod(len(model.outcomes(n)) for n in names)


def probe_models(tracer: Tracer, texts: list[str], models: list) -> None:
    for text in texts:
        with tracer.span("parser.parse_model"):
            parse_model(text)
    for model in models:
        with tracer.span("model.validate"):
            validate_model(model)


def probe_request(tracer: Tracer, model, req: Request) -> None:
    """Call each layer's public function standalone on ``req``'s inputs."""
    if req.is_bayes:
        cells = []
        for text in req.cells:
            with tracer.span("parser.parse_formula"):
                cells.append(parse_formula(text))
        with tracer.span("parser.parse_formula"):
            evidence = parse_formula(req.evidence)
        partition = Partition(tuple(cells))
        with tracer.span("bayes.check_partition"):
            check_partition(partition, model, "parallel")
        with tracer.span("bayes.posterior"):
            try:
                bayes_parallel(partition, evidence, model)
            except PartitionError:
                pass
        return
    with tracer.span("parser.parse_formula"):
        f = parse_formula(req.query)
    # The spaces prob itself denotes for this root.
    if isinstance(f, GivenAdd):
        denoted = [f.event, f.condition]
    elif isinstance(f, GivenPar):
        denoted = [ParAnd(f.event, f.condition), f.condition]
    else:
        denoted = [f]
    for g in denoted:
        with tracer.span("semantics.denote") as s:
            space = denote(g, model)
        if isinstance(space, Undetermined):
            continue
        s["semantics.space_points"] = len(space.points)
        closure = ancestral_closure(model, space.support)
        with tracer.span("evaluator.space_prob") as s:
            space_prob(space, model)
        s["model.closure_size"] = len(closure)
        s["evaluator.lifted_points"] = (
            len(space.points) * _outcome_product(model, closure - space.support))
    with tracer.span("evaluator.prob"):
        try:
            prob(f, model)
        except NullConditionError:
            pass
    if req.explain:
        with tracer.span("evaluator.explain") as s:
            try:
                s["evaluator.explain_nodes"] = _nodes(prob_explain(f, model)[1])
            except NullConditionError:
                pass
    if req.oracle:
        with tracer.span("oracle.enumerate") as s:
            try:
                enumerate_prob(f, model)
            except NullConditionError:
                pass
        s["oracle.assignments"] = _outcome_product(
            model, ancestral_closure(model, _mentioned(f)))
    if req.mc_samples is not None:
        with tracer.span("oracle.mc"):
            mc_estimate(f, model, SampleConfig(req.mc_samples, req.mc_seed))


# ---------------------------------------------------------------------------
# Baseline rows: the sizes the project roadmap quotes, one call each
# ---------------------------------------------------------------------------

BASELINE_COINS = "".join(f"experiment c{i} : H, T\n" for i in range(14))
BASELINE_CHAIN_STAY = Fraction(9, 10)  # p(x_i = x_{i-1})


def _baseline_chain() -> str:
    stay, move = frac(BASELINE_CHAIN_STAY), frac(1 - BASELINE_CHAIN_STAY)
    lines = ["experiment x0 : 0, 1"]
    for i in range(1, 14):
        lines += [f"experiment x{i} : 0, 1 depends x{i - 1}",
                  f"cpt 0 | x{i - 1}=0 = {stay}", f"cpt 1 | x{i - 1}=0 = {move}",
                  f"cpt 0 | x{i - 1}=1 = {move}", f"cpt 1 | x{i - 1}=1 = {stay}"]
    return "\n".join(lines) + "\n"


def baseline_rows() -> tuple[dict[str, float], list[str]]:
    """Time the roadmap's baseline sizes, one call each, and check every
    answer against its closed form. Returns (metrics in ms, failures)."""
    coins = parse_model(BASELINE_COINS)
    chain = parse_model(_baseline_chain())
    heads = [f"H@c{i}" for i in range(14)]
    # A symmetric chain started uniform stays uniform: p(0@x_k) = 1/2.
    rows = [
        ("baseline.or_chain_n8.prob_ms", prob, coins, par_or(heads[:8]), 1 - HALF**8),
        ("baseline.or_chain_n8.oracle_ms", enumerate_prob, coins, par_or(heads[:8]), 1 - HALF**8),
        ("baseline.or_chain_n8.explain_ms", lambda f, m: prob_explain(f, m)[0], coins,
         par_or(heads[:8]), 1 - HALF**8),
        ("baseline.or_chain_n10.prob_ms", prob, coins, par_or(heads[:10]), 1 - HALF**10),
        ("baseline.or_chain_n10.oracle_ms", enumerate_prob, coins, par_or(heads[:10]),
         1 - HALF**10),
        ("baseline.and_chain_n14.prob_ms", prob, coins, par_and(heads), HALF**14),
        ("baseline.markov_n12.prob_ms", prob, chain, "0@x11", HALF),
        ("baseline.markov_n14.prob_ms", prob, chain, "0@x13", HALF),
    ]
    metrics, failures = {}, []
    for name, fn, model, query, want in rows:
        f = parse_formula(query)
        start = time.perf_counter()
        got = fn(f, model)
        metrics[name] = (time.perf_counter() - start) * 1e3
        if getattr(got, "value", None) != want:
            failures.append(f"{name}: {query} gave {got}, want {want}")
    return metrics, failures
