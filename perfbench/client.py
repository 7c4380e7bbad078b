"""The closed-loop client: compute expected answers, execute requests in
passes, and check every rendered answer.

A request costs what the CLI pays per query once its model is loaded:
``run_query`` plus ``QueryOutput.to_json`` for ``eval``, and the partition
check, parallel posteriors and JSON payload of ``colprob bayes --variant
parallel --json``. A ``ColprobError`` is a result (the CLI prints it and
exits 1); any other exception is a failure.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
import traceback
from array import array

from colprob import (
    ColprobError,
    Determined,
    NullConditionError,
    ParAnd,
    Partition,
    bayes_parallel,
    check_partition,
    enumerate_prob,
    format_formula,
    parse_formula,
)
from colprob.cli import decimal4, fraction_pq, run_query

from workloads import UNDETERMINED, Request, value

MC_TOLERANCE_SIGMAS = 6

_OFF = contextlib.nullcontext()


def _untraced(name: str):
    return _OFF


def execute(model, req: Request, span=_untraced):
    """Run one request; returns its JSON text or the ColprobError raised."""
    try:
        if req.is_bayes:
            with span("cli.bayes"):
                cells = [parse_formula(c) for c in req.cells]
                partition = Partition(tuple(cells))
                report = check_partition(partition, model, "parallel")
                posteriors = bayes_parallel(partition, parse_formula(req.evidence), model)
            with span("cli.render"):
                return json.dumps({
                    "variant": "parallel",
                    "evidence": req.evidence,
                    "partition": {
                        "disjoint": report.ok,
                        "exhaustive": report.exhaustive,
                        "total": fraction_pq(report.total),
                    },
                    "posteriors": [
                        {"cell": format_formula(c), "value": fraction_pq(v),
                         "decimal": decimal4(v)}
                        for c, v in zip(cells, posteriors)
                    ],
                })
        with span("cli.run_query"):
            out = run_query(
                model, req.query, explain=req.explain, oracle=req.oracle,
                mc_samples=req.mc_samples, seed=req.mc_seed,
            )
        with span("cli.render"):
            return out.to_json()
    except ColprobError as err:
        return err


def expect(model, req: Request) -> None:
    """Fill ``req.expected`` from the brute-force oracle unless the
    generator already gave a closed form. Runs once per distinct request,
    before timing."""
    if req.expected is None:
        try:
            req.expected = _oracle_expectation(model, req)
        except NullConditionError:
            req.expected = ("error", "NullConditionError")
        except Exception as err:  # the oracle itself failed: every run of req fails
            req.expected = ("gate-error", f"{type(err).__name__}: {err}")
    if req.mc_samples is not None and req.expected[0] != "value":
        req.mc_samples = None  # only determined values can be sampled


def _oracle_expectation(model, req: Request) -> tuple:
    if not req.is_bayes:
        result = enumerate_prob(parse_formula(req.query), model)
        return value(result.value) if isinstance(result, Determined) else UNDETERMINED
    evidence = parse_formula(req.evidence)
    weights = []
    for cell in req.cells:
        joint = enumerate_prob(ParAnd(parse_formula(cell), evidence), model)
        if not isinstance(joint, Determined):
            return ("error", "PartitionError")
        weights.append(joint.value)
    total = sum(weights)
    if total == 0:
        return ("error", "PartitionError")
    return ("posteriors", tuple(w / total for w in weights))


def check(req: Request, got) -> str | None:
    """None when ``got`` (JSON text or a ColprobError) is right for ``req``,
    else a one-line description of the mismatch."""
    kind, want = req.expected
    if isinstance(got, BaseException) or kind in ("error", "gate-error"):
        if kind == "error" and isinstance(got, ColprobError) and type(got).__name__ == want:
            return None
        return f"expected {kind} {want}, got {got!r}"[:300]
    payload = json.loads(got)
    if req.is_bayes:
        part = payload["partition"]
        values = [p["value"] for p in payload["posteriors"]]
        if kind != "posteriors" or values != [fraction_pq(v) for v in want]:
            return f"posteriors {values}, want {kind} {want}"[:300]
        if not (part["disjoint"] and part["exhaustive"] and part["total"] == "1/1"):
            return f"partition report {part}, want disjoint and exhaustive"
        return None
    status = "determined" if kind == "value" else "undetermined"
    shown = fraction_pq(want) if kind == "value" else None
    if payload["status"] != status or payload["value"] != shown:
        return f"{payload['status']} {payload['value']}, want {status} {shown}"
    if req.oracle and payload["oracle"] != {"status": status, "value": shown, "agrees": True}:
        return f"oracle {payload['oracle']}, want {status} {shown}"
    if req.explain and (payload["derivation"] or {}).get("value", "missing") != shown:
        return f"derivation root {payload['derivation']}, want {shown}"
    if req.mc_samples is not None:
        mc = payload["mc"]
        n, p = req.mc_samples, want
        tolerance = MC_TOLERANCE_SIGMAS * math.sqrt(p * (1 - p) / n) + 1 / n
        if mc["samples"] != n or abs(mc["estimate"] - float(p)) > tolerance:
            return f"mc {mc}, want {float(p):.6g} within {tolerance:.3g}"
    return None


class Loop:
    """One client running whole passes over the request list; keeps every
    latency and every failure."""

    def __init__(self, models, requests):
        self.models = models
        self.requests = requests
        self.meter = None  # a speed.Meter times units between untraced requests
        # Compact, so the process's peak RSS does not grow with the pass count.
        self.latencies = array("d")
        self.failures: list[str] = []
        self.attempted = 0

    def one_pass(self, tracer=None) -> list[float]:
        lat = []
        for i, req in enumerate(self.requests):
            model = self.models[req.model]
            if tracer is None:
                if self.meter is not None:
                    self.meter.before_request()
                start = time.perf_counter()
                got, crash = self._execute(model, req)
                lat.append(time.perf_counter() - start)
            else:
                with tracer.span("request", request=i):
                    start = time.perf_counter()
                    got, crash = self._execute(model, req, tracer.span)
                    lat.append(time.perf_counter() - start)
            problem = crash or check(req, got)
            if problem is not None:
                self.failures.append(f"{req.family} #{i}: {problem}")
        self.latencies.extend(lat)
        self.attempted += len(lat)
        return lat

    def _execute(self, model, req, *span):
        try:
            return execute(model, req, *span), None
        except Exception:  # an unexpected exception is a failed request
            return None, traceback.format_exc(limit=3).replace("\n", " | ")
