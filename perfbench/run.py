"""colprob benchmark: one workload, one thread, one client in a closed loop.

    python3 perfbench/run.py --workload corpus|independent|dependent \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; colprob is imported from its ``src/``.
The seed makes the workload's models and requests (see workloads.py).
Every request's expected answer is computed once before timing; then the
client runs whole passes over the request list until ``--seconds`` have
passed (and at least MIN_PASSES passes), checking every answer.

``--trace 0`` reports the end-to-end metrics, their times scaled to a
reference machine speed by calibration units timed between requests
(see speed.py); a report line prints the raw times. ``--trace 1`` alternates
plain passes with traced passes, in which the benchmark records spans
around its calls into each layer and calls each layer's public function
standalone on the same inputs; it reports the per-layer metrics, the
tracing overhead and the baseline rows (see METRICS.md).

Lines before the last are a human-readable report; the last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics. The exit code is 1 when any answer is wrong or any request
raised an unexpected exception, 2 when colprob cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 25
SETUP_UNITS = 20  # calibration units timed before and again after each set-up
MIN_PASSES = 4
# Tail percentiles in tenths of a percent. A workload reports the highest
# one that leaves at least TAIL_MIN_BEYOND samples beyond it in
# MIN_PASSES passes. It is fixed by the request count, not by the run's
# sample count, so a faster program is not measured at a higher percentile.
TAIL_LADDER = (999, 990, 950, 900)
TAIL_MIN_BEYOND = 10


def tail_permille(requests_per_pass: int) -> int:
    for permille in TAIL_LADDER:
        if MIN_PASSES * requests_per_pass * (1000 - permille) >= TAIL_MIN_BEYOND * 1000:
            return permille
    return 500


def measure_setup(texts: list[str]) -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to import colprob and parse the
    workload's models, once per repeat: raw, and scaled to the reference
    speed by the median of the calibration units timed just before and
    just after the interpreter runs.

    The first interpreter is not timed: it may write the bytecode cache
    that an installed package already has, so the timed ones measure
    what a user pays on every start.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        units = [speed.unit_time() for _ in range(SETUP_UNITS)]
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input="\0".join(texts), capture_output=True, text=True, check=True,
            timeout=120, env=env,
        )
        units += [speed.unit_time() for _ in range(SETUP_UNITS)]
        elapsed = float(done.stdout)
        raw.append(elapsed)
        scaled.append(elapsed * speed.REFERENCE_UNIT_S / statistics.median(units))
    return raw[1:], scaled[1:]


def report_line(**fields) -> None:
    print(" ".join(f"{k}={v}" for k, v in fields.items()))


def query_metrics(latencies: list[float], permille: int) -> dict:
    lat = sorted(latencies)
    rank = -(-permille * len(lat) // 1000)
    return {
        "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "query_tail_ms": (lat[rank - 1] * 1e3, "ms"),
        # Closed loop: completed requests per second of request time.
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
    }


def run_plain(loop, seconds: float, texts: list[str]) -> dict:
    raw_setup, setup = measure_setup(texts)
    loop.meter = speed.Meter()
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        loop.one_pass()
        passes += 1
    window = time.perf_counter() - start
    # Read before the scaling below allocates a list as long as the run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    permille = tail_permille(len(loop.requests))
    n = len(loop.latencies)
    beyond = n - -(-permille * n // 1000)
    raw = query_metrics(loop.latencies, permille)
    metrics = query_metrics(loop.meter.scaled(loop.latencies), permille)
    metrics.update({
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })
    units = loop.meter.units
    report_line(passes=passes, samples=n, window_s=f"{window:.2f}",
                tail=f"p{permille / 10:g}", samples_beyond_tail=beyond,
                failed_frac=f"{len(loop.failures) / n:.6g}",
                unit_ms=f"{statistics.median(units) * 1e3:.4f}",
                unit_ms_p10_p90=",".join(f"{q * 1e3:.4f}" for q in
                                         statistics.quantiles(units, n=10)[::8]))
    report_line(raw_p50_ms=f"{raw['query_p50_ms'][0]:.4f}",
                raw_tail_ms=f"{raw['query_tail_ms'][0]:.4f}",
                raw_queries_per_s=f"{raw['queries_per_s'][0]:.4f}",
                raw_setup_s=f"{statistics.median(raw_setup):.4f}",
                setup_samples_s=",".join(f"{s:.4f}" for s in setup))
    return metrics


def run_traced(loop, seconds: float, texts: list[str], models, workload: str, seed: int):
    import layers  # imports colprob, so only after main() has found src/

    overhead, passes = [], []
    tracer = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain = loop.one_pass()
        tracer = layers.Tracer()
        layers.probe_models(tracer, texts, models)
        traced = loop.one_pass(tracer)
        for i, req in enumerate(loop.requests):
            with tracer.span("probes", request=i):
                layers.probe_request(tracer, models[req.model], req)
        overhead += [t - p for t, p in zip(traced, plain)]
        passes.append(tracer.totals())
    baseline, failures = layers.baseline_rows()
    loop.attempted += len(baseline)
    loop.failures += failures

    def med(key: str, scale: float = 1e3) -> float:
        return statistics.median(p.get(key, 0) for p in passes) * scale

    metrics = {
        "parser.parse_formula_us": (
            statistics.median(p["parser.parse_formula"] / p["parser.parse_formula#calls"]
                              for p in passes) * 1e6, "us"),
    }
    metrics.update({f"{span}_ms": (med(span), "ms") for span in layers.TIMED_LAYERS})
    metrics.update({name: (med(name, 1), "count") for name in layers.COUNTERS})
    # Traced minus plain latency of the same request, paired within a cycle.
    metrics["trace.overhead_us"] = (statistics.median(overhead) * 1e6, "us")
    metrics.update({name: (ms, "ms") for name, ms in baseline.items()})

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                      "spans": tracer.spans}))
    ratio = (baseline["baseline.or_chain_n10.prob_ms"]
             / baseline["baseline.or_chain_n10.oracle_ms"])
    report_line(traced_passes=len(passes), trace_file=trace_file.relative_to(HERE.parent),
                overhead_us=f"{metrics['trace.overhead_us'][0]:.1f}",
                or_chain_n10_prob_over_oracle=f"{ratio:.1f}x")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "colprob" / "__init__.py").is_file():
        print(f"error: colprob sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import client  # imports colprob from SRC
    from colprob import SharedExperimentWarning, parse_model

    # The warning repeats with every distinct experiment set and would
    # flood stderr; the warn call itself is still paid.
    warnings.simplefilter("ignore", SharedExperimentWarning)

    wl = WORKLOADS[args.workload](args.seed)
    models = [parse_model(text) for text in wl.models]
    gate_start = time.perf_counter()
    for req in wl.requests:
        client.expect(models[req.model], req)
    report_line(workload=wl.name, seed=args.seed, models=len(wl.models),
                requests_per_pass=len(wl.requests),
                gate_s=f"{time.perf_counter() - gate_start:.3f}")

    loop = client.Loop(models, wl.requests)
    if args.trace:
        metrics = run_traced(loop, args.seconds, wl.models, models, wl.name, args.seed)
    else:
        metrics = run_plain(loop, args.seconds, wl.models)
    for problem in loop.failures[:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if loop.failures else 0


if __name__ == "__main__":
    sys.exit(main())
