"""The walls: queries whose cost once grew exponentially, timed in process,
with every answer checked.

    python3 tools/walls.py [ROW ...]

Run from the root of a checkout. ``colprob`` is imported from ``src/``;
the Markov chain is the ``dependent`` workload's 200-node chain for seed 1,
read from ``perfbench/workloads.py`` (never changed). Each ROW names a row
below; the default is every row. Each row prints one line: its name, the
time ``prob`` takes (the best of three calls, or one call past 2 s), and
how its answer was checked. Every answer is compared with a closed form,
or a recursion along the chain, in Fractions; when the oracle's state
space is at most ORACLE_STATES, with ``enumerate_prob`` too, whose time
for one call is printed beside. The ``mc/`` rows time ``mc_estimate``
instead (SAMPLES), on a marginal near the chain's root and on its last
node, so the sampler's growth with the closure shows; each estimate must
lie within SIGMAS standard errors of the exact marginal. A wrong answer
prints a line starting ``WRONG`` and the exit code is 1.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from math import prod, sqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no caches in perfbench/ or src/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from colprob import (  # noqa: E402
    SampleConfig, ancestral_closure, enumerate_prob, mc_estimate, parse_formula, parse_model, prob)
from colprob.semantics import support  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ORACLE_STATES = 2**18
SAMPLES = SampleConfig(2000, seed=0)
SIGMAS = 6
HALF = Fraction(1, 2)


def chain_model():
    """The chain, and p(x_i..x_j all 1) and p(x_k = 0) by recursion."""
    model = parse_model(WORKLOADS["dependent"](1).models[0])

    def step(i: int, parent: str) -> Fraction:  # p(x_i = 1 | x_{i-1} = parent)
        return model.decl(f"x{i}").cpt[(parent,)].get("1", Fraction(0))

    def marginal(k: int) -> tuple[Fraction, Fraction]:
        one = model.decl("x0").cpt[()].get("1", Fraction(0))
        dist = (1 - one, one)
        for i in range(1, k + 1):
            one = dist[0] * step(i, "0") + dist[1] * step(i, "1")
            dist = (1 - one, one)
        return dist

    def ones(i: int, j: int) -> Fraction:
        return marginal(i)[1] * prod((step(t, "1") for t in range(i + 1, j + 1)), start=1)

    return model, ones, marginal


def rows():
    """(name, query, model, reference) of every row."""
    chain, ones, marginal = chain_model()
    coins = parse_model("".join(f"experiment c{i} : H, T\n" for i in range(200)))

    def atoms(template: str, indices) -> str:
        return " || ".join(template.format(i) for i in indices)

    for n in (14, 200):
        yield f"prefix/n={n}", atoms("0@x{}", range(n)), chain, 1 - ones(0, n - 1)
    for n in (14, 16, 20):  # ~(all heads) holds wherever all tails does
        heads = " && ".join(f"H@c{i}" for i in range(n))
        tails = " && ".join(f"T@c{i}" for i in range(n))
        yield f"complement/n={n}", f"~({heads}) | ({tails})", coins, 1 - HALF**n
    for k in (8, 9, 20, 50):  # p(A && B) = 1 - p(~A) - p(~B) + p(~A && ~B)
        query = f"({atoms('0@x{}', range(k))}) && ({atoms('0@x{}', range(k, 2 * k))})"
        reference = 1 - ones(0, k - 1) - ones(k, 2 * k - 1) + ones(0, 2 * k - 1)
        yield f"two-block/k={k}", query, chain, reference
    for n in (12, 200):
        yield f"coin/n={n}", atoms("H@c{}", range(n)), coins, 1 - HALF**n
    for k in (13, 199):
        yield f"0@x{k}", f"0@x{k}", chain, marginal(k)[0]
    for k in (8, 199):
        yield f"mc/0@x{k}", f"0@x{k}", chain, marginal(k)[0]


def timed(run, calls: int = 3) -> tuple[float, object]:
    """The best time of ``calls`` calls of ``run``, or of one past 2 s,
    and its result."""
    best = None
    for _ in range(calls):
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        if elapsed > 2:
            break
    return best, result


def main(argv: list[str]) -> int:
    table = list(rows())
    unknown = set(argv) - {name for name, *_ in table}
    if unknown:
        print(f"unknown row(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    wrong = 0
    for name, text, model, reference in table:
        if argv and name not in argv:
            continue
        f = parse_formula(text)
        if name.startswith("mc/"):
            seconds, result = timed(lambda: mc_estimate(f, model, SAMPLES))
            sigma = sqrt(reference * (1 - reference) / SAMPLES.sample_count)
            line = (f"{name:<18} mc   {seconds * 1e3:10.2f} ms   estimate "
                    f"{result.estimate:.4f}, exact {float(reference):.4f} ± {sigma:.4f}")
            if abs(result.estimate - reference) > SIGMAS * sigma:
                wrong += 1
                line = f"WRONG {line}: more than {SIGMAS} sigma off"
            print(line, flush=True)
            continue
        seconds, result = timed(lambda: prob(f, model))
        line = f"{name:<18} prob {seconds * 1e3:10.2f} ms"
        answers = [result.value]
        states = prod(len(model.outcomes(e)) for e in ancestral_closure(model, support(f, model)))
        if states <= ORACLE_STATES:
            seconds, oracle = timed(lambda: enumerate_prob(f, model), 1)
            line += f"   oracle {seconds * 1e3:10.2f} ms"
            answers.append(oracle.value)
        if any(answer != reference for answer in answers):
            wrong += 1
            line = f"WRONG {line}: {answers} against {reference}"
        print(line, flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
