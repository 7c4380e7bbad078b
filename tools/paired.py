"""Per-request A/B of two source trees in one process.

    python3 tools/paired.py PARENT CHANGE --workload corpus|independent|dependent \\
        [--rounds N] [--families]

Run from the root of a checkout. The tool imports ``colprob`` from
``PARENT/src`` and again from ``CHANGE/src``, each with its own copy of
this checkout's ``perfbench/client.py``, and builds the workload's seed-1
requests from ``perfbench/workloads.py`` (read, never changed). It checks
every answer of both trees with ``client.check`` and exits 1 on a wrong
one. After one untimed pass per tree it times each request on both trees,
alternating which tree goes first, for ``--rounds`` rounds, and prints
the median over requests of each request's change/parent time ratio and
the time-weighted ratio (the change's total time over the parent's);
``--families`` adds the time-weighted ratio of each request family.

Both trees meet the same machine noise within a few microseconds of
each other, so the ratios size a change of a few percent that separate
benchmark runs on a machine whose speed swings cannot. The benchmark's
own runs (``perfbench/run.py``) stay the verdict.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no caches in perfbench/ or either tree
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def load(tree: Path):
    """``perfbench/client.py`` bound to the ``colprob`` of ``tree/src``.
    Its modules leave ``sys.modules`` afterwards, so the next tree's
    import loads fresh ones; each module keeps the names it imported."""
    sys.path.insert(0, str(tree / "src"))
    try:
        client = importlib.import_module("client")
        colprob = importlib.import_module("colprob")
        warnings.simplefilter("ignore", colprob.SharedExperimentWarning)
    finally:
        sys.path.remove(str(tree / "src"))
        for name in [n for n in sys.modules if n == "client" or n.split(".")[0] == "colprob"]:
            del sys.modules[name]
    return client, colprob


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--families", action="store_true",
                        help="also print the time-weighted ratio of each family")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    workload = WORKLOADS[args.workload](SEED)
    trees = []
    for path in (args.parent, args.change):
        client, colprob = load(path.resolve())
        trees.append((client, [colprob.parse_model(text) for text in workload.models]))
    requests = workload.requests
    for req in requests:
        trees[0][0].expect(trees[0][1][req.model], req)

    for side, (client, models) in zip(("parent", "change"), trees):  # the untimed pass
        for i, req in enumerate(requests):
            problem = client.check(req, client.execute(models[req.model], req))
            if problem is not None:
                print(f"{side}: {req.family} #{i}: {problem}", file=sys.stderr)
                return 1

    times = [[0.0] * len(requests), [0.0] * len(requests)]
    for r in range(args.rounds):
        for i, req in enumerate(requests):
            for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                client, models = trees[side]
                start = time.perf_counter()
                got = client.execute(models[req.model], req)
                times[side][i] += time.perf_counter() - start
                problem = client.check(req, got)
                if problem is not None:
                    print(f"{('parent', 'change')[side]}: {req.family} #{i}: {problem}",
                          file=sys.stderr)
                    return 1

    parent, change = times
    print(f"{args.workload}: {len(requests)} requests, {args.rounds} rounds")
    print(f"median per-request ratio (change/parent): "
          f"{statistics.median(c / p for p, c in zip(parent, change)):.3f}")
    print(f"time-weighted ratio (change/parent): {sum(change) / sum(parent):.3f}")
    if args.families:
        totals: dict[str, list[float]] = {}
        for req, p, c in zip(requests, parent, change):
            total = totals.setdefault(req.family, [0.0, 0.0])
            total[0] += p
            total[1] += c
        for family, (p, c) in sorted(totals.items()):
            print(f"  {family:<40} {c / p:.3f}  ({p * 1e3:.1f} ms parent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
