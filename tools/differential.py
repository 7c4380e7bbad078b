"""Differential run: every answer, verdict and message of one source tree.

    python3 tools/differential.py TREE OUT

imports ``colprob`` from ``TREE/src`` and writes one line per input to
``OUT``. The inputs come from this checkout and are the same for every
tree, so two runs compare with ``cmp``:

    python3 tools/differential.py /path/to/parent parent.txt
    python3 tools/differential.py . change.txt
    cmp parent.txt change.txt

Inputs: every request of ``perfbench/workloads.py`` ``WORKLOADS[w](1)``
(read, never changed); seeded ``tests/_corpus.py`` models and queries
with explain, oracle and Monte Carlo; both oracles on closures and
sample counts that span several of the oracle's blocks; random and fixed
Bayes partitions under both variants and both parallel forms; model files (``models/``,
one per line kind, parse error and validation issue, and seeded random
ones), each giving every decl's fields, the ParseError's position and
message, or the ModelError's issues; and CLI runs of every subcommand,
bad model files, a byte-order mark and a 1,500-node chain declared child
first among them. A line holds the section, the input and the result, or
the exception's type and text when one escapes.
Stdlib only; the run re-executes itself with PYTHONHASHSEED=0.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CORPUS_MODELS = 240
PARTITIONS = 600
MC_SAMPLES = 300
# Monte Carlo sample counts around the oracle's 256-row blocks.
BLOCK_SAMPLES = (1, 255, 256, 257, 775, 3079)
MODEL_FILE_COUNT = 1000


def attempt(run) -> str:
    try:
        return repr(run())
    except (Exception, SystemExit) as err:  # a message is part of the answer
        return f"{type(err).__name__}: {err}"


def workload_rows(cp, emit) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name in sorted(WORKLOADS):
        wl = WORKLOADS[name](1)
        models = [cp.parse_model(text) for text in wl.models]
        for i, req in enumerate(wl.requests):
            model = models[req.model]
            key = f"{name}#{i} {req.query or req.cells}"
            if req.is_bayes:
                cells = cp.Partition(tuple(cp.parse_formula(c) for c in req.cells))
                evidence = cp.parse_formula(req.evidence)
                emit("workload-bayes", key, attempt(
                    lambda: cp.bayes.posteriors(cells, evidence, model, "parallel")))
                continue
            emit("workload", key, attempt(lambda: cp.cli.run_query(
                model, req.query, explain=req.explain, oracle=req.oracle,
                mc_samples=req.mc_samples, seed=req.mc_seed,
            ).to_json()))


def with_bad_atoms(rng, f, cp, model):
    """``f`` joined by ``&&`` with an unknown outcome and, half the time,
    an unknown experiment on its left, so the leftmost error must win."""
    e = rng.choice(sorted(model.experiments))
    f = cp.ParAnd(f, cp.AtomNode(e, "bogus"))
    return cp.ParAnd(cp.AtomNode("nowhere", "o0"), f) if rng.random() < 0.5 else f


def corpus_rows(cp, corpus, emit) -> None:
    rng = random.Random(20261018)
    for m in range(CORPUS_MODELS):
        model = corpus.random_dag_model(rng) if m % 2 else corpus.random_model(rng)
        for q in range(4):
            f = corpus.random_query(rng, model)
            if q == 3:
                f = with_bad_atoms(rng, f, cp, model)
            key = f"model{m}: {cp.format_formula(f)}"
            emit("prob", key, attempt(lambda: cp.prob(f, model)))
            emit("explain", key, attempt(
                lambda: cp.render_derivation(cp.prob_explain(f, model)[1])))
            emit("oracle", key, attempt(lambda: cp.enumerate_prob(f, model)))
            emit("mc", key, attempt(lambda: cp.mc_estimate(
                f, model, cp.SampleConfig(MC_SAMPLES, seed=m))))
    decls = [cp.ExperimentDecl.uniform(f"e{i}", tuple("0123456789")) for i in range(8)]
    big = cp.Model.of(*decls)
    f = cp.parse_formula(" && ".join(f"0@e{i}" for i in range(8)))
    emit("oracle", "state-space bound", attempt(lambda: cp.enumerate_prob(f, big)))


BLOCK_MODEL = "".join(
    [f"experiment c{i} : H, T\n" for i in range(14)]
    + ["experiment w : " + ", ".join(f"o{i}" for i in range(300)) + "\n",
       "experiment v : a, b\n", "experiment x0 : 0=1/3, 1=2/3\n"]
    + [f"experiment x{i} : 0, 1 depends x{i - 1}\ncpt 0 | x{i - 1}=0 = 3/4\n"
       f"cpt 1 | x{i - 1}=0 = 1/4\ncpt 0 | x{i - 1}=1 = 2/5\ncpt 1 | x{i - 1}=1 = 3/5\n"
       for i in range(1, 12)]
)
CHAIN13 = " || ".join(f"H@c{i}" for i in range(13))
BLOCK_QUERIES = [  # closures of up to 64 blocks; w's indices take two bytes
    CHAIN13,
    f"({CHAIN13}) && (H@c13 | T@c13)",
    f"H@c0 pgiven (({CHAIN13}) && (H@c13 | T@c13))",
    f"({CHAIN13}) && H@c13 given ({CHAIN13}) && (H@c13 | T@c13)",
    "H@c1 pgiven ((H@c0 & T@c0) && (" + " || ".join(f"H@c{i}" for i in range(1, 14)) + "))",
    "o299@w || a@v",
    "o5@w | o7@w",
    "o1@w pgiven (o1@w | o257@w)",
    "~o256@w && (b@v || H@c0 || T@c1)",
    "(o3@w | o259@w) && T@c2 && H@c5 && ~(a@v)",
    "0@x11",
    "1@x3 pgiven 0@x11",
    "(0@x0 || 1@x5 || 0@x11) && ~H@c0",
]


def block_rows(cp, corpus, emit) -> None:
    """The oracles on closures and sample counts that span several blocks:
    enumeration and Monte Carlo on fixed queries (a 300-outcome experiment
    among them), and Monte Carlo on seeded multi-parent corpus queries."""
    model = cp.parse_model(BLOCK_MODEL)
    cases = [(f"blocks: {q}", model, cp.parse_formula(q)) for q in BLOCK_QUERIES]
    for name, model, f in cases:
        emit("oracle-blocks", name, attempt(lambda: cp.enumerate_prob(f, model)))
    rng = random.Random(7331)
    for m in range(40):
        dag = corpus.random_dag_model(rng)
        f = corpus.random_query(rng, dag)
        cases.append((f"dag{m}: {cp.format_formula(f)}", dag, f))
    for name, model, f in cases:
        for samples in BLOCK_SAMPLES:
            cfg = cp.SampleConfig(samples, seed=rng.randrange(2**64))
            emit("mc-blocks", f"{name} n={samples}",
                 attempt(lambda: cp.mc_estimate(f, model, cfg)))


FIXED_PARTITIONS = [
    ("examples", ["H@c", "T@c"], "H@c"),
    ("examples", ["H@c", "H@c"], "H@c"),
    ("examples", ["1@d | 2@d", "2@d | 3@d", "3@d | 4@d"], "1@d"),
    ("examples", ["4@d", "~4@d"], "3@d | 4@d"),
    ("examples", ["H@c1 && H@c2", "T@c1", "H@c1 && T@c2"], "H@c2"),
    ("examples", ["H@c1 && H@c2", "H@c2", "T@c2"], "H@c1"),
    ("examples", ["H@c", "H@d", "H@c | T@d"], "H@c"),
    ("examples", ["H@c", "T@c", "1@d"], "H@c"),
    ("examples", ["H@c given (H@c & T@c)", "T@c"], "H@c"),
    ("examples", ["H@c given 1@d", "T@c"], "H@c"),
    ("examples", ["T@c", "H@c pgiven H@c"], "H@c"),
    ("examples", ["H@c", "T@c"], "H@c & T@c"),
    ("examples", ["H@c", "T@c"], "H@c | 1@d"),
    ("examples", ["H@c", "bogus@c"], "H@c"),
    ("channel", ["0@T", "1@T"], "0@R"),
    ("channel", ["0@T", "1@T"], "0@R pgiven 0@T"),
    ("dice", ["1@d", "2@d", "3@d"], "1@d | 2@d"),
]


def partition_rows(cp, corpus, emit) -> None:
    named = {n: cp.parse_model((ROOT / "models" / f"{n}.colp").read_text())
             for n in ("examples", "channel", "dice")}
    cases = [(named[m], m, cells, ev) for m, cells, ev in FIXED_PARTITIONS]
    rng = random.Random(4149)
    for n in range(PARTITIONS):
        model = corpus.random_dag_model(rng) if n % 2 else corpus.random_model(rng)
        if rng.random() < 0.5:  # over one experiment, so mostly one support
            e = rng.choice(sorted(model.experiments))
            cells = [corpus.random_formula(rng, model, 2, e) for _ in range(rng.randint(2, 4))]
        else:
            cells = [corpus.random_query(rng, model, 3) for _ in range(rng.randint(2, 4))]
        evidence = corpus.random_formula(rng, model, 2)
        cases.append((model, f"random{n}", [cp.format_formula(c) for c in cells],
                      cp.format_formula(evidence)))
    for model, name, texts, ev in cases:
        key = f"{name}: [{', '.join(texts)}] {ev}"
        cells = cp.Partition(tuple(cp.parse_formula(t) for t in texts))
        evidence = cp.parse_formula(ev)
        for variant in ("additive", "parallel"):
            emit(f"check-{variant}", key, attempt(
                lambda: cp.check_partition(cells, model, variant)))
            emit(f"posteriors-{variant}", key, attempt(
                lambda: cp.bayes.posteriors(cells, evidence, model, variant)))
        emit("prior-likelihood", key, attempt(
            lambda: cp.bayes_parallel(cells, evidence, model, "prior-likelihood")))


CHANNEL_ROWS = "cpt 0 | T=0 = 9/10\ncpt 1 | T=0 = 1/10\ncpt 0 | T=1 = 1/10\ncpt 1 | T=1 = 9/10\n"
CHANNEL = "experiment T : 0, 1\nexperiment R : 0, 1 depends T\n" + CHANNEL_ROWS
# One model file per line kind, parse error and validation issue.
MODEL_FILES = {
    "uniform": "experiment c : H, T",
    "weighted": "experiment d : 1=1/6, 2=1/3, 3=1/2",
    "predicate": "predicate alien = 1/1000",
    "dependent": CHANNEL,
    "two-parents": "experiment a : 0, 1\nexperiment b : x, y\nexperiment r : 0, 1 depends a, b\n"
    + "".join(f"cpt {o} | b={q}, a={p} = 1/2\n" for p in "01" for q in "xy" for o in "01"),
    "child-first": "experiment R : 0, 1 depends T\n" + CHANNEL_ROWS + "experiment T : 0, 1\n",
    "whitespace": "  # header\n\n\texperiment   c :H,T   # coin\nexperiment d: 1 = 1 / 2 ,2=1/2\n"
    "predicate\tp=1/3 # sugar\n",
    "empty": "",
    "comments-only": "# nothing\n   # here\n",
    "no-colon": "experiment c H, T",
    "bad-id": "experiment 1c : H, T",
    "bad-outcome": "experiment c : H!, T",
    "bad-parent": "experiment T : 0, 1\nexperiment R : 0, 1 depends T, 2x\n",
    "bad-predicate-id": "predicate Alien! = 1/2",
    "reserved-id": "experiment given : a, b",
    "reserved-outcome": "experiment c : pgiven, b",
    "depends-nothing": "experiment R : 0, 1 depends",
    "no-outcomes": "experiment c :",
    "mixed-weights": "experiment c : H=1/2, T",
    "weighted-dependent": "experiment T : 0, 1\nexperiment R : 0=1/2, 1=1/2 depends T\n",
    "duplicate-weighted-outcome": "experiment d : 1=1/2, 2=1/4, 1=1/4",
    "malformed-rational": "experiment c : H=1/2/3, T=1/2",
    "zero-denominator": "predicate p = 1/0",
    "too-many-digits": "predicate p = " + "9" * 5000,
    "negative-rational": "predicate p = -1/2",
    "cpt-first": "cpt 0 | T=0 = 1/2\nexperiment T : 0, 1\n",
    "cpt-after-uniform": "experiment T : 0, 1\ncpt 0 | T=0 = 1/2\n",
    "cpt-after-predicate": "experiment T : 0, 1\nexperiment R : 0, 1 depends T\n"
    "predicate p = 1/2\ncpt 0 | T=0 = 1/2\n",
    "cpt-no-bar": CHANNEL + "cpt 0 T=0 = 1/2\n",
    "cpt-no-weight": CHANNEL + "cpt 0 | T=0\n",
    "cpt-bad-assignment": CHANNEL + "cpt 0 | T 0 = 1/2\n",
    "cpt-missing-parent": "experiment a : 0, 1\nexperiment b : 0, 1\n"
    "experiment r : 0, 1 depends a, b\ncpt 0 | a=0 = 1/2\n",
    "cpt-extra-parent": CHANNEL + "cpt 0 | T=0, S=1 = 1/2\n",
    "cpt-duplicate-entry": CHANNEL + "cpt 0 | T=0 = 9/10\n",
    "predicate-no-weight": "predicate p 1/2",
    "duplicate-id": "experiment c : H, T\npredicate c = 1/2\n",
    "unknown-word": "experimnt c : H, T",
    "duplicate-outcomes": "experiment c : H, T, H",
    "duplicate-parent": "experiment T : 0, 1\nexperiment R : 0, 1 depends T, T\n",
    "unknown-parent": "experiment R : 0, 1 depends Z\ncpt 0 | Z=0 = 1\n",
    "impossible-row": CHANNEL + "cpt 0 | T=2 = 1\n",
    "missing-row": "experiment T : 0, 1\nexperiment R : 0, 1 depends T\ncpt 0 | T=0 = 1\n",
    "no-rows": "experiment T : 0, 1\nexperiment R : 0, 1 depends T\n",
    "unknown-cpt-outcome": "experiment T : 0, 1\nexperiment R : 0, 1 depends T\n"
    "cpt 0 | T=0 = 1\ncpt 7 | T=1 = 1\n",
    "out-of-range": "experiment c : H=3/2, T=-1/2",
    "bad-sum": "experiment d : 1=1/6, 2=1/6, 3=1/6, 4=1/6, 5=1/6",
    "self-loop": "experiment s : 0, 1 depends s\ncpt 0 | s=0 = 1\ncpt 0 | s=1 = 1\n",
    "one-cycle": "experiment R : 0, 1 depends T\n" + CHANNEL_ROWS
    + "experiment T : 0, 1 depends R\n" + CHANNEL_ROWS.replace("T=", "R="),
    "cycles": "".join(  # two disjoint cycles, then one reached through a tail
        f"experiment {c} : 0, 1 depends {p}\ncpt 0 | {p}=0 = 1\ncpt 0 | {p}=1 = 1\n"
        for c, p in ("ab", "ba", "xy", "yx", "tu", "uv", "vu")
    ),
}


def random_model_file(rng) -> str:
    """A seeded model file over up to five experiments: every line kind,
    declarations in any order, now and then a cycle, at most one faulty
    row or corrupted line, and random spacing and comments."""
    names = [f"e{i}" for i in range(rng.randint(1, 5))]
    kinds = {e: rng.choice(("uniform", "weighted", "predicate", "dependent", "dependent"))
             for e in names}
    outcomes = {e: ["true", "false"] if kinds[e] == "predicate"
                else [str(o) for o in range(rng.randint(1, 3))] for e in names}
    cyclic = rng.random() < 0.15  # parents drawn from every experiment, itself included
    blocks = []
    for i, e in enumerate(names):
        outs, pool = outcomes[e], names if cyclic else names[:i]
        if kinds[e] == "predicate":
            blocks.append([f"predicate {e} = {rng.randint(0, 3 + (rng.random() < 0.1))}/3"])
        elif kinds[e] == "weighted":
            ws = [rng.randint(0, 3) for _ in outs]
            total = sum(ws) or 1
            ws[0] += rng.random() < 0.1  # a bad sum
            blocks.append([f"experiment {e} : "
                           + ", ".join(f"{o}={w}/{total}" for o, w in zip(outs, ws))])
        elif kinds[e] == "uniform" or not pool:
            blocks.append([f"experiment {e} : {', '.join(outs)}"])
        else:
            parents = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            block = [f"experiment {e} : {', '.join(outs)} depends {', '.join(parents)}"]
            for combo in itertools.product(*(outcomes[p] for p in parents)):
                pairs = [f"{p}={v}" for p, v in zip(parents, combo)]
                for o in outs:
                    rng.shuffle(pairs)
                    block.append(f"cpt {o} | {', '.join(pairs)} = 1/{len(outs)}")
            blocks.append(block)
    rng.shuffle(blocks)
    lines = [line for block in blocks for line in block]
    rows = [i for i, line in enumerate(lines) if line.startswith("cpt")]
    fault = rng.choice([None] * 6 + ["corrupt"] * 2 + ["missing", "impossible", "non-parent",
                       "unassigned", "unknown-outcome", "duplicate", "misplaced"] * bool(rows))
    i = rng.choice(rows) if rows and fault != "corrupt" else rng.randrange(len(lines))
    if fault == "corrupt":
        at = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:at] + rng.choice(":,=|/#@!- ") + lines[i][at + 1:]
    elif fault == "missing":
        del lines[i]
    elif fault == "impossible":
        lines[i] = re.sub(r"=\w+", "=9", lines[i], count=1)
    elif fault == "non-parent":
        lines[i] = lines[i].replace("| ", "| zz=0, ")
    elif fault == "unassigned":
        lines[i] = re.sub(r"\| \w+=\w+,? ?", "| ", lines[i], count=1)
    elif fault == "unknown-outcome":
        lines[i] = "cpt 7" + lines[i][5:]
    elif fault == "duplicate":
        lines.insert(i, lines[i])
    elif fault == "misplaced":
        lines.insert(rng.randrange(len(lines)), lines.pop(i))
    text = []
    for line in lines:
        if rng.random() < 0.2:
            line = line.replace(" ", rng.choice(("  ", "\t", " \t ")))
        if rng.random() < 0.1:
            line = line.replace(", ", ",").replace(" = ", "=")
        if rng.random() < 0.1:
            line += "  # note"
        if rng.random() < 0.1:
            text.append(rng.choice(("", "# comment", "   ")))
        text.append(line)
    return "\n".join(text) + rng.choice(("", "\n"))


def model_file_rows(cp, emit) -> None:
    """Every decl's fields, the ParseError's position and message, or the
    ModelError's issues, for each model file."""
    def parsed(text):
        try:
            model = cp.parse_model(text)
        except cp.ParseError as err:
            return f"ParseError {err.line}:{err.column} {err.message!r} {err.expected!r}"
        except cp.ModelError as err:
            return f"ModelError {err.issues!r}"
        return repr([(d.name, d.outcomes, d.parents, d.cpt, d.is_predicate)
                     for d in model.experiments.values()])

    cases = [(f"models/{p.name}", p.read_text()) for p in sorted((ROOT / "models").glob("*.colp"))]
    cases += MODEL_FILES.items()
    rng = random.Random(8081)
    cases += [(f"random{n}", random_model_file(rng)) for n in range(MODEL_FILE_COUNT)]
    for name, text in cases:
        emit("model-file", f"{name} {text!r}"[:2000], attempt(lambda: parsed(text)))


CLI_FILES = {  # beside models/*.colp; the child-first chain is added in cli_rows
    "non-utf8.colp": b"experiment c : H, T\xff\n",
    "long-rational.colp": b"experiment c : H=" + b"1" * 5000 + b", T=1\n",
    "bad-sum.colp": b"experiment d : 1=1/6, 2=1/6, 3=1/6, 4=1/6, 5=1/6\n",
    "bad-syntax.colp": b"experiment c H, T\n",
    "zero-den.colp": b"experiment c : H=1/0, T=1\n",
    "bom.colp": b"\xef\xbb\xbfexperiment c : H, T\n",
}
REPL_SCRIPT = (
    "4@d | 5@d\nH@c1 | T@c2\n4@d |\nH@zzz\n:space (3@d | 4@d) & 4@d\n:space H@c & T@c\n"
    ":explain 6@d1 || 6@d2\n:bayes additive [1@d, 2@d] 1@d | 2@d | 3@d\n"
    ":bayes parallel [H@c, H@c] H@c\n:bayes nope [H@c] H@c\n:bogus\n"
    + "~" * 3000 + "H@c\n:quit\n"
)


def cli_cases():
    models = [f"models/{n}.colp" for n in ("examples", "channel", "dice", "coin")]
    models += sorted(CLI_FILES) + ["chain.colp", "missing.colp"]
    for model in models:
        yield ["check", "--model", model], ""
        yield ["repl", "--model", model], REPL_SCRIPT
        yield ["eval", "--model", model, "--query", "H@c"], ""
        yield ["bayes", "--model", model, "--variant", "additive",
               "--cell", "H@c", "--cell", "T@c", "--evidence", "H@c"], ""
    yield ["eval", "--model", "chain.colp", "--query", "0@x1499"], ""
    ex = "models/examples.colp"
    for query in ("4@d | 5@d", "H@c1 | T@c2", "4@d |", "H@c given (H@c & T@c)",
                  "(6@d1 && 5@d2 | 6@d2 && 5@d1) given (6@d1 || 6@d2)",
                  "~" * 3000 + "H@c", " && ".join(["alien"] * 300)):
        for flags in ([], ["--explain"], ["--json", "--explain", "--oracle"],
                      ["--mc-samples", "500", "--seed", "3"], ["--mc-samples", "0"]):
            yield ["eval", "--model", ex, "--query", query, *flags], ""
    for variant in ("additive", "parallel"):
        for cells, ev in ((["0@T", "1@T"], "0@R"), (["0@T", "0@T"], "0@R"),
                          (["0@T"], "0@R"), (["0@T", "1@T"], "0@T")):
            for json_flag in ([], ["--json"]):
                yield ["bayes", "--model", "models/channel.colp", "--variant", variant,
                       *(a for c in cells for a in ("--cell", c)),
                       "--evidence", ev, *json_flag], ""


def cli_rows(cp, corpus, emit) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.symlink(ROOT / "models", "models")
        for name, content in CLI_FILES.items():
            Path(name).write_bytes(content)
        Path("chain.colp").write_text(corpus.child_first_chain(1500))
        for argv, stdin in cli_cases():
            out, err = io.StringIO(), io.StringIO()
            sys.stdin = io.StringIO(stdin)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = attempt(lambda: cp.cli.main(argv))
            emit("cli", repr(argv)[:300], f"{code} {out.getvalue()!r} {err.getvalue()!r}")
        os.chdir(ROOT)
    sys.stdin = sys.__stdin__


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    tree, out_path = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.dont_write_bytecode = True  # leave no __pycache__ in either tree
    sys.path[:0] = [str(tree / "src"), str(ROOT / "tests")]
    import colprob as cp
    import colprob.cli  # noqa: F401  (cp.cli)
    import _corpus as corpus

    warnings.simplefilter("ignore")
    counts: dict[str, int] = {}
    with open(out_path, "w", encoding="utf-8") as out:
        def emit(section: str, key: str, result: str) -> None:
            counts[section] = counts.get(section, 0) + 1
            out.write(f"{section}\t{key}\t{result}".replace("\n", "\\n") + "\n")

        workload_rows(cp, emit)
        corpus_rows(cp, corpus, emit)
        block_rows(cp, corpus, emit)
        partition_rows(cp, corpus, emit)
        model_file_rows(cp, emit)
        cli_rows(cp, corpus, emit)
    print(f"{sum(counts.values())} rows: "
          + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
