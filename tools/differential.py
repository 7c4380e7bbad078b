"""Differential run: every answer, verdict and message of one source tree.

    python3 tools/differential.py TREE OUT
    python3 tools/differential.py --check tools/differential.sha256

The first form imports ``colprob`` from ``TREE/src``, writes one line per
input to ``OUT`` and prints one ``section rows sha256`` line per section:
its row count and the sha256 of its lines. The inputs come from this
checkout and are the same for every tree, so two runs compare with
``cmp``:

    python3 tools/differential.py /path/to/parent parent.txt
    python3 tools/differential.py . change.txt
    cmp parent.txt change.txt

The second form runs this checkout, writes no rows, and compares its
sections with the digest file, which the first form's output of a
trusted tree makes (``python3 tools/differential.py . rows.txt >
tools/differential.sha256``). It names each section that differs and
exits 1 if any does.

Inputs: every request of ``perfbench/workloads.py`` ``WORKLOADS[w](1)``
(read, never changed); formula texts for the parser alone (seeded fuzz
strings, joins of grammar fragments and printed random ASTs), each
giving the printed formula or the ParseError's position, message and
expected token; seeded ``tests/_corpus.py`` models and queries
with explain, oracle and Monte Carlo, and the experiments that the
shared-experiment warnings of ``prob``, ``prob_explain`` and ``denote``
name on each of them that returns a value or a verdict; the event space
and the set normal form that ``denote`` gives each of those queries that
has no conditional; both oracles on closures and
sample counts that span several of the oracle's blocks, and the point
count and a sha256 of the space of each such query that is determined
and has no conditional; exact values
over cpts with awkward denominators (coprime and large lcms, rows over
different denominators, omitted outcomes, 300 outcomes), over random
spaces on seeded Bayes-net models, long chains and a 10-cause noisy-OR;
values, explanations and enumerations on noisy-OR models (one whose
cpt is perturbed so that it does not factor, one with a zero leak and
inhibitors of 0 and 1, one with 3-valued causes), on both conditionals
of a chain and on conditions of zero mass, and Monte Carlo on the
10-cause noisy-OR at sample counts around the oracle's blocks;
values and explanations of ``&&`` chains of 200 and 600 terms and ``||``
chains of 12, 40 and 190 over distinct coins, at the default recursion
limit, and of ``||`` over a Markov chain's prefixes and beside a child
of a coin, the verdict or error of chains where an undetermined choice meets
an unknown atom or an embedded conditional on either side, and the
experiments that the shared-experiment warnings name on 50-term chains;
random and fixed Bayes partitions under both
variants and both parallel forms, and a Bayes section: the k-bit noisy
channel at k = 3..7, overlapping partitions (zero-weight overlaps among
them), evidence independent of the cells and cells over mixed supports
(geometric coin partitions of 4 to 12 cells among them);
the order of closures and name sets over seeded random graphs (cycles
and parents left out of the set among them) and every marginal of a
diamond; model files (``models/``, one per line
kind, parse error and validation issue, and seeded random ones), each
giving every decl's fields, the ParseError's position and message, or
the ModelError's issues; and CLI runs of every subcommand,
bad model files, a byte-order mark and a 1,500-node chain declared child
first among them. A line holds the section, the input and the result, or
the exception's type and text when one escapes; a partition report's
support is printed sorted.
Stdlib only; the run re-executes itself with PYTHONHASHSEED=0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import re
import string
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

CORPUS_MODELS = 240
PARTITIONS = 600
MC_SAMPLES = 300
# Monte Carlo sample counts around the oracle's 256-row blocks.
BLOCK_SAMPLES = (1, 255, 256, 257, 775, 3079)
MODEL_FILE_COUNT = 1000


def sorted_support(result):
    """A PartitionReport, or ``posteriors``' (report, posteriors), with the
    report's support as a sorted tuple: a frozenset prints its names in the
    order they were added, which is no part of the answer."""
    if isinstance(result, tuple):
        return sorted_support(result[0]), result[1]
    if result.support is None:
        return result
    return type(result)(result.ok, result.violations, result.exhaustive, result.total,
                        tuple(sorted(result.support)))


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


PARSE_ALPHABET = string.ascii_letters + string.digits + "@~&|() #pgiven\t\n\r/=_$é"
# Grammar fragments that fit an operand position and ones that fit an
# operator position; an operand comes next after an opener. A join
# mostly puts each fragment where it fits.
OPERANDS = ("H@c", "4@d", "T@c1", "alien", "~", "(")
OPERATORS = ("&", "&&", "|", "||", "given", "pgiven", ")")
OPENERS = {"~", "(", "&", "&&", "|", "||", "given", "pgiven"}
MISFITS = ("H", "7", "@", "c", "\n", "# note\n", "")


def fragment_join(rng) -> str:
    parts, operand = [], True
    for _ in range(rng.randint(1, 24)):
        pool = OPERANDS if operand else OPERATORS
        part = rng.choice(pool if rng.random() < 0.9 else OPERANDS + OPERATORS + MISFITS)
        parts.append(part + rng.choice(("", " ")))
        operand = part in OPENERS
    return "".join(parts)


def parse_rows(cp, corpus, emit) -> None:
    """The printed formula (the printer is injective) or the ParseError's
    fields for each text; none nests deeper than a recursive parser
    reaches at the default recursion limit."""
    def parsed(text):
        try:
            return cp.format_formula(cp.parse_formula(text))
        except cp.ParseError as err:
            return f"ParseError {err.line}:{err.column} {err.message!r} {err.expected!r}"

    rng = random.Random(1961)
    texts = ["".join(rng.choice(PARSE_ALPHABET) for _ in range(rng.randint(0, 40)))
             for _ in range(4000)]
    texts += [fragment_join(rng) for _ in range(8000)]
    texts += [cp.format_formula(corpus.random_ast(rng, depth=6)) for _ in range(2000)]
    for text in texts:
        emit("parse", repr(text), attempt(lambda: parsed(text)))


SHARED = re.compile(r"shared experiment\(s\) \{([^}]*)\}")


def shared_named(cp, run) -> str | None:
    """The sorted experiments that the shared-experiment warnings name
    while ``run`` returns, however many warnings name them; None when it
    raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run()
        except Exception:
            return None
    named = set()
    for w in caught:
        if issubclass(w.category, cp.SharedExperimentWarning):
            named.update(SHARED.search(str(w.message)).group(1).split(", "))
    return repr(sorted(named))


def with_bad_atoms(rng, f, cp, model):
    """``f`` joined by ``&&`` with an unknown outcome and, half the time,
    an unknown experiment on its left, so the leftmost error must win."""
    e = rng.choice(sorted(model.experiments))
    f = cp.ParAnd(f, cp.AtomNode(e, "bogus"))
    return cp.ParAnd(cp.AtomNode("nowhere", "o0"), f) if rng.random() < 0.5 else f


def has_conditional(text: str) -> bool:
    return " given " in text or " pgiven " in text


def denoted(cp, f, model) -> str:
    """The space ``denote`` gives ``f`` and its set normal form, or the
    verdict."""
    space = cp.denote(f, model)
    if isinstance(space, cp.Undetermined):
        return repr(space)
    try:
        snf = cp.format_formula(cp.to_set_normal_form(space))
    except cp.EmptySpaceError as err:
        snf = f"EmptySpaceError: {err}"
    return f"{space} {snf}"


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
            if not has_conditional(key):
                emit("denote", key, attempt(lambda: denoted(cp, f, model)))
            for name, run in (("prob", cp.prob), ("explain", cp.prob_explain),
                              ("denote", cp.denote)):
                named = shared_named(cp, lambda: run(f, model))
                if named is not None:
                    emit("warnings", f"{key} {name}", named)
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
    among them), and Monte Carlo on seeded multi-parent corpus queries;
    and the size and a digest of each fixed query's space."""
    model = cp.parse_model(BLOCK_MODEL)
    cases = [(f"blocks: {q}", model, cp.parse_formula(q)) for q in BLOCK_QUERIES]
    for name, model, f in cases:
        emit("oracle-blocks", name, attempt(lambda: cp.enumerate_prob(f, model)))
        if not has_conditional(name):
            emit("denote-blocks", name, attempt(lambda: space_digest(cp.denote(f, model))))
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


def space_digest(space) -> str:
    text = str(space).encode()
    return f"{len(space.points)} point(s) sha256 {hashlib.sha256(text).hexdigest()}"


def space_prob_rows(cp, corpus, emit) -> None:
    """Values read off event spaces by variable elimination: random spaces
    and fixed queries on the integer-scaling models, random spaces on
    seeded Bayes-net models (multi-parent experiments, supports that use
    only some outcomes of an experiment), marginals of child-first chains,
    and both conditionals of a 10-cause noisy-OR."""
    rng = random.Random(5150)
    for name, (text, queries) in sorted(corpus.SCALING_MODELS.items()):
        model = cp.parse_model(text)
        for k in range(20):
            space = corpus.random_space(rng, model, max_support=2)
            key = f"{name} space{k}: {sorted(space.support)} {len(space.points)} point(s)"
            emit("space-prob", key, attempt(lambda: cp.space_prob(space, model)))
        for query in queries:
            emit("space-prob", f"{name}: {query}",
                 attempt(lambda: cp.prob(cp.parse_formula(query), model)))
    for m in range(80):
        model = corpus.random_dag_model(rng, max_experiments=7, max_outcomes=4, max_parents=3)
        for k in range(5):
            space = corpus.random_space(rng, model, max_support=3)
            key = f"dag{m} space{k}: {space}"
            emit("space-prob", key, attempt(lambda: cp.space_prob(space, model)))
    for n in (375, 750, 1500):
        chain = cp.parse_model(corpus.child_first_chain(n))
        emit("space-prob", f"chain{n}: 0@x{n - 1}",
             attempt(lambda: cp.prob(cp.parse_formula(f"0@x{n - 1}"), chain)))
    noisy = cp.parse_model(corpus.noisy_or(10))
    for i in range(10):
        for query in (f"a{i} pgiven true@e", f"true@e pgiven a{i}"):
            emit("space-prob", f"noisy-or10: {query}",
                 attempt(lambda: cp.prob(cp.parse_formula(query), noisy)))


def noisy_or_cases(corpus) -> dict[str, tuple[str, int]]:
    """Noisy-OR model texts by name, with their number of causes: the
    10-cause one, the same with one cpt entry moved so that no column
    factors, a zero leak with inhibitors of 0 and 1, and 3-valued causes."""
    ten = [{"true": Fraction(1, i + 2), "false": 1 - Fraction(1, i + 2)} for i in range(10)]
    stop = [{"true": Fraction(2, i + 3), "false": Fraction(1)} for i in range(10)]
    three = [{"0": Fraction(1, i + 2), "1": Fraction(1, 3),
              "2": Fraction(2, 3) - Fraction(1, i + 2)} for i in range(5)]
    weaken = [{"0": Fraction(1), "1": Fraction(i, 5), "2": Fraction(1, i + 2)} for i in range(5)]
    return {
        "noisy-or10": (corpus.noisy_or(10), 10),
        "perturbed10": (corpus.noisy_or_model(ten, stop, Fraction(1, 20),
                                              (613, Fraction(1, 997))), 10),
        "zero-leak": (corpus.noisy_or_model(ten[:6], stop[:2] + [{"true": 0, "false": 1},
                      {"true": 1, "false": 1}] + stop[4:6], 0), 6),
        "three-valued": (corpus.noisy_or_model(three, weaken, Fraction(1, 7)), 5),
    }


# Both conditionals of chains, explained, and conditions of zero mass.
CONDITIONAL_ROWS = [
    ("blocks", "1@x3 pgiven 0@x11"),
    ("blocks", "0@x11 pgiven 1@x3"),
    ("blocks", "0@x11 pgiven (0@x2 && 1@x7)"),
    ("blocks", "(0@x2 && 1@x7) pgiven 0@x11 | 1@x11"),
    ("blocks", "(0@x0 || 1@x5) pgiven 0@x11"),
    ("blocks", "1@x3 pgiven (0@x11 || 1@x6)"),
    ("blocks", "(0@x4 | 1@x4) given 0@x4"),
    ("bayes", "4@d given 4@d"),
    ("bayes", "(1@d | 4@d) given 4@d"),
    ("bayes", "lo@s pgiven 4@d"),
    ("bayes", "4@d pgiven lo@s"),
    ("bayes", "H@c pgiven 4@d && lo@s"),
    ("bayes", "(lo@s && 1@d) pgiven (4@d && hi@s)"),
]


def noisy_or_rows(cp, corpus, emit) -> None:
    """``prob``, the explanation and the enumeration oracle on noisy-OR
    models (``noisy_or_cases``) and on ``CONDITIONAL_ROWS``; Monte Carlo
    on the 10-cause noisy-OR at every ``BLOCK_SAMPLES`` count."""
    cases = []
    for name, (text, n) in noisy_or_cases(corpus).items():
        model = cp.parse_model(text)
        values = sorted(model.outcomes("a0"))
        queries = ["true@e", "false@e given false@e | true@e"]
        for i in range(n):
            a = f"{values[i % len(values)]}@a{i}"
            queries += [f"{a} pgiven true@e", f"true@e pgiven {a}", f"{a} && true@e",
                        f"~({a} || true@e)", f"({a} | {values[0]}@a{i}) pgiven false@e"]
        cases += [(f"{name}: {q}", model, q) for q in queries]
    models = {"blocks": cp.parse_model(BLOCK_MODEL), "bayes": cp.parse_model(BAYES_MODEL)}
    cases += [(f"{m}: {q}", models[m], q) for m, q in CONDITIONAL_ROWS]
    for key, model, query in cases:
        f = cp.parse_formula(query)
        emit("noisy-or", key, attempt(lambda: cp.prob(f, model)))
        emit("noisy-or-explain", key, attempt(
            lambda: cp.render_derivation(cp.prob_explain(f, model)[1])))
        emit("noisy-or-oracle", key, attempt(lambda: cp.enumerate_prob(f, model)))
    model = cp.parse_model(corpus.noisy_or(10))
    rng = random.Random(9091)
    for query in ("true@e", "a3 pgiven true@e", "true@e pgiven a7 && ~a2"):
        f = cp.parse_formula(query)
        for samples in BLOCK_SAMPLES:
            cfg = cp.SampleConfig(samples, seed=rng.randrange(2**64))
            emit("noisy-or-mc", f"{query} n={samples}",
                 attempt(lambda: cp.mc_estimate(f, model, cfg)))


CHAIN_MODEL = "".join(
    [f"experiment c{i} : H, T\n" for i in range(600)]
    + ["predicate alien = 1/1000\n", "experiment y : 0, 1 depends c1\n"
       "cpt 0 | c1=H = 1/3\ncpt 1 | c1=H = 2/3\ncpt 0 | c1=T = 3/4\ncpt 1 | c1=T = 1/4\n",
       "experiment x0 : 0=1/3, 1=2/3\n"]
    + [f"experiment x{i} : 0, 1 depends x{i - 1}\ncpt 0 | x{i - 1}=0 = 3/4\n"
       f"cpt 1 | x{i - 1}=0 = 1/4\ncpt 0 | x{i - 1}=1 = 2/5\ncpt 1 | x{i - 1}=1 = 3/5\n"
       for i in range(1, 8)]
)


def chain(op: str, terms) -> str:
    return f" {op} ".join(terms)


def coins(n: int, start: int = 0) -> list[str]:
    return [f"H@c{i}" for i in range(start, start + n)]


CHOICE = "(H@c0 | H@c1)"  # undetermined: a choice across two supports
CHAIN_VALUES = {f"{op} n={n}": chain(op, coins(n))
                for op, n in (("&&", 200), ("&&", 600), ("||", 12), ("||", 40), ("||", 190))}
CHAIN_ORDER = {  # what a walk meets first decides: a verdict, or an error left of it
    "unknown experiment right": chain("&&", coins(20) + [CHOICE, "X@zzz"]),
    "unknown outcome right": chain("||", coins(20) + [CHOICE, "bogus@c2"]),
    "conditional right": chain("&&", coins(20) + [CHOICE, "(H@c2 given H@c3)"]),
    "conditional right, nested":
        chain("||", coins(5) + [f"~~({CHOICE} && ~(H@c4 pgiven H@c5))"]),
    "unknown outcome left": chain("&&", ["bogus@c5"] + coins(20) + [CHOICE]),
    "unknown outcome in the chain":
        chain("&&", coins(10) + ["bogus@c5"] + coins(10, 10) + [CHOICE]),
    "unknown experiment left": chain("||", ["X@zzz", CHOICE]),
    "event undetermined": f"{CHOICE} pgiven X@zzz",
    "event unknown": f"X@zzz pgiven {CHOICE}",
    "condition undetermined": f"H@c9 pgiven ({chain('&&', coins(20) + [CHOICE, 'X@zzz'])})",
    "undetermined event, unknown condition": f"({CHOICE} | {CHOICE}) given bogus@c0",
}
MARKOV = [f"0@x{i}" for i in range(8)]
CHAIN_PARENTED = {  # ``||`` whose sides' closures are parented: x0 -> ... -> x7, and c1 -> y
    "|| markov n=4": chain("||", MARKOV[:4]),
    "|| markov n=8": chain("||", MARKOV),
    "|| markov, certain right": "0@x2 || (0@x5 | 1@x5)",
    "|| disjoint closures, certain right": "0@y || (0@x3 | 1@x3)",
    "|| disjoint closures": chain("||", ["0@y", "1@x7", "H@c5"]),
    "|| markov under &&": f"({chain('||', MARKOV[:3])}) && 0@y",
    "|| markov, negated": f"~({chain('||', MARKOV[2:6])})",
    "|| markov as a condition": f"0@x4 pgiven ({chain('||', MARKOV[1:3])})",
}
CHAIN_SHARED = {  # 50 terms; no space built spans more than 8 coins
    "&& repeats": chain("&&", [f"H@c{i % 20}" for i in range(50)]),
    "|| repeats": chain("||", [f"T@c{i % 6}" for i in range(50)]),
    "&& one repeat": chain("&&", coins(49) + ["T@c7"]),
    "predicate and child": chain("&&", ["alien", "0@y"] + coins(46, 2) + ["alien", "1@y"]),
    "|| under &&": chain("&&", coins(43) + [f"({chain('||', coins(7, 40))})"]),
    "pgiven": f"({chain('&&', coins(25))}) pgiven ({chain('&&', coins(25, 24))})",
}


def chain_rows(cp, emit) -> None:
    """Values of long ``&&`` and ``||`` chains over distinct coins at the
    default recursion limit (``CHAIN_VALUES``); values and explanations
    of ``||`` over parented closures, dependent and not
    (``CHAIN_PARENTED``); the verdict or error of
    chains where an undetermined choice and an unknown atom or an
    embedded conditional compete (``CHAIN_ORDER``); and the experiments
    that the shared-experiment warnings name on 50-term chains
    (``CHAIN_SHARED``)."""
    model = cp.parse_model(CHAIN_MODEL)
    for key, text in {**CHAIN_VALUES, **CHAIN_PARENTED}.items():
        f = cp.parse_formula(text)
        emit("chains", key, attempt(lambda: cp.prob(f, model)))
        emit("chains-explain", key, attempt(
            lambda: cp.render_derivation(cp.prob_explain(f, model)[1])))
    for key, text in CHAIN_ORDER.items():
        f = cp.parse_formula(text)
        emit("chains", key, attempt(lambda: cp.prob(f, model)))
        emit("chains-explain", key, attempt(
            lambda: cp.render_derivation(cp.prob_explain(f, model)[1])))
        if not has_conditional(text):
            emit("chains-denote", key, attempt(lambda: denoted(cp, f, model)))
    for key, text in CHAIN_SHARED.items():
        f = cp.parse_formula(text)
        for name, run in (("prob", cp.prob), ("explain", cp.prob_explain),
                          ("denote", cp.denote)):
            if name != "denote" or not has_conditional(text):
                emit("chains-warnings", f"{key} {name}",
                     str(shared_named(cp, lambda: run(f, model))))


def random_graph(rng, cp, cyclic: bool):
    """Up to 10 binary experiments with random names, each depending on up
    to two others: earlier ones, so names often sort after their
    children's, or with ``cyclic`` any, itself included. No cpt: only the
    parent graph is read."""
    names = rng.sample([f"{c}{i}" for c in "pqxy" for i in range(30)], rng.randint(1, 10))
    decls = []
    for i, name in enumerate(names):
        pool = names if cyclic else names[:i]
        parents = rng.sample(pool, min(len(pool), rng.choice((0, 1, 1, 2))))
        decls.append(cp.ExperimentDecl(name, ("0", "1"), tuple(parents)))
    return cp.Model.of(*decls)


# A diamond declared child first: z drives x and y, which both drive a.
DIAMOND = (
    "experiment a : 0, 1 depends x, y\n"
    + "".join(f"cpt 0 | x={p}, y={q} = {w}\ncpt 1 | x={p}, y={q} = {1 - Fraction(w)}\n"
              for (p, q), w in zip(itertools.product("012", "01"),
                                   ("1/7", "2/9", "5/11", "1", "0", "8/15")))
    + "experiment x : 0, 1, 2 depends z\n"
    + "".join(f"cpt {o} | z={p} = {w}\n"
              for p, ws in (("0", ("1/2", "1/3", "1/6")), ("1", ("0", "3/5", "2/5")))
              for o, w in zip("012", ws))
    + "experiment y : 0, 1 depends z\ncpt 0 | z=0 = 3/4\ncpt 1 | z=0 = 1/4\n"
    "cpt 0 | z=1 = 1/13\ncpt 1 | z=1 = 12/13\n"
    "experiment z : 0=2/3, 1=1/3\n"
)


def model_graph_rows(cp, emit) -> None:
    """``topological_order`` of every closure of seeded random DAGs, and of
    seeded name sets over graphs with cycles, parents left out of the set
    among them, each giving a list or a message; then ``prob`` of every
    outcome of each node of a diamond."""
    rng = random.Random(2718)
    for cyclic in (False, True):
        for m in range(150):
            model = random_graph(rng, cp, cyclic)
            graph = {n: d.parents for n, d in sorted(model.experiments.items())}
            if cyclic:
                sets = [sorted(n for n in graph if rng.random() < 0.8)]
            else:
                sets = [sorted(cp.ancestral_closure(model, [n])) for n in graph]
            for names in sets:
                emit("model-graph", f"{graph} order of {names}", attempt(
                    lambda: cp.oracle.topological_order(model, names)))
    diamond = cp.parse_model(DIAMOND)
    for name, decl in sorted(diamond.experiments.items()):
        for outcome in decl.outcomes:
            emit("model-graph", f"diamond: {outcome}@{name}", attempt(
                lambda: cp.prob(cp.AtomNode(name, outcome), diamond)))


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
                lambda: sorted_support(cp.check_partition(cells, model, variant))))
            emit(f"posteriors-{variant}", key, attempt(
                lambda: sorted_support(cp.bayes.posteriors(cells, evidence, model, variant))))
        emit("prior-likelihood", key, attempt(
            lambda: cp.bayes_parallel(cells, evidence, model, "prior-likelihood")))


# A die with a zero-weight face, a signal it drives, and a coin and a
# 12-coin block that the die does not reach.
BAYES_MODEL = (
    "experiment d : 1=1/2, 2=1/3, 3=1/6, 4=0\n"
    "experiment s : lo, hi depends d\n"
    + "".join(f"cpt lo | d={f} = {lo}\ncpt hi | d={f} = {hi}\n" for f, lo, hi in (
        ("1", "1", "0"), ("2", "1/4", "3/4"), ("3", "3/5", "2/5"), ("4", "1/2", "1/2")))
    + "experiment c : H=2/5, T=3/5\n"
    + "".join(f"experiment u{i} : 0, 1\n" for i in range(12))
)
COINS12 = " && ".join(f"0@u{i}" for i in range(12))


def geometric(k: int) -> tuple[list[str], list[str]]:
    """k cells over u0..u{k-2}: the first 1 at u{i}, or none; and the same
    with cell k // 2 replaced by one that overlaps some cells before it."""
    cells = [" && ".join([f"0@u{j}" for j in range(i)] + [f"1@u{i}"]) for i in range(k - 1)]
    cells.append(" && ".join(f"0@u{j}" for j in range(k - 1)))
    return cells, cells[:k // 2] + [f"0@u0 && 1@u{k // 2}"] + cells[k // 2 + 1:]


BAYES_PARTITIONS = [
    # overlaps, and overlaps on the zero-weight face only
    (["1@d | 2@d", "2@d | 3@d"], "lo@s"),
    (["1@d | 4@d", "2@d | 4@d", "3@d | 4@d"], "lo@s"),
    (["1@d | 4@d", "4@d", "2@d", "3@d | 1@d"], "hi@s"),
    (["1@d && lo@s", "4@d && lo@s", "4@d", "(2@d | 3@d) && hi@s"], "H@c"),
    (["1@d && H@c", "1@d && (H@c | T@c)", "2@d", "4@d && T@c"], "lo@s"),
    # evidence independent of the cells
    (["1@d", "2@d", "3@d | 4@d"], "H@c"),
    (["1@d", "2@d", "3@d | 4@d"], f"~({COINS12})"),
    (["1@d && lo@s", "1@d && hi@s", "~1@d"], f"T@c || ~({COINS12})"),
    # mixed supports, the evidence reaching some cells and not others
    (["H@c", "T@c && 1@d", "T@c && ~1@d"], "lo@s"),
    (["H@c", "T@c && (1@d | 2@d)", "T@c && 3@d"], "hi@s || H@c"),
    (["H@c && 1@d", "H@c && ~1@d", "T@c"], "lo@s && T@c"),
    (["H@c", "T@c && 1@d", "T@c && 1@d && lo@s"], "lo@s"),
    (["H@c", "T@c && 4@d", "T@c && ~4@d"], "4@d"),
    (["H@c", "T@c"], "1@d | H@c"),
    # geometric partitions of k cells, valid and with one overlapping cell
    *((cells, f"0@u{k // 2} || H@c") for k in range(4, 13) for cells in geometric(k)),
]


def bayes_rows(cp, corpus, emit) -> None:
    """Posteriors of the k-bit noisy channel, k = 3..7 (every received
    word up to k = 4, three words beyond), under both parallel forms; then
    fixed and seeded random partitions, with overlaps (zero-weight ones
    too), evidence independent of the cells and cells over mixed supports,
    under both variants."""
    for bits in range(3, 8):
        model = cp.parse_model(corpus.noisy_channel(bits)[0])
        words = ["".join(w) for w in itertools.product("01", repeat=bits)]
        cells = cp.Partition(tuple(
            cp.parse_formula(" && ".join(f"{t}@t{i}" for i, t in enumerate(w))) for w in words
        ))
        if bits > 4:
            words = ["0" * bits, "1" * bits, ("01" * bits)[:bits]]
        for word in words:
            evidence = cp.parse_formula(" && ".join(f"{r}@r{i}" for i, r in enumerate(word)))
            for form in ("joint", "prior-likelihood"):
                emit("bayes-channel", f"k={bits} received {word} {form}", attempt(
                    lambda: cp.bayes_parallel(cells, evidence, model, form)))
    model = cp.parse_model(BAYES_MODEL)
    cases = [(model, f"fixed{n}", cp.Partition(tuple(map(cp.parse_formula, cells))),
              cp.parse_formula(ev)) for n, (cells, ev) in enumerate(BAYES_PARTITIONS)]
    rng = random.Random(6211)
    for n in range(300):
        model = corpus.random_dag_model(rng) if n % 2 else corpus.random_model(rng)
        variant = ("additive", "parallel")[n // 2 % 2]
        cells, _ = corpus.draw_cells(rng, model, variant)
        experiment = rng.choice([None, *sorted(model.experiments)])
        cases.append((model, f"drawn{n}", cells,
                      corpus.random_formula(rng, model, 2, experiment)))
    for model, name, cells, evidence in cases:
        key = f"{name}: [{', '.join(map(cp.format_formula, cells.cells))}] " \
              f"{cp.format_formula(evidence)}"
        for variant in ("additive", "parallel"):
            emit(f"bayes-check-{variant}", key, attempt(
                lambda: sorted_support(cp.check_partition(cells, model, variant))))
            emit(f"bayes-{variant}", key, attempt(
                lambda: sorted_support(cp.bayes.posteriors(cells, evidence, model, variant))))
        emit("bayes-prior-likelihood", key, attempt(
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
    # a verdict before an unknown atom, which the oracles must not reach
    for query in ("(H@c1 | H@c2) && X@zzz", "H@c pgiven ((H@c1 | H@c2) && X@zzz)"):
        for flags in (["--oracle"], ["--json", "--oracle"], ["--mc-samples", "100"]):
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
    check = argv[:1] == ["--check"]
    if len(argv) != 2 or argv[0].startswith("--") and not check:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    tree = ROOT if check else Path(argv[0]).resolve()
    out_path = os.devnull if check else Path(argv[1]).resolve()
    sys.dont_write_bytecode = True  # leave no __pycache__ in either tree
    sys.path[:0] = [str(tree / "src"), str(ROOT / "tests")]
    import colprob as cp
    import colprob.cli  # noqa: F401  (cp.cli)
    import _corpus as corpus

    warnings.simplefilter("ignore")
    counts: dict[str, int] = {}
    hashes: dict[str, Any] = {}  # each section's running sha256
    with open(out_path, "w", encoding="utf-8") as out:
        def emit(section: str, key: str, result: str) -> None:
            line = f"{section}\t{key}\t{result}".replace("\n", "\\n") + "\n"
            counts[section] = counts.get(section, 0) + 1
            hashes.setdefault(section, hashlib.sha256()).update(line.encode())
            out.write(line)

        workload_rows(cp, emit)
        parse_rows(cp, corpus, emit)
        corpus_rows(cp, corpus, emit)
        block_rows(cp, corpus, emit)
        space_prob_rows(cp, corpus, emit)
        noisy_or_rows(cp, corpus, emit)
        chain_rows(cp, emit)
        model_graph_rows(cp, emit)
        partition_rows(cp, corpus, emit)
        bayes_rows(cp, corpus, emit)
        model_file_rows(cp, emit)
        cli_rows(cp, corpus, emit)
    digest = [f"{k} {counts[k]} {hashes[k].hexdigest()}" for k in sorted(counts)]
    if not check:
        print("\n".join(digest))
        return 0
    expected = dict(line.split(" ", 1) for line in Path(argv[1]).read_text().splitlines())
    got = dict(line.split(" ", 1) for line in digest)
    sections = expected.keys() | got.keys()
    differ = sorted(k for k in sections if expected.get(k) != got.get(k))
    for k in differ:
        print(f"differs: {k}")
    print(f"{len(sections) - len(differ)} of {len(sections)} sections match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
