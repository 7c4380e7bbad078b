"""Seeded input generators for the three benchmark workloads.

Each generator takes the run's seed and returns a ``Workload``: the ``.colp``
text of its models and the fixed list of requests one pass runs. The same
seed always gives the same texts and requests. The seed varies outcomes,
weights and orderings, never the sizes or shapes of the families, so the
cost of a pass does not depend on the seed.

Query text is written here directly, fully parenthesized, so the inputs
need nothing from the program under test. Where an answer has a closed
form the generator computes it and stores it on the request; every other
expected answer comes from the brute-force oracle before timing starts.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

MC_SAMPLES = 2000

# Expected outcomes. A value is ("value", Fraction), ("undetermined", None),
# ("posteriors", tuple of Fractions) or ("error", exception class name).
UNDETERMINED = ("undetermined", None)


@dataclass
class Request:
    """One client request: an ``eval`` of ``query`` or, when ``cells`` is
    set, a parallel Bayes posterior over ``cells`` given ``evidence``."""

    family: str
    model: int
    query: str = ""
    cells: tuple[str, ...] = ()
    evidence: str = ""
    explain: bool = False
    oracle: bool = False
    mc_samples: int | None = None
    mc_seed: int = 0
    expected: tuple | None = None

    @property
    def is_bayes(self) -> bool:
        return bool(self.cells)


@dataclass
class Workload:
    name: str
    models: list[str]
    requests: list[Request] = field(default_factory=list)


def frac(w: Fraction) -> str:
    return f"{w.numerator}/{w.denominator}"


def value(v: Fraction) -> tuple:
    return ("value", Fraction(v))


def par_or(parts: list[str]) -> str:
    return " || ".join(f"({p})" for p in parts)


def par_and(parts: list[str]) -> str:
    return " && ".join(f"({p})" for p in parts)


# ---------------------------------------------------------------------------
# corpus: the acceptance-corpus shapes
# ---------------------------------------------------------------------------

CORPUS_MODELS = 250
CORPUS_QUERIES_PER_MODEL = 4
CORPUS_DEPTH = 5
SHAPE_SEED = 20260808


def _corpus_dist(rng: random.Random, k: int) -> list[Fraction]:
    weights = [rng.randint(0, 4) for _ in range(k)]
    if not any(weights):
        weights[rng.randrange(k)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _corpus_model(rng: random.Random, n: int) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
    """``n`` experiments of 2..6 outcomes and up to 2 parent edges;
    returns name -> (outcomes, parents) and fills no weights."""
    names = [f"e{i}" for i in range(n)]
    pairs = [(a, b) for b in range(1, n) for a in range(b)]
    rng.shuffle(pairs)
    edges = pairs[: rng.randint(0, min(2, len(pairs)))]
    shape = {}
    for i, name in enumerate(names):
        outcomes = tuple(f"o{j}" for j in range(rng.randint(2, 6)))
        parents = tuple(names[a] for a, b in sorted(edges) if b == i)
        shape[name] = (outcomes, parents)
    return shape


def _corpus_text(rng: random.Random, shape) -> str:
    lines = []
    for name, (outcomes, parents) in shape.items():
        if not parents:
            dist = _corpus_dist(rng, len(outcomes))
            entries = ", ".join(f"{o}={frac(w)}" for o, w in zip(outcomes, dist))
            lines.append(f"experiment {name} : {entries}")
            continue
        lines.append(
            f"experiment {name} : {', '.join(outcomes)} depends {', '.join(parents)}"
        )
        for row in itertools.product(*(shape[p][0] for p in parents)):
            given = ", ".join(f"{p}={o}" for p, o in zip(parents, row))
            for o, w in zip(outcomes, _corpus_dist(rng, len(outcomes))):
                lines.append(f"cpt {o} | {given} = {frac(w)}")
    return "\n".join(lines) + "\n"


def _corpus_formula(form: random.Random, pick: random.Random, shape, depth: int,
                    experiment=None) -> str:
    """Conditional-free formula text of at most ``depth`` connectives.

    ``form`` draws the tree: connectives, leaf positions, and the
    experiment each leaf or choice subtree uses. ``pick`` draws only the
    outcome at each leaf. Choice operands stick to one experiment 80% of
    the time, so most choice connectives are determined and the rest are
    undetermined.
    """
    if depth <= 0 or form.random() < 0.25:
        name = experiment or form.choice(sorted(shape))
        return f"{pick.choice(shape[name][0])}@{name}"
    kind = form.choice(("~", "&", "|", "&&", "||"))
    if kind == "~":
        return f"~({_corpus_formula(form, pick, shape, depth - 1, experiment)})"
    if kind in ("&", "|") and experiment is None and form.random() < 0.8:
        experiment = form.choice(sorted(shape))
    left = _corpus_formula(form, pick, shape, depth - 1, experiment)
    right = _corpus_formula(form, pick, shape, depth - 1, experiment)
    return f"({left}) {kind} ({right})"


def _corpus_query(form: random.Random, pick: random.Random, shape, kind: str | None) -> str:
    if kind == "given":
        name = form.choice(sorted(shape))
        event = _corpus_formula(form, pick, shape, CORPUS_DEPTH - 1, name)
        condition = _corpus_formula(form, pick, shape, CORPUS_DEPTH - 1, name)
        return f"({event}) given ({condition})"
    if kind == "pgiven":
        event = _corpus_formula(form, pick, shape, CORPUS_DEPTH - 1)
        condition = _corpus_formula(form, pick, shape, CORPUS_DEPTH - 1)
        return f"({event}) pgiven ({condition})"
    return _corpus_formula(form, pick, shape, CORPUS_DEPTH)


def build_corpus(seed: int) -> Workload:
    """250 random small models x 4 random queries, plus a parallel Bayes
    request on every tenth model.

    The shapes (experiments, outcome counts, parent edges, formula trees)
    come from a fixed stream, and the seed draws the weights and the
    outcome at every formula leaf. Random shapes make the cost of a pass
    vary by about 20% between seeds, more than the regressions the
    benchmark must detect. Shares are fixed by position: models cycle
    through 1, 2 and 3 experiments; of every 25 queries 2 are rooted at
    ``given`` and 2 at ``pgiven``; of every 20 queries 2 run under
    explain, 1 under the oracle and 1 under Monte Carlo (dropped where
    the answer is not a determined value).
    """
    pick = random.Random(seed)
    form = random.Random(SHAPE_SEED)
    wl = Workload("corpus", [])
    for m in range(CORPUS_MODELS):
        shape = _corpus_model(form, 1 + m % 3)
        wl.models.append(_corpus_text(pick, shape))
        for j in range(CORPUS_QUERIES_PER_MODEL):
            q = CORPUS_QUERIES_PER_MODEL * m + j
            kind = {0: "given", 1: "given", 2: "pgiven", 3: "pgiven"}.get(q % 25)
            req = Request("corpus/query", m, _corpus_query(form, pick, shape, kind))
            req.explain = q % 20 in (0, 1)
            req.oracle = q % 20 == 2
            if q % 20 == 3 and kind is None:
                req.mc_samples = MC_SAMPLES
                req.mc_seed = pick.randrange(2**32)
            wl.requests.append(req)
        if m % 10 == 0:
            name = form.choice(sorted(shape))
            cells = tuple(f"{o}@{name}" for o in shape[name][0])
            evidence = _corpus_formula(form, pick, shape, 2)
            wl.requests.append(Request("corpus/bayes", m, cells=cells, evidence=evidence))
    return wl


# ---------------------------------------------------------------------------
# independent: parallel chains over mutually independent experiments
# ---------------------------------------------------------------------------

COINS = 14
DICE = 4
OR_CHAIN_SIZES = range(2, 11)  # n=10 is where prob is >10x slower than the oracle
AND_CHAIN_SIZES = range(2, 15)
HALF = Fraction(1, 2)


def build_independent(seed: int) -> Workload:
    """69 requests over fair coins c0..c13 and fair dice d0..d3."""
    rng = random.Random(seed)
    lines = [f"experiment c{i} : H, T" for i in range(COINS)]
    lines += [f"experiment d{i} : 1, 2, 3, 4, 5, 6" for i in range(DICE)]
    wl = Workload("independent", ["\n".join(lines) + "\n"])

    def coins(n: int) -> list[str]:
        return [f"{rng.choice('HT')}@c{i}" for i in rng.sample(range(COINS), n)]

    def faces(die: int) -> tuple[str, Fraction]:
        chosen = sorted(rng.sample(range(1, 7), rng.randint(1, 3)))
        return " | ".join(f"{f}@d{die}" for f in chosen), Fraction(len(chosen), 6)

    def add(family: str, query: str, expected: tuple, **flags) -> None:
        wl.requests.append(Request(family, 0, query, expected=expected, **flags))

    def mc(flag: bool) -> dict:
        return {"mc_samples": MC_SAMPLES if flag else None, "mc_seed": rng.randrange(2**32)}

    for n in OR_CHAIN_SIZES:
        atoms = coins(n)
        chain = par_or(atoms)
        add(f"or_chain/n={n}", chain, value(1 - HALF**n), oracle=(n == 10),
            explain=(n == 8))
        if 6 <= n <= 8:
            # The event is one of its own disjuncts: p(a pgiven chain) = p(a)/p(chain).
            add(f"or_chain_pgiven/n={n}", f"({rng.choice(atoms)}) pgiven ({chain})",
                value(HALF / (1 - HALF**n)))
        if n in (5, 7):
            # Conditioning on an outside coin leaves the chain unchanged.
            outside = rng.choice([i for i in range(COINS) if f"@c{i})" not in chain])
            add(f"or_chain_indep/n={n}", f"({chain}) pgiven (H@c{outside})",
                value(1 - HALF**n), explain=(n == 5))
        if n in (4, 6):
            add(f"or_chain_not/n={n}", f"~({chain})", value(HALF**n))
    for n in AND_CHAIN_SIZES:
        for rep in range(2):
            add(f"and_chain/n={n}", par_and(coins(n)), value(HALF**n),
                explain=(n, rep) == (14, 0), **mc((n, rep) == (6, 0)))
    for k in (2, 3, 4):
        for rep in range(3):
            parts = [faces(d) for d in range(k)]
            miss = math.prod((1 - p for _, p in parts), start=Fraction(1))
            add(f"dice_or/k={k}", par_or([t for t, _ in parts]), value(1 - miss),
                **mc((k, rep) == (3, 0)))
    for rep in range(12):
        die = rep % DICE
        a = set(rng.sample(range(1, 7), rng.randint(1, 4)))
        b = set(rng.sample(range(1, 7), rng.randint(1, 4)))
        text = lambda s: " | ".join(f"{f}@d{die}" for f in sorted(s))
        add("dice_given", f"({text(a)}) given ({text(b)})",
            value(Fraction(len(a & b), len(b))), explain=(rep == 0))
    for rep in range(2):
        c = rng.sample(range(COINS), 2)
        add("undetermined/choice", f"(H@c{c[0]}) | (T@c{c[1]})", UNDETERMINED)
        d = rng.sample(range(DICE), 3)
        add("undetermined/given", f"(1@d{d[0]}) given (1@d{d[1]} || 2@d{d[2]})",
            UNDETERMINED)
    for die in (0, 1):
        other, _ = faces(1 - die)
        wl.requests.append(Request(
            "dice_bayes", 0, cells=tuple(f"{f}@d{die}" for f in range(1, 7)),
            evidence=f"(6@d{die} | 5@d{die}) || ({other})",
        ))
    return wl


# ---------------------------------------------------------------------------
# dependent: Bayes-net models where the ancestral closure dwarfs the support
# ---------------------------------------------------------------------------

CHAIN_NODES = 200
CHAIN_MARGINALS = range(0, 13)
CHANNEL_BITS = 5
NOISY_OR_CAUSES = 8
TENTHS = [Fraction(k, 10) for k in range(1, 10)]


def _chain(rng: random.Random) -> tuple[str, Fraction, list[tuple[Fraction, Fraction]]]:
    """Binary Markov chain x0 -> x1 -> ... ; returns its text, p(x0=0) and
    per node (p(x_i=0 | x_{i-1}=0), p(x_i=0 | x_{i-1}=1))."""
    p0 = rng.choice(TENTHS)
    lines = [f"experiment x0 : 0={frac(p0)}, 1={frac(1 - p0)}"]
    steps = [(Fraction(0), Fraction(0))]
    for i in range(1, CHAIN_NODES):
        a, b = rng.choice(TENTHS), rng.choice(TENTHS)
        steps.append((a, b))
        prev = f"x{i - 1}"
        lines += [
            f"experiment x{i} : 0, 1 depends {prev}",
            f"cpt 0 | {prev}=0 = {frac(a)}",
            f"cpt 1 | {prev}=0 = {frac(1 - a)}",
            f"cpt 0 | {prev}=1 = {frac(b)}",
            f"cpt 1 | {prev}=1 = {frac(1 - b)}",
        ]
    return "\n".join(lines) + "\n", p0, steps


def _propagate(dist: tuple[Fraction, Fraction], steps, i: int, j: int):
    """Distribution of x_j given the distribution ``dist`` of x_i (i <= j)."""
    p_zero, p_one = dist
    for a, b in steps[i + 1 : j + 1]:
        p_zero, p_one = p_zero * a + p_one * b, p_zero * (1 - a) + p_one * (1 - b)
    return p_zero, p_one


def _channel(rng: random.Random):
    """k independent transmitted bits t_i, each received as r_i through its
    own noisy link; returns the text, p(t_i=0) and p(r_i != t_i)."""
    priors = [rng.choice(TENTHS) for _ in range(CHANNEL_BITS)]
    flips = [rng.choice(TENTHS[:4]) for _ in range(CHANNEL_BITS)]
    lines = []
    for i, (p, e) in enumerate(zip(priors, flips)):
        lines += [
            f"experiment t{i} : 0={frac(p)}, 1={frac(1 - p)}",
            f"experiment r{i} : 0, 1 depends t{i}",
            f"cpt 0 | t{i}=0 = {frac(1 - e)}",
            f"cpt 1 | t{i}=0 = {frac(e)}",
            f"cpt 0 | t{i}=1 = {frac(e)}",
            f"cpt 1 | t{i}=1 = {frac(1 - e)}",
        ]
    return "\n".join(lines) + "\n", priors, flips


def _noisy_or(rng: random.Random):
    """Predicates a_i with p(a_i) = p_i and an effect e that each present
    cause triggers with probability q_i, plus a leak; returns the text,
    the p_i, the q_i and the leak."""
    priors = [rng.choice(TENTHS) for _ in range(NOISY_OR_CAUSES)]
    strengths = [rng.choice(TENTHS) for _ in range(NOISY_OR_CAUSES)]
    leak = Fraction(1, 20)
    causes = [f"a{i}" for i in range(NOISY_OR_CAUSES)]
    lines = [f"predicate {c} = {frac(p)}" for c, p in zip(causes, priors)]
    lines.append(f"experiment e : true, false depends {', '.join(causes)}")
    for row in itertools.product(("true", "false"), repeat=NOISY_OR_CAUSES):
        p_off = (1 - leak) * math.prod(
            (1 - q for q, o in zip(strengths, row) if o == "true"), start=Fraction(1)
        )
        given = ", ".join(f"{c}={o}" for c, o in zip(causes, row))
        lines.append(f"cpt true | {given} = {frac(1 - p_off)}")
        lines.append(f"cpt false | {given} = {frac(p_off)}")
    return "\n".join(lines) + "\n", priors, strengths, leak


def build_dependent(seed: int) -> Workload:
    """60 requests over a 200-node Markov chain, a 5-bit noisy channel and
    an 8-cause noisy-OR."""
    rng = random.Random(seed)
    chain_text, p0, steps = _chain(rng)
    channel_text, priors, flips = _channel(rng)
    noisy_text, causes, strengths, leak = _noisy_or(rng)
    wl = Workload("dependent", [chain_text, channel_text, noisy_text])
    CHAIN, CHANNEL, NOISY = 0, 1, 2

    def add(family: str, model: int, query: str, expected: tuple, **flags) -> None:
        wl.requests.append(Request(family, model, query, expected=expected, **flags))

    def marginal(k: int) -> tuple[Fraction, Fraction]:
        return _propagate((p0, 1 - p0), steps, 0, k)

    for k in CHAIN_MARGINALS:
        add(f"chain_marginal/n={k + 1}", CHAIN, f"0@x{k}", value(marginal(k)[0]),
            explain=(k == 11), oracle=(k == 9),
            mc_samples=MC_SAMPLES if k == 7 else None, mc_seed=rng.randrange(2**32))
    # The four largest requests cost the same, so the p95 tail falls
    # inside one cluster of samples rather than on a single request.
    last = CHAIN_MARGINALS[-1] + 1
    p_last = marginal(last)
    for text, p in (("0", p_last[0]), ("1", p_last[1]), ("~(0", p_last[1]), ("~(1", p_last[0])):
        closing = ")" if text.startswith("~") else ""
        add(f"chain_marginal/n={last + 1}", CHAIN, f"{text}@x{last}{closing}", value(p))
    for i, j in ((2, 11), (5, 9), (7, 8), (3, 4), (4, 5), (1, 2), (0, 1)):
        a, b = rng.choice("01"), rng.choice("01")
        from_a = _propagate((Fraction(a == "0"), Fraction(a == "1")), steps, i, j)
        p_a = marginal(i)[int(a)]
        joint = p_a * from_a[int(b)]
        # Backward: p(x_i=a | x_j=b); forward: p(x_j=b | x_i=a).
        add(f"chain_pgiven/{i}<-{j}", CHAIN, f"{a}@x{i} pgiven {b}@x{j}",
            value(joint / marginal(j)[int(b)]))
        add(f"chain_pgiven/{i}->{j}", CHAIN, f"{b}@x{j} pgiven {a}@x{i}",
            value(joint / p_a))

    def channel_posteriors(bits: int, received: tuple[str, ...]) -> tuple:
        weights = []
        for sent in itertools.product("01", repeat=bits):
            w = Fraction(1)
            for i, (t, r) in enumerate(zip(sent, received)):
                w *= priors[i] if t == "0" else 1 - priors[i]
                w *= flips[i] if t != r else 1 - flips[i]
            weights.append(w)
        total = sum(weights)
        return ("posteriors", tuple(w / total for w in weights))

    for bits in (3, CHANNEL_BITS):
        received = tuple(rng.choice("01") for _ in range(bits))
        cells = tuple(
            " && ".join(f"{t}@t{i}" for i, t in enumerate(sent))
            for sent in itertools.product("01", repeat=bits)
        )
        evidence = " && ".join(f"{r}@r{i}" for i, r in enumerate(received))
        wl.requests.append(Request(
            f"channel_bayes/k={bits}", CHANNEL, cells=cells, evidence=evidence,
            expected=channel_posteriors(bits, received),
        ))
    for i in range(CHANNEL_BITS):
        t, r = rng.choice("01"), rng.choice("01")
        p_t = priors[i] if t == "0" else 1 - priors[i]
        p_r_t = flips[i] if t != r else 1 - flips[i]
        p_r = sum(
            (priors[i] if s == "0" else 1 - priors[i]) * (flips[i] if s != r else 1 - flips[i])
            for s in "01"
        )
        add("channel_pgiven/t<-r", CHANNEL, f"{t}@t{i} pgiven {r}@r{i}",
            value(p_t * p_r_t / p_r), explain=(i == 0))
        add("channel_pgiven/t->r", CHANNEL, f"{r}@r{i} pgiven {t}@t{i}", value(p_r_t))

    # p(e absent) = (1 - leak) * prod_i (1 - p_i q_i)
    factors = [1 - p * q for p, q in zip(causes, strengths)]
    p_off = (1 - leak) * math.prod(factors, start=Fraction(1))
    add("noisy_or/effect", NOISY, "true@e", value(1 - p_off),
        mc_samples=MC_SAMPLES, mc_seed=rng.randrange(2**32))
    for i, (p, q) in enumerate(zip(causes, strengths)):
        off_given_i = (1 - q) * p_off / factors[i]
        add("noisy_or/cause<-effect", NOISY, f"a{i} pgiven true@e",
            value((p - p * off_given_i) / (1 - p_off)), explain=(i in (0, 4)))
        # Eight requests of one cost, where the median of the pass falls.
        add("noisy_or/effect<-cause", NOISY, f"true@e pgiven a{i}", value(1 - off_given_i))
    return wl


def _interleaved(build):
    """Run the requests in a fixed shuffled order, so that requests of one
    family, which cost the same, are spread over the pass and do not all
    meet the same stretch of machine noise."""
    def wrapped(seed: int) -> Workload:
        wl = build(seed)
        random.Random(SHAPE_SEED).shuffle(wl.requests)
        return wl
    return wrapped


WORKLOADS = {
    "corpus": _interleaved(build_corpus),
    "independent": _interleaved(build_independent),
    "dependent": _interleaved(build_dependent),
}
