"""Command-line interface: evaluate queries, run Bayes inference, REPL.

Exit codes: 0 for a determined result, 2 when the calculus leaves the
query undetermined, 1 for any error (bad file, parse failure, invalid
model, null conditioning event, partition violations, bad Monte Carlo
arguments, usage errors). Every walk of a formula is a loop, so depth
alone is never an error. ``main`` maps errors to that exit and one
``error:`` line the same way for every subcommand; only
partition violations and ``check``'s model issues add lines, and the
REPL reports each bad line and reads on.

Values print as exact rationals; the 4-significant-digit decimal is a
display courtesy (marked with an approximation sign) and never feeds back
into any comparison. JSON output is byte-stable: fixed key order,
rationals rendered as "p/q" strings.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from ._record import Record
from .bayes import Partition, PartitionReport, posteriors
from .errors import ColprobError, EmptySpaceError, ModelError
from .evaluator import (
    Derivation,
    Determined,
    ProbResult,
    _preorder,
    prob,
    prob_explain,
    render_derivation,
)
from .formula import Formula, format_formula
from .model import Model
from .oracle import McEstimate, SampleConfig, enumerate_prob, mc_estimate
from .parser import parse_formula, parse_model
from .semantics import Undetermined, denote, format_support, to_set_normal_form

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2


def fraction_pq(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def decimal4(value: Fraction) -> str:
    return f"{float(value):.4g}"


class QueryOutput(Record, frozen=False):
    def __init__(self, query: str, result: ProbResult, derivation: Derivation | None = None,
                 oracle: ProbResult | None = None, mc: McEstimate | None = None):
        self.query = query
        self.result = result
        self.derivation = derivation
        self.oracle = oracle
        self.mc = mc

    def result_text(self) -> str:
        if isinstance(self.result, Determined):
            return f"{self.result.value} (≈{decimal4(self.result.value)})"
        return f"undetermined: {self.result.reason}"

    def render_text(self) -> str:
        lines = [self.result_text()]
        if self.derivation is not None:
            lines.append(render_derivation(self.derivation))
        if self.oracle is not None:
            lines.append(_oracle_text(self))
        if self.mc is not None:
            m = self.mc
            lines.append(
                f"mc: {m.estimate:.6g} ± {m.stderr:.3g} "
                f"(n={m.samples}, seed={m.seed})"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        determined = isinstance(self.result, Determined)
        head = json.dumps({
            "query": self.query,
            "status": "determined" if determined else "undetermined",
            "value": fraction_pq(self.result.value) if determined else None,
            "decimal": decimal4(self.result.value) if determined else None,
            "reason": None if determined else self.result.reason,
        })
        tail = json.dumps({
            "oracle": _oracle_json(self),
            "mc": None
            if self.mc is None
            else {
                "estimate": self.mc.estimate,
                "stderr": self.mc.stderr,
                "samples": self.mc.samples,
                "seed": self.mc.seed,
            },
        })
        derivation = _derivation_json(self.derivation)
        return f'{head[:-1]}, "derivation": {derivation}, {tail[1:]}'

    def exit_code(self) -> int:
        return EXIT_OK if isinstance(self.result, Determined) else EXIT_UNDETERMINED


def _oracle_agrees(out: QueryOutput) -> bool:
    if isinstance(out.oracle, Determined):
        return out.oracle == out.result
    return isinstance(out.result, Undetermined)


def _oracle_text(out: QueryOutput) -> str:
    verdict = "agree" if _oracle_agrees(out) else "DISAGREE"
    if isinstance(out.oracle, Determined):
        return f"oracle: {out.oracle.value} ({verdict})"
    return f"oracle: undetermined ({verdict})"


def _oracle_json(out: QueryOutput):
    if out.oracle is None:
        return None
    if isinstance(out.oracle, Determined):
        return {
            "status": "determined",
            "value": fraction_pq(out.oracle.value),
            "agrees": _oracle_agrees(out),
        }
    return {"status": "undetermined", "value": None, "agrees": _oracle_agrees(out)}


def _derivation_json(d: Derivation | None) -> str:
    """The derivation tree as the JSON text ``json.dumps`` gives for its
    nested dicts, built from its pre-order walk (``_preorder``): a node
    that is no deeper than the one before it first closes the nodes left
    open at its depth and below. A derivation as deep as the evaluator
    could reach must not hit the recursion limit here."""
    if d is None:
        return "null"
    parts = []
    last = -1
    for depth, node in _preorder(d):
        if depth <= last:  # a later sibling of the node at ``depth``
            parts.append("]}" * (last - depth + 1) + ", ")
        determined = isinstance(node.result, Determined)
        fields = json.dumps({
            "rule": node.rule,
            "formula": node.formula,
            "value": fraction_pq(node.result.value) if determined else None,
            "reason": None if determined else node.result.reason,
            "note": node.note or None,
        })
        parts.append(f'{fields[:-1]}, "children": [')
        last = depth
    parts.append("]}" * (last + 1))
    return "".join(parts)


def run_query(
    model: Model,
    query: str,
    *,
    explain: bool = False,
    oracle: bool = False,
    mc_samples: int | None = None,
    seed: int = 0,
) -> QueryOutput:
    """Evaluate one query string against a loaded model."""
    f = parse_formula(query)
    if explain:
        out = QueryOutput(query, *prob_explain(f, model))
    else:
        out = QueryOutput(query, prob(f, model))
    if oracle:
        out.oracle = enumerate_prob(f, model)
    if mc_samples is not None:
        config = SampleConfig(mc_samples, seed)  # bad arguments fail either way
        if isinstance(out.result, Determined):  # an undetermined verdict is not sampled
            out.mc = mc_estimate(f, model, config)
    return out


def _load_model(path: str) -> Model:
    return parse_model(Path(path).read_text(encoding="utf-8-sig"))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _cmd_eval(args) -> int:
    model = _load_model(args.model)
    out = run_query(
        model,
        args.query,
        explain=args.explain,
        oracle=args.oracle,
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    print(out.to_json() if args.json else out.render_text())
    return out.exit_code()


def _cmd_bayes(args) -> int:
    model = _load_model(args.model)
    cells = [parse_formula(c) for c in args.cell]
    evidence = parse_formula(args.evidence)
    report, values = posteriors(Partition(tuple(cells)), evidence, model, args.variant)
    if args.json:
        print(json.dumps({
            "variant": args.variant,
            "evidence": args.evidence,
            "partition": {
                "disjoint": report.ok,
                "exhaustive": report.exhaustive,
                "total": fraction_pq(report.total),
            },
            "posteriors": [
                {"cell": format_formula(c), "value": fraction_pq(v), "decimal": decimal4(v)}
                for c, v in zip(cells, values)
            ],
        }))
    else:
        print(_bayes_text(report, cells, values))
    return EXIT_OK


def _bayes_text(report: PartitionReport, cells: list[Formula], values: list[Fraction]) -> str:
    """The text `colprob bayes` and the REPL's `:bayes` print."""
    exhaustive = ("exhaustive" if report.exhaustive
                  else f"not exhaustive (cells sum to {report.total})")
    lines = [f"partition: disjoint, {exhaustive}"]
    lines += [f"{format_formula(cell)}: {v} (≈{decimal4(v)})" for cell, v in zip(cells, values)]
    return "\n".join(lines)


def _cmd_check(args) -> int:
    try:
        model = _load_model(args.model)
    except ModelError as err:
        for issue in err.issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_ERROR
    print(f"ok ({len(model.experiments)} experiments)")
    return EXIT_OK


def _cmd_repl(args) -> int:
    model = _load_model(args.model)
    interactive = sys.stdin.isatty()
    if interactive:
        print("colprob repl; :quit to leave, :space/:explain/:bayes for tools")
    while True:
        if interactive:
            print("colprob> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            return EXIT_OK
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == ":quit":
            return EXIT_OK
        try:
            _repl_dispatch(line, model)
        except (ColprobError, ValueError) as err:
            print(f"error: {err}")


def _repl_dispatch(line: str, model: Model) -> None:
    if line.startswith(":space"):
        _repl_space(line[len(":space"):].strip(), model)
    elif line.startswith(":explain"):
        out = run_query(model, line[len(":explain"):].strip(), explain=True)
        print(out.render_text())
    elif line.startswith(":bayes"):
        _repl_bayes(line[len(":bayes"):].strip(), model)
    elif line.startswith(":"):
        print(f"error: unknown command {line.split()[0]!r}")
    else:
        print(run_query(model, line).result_text())


def _repl_space(text: str, model: Model) -> None:
    f = parse_formula(text)
    d = denote(f, model)
    if isinstance(d, Undetermined):
        print(f"undetermined: {d.reason}")
        return
    print(f"support: {format_support(d.support)}")
    print(f"space: {d}")
    try:
        print(f"set normal form: {format_formula(to_set_normal_form(d))}")
    except EmptySpaceError as err:
        print(f"set normal form: none ({err})")


def _repl_bayes(text: str, model: Model) -> None:
    variant, _, rest = text.partition(" ")
    if variant not in ("additive", "parallel"):
        raise ValueError(":bayes needs a variant: additive or parallel")
    rest = rest.strip()
    if not rest.startswith("["):
        raise ValueError(":bayes syntax: :bayes <variant> [cell, cell, ...] <evidence>")
    cells_part, sep, evidence_part = rest[1:].partition("]")
    if not sep or not evidence_part.strip():
        raise ValueError(":bayes syntax: :bayes <variant> [cell, cell, ...] <evidence>")
    cells = [parse_formula(c) for c in cells_part.split(",")]
    evidence = parse_formula(evidence_part.strip())
    report, values = posteriors(Partition(tuple(cells)), evidence, model, variant)
    print(_bayes_text(report, cells, values))


def build_arg_parser():
    import argparse  # here, so that importing colprob.cli does not load it

    class _Parser(argparse.ArgumentParser):
        """An argument parser whose usage errors raise, so that ``main`` maps
        them like any other error; its subcommands' parsers are its class."""

        def error(self, message: str):
            raise ValueError(message)

    parser = _Parser(
        prog="colprob",
        description="Exact probabilities for event formulas over declared experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one query")
    p_eval.add_argument("--model", required=True, help="model file")
    p_eval.add_argument("--query", required=True, help="formula to evaluate")
    p_eval.add_argument("--explain", action="store_true", help="print the rule derivation")
    p_eval.add_argument("--oracle", action="store_true",
                        help="cross-check with brute-force enumeration")
    p_eval.add_argument("--mc-samples", type=int, default=None, metavar="N",
                        help="also run a seeded Monte Carlo estimate")
    p_eval.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p_eval.add_argument("--json", action="store_true", help="machine-readable output")
    p_eval.set_defaults(func=_cmd_eval)

    p_bayes = sub.add_parser("bayes", help="posteriors over a partition")
    p_bayes.add_argument("--model", required=True)
    p_bayes.add_argument("--variant", required=True, choices=("additive", "parallel"))
    p_bayes.add_argument("--cell", action="append", required=True,
                         help="partition cell (repeat; at least two)")
    p_bayes.add_argument("--evidence", required=True)
    p_bayes.add_argument("--json", action="store_true")
    p_bayes.set_defaults(func=_cmd_bayes)

    p_repl = sub.add_parser("repl", help="interactive query loop")
    p_repl.add_argument("--model", required=True)
    p_repl.set_defaults(func=_cmd_repl)

    p_check = sub.add_parser("check", help="validate a model file")
    p_check.add_argument("--model", required=True)
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, ColprobError) as err:
        code = _fail(str(err))
        for v in getattr(err, "violations", ()):
            print(f"  {v}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
