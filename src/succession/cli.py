"""Command-line interface.

Four subcommands: ``predict`` (next-instance or block probability under a
named or fully specified prior), ``posterior`` (posterior probability of
the no-exceptions hypothesis plus its Bayes factor), ``compare`` (a table
of rules across sample sizes), and ``lab`` (exchangeability checks, urn
laws, and finite-representation distance checks).

All numeric input is parsed exactly: integers of any length, rationals as
``p/q`` or decimal strings. Floats never appear. Output is plain text,
JSON, or CSV; every value travels as an exact numerator/denominator pair
of decimal strings plus a fixed-point decimal rendered with ties-to-even
rounding.

Exit codes: 0 success, 2 usage error, 3 model contradiction
(ZeroEvidenceProbability or UGFalsified, named on stderr), 4 resource
limit (a sequence table over the size cap).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Sequence

from .binary import BinaryPrior, Evidence, predict_block, predict_next
from .errors import (
    DimensionMismatch,
    InvalidRule,
    NoContinuousComponent,
    SampleTooLarge,
    TableTooLarge,
    UGFalsified,
    ZeroEvidenceProbability,
)
from .exact import ONE, ZERO, as_rational, decimal_string, int_string, parse_int
from .lab import (
    UrnComposition,
    canonical_mixture,
    df_bound,
    has_positive_cylinders,
    is_exchangeable,
    law_from_predictive,
    sufficientness_witness,
    urn_law,
    variation_distance,
)
from .simplex import (
    SimplexMixturePrior,
    carnap_predictive,
    dirichlet_predictive,
    from_binary_prior,
    mixture_posterior,
    mixture_predictive,
)

__all__ = ["main"]

MAX_DIGITS = 10_000
# the named binary rules, each a prior built from alpha
NAMED_PRIORS: dict[str, Callable[[Fraction], BinaryPrior]] = {
    "laplace": BinaryPrior.laplace,
    "haldane": BinaryPrior.haldane,
    "jeffreys-split": BinaryPrior.jeffreys_split,
}
BINARY_RULES = (*NAMED_PRIORS, "general")
LAB_RULES = ("dirichlet", "carnap", "hintikka", *NAMED_PRIORS)
# per-sequence listings switch to per-class summaries above this many rows
URN_LISTING_CAP = 256


# ---------------------------------------------------------------- parsing


def _nonneg_int(text: str) -> int:
    try:
        value = parse_int(text.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _rational(text: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _positive_rational(text: str) -> Fraction:
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _nonneg_rational(text: str) -> Fraction:
    value = _rational(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _digits(text: str) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 1 <= value <= MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"digits must be in 1..{MAX_DIGITS}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(_nonneg_int(part) for part in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated nonnegative integers, got {text!r}"
        )


def _rational_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(_positive_rational(part) for part in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive rationals, got {text!r}"
        )


def _rule_list(text: str) -> tuple[str, ...]:
    rules = tuple(part.strip() for part in text.split(","))
    for rule in rules:
        if rule not in NAMED_PRIORS:
            raise argparse.ArgumentTypeError(
                f"unknown rule {rule!r}; choose from {', '.join(NAMED_PRIORS)}"
            )
    return rules


# ------------------------------------------------------------- rendering


def _record(
    rule: str, inputs: dict[str, str], value: Fraction, digits: int
) -> dict:
    return {
        "rule": rule,
        "inputs": inputs,
        "exact": {
            "num": int_string(value.numerator),
            "den": int_string(value.denominator),
        },
        "decimal": decimal_string(value, digits),
    }


def _text(value: Fraction | int) -> str:
    """``str(value)`` for an exact number of any length."""
    value = Fraction(value)
    if value.denominator == 1:
        return int_string(value.numerator)
    return f"{int_string(value.numerator)}/{int_string(value.denominator)}"


def _bool_record(rule: str, inputs: dict[str, str], flag: bool, digits: int) -> dict:
    return _record(rule, inputs, ONE if flag else ZERO, digits)


def _plain_line(rec: dict) -> str:
    inputs = " ".join(f"{k}={v}" for k, v in rec["inputs"].items())
    exact = f"{rec['exact']['num']}/{rec['exact']['den']}"
    head = f"{rec['rule']} {inputs}".rstrip()
    return f"{head}: exact {exact}, decimal {rec['decimal']}"


def _emit(
    records: list[dict],
    fmt: str,
    *,
    single: bool = False,
    plain_lines: Sequence[str] | None = None,
) -> None:
    if fmt == "json":
        payload = records[0] if single and len(records) == 1 else records
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["rule", "n", "inputs", "num", "den", "decimal"])
        for rec in records:
            inputs = " ".join(f"{k}={v}" for k, v in rec["inputs"].items())
            writer.writerow(
                [
                    rec["rule"],
                    rec["inputs"].get("n", ""),
                    inputs,
                    rec["exact"]["num"],
                    rec["exact"]["den"],
                    rec["decimal"],
                ]
            )
    else:
        for line in plain_lines if plain_lines is not None else map(
            _plain_line, records
        ):
            print(line)


# ------------------------------------------------------------- the prior


def _build_prior(args: argparse.Namespace) -> tuple[BinaryPrior, dict[str, str]]:
    """Construct the BinaryPrior a subcommand asked for, plus an input echo."""
    rule: str | None = args.rule
    if rule is None:
        raise ValueError("missing --rule")
    alpha: Fraction = args.alpha
    beta: Fraction = args.beta
    odds: Fraction | None = args.prior_odds
    echo: dict[str, str] = {}

    masses = (args.mass1, args.mass0, args.mass_cont)
    if rule != "general" and any(m is not None for m in masses):
        raise ValueError("--mass1/--mass0/--mass-cont require --rule general")
    if rule != "general" and rule != "laplace" and beta != 1:
        raise ValueError(f"rule {rule!r} is defined with beta = 1")

    if rule == "general":
        if any(m is None for m in masses):
            raise ValueError(
                "--rule general needs --mass1, --mass0, and --mass-cont"
            )
        if odds is not None:
            raise ValueError("--prior-odds cannot be combined with explicit masses")
        prior = BinaryPrior(masses[0], masses[1], masses[2], alpha, beta)
        echo.update(
            mass1=_text(masses[0]), mass0=_text(masses[1]), mass_cont=_text(masses[2])
        )
    elif odds is None:
        # beta is 1 for every named rule but laplace (checked above)
        prior = replace(NAMED_PRIORS[rule](alpha), beta=beta)
    elif rule == "laplace":
        raise ValueError("--prior-odds is meaningless for laplace "
                         "(no mass on the no-exceptions hypothesis)")
    elif rule == "haldane":
        prior = BinaryPrior.from_prior_odds(odds, alpha)
    else:  # jeffreys-split: the odds' point mass split evenly over both points
        share = odds / (2 * (1 + odds))
        prior = BinaryPrior(share, share, 1 / (1 + odds), alpha, ONE)

    echo["alpha"] = _text(alpha)
    if rule in ("general", "laplace"):
        echo["beta"] = _text(beta)
    if odds is not None:
        echo["prior_odds"] = _text(odds)
    return prior, echo


def _require_n(args: argparse.Namespace) -> int:
    if args.n is None:
        raise ValueError("missing --n")
    return args.n


# ------------------------------------------------------------- handlers


def _cmd_predict(args: argparse.Namespace) -> int:
    prior, echo = _build_prior(args)
    ev = Evidence(_require_n(args), args.m)
    inputs = {"n": _text(ev.confirm), "m": _text(ev.disconfirm), **echo}
    if args.block is not None:
        value = predict_block(prior, ev, args.block)
        inputs["block"] = _text(args.block)
    else:
        value = predict_next(prior, ev)
    rec = _record(args.rule, inputs, value, args.digits)
    _emit([rec], args.format, single=True)
    return 0


def _cmd_posterior(args: argparse.Namespace) -> int:
    prior, echo = _build_prior(args)
    if prior.mass_theta1 + prior.mass_theta0 == 0:
        raise ValueError(
            "the prior puts no mass on a universal generalization; "
            "posterior and Bayes factor are not defined"
        )
    if prior.mass_continuous == 0:
        raise ValueError(
            "the prior has no continuous alternative; the Bayes factor "
            "is not defined"
        )
    ev = Evidence(_require_n(args), args.m)
    if ev.disconfirm > 0 and prior.mass_theta0 == 0:
        raise UGFalsified(
            f"{ev.disconfirm} disconfirming instance(s) falsify the "
            "generalization outright"
        )
    inputs = {"rule": args.rule, "n": _text(ev.confirm), "m": _text(ev.disconfirm), **echo}

    w1, w0, wc = mixture_posterior(
        from_binary_prior(prior), (ev.confirm, ev.disconfirm)
    )
    # posterior odds of the point masses against the continuous part are
    # their prior odds times the Bayes factor
    point_mass = prior.mass_theta1 + prior.mass_theta0
    factor = (w1 + w0) / wc * prior.mass_continuous / point_mass
    records = [
        _record("posterior-ug", inputs, w1, args.digits),
        _record("bayes-factor", inputs, factor, args.digits),
    ]
    _emit(records, args.format)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.n_list is None:
        raise ValueError("missing --n-list")
    records = []
    for rule in args.rules:
        prior = NAMED_PRIORS[rule](args.alpha)
        for n in args.n_list:
            value = predict_next(prior, Evidence(n))
            inputs = {"n": _text(n), "alpha": _text(args.alpha)}
            records.append(_record(rule, inputs, value, args.digits))
    _emit(records, args.format)
    return 0


def _lab_rule(args: argparse.Namespace) -> tuple[Callable, int, dict[str, str]]:
    """Resolve a named predictive rule to (callable, t, echo)."""
    rule: str | None = args.rule
    if rule is None:
        raise ValueError("missing --rule")
    echo: dict[str, str] = {"rule": rule}
    if rule == "dirichlet":
        if args.params is None:
            raise ValueError("--rule dirichlet needs --params")
        params = args.params
        if len(params) < 2:
            raise ValueError("need at least two Dirichlet parameters")
        echo["params"] = ",".join(map(_text, params))
        return (
            lambda counts: dirichlet_predictive(counts, params),
            len(params),
            echo,
        )
    if rule == "carnap":
        if args.t is None or args.lam is None:
            raise ValueError("--rule carnap needs --t and --lambda")
        t, lam = args.t, args.lam
        echo.update(t=_text(t), **{"lambda": _text(lam)})
        return lambda counts: carnap_predictive(counts, lam), t, echo
    if rule == "hintikka":
        if args.t is None:
            raise ValueError("--rule hintikka needs --t")
        prior = SimplexMixturePrior.hintikka_default(args.t)
        echo["t"] = _text(args.t)
        return lambda counts: mixture_predictive(prior, counts), args.t, echo
    # binary rules, confirmation mapped to type 0
    echo["alpha"] = _text(args.alpha)
    mixture = from_binary_prior(NAMED_PRIORS[rule](args.alpha))
    return lambda counts: mixture_predictive(mixture, counts), 2, echo


def _cmd_lab_exchangeable(args: argparse.Namespace) -> int:
    rule_fn, t, echo = _lab_rule(args)
    if args.length is None:
        raise ValueError("missing --length")
    echo["length"] = _text(args.length)
    law = law_from_predictive(rule_fn, t, args.length)
    exch = is_exchangeable(law)
    cyl = has_positive_cylinders(law)
    records = [
        _bool_record("exchangeable", echo, exch, args.digits),
        _bool_record("positive-cylinders", echo, cyl, args.digits),
    ]
    lines = [
        f"exchangeable: {'yes' if exch else 'no'}",
        f"positive-cylinders: {'yes' if cyl else 'no'}",
    ]
    _emit(records, args.format, plain_lines=lines)
    return 0


def _cmd_lab_sufficientness(args: argparse.Namespace) -> int:
    rule_fn, t, echo = _lab_rule(args)
    echo["max_n"] = _text(args.max_n)
    witness = sufficientness_witness(rule_fn, t, args.max_n)
    records = [_bool_record("sufficientness", echo, witness is None, args.digits)]
    if witness is None:
        lines = [f"sufficientness: holds for all samples up to n={args.max_n}"]
    else:
        j, counts_a, counts_b, val_a, val_b = witness
        for tag, counts, val in (
            ("witness-a", counts_a, val_a),
            ("witness-b", counts_b, val_b),
        ):
            records.append(
                _record(
                    f"sufficientness-{tag}",
                    {
                        **echo,
                        "type": str(j),
                        "counts": ",".join(map(_text, counts)),
                    },
                    val,
                    args.digits,
                )
            )
        lines = [
            "sufficientness: fails",
            f"witness: predicting type {j} after counts "
            f"{counts_a} gives {_text(val_a)}, after counts {counts_b} gives {_text(val_b)}; "
            "both samples agree on the type's tally and the total",
        ]
    _emit(records, args.format, plain_lines=lines)
    return 0


def _cmd_lab_df_check(args: argparse.Namespace) -> int:
    if args.urn is None:
        raise ValueError("missing --urn")
    if args.k is None:
        raise ValueError("missing --k")
    urn = UrnComposition(args.urn)
    echo = {"urn": ",".join(map(_text, urn.colors)), "k": _text(args.k)}
    restricted = urn_law(urn, args.k)
    mixture = canonical_mixture(urn_law(urn, urn.total), args.k)
    distance = variation_distance(restricted, mixture)
    bound = df_bound(urn.t, args.k, urn.total)
    records = [
        _record("distance", echo, distance, args.digits),
        _record("bound", echo, bound, args.digits),
        _bool_record("within-bound", echo, distance <= bound, args.digits),
    ]
    lines = [
        f"distance: {_text(distance)} ({decimal_string(distance, args.digits)})",
        f"bound: {_text(bound)} ({decimal_string(bound, args.digits)})",
        f"within bound: {'yes' if distance <= bound else 'no'}",
    ]
    _emit(records, args.format, plain_lines=lines)
    return 0


def _cmd_lab_urn(args: argparse.Namespace) -> int:
    if args.colors is None:
        raise ValueError("missing --colors")
    if args.k is None:
        raise ValueError("missing --k")
    urn = UrnComposition(args.colors)
    law = urn_law(urn, args.k)
    echo = {"colors": ",".join(map(_text, urn.colors)), "k": _text(args.k)}
    records = []
    lines = []
    if urn.t**args.k <= URN_LISTING_CAP:
        for seq, prob in law.items():
            word = "".join(map(str, seq))
            records.append(
                _record("urn-sequence", {**echo, "sequence": word}, prob, args.digits)
            )
            lines.append(
                f"P({word}) = {_text(prob)} ({decimal_string(prob, args.digits)})"
            )
    else:
        table = law.class_table()
        assert table is not None
        for counts in sorted(table):
            prob = table[counts]
            records.append(
                _record(
                    "urn-class",
                    {**echo, "counts": ",".join(map(_text, counts))},
                    prob,
                    args.digits,
                )
            )
            lines.append(
                f"P(any sequence with counts {counts}) = {_text(prob)} "
                f"({decimal_string(prob, args.digits)})"
            )
    _emit(records, args.format, plain_lines=lines)
    return 0


# -------------------------------------------------------------- wiring


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["plain", "json", "csv"], default="plain"
    )
    parser.add_argument("--digits", type=_digits, default=12)
    parser.add_argument(
        "--config",
        default=None,
        help="flat key=value file of default flag values; "
        "command-line flags win",
    )


def _add_prior_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rule", choices=BINARY_RULES, default=None)
    parser.add_argument("--n", type=_nonneg_int, default=None,
                        help="confirming instances (any length)")
    parser.add_argument("--m", type=_nonneg_int, default=0,
                        help="disconfirming instances")
    parser.add_argument("--alpha", type=_positive_rational, default=ONE)
    parser.add_argument("--beta", type=_positive_rational, default=ONE)
    parser.add_argument("--prior-odds", type=_positive_rational, default=None,
                        help="prior odds for the no-exceptions hypothesis")
    parser.add_argument("--mass1", type=_nonneg_rational, default=None)
    parser.add_argument("--mass0", type=_nonneg_rational, default=None)
    parser.add_argument("--mass-cont", type=_nonneg_rational, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="succession",
        description="Exact predictive probabilities for enumerative induction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_predict = sub.add_parser(
        "predict", help="next-instance or block confirmation probability"
    )
    _add_prior_flags(p_predict)
    p_predict.add_argument("--block", type=_positive_int, default=None,
                           help="probability the next BLOCK instances all confirm")
    _add_common(p_predict)
    p_predict.set_defaults(handler=_cmd_predict)

    p_posterior = sub.add_parser(
        "posterior",
        help="posterior probability and Bayes factor of the "
        "no-exceptions hypothesis",
    )
    _add_prior_flags(p_posterior)
    p_posterior.set_defaults(rule="haldane")
    _add_common(p_posterior)
    p_posterior.set_defaults(handler=_cmd_posterior)

    p_compare = sub.add_parser(
        "compare", help="table of rules across sample sizes"
    )
    p_compare.add_argument("--n-list", type=_int_list, default=None)
    p_compare.add_argument(
        "--rules",
        type=_rule_list,
        default=("laplace", "haldane", "jeffreys-split"),
    )
    p_compare.add_argument("--alpha", type=_positive_rational, default=ONE)
    _add_common(p_compare)
    p_compare.set_defaults(handler=_cmd_compare)

    p_lab = sub.add_parser("lab", help="exchangeability laboratory")
    lab_sub = p_lab.add_subparsers(dest="lab_command", required=True)

    p_exch = lab_sub.add_parser(
        "exchangeable",
        help="build a law from a predictive rule and check its structure",
    )
    p_exch.add_argument("--rule", choices=LAB_RULES, default=None)
    p_exch.add_argument("--params", type=_rational_list, default=None,
                        help="Dirichlet parameters, comma separated")
    p_exch.add_argument("--t", type=_positive_int, default=None)
    p_exch.add_argument("--lambda", dest="lam", type=_positive_rational,
                        default=None)
    p_exch.add_argument("--alpha", type=_positive_rational, default=ONE)
    p_exch.add_argument("--length", type=_positive_int, default=None)
    _add_common(p_exch)
    p_exch.set_defaults(handler=_cmd_lab_exchangeable)

    p_suff = lab_sub.add_parser(
        "sufficientness",
        help="check that predictions depend only on a type's tally and "
        "the sample size",
    )
    p_suff.add_argument("--rule", choices=LAB_RULES, default=None)
    p_suff.add_argument("--params", type=_rational_list, default=None)
    p_suff.add_argument("--t", type=_positive_int, default=None)
    p_suff.add_argument("--lambda", dest="lam", type=_positive_rational,
                        default=None)
    p_suff.add_argument("--alpha", type=_positive_rational, default=ONE)
    p_suff.add_argument("--max-n", type=_nonneg_int, default=5)
    _add_common(p_suff)
    p_suff.set_defaults(handler=_cmd_lab_sufficientness)

    p_df = lab_sub.add_parser(
        "df-check",
        help="distance of an urn's k-draw law from its canonical "
        "finite mixture, against the 2tk/n bound",
    )
    p_df.add_argument("--urn", type=_int_list, default=None,
                      help="ball counts per color, comma separated")
    p_df.add_argument("--k", type=_positive_int, default=None)
    _add_common(p_df)
    p_df.set_defaults(handler=_cmd_lab_df_check)

    p_urn = lab_sub.add_parser(
        "urn", help="exact law of k ordered draws without replacement"
    )
    p_urn.add_argument("--colors", type=_int_list, default=None)
    p_urn.add_argument("--k", type=_positive_int, default=None)
    _add_common(p_urn)
    p_urn.set_defaults(handler=_cmd_lab_urn)

    return parser


def _config_tokens(path: str) -> list[str]:
    tokens: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key = key.strip().replace("_", "-")
            if key == "config":
                continue
            tokens.extend([f"--{key}", value.strip()])
    return tokens


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    config = getattr(args, "config", None)
    if config:
        tokens = _config_tokens(config)
        if tokens:
            # config supplies defaults: its tokens go before the user's, and
            # argparse lets later occurrences win
            head = 0
            while head < len(argv) and not argv[head].startswith("-"):
                head += 1
            args = parser.parse_args(argv[:head] + tokens + argv[head:])
    return args


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = _parse(parser, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (ZeroEvidenceProbability, UGFalsified) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except TableTooLarge as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (
        SampleTooLarge,
        DimensionMismatch,
        InvalidRule,
        NoContinuousComponent,
        ValueError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
