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

Exit codes: 0 success, 1 stdout closed by its reader (BrokenPipeError;
nothing more is written) or before the process started, 2 usage error, 3
model contradiction (ZeroEvidenceProbability or UGFalsified, named on
stderr), 4 resource limit (ResourceLimit: a sequence table over the size
cap, a sufficientness search over the count-vector cap, or a rising
factorial over the term cap).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from argparse import ArgumentTypeError
from collections.abc import Callable, Sequence
from fractions import Fraction

from .binary import BinaryPrior, Evidence, _posterior, predict_block, predict_next
from .errors import ResourceLimit, SuccessionError, UGFalsified, ZeroEvidenceProbability
from .exact import ONE, as_rational, decimal_string, int_string, parse_int
from .simplex import (
    SimplexMixturePrior,
    carnap_predictive,
    dirichlet_predictive,
    from_binary_prior,
    mixture_predictive,
)

__all__ = ["main"]

# the lab handlers import lab themselves: the other commands never load it

MAX_DIGITS = 10_000
# per-sequence listings switch to per-class summaries above this many rows
URN_LISTING_CAP = 256
# errors that are not usage errors, subclasses included; every other one exits 2
EXIT_CODES = {ZeroEvidenceProbability: 3, UGFalsified: 3, ResourceLimit: 4}


NAMED_PRIORS: dict[str, Callable[[Fraction], BinaryPrior]] = {
    "laplace": BinaryPrior.laplace,
    "haldane": BinaryPrior.haldane,
    "jeffreys-split": BinaryPrior.jeffreys_split,
}
TAKES_BETA = ("laplace", "general")
BINARY_RULES = (*NAMED_PRIORS, "general")
LAB_RULES = ("dirichlet", "carnap", "hintikka", *NAMED_PRIORS)
# the parameter flags each lab rule reads; a binary rule reads --alpha alone
LAB_RULE_READS = {"dirichlet": ("params",), "carnap": ("t", "lam"), "hintikka": ("t",)}


# ---------------------------------------------------------------- parsing


def _number(parse: Callable, what: str, *bounds: tuple[Callable, str]) -> Callable:
    """An argparse type: ``parse`` the text, then check each (test, message)
    bound in order. A message is formatted with the parsed value."""

    def convert(text: str) -> object:
        try:
            value = parse(text)
        except (ValueError, TypeError):
            raise ArgumentTypeError(f"not {what}: {text!r}")
        for test, message in bounds:
            if not test(value):
                raise ArgumentTypeError(message.format(value))
        return value

    return convert


def _listed(convert: Callable, what: str | None) -> Callable:
    """An argparse type for comma-separated values, each through ``convert``.
    A bad value fails the list of ``what``, or with its own message if None."""

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(part) for part in text.split(","))
        except ArgumentTypeError:
            if what is None:
                raise
            raise ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")

    return parse


_NONNEG = (lambda v: v >= 0, "must be nonnegative")
_count = _number(parse_int, "an integer", _NONNEG)
_positive_int = _number(
    parse_int, "an integer", _NONNEG, (lambda v: v >= 1, "must be at least 1")
)
_positive = _number(as_rational, "a rational", (lambda v: v > 0, "must be positive"))
_counts = _listed(_count, "nonnegative integers")
_rule = _number(str.strip, "a rule", (
    NAMED_PRIORS.__contains__,
    "unknown rule {!r}; choose from " + ", ".join(NAMED_PRIORS),
))


def _opt(flag: str, **options: object) -> tuple[str, dict[str, object]]:
    return flag, options


_digits = _number(parse_int, "an integer", (
    lambda v: 1 <= v <= MAX_DIGITS, f"digits must be in 1..{MAX_DIGITS}"
))
COMMON_FLAGS = (
    _opt("--format", choices=["plain", "json", "csv"], default="plain"),
    _opt("--digits", type=_digits, default=12),
    _opt("--config", help="flat key=value file of default flag values; "
         "command-line flags win"),
)
ALPHA = _opt("--alpha", type=_positive, default=ONE)
PRIOR_FLAGS = (  # everything but --rule, whose default differs by command
    _opt("--n", type=_count, help="confirming instances (any length)"),
    _opt("--m", type=_count, default=0, help="disconfirming instances"),
    ALPHA,
    _opt("--beta", type=_positive, default=ONE),
    _opt("--prior-odds", type=_positive,
         help="prior odds for the no-exceptions hypothesis"),
    *(_opt(mass, type=_number(as_rational, "a rational", _NONNEG))
      for mass in ("--mass1", "--mass0", "--mass-cont")),
)
LAB_RULE_FLAGS = (
    _opt("--rule", choices=LAB_RULES),
    _opt("--params", type=_listed(_positive, "positive rationals"),
         help="Dirichlet parameters, comma separated"),
    _opt("--t", type=_positive_int),
    _opt("--lambda", dest="lam", type=_positive),
    ALPHA,
)
K = _opt("--k", type=_positive_int)
# command path -> (help, flags ahead of COMMON_FLAGS, handler), in --help order
COMMANDS: dict[str, tuple[str, tuple, Callable]] = {}


def _command(path: str, help: str, *flags: tuple[str, dict[str, object]]) -> Callable:
    """Declare the decorated handler as subcommand ``path`` with ``flags``."""

    def register(handler: Callable[[argparse.Namespace], None]) -> Callable:
        COMMANDS[path] = (help, flags, handler)
        return handler

    return register


# ------------------------------------------------------------- rendering


def _record(rule: str, inputs: dict, value: Fraction | bool, digits: int) -> dict:
    value = Fraction(value)
    exact = {"num": int_string(value.numerator), "den": int_string(value.denominator)}
    return {"rule": rule, "inputs": inputs, "exact": exact,
            "decimal": decimal_string(value, digits)}


def _text(value: Fraction | int) -> str:
    """``str(value)`` for an exact number of any length."""
    value = Fraction(value)
    if value.denominator == 1:
        return int_string(value.numerator)
    return f"{int_string(value.numerator)}/{int_string(value.denominator)}"


def _pairs(rec: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in rec["inputs"].items())


def _plain_line(rec: dict) -> str:
    exact = f"{rec['exact']['num']}/{rec['exact']['den']}"
    head = f"{rec['rule']} {_pairs(rec)}".rstrip()
    return f"{head}: exact {exact}, decimal {rec['decimal']}"


def _emit(records: list[dict], fmt: str, lines: Sequence[str] = ()) -> None:
    if fmt == "json":
        print(json.dumps(records, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["rule", "n", "inputs", "num", "den", "decimal"])
        for rec in records:
            num, den = rec["exact"].values()
            n = rec["inputs"].get("n", "")
            writer.writerow([rec["rule"], n, _pairs(rec), num, den, rec["decimal"]])
    else:
        for line in lines or map(_plain_line, records):
            print(line)


# ------------------------------------------------------------- the prior


def _need(args: argparse.Namespace, *flags: str) -> None:
    """Refuse a command that lacks any of these flags."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is None:
            raise ValueError(f"missing --{flag}")


def _build_prior(args: argparse.Namespace) -> tuple[BinaryPrior, dict[str, str]]:
    """Construct the BinaryPrior a subcommand asked for, plus an input echo."""
    _need(args, "rule")
    rule, alpha, beta, odds = args.rule, args.alpha, args.beta, args.prior_odds
    masses = (args.mass1, args.mass0, args.mass_cont)
    echo: dict[str, str] = {}
    if rule == "general":
        if any(m is None for m in masses):
            raise ValueError("--rule general needs --mass1, --mass0, and --mass-cont")
        if odds is not None:
            raise ValueError("--prior-odds cannot be combined with explicit masses")
        prior = BinaryPrior(*masses, alpha, beta)
        echo = dict(zip(("mass1", "mass0", "mass_cont"), map(_text, masses)))
    elif any(m is not None for m in masses):
        raise ValueError("--mass1/--mass0/--mass-cont require --rule general")
    elif rule not in TAKES_BETA and beta != 1:
        raise ValueError(f"rule {rule!r} is defined with beta = 1")
    else:
        # beta is 1 unless the rule takes it (checked above)
        prior = (BinaryPrior.laplace(alpha, beta) if rule == "laplace"
                 else NAMED_PRIORS[rule](alpha))
        if odds is not None:
            if prior.mass_theta1 + prior.mass_theta0 == 0:
                raise ValueError(f"--prior-odds is meaningless for {rule} "
                                 "(no mass on the no-exceptions hypothesis)")
            prior = prior.with_prior_odds(odds)

    echo["alpha"] = _text(alpha)
    if rule in TAKES_BETA:
        echo["beta"] = _text(beta)
    if odds is not None:
        echo["prior_odds"] = _text(odds)
    return prior, echo


# ------------------------------------------------------------- handlers


@_command(
    "predict", "next-instance or block confirmation probability",
    _opt("--rule", choices=BINARY_RULES), *PRIOR_FLAGS,
    _opt("--block", type=_positive_int,
         help="probability the next BLOCK instances all confirm"),
)
def _cmd_predict(args: argparse.Namespace) -> None:
    prior, echo = _build_prior(args)
    _need(args, "n")
    ev = Evidence(args.n, args.m)
    inputs = {"n": _text(ev.confirm), "m": _text(ev.disconfirm), **echo}
    if args.block is not None:
        value = predict_block(prior, ev, args.block)
        inputs["block"] = _text(args.block)
    else:
        value = predict_next(prior, ev)
    rec = _record(args.rule, inputs, value, args.digits)
    if args.format == "json":
        print(json.dumps(rec, indent=2))
    else:
        _emit([rec], args.format)


@_command(
    "posterior",
    "posterior probability and Bayes factor of the no-exceptions hypothesis",
    _opt("--rule", choices=BINARY_RULES, default="haldane"), *PRIOR_FLAGS,
)
def _cmd_posterior(args: argparse.Namespace) -> None:
    prior, echo = _build_prior(args)
    if prior.mass_theta1 + prior.mass_theta0 == 0:
        raise ValueError("the prior puts no mass on a universal generalization; "
                         "posterior and Bayes factor are not defined")
    if prior.mass_continuous == 0:
        raise ValueError("the prior has no continuous alternative; "
                         "the Bayes factor is not defined")
    _need(args, "n")
    ev = Evidence(args.n, args.m)
    if ev.disconfirm > 0 and prior.mass_theta0 == 0:
        raise UGFalsified(f"{ev.disconfirm} disconfirming instance(s) falsify the "
                          "generalization outright")
    inputs = {"rule": args.rule, "n": _text(ev.confirm), "m": _text(ev.disconfirm)}
    inputs.update(echo)

    (a1, a0, ac), total = _posterior(prior, ev)
    # posterior odds of the point masses against the continuous part are
    # their prior odds times the Bayes factor; ac > 0, as the continuous
    # part has mass and gives every record a positive marginal
    point_mass = prior.mass_theta1 + prior.mass_theta0
    factor = Fraction(a1 + a0, ac) * prior.mass_continuous / point_mass
    records = [
        _record("posterior-ug", inputs, Fraction(a1, total), args.digits),
        _record("bayes-factor", inputs, factor, args.digits),
    ]
    _emit(records, args.format)


@_command(
    "compare", "table of rules across sample sizes",
    _opt("--n-list", type=_counts),
    _opt("--rules", type=_listed(_rule, None), default=tuple(NAMED_PRIORS)),
    ALPHA,
)
def _cmd_compare(args: argparse.Namespace) -> None:
    _need(args, "n-list")
    records = []
    for rule in args.rules:
        prior = NAMED_PRIORS[rule](args.alpha)
        for n in args.n_list:
            value = predict_next(prior, Evidence(n))
            inputs = {"n": _text(n), "alpha": _text(args.alpha)}
            records.append(_record(rule, inputs, value, args.digits))
    _emit(records, args.format)


def _lab_rule(args: argparse.Namespace) -> tuple[Callable, int, dict[str, str]]:
    """Resolve a named predictive rule to (callable, t, echo)."""
    _need(args, "rule")
    rule, params = args.rule, args.params
    reads = LAB_RULE_READS.get(rule, ("alpha",))
    flags = {"params": "--params", "t": "--t", "lam": "--lambda"}
    for dest, flag in flags.items():
        if dest not in reads and getattr(args, dest) is not None:
            raise ValueError(f"rule {rule!r} does not take {flag}")
    # --alpha defaults to 1, so only another value shows it was set; it is
    # never missing
    if "alpha" not in reads and args.alpha != 1:
        raise ValueError(f"rule {rule!r} does not take --alpha")
    if any(getattr(args, dest) is None for dest in reads):
        raise ValueError(f"--rule {rule} needs " + " and ".join(map(flags.get, reads)))
    echo: dict[str, str] = {"rule": rule}
    if rule == "dirichlet":
        if len(params) < 2:
            raise ValueError("need at least two Dirichlet parameters")
        echo["params"] = ",".join(map(_text, params))
        return lambda counts: dirichlet_predictive(counts, params), len(params), echo
    if rule == "carnap":
        t, lam = args.t, args.lam
        echo.update({"t": _text(t), "lambda": _text(lam)})
        return lambda counts: carnap_predictive(counts, lam), t, echo
    if rule == "hintikka":
        if args.t < 2:
            raise ValueError("need at least two outcome types")
        # built on the first rule call, after the lab's caps have passed
        prior = functools.cache(lambda: SimplexMixturePrior.hintikka_default(args.t))
        echo["t"] = _text(args.t)
        return lambda counts: mixture_predictive(prior(), counts), args.t, echo
    # binary rules, confirmation mapped to type 0
    echo["alpha"] = _text(args.alpha)
    mixture = from_binary_prior(NAMED_PRIORS[rule](args.alpha))
    return lambda counts: mixture_predictive(mixture, counts), 2, echo


@_command(
    "lab exchangeable", "build a law from a predictive rule and check its structure",
    *LAB_RULE_FLAGS, _opt("--length", type=_positive_int),
)
def _cmd_lab_exchangeable(args: argparse.Namespace) -> None:
    from . import lab

    _need(args, "rule", "length")
    rule_fn, t, echo = _lab_rule(args)
    echo["length"] = _text(args.length)
    law = lab.law_from_predictive(rule_fn, t, args.length)
    checks = {
        "exchangeable": lab.is_exchangeable(law),
        "positive-cylinders": lab.has_positive_cylinders(law),
    }
    records = [_record(name, echo, held, args.digits) for name, held in checks.items()]
    lines = [f"{name}: {'yes' if held else 'no'}" for name, held in checks.items()]
    _emit(records, args.format, lines)


@_command(
    "lab sufficientness",
    "check that predictions depend only on a type's tally and the sample size",
    *LAB_RULE_FLAGS, _opt("--max-n", type=_count, default=5),
)
def _cmd_lab_sufficientness(args: argparse.Namespace) -> None:
    from . import lab

    rule_fn, t, echo = _lab_rule(args)
    echo["max_n"] = _text(args.max_n)
    witness = lab.sufficientness_witness(rule_fn, t, args.max_n)
    records = [_record("sufficientness", echo, witness is None, args.digits)]
    if witness is None:
        lines = [f"sufficientness: holds for all samples up to n={args.max_n}"]
    else:
        j, counts_a, counts_b, val_a, val_b = witness
        for tag, counts, val in zip("ab", (counts_a, counts_b), (val_a, val_b)):
            inputs = dict(echo, type=str(j), counts=",".join(map(int_string, counts)))
            name = f"sufficientness-witness-{tag}"
            records.append(_record(name, inputs, val, args.digits))
        lines = [
            "sufficientness: fails",
            f"witness: predicting type {j} after counts {counts_a} gives "
            f"{_text(val_a)}, after counts {counts_b} gives {_text(val_b)}; "
            "both samples agree on the type's tally and the total",
        ]
    _emit(records, args.format, lines)


@_command(
    "lab df-check",
    "distance of an urn's k-draw law from its canonical finite mixture, "
    "against the 2tk/n bound",
    _opt("--urn", type=_counts, help="ball counts per color, comma separated"), K,
)
def _cmd_lab_df_check(args: argparse.Namespace) -> None:
    from . import lab

    _need(args, "urn", "k")
    urn = lab.UrnComposition(args.urn)
    echo = {"urn": ",".join(map(int_string, urn.colors)), "k": _text(args.k)}
    restricted = lab.urn_law(urn, args.k)
    mixture = lab.canonical_mixture(lab.urn_law(urn, urn.total), args.k)
    distance = lab.variation_distance(restricted, mixture)
    values = {"distance": distance, "bound": lab.df_bound(urn.t, args.k, urn.total)}
    within = distance <= values["bound"]
    records = [_record(name, echo, v, args.digits) for name, v in values.items()]
    records.append(_record("within-bound", echo, within, args.digits))
    lines = [f"{name}: {_text(v)} ({decimal_string(v, args.digits)})"
             for name, v in values.items()]
    lines.append(f"within bound: {'yes' if within else 'no'}")
    _emit(records, args.format, lines)


@_command(
    "lab urn", "exact law of k ordered draws without replacement",
    _opt("--colors", type=_counts), K,
)
def _cmd_lab_urn(args: argparse.Namespace) -> None:
    from . import lab

    _need(args, "colors", "k")
    urn = lab.UrnComposition(args.colors)
    law = lab.urn_law(urn, args.k)
    echo = {"colors": ",".join(map(int_string, urn.colors)), "k": _text(args.k)}
    records, lines = [], []

    def add(name: str, extra: dict, label: str, prob: Fraction) -> None:
        records.append(_record(name, {**echo, **extra}, prob, args.digits))
        lines.append(f"{label} = {_text(prob)} ({decimal_string(prob, args.digits)})")

    if urn.t**args.k <= URN_LISTING_CAP:
        for seq, prob in law.items():
            word = "".join(map(str, seq))
            add("urn-sequence", {"sequence": word}, f"P({word})", prob)
    else:
        table = law.class_table()
        assert table is not None
        for counts, prob in sorted(table.items()):
            label = f"P(any sequence with counts {counts})"
            add("urn-class", {"counts": ",".join(map(int_string, counts))}, label, prob)
    _emit(records, args.format, lines)


# -------------------------------------------------------------- wiring


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="succession",
        description="Exact predictive probabilities for enumerative induction.",
        allow_abbrev=False,
    )
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for path, (help, flags, handler) in COMMANDS.items():
        group, _, name = path.rpartition(" ")
        if group not in subs:  # the one command group, "lab"
            lab = subs[""].add_parser(
                group, help="exchangeability laboratory", allow_abbrev=False
            )
            subs[group] = lab.add_subparsers(dest="lab_command", required=True)
        command = subs[group].add_parser(name, help=help, allow_abbrev=False)
        # each command gets Action objects of its own, so a default one
        # command sets never leaks into another
        for flag, options in (*flags, *COMMON_FLAGS):
            command.add_argument(flag, **options)
        command.set_defaults(handler=handler)
    return parser


def _config_tokens(path: str, command: str) -> list[str]:
    """The key=value lines of config file ``path`` as flag tokens; a key that
    is no flag of the command path ``command`` is refused."""
    flags = {flag for flag, _ in (*COMMANDS[command][1], *COMMON_FLAGS)}
    tokens: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = key.strip().replace("_", "-")
            if key == "config":
                continue
            if f"--{key}" not in flags:
                raise ValueError(
                    f"{path}:{lineno}: key {key!r} is not a flag of {command!r}"
                )
            tokens.extend([f"--{key}", value.strip()])
    return tokens


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if not args.config:
        return args
    command = next(p for p, (*_, h) in COMMANDS.items() if h is args.handler)
    if tokens := _config_tokens(args.config, command):
        # config supplies defaults: its tokens go before the user's, and
        # argparse lets later occurrences win
        head = next((i for i, a in enumerate(argv) if a.startswith("-")), len(argv))
        args = parser.parse_args(argv[:head] + tokens + argv[head:])
    return args


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(_build_parser(), argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args.handler(args)
        if sys.stdout is None:  # fd 1 was closed at start: the output went nowhere
            return 1
        sys.stdout.flush()
    except BrokenPipeError:  # reader gone: exit 1, and flush at exit into devnull
        import contextlib  # only here, as lab only in its handlers

        with contextlib.suppress(OSError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())  # if stdout has an fd
        return 1
    except (SuccessionError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next((EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES), 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
