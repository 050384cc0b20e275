"""The benchmark's workloads: inputs made from a seed, the op each input
drives, and the check of each op's result.

Inputs come in blocks. Block ``i`` of seed ``s`` is a pure function of
(workload, s, i), so the same seed gives the same inputs. Within a block
the mix of op kinds is fixed and input sizes are stratified (one draw from
each equal slice of the size range), so every block covers the whole size
range and runs with different seeds measure the same distribution.

Each workload has ``block(seed, index)``, ``warmup()``, ``run(op, wrap)``,
``check(op, result)`` and ``properties(ops, results)``. The caller times
``run``; ``wrap`` is applied to any predictive rule the op hands to the
lab, so a traced run can count rule calls. ``check`` runs afterwards,
outside the timed region, and returns None or a description of what is
wrong. Checks use answers that do not depend on the route the engine
takes: closed forms, factorial oracles, the chain rule and known truths.
``properties`` gives the shares of inputs with the properties an
optimization might target.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import oracles
from succession import binary, cli, exact, lab, simplex


@dataclass
class Op:
    kind: str
    params: dict


def _strata(
    rng: random.Random, count: int, low: float, high: float, log: bool = False
) -> list[float]:
    """``count`` values, one uniform draw from each of ``count`` equal
    slices of [low, high] (of its logarithm when ``log``), shuffled."""
    lo, hi = (math.log(low), math.log(high)) if log else (low, high)
    width = (hi - lo) / count
    values = [lo + (i + rng.random()) * width for i in range(count)]
    if log:
        values = [math.exp(v) for v in values]
    rng.shuffle(values)
    return values


def _rng(workload: str, seed, index) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# ------------------------------------------------------------ binary priors

_GENERAL_MASSES = (
    (F(1, 3), F(1, 3), F(1, 3)),
    (F(1, 2), F(1, 4), F(1, 4)),
    (F(1, 4), F(0), F(3, 4)),
    (F(0), F(1, 2), F(1, 2)),
    (F(1, 8), F(1, 8), F(3, 4)),
)
_ODDS = (F(1, 3), F(1, 2), F(1), F(2), F(5))
_NON_INTEGER = (F(1, 2), F(3, 2), F(5, 2), F(1, 3), F(2, 3), F(7, 4))


def _integer_prior(rng: random.Random) -> dict:
    """A prior description with integer shape parameters: the rule name the
    engine builds it from, and its masses for the oracles."""
    rule = rng.choice(("laplace", "haldane", "jeffreys-split", "prior-odds", "general"))
    alpha = F(rng.randint(1, 3))
    if rule == "laplace":
        return {"rule": rule, "masses": (F(0), F(0), F(1)), "alpha": alpha,
                "beta": F(rng.randint(1, 4))}
    if rule == "haldane":
        masses = (F(1, 2), F(0), F(1, 2))
    elif rule == "jeffreys-split":
        masses = (F(1, 4), F(1, 4), F(1, 2))
    elif rule == "prior-odds":
        d = rng.choice(_ODDS)
        return {"rule": rule, "odds": d, "masses": (d / (1 + d), F(0), 1 / (1 + d)),
                "alpha": alpha, "beta": F(1)}
    else:
        return {"rule": rule, "masses": rng.choice(_GENERAL_MASSES), "alpha": alpha,
                "beta": F(rng.randint(1, 4))}
    return {"rule": rule, "masses": masses, "alpha": alpha, "beta": F(1)}


def _non_integer_prior(rng: random.Random) -> dict:
    """Both shape parameters non-integer, so the engine takes the direct
    product route."""
    alpha, beta = rng.choice(_NON_INTEGER), rng.choice(_NON_INTEGER)
    if rng.random() < 0.5:
        return {"rule": "laplace", "masses": (F(0), F(0), F(1)), "alpha": alpha, "beta": beta}
    return {"rule": "general", "masses": rng.choice(_GENERAL_MASSES), "alpha": alpha,
            "beta": beta}


def _make_prior(spec: dict):
    rule, alpha, beta = spec["rule"], spec["alpha"], spec["beta"]
    BinaryPrior = binary.BinaryPrior
    if rule == "laplace":
        return BinaryPrior.laplace(alpha, beta)
    if rule == "haldane":
        return BinaryPrior.haldane(alpha)
    if rule == "jeffreys-split":
        return BinaryPrior.jeffreys_split(alpha)
    if rule == "prior-odds":
        return BinaryPrior.from_prior_odds(spec["odds"], alpha)
    return BinaryPrior(*spec["masses"], alpha, beta)


def _survivors(masses: tuple, n: int, m: int) -> int:
    """Posterior components left alive: the point at 1 needs a clean
    record, the point at 0 an empty one; the Beta part always survives."""
    mass1, mass0, mass_c = masses
    return (mass1 > 0 and m == 0) + (mass0 > 0 and n == 0) + (mass_c > 0)


def _mismatch(label: str, got, want) -> str | None:
    if want is None or got == want:
        return None
    return f"{label}: engine {str(got)[:60]} != {str(want)[:60]}"


# ---------------------------------------------------------------- query-mix


class QueryMix:
    """Prediction queries: a cheap integer-parameter binary majority and
    heavy non-integer, Dirichlet-mixture and Hintikka minorities."""

    name = "query-mix"
    MAX_N = 2 * 10**18
    # per block: 80 binary integer-parameter queries (32 next, 24 block,
    # 24 posterior), 10 non-integer ones, 5 from_binary_prior and 5
    # Hintikka mixture predictives
    BINARY_KINDS = ("next",) * 32 + ("block",) * 24 + ("posterior",) * 24

    def block(self, seed, index: int) -> list[Op]:
        rng = _rng(self.name, seed, index)
        ops = []
        count = len(self.BINARY_KINDS)
        ns = _strata(rng, count, 1, self.MAX_N, log=True)
        # half the records are clean; the rest carry up to ~300 counterexamples
        ms = [0] * (count // 2) + [
            int(v) for v in _strata(rng, count - count // 2, 1, 301, log=True)]
        rng.shuffle(ms)
        horizons = iter(_strata(rng, self.BINARY_KINDS.count("block"), 1, 10**12, log=True))
        for kind, n, m in zip(self.BINARY_KINDS, ns, ms):
            ops.append(Op(kind, {
                "prior": _integer_prior(rng), "n": int(n) - 1, "m": m,
                "horizon": int(next(horizons)) if kind == "block" else 1,
                "digits": rng.choice((12, 40, 200)),
            }))
        for total in _strata(rng, 10, 1, 1001, log=True):
            total = int(total)
            m = rng.randint(0, total // 3) if rng.random() < 0.5 else 0
            kind = rng.choice(("next", "block", "posterior"))
            ops.append(Op(kind, {
                "prior": _non_integer_prior(rng), "n": total - m, "m": m,
                "horizon": rng.randint(2, 200) if kind == "block" else 1,
                "digits": rng.choice((12, 40, 200)),
            }))
        for n in _strata(rng, 5, 1, 801, log=True):
            m = rng.randint(1, 20) if rng.random() < 0.5 else 0
            ops.append(Op("mixture-binary", {"prior": _integer_prior(rng), "n": int(n), "m": m}))
        for total in _strata(rng, 5, 1, 301, log=True):
            t = rng.randint(3, 6)
            seen = rng.sample(range(t), rng.randint(1, t))
            counts = [0] * t
            for _ in range(int(total)):
                counts[rng.choice(seen)] += 1
            ops.append(Op("hintikka", {"t": t, "counts": tuple(counts)}))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return self.block("warmup", 0)[:40]

    def run(self, op: Op, wrap: Callable):
        p = op.params
        if op.kind == "hintikka":
            prior = simplex.SimplexMixturePrior.hintikka_default(p["t"])
            return simplex.mixture_predictive(prior, p["counts"])
        prior = _make_prior(p["prior"])
        if op.kind == "mixture-binary":
            return simplex.mixture_predictive(simplex.from_binary_prior(prior), (p["n"], p["m"]))
        ev = binary.Evidence(p["n"], p["m"])
        if op.kind == "next":
            value = binary.predict_next(prior, ev)
        elif op.kind == "block":
            value = binary.predict_block(prior, ev, p["horizon"])
        else:
            value = binary.posterior_ug(prior, ev)
        return value, exact.decimal_string(value, p["digits"])

    def check(self, op: Op, result) -> str | None:
        p = op.params
        if op.kind == "hintikka":
            if sum(result) != 1:
                return "predictive vector does not sum to 1"
            return _mismatch("factorial oracle", result,
                             oracles.hintikka_predictive(p["t"], p["counts"]))
        spec, n, m = p["prior"], p["n"], p["m"]
        masses, alpha, beta = spec["masses"], spec["alpha"], spec["beta"]
        prior = _make_prior(spec)
        if op.kind == "mixture-binary":
            if sum(result) != 1:
                return "predictive vector does not sum to 1"
            return _mismatch(
                "predict_next", result[0], binary.predict_next(prior, binary.Evidence(n, m))
            ) or _mismatch("closed form", result[0],
                           oracles.binary_block(masses, alpha, beta, n, m, 1))
        value, text = result
        problem = oracles.rendering_error(value, text, p["digits"])
        if problem:
            return problem
        integer = alpha.denominator == 1 and beta.denominator == 1
        base = binary.marginal_likelihood(prior, binary.Evidence(n, m))
        if op.kind == "posterior":
            # Bayes: the point at 1 gives a clean record likelihood 1
            chain = masses[0] / base if m == 0 else F(0)
            closed = oracles.binary_posterior_ug(masses, alpha, beta, n, m)
            oracle = None
            if integer and n + m <= 400:
                oracle = (masses[0] if m == 0 else 0) / oracles.factorial_marginal(
                    masses, int(alpha), int(beta), n, m)
        else:
            h = p["horizon"]
            chain = binary.marginal_likelihood(prior, binary.Evidence(n + h, m)) / base
            closed = oracles.binary_block(masses, alpha, beta, n, m, h)
            oracle = None
            if integer and n + m + h <= 400:
                args = (masses, int(alpha), int(beta))
                oracle = (oracles.factorial_marginal(*args, n + h, m)
                          / oracles.factorial_marginal(*args, n, m))
        return (
            _mismatch("marginal likelihood", value, chain)
            or _mismatch("closed form", value, closed)
            or _mismatch("factorial oracle", value, oracle)
        )

    def properties(self, ops: list[Op], results: list) -> dict[str, float]:
        binary_ops = [op for op in ops if op.kind in ("next", "block", "posterior")]
        single = sum(
            _survivors(op.params["prior"]["masses"], op.params["n"], op.params["m"]) == 1
            for op in binary_ops
        )
        non_integer = sum(
            op.params["prior"]["alpha"].denominator != 1 for op in binary_ops
        )
        return {
            "binary.single_survivor_share": single / len(binary_ops),
            "workload.noninteger_share": non_integer / len(ops),
        }


# ---------------------------------------------------------------- lab-sweep


def _run_rule(t: int) -> Callable:
    """A count-driven rule that is not exchangeable: seeing type 0 makes it
    likelier, other types leave it alone. P(01) != P(10) already."""

    def rule(counts):
        den = counts[0] + t
        return (F(counts[0] + 1, den),) + (F(1, den),) * (t - 1)

    return rule


def _lab_rule(name: str, t: int, param) -> Callable:
    if name == "dirichlet":
        return lambda counts: simplex.dirichlet_predictive(counts, param)
    if name == "carnap":
        return lambda counts: simplex.carnap_predictive(counts, param)
    if name == "run":
        return _run_rule(t)
    if name == "hintikka":
        prior = simplex.SimplexMixturePrior.hintikka_default(t)
    elif name == "two-point":
        prior = simplex.from_binary_prior(binary.BinaryPrior(F(1, 2), F(1, 2), F(0)))
    else:
        prior = simplex.from_binary_prior(_make_prior(
            {"rule": name, "alpha": F(1), "beta": F(1), "masses": None}))
    return lambda counts: simplex.mixture_predictive(prior, counts)


# rule name -> (exchangeable, every sequence has positive probability)
_LAB_TRUTHS = {
    "dirichlet": (True, True), "carnap": (True, True), "hintikka": (True, True),
    "laplace": (True, True), "haldane": (True, True), "jeffreys-split": (True, True),
    "two-point": (True, False), "run": (False, True),
}
_DENSE_RULES = {
    2: ("dirichlet", "carnap", "hintikka", "laplace", "haldane", "jeffreys-split",
        "two-point", "run"),
    3: ("dirichlet", "carnap", "hintikka", "run"),
}


# (t, max_n) of the sufficientness searches: carnap always passes,
# hintikka with t >= 3 always has a witness
_CARNAP_SEARCHES = tuple((t, n) for t in (2, 3, 4) for n in (3, 4, 5))
_HINTIKKA_SEARCHES = tuple((t, n) for t in (3, 4) for n in (2, 3, 4, 5))


def _composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


class LabSweep:
    """Laboratory checks: class-stored urn laws against dense laws built
    from predictive rules, plus sufficientness and extension questions.

    A block holds 11 urn distance checks, 3 extension questions, 2
    sufficientness searches and 8 dense tables: the cheap urn work is more
    than half the ops, so the median falls inside it rather than on the
    gap between cheap and dense ops."""

    name = "lab-sweep"
    # dense table lengths per block: 2^6..2^14 entries for t=2, up to 3^8 for t=3
    DENSE_LENGTHS = ((2, 6), (2, 8), (2, 10), (2, 12), (2, 14), (3, 4), (3, 6), (3, 8))

    def block(self, seed, index: int) -> list[Op]:
        rng = _rng(self.name, seed, index)
        ops = []
        # class-stored: urn law, canonical mixture, distance against 2tk/n;
        # urns up to 20 balls for t=2 and 12 for t=3, as in criterion 11
        for t, low, high, count in ((2, 2, 20, 7), (3, 3, 12, 4)):
            for total, share in zip(_strata(rng, count, low, high + 1), _strata(rng, count, 0, 1)):
                total = int(total)
                ops.append(Op("df-check", {"colors": _composition(rng, total, t),
                                           "k": max(1, math.ceil(share * total))}))
        # rules and search sizes take turns across blocks, so every table
        # size sees every rule and each block costs about the same
        turn = _rng(self.name, seed, "turns").randrange(72) + index
        for slot, (t, length) in enumerate(self.DENSE_LENGTHS):
            rules = _DENSE_RULES[t]
            rule = rules[(turn + slot) % len(rules)]
            if rule == "dirichlet":
                param = tuple(F(rng.randint(1, 6)) for _ in range(t))
            else:
                param = F(rng.randint(1, 8), rng.randint(1, 2))
            ops.append(Op("dense", {"rule": rule, "t": t, "length": length, "param": param}))
        t, max_n = _CARNAP_SEARCHES[turn % len(_CARNAP_SEARCHES)]
        ops.append(Op("sufficientness", {"rule": "carnap", "t": t, "max_n": max_n,
                                         "param": F(rng.randint(1, 8), rng.randint(1, 2))}))
        t, max_n = _HINTIKKA_SEARCHES[turn % len(_HINTIKKA_SEARCHES)]
        ops.append(Op("sufficientness", {"rule": "hintikka", "t": t, "max_n": max_n,
                                         "param": None}))
        for _ in range(3):
            total = rng.randint(2, 12)
            colors = _composition(rng, total, 2)
            ops.append(Op("extension", {"colors": colors, "k": rng.randint(1, total)}))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return [op for op in self.block("warmup", 0)
                if op.kind != "dense" or op.params["length"] <= 6]

    def run(self, op: Op, wrap: Callable):
        p = op.params
        if op.kind == "df-check":
            urn = lab.UrnComposition(p["colors"])
            full = lab.urn_law(urn, urn.total)
            distance = lab.variation_distance(
                lab.urn_law(urn, p["k"]), lab.canonical_mixture(full, p["k"]))
            return distance, lab.df_bound(urn.t, p["k"], urn.total)
        if op.kind == "extension":
            return lab.admits_exchangeable_extension(
                lab.urn_law(lab.UrnComposition(p["colors"]), p["k"]))
        rule = wrap(_lab_rule(p["rule"], p["t"], p["param"]))
        if op.kind == "sufficientness":
            return lab.sufficientness_witness(rule, p["t"], p["max_n"])
        law = lab.law_from_predictive(rule, p["t"], p["length"])
        return lab.is_exchangeable(law), lab.has_positive_cylinders(law)

    def check(self, op: Op, result) -> str | None:
        p = op.params
        if op.kind == "df-check":
            distance, bound = result
            t, total = len(p["colors"]), sum(p["colors"])
            expected = F(2 * t * p["k"], total)
            if bound != expected:
                return f"df_bound {bound} != 2tk/n = {expected}"
            if not 0 <= distance <= expected:
                return f"distance {distance} outside [0, 2tk/n = {expected}]"
            return None
        if op.kind == "extension":
            colors, k = p["colors"], p["k"]
            # a k-draw law extends to k+1 draws of the same urn; the full
            # draw extends only when the urn holds a single color
            return _mismatch("extension", result, k < sum(colors) or min(colors) == 0)
        if op.kind == "dense":
            return _mismatch("(exchangeable, positive cylinders)", result, _LAB_TRUTHS[p["rule"]])
        if p["rule"] == "carnap":
            return None if result is None else f"carnap has a sufficientness witness {result}"
        if result is None:
            return "hintikka with t >= 3 has no sufficientness witness"
        j, counts_a, counts_b, val_a, val_b = result
        if counts_a[j] != counts_b[j] or sum(counts_a) != sum(counts_b) or val_a == val_b:
            return f"witness {result} does not contradict sufficientness"
        if sum(counts_a) > p["max_n"]:
            return f"witness {result} exceeds max_n={p['max_n']}"
        return _mismatch(
            "witness value", (val_a, val_b),
            (oracles.hintikka_predictive(p["t"], counts_a)[j],
             oracles.hintikka_predictive(p["t"], counts_b)[j]))

    def properties(self, ops: list[Op], results: list) -> dict[str, float]:
        dense = sum(op.kind == "dense" for op in ops)
        stored = sum(op.kind == "df-check" for op in ops)
        return {"workload.dense_share": dense / (dense + stored)}


# -------------------------------------------------------------- cli-oneshot

_PLAIN = re.compile(r"exact (\d+)/(\d+), decimal (\S+)")
_ERROR_ARGVS = {
    2: (
        lambda n: ["predict", "--rule", "haldane", "--beta", "2", "--n", str(n)],
        lambda n: ["predict", "--rule", "laplace", "--n", str(n), "--digits", "0"],
        lambda n: ["lab", "urn", "--colors", "1,1", "--k", "3"],
    ),
    3: (
        lambda n: ["posterior", "--rule", "haldane", "--n", str(n), "--m", "1"],
        lambda n: ["predict", "--rule", "general", "--mass1", "1/2", "--mass0", "1/2",
                   "--mass-cont", "0", "--n", str(n), "--m", "2"],
    ),
}


def _binary_closed(masses, n: int, m: int = 0, horizon: int = 1) -> F:
    return oracles.binary_block(masses, F(1), F(1), n, m, horizon)


def _within_bound(bound: F) -> Callable[[F], bool]:
    return lambda distance: 0 <= distance <= bound


class CliOneshot:
    """One ``python -m succession`` process per op, the way a shell user
    runs it: interpreter start, import and argument parsing dominate."""

    name = "cli-oneshot"
    HUGE_N = 1_999_999_999_999_999_999

    def __init__(self, root, env: dict, limit: float):
        self.root, self.env, self.limit = root, env, limit

    def block(self, seed, index: int) -> list[Op]:
        rng = _rng(self.name, seed, index)
        ops = []

        def big(top):  # log-uniform in [1, top)
            return int(math.exp(rng.uniform(0, math.log(top))))

        def add(argv, expect, code=0):
            def flag(name, default):
                return argv[argv.index(name) + 1] if name in argv else default

            ops.append(Op("cli", {"argv": argv, "expect": expect, "code": code,
                                  "fmt": flag("--format", "plain"),
                                  "digits": int(flag("--digits", 12))}))

        n = self.HUGE_N
        add(["predict", "--rule", "haldane", "--n", str(n), "--digits", "40", "--format", "json"],
            [1 - F(1, (n + 2) ** 2)])
        a, b, n, m = rng.randint(1, 4), rng.randint(1, 4), big(10**18), rng.randint(0, 300)
        add(["predict", "--rule", "laplace", "--alpha", str(a), "--beta", str(b), "--n", str(n),
             "--m", str(m), "--digits", str(rng.choice((12, 40, 200))), "--format", "json"],
            [F(a + n, a + b + n + m)])
        n = big(10**15)
        add(["predict", "--rule", "jeffreys-split", "--n", str(n)],
            [F((n + 1) * (n + 4), (n + 2) * (n + 3))])
        n, h = big(10**12), big(10**12)
        add(["predict", "--rule", "haldane", "--n", str(n), "--block", str(h), "--format", "json"],
            [_binary_closed((F(1, 2), F(0), F(1, 2)), n, horizon=h)])
        d, n = rng.choice(_ODDS), big(10**9)
        add(["predict", "--rule", "haldane", "--prior-odds", str(d), "--n", str(n),
             "--format", "csv"],
            [_binary_closed((d / (1 + d), F(0), 1 / (1 + d)), n)])
        masses = rng.choice(_GENERAL_MASSES)
        a, b, n, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 200), rng.randint(0, 50)
        add(["predict", "--rule", "general", "--mass1", str(masses[0]), "--mass0", str(masses[1]),
             "--mass-cont", str(masses[2]), "--alpha", str(a), "--beta", str(b), "--n", str(n),
             "--m", str(m), "--format", "json"],
            [oracles.factorial_marginal(masses, a, b, n + 1, m)
             / oracles.factorial_marginal(masses, a, b, n, m)])
        n = big(10**18)
        add(["posterior", "--rule", "haldane", "--n", str(n), "--format", "json"],
            [F(n + 1, n + 2), F(n + 1)])
        ns = [big(10**12) for _ in range(3)]
        add(["compare", "--n-list", ",".join(map(str, ns)), "--format", "csv"],
            [_binary_closed(masses, n)
             for masses in ((F(0), F(0), F(1)), (F(1, 2), F(0), F(1, 2)),
                            (F(1, 4), F(1, 4), F(1, 2)))
             for n in ns])
        colors = _composition(rng, rng.randint(2, 10), 2)
        k = min(rng.randint(3, 6), sum(colors))  # 2^k <= 256: one record per sequence
        add(["lab", "urn", "--colors", ",".join(map(str, colors)), "--k", str(k),
             "--format", "json"],
            [oracles.urn_sequence_probability(colors, seq)
             for seq in itertools.product(range(2), repeat=k)])
        colors = _composition(rng, rng.randint(2, 12), rng.randint(2, 3))
        k = rng.randint(1, sum(colors))
        bound = F(2 * len(colors) * k, sum(colors))
        add(["lab", "df-check", "--urn", ",".join(map(str, colors)), "--k", str(k),
             "--format", "json"],
            [_within_bound(bound), bound, F(1)])
        add(["lab", "exchangeable", "--rule", "dirichlet", "--params",
             f"{rng.randint(1, 5)},{rng.randint(1, 5)}", "--length", str(rng.randint(3, 8)),
             "--format", "json"], [F(1), F(1)])
        add(["lab", "sufficientness", "--rule", "carnap", "--t", str(rng.randint(2, 3)),
             "--lambda", str(rng.randint(1, 4)), "--max-n", str(rng.randint(2, 4)),
             "--format", "json"],
            [F(1)])
        for code, makers in _ERROR_ARGVS.items():
            add(rng.choice(makers)(big(10**6)), [], code=code)
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return self.block("warmup", 0)[:1]

    def run(self, op: Op, wrap: Callable):
        proc = subprocess.run(
            [sys.executable, "-m", "succession", *op.params["argv"]],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=self.limit,
        )
        return proc.returncode, proc.stdout

    def replay(self, op: Op, wrap: Callable):
        """The same argv through ``succession.cli.main`` in this process."""
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(op.params["argv"]))
        return code, out.getvalue()

    def check(self, op: Op, result) -> str | None:
        p = op.params
        code, stdout = result
        if code != p["code"]:
            return f"exit code {code}, expected {p['code']}: {p['argv']}"
        if code != 0:
            return None
        if p["fmt"] == "json":
            payload = json.loads(stdout)
            records = payload if isinstance(payload, list) else [payload]
            rows = [(r["exact"]["num"], r["exact"]["den"], r["decimal"]) for r in records]
        elif p["fmt"] == "csv":
            rows = [tuple(row[3:6]) for row in list(csv.reader(io.StringIO(stdout)))[1:]]
        else:
            rows = _PLAIN.findall(stdout)
        if len(rows) != len(p["expect"]):
            return f"{len(rows)} values, expected {len(p['expect'])}: {p['argv']}"
        for (num, den, text), want in zip(rows, p["expect"]):
            value = F(int(num), int(den))
            wrong = not want(value) if callable(want) else value != want
            if wrong:
                return f"value {value} fails its check: {p['argv']}"
            problem = oracles.rendering_error(value, text, p["digits"])
            if problem:
                return problem
        return None

    def properties(self, ops: list[Op], results: list) -> dict[str, float]:
        return {"cli.stdout_bytes": sum(len(out.encode()) for _, out in results)}
