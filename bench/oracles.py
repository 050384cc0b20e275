"""Answers the benchmark checks against, computed without the engine.

Everything here is built from ``math.factorial``, indicator functions and
telescoped products written out directly, so a check passes only when the
engine agrees with an independent route to the same exact rational. Nothing
in this module imports ``succession``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial


def beta_function(a: int, b: int) -> Fraction:
    """B(a, b) at positive integers: (a-1)! (b-1)! / (a+b-1)!."""
    return Fraction(factorial(a - 1) * factorial(b - 1), factorial(a + b - 1))


def _beta_tail_ratio(x: Fraction, d: int, shift: int) -> Fraction:
    """prod_{i<d} (x+i) / (x+shift+i): rising(x, shift) / rising(x+d, shift)
    written the other way round, d terms for an integer d."""
    out = Fraction(1)
    for i in range(d):
        out *= (x + i) / (x + shift + i)
    return out


def binary_block(
    masses: tuple[Fraction, Fraction, Fraction],
    alpha: Fraction,
    beta: Fraction,
    n: int,
    m: int,
    horizon: int,
) -> Fraction | None:
    """P(next ``horizon`` instances all confirm | n confirmations, m
    counterexamples) under point masses at theta=1 and theta=0 plus a
    Beta(alpha, beta) part, or None when no short closed form applies.

    The point at 1 survives only a clean record, the point at 0 only an
    empty one. The Beta part's likelihoods enter only as ratios, and each
    ratio telescopes to an integer number of terms when the matching shape
    parameter is an integer: this covers the closed forms of acceptance
    criteria 3 to 7 and their alpha generalizations.
    """
    mass1, mass0, mass_c = masses
    alive1 = mass1 if m == 0 else 0
    alive0 = mass0 if n == 0 else 0
    # Beta(alpha+n, beta+m): P(next horizon all confirm) = prod (a+i)/(a+b+i)
    a, b = alpha + n, beta + m
    if b.denominator != 1:
        if alive1 == 0 and alive0 == 0 and horizon == 1:
            return a / (a + b)
        return None
    cont_block = _beta_tail_ratio(a, int(b), horizon)
    if alive1 == 0 and alive0 == 0:
        return cont_block
    # the continuous likelihood relative to its prior: L_c(n, m)
    if m == 0 and beta.denominator == 1:
        like_c = _beta_tail_ratio(alpha, int(beta), n)
    elif n == 0 and alpha.denominator == 1:
        like_c = _beta_tail_ratio(beta, int(alpha), m)
    else:
        return None
    evidence = alive1 + alive0 + mass_c * like_c
    return (alive1 + mass_c * like_c * cont_block) / evidence


def binary_posterior_ug(
    masses: tuple[Fraction, Fraction, Fraction],
    alpha: Fraction,
    beta: Fraction,
    n: int,
    m: int,
) -> Fraction | None:
    """Posterior mass of theta=1, in closed form where one exists."""
    mass1, mass0, mass_c = masses
    if m > 0 or mass1 == 0:
        return Fraction(0)
    if beta.denominator != 1:
        return None
    like_c = _beta_tail_ratio(alpha, int(beta), n)
    alive0 = mass0 if n == 0 else 0
    return mass1 / (mass1 + alive0 + mass_c * like_c)


def factorial_marginal(
    masses: tuple[Fraction, Fraction, Fraction], alpha: int, beta: int, n: int, m: int
) -> Fraction:
    """Mixture probability of one ordered record with integer shape
    parameters, from factorials alone."""
    mass1, mass0, mass_c = masses
    total = Fraction(0)
    if m == 0:
        total += mass1
    if n == 0:
        total += mass0
    return total + mass_c * beta_function(alpha + n, beta + m) / beta_function(
        alpha, beta
    )


def dirichlet_marginal(params: tuple[int, ...], counts: tuple[int, ...]) -> Fraction:
    """Ordered-sequence probability under Dirichlet(params), integer
    parameters, factorial form of the Dirichlet integral."""
    total_k, total_n = sum(params), sum(counts)
    out = Fraction(factorial(total_k - 1), factorial(total_k + total_n - 1))
    for k, c in zip(params, counts):
        out *= Fraction(factorial(k + c - 1), factorial(k - 1))
    return out


def hintikka_marginal(t: int, counts: tuple[int, ...]) -> Fraction:
    """Marginal under 1/2 flat Dirichlet over all t types plus 1/(2t) on
    each vertex."""
    total = Fraction(1, 2) * dirichlet_marginal((1,) * t, counts)
    seen = [j for j, c in enumerate(counts) if c > 0]
    if len(seen) <= 1:
        # an empty record keeps every vertex alive; one type keeps its own
        total += Fraction(t if not seen else 1, 2 * t)
    return total


def hintikka_predictive(t: int, counts: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Next-type probabilities by total evidence: extend, then divide."""
    base = hintikka_marginal(t, counts)
    out = []
    for j in range(t):
        bumped = list(counts)
        bumped[j] += 1
        out.append(hintikka_marginal(t, tuple(bumped)) / base)
    return tuple(out)


def falling(start: int, count: int) -> int:
    out = 1
    for i in range(count):
        out *= max(start - i, 0)
    return out


def urn_sequence_probability(colors: tuple[int, ...], sequence: tuple[int, ...]) -> Fraction:
    """Probability of one ordered draw sequence without replacement."""
    counts = [sequence.count(j) for j in range(len(colors))]
    num = 1
    for balls, c in zip(colors, counts):
        num *= falling(balls, c)
    return Fraction(num, falling(sum(colors), len(sequence)))


_DECIMAL = re.compile(r"-?\d+(\.\d+)?")


def rendering_error(value: Fraction, text: str, digits: int) -> str | None:
    """None when ``text`` is a fixed-point decimal with exactly ``digits``
    digits after the point lying within half a unit in the last place of
    ``value``; otherwise what is wrong with it."""
    if not _DECIMAL.fullmatch(text):
        return f"not a decimal: {text[:40]!r}"
    _, _, frac = text.partition(".")
    if len(frac) != digits:
        return f"{len(frac)} digits after the point, expected {digits}"
    if abs(Fraction(text) - value) > Fraction(1, 2 * 10**digits):
        return f"decimal {text[:40]} is not {value} rounded to {digits} digits"
    return None
