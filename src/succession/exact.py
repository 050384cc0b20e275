"""Exact rational plumbing: coercion, rising factorials, Beta-ratio products,
and fixed-point decimal rendering.

Everything in this module is exact. No floats enter or leave; ``as_rational``
rejects them outright so rounding error cannot sneak into a computation
through a careless literal.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import ResourceLimit

__all__ = [
    "Rational",
    "RationalLike",
    "as_rational",
    "rising",
    "falling",
    "rising_ratio",
    "beta_sequence_marginal",
    "all_success_probability",
    "int_string",
    "parse_int",
    "decimal_string",
]

Rational = Fraction
RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)

# rising() builds one Fraction per term, so its cost grows with the square of
# the term count: 10**4 terms take 0.3-0.5 s on a 2-core Xeon under CPython
# 3.11.7, twice that many about four times as long
MAX_RISING_TERMS = 10**4

# str() and int() refuse more than sys.get_int_max_str_digits() digits (4300
# by default, never below 640 when set); 2000 bits and 600 digits are both
# under that floor.
_DIRECT_BITS = 2000
_DIRECT_DIGITS = 600
# patterns stay uncompiled until first used: the re module caches them
# then, and importing the package compiles nothing
_DIGIT_STRING = r"[+-]?[0-9]+"
# the p/q and decimal literals Fraction() reads, without underscores or
# exponents: sign, whole part, then a denominator or a fractional part
_RATIONAL_STRING = r"([+-]?)(?=\.?[0-9])([0-9]*)(?:/([0-9]+)|\.([0-9]*))?"


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts Fractions, ints, and strings in either ``p/q`` or decimal form
    (``"3/4"``, ``"0.25"``, ``"17"``). Floats are rejected: binary floats
    generally do not equal the decimal the caller had in mind, and this
    package promises exactness end to end.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; nonsense here
        raise TypeError("expected a rational number, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            "floats are not exact; pass a string, an int, or a Fraction"
        )
    if isinstance(value, str):
        try:
            return _parse_rational(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"expected a rational number, got {type(value).__name__}")


def _parse_rational(text: str) -> Fraction:
    """A p/q or decimal literal of any length. Exponents are refused: a few
    characters of one can ask for a number of a million digits."""
    form = re.fullmatch(_RATIONAL_STRING, text)
    if form is None:
        raise ValueError(text)
    sign, whole, den, frac = form.groups()
    if frac:
        return Fraction(parse_int(sign + whole + frac), 10 ** len(frac))
    return Fraction(parse_int(sign + whole), parse_int(den) if den else 1)


def rising(start: Fraction, count: int) -> Fraction:
    """Rising factorial: ``start * (start+1) * ... * (start+count-1)``.

    ``rising(x, 0)`` is 1 by the empty-product convention. Raises
    ResourceLimit, before multiplying anything, when ``count`` exceeds
    MAX_RISING_TERMS.
    """
    if count < 0:
        raise ValueError("rising factorial needs a nonnegative term count")
    if count > MAX_RISING_TERMS:
        raise ResourceLimit(
            f"a rising factorial of {int_string(count)} terms exceeds the cap "
            f"of {MAX_RISING_TERMS} terms"
        )
    out = ONE
    for i in range(count):
        out *= start + i
    return out


def _over_lcm(ratios: list[tuple[int, int]]) -> tuple[list[int], int]:
    # the numerators of n/d over the lcm of the denominators, unreduced
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def falling(start: int, count: int) -> int:
    """Falling factorial over integers: ``start * (start-1) * ... ``.

    Returns 0 when ``count > start``, which is exactly the convention
    sampling without replacement wants; a negative ``start`` gives 0 too,
    except for the empty product at ``count == 0``.
    """
    if count < 0:
        raise ValueError("falling factorial needs a nonnegative term count")
    if start < 0:
        return int(count == 0)
    return math.perm(start, count)


def rising_ratio(num_start: Fraction, den_start: Fraction, count: int) -> Fraction:
    """``rising(num_start, count) / rising(den_start, count)``.

    When the starts differ by an integer d the product telescopes to d
    terms instead of ``count``, so neither side is materialized; that is
    what makes astronomically long blocks affordable. Otherwise both
    ``count``-term products are built and divided once.
    """
    if count < 0:
        raise ValueError("ratio needs a nonnegative term count")
    if count == 0 or num_start == den_start:
        return ONE
    gap = den_start - num_start
    if gap.denominator == 1:
        d = int(gap)
        if 0 < d < count:
            # telescoping: Prod (x+i)/(x+d+i) = rising(x, d)/rising(x+count, d)
            return rising(num_start, d) / rising(num_start + count, d)
        if -count < d < 0:
            return rising(den_start + count, -d) / rising(den_start, -d)
    return rising(num_start, count) / rising(den_start, count)


def beta_sequence_marginal(
    alpha: Fraction, beta: Fraction, successes: int, failures: int
) -> Fraction:
    """Probability of one particular ordered outcome sequence with the given
    tallies, under a Beta(alpha, beta) prior on the success chance.

    Equals B(alpha+successes, beta+failures) / B(alpha, beta), computed as a
    ratio of rising factorials. Three algebraically identical routes exist;
    the integer-parameter ones cost O(small side) instead of O(total), so the
    cheapest valid one is chosen. Counts of order 1e18 stay fast as long as
    the opposite parameter is a modest integer.
    """
    a, b = successes, failures
    if a < 0 or b < 0:
        raise ValueError("tallies must be nonnegative")
    if alpha <= 0 or beta <= 0:
        raise ValueError("beta parameters must be positive")
    candidates: list[tuple[int, str]] = [(a + b, "direct")]
    if beta.denominator == 1:
        candidates.append((b + 2 * int(beta) + b, "via_beta"))
    if alpha.denominator == 1:
        candidates.append((a + 2 * int(alpha) + a, "via_alpha"))
    route = min(candidates)[1]
    # each route divides by its longest product; building that one first
    # refuses a count over the term cap before any multiplying
    if route == "via_beta":
        bi = int(beta)
        den = rising(alpha + a, bi + b)
        return rising(beta, b) * rising(alpha, bi) / den
    if route == "via_alpha":
        ai = int(alpha)
        den = rising(beta + b, ai + a)
        return rising(alpha, a) * rising(beta, ai) / den
    den = rising(alpha + beta, a + b)
    return rising(alpha, a) * rising(beta, b) / den


def all_success_probability(a: Fraction, b: Fraction, horizon: int) -> Fraction:
    """Probability that the next ``horizon`` draws all succeed under a
    Beta(a, b) distribution on the success chance.

    This is ``rising(a, horizon) / rising(a+b, horizon)``; the telescoped
    ratio keeps huge horizons cheap when ``b`` is an integer.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return rising_ratio(a, a + b, horizon)


def int_string(value: int) -> str:
    """Decimal digits of an integer of any size.

    Large values are split at a power of ten into halves that convert
    separately, so the interpreter's cap on int-to-str conversion never
    applies.
    """
    if value < 0:
        return "-" + int_string(-value)
    if value.bit_length() <= _DIRECT_BITS:
        return str(value)
    half = value.bit_length() * 3 // 20  # about half the digit count
    high, low = divmod(value, 10**half)
    return int_string(high) + int_string(low).zfill(half)


def parse_int(text: str) -> int:
    """``int(text)`` for decimal strings of any length.

    Strings of ASCII digits, with an optional sign and surrounding
    whitespace, that ``int()`` refuses for their length alone are split
    in halves that convert separately, the inverse of :func:`int_string`.
    Anything else ``int()`` refuses raises its ValueError.
    """
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        if re.fullmatch(_DIGIT_STRING, digits) is None:
            raise
    sign = -1 if digits[0] == "-" else 1
    return sign * _parse_digits(digits.lstrip("+-"))


def _parse_digits(digits: str) -> int:
    if len(digits) <= _DIRECT_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _parse_digits(digits[:-half]) * 10**half + _parse_digits(digits[-half:])


def decimal_string(value: Fraction, digits: int) -> str:
    """Render ``value`` as a fixed-point decimal with exactly ``digits``
    digits after the point, rounding to nearest with ties to even.

    The computation is integer-only: scale, divide, inspect the remainder.
    """
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    sign = "-" if value < 0 else ""
    num = abs(value.numerator)
    den = value.denominator
    scaled, rem = divmod(num * 10**digits, den)
    double = 2 * rem
    if double > den or (double == den and scaled % 2 == 1):
        scaled += 1
    if digits == 0:
        return sign + int_string(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{int_string(whole)}.{int_string(frac).zfill(digits)}"
