"""Independent oracles that anchor the test suite.

Every quantity here is computed from ``math.factorial`` alone: Beta and
Dirichlet normalizing constants in closed factorial form, sequence
marginals as ratios of them, and predictive probabilities as ratios of
successive marginals (extend the record by one observation, divide).
Dirichlet faces with non-integer parameters, which have no factorial form,
are drawn from a Polya urn one ball at a time instead.

Decimal renderings come from the standard ``decimal`` module instead, and
laws built from a predictive rule from a plain walk over every sequence.
None of this shares code with the engine, which evaluates the same
quantities through telescoped rising-factorial products and
posterior-component averaging. Agreement between the two routes is the
backbone of the suite.

Urn laws and canonical mixtures are also built the direct way, one
``Fraction`` product and sum per term, as the reference for the lab's
integer-numerator constructions; the urn's falling factorials are
factorial quotients. These two do use the lab's helpers for enumerating
count classes and checking shapes. The variation distance, the count
distribution, the extension test, the Dirichlet predictive and the mixture
predictive are kept in the same spirit: the engine's former ``Fraction``
routes, one ``Fraction`` operation per term, read through the public
accessors, as the references for its integer routes.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import product
from math import factorial, prod

from succession import (
    BinaryPrior,
    DimensionMismatch,
    SampleTooLarge,
    SequenceLaw,
    SimplexMixturePrior,
    UrnComposition,
    ZeroEvidenceProbability,
    sequence_marginal,
)
from succession.exact import ZERO, as_rational
from succession.lab import _check_shape, _compositions, _whole


def beta_function(a: int, b: int) -> Fraction:
    """B(a, b) at positive integers: (a-1)! (b-1)! / (a+b-1)!."""
    if a < 1 or b < 1:
        raise ValueError("positive integers only")
    return Fraction(factorial(a - 1) * factorial(b - 1), factorial(a + b - 1))


def beta_marginal(alpha: int, beta: int, confirms: int, disconfirms: int) -> Fraction:
    """Ordered-sequence probability under Beta(alpha, beta):
    B(alpha+confirms, beta+disconfirms) / B(alpha, beta)."""
    return beta_function(alpha + confirms, beta + disconfirms) / beta_function(
        alpha, beta
    )


def binary_marginal(prior: BinaryPrior, confirms: int, disconfirms: int) -> Fraction:
    """Mixture marginal of one ordered sequence: point masses contribute
    indicator likelihoods, the continuous part its Beta marginal."""
    total = Fraction(0)
    if disconfirms == 0:
        total += prior.mass_theta1
    if confirms == 0:
        total += prior.mass_theta0
    if prior.mass_continuous != 0:
        total += prior.mass_continuous * beta_marginal(
            int(prior.alpha), int(prior.beta), confirms, disconfirms
        )
    return total


def binary_predictive(prior: BinaryPrior, confirms: int, disconfirms: int) -> Fraction:
    """P(next confirms | record), by total evidence: the marginal of the
    record extended by one confirmation over the marginal of the record."""
    return binary_marginal(prior, confirms + 1, disconfirms) / binary_marginal(
        prior, confirms, disconfirms
    )


def binary_block(
    prior: BinaryPrior, confirms: int, disconfirms: int, horizon: int
) -> Fraction:
    """P(next ``horizon`` instances all confirm | record), same route."""
    return binary_marginal(prior, confirms + horizon, disconfirms) / binary_marginal(
        prior, confirms, disconfirms
    )


def dirichlet_marginal(params: tuple[int, ...], counts: tuple[int, ...]) -> Fraction:
    """Ordered-sequence probability under Dirichlet(params), factorial
    form of the Dirichlet integral."""
    if any(k < 1 for k in params):
        raise ValueError("positive integer parameters only")
    total_k = sum(params)
    total_n = sum(counts)
    out = Fraction(factorial(total_k - 1), factorial(total_k + total_n - 1))
    for k, n in zip(params, counts):
        out *= Fraction(factorial(k + n - 1), factorial(k - 1))
    return out


def polya_marginal(params: tuple[Fraction, ...], counts: tuple[int, ...]) -> Fraction:
    """Ordered-sequence probability under Dirichlet(params) for any positive
    rational parameters, as a Polya urn: type j starts with weight k_j and
    gains 1 each time it is drawn. The sequence draws every type-0 ball
    first, then every type-1 ball, and so on."""
    out = Fraction(1)
    urn = sum(params)
    for k, n in zip(params, counts):
        for i in range(n):
            out *= (k + i) / urn
            urn += 1
    return out


def mixture_marginal(prior: SimplexMixturePrior, counts: tuple[int, ...]) -> Fraction:
    """Mixture marginal over simplex components: vertices give indicator
    likelihoods, faces their Dirichlet marginal restricted to the face, in
    factorial form when every parameter is an integer."""
    total = Fraction(0)
    for comp in prior.components:
        inside = set(comp.support)
        if any(c > 0 and j not in inside for j, c in enumerate(counts)):
            continue
        face_counts = tuple(counts[j] for j in comp.support)
        if comp.is_vertex:
            total += comp.weight
        elif all(p.denominator == 1 for p in comp.params):
            total += comp.weight * dirichlet_marginal(
                tuple(int(p) for p in comp.params), face_counts
            )
        else:
            total += comp.weight * polya_marginal(comp.params, face_counts)
    return total


def mixture_predictive(
    prior: SimplexMixturePrior, counts: tuple[int, ...], j: int
) -> Fraction:
    """P(next observation is type j | counts), by total evidence."""
    bumped = list(counts)
    bumped[j] += 1
    return mixture_marginal(prior, tuple(bumped)) / mixture_marginal(prior, counts)


def decimal_reference(value: Fraction, digits: int) -> str:
    """``value`` to ``digits`` places, ties to even, by the decimal module.
    Division rounds 50 digits past the target, which cannot make a
    double-rounding tie out of a nonterminating repeating decimal."""
    with localcontext() as ctx:
        ctx.prec = digits + 50 + value.numerator.bit_length() // 3
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
        return str(quotient.quantize(Decimal(1).scaleb(-digits), ROUND_HALF_EVEN))


def parse_int(text: str) -> int:
    """int() of a decimal string of any length, 500 digits at a time."""
    sign, body = (-1, text[1:]) if text.startswith("-") else (1, text)
    out = 0
    for i in range(0, len(body), 500):
        piece = body[i : i + 500]
        out = out * 10 ** len(piece) + int(piece)
    return sign * out


def chain_rule_table(rule, t: int, length: int) -> tuple[Fraction, ...]:
    """Dense law of ``length`` draws from a predictive rule, one entry per
    sequence in lexicographic order: the product over positions of the
    rule's prediction for the symbol drawn given the counts before it.
    The rule is not consulted after a prefix reaches probability 0."""
    predictions: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    table = []
    for seq in product(range(t), repeat=length):
        counts = [0] * t
        prob = Fraction(1)
        for s in seq:
            key = tuple(counts)
            if key not in predictions:
                predictions[key] = tuple(Fraction(p) for p in rule(key))
            prob *= predictions[key][s]
            if prob == 0:
                break
            counts[s] += 1
        table.append(prob)
    return tuple(table)


def table_is_exchangeable(table: tuple[Fraction, ...], t: int, length: int) -> bool:
    """Whether sequences with equal counts of each symbol get equal
    probability in a dense table laid out as ``chain_rule_table``'s."""
    by_counts: dict[tuple[int, ...], Fraction] = {}
    for seq, prob in zip(product(range(t), repeat=length), table):
        key = tuple(seq.count(s) for s in range(t))
        if by_counts.setdefault(key, prob) != prob:
            return False
    return True


def falling(start: int, count: int) -> int:
    """start * (start-1) * ... over ``count`` terms, as a factorial
    quotient; 0 when the terms run out."""
    if count > start:
        return 0
    return factorial(start) // factorial(start - count)


def urn_law(urn: UrnComposition, k: int) -> SequenceLaw:
    """Law of k ordered draws without replacement: a sequence with count
    vector c has probability prod_j falling(colors_j, c_j) / falling(N, k),
    the multivariate hypergeometric sampling law. Exchangeable by
    construction; raises SampleTooLarge when k exceeds the urn."""
    if not _whole(k) or k < 1:
        raise ValueError("k must be at least 1")
    if k > urn.total:
        raise SampleTooLarge(
            f"asked for {k} draws from an urn of {urn.total} balls"
        )
    _check_shape(urn.t, k)
    denom = falling(urn.total, k)
    table: dict[tuple[int, ...], Fraction] = {}
    for counts in _compositions(k, urn.t):
        num = 1
        for balls, c in zip(urn.colors, counts):
            num *= falling(balls, c)
            if num == 0:
                break
        table[counts] = Fraction(num, denom)
    return SequenceLaw.from_class_probabilities(urn.t, k, table)


def canonical_mixture(law: SequenceLaw, k: int) -> SequenceLaw:
    """The finite mixture-of-iid approximation built from a law of length
    n: mix iid draws from theta = (empirical frequencies) using the law's
    own count distribution as the mixing measure, then look at the first
    k coordinates.

    The result is exchangeable and extends to any length; its distance
    from the original law's k-draw restriction is what the finite
    representation bound controls.
    """
    if not _whole(k) or not 1 <= k <= law.length:
        raise ValueError("k must satisfy 1 <= k <= law.length")
    n = law.length
    mixing = [
        (m, weight) for m, weight in law.count_distribution().items() if weight != 0
    ]
    table: dict[tuple[int, ...], Fraction] = {}
    for counts in _compositions(k, law.t):
        total = ZERO
        for m, weight in mixing:
            term = weight
            for m_j, c_j in zip(m, counts):
                if c_j == 0:
                    continue
                if m_j == 0:
                    term = ZERO
                    break
                term *= Fraction(m_j, n) ** c_j
            total += term
        table[counts] = total
    return SequenceLaw.from_class_probabilities(law.t, k, table)


def variation_distance(a: SequenceLaw, b: SequenceLaw) -> Fraction:
    """Sum over all sequences of |P_a - P_b|, one Fraction subtraction and
    product per count class when both laws are exchangeable."""
    if a.t != b.t or a.length != b.length:
        raise DimensionMismatch(
            f"laws of shape ({a.t}, {a.length}) and ({b.t}, {b.length})"
        )
    ta, tb = a.class_table(), b.class_table()
    if ta is not None and tb is not None:
        return sum(
            (
                factorial(a.length)
                // prod(factorial(c) for c in counts)
                * abs(ta[counts] - tb[counts])
                for counts in ta
            ),
            ZERO,
        )
    return sum(
        (abs(pa - pb) for pa, pb in zip(a.probabilities, b.probabilities)),
        ZERO,
    )


def count_distribution(law: SequenceLaw) -> dict[tuple[int, ...], Fraction]:
    """The mass of each count vector, one Fraction product per class or one
    Fraction sum per sequence, keyed in the class table's order or, for a
    law without one, by first appearance in the law's table."""
    table = law.class_table()
    if table is not None:
        return {
            c: p * (factorial(law.length) // prod(factorial(m) for m in c)) if p else p
            for c, p in table.items()
        }
    out: dict[tuple[int, ...], Fraction] = {}
    for seq, p in law.items():
        counts = tuple(seq.count(s) for s in range(law.t))
        out[counts] = out.get(counts, ZERO) + p
    return out


def admits_exchangeable_extension(law: SequenceLaw) -> bool:
    """Whether a binary exchangeable law of length L extends to length
    L+1, on Fractions: q'_j = (-1)^j x + c_j must be nonnegative for all j,
    and the half-lines in x must meet."""
    if law.t != 2:
        raise ValueError("extension analysis is implemented for t = 2 only")
    table = law.class_table()
    if table is None:
        raise ValueError("the law must be exchangeable")
    L = law.length
    q = [table[(L - j, j)] for j in range(L + 1)]
    lower = ZERO  # from j = 0: x >= 0
    upper: Fraction | None = None
    c = ZERO
    for j in range(L + 1):
        c = q[j] - c
        if (j + 1) % 2 == 0:
            lower = max(lower, -c)
        else:
            upper = c if upper is None else min(upper, c)
    assert upper is not None
    return lower <= upper


def dirichlet_predictive(counts: tuple[int, ...], params) -> tuple[Fraction, ...]:
    """(n_j + k_j) / (n + k) for each type j, one Fraction division each."""
    ps = tuple(as_rational(p) for p in params)
    if len(ps) != len(counts):
        raise DimensionMismatch(
            f"{len(ps)} parameters for {len(counts)} outcome types"
        )
    if any(p <= 0 for p in ps):
        raise ValueError("Dirichlet parameters must be positive")
    denom = sum(counts) + sum(ps)
    return tuple((counts[j] + ps[j]) / denom for j in range(len(counts)))


def fraction_posterior_weights(
    prior: SimplexMixturePrior, counts: tuple[int, ...]
) -> tuple[Fraction, ...]:
    """Posterior component weights as weighted marginals over their sum,
    one Fraction product and division per component."""
    raw = tuple(
        c.weight * sequence_marginal(counts, c) if c.weight else ZERO
        for c in prior.components
    )
    total = sum(raw, ZERO)
    if total == 0:
        raise ZeroEvidenceProbability(
            f"the prior assigns probability 0 to counts {counts}"
        )
    return tuple(r / total if r else ZERO for r in raw)


def fraction_mixture_predictive(
    prior: SimplexMixturePrior, counts: tuple[int, ...]
) -> tuple[Fraction, ...]:
    """The mixture predictive with a Fraction at every step: each
    component's predictive added over its own support, weighted by
    :func:`fraction_posterior_weights`."""
    n = sum(counts)
    out = [ZERO] * len(counts)
    weights = fraction_posterior_weights(prior, counts)
    for w, comp in zip(weights, prior.components):
        if comp.is_vertex:
            out[comp.support[0]] += w
        elif w:
            share = w / (n + sum(comp.params, ZERO))
            for j, k in zip(comp.support, comp.params):
                out[j] += (counts[j] + k) * share
    return tuple(out)
