"""Predictive probabilities for binary enumerative induction.

The model: instances of a claim arrive one at a time and each either
confirms or disconfirms it. A prior over the confirmation chance theta
has up to three parts,

* a point mass at theta = 1 (the universal generalization: no exceptions,
  ever),
* a point mass at theta = 0 (the dual generalization: nothing confirms),
* a continuous Beta(alpha, beta) component spread over (0, 1).

This is the t = 2 case of :mod:`succession.simplex`: the two points are
vertices of the simplex and the continuous part a Dirichlet over both
types, and marginals and posterior weights come from the simplex engine.

Everything downstream is exact rational arithmetic. The classical rules
of succession drop out as special cases: a pure Beta(1, 1) prior gives
Laplace's (n+1)/(n+2); half a point at theta=1 plus half Beta(1, 1) gives
1 - 1/(n+2)^2; putting a quarter on each point and half on the continuous
part gives the (n+1)(n+4)/((n+2)(n+3)) rule.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UGFalsified
from .exact import ONE, ZERO, RationalLike, _whole, as_rational, rising_ratio
from .simplex import _binary_faces, _Frozen, _posterior_numerators, _weighted_marginals

__all__ = [
    "Evidence",
    "BinaryPrior",
    "marginal_likelihood",
    "posterior_ug",
    "bayes_factor_ug",
    "predict_next",
    "predict_block",
    "exception_probability",
    "prior_odds_adjustment",
]

_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)


class Evidence(_Frozen):
    """A tally of observed instances: ``confirm`` supporting cases and
    ``disconfirm`` counterexamples. Order of arrival is irrelevant
    throughout (all the models here are exchangeable)."""

    __match_args__ = ("confirm", "disconfirm")

    def __init__(self, confirm: int, disconfirm: int = 0) -> None:
        if not _whole(confirm) or confirm < 0:
            raise ValueError("confirm must be a nonnegative integer")
        if not _whole(disconfirm) or disconfirm < 0:
            raise ValueError("disconfirm must be a nonnegative integer")
        self.__dict__.update(confirm=confirm, disconfirm=disconfirm)

    @property
    def total(self) -> int:
        return self.confirm + self.disconfirm


class BinaryPrior(_Frozen):
    """A three-part prior over the confirmation chance.

    ``mass_theta1``, ``mass_theta0``, and ``mass_continuous`` must be
    nonnegative rationals summing to exactly one; ``alpha`` and ``beta``
    are the positive shape parameters of the continuous Beta part (they
    are validated even when that part carries no mass). Each is stored as
    a Fraction. The named builders check alpha, beta and the odds only:
    their masses are constants or derived from checked odds, so the prior
    is stored as built.
    """

    __match_args__ = ("mass_theta1", "mass_theta0", "mass_continuous", "alpha", "beta")

    def __init__(
        self,
        mass_theta1: RationalLike,
        mass_theta0: RationalLike,
        mass_continuous: RationalLike,
        alpha: RationalLike = ONE,
        beta: RationalLike = ONE,
    ) -> None:
        m1, m0 = as_rational(mass_theta1), as_rational(mass_theta0)
        mc = as_rational(mass_continuous)
        # every field is coerced before any is checked, so a bad type is
        # reported before a bad value
        alpha, beta = as_rational(alpha), as_rational(beta)
        if min(m1, m0, mc) < 0:
            raise ValueError("prior masses must be nonnegative")
        if m1 + m0 + mc != 1:
            raise ValueError("prior masses must sum to exactly 1")
        self.__dict__.update(zip(self.__match_args__, (m1, m0, mc, *_shape(alpha, beta))))

    @classmethod
    def laplace(cls, alpha: RationalLike = 1, beta: RationalLike = 1) -> "BinaryPrior":
        """All mass on the continuous part: Beta(alpha, beta), no points."""
        return cls._of(ZERO, ZERO, ONE, *_shape(alpha, beta))

    @classmethod
    def haldane(cls, alpha: RationalLike = 1) -> "BinaryPrior":
        """Half a point at theta=1, half Beta(alpha, 1).

        The even split makes 'the generalization holds' and 'it fails
        somewhere' equally credible before any data arrive.
        """
        return cls._of(_HALF, ZERO, _HALF, *_shape(alpha, ONE))

    @classmethod
    def jeffreys_split(cls, alpha: RationalLike = 1) -> "BinaryPrior":
        """A quarter at each of theta=1 and theta=0, half on Beta(alpha, 1):
        the sharp hypotheses jointly tie with the vague one, and neither
        sharp direction is favored."""
        return cls._of(_QUARTER, _QUARTER, _HALF, *_shape(alpha, ONE))

    @classmethod
    def from_prior_odds(
        cls, odds: RationalLike, alpha: RationalLike = 1
    ) -> "BinaryPrior":
        """Point mass at theta=1 with prior odds ``odds`` against Beta(alpha, 1):
        masses (d/(1+d), 0, 1/(1+d)) for d = odds."""
        p, q = _odds(odds).as_integer_ratio()
        masses = Fraction(p, p + q), ZERO, Fraction(q, p + q)
        return cls._of(*masses, *_shape(alpha, ONE))

    def with_prior_odds(self, odds: RationalLike) -> "BinaryPrior":
        """This prior at prior odds ``odds`` for its point masses against
        its continuous part, with the ratio of the two points kept: each
        point mass m becomes m*d/((1+d)*point), for d = odds and point the
        total point mass, and the continuous mass 1/(1+d)."""
        d = _odds(odds)
        point = self.mass_theta1 + self.mass_theta0
        if point == 0:
            raise ValueError("the prior has no point mass for prior odds to weigh")
        scale = d / ((1 + d) * point)
        return BinaryPrior._of(self.mass_theta1 * scale, self.mass_theta0 * scale,
                               1 / (1 + d), self.alpha, self.beta)


def _shape(alpha: RationalLike, beta: RationalLike) -> tuple[Fraction, Fraction]:
    """The Beta part's parameters, coerced and checked positive."""
    alpha, beta = as_rational(alpha), as_rational(beta)
    # a Fraction's denominator is positive, so its numerator carries the sign
    if alpha.numerator <= 0 or beta.numerator <= 0:
        raise ValueError("alpha and beta must be positive")
    return alpha, beta


def _odds(odds: RationalLike) -> Fraction:
    """Prior odds, coerced and checked positive."""
    d = as_rational(odds)
    if d <= 0:
        raise ValueError("prior odds must be positive")
    return d


def marginal_likelihood(prior: BinaryPrior, ev: Evidence) -> Fraction:
    """Prior probability of one particular ordered sequence carrying the
    given tallies: the mass-weighted sum of component likelihoods.

    The point at theta=1 contributes only when there are no counterexamples,
    the point at theta=0 only when nothing confirms, and the continuous part
    contributes B(alpha+confirm, beta+disconfirm) / B(alpha, beta).
    """
    nums, den = _weighted_marginals((ev.confirm, ev.disconfirm), _binary_faces(prior))
    return Fraction(sum(nums), den)


def _posterior(prior: BinaryPrior, ev: Evidence) -> tuple[list[int], int]:
    # posterior masses of (theta=1, theta=0, continuous) as integer
    # numerators over their sum
    return _posterior_numerators((ev.confirm, ev.disconfirm), _binary_faces(prior))


def posterior_ug(prior: BinaryPrior, ev: Evidence) -> Fraction:
    """Posterior probability that the universal generalization is true,
    i.e. posterior mass of the theta=1 point.

    A single counterexample drives it to exactly 0. Raises
    ZeroEvidenceProbability when the prior gave the evidence no chance
    at all (conditioning undefined).
    """
    (a1, _, _), total = _posterior(prior, ev)
    return Fraction(a1, total)


def bayes_factor_ug(ev: Evidence, alpha: RationalLike = 1) -> Fraction:
    """Bayes factor for the universal generalization against a Beta(alpha, 1)
    alternative, given ``ev.confirm`` clean confirmations.

    Equals confirm/alpha + 1: every confirmation adds 1/alpha to the
    evidence ratio. Raises UGFalsified when the record holds a
    counterexample, since the generalization then has likelihood zero.
    """
    a = as_rational(alpha)
    if a <= 0:
        raise ValueError("alpha must be positive")
    if ev.disconfirm > 0:
        raise UGFalsified(
            f"{ev.disconfirm} disconfirming instance(s): the generalization "
            "has likelihood zero"
        )
    return Fraction(ev.confirm) / a + 1


def predict_next(prior: BinaryPrior, ev: Evidence) -> Fraction:
    """Probability that the next instance confirms, averaged over the
    posterior: theta=1 predicts 1, theta=0 predicts 0, the continuous
    part predicts (alpha+confirm) / (alpha+beta+total). The answer is made
    once, as one Fraction, from the integer posterior numerators and the
    integer ratios of alpha and beta."""
    (a1, _, ac), total = _posterior(prior, ev)
    p, q = prior.alpha.as_integer_ratio()
    r, s = prior.beta.as_integer_ratio()
    # the continuous part's prediction as num / den, both over q*s
    num, den = (p + ev.confirm * q) * s, p * s + (r + ev.total * s) * q
    return Fraction(a1 * den + ac * num, total * den)


def predict_block(prior: BinaryPrior, ev: Evidence, horizon: int) -> Fraction:
    """Probability that the next ``horizon`` instances all confirm.

    Under the continuous component this is a ratio of rising factorials
    starting at the posterior shape parameters; the point components
    contribute 1 (theta=1) and 0 (theta=0). Equal, term by term, to the
    product of predict_next over the lengthening record. The answer is
    made once, as one Fraction, from the integer posterior numerators and
    that ratio.
    """
    if not _whole(horizon):
        raise ValueError("horizon must be an integer")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    (a1, _, ac), total = _posterior(prior, ev)
    if not ac:
        return Fraction(a1, total)
    a = prior.alpha + ev.confirm
    r = rising_ratio(a, a + prior.beta + ev.disconfirm, horizon)
    return Fraction(a1 * r.denominator + ac * r.numerator, total * r.denominator)


def exception_probability(p_ug: RationalLike, ev: Evidence) -> Fraction:
    """Probability that the next instance is a counterexample, for an
    observer whose prior puts ``p_ug`` on the no-exceptions hypothesis and
    the rest on a uniform continuous part, after ``ev.confirm`` clean
    confirmations.

    Closed form (1 - p) / ((n+2) (n p + 1)) with n = ev.confirm. At p = 0
    this is the Laplacean 1/(n+2); at p = 1 it is exactly 0; at p = 1/2
    it is 1/(n+2)^2, quadratically smaller than the Laplacean rate.
    """
    p = as_rational(p_ug)
    if not 0 <= p <= 1:
        raise ValueError("p_ug must lie in [0, 1]")
    if ev.disconfirm != 0:
        raise ValueError(
            "exception_probability describes an unbroken record; "
            "disconfirm must be 0"
        )
    n = ev.confirm
    return (1 - p) / ((n + 2) * (n * p + 1))


def prior_odds_adjustment(odds: RationalLike, n: int) -> Fraction:
    """Factor by which prior odds ``d`` on the no-exceptions hypothesis
    lift the Laplacean prediction after n clean confirmations:
    (d(n+2) + 1) / (d(n+1) + 1).

    The adjusted next-instance probability is this factor times
    (n+1)/(n+2); at d = 1 the factor is (n+3)/(n+2).
    """
    d = _odds(odds)
    if not _whole(n) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    return (d * (n + 2) + 1) / (d * (n + 1) + 1)

