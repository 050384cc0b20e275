"""Predictive inference over t outcome types with mixture-of-Dirichlet priors.

The binary machinery generalizes: observations are counts over t types,
priors are finite mixtures whose components live on faces of the
probability simplex. A component supported on a single vertex is a point
mass (some type occurs with certainty); a component on a larger face is a
Dirichlet over the types that face allows. Components supported on a
proper face assign probability zero to every type outside it, so one
observation of an excluded type kills the component outright.

This module is the package's one marginal engine; :mod:`succession.binary`
is its t = 2 view. Posterior weights and predictive vectors are built from
integer numerators over one denominator and reduced once, at the answer:
one Fraction per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from .errors import DimensionMismatch, ZeroEvidenceProbability
from .exact import (
    ONE,
    ZERO,
    RationalLike,
    _over_lcm,
    as_rational,
    beta_sequence_marginal,
)

if TYPE_CHECKING:
    from .binary import BinaryPrior

__all__ = [
    "MultinomialCounts",
    "DirichletComponent",
    "SimplexMixturePrior",
    "dirichlet_predictive",
    "carnap_predictive",
    "sequence_marginal",
    "mixture_posterior",
    "mixture_predictive",
    "observed_type_count",
    "from_binary_prior",
]

CountsLike = Union["MultinomialCounts", Sequence[int]]


@dataclass(frozen=True)
class MultinomialCounts:
    """Observed tallies, one nonnegative integer per outcome type."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) == 0:
            raise ValueError("need at least one outcome type")
        for c in self.counts:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError("counts must be nonnegative integers")

    @property
    def t(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return sum(self.counts)

    def __getitem__(self, j: int) -> int:
        return self.counts[j]


def _as_counts(value: CountsLike) -> MultinomialCounts:
    if isinstance(value, MultinomialCounts):
        return value
    return MultinomialCounts(tuple(value))


@dataclass(frozen=True)
class DirichletComponent:
    """One mixture component: a distribution over a face of the simplex.

    ``support`` lists the type indices (0-based, strictly increasing) the
    component allows. A singleton support is a vertex point mass and takes
    no parameters; any larger support carries one positive Dirichlet
    parameter per supported type, in support order.
    """

    support: tuple[int, ...]
    params: tuple[Fraction, ...]
    weight: Fraction

    def __post_init__(self) -> None:
        support = tuple(self.support)
        object.__setattr__(self, "support", support)
        object.__setattr__(
            self, "params", tuple(as_rational(p) for p in self.params)
        )
        object.__setattr__(self, "weight", as_rational(self.weight))
        if len(support) == 0:
            raise ValueError("support must be nonempty")
        if any(not isinstance(j, int) or isinstance(j, bool) or j < 0 for j in support):
            raise ValueError("support indices must be nonnegative integers")
        if any(a >= b for a, b in zip(support, support[1:])):
            raise ValueError("support indices must be strictly increasing")
        if len(support) == 1:
            if self.params:
                raise ValueError("a vertex point mass takes no parameters")
        else:
            if len(self.params) != len(support):
                raise DimensionMismatch(
                    "need one Dirichlet parameter per supported type"
                )
            if any(p <= 0 for p in self.params):
                raise ValueError("Dirichlet parameters must be positive")
        if self.weight < 0:
            raise ValueError("component weight must be nonnegative")

    @classmethod
    def vertex(cls, index: int, weight: RationalLike) -> "DirichletComponent":
        """Point mass: type ``index`` occurs with certainty."""
        return cls((index,), (), as_rational(weight))

    @classmethod
    def full(
        cls, params: Sequence[RationalLike], weight: RationalLike
    ) -> "DirichletComponent":
        """Dirichlet over all of 0..len(params)-1."""
        return cls(
            tuple(range(len(params))),
            tuple(as_rational(p) for p in params),
            as_rational(weight),
        )

    @property
    def is_vertex(self) -> bool:
        return len(self.support) == 1


@dataclass(frozen=True)
class SimplexMixturePrior:
    """A finite mixture of simplex components over ``t`` outcome types."""

    t: int
    components: tuple[DirichletComponent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not isinstance(self.t, int) or isinstance(self.t, bool) or self.t < 2:
            raise ValueError("need at least two outcome types")
        if not self.components:
            raise ValueError("need at least one component")
        for comp in self.components:
            if comp.support[-1] >= self.t:
                raise DimensionMismatch(
                    f"support index {comp.support[-1]} out of range for t={self.t}"
                )
        nums, den = _over_lcm([c.weight.as_integer_ratio() for c in self.components])
        if sum(nums) != den:
            raise ValueError("component weights must sum to exactly 1")

    @classmethod
    def hintikka_default(cls, t: int) -> "SimplexMixturePrior":
        """Half the mass on a flat Dirichlet over the whole simplex, the
        other half split evenly over the t vertices.

        Gives every 'only type j ever occurs' hypothesis a standing chance
        while staying open-minded about genuinely mixed worlds.
        """
        if not isinstance(t, int) or isinstance(t, bool) or t < 2:
            raise ValueError("need at least two outcome types")
        vertex_share = Fraction(1, 2 * t)
        comps = [
            DirichletComponent.full((ONE,) * t, Fraction(1, 2))
        ] + [DirichletComponent.vertex(j, vertex_share) for j in range(t)]
        return cls(t, tuple(comps))


def observed_type_count(counts: CountsLike) -> int:
    """Number of distinct types seen so far."""
    return sum(1 for c in _as_counts(counts).counts if c > 0)


def dirichlet_predictive(
    counts: CountsLike, params: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Next-observation probabilities under a single full-support
    Dirichlet: (n_j + k_j) / (n + k) for each type j, with k the parameter
    total. Exactly the add-k_j smoothing rule."""
    cts = _as_counts(counts)
    ps = tuple(as_rational(p) for p in params)
    if len(ps) != cts.t:
        raise DimensionMismatch(
            f"{len(ps)} parameters for {cts.t} outcome types"
        )
    if any(p <= 0 for p in ps):
        raise ValueError("Dirichlet parameters must be positive")
    shares, den = _face_shares(cts.counts, ps)
    return tuple(Fraction(s, den) for s in shares)


def carnap_predictive(counts: CountsLike, lam: RationalLike) -> tuple[Fraction, ...]:
    """The lambda continuum: symmetric Dirichlet with every parameter
    lambda/t, so the prediction is (n_j + lambda/t) / (n + lambda).

    lambda -> 0 leans entirely on observed frequencies; large lambda clings
    to the uniform 1/t.
    """
    cts = _as_counts(counts)
    lam = as_rational(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    share = lam / cts.t
    return dirichlet_predictive(cts, (share,) * cts.t)


def _face_shares(
    counts: Sequence[int], params: Sequence[Fraction]
) -> tuple[list[int], int]:
    """The Dirichlet predictive (n_j + k_j) / (n + k) over a face that holds
    every observation, as integer numerators n_j*q + p_j over one
    denominator n*q + P, with the parameters k_j = p_j/q over their lcm q."""
    ps, q = _over_lcm([k.as_integer_ratio() for k in params])
    shares = [n * q + p for n, p in zip(counts, ps)]
    return shares, sum(shares)


class _Face(NamedTuple):
    """An unvalidated component: the same fields as DirichletComponent,
    for callers whose inputs are already checked (the binary view)."""

    support: tuple[int, ...]
    params: tuple[Fraction, ...]
    weight: Fraction


def sequence_marginal(counts: CountsLike, component: DirichletComponent) -> Fraction:
    """Probability of one particular ordered sequence carrying ``counts``,
    under a single component.

    The component gives 0 as soon as a type outside its support shows up.
    Otherwise the Dirichlet marginal prod_j rising(k_j, n_j) / rising(k, n)
    factors into Beta marginals by splitting off one supported type at a
    time (the neutrality of the Dirichlet): type j against all supported
    types after it. Each factor takes its own cheapest exact route, and a
    vertex, with nothing to split, gives 1. On a face of more than two
    types the unobserved ones act as one type whose parameter is their sum
    (Dirichlet aggregation), so only observed types are split off.
    """
    cts = _as_counts(counts)
    if component.support[-1] >= cts.t:
        raise DimensionMismatch(
            f"component support exceeds t={cts.t}"
        )
    return _marginal(cts.counts, cts.n, component)


def _marginal(
    counts: tuple[int, ...], total: int, face: _Face | DirichletComponent
) -> Fraction:
    """sequence_marginal on a checked tuple ``counts`` summing to ``total``."""
    ks = face.params
    ns = [counts[j] for j in face.support]
    if sum(ns) != total:
        return ZERO
    if len(ks) > 2:
        ks, ns = _aggregated(ks, ns)
    # last split first: zip pairs type j with the running totals of the
    # parameters and counts after it
    factors = [
        beta_sequence_marginal(k, k_after, n, n_after)
        for k, n, k_after, n_after in zip(
            ks[-2::-1], ns[-2::-1], accumulate(ks[:0:-1]), accumulate(ns[:0:-1])
        )
    ]
    return reduce(mul, factors) if factors else ONE


def _aggregated(
    ks: Sequence[Fraction], ns: list[int]
) -> tuple[Sequence[Fraction], list[int]]:
    # Dirichlet aggregation: the face's unobserved types act as one type
    # whose parameter is their sum, so only observed types are split off
    seen = [i for i, n in enumerate(ns) if n]
    if len(seen) + 1 >= len(ns):
        return ks, ns
    unseen = [ks[i].as_integer_ratio() for i, n in enumerate(ns) if not n]
    nums, den = _over_lcm(unseen)
    rest = Fraction(sum(nums), den)
    return [ks[i] for i in seen] + [rest], [ns[i] for i in seen] + [0]


def _weighted_marginals(
    counts: tuple[int, ...], components: Sequence[_Face | DirichletComponent]
) -> tuple[list[int], int]:
    """Weight times sequence marginal per component, as integer numerators
    over the lcm of the unreduced products' denominators; a weightless
    component is never evaluated."""
    n = sum(counts)
    pairs = []
    for c in components:
        m = _marginal(counts, n, c) if c.weight else ZERO
        if m:
            w = c.weight
            pairs.append((w.numerator * m.numerator, w.denominator * m.denominator))
        else:
            pairs.append((0, 1))
    return _over_lcm(pairs)


def _posterior_numerators(
    counts: tuple[int, ...], components: Sequence[_Face | DirichletComponent]
) -> tuple[list[int], int]:
    """Posterior component weights as integer numerators over their sum.
    Raises ZeroEvidenceProbability when every component dies."""
    nums, _ = _weighted_marginals(counts, components)
    total = sum(nums)
    if total == 0:
        raise ZeroEvidenceProbability(
            f"the prior assigns probability 0 to counts {counts}"
        )
    return nums, total


def _posterior_weights(
    counts: tuple[int, ...], components: Sequence[_Face | DirichletComponent]
) -> tuple[Fraction, ...]:
    """Posterior component weights, one Fraction each."""
    nums, total = _posterior_numerators(counts, components)
    return tuple(Fraction(a, total) if a else ZERO for a in nums)


def _checked(prior: SimplexMixturePrior, counts: CountsLike) -> tuple[int, ...]:
    cts = _as_counts(counts)
    if cts.t != prior.t:
        raise DimensionMismatch(
            f"counts over {cts.t} types against a prior with t={prior.t}"
        )
    return cts.counts


def mixture_posterior(
    prior: SimplexMixturePrior, counts: CountsLike
) -> tuple[Fraction, ...]:
    """Posterior component weights, aligned with ``prior.components``:
    prior weight times sequence marginal, normalized. Raises
    ZeroEvidenceProbability when every component dies."""
    return _posterior_weights(_checked(prior, counts), prior.components)


def mixture_predictive(
    prior: SimplexMixturePrior, counts: CountsLike
) -> tuple[Fraction, ...]:
    """Next-observation probabilities under the whole mixture: the posterior-
    weighted average of component predictives, each over its own support. A
    vertex adds its weight w at its type; a surviving face, which holds all n
    observations, adds w * (n_j + k_j) / (n + k_face) at each of its types j.
    Everything is summed as integer numerators over one denominator, and
    each entry becomes one Fraction."""
    cts = _checked(prior, counts)
    nums, total = _posterior_numerators(cts, prior.components)
    faces = [
        (a, comp.support, *_face_shares([cts[j] for j in comp.support], comp.params))
        for a, comp in zip(nums, prior.components)
        if a and not comp.is_vertex
    ]
    den = math.lcm(*{d for *_, d in faces})
    out = [0] * len(cts)
    for a, comp in zip(nums, prior.components):
        if a and comp.is_vertex:
            out[comp.support[0]] += a * den
    for a, support, shares, d in faces:
        scale = a * (den // d)
        for j, share in zip(support, shares):
            out[j] += share * scale
    den *= total
    return tuple(Fraction(o, den) if o else ZERO for o in out)


def from_binary_prior(prior: BinaryPrior) -> SimplexMixturePrior:
    """View a two-outcome prior as a simplex mixture with type 0 the
    confirmatory outcome: the theta=1 point becomes the vertex at type 0,
    the theta=0 point the vertex at type 1, and the continuous part a
    Dirichlet(alpha, beta) over both."""
    return SimplexMixturePrior(
        2, tuple(DirichletComponent(*face) for face in _binary_faces(prior))
    )


def _binary_faces(prior: BinaryPrior) -> tuple[_Face, _Face, _Face]:
    # the components of from_binary_prior, unvalidated: the binary module
    # builds them on every call
    return (
        _Face((0,), (), prior.mass_theta1),
        _Face((1,), (), prior.mass_theta0),
        _Face((0, 1), (prior.alpha, prior.beta), prior.mass_continuous),
    )
