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
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from operator import mul

from .errors import DimensionMismatch, ZeroEvidenceProbability
from .exact import (
    ONE,
    ZERO,
    RationalLike,
    _over_lcm,
    _whole,
    as_rational,
    beta_sequence_marginal,
)

__all__ = [
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

CountsLike = Sequence[int]


def _counts(value: CountsLike) -> tuple[int, ...]:
    """Observed tallies as a tuple, one nonnegative integer per outcome type."""
    counts = tuple(value)
    if not counts:
        raise ValueError("need at least one outcome type")
    # plain ints pass in one scan; int subclasses take the full check
    if not all(type(c) is int and c >= 0 for c in counts):
        if any(not _whole(c) or c < 0 for c in counts):
            raise ValueError("counts must be nonnegative integers")
    return counts


class _Frozen:
    """What the package's value classes share: ``==`` (same class only),
    ``hash`` and ``repr`` over the fields ``__match_args__`` names, and no
    assignment or deletion. Each subclass's ``__init__`` checks a user's
    fields and stores them through ``self.__dict__``; a value the package
    builds from checked parts is stored as built through ``_of``; a
    ``cached_property`` stores itself there too, outside the fields."""

    __match_args__: tuple[str, ...] = ()

    @classmethod
    def _of(cls, *fields: object, **outside: object):
        """An instance from checked parts, without ``__init__``'s checks:
        ``fields`` in ``__match_args__`` order, ``outside`` any attribute
        kept outside the fields."""
        value = object.__new__(cls)
        value.__dict__.update(zip(cls.__match_args__, fields), **outside)
        return value

    def _fields(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        pairs = map("{}={!r}".format, self.__match_args__, self._fields())
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class DirichletComponent(_Frozen):
    """One mixture component: a distribution over a face of the simplex.

    ``support`` lists the type indices (0-based, strictly increasing) the
    component allows. A singleton support is a vertex point mass and takes
    no parameters; any larger support carries one positive Dirichlet
    parameter per supported type, in support order.
    """

    __match_args__ = ("support", "params", "weight")

    def __init__(
        self, support: Sequence[int], params: Sequence[RationalLike],
        weight: RationalLike,
    ) -> None:
        support = tuple(support)
        params = tuple(as_rational(p) for p in params)
        weight = as_rational(weight)
        if len(support) == 0:
            raise ValueError("support must be nonempty")
        if any(not _whole(j) or j < 0 for j in support):
            raise ValueError("support indices must be nonnegative integers")
        if any(a >= b for a, b in zip(support, support[1:])):
            raise ValueError("support indices must be strictly increasing")
        if len(support) == 1 and params:
            raise ValueError("a vertex point mass takes no parameters")
        if len(support) > 1 and len(params) != len(support):
            raise DimensionMismatch("need one Dirichlet parameter per supported type")
        if any(p <= 0 for p in params):
            raise ValueError("Dirichlet parameters must be positive")
        if weight < 0:
            raise ValueError("component weight must be nonnegative")
        self.__dict__.update(support=support, params=params, weight=weight)

    @classmethod
    def vertex(cls, index: int, weight: RationalLike) -> "DirichletComponent":
        """Point mass: type ``index`` occurs with certainty."""
        return cls((index,), (), weight)

    @classmethod
    def full(
        cls, params: Sequence[RationalLike], weight: RationalLike
    ) -> "DirichletComponent":
        """Dirichlet over all of 0..len(params)-1."""
        return cls(tuple(range(len(params))), params, weight)


class SimplexMixturePrior(_Frozen):
    """A finite mixture of simplex components over ``t`` outcome types."""

    __match_args__ = ("t", "components")
    # (vertex weight, full face) on a prior its builder knows is invariant
    # under permuting types; outside the fields, so ==, hash and repr ignore it
    _symmetric: tuple[Fraction, DirichletComponent] | None = None

    def __init__(self, t: int, components: Sequence[DirichletComponent]) -> None:
        components = tuple(components)
        if not _whole(t) or t < 2:
            raise ValueError("need at least two outcome types")
        if not components:
            raise ValueError("need at least one component")
        for comp in components:
            if comp.support[-1] >= t:
                raise DimensionMismatch(
                    f"support index {comp.support[-1]} out of range for t={t}"
                )
        nums, den = _over_lcm([c.weight.as_integer_ratio() for c in components])
        if sum(nums) != den:
            raise ValueError("component weights must sum to exactly 1")
        self.__dict__.update(t=t, components=components)

    @classmethod
    def hintikka_default(cls, t: int) -> "SimplexMixturePrior":
        """Half the mass on a flat Dirichlet over the whole simplex, the
        other half split evenly over the t vertices.

        Gives every 'only type j ever occurs' hypothesis a standing chance
        while staying open-minded about genuinely mixed worlds. Only t is
        checked: the t + 1 components and the prior are built from checked
        parts and stored as built, the prior marked type-symmetric.
        """
        if not _whole(t) or t < 2:
            raise ValueError("need at least two outcome types")
        vertex_share = Fraction(1, 2 * t)
        flat = DirichletComponent._of(tuple(range(t)), (ONE,) * t, Fraction(1, 2))
        vertices = [DirichletComponent._of((j,), (), vertex_share) for j in range(t)]
        return cls._of(t, (flat, *vertices), _symmetric=(vertex_share, flat))

    @cached_property
    def _faces(self) -> list[tuple]:
        """(support, params, weight, p_j, q, P) per weighted component,
        worked out once per prior: a plain face the marginal engine reads,
        with the parameters p_j/q over their lcm q and P their sum, so the
        face predicts (n_j*q + p_j) / (n*q + P) at its types j. A vertex has
        p = P = 1, q = 0: its share is 1."""
        faces = []
        for c in self.components:
            if c.weight:
                ratios = [k.as_integer_ratio() for k in c.params]
                ps, q = _over_lcm(ratios) if ratios else ([1], 0)
                faces.append((c.support, c.params, c.weight, ps, q, sum(ps)))
        return faces


def observed_type_count(counts: CountsLike) -> int:
    """Number of distinct types seen so far."""
    return sum(1 for c in _counts(counts) if c > 0)


def dirichlet_predictive(
    counts: CountsLike, params: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Next-observation probabilities under a single full-support
    Dirichlet: (n_j + k_j) / (n + k) for each type j, with k the parameter
    total. Exactly the add-k_j smoothing rule."""
    cts = _counts(counts)
    ratios = [as_rational(k).as_integer_ratio() for k in params]
    if len(ratios) != len(cts):
        raise DimensionMismatch(
            f"{len(ratios)} parameters for {len(cts)} outcome types"
        )
    if any(p <= 0 for p, _ in ratios):
        raise ValueError("Dirichlet parameters must be positive")
    ps, q = _over_lcm(ratios)
    shares = [n * q + p for n, p in zip(cts, ps)]
    den = sum(shares)
    return tuple(Fraction(s, den) for s in shares)


def carnap_predictive(counts: CountsLike, lam: RationalLike) -> tuple[Fraction, ...]:
    """The lambda continuum: symmetric Dirichlet with every parameter
    lambda/t, so the prediction is (n_j + lambda/t) / (n + lambda).

    lambda -> 0 leans entirely on observed frequencies; large lambda clings
    to the uniform 1/t.
    """
    cts = _counts(counts)
    p, q = as_rational(lam).as_integer_ratio()
    if p <= 0:
        raise ValueError("lambda must be positive")
    q *= len(cts)  # every parameter is p/q over this q
    den = sum(cts) * q + p * len(cts)
    unseen = Fraction(p, den)  # one Fraction for every type not seen yet
    return tuple(Fraction(c * q + p, den) if c else unseen for c in cts)


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
    cts = _counts(counts)
    if component.support[-1] >= len(cts):
        raise DimensionMismatch(
            f"component support exceeds t={len(cts)}"
        )
    return _marginal(cts, sum(cts), component.support, component.params)


def _marginal(
    counts: tuple[int, ...], total: int, support: Sequence[int], ks: Sequence[Fraction]
) -> Fraction:
    """sequence_marginal on a checked tuple ``counts`` summing to ``total``,
    for the face with that support and those parameters."""
    ns = [counts[j] for j in support]
    if sum(ns) != total:
        return ZERO
    if len(ks) > 2 and ns.count(0) > 1:
        # Dirichlet aggregation: the face's unobserved types act as one type
        # whose parameter is their sum, so only observed types are split off
        seen = [i for i, n in enumerate(ns) if n]
        unseen = [k.as_integer_ratio() for k, n in zip(ks, ns) if not n]
        nums, den = _over_lcm(unseen)
        ks = [ks[i] for i in seen] + [Fraction(sum(nums), den)]
        ns = [ns[i] for i in seen] + [0]
    # last split first: zip pairs type j with the running totals of the
    # parameters and counts after it
    factors = [
        beta_sequence_marginal(k, k_after, n, n_after)
        for k, n, k_after, n_after in zip(
            ks[-2::-1], ns[-2::-1], accumulate(ks[:0:-1]), accumulate(ns[:0:-1])
        )
    ]
    return reduce(mul, factors) if factors else ONE


def _weighted_marginals(
    counts: tuple[int, ...], faces: Iterable[tuple]
) -> tuple[list[int], int]:
    """Weight times sequence marginal per face, read once, in order; a face
    is a plain tuple that starts (support, params, weight). The products are
    integer numerators over the lcm of their unreduced denominators, known up
    to that common factor. A weightless face is never evaluated, and it and
    a dead face add 0 over 1, leaving the lcm to the others."""
    n = sum(counts)
    pairs = []
    for f in faces:
        w = f[2]
        m = _marginal(counts, n, f[0], f[1]) if w else ZERO
        pairs.append((w.numerator * m.numerator, w.denominator * m.denominator)
                     if m is not ZERO else (0, 1))
    return _over_lcm(pairs)


def _posterior_numerators(
    counts: tuple[int, ...], faces: Iterable[tuple]
) -> tuple[list[int], int]:
    """Posterior face weights as integer numerators over their sum.
    Raises ZeroEvidenceProbability when every face dies."""
    nums, _ = _weighted_marginals(counts, faces)
    total = sum(nums)
    if total == 0:
        raise ZeroEvidenceProbability(
            f"the prior assigns probability 0 to counts {counts}"
        )
    return nums, total


def _checked(prior: SimplexMixturePrior, counts: CountsLike) -> tuple[int, ...]:
    cts = _counts(counts)
    if len(cts) != prior.t:
        raise DimensionMismatch(
            f"counts over {len(cts)} types against a prior with t={prior.t}"
        )
    return cts


def mixture_posterior(
    prior: SimplexMixturePrior, counts: CountsLike
) -> tuple[Fraction, ...]:
    """Posterior component weights, aligned with ``prior.components``:
    prior weight times sequence marginal, normalized. Raises
    ZeroEvidenceProbability when every component dies."""
    # every component's fields, weightless ones included, one face at a
    # time: not _faces, whose integer shares the weights do not need, and no
    # list of t + 1 tuples for the garbage collector to walk
    faces = ((c.support, c.params, c.weight) for c in prior.components)
    nums, total = _posterior_numerators(_checked(prior, counts), faces)
    return tuple(Fraction(a, total) if a else ZERO for a in nums)


def mixture_predictive(
    prior: SimplexMixturePrior, counts: CountsLike
) -> tuple[Fraction, ...]:
    """Next-observation probabilities under the whole mixture: the posterior-
    weighted average of component predictives, each over its own support.
    Only survivors are weighed: components of nonzero weight whose face holds
    all n observations. A survivor of weight w adds w * (n_j + k_j) /
    (n + k_face) at each of its types j, read off the integer faces worked
    out once per prior. Everything is summed as integer numerators over one
    denominator, and each entry becomes one Fraction. A lone survivor has
    posterior weight 1 and its predictive is the answer, with no marginal
    computed. A prior its builder marks type-symmetric (``hintikka_default``,
    and ``from_binary_prior`` with equal point masses and alpha = beta) is
    answered from its observed types alone, with the same result; a prior
    rebuilt from its components carries no mark and takes the per-face engine."""
    cts = _checked(prior, counts)
    if prior._symmetric:
        return _symmetric_predictive(cts, *prior._symmetric)
    n = sum(cts)
    live = [f for f in prior._faces if sum(map(cts.__getitem__, f[0])) == n]
    if len(live) == 1:
        nums, total = [1], 1
    else:
        nums, total = _posterior_numerators(cts, live)
    den = math.lcm(*{n * q + p for *_, q, p in live})
    out = [0] * len(cts)
    for a, (support, _, _, ps, q, p) in zip(nums, live):
        scale = a * (den // (n * q + p))
        for j, p_j in zip(support, ps):
            out[j] += (cts[j] * q + p_j) * scale
    den *= total
    return tuple(Fraction(o, den) if o else ZERO for o in out)


def _symmetric_predictive(
    counts: tuple[int, ...], vertex_weight: Fraction, face: DirichletComponent
) -> tuple[Fraction, ...]:
    """mixture_predictive for a type-symmetric prior, from the s observed
    types alone, in one integer pass. With none, every type is alike: 1/t.
    Otherwise the face, with every parameter p/q, predicts (n_j*q + p) /
    (n*q + t*p) at each seen type and p / (n*q + t*p) at each unseen one.
    With s >= 2 every vertex dies and the face alone answers. With s = 1 the
    observed type's vertex survives beside the face, and the face's
    marginal, one Beta factor after aggregating the t - 1 unseen types,
    weighs the two; it is skipped when either weight is 0."""
    t = len(counts)
    seen = [j for j, c in enumerate(counts) if c]
    if not seen:
        return (Fraction(1, t),) * t
    p, q = face.params[0].as_integer_ratio()
    n, wf = sum(counts), face.weight
    a_v, a_f = 0, 1  # posterior odds of the vertex against the face
    if len(seen) == 1 and vertex_weight:
        rest = Fraction(p * (t - 1), q)
        m = beta_sequence_marginal(face.params[0], rest, n, 0) if wf else ZERO
        a_v = vertex_weight.numerator * wf.denominator * m.denominator
        a_f = wf.numerator * m.numerator * vertex_weight.denominator
    elif not wf:
        raise ZeroEvidenceProbability(
            f"the prior assigns probability 0 to counts {counts}"
        )
    d = n * q + t * p
    den = d * (a_v + a_f)
    out = [Fraction(p * a_f, den)] * t
    for j in seen:  # a_v is 0 unless j is the one type seen
        out[j] = Fraction((counts[j] * q + p) * a_f + a_v * d, den)
    return tuple(out)


def from_binary_prior(prior: BinaryPrior) -> SimplexMixturePrior:
    """View a two-outcome prior as a simplex mixture with type 0 the
    confirmatory outcome: the theta=1 point becomes the vertex at type 0,
    the theta=0 point the vertex at type 1, and the continuous part a
    Dirichlet(alpha, beta) over both. Equal point masses with alpha = beta
    make the view type-symmetric, and it is marked so. The components and
    the view are built from the checked BinaryPrior and stored as built."""
    comps = tuple(DirichletComponent._of(*f) for f in _binary_faces(prior))
    symmetric = prior.mass_theta1 == prior.mass_theta0 and prior.alpha == prior.beta
    mark = (prior.mass_theta1, comps[2]) if symmetric else None
    return SimplexMixturePrior._of(2, comps, _symmetric=mark)


def _binary_faces(prior: BinaryPrior) -> tuple[tuple, ...]:
    # (support, params, weight) of from_binary_prior's three components, from
    # parts BinaryPrior has checked: the binary answers hand these plain faces
    # to the engine on every call, and only from_binary_prior wraps them
    return (
        ((0,), (), prior.mass_theta1),
        ((1,), (), prior.mass_theta0),
        ((0, 1), (prior.alpha, prior.beta), prior.mass_continuous),
    )
