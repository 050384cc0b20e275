import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from succession import (
    BinaryPrior,
    DimensionMismatch,
    DirichletComponent,
    Evidence,
    SimplexMixturePrior,
    ZeroEvidenceProbability,
    carnap_predictive,
    dirichlet_predictive,
    from_binary_prior,
    mixture_posterior,
    mixture_predictive,
    observed_type_count,
    predict_next,
    sequence_marginal,
)
from succession.exact import rising
from succession import simplex
from succession.errors import ResourceLimit
from succession.simplex import _binary_faces
import oracles

THIRD = F(1, 3)


def direct_marginal(counts, component):
    """The Dirichlet sequence marginal as one rising-factorial product,
    prod_j rising(k_j, n_j) / rising(k, n) over the support; a vertex
    gives 1 and any observation outside the support gives 0."""
    if any(c > 0 and j not in component.support for j, c in enumerate(counts)):
        return F(0)
    if len(component.support) == 1:
        return F(1)
    num = F(1)
    for j, k in zip(component.support, component.params):
        num *= rising(k, counts[j])
    return num / rising(sum(component.params, F(0)), sum(counts))


PARAMETER_SETS = {
    "integer": (F(1), F(2), F(3), F(1)),
    "fractional": (F(1, 2), F(5, 3), F(7, 2), F(2, 7)),
    "mixed": (F(3), F(1, 2), F(1), F(7, 3)),
}

TWO_VERTICES_AND_FLAT = SimplexMixturePrior(
    3,
    (
        DirichletComponent.vertex(0, THIRD),
        DirichletComponent.vertex(1, THIRD),
        DirichletComponent.full((1, 1, 1), THIRD),
    ),
)

# vertices, all three edges, and the full face, over three types
WITH_EDGES = SimplexMixturePrior(
    3,
    tuple(DirichletComponent.vertex(j, F(1, 9)) for j in range(3))
    + tuple(
        DirichletComponent(pair, (F(1), F(1)), F(1, 9))
        for pair in ((0, 1), (0, 2), (1, 2))
    )
    + (DirichletComponent.full((1, 1, 1), F(3, 9)),),
)

# hintikka_default(3)'s components, rebuilt by hand: no type-symmetric mark
HINTIKKA_3_REBUILT = SimplexMixturePrior(
    3, SimplexMixturePrior.hintikka_default(3).components
)

SPLIT_2 = SimplexMixturePrior(
    2,
    (
        DirichletComponent.vertex(0, F(1, 4)),
        DirichletComponent.vertex(1, F(1, 4)),
        DirichletComponent.full((1, 1), F(1, 2)),
    ),
)


class TestTypes:
    def test_counts_validation(self):
        # every entry point takes any sequence of ints and checks it the
        # same way
        for call in (
            observed_type_count,
            lambda counts: dirichlet_predictive(counts, (1, 1)),
            lambda counts: carnap_predictive(counts, 1),
            lambda counts: sequence_marginal(counts, DirichletComponent.vertex(0, 1)),
            lambda counts: mixture_predictive(SPLIT_2, counts),
            lambda counts: mixture_posterior(SPLIT_2, counts),
        ):
            with pytest.raises(ValueError, match="^need at least one outcome type$"):
                call(())
            for bad in ((1, -1), (1, True), (1, 1.0), (1, F(1))):
                with pytest.raises(
                    ValueError, match="^counts must be nonnegative integers$"
                ):
                    call(bad)
            assert call([2, 3]) == call((2, 3)) == call(iter((2, 3)))
        # t = 3 types and n = 5 draws
        assert dirichlet_predictive([2, 0, 3], (1, 1, 1)) == (F(3, 8), F(1, 8), F(1, 2))

    def test_component_validation(self):
        with pytest.raises(ValueError):
            DirichletComponent((0, 0), (F(1), F(1)), F(1))  # repeated index
        with pytest.raises(ValueError):
            DirichletComponent((0,), (F(1),), F(1))  # vertex takes no params
        with pytest.raises(DimensionMismatch):
            DirichletComponent((0, 1, 2), (F(1), F(1)), F(1))
        with pytest.raises(ValueError):
            DirichletComponent((0, 1), (F(1), F(0)), F(1))

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            SimplexMixturePrior(3, (DirichletComponent.vertex(0, F(1, 2)),))
        with pytest.raises(DimensionMismatch):
            SimplexMixturePrior(2, (DirichletComponent.vertex(5, F(1)),))

    def test_weights_summing_to_one_over_large_coprime_denominators(self):
        # the two primes after 10**30; the third weight is over their product
        first, second = F(1, 10**30 + 57), F(1, 10**30 + 99)
        weights = (first, second, 1 - first - second)
        comps = tuple(DirichletComponent.vertex(j, w) for j, w in enumerate(weights))
        assert SimplexMixturePrior(3, comps).components == comps
        off = (first, second, weights[2] - F(1, 10**30))
        comps = tuple(DirichletComponent.vertex(j, w) for j, w in enumerate(off))
        with pytest.raises(ValueError) as raised:
            SimplexMixturePrior(3, comps)
        assert str(raised.value) == "component weights must sum to exactly 1"

    def test_hintikka_default_shape(self):
        prior = SimplexMixturePrior.hintikka_default(4)
        assert len(prior.components) == 5
        assert prior.components[0].support == (0, 1, 2, 3)
        assert sum(c.weight for c in prior.components) == 1

    @pytest.mark.parametrize("t", range(2, 7))
    def test_hintikka_default_components_equal_validated_ones(self, t):
        want = (
            DirichletComponent.full((1,) * t, F(1, 2)),
            *(DirichletComponent.vertex(j, F(1, 2 * t)) for j in range(t)),
        )
        prior = SimplexMixturePrior.hintikka_default(t)
        _assert_same_components(prior.components, want)
        # the prior is built from those parts too, and marked type-symmetric
        _assert_same_prior(prior, SimplexMixturePrior(t, want))
        assert prior._symmetric == (F(1, 2 * t), want[0])

    def test_binary_faces_equal_validated_components(self):
        masses = (F(0), F(1, 3), F(1, 2), F(1))
        shapes = (F(1), F(1, 2), F(5, 3), F(2))
        for mass1, mass0 in itertools.product(masses, repeat=2):
            if mass1 + mass0 > 1:
                continue
            cont = 1 - mass1 - mass0
            for alpha, beta in itertools.product(shapes, repeat=2):
                prior = BinaryPrior(mass1, mass0, cont, alpha, beta)
                want = (
                    DirichletComponent((0,), (), mass1),
                    DirichletComponent((1,), (), mass0),
                    DirichletComponent((0, 1), (alpha, beta), cont),
                )
                # the binary answers read the validated components' fields
                # as plain faces; the view wraps them into equal components
                faces = tuple((c.support, c.params, c.weight) for c in want)
                assert _binary_faces(prior) == faces
                view = from_binary_prior(prior)
                _assert_same_components(view.components, want)
                _assert_same_prior(view, SimplexMixturePrior(2, want))
                marked = mass1 == mass0 and alpha == beta
                assert view._symmetric == ((mass1, want[2]) if marked else None)

    @pytest.mark.parametrize("t", [0, 1, -3, True, 2.0])
    def test_hintikka_default_needs_two_types(self, t):
        with pytest.raises(ValueError, match="need at least two outcome types"):
            SimplexMixturePrior.hintikka_default(t)


def _assert_same_prior(got, want):
    # a prior built from checked parts equals the validated one in ==, hash
    # and repr, and is frozen like it
    assert type(got) is SimplexMixturePrior
    assert (got, hash(got), repr(got)) == (want, hash(want), repr(want))
    with pytest.raises(AttributeError, match="cannot assign to field"):
        got.t = 3


def _assert_same_components(got, want):
    # components built from checked parts, without the constructor's checks,
    # behave like the validated ones: equal, same hash and repr, frozen
    assert got == want
    assert [hash(c) for c in got] == [hash(c) for c in want]
    assert [repr(c) for c in got] == [repr(c) for c in want]
    for comp in got:
        assert type(comp) is DirichletComponent
        assert DirichletComponent(comp.support, comp.params, comp.weight) == comp
        with pytest.raises(AttributeError, match="cannot assign to field"):
            comp.weight = F(0)


class TestSinglePredictives:
    def test_dirichlet_frozen_value(self):
        assert dirichlet_predictive((3, 1, 0), (2, 1, 1)) == (
            F(5, 8),
            F(1, 4),
            F(1, 8),
        )

    def test_carnap_frozen_value(self):
        assert carnap_predictive((3, 1), 1) == (F(7, 10), F(3, 10))

    def test_carnap_is_symmetric_dirichlet(self):
        for counts in ((0, 0), (3, 1), (2, 5)):
            assert carnap_predictive(counts, 2) == dirichlet_predictive(
                counts, (1, 1)
            )

    def test_carnap_limits_pull_between_frequency_and_uniform(self):
        counts = (8, 2)
        sharp = carnap_predictive(counts, F(1, 100))[0]
        vague = carnap_predictive(counts, 10_000)[0]
        assert abs(sharp - F(8, 10)) < F(1, 100)
        assert abs(vague - F(1, 2)) < F(1, 100)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dirichlet_predictive((1, 2), (1, 1, 1))

    @given(
        counts=st.lists(st.integers(0, 9), min_size=2, max_size=6),
        params=st.lists(
            st.builds(F, st.integers(1, 12), st.integers(1, 7)), min_size=6, max_size=6
        ),
    )
    def test_integer_route_equals_fraction_route(self, counts, params):
        counts = tuple(counts)
        params = tuple(params[: len(counts)])
        assert dirichlet_predictive(counts, params) == oracles.dirichlet_predictive(
            counts, params
        )
        lam = params[0]
        assert carnap_predictive(counts, lam) == oracles.carnap_predictive(counts, lam)

    def test_posterior_concentration_bound(self):
        # the predictive sits within k/(n+k) of the empirical frequency
        params = (F(2), F(1), F(3))
        k = sum(params)
        for counts in ((4, 0, 0), (2, 1, 1), (0, 5, 5)):
            n = sum(counts)
            pred = dirichlet_predictive(counts, params)
            for j in range(3):
                assert abs(pred[j] - F(counts[j], n)) <= k / (n + k)


# the parameter grid of the integer-ratio kernel's checks; lambda 3 and 4
# share a factor with t, so Carnap's shares come over an unreduced denominator
KERNEL_PARAMS = (F(1, 3), F(1, 2), F(1), F(2), F(5, 2), F(7))
KERNEL_LAMBDAS = KERNEL_PARAMS + (F(3), F(4))


def _small_counts(t):
    # every tally vector with at most 8 observations
    return [c for c in itertools.product(range(9), repeat=t) if sum(c) <= 8]


def _param_sets(t):
    # every pair at t = 2; past that, the t-long windows of the cycled grid
    if t == 2:
        return list(itertools.product(KERNEL_PARAMS, repeat=2))
    return [tuple(KERNEL_PARAMS[(i + j) % 6] for j in range(t)) for i in range(6)]


class TestIntegerRatioKernel:
    """The predictives run on integer ratios; the Fraction routes they
    replaced, kept in the oracles, give the same tuples."""

    @pytest.mark.parametrize("t", range(2, 6))
    def test_dirichlet_equals_the_fraction_route(self, t):
        for params in _param_sets(t):
            for counts in _small_counts(t):
                assert dirichlet_predictive(counts, params) == (
                    oracles.dirichlet_predictive(counts, params)
                ), (params, counts)

    @pytest.mark.parametrize("t", range(2, 6))
    def test_carnap_equals_the_fraction_route(self, t):
        for lam in KERNEL_LAMBDAS:
            for counts in _small_counts(t):
                assert carnap_predictive(counts, lam) == (
                    oracles.carnap_predictive(counts, lam)
                ), (lam, counts)

    def test_carnap_shares_one_fraction_across_unseen_types(self):
        counts = (0, 3, 0, 0, 1, 0)
        out = carnap_predictive(counts, F(3, 2))
        assert out == oracles.carnap_predictive(counts, F(3, 2))
        assert out[0] is out[2] is out[3] is out[5]

    def test_carnap_shares_reduce_over_a_common_factor(self):
        # lambda/t = 1 at lambda = t: the shares n_j*t + lambda over n*t + t*lambda
        assert carnap_predictive((0, 0), 2) == (F(1, 2), F(1, 2))
        assert carnap_predictive((1, 0, 0), 3) == (F(1, 2), F(1, 4), F(1, 4))
        assert carnap_predictive((2, 0, 2, 0), 4) == (F(3, 8), F(1, 8), F(3, 8), F(1, 8))

    @pytest.mark.parametrize("t", range(2, 6))
    def test_hintikka_equals_the_fraction_route(self, t):
        prior = SimplexMixturePrior.hintikka_default(t)
        for view in (prior, _per_face(prior)):
            for counts in _small_counts(t):
                assert mixture_predictive(view, counts) == (
                    oracles.fraction_mixture_predictive(prior, counts)
                ), counts

    @pytest.mark.parametrize(
        "binary",
        [BinaryPrior.laplace(a, a) for a in KERNEL_PARAMS]
        + [BinaryPrior(F(1, 2), F(1, 2), 0)],
        ids=[f"laplace-{a}" for a in KERNEL_PARAMS] + ["two-point"],
    )
    def test_two_type_views_equal_the_fraction_route(self, binary):
        prior = from_binary_prior(binary)
        for view in (prior, _per_face(prior)):
            for counts in _small_counts(2):
                assert _outcome(lambda: mixture_predictive(view, counts)) == (
                    _outcome(lambda: oracles.fraction_mixture_predictive(prior, counts))
                ), counts

    def test_int_subclass_counts_take_the_full_check(self):
        class Count(int):
            pass

        counts = (Count(2), Count(1))
        assert dirichlet_predictive(counts, (1, 1)) == (F(3, 5), F(2, 5))
        assert carnap_predictive(counts, F(1, 2)) == carnap_predictive((2, 1), F(1, 2))


class TestSequenceMarginal:
    def test_full_component_frozen_value(self):
        assert sequence_marginal((2, 1), DirichletComponent.full((1, 1), 1)) == F(
            1, 12
        )

    def test_vertex_indicator(self):
        vertex = DirichletComponent.vertex(0, 1)
        assert sequence_marginal((5, 0), vertex) == 1
        assert sequence_marginal((5, 1), vertex) == 0
        assert sequence_marginal((0, 0), vertex) == 1

    def test_sub_simplex_support(self):
        edge = DirichletComponent((0, 2), (F(1), F(1)), 1)
        assert sequence_marginal((2, 0, 1), edge) == F(1, 12)
        assert sequence_marginal((2, 1, 1), edge) == 0

    def test_matches_factorial_oracle(self):
        comp = DirichletComponent.full((2, 1, 1), 1)
        for counts in ((0, 0, 0), (1, 2, 3), (4, 0, 1), (2, 2, 2)):
            assert sequence_marginal(counts, comp) == oracles.dirichlet_marginal(
                (2, 1, 1), counts
            )

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("params", PARAMETER_SETS.values(), ids=PARAMETER_SETS)
    def test_equals_direct_product_on_every_face(self, t, params):
        # the stick-breaking factorization against the product it replaces,
        # on vertices, edges and full faces, counts up to 12
        faces = [
            support
            for size in range(1, t + 1)
            for support in itertools.combinations(range(t), size)
        ]
        for support in faces:
            ks = () if len(support) == 1 else params[: len(support)]
            comp = DirichletComponent(support, ks, 1)
            for counts in itertools.product((0, 1, 2, 5, 12), repeat=t):
                value = sequence_marginal(counts, comp)
                assert value == direct_marginal(counts, comp)
                if len(support) > 1 and all(k.denominator == 1 for k in ks):
                    if all(counts[j] == 0 for j in range(t) if j not in support):
                        assert value == oracles.dirichlet_marginal(
                            tuple(int(k) for k in ks),
                            tuple(counts[j] for j in support),
                        )

    @given(st.data())
    def test_sparse_counts_match_oracle_up_to_t_50(self, data):
        # the unobserved types of a face act as one type whose parameter is
        # their sum; the oracles split off nothing
        t = data.draw(st.integers(3, 50))
        integer = data.draw(st.booleans())
        denominators = st.just(1) if integer else st.integers(1, 4)
        params = tuple(
            data.draw(st.builds(F, st.integers(1, 5), denominators)) for _ in range(t)
        )
        observed = data.draw(
            st.lists(st.integers(0, t - 1), max_size=min(t, 4), unique=True)
        )
        counts = [0] * t
        for j in observed:
            counts[j] = data.draw(st.integers(1, 4))
        counts = tuple(counts)
        comp = DirichletComponent.full(params, 1)
        if integer:
            want = oracles.dirichlet_marginal(tuple(int(k) for k in params), counts)
        else:
            want = oracles.polya_marginal(params, counts)
        assert sequence_marginal(counts, comp) == want

    def test_order_invariance_is_structural(self):
        # the marginal takes counts, not sequences, so permuting a sample
        # cannot change it; spot-check equal-count references
        comp = DirichletComponent.full((1, 2), 1)
        assert sequence_marginal((3, 1), comp) == sequence_marginal([3, 1], comp)


class TestMixturePosterior:
    def test_frozen_value(self):
        assert mixture_posterior(TWO_VERTICES_AND_FLAT, (2, 0, 0)) == (
            F(6, 7),
            F(0),
            F(1, 7),
        )

    def test_weights_sum_to_one(self):
        for counts in ((0, 0, 0), (1, 0, 0), (2, 3, 0), (1, 1, 1)):
            assert sum(mixture_posterior(WITH_EDGES, counts)) == 1

    def test_vertices_die_but_edges_survive_two_observed_types(self):
        weights = mixture_posterior(WITH_EDGES, (2, 1, 0))
        components = WITH_EDGES.components
        for w, comp in zip(weights, components):
            if len(comp.support) == 1:
                assert w == 0
            elif comp.support == (0, 1):
                assert w > 0
            elif len(comp.support) == 2:
                assert w == 0  # edges missing an observed type
            else:
                assert w > 0  # full face

    def test_zero_evidence_raises(self):
        two_vertices = SimplexMixturePrior(
            2,
            (
                DirichletComponent.vertex(0, F(1, 2)),
                DirichletComponent.vertex(1, F(1, 2)),
            ),
        )
        with pytest.raises(ZeroEvidenceProbability):
            mixture_posterior(two_vertices, (1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mixture_posterior(TWO_VERTICES_AND_FLAT, (1, 1))


@st.composite
def mixtures_with_counts(draw):
    """A mixture over 2-4 types whose components sit on random faces,
    vertices included, with rational parameters and some weights zero, and
    a count vector over the same types."""
    t = draw(st.integers(2, 4))
    supports = st.lists(
        st.integers(0, t - 1), min_size=1, max_size=t, unique=True
    ).map(lambda types: tuple(sorted(types)))
    parameters = st.builds(F, st.integers(1, 6), st.integers(1, 3))
    faces = []
    for i, support in enumerate(draw(st.lists(supports, min_size=1, max_size=4))):
        params = () if len(support) == 1 else tuple(draw(parameters) for _ in support)
        faces.append((support, params, draw(st.integers(1 if i == 0 else 0, 3))))
    total = sum(weight for _, _, weight in faces)
    prior = SimplexMixturePrior(
        t, tuple(DirichletComponent(s, p, F(w, total)) for s, p, w in faces)
    )
    return prior, draw(st.tuples(*[st.integers(0, 4)] * t))


class TestMixturePredictive:
    def test_split_prior_reproduces_succession_rule(self):
        for n in range(1, 60):
            assert mixture_predictive(SPLIT_2, (n, 0))[0] == F(
                (n + 1) * (n + 4), (n + 2) * (n + 3)
            )
        assert mixture_predictive(SPLIT_2, (0, 0)) == (F(1, 2), F(1, 2))

    def test_hintikka_default_starts_uniform(self):
        for t in (2, 3, 4):
            prior = SimplexMixturePrior.hintikka_default(t)
            assert mixture_predictive(prior, (0,) * t) == (F(1, t),) * t

    def test_hintikka_default_is_linear_in_t(self):
        # t + 1 components: each adds over its own support, never over all t.
        # hintikka_default is type-symmetric and never reaches the per-face
        # engine, so one reweighted vertex keeps that engine at the same size
        t = 4000
        prior = SimplexMixturePrior.hintikka_default(t)
        reweighted = _reweighted_hintikka(t)
        start = time.perf_counter()
        assert mixture_predictive(prior, (0,) * t) == (F(1, t),) * t
        pred = mixture_predictive(reweighted, (0,) * t)
        assert time.perf_counter() - start < 1.5
        face = F(1, 2) - F(1, 2 * t)
        assert pred == (F(1, t) + face / t,) + (F(1, 2 * t) + face / t,) * (t - 1)

    def test_excluded_types_get_zero(self):
        edge_only = SimplexMixturePrior(
            3, (DirichletComponent((0, 1), (F(1), F(1)), F(1)),)
        )
        pred = mixture_predictive(edge_only, (1, 1, 0))
        assert pred[2] == 0
        assert sum(pred) == 1

    @given(
        counts=st.tuples(
            st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)
        )
    )
    def test_is_a_probability_vector(self, counts):
        for prior in (TWO_VERTICES_AND_FLAT, WITH_EDGES):
            try:
                pred = mixture_predictive(prior, counts)
            except ZeroEvidenceProbability:
                continue
            assert sum(pred) == 1
            assert all(0 <= p <= 1 for p in pred)

    @given(mixtures_with_counts())
    def test_matches_oracle_ratio_of_marginals(self, case):
        _assert_matches_oracle(*case)

    @given(mixtures_with_counts())
    def test_integer_route_equals_fraction_route(self, case):
        # rational parameters, zero weights and dead components included
        prior, counts = case
        try:
            weights = oracles.fraction_posterior_weights(prior, counts)
        except ZeroEvidenceProbability as exc:
            for engine in (mixture_posterior, mixture_predictive):
                with pytest.raises(ZeroEvidenceProbability) as raised:
                    engine(prior, counts)
                assert str(raised.value) == str(exc)
            return
        assert mixture_posterior(prior, counts) == weights
        assert mixture_predictive(prior, counts) == (
            oracles.fraction_mixture_predictive(prior, counts)
        )

    def test_zero_evidence_message(self):
        two_vertices = SimplexMixturePrior(
            2,
            (
                DirichletComponent.vertex(0, F(1, 2)),
                DirichletComponent.vertex(1, F(1, 2)),
            ),
        )
        with pytest.raises(ZeroEvidenceProbability) as raised:
            mixture_predictive(two_vertices, (1, 1))
        assert str(raised.value) == "the prior assigns probability 0 to counts (1, 1)"

    def test_hintikka_at_a_hundred_thousand_types(self):
        # the flat face's unobserved types act as one: only observed types
        # are split off, so the cost is O(t) integer work
        t = 10**5
        prior = SimplexMixturePrior.hintikka_default(t)
        counts = [0] * t
        counts[3], counts[70_000] = 2, 5
        start = time.perf_counter()
        uniform = mixture_predictive(prior, (0,) * t)
        pred = mixture_predictive(prior, tuple(counts))
        assert time.perf_counter() - start < 4
        assert uniform == (F(1, t),) * t
        # only the flat face survives two observed types: (n_j + 1)/(n + t)
        assert pred[3] == F(3, 7 + t)
        assert pred[70_000] == F(6, 7 + t)
        assert pred[0] == F(1, 7 + t)
        one_type = (7,) + (0,) * (t - 1)
        assert mixture_predictive(prior, one_type) == _one_type_predictive(
            F(1, 2 * t), F(1, 2), t, 7
        )

    def test_per_face_engine_at_a_hundred_thousand_types(self):
        # the same sizes through the general engine: one reweighted vertex
        # makes the prior asymmetric, and every component is visited
        t = 10**5
        prior = _reweighted_hintikka(t)
        counts = [0] * t
        counts[3], counts[70_000] = 2, 5
        one_type = (7,) + (0,) * (t - 1)
        start = time.perf_counter()
        uniform = mixture_predictive(prior, (0,) * t)
        pred = mixture_predictive(prior, tuple(counts))
        seen_once = mixture_predictive(prior, one_type)
        assert time.perf_counter() - start < 6
        assert prior._symmetric is None
        face = F(1, 2) - F(1, 2 * t)
        assert uniform[0] == F(1, t) + face / t
        assert uniform[1:] == (F(1, 2 * t) + face / t,) * (t - 1)
        assert (pred[3], pred[70_000], pred[0]) == (F(3, 7 + t), F(6, 7 + t), F(1, 7 + t))
        assert seen_once == _one_type_predictive(F(1, t), face, t, 7)

    @pytest.mark.parametrize(
        "counts", [(0, 0, 0), (1, 0, 0), (2, 1, 0), (1, 1, 1), (0, 0, 3)]
    )
    @pytest.mark.parametrize(
        "prior", [TWO_VERTICES_AND_FLAT, WITH_EDGES], ids=["flat", "edges"]
    )
    def test_matches_oracle_on_grid(self, prior, counts):
        _assert_matches_oracle(prior, counts)


def _reweighted_hintikka(t):
    """hintikka_default(t) with vertex 0 at twice its weight and the flat
    face lighter by as much: not type-symmetric, so mixture_predictive runs
    the per-face engine over all t + 1 components."""
    flat, first, *rest = SimplexMixturePrior.hintikka_default(t).components
    return SimplexMixturePrior(t, (
        DirichletComponent(flat.support, flat.params, flat.weight - first.weight),
        DirichletComponent(first.support, first.params, 2 * first.weight),
        *rest,
    ))


def _one_type_predictive(vertex, face, t, n):
    """The predictive after n observations of type 0 alone under vertex 0 at
    weight ``vertex`` plus a flat face over t types at weight ``face``. The
    face's marginal is n! / (t (t+1) ... (t+n-1)); it predicts (n+1)/(n+t)
    at type 0 and 1/(n+t) at every other type."""
    surviving = face * F(math.factorial(n), math.prod(range(t, t + n)))
    total = vertex + surviving
    first = (vertex + surviving * F(n + 1, n + t)) / total
    return (first,) + (surviving * F(1, n + t) / total,) * (t - 1)


def _assert_matches_oracle(prior, counts):
    if oracles.mixture_marginal(prior, counts) == 0:
        return
    assert mixture_predictive(prior, counts) == tuple(
        oracles.mixture_predictive(prior, counts, j) for j in range(prior.t)
    )


def _symmetric_prior(t, vertex_weight, a, rng):
    """t vertices at ``vertex_weight`` and a full face with every parameter
    ``a`` taking the rest, in a shuffled order, marked type-symmetric as the
    package's builders mark theirs."""
    comps = [DirichletComponent.vertex(j, vertex_weight) for j in range(t)]
    face = DirichletComponent.full((a,) * t, 1 - t * vertex_weight)
    comps.append(face)
    rng.shuffle(comps)
    return SimplexMixturePrior._of(t, tuple(comps), _symmetric=(vertex_weight, face))


def _per_face(prior):
    """``prior`` rebuilt from its components: a rebuild carries no
    type-symmetric mark, so mixture_predictive sends it through the
    per-face engine."""
    return SimplexMixturePrior(prior.t, prior.components)


def _outcome(call):
    try:
        return call()
    except ZeroEvidenceProbability as exc:
        return type(exc), str(exc)


def _tallies(t):
    # every tally 0..4 up to four types; past that, at most two observed
    # types, which covers each case of the fast path
    for counts in itertools.product(range(5), repeat=t):
        if t <= 4 or sum(1 for c in counts if c) <= 2:
            yield counts


class TestTypeSymmetricPriors:
    @pytest.mark.parametrize("a", [F(1, 2), F(1), F(3)])
    @pytest.mark.parametrize("t", range(2, 7))
    def test_equals_the_per_face_engine(self, t, a):
        # vertex weight 0 (the face alone), 1/(2t), and 1/t (face weight 0)
        rng = random.Random(t)
        for w in (F(0), F(1, 2 * t), F(1, t)):
            prior = _symmetric_prior(t, w, a, rng)
            general = _per_face(prior)
            for counts in _tallies(t):
                assert _outcome(lambda: mixture_predictive(prior, counts)) == (
                    _outcome(lambda: mixture_predictive(general, counts))
                ), (w, counts)

    @pytest.mark.parametrize("t", range(2, 7))
    def test_hintikka_matches_factorial_oracle(self, t):
        prior = SimplexMixturePrior.hintikka_default(t)
        for counts in _tallies(t):
            if t > 4 and sum(counts) > 4:
                continue
            assert mixture_predictive(prior, counts) == tuple(
                oracles.mixture_predictive(prior, counts, j) for j in range(t)
            )

    @pytest.mark.parametrize(
        "prior, symmetric",
        [
            (SimplexMixturePrior.hintikka_default(3), True),
            (from_binary_prior(BinaryPrior.laplace(F(1, 2), F(1, 2))), True),
            (from_binary_prior(BinaryPrior.laplace()), True),
            (from_binary_prior(BinaryPrior.jeffreys_split()), True),
            (from_binary_prior(BinaryPrior(F(1, 2), F(1, 2), 0)), True),
            (SPLIT_2, False),
            (from_binary_prior(BinaryPrior.haldane()), False),
            (from_binary_prior(BinaryPrior.laplace(1, 2)), False),
            (from_binary_prior(BinaryPrior.jeffreys_split(2)), False),
            (_reweighted_hintikka(4), False),
            (TWO_VERTICES_AND_FLAT, False),
            (WITH_EDGES, False),
            (SimplexMixturePrior(2, (DirichletComponent.vertex(0, F(1, 4)),) * 2
                                 + (DirichletComponent.full((1, 1), F(1, 2)),)), False),
            (HINTIKKA_3_REBUILT, False),
        ],
        ids=[
            "hintikka", "laplace-half", "laplace", "jeffreys-split", "two-point",
            "split-2", "haldane", "laplace-1-2", "jeffreys-split-2",
            "hintikka-reweighted", "missing-vertex", "with-edges", "repeated-vertex",
            "hintikka-rebuilt",
        ],
    )
    def test_which_priors_take_the_fast_path(self, monkeypatch, prior, symmetric):
        calls = []
        fast = simplex._symmetric_predictive

        def recorded(*args):
            calls.append(args)
            return fast(*args)

        monkeypatch.setattr(simplex, "_symmetric_predictive", recorded)
        for counts in itertools.product(range(3), repeat=prior.t):
            _outcome(lambda: mixture_predictive(prior, counts))
        assert bool(calls) == symmetric
        assert (prior._symmetric is not None) == symmetric

    def test_the_mark_leaves_fields_equality_hash_and_repr_alone(self):
        prior = SimplexMixturePrior.hintikka_default(3)
        fresh = SimplexMixturePrior.hintikka_default(3)
        assert "_symmetric" in vars(prior)
        mixture_predictive(prior, (1, 0, 0))
        assert prior.__match_args__ == ("t", "components")
        assert prior == fresh
        assert hash(prior) == hash(fresh)
        assert repr(prior) == repr(fresh)
        # a rebuild equals the marked prior and, through the per-face engine,
        # answers as it does over the which-priors grid
        assert HINTIKKA_3_REBUILT == prior and HINTIKKA_3_REBUILT._symmetric is None
        for counts in itertools.product(range(3), repeat=3):
            assert mixture_predictive(HINTIKKA_3_REBUILT, counts) == (
                mixture_predictive(prior, counts)
            ), counts

    @pytest.mark.parametrize("seen", [0, 1, 2])
    def test_a_hundred_thousand_types_from_the_observed_ones(self, seen):
        # the builder marked the prior type-symmetric, so no call visits its
        # components: each scans the counts and shares one Fraction across
        # the unseen types
        t = 10**5
        counts = [0] * t
        for j in range(seen):
            counts[40_000 * j + 3] = 7 - j
        counts = tuple(counts)
        prior = SimplexMixturePrior.hintikka_default(t)
        start = time.perf_counter()
        first = mixture_predictive(prior, counts)
        assert time.perf_counter() - start < 0.1
        for _ in range(2):
            start = time.perf_counter()
            again = mixture_predictive(prior, counts)
            assert time.perf_counter() - start < 0.05
            assert again == first
        assert sum(first) == 1

    def test_face_shares_need_no_marginal(self):
        # two observed types kill every vertex, so the face alone survives and
        # its predictive is the answer: neither engine computes the face's
        # marginal, whose products are over the term cap
        prior = from_binary_prior(BinaryPrior.laplace(F(1, 2), F(1, 2)))
        for engine in (prior, _per_face(prior)):
            assert mixture_predictive(engine, (10**4, 10**4)) == (F(1, 2), F(1, 2))
        n = 2 * 10**18
        assert mixture_predictive(_per_face(prior), (n, 0)) == (
            F(2 * n + 1, 2 * n + 2), F(1, 2 * n + 2)
        )

    def test_two_survivors_still_weigh_their_marginals(self):
        # vertex 0 and the face both hold every observation, so the face's
        # marginal weighs them, and its products are over the term cap
        prior = from_binary_prior(BinaryPrior(F(1, 2), 0, F(1, 2), F(1, 2), F(1, 2)))
        assert prior._symmetric is None
        with pytest.raises(ResourceLimit):
            mixture_predictive(prior, (10**4 + 1, 0))


# masses (theta=1, theta=0, continuous) of the binary priors the lone-survivor
# grid views over two types: Haldane, Jeffreys-split, Laplace, general mixes,
# and continuous parts of weight 0, whose face never survives
LONE_SURVIVOR_MASSES = {
    "haldane": (F(1, 2), F(0), F(1, 2)),
    "jeffreys-split": (F(1, 4), F(1, 4), F(1, 2)),
    "laplace": (F(0), F(0), F(1)),
    "general-thirds": (THIRD, THIRD, THIRD),
    "general-half": (F(1, 2), F(1, 4), F(1, 4)),
    "general-no-theta0": (F(1, 4), F(0), F(3, 4)),
    "general-no-theta1": (F(0), F(1, 2), F(1, 2)),
    "general-eighths": (F(1, 8), F(1, 8), F(3, 4)),
    "two-points": (F(1, 4), F(3, 4), F(0)),
    "one-point": (F(1), F(0), F(0)),
}
LONE_SURVIVOR_SHAPES = (THIRD, F(1, 2), F(1), F(5, 2))


def _up_to_eight(t, most=8):
    # every count vector of at most 8 (or ``most``) observations over t types
    return (c for c in itertools.product(range(most + 1), repeat=t) if sum(c) <= most)


def _assert_matches_all_marginals(prior, most=8):
    """mixture_predictive, through whichever engine ``prior`` takes and
    through the per-face one, against the Fraction oracle that weighs every
    component by its marginal, refusals included; with integer parameters
    also against the factorial oracle."""
    integer = all(p.denominator == 1 for c in prior.components for p in c.params)
    for counts in _up_to_eight(prior.t, most):
        want = _outcome(lambda: oracles.fraction_mixture_predictive(prior, counts))
        for engine in (prior, _per_face(prior)):
            assert _outcome(lambda: mixture_predictive(engine, counts)) == want, counts
        if integer and not isinstance(want[0], type):
            assert want == tuple(
                oracles.mixture_predictive(prior, counts, j) for j in range(prior.t)
            ), counts


class TestLoneSurvivor:
    @pytest.mark.parametrize("masses", LONE_SURVIVOR_MASSES.values(),
                             ids=LONE_SURVIVOR_MASSES.keys())
    def test_binary_views_match_the_oracles(self, masses):
        for alpha, beta in itertools.product(LONE_SURVIVOR_SHAPES, repeat=2):
            _assert_matches_all_marginals(
                from_binary_prior(BinaryPrior(*masses, alpha, beta))
            )

    @pytest.mark.parametrize(
        "prior",
        [
            from_binary_prior(BinaryPrior.jeffreys_split(2)),
            from_binary_prior(BinaryPrior.laplace(1, 2)),
            _reweighted_hintikka(3),
            _reweighted_hintikka(4),
            WITH_EDGES,
            TWO_VERTICES_AND_FLAT,
        ],
        ids=["jeffreys-split-2", "laplace-1-2", "hintikka-reweighted-3",
             "hintikka-reweighted-4", "with-edges", "two-vertices-and-flat"],
    )
    def test_named_priors_match_the_oracles(self, prior):
        _assert_matches_all_marginals(prior)

    def test_only_several_survivors_reach_a_marginal(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a marginal was computed")

        monkeypatch.setattr(simplex, "beta_sequence_marginal", refuse)
        prior = from_binary_prior(BinaryPrior.haldane())
        # a disconfirming instance kills the theta=1 point: the face alone
        assert mixture_predictive(prior, (2, 1)) == (F(3, 5), F(2, 5))
        # no disconfirming instance: the point and the face both survive
        with pytest.raises(AssertionError, match="a marginal was computed"):
            mixture_predictive(prior, (3, 0))

    @pytest.mark.parametrize("prior", [WITH_EDGES, _reweighted_hintikka(4)],
                             ids=["with-edges", "hintikka-reweighted-4"])
    def test_only_survivors_are_weighed(self, monkeypatch, prior):
        # with two or more survivors beside a dead component of nonzero
        # weight, only the survivors' marginals are computed; the oracle
        # weighs every component by marginals of its own, which the patch
        # does not reach
        cases = {}
        for counts in _up_to_eight(prior.t):
            n = sum(counts)
            held = [sum(counts[j] for j in c.support) == n for c in prior.components]
            if sum(held) >= 2 and not all(held):
                cases[counts] = oracles.fraction_mixture_predictive(prior, counts)
        assert len(cases) >= 20
        marginal = simplex._marginal

        def survivors_only(counts, total, support, params):
            held = sum(counts[j] for j in support) == total
            assert held, f"marginal of a dead face {support} at {counts}"
            return marginal(counts, total, support, params)

        monkeypatch.setattr(simplex, "_marginal", survivors_only)
        for counts, want in cases.items():
            assert mixture_predictive(prior, counts) == want, counts


def _integer_form_priors(t):
    """Priors over t types for the integer-form grid, components shuffled:
    type-symmetric ones at integer and fractional parameters, with a
    weightless face or weightless vertices; and non-symmetric ones built by
    hand from ints, strings and Fractions, with unequal parameters, edges,
    weightless faces and vertices, and one that can lose every component."""
    rng = random.Random(t)
    priors = [
        _symmetric_prior(t, w, a, rng)
        for a in (F(1, 2), F(3), F(5, 3))
        for w in (F(0), F(1, 2 * t), F(1, t))
    ]
    unequal = [KERNEL_PARAMS[(2 * j + 1) % 6] for j in range(t)]
    rest = tuple(range(1, t))
    for comps in (
        [DirichletComponent.full(unequal, F(1, 2)),
         DirichletComponent.vertex(0, 0),
         DirichletComponent((0, t - 1), ("1/2", 3), "1/4"),
         DirichletComponent(rest, ["5/2"] * len(rest) if t > 2 else (), 0),
         DirichletComponent.vertex(t - 1, F(1, 4))],
        [DirichletComponent.vertex(0, "1/2"),
         DirichletComponent((0, 1), (F(2, 3), 2), "1/3"),
         DirichletComponent.full([1] * t, 0),
         *(DirichletComponent.vertex(j, F(1, 6 * (t - 1))) for j in rest)],
    ):
        rng.shuffle(comps)
        priors.append(SimplexMixturePrior(t, comps))
    return priors


class TestIntegerForms:
    @pytest.mark.parametrize("t", range(2, 6))
    def test_equal_the_fraction_route(self, t):
        # both engines against the Fraction oracle at every count vector of
        # at most eight observations: s = 0, 1 and >= 2 observed types, and
        # the same ZeroEvidenceProbability with the same message; five
        # observations at t = 5
        for prior in _integer_form_priors(t):
            _assert_matches_all_marginals(prior, 8 if t < 5 else 5)

    def test_faces_are_worked_out_once(self):
        prior = SimplexMixturePrior(3, (
            DirichletComponent.vertex(2, F(1, 4)),
            DirichletComponent.vertex(0, 0),
            DirichletComponent((0, 1), ("1/2", F(2, 3)), F(3, 4)),
        ))
        assert mixture_predictive(prior, (1, 2, 0)) == (F(9, 25), F(16, 25), 0)
        faces = prior._faces
        mixture_predictive(prior, (0, 0, 1))
        assert prior._faces is faces
        assert prior._symmetric is None
        # (support, params, weight, p_j, q, P): the weightless vertex is left
        # out, and a vertex's share is 1 at any count
        assert faces == [
            ((2,), (), F(1, 4), [1], 0, 1),
            ((0, 1), (F(1, 2), F(2, 3)), F(3, 4), [3, 4], 6, 7),
        ]

    def test_posterior_weights_leave_the_faces_unbuilt(self):
        # mixture_posterior reads the components' own fields, so a fresh
        # prior's integer faces are never worked out
        prior = _reweighted_hintikka(4)
        weights = mixture_posterior(prior, (3, 0, 0, 0))
        assert len(weights) == len(prior.components) and sum(weights) == 1
        assert "_faces" not in vars(prior)

    def test_a_component_order_changes_nothing(self):
        comps = list(_integer_form_priors(4)[-2].components)
        want = [mixture_predictive(SimplexMixturePrior(4, comps), c)
                for c in _up_to_eight(4)]
        comps.reverse()
        got = [mixture_predictive(SimplexMixturePrior(4, comps), c)
               for c in _up_to_eight(4)]
        assert got == want


class TestCrossModuleAgreement:
    @pytest.mark.parametrize("alpha", [F(1), F(2), F(5, 2)])
    def test_binary_prior_viewed_as_mixture_agrees(self, alpha):
        for maker in (
            BinaryPrior.laplace,
            BinaryPrior.haldane,
            BinaryPrior.jeffreys_split,
        ):
            binary = maker(alpha)
            mixture = from_binary_prior(binary)
            for n in range(0, 25):
                for m in range(0, 4):
                    try:
                        expected = predict_next(binary, Evidence(n, m))
                    except ZeroEvidenceProbability:
                        with pytest.raises(ZeroEvidenceProbability):
                            mixture_predictive(mixture, (n, m))
                        continue
                    assert mixture_predictive(mixture, (n, m))[0] == expected


    @pytest.mark.parametrize(
        "binary",
        [
            BinaryPrior.laplace(2, 3),
            BinaryPrior.haldane(),
            BinaryPrior.jeffreys_split(2),
            BinaryPrior(F(1, 3), F(1, 6), F(1, 2), 3, 2),
        ],
        ids=["laplace", "haldane", "jeffreys-split", "general"],
    )
    @pytest.mark.parametrize("n", [10**3, 3 * 10**4, 2 * 10**18 - 1])
    @pytest.mark.parametrize("m", [0, 7])
    def test_large_samples_agree_exactly_and_fast(self, binary, n, m):
        # integer parameters keep every Beta factor on a telescoped route,
        # so the mixture path costs what the binary one does
        mixture = from_binary_prior(binary)
        start = time.perf_counter()
        value = mixture_predictive(mixture, (n, m))[0]
        assert time.perf_counter() - start < 0.05
        start = time.perf_counter()
        assert value == predict_next(binary, Evidence(n, m))
        assert time.perf_counter() - start < 0.05


def test_observed_type_count():
    assert observed_type_count((0, 0, 0)) == 0
    assert observed_type_count((2, 0, 1)) == 2
    assert observed_type_count([1, 1, 1]) == 3


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: DirichletComponent((), (), 1), ValueError,
         "support must be nonempty"),
        (lambda: DirichletComponent((-1,), (), 1), ValueError,
         "support indices must be nonnegative integers"),
        (lambda: DirichletComponent((0, True), (1, 1), 1), ValueError,
         "support indices must be nonnegative integers"),
        (lambda: DirichletComponent.vertex(0, F(-1, 2)), ValueError,
         "component weight must be nonnegative"),
        (lambda: DirichletComponent.full((1, 0), 1), ValueError,
         "Dirichlet parameters must be positive"),
        (lambda: SimplexMixturePrior(1, (DirichletComponent.vertex(0, 1),)),
         ValueError, "need at least two outcome types"),
        (lambda: SimplexMixturePrior(True, (DirichletComponent.vertex(0, 1),)),
         ValueError, "need at least two outcome types"),
        (lambda: SimplexMixturePrior(2, ()), ValueError,
         "need at least one component"),
        (lambda: dirichlet_predictive((1, 1), (1, F(-1, 2))), ValueError,
         "Dirichlet parameters must be positive"),
        (lambda: carnap_predictive((1, 1), 0), ValueError,
         "lambda must be positive"),
        (lambda: sequence_marginal((1, 1), DirichletComponent.vertex(2, 1)),
         DimensionMismatch, "component support exceeds t=2"),
        (lambda: dirichlet_predictive((1, 1), (0, 1)), ValueError,
         "Dirichlet parameters must be positive"),
        (lambda: dirichlet_predictive((1, 1), (1, "-2/3")), ValueError,
         "Dirichlet parameters must be positive"),
        (lambda: dirichlet_predictive((1, 1), (0.5, 1)), TypeError,
         "floats are not exact; pass a string, an int, or a Fraction"),
        (lambda: dirichlet_predictive((1, 1), (True, 1)), TypeError,
         "expected a rational number, got a bool"),
        (lambda: dirichlet_predictive((1, 1), ("junk", 1)), ValueError,
         "not a rational literal: 'junk'"),
        (lambda: dirichlet_predictive((1, 1), (None, 1)), TypeError,
         "expected a rational number, got NoneType"),
        (lambda: dirichlet_predictive((1, 1), (1, 1, 1)), DimensionMismatch,
         "3 parameters for 2 outcome types"),
        (lambda: dirichlet_predictive((1, 1), ()), DimensionMismatch,
         "0 parameters for 2 outcome types"),
        # every parameter is coerced before the count is checked, and the
        # count before the signs
        (lambda: dirichlet_predictive((1, 1), (1, 1, 0.5)), TypeError,
         "floats are not exact; pass a string, an int, or a Fraction"),
        (lambda: dirichlet_predictive((1, 1), (0, 1, 1)), DimensionMismatch,
         "3 parameters for 2 outcome types"),
        (lambda: dirichlet_predictive((1, -1), (1, 1)), ValueError,
         "counts must be nonnegative integers"),
        (lambda: dirichlet_predictive((True, 0), (1, 1)), ValueError,
         "counts must be nonnegative integers"),
        (lambda: dirichlet_predictive((1.0, 0), (1, 1)), ValueError,
         "counts must be nonnegative integers"),
        (lambda: dirichlet_predictive((), ()), ValueError,
         "need at least one outcome type"),
        pytest.param(lambda: carnap_predictive((1, 1), "-1/2"), ValueError,
                     "lambda must be positive", id="negative-lambda"),
        (lambda: carnap_predictive((1, 1), 0.5), TypeError,
         "floats are not exact; pass a string, an int, or a Fraction"),
        (lambda: carnap_predictive((1, 1), False), TypeError,
         "expected a rational number, got a bool"),
        (lambda: carnap_predictive((1, 1), "junk"), ValueError,
         "not a rational literal: 'junk'"),
        (lambda: carnap_predictive((1, 1.5), 1), ValueError,
         "counts must be nonnegative integers"),
        (lambda: carnap_predictive((), 1), ValueError,
         "need at least one outcome type"),
        (lambda: mixture_predictive(SimplexMixturePrior.hintikka_default(2),
                                    (1, 0, 0)), DimensionMismatch,
         "counts over 3 types against a prior with t=2"),
        (lambda: mixture_predictive(SimplexMixturePrior.hintikka_default(2),
                                    (1, -1)), ValueError,
         "counts must be nonnegative integers"),
    ],
)
def test_refusal_messages(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
