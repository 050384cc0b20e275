import itertools
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from succession import (
    BinaryPrior,
    DimensionMismatch,
    DirichletComponent,
    Evidence,
    MultinomialCounts,
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
import oracles

THIRD = F(1, 3)


def direct_marginal(counts, component):
    """The Dirichlet sequence marginal as one rising-factorial product,
    prod_j rising(k_j, n_j) / rising(k, n) over the support; a vertex
    gives 1 and any observation outside the support gives 0."""
    if any(c > 0 and j not in component.support for j, c in enumerate(counts)):
        return F(0)
    if component.is_vertex:
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
        with pytest.raises(ValueError):
            MultinomialCounts(())
        with pytest.raises(ValueError):
            MultinomialCounts((1, -1))
        counts = MultinomialCounts((2, 0, 3))
        assert counts.t == 3 and counts.n == 5

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

    @pytest.mark.parametrize("t", [0, 1, -3, True, 2.0])
    def test_hintikka_default_needs_two_types(self, t):
        with pytest.raises(ValueError, match="need at least two outcome types"):
            SimplexMixturePrior.hintikka_default(t)


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
        assert carnap_predictive(counts, lam) == oracles.dirichlet_predictive(
            counts, (lam / len(counts),) * len(counts)
        )

    def test_posterior_concentration_bound(self):
        # the predictive sits within k/(n+k) of the empirical frequency
        params = (F(2), F(1), F(3))
        k = sum(params)
        for counts in ((4, 0, 0), (2, 1, 1), (0, 5, 5)):
            n = sum(counts)
            pred = dirichlet_predictive(counts, params)
            for j in range(3):
                assert abs(pred[j] - F(counts[j], n)) <= k / (n + k)


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
        assert sequence_marginal((3, 1), comp) == sequence_marginal(
            MultinomialCounts((3, 1)), comp
        )


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
            if comp.is_vertex:
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
        # t + 1 components: each adds over its own support, never over all t
        prior = SimplexMixturePrior.hintikka_default(4000)
        start = time.perf_counter()
        assert mixture_predictive(prior, (0,) * 4000) == (F(1, 4000),) * 4000
        assert time.perf_counter() - start < 1.5

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

    @pytest.mark.parametrize(
        "counts", [(0, 0, 0), (1, 0, 0), (2, 1, 0), (1, 1, 1), (0, 0, 3)]
    )
    @pytest.mark.parametrize(
        "prior", [TWO_VERTICES_AND_FLAT, WITH_EDGES], ids=["flat", "edges"]
    )
    def test_matches_oracle_on_grid(self, prior, counts):
        _assert_matches_oracle(prior, counts)


def _assert_matches_oracle(prior, counts):
    if oracles.mixture_marginal(prior, counts) == 0:
        return
    assert mixture_predictive(prior, counts) == tuple(
        oracles.mixture_predictive(prior, counts, j) for j in range(prior.t)
    )


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
    assert observed_type_count(MultinomialCounts((1, 1, 1))) == 3
