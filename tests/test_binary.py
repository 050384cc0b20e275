from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from succession import (
    BinaryPrior,
    DirichletComponent,
    Evidence,
    UGFalsified,
    ZeroEvidenceProbability,
    bayes_factor_ug,
    exception_probability,
    from_binary_prior,
    marginal_likelihood,
    posterior_ug,
    predict_block,
    predict_next,
    prior_odds_adjustment,
)
from succession.cli import main
import oracles

HALF = F(1, 2)
QUARTER = F(1, 4)

LAPLACE = BinaryPrior.laplace()
HALDANE = BinaryPrior.haldane()
SPLIT = BinaryPrior.jeffreys_split()

# integer-parameter priors used for oracle cross-checks
ORACLE_GRID = [
    BinaryPrior(m1, m0, 1 - m1 - m0, alpha, beta)
    for (m1, m0) in [
        (HALF, HALF),
        (HALF, F(0)),
        (F(0), HALF),
        (HALF, QUARTER),
        (QUARTER, HALF),
        (QUARTER, QUARTER),
    ]
    for alpha in (F(1), F(2), F(3))
    for beta in (F(1), F(2), F(3))
]


def small_priors():
    """Hypothesis strategy: arbitrary valid priors with small rationals."""
    mass_pair = st.tuples(
        st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
    ).filter(lambda p: p[0] + p[1] <= 4)
    param = st.fractions(
        min_value=F(1, 4), max_value=F(4), max_denominator=4
    )
    return st.builds(
        lambda pair, a, b: BinaryPrior(
            F(pair[0], 4), F(pair[1], 4), F(4 - pair[0] - pair[1], 4), a, b
        ),
        mass_pair,
        param,
        param,
    )


class TestTypes:
    def test_evidence_validation(self):
        with pytest.raises(ValueError):
            Evidence(-1)
        with pytest.raises(ValueError):
            Evidence(0, -2)
        assert Evidence(3, 4).total == 7

    def test_prior_masses_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BinaryPrior(HALF, HALF, HALF)
        with pytest.raises(ValueError):
            BinaryPrior(F(-1, 2), HALF, 1)

    def test_prior_shape_parameters_must_be_positive(self):
        with pytest.raises(ValueError):
            BinaryPrior(0, 0, 1, 0, 1)
        with pytest.raises(ValueError):
            BinaryPrior(0, 0, 1, 1, F(-2))

    def test_prior_coerces_strings_exactly(self):
        prior = BinaryPrior("1/4", "1/4", "1/2", "5/2")
        assert prior.mass_continuous == HALF
        assert prior.alpha == F(5, 2)

    def test_named_constructors(self):
        assert HALDANE == BinaryPrior(HALF, 0, HALF, 1, 1)
        assert SPLIT == BinaryPrior(QUARTER, QUARTER, HALF, 1, 1)
        assert LAPLACE == BinaryPrior(0, 0, 1, 1, 1)
        assert BinaryPrior.from_prior_odds(9) == BinaryPrior(
            F(9, 10), 0, F(1, 10), 1, 1
        )
        # the named builders skip the constructor's checks; what they build
        # is the prior the checked constructor makes of the same masses,
        # whether a parameter comes as an int, a string or a Fraction
        def same(built, checked):
            assert built == checked and hash(built) == hash(checked)
            assert repr(built) == repr(checked)
            fields = [getattr(built, name) for name in BinaryPrior.__match_args__]
            assert all(type(f) is F for f in fields)
            assert fields == [getattr(checked, name) for name in BinaryPrior.__match_args__]

        for a, b, d in [(2, 3, 9), ("5/2", "1/3", "2/7"), (F(1, 2), F(7), F(22, 7)),
                        ("0.25", 1, "4"), (F(3), "3/2", F(1, 9))]:
            alpha, beta, odds = F(a), F(b), F(d)
            same(BinaryPrior.laplace(a, b), BinaryPrior(0, 0, 1, alpha, beta))
            same(BinaryPrior.haldane(a), BinaryPrior(HALF, 0, HALF, alpha, 1))
            same(BinaryPrior.jeffreys_split(a),
                 BinaryPrior(QUARTER, QUARTER, HALF, alpha, 1))
            same(BinaryPrior.from_prior_odds(d, a),
                 BinaryPrior(odds / (1 + odds), 0, 1 / (1 + odds), alpha, 1))
            general = BinaryPrior(F(1, 6), F(1, 3), HALF, alpha, beta)
            scale = odds / ((1 + odds) * F(1, 2))
            same(general.with_prior_odds(d),
                 BinaryPrior(F(1, 6) * scale, F(1, 3) * scale, 1 / (1 + odds), alpha, beta))
        for call in (lambda: BinaryPrior.haldane(0.5), lambda: BinaryPrior.laplace(True),
                     lambda: BinaryPrior.laplace(1, 0.5)):
            with pytest.raises(TypeError):
                call()

    def test_query_horizon_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            predict_block(LAPLACE, Evidence(1), 0)
        with pytest.raises(ValueError, match="at least 1"):
            predict_block(LAPLACE, Evidence(1), -1)
        with pytest.raises(ValueError, match="must be an integer"):
            predict_block(LAPLACE, Evidence(1), True)


class TestMarginalLikelihood:
    def test_frozen_values(self):
        assert marginal_likelihood(HALDANE, Evidence(2)) == F(2, 3)
        assert marginal_likelihood(LAPLACE, Evidence(1, 1)) == F(1, 6)
        assert marginal_likelihood(SPLIT, Evidence(0, 0)) == 1

    def test_zero_when_no_component_survives(self):
        dogmatic = BinaryPrior(1, 0, 0)
        assert marginal_likelihood(dogmatic, Evidence(0, 1)) == 0
        two_points = BinaryPrior(HALF, HALF, 0)
        assert marginal_likelihood(two_points, Evidence(2, 3)) == 0

    def test_matches_factorial_oracle_on_integer_grid(self):
        for prior in ORACLE_GRID:
            for a in range(7):
                for b in range(7):
                    assert marginal_likelihood(
                        prior, Evidence(a, b)
                    ) == oracles.binary_marginal(prior, a, b)


class TestPosteriorUG:
    def test_frozen_value(self):
        assert posterior_ug(SPLIT, Evidence(1)) == HALF

    def test_haldane_and_split_closed_forms(self):
        for n in range(0, 80):
            assert posterior_ug(HALDANE, Evidence(n)) == F(n + 1, n + 2)
            if n >= 1:
                assert posterior_ug(SPLIT, Evidence(n)) == F(n + 1, n + 3)

    def test_counterexample_kills_the_generalization(self):
        assert posterior_ug(HALDANE, Evidence(5, 1)) == 0
        assert posterior_ug(SPLIT, Evidence(0, 4)) == 0

    def test_impossible_evidence_raises(self):
        dogmatic = BinaryPrior(1, 0, 0)
        with pytest.raises(ZeroEvidenceProbability):
            posterior_ug(dogmatic, Evidence(0, 1))


class TestBayesFactorUG:
    def test_frozen_value(self):
        assert bayes_factor_ug(Evidence(6), 3) == 3

    def test_unit_alpha_gives_n_plus_one(self):
        for n in range(0, 200):
            assert bayes_factor_ug(Evidence(n)) == n + 1

    def test_general_form(self):
        for n in range(0, 50):
            for alpha in (F(2), F(3), F(5, 2)):
                assert bayes_factor_ug(Evidence(n), alpha) == n / alpha + 1

    def test_disconfirmation_raises(self):
        with pytest.raises(UGFalsified):
            bayes_factor_ug(Evidence(10, 1))

    def test_posterior_odds_are_bayes_factor_times_prior_odds(self):
        for n in range(1, 60):
            for d in (F(1, 3), F(1), F(4)):
                prior = BinaryPrior.from_prior_odds(d)
                post = posterior_ug(prior, Evidence(n))
                assert post / (1 - post) == bayes_factor_ug(Evidence(n)) * d


class TestPredictNext:
    def test_frozen_values(self):
        assert predict_next(HALDANE, Evidence(10)) == F(143, 144)
        assert predict_next(SPLIT, Evidence(0)) == HALF

    def test_laplace_rule(self):
        for n in range(0, 120):
            assert predict_next(LAPLACE, Evidence(n)) == F(n + 1, n + 2)

    def test_haldane_rule_two_printed_forms(self):
        for n in range(0, 120):
            value = predict_next(HALDANE, Evidence(n))
            assert value == 1 - F(1, (n + 2) ** 2)
            assert value == F(n + 1, n + 2) * F(n + 3, n + 2)

    def test_split_rule(self):
        for n in range(1, 120):
            assert predict_next(SPLIT, Evidence(n)) == F(
                (n + 1) * (n + 4), (n + 2) * (n + 3)
            )

    def test_falsified_generalization_degrades_to_laplace(self):
        for n in range(0, 20):
            for m in range(1, 6):
                assert predict_next(HALDANE, Evidence(n, m)) == predict_next(
                    LAPLACE, Evidence(n, m)
                )

    def test_strictly_increasing_and_above_laplace(self):
        previous = None
        for n in range(0, 200):
            value = predict_next(HALDANE, Evidence(n))
            assert value > predict_next(LAPLACE, Evidence(n))
            if previous is not None:
                assert value > previous
            previous = value

    def test_split_sits_between_laplace_and_haldane(self):
        for n in range(1, 100):
            assert (
                predict_next(LAPLACE, Evidence(n))
                < predict_next(SPLIT, Evidence(n))
                < predict_next(HALDANE, Evidence(n))
            )

    def test_matches_oracle_ratio_of_marginals(self):
        for prior in ORACLE_GRID:
            for a in range(6):
                for b in range(6):
                    if oracles.binary_marginal(prior, a, b) == 0:
                        with pytest.raises(ZeroEvidenceProbability):
                            predict_next(prior, Evidence(a, b))
                        continue
                    assert predict_next(
                        prior, Evidence(a, b)
                    ) == oracles.binary_predictive(prior, a, b)

    @given(
        prior=small_priors(),
        n=st.integers(0, 30),
        m=st.integers(0, 30),
        h=st.integers(1, 6),
    )
    def test_is_a_probability(self, prior, n, m, h):
        # beyond the integer grid: parameters with denominators up to 4 and
        # zero masses, against ratios of a marginal built with Fraction
        # arithmetic alone; the evidence is impossible exactly where that
        # marginal is 0
        def marginal(a, b):
            return (prior.mass_theta1 * (b == 0) + prior.mass_theta0 * (a == 0)
                    + prior.mass_continuous
                    * oracles.polya_marginal((prior.alpha, prior.beta), (a, b)))

        ev = Evidence(n, m)
        calls = [lambda: posterior_ug(prior, ev), lambda: predict_next(prior, ev),
                 lambda: predict_block(prior, ev, h)]
        here = marginal(n, m)
        if here == 0:
            for call in calls:
                with pytest.raises(ZeroEvidenceProbability) as raised:
                    call()
                assert str(raised.value) == (
                    f"the prior assigns probability 0 to counts {(n, m)}"
                )
            return
        value = predict_next(prior, ev)
        assert 0 <= value <= 1
        assert posterior_ug(prior, ev) == prior.mass_theta1 * (m == 0) / here
        assert value == marginal(n + 1, m) / here
        assert predict_block(prior, ev, h) == marginal(n + h, m) / here


class TestPredictBlock:
    def test_frozen_values(self):
        assert predict_block(LAPLACE, Evidence(100), 1000) == F(101, 1101)
        assert predict_block(HALDANE, Evidence(10), 11) == F(23, 24)

    def test_laplace_block_form(self):
        for n in range(0, 40):
            for z in range(1, 30):
                assert predict_block(LAPLACE, Evidence(n), z) == F(n + 1, n + z + 1)

    def test_haldane_block_form(self):
        for n in range(0, 40):
            for z in range(1, 30):
                assert predict_block(HALDANE, Evidence(n), z) == F(
                    n + 1, n + z + 1
                ) * F(n + z + 2, n + 2)

    def test_general_alpha_block_form(self):
        for alpha in (1, 2, 3):
            for n in range(0, 30):
                for z in range(1, 20):
                    assert predict_block(
                        BinaryPrior.haldane(alpha), Evidence(n), z
                    ) == F(n + alpha, n + alpha + z) * F(
                        n + 2 * alpha + z, n + 2 * alpha
                    )

    def test_block_against_half_remaining_is_one_half(self):
        for n in range(0, 50):
            assert predict_block(LAPLACE, Evidence(n), n + 1) == HALF

    def test_matches_oracle_ratio(self):
        for prior in ORACLE_GRID[:18]:
            for a in range(4):
                for b in range(3):
                    if oracles.binary_marginal(prior, a, b) == 0:
                        continue
                    for z in range(1, 5):
                        assert predict_block(
                            prior, Evidence(a, b), z
                        ) == oracles.binary_block(prior, a, b, z)

    @given(
        prior=small_priors(),
        n=st.integers(0, 12),
        m=st.integers(0, 6),
        z=st.integers(1, 8),
    )
    @settings(max_examples=60)
    def test_chain_rule(self, prior, n, m, z):
        # a block prediction is the product of one-step predictions over
        # the lengthening record
        try:
            block = predict_block(prior, Evidence(n, m), z)
        except ZeroEvidenceProbability:
            return
        product = F(1)
        for i in range(z):
            step = predict_next(prior, Evidence(n + i, m))
            product *= step
            if step == 0:
                # the lengthened record now has probability 0 and further
                # steps are conditioning on the impossible
                break
        assert block == product

    def test_decreasing_in_horizon(self):
        prior = BinaryPrior.jeffreys_split()
        values = [predict_block(prior, Evidence(5), z) for z in range(1, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestExceptionProbability:
    def test_closed_form_endpoints(self):
        for n in range(0, 60):
            assert exception_probability(0, Evidence(n)) == F(1, n + 2)
            assert exception_probability(1, Evidence(n)) == 0
            assert exception_probability(HALF, Evidence(n)) == F(1, (n + 2) ** 2)

    def test_frozen_value(self):
        assert exception_probability(HALF, Evidence(5)) == F(1, 49)

    def test_rate_ratio_against_skeptic_is_n_plus_two(self):
        for n in range(0, 60):
            skeptic = exception_probability(0, Evidence(n))
            agnostic = exception_probability(HALF, Evidence(n))
            assert skeptic / agnostic == n + 2

    @pytest.mark.parametrize("p", [F(0), QUARTER, HALF, F(3, 4), F(1)])
    def test_consistency_with_engine(self, p):
        # 1 - predict_next under the matching prior, computed independently
        for n in range(0, 120):
            prior = BinaryPrior(p, 0, 1 - p, 1, 1)
            assert exception_probability(p, Evidence(n)) == 1 - predict_next(
                prior, Evidence(n)
            )

    def test_rejects_broken_record_and_bad_mass(self):
        with pytest.raises(ValueError):
            exception_probability(HALF, Evidence(3, 1))
        with pytest.raises(ValueError):
            exception_probability(F(3, 2), Evidence(3))


class TestPriorOddsAdjustment:
    def test_frozen_values(self):
        assert prior_odds_adjustment(9, 0) == F(19, 10)
        assert prior_odds_adjustment(1, 8) == F(11, 10)

    def test_even_odds_form(self):
        for n in range(0, 80):
            assert prior_odds_adjustment(1, n) == F(n + 3, n + 2)

    @pytest.mark.parametrize("d", [F(1, 3), F(1, 2), F(1), F(2), F(5)])
    def test_factor_times_laplace_equals_engine(self, d):
        for n in range(0, 120):
            lifted = predict_next(BinaryPrior.from_prior_odds(d), Evidence(n))
            assert lifted == F(n + 1, n + 2) * prior_odds_adjustment(d, n)

    def test_rejects_nonpositive_odds(self):
        with pytest.raises(ValueError):
            prior_odds_adjustment(0, 3)


ODDS_GRID = [F(1, 7), F(1, 2), F(1), F(3), F(22, 7), F(10**6)]
ALPHA_GRID = [F(1), F(1, 3), F(5, 2), F(4)]


class TestWithPriorOdds:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("d", ODDS_GRID)
    def test_haldane_gives_from_prior_odds(self, d, alpha):
        assert BinaryPrior.haldane(alpha).with_prior_odds(d) == (
            BinaryPrior.from_prior_odds(d, alpha)
        )

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("d", ODDS_GRID)
    def test_jeffreys_split_shares_the_odds_over_both_points(self, d, alpha):
        share = d / (2 * (1 + d))
        assert BinaryPrior.jeffreys_split(alpha).with_prior_odds(d) == (
            BinaryPrior(share, share, 1 / (1 + d), alpha, 1)
        )

    @pytest.mark.parametrize("d", ODDS_GRID)
    def test_general_prior_keeps_its_point_mass_ratio(self, d):
        prior = BinaryPrior(F(1, 6), F(1, 3), HALF, F(2), F(7, 3))
        scaled = prior.with_prior_odds(d)
        assert scaled.mass_theta0 == 2 * scaled.mass_theta1
        assert scaled.mass_theta1 + scaled.mass_theta0 == d * scaled.mass_continuous
        assert (scaled.alpha, scaled.beta) == (F(2), F(7, 3))

    def test_one_point_mass_takes_all_the_odds(self):
        assert BinaryPrior(0, QUARTER, F(3, 4), 2).with_prior_odds(3) == (
            BinaryPrior(0, F(3, 4), QUARTER, 2)
        )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LAPLACE.with_prior_odds(2),
         "the prior has no point mass for prior odds to weigh"),
        (lambda: BinaryPrior.laplace(F(1, 2), 3).with_prior_odds(F(1, 2)),
         "the prior has no point mass for prior odds to weigh"),
        (lambda: HALDANE.with_prior_odds(0), "prior odds must be positive"),
        (lambda: SPLIT.with_prior_odds(F(-1, 2)), "prior odds must be positive"),
        # the odds are checked before the point mass
        (lambda: LAPLACE.with_prior_odds(-1), "prior odds must be positive"),
        (lambda: BinaryPrior.from_prior_odds(0), "prior odds must be positive"),
        (lambda: BinaryPrior.from_prior_odds(F(-3, 2), 2),
         "prior odds must be positive"),
        # the odds are checked before alpha
        (lambda: BinaryPrior.from_prior_odds(0, 0), "prior odds must be positive"),
        (lambda: BinaryPrior.from_prior_odds(1, 0), "alpha and beta must be positive"),
        # the named builders check their parameters as the constructor does
        (lambda: BinaryPrior.laplace(0), "alpha and beta must be positive"),
        (lambda: BinaryPrior.laplace(1, "-1/2"), "alpha and beta must be positive"),
        (lambda: BinaryPrior.haldane(0), "alpha and beta must be positive"),
        (lambda: BinaryPrior.jeffreys_split(F(-1)), "alpha and beta must be positive"),
        (lambda: bayes_factor_ug(Evidence(3), 0), "alpha must be positive"),
        (lambda: bayes_factor_ug(Evidence(3), F(-1, 2)), "alpha must be positive"),
        (lambda: prior_odds_adjustment(1, -1), "n must be a nonnegative integer"),
        (lambda: prior_odds_adjustment(1, True), "n must be a nonnegative integer"),
        (lambda: prior_odds_adjustment(1, F(2)), "n must be a nonnegative integer"),
        (lambda: Evidence(True), "confirm must be a nonnegative integer"),
        (lambda: Evidence(2, F(1)), "disconfirm must be a nonnegative integer"),
    ],
)
def test_refusal_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def test_binary_answers_build_no_component(monkeypatch, capsys):
    # the binary answers hand plain (support, params, weight) faces to the
    # simplex engine: no DirichletComponent is built, checked or from parts
    priors = [LAPLACE, HALDANE, SPLIT, BinaryPrior(QUARTER, F(1, 8), F(5, 8), HALF, 3)]
    records = [Evidence(n, m) for n, m in ((0, 0), (5, 0), (0, 2), (4, 1))]

    def answers():
        for prior in priors:
            for ev in records:
                yield marginal_likelihood(prior, ev)
                yield predict_next(prior, ev)
                yield predict_block(prior, ev, 3)
                yield posterior_ug(prior, ev)
        for argv in (["--n", "10"], ["--rule", "jeffreys-split", "--n", "4", "--m", "1"]):
            assert main(["posterior", *argv, "--format", "json"]) == 0
            yield capsys.readouterr().out

    want = list(answers())

    def refuse(*args, **kwargs):
        raise AssertionError("a DirichletComponent was built")

    monkeypatch.setattr(DirichletComponent, "__init__", refuse)
    monkeypatch.setattr(DirichletComponent, "_of", refuse)
    with pytest.raises(AssertionError, match="a DirichletComponent was built"):
        from_binary_prior(HALDANE)
    assert list(answers()) == want


class TestGoldbachScale:
    def test_astronomical_record_is_exact_and_fast(self):
        n = 1999999999999999999
        assert predict_next(HALDANE, Evidence(n)) == 1 - F(1, (n + 2) ** 2)
        assert predict_block(LAPLACE, Evidence(n), n + 1) == HALF
        assert bayes_factor_ug(Evidence(n)) == n + 1
