"""Acceptance gate: twelve end-to-end criteria, every one checked at exact
rational equality (zero tolerance) plus the stated runtime budgets.

Each test prints one ``ACCEPTANCE NN PASS/FAIL`` line; run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they happen.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction as F
from functools import wraps

from succession import (
    BinaryPrior,
    DirichletComponent,
    Evidence,
    SimplexMixturePrior,
    UrnComposition,
    ZeroEvidenceProbability,
    admits_exchangeable_extension,
    canonical_mixture,
    df_bound,
    dirichlet_predictive,
    exception_probability,
    has_positive_cylinders,
    is_exchangeable,
    law_from_predictive,
    marginal_likelihood,
    mixture_predictive,
    observed_type_count,
    predict_block,
    predict_next,
    prior_odds_adjustment,
    satisfies_sufficientness,
    sufficientness_witness,
    urn_law,
    variation_distance,
)
import oracles


def criterion(num, text):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL: {text}")
                raise
            print(f"ACCEPTANCE {num:02d} PASS: {text}")

        return wrapper

    return deco


def best_of(repeats, fn):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


@criterion(1, "flat-prior block of 1000 after 100 confirmations, under 1 ms")
def test_criterion_01_block_prediction():
    prior = BinaryPrior.laplace()
    value = predict_block(prior, Evidence(100), 1000)
    assert value == F(101, 1101)
    assert (1 - value) / value == F(1000, 101)
    assert best_of(5, lambda: predict_block(prior, Evidence(100), 1000)) < 0.001


@criterion(2, "point-mass block forms: 23/24 at n=10,z=11; flat block 1/2 at z=n+1")
def test_criterion_02_block_closed_forms():
    assert predict_block(BinaryPrior.haldane(), Evidence(10), 11) == F(23, 24)
    laplace = BinaryPrior.laplace()
    for n in range(1, 101):
        assert predict_block(laplace, Evidence(n), n + 1) == F(1, 2)


@criterion(3, "half point-mass rule equals 1 - 1/(n+2)^2 for n to 10^4 and beyond")
def test_criterion_03_point_mass_sweep():
    prior = BinaryPrior(F(1, 2), F(0), F(1, 2), 1, 1)
    start = time.perf_counter()
    for n in range(10_001):
        assert predict_next(prior, Evidence(n)) == 1 - F(1, (n + 2) ** 2)
    elapsed = time.perf_counter() - start
    for n in (10**6, 10**9, 10**12, 2 * 10**18 - 1):
        assert predict_next(prior, Evidence(n)) == 1 - F(1, (n + 2) ** 2)
    assert elapsed < 5


@criterion(4, "alpha-generalized point-mass rule matches its product form")
def test_criterion_04_alpha_sweep():
    for alpha in (1, 2, 3):
        prior = BinaryPrior.haldane(alpha)
        for n in range(501):
            assert predict_next(prior, Evidence(n)) == F(n + alpha, n + alpha + 1) * F(
                n + 2 * alpha + 1, n + 2 * alpha
            )
    for n in range(501):
        assert predict_next(BinaryPrior.haldane(2), Evidence(n)) == F(
            n + 2, n + 3
        ) * F(n + 5, n + 4)
        assert predict_next(BinaryPrior.haldane(3), Evidence(n)) == F(
            n + 3, n + 4
        ) * F(n + 7, n + 6)


@criterion(5, "split point-mass rule matches (n+1)(n+4)/((n+2)(n+3)) and alpha forms")
def test_criterion_05_split_sweep():
    split = BinaryPrior.jeffreys_split()
    assert predict_next(split, Evidence(0)) == F(1, 2)
    for n in range(1, 501):
        value = predict_next(split, Evidence(n))
        assert value == F((n + 1) * (n + 4), (n + 2) * (n + 3))
        assert value == 1 - F(2, (n + 2) * (n + 3))
    # the product form kicks in once there is evidence; at n=0 the value
    # is the prior predictive itself
    for alpha in (2, 3):
        prior = BinaryPrior.jeffreys_split(alpha)
        for n in range(1, 501):
            assert predict_next(prior, Evidence(n)) == F(
                n + alpha, n + alpha + 1
            ) * F(n + 3 * alpha + 1, n + 3 * alpha)
    for n in range(1, 501):
        assert predict_next(BinaryPrior.jeffreys_split(2), Evidence(n)) == F(
            n + 2, n + 3
        ) * F(n + 7, n + 6)
        assert predict_next(BinaryPrior.jeffreys_split(3), Evidence(n)) == F(
            n + 3, n + 4
        ) * F(n + 10, n + 9)


@criterion(6, "exception probability complements the matching predictive, 0 if certain")
def test_criterion_06_exception_probability():
    for p in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
        for n in range(201):
            ev = Evidence(n)
            value = exception_probability(p, ev)
            prior = BinaryPrior(p, F(0), 1 - p, 1, 1)
            assert value == 1 - predict_next(prior, ev)
            assert value == (1 - p) / ((n + 2) * (n * p + 1))
        assert exception_probability(F(1), Evidence(200)) == 0


@criterion(7, "prior-odds factor (d(n+2)+1)/(d(n+1)+1) rescales the flat rule")
def test_criterion_07_prior_odds_factor():
    laplace = BinaryPrior.laplace()
    for d in (F(1, 3), F(1, 2), F(1), F(2), F(5)):
        prior = BinaryPrior.from_prior_odds(d)
        for n in range(201):
            ev = Evidence(n)
            factor = prior_odds_adjustment(d, n)
            assert factor == F(d * (n + 2) + 1, d * (n + 1) + 1)
            assert predict_next(prior, ev) == predict_next(laplace, ev) * factor


@criterion(8, "engine marginals and predictives equal the factorial integrals")
def test_criterion_08_oracle_equivalence():
    mass_grid = [
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(0)),
        (F(0), F(1, 2)),
        (F(1, 2), F(1, 4)),
        (F(1, 4), F(1, 2)),
        (F(1, 4), F(1, 4)),
    ]
    start = time.perf_counter()
    checked = 0
    for mass1, mass0 in mass_grid:
        for alpha in (1, 2, 3):
            for beta in (1, 2, 3):
                prior = BinaryPrior(mass1, mass0, 1 - mass1 - mass0, alpha, beta)
                for total in range(13):
                    for a in range(total + 1):
                        b = total - a
                        ev = Evidence(a, b)
                        marginal = marginal_likelihood(prior, ev)
                        assert marginal == oracles.binary_marginal(prior, a, b)
                        if marginal == 0:
                            continue
                        assert predict_next(prior, ev) == oracles.binary_predictive(
                            prior, a, b
                        )
                        checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 4000
    assert elapsed < 10


@criterion(9, "flat three-type rule has the sample-size-only property; the vertex mixture does not")
def test_criterion_09_sufficientness_suite():
    def flat_rule(counts):
        return dirichlet_predictive(counts, (1, 1, 1))

    for length in range(1, 7):
        law = law_from_predictive(flat_rule, 3, length)
        assert is_exchangeable(law)
        assert has_positive_cylinders(law)
    assert satisfies_sufficientness(flat_rule, 3, 6)

    hintikka = SimplexMixturePrior.hintikka_default(3)

    def vertex_rule(counts):
        return mixture_predictive(hintikka, counts)

    witness = sufficientness_witness(vertex_rule, 3, 4)
    assert witness is not None
    j, counts_a, counts_b, val_a, val_b = witness
    assert counts_a[j] == counts_b[j]
    assert sum(counts_a) == sum(counts_b)
    assert val_a != val_b
    # the prediction shifts exactly because the samples spread over
    # different numbers of types
    assert observed_type_count(counts_a) != observed_type_count(counts_b)


@criterion(10, "two-type mixture prior reproduces the split rule exactly")
def test_criterion_10_cross_module_agreement():
    mixture = SimplexMixturePrior(
        2,
        (
            DirichletComponent.vertex(0, F(1, 4)),
            DirichletComponent.vertex(1, F(1, 4)),
            DirichletComponent.full((1, 1), F(1, 2)),
        ),
    )
    split = BinaryPrior.jeffreys_split()
    for n in range(1, 101):
        value = mixture_predictive(mixture, (n, 0))[0]
        assert value == predict_next(split, Evidence(n))
        assert value == F((n + 1) * (n + 4), (n + 2) * (n + 3))


@criterion(11, "every urn law sits within 2tk/n of its finite mixture; the two-ball urn does not extend")
def test_criterion_11_finite_representation_suite():
    start = time.perf_counter()
    checked = 0
    for t in (2, 3):
        for total in range(1, 13):
            for colors in oracles.compositions(total, t):
                urn = UrnComposition(colors)
                full = urn_law(urn, total)
                for k in range(1, total + 1):
                    distance = variation_distance(
                        urn_law(urn, k), canonical_mixture(full, k)
                    )
                    assert distance <= df_bound(t, k, total)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 4823
    assert not admits_exchangeable_extension(
        urn_law(UrnComposition((1, 1)), 2)
    )
    assert elapsed < 60


@criterion(12, "astronomical sample through the CLI in under a second, exact")
def test_criterion_12_goldbach_scale_cli():
    n = 1_999_999_999_999_999_999
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "succession",
            "predict",
            "--rule",
            "haldane",
            "--n",
            str(n),
            "--digits",
            "40",
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        timeout=10,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    value = F(int(record["exact"]["num"]), int(record["exact"]["den"]))
    assert value == 1 - F(1, (2 * 10**18 + 1) ** 2)
    assert elapsed < 1
