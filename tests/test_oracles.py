"""The oracles get their own audit: symbolic integration on small cases.

If these fail nothing else in the suite means anything, so they come
first and stay tiny.
"""

from fractions import Fraction
from math import comb

import pytest
import sympy

from oracles import (
    beta_function,
    beta_marginal,
    compositions,
    dirichlet_marginal,
    polya_marginal,
)


@pytest.mark.parametrize(
    "a,b",
    [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (4, 3)],
)
def test_beta_function_matches_symbolic_integral(a, b):
    x = sympy.Symbol("x")
    integral = sympy.integrate(x ** (a - 1) * (1 - x) ** (b - 1), (x, 0, 1))
    assert beta_function(a, b) == Fraction(int(integral.p), int(integral.q))


def test_beta_function_frozen_values():
    assert beta_function(1, 1) == 1
    assert beta_function(2, 2) == Fraction(1, 6)
    assert beta_function(3, 2) == Fraction(1, 12)


def test_beta_function_first_column_sweep():
    # B(1, n) = 1/n
    for n in range(1, 30):
        assert beta_function(1, n) == Fraction(1, n)


def test_beta_function_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta_function(0, 1)
    with pytest.raises(ValueError):
        beta_function(1, -2)


@pytest.mark.parametrize(
    "alpha,beta,confirms,disconfirms",
    [(1, 1, 2, 1), (1, 1, 0, 0), (2, 1, 3, 0), (2, 3, 1, 2)],
)
def test_beta_marginal_matches_symbolic_integral(alpha, beta, confirms, disconfirms):
    # the ordered-sequence marginal is the integral of the likelihood
    # against the normalized prior density
    x = sympy.Symbol("x")
    density = x ** (alpha - 1) * (1 - x) ** (beta - 1) / sympy.beta(alpha, beta)
    integral = sympy.integrate(
        density * x**confirms * (1 - x) ** disconfirms, (x, 0, 1)
    )
    integral = sympy.nsimplify(sympy.simplify(integral))
    assert beta_marginal(alpha, beta, confirms, disconfirms) == Fraction(
        int(integral.p), int(integral.q)
    )


def test_dirichlet_marginal_binary_case_reduces_to_beta():
    # over two types the Dirichlet integral is the Beta integral
    for alpha in (1, 2, 3):
        for beta in (1, 2):
            for a in range(5):
                for b in range(5):
                    assert dirichlet_marginal((alpha, beta), (a, b)) == beta_marginal(
                        alpha, beta, a, b
                    )


def test_dirichlet_marginal_three_types_by_symbolic_integration():
    # P(one fixed sequence with counts (2,1,0)) under Dirichlet(1,1,1):
    # integrate x^2 y over the simplex, times the normalizer 2!
    x, y = sympy.symbols("x y")
    integral = sympy.integrate(
        sympy.integrate(x**2 * y, (y, 0, 1 - x)), (x, 0, 1)
    )
    value = 2 * integral  # Dirichlet(1,1,1) density is 2 on the simplex
    assert dirichlet_marginal((1, 1, 1), (2, 1, 0)) == Fraction(
        int(value.p), int(value.q)
    )


def test_polya_marginal_matches_the_factorial_form():
    for params in ((1, 1), (2, 1, 3), (1, 4, 1, 2)):
        rest = len(params) - 2
        for head, tail in (((0, 0), 0), ((2, 1), 1), ((0, 3), 2)):
            counts = head + (tail,) * rest
            assert polya_marginal(tuple(map(Fraction, params)), counts) == (
                dirichlet_marginal(params, counts)
            )


@pytest.mark.parametrize(
    "params, counts",
    [(("1/2", "3/2"), (2, 1)), (("1/3", "2", "5/2"), (1, 0, 3))],
)
def test_polya_marginal_by_the_gamma_function(params, counts):
    # prod_j Gamma(k_j + n_j) / Gamma(k_j), over Gamma(k + n) / Gamma(k)
    ks = [sympy.Rational(k) for k in params]
    value = sympy.gamma(sum(ks)) / sympy.gamma(sum(ks) + sum(counts))
    for k, n in zip(ks, counts):
        value *= sympy.gamma(k + n) / sympy.gamma(k)
    value = sympy.nsimplify(sympy.gammasimp(value))
    assert polya_marginal(tuple(map(Fraction, params)), counts) == Fraction(
        int(value.p), int(value.q)
    )


def test_compositions_list_every_count_vector_once_in_order():
    # stars and bars: C(total + parts - 1, parts - 1) vectors, ascending
    for parts in (2, 3, 4):
        for total in range(8):
            vectors = compositions(total, parts)
            count = comb(total + parts - 1, parts - 1)
            assert len(set(vectors)) == len(vectors) == count
            assert vectors == sorted(vectors)
            assert all(len(c) == parts and sum(c) == total for c in vectors)
