import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from succession import ResourceLimit, TableTooLarge, exact
from succession.exact import (
    MAX_RISING_TERMS,
    all_success_probability,
    as_rational,
    beta_sequence_marginal,
    decimal_string,
    falling,
    int_string,
    rising,
    rising_ratio,
)
from oracles import beta_marginal, decimal_reference, parse_int


class TestAsRational:
    def test_accepts_fraction_int_and_strings(self):
        assert as_rational(F(3, 4)) == F(3, 4)
        assert as_rational(7) == 7
        assert as_rational("3/4") == F(3, 4)
        assert as_rational("0.25") == F(1, 4)
        assert as_rational(" 17 ") == 17
        assert as_rational("-2/6") == F(-1, 3)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.25)

    def test_rejects_bools_and_garbage(self):
        with pytest.raises(TypeError):
            as_rational(True)
        with pytest.raises(ValueError):
            as_rational("one half")
        with pytest.raises(ValueError):
            as_rational("1/0")

    @pytest.mark.parametrize(
        "text",
        ["1e3", "2.5E-1", "1e1000000", "1_000", "1/2_0", "1 / 2", "1/ 2", "١٢"],
    )
    def test_only_fraction_and_decimal_literals(self, text):
        # no exponents: "1e1000000" would be a number of a million digits
        start = time.perf_counter()
        with pytest.raises(ValueError):
            as_rational(text)
        assert time.perf_counter() - start < 0.05


class TestRisingFalling:
    def test_empty_products(self):
        assert rising(F(7, 3), 0) == 1
        assert falling(5, 0) == 1

    def test_small_values(self):
        assert rising(F(1), 4) == 24
        assert rising(F(1, 2), 3) == F(15, 8)
        assert falling(5, 2) == 20
        assert falling(2, 5) == 0  # runs out of terms

    def test_falling_equals_the_term_loop(self):
        for start in range(-3, 31):
            for count in range(36):
                expected = 1
                for i in range(count):
                    expected *= max(start - i, 0)
                assert falling(start, count) == expected, (start, count)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            rising(F(1), -1)
        with pytest.raises(ValueError):
            falling(3, -1)

    def test_term_cap(self):
        assert rising(F(1), MAX_RISING_TERMS) == math.factorial(MAX_RISING_TERMS)
        for count in (MAX_RISING_TERMS + 1, 10**11, 10**100):
            start = time.perf_counter()
            with pytest.raises(ResourceLimit) as raised:
                rising(F(1, 2), count)
            assert time.perf_counter() - start < 0.05
            assert str(raised.value) == (
                f"a rising factorial of {count} terms exceeds the cap of "
                f"{MAX_RISING_TERMS} terms"
            )

    def test_capped_kernels_refuse_before_the_work(self):
        # a non-integer gap cannot telescope, so both sides need every term
        start = time.perf_counter()
        with pytest.raises(ResourceLimit):
            rising_ratio(F(1, 2), F(1), 10**11)
        with pytest.raises(ResourceLimit):
            beta_sequence_marginal(F(1, 2), F(1, 2), 10**9, 0)
        # every route: each tally fits the cap, the product it divides by
        # does not
        cap = MAX_RISING_TERMS
        for alpha, beta, a, b in (
            (F(1), F(1), cap // 2 + 1, cap // 2 + 1),
            (F(1, 2), F(1), 2 * cap, cap),
            (F(1), F(1, 3), cap, 2 * cap),
        ):
            with pytest.raises(ResourceLimit):
                beta_sequence_marginal(alpha, beta, a, b)
        assert time.perf_counter() - start < 0.05

    def test_table_cap_is_a_resource_limit(self):
        assert issubclass(TableTooLarge, ResourceLimit)


class TestRisingRatio:
    @pytest.mark.parametrize("num", [F(1), F(1, 2), F(5, 3), F(7)])
    @pytest.mark.parametrize("den", [F(1), F(2), F(9, 4), F(4)])
    @pytest.mark.parametrize("count", [0, 1, 2, 5, 9])
    def test_matches_explicit_product(self, num, den, count):
        explicit = F(1)
        for i in range(count):
            explicit *= (num + i) / (den + i)
        assert rising_ratio(num, den, count) == explicit

    def test_telescoped_path_handles_huge_counts(self):
        # integer gap of 1: the ratio collapses to start/(start+count)
        count = 10**15
        assert rising_ratio(F(1), F(2), count) == F(1, count + 1)
        # gap of 2, huge count, still exact and instant
        assert rising_ratio(F(3), F(5), count) == F(
            3 * 4, (count + 3) * (count + 4)
        )
        # negative gap (numerator above denominator)
        assert rising_ratio(F(2), F(1), count) == F(count + 1)


class TestBetaSequenceMarginal:
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1, 2, 3])
    def test_integer_parameters_match_factorial_oracle(self, alpha, beta):
        for a in range(8):
            for b in range(8):
                assert beta_sequence_marginal(F(alpha), F(beta), a, b) == beta_marginal(
                    alpha, beta, a, b
                )

    @pytest.mark.parametrize(
        "alpha,beta",
        [(F(5, 2), F(1)), (F(1), F(7, 3)), (F(5, 2), F(7, 3)), (F(3), F(1, 2))],
    )
    def test_all_dispatch_routes_agree_with_direct_product(self, alpha, beta):
        # the dispatcher picks whichever route is cheapest; the direct
        # rising-factorial form is recomputed here as the reference
        for a in range(7):
            for b in range(7):
                direct = (
                    rising(alpha, a) * rising(beta, b) / rising(alpha + beta, a + b)
                )
                assert beta_sequence_marginal(alpha, beta, a, b) == direct

    def test_huge_one_sided_counts_are_cheap(self):
        n = 10**18
        assert beta_sequence_marginal(F(1), F(1), n, 0) == F(1, n + 1)
        assert beta_sequence_marginal(F(5, 2), F(1), n, 0) == F(5, 2) / (F(5, 2) + n)
        assert beta_sequence_marginal(F(1), F(2), 0, n) == F(2, n + 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            beta_sequence_marginal(F(0), F(1), 1, 0)
        with pytest.raises(ValueError):
            beta_sequence_marginal(F(1), F(1), -1, 0)


class TestAllSuccessProbability:
    def test_matches_stepwise_product(self):
        for a in (F(1), F(3, 2), F(4)):
            for b in (F(1), F(2), F(5, 2)):
                for z in range(6):
                    explicit = F(1)
                    for i in range(z):
                        explicit *= (a + i) / (a + b + i)
                    assert all_success_probability(a, b, z) == explicit

    def test_huge_horizon_with_integer_second_parameter(self):
        z = 10**12
        assert all_success_probability(F(101), F(1), z) == F(101, 101 + z)


class TestDecimalString:
    def test_pinned_rendering(self):
        assert decimal_string(F(101, 1101), 10) == "0.0917347866"

    def test_ties_go_to_even(self):
        assert decimal_string(F(1, 8), 2) == "0.12"
        assert decimal_string(F(3, 8), 2) == "0.38"
        assert decimal_string(F(1, 2), 0) == "0"
        assert decimal_string(F(3, 2), 0) == "2"

    def test_integers_and_negatives(self):
        assert decimal_string(F(11), 3) == "11.000"
        assert decimal_string(F(-1, 4), 3) == "-0.250"

    def test_carry_across_the_point(self):
        assert decimal_string(F(999, 1000), 2) == "1.00"

    @given(
        num=st.integers(min_value=-10**9, max_value=10**9),
        den=st.integers(min_value=1, max_value=10**9),
        digits=st.integers(min_value=1, max_value=25),
    )
    def test_rounding_error_is_at_most_half_an_ulp(self, num, den, digits):
        value = F(num, den)
        rendered = F(decimal_string(value, digits))
        assert abs(rendered - value) <= F(1, 2 * 10**digits)

    @pytest.mark.parametrize(
        "value,digits",
        [(F(48, 49), 10_000), (F(-22, 7), 6_000), (F(3**10_000, 7), 5)],
        ids=["48/49", "-22/7", "3^10000/7"],
    )
    def test_past_the_int_str_limit_matches_decimal_module(self, value, digits):
        # more digits than CPython's default int-to-str cap of 4300, in the
        # fraction part or in the whole part
        assert decimal_string(value, digits) == decimal_reference(value, digits)


class TestIntString:
    @pytest.mark.parametrize(
        "value",
        [0, 7, -12345, 2**2000, 3**20_000, -(7**9_000), 10**5_000, 10**5_000 - 1],
        ids=["0", "7", "-12345", "2^2000", "3^20000", "-7^9000", "10^5000", "10^5000-1"],
    )
    def test_round_trip(self, value):
        text = int_string(value)
        assert parse_int(text) == value
        assert text.lstrip("-") == "0" or not text.lstrip("-").startswith("0")

    def test_powers_of_ten_have_exact_width(self):
        assert int_string(10**5_000) == "1" + "0" * 5_000
        assert int_string(10**5_000 - 1) == "9" * 5_000


class TestLongLiterals:
    """Input longer than CPython's 4300-digit cap on str-to-int."""

    @pytest.mark.parametrize(
        "value",
        [0, -12345, 2**2000, 3**20_000, -(7**9_000), 10**5_000, 10**5_000 - 1],
        ids=["0", "-12345", "2^2000", "3^20000", "-7^9000", "10^5000", "10^5000-1"],
    )
    def test_parse_int_inverts_int_string(self, value):
        text = int_string(value)
        assert exact.parse_int(text) == value
        assert exact.parse_int(f" {text}\n") == value
        if value >= 0:
            assert exact.parse_int("+" + text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "12x", "9" * 5_000 + "x", "--" + "9" * 5_000, "1.5", "\u0663" * 5_000],
        ids=["empty", "12x", "long-x", "double-sign", "decimal", "arabic-indic"],
    )
    def test_parse_int_keeps_int_errors(self, text):
        with pytest.raises(ValueError):
            exact.parse_int(text)

    def test_long_rational_literals(self):
        sevens = "7" * 4_400
        value = parse_int(sevens)
        assert as_rational("1/" + sevens) == F(1, value)
        assert as_rational(f" -{sevens}/14 ") == F(-value, 14)
        assert as_rational(sevens) == value
        assert as_rational(f"{sevens}.{sevens}") == value + F(value, 10**4_400)
        assert as_rational(f"-.{sevens}") == -F(value, 10**4_400)
        assert as_rational(f"{sevens}.") == value
        for bad in (f"{sevens}/0", f"1/{sevens}x", f"{sevens}/{sevens}.5", f"/{sevens}"):
            with pytest.raises(ValueError):
                as_rational(bad)
