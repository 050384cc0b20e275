import argparse
import collections
import functools
import itertools
import math
import sys
import threading
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import chain_rule_table, table_is_exchangeable

from succession import (
    BinaryPrior,
    DimensionMismatch,
    Evidence,
    InvalidRule,
    SampleTooLarge,
    SequenceLaw,
    SimplexMixturePrior,
    TableTooLarge,
    UrnComposition,
    admits_exchangeable_extension,
    canonical_mixture,
    carnap_predictive,
    df_bound,
    dirichlet_predictive,
    has_positive_cylinders,
    is_exchangeable,
    law_from_predictive,
    mixture_predictive,
    predict_next,
    satisfies_sufficientness,
    sufficientness_witness,
    urn_law,
    variation_distance,
)
from succession.cli import LAB_RULE_READS, LAB_RULES, _lab_rule, main
from succession import lab
from succession.lab import MAX_TABLE_SIZE, _check_shape, _compositions, _levels


@pytest.fixture(autouse=True)
def stored_tables_sum_to_their_denominator(monkeypatch):
    # the package's builders (the class walk and the dense chain rule,
    # urn_law, canonical_mixture) store their tables without summing them,
    # as each sums to 1 by construction: every law a test here stores is
    # summed once more, except a table from outside, which SequenceLaw() and
    # from_class_probabilities check themselves
    store = SequenceLaw._store
    outside = {SequenceLaw.__init__.__code__,
               SequenceLaw.from_class_probabilities.__func__.__code__}

    def summed(law, *args):
        store(law, *args)
        if sys._getframe(1).f_code not in outside:
            total = sum(law._dense or law._count_numerators().values())
            assert total == law._den, law
        return law

    monkeypatch.setattr(SequenceLaw, "_store", summed)


def laplace_rule(counts):
    return dirichlet_predictive(counts, (1,) * len(counts))


def haldane_rule(counts):
    p = predict_next(BinaryPrior.haldane(), Evidence(counts[0], counts[1]))
    return (p, 1 - p)


def two_point_rule(counts):
    prior = BinaryPrior(F(1, 2), F(1, 2), F(0))
    p = predict_next(prior, Evidence(counts[0], counts[1]))
    return (p, 1 - p)


def hintikka_rule_3():
    prior = SimplexMixturePrior.hintikka_default(3)

    def rule(counts):
        return mixture_predictive(prior, counts)

    return rule


# The laws several tests share are built on first use inside a test, not
# while the module is collected, so a broken builder fails the tests that
# use it by name and the rest still run.


@functools.cache
def markov_3():
    # transition matrix P(next == prev) = 2/3, uniform start: exchangeability
    # fails because order matters, e.g. P(011) = 1/9 but P(101) = 1/18
    return SequenceLaw(
        2,
        3,
        (
            F(2, 9),
            F(1, 9),
            F(1, 18),
            F(1, 9),
            F(1, 9),
            F(1, 18),
            F(1, 9),
            F(2, 9),
        ),
    )


@functools.cache
def laplace_2():
    return law_from_predictive(laplace_rule, 2, 2)


@functools.cache
def fair_coin_4():
    return SequenceLaw.from_class_probabilities(
        2, 4, {c: F(1, 16) for c in [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]}
    )


class TestSequenceLawConstruction:
    def test_dense_validation(self):
        with pytest.raises(DimensionMismatch):
            SequenceLaw(2, 2, (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            SequenceLaw(2, 1, (F(3, 2), F(-1, 2)))
        with pytest.raises(ValueError):
            SequenceLaw(2, 1, (F(1, 2), F(1, 3)))
        with pytest.raises(ValueError):
            SequenceLaw(1, 3, (F(1),))
        with pytest.raises(TableTooLarge):
            SequenceLaw(3, 14, ())

    def test_class_table_validation(self):
        with pytest.raises(DimensionMismatch):
            SequenceLaw.from_class_probabilities(2, 2, {(2, 0): F(1, 2)})
        with pytest.raises(DimensionMismatch):
            SequenceLaw.from_class_probabilities(
                2, 2, {(2, 0): F(1), (1, 1): F(0), (0, 2): F(0), (3, 0): F(0)}
            )
        with pytest.raises(ValueError):
            SequenceLaw.from_class_probabilities(
                2, 2, {(2, 0): F(1, 2), (1, 1): F(1, 2), (0, 2): F(1, 2)}
            )

    @pytest.mark.parametrize(
        "tallies", [(F(1, 2), F(3, 2)), (0.5, 1.5), (True, True), (F(2), 0)]
    )
    def test_class_tallies_must_be_whole(self, tallies):
        table = {(2, 0): F(1, 4), (1, 1): F(1, 4), (0, 2): F(1, 4)}
        with pytest.raises(DimensionMismatch):
            SequenceLaw.from_class_probabilities(2, 2, {tallies: F(1, 4), **table})

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: law_from_predictive(laplace_rule, 2, 0), ValueError,
             "length must be at least 1"),
            (lambda: law_from_predictive(laplace_rule, 2, True), ValueError,
             "length must be at least 1"),
            (lambda: SequenceLaw(2, -1, ()), ValueError, "length must be at least 1"),
            (lambda: SequenceLaw.from_class_probabilities(
                2, 1, {(1, 0): F(3, 2), (0, 1): F(-1, 2)}),
             ValueError, "probabilities must be nonnegative"),
            (lambda: SequenceLaw(2, 1, (F(1, 2), F(1, 3))), ValueError,
             "probabilities must sum to exactly 1"),
            (lambda: SequenceLaw.from_class_probabilities(
                2, 2, {(2, 0): F(1, 2), (1, 1): F(1, 2), (0, 2): F(1, 2)}),
             ValueError, "probabilities must sum to exactly 1"),
        ],
    )
    def test_refusal_messages(self, call, error, message):
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message

    def test_shape_cap_on_a_grid(self):
        # refused exactly when the dense table (t**length entries) or the
        # class table (count classes times t entries) is over the cap
        for t in range(2, 41):
            for length in range(1, 26):
                classes = math.comb(length + t - 1, t - 1)
                over = t**length > MAX_TABLE_SIZE or classes * t > MAX_TABLE_SIZE
                try:
                    _check_shape(t, length)
                except TableTooLarge:
                    assert over, (t, length)
                else:
                    assert not over, (t, length)

    def test_probability_lookup_both_representations(self):
        dense = SequenceLaw(2, 2, laplace_2().probabilities)
        for seq in itertools.product(range(2), repeat=2):
            assert dense.probability(seq) == laplace_2().probability(seq)
        with pytest.raises(DimensionMismatch):
            laplace_2().probability((0, 1, 0))
        with pytest.raises(DimensionMismatch):
            laplace_2().probability((0, 2))

    @pytest.mark.parametrize("sequence", [(0.0, 1), (True, False), (F(1), 0)])
    def test_symbols_must_be_ints(self, sequence):
        for law in (laplace_2(), SequenceLaw(2, 2, laplace_2().probabilities)):
            with pytest.raises(DimensionMismatch):
                law.probability(sequence)

    @pytest.mark.parametrize("t, length", [(1000, 2), (100_000, 1), (32, 4)])
    def test_class_tables_capped_by_what_they_store(self, t, length):
        # t**length fits the cap, but C(length + t - 1, t - 1) count
        # vectors of t entries each do not
        assert t**length <= MAX_TABLE_SIZE
        assert math.comb(length + t - 1, t - 1) * t > MAX_TABLE_SIZE
        start = time.perf_counter()
        with pytest.raises(TableTooLarge):
            SequenceLaw.from_class_probabilities(t, length, {})
        with pytest.raises(TableTooLarge):
            law_from_predictive(laplace_rule, t, length)
        assert time.perf_counter() - start < 0.05

    def test_class_cap_refuses_laws_that_are_not_exchangeable(self):
        # each constructor classifies a law before it knows whether the law
        # is exchangeable, so the class cap holds for every law
        t, length = 200, 2
        assert t**length <= MAX_TABLE_SIZE
        first_then_second = [F(0)] * t**length
        first_then_second[1] = F(1)  # all mass on (0, 1), none on (1, 0)
        with pytest.raises(TableTooLarge):
            SequenceLaw(t, length, first_then_second)
        with pytest.raises(TableTooLarge):
            law_from_predictive(
                lambda c: tuple(F(int(j == sum(c))) for j in range(t)), t, length
            )

    def test_class_law_dense_view_matches_lookup(self):
        law = urn_law(UrnComposition((2, 1)), 3)
        dense = law.probabilities
        for i, seq in enumerate(law.sequences()):
            assert dense[i] == law.probability(seq)
        assert sum(dense) == 1

    def test_count_distribution_is_a_distribution(self):
        dist = markov_3().count_distribution()
        assert sum(dist.values()) == 1
        assert dist[(2, 1)] == F(1, 9) + F(1, 18) + F(1, 9)

    def test_laplace_counts_are_uniform(self):
        # the flat-prior rule makes every tally equally likely
        assert laplace_2().count_distribution() == {
            (2, 0): F(1, 3),
            (1, 1): F(1, 3),
            (0, 2): F(1, 3),
        }

    def test_repr_names_the_storage(self):
        assert repr(laplace_2()) == "SequenceLaw(t=2, length=2, classes)"
        first_is_zero = SequenceLaw(2, 2, [F(1, 2), F(1, 2), F(0), F(0)])
        assert repr(first_is_zero) == "SequenceLaw(t=2, length=2, dense)"


class TestLawFromPredictive:
    def test_laplace_length_two_frozen(self):
        assert laplace_2().probabilities == (F(1, 3), F(1, 6), F(1, 6), F(1, 3))

    def test_haldane_length_two_frozen(self):
        # 3/4 then 8/9 along the all-confirming branch
        law = law_from_predictive(haldane_rule, 2, 2)
        assert law.probabilities == (F(2, 3), F(1, 12), F(1, 12), F(1, 6))
        assert has_positive_cylinders(law)

    def test_two_point_prior_concentrates_on_constant_sequences(self):
        law = law_from_predictive(two_point_rule, 2, 2)
        assert law.probabilities == (F(1, 2), F(0), F(0), F(1, 2))
        assert not has_positive_cylinders(law)

    def test_zero_prefix_subtrees_skip_the_rule(self):
        calls = []

        def all_zeros(counts):
            calls.append(counts)
            return (F(1), F(0))

        law = law_from_predictive(all_zeros, 2, 3)
        assert law.probability((0, 0, 0)) == 1
        assert set(calls) == {(0, 0), (1, 0), (2, 0)}

        # t = 3: half on type 0 forever, half on type 1 forever; type 2 and
        # every mixed count vector have probability 0
        calls.clear()

        def two_point(counts):
            calls.append(counts)
            if counts[0]:
                return (F(1), F(0), F(0))
            if counts[1]:
                return (F(0), F(1), F(0))
            return (F(1, 2), F(1, 2), F(0))

        law = law_from_predictive(two_point, 3, 3)
        assert law.class_table() is not None
        assert law.probability((0, 0, 0)) == law.probability((1, 1, 1)) == F(1, 2)
        assert sorted(calls) == [(0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 0, 0), (2, 0, 0)]
        assert law.probabilities == chain_rule_table(two_point, 3, 3)

    @pytest.mark.parametrize("exchangeable", [True, False])
    def test_each_count_vector_consulted_once(self, exchangeable):
        calls = []

        def rule(counts):
            calls.append(counts)
            if exchangeable:
                return laplace_rule(counts)
            # seeing type 0 makes it likelier; P(01) != P(10)
            den = counts[0] + 3
            return (F(counts[0] + 1, den), F(1, den), F(1, den))

        law = law_from_predictive(rule, 3, 4)
        assert (law.class_table() is not None) == exchangeable
        assert is_exchangeable(law) == exchangeable
        assert len(calls) == len(set(calls))
        assert set(calls) == {
            c for n in range(4) for c in itertools.product(range(n + 1), repeat=3)
            if sum(c) == n
        }

    def test_dense_fallback_skips_zero_prefixes(self):
        # t = 3: type 2 never comes, so every prefix that draws it has
        # probability 0 from depth 1 on; Laplace on types 0 and 1 below
        # n = 2, then type 1 is barred from c0 >= 2 and type 0 from c1 >= 2,
        # so P(001) = 0 < P(010) and the class walk fails at depth 3, and
        # (2, 2, 0) is reached only through prefixes of probability 0
        calls = []

        def rule(counts):
            calls.append(counts)
            c0, c1, _ = counts
            n = sum(counts)
            if n < 2:
                return (F(c0 + 1, n + 2), F(c1 + 1, n + 2), F(0))
            w0 = c0 + 1 if c1 < 2 else 0
            w1 = 1 if c0 < 2 else 0
            if not w0 + w1:
                return (F(0), F(0), F(1))
            return (F(w0, w0 + w1), F(w1, w0 + w1), F(0))

        law = law_from_predictive(rule, 3, 5)
        assert not is_exchangeable(law)
        # the class walk's levels 0..2, then the fallback's new vectors in
        # table order of first appearance
        assert calls == [
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 2, 0),
            (3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0),
            (4, 0, 0), (3, 1, 0), (1, 3, 0), (0, 4, 0),
        ]
        assert len(calls) == len(set(calls))
        assert law.probabilities == chain_rule_table(rule, 3, 5)
        assert law.probability((0, 1, 0, 1, 0)) == 0

    def test_invalid_rules_rejected(self):
        with pytest.raises(InvalidRule):
            law_from_predictive(lambda c: (F(1, 2),), 2, 2)
        with pytest.raises(InvalidRule):
            law_from_predictive(lambda c: (F(1, 2), F(1, 3)), 2, 2)
        with pytest.raises(InvalidRule):
            law_from_predictive(lambda c: (F(3, 2), F(-1, 2)), 2, 2)
        with pytest.raises(InvalidRule):
            law_from_predictive(lambda c: (0.5, 0.5), 2, 2)

    @pytest.mark.parametrize(
        "output, message",
        [
            ((F(1, 2),), "returned 1 entries for 2 symbols"),
            ((F(1, 2), F(1, 2), F(0)), "returned 3 entries for 2 symbols"),
            ((F(3, 2), F(-1, 2)), "returned a negative probability"),
            ((F(1, 2), F(1, 3)), "returned entries not summing to 1"),
            ((F(2, 3), F(2, 3)), "returned entries not summing to 1"),
            ((0.5, 0.5), "returned non-rational entries"),
            (("x", F(1, 2)), "returned non-rational entries"),
            ((True, False), "returned non-rational entries"),
            ((None, F(1)), "returned non-rational entries"),
            ((), "returned 0 entries for 2 symbols"),
            (("3/2", "-1/2"), "returned a negative probability"),
            ((1, 1), "returned entries not summing to 1"),
            ((F(1, 2), 0.5), "returned non-rational entries"),
            ((F(1, 2), True), "returned non-rational entries"),
            ((2, -1), "returned a negative probability"),
            ((F(1, 2), "1/3"), "returned entries not summing to 1"),
            ((F(1), F(0), F(0)), "returned 3 entries for 2 symbols"),
        ],
    )
    def test_invalid_rule_messages(self, output, message):
        def bad_rule(counts):
            return output

        for check in (
            lambda: law_from_predictive(bad_rule, 2, 2),
            lambda: sufficientness_witness(bad_rule, 2, 1),
        ):
            with pytest.raises(InvalidRule) as raised:
                check()
            assert str(raised.value) == f"bad_rule {message}"

    def test_a_rule_without_a_name_is_named_rule(self):
        class Rule:
            def __call__(self, counts):
                return (F(1, 2), F(1, 3))

        with pytest.raises(InvalidRule, match="^rule returned entries not summing to 1$"):
            law_from_predictive(Rule(), 2, 2)
        with pytest.raises(InvalidRule, match="^<lambda> returned 1 entries for 2 symbols$"):
            sufficientness_witness(lambda counts: (F(1),), 2, 0)

    def test_mixed_entries_accepted(self):
        # a Fraction is read as it is; an int, a "p/q" string and a Fraction
        # subclass go through as_rational, with the same law
        class Half(F):
            pass

        law = law_from_predictive(lambda counts: (Half(1, 2), "1/4", F(1, 4)), 3, 2)
        again = law_from_predictive(lambda counts: (F(1, 2), F(1, 4), F(1, 4)), 3, 2)
        assert law.probabilities == again.probabilities
        assert law_from_predictive(lambda c: (0, F(1), "0"), 3, 3).probability(
            (1, 1, 1)) == 1

    def test_dense_tables_sum_to_their_denominator(self):
        # the grid of non-exchangeable rules, each table summed by the fixture
        for t, length in ((2, 2), (2, 5), (2, 12), (3, 2), (3, 6), (4, 4)):
            for make_rule in (_run_rule, _prime_rule):
                law = law_from_predictive(make_rule(t), t, length)
                assert law._classes is None
                assert sum(law._dense) == law._den

    def test_any_iterable_of_entries_accepted(self):
        law = law_from_predictive(lambda counts: iter((F(1, 4), "3/4")), 2, 2)
        assert law.probabilities == (F(1, 16), F(3, 16), F(3, 16), F(9, 16))

    def test_string_and_integer_entries_accepted(self):
        law = law_from_predictive(lambda counts: ("1/2", "0.5"), 2, 3)
        assert law.class_table() == {
            counts: F(1, 8) for counts in _compositions(3, 2)
        }
        law = law_from_predictive(lambda counts: (1, 0), 2, 2)
        assert law.probabilities == (1, 0, 0, 0)

    def test_table_cap(self):
        with pytest.raises(TableTooLarge):
            law_from_predictive(laplace_rule, 2, 21)

    def test_huge_length_refused_without_computing_the_table_size(self):
        # 2**(10**12) would need 125 GB just to hold the size
        start = time.perf_counter()
        with pytest.raises(TableTooLarge):
            law_from_predictive(laplace_rule, 2, 10**12)
        assert time.perf_counter() - start < 0.05


def _cli_rule(name, t):
    """The predictive rule ``succession lab`` builds for a rule name, given
    only the flags that rule reads (the CLI refuses the others)."""
    reads = LAB_RULE_READS.get(name, ("alpha",))
    values = {"params": (F(1), F(3, 2), F(2))[:t], "t": t, "lam": F(3, 2)}
    args = argparse.Namespace(
        rule=name,
        **{k: v if k in reads else None for k, v in values.items()},
        alpha=F(2) if "alpha" in reads else F(1),
    )
    rule, rule_t, _ = _lab_rule(args)
    assert rule_t == t
    return rule


def _cli_rule_cases():
    for name in LAB_RULES:
        for t in (2, 3):
            if t == 3 and name not in ("dirichlet", "carnap", "hintikka"):
                continue  # the named binary rules are two-type
            for length in ((1, 4, 9) if t == 2 else (1, 3, 6)):
                yield name, t, length


def _polya_rule(weights, step):
    # draw type i with chance (w_i + step * c_i) / (W + step * n)
    total = sum(weights)

    def rule(counts):
        den = total + step * sum(counts)
        return tuple((w + step * c) / den for w, c in zip(weights, counts))

    return rule


def _table_rule(rng, t):
    # an arbitrary rational prediction per count vector, fixed on first use
    table = {}

    def rule(counts):
        if counts not in table:
            weights = [rng.randint(0, 3) for _ in range(t)]
            weights[rng.randrange(t)] += 1
            table[counts] = tuple(F(w, sum(weights)) for w in weights)
        return table[counts]

    return rule


def _run_rule(t):
    # seeing type 0 makes it likelier, other types leave it alone: not
    # exchangeable, and every sequence keeps a positive probability
    def rule(counts):
        den = counts[0] + t
        return (F(counts[0] + 1, den),) + (F(1, den),) * (t - 1)

    return rule


def _prime_rule(t):
    # predictions over a different prime at every count vector, so the
    # denominators are pairwise coprime; the tallies drive some entries to 0
    primes = iter(p for p in itertools.count(11) if all(p % q for q in range(2, p)))
    denominators = {}

    def rule(counts):
        den = denominators.setdefault(counts, next(primes))
        head = [(counts[0] + 2 * i + sum(counts)) % 4 for i in range(t - 1)]
        return tuple(F(w, den) for w in head + [den - sum(head)])

    return rule


class TestClassPath:
    """Laws built from a predictive rule against the dense chain-rule
    reference: class-stored exactly when the reference is exchangeable."""

    @pytest.mark.parametrize("name,t,length", list(_cli_rule_cases()))
    def test_cli_rules_are_stored_per_class(self, name, t, length):
        rule = _cli_rule(name, t)
        law = law_from_predictive(rule, t, length)
        assert law.class_table() is not None
        assert law.probabilities == chain_rule_table(rule, t, length)
        assert is_exchangeable(law)

    @settings(max_examples=150, deadline=None)
    @given(
        t=st.integers(2, 3),
        length=st.integers(1, 5),
        weights=st.lists(st.fractions(0, 4, max_denominator=3), min_size=3, max_size=3),
        step=st.sampled_from([F(1), F(2), F(1, 2)]),
    )
    def test_polya_rules_are_exchangeable(self, t, length, weights, step):
        weights = weights[:t]
        if sum(weights) == 0:
            weights[0] = F(1)
        rule = _polya_rule(weights, step)
        law = law_from_predictive(rule, t, length)
        assert law.class_table() is not None
        assert is_exchangeable(law)
        assert law.probabilities == chain_rule_table(rule, t, length)

    @settings(max_examples=150, deadline=None)
    @given(
        t=st.integers(2, 3),
        length=st.integers(1, 5),
        rng=st.randoms(use_true_random=False),
    )
    def test_arbitrary_rules_match_the_reference(self, t, length, rng):
        rule = _table_rule(rng, t)
        law = law_from_predictive(rule, t, length)
        reference = chain_rule_table(rule, t, length)
        assert law.probabilities == reference
        exchangeable = table_is_exchangeable(reference, t, length)
        assert is_exchangeable(law) == exchangeable
        assert (law.class_table() is not None) == exchangeable
        # a dense table is classified by what it is, not how it was built
        dense = SequenceLaw(t, length, reference)
        assert dense.probabilities == reference
        assert is_exchangeable(dense) == exchangeable
        assert (dense.class_table() is not None) == exchangeable

    @pytest.mark.parametrize(
        "t,length", [(2, 2), (2, 7), (2, 10), (3, 2), (3, 4), (3, 6)]
    )
    def test_non_exchangeable_rules_match_the_reference(self, t, length):
        rule = _prime_rule(t)
        law = law_from_predictive(rule, t, length)
        reference = chain_rule_table(rule, t, length)
        assert law.probabilities == reference
        assert not table_is_exchangeable(reference, t, length)
        assert law.class_table() is None and not is_exchangeable(law)
        assert 0 in reference  # some prefixes are cut off
        dense = SequenceLaw(t, length, reference)
        assert dense.probabilities == reference and not is_exchangeable(dense)

    @pytest.mark.parametrize("t,length", [(2, 14), (3, 8)])
    @pytest.mark.parametrize("make_rule", [_run_rule, _prime_rule])
    def test_dense_fallback_at_the_benchmark_sizes(self, make_rule, t, length):
        # the largest dense tables the lab-sweep workload builds
        rule = make_rule(t)
        law = law_from_predictive(rule, t, length)
        reference = chain_rule_table(rule, t, length)
        assert law.probabilities == reference
        assert not is_exchangeable(law)
        assert has_positive_cylinders(law) == (0 not in reference)

    def test_length_twenty_in_under_a_second(self):
        start = time.perf_counter()
        law = law_from_predictive(laplace_rule, 2, 20)
        answers = is_exchangeable(law), has_positive_cylinders(law)
        elapsed = time.perf_counter() - start
        assert answers == (True, True)
        assert law.probability((0,) * 7 + (1,) * 13) == F(1, 21 * math.comb(20, 7))
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "rule, expected",
        [
            (_run_rule(2), {(1,) + (0,) * 19: F(1, 40)}),
            # Laplace up to the last level, so the class walk hands only
            # that level to the dense table
            (
                lambda c: laplace_rule(c) if sum(c) < 19 else _run_rule(2)(c),
                {(0,) * 20: F(1, 21), (1,) * 20: F(1, 40)},
            ),
        ],
        ids=["run", "laplace-then-run"],
    )
    def test_dense_table_at_the_cap_in_under_two_seconds(self, rule, expected):
        # 2**20 sequences, the largest table under the cap; the rule is not
        # exchangeable, so every one of them gets its own entry
        start = time.perf_counter()
        law = law_from_predictive(rule, 2, 20)
        answers = is_exchangeable(law), has_positive_cylinders(law)
        elapsed = time.perf_counter() - start
        assert answers == (False, True)
        assert {seq: law.probability(seq) for seq in expected} == expected
        assert elapsed < 2.0

    def test_probabilities_at_the_cap_cost_at_most_twice_the_build(self, monkeypatch):
        # 2**20 entries over 60,964 distinct numerators: one Fraction is made
        # per distinct numerator, not per entry. The build is timed without
        # the autouse fixture's sum, which the test takes itself. Build and
        # read are each timed as the best of three alternating rounds, so one
        # burst of host load does not decide the ratio
        monkeypatch.undo()
        built = read = math.inf
        for _ in range(3):
            law = table = None  # free the last round's law before the next
            start = time.perf_counter()
            law = law_from_predictive(_run_rule(2), 2, 20)
            built = min(built, time.perf_counter() - start)
            start = time.perf_counter()
            table = law.probabilities
            read = min(read, time.perf_counter() - start)
        # the work count first, which holds whatever the host's load: a
        # second read makes exactly one Fraction per distinct numerator
        made = []

        def counted(*args):
            made.append(args)
            return F(*args)

        monkeypatch.setattr(lab, "Fraction", counted)
        assert len(law.probabilities) == 2**20
        assert len(made) == len(set(law._dense)) == 60_964
        assert read <= 2 * built, (read, built)
        assert sum(law._dense) == law._den and len(table) == 2**20
        assert (table[0], table[-1]) == (F(1, 21), F(1, 2**20))
        for i in range(0, 2**20, 1009):
            assert table[i] == F(law._dense[i], law._den), i
        small = law_from_predictive(_run_rule(2), 2, 14)
        assert small.probabilities == tuple(F(n, small._den) for n in small._dense)

    def _hand_over(self, t, length, depth):
        # Laplace below total depth, then (1/2, 1/2, 0, ...): every level of
        # the class walk agrees up to depth, where two orderings disagree, so
        # the dense table continues from there and is not exchangeable; type
        # 2 and above are reachable only within the first depth draws
        calls = []

        def rule(counts):
            calls.append(counts)
            if sum(counts) < depth:
                return laplace_rule(counts)
            return (F(1, 2), F(1, 2)) + (F(0),) * (t - 2)

        law = law_from_predictive(rule, t, length)
        reads = list(calls)  # the reference below calls the rule too
        assert len(reads) == len(set(reads))
        assert set(reads) == {
            c for n in range(length) for c in itertools.product(range(n + 1), repeat=t)
            if sum(c) == n and sum(c[2:]) <= depth
        }
        reference = chain_rule_table(rule, t, length)
        # level by level, each level in table order of its prefixes of
        # positive probability, a prefix's being that of its block of the table
        order = [
            tuple(map(prefix.count, range(t)))
            for n in range(length)
            for i, prefix in enumerate(itertools.product(range(t), repeat=n))
            if any(reference[i * t ** (length - n) : (i + 1) * t ** (length - n)])
        ]
        assert reads == list(dict.fromkeys(order))
        assert law.class_table() is None and not is_exchangeable(law)
        assert not table_is_exchangeable(reference, t, length)
        assert law.probabilities == reference
        assert has_positive_cylinders(law) == (t == 2)

    @pytest.mark.parametrize(
        "t,length",
        # at t = 2 and length 2 the rule gives the uniform law, which is
        # exchangeable, so that pair is left out
        [(2, length) for length in range(3, 11)] + [(3, length) for length in range(2, 11)],
    )
    def test_class_walk_first_disagrees_at_the_last_level(self, t, length):
        self._hand_over(t, length, length - 1)

    @pytest.mark.parametrize(
        "t,length,depth",
        # the walk first disagrees at depth 2 and up at t = 2 (below, the
        # rule gives the uniform law) and at depth 1 and up at t = 3; the
        # last level is the test above, and t = 3 stops at 3**8 sequences
        [(t, length, depth) for t, low, top in ((2, 2, 10), (3, 1, 8))
         for length in range(3, top + 1) for depth in range(low, length - 1)],
    )
    def test_dense_table_continues_from_every_depth(self, t, length, depth):
        self._hand_over(t, length, depth)


class TestTableOrder:
    """``_levels`` against tallies counted from ``itertools.product``."""

    @pytest.mark.parametrize("t,max_length", [(2, 12), (3, 7), (4, 5), (5, 4)])
    def test_levels_give_each_sequence_its_tally(self, t, max_length):
        levels = itertools.islice(_levels(t), max_length + 1)
        for length, (ids, vectors) in enumerate(levels):
            tallies = [
                tuple(map(seq.count, range(t)))
                for seq in itertools.product(range(t), repeat=length)
            ]
            assert [vectors[k] for k in ids] == tallies
            # the vectors come in order of first appearance in table order
            assert vectors == list(dict.fromkeys(tallies))

    @pytest.mark.parametrize("t,length", [(2, 1), (2, 6), (2, 10), (3, 4), (3, 6), (4, 4)])
    def test_dense_laws_classify_in_the_class_walk_order(self, t, length):
        for rule in (laplace_rule, _polya_rule([F(1), F(2), F(1, 2), F(3)][:t], F(1, 2))):
            law = law_from_predictive(rule, t, length)
            table = law.class_table()
            dense = SequenceLaw(t, length, law.probabilities)
            assert dense._dense is not None
            assert list(dense.class_table().items()) == list(table.items())
            assert dense.count_distribution() == law.count_distribution()

    @pytest.mark.parametrize("t,length", [(2, 2), (2, 5), (3, 3), (4, 3)])
    def test_every_builder_lists_count_vectors_in_table_order(self, t, length):
        # the tallies of the sequences in table order, each at its first
        # appearance, key every class table and count distribution
        order = list(dict.fromkeys(
            tuple(map(seq.count, range(t)))
            for seq in itertools.product(range(t), repeat=length)
        ))
        walked = law_from_predictive(laplace_rule, t, length)
        fallback = law_from_predictive(_prime_rule(t), t, length)
        laws = {
            "class walk": walked,
            "dense fallback": fallback,
            "dense, exchangeable": SequenceLaw(t, length, walked.probabilities),
            "dense, not exchangeable": SequenceLaw(t, length, fallback.probabilities),
            "urn_law": urn_law(UrnComposition(range(length, length + t)), length),
            "canonical_mixture": canonical_mixture(
                law_from_predictive(laplace_rule, t, length + 1), length
            ),
        }
        assert not is_exchangeable(fallback)
        for name, law in laws.items():
            table = law.class_table()
            assert table is None or list(table) == order, name
            assert list(law.count_distribution()) == order, name


class TestExchangeability:
    def test_chain_rule_laws_are_exchangeable(self):
        for t, length in ((2, 4), (3, 3)):
            law = law_from_predictive(laplace_rule, t, length)
            assert is_exchangeable(law)
            assert has_positive_cylinders(law)

    def test_markov_law_is_not(self):
        assert markov_3().probability((0, 1, 1)) == F(1, 9)
        assert markov_3().probability((1, 0, 1)) == F(1, 18)
        assert not is_exchangeable(markov_3())

    def test_class_built_laws_are_exchangeable_by_construction(self):
        assert is_exchangeable(fair_coin_4())
        assert is_exchangeable(urn_law(UrnComposition((3, 2)), 4))


class TestSufficientness:
    def test_flat_dirichlet_passes(self):
        assert satisfies_sufficientness(laplace_rule, 3, 5)

    def test_symmetric_carnap_passes(self):
        def rule(counts):
            return carnap_predictive(counts, F(3, 2))

        assert satisfies_sufficientness(rule, 3, 5)

    def test_vertex_mixture_fails_with_frozen_witness(self):
        # after two observations, seeing one type twice vs two types once
        # each changes the prediction for the unseen type
        witness = sufficientness_witness(hintikka_rule_3(), 3, 4)
        assert witness == (0, (0, 0, 2), (0, 1, 1), F(1, 15), F(1, 5))
        assert not satisfies_sufficientness(hintikka_rule_3(), 3, 4)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sufficientness_witness(laplace_rule, 1, 3)
        with pytest.raises(ValueError):
            sufficientness_witness(laplace_rule, 2, -1)
        for max_n in (2.5, True):
            with pytest.raises(ValueError):
                sufficientness_witness(laplace_rule, 2, max_n)

    @staticmethod
    def _old_refusal(t, max_n):
        """The search budget as first written: t times C(max_n + t, t),
        built a factor at a time and stopped past the cap."""
        low, high = sorted((t, max_n))
        entries = t
        for i in range(1, low + 1):
            if entries > MAX_TABLE_SIZE:
                break
            entries = entries * (high + i) // i
        return entries > MAX_TABLE_SIZE

    def test_refusal_matches_the_incremental_count(self):
        class Searched(Exception):
            pass

        def rule(counts):
            raise Searched

        huge = 10**100
        grid = [(t, max_n) for t in range(2, 70) for max_n in range(0, 70)]
        grid += [(2**20, 0), (2**20 + 1, 0), (huge, 0), (huge, 1), (2, huge)]
        grid += [(huge, huge), (2, 1446), (2, 1447), (3, 1024), (3, 1025)]
        for t, max_n in grid:
            try:
                sufficientness_witness(rule, t, max_n)
            except TableTooLarge:
                refused = True
            except Searched:
                refused = False
            assert refused == self._old_refusal(t, max_n), (t, max_n)

    def test_thousands_of_types(self):
        # the search at n = 0 meets one count vector of t zeros
        assert satisfies_sufficientness(laplace_rule, 5000, 0)
        assert next(_compositions(3, 5000)) == (0,) * 4999 + (3,)

    def test_compositions_in_lexicographic_order(self):
        for total in range(7):
            for parts in range(1, 5):
                expected = [
                    c for c in itertools.product(range(total + 1), repeat=parts)
                    if sum(c) == total
                ]
                assert list(_compositions(total, parts)) == expected


class TestUrns:
    def test_validation(self):
        with pytest.raises(ValueError):
            UrnComposition((3,))
        with pytest.raises(ValueError):
            UrnComposition((2, -1))
        with pytest.raises(ValueError):
            UrnComposition((0, 0))
        with pytest.raises(ValueError):
            urn_law(UrnComposition((1, 1)), 0)
        with pytest.raises(SampleTooLarge):
            urn_law(UrnComposition((1, 1)), 3)

    def test_repr_lists_the_colors(self):
        assert repr(UrnComposition((2, 1))) == "UrnComposition([2, 1])"

    def test_table_cap_before_the_work(self):
        start = time.perf_counter()
        with pytest.raises(TableTooLarge):
            urn_law(UrnComposition((3000, 3000)), 3000)
        assert time.perf_counter() - start < 0.05

    def test_five_five_frozen(self):
        law = urn_law(UrnComposition((5, 5)), 3)
        assert law.probability((0, 0, 0)) == F(1, 12)
        assert sum(p for _, p in law.items()) == 1

    def test_agrees_with_conditional_draw_chain(self):
        urn = UrnComposition((2, 1))
        law = urn_law(urn, 3)
        assert law.probability((0, 0, 1)) == F(2, 3) * F(1, 2) * F(1)
        assert law.probability((0, 1, 0)) == F(2, 3) * F(1, 2) * F(1)
        assert law.probability((0, 0, 0)) == 0

    def test_exhaustive_draws_pin_the_composition(self):
        urn = UrnComposition((3, 2))
        law = urn_law(urn, 5)
        dist = law.count_distribution()
        assert dist[(3, 2)] == 1


def _assert_matches_fraction_routes(law):
    # count distribution (entries and order) and extension test against
    # their former Fraction routes, kept in oracles
    assert list(law.count_distribution().items()) == list(
        oracles.count_distribution(law).items()
    )
    if law.t == 2 and is_exchangeable(law):
        assert admits_exchangeable_extension(law) == (
            oracles.admits_exchangeable_extension(law)
        )


class TestCanonicalMixture:
    def test_two_ball_urn_frozen_distance(self):
        law = urn_law(UrnComposition((1, 1)), 2)
        mixed = canonical_mixture(law, 2)
        assert mixed.probabilities == (F(1, 4),) * 4
        assert variation_distance(law, mixed) == 1
        assert variation_distance(law, mixed) <= df_bound(2, 2, 2)

    def test_degenerate_law_is_its_own_mixture(self):
        law = SequenceLaw.from_class_probabilities(
            2,
            3,
            {(3, 0): F(1, 2), (2, 1): F(0), (1, 2): F(0), (0, 3): F(1, 2)},
        )
        assert variation_distance(law, canonical_mixture(law, 3)) == 0

    def test_fair_coin_restriction_frozen_distance(self):
        coin_2 = SequenceLaw.from_class_probabilities(
            2, 2, {(2, 0): F(1, 4), (1, 1): F(1, 4), (0, 2): F(1, 4)}
        )
        mixed = canonical_mixture(fair_coin_4(), 2)
        assert variation_distance(coin_2, mixed) == F(1, 4)
        assert variation_distance(coin_2, mixed) <= df_bound(2, 2, 4)

    def test_mixture_is_exchangeable_and_extendable(self):
        law = urn_law(UrnComposition((2, 3)), 4)
        mixed = canonical_mixture(law, 3)
        assert is_exchangeable(mixed)
        assert admits_exchangeable_extension(mixed)

    @pytest.mark.parametrize(("t", "max_balls"), [(2, 20), (3, 12)])
    def test_integer_routes_match_the_reference(self, t, max_balls):
        # every urn the lab-sweep benchmark draws (criterion 11's grid of up
        # to 12 balls, and two colours up to 20), every k
        for total in range(1, max_balls + 1):
            for colors in _compositions(total, t):
                urn = UrnComposition(colors)
                full = urn_law(urn, total)
                reference = oracles.urn_law(urn, total)
                assert full.class_table() == reference.class_table()
                for k in range(1, total + 1):
                    law, mixed = urn_law(urn, k), canonical_mixture(full, k)
                    assert law.class_table() == oracles.urn_law(urn, k).class_table()
                    assert (
                        mixed.class_table()
                        == oracles.canonical_mixture(reference, k).class_table()
                    )
                    _assert_matches_fraction_routes(law)
                    _assert_matches_fraction_routes(mixed)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_urn_law_matches_the_reference_past_three_colours(self, data):
        # t**k stays under the cap while the urn holds at most 7 balls
        t = data.draw(st.integers(4, 6))
        colors = data.draw(
            st.lists(st.integers(0, 3), min_size=t, max_size=t).filter(
                lambda c: 1 <= sum(c) <= 7
            )
        )
        k = data.draw(st.integers(1, sum(colors)))
        urn = UrnComposition(colors)
        # by value: the reference lists its classes in lexicographic order
        assert urn_law(urn, k).class_table() == oracles.urn_law(urn, k).class_table()

    def test_bad_k(self):
        with pytest.raises(ValueError):
            canonical_mixture(laplace_2(), 0)
        with pytest.raises(ValueError):
            canonical_mixture(laplace_2(), 3)


def _table_order(length, t):
    # each count vector at its first sequence, the sorted one, in the
    # lexicographic order of those sequences
    return sorted(oracles.compositions(length, t),
                  key=lambda c: [j for j, n in enumerate(c) for _ in range(n)])


class TestFullDraw:
    """Drawing all N balls leaves one class with mass, the urn's own
    composition b, at prod_j b_j! / N! per sequence; the canonical mixture
    of that law is the iid law of the urn's frequencies, and a mixture reads
    its mixing measure from the classes with mass alone."""

    @pytest.mark.parametrize(("t", "max_balls"), [(2, 20), (3, 12)])
    def test_closed_forms_on_criterion_11_grid(self, t, max_balls):
        orders = {k: _table_order(k, t) for k in range(1, max_balls + 1)}
        for total in range(1, max_balls + 1):
            for colors in oracles.compositions(total, t):
                full = urn_law(UrnComposition(colors), total)
                mass = F(math.prod(map(math.factorial, colors)), math.factorial(total))
                assert list(full.class_table().items()) == [
                    (c, mass if c == colors else 0) for c in orders[total]]
                assert full._den == math.factorial(total)
                for k in range(1, total + 1):
                    mixed = canonical_mixture(full, k)
                    assert list(mixed.class_table().items()) == [
                        (c, F(math.prod(map(pow, colors, c)), total**k))
                        for c in orders[k]]
                    assert mixed._den == math.factorial(total) * total**k

    def test_mixing_read_from_caller_keyed_classes_with_zeros(self):
        table = urn_law(UrnComposition((3, 0, 2)), 4).class_table()
        shuffled = dict(sorted(table.items(), key=lambda item: (item[1], item[0][2])))
        assert list(shuffled) != list(table) and 0 in shuffled.values()
        law = SequenceLaw.from_class_probabilities(3, 4, shuffled)
        for k in range(1, 5):
            mixed = canonical_mixture(law, k)
            assert list(mixed.class_table()) == _table_order(k, 3)
            assert mixed.class_table() == oracles.canonical_mixture(law, k).class_table()

    @pytest.mark.parametrize("make_rule", [_run_rule, _prime_rule])
    def test_mixing_read_from_a_dense_law(self, make_rule):
        law = law_from_predictive(make_rule(3), 3, 5)
        assert not is_exchangeable(law)
        for k in range(1, 6):
            mixed = canonical_mixture(law, k)
            assert list(mixed.class_table()) == _table_order(k, 3)
            assert mixed.class_table() == oracles.canonical_mixture(law, k).class_table()

    def test_refused_past_the_cap_as_before(self, capsys):
        held = list(lab._SHAPES._held)
        with pytest.raises(TableTooLarge) as refused:
            urn_law(UrnComposition((21, 0)), 21)
        assert str(refused.value) == (
            "a table of 2^21 sequences, or of t entries per count class, "
            "exceeds the cap of 1048576 entries")
        assert list(lab._SHAPES._held) == held
        assert main(["lab", "df-check", "--urn", "21,0", "--k", "1"]) == 4
        assert "TableTooLarge" in capsys.readouterr().err
        assert (21, 2) not in lab._SHAPES._held


class TestVariationDistance:
    def test_zero_iff_equal(self):
        assert variation_distance(laplace_2(), laplace_2()) == 0
        other = law_from_predictive(haldane_rule, 2, 2)
        assert variation_distance(laplace_2(), other) > 0

    def test_class_and_dense_paths_agree(self):
        class_law = urn_law(UrnComposition((2, 2)), 3)
        dense_law = SequenceLaw(2, 3, class_law.probabilities)
        for other in (markov_3(), law_from_predictive(laplace_rule, 2, 3)):
            assert variation_distance(class_law, other) == variation_distance(
                dense_law, other
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            variation_distance(laplace_2(), markov_3())

    def test_integer_route_equals_fraction_route_on_criterion_11_grid(self):
        checked = 0
        for t in (2, 3):
            for total in range(1, 13):
                for colors in _compositions(total, t):
                    urn = UrnComposition(colors)
                    full = urn_law(urn, total)
                    for k in range(1, total + 1):
                        a, b = urn_law(urn, k), canonical_mixture(full, k)
                        assert variation_distance(a, b) == (
                            oracles.variation_distance(a, b)
                        )
                        checked += 1
        assert checked == 4823

    def test_mixed_storage_equals_fraction_route(self):
        class_law = urn_law(UrnComposition((2, 3)), 3)
        for other in (markov_3(), law_from_predictive(laplace_rule, 2, 3), class_law):
            for a, b in ((class_law, other), (other, class_law)):
                assert variation_distance(a, b) == oracles.variation_distance(a, b)

    @given(
        weights_a=st.lists(st.integers(0, 9), min_size=4, max_size=4),
        weights_b=st.lists(st.integers(0, 9), min_size=4, max_size=4),
    )
    def test_symmetric_and_bounded(self, weights_a, weights_b):
        laws = []
        for weights in (weights_a, weights_b):
            total = sum(weights)
            if total == 0:
                weights = [1, 0, 0, 0]
                total = 1
            laws.append(SequenceLaw(2, 2, [F(w, total) for w in weights]))
        a, b = laws
        d = variation_distance(a, b)
        assert d == variation_distance(b, a)
        assert 0 <= d <= 2


def _criterion_11_sweep():
    """Every class table, count distribution and distance criterion 11's
    urn grid makes: the tables as their stored numerators over their
    denominators, in (key, value) lists so that key order counts too."""
    out = []

    def tables(law):
        out.append((law._den, [*law._classes.items()], [*law._count_numerators().items()]))

    for t in (2, 3):
        for total in range(1, 13):
            for colors in _compositions(total, t):
                urn = UrnComposition(colors)
                full = urn_law(urn, total)
                tables(full)
                for k in range(1, total + 1):
                    a, b = urn_law(urn, k), canonical_mixture(full, k)
                    tables(a)
                    tables(b)
                    out.append(variation_distance(a, b))
    return out


class TestShapeTable:
    """``lab._SHAPES`` keeps each shape's count vectors and multiplicities
    for the kernels that read them: urn_law, canonical_mixture, the class
    branch of the count distribution, and variation_distance."""

    def test_cold_and_warm_agree_on_criterion_11_grid(self):
        lab._SHAPES.clear()
        cold = _criterion_11_sweep()
        assert lab._SHAPES._held  # the sweep filled the table
        warm = _criterion_11_sweep()
        assert cold == warm

    def test_shapes_against_their_definitions(self):
        lab._SHAPES.clear()
        for t, length in ((2, 1), (2, 20), (3, 12), (5, 4), (40, 2)):
            shape = lab._SHAPES.of(length, t)
            # the count vectors in the order they first appear in the table,
            # each with the number of sequences that have it
            ids, vectors = next(itertools.islice(_levels(t), length, None))
            assert list(shape.vectors) == vectors
            assert shape.multiplicities == {
                vectors[i]: n for i, n in collections.Counter(ids).items()}
            assert lab._SHAPES.of(length, t) is shape

    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    def test_caller_key_order_reads_by_count_vector(self, cold):
        urn = UrnComposition((2, 3, 1))
        law = urn_law(urn, 4)
        table = law.class_table()
        shuffled = dict(sorted(table.items(), key=lambda item: (item[0][1], item[1])))
        assert list(shuffled) != list(table)
        if cold:
            lab._SHAPES.clear()
        ordered = SequenceLaw.from_class_probabilities(3, 4, table)
        mixed = SequenceLaw.from_class_probabilities(3, 4, shuffled)
        assert list(mixed.count_distribution()) == list(shuffled)
        assert mixed.count_distribution() == ordered.count_distribution()
        others = (canonical_mixture(urn_law(urn, 6), 4),
                  law_from_predictive(_run_rule(3), 3, 4), ordered)
        for other in others:
            for a, b in ((mixed, other), (other, mixed)):
                assert variation_distance(a, b) == oracles.variation_distance(a, b)
            assert variation_distance(mixed, other) == variation_distance(ordered, other)
        assert variation_distance(mixed, ordered) == 0

    def test_the_table_holds_at_most_the_cap(self):
        lab._SHAPES.clear()
        sizes = range(2, 200)
        assert sum(t * t for t in sizes) > MAX_TABLE_SIZE  # (1, t): t classes of t
        for t in sizes:
            urn_law(UrnComposition([1] * t), 1)
        held = lab._SHAPES._held
        entries = sum(len(shape.vectors) * t for (_, t), shape in held.items())
        assert entries == lab._SHAPES._entries <= MAX_TABLE_SIZE
        assert list(held)[-1] == (1, 199) and (1, 2) not in held
        # least recently used goes first: a shape read again outlives the rest
        first, second = list(held)[:2]
        lab._SHAPES.of(*first)
        urn_law(UrnComposition([1] * 200), 1)
        assert first in held and second not in held
        # a shape of exactly the cap's size is held alone
        urn_law(UrnComposition([1] * 1024), 1)
        assert list(held) == [(1, 1024)] and lab._SHAPES._entries == MAX_TABLE_SIZE
        lab._SHAPES.clear()

    def test_no_law_or_result_shares_the_table(self):
        lab._SHAPES.clear()
        urn = UrnComposition((3, 2))
        full, law = urn_law(urn, 5), urn_law(urn, 3)
        mixed = canonical_mixture(full, 3)
        shared = [law._classes, mixed._classes, full._classes,
                  law.class_table(), mixed.class_table(), law.count_distribution(),
                  full.count_distribution(), mixed.count_distribution(),
                  SequenceLaw.from_class_probabilities(2, 3, law.class_table())._classes]
        variation_distance(law, mixed)
        table = [lab._SHAPES._held, *lab._SHAPES._held.values()]
        table += [shape.multiplicities for shape in table[1:]]
        assert not {id(x) for x in shared} & {id(x) for x in table}
        for d in shared:  # the table's shapes stay as they were
            d.clear()
        for length in (3, 5):
            shape = lab._SHAPES.of(length, 2)
            assert shape.vectors == tuple((length - j, j) for j in range(length + 1))
            assert list(shape.multiplicities.values()) == [
                math.comb(length, j) for j in range(length + 1)]

    def test_threads_see_whole_shapes(self):
        # shapes of about half the cap each, so threads evict one another's
        shapes = [(2, t) for t in range(96, 102)]
        assert all(math.comb(t + 1, 2) * t > MAX_TABLE_SIZE // 3 for _, t in shapes)
        lab._SHAPES.clear()
        want = {t: (lab._SHAPES.of(2, t).vectors, lab._SHAPES.of(2, t).multiplicities)
                for _, t in shapes}
        lab._SHAPES.clear()
        problems = []

        def read(offset):
            try:
                for length, t in shapes[offset:] + shapes[:offset]:
                    shape = lab._SHAPES.of(length, t)
                    if (shape.vectors, shape.multiplicities) != want[t]:
                        problems.append((length, t))
            except Exception as exc:  # a partial shape may raise, not differ
                problems.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # more threads than the two cores CI runners have
            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert lab._SHAPES._entries == sum(
            len(shape.vectors) * t for (_, t), shape in lab._SHAPES._held.items())
        assert lab._SHAPES._entries <= MAX_TABLE_SIZE
        lab._SHAPES.clear()


class TestDfBound:
    def test_frozen_values(self):
        assert df_bound(2, 2, 2) == 4
        assert df_bound(2, 1, 4) == 1
        assert df_bound(3, 1, 5) == F(6, 5)

    def test_shrinks_in_n_grows_in_k(self):
        assert df_bound(2, 3, 100) < df_bound(2, 3, 50)
        assert df_bound(2, 4, 100) > df_bound(2, 3, 100)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            df_bound(1, 1, 2)
        with pytest.raises(ValueError):
            df_bound(2, 0, 2)
        with pytest.raises(ValueError):
            df_bound(2, 3, 2)
        with pytest.raises(ValueError):
            df_bound(2, True, True)


class TestExchangeableExtension:
    def test_exhausted_urn_does_not_extend(self):
        law = urn_law(UrnComposition((1, 1)), 2)
        assert not admits_exchangeable_extension(law)

    def test_partial_urn_draws_extend(self):
        for colors in ((2, 2), (3, 2), (4, 1)):
            urn = UrnComposition(colors)
            for k in range(1, urn.total):
                assert admits_exchangeable_extension(urn_law(urn, k))

    def test_mixture_built_laws_extend(self):
        assert admits_exchangeable_extension(laplace_2())
        assert admits_exchangeable_extension(
            law_from_predictive(laplace_rule, 2, 5)
        )

    def test_requires_binary_exchangeable_input(self):
        with pytest.raises(ValueError):
            admits_exchangeable_extension(
                law_from_predictive(laplace_rule, 3, 2)
            )
        with pytest.raises(ValueError):
            admits_exchangeable_extension(markov_3())


class TestMultiplicityConsistency:
    def test_class_masses_match_dense_masses(self):
        law = urn_law(UrnComposition((3, 2, 1)), 3)
        dist = law.count_distribution()
        dense_mass: dict[tuple[int, ...], F] = {}
        for seq, p in law.items():
            counts = [0] * law.t
            for s in seq:
                counts[s] += 1
            key = tuple(counts)
            dense_mass[key] = dense_mass.get(key, F(0)) + p
        for key, mass in dist.items():
            assert dense_mass.get(key, F(0)) == mass

    def test_multiplicities_cover_the_table(self):
        law = urn_law(UrnComposition((2, 2)), 4)
        table = law.class_table()
        assert table is not None
        assert sum(
            math.factorial(4)
            // math.prod(math.factorial(c) for c in counts)
            * 1
            for counts in table
        ) == 2**4


# each law's builder, called inside the test it parametrizes
ACCESSOR_LAWS = {
    "urn": lambda: urn_law(UrnComposition((3, 2)), 3),
    "laplace": lambda: law_from_predictive(laplace_rule, 3, 3),
    "two-point": lambda: law_from_predictive(two_point_rule, 2, 3),
    "certain": lambda: urn_law(UrnComposition((3, 0)), 2),
    "markov": markov_3,
    "run": lambda: law_from_predictive(_run_rule(2), 2, 3),
    "dense-exchangeable": lambda: SequenceLaw(2, 3, ACCESSOR_LAWS["urn"]().probabilities),
    "dense-certain": lambda: SequenceLaw(2, 2, (1, 0, 0, 0)),
}


class TestAccessorTypes:
    """Every accessor hands out Fractions, whatever the law stores."""

    @pytest.mark.parametrize("name", list(ACCESSOR_LAWS))
    def test_accessors_return_fractions(self, name):
        law = ACCESSOR_LAWS[name]()
        exchangeable = name not in ("markov", "run")
        assert is_exchangeable(law) == exchangeable
        values = [law.probability(seq) for seq in law.sequences()]
        values += law.probabilities
        values += [p for _, p in law.items()]
        values += law.count_distribution().values()
        if exchangeable:
            values += law.class_table().values()
        else:
            assert law.class_table() is None
        size = law.t**law.length
        uniform = SequenceLaw(law.t, law.length, [F(1, size)] * size)
        values += [variation_distance(law, law), variation_distance(law, uniform)]
        assert values and all(type(v) is F for v in values)


class TestFractionReferences:
    """The count distribution and the extension test against their former
    Fraction routes on dense laws; criterion 11's grid is checked with the
    urn laws and mixtures in TestCanonicalMixture."""

    @pytest.mark.parametrize("t,length", [(2, 2), (2, 6), (2, 10), (3, 2), (3, 5)])
    def test_dense_run_rule_laws(self, t, length):
        law = law_from_predictive(_run_rule(t), t, length)
        assert not is_exchangeable(law)
        _assert_matches_fraction_routes(law)
        for extension in (
            admits_exchangeable_extension,
            oracles.admits_exchangeable_extension,
        ):
            with pytest.raises(ValueError):
                extension(law)

    def test_dense_exchangeable_laws(self):
        for colors in ((1, 1), (2, 3), (4, 1), (2, 2, 1)):
            urn = UrnComposition(colors)
            for k in range(1, urn.total + 1):
                law = SequenceLaw(urn.t, k, urn_law(urn, k).probabilities)
                assert is_exchangeable(law)
                _assert_matches_fraction_routes(law)
