"""Desk-scale laboratory for exchangeability structure.

Everything here works with complete, exact distributions over all t^length
outcome sequences, so structural claims (exchangeability, positivity of
cylinders, sufficientness of a predictive rule, closeness of a sampling
law to a mixture of iid laws) are checked by inspection rather than
simulation. Tables are capped; the lab is an oracle, not a production
path.

A law is integer numerators over one denominator. It keeps them per count
vector (its class table) exactly when it is exchangeable, whichever
constructor built it, and per sequence in table order when it was built
dense; its accessors make one Fraction per distinct numerator. So
exchangeability is read off the storage, and every check and distance runs
on integers. A table from outside the package is checked to sum to 1; one
the package builds sums to 1 by construction and lists its count vectors in
table order (each at its first appearance among the sequences). Urn laws,
canonical mixtures and exchangeable rules' laws are built per class; the
dense constructor classifies its table as it validates it.
Pairwise operations use the class form when both operands carry it, which
makes exhaustive sweeps over urns affordable. A predictive rule is walked on
the count lattice first; when two orderings of a count vector get unequal
probabilities, the dense chain-rule table continues from that level, reusing
the predictions made there, one level of prefixes at a time over one
denominator per level, and is stored unclassified. A rule's vector is
validated as integer numerators over the lcm of its denominators.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Collection, Iterator, Mapping, Sequence
from fractions import Fraction

from . import _LAB_NAMES as __all__  # the package lists them before lab loads
from .errors import DimensionMismatch, InvalidRule, SampleTooLarge, TableTooLarge
from .exact import _over_lcm, _whole, as_rational, falling, int_string

# Every law, exchangeable or not, is refused when its t**length sequences or
# its count classes times t exceed this (t=2 to length 20, t=3 to 12 fit).
MAX_TABLE_SIZE = 2**20

PredictiveRule = Callable[[tuple[int, ...]], Sequence[Fraction]]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # lexicographic order by an odometer: the next vector moves one draw from
    # the last nonzero tally to the tally before it, and the rest to the end
    counts = [0] * parts
    counts[-1] = total
    while True:
        yield tuple(counts)
        r = parts - 1
        while r and not counts[r]:
            r -= 1
        if not r:
            return
        rest = counts[r] - 1
        counts[r] = 0
        counts[r - 1] += 1
        counts[-1] = rest


def _levels(t: int) -> Iterator[tuple[list[int], list[tuple[int, ...]]]]:
    """Table order, one prefix length at a time from 0: ``vectors`` holds
    the level's count vectors in order of first appearance, and ``ids[p]``
    is the index in ``vectors`` of prefix p's count vector. The children of
    prefix p are t*p .. t*p + t - 1, and a level is built only when asked."""
    ids, vectors = [0], [(0,) * t]
    while True:
        yield ids, vectors
        index: dict[tuple[int, ...], int] = {}
        successors = [
            [index.setdefault(c[:i] + (c[i] + 1,) + c[i + 1 :], len(index))
             for i in range(t)]
            for c in vectors
        ]
        vectors = list(index)
        ids = list(itertools.chain.from_iterable(map(successors.__getitem__, ids)))


def _factorials(length: int) -> list[int]:
    # 0!, 1!, ..., length!: one table per call serves every class multiplicity
    return list(itertools.accumulate(range(1, length + 1), operator.mul, initial=1))


def _multiplicity(counts: tuple[int, ...], factorials: list[int]) -> int:
    # number of sequences sharing this count vector; the table ends at the
    # vector's total
    out = factorials[-1]
    for c in counts:
        out //= factorials[c]
    return out


def _over_cap(m: int, k: int, t: int) -> bool:
    # whether C(m, k) vectors of t entries exceed the cap; C(m, k) >= 2**k
    # when m >= 2k, so a k past the cap's bit length exceeds it and the
    # binomial is only taken when cheap
    return k >= MAX_TABLE_SIZE.bit_length() or math.comb(m, k) * t > MAX_TABLE_SIZE


def _check_shape(t: int, length: int) -> None:
    if not _whole(t) or t < 2:
        raise ValueError("need an alphabet of at least two symbols")
    if not _whole(length) or length < 1:
        raise ValueError("length must be at least 1")
    # t >= 2, so a length past the cap's bit length exceeds it; testing that
    # first keeps t**length cheap. The C(length + t - 1, length) count classes
    # equal the binomial at k = t - 1; the smaller k gives _over_cap its m >= 2k
    if (
        length >= MAX_TABLE_SIZE.bit_length()
        or t**length > MAX_TABLE_SIZE
        or _over_cap(length + t - 1, min(length, t - 1), t)
    ):
        raise TableTooLarge(
            f"a table of {int_string(t)}^{int_string(length)} sequences, or of t "
            f"entries per count class, exceeds the cap of {MAX_TABLE_SIZE} entries"
        )


class _Reduced(dict):
    """numerator -> its reduced Fraction over ``den``, made on the first
    lookup of that numerator; a numerator looked up again costs one hash."""

    def __init__(self, den: int) -> None:
        self.den = den

    def __missing__(self, num: int) -> Fraction:
        return self.setdefault(num, Fraction(num, self.den))


class SequenceLaw:
    """An exact probability distribution over all ``t**length`` sequences
    of symbols 0..t-1.

    The dense constructor takes one probability per sequence in
    lexicographic order (symbol 0 first, leftmost position most
    significant). Laws known to be constant on permutation classes can be
    built from a per-class table instead via
    :meth:`from_class_probabilities`; they behave identically and the
    dense view is computed on use. Either way a law keeps a class table
    exactly when it is exchangeable.
    """

    __slots__ = ("t", "length", "_den", "_dense", "_classes")

    def __init__(self, t: int, length: int, probabilities: Sequence[Fraction]):
        _check_shape(t, length)
        dense = tuple(as_rational(p) for p in probabilities)
        if len(dense) != t**length:
            raise DimensionMismatch(
                f"expected {t**length} probabilities, got {len(dense)}"
            )
        if any(p < 0 for p in dense):
            raise ValueError("probabilities must be nonnegative")
        nums, den = _over_lcm([p.as_integer_ratio() for p in dense])
        # classified by numerator: one numerator per count vector, in order
        # of first appearance, must be every sequence's with those counts
        ids, vectors = next(itertools.islice(_levels(t), length, None))
        per_id = dict(zip(ids, nums))
        same = all(map(operator.eq, map(per_id.__getitem__, ids), nums))
        classes = dict(zip(vectors, per_id.values())) if same else None
        self._store(t, length, den, classes, nums)._summed()

    def _store(self, t: int, length: int, den: int,
               classes: dict[tuple[int, ...], int] | None,
               dense: list[int] | None = None) -> "SequenceLaw":
        # every builder's core: numerators over one denominator, stored as built
        self.t = t
        self.length = length
        self._den = den
        self._dense = dense
        self._classes = classes
        return self

    def _summed(self) -> "SequenceLaw":
        # a table from outside the package must sum to its denominator (a dense
        # one is never empty), as the package's builders' do by construction
        if sum(self._dense or self._count_numerators().values()) != self._den:
            raise ValueError("probabilities must sum to exactly 1")
        return self

    @classmethod
    def from_class_probabilities(
        cls,
        t: int,
        length: int,
        class_probs: Mapping[tuple[int, ...], Fraction],
    ) -> "SequenceLaw":
        """Build a law constant on permutation classes from a complete map
        of count vector -> probability of each single sequence in that
        class. The law keeps the map's order."""
        _check_shape(t, length)
        table: dict[tuple[int, ...], Fraction] = {}
        expected = math.comb(length + t - 1, t - 1)
        for counts, prob in class_probs.items():
            counts = tuple(counts)
            whole = all(_whole(c) and c >= 0 for c in counts)
            if len(counts) != t or not whole or sum(counts) != length:
                raise DimensionMismatch(
                    f"count vector {counts} does not describe {length} draws "
                    f"over {t} types"
                )
            prob = as_rational(prob)
            if prob < 0:
                raise ValueError("probabilities must be nonnegative")
            table[counts] = prob
        if len(table) != expected:
            raise DimensionMismatch(
                f"expected {expected} count classes, got {len(table)}"
            )
        nums, den = _over_lcm([p.as_integer_ratio() for p in table.values()])
        return cls.__new__(cls)._store(t, length, den, dict(zip(table, nums)))._summed()

    def _numerators(self) -> Sequence[int]:
        # one numerator per sequence in table order
        if self._dense is not None:
            return self._dense
        ids, vectors = next(itertools.islice(_levels(self.t), self.length, None))
        return list(map(list(map(self._classes.__getitem__, vectors)).__getitem__, ids))

    def _fractions(self, nums: Collection[int]) -> Iterator[Fraction]:
        # the numerators over the law's denominator: one reduced Fraction per
        # distinct numerator, shared by every entry that has it
        return map(_Reduced(self._den).__getitem__, nums)

    def _count_numerators(self) -> dict[tuple[int, ...], int]:
        # numerator of the mass of each count vector, over the law's denominator
        if self._classes is not None:
            factorials = _factorials(self.length)
            return {
                c: n * _multiplicity(c, factorials) if n else 0
                for c, n in self._classes.items()
            }
        ids, vectors = next(itertools.islice(_levels(self.t), self.length, None))
        sums = [0] * len(vectors)
        for k, n in zip(ids, self._dense):
            sums[k] += n
        return dict(zip(vectors, sums))

    def probability(self, sequence: Sequence[int]) -> Fraction:
        """Probability of one full sequence."""
        seq = tuple(sequence)
        if len(seq) != self.length or any(
            not (_whole(s) and 0 <= s < self.t) for s in seq
        ):
            raise DimensionMismatch(
                f"expected a sequence of {self.length} symbols in 0..{self.t - 1}"
            )
        if self._classes is not None:
            counts = tuple(map(seq.count, range(self.t)))
            return Fraction(self._classes[counts], self._den)
        index = 0
        for s in seq:
            index = index * self.t + s
        return Fraction(self._dense[index], self._den)

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        """Dense table in lexicographic sequence order."""
        return tuple(self._fractions(self._numerators()))

    def sequences(self) -> Iterator[tuple[int, ...]]:
        """All sequences in table order."""
        return itertools.product(range(self.t), repeat=self.length)

    def items(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """(sequence, probability) pairs in table order."""
        return zip(self.sequences(), self.probabilities)

    def class_table(self) -> dict[tuple[int, ...], Fraction] | None:
        """Count vector -> per-sequence probability; None exactly when the
        law is not exchangeable. Keys come in table order (first appearance
        among the sequences) unless :meth:`from_class_probabilities` set them."""
        if self._classes is None:
            return None
        return dict(zip(self._classes, self._fractions(self._classes.values())))

    def count_distribution(self) -> dict[tuple[int, ...], Fraction]:
        """Probability that the ``length`` draws realize each count vector,
        keyed in the order of :meth:`class_table`, or in table order."""
        counts = self._count_numerators()
        return dict(zip(counts, self._fractions(counts.values())))

    def __repr__(self) -> str:
        kind = "classes" if self._classes is not None else "dense"
        return f"SequenceLaw(t={self.t}, length={self.length}, {kind})"


def _read(
    rule: PredictiveRule, counts: tuple[int, ...], t: int
) -> tuple[list[int], int]:
    # the rule's vector at ``counts`` as integer numerators over the lcm of
    # its denominators: a Fraction entry is read as it is, any other goes
    # through as_rational; signs and the sum are checked on those integers,
    # and an error of the rule's own passes through unchanged
    raw = rule(counts)
    try:
        ratios = [(p if type(p) is Fraction else as_rational(p)).as_integer_ratio()
                  for p in raw]
    except (TypeError, ValueError) as exc:
        raise InvalidRule(f"{_name(rule)} returned non-rational entries") from exc
    if len(ratios) != t:
        raise InvalidRule(
            f"{_name(rule)} returned {len(ratios)} entries for {t} symbols"
        )
    nums, den = _over_lcm(ratios)
    if min(nums) < 0:  # t >= 2 entries, so never empty
        raise InvalidRule(f"{_name(rule)} returned a negative probability")
    if sum(nums) != den:
        raise InvalidRule(f"{_name(rule)} returned entries not summing to 1")
    return nums, den


def _name(rule: PredictiveRule) -> str:
    return getattr(rule, "__name__", "rule")


def _dense_from(rule: PredictiveRule, t: int, length: int, depth: int,
                level: dict, read: dict) -> SequenceLaw:
    """The chain rule over every prefix in table order, from the ``depth``
    where the class walk found two orderings of a count vector to disagree:
    ``level`` holds that depth's agreed probabilities per count vector in
    table order, and ``read`` the rule's vectors read there. Each level is
    integer numerators over one denominator, the previous level's times the
    lcm of the rule's denominators at the count vectors of its positive
    prefixes."""
    classes, den = _over_lcm(list(level.values()))
    nums, zeros = None, (0,) * t
    for ids, vectors in itertools.islice(_levels(t), depth, length):
        if nums is None:  # the level handed over: each prefix its class's numerator
            nums = list(map(classes.__getitem__, ids))
        live = dict.fromkeys(itertools.compress(ids, nums))
        rows = {k: read.get(vectors[k]) or _read(rule, vectors[k], t) for k in live}
        read = {}  # the handed-over level's reads are used up
        scale = math.lcm(*(d for _, d in rows.values()))
        den *= scale
        factors = [zeros] * len(vectors)
        for k, (vec, d) in rows.items():
            factors[k] = [a * (scale // d) for a in vec]
        nums = [n * a for n, k in zip(nums, ids) for a in factors[k]]
    # each level's rows sum to its scale and the handed-over level to its
    # denominator, every read validated, so the table sums to den already
    return SequenceLaw.__new__(SequenceLaw)._store(t, length, den, None, nums)


def law_from_predictive(rule: PredictiveRule, t: int, length: int) -> SequenceLaw:
    """Chain-rule construction: the probability of a sequence is the
    product, over its positions, of the rule's prediction for the symbol
    actually drawn given the counts so far.

    The rule is any callable from a count vector (tuple of t tallies) to a
    probability vector over the t symbols; it is consulted at most once
    per count vector, and never below a zero-probability prefix.

    The law is first built on the count lattice. When every sequence with
    the same count vector gets the same probability (the rule's
    predictions commute: p_c(i) p_{c+e_i}(j) = p_c(j) p_{c+e_j}(i) at
    every c of positive probability), the law is exchangeable and is
    stored per class, one entry per count vector. At the first level where
    two predecessors of a count vector disagree, the law is known not to be
    exchangeable, and the dense table, one entry per sequence, stored
    unclassified, continues from that level, reusing the predictions
    already made there.
    """
    _check_shape(t, length)
    # the class walk: q(c + e_i) is q(c) * p_c(i), an unreduced pair, from
    # every predecessor c. While all agree, q of a count vector is each of its
    # sequences' chain-rule product, by induction on the length; two that
    # disagree give two orderings of one count vector different probabilities.
    # Levels come in table order, and the rule is read only where q(c) > 0,
    # its vectors kept for the current level alone
    level: dict[tuple[int, ...], tuple[int, int]] = {(0,) * t: (1, 1)}
    unread = ((0,) * t, 1)
    for depth in range(length):
        read: dict[tuple[int, ...], tuple[list[int], int]] = {}
        children: dict[tuple[int, ...], tuple[int, int]] = {}
        for counts, (n, d) in level.items():
            if n:
                read[counts] = _read(rule, counts, t)
            nums, den = read.get(counts, unread)
            for i in range(t):
                child = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
                value = (n * nums[i], d * den)
                kept_n, kept_d = children.setdefault(child, value)
                if kept_n * value[1] != value[0] * kept_d:
                    return _dense_from(rule, t, length, depth, level, read)
        level = children
    nums, den = _over_lcm(list(level.values()))
    classes = dict(zip(level, nums))
    return SequenceLaw.__new__(SequenceLaw)._store(t, length, den, classes)


def is_exchangeable(law: SequenceLaw) -> bool:
    """True iff sequences with equal count vectors get equal probability:
    exactly when the law keeps a class table, which the dense constructor
    decides by classifying and law_from_predictive by its class walk."""
    return law._classes is not None


def has_positive_cylinders(law: SequenceLaw) -> bool:
    """True iff every sequence (hence every cylinder of outcomes) has
    strictly positive probability."""
    # every stored numerator is nonnegative, so positive means nonzero
    table = law._classes
    return all(table.values() if table is not None else law._dense)


def sufficientness_witness(
    rule: PredictiveRule, t: int, max_n: int
) -> tuple[int, tuple[int, ...], tuple[int, ...], Fraction, Fraction] | None:
    """Search all count vectors with at most ``max_n`` observations for a
    violation of the sufficientness property: the predicted probability of
    type j may depend only on (count of j, total count).

    Returns None when the rule passes, otherwise a witness
    (j, counts_a, counts_b, prediction_a, prediction_b) with the two count
    vectors agreeing in type-j tally and total yet predicting differently.
    Raises TableTooLarge, before any rule call, when the search would
    predict more than MAX_TABLE_SIZE entries (t per count vector).
    """
    if not _whole(t) or t < 2:
        raise ValueError("need an alphabet of at least two symbols")
    if not _whole(max_n) or max_n < 0:
        raise ValueError("max_n must be a nonnegative integer")
    # the search predicts t entries at each of C(max_n + t, t) count vectors
    if _over_cap(t + max_n, min(t, max_n), t):
        raise TableTooLarge(
            f"a sufficientness search over {int_string(t)} types and up to "
            f"{int_string(max_n)} observations predicts more than "
            f"{MAX_TABLE_SIZE} entries (count vectors times types)"
        )
    # (type, its tally, total) -> the first count vector and its prediction
    # as (numerator, denominator); two predictions differ when cross products do
    seen: dict[tuple[int, int, int], tuple[tuple[int, ...], int, int]] = {}
    for n in range(max_n + 1):
        for counts in _compositions(n, t):
            nums, den = _read(rule, counts, t)
            for j, num in enumerate(nums):
                first, num_a, den_a = seen.setdefault(
                    (j, counts[j], n), (counts, num, den)
                )
                if num_a * den != num * den_a:
                    return j, first, counts, Fraction(num_a, den_a), Fraction(num, den)
    return None


def satisfies_sufficientness(rule: PredictiveRule, t: int, max_n: int) -> bool:
    """True iff no witness against sufficientness exists up to ``max_n``
    observations (see :func:`sufficientness_witness`)."""
    return sufficientness_witness(rule, t, max_n) is None


class UrnComposition:
    """An urn described by how many balls of each of t >= 2 colors it
    holds. Draws are without replacement."""

    __slots__ = ("colors",)

    def __init__(self, colors: Sequence[int]):
        colors = tuple(colors)
        if len(colors) < 2:
            raise ValueError("an urn needs at least two colors")
        if any(not _whole(c) or c < 0 for c in colors):
            raise ValueError("ball counts must be nonnegative integers")
        if sum(colors) < 1:
            raise ValueError("the urn must hold at least one ball")
        self.colors = colors

    @property
    def t(self) -> int:
        return len(self.colors)

    @property
    def total(self) -> int:
        return sum(self.colors)

    def __repr__(self) -> str:
        return f"UrnComposition({list(self.colors)})"


def urn_law(urn: UrnComposition, k: int) -> SequenceLaw:
    """Law of k ordered draws without replacement: a sequence with count
    vector c has probability prod_j falling(colors_j, c_j) / falling(N, k),
    the multivariate hypergeometric sampling law. Exchangeable by
    construction; raises SampleTooLarge when k exceeds the urn."""
    if not _whole(k) or k < 1:
        raise ValueError("k must be at least 1")
    if k > urn.total:
        raise SampleTooLarge(
            f"asked for {k} draws from an urn of {urn.total} balls"
        )
    _check_shape(urn.t, k)
    # per colour, falling(balls, c) for c = 0..k: 0 from c = balls + 1 on
    steps = (range(balls, balls - k, -1) for balls in urn.colors)
    tables = [[*itertools.accumulate(s, operator.mul, initial=1)] for s in steps]
    # table order: first appearance, the compositions' order reversed
    classes = reversed([*_compositions(k, urn.t)])
    nums = {c: math.prod(map(list.__getitem__, tables, c)) for c in classes}
    den = falling(urn.total, k)
    return SequenceLaw.__new__(SequenceLaw)._store(urn.t, k, den, nums)


def canonical_mixture(law: SequenceLaw, k: int) -> SequenceLaw:
    """The finite mixture-of-iid approximation built from a law of length
    n: mix iid draws from theta = (empirical frequencies) using the law's
    own count distribution as the mixing measure, then look at the first
    k coordinates.

    The result is exchangeable and extends to any length; its distance
    from the original law's k-draw restriction is what the finite
    representation bound controls.
    """
    if not _whole(k) or not 1 <= k <= law.length:
        raise ValueError("k must satisfy 1 <= k <= law.length")
    n = law.length
    mixing = {m: w for m, w in law._count_numerators().items() if w}
    # a class gets sum_m mixing_m * prod_j m_j**c_j over law._den * n**k
    nums: dict[tuple[int, ...], int] = {}
    for counts in reversed([*_compositions(k, law.t)]):  # in table order
        total = 0
        for m, term in mixing.items():
            for m_j, c_j in zip(m, counts):
                if c_j:
                    term *= m_j**c_j
            total += term
        nums[counts] = total
    return SequenceLaw.__new__(SequenceLaw)._store(law.t, k, law._den * n**k, nums)


def variation_distance(a: SequenceLaw, b: SequenceLaw) -> Fraction:
    """Sum over all sequences of |P_a - P_b| (twice the largest difference
    in probability any event can get)."""
    if a.t != b.t or a.length != b.length:
        raise DimensionMismatch(
            f"laws of shape ({a.t}, {a.length}) and ({b.t}, {b.length})"
        )
    # both numerators over L = lcm(den_a, den_b): |difference| times the
    # number of sequences it stands for, summed in integers and reduced once
    den = math.lcm(a._den, b._den)
    scale_a, scale_b = den // a._den, den // b._den
    ta, tb = a._classes, b._classes
    if ta is not None and tb is not None:
        factorials = _factorials(a.length)
        rows = ((n, tb[c], _multiplicity(c, factorials)) for c, n in ta.items())
    else:
        rows = zip(a._numerators(), b._numerators(), itertools.repeat(1))
    total = sum(abs(na * scale_a - nb * scale_b) * m for na, nb, m in rows)
    return Fraction(total, den)


def df_bound(t: int, k: int, n: int) -> Fraction:
    """Distance bound 2*t*k/n for a k-draw restriction of an n-extendable
    exchangeable law against its canonical finite mixture (4k/n when
    t = 2)."""
    if not _whole(t) or t < 2:
        raise ValueError("need at least two types")
    if not _whole(k) or not _whole(n) or k < 1 or n < k:
        raise ValueError("need draws 1 <= k <= n")
    return Fraction(2 * t * k, n)


def admits_exchangeable_extension(law: SequenceLaw) -> bool:
    """Whether a binary exchangeable law of length L is the L-marginal of
    some exchangeable law of length L+1.

    Candidate extensions form a one-parameter family: writing q_j for the
    per-sequence probability of the class with j ones, any extension must
    satisfy q'_j + q'_{j+1} = q_j, so choosing q'_0 determines the rest.
    Each nonnegativity constraint is a half-line in q'_0; the family
    contains a valid law iff the intersection of all of them is nonempty,
    which this checks exactly.
    """
    if law.t != 2:
        raise ValueError("extension analysis is implemented for t = 2 only")
    if not is_exchangeable(law):
        raise ValueError("the law must be exchangeable")
    L = law.length
    # q'_j = (-1)^j x + c_j with c_0 = 0 and c_{j+1} = q_j - c_j, on the
    # numerators q_j: one positive scale for all of them moves no comparison
    lower = 0  # from j = 0: x >= 0
    upper: int | None = None
    c = 0
    for j in range(L + 1):
        c = law._classes[(L - j, j)] - c
        if (j + 1) % 2 == 0:
            lower = max(lower, -c)
        else:
            upper = c if upper is None else min(upper, c)
    assert upper is not None
    return lower <= upper
