"""The package's surface: its four value classes and its exports.

``Evidence``, ``BinaryPrior``, ``DirichletComponent`` and
``SimplexMixturePrior`` are plain frozen classes. Their repr, equality,
hash, field order, immutability, copies and pickles are pinned here as
literals. The package's ``__all__`` is pinned too, and ``lab`` stays
unloaded until one of its names is used.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import succession
from succession import BinaryPrior, DirichletComponent, Evidence, SimplexMixturePrior

SRC = str(Path(__file__).resolve().parents[1] / "src")

# (value, its fields in order, its repr)
VALUES = [
    (
        Evidence(10, 2),
        ("confirm", "disconfirm"),
        "Evidence(confirm=10, disconfirm=2)",
    ),
    (
        BinaryPrior.haldane(2),
        ("mass_theta1", "mass_theta0", "mass_continuous", "alpha", "beta"),
        "BinaryPrior(mass_theta1=Fraction(1, 2), mass_theta0=Fraction(0, 1), "
        "mass_continuous=Fraction(1, 2), alpha=Fraction(2, 1), beta=Fraction(1, 1))",
    ),
    (
        DirichletComponent((0, 2), (1, "1/2"), F(1, 3)),
        ("support", "params", "weight"),
        "DirichletComponent(support=(0, 2), params=(Fraction(1, 1), Fraction(1, 2)), "
        "weight=Fraction(1, 3))",
    ),
    (
        SimplexMixturePrior(3, [DirichletComponent.vertex(1, 1)]),
        ("t", "components"),
        "SimplexMixturePrior(t=3, components=(DirichletComponent(support=(1,), "
        "params=(), weight=Fraction(1, 1)),))",
    ),
]
IDS = [type(value).__name__ for value, _, _ in VALUES]


def _rebuilt(value):
    """A new instance built by the constructor from ``value``'s fields."""
    return type(value)(*(getattr(value, name) for name in value.__match_args__))


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
class TestValueClasses:
    def test_repr(self, value, fields, text):
        assert repr(value) == text

    def test_fields_in_order(self, value, fields, text):
        assert value.__match_args__ == fields
        assert type(value).__match_args__ == fields

    def test_equal_and_hash_by_fields(self, value, fields, text):
        twin = _rebuilt(value)
        assert twin is not value
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        assert hash(value) == hash(tuple(getattr(value, name) for name in fields))

    def test_not_equal_to_a_tuple_of_its_fields(self, value, fields, text):
        same_fields = tuple(getattr(value, name) for name in fields)
        assert value != same_fields
        assert not value == same_fields

    def test_assignment_and_deletion_refused(self, value, fields, text):
        for name in (*fields, "other"):
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(value, name, 0)
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(value, name)
        assert repr(value) == text

    def test_copies_and_pickles_compare_equal(self, value, fields, text):
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [
            pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in copies:
            assert type(twin) is type(value)
            assert twin == value
            assert hash(twin) == hash(value)
            assert repr(twin) == text


def test_a_field_that_differs_breaks_equality():
    assert Evidence(10, 2) != Evidence(10, 3)
    assert BinaryPrior.haldane(2) != BinaryPrior.haldane(3)
    assert DirichletComponent.vertex(0, 1) != DirichletComponent.vertex(1, 1)


def test_constructors_keep_their_keywords_and_defaults():
    assert Evidence(confirm=3) == Evidence(3, 0)
    prior = BinaryPrior(mass_theta1=0, mass_theta0=0, mass_continuous=1, beta=2)
    assert prior == BinaryPrior.laplace(1, 2)
    comp = DirichletComponent(support=[0, 1], params=[1, 1], weight=1)
    assert SimplexMixturePrior(t=2, components=[comp]).components == (comp,)


def test_the_export_list():
    assert succession.__all__ == [
        "__version__", "as_rational", "decimal_string",
        "SuccessionError", "ZeroEvidenceProbability", "UGFalsified",
        "DimensionMismatch", "InvalidRule", "SampleTooLarge", "ResourceLimit",
        "TableTooLarge",
        "Evidence", "BinaryPrior", "marginal_likelihood", "posterior_ug",
        "bayes_factor_ug", "predict_next", "predict_block",
        "exception_probability", "prior_odds_adjustment",
        "DirichletComponent", "SimplexMixturePrior", "dirichlet_predictive",
        "carnap_predictive", "sequence_marginal", "mixture_posterior",
        "mixture_predictive", "observed_type_count", "from_binary_prior",
        "SequenceLaw", "UrnComposition", "law_from_predictive",
        "is_exchangeable", "has_positive_cylinders", "satisfies_sufficientness",
        "sufficientness_witness", "urn_law", "canonical_mixture",
        "variation_distance", "df_bound", "admits_exchangeable_extension",
    ]


def test_lazy_names_are_labs_exports():
    # a name lab adds to its __all__ must be added to the lazy tuple too
    assert succession._LAB_NAMES == tuple(succession.lab.__all__)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from succession import *", namespace)
    for name in succession.__all__:
        assert namespace[name] is getattr(succession, name), name


def test_lab_names_are_labs_own():
    from succession import lab

    assert succession.lab is lab
    for name in lab.__all__:
        assert getattr(succession, name) is getattr(lab, name), name
    assert succession.urn_law is succession.lab.urn_law


def test_an_unknown_name_is_the_usual_attribute_error():
    with pytest.raises(AttributeError) as info:
        succession.no_such_name
    assert str(info.value) == "module 'succession' has no attribute 'no_such_name'"
    assert not hasattr(succession, "_no_such_name")


def test_a_bare_import_leaves_lab_unloaded():
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import succession; "
        "loaded = 'succession.lab' in sys.modules; "
        "listed = {*succession.__all__, 'lab'} <= set(dir(succession)); "
        "succession.urn_law; "
        "bound = all(n in vars(succession) for n in succession._LAB_NAMES); "
        "print(loaded, listed, 'succession.lab' in sys.modules, bound)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    # dir() lists the lab names before they load; the first use binds them all
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False True True True\n", "")
