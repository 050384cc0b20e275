"""Exact Bayesian predictive probabilities for enumerative induction.

Three layers, all in exact rational arithmetic:

* :mod:`succession.binary` - rules of succession for a claim whose
  instances confirm or disconfirm it, under priors mixing point masses at
  certainty with a continuous Beta component;
* :mod:`succession.simplex` - the t-type generalization with
  mixture-of-Dirichlet priors over faces of the probability simplex;
* :mod:`succession.lab` - a desk-scale laboratory that materializes
  complete sequence laws to verify structural properties
  (exchangeability, sufficientness, finite mixture representations)
  by inspection.

The ``succession`` command line fronts the same machinery.
"""

from .binary import (
    BinaryPrior,
    Evidence,
    bayes_factor_ug,
    exception_probability,
    marginal_likelihood,
    posterior_theta_params,
    posterior_ug,
    predict_block,
    predict_next,
    prior_odds_adjustment,
)
from .errors import (
    DimensionMismatch,
    InvalidRule,
    NoContinuousComponent,
    SampleTooLarge,
    SuccessionError,
    TableTooLarge,
    UGFalsified,
    ZeroEvidenceProbability,
)
from .exact import Rational, as_rational, decimal_string
from .lab import (
    SequenceLaw,
    UrnComposition,
    admits_exchangeable_extension,
    canonical_mixture,
    df_bound,
    has_positive_cylinders,
    is_exchangeable,
    law_from_predictive,
    satisfies_sufficientness,
    sufficientness_witness,
    urn_law,
    variation_distance,
)
from .simplex import (
    DirichletComponent,
    MultinomialCounts,
    SimplexMixturePrior,
    carnap_predictive,
    dirichlet_predictive,
    from_binary_prior,
    mixture_posterior,
    mixture_predictive,
    observed_type_count,
    sequence_marginal,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact plumbing
    "Rational",
    "as_rational",
    "decimal_string",
    # errors
    "SuccessionError",
    "ZeroEvidenceProbability",
    "UGFalsified",
    "NoContinuousComponent",
    "DimensionMismatch",
    "InvalidRule",
    "SampleTooLarge",
    "TableTooLarge",
    # binary succession
    "Evidence",
    "BinaryPrior",
    "marginal_likelihood",
    "posterior_ug",
    "bayes_factor_ug",
    "predict_next",
    "predict_block",
    "exception_probability",
    "prior_odds_adjustment",
    "posterior_theta_params",
    # simplex inference
    "MultinomialCounts",
    "DirichletComponent",
    "SimplexMixturePrior",
    "dirichlet_predictive",
    "carnap_predictive",
    "sequence_marginal",
    "mixture_posterior",
    "mixture_predictive",
    "observed_type_count",
    "from_binary_prior",
    # exchangeability lab
    "SequenceLaw",
    "UrnComposition",
    "law_from_predictive",
    "is_exchangeable",
    "has_positive_cylinders",
    "satisfies_sufficientness",
    "sufficientness_witness",
    "urn_law",
    "canonical_mixture",
    "variation_distance",
    "df_bound",
    "admits_exchangeable_extension",
]
