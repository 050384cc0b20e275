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

The ``succession`` command line fronts the same machinery. The package
re-exports the ``__all__`` of each layer and of ``errors``, plus two
names from ``exact``.
"""

from . import binary, errors, lab, simplex
from .binary import *
from .errors import *
from .exact import as_rational, decimal_string
from .lab import *
from .simplex import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "as_rational",
    "decimal_string",
    *errors.__all__,
    *binary.__all__,
    *simplex.__all__,
    *lab.__all__,
]
