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
names from ``exact``. ``lab`` and its names load on first use, so a
process that never touches the lab never imports it.
"""

from . import binary, errors, simplex
from .binary import *
from .errors import *
from .exact import as_rational, decimal_string
from .simplex import *

__version__ = "0.1.0"

# lab's __all__ (lab imports it from here), resolved by __getattr__ below (PEP 562)
_LAB_NAMES = (
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
)

__all__ = [
    "__version__",
    "as_rational",
    "decimal_string",
    *errors.__all__,
    *binary.__all__,
    *simplex.__all__,
    *_LAB_NAMES,
]


def __getattr__(name: str) -> object:
    if name == "lab" or name in _LAB_NAMES:
        # import_module, not "from . import lab": that looks the name up on
        # this package first, which lands back here
        from importlib import import_module

        lab = import_module(".lab", __name__)  # binds "lab" here too
        # bound once, later lookups are plain attribute reads
        globals().update((n, getattr(lab, n)) for n in _LAB_NAMES)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "lab"})
