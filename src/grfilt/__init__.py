"""Exact filtration, associated-graded, and growth-certificate computations
for subalgebras of matrix rings over polynomial rings.

Everything runs over an exact field (rationals or a prime field) inside a
fixed degree window; results that depend on the window say so in their
verdicts instead of extrapolating.

The core modules load with the package; graded, bimodule, certifier and
dualizing are compiled and run only when first touched.
"""

import importlib.util
import sys

from .fields import QQ, PrimeField, field_from_name
from .poly import Poly
from .linspace import (Ambient, Subspace, Inconclusive, DegreeOverflowError,
                       restrict_degree, sum_spaces)
from .workbench import (make, CATALOG, ExampleRing, AlgebraPresentation,
                        quotient_iso_check, staircase_quotient_context)
from .filtration import (Filtration, HilbertTable, hilbert,
                         standard_filtration, weak_adic_filtration,
                         two_sided_closure, induced_quotient_filtration,
                         equivalence_offset, TruncationError, WindowExceeded)

_ON_DEMAND = {
    "graded": ("GradedTrunc", "ideal_chain_witness", "verify_chain_report"),
    "bimodule": ("ModuleAction", "free_rank", "goldie_rank", "slope_table",
                 "bimodule_ranks"),
    "certifier": ("assemble_growth_dossier", "verify_certificate",
                  "GrowthCertificate"),
    "dualizing": ("verify_dualizing", "DualizingReport"),
}


def _register(name):
    """Put grfilt.<name> in sys.modules; its body runs when first used."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


graded, bimodule, certifier, dualizing = map(_register, _ON_DEMAND)


def __getattr__(name):
    for modname, names in _ON_DEMAND.items():
        if name in names:
            return getattr(globals()[modname], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "QQ", "PrimeField", "field_from_name", "Poly",
    "Ambient", "Subspace", "Inconclusive", "DegreeOverflowError",
    "restrict_degree", "sum_spaces",
    "make", "CATALOG", "ExampleRing", "AlgebraPresentation",
    "quotient_iso_check", "staircase_quotient_context",
    "Filtration", "HilbertTable", "hilbert",
    "standard_filtration", "weak_adic_filtration",
    "two_sided_closure", "induced_quotient_filtration",
    "equivalence_offset", "TruncationError", "WindowExceeded",
    *(n for names in _ON_DEMAND.values() for n in names),
]
