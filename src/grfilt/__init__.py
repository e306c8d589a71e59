"""Exact filtration, associated-graded, and growth-certificate computations
for subalgebras of matrix rings over polynomial rings.

Everything runs over an exact field (rationals or a prime field) inside a
fixed degree window; results that depend on the window say so in their
verdicts instead of extrapolating.
"""

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
from .graded import GradedTrunc, ideal_chain_witness, verify_chain_report
from .bimodule import (ModuleAction, BimoduleSpec, free_rank, goldie_rank,
                       slope_table, bimodule_ranks)
from .certifier import (assemble_growth_dossier, verify_certificate,
                        GrowthCertificate)
from .dualizing import verify_dualizing, DualizingReport

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
    "GradedTrunc", "ideal_chain_witness", "verify_chain_report",
    "ModuleAction", "BimoduleSpec", "free_rank", "goldie_rank",
    "slope_table", "bimodule_ranks",
    "assemble_growth_dossier", "verify_certificate", "GrowthCertificate",
    "verify_dualizing", "DualizingReport",
]
