"""Exact computation of weighted single Hurwitz numbers.

Values are graded polynomials in the Taylor coefficients g_1, g_2, ... of
an arbitrary weight generating function, computed by three mutually
cross-validating pipelines (pair-correlator closed forms, the
character/content-product expansion, and definitional sums over
factorizations), and specialized exactly to the exponential, rational,
dual, and quantum weight models.

This namespace holds the public API; every other name is importable from
its submodule.  `compute` is the one request entry point: it checks the
size caps and the selection rules, then runs a pipeline.
"""

from .algebra import GPoly
from .cli import HurwitzResult, compute
from .correlator import connected_closed_form, nonconnected_assemble, rho_coeff
from .oracle import weighted_from_definition
from .partitions import CapExceeded, parse_partition
from .qrational import QRat
from .tables import errata_report
from .tau import connected_any, genus_slice, hurwitz_any
from .weights import WeightModel, parse_model, qrat_pretty, specialize

__version__ = "1.0.0"

__all__ = [
    "CapExceeded", "GPoly", "HurwitzResult", "QRat", "WeightModel",
    "compute", "connected_any", "connected_closed_form", "errata_report", "genus_slice",
    "hurwitz_any", "nonconnected_assemble", "parse_model", "parse_partition",
    "qrat_pretty", "rho_coeff", "specialize", "weighted_from_definition",
]
