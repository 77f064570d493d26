"""Exact computation of weighted single Hurwitz numbers.

Values are graded polynomials in the Taylor coefficients g_1, g_2, ... of
an arbitrary weight generating function, computed by three mutually
cross-validating pipelines (pair-correlator closed forms, the
character/content-product expansion, and definitional sums over
factorizations), and specialized exactly to the exponential, rational,
dual, and quantum weight models.
"""

from .algebra import GPOLY_RING, GPoly, RATIONAL_RING, Ring, eval_gpoly
from .correlator import (
    CoeffArray,
    RhoTable,
    connected_closed_form,
    connected_from_wtilde,
    connected_len1,
    connected_len2,
    connected_len3,
    connected_via_wtilde,
    nonconnected_assemble,
    rho_coeff,
    rho_series,
    wtilde_expand,
    wtilde_series,
)
from .oracle import (
    FactorizationQuery,
    errata_report,
    pure_hurwitz_char,
    pure_hurwitz_enum,
    weighted_from_definition,
)
from .partitions import (
    CapExceeded,
    Partition,
    aut_of,
    character,
    contents,
    format_partition,
    hook_product,
    parse_partition,
    partitions_of,
    sym_eval,
    z_of,
)
from .qrational import QPoly, QRat
from .series import BetaSeries, TruncationError, g_series, series_mul
from .tau import (
    HurwitzResult,
    connected_any,
    content_monomials,
    genus_slice,
    hurwitz_any,
)
from .weights import (
    QRAT_RING,
    WeightModel,
    parse_model,
    qq_pochhammer,
    qrat_pretty,
    qrat_pretty_parse,
    specialize,
    taylor_coeffs,
)

__version__ = "1.0.0"

__all__ = [
    "BetaSeries", "CapExceeded", "CoeffArray",
    "FactorizationQuery", "GPOLY_RING", "GPoly", "HurwitzResult", "Partition",
    "QPoly", "QRAT_RING", "QRat", "RATIONAL_RING", "RhoTable", "Ring",
    "TruncationError", "WeightModel", "aut_of", "character",
    "connected_any", "connected_closed_form", "connected_from_wtilde",
    "connected_len1", "connected_len2", "connected_len3", "connected_via_wtilde",
    "content_monomials", "contents", "errata_report", "eval_gpoly",
    "format_partition", "g_series", "genus_slice", "hook_product",
    "hurwitz_any", "nonconnected_assemble", "parse_model", "parse_partition",
    "partitions_of", "pure_hurwitz_char", "pure_hurwitz_enum", "qq_pochhammer",
    "qrat_pretty", "qrat_pretty_parse", "rho_coeff", "rho_series",
    "series_mul", "specialize", "sym_eval", "taylor_coeffs",
    "weighted_from_definition", "wtilde_expand", "wtilde_series", "z_of",
]
