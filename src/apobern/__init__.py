"""Exact Apostol-Bernoulli / Apostol-Euler polynomials and identity checks.

Everything is computed in exact arithmetic: plain rationals in numeric
mode and rational functions of the deformation parameter in symbolic
mode.  The public surface covers the scalar fields, truncated series,
the polynomial families with their number tables, the twisted-difference
operator calculus, basis expansion, and the identity-verification suite
behind the ``apobern`` command-line tool.
"""

import types as _types
from fractions import Fraction

from .expansion import (
    BasisExpansion,
    ExpansionMethod,
    UnsupportedModeError,
    closed_form_coefficients,
    corrected_coefficients,
    expand_oracle,
    reconstruct,
)
from .families import (
    Family,
    NumberTable,
    apostol_bernoulli_numbers,
    apostol_bernoulli_poly,
    apostol_euler_numbers,
    apostol_euler_poly,
    bernoulli_numbers_by_recurrence,
    bernoulli_poly,
    euler_number_from_half_point,
    euler_numbers_by_recurrence,
    euler_poly,
    poly_by_series_extraction,
)
from .field import (
    FieldElement,
    LambdaMode,
    LambdaRatFunc,
    MixedModeError,
    NonLocalDenominatorError,
    PoleError,
    evaluate_at,
    parse_rational,
    rational,
    render_rational,
)
from .identities import (
    GridBoundsError,
    GridPoint,
    IdentityId,
    IdentityReport,
    ResultEntry,
    SuiteConfig,
    default_grid,
    default_suite_config,
    run_suite,
    verify_identity,
)
from .operators import (
    DifferencePowerMethod,
    alternating_lambda_sum,
    corrected_power_at_zero,
    d_op,
    lambda_op,
    lambda_power_at_zero,
    shift_poly,
)
from .polynomials import XPolynomial, embed_poly
from .reporting import (
    expectation_from_reports,
    expectation_mismatches,
    render_report,
    report_to_dict,
    reports_to_json,
)
from .series import NonInvertibleSeriesError, TruncatedSeries, exp_scaled_series

__version__ = "0.1.0"

# The kernels are plain Python; benchmark runs record this name.
KERNEL_IMPL = "pure"

# The public names: those imported and defined above, not the submodules.
__all__ = ["__version__", *[name for name, value in globals().items()
                            if not name.startswith("_") and not isinstance(value, _types.ModuleType)]]
