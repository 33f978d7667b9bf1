"""pibench: exact decimal fixed-point pi approximations and benchmarks.

Six classical approximation families (Wallis product, Gregory-Leibniz
series, Newton's arcsine series, Euler's continued fraction, Viete's
nested radicals, and zeta-constant roots for s = 2, 4, 6, 8) evaluated
with deterministic half-even decimal arithmetic, plus a harness that
reproduces the published convergence tables and compares efficiency.
"""

from .fixedpoint import (
    BigFixed,
    PrecisionCtx,
    default_guard,
    fx_nth_root,
    fx_parse,
    fx_sqrt,
    fx_to_string,
)
from .harness import (
    ReferenceIntegrityError,
    ReferencePi,
    RunRecord,
    Schedule,
    compare,
    digits_correct,
    pct_error,
    reference_pi,
    run,
)
from .methods import MethodId, approximant, make_state

__version__ = "1.0.0"

__all__ = [
    "BigFixed",
    "PrecisionCtx",
    "default_guard",
    "fx_nth_root",
    "fx_parse",
    "fx_sqrt",
    "fx_to_string",
    "ReferenceIntegrityError",
    "ReferencePi",
    "RunRecord",
    "Schedule",
    "compare",
    "digits_correct",
    "pct_error",
    "reference_pi",
    "run",
    "MethodId",
    "approximant",
    "make_state",
]
