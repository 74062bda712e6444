"""Streaming computation of time-index powered weighted sums.

A cascade of K+1 running-sum registers consumes a sequence one sample at
a time; after the last sample, K+1 constant multiplications combine the
register values into sum(n**K * v[n]), with exact integer arithmetic end
to end. ``Cascade.push`` stores no input and multiplies nothing;
``moment``'s reader holds at most 128 lines and 2048 queued samples.

The self-check behind ``powsum selfcheck`` is
``powsum.selfcheck.run_selfcheck``; importing the package does not load it.
"""

from .cascade import Cascade, measure_cascade
from .coeffs import (
    CoefficientSet,
    coefficient_polynomials,
    coefficients_closed,
)
from .costmodel import (
    OpCount,
    baseline_sum,
    complexity_table,
    predict_baseline,
    predict_cascade,
)
from .oracle import direct_sum

__version__ = "0.1.0"

__all__ = [
    "Cascade",
    "CoefficientSet",
    "OpCount",
    "baseline_sum",
    "coefficient_polynomials",
    "coefficients_closed",
    "complexity_table",
    "direct_sum",
    "measure_cascade",
    "predict_baseline",
    "predict_cascade",
    "__version__",
]
