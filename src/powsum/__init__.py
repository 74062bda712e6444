"""Streaming computation of time-index powered weighted sums.

A cascade of K+1 running-sum registers consumes a sequence one sample at
a time; after the last sample, K+1 constant multiplications combine the
register values into sum(n**K * v[n]). No buffering of the input, no
multiplication inside the streaming loop, and exact integer arithmetic
end to end.
"""

from .cascade import Cascade, measure_cascade
from .coeffs import (
    CoefficientSet,
    coefficient_polynomials,
    coefficients_closed,
)
from .costmodel import (
    AdditionChain,
    ComplexityReport,
    OpCount,
    baseline_sum,
    chain_power,
    complexity_table,
    optimal_chain,
    predict_baseline,
    predict_cascade,
)
from .oracle import direct_sum
from .selfcheck import run_selfcheck

__version__ = "0.1.0"

__all__ = [
    "AdditionChain",
    "Cascade",
    "CoefficientSet",
    "ComplexityReport",
    "OpCount",
    "baseline_sum",
    "chain_power",
    "coefficient_polynomials",
    "coefficients_closed",
    "complexity_table",
    "direct_sum",
    "measure_cascade",
    "optimal_chain",
    "predict_baseline",
    "predict_cascade",
    "run_selfcheck",
    "__version__",
]
