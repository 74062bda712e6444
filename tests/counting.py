"""The operation-counting kit: the counted operand, the runtime-
exponentiation baseline, and the measurement of the real cascade, which
check the predictions of ``powsum.costmodel`` against what code does.

The package predicts the counts; these helpers measure them. The file's
name does not match ``test_*.py``, so pytest does not collect it.

Counting is a property of the operands, not of the algorithm: run the
real code over :class:`Counted` values and the tally records exactly the
operations that code performed. The conventions:

* counted + counted is an addition; an addition into a plain ``0`` is
  free, so the first sample landing in zeroed registers costs nothing,
  and a cascade over N samples costs exactly (K+1)N - 1 additions
  including the K additions of the final combination;
* counted * counted is a general multiplication; plain int * counted is
  a constant multiplication (one fixed, precomputable operand);
* coefficient precomputation is not counted -- the coefficients depend
  only on (K, N) and are evaluated once, outside the streaming loop;
* the exponentiation baseline pays, per sample, the optimal-chain cost
  of n^K plus one general multiplication by v[n]. Complexity figures for
  such baselines are quoted both with and without the multiplication by
  v[n], so reports carry both the chain-only and the inclusive totals.

Counted samples go through ``Cascade.push`` and ``finalize``, the
paper's algorithm. ``moment``'s reader, ``push_stream``, takes ints
only: its chunk kernel does not make ``push``'s additions, so it would
change the tally.
"""

from __future__ import annotations

from collections.abc import Sequence

from powsum.cascade import Cascade
from powsum.coeffs import _check_power, coefficients_closed
from powsum.costmodel import OpCount, optimal_chain


class Counted:
    """An integer that records the arithmetic done on it in ``ops``.

    Results are new ``Counted`` values sharing the same tally, so every
    operation downstream of a counted input is counted too.
    """

    __slots__ = ("value", "ops")

    def __init__(self, value: int, ops: OpCount) -> None:
        self.value = value
        self.ops = ops

    def __add__(self, other: Counted | int) -> Counted:
        if isinstance(other, Counted):
            other = other.value
        elif other == 0:
            return self
        self.ops.additions += 1
        return Counted(self.value + other, self.ops)

    __radd__ = __add__

    def __mul__(self, other: Counted | int) -> Counted:
        if isinstance(other, Counted):
            self.ops.general_mults += 1
            return Counted(self.value * other.value, self.ops)
        self.ops.constant_mults += 1
        return Counted(other * self.value, self.ops)

    __rmul__ = __mul__

    def __int__(self) -> int:
        return self.value


def baseline_sum(v: Sequence[int], K: int) -> tuple[int, OpCount]:
    """The same value as :func:`~powsum.oracle.direct_sum`, costed as a
    streaming baseline that raises every index to the K-th power at
    runtime.

    Per sample: len(optimal_chain(K)) chain multiplications plus one
    general multiplication by v[n] when K >= 1; no multiplications at all
    when K == 0. Every sample pays full price, including n = 0 -- a real
    streaming implementation would not special-case it. Accumulation
    costs N - 1 additions.
    """
    _check_power(K)
    ops = OpCount()
    steps = optimal_chain(K) if K >= 1 else None
    total: Counted | int = 0
    for n, sample in enumerate(v):
        term = Counted(sample, ops)
        if steps is not None:
            powers = [Counted(n, ops)]
            for a, b in steps:
                powers.append(powers[a] * powers[b])
            term = powers[-1] * term
        total += term
    return int(total), ops


def measure_cascade(v: Sequence[int], K: int) -> OpCount:
    """Run the real cascade over ``v`` as counted operands and return the
    operations it performed (pushes plus one final combination). Empty
    input measures as all zeros."""
    ops = OpCount()
    cascade = Cascade(K)
    for sample in v:
        cascade.push(Counted(sample, ops))
    if cascade.samples_seen:
        cascade.finalize(coefficients_closed(K, cascade.samples_seen))
    return ops
