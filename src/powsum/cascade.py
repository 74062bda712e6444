"""The streaming engine: K+1 cascaded accumulators, one push per sample.

Register k (one-based) holds a running weighted sum of the input whose
weights are binomial coefficients of degree k-1 in the sample index, so a
final weighted combination of the registers recovers sum(n**K * v[n])
without ever storing the stream. Memory is K+1 registers, plus at most
one chunk of queued samples while ``moment``'s reader runs, regardless of
how many samples go by.

A cascade is single-writer: pushes must be serialized by the caller (the
recurrence is inherently sequential). ``snapshot`` and ``finalize`` never
mutate the registers and may run concurrently with each other, but not
with a push. Distinct cascades are fully independent.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import reduce
from itertools import accumulate
from operator import add, mul
from typing import Iterator, Sequence

from .coeffs import CoefficientSet, coefficients_closed
from .costmodel import Counted, OpCount, predict_cascade

# Samples queued inside _batched() before the registers advance. A drain
# holds up to three lists of this length. Reading 2*10**5 samples up to 10**18 into
# Cascade(32) in process (2-core Xeon VM, Python 3.11), chunks of 256, 512,
# 1024 and 4096 raised the peak RSS by 0.2, 0.4, 0.7 and 1.4 MB and took
# 0.63, 0.60, 0.58 and 0.57 s, against 0.81 s pushing each sample at once.
_CHUNK = 512


class Cascade:
    """K+1 accumulator registers plus a sample count.

    ``registers[k-1]`` is the k-th accumulator output for the samples
    pushed so far, ``registers[0]`` the plain running sum, and
    ``samples_seen`` counts those samples. Both are plain attributes that
    only pushes write, so no read changes the cascade. Samples are
    normally ints, which keeps every result exact. Floats may be pushed
    too, with approximate results, and :class:`~powsum.costmodel.Counted`
    samples count the operations the cascade performs on them.
    """

    def __init__(self, K: int) -> None:
        if K < 0:
            raise ValueError("power K must be non-negative")
        self.K = K
        self.registers: list[int] = [0] * (K + 1)
        self.samples_seen = 0
        self._indices = range(K + 1)  # built once, not on every push
        self._queue: list[int] | None = None  # a list only inside _batched()

    def push(self, sample: int) -> None:
        """Feed one sample through the cascade.

        Register k absorbs the already-updated value of register k-1 from
        this same step, so a single ascending pass with a carried value
        realizes the whole recurrence. Inside ``_batched()`` the sample is
        queued instead, and a full queue is applied.
        """
        queue = self._queue
        if queue is not None:
            queue.append(sample)
            if len(queue) >= _CHUNK:
                self._drain()
            return
        registers = self.registers
        carry = sample
        for k in self._indices:
            carry = registers[k] = registers[k] + carry
        self.samples_seen += 1

    @contextmanager
    def _batched(self) -> Iterator[None]:
        """Queue pushed samples and advance the registers a chunk at a time:
        one C-level ``accumulate`` pass per register instead of a Python
        loop per sample, with the same additions in the same order. Leaving
        the block, by an exception too, applies every queued sample.

        Inside the block ``registers`` and ``samples_seen`` lag the pushes,
        so nothing may read the cascade there. Its only users,
        ``cli.push_stream`` and ``selfcheck``, do nothing in it but push
        ints, so every queued chunk applies in full."""
        self._queue = []
        try:
            yield
        finally:
            try:
                self._drain()
            finally:
                self._queue = None

    def _drain(self) -> None:
        """Apply the queued samples: pass k turns the queue's carries into
        register k's successive values, each ``registers[k] + carry`` as in
        ``push``, and its output is the carry sequence of pass k+1."""
        queue = self._queue
        if not queue:
            return
        registers = self.registers
        carries: list[int] = queue
        for k in self._indices:
            values = accumulate(carries, initial=registers[k])
            next(values)  # the register's value before the chunk
            carries = list(values)
            registers[k] = carries[-1]
        self.samples_seen += len(queue)
        queue.clear()

    def snapshot(self) -> list[int]:
        """Current register values A_1..A_{K+1}, as a new list."""
        return list(self.registers)

    def finalize(self, coeffs: CoefficientSet) -> int:
        """Combine the registers into sum(n**P * v[n]) over the samples
        pushed so far, for the power P = coeffs.K <= K.

        Non-destructive: the cascade can keep streaming afterwards and be
        finalized again, so running per-sample outputs are possible even
        though the usual pattern is a single combination after the last
        sample. ``coeffs`` must be for the current sample count.
        """
        if coeffs.K > self.K:
            raise self._power_error(coeffs.K)
        n = self.samples_seen
        if coeffs.N != n:
            raise ValueError(f"coefficients are for N={coeffs.N}, cascade has seen {n} samples")
        # The combination for power P reads only registers 1..P+1 (map stops
        # at the P+1 weights), so one cascade serves every power up to its
        # own. The products are added left to right, as a loop adds them;
        # sum() compensates float additions from Python 3.12 on, which would
        # change the results of floats pushed through the library.
        return reduce(add, map(mul, coeffs.coeffs, self.registers))

    def _power_error(self, power: int) -> ValueError:
        return ValueError(f"coefficients are for power {power}, cascade has power {self.K}")

    def moment_with_ops(self, power: int) -> tuple[int, OpCount]:
        """``finalize(coefficients_closed(power, N))`` and the cost model's
        ``predict_cascade(power, N)``, for the N samples pushed so far.

        A power above the cascade's raises ``ValueError`` before any
        coefficients are built; ``coefficients_closed`` refuses a negative
        one before it builds anything."""
        if power > self.K:
            raise self._power_error(power)
        n = self.samples_seen
        return self.finalize(coefficients_closed(power, n)), predict_cascade(power, n)


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
