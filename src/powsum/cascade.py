"""The streaming engine: K+1 cascaded accumulators, one push per sample,
and ``moment``'s reader, ``push_stream``, beside the chunk kernel it feeds.

Register k (one-based) holds a running weighted sum of the input whose
weights are binomial coefficients of degree k-1 in the sample index, so a
final weighted combination of the registers recovers sum(n**K * v[n])
without ever storing the stream. Memory is K+1 registers, plus, while
``push_stream`` reads, at most one chunk of 2048 queued samples and the
block of up to 128 lines it reads at a time, regardless of how many
samples go by; on a live pipe the reader reports a parse error once the
bad line's block has been read, or at the end of input. The reader
advances the registers a chunk at a time: it scans the chunk from zero,
then carries the old registers across it with the cascade's impulse
response.

A cascade is single-writer: pushes must be serialized by the caller (the
recurrence is inherently sequential). Reading ``registers`` and
``samples_seen`` and calling ``finalize`` never change the cascade and
may run concurrently with each other, but not with a push. Distinct
cascades are fully independent.
"""

from __future__ import annotations

from itertools import accumulate, count, islice
from typing import Callable, Iterable, Sequence

from .coeffs import CoefficientSet, _check_power, coefficients_closed
from .costmodel import Counted, OpCount, predict_cascade

# Samples push_stream queues before the registers advance. A drain holds
# up to three lists of this length, of ints as wide as the chunk's own
# scan needs. Draining 10**6 samples up to 10**3 into Cascade(2) and
# 2*10**5 samples up to 10**18 into Cascade(32) (2-core Xeon VM, Python
# 3.11.7, one pinned CPU, best of 7), chunks of 512, 1024, 2048 and 4096
# took 0.067, 0.060, 0.059 and 0.056 s at K = 2 and 0.28, 0.24, 0.24 and
# 0.23 s at K = 32, against 0.100 and 0.27 s for 512-sample chunks scanned
# from the registers. Through moment's reader the same chunks raised the
# peak RSS by 0.0, 0.0, 0.1 and 0.25 MB at K = 2 and by 0.1, 0.25, 0.6 and
# 1.0 MB at K = 32.
_CHUNK = 2048


class Cascade:
    """K+1 accumulator registers plus a sample count.

    ``registers[k-1]`` is the k-th accumulator output for the samples
    pushed so far, ``registers[0]`` the plain running sum, and
    ``samples_seen`` counts those samples. They are the whole streaming
    state, and the read API: plain attributes that only pushes write,
    updated in place, so copy ``registers`` with ``list(...)`` to keep a
    value across later pushes. ``finalize`` never writes them. Reads may
    run concurrently with each other, but not with a push. Samples are
    normally ints, which keeps every result exact. Floats may be pushed
    too, with approximate results, and :class:`~powsum.costmodel.Counted`
    samples count the operations the cascade performs on them.
    """

    def __init__(self, K: int) -> None:
        _check_power(K)
        self.K = K
        self.registers: list[int] = [0] * (K + 1)
        self.samples_seen = 0
        # Built once, not on every push: at K = 8, 2*10**4 pushes took 513 ns
        # a push (best of 15) against 568 ns with range(self.K + 1) in push
        # (2-core Xeon VM, Python 3.11.7, one pinned CPU).
        self._indices = range(K + 1)
        self._queue: list[int] | None = None  # a list only while push_stream reads

    def push(self, sample: int) -> None:
        """Feed one sample through the cascade.

        Register k absorbs the already-updated value of register k-1 from
        this same step, so a single ascending pass with a carried value
        realizes the whole recurrence. While ``push_stream`` reads, the
        sample is queued instead, and a full queue is applied.
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

    def _drain(self) -> None:
        """Apply the queued samples, as a two-level scan (Blelloch,
        CMU-CS-90-190): scan the chunk of L samples from zero, then carry
        the old registers across it.

        Passes 0..K-1 are ``accumulate`` scans from zero, each turning the
        previous pass's values into the next carries, and the last pass is
        one ``sum``; so a chunk's ints are as wide as the chunk needs, not
        as wide as the registers. A register value R_j before the chunk
        reaches register k after it with the cascade's impulse response
        C(L-1+k-j, k-j), so register k becomes its local scan plus R_k
        plus C(L-1+k-j, k-j) * R_j for each j < k: K(K+1)/2 constant
        multiplications per chunk. The result equals ``push``'s for ints
        only, whose additions are exact in any order.

        All or nothing: the registers are written only after every pass
        has finished, so a drain that raises (a non-int sample) leaves
        ``registers`` and ``samples_seen`` as they were."""
        queue = self._queue
        if not queue:
            return
        K = self.K
        local: list[int] = []  # each register's scan of the chunk from zero
        carries: list[int] = queue
        for _ in range(K):
            carries = list(accumulate(carries))
            local.append(carries[-1])
        local.append(sum(carries))
        # weights[d] = C(L-1+d, d), one exact division a step
        length = len(queue)
        weights = [1]
        for d in range(1, K + 1):
            weights.append(weights[-1] * (length - 1 + d) // d)
        # from the top register down, so that each step reads old registers
        registers = self.registers
        for k in range(K, -1, -1):
            total = local[k] + registers[k]
            for j in range(k):
                total += weights[k - j] * registers[j]
            registers[k] = total
        self.samples_seen += length
        queue.clear()

    def finalize(self, coeffs: CoefficientSet) -> int:
        """Combine the registers into sum(n**P * v[n]) over the samples
        pushed so far, for the power P = coeffs.K <= K.

        Non-destructive: the cascade can keep streaming afterwards and be
        finalized again, so running per-sample outputs are possible even
        though the usual pattern is a single combination after the last
        sample. ``coeffs`` must be a :class:`CoefficientSet` for the current
        sample count: any other type raises ``TypeError``, since only the
        constructor and ``coefficients_closed`` guarantee exact int
        coefficients, K+1 of them for an int power K.
        """
        if type(coeffs) is not CoefficientSet:
            raise TypeError(f"coefficients must be a CoefficientSet, got {type(coeffs).__name__}")
        power, length, weights = coeffs
        if power > self.K:
            raise self._power_error(power)
        n = self.samples_seen
        if length != n:
            raise ValueError(f"coefficients are for N={length}, cascade has seen {n} samples")
        # The combination for power P reads only registers 1..P+1, so one
        # cascade serves every power up to its own. A plain loop over ints
        # makes no C-level call per term, unlike reduce(add, map(mul, ...)).
        # It starts from the first product, not from 0, so a float result
        # is the left-to-right sum of the same products, -0.0 included;
        # sum() compensates float additions from Python 3.12 on, which
        # would change the results of floats pushed through the library.
        registers = self.registers
        total = weights[0] * registers[0]
        for k in range(1, power + 1):
            total += weights[k] * registers[k]
        return total

    def _power_error(self, power: int) -> ValueError:
        return ValueError(f"coefficients are for power {power}, cascade has power {self.K}")

    def moment_with_ops(self, power: int) -> tuple[int, OpCount]:
        """``finalize(coefficients_closed(power, N))`` and the cost model's
        ``predict_cascade(power, N)``, for the N samples pushed so far.

        Not part of the library's API: it is kept only because
        ``bench/traced.py`` wraps it by name, and it goes when ROADMAP item
        1 releases that wrapping. A power above the cascade's raises
        ``ValueError`` before any coefficients are built;
        ``coefficients_closed`` refuses a negative one before it builds
        anything."""
        if power > self.K:
            raise self._power_error(power)
        n = self.samples_seen
        return self.finalize(coefficients_closed(power, n)), predict_cascade(power, n)


# push_stream reads this many lines at a time. The block's lines are alive
# while a full queue of _CHUNK samples drains, so the block is shorter: over
# 400000 lines of 3-digit samples into Cascade(2), the traced peak (Python
# 3.10-3.13) is about 240 KB without the block, 9.6 KB more with 128-line
# blocks and 113 KB more with 2048-line ones. In process over stream_k2's
# 10**6 lines (2-core Xeon VM, Python 3.11.7, one pinned CPU, best of 15),
# the reader took 0.374 s reading one line at a time, 0.34 s with 64- or
# 128-line blocks and 0.33 s with 256 to 2048.
_READ_BLOCK = 128

_ASCII_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"  # what str.strip() removes below 128


class SampleParseError(Exception):
    def __init__(self, lineno: int, text: str) -> None:
        super().__init__(f"line {lineno}: cannot parse sample {text!r}")


def push_stream(cascade: Cascade, lines: Iterable[str], parse: Callable[[str], int]) -> None:
    """Feed data lines into a cascade, skipping blanks and '#' comments.

    ``lines`` is read a block of ``_READ_BLOCK`` lines at a time, by
    iteration only, and each line once. While it reads, ``cascade.push``
    queues each sample, and a full queue of ``_CHUNK`` samples advances
    the registers with ``Cascade._drain``'s C-level scans instead of a
    Python loop per sample. The reader ends by draining what is left,
    also when a parse error or an interrupt ends the stream, and then
    ``push`` applies its sample at once again, even if that drain raised.
    Until then ``registers`` and ``samples_seen`` lag the pushes, so
    nothing may read the cascade; besides the block of lines being read,
    at most ``_CHUNK`` samples wait in the queue. A parse error is raised
    once its block has been read, or the input has ended: on a live pipe,
    up to ``_READ_BLOCK - 1`` lines after the bad one.

    The kernel takes ints only: it does not make ``push``'s additions in
    ``push``'s order, so floats would not be bit-identical and a
    ``Counted`` tally would change, while ints stay exact. So ``parse``
    returns ints: ``int`` itself, or ``cli._scaled_float`` for
    ``--float``. Every sample is still one ``cascade.push`` call: the
    benchmark's trace (``bench/traced.py``) counts those calls as
    samples, counts lines by iterating ``lines``, and derives the skipped
    lines from the two.

    A sample is ASCII decimal text (``parse`` decides the literal form)
    with optional padding, and no ``_`` or non-ASCII character, which
    ``int`` and ``float`` would accept as digit separators and digits.

    ``lines`` given as one ``str`` raises ``TypeError`` before anything is
    pushed: iterating it would read each character as a line.
    """
    if isinstance(lines, str):
        raise TypeError("lines must be an iterable of lines, not a str")
    lines = iter(lines)  # islice over a list would restart it
    cascade._queue = []
    push = cascade.push
    try:
        # One check of the joined block for non-ASCII text and "_" spares
        # every line of a clean block its own two: over stream_k2's 10**6
        # lines, 5 ms for the joined checks against 44 ms for the per-line
        # ones (same VM). A block shorter than _READ_BLOCK means the input
        # ended: a further read would wait for a second EOF on a terminal.
        for start in count(1, _READ_BLOCK):
            block = list(islice(lines, _READ_BLOCK))
            joined = "".join(block)
            clean = joined.isascii() and "_" not in joined
            del joined  # at most one copy of the block's text besides its lines
            for raw in block:
                # An error names start + block.index(raw): an equal line
                # earlier in the block parses alike, so it would have raised
                # first, and the index is the bad line's own.
                if clean or (raw.isascii() and "_" not in raw):
                    # int() and float() skip the padding and the newline themselves
                    try:
                        value = parse(raw)
                    except ValueError:
                        text = raw.strip()
                        if not text or text.startswith("#"):
                            continue
                        # str.strip() also removes \x1c-\x1f, which int() and float() keep
                        try:
                            value = parse(text)
                        except ValueError:
                            raise SampleParseError(start + block.index(raw), text) from None
                    push(value)
                else:
                    text = raw.strip()
                    if text and not text.startswith("#"):  # the message shows non-ASCII padding
                        lineno = start + block.index(raw)
                        raise SampleParseError(lineno, raw.strip(_ASCII_WHITESPACE))
            if len(block) < _READ_BLOCK:
                break
    finally:
        try:
            cascade._drain()
        finally:
            cascade._queue = None


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
