"""The streaming engine: K+1 cascaded accumulators, one push per sample,
and ``moment``'s reader, ``push_stream``, beside the chunk kernel it feeds.

Register k (one-based) holds a running weighted sum of the input whose
weights are binomial coefficients of degree k-1 in the sample index, so a
final weighted combination of the registers recovers sum(n**K * v[n])
without ever storing the stream. Memory is K+1 registers, plus, while
``push_stream`` reads, at most one chunk of 2048 queued samples and the
block of up to 128 lines it reads at a time, regardless of how many
samples go by. Each time a chunk fills, the reader scans it from zero,
then carries the old registers across it with the cascade's impulse
response.

A cascade is single-writer: pushes must be serialized by the caller (the
recurrence is inherently sequential). Reading ``registers`` and
``samples_seen`` and calling ``finalize`` never change the cascade and
may run concurrently with each other, but not with a push. Distinct
cascades are fully independent.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import accumulate, islice, repeat
from math import comb, inf
from operator import add, lshift, mul

from .coeffs import CoefficientSet, _check_power, coefficients_closed
from .costmodel import OpCount, predict_cascade

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

# Why Cascade._drain's lanes are 4, from K = 12, for samples below 2**256;
# _CHUNK must be a multiple of _LANES. Draining 2*10**5 samples up to 10**3
# and 10**18 (2-core Xeon VM, one pinned CPU, min of 5-7 interleaved runs,
# Python 3.10.13, 3.11.7, 3.12.1, 3.13.0 and a PGO+LTO 3.13.13), 4 lanes
# against one took 1.28-1.42x at K = 12 and 1.38-1.59x at K = 32, where 2
# lanes gave 1.30-1.44x and 8 lanes 1.06-1.45x: combining the lanes costs
# lanes * K(K+1)/2 multiplications. Lanes gave 1.08-1.30x at K = 8 and lost
# at K = 2, 0.37-0.67x, as a packed int misses CPython's one-digit fast
# path. At K = 12 and 32, 256-bit samples gave 1.14-1.32x and 1.18-1.44x,
# 512-bit ones 0.96-1.22x and 1.08-1.26x, and --float's 1094-bit ones lost,
# 0.76-0.91x and 0.91-0.95x. Only long chunks pay (Python 3.11.7, min of 5):
#   chunk of   8     16    32    64    128   256   512 samples
#   K = 12     0.26  0.36  0.39  0.32  0.64  0.85  1.11x
#   K = 32     0.31  0.33  0.39  0.44  0.58  0.86  1.06x
_LANES = 4
_LANE_MIN_K = 12
_LANE_MAX = 1 << 256


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
    too, with approximate results.
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
        self._queue: list[int] | None = None  # a list only while push_stream reads; it drains it

    def push(self, sample: int) -> None:
        """Feed one sample through the cascade.

        Register k absorbs the already-updated value of register k-1 from
        this same step, so a single ascending pass with a carried value
        realizes the whole recurrence. While ``push_stream`` reads, the
        sample is only queued, and the reader applies the queue.
        """
        queue = self._queue
        if queue is not None:
            queue.append(sample)
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
        multiplications per carry.

        At K >= 12, a full chunk of ``_CHUNK`` samples, none wider than
        256 bits, is scanned in 4 lanes packed into one int per index (see
        ``_lane_scan``): the passes add all 4 lanes at once, and the lanes'
        scans are then carried across each other in time order. That chunk
        makes 4 carries, 4*K(K+1)/2 constant multiplications, instead of
        one; any other chunk takes one lane. The result equals ``push``'s
        for ints only, whose additions are exact in any order.

        All or nothing: the registers are written only after every pass
        has finished, and in place, so ``registers`` stays the same list; a
        drain that raises (a non-int sample) leaves ``registers`` and
        ``samples_seen`` as they were."""
        queue = self._queue
        if not queue:
            return
        K = self.K
        length = len(queue)
        if (
            K >= _LANE_MIN_K
            and length == _CHUNK
            and (top := max(max(queue), -min(queue))) < _LANE_MAX
        ):
            local = _lane_scan(queue, K, top)
        else:
            local = _scan(queue, K)
        self.registers[:] = _carry(self.registers, local, length)
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


def _scan(samples: list[int], K: int) -> list[int]:
    """The K+1 registers of a cascade from zero after ``samples``: K
    ``accumulate`` passes, each turning the previous pass's values into the
    next carries, and one ``sum``."""
    local: list[int] = []
    carries = samples
    for _ in range(K):
        carries = list(accumulate(carries))
        local.append(carries[-1])
    local.append(sum(carries))
    return local


def _lane_scan(samples: list[int], K: int, top: int) -> list[int]:
    """``_scan(samples, K)`` for samples of magnitude at most ``top``, in
    _LANES lanes packed into one int per index: SIMD within a register
    (Fisher and Dietz, "Compiling for SIMD Within a Register", LCPC 1998).

    ``samples`` is one full chunk, whose length is a multiple of _LANES: b
    samples a lane. Index i holds the sum of samples[p*b + i] * 2**(F*p)
    over the lanes p, so one addition of a pass adds every lane, and each
    pass result holds the lanes' scans in F-bit fields. Those are then
    carried across each other in time order."""
    b = len(samples) // _LANES
    # Lane p's scan of b samples gives register k at most top * C(b+k, k+1)
    # in magnitude, largest at k = K, so F bits hold any lane value of any
    # pass with room for the sign.
    F = (top * comb(b + K, K + 1)).bit_length() + 2
    packed: Iterable[int] = samples[:b]
    for p in range(1, _LANES):
        packed = map(add, packed, map(lshift, samples[p * b : (p + 1) * b], repeat(F * p)))
    lanes = zip(*(_unpack(x, F) for x in _scan(list(packed), K)))
    local = next(lanes)
    for lane in lanes:
        local = _carry(local, lane, b)
    return local


def _unpack(packed: int, F: int) -> list[int]:
    """The _LANES signed F-bit fields of ``packed``, lowest first: each is
    the residue modulo 2**F centered on zero, so a negative lane value
    comes back negative and borrows from the lanes above."""
    mask = (1 << F) - 1
    half = 1 << (F - 1)
    fields = []
    for _ in range(_LANES - 1):
        field = ((packed + half) & mask) - half
        fields.append(field)
        packed = (packed - field) >> F
    fields.append(packed)
    return fields


def _carry(old: Sequence[int], local: Sequence[int], length: int) -> list[int]:
    """Registers ``old`` carried across ``length`` samples whose scan from
    zero is ``local``: register k becomes local[k] + old[k] plus
    C(length-1+k-j, k-j) * old[j] for each j < k."""
    K = len(old) - 1
    # weights[K-d] = C(length-1+d, d), one exact division a step
    weights = [1]
    for d in range(1, K + 1):
        weights.append(weights[-1] * (length - 1 + d) // d)
    weights.reverse()
    return [local[k] + old[k] + sum(map(mul, weights[K - k : K], old)) for k in range(K + 1)]


# push_stream reads at most this many lines at a time. The block's lines
# are alive while a full queue of _CHUNK samples drains, so the block is
# shorter: over 400000 lines of 3-digit samples into Cascade(2), the traced
# peak (Python 3.10-3.13) is about 240 KB without the block, 9.6 KB more
# with 128-line blocks and 113 KB more with 2048-line ones. In process over
# stream_k2's 10**6 lines (2-core Xeon VM, Python 3.11.7, one pinned CPU,
# best of 15), the reader took 0.374 s reading one line at a time, 0.34 s
# with 64- or 128-line blocks and 0.33 s with 256 to 2048.
_READ_BLOCK = 128

_ASCII_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"  # what str.strip() removes below 128


class SampleError(Exception):
    """``push_stream``'s refusal of an input line: ``line N: <reason>``."""

    def __init__(self, lineno: int, reason: str) -> None:
        super().__init__(f"line {lineno}: {reason}")


def push_stream(
    cascade: Cascade, lines: Iterable[str], parse: Callable[[str], int], limit: int | None = None
) -> None:
    """Feed data lines into a cascade, skipping blanks and '#' comments.

    ``lines`` is read by iteration only, each line once, in blocks of up
    to ``_READ_BLOCK`` lines and never more than the queue has room for,
    as a line holds at most one sample. ``cascade.push`` only queues each
    sample, and once a block fills the queue with ``_CHUNK`` samples, the
    reader drains it with ``Cascade._drain``'s C-level scans, so every
    drain but the last applies one full chunk. The reader ends by draining
    what is left, also when a parse error or an interrupt ends the stream,
    and then ``push`` applies its sample at once again, even if that drain
    raised. Until then ``registers`` and ``samples_seen`` lag the pushes,
    so nothing may read the cascade. A line that holds no sample raises
    ``SampleError``, naming the line, once its block has been read or the
    input has ended: on a live pipe, up to ``_READ_BLOCK - 1`` lines after
    the bad one.

    A ``limit`` of at least 0 is one more bound on each block: none reads
    past the line that could hold sample ``limit + 1``. That sample is
    refused as it arrives, unapplied, by a ``SampleError`` naming its line,
    so the cascade holds ``limit`` samples more than before the call.

    The kernel takes ints only: it does not make ``push``'s additions in
    ``push``'s order, so floats would not be bit-identical, while ints
    stay exact. So ``parse`` returns ints: ``int`` itself, or
    ``cli._scaled_float`` for ``--float``. Every sample is still one
    ``cascade.push`` call: the benchmark's trace (``bench/traced.py``)
    counts those calls as samples, counts lines by iterating ``lines``,
    and derives the skipped lines from the two.

    A sample is ASCII decimal text (``parse`` decides the literal form)
    with optional padding, and no ``_`` or non-ASCII character, which
    ``int`` and ``float`` would accept as digit separators and digits.

    ``lines`` given as one ``str`` raises ``TypeError`` before anything is
    pushed: iterating it would read each character as a line.
    """
    if isinstance(lines, str):
        raise TypeError("lines must be an iterable of lines, not a str")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    end = cascade.samples_seen + (inf if limit is None else limit)  # samples_seen at the limit
    lines = iter(lines)  # islice over a list would restart it
    queue = cascade._queue = []
    push = cascade.push
    try:
        # One check of the joined block for non-ASCII text and "_" spares
        # every line of a clean block its own two: over stream_k2's 10**6
        # lines, 5 ms for the joined checks against 44 ms for the per-line
        # ones (same VM). A block shorter than asked for means the input
        # ended: a further read would wait for a second EOF on a terminal.
        start = 1
        while True:
            # room for one sample past the limit (end is inf without one, never the min)
            want = min(
                _READ_BLOCK, _CHUNK - len(queue), end + 1 - cascade.samples_seen - len(queue)
            )
            block = list(islice(lines, want))
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
                            lineno = start + block.index(raw)
                            raise SampleError(lineno, f"cannot parse sample {text!r}") from None
                    push(value)
                else:
                    text = raw.strip()
                    if text and not text.startswith("#"):  # the message shows non-ASCII padding
                        lineno, text = start + block.index(raw), raw.strip(_ASCII_WHITESPACE)
                        raise SampleError(lineno, f"cannot parse sample {text!r}")
            if cascade.samples_seen + len(queue) > end:
                # every line of this block was a sample, the last one past the limit
                queue.pop()
                raise SampleError(start + want - 1, f"more samples than the {limit} expected")
            if len(queue) == _CHUNK:  # then the block read all it asked for
                cascade._drain()
            elif len(block) < want:
                break
            start += want
    finally:
        try:
            cascade._drain()
        finally:
            cascade._queue = None

