import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powsum import cascade as cascade_module
from powsum import coeffs as coeffs_module
from powsum.cascade import Cascade, push_stream
from powsum.coeffs import coefficients_closed
from powsum.costmodel import OpCount
from powsum.oracle import direct_sum

from tests.counting import Counted
from tests.helpers import reference_finalize

samples = st.integers(-(10**6), 10**6)


def run_cascade(K, v):
    cascade = Cascade(K)
    for sample in v:
        cascade.push(sample)
    return cascade


class TestConstruction:
    @pytest.mark.parametrize("K", [0, 2, 7])
    def test_fresh_registers_are_zero(self, K):
        cascade = Cascade(K)
        assert cascade.registers == [0] * (K + 1)
        assert cascade.samples_seen == 0

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            Cascade(-1)


class TestPush:
    def test_register_evolution(self):
        cascade = Cascade(2)
        seen = []
        for sample in [3, 1, 4]:
            cascade.push(sample)
            seen.append(list(cascade.registers))
        assert seen == [[3, 3, 3], [4, 7, 10], [8, 15, 25]]

    def test_k0_is_running_sum(self):
        cascade = run_cascade(0, [5, 7])
        assert cascade.registers == [12]

    def test_unit_impulse_second_register_counts_up(self):
        cascade = Cascade(1)
        first_register, second_register = [], []
        for sample in [1, 0, 0, 0]:
            cascade.push(sample)
            a1, a2 = cascade.registers
            first_register.append(a1)
            second_register.append(a2)
        assert first_register == [1, 1, 1, 1]
        assert second_register == [1, 2, 3, 4]

    def test_first_register_is_plain_sum(self):
        rng = random.Random(3)
        v = [rng.randint(-50, 50) for _ in range(25)]
        assert run_cascade(4, v).registers[0] == sum(v)


class TestImpulseResponse:
    def test_registers_are_binomial_weights(self):
        for K in range(7):
            for m in range(6):
                for N in range(m + 1, m + 8):
                    impulse = [1 if n == m else 0 for n in range(N)]
                    registers = run_cascade(K, impulse).registers
                    expected = [
                        math.comb((N - 1 - m) + k - 1, k - 1) for k in range(1, K + 2)
                    ]
                    assert registers == expected, (K, m, N)


class TestConvolutionForm:
    def test_registers_match_weighted_sums(self):
        rng = random.Random(7)
        for K in range(6):
            for N in (1, 2, 5, 13, 20):
                v = [rng.randint(-(10**6), 10**6) for _ in range(N)]
                registers = run_cascade(K, v).registers
                for k in range(1, K + 2):
                    expected = sum(
                        math.comb(N - n + k - 2, k - 1) * v[n] for n in range(N)
                    )
                    assert registers[k - 1] == expected, (K, N, k)


class TestLinearity:
    @given(
        pairs=st.lists(st.tuples(samples, samples), min_size=1, max_size=40),
        alpha=st.integers(-50, 50),
        beta=st.integers(-50, 50),
        K=st.integers(0, 6),
    )
    def test_cascade_is_linear(self, pairs, alpha, beta, K):
        u = [p[0] for p in pairs]
        w = [p[1] for p in pairs]
        mixed = run_cascade(K, [alpha * a + beta * b for a, b in pairs]).registers
        from_u = run_cascade(K, u).registers
        from_w = run_cascade(K, w).registers
        assert mixed == [alpha * a + beta * b for a, b in zip(from_u, from_w)]


class TestFinalize:
    def test_known_value(self):
        cascade = run_cascade(2, [3, 1, 4])
        assert cascade.finalize(coefficients_closed(2, 3)) == 17

    def test_power_zero_reduces_to_plain_sum(self):
        cascade = run_cascade(0, [5, 7])
        assert cascade.finalize(coefficients_closed(0, 2)) == 12

    def test_valid_below_uniqueness_threshold(self):
        cascade = run_cascade(2, [5, 7])
        assert cascade.finalize(coefficients_closed(2, 2)) == 7

    def test_is_non_destructive(self):
        cascade = run_cascade(3, [2, -1, 8])
        coeffs = coefficients_closed(3, 3)
        before = list(cascade.registers)
        assert cascade.finalize(coeffs) == cascade.finalize(coeffs)
        assert cascade.registers == before
        assert cascade.samples_seen == 3

    def test_streaming_continues_after_finalize(self):
        cascade = Cascade(2)
        v = [4, -2, 9, 9, -7]
        for prefix_len, sample in enumerate(v, start=1):
            cascade.push(sample)
            result = cascade.finalize(coefficients_closed(2, prefix_len))
            assert result == direct_sum(v[:prefix_len], 2)

    def test_mismatched_power_rejected(self):
        cascade = run_cascade(2, [1, 2])
        with pytest.raises(ValueError):
            cascade.finalize(coefficients_closed(3, 2))

    def test_mismatched_length_rejected(self):
        cascade = run_cascade(2, [1, 2])
        with pytest.raises(ValueError):
            cascade.finalize(coefficients_closed(2, 3))

    # a bare tuple, whatever it holds: too few coefficients, a bool power,
    # or the very values of coefficients_closed(2, 3)
    @pytest.mark.parametrize("coeffs", [(2, 3, (1,)), (True, 3, (3, -1)), (2, 3, (9, -7, 2))])
    def test_anything_but_a_coefficient_set_rejected(self, coeffs):
        cascade = run_cascade(2, [3, 1, 4])
        with pytest.raises(TypeError, match="^coefficients must be a CoefficientSet, got tuple$"):
            cascade.finalize(coeffs)

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            Cascade(2).finalize(coefficients_closed(2, 1))

    @given(
        v=st.lists(samples, min_size=1, max_size=48),
        K=st.integers(0, 8),
    )
    def test_matches_direct_sum(self, v, K):
        cascade = run_cascade(K, v)
        assert cascade.finalize(coefficients_closed(K, len(v))) == direct_sum(v, K)

    @given(v=st.lists(samples, min_size=1, max_size=32), K=st.integers(0, 6))
    def test_every_prefix_is_correct(self, v, K):
        cascade = Cascade(K)
        for length, sample in enumerate(v, start=1):
            cascade.push(sample)
            assert cascade.finalize(coefficients_closed(K, length)) == direct_sum(
                v[:length], K
            )


class TestFinalizeMany:
    """One pass serves every power up to K: finalize with the coefficients
    of a lower power."""

    def test_multiple_powers_from_one_pass(self):
        cascade = run_cascade(2, [3, 1, 4])
        assert [cascade.finalize(coefficients_closed(p, 3)) for p in (0, 1, 2)] == [8, 9, 17]

    def test_single_lower_power(self):
        cascade = run_cascade(3, [1, 1, 1, 1])
        assert cascade.finalize(coefficients_closed(1, 4)) == 6

    def test_power_above_cascade_rejected(self):
        cascade = run_cascade(1, [1, 1])
        with pytest.raises(ValueError):
            cascade.finalize(coefficients_closed(2, 2))
        with pytest.raises(ValueError):
            cascade.moment_with_ops(2)

    @pytest.mark.parametrize("power", [2, 1500, -1])
    def test_moment_with_ops_refuses_before_building_coefficients(self, power):
        cascade = run_cascade(1, [1])
        coeffs_module._latest.clear()
        with pytest.raises(ValueError):
            cascade.moment_with_ops(power)
        assert list(coeffs_module._latest) == []  # no set was built and kept

    def test_moment_with_ops_refusal_names_both_powers(self):
        message = "^coefficients are for power 3, cascade has power 1$"
        with pytest.raises(ValueError, match=message):
            run_cascade(1, [1]).moment_with_ops(3)

    def test_agrees_with_direct_sums(self):
        rng = random.Random(23)
        v = [rng.randint(-1000, 1000) for _ in range(17)]
        cascade = run_cascade(5, v)
        powers = [5, 0, 3, 3]
        assert [cascade.finalize(coefficients_closed(p, 17)) for p in powers] == [
            direct_sum(v, p) for p in powers
        ]


class TestOperationCounting:
    def test_push_additions(self):
        for K in (0, 2, 5):
            for N in (1, 2, 9):
                ops = OpCount()
                run_cascade(K, [Counted(n, ops) for n in range(N)])
                assert ops == OpCount(additions=(K + 1) * (N - 1))

    def test_finalize_tally(self):
        ops = OpCount()
        cascade = run_cascade(3, [Counted(5, ops), Counted(6, ops)])
        cascade.finalize(coefficients_closed(3, 2))
        assert ops.constant_mults == 4
        assert ops.additions == (3 + 1) * 2 - 1

    def test_finalize_tally_for_every_lower_power(self):
        ops = OpCount()
        cascade = run_cascade(5, [Counted(sample, ops) for sample in (3, -1, 4, 1, -5, 9, 2)])
        for P in range(6):
            before = (ops.general_mults, ops.constant_mults, ops.additions)
            cascade.finalize(coefficients_closed(P, 7))
            after = (ops.general_mults, ops.constant_mults, ops.additions)
            assert [b - a for a, b in zip(before, after)] == [0, P + 1, P]

    @given(v=st.lists(samples, min_size=1, max_size=24), K=st.integers(0, 6), P=st.integers(0, 6))
    def test_counted_samples_finalize_like_ints(self, v, K, P):
        P = min(P, K)
        ops = OpCount()
        counted = run_cascade(K, [Counted(sample, ops) for sample in v])
        plain = run_cascade(K, v)
        coeffs = coefficients_closed(P, len(v))
        assert counted.finalize(coeffs).value == plain.finalize(coeffs) == direct_sum(v, P)
        assert [r.value for r in counted.registers] == plain.registers

    def test_moment_with_ops_attribution(self):
        cascade = run_cascade(4, [1, 2, 3, 4, 5])
        for power in range(5):
            value, ops = cascade.moment_with_ops(power)
            assert value == direct_sum([1, 2, 3, 4, 5], power)
            assert ops.constant_mults == power + 1
            assert ops.additions == (power + 1) * 5 - 1
            assert ops.general_mults == 0


class TestFloatCascade:
    """Floats pushed into the one Cascade: same recurrence, approximate
    results."""

    def test_matches_exact_path_on_small_integers(self):
        rng = random.Random(5)
        v = [rng.randint(-100, 100) for _ in range(20)]
        exact = run_cascade(3, v)
        approx = run_cascade(3, [float(sample) for sample in v])
        # values stay well inside exact double range, so equality is exact
        assert approx.registers == [float(r) for r in exact.registers]
        value = approx.finalize(coefficients_closed(3, len(v)))
        assert isinstance(value, float)
        assert value == float(direct_sum(v, 3))

    def test_finalize_adds_left_to_right(self):
        # Exact (and compensated) summation of these four products gives
        # -32.0, plain left-to-right addition 0.0. The combination must add
        # left to right; sum() compensates from Python 3.12 on.
        cascade = run_cascade(3, [1e16, 1.0, 3.0])
        weights = coefficients_closed(3, 3).coeffs
        products = [w * r for w, r in zip(weights, cascade.registers)]
        left_to_right = products[0]
        for product in products[1:]:
            left_to_right += product
        assert left_to_right != math.fsum(products)
        assert cascade.finalize(coefficients_closed(3, 3)) == left_to_right

    def test_negative_zero_survives(self):
        # The sum starts from the first product; 0 + -0.0 would give 0.0.
        # Pushing -0.0 leaves 0.0 in the register (registers start at the
        # int 0), so the register is set directly.
        cascade = Cascade(0)
        cascade.registers[0] = -0.0
        cascade.samples_seen = 1
        assert repr(cascade.finalize(coefficients_closed(0, 1))) == "-0.0"

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(-1.0, 1.0),
                st.floats(-(10.0**8), 10.0**8),
                st.floats(-(10.0**30), 10.0**30),
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(0, 8),
        st.integers(0, 2),
    )
    def test_running_outputs_match_reference_bit_for_bit(self, v, power, extra):
        # the running pattern on a cascade with `extra` registers beyond
        # the power: every output is the left-to-right sum of the products
        cascade = Cascade(power + extra)
        for n, sample in enumerate(v, start=1):
            cascade.push(sample)
            coeffs = coefficients_closed(power, n)
            expected = reference_finalize(coeffs.coeffs, cascade.registers)
            assert repr(cascade.finalize(coeffs)) == repr(expected)

    def test_accepts_fractional_samples(self):
        cascade = run_cascade(1, [0.5, 0.25, -1.5])
        value = cascade.finalize(coefficients_closed(1, 3))
        assert value == pytest.approx(0.25 * 1 + (-1.5) * 2)


CHUNK = cascade_module._CHUNK


def lines_of(samples):
    return [f"{sample}\n" for sample in samples]


def run_batched(K, v):
    cascade = Cascade(K)
    push_stream(cascade, lines_of(v), int)
    return cascade


def spy_lane_scan():
    return mock.patch.object(cascade_module, "_lane_scan", wraps=cascade_module._lane_scan)


class TestBatched:
    """While ``push_stream`` reads, int samples queue and the registers
    advance a chunk at a time; after the reader every read must equal the
    per-sample cascade's."""

    @settings(max_examples=100, deadline=None)
    @given(
        K=st.integers(0, 40),
        # at K >= 12 Cascade._drain scans a full chunk in packed lanes, so a
        # chunk is a multiple of their 4, down to one sample a lane; chunks
        # of 8 and 12 reach the lanes at small N, and 10**100 is wider than
        # the 256 bits they pack
        chunk=st.sampled_from([4, 8, 12, 64, CHUNK]),
        chunks=st.integers(0, 3),
        offset=st.sampled_from([-1, 0, 1, 2]),
        magnitude=st.sampled_from([1, 10**6, 10**18, 10**100]),
        seed=st.integers(0, 2**32 - 1),
        before=st.lists(st.integers(-(10**18), 10**18), max_size=3),
        after=st.lists(st.integers(-(10**18), 10**18), max_size=3),
    )
    def test_ints_match_per_sample_push(
        self, K, chunk, chunks, offset, magnitude, seed, before, after
    ):
        # up to three chunks of L samples, ending one sample short of a
        # chunk boundary, on it, or one or two past it: drains of 1, 2, L-1
        # and L samples, and streams of L and L+1. The plain pushes before
        # the reader make the carry start from non-zero registers, and
        # those after it run on the carried ones.
        rng = random.Random(seed)
        length = max(0, chunks * chunk + offset)
        v = [rng.randint(-magnitude, magnitude) for _ in range(length)]
        batched = run_cascade(K, before)
        with mock.patch.object(cascade_module, "_CHUNK", chunk):
            push_stream(batched, lines_of(v), int)
        for sample in after:
            batched.push(sample)
        stream = before + v + after
        plain = run_cascade(K, stream)
        assert batched.registers == plain.registers
        assert batched.samples_seen == plain.samples_seen == len(stream)
        if stream:
            coeffs = coefficients_closed(K, len(stream))
            assert batched.finalize(coeffs) == direct_sum(stream, K)

    # partial chunks of assorted lengths, and streams around one and two
    # chunk boundaries
    @pytest.mark.parametrize(
        "length", [0, 1, 511, 512, 513, 1025, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]
    )
    def test_streams_around_chunk_boundaries(self, length):
        rng = random.Random(length)
        v = [rng.randint(-(10**6), 10**6) for _ in range(length)]
        batched, plain = run_batched(3, v), run_cascade(3, v)
        assert batched.registers == plain.registers
        assert batched.samples_seen == length
        if v:
            assert batched.finalize(coefficients_closed(3, length)) == direct_sum(v, 3)

    # the widest lane values a chunk can give: every sample at the largest
    # magnitude, of one sign, up to the 256 bits the lanes take; a stream
    # of CHUNK - 1 samples ends on a partial chunk, which takes one lane
    @pytest.mark.parametrize("length", [CHUNK - 1, CHUNK])
    @pytest.mark.parametrize("magnitude", [1, 10**18, 2**256 - 1])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("K", [12, 64])
    def test_constant_samples_at_the_lane_bound(self, K, sign, magnitude, length):
        v = [sign * magnitude] * length
        cascade = Cascade(K)
        registers = cascade.registers
        push_stream(cascade, lines_of(v), int)
        assert cascade.registers is registers  # updated in place
        assert registers == run_cascade(K, v).registers

    def test_chunk_is_a_whole_number_of_lanes(self):
        # _lane_scan splits a full chunk into _LANES equal lanes, unpadded
        assert CHUNK % cascade_module._LANES == 0

    # the lane rule: lanes only at K >= 12 for a full chunk whose samples
    # are all below 2**256 in magnitude; every other chunk takes one lane
    @pytest.mark.parametrize(
        "K, length, wide, lanes",
        [
            (12, CHUNK, False, 1),
            (12, CHUNK - 1, False, 0),  # a stream's tail
            (12, CHUNK, True, 0),
            (11, CHUNK, False, 0),
        ],
    )
    def test_lane_selection(self, K, length, wide, lanes):
        rng = random.Random(length)
        v = [rng.randint(-(10**18), 10**18) for _ in range(length)]
        if wide:
            v[length // 2] = 2**256
        with spy_lane_scan() as lane_scan:
            cascade = run_batched(K, v)
        assert lane_scan.call_count == lanes
        assert cascade.registers == run_cascade(K, v).registers

    def test_stream_switching_kernel_paths(self):
        # one stream whose drains take lanes, one lane, lanes, and the one
        # lane of its tail, each carrying the registers the last one left
        rng = random.Random(32)
        chunks = [[rng.randint(-(10**18), 10**18) for _ in range(CHUNK)] for _ in range(3)]
        chunks[1][7] = -(2**256)
        v = [sample for chunk in chunks for sample in chunk] + [3, -1, 4, -1, 5]
        with spy_lane_scan() as lane_scan:
            cascade = run_batched(32, v)
        assert lane_scan.call_count == 2
        plain = run_cascade(32, v)
        assert cascade.registers == plain.registers
        assert cascade.samples_seen == plain.samples_seen == len(v)

    def test_every_drain_but_the_last_is_one_full_chunk(self):
        # blank and comment lines among three chunks' samples: the reader
        # reads only the lines the chunk has room for, so every full chunk
        # drains on its own, and at K = 32 each takes the lanes
        rng = random.Random(3)
        v = [rng.randint(-(10**18), 10**18) for _ in range(3 * CHUNK + 5)]
        lines = []
        for sample in v:
            if rng.random() < 0.01:
                lines.append(rng.choice(["\n", "# note\n"]))
            lines.append(f"{sample}\n")
        drained = []
        drain = Cascade._drain

        def spy_drain(cascade):
            drained.append(len(cascade._queue))
            drain(cascade)

        cascade = Cascade(32)
        with mock.patch.object(Cascade, "_drain", spy_drain), spy_lane_scan() as lane_scan:
            push_stream(cascade, lines, int)
        assert len(lines) > len(v)
        assert drained == [CHUNK, CHUNK, CHUNK, 5]
        assert lane_scan.call_count == 3
        assert cascade.registers == run_cascade(32, v).registers

    def test_exception_inside_the_block_applies_every_pushed_sample(self):
        v = list(range(1, CHUNK + 4))  # one full chunk, then three queued samples

        def parse(text):
            if text == "end\n":
                raise KeyError("stream ended")
            return int(text)

        cascade = Cascade(2)
        with pytest.raises(KeyError):
            push_stream(cascade, lines_of(v) + ["end\n", "7\n"], parse)
        assert cascade.samples_seen == len(v)
        assert cascade.registers == run_cascade(2, v).registers
        cascade.push(5)  # immediate again
        assert cascade.samples_seen == len(v) + 1

    # the 12 lines fill a chunk of 12, which K = 32 would scan in lanes
    @pytest.mark.parametrize("K", [0, 1, 2, 5, 32])
    def test_failed_drain_leaves_the_cascade_unchanged(self, K):
        def parse(text):  # one non-int, which the kernel cannot add
            return text if text == "x\n" else int(text)

        cascade = run_cascade(K, [4, -9])
        registers = cascade.registers
        before = list(registers)
        with pytest.raises(TypeError), mock.patch.object(cascade_module, "_CHUNK", 12):
            push_stream(cascade, ["1\n", "x\n", *lines_of(range(2, 12))], parse)
        assert cascade.registers is registers  # the documented in-place list
        assert cascade.registers == before
        assert cascade.samples_seen == 2
        cascade.push(5)  # immediate again
        assert cascade.registers == run_cascade(K, [4, -9, 5]).registers

    def test_queue_stays_below_one_chunk(self):
        # memory stays bounded: a full queue is applied right after the block
        # that fills it, before the reader parses another line
        cascade = Cascade(2)
        queued = []

        def parse(text):
            queued.append(len(cascade._queue))
            return int(text)

        push_stream(cascade, lines_of(range(3 * CHUNK)), parse)
        assert len(queued) == 3 * CHUNK
        assert max(queued) == CHUNK - 1

    def test_memory_stays_bounded_when_junk_lines_misalign_the_blocks(self):
        # blank and comment lines, at stream_k2's share, end chunks inside
        # read blocks, so the reader reads blocks of the room left, which a
        # stream of samples alone never makes it do
        def lines():
            rng = random.Random(11)
            for _ in range(400_000):
                if rng.random() < 0.01:
                    yield rng.choice(("\n", "# comment\n"))
                yield f"{rng.randint(-999, 999)}\n"

        cascade = Cascade(2)
        tracemalloc.start()
        try:
            push_stream(cascade, lines(), int)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cascade.samples_seen == 400_000
        assert peak < 256 * 1024

    def test_push_outside_the_block_is_immediate(self):
        ops = OpCount()
        cascade = Cascade(3)
        push_stream(cascade, [], int)
        for n in range(1, 6):
            cascade.push(Counted(n, ops))
            # the tally is complete before any read of the cascade
            assert ops == OpCount(additions=4 * (n - 1))
