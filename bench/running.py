"""Child process of the ``running_k8`` workload: the library's running
per-sample output pattern.

    python3 bench/running.py SAMPLES K S_OUT LATENCY_OUT

Loads the sample file, then for every sample pushes it and finalizes with
the coefficients for the current length, writing each S as one line of
S_OUT. The per-result latency (push through the written S, in ns) goes to
LATENCY_OUT as native int64. Prints one JSON object of timings and counts.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from powsum import Cascade, coefficients_closed


def load(path: str) -> tuple[list[int], int]:
    """Samples of a line-delimited file, skipping blank and '#' lines, and
    the number of lines read."""
    samples = []
    lines_read = 0
    with open(path, encoding="utf-8") as stream:
        for lines_read, raw in enumerate(stream, start=1):
            text = raw.strip()
            if text and not text.startswith("#"):
                samples.append(int(text))
    return samples, lines_read


def main(argv: list[str]) -> int:
    samples_path, K, s_path, latency_path = argv[0], int(argv[1]), argv[2], argv[3]
    started = time.perf_counter()
    samples, lines_read = load(samples_path)
    load_s = time.perf_counter() - started

    clock = time.perf_counter_ns
    cascade = Cascade(K)
    latencies = array("q")
    with open(s_path, "w", encoding="ascii") as out:
        first_push = clock()
        for n, sample in enumerate(samples, start=1):
            pushed = clock()
            cascade.push(sample)
            out.write(f"{cascade.finalize(coefficients_closed(K, n))}\n")
            latencies.append(clock() - pushed)
        wall_ns = clock() - first_push
    with open(latency_path, "wb") as stream:
        latencies.tofile(stream)

    print(
        json.dumps(
            {
                "wall_s": wall_ns / 1e9,
                "load_s": load_s,
                "lines_read": lines_read,
                "lines_skipped": lines_read - len(samples),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
