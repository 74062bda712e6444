"""Traced pass of one benchmark child: the same work as the untraced
child, with the public entry points of each powsum layer wrapped.

    python3 bench/traced.py TRACE_OUT cli ARGS...      # powsum.cli.main(ARGS), samples on stdin
    python3 bench/traced.py TRACE_OUT running ARGS...  # running.main(ARGS), see running.py

Wrapped, wherever a powsum module has bound them by name:
``cli.push_stream``, ``Cascade.push``, ``Cascade.finalize`` and
``Cascade.moment_with_ops``, ``coefficients_closed`` (timed) and
``binomial`` (counted only). Per-sample calls are aggregated into a call
count and a self time per name, never kept one span each, so trace memory
does not grow with the stream. A name's self time is its calls' duration
minus the duration of traced calls nested inside them.

Writes one JSON object to TRACE_OUT and exits with the child's exit code.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable


class Tracer:
    """Aggregated spans: call count and self time per name."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._nested = [0.0]  # time of traced calls under each open call

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls, self_s, nested = self.calls, self.self_s, self._nested
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nested.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = nested.pop()
                nested[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - inner

        return wrapper

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def rebind(original: Callable[..., Any], replacement: Callable[..., Any]) -> None:
    """Replace ``original`` in every loaded powsum module that bound it."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "powsum" or module_name.startswith("powsum."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer, record: dict[str, int]) -> None:
    """Wrap the layer entry points; widths and reader counts go to ``record``."""
    import powsum.cli
    from powsum.cascade import Cascade
    from powsum.coeffs import coefficients_closed
    from powsum.exactmath import binomial

    def reader(push_stream: Callable[..., Any]) -> Callable[..., Any]:
        # Counting lines through C-level iterators keeps the cost per line
        # far below the reader's own.
        def wrapper(cascade: Any, lines: Any, *args: Any, **kwargs: Any) -> Any:
            counter = itertools.count()
            pushes = tracer.calls["cascade.push"]
            try:
                counted = map(operator.itemgetter(0), zip(lines, counter))
                return push_stream(cascade, counted, *args, **kwargs)
            finally:
                lines_read = next(counter)
                record["lines_read"] += lines_read
                record["lines_skipped"] += lines_read - (tracer.calls["cascade.push"] - pushes)

        return wrapper

    def observe_registers(finalize: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(cascade: Any, *args: Any, **kwargs: Any) -> Any:
            result = finalize(cascade, *args, **kwargs)
            bits = max(abs(r).bit_length() for r in cascade.registers)
            record["register_bits_max"] = max(record["register_bits_max"], bits)
            return result

        return wrapper

    def observe_coefficients(closed: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = closed(*args, **kwargs)
            bits = max(abs(c).bit_length() for c in result.coeffs)
            record["coeff_bits_max"] = max(record["coeff_bits_max"], bits)
            return result

        return wrapper

    push_stream = powsum.cli.push_stream
    rebind(push_stream, tracer.timed("cli.push_stream", reader(push_stream)))
    Cascade.push = tracer.timed("cascade.push", Cascade.push)
    for method in ("finalize", "moment_with_ops"):
        timed = tracer.timed("cascade.finalize", getattr(Cascade, method))
        setattr(Cascade, method, observe_registers(timed))
    rebind(
        coefficients_closed,
        observe_coefficients(tracer.timed("coeffs.closed", coefficients_closed)),
    )
    rebind(binomial, tracer.counted("exactmath.binomial", binomial))


def main(argv: list[str]) -> int:
    trace_out, mode, args = argv[0], argv[1], argv[2:]
    started = time.perf_counter()
    import powsum.cli  # timed here: a fresh import is the cli.import_s layer metric

    import_s = time.perf_counter() - started

    tracer = Tracer()
    record = Counter(lines_read=0, lines_skipped=0, register_bits_max=0, coeff_bits_max=0)
    install(tracer, record)
    if mode == "cli":
        code = powsum.cli.main(args)
    elif mode == "running":
        import running  # after install, so it binds the wrapped names

        code = running.main(args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    with open(trace_out, "w", encoding="utf-8") as stream:
        json.dump(
            {
                "import_s": import_s,
                "calls": dict(tracer.calls),
                "self_s": dict(tracer.self_s),
                **record,
            },
            stream,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
