"""Launcher that spawns, times and reaps the benchmark's children.

Linux carries a process's memory high-water mark across exec, so the
ru_maxrss that wait4 reports for a child also counts the process it was
spawned from. The benchmark holds its generated inputs in memory; it
starts this small process instead and has it spawn every measured child,
so that a child's peak RSS is its own.

    python3 -I -S bench/spawn.py

On a shared host a CPU's speed can change from one second to the next,
by up to half, as other tenants' work on the same physical core comes and
goes, and each CPU changes on its own. So the launcher binds itself, and
with it every child, to one CPU, and times a fixed calibration loop in
its own process on that CPU right before and right after each child: the
same kind of work as the program (strip and parse a decimal line, ripple
it through a chain of big-integer registers), with no powsum code in it.
The benchmark scales each child's times by the host speed those two
timings show (see ``run.py``).

Requests arrive on stdin and replies leave on stdout, each a marshal
payload prefixed with its 4-byte little-endian length. A request is
(argv, env, stdin_path, stdout_path, stderr_path, timeout_s); the reply is
(exit_code, wall_s, maxrss_kb, calibration_before_s, calibration_after_s),
with the wall time taken from spawn to reaping. The calibration after one
child serves as the one before the next if that follows within a second.
A child still running at its timeout is killed. Exits at EOF.
"""

import marshal
import os
import select
import signal
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
CALIBRATION_LINES = [f"{10**17 + 7919 * i}\n" for i in range(40000)]
CALIBRATION_REGISTERS = 17
FRESH_S = 1.0  # a calibration older than this is not reused as the next one's before


def calibrate():
    """Seconds the fixed calibration loop takes now."""
    registers = [0] * CALIBRATION_REGISTERS
    start = time.perf_counter()
    for raw in CALIBRATION_LINES:
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        carry = int(text)
        for k in range(CALIBRATION_REGISTERS):
            carry = registers[k] = registers[k] + carry
    return time.perf_counter() - start


def spawn(argv, env, stdin_path, stdout_path, stderr_path, timeout_s):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, stdin_path, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, WRITE, 0o644),
    ]
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    except OSError:
        return 127, 0.0, 0
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], timeout_s)[0]:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall_s, usage.ru_maxrss


def main():
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    # children inherit the binding: calibration and child share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    calibrate()  # warm-up
    after, after_at = None, 0.0
    while header := requests.read(4):
        request = marshal.loads(requests.read(int.from_bytes(header, "little")))
        fresh = after is not None and time.perf_counter() - after_at < FRESH_S
        before = after if fresh else calibrate()
        code, wall_s, maxrss_kb = spawn(*request)
        after, after_at = calibrate(), time.perf_counter()
        reply = marshal.dumps((code, wall_s, maxrss_kb, before, after))
        replies.write(len(reply).to_bytes(4, "little") + reply)
        replies.flush()


if __name__ == "__main__":
    main()
