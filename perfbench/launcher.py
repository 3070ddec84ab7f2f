"""Spawns and reaps the benchmark's child processes from a small interpreter.

Linux carries a parent's resident-set high-water mark into a child's
``ru_maxrss`` when the child is spawned (its memory starts as the parent's
until exec).  The benchmark process holds numpy, popsim and its probe tables,
so children are spawned from this process instead, started with ``-I -S`` and
importing little, whose own RSS stays below any Python child's.

Protocol: one JSON request per stdin line, ``{"argv": [...], "log_stem": str,
"pythonpath": str, "timeout_s": float}``; one JSON reply per stdout line,
``{"exit_code", "wall_s", "cpu_s", "peak_rss_mb"}``.  The child is killed if it
outlives ``timeout_s`` or if stdin closes while it runs; the launcher exits
when stdin closes.
"""

import json
import os
import select
import signal
import sys
import time


def run(request: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=request["pythonpath"])
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    stem = request["log_stem"]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, f"{stem}.stdout", flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"{stem}.stderr", flags, 0o644),
    ]
    argv = [sys.executable, *request["argv"]]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd, sys.stdin], [], [], request["timeout_s"])
        if pidfd not in ready:  # timed out, or the benchmark went away
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(pidfd)
    return {
        "exit_code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
