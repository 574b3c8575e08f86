"""Starts the benchmark's processes, one at a time, and reports on each.

A child's peak RSS (``ru_maxrss``) includes the high-water mark of the
process that started it, because exec folds the replaced memory map into
the count.  The benchmark process holds outputs and check state, so every
peak it measured itself would read at least its own size.  This process
stays small and starts the commands instead.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "stdin": path or null, "stdout": path, "timeout": seconds}
and one JSON reply per line on stdout,
    {"wall_s": float, "rc": int, "rss_mb": float}.
``rss_mb`` covers the child and every descendant it waited for (pool
workers).  The child's stderr is this process's stderr.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdin"] or os.devnull, "rb") as stdin, open(request["stdout"], "wb") as stdout:
            t0 = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=stdin, stdout=stdout)
            watchdog = threading.Timer(request["timeout"], proc.kill)
            watchdog.start()
            # wait4, not Popen.wait: only wait4 returns the child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
