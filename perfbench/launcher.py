"""Start the benchmark's child processes from a small process of their own.

    python3 perfbench/launcher.py TIMEOUT_S    (reads jobs on stdin)

Each stdin line is a JSON job ``{"cmd": [...], "stdout": path, "stderr":
path}``; the launcher runs it to completion in its own working directory
and environment and answers with one JSON line ``{"wall", "cpu",
"rss_kb", "code"}``.  Linux counts the RSS of the process that started a
child into the child's max-RSS, so children started by the benchmark
process itself, which holds every report it has read, would all report
at least its size.  This process stays small.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout = float(sys.argv[1])
    # on termination the except clause below kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(job["cmd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "code": proc.returncode,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
