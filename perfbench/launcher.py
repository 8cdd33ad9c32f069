"""Starts the benchmark's child processes and reports their wall time and peak RSS.

A child's ``ru_maxrss`` starts from the resident set of the process that
forked it, so children forked by the benchmark itself, which holds whole
pools in memory, would report the benchmark's size instead of their own.
``run.py`` starts this small process first and has it fork every child.

Protocol: one JSON request per stdin line, ``{"argv", "log", "timeout"}``;
one JSON reply per stdout line, ``{"wall_s", "rss_mb", "code"}``.  The
process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], log: str, timeout: float) -> dict:
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["log"], req["timeout"])), flush=True)


if __name__ == "__main__":
    main()
