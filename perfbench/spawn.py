"""Runs the benchmark's children one at a time and reports each one's resources.

Linux carries the parent's peak RSS into a child's ``ru_maxrss`` when the
child calls exec, so children started by the benchmark itself, which holds the
generated corpus, would report the benchmark's memory rather than their own.
This process holds nothing, so its children report their own peak.

One JSON request per line on stdin: ``argv``, ``env``, ``cwd``, ``out`` and
``err`` (log paths) and ``timeout``.  One JSON reply per line on stdout with
the exit code, the wall time, and user + system CPU and max RSS from
``os.wait4``.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=request["env"], cwd=request["cwd"])
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
