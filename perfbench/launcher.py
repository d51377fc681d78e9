"""Spawn the benchmark's child processes and report each one's own rusage.

Linux carries the peak RSS of a process's address space into every program
it spawns (the high-water mark survives exec), so a child spawned straight
from run.py would report run.py's peak, not its own.  run.py starts this
small process before it allocates anything large and spawns every child
through it.

Protocol: one JSON request per line on stdin, ``{"args", "cwd", "log"}``; one
JSON reply per line on stdout, ``{"returncode", "cpu_s", "rss_mb"}``.  The
child's stdout and stderr go to the ``log`` file.
"""

import json
import os
import subprocess
import sys
import threading

TIMEOUT_S = 150.0


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            proc = subprocess.Popen(
                request["args"], cwd=request["cwd"], stdout=log, stderr=subprocess.STDOUT
            )
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "returncode": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
