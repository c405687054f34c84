"""Starts the benchmark's child processes from a small interpreter.

The max-RSS that the kernel reports for a child is at least the RSS of the
process that spawned it, because the high-water mark survives fork and
exec.  run.py's own RSS grows with the inputs it checks.  So run.py sends
its children here, where the floor stays below any lllcolor process.

Reads one JSON request per line on stdin:
  {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
Answers each with one JSON line on stdout:
  {"code": exit code, "wall": seconds from spawn to exit, "maxrss_kb": child's max RSS}
It exits at the end of its input.

It runs on one CPU, and so do the children it starts (they inherit the
affinity).  On a shared host each CPU slows down and speeds up on its own,
so the reference runs that run.py scales op times by must share the ops' CPU.
"""

import json
import os
import signal
import sys
import threading
import time


def run(request: dict) -> dict:
    out = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out, 1),
        (os.POSIX_SPAWN_DUP2, err, 2),
    ]
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
        watchdog = threading.Timer(request["timeout"], os.kill, (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            wall = time.perf_counter() - start
            watchdog.cancel()
            watchdog.join()
    finally:
        os.close(out)
        os.close(err)
    return {"code": os.waitstatus_to_exitcode(status), "wall": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
