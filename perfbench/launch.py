"""Small helper that starts the benchmark's processes on request.

Reads one JSON request per line on stdin, ``[argv, stdout_path, stderr_path,
timeout_s]``, runs that process to completion, and answers with one JSON line
``[wall_s, exit_code, peak_rss_kb]``.  It exits at end of input.

Why a separate process: on Linux a child inherits its parent's high-water
RSS through fork and exec, so ``wait4`` would report at least the
benchmark's own footprint, which grows as it parses large outputs.  This
helper imports nothing heavy, so its footprint stays below any op's.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, stdout_path, stderr_path, timeout_s):
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [wall, proc.returncode, usage.ru_maxrss]


def main():
    for line in sys.stdin:
        print(json.dumps(run(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
