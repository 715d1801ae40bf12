"""Start commands from a small process, so that each one's peak RSS is its own.

    python3 perfbench/spawner.py

A process's ``ru_maxrss`` includes the memory of the image it was exec'd
from. The ``cli`` workload's parent holds NumPy, centlat and the generated
inputs, so it starts this spawner once and has it run every command; a
command then inherits only the spawner's small image.

Reads one JSON request a line on stdin, ``{"argv", "cwd", "env"}``, runs it
to completion, and writes one JSON reply a line on stdout, ``{"code",
"stdout", "stderr", "wall_s", "maxrss_kb"}``; the two streams are decoded as
Latin-1, so the bytes survive. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import tempfile
import time


def run(argv: list, cwd: str, env: dict) -> dict:
    with tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return {
        "code": proc.returncode,
        "stdout": stdout.decode("latin-1"),
        "stderr": stderr.decode("latin-1"),
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["cwd"], request["env"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
