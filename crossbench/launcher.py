"""Runs the CLI invocations of a cli-batch round, one at a time.

    python3 crossbench/launcher.py

Reads one JSON request per line, ``{"argv": [...], "cwd": PATH}``, runs it
and answers with one JSON line: exit code (null on a 60 s timeout), stdout,
stderr, the seconds from launch to exit, and the largest peak resident
memory of any child so far.  Linux keeps, in a child's peak, the peak of
the process it was started from; this process stays small, so the figure is
the children's own, which it would not be if the harness (which holds the
oracles) started them itself.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter

for line in sys.stdin:
    request = json.loads(line)
    began = perf_counter()
    try:
        done = subprocess.run(request["argv"], cwd=request["cwd"],
                              capture_output=True, text=True, timeout=60)
        reply = {"code": done.returncode, "stdout": done.stdout, "stderr": done.stderr}
    except subprocess.TimeoutExpired:
        reply = {"code": None, "stdout": "", "stderr": "timed out after 60 s"}
    reply["seconds"] = perf_counter() - began
    reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
