"""Time one CLI run and report its wall time and peak RSS.

The CLI only orchestrates the library layers the benchmark measures, so
its cost is a reference figure, not a workload.  Run from the root of a
checkout, for example:

    python3 perfbench/reference.py verify --out /tmp/ref-verify
    python3 perfbench/reference.py spectral --algorithm gauss --targets 1,2 --out /tmp/ref-spec
"""

import json
import os
import resource
import subprocess
import sys
import time


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "cfstats.cli"] + sys.argv[1:]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr)  # the CLI's report goes to stderr
    wall = time.perf_counter() - t0
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "command": ["cfstats"] + sys.argv[1:],
        "exit_code": proc.returncode,
        "wall_s": round(wall, 1),
        "cpu_s": round(ru.ru_utime + ru.ru_stime, 1),
        "peak_rss_mb": round(ru.ru_maxrss / 1024.0, 1),
    }))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
