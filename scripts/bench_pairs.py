#!/usr/bin/env python3
"""Compare two checkouts on the perfbench workloads, in alternating pairs.

Usage, from anywhere:

    python3 scripts/bench_pairs.py BEFORE_DIR AFTER_DIR --out BENCH_n.json

For every workload in AFTER_DIR/BENCHMARK.json, pair i runs
`perfbench/run.py --trace 0 --seed 700+i` in BEFORE_DIR and in AFTER_DIR,
at perfbench's own run length, for ten pairs: BEFORE_DIR first in even
pairs and AFTER_DIR first in odd ones, so slow phases of the host hit
both sides alike.  Every workload then gets one `--trace 1` run per
side, for its per-layer metrics.  The JSON holds every run's metrics, the
median and quartiles of each end-to-end metric per side, the number of
pairs the after side won, and whether both sides printed the same
digests in every pair: all of them (digests_equal), and each digest key
on its own (digests_equal_by_key).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")  # all lower-is-better
PAIRS = 10
SEED = 700


def run(checkout: str, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    info, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return {"seed": seed, "digests": info["digests"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.after, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    report = {"nproc": os.cpu_count(), "workloads": {}}
    for workload in workloads:
        pairs = []
        for i in range(PAIRS):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            pair = {side: run(getattr(args, side), workload, SEED + i, 0) for side in order}
            pairs.append(pair)
            print(workload, SEED + i, {s: pair[s]["metrics"]["wall_s"] for s in pair}, file=sys.stderr)
        summary = {}
        for k in END_TO_END:
            b = [p["before"]["metrics"][k] for p in pairs]
            a = [p["after"]["metrics"][k] for p in pairs]
            summary[k] = {"before": spread(b), "after": spread(a),
                          "after_better_in": sum(y < x for x, y in zip(b, a)), "pairs": len(pairs)}
        keys = sorted({k for p in pairs for side in p.values() for k in side["digests"]})
        report["workloads"][workload] = {
            "summary": summary,
            "digests_equal": all(p["before"]["digests"] == p["after"]["digests"] for p in pairs),
            "digests_equal_by_key": {
                k: all(p["before"]["digests"].get(k) == p["after"]["digests"].get(k) for p in pairs) for k in keys
            },
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("before", "after")},
            "correct": all(p[s]["correct"] for p in pairs for s in ("before", "after")),
            "pairs": pairs,
            "traced": {side: run(getattr(args, side), workload, SEED, 1) for side in ("before", "after")},
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
