#!/usr/bin/env python3
"""Compare two checkouts on the perfbench workloads, in alternating pairs.

Usage, from anywhere:

    python3 scripts/bench_pairs.py BEFORE_DIR AFTER_DIR --out BENCH_n.json

For every workload in AFTER_DIR/BENCHMARK.json, pair i runs
`perfbench/run.py --trace 0 --seed 700+i` in BEFORE_DIR and in AFTER_DIR,
at perfbench's own run length, for ten pairs: BEFORE_DIR first in even
pairs and AFTER_DIR first in odd ones, so slow phases of the host hit
both sides alike.  Every workload then gets five `--trace 1` pairs,
alternating the same way (seeds 700-704), for its per-layer metrics: a
single traced run per side cannot resolve a 10-20% per-layer change on a
host whose speed drifts between runs.  The JSON holds every run's
metrics, the median and quartiles of each end-to-end metric (summary)
and of each per-layer metric (traced_summary) per side, the number of
pairs in which the after side was better, and whether both sides
printed the same digests in every untraced pair: all of them
(digests_equal), and each digest key on its own (digests_equal_by_key).
Each run also carries the median wall time of each of its operations
over its timed untraced rounds (op_wall_s), read from the record that
perfbench writes under the checkout's perfbench/out/, and each workload
summarises them per operation and side over the untraced pairs
(op_wall_summary), so a change in wall_s can be traced to the operations
that made it without traced runs.
It also records each checkout's source size, the number of lines of
src/**/*.py (src_lines), and its cold import cost: the median over seven
fresh `python -X importtime -c "import cfstats.cli"` processes of the
cumulative import time of cfstats.cli (import_ms), and whether any scipy
module was imported in them (import_loads_scipy).
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")  # all lower-is-better
PAIRS = 10
TRACED_PAIRS = 5
SEED = 700
IMPORT_PROBES = 7


def run(checkout: str, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    info, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return {"seed": seed, "digests": info["digests"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "op_wall_s": op_walls(checkout, workload, seed, trace)}


def op_walls(checkout: str, workload: str, seed: int, trace: int) -> dict:
    """Median wall seconds of each operation over the timed untraced rounds
    (all but the warm-up round 0) of the record of a run just made."""
    path = os.path.join(checkout, "perfbench", "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        rounds = [r for r in json.load(fh)["rounds"][1:] if not r["traced"]]
    return {op: statistics.median(r["wall"][op] for r in rounds) for op in rounds[0]["wall"]}


def src_lines(checkout: str) -> int:
    """Number of lines of src/**/*.py in checkout."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += len(fh.read().splitlines())
    return total


def import_cost(checkout: str) -> tuple:
    """(median ms, any scipy module imported) of `import cfstats.cli` in
    IMPORT_PROBES fresh interpreters that import cfstats from checkout/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    cmd = [sys.executable, "-X", "importtime", "-c", "import cfstats.cli"]
    times, scipy = [], False
    for _ in range(IMPORT_PROBES):
        err = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True).stderr
        # lines "import time: self [us] | cumulative | imported package", nesting indented
        rows = [line.split("|") for line in err.splitlines() if line.startswith("import time:")]
        names = {row[2].strip(): row for row in rows if len(row) == 3}
        times.append(int(names["cfstats.cli"][1]) / 1000)
        scipy = scipy or any(n == "scipy" or n.startswith("scipy.") for n in names)
    return statistics.median(times), scipy


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def alternating_pairs(args, workload: str, count: int, trace: int) -> list:
    """count pairs of runs, before first in even pairs and after first in odd ones."""
    pairs = []
    for i in range(count):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        pair = {side: run(getattr(args, side), workload, SEED + i, trace) for side in order}
        pairs.append(pair)
        key = "trace.overhead_s" if trace else "wall_s"
        print(workload, SEED + i, key, {s: pair[s]["metrics"][key] for s in pair}, file=sys.stderr)
    return pairs


def compare(pairs, metrics, field="metrics") -> dict:
    """Median and quartiles per side of each (name, better) entry of every
    run's `field`, and the pairs won by after."""
    out = {}
    for k, better in metrics:
        b = [p["before"][field][k] for p in pairs]
        a = [p["after"][field][k] for p in pairs]
        won = sum(y < x if better == "lower" else y > x for x, y in zip(b, a))
        out[k] = {"before": spread(b), "after": spread(a), "after_better_in": won, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.after, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    per_layer = [(m["name"], m["better"]) for m in bench["per_layer"]]
    sizes = {side: src_lines(getattr(args, side)) for side in ("before", "after")}
    imports = {side: import_cost(getattr(args, side)) for side in ("before", "after")}
    report = {
        "nproc": os.cpu_count(),
        "src_lines": sizes,
        "import_ms": {side: imports[side][0] for side in imports},
        "import_loads_scipy": {side: imports[side][1] for side in imports},
        "workloads": {},
    }
    for workload in workloads:
        pairs = alternating_pairs(args, workload, PAIRS, 0)
        traced = alternating_pairs(args, workload, TRACED_PAIRS, 1)
        keys = sorted({k for p in pairs for side in p.values() for k in side["digests"]})
        report["workloads"][workload] = {
            "summary": compare(pairs, [(k, "lower") for k in END_TO_END]),
            "op_wall_summary": compare(pairs, [(k, "lower") for k in pairs[0]["after"]["op_wall_s"]], "op_wall_s"),
            "traced_summary": compare(traced, per_layer),
            "digests_equal": all(p["before"]["digests"] == p["after"]["digests"] for p in pairs),
            "digests_equal_by_key": {
                k: all(p["before"]["digests"].get(k) == p["after"]["digests"].get(k) for p in pairs) for k in keys
            },
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("before", "after")},
            "correct": all(p[s]["correct"] for p in pairs for s in ("before", "after")),
            "pairs": pairs,
            "traced": traced,
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
