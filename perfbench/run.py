"""Run one cfstats benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gauss-ensemble --seed 1 --seconds 30 --trace 0

The workload runs whole rounds of its operations in one process (a
closed loop of one: each call starts when the previous one ends) until
another round would not fit in --seconds.  Every round's outputs are
checked against the references in oracles.py.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones, plus the tracing
overhead.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

cfstats is imported from src/ of the checkout; without it the run fails
before printing a result.  A record of the run (rounds, digests, failed
checks, and in a traced run the spans of the last traced round) is
written under perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7  # fresh processes timed for setup_s; the median is reported


def load(workload: str, seed: int):
    """Import cfstats from this checkout and build the workload's seeded inputs."""
    sys.path.insert(0, SRC)
    import cfstats

    if not os.path.abspath(cfstats.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cfstats was imported from {cfstats.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS[workload](seed)


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds from the start of a fresh interpreter until it has imported
    cfstats and built the seeded inputs (CLOCK_MONOTONIC is shared by
    both processes)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_round(ops, tracer=None) -> dict:
    """Every operation once, each timed on its own; then the untimed checks."""
    results, errors, problems, wall, cpu = {}, {}, {}, {}, {}
    for op in ops:
        span = tracer.open("op:" + op.name) if tracer else None
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            results[op.name] = op.call(results)
        except Exception as exc:
            errors[op.name] = repr(exc)
        finally:
            wall[op.name] = time.perf_counter() - t0
            cpu[op.name] = cpu_seconds() - cpu0
            if span:
                tracer.close(span)
    if tracer:
        tracer.uninstall()
    for op in ops:
        if op.name in errors:
            continue
        try:
            found = op.check(results[op.name], results)
        except Exception as exc:
            found = [f"check raised {exc!r}"]
        if found:
            problems[op.name] = found
    return {"results": results, "wall": wall, "cpu": cpu, "errors": errors, "problems": problems}


def round_median(rounds, key) -> float:
    """Sum over operations of each operation's median over the rounds.

    The median is taken per operation, so a burst of contention on the
    host that slows one operation in one round moves no figure.
    """
    return sum(statistics.median(r[key][name] for r in rounds) for name in rounds[0][key])


def environment() -> dict:
    import numpy
    import scipy

    src_lines = 0
    for base, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["gauss-ensemble", "multidim-sweeps", "spectral-constants"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl = load(args.workload, args.seed)
    if args.probe:
        print(repr(time.monotonic()))
        return 0
    setup = [] if args.trace else [setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    from spans import Tracer
    from workloads import LAYER_METRICS, install, layer_metrics

    wl.references()
    ops = wl.ops()
    tracer = Tracer() if args.trace else None
    rounds, layer_rounds, digests = [], [], []
    attempted = failed = 0
    controls = None
    begin = time.perf_counter()
    while True:
        # round 0 warms up (lazy imports, first-touch allocations) and is not
        # timed into the metrics; a traced run then alternates traced rounds
        # (odd) with untraced ones (even)
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            install(tracer)
        rnd = run_round(ops, tracer if traced else None)
        attempted += len(ops)
        failed += len(rnd["errors"]) + len(rnd["problems"])
        if traced:
            layer_rounds.append(layer_metrics(tracer))
        if controls is None:
            try:
                controls = {k: bool(v) for k, v in wl.controls(rnd["results"]).items()}
            except Exception as exc:
                controls = {"controls raised " + repr(exc): False}
        try:
            digests.append(wl.digests(rnd["results"]))
        except Exception as exc:
            digests.append({"error": repr(exc)})
        rounds.append({k: rnd[k] for k in ("wall", "cpu", "errors", "problems")} | {"traced": traced})
        for name, found in (rnd["errors"] | rnd["problems"]).items():
            print(f"round {len(rounds) - 1}: {name} failed: {found}", file=sys.stderr)
        elapsed = time.perf_counter() - begin
        if len(rounds) >= (3 if args.trace else 2) and elapsed + sum(rnd["wall"].values()) > args.seconds:
            break
    timed = rounds[1:]

    if args.trace:
        metrics = {k: statistics.median(r[k] for r in layer_rounds) for k in LAYER_METRICS if k != "trace.overhead_s"}
        for k, (unit, _) in LAYER_METRICS.items():
            if unit == "count":
                metrics[k] = round(metrics[k])
        metrics["trace.overhead_s"] = round_median([r for r in timed if r["traced"]], "wall") - round_median(
            [r for r in timed if not r["traced"]], "wall")
        units = {k: v[0] for k, v in LAYER_METRICS.items()}
    else:
        peak_kb = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        metrics = {
            "wall_s": round_median(timed, "wall"),
            "cpu_s": round_median(timed, "cpu"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "rounds": len(rounds),
        "setup_samples_s": setup,
        "negative_controls_fail_as_they_should": controls,
        "digests": digests[0],
        "digests_repeat": all(d == digests[0] for d in digests),
    }
    os.makedirs(OUT, exist_ok=True)
    record = dict(info, rounds=rounds, metrics=metrics)
    if args.trace:
        record["layer_rounds"] = layer_rounds
        record["trace_of_last_traced_round"] = tracer.dump()
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, default=str)
    print(json.dumps(info))
    print(json.dumps({
        "correct": all(controls.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
