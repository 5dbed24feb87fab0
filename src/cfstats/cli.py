"""Command-line surface for reproducible enumeration experiments.

Subcommands
    enumerate   dump the trajectory table as trajectories.csv
    stats       ensemble summary (frequencies, covariance, KS, moments)
    clt         summary plus a KS sweep over a Q grid
    ldp         deviation proportions and fitted slopes over a Q grid
    spectral    transfer-operator constants as constants.json
    verify      run the acceptance criteria and report pass/fail

A JSON config file (--config) supplies defaults; explicit flags win.
Identical configurations produce byte-identical outputs: floats are
always serialized with 17 significant digits, JSON keys are sorted, and
all reductions are deterministic.  A run that exits with code 1 or 3
creates no output directory.

Exit codes: 0 success, 1 validation or usage error, 2 criterion failure
from verify, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import acceptance, bulk, spectral, stats
from .maps import BRUN2, BRUN3, GAUSS, JP2, MapDescriptor
from .orbits import BudgetError, denominator_bound, enumerate_trajectories
from .schemas import SCHEMAS, SCHEMA_VERSION

ALGORITHMS = {"gauss": GAUSS, "brun2": BRUN2, "brun3": BRUN3, "jp2": JP2}

# (grid, branch cap) defaults of the spectral constants; the derivatives
# invert a dense bordered matrix of G^m + 1 rows, so a 2d grid is at most
# 64 (raise --grid / --jmax toward it for sharper constants)
_SPECTRAL_DEFAULTS = {
    "gauss": (1024, 10_000),
    "brun2": (32, 128),
    "jp2": (16, 16),
}


class ValidationError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    algorithm: str = "gauss"
    Q: float | None = None
    denominator_bound: int | None = None
    targets: tuple = (1,)
    grid: int | None = None
    jmax: int | None = None
    epsilon: tuple = (0.05,)
    q_grid: tuple = ()
    out: str = "out"
    budget: int = 5_000_000
    histogram_bins: int = 101
    use_empirical_lambda: bool = False

    def validate(self, need_bound=True):
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        if need_bound and (self.Q is None) == (self.denominator_bound is None):
            raise ValidationError("set exactly one of Q and denominator bound")
        if not self.targets:
            raise ValidationError("target set must be nonempty")
        if self.grid is not None and self.grid < 2:
            raise ValidationError("grid must be at least 2")
        if self.jmax is not None and self.jmax <= 0:
            raise ValidationError("jmax must be positive")
        if self.budget < 1 or self.histogram_bins < 2:
            raise ValidationError("numeric fields must be positive")
        if any(e <= 0 for e in self.epsilon):
            raise ValidationError("epsilon values must be positive")
        if self.Q is not None and self.Q <= 0:
            raise ValidationError("Q must be positive")
        if self.denominator_bound is not None and self.denominator_bound < 1:
            raise ValidationError("denominator bound must be >= 1")

    @property
    def map_desc(self) -> MapDescriptor:
        return ALGORITHMS[self.algorithm]

    def bound(self) -> int:
        if self.denominator_bound is not None:
            return self.denominator_bound
        return denominator_bound(self.map_desc, self.Q)

    def nominal_Q(self) -> float:
        if self.Q is not None:
            return self.Q
        return self.map_desc.weight_multiplier * math.log(self.denominator_bound)


def _parse_targets(text: str, algorithm: str) -> tuple:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            a, b = tok.split(":")
            out.append((int(a), int(b)))
        else:
            out.append(int(tok))
    if algorithm == "jp2" and not all(isinstance(t, tuple) for t in out):
        raise ValidationError("jp2 targets must be a:b pairs")
    if algorithm != "jp2" and any(isinstance(t, tuple) for t in out):
        raise ValidationError("pair targets are only valid for jp2")
    return tuple(out)


# ---------------------------------------------------------------------------
# deterministic serialization


def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (np.floating, float)):
        return format(float(v), ".17g") if math.isfinite(v) else "null"  # JSON has no nan or inf
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, np.ndarray):
        return _format_value(v.tolist())
    if isinstance(v, dict):
        items = sorted(v.items(), key=lambda kv: str(kv[0]))
        body = ",".join(f"{json.dumps(str(k))}:{_format_value(val)}" for k, val in items)
        return "{" + body + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_format_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)}")


def write_json(path: str, obj: dict) -> None:
    obj = dict(obj)
    obj["schema_version"] = SCHEMA_VERSION
    text = _format_value(obj) + "\n"  # before opening, so a failure leaves no empty file
    with open(path, "w") as fh:
        fh.write(text)


def _make_outdir(outdir: str) -> None:
    """Create outdir with its schema.json; commands call it once their
    results are computed, so a failed run leaves no directory."""
    os.makedirs(outdir, exist_ok=True)
    write_json(os.path.join(outdir, "schema.json"), {"schemas": SCHEMAS})


def _label_str(label) -> str:
    return f"{label[0]}_{label[1]}" if isinstance(label, tuple) else str(label)


# ---------------------------------------------------------------------------
# table construction


_BULK_SWEEPS = {
    "gauss": bulk.gauss_ensemble_table,
    "brun2": bulk.brun2_ensemble_table,
    "jp2": bulk.jp_ensemble_table,
}


def _build_table(cfg: ExperimentConfig) -> stats.EnsembleTable:
    bound = cfg.bound()
    if bound > cfg.budget:
        raise BudgetError(f"denominator bound {bound} exceeds budget {cfg.budget}")
    table = _BULK_SWEEPS[cfg.algorithm](bound, cfg.targets)
    if cfg.Q is not None:
        table = table.restrict_weight(cfg.Q)
    return table


def _spectral_grid(cfg: ExperimentConfig) -> tuple:
    """(G, j_max) of the spectral constants; rejects algorithms without one."""
    if cfg.algorithm not in _SPECTRAL_DEFAULTS:
        raise ValidationError("the spectral grid supports gauss, brun2 and jp2")
    g0, j0 = _SPECTRAL_DEFAULTS[cfg.algorithm]
    return cfg.grid or g0, cfg.jmax or j0


def _spectral_constants(cfg: ExperimentConfig):
    G, jmax = _spectral_grid(cfg)
    deriv = spectral.eigenvalue_derivatives(cfg.map_desc, cfg.targets, G=G, j_max=jmax)
    lam = spectral.frequency_constants(cfg.map_desc, cfg.targets, deriv=deriv)
    sigma = spectral.covariance_matrix(cfg.map_desc, cfg.targets, deriv=deriv)
    return deriv, lam, sigma


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(cfg: ExperimentConfig) -> int:
    cfg.validate()
    bound = cfg.bound()
    if bound > cfg.budget:
        raise BudgetError(f"denominator bound {bound} exceeds budget {cfg.budget}")
    _make_outdir(cfg.out)
    path = os.path.join(cfg.out, "trajectories.csv")
    m = cfg.map_desc.m
    labels = [_label_str(t) for t in cfg.targets]
    with open(path, "w") as fh:
        fh.write(SCHEMAS["trajectories.csv"]["comment_line"] + "\n")
        nums = ",".join(f"num{k + 1}" for k in range(m))
        fh.write(f"denominator,{nums},depth,weight," + ",".join(f"N_{s}" for s in labels) + "\n")
        for rec in enumerate_trajectories(cfg.map_desc, denominator_cap=bound, budget=cfg.budget):
            if cfg.Q is not None and rec.weight >= cfg.Q:
                continue
            counts = [rec.counts.get(t, 0) for t in cfg.targets]
            fh.write(
                ",".join(
                    [str(rec.point.denominator)]
                    + [str(n) for n in rec.point.numerators]
                    + [str(rec.depth), format(rec.weight, ".17g")]
                    + [str(c) for c in counts]
                )
                + "\n"
            )
    print(f"wrote {path}")
    return 0


def _summary_payload(cfg, table, lam_spec, sigma_spec):
    Q = cfg.nominal_Q()
    lam_centre = (
        stats.empirical_lambda(table, Q) if cfg.use_empirical_lambda else np.asarray(lam_spec)
    )
    summ = stats.clt_summary(
        table, lam_centre, Q=Q, sigma_matrix=sigma_spec, bins=cfg.histogram_bins
    )
    return summ, {
        "config": _config_payload(cfg),
        "ensemble_size": summ.ensemble_size,
        "Q": Q,
        "lambda_empirical": summ.lambda_empirical,
        "lambda_spectral": lam_spec,
        "lambda_used_for_centring": lam_centre,
        "covariance_empirical": summ.covariance,
        "covariance_spectral": sigma_spec,
        "mean_phi": summ.mean_phi,
        "ks_distance": summ.ks_distance,
        "moments": {",".join(map(str, k)): v for k, v in summ.moments.items()},
        "low_confidence": summ.low_confidence,
    }


def _write_histograms(cfg, summ) -> None:
    path = os.path.join(cfg.out, "histogram.csv")
    with open(path, "w") as fh:
        fh.write(SCHEMAS["histogram.csv"]["comment_line"] + "\n")
        fh.write("target,bin_lo,bin_hi,count\n")
        for label, (edges, counts) in zip(summ.targets, summ.histograms):
            for k in range(len(counts)):
                fh.write(
                    f"{_label_str(label)},{format(edges[k], '.17g')},"
                    f"{format(edges[k + 1], '.17g')},{counts[k]}\n"
                )


def cmd_stats(cfg: ExperimentConfig, mode: str = "stats") -> int:
    cfg.validate()
    _spectral_grid(cfg)  # the summary needs the spectral constants
    if mode == "clt" and len(cfg.q_grid) < 2:
        raise ValidationError("clt needs a Q grid with at least 2 points")
    if mode == "ldp" and len(cfg.q_grid) < 4:
        raise ValidationError("ldp needs a Q grid with at least 4 points")
    table = _build_table(cfg)
    _, lam_spec, sigma_spec = _spectral_constants(cfg)
    summ, payload = _summary_payload(cfg, table, lam_spec, sigma_spec)

    if mode == "clt":
        ks_by_Q = {}
        for Q in cfg.q_grid:
            sub = table.restrict_weight(Q)
            s_sub = stats.clt_summary(sub, np.asarray(lam_spec), Q=Q, sigma_matrix=sigma_spec)
            ks_by_Q[format(Q, ".17g")] = s_sub.ks_distance
        payload["ks_by_Q"] = ks_by_Q
    if mode == "ldp":
        tables = [(Q, table.restrict_weight(Q)) for Q in sorted(cfg.q_grid)]
        ldp = {}
        for k, label in enumerate(table.targets):
            per_eps = {}
            for eps in cfg.epsilon:
                per_eps[format(eps, ".17g")] = stats.ldp_tail(
                    tables, k, float(np.asarray(lam_spec)[k]), eps
                )
            ldp[_label_str(label)] = per_eps
        payload["ldp"] = ldp

    _make_outdir(cfg.out)
    write_json(os.path.join(cfg.out, "summary.json"), payload)
    _write_histograms(cfg, summ)
    print(f"wrote {os.path.join(cfg.out, 'summary.json')}")
    return 0


def cmd_spectral(cfg: ExperimentConfig) -> int:
    cfg.validate(need_bound=False)
    G, jmax = _spectral_grid(cfg)
    deriv, lam, sigma = _spectral_constants(cfg)
    payload = {
        "config": _config_payload(cfg),
        "algorithm": cfg.algorithm,
        "eigenvalue_at_1": deriv.solve.eigenvalue,
        "eigenvalue_tail_bar": deriv.solve.tail_bar,
        "eigenvalue_iterations": deriv.solve.iterations,
        "eigenvalue_residual": deriv.solve.residual,
        "entropy": -deriv.lambda_s,
        "entropy_bar": deriv.lambda_s_bar,
        "lambda": lam,
        "lambda_bar": deriv.lambda_t_bar / abs(deriv.lambda_s)
        + abs(lam) * deriv.lambda_s_bar / abs(deriv.lambda_s),
        "sigma": sigma,
        "sigma_bar": deriv.hessian_bar / abs(deriv.lambda_s),
    }
    if cfg.algorithm in ("gauss", "brun2"):
        w = spectral.nonarithmeticity_witnesses(cfg.map_desc)
        payload["witnesses"] = w.values
        payload["witness_fixed_points"] = w.fixed_points
        payload["witness_ratio_cf"] = w.ratio_cf
    # density dump for plotting
    dens = spectral.invariant_density(cfg.map_desc, G=min(G, 512), j_max=jmax)
    _make_outdir(cfg.out)
    write_json(os.path.join(cfg.out, "constants.json"), payload)
    with open(os.path.join(cfg.out, "density.csv"), "w") as fh:
        fh.write("# schema=cfstats.density.v1\n")
        if dens.m == 1:
            fh.write("x,value\n")
            for xv, v in zip(dens.nodes[0], dens.values):
                fh.write(f"{format(xv, '.17g')},{format(v, '.17g')}\n")
        else:
            fh.write("x1,x2,value\n")
            xs = dens.nodes[0]
            for i, xv in enumerate(xs):
                for k, yv in enumerate(dens.nodes[1]):
                    fh.write(
                        f"{format(xv, '.17g')},{format(yv, '.17g')},"
                        f"{format(dens.values[i, k], '.17g')}\n"
                    )
    print(f"wrote {os.path.join(cfg.out, 'constants.json')}")
    return 0


def cmd_verify(cfg: ExperimentConfig, names=None) -> int:
    results = acceptance.run_all(names)
    for r in results:
        print(r.line())
    _make_outdir(cfg.out)
    # each criterion as {name, passed, detail, values}
    write_json(os.path.join(cfg.out, "verify_report.json"), {"criteria": [asdict(r) for r in results]})
    return 0 if all(r.passed for r in results) else 2


# ---------------------------------------------------------------------------
# argument parsing


def _config_payload(cfg: ExperimentConfig) -> dict:
    return {
        "algorithm": cfg.algorithm,
        "Q": cfg.Q,
        "denominator_bound": cfg.denominator_bound,
        "targets": [list(t) if isinstance(t, tuple) else t for t in cfg.targets],
        "grid": cfg.grid,
        "jmax": cfg.jmax,
        "epsilon": list(cfg.epsilon),
        "q_grid": list(cfg.q_grid),
        "histogram_bins": cfg.histogram_bins,
        "use_empirical_lambda": cfg.use_empirical_lambda,
    }


class _Parser(argparse.ArgumentParser):
    """Raises ValidationError on a usage error, which argparse would report
    with exit code 2, the code of a failed criterion."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cfstats", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("enumerate", "stats", "clt", "ldp", "spectral", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--algorithm", choices=sorted(ALGORITHMS))
        p.add_argument("--Q", type=float, dest="Q")
        p.add_argument("--denominator-bound", type=int, dest="denominator_bound")
        p.add_argument("--targets", help="comma list, ints or a:b pairs for jp2")
        p.add_argument("--grid", type=int)
        p.add_argument("--jmax", type=int)
        p.add_argument("--epsilon", help="comma list of deviation thresholds")
        p.add_argument("--q-grid", dest="q_grid", help="comma list of Q values")
        p.add_argument("--out")
        p.add_argument("--budget", type=int)
        if name == "verify":
            p.add_argument("--criteria", help="comma list like A1,A8 (default all)")
    return ap


# the config keys set as they are; targets, epsilon and q_grid are lists
_SCALAR_KEYS = (
    "algorithm",
    "Q",
    "denominator_bound",
    "grid",
    "jmax",
    "out",
    "budget",
    "histogram_bins",
    "use_empirical_lambda",
)


def _load_config(ns) -> ExperimentConfig:
    data = {}
    if ns.config:
        with open(ns.config) as fh:
            data = json.load(fh)
    unknown = sorted(set(data) - {*_SCALAR_KEYS, "targets", "epsilon", "q_grid"})
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    cfg = ExperimentConfig()
    for key in _SCALAR_KEYS:
        if key in data and data[key] is not None:
            setattr(cfg, key, data[key])
        if getattr(ns, key, None) is not None:
            setattr(cfg, key, getattr(ns, key))
    if "targets" in data:
        cfg.targets = tuple(tuple(t) if isinstance(t, list) else t for t in data["targets"])
    if "epsilon" in data:
        cfg.epsilon = tuple(data["epsilon"])
    if "q_grid" in data:
        cfg.q_grid = tuple(data["q_grid"])
    if getattr(ns, "targets", None) is not None:
        cfg.targets = _parse_targets(ns.targets, cfg.algorithm)
    if getattr(ns, "epsilon", None):
        cfg.epsilon = tuple(float(tok) for tok in ns.epsilon.split(","))
    if getattr(ns, "q_grid", None):
        cfg.q_grid = tuple(float(tok) for tok in ns.q_grid.split(","))
    return cfg


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        cfg = _load_config(ns)
        if ns.command == "enumerate":
            return cmd_enumerate(cfg)
        if ns.command in ("stats", "clt", "ldp"):
            return cmd_stats(cfg, mode=ns.command)
        if ns.command == "spectral":
            return cmd_spectral(cfg)
        if ns.command == "verify":
            names = ns.criteria.split(",") if getattr(ns, "criteria", None) else None
            return cmd_verify(cfg, names)
        raise ValidationError(f"unknown command {ns.command}")
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
