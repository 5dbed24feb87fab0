"""Command-line surface for reproducible enumeration experiments.

Subcommands
    enumerate   dump the trajectory table as trajectories.csv
    stats       ensemble summary (frequencies, covariance, KS, moments)
    clt         summary plus a KS sweep over a Q grid
    ldp         deviation proportions and fitted slopes over a Q grid
    spectral    transfer-operator constants as constants.json
    verify      run the acceptance criteria and report pass/fail

Each subcommand takes only the options it reads (OPTIONS).  A JSON
config file (--config) supplies defaults and explicit flags win; a
config value is checked by the same type function as its flag.
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
from typing import Callable, NamedTuple

import numpy as np

from . import acceptance, bulk, spectral, stats
from .maps import BRUN2, BRUN3, GAUSS, JP2, MapDescriptor, max_denominator
from .orbits import BudgetError, enumerate_trajectories
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
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError("targets must be distinct")
        if self.grid is not None and self.grid < 2:
            raise ValidationError("grid must be at least 2")
        if self.jmax is not None and self.jmax <= 0:
            raise ValidationError("jmax must be positive")
        if self.budget < 1 or self.histogram_bins < 2:
            raise ValidationError("numeric fields must be positive")
        if not self.epsilon or not all(0 < e < math.inf for e in self.epsilon):
            raise ValidationError("epsilon must be one or more positive numbers")
        if self.Q is not None and not 0 < self.Q < math.inf:
            raise ValidationError("Q must be positive and finite")
        if self.denominator_bound is not None and self.denominator_bound < 1:
            raise ValidationError("denominator bound must be >= 1")
        pairs = [isinstance(t, tuple) for t in self.targets]
        if self.algorithm == "jp2" and not all(pairs):
            raise ValidationError("jp2 targets must be a:b pairs")
        if self.algorithm != "jp2" and any(pairs):
            raise ValidationError("pair targets are only valid for jp2")

    @property
    def map_desc(self) -> MapDescriptor:
        return ALGORITHMS[self.algorithm]

    def bound(self) -> int:
        """The ensemble's denominator bound; BudgetError above the budget."""
        if self.denominator_bound is not None:
            bound = self.denominator_bound
        else:
            bound = max_denominator(self.map_desc.weight_multiplier, self.Q)
        if bound > self.budget:
            raise BudgetError(f"denominator bound {bound} exceeds budget {self.budget}")
        return bound

    def nominal_Q(self) -> float:
        if self.Q is not None:
            return self.Q
        return self.map_desc.weight_multiplier * math.log(self.denominator_bound)


# ---------------------------------------------------------------------------
# options: one type function per config key, for its flag and its config value


def _tokens(text: str) -> list:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _label(tok: str):
    a, colon, b = tok.partition(":")
    return (int(a), int(b)) if colon else int(a)


def labels(text: str) -> tuple:
    """Comma list of ints or a:b pairs."""
    return tuple(_label(tok) for tok in _tokens(text))


def floats(text: str) -> tuple:
    return tuple(float(tok) for tok in _tokens(text))


def boolean(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


class Option(NamedTuple):
    parse: Callable  # the type function of the flag
    commands: tuple  # the subcommands that read the key
    help: str | None = None


_ENSEMBLE = ("enumerate", "stats", "clt", "ldp")  # enumerate a bounded ensemble
_SUMMARY = ("stats", "clt", "ldp")
_MAPS = (*_ENSEMBLE, "spectral")
_OPERATOR = (*_SUMMARY, "spectral")  # need the spectral constants
COMMANDS = (*_MAPS, "verify")

# the keys of ExperimentConfig; a flag --<key> (underscores as dashes) for
# every key but _CONFIG_ONLY, on the subcommands that read it
OPTIONS = {
    "algorithm": Option(str, _MAPS, ", ".join(ALGORITHMS)),
    "Q": Option(float, _ENSEMBLE),
    "denominator_bound": Option(int, _ENSEMBLE),
    "targets": Option(labels, _MAPS, "comma list, ints or a:b pairs for jp2"),
    "grid": Option(int, _OPERATOR),
    "jmax": Option(int, _OPERATOR),
    "epsilon": Option(floats, ("ldp",), "comma list of deviation thresholds"),
    "q_grid": Option(floats, ("clt", "ldp"), "comma list of Q values"),
    "out": Option(str, COMMANDS),
    "budget": Option(int, _ENSEMBLE),
    "histogram_bins": Option(int, _SUMMARY),
    "use_empirical_lambda": Option(boolean, _SUMMARY),
}
_CONFIG_ONLY = ("histogram_bins", "use_empirical_lambda")


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
    # a --Q bound is the largest q of weight below Q, so the table holds w < Q
    return _BULK_SWEEPS[cfg.algorithm](cfg.bound(), cfg.targets)


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
    _make_outdir(cfg.out)
    path = os.path.join(cfg.out, "trajectories.csv")
    m = cfg.map_desc.m
    labels = [_label_str(t) for t in cfg.targets]
    with open(path, "w") as fh:
        fh.write(SCHEMAS["trajectories.csv"]["comment_line"] + "\n")
        nums = ",".join(f"num{k + 1}" for k in range(m))
        fh.write(f"denominator,{nums},depth,weight," + ",".join(f"N_{s}" for s in labels) + "\n")
        for rec in enumerate_trajectories(cfg.map_desc, bound):
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
        payload["ks_by_Q"] = {
            format(Q, ".17g"): stats.ks_distances(table.restrict_weight(Q), lam_spec, Q, sigma_spec)
            for Q in cfg.q_grid
        }
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
    dens = spectral.invariant_density(deriv.solve)  # the eigenfunction behind the constants
    _make_outdir(cfg.out)
    write_json(os.path.join(cfg.out, "constants.json"), payload)
    with open(os.path.join(cfg.out, "density.csv"), "w") as fh:
        fh.write(SCHEMAS["density.csv"]["comment_line"] + "\n")
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
    # where the output goes and the budget do not change it
    payload = asdict(cfg)
    del payload["out"], payload["budget"]
    return payload


class _Parser(argparse.ArgumentParser):
    """Raises ValidationError on a usage error, which argparse would report
    with exit code 2, the code of a failed criterion."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cfstats", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, opt in OPTIONS.items():
            if name in opt.commands and key not in _CONFIG_ONLY:
                flag = "--" + key.replace("_", "-")
                p.add_argument(flag, dest=key, type=opt.parse, default=argparse.SUPPRESS, help=opt.help)
        if name == "verify":
            p.add_argument("--criteria", help="comma list like A1,A8 (default all)")
    return ap


def _shape(value):
    """JSON type of a value, lists element by element."""
    if isinstance(value, (list, tuple)):
        return [_shape(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


def _flag_text(value) -> str:
    """A config value as its flag spells it: numbers by str, lists
    comma-joined, [a, b] pairs as a:b."""
    if isinstance(value, list):
        return ",".join(":".join(map(str, v)) if isinstance(v, list) else str(v) for v in value)
    if isinstance(value, bool):
        return json.dumps(value)
    return str(value)


def _config_value(key: str, value):
    """value parsed by the type function of the key's flag; it must have
    the JSON type of the result, so "64" is not a grid and 1 not a list."""
    try:
        parsed = OPTIONS[key].parse(_flag_text(value))
    except ValueError:
        parsed = None
    if parsed is None or _shape(parsed) != _shape(value):
        raise ValidationError(f"invalid value for config key {key}: {json.dumps(value)}")
    return parsed


def _load_config(path) -> dict:
    """The values of a JSON config file by key; null leaves a key at its default."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError("a config file holds one JSON object")
    unknown = sorted(set(data) - set(OPTIONS))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    return {key: _config_value(key, value) for key, value in data.items() if value is not None}


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        command, criteria = args.pop("command"), args.pop("criteria", None)
        cfg = ExperimentConfig(**{**_load_config(args.pop("config")), **args})
        if command == "enumerate":
            return cmd_enumerate(cfg)
        if command in _SUMMARY:
            return cmd_stats(cfg, mode=command)
        if command == "spectral":
            return cmd_spectral(cfg)
        return cmd_verify(cfg, criteria.split(",") if criteria else None)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
