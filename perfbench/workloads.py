"""The three benchmark pipelines, their checks and their negative controls.

A workload is a fixed list of operations, each one call (or one short
loop of calls) into a public cfstats function with workers=1.  One round
runs every operation once, back to back; the checks run after the round
and are not timed.  The enumerations are exhaustive and use no seed: the
seed only chooses the denominators sampled for the pure-Python digit
cross-checks and the grid functions of the apply timings.
"""

import copy
import dataclasses
import hashlib
import math
import random
import statistics
import struct
from collections import Counter
from functools import lru_cache

import numpy as np

import oracles
from cfstats import bulk, orbits, spectral, stats
from cfstats.maps import BRUN2, GAUSS, JP2
from cfstats.spectral import OperatorParams

# gauss-ensemble
GAUSS_BOUND = 3000  # table: every coprime p/q with q <= 3000, 2.7M points
GAUSS_TARGETS = (1, 2)
GAUSS_Q_GRID = (10.0, 11.0, 12.0, 13.0, 14.0, 15.0)  # sub-ensembles w < Q; the full table closes the grid
GAUSS_VERIFY_BOUND = 1500
GAUSS_SAMPLE = 6  # denominators recomputed by the pure-Python Euclid

# multidim-sweeps
JP_BOUND = 80
JP_TARGETS = ((1, 2),)
JP_RECORD_BOUND = 24
BRUN_BOUND = 150
BRUN_TARGETS = (1, 2)
BRUN_RECORD_BOUND = 40
BRUN_SAMPLE = 2  # values of t1 recomputed by the pure-Python Brun GCD

# spectral-constants: (G, j_max) per solve, and the apply timings
GAUSS_DERIV = (128, 128)
BRUN_SOLVE = (32, 64)
JP_DERIV = (8, 5)
APPLY = {"gauss": (GAUSS, 1024, 10_000), "brun2": (BRUN2, 64, 128), "jp": (JP2, 16, 16)}
APPLY_REPEATS = 3

# tolerances of the checks
WEIGHT_TOL = 1e-9  # verify sweeps: |sum log|J| - (m+1) log q|
SLOPE_TOL = 0.02  # Q-slope of E[N_1] against Lambda_1 (acceptance A1)
CLOSED_FORM_TOL = 1e-4  # Gauss entropy and Lambda_j against their closed forms
BRUN_DENSITY_TOL = 0.05  # Brun eigenfunction against its closed form (acceptance A6)
EIGENVALUE_TOL = 0.02  # lambda(1, 0) against 1
RECOMPUTE_TOL = 1e-9  # stats outputs recomputed from the table


@dataclasses.dataclass
class Op:
    name: str
    call: object  # results -> value
    check: object  # (value, results) -> list of problems


def _rel(a, b):
    return abs(a / b - 1.0)


def _tables_equal(a, b) -> bool:
    return (
        a.qs.shape == b.qs.shape
        and bool(np.array_equal(a.qs, b.qs))
        and bool(np.array_equal(a.counts, b.counts))
        and bool(np.array_equal(a.mult, b.mult))
    )


def _below(table, bound):
    """The rows of a table with q <= bound, selected without cfstats."""
    keep = table.qs <= bound
    return dataclasses.replace(table, qs=table.qs[keep], counts=table.counts[keep], mult=table.mult[keep])


def _rows_at(table, q) -> Counter:
    at = table.qs == q
    return Counter({tuple(int(c) for c in cnt): int(m) for cnt, m in zip(table.counts[at], table.mult[at])})


def _verify_problems(report, checked) -> list:
    out = []
    if report.checked != checked:
        out.append(f"checked {report.checked} points, expected {checked}")
    if report.roundtrip_failures:
        out.append(f"{report.roundtrip_failures} round-trip failures")
    if not report.max_weight_error < WEIGHT_TOL:
        out.append(f"weight error {report.max_weight_error:.3e}")
    return out


def _psd_problems(sigma, label) -> list:
    sigma = np.asarray(sigma, dtype=float)
    if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-14):
        return [f"{label} is not symmetric"]
    if np.linalg.eigvalsh(sigma).min() < -1e-12:
        return [f"{label} is not positive semidefinite"]
    return []


def _with_mult_bumped(table):
    bad = copy.copy(table)
    bad.mult = table.mult.copy()
    bad.mult[len(bad.mult) // 2] += 1
    return bad


def _table_digest(t) -> str:
    h = hashlib.sha256(repr((t.algorithm, t.multiplier, t.targets, t.denominator_bound)).encode())
    for arr in (t.qs, t.counts, t.mult):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def _float_digest(values) -> str:
    flat = np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in values])
    return hashlib.sha256(struct.pack(f"<{len(flat)}d", *flat)).hexdigest()


# ---------------------------------------------------------------------------


class GaussEnsemble:
    """Gauss table sweep, Q-grid restrictions, stats reductions, verify sweep."""

    name = "gauss-ensemble"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.sample = sorted(rng.sample(range(2, GAUSS_BOUND + 1), GAUSS_SAMPLE))
        self.lam = np.array([oracles.gauss_frequency(j) for j in GAUSS_TARGETS])
        self.Q = 2.0 * math.log(GAUSS_BOUND)

    def references(self) -> None:
        self.phi = oracles.totients(GAUSS_BOUND)
        self.sample_rows = {q: oracles.euclid_rows(q, GAUSS_TARGETS) for q in self.sample}

    def points_below(self, Q) -> int:
        """Coprime p/q with weight 2 log q < Q."""
        return sum(self.phi[q] for q in range(2, GAUSS_BOUND + 1) if 2.0 * math.log(q) < Q)

    def grid(self, r) -> list:
        """(Q, table) along the Q grid, closed by the full table."""
        return r["restrict"] + [(self.Q, r["table"])]

    def ops(self) -> list:
        lam = self.lam
        Q = self.Q

        def ks(r):
            t = r["table"]
            phi1 = (t.counts[:, 0] - t.weights * lam[0]) / math.sqrt(Q)
            sigma = math.sqrt(r["summary"].covariance[0, 0])
            return stats.ks_distance_lattice(phi1, t.mult.astype(float), 1.0 / math.sqrt(Q), sigma)

        def q_slope(r):
            g = self.grid(r)
            means = [stats.empirical_lambda(t, 1.0)[0] for _, t in g]
            return stats.q_fit([q for q, _ in g], means, (1.0, 0.0))

        return [
            Op("table", lambda r: bulk.gauss_ensemble_table(GAUSS_BOUND, GAUSS_TARGETS, workers=1), self.check_table),
            Op("restrict", lambda r: [(q, r["table"].restrict_weight(q)) for q in GAUSS_Q_GRID], self.check_restrict),
            Op("summary", lambda r: stats.clt_summary(r["table"], lam, Q=Q), self.check_summary),
            Op("moments", lambda r: [stats.moment_table(t, lam, Q=q) for q, t in self.grid(r)], self.check_moments),
            Op("ldp", lambda r: stats.ldp_tail(self.grid(r), 0, lam[0], 0.5 * lam[0], continuity=True), self.check_ldp),
            Op("ks_lattice", ks, self.check_ks),
            Op("q_slope", q_slope, self.check_slope),
            Op("verify", lambda r: bulk.gauss_verify(GAUSS_VERIFY_BOUND, workers=1), self.check_verify),
        ]

    def check_table(self, t, r) -> list:
        out = []
        if t.targets != GAUSS_TARGETS or t.multiplier != 2:
            out.append("wrong targets or multiplier")
        if t.size != sum(self.phi[2:]):
            out.append(f"size {t.size} != totient sum {sum(self.phi[2:])}")
        per_q = np.zeros(GAUSS_BOUND + 1, np.int64)
        np.add.at(per_q, t.qs, t.mult)
        if per_q[:2].any() or per_q[2:].tolist() != self.phi[2:]:
            out.append("per-q multiplicity totals differ from the totient sieve")
        for q, rows in self.sample_rows.items():
            if _rows_at(t, q) != rows:
                out.append(f"rows at q = {q} differ from the Euclid recount")
        return out

    def check_restrict(self, subs, r) -> list:
        out = []
        for Q, t in subs:
            if t.size != self.points_below(Q):
                out.append(f"sub-ensemble w < {Q}: size {t.size} != {self.points_below(Q)}")
        return out

    def check_summary(self, s, r) -> list:
        t = r["table"]
        mean_n1 = float(np.dot(t.mult, t.counts[:, 0])) / t.size
        out = _psd_problems(s.covariance, "empirical covariance")
        if s.ensemble_size != t.size:
            out.append("ensemble size differs from the table")
        if _rel(s.lambda_empirical[0] * self.Q, mean_n1) > RECOMPUTE_TOL:
            out.append("empirical mean count differs from the table")
        return out

    def check_moments(self, moms, r) -> list:
        out = []
        for (Q, t), m in zip(self.grid(r), moms):
            phi = t.counts[:, 0] - t.weights * self.lam[0]
            m2 = float(np.dot(t.mult, phi * phi)) / (t.size * Q)
            if _rel(m[(2, 0)], m2) > RECOMPUTE_TOL:
                out.append(f"second moment at Q = {Q} differs from the table")
        return out

    def check_ldp(self, res, r) -> list:
        lam, eps = self.lam[0], 0.5 * self.lam[0]
        out = []
        g = self.grid(r)
        if res["Q"] != [q for q, _ in g]:
            return ["wrong Q grid"]
        for (Q, t), p in zip(g, res["proportion"]):
            n = t.counts[:, 0]
            tail = np.clip(n + 0.5 - (lam + eps) * Q, 0, 1) + np.clip((lam - eps) * Q - n + 0.5, 0, 1)
            if abs(p - float(np.dot(t.mult, tail)) / t.size) > RECOMPUTE_TOL:
                out.append(f"deviation proportion at Q = {Q} differs from the table")
        return out

    def check_ks(self, ks, r) -> list:
        return [] if 0.0 < ks < 0.1 else [f"KS distance {ks} outside (0, 0.1)"]

    def check_slope(self, coef, r) -> list:
        rel = _rel(coef[0], self.lam[0])
        return [] if rel < SLOPE_TOL else [f"Q-slope {coef[0]:.6f} vs Lambda_1 {self.lam[0]:.6f}"]

    def check_verify(self, rep, r) -> list:
        return _verify_problems(rep, sum(self.phi[2 : GAUSS_VERIFY_BOUND + 1]))

    def controls(self, r) -> dict:
        bad_rep = dataclasses.replace(r["verify"], roundtrip_failures=1)
        return {
            "table_mult_plus_one": self.check_table(_with_mult_bumped(r["table"]), r),
            "verify_one_roundtrip_failure": self.check_verify(bad_rep, r),
            "slope_lambda_times_1.03": self.check_slope(r["q_slope"] * 1.03, r),
        }

    def digests(self, r) -> dict:
        out = {"table": _table_digest(r["table"])}
        for Q, t in r["restrict"]:
            out[f"restrict_{Q:g}"] = _table_digest(t)
        return out


class MultidimSweeps:
    """JP and Brun table sweeps, their verify sweeps, and the record path."""

    name = "multidim-sweeps"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.sample = sorted(rng.sample(range(1, BRUN_BOUND + 1), BRUN_SAMPLE))

    def references(self) -> None:
        self.jp_lanes = oracles.jp_lane_count(JP_BOUND)
        self.brun_lanes = oracles.brun_lane_count(BRUN_BOUND)
        self.sample_rows = {t1: oracles.brun_rows(t1, BRUN_TARGETS) for t1 in self.sample}

    def ops(self) -> list:
        return [
            Op("jp_table", lambda r: bulk.jp_ensemble_table(JP_BOUND, JP_TARGETS, workers=1), self.check_jp_table),
            Op("jp_verify", lambda r: bulk.jp_verify(JP_BOUND, workers=1), self.check_jp_verify),
            Op("brun_table", lambda r: bulk.brun2_ensemble_table(BRUN_BOUND, BRUN_TARGETS, workers=1), self.check_brun_table),
            Op("brun_verify", lambda r: bulk.brun2_verify(BRUN_BOUND, workers=1), self.check_brun_verify),
            Op("jp_records", lambda r: stats.EnsembleTable.from_records(
                orbits.enumerate_trajectories(JP2, denominator_cap=JP_RECORD_BOUND), JP_TARGETS, "jp"),
                lambda t, r: self.check_records(t, r["jp_table"], JP_RECORD_BOUND)),
            Op("brun_records", lambda r: stats.EnsembleTable.from_records(
                orbits.enumerate_trajectories(BRUN2, denominator_cap=BRUN_RECORD_BOUND), BRUN_TARGETS, "brun"),
                lambda t, r: self.check_records(t, r["brun_table"], BRUN_RECORD_BOUND)),
        ]

    def check_jp_table(self, t, r) -> list:
        if t.size > self.jp_lanes:
            return [f"{t.size} expandable points exceed {self.jp_lanes} coprime triples"]
        return []

    def check_jp_verify(self, rep, r) -> list:
        return _verify_problems(rep, r["jp_table"].size)

    def check_brun_table(self, t, r) -> list:
        out = [] if t.size == self.brun_lanes else [f"size {t.size} != Moebius count {self.brun_lanes}"]
        for t1, rows in self.sample_rows.items():
            if _rows_at(t, t1) != rows:
                out.append(f"rows at t1 = {t1} differ from the Brun GCD recount")
        return out

    def check_brun_verify(self, rep, r) -> list:
        return _verify_problems(rep, self.brun_lanes)

    def check_records(self, records, table, bound) -> list:
        return [] if _tables_equal(records, _below(table, bound)) else [f"record path differs at q <= {bound}"]

    def controls(self, r) -> dict:
        return {
            "brun_table_mult_plus_one": self.check_brun_table(_with_mult_bumped(r["brun_table"]), r),
            "jp_verify_one_roundtrip_failure": self.check_jp_verify(
                dataclasses.replace(r["jp_verify"], roundtrip_failures=1), r),
            "jp_records_mult_plus_one": self.check_records(
                _with_mult_bumped(r["jp_records"]), r["jp_table"], JP_RECORD_BOUND),
        }

    def digests(self, r) -> dict:
        return {k: _table_digest(r[k]) for k in ("jp_table", "brun_table", "jp_records", "brun_records")}


class SpectralConstants:
    """Eigenvalue derivatives (Gauss, JP), one Brun solve, single applies."""

    name = "spectral-constants"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.grids = {}
        for alg, (desc, G, j_max) in APPLY.items():
            shape = (G,) if desc.m == 1 else (G, G)
            f = spectral.GridFunction(desc.m, G, rng.uniform(0.5, 1.5, shape))
            self.grids[alg] = (f, OperatorParams(1.0, (), (), j_max), desc)

    def references(self) -> None:
        self.lam = np.array([oracles.gauss_frequency(j) for j in GAUSS_TARGETS])

    def ops(self) -> list:
        def applies(alg):
            f, params, desc = self.grids[alg]
            return lambda r: [spectral.apply_operator(f, params, desc) for _ in range(APPLY_REPEATS)]

        def constants(key, desc, targets):
            return lambda r: (
                spectral.frequency_constants(desc, targets, deriv=r[key]),
                spectral.covariance_matrix(desc, targets, deriv=r[key]),
            )

        return [
            Op("gauss_deriv", lambda r: spectral.eigenvalue_derivatives(
                GAUSS, GAUSS_TARGETS, G=GAUSS_DERIV[0], j_max=GAUSS_DERIV[1]), self.check_gauss_deriv),
            Op("gauss_constants", constants("gauss_deriv", GAUSS, GAUSS_TARGETS), self.check_constants),
            Op("brun_solve", lambda r: spectral.leading_eigenvalue(
                OperatorParams(1.0, (), (), BRUN_SOLVE[1]), BRUN2, G=BRUN_SOLVE[0], tol=1e-12), self.check_brun),
            Op("jp_deriv", lambda r: spectral.eigenvalue_derivatives(
                JP2, JP_TARGETS, G=JP_DERIV[0], j_max=JP_DERIV[1]), self.check_jp_deriv),
            Op("jp_constants", constants("jp_deriv", JP2, JP_TARGETS), self.check_constants),
            Op("gauss_apply", applies("gauss"), self.check_apply),
            Op("brun2_apply", applies("brun2"), self.check_apply),
            Op("jp_apply", applies("jp"), self.check_apply),
        ]

    def check_gauss_deriv(self, d, r) -> list:
        out = []
        if _rel(-d.lambda_s, oracles.ENTROPY) > CLOSED_FORM_TOL:
            out.append(f"entropy {-d.lambda_s:.9f} vs {oracles.ENTROPY:.9f}")
        for j, got, ref in zip(GAUSS_TARGETS, d.frequencies, self.lam):
            if _rel(got, ref) > CLOSED_FORM_TOL:
                out.append(f"Lambda_{j} {got:.9f} vs closed form {ref:.9f}")
        if abs(d.lambda_value - 1.0) > EIGENVALUE_TOL:
            out.append(f"lambda(1, 0) = {d.lambda_value}")
        return out

    def check_jp_deriv(self, d, r) -> list:
        return [] if abs(d.lambda_value - 1.0) < EIGENVALUE_TOL else [f"lambda(1, 0) = {d.lambda_value}"]

    def check_constants(self, value, r) -> list:
        lam, sigma = value
        out = _psd_problems(sigma, "Sigma")
        if not np.all(np.asarray(lam) > 0):
            out.append(f"non-positive Lambda {lam}")
        return out

    def check_brun(self, res, r) -> list:
        f = res.eigenfunction
        x1, x2 = np.meshgrid(f.nodes[0], f.nodes[1], indexing="ij")
        ref = oracles.brun_density(x1, x2)
        scale = f.values.mean() / ref.mean()
        err = float((np.abs(f.values - scale * ref) / (scale * ref)).max())
        out = [] if err < BRUN_DENSITY_TOL else [f"Brun density rel error {err:.3e}"]
        if abs(res.eigenvalue - 1.0) > EIGENVALUE_TOL:
            out.append(f"Brun lambda(1, 0) = {res.eigenvalue}")
        return out

    def check_apply(self, outs, r) -> list:
        ok = all(np.isfinite(g.values).all() and (g.values > 0).all() for g in outs)
        same = all(np.array_equal(g.values, outs[0].values) for g in outs)
        return [] if ok and same else ["apply output not positive, finite and repeatable"]

    def controls(self, r) -> dict:
        d = r["gauss_deriv"]
        return {
            "gauss_lambda_times_1.001": self.check_gauss_deriv(
                dataclasses.replace(d, frequencies=d.frequencies * 1.001), r),
            "sigma_indefinite": self.check_constants((r["gauss_constants"][0], np.diag([1.0, -1e-3])), r),
        }

    def digests(self, r) -> dict:
        out = {}
        for key in ("gauss_deriv", "jp_deriv"):
            d = r[key]
            out[key] = _float_digest([d.lambda_value, d.lambda_s, d.lambda_ss, d.lambda_t_raw,
                                      d.hessian_raw, d.frequencies, d.hessian_centred])
        b = r["brun_solve"]
        out["brun_solve"] = _float_digest([b.eigenvalue, b.eigenfunction.values])
        for key in ("gauss_apply", "brun2_apply", "jp_apply"):
            out[key] = _float_digest([r[key][0].values])
        return out


WORKLOADS = {w.name: w for w in (GaussEnsemble, MultidimSweeps, SpectralConstants)}


# ---------------------------------------------------------------------------
# tracing: what is wrapped, and the per-layer metrics read off the spans


def install(tracer) -> None:
    """Wrap the layer entry points every workload calls."""

    def gauss_swept(tr, table, args):
        tr.counts["bulk.gauss_points"] += table.size

    def verified(tr, report, args):
        tr.counts["bulk.verify_points"] += report.checked

    def jp_swept(tr, out, args):
        tr.counts["bulk.jp_lanes"] += _jp_lanes(args[0])

    def jp_verified(tr, report, args):
        jp_swept(tr, report, args)
        verified(tr, report, args)

    def expandable(tr, digits, args):
        tr.counts["orbits.jp_expandable"] += 1

    def not_expandable(tr, exc):
        if isinstance(exc, orbits.NotExpandableError):
            tr.counts["orbits.jp_not_expandable"] += 1

    def solved(tr, res, args):
        tr.counts["spectral.eigen_solves"] += 1
        tr.counts["spectral.power_iterations"] += res.iterations

    tracer.patch(bulk, "gauss_ensemble_table", "bulk.gauss_table", gauss_swept)
    tracer.patch(bulk, "gauss_verify", "bulk.gauss_verify", verified)
    tracer.patch(bulk, "jp_ensemble_table", "bulk.jp_table", jp_swept)
    tracer.patch(bulk, "jp_verify", "bulk.jp_verify", jp_verified)
    tracer.patch(bulk, "brun2_ensemble_table", "bulk.brun2_table")
    tracer.patch(bulk, "brun2_verify", "bulk.brun2_verify", verified)
    tracer.patch(bulk, "jp_digits", "orbits.jp_digits", expandable, not_expandable)
    tracer.patch(orbits, "enumerate_trajectories", "orbits.enumerate_trajectories")
    for attr in ("restrict", "restrict_weight", "__post_init__", "from_records"):
        tracer.patch(stats.EnsembleTable, attr, f"stats.{attr}")
    for attr in ("clt_summary", "moment_table", "ldp_tail", "ks_distance_lattice", "empirical_lambda", "q_fit"):
        tracer.patch(stats, attr, f"stats.{attr}")
    tracer.patch(spectral, "eigenvalue_derivatives", "spectral.eigenvalue_derivatives")
    tracer.patch(spectral, "leading_eigenvalue", "spectral.leading_eigenvalue", solved)
    tracer.patch(spectral, "apply_operator", "spectral.apply_operator")
    tracer.patch(spectral, "frequency_constants", "spectral.frequency_constants")
    tracer.patch(spectral, "covariance_matrix", "spectral.covariance_matrix")


@lru_cache(maxsize=None)
def _jp_lanes(bound):
    return oracles.jp_lane_count(bound)


LAYERS = ("bulk", "orbits", "stats", "spectral")

# name: (unit, better); every traced run reports all of them, a layer the
# workload does not call reads 0
LAYER_METRICS = {
    "bulk.gauss_table_s": ("s", "lower"),
    "bulk.gauss_verify_s": ("s", "lower"),
    "bulk.jp_table_s": ("s", "lower"),
    "bulk.jp_verify_s": ("s", "lower"),
    "bulk.brun2_table_s": ("s", "lower"),
    "bulk.brun2_verify_s": ("s", "lower"),
    "bulk.gauss_points_per_s": ("points/s", "higher"),
    "bulk.verify_points_per_s": ("points/s", "higher"),
    "bulk.self_s": ("s", "lower"),
    "orbits.jp_digits_calls": ("count", "lower"),
    "orbits.jp_digits_s": ("s", "lower"),
    "orbits.jp_not_expandable": ("count", "lower"),
    "orbits.jp_fallback_share": ("ratio", "lower"),
    "orbits.jp_expandable_share": ("ratio", "higher"),
    "orbits.self_s": ("s", "lower"),
    "stats.restrict_s": ("s", "lower"),
    "stats.table_sort_s": ("s", "lower"),
    "stats.summary_s": ("s", "lower"),
    "stats.moments_s": ("s", "lower"),
    "stats.ldp_s": ("s", "lower"),
    "stats.ks_lattice_s": ("s", "lower"),
    "stats.self_s": ("s", "lower"),
    "spectral.gauss_derivative_s": ("s", "lower"),
    "spectral.jp_derivative_s": ("s", "lower"),
    "spectral.brun2_solve_s": ("s", "lower"),
    "spectral.eigen_solve_s": ("s", "lower"),
    "spectral.eigen_solves": ("count", "lower"),
    "spectral.power_iterations": ("count", "lower"),
    "spectral.gauss_apply_ms": ("ms", "lower"),
    "spectral.brun2_apply_ms": ("ms", "lower"),
    "spectral.jp_apply_ms": ("ms", "lower"),
    "spectral.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer) -> dict:
    """Per-layer figures of one traced round (all but trace.overhead_s)."""
    spans = tracer.spans
    own = tracer.self_times()
    total = Counter()
    under = Counter()  # (library span name, operation) -> seconds
    applies = {}
    selfs = Counter()
    restrict_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if name.startswith("op:"):
            continue
        dur = end - start
        total[name] += dur
        op = spans[tracer.root_of(i)][0][3:]
        under[name, op] += dur
        selfs[name.split(".")[0]] += own[i]
        restricts = ("stats.restrict", "stats.restrict_weight")
        if name in restricts and spans[parent][0] not in restricts:
            restrict_s += dur
        if name == "spectral.apply_operator" and spans[parent][0].endswith("_apply"):
            applies.setdefault(op, []).append(dur)
    c = tracer.counts
    calls = c["orbits.jp_expandable"] + c["orbits.jp_not_expandable"]
    verify_s = total["bulk.gauss_verify"] + total["bulk.jp_verify"] + total["bulk.brun2_verify"]

    def ratio(a, b):
        return a / b if b else 0.0

    def apply_ms(op):
        return 1e3 * statistics.median(applies[op]) if op in applies else 0.0

    out = {
        "bulk.gauss_table_s": total["bulk.gauss_table"],
        "bulk.gauss_verify_s": total["bulk.gauss_verify"],
        "bulk.jp_table_s": total["bulk.jp_table"],
        "bulk.jp_verify_s": total["bulk.jp_verify"],
        "bulk.brun2_table_s": total["bulk.brun2_table"],
        "bulk.brun2_verify_s": total["bulk.brun2_verify"],
        "bulk.gauss_points_per_s": ratio(c["bulk.gauss_points"], total["bulk.gauss_table"]),
        "bulk.verify_points_per_s": ratio(c["bulk.verify_points"], verify_s),
        "orbits.jp_digits_calls": calls,
        "orbits.jp_digits_s": total["orbits.jp_digits"],
        "orbits.jp_not_expandable": c["orbits.jp_not_expandable"],
        "orbits.jp_fallback_share": ratio(calls, c["bulk.jp_lanes"]),
        "orbits.jp_expandable_share": ratio(c["orbits.jp_expandable"], calls),
        "stats.restrict_s": restrict_s,
        "stats.table_sort_s": total["stats.__post_init__"],
        "stats.summary_s": total["stats.clt_summary"],
        "stats.moments_s": total["stats.moment_table"],
        "stats.ldp_s": total["stats.ldp_tail"],
        "stats.ks_lattice_s": total["stats.ks_distance_lattice"],
        "spectral.gauss_derivative_s": under["spectral.eigenvalue_derivatives", "gauss_deriv"],
        "spectral.jp_derivative_s": under["spectral.eigenvalue_derivatives", "jp_deriv"],
        "spectral.brun2_solve_s": under["spectral.leading_eigenvalue", "brun_solve"],
        "spectral.eigen_solve_s": total["spectral.leading_eigenvalue"],
        "spectral.eigen_solves": c["spectral.eigen_solves"],
        "spectral.power_iterations": c["spectral.power_iterations"],
        "spectral.gauss_apply_ms": apply_ms("gauss_apply"),
        "spectral.brun2_apply_ms": apply_ms("brun2_apply"),
        "spectral.jp_apply_ms": apply_ms("jp_apply"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs[layer]
    return out
