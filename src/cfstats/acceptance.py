"""The acceptance suite: thirteen desk-scale checks of the limit laws.

Each criterion compares an exhaustively enumerated ensemble against an
independent reference (transfer-operator constants, closed-form
densities, totient sums, algebraic identities) at a fixed tolerance.
Criteria are pure functions of a shared context that lazily builds the
heavy artifacts (the full digit-count table up to denominator 2e4, the
eigenvalue derivative suite, the verification sweeps) exactly once.

The limit laws are statements as Q -> infinity, and at the desk scale
Q = 2 log(2e4) ~ 19.8 the raw statistics still carry the finite-size
terms the quasi-power law predicts: an O(1/Q) offset in every cumulant
divided by Q, and an O(Q^-1/2) lattice floor in any distance from the
integer counts to a continuous law.  The criteria that compare with a
limit (A1, A4, A5, A11, A12) therefore separate those terms out before
applying their tolerances: cumulant constants are read off as slopes
along the Q grid of sub-ensembles, the third-moment limit as the
constant term of its expansion in Q^-1/2, and distributional checks use
the standard lattice continuity correction.  Each of them also reports
its raw finite-Q value, so the finite-size gap stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bulk, spectral, stats
from .maps import BRUN2, GAUSS, JP2
from .spectral import OperatorParams, leading_eigenvalue

GAUSS_BOUND = 20_000
GAUSS_CLT_SMALL_BOUND = 2_000
GAUSS_ROUNDTRIP_BOUND = 5_000
JP_ROUNDTRIP_BOUND = 300
BRUN_ROUNDTRIP_BOUND = 300
JP_ADMISSIBILITY_BOUND = 500
LDP_Q_GRID = (11.0, 13.0, 15.0, 17.0, 19.0)
GAUSS_Q = 2.0 * math.log(GAUSS_BOUND)
GROWTH_PAIR_BOUNDS = (150, 200)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    values: dict = field(default_factory=dict)

    def line(self) -> str:
        return f"{self.name} {'PASS' if self.passed else 'FAIL'}: {self.detail}"


class AcceptanceContext:
    """Lazily computed shared artifacts for the acceptance criteria."""

    def __init__(self):
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def gauss_table(self) -> stats.EnsembleTable:
        return self._get("gauss_table", lambda: bulk.gauss_ensemble_table(GAUSS_BOUND, targets=(1, 2)))

    @property
    def gauss_grid(self) -> list:
        """(Q, sub-ensemble with w < Q) for Q in LDP_Q_GRID."""
        return self._get(
            "gauss_grid",
            lambda: [(Q, self.gauss_table.restrict_weight(Q)) for Q in LDP_Q_GRID],
        )

    @property
    def gauss_deriv(self) -> spectral.DerivativeData:
        return self._get(
            "gauss_deriv",
            lambda: spectral.eigenvalue_derivatives(GAUSS, targets=(1, 2), G=1024, j_max=10_000),
        )

    @property
    def gauss_lambda(self) -> np.ndarray:
        return spectral.frequency_constants(GAUSS, (1, 2), deriv=self.gauss_deriv)

    @property
    def gauss_sigma(self) -> np.ndarray:
        return spectral.covariance_matrix(GAUSS, (1, 2), deriv=self.gauss_deriv)

    @property
    def jp_table(self) -> stats.EnsembleTable:
        """JP table over q <= JP_ADMISSIBILITY_BOUND; its restrictions hold every smaller count."""
        return self._get("jp_table", lambda: bulk.jp_ensemble_table(JP_ADMISSIBILITY_BOUND, ((1, 2),)))

    @property
    def gauss_verify_report(self) -> bulk.VerifyReport:
        return self._get("gauss_verify", lambda: bulk.gauss_verify(GAUSS_ROUNDTRIP_BOUND))

    @property
    def jp_verify_report(self) -> bulk.VerifyReport:
        return self._get("jp_verify", lambda: bulk.jp_verify(JP_ROUNDTRIP_BOUND))

    @property
    def brun_verify_report(self) -> bulk.VerifyReport:
        return self._get("brun_verify", lambda: bulk.brun2_verify(BRUN_ROUNDTRIP_BOUND))


def _slope_grid(ctx: AcceptanceContext) -> list:
    """The Q grid of sub-ensembles closed by the full table at GAUSS_Q."""
    return ctx.gauss_grid + [(GAUSS_Q, ctx.gauss_table)]


def a1_gauss_lln(ctx: AcceptanceContext) -> CriterionResult:
    """Empirical digit-1 frequency against the spectral constant, 2%.

    E_Q[N_1] = Lambda_1 Q + c_1 up to exponentially small terms, so the
    empirical frequency is the least-squares Q-slope of the ensemble mean
    count along the Q grid.  The raw ratio E[N_1]/Q at GAUSS_Q carries
    the offset c_1/Q and is reported alongside.
    """
    grid = _slope_grid(ctx)
    # at Q = 1, empirical_lambda is the plain ensemble mean count
    means = [stats.empirical_lambda(t, 1.0)[0] for _, t in grid]
    emp = float(stats.q_fit([Q for Q, _ in grid], means, (1.0, 0.0))[0])
    raw = float(means[-1] / GAUSS_Q)
    spec = ctx.gauss_lambda[0]
    rel = abs(emp / spec - 1.0)
    return CriterionResult(
        "A1",
        rel < 0.02,
        f"Q-slope Lambda_1 = {emp:.6f}, spectral = {spec:.6f}, rel err = {rel:.2e} "
        f"(tol 0.02); raw E[N_1]/Q at Q = {GAUSS_Q:.2f}: {raw:.6f} "
        f"(rel err {raw / spec - 1.0:+.4f})",
        {"empirical": emp, "spectral": spec, "rel_err": rel, "raw": raw},
    )


def a2_gauss_density(ctx: AcceptanceContext) -> CriterionResult:
    """Grid eigenfunction against 1/(log 2 (1+x)) at G = 4096."""
    f = spectral.invariant_density(GAUSS, G=4096, j_max=10_000)
    x = f.nodes[0]
    ref = spectral.gauss_density(x)
    rel = float((np.abs(f.values - ref) / ref).max())
    return CriterionResult(
        "A2",
        rel < 1e-2,
        f"density rel sup error = {rel:.2e} at G=4096, J_max=10^4 (tol 1e-2)",
        {"rel_sup_err": rel},
    )


def a3_entropy(ctx: AcceptanceContext) -> CriterionResult:
    """Entropy from the eigenvalue slope, pinned to [2.36, 2.39]."""
    hT = -ctx.gauss_deriv.lambda_s
    ref = math.pi**2 / (6.0 * math.log(2.0))
    ok = 2.36 <= hT <= 2.39
    return CriterionResult(
        "A3",
        ok,
        f"-lambda_s = {hT:.6f}, pi^2/(6 log 2) = {ref:.6f}, window [2.36, 2.39]",
        {"entropy": hT, "reference": ref},
    )


def _gauss_ks(ctx: AcceptanceContext, bound: int) -> tuple:
    """(continuity-corrected, raw) KS distance of phi_1/sqrt(Q) to N(0, Sigma_11)."""
    table = ctx.gauss_table.restrict(bound)
    Q = 2.0 * math.log(bound)
    lam = ctx.gauss_lambda
    sigma = math.sqrt(ctx.gauss_sigma[0, 0])
    w = table.weights
    phi1 = (table.counts[:, 0].astype(np.float64) - w * lam[0]) / math.sqrt(Q)
    m = table.mult.astype(np.float64)
    raw = stats.ks_distance(phi1, m, lambda v: stats.gaussian_cdf(v, sigma))
    return stats.ks_distance_lattice(phi1, m, 1.0 / math.sqrt(Q), sigma), raw


def a4_gauss_clt(ctx: AcceptanceContext) -> CriterionResult:
    """KS distance of the rescaled digit-1 fluctuations to the limit Gaussian.

    N_1 is integer-valued, so its raw KS distance to any continuous law
    keeps an O(Q^-1/2) floor of half an atom; the distance is taken after
    the lattice continuity correction (see stats.ks_distance_lattice),
    and the raw distances are reported alongside.
    """
    ks_big, raw_big = _gauss_ks(ctx, GAUSS_BOUND)
    ks_small, raw_small = _gauss_ks(ctx, GAUSS_CLT_SMALL_BOUND)
    ok = ks_big < 0.05 and ks_big < ks_small
    return CriterionResult(
        "A4",
        ok,
        f"continuity-corrected KS = {ks_big:.4f} at q<=2e4 (tol 0.05), {ks_small:.4f} "
        f"at q<=2e3 (decreasing: {ks_big < ks_small}); raw KS {raw_big:.4f}, {raw_small:.4f}",
        {"ks_big": ks_big, "ks_small": ks_small, "raw_big": raw_big, "raw_small": raw_small},
    )


def a5_gauss_ldp(ctx: AcceptanceContext) -> CriterionResult:
    """Deviation proportions at eps = Lambda_1/2 decay along the Q grid.

    The proportions are continuity-corrected (stats.ldp_tail with
    continuity=True): the raw ones jump whenever (Lambda_1 +- eps) Q
    crosses an integer, by more than the decay expected per grid step.
    The raw proportions are reported alongside.
    """
    lam1 = float(ctx.gauss_lambda[0])
    out = stats.ldp_tail(ctx.gauss_grid, 0, lam1, 0.5 * lam1, continuity=True)
    raw = stats.ldp_tail(ctx.gauss_grid, 0, lam1, 0.5 * lam1)
    ok = out["slope"] < 0.0 and out["nonincreasing"]
    props = ", ".join(f"{p:.4f}" for p in out["proportion"])
    raw_props = ", ".join(f"{p:.4f}" for p in raw["proportion"])
    return CriterionResult(
        "A5",
        ok,
        f"continuity-corrected slope = {out['slope']:.4f} (want < 0), proportions [{props}] "
        f"nonincreasing: {out['nonincreasing']}; raw slope {raw['slope']:.4f}, "
        f"proportions [{raw_props}]",
        {**out, "raw_proportion": raw["proportion"], "raw_slope": raw["slope"]},
    )


def a6_brun_density(ctx: AcceptanceContext) -> CriterionResult:
    """Brun eigenfunction against the permutation-sum density, G = 256."""
    res = leading_eigenvalue(OperatorParams(1.0, (), (), 512), BRUN2, G=256, tol=1e-12)
    f = res.eigenfunction
    x1, x2 = np.meshgrid(f.nodes[0], f.nodes[1], indexing="ij")
    ref = spectral.brun_density_m2(x1, x2)
    scale = f.values.mean() / ref.mean()
    rel = float((np.abs(f.values - scale * ref) / (scale * ref)).max())
    lam_err = abs(res.eigenvalue - 1.0)
    return CriterionResult(
        "A6",
        rel < 5e-2,
        f"density rel sup error = {rel:.2e} (tol 5e-2), lambda(1,0) = {res.eigenvalue:.6f}",
        {"rel_sup_err": rel, "eigenvalue": res.eigenvalue, "lambda_err": lam_err,
         "iterations": res.iterations, "residual": res.residual},
    )


def a7_jp_admissibility(ctx: AcceptanceContext) -> CriterionResult:
    """Every produced JP digit string is admissible with terminal b >= 2.

    The sweep replays each canonical expansion digit by digit and raises
    if a digit is not a child of its state, if a = 0 follows a diagonal
    digit, if the string ends off the origin or with b < 2, or if it
    reaches a state with no admissible choice; a raise fails the criterion.
    """
    table = ctx.jp_table
    return CriterionResult(
        "A7",
        True,
        f"zero violations over q <= {JP_ADMISSIBILITY_BOUND} "
        f"({table.size} expandable points)",
        {"points": table.size},
    )


def a8_roundtrip(ctx: AcceptanceContext) -> CriterionResult:
    """Exact recomposition of every enumerated point, all three algorithms."""
    g = ctx.gauss_verify_report
    j = ctx.jp_verify_report
    b = ctx.brun_verify_report
    ok = g.ok and j.ok and b.ok
    return CriterionResult(
        "A8",
        ok,
        f"failures: gauss {g.roundtrip_failures}/{g.checked} (q<=5000), "
        f"jp {j.roundtrip_failures}/{j.checked} (q<=300), "
        f"brun {b.roundtrip_failures}/{b.checked} (t1<=300)",
        {"gauss": g.__dict__, "jp": j.__dict__, "brun": b.__dict__},
    )


def a9_weights(ctx: AcceptanceContext) -> CriterionResult:
    """Forward log-Jacobian sums equal the homography weights to 1e-9."""
    errs = {
        "gauss": ctx.gauss_verify_report.max_weight_error,
        "jp": ctx.jp_verify_report.max_weight_error,
        "brun": ctx.brun_verify_report.max_weight_error,
    }
    worst = max(errs.values())
    return CriterionResult(
        "A9",
        worst < 1e-9,
        f"max |sum log|J| - (m+1) log q| = {worst:.2e} (tol 1e-9)",
        errs,
    )


def a10_witnesses(ctx: AcceptanceContext) -> CriterionResult:
    """Periodic-point constants against their algebraic values, 1e-12."""
    gw = spectral.nonarithmeticity_witnesses(GAUSS)
    e1 = abs(gw.values[0] + 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0))
    e2 = abs(gw.values[1] + 2.0 * math.log(1.0 + math.sqrt(2.0)))
    bw = spectral.nonarithmeticity_witnesses(BRUN2)
    tau, rho = bw.fixed_points
    r1 = abs(tau**3 + tau - 1.0)
    r2 = abs(rho**3 + 2.0 * rho - 1.0)
    worst = max(e1, e2, r1, r2)
    return CriterionResult(
        "A10",
        worst < 1e-12,
        f"gauss witness errors {e1:.1e}, {e2:.1e}; brun cubic residuals {r1:.1e}, {r2:.1e}",
        {"gauss": gw.values, "tau": tau, "rho": rho},
    )


def a11_multidim_clt(ctx: AcceptanceContext) -> CriterionResult:
    """Spectral covariance against the empirical moment matrix, targets {1,2}.

    With phi = N - w Lambda, E_Q[phi phi^T] = Sigma Q + D up to
    exponentially small terms, so the empirical covariance is the
    least-squares Q-slope of the unnormalised second-moment matrix along
    the Q grid.  The raw E[phi phi^T]/Q at GAUSS_Q carries D/Q and is
    reported alongside.
    """
    grid = _slope_grid(ctx)
    pairs = ((2, 0), (1, 1), (0, 2))
    moms = [stats.moment_table(t, ctx.gauss_lambda, Q=1.0, max_order=2) for _, t in grid]
    rows = [[m[p] for p in pairs] for m in moms]
    s = stats.q_fit([Q for Q, _ in grid], rows, (1.0, 0.0))[0]
    emp = np.array([[s[0], s[1]], [s[1], s[2]]])
    raw = np.array([[rows[-1][0], rows[-1][1]], [rows[-1][1], rows[-1][2]]]) / GAUSS_Q
    spec = ctx.gauss_sigma
    rel1 = abs(emp[0, 0] / spec[0, 0] - 1.0)
    rel2 = abs(emp[1, 1] / spec[1, 1] - 1.0)
    ok = rel1 < 0.10 and rel2 < 0.10
    return CriterionResult(
        "A11",
        ok,
        f"Q-slope diag rel err {rel1:.4f}, {rel2:.4f} (tol 0.10); "
        f"off-diagonal: empirical {emp[0, 1]:.5f}, spectral {spec[0, 1]:.5f} (reported); "
        f"raw E[phi phi^T]/Q at Q = {GAUSS_Q:.2f}: diag rel err "
        f"{raw[0, 0] / spec[0, 0] - 1.0:+.4f}, {raw[1, 1] / spec[1, 1] - 1.0:+.4f}",
        {"empirical": emp.tolist(), "spectral": spec.tolist(), "raw": raw.tolist()},
    )


def a12_moments(ctx: AcceptanceContext) -> CriterionResult:
    """Third moment vanishes, fourth approaches the Gaussian value.

    E_Q[phi_1^3] is affine in Q, so the normalised third moment is
    m3(Q) = m3 + a Q^-1/2 + b Q^-3/2, and its limit m3, nonzero exactly
    when the limit law is skewed, is the constant term of a least-squares
    fit along the Q grid.  The raw m3 at GAUSS_Q decays like Q^-1/2 and
    is reported alongside.  m4 is taken at GAUSS_Q.
    """
    grid = _slope_grid(ctx)
    moms = [stats.moment_table(t, ctx.gauss_lambda, Q=Q) for Q, t in grid]
    m3_by_Q = [m[(3, 0)] for m in moms]
    m3 = float(stats.q_fit([Q for Q, _ in grid], m3_by_Q, (0.0, -0.5, -1.5))[0])
    m3_raw = m3_by_Q[-1]
    m4 = moms[-1][(4, 0)]
    wick4 = 3.0 * ctx.gauss_sigma[0, 0] ** 2
    rel4 = abs(m4 / wick4 - 1.0)
    ok = abs(m3) < 0.05 and rel4 < 0.15
    return CriterionResult(
        "A12",
        ok,
        f"|m3 limit| = {abs(m3):.4f} (tol 0.05), m4/(3 sigma^4) = {m4 / wick4:.4f} "
        f"(tol 0.15); raw m3 at Q = {GAUSS_Q:.2f}: {m3_raw:.4f}",
        {"m3": m3, "m3_raw": m3_raw, "m4": m4, "wick4": wick4},
    )


def a13_growth(ctx: AcceptanceContext) -> CriterionResult:
    """Ensemble growth: Gauss scale to 3/pi^2, Brun and JP ratios stabilize."""
    count, scaled = stats.growth_constant(ctx.gauss_table, GAUSS_Q)
    oracle = bulk.totient_sum(GAUSS_BOUND)
    ref = 3.0 / math.pi**2
    rel = abs(scaled / ref - 1.0)
    n1, n2 = GROWTH_PAIR_BOUNDS
    brun = bulk.brun2_ensemble_table(n2, targets=(1,))
    brun_r = [brun.restrict(n).size / n**3 for n in (n1, n2)]
    jp_r = [ctx.jp_table.restrict(n).size / n**3 for n in (n1, n2)]
    brun_drift = abs(brun_r[1] / brun_r[0] - 1.0)
    jp_drift = abs(jp_r[1] / jp_r[0] - 1.0)
    ok = rel < 0.02 and count == oracle and brun_drift < 0.10 and jp_drift < 0.10
    return CriterionResult(
        "A13",
        ok,
        f"gauss count*e^-Q = {scaled:.5f} vs 3/pi^2 = {ref:.5f} (rel {rel:.4f}, "
        f"totient oracle match: {count == oracle}); brun ratio drift {brun_drift:.4f}, "
        f"jp ratio drift {jp_drift:.4f} (tol 0.10)",
        {"gauss_scaled": scaled, "brun_ratios": brun_r, "jp_ratios": jp_r},
    )


CRITERIA = {
    "A1": a1_gauss_lln,
    "A2": a2_gauss_density,
    "A3": a3_entropy,
    "A4": a4_gauss_clt,
    "A5": a5_gauss_ldp,
    "A6": a6_brun_density,
    "A7": a7_jp_admissibility,
    "A8": a8_roundtrip,
    "A9": a9_weights,
    "A10": a10_witnesses,
    "A11": a11_multidim_clt,
    "A12": a12_moments,
    "A13": a13_growth,
}


def run_all(names=None, ctx: AcceptanceContext | None = None):
    """Run the selected criteria (all by default) and return their results."""
    ctx = ctx or AcceptanceContext()
    selected = list(CRITERIA) if names is None else list(names)
    results = []
    for name in selected:
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name}")
        try:
            results.append(CRITERIA[name](ctx))
        except Exception as exc:  # a crash is a failed criterion, not a crash of the suite
            results.append(CriterionResult(name, False, f"error: {exc!r}"))
    return results
