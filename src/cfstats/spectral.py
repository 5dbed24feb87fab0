"""Collocation realization of the weighted transfer operators.

The operator acting on a grid function f is

    (L f)(x) = sum over admissible branches h of
               |J_h(x)|^s * exp(<t, e(h)>) * f(h(x)),

where e(h) is the indicator vector of the branch digit among the target
labels.  Functions are stored at midpoint collocation nodes (uniform per
axis) and evaluated by multilinear interpolation; the leading eigenvalue
comes from sup-norm power iteration.

Branch sums are split three ways: digits up to an exact cap are summed
with interpolation; digits from the cap to J_max use a closed-form
Hurwitz-zeta fold with f linearized near the shrinking images (the
linearization residual is orders below every tolerance used here); the
tail beyond J_max is folded the same way, with an integral bracket
carried as an explicit error bar on the eigenvalue.

Dimensions 1 (Gauss) and 2 (Brun, Jacobi-Perron) are supported.  The
invariant density, the eigenvalue derivatives at (1, 0), the digit
frequency vector, the covariance matrix and the non-arithmeticity
witnesses are all derived from leading_eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from .maps import MapDescriptor


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge; carries the ratio trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class MarkovViolationError(RuntimeError):
    """A branch image left its admissible cell; the branch table is broken."""


# ---------------------------------------------------------------------------
# grid functions


@dataclass
class GridFunction:
    """Values at midpoint collocation nodes of [0,1]^m, resolution G per axis.

    For the two-cell Jacobi-Perron partition the nodes live on the same
    square lattice; each node is tagged with its cell by the sign of
    eta - xi, diagonal nodes being nudged into the upper cell by half a
    node spacing.
    """

    m: int
    G: int
    values: np.ndarray  # shape (G,) for m=1, (G, G) for m=2

    @classmethod
    def constant(cls, m: int, G: int, value: float = 1.0) -> "GridFunction":
        shape = (G,) if m == 1 else (G, G)
        return cls(m, G, np.full(shape, float(value)))

    @property
    def nodes(self) -> tuple:
        x = (np.arange(self.G) + 0.5) / self.G
        return (x,) if self.m == 1 else (x, x)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def copy(self) -> "GridFunction":
        return GridFunction(self.m, self.G, self.values.copy())


@dataclass(frozen=True)
class OperatorParams:
    """Operator parameters: exponent s, digit weights t over the targets.

    j_max caps the digit sum (Gauss/Brun digit j, JP digit b); the
    beyond-cap tail is folded in closed form and bracketed.
    """

    s: float
    t: tuple = ()
    targets: tuple = ()
    j_max: int = 10_000

    def __post_init__(self):
        if len(self.t) != len(self.targets):
            raise ValueError("t and targets must have equal length")
        if self.j_max < 2:
            raise ValueError("j_max must be >= 2")
        if self.s <= 0.55:
            raise ValueError(f"s = {self.s} is outside the convergence region")


@dataclass
class SpectralResult:
    """Leading eigenpair of one operator and how it was reached.

    tail_bar brackets only the branches beyond j_max, which the operator
    folds in by a closed form; it does not bound the collocation error of
    the grid, so the eigenvalue can be off by more than tail_bar.
    """

    eigenvalue: float
    eigenfunction: GridFunction
    iterations: int
    final_change: float
    residual: float
    tail_bar: float
    trace: list = field(default_factory=list, repr=False)


# ---------------------------------------------------------------------------
# interpolation helpers


def _interp1(values: np.ndarray, y: np.ndarray, G: int) -> np.ndarray:
    """Piecewise-linear interpolation on midpoint nodes, linear extrapolation
    at both ends (queries stay within half a spacing of the node range)."""
    pos = y * G - 0.5
    idx = np.clip(np.floor(pos).astype(np.int64), 0, G - 2)
    frac = pos - idx
    return values[idx] * (1.0 - frac) + values[idx + 1] * frac


def _interp2(values: np.ndarray, yx: np.ndarray, yy: np.ndarray, G: int) -> np.ndarray:
    """Bilinear interpolation on the midpoint lattice with edge extrapolation."""
    px = yx * G - 0.5
    py = yy * G - 0.5
    ix = np.clip(np.floor(px).astype(np.int64), 0, G - 2)
    iy = np.clip(np.floor(py).astype(np.int64), 0, G - 2)
    fx = px - ix
    fy = py - iy
    v00 = values[ix, iy]
    v10 = values[ix + 1, iy]
    v01 = values[ix, iy + 1]
    v11 = values[ix + 1, iy + 1]
    return (
        v00 * (1 - fx) * (1 - fy)
        + v10 * fx * (1 - fy)
        + v01 * (1 - fx) * fy
        + v11 * fx * fy
    )


def _edge_linearization_1d(values: np.ndarray, G: int) -> tuple:
    """(f0, f1) with f(y) ~ f0 + f1*y near y = 0, from the first two nodes."""
    x0 = 0.5 / G
    f1 = (values[1] - values[0]) * G
    f0 = values[0] - f1 * x0
    return float(f0), float(f1)


# ---------------------------------------------------------------------------
# operator application


# Exact-interpolation cap per dimension; digits beyond it map into a
# neighbourhood of the origin small enough for the linearized fold.
_EXACT_CAP_1D = 1024
_EXACT_CAP_2D = 512


def _t_factor(params: OperatorParams, label) -> float:
    for k, lab in enumerate(params.targets):
        if lab == label:
            return math.exp(params.t[k])
    return 1.0


def _check_targets_below_cap(params: OperatorParams, cap: int, kind: str) -> None:
    """Targets must be exactly summed or entirely absent.

    A label beyond j_max lies outside the truncated branch set and simply
    never receives its weight (its frequency is zero); a label between
    the exact cap and j_max would be silently mis-weighted, so it is
    rejected.
    """
    for lab in params.targets:
        j = lab if isinstance(lab, int) else lab[1]
        if cap < j <= params.j_max:
            raise ValueError(f"target {lab} exceeds the exact {kind} cap {cap}")


def _apply_gauss(f: GridFunction, params: OperatorParams) -> tuple:
    G = f.G
    x = f.nodes[0]
    s2 = 2.0 * params.s
    cap = min(params.j_max, _EXACT_CAP_1D)
    _check_targets_below_cap(params, cap, "Gauss digit")
    out = np.zeros(G)
    j = np.arange(1, cap + 1, dtype=np.float64)[:, None]
    den = j + x[None, :]
    w = den ** (-s2)
    for k, lab in enumerate(params.targets):
        if 1 <= lab <= cap:
            w[lab - 1] *= math.exp(params.t[k])
    out += (w * _interp1(f.values, 1.0 / den, G).reshape(cap, G)).sum(axis=0)

    f0, f1 = _edge_linearization_1d(f.values, G)
    if params.j_max > cap:
        out += f0 * (hurwitz_zeta(s2, cap + 1 + x) - hurwitz_zeta(s2, params.j_max + 1 + x))
        out += f1 * (hurwitz_zeta(s2 + 1, cap + 1 + x) - hurwitz_zeta(s2 + 1, params.j_max + 1 + x))
    # tail beyond j_max, folded; bracketed by integrals for the error bar
    jm = params.j_max
    tail = f0 * hurwitz_zeta(s2, jm + 1 + x) + f1 * hurwitz_zeta(s2 + 1, jm + 1 + x)
    out += tail
    lo = (jm + 1 + x) ** (1.0 - s2) / (s2 - 1.0)
    hi = (jm + x) ** (1.0 - s2) / (s2 - 1.0)
    bar = float(((hi - lo) * max(abs(f0), abs(f0 + f1))).max())
    return out, bar


def _apply_brun2(f: GridFunction, params: OperatorParams) -> tuple:
    G = f.G
    x1 = f.nodes[0][:, None] * np.ones((1, G))
    x2 = f.nodes[1][None, :] * np.ones((G, 1))
    s3 = 3.0 * params.s
    cap = min(params.j_max, _EXACT_CAP_2D)
    _check_targets_below_cap(params, cap, "Brun digit")
    out = np.zeros((G, G))
    for j in range(1, cap + 1):
        tf = _t_factor(params, j)
        den = j + x2
        w = den ** (-s3) * tf
        out += w * _interp2(f.values, 1.0 / den, x1 / den, G)
        den = j + x1
        w = den ** (-s3) * tf
        out += w * _interp2(f.values, x2 / den, 1.0 / den, G)
    # both branch families send large digits toward the origin
    f_org = float(
        _interp2(f.values, np.array([0.5 / (cap + 1)]), np.array([0.5 / (cap + 1)]), G)[0]
    )
    tail = f_org * (hurwitz_zeta(s3, cap + 1 + x2) + hurwitz_zeta(s3, cap + 1 + x1))
    out += tail
    lo = (cap + 2 + x2) ** (1.0 - s3) / (s3 - 1.0) + (cap + 2 + x1) ** (1.0 - s3) / (s3 - 1.0)
    hi = (cap + x2) ** (1.0 - s3) / (s3 - 1.0) + (cap + x1) ** (1.0 - s3) / (s3 - 1.0)
    bar = float(((hi - lo) * abs(f_org)).max() + abs(f_org) * 2.0 * (cap ** -1.0) / G)
    return out, bar


def _jp_cells(G: int) -> tuple:
    """Node evaluation points and cell tags for the two-cell partition.

    Returns (xi, eta, in_p1) arrays of shape (G, G); diagonal nodes are
    nudged into the cell {xi < eta} by a quarter spacing each way.
    """
    base = (np.arange(G) + 0.5) / G
    xi = base[:, None] * np.ones((1, G))
    eta = base[None, :] * np.ones((G, 1))
    diag = np.isclose(xi, eta)
    delta = 0.25 / G
    xi = np.where(diag, xi - delta, xi)
    eta = np.where(diag, eta + delta, eta)
    in_p1 = xi < eta
    return xi, eta, in_p1


def _interp2_cellwise(values: np.ndarray, in_p1: np.ndarray, yx, yy, want_p1: bool, G: int):
    """Bilinear interpolation restricted to nodes of one cell.

    Stencils that straddle the diagonal fall back to the nearest node of
    the wanted cell; this keeps cell-discontinuous functions from mixing.
    """
    px = yx * G - 0.5
    py = yy * G - 0.5
    ix = np.clip(np.floor(px).astype(np.int64), 0, G - 2)
    iy = np.clip(np.floor(py).astype(np.int64), 0, G - 2)
    fx = px - ix
    fy = py - iy
    ok = (
        (in_p1[ix, iy] == want_p1)
        & (in_p1[ix + 1, iy] == want_p1)
        & (in_p1[ix, iy + 1] == want_p1)
        & (in_p1[ix + 1, iy + 1] == want_p1)
    )
    bil = (
        values[ix, iy] * (1 - fx) * (1 - fy)
        + values[ix + 1, iy] * fx * (1 - fy)
        + values[ix, iy + 1] * (1 - fx) * fy
        + values[ix + 1, iy + 1] * fx * fy
    )
    # nearest node on the wanted side of the diagonal
    nx = np.clip(np.round(px).astype(np.int64), 0, G - 1)
    ny = np.clip(np.round(py).astype(np.int64), 0, G - 1)
    wrong = in_p1[nx, ny] != want_p1
    if np.any(wrong):
        nx2 = np.where(wrong & want_p1, np.maximum(nx - 1, 0), nx)
        ny2 = np.where(wrong & want_p1, np.minimum(ny + 1, G - 1), ny)
        nx2 = np.where(wrong & ~want_p1, np.minimum(nx + 1, G - 1), nx2)
        ny2 = np.where(wrong & ~want_p1, np.maximum(ny - 1, 0), ny2)
        nx, ny = nx2, ny2
    return np.where(ok, bil, values[nx, ny])


def _jp_branch_image(a: int, b: int, xi: np.ndarray, eta: np.ndarray) -> tuple:
    den = b + eta
    return 1.0 / den, (xi + a) / den


def _apply_jp(f: GridFunction, params: OperatorParams) -> tuple:
    if params.s <= 2.0 / 3.0:
        raise ValueError("the truncated JP branch sum needs s > 2/3")
    G = f.G
    xi, eta, in_p1 = _jp_cells(G)
    s3 = 3.0 * params.s
    cap = min(params.j_max, 64)
    _check_targets_below_cap(params, cap, "JP digit b")
    out = np.zeros((G, G))
    for b in range(1, cap + 1):
        wbase = (b + eta) ** (-s3)
        for a in range(0, b + 1):
            img_xi, img_eta = _jp_branch_image(a, b, xi, eta)
            if a >= 1:
                if np.any(img_eta < img_xi - 1e-12):
                    raise MarkovViolationError(
                        f"branch ({a},{b}) image left cell P1 at some node"
                    )
                val = _interp2_cellwise(f.values, in_p1, img_xi, img_eta, True, G)
            else:
                if np.any(img_eta > img_xi + 1e-12):
                    raise MarkovViolationError(
                        f"branch ({a},{b}) image left cell P2 at some node"
                    )
                val = _interp2_cellwise(f.values, in_p1, img_xi, img_eta, False, G)
            w = wbase * _t_factor(params, (a, b))
            if a == b:
                out += np.where(in_p1, w * val, 0.0)
            else:
                out += w * val
    # Tail over b > cap: the images (1/(b+eta), (xi+a)/(b+eta)) line up
    # along the left edge with eta-values spaced 1/(b+eta), so the a-sum
    # is (b+eta) times the edge integral of f (Riemann, O(1/b) error).
    f_edge = f.values[0, :]
    f_bar = float(f_edge.mean())
    f_top = float(f_edge[-1])
    z1 = hurwitz_zeta(s3 - 1.0, cap + 1 + eta)
    z0 = hurwitz_zeta(s3, cap + 1 + eta)
    tail_p1 = f_bar * z1 + (1.0 - eta) * f_top * z0
    tail = np.where(in_p1, tail_p1, tail_p1 - f_top * z0)  # diagonal branch only in P1
    out += tail
    bar = float(((abs(f_edge).max() - min(0.0, f_edge.min())) * (z1 / (cap + 1) + z0)).max())
    return out, bar


def apply_operator(f: GridFunction, params: OperatorParams, map_desc: MapDescriptor) -> GridFunction:
    """One application of the transfer operator to a grid function."""
    out, _ = _apply_with_bar(f, params, map_desc)
    return out


def _apply_with_bar(f: GridFunction, params: OperatorParams, map_desc: MapDescriptor):
    if map_desc.algorithm == "gauss":
        vals, bar = _apply_gauss(f, params)
    elif map_desc.algorithm == "brun":
        if map_desc.m != 2:
            raise ValueError("spectral Brun operator is implemented for m = 2")
        vals, bar = _apply_brun2(f, params)
    elif map_desc.algorithm == "jp":
        vals, bar = _apply_jp(f, params)
    else:  # pragma: no cover
        raise ValueError(map_desc.algorithm)
    return GridFunction(f.m, f.G, vals), bar


# ---------------------------------------------------------------------------
# eigen-solve


def leading_eigenvalue(
    params: OperatorParams,
    map_desc: MapDescriptor,
    G: int = 1024,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    f0: GridFunction | None = None,
) -> SpectralResult:
    """Dominant eigenvalue and positive eigenfunction by power iteration.

    Starts from the constant function (or a warm start), renormalizes in
    sup norm, and stops when the eigenvalue ratio changes by less than
    tol relatively.
    """
    f = f0.copy() if f0 is not None else GridFunction.constant(map_desc.m, G)
    if f.G != G:
        raise ValueError("warm start resolution mismatch")
    lam_prev = None
    trace = []
    bar = 0.0
    for it in range(1, max_iter + 1):
        g, bar = _apply_with_bar(f, params, map_desc)
        lam = g.sup_norm()
        if lam <= 0 or not math.isfinite(lam):
            raise ConvergenceError(f"degenerate iterate at step {it}", trace)
        trace.append(lam)
        g.values /= lam
        if lam_prev is not None and abs(lam - lam_prev) <= tol * lam:
            resid = float(np.abs(apply_operator(g, params, map_desc).values - lam * g.values).max())
            if (g.values <= 0).any():
                raise ConvergenceError("eigenfunction is not strictly positive", trace)
            return SpectralResult(lam, g, it, abs(lam - lam_prev) / lam, resid / lam, bar, trace)
        lam_prev = lam
        f = g
    raise ConvergenceError(f"no convergence in {max_iter} iterations", trace)


def invariant_density(
    map_desc: MapDescriptor, G: int = 1024, j_max: int = 10_000, tol: float = 1e-12
) -> GridFunction:
    """Eigenfunction at (s, t) = (1, 0), normalized to unit integral
    under midpoint quadrature."""
    res = leading_eigenvalue(OperatorParams(1.0, (), (), j_max), map_desc, G=G, tol=tol)
    f = res.eigenfunction
    cell = f.G ** -f.m
    f.values /= f.values.sum() * cell
    return f


def gauss_density(x):
    """Closed-form invariant density of the Gauss map."""
    return 1.0 / (math.log(2.0) * (1.0 + np.asarray(x, dtype=float)))


def brun_density_m2(x1, x2):
    """Closed-form (unnormalized) invariant density of the Brun map, m = 2:
    the permutation sum of products 1/(1 + partial sums)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    both = 1.0 + x1 + x2
    return (1.0 / (1.0 + x1) + 1.0 / (1.0 + x2)) / both


# ---------------------------------------------------------------------------
# derivatives and constants


@dataclass
class DerivativeData:
    """Finite-difference derivative data of the leading eigenvalue at (1, 0).

    lambda_s and the raw t-gradient/Hessian describe the plain operator;
    the centred entries apply the substitution s -> s - <Lambda, t> that
    normalizes the digit weights.
    """

    targets: tuple
    lambda_value: float
    lambda_s: float
    lambda_ss: float
    lambda_t_raw: np.ndarray
    lambda_st_raw: np.ndarray
    hessian_raw: np.ndarray
    frequencies: np.ndarray
    lambda_t_centred: np.ndarray
    hessian_centred: np.ndarray
    lambda_s_bar: float = 0.0
    lambda_t_bar: float = 0.0
    hessian_bar: float = 0.0


def _richardson(d, h: float) -> tuple:
    """Extrapolated derivative and the residual against the finer stencil,
    an honest scale for the remaining truncation error."""
    fine = d(h / 2.0)
    value = (4.0 * fine - d(h)) / 3.0
    return value, abs(value - fine)


def _central1(fn, h: float) -> tuple:
    return _richardson(lambda step: (fn(step) - fn(-step)) / (2.0 * step), h)


def _central2(fn, h: float) -> tuple:
    f0 = fn(0.0)
    return _richardson(lambda step: (fn(step) - 2.0 * f0 + fn(-step)) / step**2, h)


def _cross2(fn, h: float) -> tuple:
    return _richardson(
        lambda step: (fn(step, step) - fn(step, -step) - fn(-step, step) + fn(-step, -step))
        / (4.0 * step**2),
        h,
    )


# finite-difference steps: first derivatives, and second and mixed ones
_H_FIRST = 1e-4
_H_HESS = 1e-2


def eigenvalue_derivatives(
    map_desc: MapDescriptor, targets, G: int = 1024, j_max: int = 10_000
) -> DerivativeData:
    """Richardson-extrapolated central differences of the eigenvalue at (1, 0).

    Each distinct (s, t) is solved once, warm-started from the first
    solve's eigenfunction.
    """
    targets = tuple(targets)
    d = len(targets)
    memo: dict = {}
    warm = None

    def at(ds=0.0, dt: dict | None = None) -> float:
        nonlocal warm
        t = [0.0] * d
        for i, v in (dt or {}).items():
            t[i] = v
        s = 1.0 + ds
        key = (round(s, 14), tuple(round(v, 14) for v in t))
        if key not in memo:
            params = OperatorParams(s, tuple(t), targets, j_max)
            res = leading_eigenvalue(params, map_desc, G=G, tol=1e-13, f0=warm)
            if warm is None:
                warm = res.eigenfunction
            memo[key] = res.eigenvalue
        return memo[key]

    lam0 = at()
    lam_s, lam_s_bar = _central1(lambda h: at(ds=h), _H_FIRST)
    lam_ss, lam_ss_bar = _central2(lambda h: at(ds=h), _H_HESS)
    t_pairs = [_central1(lambda h, i=i: at(dt={i: h}), _H_FIRST) for i in range(d)]
    lam_t = np.array([p[0] for p in t_pairs])
    lam_t_bar = max((p[1] for p in t_pairs), default=0.0)
    st_pairs = [_cross2(lambda hs, ht, i=i: at(ds=hs, dt={i: ht}), _H_HESS) for i in range(d)]
    lam_st = np.array([p[0] for p in st_pairs])
    hess = np.zeros((d, d))
    hess_bar = lam_ss_bar
    for p in st_pairs:
        hess_bar = max(hess_bar, p[1])
    for i in range(d):
        hess[i, i], bar = _central2(lambda h, i=i: at(dt={i: h}), _H_HESS)
        hess_bar = max(hess_bar, bar)
        for k in range(i + 1, d):
            pair = _cross2(lambda hi, hk, i=i, k=k: at(dt={i: hi, k: hk}), _H_HESS)
            hess[i, k] = hess[k, i] = pair[0]
            hess_bar = max(hess_bar, pair[1])

    # Normalised operator: with branch weights |J_h|^s e^<t,N> the centring
    # by <t, Lambda> w amounts to s -> s + <Lambda, t>, so all chain-rule
    # terms carry plus signs.
    freqs = -lam_t / lam_s
    lam_t_centred = lam_t + freqs * lam_s  # zero by construction of freqs
    hess_c = (
        hess
        + np.outer(freqs, lam_st)
        + np.outer(lam_st, freqs)
        + np.outer(freqs, freqs) * lam_ss
    )
    return DerivativeData(
        targets=targets,
        lambda_value=lam0,
        lambda_s=lam_s,
        lambda_ss=lam_ss,
        lambda_t_raw=lam_t,
        lambda_st_raw=lam_st,
        hessian_raw=hess,
        frequencies=freqs,
        lambda_t_centred=lam_t_centred,
        hessian_centred=hess_c,
        lambda_s_bar=lam_s_bar,
        lambda_t_bar=lam_t_bar,
        hessian_bar=hess_bar,
    )


def frequency_constants(map_desc, targets, G: int = 1024, j_max: int = 10_000, deriv=None):
    """Asymptotic digit frequencies per unit weight, one per target.

    A frequency must be strictly positive for every target inside the
    truncated branch set; a target beyond j_max is absent and yields 0.
    """
    data = deriv or eigenvalue_derivatives(map_desc, targets, G=G, j_max=j_max)
    for lab, freq in zip(data.targets, data.frequencies):
        j = lab if isinstance(lab, int) else lab[1]
        if j <= j_max and freq <= 0:
            raise ConvergenceError(f"non-positive frequency for target {lab}: {freq}", [])
    return data.frequencies


def covariance_matrix(map_desc, targets, G: int = 1024, j_max: int = 10_000, deriv=None):
    """Limit covariance of the centred counts, from the centred Hessian."""
    data = deriv or eigenvalue_derivatives(map_desc, targets, G=G, j_max=j_max)
    sigma = -data.hessian_centred / data.lambda_s
    sigma = 0.5 * (sigma + sigma.T)
    floor = np.linalg.eigvalsh(sigma).min()
    if floor < -1e-10 * max(1.0, abs(sigma).max()):
        raise ConvergenceError(f"covariance is indefinite (min eigenvalue {floor})", [])
    return sigma


# ---------------------------------------------------------------------------
# non-arithmeticity witnesses


def _bisect(poly, lo: float, hi: float, tol: float = 1e-15) -> float:
    flo = poly(lo)
    if flo == 0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = poly(mid)
        if fm == 0 or hi - lo < tol:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _float_cf(x: float, depth: int = 20) -> list:
    digits = []
    for _ in range(depth):
        a = math.floor(x)
        digits.append(int(a))
        frac = x - a
        if frac < 1e-12:
            break
        x = 1.0 / frac
    return digits


@dataclass(frozen=True)
class Witnesses:
    """Log-derivative constants at two periodic points, plus the continued
    fraction of their ratio as an irrationality diagnostic."""

    values: tuple
    fixed_points: tuple
    ratio_cf: tuple


def nonarithmeticity_witnesses(map_desc: MapDescriptor) -> Witnesses:
    """Two periodic-point log-derivatives whose ratio is irrational.

    Gauss: the fixed points of the digit-1 and digit-2 branches, giving
    -2 log((1+sqrt 5)/2) and -2 log(1+sqrt 2).  Brun: the roots tau_m of
    x^{m+1}+x-1 and rho_m of x^{m+1}+2x-1, each fixed by a single branch
    with digit 1 resp. 2, giving (m+1) log of the root.
    """
    if map_desc.algorithm == "gauss":
        fp1 = _bisect(lambda x: x * x + x - 1.0, 0.0, 1.0)  # fixed point of 1/(1+x)
        fp2 = _bisect(lambda x: x * x + 2.0 * x - 1.0, 0.0, 1.0)  # of 1/(2+x)
        w1 = -2.0 * math.log(1.0 + fp1)
        w2 = -2.0 * math.log(2.0 + fp2)
        return Witnesses((w1, w2), (fp1, fp2), tuple(_float_cf(w1 / w2)))
    if map_desc.algorithm == "brun":
        m = map_desc.m
        tau = _bisect(lambda x: x ** (m + 1) + x - 1.0, 0.0, 1.0)
        rho = _bisect(lambda x: x ** (m + 1) + 2.0 * x - 1.0, 0.0, 1.0)
        # branch denominators at the fixed points are 1/tau and 1/rho
        w1 = (m + 1) * math.log(tau)
        w2 = (m + 1) * math.log(rho)
        return Witnesses((w1, w2), (tau, rho), tuple(_float_cf(w1 / w2)))
    raise ValueError("witnesses are available for the Gauss and Brun maps")
