"""Empirical digit statistics over enumerated trajectory ensembles.

The sufficient statistic for every quantity here is the multiplicity
table (denominator q, digit-count vector) of an ensemble, since the
weight of a point is multiplier * log q exactly.  Tables are built from
a record stream (any algorithm, any targets) or by the vectorized
sweeps in bulk.py; both paths produce identical tables on identical
ensembles.

Floating-point reductions over a table are correctly rounded sums
(math.fsum) of the terms, or of the dot products of fixed 4096-element
chunks, so results are bit-reproducible across runs and do not depend
on how the work was partitioned.

moment_table builds the powers of each centred count by repeated
multiplication (phi, phi * phi, phi * phi * phi, ...), never by pow.
Entries whose powers are all at most 2 are therefore the same floats as
a pow-based loop gives (x**2 is x * x); entries with a third or higher
power can differ from it in the last bits.

The one normal CDF here (gaussian_cdf) is scipy.special.ndtr, which is
imported on the first call: importing this module loads numpy only.

The empirical covariance reported for the rescaled centred counts is
the uncentered second-moment matrix: the centring already happened
through the weight term, the limit law has mean zero, and this choice
makes the second-moment table identity exact.  The empirical mean is
reported alongside.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .maps import max_denominator

_CHUNK = 4096


def _dot(a, b) -> float:
    """Deterministic chunked product-sum (math.fsum of the chunk partials)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    partials = [
        float(np.dot(a[s : s + _CHUNK], b[s : s + _CHUNK])) for s in range(0, len(a), _CHUNK)
    ]
    return math.fsum(partials)


# ---------------------------------------------------------------------------
# tables


@dataclass
class EnsembleTable:
    """Multiplicity table (q, count vector) -> count for one ensemble.

    Rows are sorted by (q, counts); weights are multiplier * log q.
    """

    algorithm: str
    multiplier: int
    targets: tuple
    qs: np.ndarray
    counts: np.ndarray  # shape (K, d)
    mult: np.ndarray
    denominator_bound: int

    def __post_init__(self):
        keys = (self.qs,) + tuple(self.counts.T)
        # restrictions of a sorted table are sorted already, so check before sorting
        order = slice(None) if _rows_sorted(keys) else np.lexsort(keys[::-1])
        self.qs = np.ascontiguousarray(self.qs[order])
        self.counts = np.ascontiguousarray(self.counts[order])
        self.mult = np.ascontiguousarray(self.mult[order])

    @classmethod
    def from_records(cls, records, targets, algorithm=None):
        """Reduce a trajectory-record stream to its multiplicity table.

        Each record's digit counts are read from its `counts` (label ->
        occurrences, as enumerate_trajectories builds it from the same
        digits), which is trusted to agree with `digits`; the digit string
        is not rescanned.
        """
        targets = tuple(targets)
        rows: dict = {}
        mult = None
        for rec in records:
            key = (rec.point.denominator,) + tuple(rec.counts[t] for t in targets)
            rows[key] = rows.get(key, 0) + 1
            mult = rec.weight_multiplier
        if not rows:
            raise ValueError("empty ensemble")
        keys = np.array(sorted(rows), dtype=np.int64)
        return cls(
            algorithm or "unknown",
            mult,
            targets,
            keys[:, 0],
            keys[:, 1:],
            np.array([rows[tuple(k)] for k in map(tuple, keys)], dtype=np.int64),
            int(keys[-1, 0]),
        )

    @property
    def d(self) -> int:
        return self.counts.shape[1]

    @property
    def size(self) -> int:
        return int(self.mult.sum())

    @property
    def weights(self) -> np.ndarray:
        return self.multiplier * np.log(self.qs.astype(np.float64))

    def restrict(self, denominator_bound: int) -> "EnsembleTable":
        keep = self.qs <= denominator_bound
        return EnsembleTable(
            self.algorithm,
            self.multiplier,
            self.targets,
            self.qs[keep],
            self.counts[keep],
            self.mult[keep],
            denominator_bound,
        )

    def restrict_weight(self, Q: float) -> "EnsembleTable":
        """Sub-ensemble with w(x) < Q strictly."""
        return self.restrict(max_denominator(self.multiplier, Q))


def _rows_sorted(keys) -> bool:
    """Whether the rows are in lexicographic order of the key columns, in one pass per column."""
    tied = True
    for col in keys:
        step = np.diff(col)
        if np.any(tied & (step < 0)):
            return False
        tied = tied & (step == 0)
    return True


# ---------------------------------------------------------------------------
# scalar statistics


def empirical_lambda(table: EnsembleTable, Q: float) -> np.ndarray:
    """Ensemble mean of counts over Q, one entry per target.

    The count sums are exact (int64 products and sums, below 2^63) and
    divided once."""
    if table.size == 0:
        raise ValueError("empty ensemble")
    m = table.mult.astype(np.int64, copy=False)
    return np.array([
        int(np.dot(m, table.counts[:, k].astype(np.int64, copy=False))) / (Q * table.size)
        for k in range(table.d)
    ])


def growth_constant(table: EnsembleTable, Q: float) -> tuple:
    """(ensemble size, size * exp(-Q))."""
    n = table.size
    return n, n * math.exp(-Q)


def ks_distance(values, weights, cdf) -> float:
    """Exact sup distance between a weighted empirical CDF and a CDF."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    x = values[order]
    w = weights[order]
    total = w.sum()
    hi = np.cumsum(w) / total
    lo = hi - w / total
    g = cdf(x)
    return float(max(np.abs(hi - g).max(), np.abs(lo - g).max()))


def ks_distance_lattice(values, weights, width: float, sigma: float) -> float:
    """Continuity-corrected sup distance of a lattice law to N(0, sigma^2).

    An integer count N has CDF atoms, so its KS distance to a continuous
    law keeps a floor of half an atom however close the laws are.  The
    standard correction replaces N by N + U with U uniform on [-1/2, 1/2]:
    the atom of mass weights[i] at values[i] is spread uniformly over an
    interval of the given width centred there (width = 1/sqrt(Q) for
    counts rescaled by sqrt(Q)).  The corrected CDF is piecewise linear;
    the sup of its distance to the Gaussian CDF is attained at a
    breakpoint or inside a segment where the Gaussian density equals the
    segment's slope, and both are evaluated exactly.
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    x = np.concatenate([v - 0.5 * width, v + 0.5 * width])
    dslope = np.concatenate([w, -w]) / (w.sum() * width)
    order = np.argsort(x, kind="stable")
    x = x[order]
    slope = np.cumsum(dslope[order])[:-1]  # slope on [x_k, x_k+1]
    F = np.concatenate([[0.0], np.cumsum(slope * np.diff(x))])
    dist = float(np.abs(F - gaussian_cdf(x, sigma)).max())
    with np.errstate(divide="ignore", invalid="ignore"):
        r = sigma * np.sqrt(-2.0 * np.log(slope * sigma * math.sqrt(2.0 * math.pi)))
    for c in (-r, r):  # NaN (no solution) compares False
        k = np.nonzero((c > x[:-1]) & (c < x[1:]))[0]
        if k.size:
            Fc = F[k] + slope[k] * (c[k] - x[k])
            dist = max(dist, float(np.abs(Fc - gaussian_cdf(c[k], sigma)).max()))
    return dist


def gaussian_cdf(x, sigma: float):
    """Standard-accuracy normal CDF (absolute error well below 1e-10).

    scipy.special is imported on the first call, not with the module, so
    that a process which never evaluates a normal CDF never loads scipy.
    """
    from scipy.special import ndtr

    return ndtr(np.asarray(x, dtype=np.float64) / sigma)


def q_fit(Qs, values, exponents) -> np.ndarray:
    """Least-squares coefficients of values ~ sum_e c_e Q^e, one per exponent.

    Under the quasi-power law every cumulant of a digit count is affine
    in Q up to exponentially small terms, so exponents (1, 0) read a
    limit constant off as a slope, free of the O(1) offset that dividing
    by a single Q leaves as an O(1/Q) bias; exponents (0, -1/2, -3/2)
    read the limit of a normalised third moment off as the constant
    term.  values may be 2-d with one row per Q; each column is fitted.
    """
    Qs = np.asarray(Qs, dtype=np.float64)
    if len(Qs) < len(exponents):
        raise ValueError("need at least as many Q points as exponents")
    basis = np.stack([Qs**e for e in exponents], axis=1)
    coef, *_ = np.linalg.lstsq(basis, np.asarray(values, dtype=np.float64), rcond=None)
    return coef


@dataclass
class EmpiricalSummary:
    ensemble_size: int
    targets: tuple
    lambda_empirical: np.ndarray
    mean_phi: np.ndarray
    covariance: np.ndarray  # uncentered second moment of phi / sqrt(Q)
    sigma_spectral: np.ndarray
    ks_distance: np.ndarray
    histograms: list  # per target: (bin_edges, counts)
    moments: dict
    low_confidence: bool


def _centred(table: EnsembleTable, lam: np.ndarray) -> list:
    """The centred counts N_k - w Lambda_k, one float64 column per target."""
    w = table.weights
    return [table.counts[:, k].astype(np.float64) - w * lam[k] for k in range(table.d)]


def _ks_to_normal(phi, m, sigmas) -> np.ndarray:
    """KS distance of each column phi_k, weighted by m, to N(0, sigma_k^2)."""
    return np.array([ks_distance(p, m, lambda x: gaussian_cdf(x, s)) for p, s in zip(phi, sigmas)])


def ks_distances(table: EnsembleTable, lambda_bar, Q: float, sigma_matrix) -> np.ndarray:
    """The ks_distance of clt_summary(table, lambda_bar, Q, sigma_matrix),
    without the rest of the summary."""
    if table.size == 0:
        raise ValueError("empty ensemble")
    phi = [c / math.sqrt(Q) for c in _centred(table, np.asarray(lambda_bar, dtype=np.float64))]
    sigmas = np.sqrt(np.diag(np.asarray(sigma_matrix, dtype=np.float64)))
    return _ks_to_normal(phi, table.mult.astype(np.float64), sigmas)


def clt_summary(
    table: EnsembleTable,
    lambda_bar,
    Q: float,
    sigma_matrix=None,
    bins: int = 101,
) -> EmpiricalSummary:
    """Distributional summary of the rescaled centred counts.

    lambda_bar is the centring vector (spectral by default in the CLI;
    pass the empirical estimate to recentre empirically).  sigma_matrix
    supplies the marginal scales for the fixed histogram range
    [-5 sigma, 5 sigma] and the reference Gaussians for the KS
    distances; it defaults to the empirical second moment.
    """
    if table.size == 0:
        raise ValueError("empty ensemble")
    lam = np.asarray(lambda_bar, dtype=np.float64)
    centred = _centred(table, lam)
    phi = [c / math.sqrt(Q) for c in centred]
    m = table.mult.astype(np.float64)
    total = table.size
    d = table.d
    mean_phi = np.array([_dot(m, phi[k]) / total for k in range(d)])
    cov = np.empty((d, d))
    for i in range(d):
        for k in range(i, d):
            cov[i, k] = cov[k, i] = _dot(m, phi[i] * phi[k]) / total
    sig = np.asarray(sigma_matrix, dtype=np.float64) if sigma_matrix is not None else cov
    sigmas = np.sqrt(np.diag(sig))
    ks = _ks_to_normal(phi, m, sigmas)
    hists = []
    for k in range(d):
        edges = np.linspace(-5.0 * sigmas[k], 5.0 * sigmas[k], bins + 1)
        counts, _ = np.histogram(phi[k], bins=edges, weights=m)
        hists.append((edges, counts.astype(np.int64)))
    moments = _moments(table, centred, Q, max_order=4)
    return EmpiricalSummary(
        ensemble_size=total,
        targets=table.targets,
        lambda_empirical=empirical_lambda(table, Q),
        mean_phi=mean_phi,
        covariance=cov,
        sigma_spectral=sig,
        ks_distance=ks,
        histograms=hists,
        moments=moments,
        low_confidence=total < 100,
    )


def _multi_indices(d: int, max_order: int) -> list:
    """Every exponent tuple of length d and order 1..max_order, by order, then lexicographically."""
    ixs = itertools.product(range(max_order + 1), repeat=d)
    return sorted((ix for ix in ixs if 1 <= sum(ix) <= max_order), key=sum)


def moment_table(table: EnsembleTable, lambda_bar, Q: float, max_order: int = 4) -> dict:
    """Normalized mixed moments of the centred counts.

    Entry p-hat maps to sum of phi^p-hat over the ensemble divided by
    (size * Q^{|p-hat|/2}).  Even orders approach the Gaussian pairing
    values, odd orders approach zero.

    The power columns phi_k^p are built once per target by repeated
    multiplication, each the previous times phi_k, and every monomial is
    the product of its columns in target order.
    """
    if table.size == 0:
        raise ValueError("empty ensemble")
    return _moments(table, _centred(table, np.asarray(lambda_bar, dtype=np.float64)), Q, max_order)


def _moments(table: EnsembleTable, centred: list, Q: float, max_order: int) -> dict:
    """moment_table over the given centred count columns of the table."""
    powers = []  # powers[k][p - 1] = phi_k^p
    for col in centred:
        cols = [col]
        for _ in range(1, max_order):
            cols.append(cols[-1] * col)
        powers.append(cols)
    m = table.mult.astype(np.float64)
    total = table.size
    out = {}
    for ix in _multi_indices(table.d, max_order):
        term = None
        for k, power in enumerate(ix):
            if power:
                col = powers[k][power - 1]
                term = col if term is None else term * col
        out[ix] = _dot(m, term) / (total * Q ** (sum(ix) / 2.0))
    return out


def ldp_tail(
    tables_by_Q, target_index: int, lambda_j: float, eps: float, continuity: bool = False
) -> dict:
    """Deviation proportions over a Q grid and the fitted log-slope.

    tables_by_Q is a list of (Q, table) with increasing Q (at least 4
    points).  Zero proportions are recorded as -inf log-proportion and
    excluded from the least-squares fit.

    With continuity=True the proportion is P(|N + U - lambda_j Q| > eps Q)
    with U uniform on [-1/2, 1/2], computed exactly: the band edges then
    move smoothly in Q instead of jumping whenever (lambda_j +- eps) Q
    crosses an integer.
    """
    if len(tables_by_Q) < 4:
        raise ValueError("need at least 4 grid points")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if any(table.size == 0 for _, table in tables_by_Q):
        raise ValueError("empty ensemble")
    Qs, props = [], []
    for Q, table in tables_by_Q:
        m = table.mult.astype(np.float64)
        n = table.counts[:, target_index]
        if continuity:
            above = np.clip(n + 0.5 - (lambda_j + eps) * Q, 0.0, 1.0)
            below = np.clip((lambda_j - eps) * Q - n + 0.5, 0.0, 1.0)
            props.append(_dot(m, above + below) / table.size)
        else:
            dev = np.abs(n / Q - lambda_j) > eps
            props.append(float(m[dev].sum() / table.size))
        Qs.append(Q)
    logp = [math.log(p) if p > 0 else -math.inf for p in props]
    pts = [(q, lp) for q, lp in zip(Qs, logp) if lp > -math.inf]
    if len(pts) >= 2:
        qa = np.array([p[0] for p in pts])
        la = np.array([p[1] for p in pts])
        slope, intercept = np.polyfit(qa, la, 1)
    else:
        slope, intercept = math.nan, math.nan
    return {
        "Q": Qs,
        "proportion": props,
        "log_proportion": logp,
        "slope": float(slope),
        "intercept": float(intercept),
        "eps": eps,
        "nonincreasing": all(b <= a for a, b in zip(props, props[1:])),
    }


def dirichlet_partial_sum(
    table: EnsembleTable, s: float, t=None, Q: float | None = None, log: bool = False
) -> float:
    """Truncated two-variable series sum of exp(-s w + <t, counts>).

    Terms are q^(-s * multiplier) * exp(<t, counts>).  With log=True the
    natural log of the sum is accumulated by log-sum-exp, which stays
    finite in parameter ranges where the terms themselves overflow or
    underflow double precision.
    """
    if Q is not None:
        table = table.restrict_weight(Q)
    t = np.zeros(table.d) if t is None else np.asarray(t, dtype=np.float64)
    if len(t) != table.d:
        raise ValueError("t dimension mismatch")
    logterm = -s * table.weights + table.counts.astype(np.float64) @ t
    m = table.mult.astype(np.float64)
    if logterm.size == 0:
        return -math.inf if log else 0.0
    if log:
        shift = float(logterm.max())
        return shift + math.log(math.fsum((np.exp(logterm - shift) * m).tolist()))
    return _dot(m, np.exp(logterm))
