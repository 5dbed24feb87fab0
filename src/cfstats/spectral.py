"""Collocation realization of the weighted transfer operators.

The operator acting on a grid function f is

    (L f)(x) = sum over admissible branches h of
               |J_h(x)|^s * exp(<t, e(h)>) * f(h(x)),

where e(h) is the indicator vector of the branch digit among the target
labels.  Functions are stored at midpoint collocation nodes (uniform per
axis), and the leading eigenvalue comes from sup-norm power iteration.

Each map has one branch table (_assemble_gauss, _assemble_brun2,
_assemble_jp).  It emits every branch as a stencil: a coefficient, the
branch weight |J_h|^s e^<t, e(h)>, times a fixed linear combination of
node values.  The table adds its branches in chunks, stacked on a
leading axis (a range of digits, or the digits a of one JP digit b).
An add hands its reader the chunk as a function of a slice of that
axis, which gives the slice's stencil, as a sequence of (cols, shift,
weight) entries made one (bi)linear corner at a time (an entry reads
the nodes cols + shift), and its coefficients.  Images, coefficients,
target weights and stencils are elementwise in the branch, so a slice
gives the same slice of the whole chunk.  Digits up to an exact cap
are single branches, read at their images by (bi)linear interpolation;
all digits beyond the cap are folded into Hurwitz-zeta sums against f
near the shrinking images.

Two readers take the same table.  _Apply evaluates each chunk in slabs
of a few thousand output values, which stay in cache, and sums them in
the order of the whole chunk, for a single apply_operator call.
_Assembly is the one matrix reader: it evaluates each chunk whole and
sums the entries into a sparse matrix, duplicates coalesced batch by
batch and the batches merged as a stack of partial sums, with its s-
and t-derivatives as reweighted stencils.  leading_eigenvalue builds
that matrix once and iterates products with it; operator_matrix is its
dense form.  eigenvalue_derivatives builds it once with its derivatives,
iterates on it, and applies perturbation theory around that solve.  The
branches beyond j_max sit inside the closed-form fold; an integral
bracket on them, the tail bar, is computed once per solve from the
returned eigenfunction.

Dimensions 1 (Gauss) and 2 (Brun, Jacobi-Perron) are supported.  The
invariant density (invariant_density, no solve of its own), the digit
frequency vector and the covariance matrix come from one leading
eigenpair at (1, 0) and its derivatives; the non-arithmeticity
witnesses come from periodic points in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class OperatorParams:
    """Operator parameters: exponent s, digit weights t over the targets.

    j_max caps the digit sum (Gauss/Brun digit j, JP digit b); the
    beyond-cap tail is folded in closed form and bracketed.
    """

    s: float
    t: tuple
    targets: tuple
    j_max: int

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
    residual: float
    tail_bar: float


# ---------------------------------------------------------------------------
# stencils


def _stencil1(y: np.ndarray, G: int) -> tuple:
    """Left node index and fraction of the linear stencil at y: piecewise-
    linear interpolation on midpoint nodes, extrapolating linearly at both
    ends (queries stay within half a spacing of the node range)."""
    pos = y * G
    pos -= 0.5
    left = np.floor(pos)
    np.clip(left, 0, G - 2, out=left)
    pos -= left
    return left.astype(np.int64), pos


def _stencil2(yx: np.ndarray, yy: np.ndarray, G: int) -> tuple:
    """Lower-left node indices and fractions of the bilinear stencil."""
    ix, fx = _stencil1(yx, G)
    iy, fy = _stencil1(yy, G)
    return ix, iy, fx, fy


def _linear_entries(idx: np.ndarray, frac: np.ndarray):
    """The two (cols, shift, weight) entries of the linear stencil at (idx,
    frac), left node first; an entry reads the nodes cols + shift."""
    yield idx, 0, 1.0 - frac
    yield idx, 1, frac


def _corner_entries(ix, iy, fx, fy, G: int):
    """The four (cols, shift, weight) entries of the bilinear stencil, flat
    node indices of the lower-left corner, the flat step to the corner,
    and weights, one corner at a time in the order (ix, iy), (ix, iy + 1),
    (ix + 1, iy), (ix + 1, iy + 1)."""
    base = ix * G + iy
    ys = ((0, 1 - fy), (1, fy))
    for dx, wx in ((0, 1 - fx), (G, fx)):
        for dy, wy in ys:
            yield base, dx + dy, wx * wy


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


def _cell_stencil(in_p1: np.ndarray, yx, yy, want_p1, G: int) -> tuple:
    """Bilinear stencil restricted to nodes of one cell.

    Returns (ix, iy, fx, fy, ok, nx, ny): where ok, the bilinear stencil
    at (ix, iy); elsewhere the stencil straddles the diagonal and falls
    back to the nearest node (nx, ny) of the wanted cell, which keeps
    cell-discontinuous functions from mixing.
    """
    ix, iy, fx, fy = _stencil2(yx, yy, G)
    ok = (
        (in_p1[ix, iy] == want_p1)
        & (in_p1[ix + 1, iy] == want_p1)
        & (in_p1[ix, iy + 1] == want_p1)
        & (in_p1[ix + 1, iy + 1] == want_p1)
    )
    # nearest node on the wanted side of the diagonal
    nx = np.clip(np.round(yx * G - 0.5).astype(np.int64), 0, G - 1)
    ny = np.clip(np.round(yy * G - 0.5).astype(np.int64), 0, G - 1)
    # else one step across the diagonal: up-left into P1, down-right into P2
    wrong = in_p1[nx, ny] != want_p1
    step = np.where(want_p1, -1, 1)
    nx = np.where(wrong, np.clip(nx + step, 0, G - 1), nx)
    ny = np.where(wrong, np.clip(ny - step, 0, G - 1), ny)
    return ix, iy, fx, fy, ok, nx, ny


def _jp_branch_image(a, b: int, xi: np.ndarray, eta: np.ndarray) -> tuple:
    den = b + eta
    return 1.0 / den, (xi + a) / den


def _jp_checked_image(a: np.ndarray, b: int, xi: np.ndarray, eta: np.ndarray) -> tuple:
    """Images of the branches (a, b) for the digits a on the leading axis,
    and their cells (True for P1 = {xi < eta}, where a >= 1); raises
    MarkovViolationError if an image leaves its cell at some node."""
    img_xi, img_eta = _jp_branch_image(a, b, xi, eta)
    want_p1 = a >= 1
    left = np.where(want_p1, img_eta < img_xi - 1e-12, img_eta > img_xi + 1e-12)
    if left.any():
        bad = int(np.broadcast_to(a, left.shape)[left][0])
        cell = "P1" if bad >= 1 else "P2"
        raise MarkovViolationError(f"branch ({bad},{b}) image left cell {cell} at some node")
    return img_xi, img_eta, want_p1


# ---------------------------------------------------------------------------
# branch coefficients


# Euler-Maclaurin summation of the Hurwitz zeta: direct terms, then the
# Bernoulli numbers B_2, B_4, ..., B_14 of the remainder
_EM_TERMS = 10
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _taylor_mul(p, q) -> list:
    """Product of two Taylor polynomials, truncated to the shorter one."""
    return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(min(len(p), len(q)))]


def _zeta_derivatives(sigma: float, a, orders: int = 3) -> np.ndarray:
    """The Hurwitz zeta(sigma, a) and its first orders - 1 (at most two)
    sigma-derivatives, stacked.

    Euler-Maclaurin: _EM_TERMS terms summed directly, then at A = a +
    _EM_TERMS the integral, the half term and the Bernoulli corrections,
    each expanded as a Taylor polynomial in sigma.  Needs sigma > 1, a > 0.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.zeros((orders,) + a.shape)
    for n in range(_EM_TERMS):
        p = (a + n) ** -sigma
        out[0] += p
        if orders > 1:
            lg = -np.log(a + n)
            out[1] += lg * p
            out[2] += lg * lg * p
    A = a + _EM_TERMS
    u = sigma - 1.0
    # A^sigma times the remainder at sigma + eps, as coefficients of eps^k
    rem = [A / u + 0.5, -A / u**2, A / u**3][:orders]
    rising = [1.0, 0.0, 0.0][:orders]  # (sigma + eps)(sigma + 1 + eps)...
    factors = 0
    for j, bern in enumerate(_BERNOULLI, start=1):
        while factors < 2 * j - 1:
            rising = _taylor_mul(rising, [sigma + factors, 1.0, 0.0])
            factors += 1
        scale = bern / math.factorial(2 * j) * A ** (1 - 2 * j)
        rem = [r + scale * c for r, c in zip(rem, rising)]
    if orders > 1:
        lg = -np.log(A)
        rem = _taylor_mul([1.0, lg, 0.5 * lg * lg], rem)  # times A^-eps
    scale = np.array([1.0, 1.0, 2.0])[:orders].reshape((orders,) + (1,) * a.ndim)
    out += np.stack(rem) * A**-sigma * scale
    return out


def _zeta_coef(k: float, shift: float, s: float, a, orders: int) -> np.ndarray:
    """zeta(k s + shift, a) and its first orders - 1 s-derivatives, stacked."""
    z = _zeta_derivatives(k * s + shift, a, orders)
    return z * np.array([1.0, k, k * k])[:orders].reshape((orders,) + (1,) * (z.ndim - 1))


def _power_coef(base, k: float, s: float, orders: int) -> np.ndarray:
    """base^(-k s) and its first orders - 1 (none or two) s-derivatives, stacked."""
    w = base ** (-k * s)
    if orders == 1:
        return w[None]
    lg = -k * np.log(base)
    return np.stack([w, lg * w, lg * lg * w])


# ---------------------------------------------------------------------------
# the branch tables


# Exact-interpolation cap per dimension; digits beyond it map into a
# neighbourhood of the origin small enough for the folds.
_EXACT_CAP_1D = 1024
_EXACT_CAP_2D = 512
_EXACT_CAP_JP = 64  # digit b


def _exact_cap(params: OperatorParams, cap: int, kind: str) -> int:
    """The last digit summed branch by branch, min(j_max, cap).

    Targets must be exactly summed or entirely absent.  A label beyond
    j_max lies outside the truncated branch set and simply never
    receives its weight (its frequency is zero); a label between the
    exact cap and j_max would be silently mis-weighted, so it is rejected.
    """
    cap = min(params.j_max, cap)
    for lab in params.targets:
        j = lab if isinstance(lab, int) else lab[1]
        if cap < j <= params.j_max:
            raise ValueError(f"target {lab} exceeds the exact {kind} cap {cap}")
    return cap


def _add_branches(acc, params: OperatorParams, rows, labels: list, keys: np.ndarray, branches) -> None:
    """Add the branches labelled by labels, as one add of len(labels)
    stacked branches.  branches(keys[sl]) gives the stencil entries (cols,
    shift, weight) and coef of the branches sl, stacked on axis 0 of every
    entry and on axis 1 of coef (axis 0 stacks the s-derivatives); all of
    it is elementwise in the keys, so a slice of them gives the same slice
    of every array.  The branch of target k is weighted by exp(t_k), and
    the add maps each target's label to its index in the chunk."""
    hits = [i for i, lab in enumerate(labels) if lab in params.targets]
    tf = np.ones(len(labels))
    tf[hits] = [math.exp(params.t[params.targets.index(labels[i])]) for i in hits]

    def part(sl):
        entries, coef = branches(keys[sl])
        if hits:
            coef = coef * tf[sl].reshape((1, -1) + (1,) * (coef.ndim - 2))
        return entries, coef

    acc.add(rows, len(labels), part, {labels[i]: i for i in hits})


def _whole(entries, coef):
    """The part function of an add with no stacked branch axis (a fold):
    it gives (entries, coef) whatever the slice."""
    return lambda sl: (entries, coef)


def _assemble_gauss(acc, params: OperatorParams, G: int) -> None:
    x = (np.arange(G) + 0.5) / G
    rows = np.arange(G)
    cap = _exact_cap(params, _EXACT_CAP_1D, "Gauss digit")

    def branches(j):
        den = j[:, None] + x[None, :]
        return _linear_entries(*_stencil1(1.0 / den, G)), _power_coef(den, 2.0, params.s, acc.orders)

    # digits per add: fixes how the sums group.  The keys are float, so
    # that the images take no int-to-float cast.
    step = max(1, 2**16 // G)
    for lo in range(1, cap + 1, step):
        j = range(lo, min(lo + step, cap + 1))
        _add_branches(acc, params, rows, list(j), np.array(j, dtype=np.float64), branches)
    # every digit beyond cap, folded with f(y) ~ f0 + f1*y near y = 0: the
    # line through the first two nodes, f1 = G (v1 - v0), f0 = v0 - f1 / (2G)
    origin = np.array([0])
    fold = [(origin, 0, np.array([1.5])), (origin, 1, np.array([-0.5]))]
    acc.add(rows, 1, _whole(fold, _zeta_coef(2.0, 0.0, params.s, cap + 1 + x, acc.orders)))
    fold = [(origin, 0, np.array([-G])), (origin, 1, np.array([G]))]
    acc.add(rows, 1, _whole(fold, _zeta_coef(2.0, 1.0, params.s, cap + 1 + x, acc.orders)))


def _assemble_brun2(acc, params: OperatorParams, G: int) -> None:
    x = (np.arange(G) + 0.5) / G
    x1, x2 = x[:, None], x[None, :]
    rows = np.arange(G * G).reshape(G, G)
    cap = _exact_cap(params, _EXACT_CAP_2D, "Brun digit")

    def first(j):  # the family dividing by j + x2
        den = j[:, None, None] + x2
        entries = _corner_entries(*_stencil2(1.0 / den, x1 / den, G), G)
        return entries, _power_coef(den, 3.0, params.s, acc.orders)

    def second(j):  # the family dividing by j + x1
        den = j[:, None, None] + x1
        entries = _corner_entries(*_stencil2(x2 / den, 1.0 / den, G), G)
        return entries, _power_coef(den, 3.0, params.s, acc.orders)

    step = max(1, 2**16 // G**2)  # digits per add, as for Gauss
    for lo in range(1, cap + 1, step):
        j = range(lo, min(lo + step, cap + 1))
        keys = np.array(j, dtype=np.float64)
        _add_branches(acc, params, rows, list(j), keys, first)
        _add_branches(acc, params, rows, list(j), keys, second)
    # both families send digits beyond cap toward the origin
    y = np.array([0.5 / (cap + 1)])
    z = _zeta_coef(3.0, 0.0, params.s, cap + 1 + x2, acc.orders) + _zeta_coef(
        3.0, 0.0, params.s, cap + 1 + x1, acc.orders
    )
    acc.add(rows, 1, _whole(_corner_entries(*_stencil2(y, y, G), G), z))


def _assemble_jp(acc, params: OperatorParams, G: int) -> None:
    if params.s <= 2.0 / 3.0:
        raise ValueError("the truncated JP branch sum needs s > 2/3")
    xi, eta, in_p1 = _jp_cells(G)
    rows = np.arange(G * G).reshape(G, G)
    cap = _exact_cap(params, _EXACT_CAP_JP, "JP digit b")

    def branches(a, b, coef):
        # the branches (a, b) for the digits a, stacked
        img_xi, img_eta, want_p1 = _jp_checked_image(a[:, None, None], b, xi, eta)
        ix, iy, fx, fy, ok, nx, ny = _cell_stencil(in_p1, img_xi, img_eta, want_p1, G)
        entries = [(c, d, w * ok) for c, d, w in _corner_entries(ix, iy, fx, fy, G)]
        entries.append((nx * G + ny, 0, (~ok).astype(np.float64)))
        if a[-1] == b:
            for *_, w in entries:
                w[-1] *= in_p1  # the diagonal branch acts on P1 only
        return entries, coef

    for b in range(1, cap + 1):
        coef = _power_coef(b + eta, 3.0, params.s, acc.orders)[:, None]
        part = functools.partial(branches, b=b, coef=coef)
        _add_branches(acc, params, rows, [(a, b) for a in range(b + 1)], np.arange(b + 1), part)
    # Tail over b > cap: the images (1/(b+eta), (xi+a)/(b+eta)) line up
    # along the left edge with eta-values spaced 1/(b+eta), so the a-sum
    # is (b+eta) times the edge integral of f (Riemann, O(1/b) error):
    # f_bar * z1 + (in_p1 - eta) * f_top * z0, from the mean and the last
    # of the left-edge values values[0, :] (the diagonal branch in P1 only)
    z1 = _zeta_coef(3.0, -1.0, params.s, cap + 1 + eta, acc.orders)
    z0 = _zeta_coef(3.0, 0.0, params.s, cap + 1 + eta, acc.orders)
    acc.add(rows, 1, _whole([(np.full((1, 1), k), 0, np.full((1, 1), 1.0 / G)) for k in range(G)], z1))
    acc.add(rows, 1, _whole([(np.full((1, 1), G - 1), 0, np.ones((1, 1)))], (in_p1 - eta) * z0))


# Integral brackets on the branches beyond j_max, which the folds of the
# branch tables include; each is evaluated at one grid function (values).


def _tail_bar_gauss(values: np.ndarray, params: OperatorParams) -> float:
    G = values.size
    x = (np.arange(G) + 0.5) / G
    s2 = 2.0 * params.s
    x0 = 0.5 / G
    f1 = float(values[1] - values[0]) * G
    f0 = float(values[0]) - f1 * x0
    jm = params.j_max
    lo = (jm + 1 + x) ** (1.0 - s2) / (s2 - 1.0)
    hi = (jm + x) ** (1.0 - s2) / (s2 - 1.0)
    return float(((hi - lo) * max(abs(f0), abs(f0 + f1))).max())


def _tail_bar_brun2(values: np.ndarray, params: OperatorParams) -> float:
    G = values.shape[0]
    x = (np.arange(G) + 0.5) / G
    x1, x2 = x[:, None], x[None, :]
    s3 = 3.0 * params.s
    cap = min(params.j_max, _EXACT_CAP_2D)
    y = np.array([0.5 / (cap + 1)])
    entries = _corner_entries(*_stencil2(y, y, G), G)
    cols, weight = map(np.concatenate, zip(*((c + d, w) for c, d, w in entries)))
    f_org = float(weight @ values.ravel()[cols])
    lo = (cap + 2 + x2) ** (1.0 - s3) / (s3 - 1.0) + (cap + 2 + x1) ** (1.0 - s3) / (s3 - 1.0)
    hi = (cap + x2) ** (1.0 - s3) / (s3 - 1.0) + (cap + x1) ** (1.0 - s3) / (s3 - 1.0)
    return float(((hi - lo) * abs(f_org)).max() + abs(f_org) * 2.0 * (cap ** -1.0) / G)


def _tail_bar_jp(values: np.ndarray, params: OperatorParams) -> float:
    _, eta, _ = _jp_cells(values.shape[0])
    s3 = 3.0 * params.s
    cap = min(params.j_max, _EXACT_CAP_JP)
    z1 = _zeta_derivatives(s3 - 1.0, cap + 1 + eta, 1)[0]
    z0 = _zeta_derivatives(s3, cap + 1 + eta, 1)[0]
    f_edge = values[0, :]
    return float(((abs(f_edge).max() - min(0.0, f_edge.min())) * (z1 / (cap + 1) + z0)).max())


# algorithm -> (branch table, tail bar)
_MAPS = {
    "gauss": (_assemble_gauss, _tail_bar_gauss),
    "brun": (_assemble_brun2, _tail_bar_brun2),
    "jp": (_assemble_jp, _tail_bar_jp),
}


# ---------------------------------------------------------------------------
# reading a branch table: the operator applied, and as a matrix


def _branch_table(map_desc: MapDescriptor, G: int) -> tuple:
    if map_desc.algorithm == "brun" and map_desc.m != 2:
        raise ValueError("spectral Brun operator is implemented for m = 2")
    if G < 2:
        raise ValueError(f"grid G = {G} must be at least 2: the stencils read two nodes per axis")
    return _MAPS[map_desc.algorithm]


class _Apply:
    """The operator applied to one grid function, in slabs of stacked
    branches.

    add() takes the arguments of _Assembly.add and adds coef[0] * sum_k
    weight_k * values[cols_k + shift_k] at the output nodes rows, summed
    over the n stacked branches; it reads only the value row of coef
    (orders = 1).  It evaluates part on slabs of about _SLAB output
    values, so that the images, coefficients, stencils and gathers of a
    slab stay in cache instead of streaming a whole add through memory.
    An entry is gathered through the view values[shift_k:], so the
    shifted columns are never formed.  Within a slab the entries are
    accumulated in place, in order; the slab's stacked rows are then
    added one at a time, in order, onto the add's running sum (a sum
    over axis 0 of the running sum stacked on them), which is added into
    out[rows] once.  That is the association of a reduction over axis 0
    of the whole add, so the bytes do not depend on the slab size.  The targets of an add are ignored: they matter only to the
    derivative matrices.
    """

    orders = 1
    # Output values per slab.  Its float64 arrays take 64 KB each; at
    # 2^14 (128 KB) the allocator handed them out as fresh pages, about
    # 2,500 page faults per Gauss apply at G = 1024.
    _SLAB = 1 << 13

    def __init__(self, f: GridFunction):
        self.values = f.values.ravel()
        self.out = np.zeros(self.values.size)

    def add(self, rows, n, part, targets=None):
        step = max(1, self._SLAB // rows.size)
        total = None
        for lo in range(0, n, step):
            entries, coef = part(slice(lo, lo + step))
            entries = iter(entries)
            cols, shift, weight = next(entries)
            slab = self.values[shift:][cols]
            slab *= weight
            for cols, shift, weight in entries:
                term = self.values[shift:][cols]
                term *= weight
                slab += term
            slab = (coef[0] * slab).reshape((-1,) + rows.shape)
            if total is not None:
                slab = np.concatenate((total[None], slab))
            total = slab.sum(axis=0)
        self.out[rows] += total


def apply_operator(f: GridFunction, params: OperatorParams, map_desc: MapDescriptor) -> GridFunction:
    """One application of the transfer operator to a grid function, read
    from the branch table slab by slab (_Apply), so an apply holds no
    stacked chunk and costs less than one matrix build."""
    acc = _Apply(f)
    _branch_table(map_desc, f.G)[0](acc, params, f.G)
    return GridFunction(f.m, f.G, acc.out.reshape(f.values.shape))


# Largest grid (G^m nodes) whose operator is made dense: operator_matrix,
# and the bordered inverse of eigenvalue_derivatives.  One dense matrix at
# the cap is 134 MB, and the derivatives hold two: the bordered matrix and
# its inverse.
_MAX_ASSEMBLED_NODES = 4096


class _Assembly:
    """The operator as a sparse matrix, and its s- and t-derivatives.

    Every branch term is a coefficient times a linear stencil of node
    values.  add(rows, n, part) takes n stacked branches at each output
    node (rows) as a function of a slice of them: part(slice) gives the
    stencil as a sequence of (cols, shift, weight) entries, which read
    the nodes cols + shift, and the coefficient with its first orders - 1
    s-derivatives (coef[0..orders-1]; orders is 1 or 3); within an entry
    all broadcast together.  This reader calls part once, on all n
    branches.  The entries are summed into CSR matrices, duplicates
    coalesced: L, and for orders = 3 also L_s and L_ss.  targets maps the
    label of each target branch among the n to its index.  For orders =
    3 that branch is sliced out of the entries, added again with its
    label and kept apart: d/dt_k of the operator is exactly the entries
    of target k, and d2/ds dt_k their s-derivative.

    Every entry reaches each node once per stacked branch, so it is
    queued as layers of one entry per row.  A batch of S = max(4, _FLUSH
    // N) layers is a CSR matrix with S entries per row as it stands,
    duplicates summed after a sort within rows: the _FLUSH floor keeps a
    small operator's transient memory at that of one stencil apply, and
    a large one coalesces at least four entries per row before merging.
    The coalesced batches form a stack of partial sums: the top two are
    merged while the newer holds at least half the nonzeros of the
    older, so each entry takes part in a logarithmic number of merges,
    each a pass over two partial sums only, not over everything summed
    so far.  matrices() merges what is left, newest first.
    """

    _FLUSH = 1 << 15

    def __init__(self, params: OperatorParams, N: int, orders: int):
        # imported here, so that the enumeration and stats paths never load it
        from scipy.sparse import csr_matrix

        self._csr = csr_matrix
        self.params = params
        self.N = N
        self.orders = orders
        self._nodes = np.arange(N)
        self._batch = max(4, self._FLUSH // N)  # in layers
        labels = [None] + (list(params.targets) if orders == 3 else [])
        # per label: the orders kept, the stack of partial sums (one CSR
        # matrix per order each), and the queued (cols, vals) layers
        self._orders = {lab: orders if lab is None else 2 for lab in labels}
        self._stack = {lab: [] for lab in labels}
        self._queue = {lab: [] for lab in labels}
        self._layers = dict.fromkeys(labels, 0)

    def add(self, rows, n, part, targets=None):
        if not np.array_equal(rows.ravel(), self._nodes):
            raise ValueError("a branch table adds at every node, in order, on the trailing axes")
        entries, coef = part(slice(0, n))
        hits = [(label, i) for label, i in (targets or {}).items() if label in self._stack]
        if hits:
            entries = list(entries)  # read again for every target
        self._enqueue(None, rows, entries, coef)
        for label, i in hits:
            self._enqueue(label, rows, [(c[i], d, w[i]) for c, d, w in entries], coef[:, i])

    def _enqueue(self, label, rows, entries, coef):
        coef = coef[: self._orders[label]]
        for c, d, w in entries:
            shape = np.broadcast_shapes(rows.shape, c.shape, w.shape, coef.shape[1:])
            c = np.broadcast_to(c, shape).astype(np.int32).reshape(-1, self.N)
            c += d
            vals = (coef * np.broadcast_to(w, shape)).reshape(len(coef), -1, self.N)
            lo = 0
            while lo < len(c):
                hi = min(len(c), lo + self._batch - self._layers[label])
                self._queue[label].append((c[lo:hi], vals[:, lo:hi]))
                self._layers[label] += hi - lo
                lo = hi
                if self._layers[label] >= self._batch:
                    self._flush(label)

    def _flush(self, label):
        queued, layers, stack = self._queue[label], self._layers[label], self._stack[label]
        if not queued:
            return
        self._queue[label], self._layers[label] = [], 0
        indptr = np.arange(0, layers * self.N + 1, layers)
        cols = np.concatenate([c.T for c, _ in queued], axis=1).ravel()
        part = []
        for i in range(self._orders[label]):
            vals = np.concatenate([v[i].T for _, v in queued], axis=1).ravel()
            # the sort within rows is in place, and each order needs cols unsorted
            indices = cols if i == self._orders[label] - 1 else cols.copy()
            mat = self._csr((vals, indices, indptr), shape=(self.N, self.N))
            mat.sum_duplicates()
            part.append(mat)
        stack.append(part)
        while len(stack) > 1 and 2 * stack[-1][0].nnz >= stack[-2][0].nnz:
            newer = stack.pop()
            stack[-1] = [a + b for a, b in zip(stack[-1], newer)]

    def matrices(self) -> tuple:
        """L, then for orders = 3 L_s, L_ss and per target the pair
        (d/dt_k, d2/ds dt_k); every matrix in CSR form."""
        sums = {}
        for label, stack in self._stack.items():
            self._flush(label)
            total = stack.pop() if stack else [self._csr((self.N, self.N))] * self._orders[label]
            while stack:
                total = [a + b for a, b in zip(stack.pop(), total)]
            sums[label] = total
        per_target = [tuple(sums[lab]) for lab in self.params.targets] if self.orders == 3 else []
        return (*sums[None], *per_target)


def _assembled_nodes(map_desc: MapDescriptor, G: int) -> int:
    N = G**map_desc.m
    if N > _MAX_ASSEMBLED_NODES:
        raise ValueError(
            f"a grid of {N} nodes exceeds the {_MAX_ASSEMBLED_NODES} nodes "
            "of the dense operator matrix"
        )
    return N


def _assemble(params: OperatorParams, map_desc: MapDescriptor, G: int, orders: int) -> tuple:
    """The matrices of _Assembly.matrices, from one read of the branch table."""
    table = _branch_table(map_desc, G)[0]
    acc = _Assembly(params, G**map_desc.m, orders)
    table(acc, params, G)
    return acc.matrices()


def operator_matrix(params: OperatorParams, map_desc: MapDescriptor, G: int) -> np.ndarray:
    """The operator as a dense (G^m, G^m) matrix acting on values.ravel().

    It is the dense form of the sparse matrix that leading_eigenvalue
    iterates, read from the same branch table (one stencil per branch or
    fold) as apply_operator, so the two agree up to rounding.
    """
    _assembled_nodes(map_desc, G)
    return _assemble(params, map_desc, G, 1)[0].toarray()


# ---------------------------------------------------------------------------
# eigen-solve


def _power_iteration(
    L, params: OperatorParams, map_desc: MapDescriptor, G: int, tol: float, max_iter: int
) -> SpectralResult:
    """Dominant eigenvalue and positive eigenfunction of the sparse
    operator matrix L, one product with L per step.  Starts from the
    constant function, renormalizes in sup norm, and stops when the
    eigenvalue ratio changes by less than tol relatively.  The residual
    and the tail bar are evaluated once, at the returned eigenfunction.
    """
    tail_bar = _MAPS[map_desc.algorithm][1]
    shape = (G,) * map_desc.m
    f = np.ones(L.shape[0])
    lam_prev = None
    trace = []
    for it in range(1, max_iter + 1):
        g = L @ f
        lam = float(np.abs(g).max())
        if lam <= 0 or not math.isfinite(lam):
            raise ConvergenceError(f"degenerate iterate at step {it}", trace)
        trace.append(lam)
        g /= lam
        if lam_prev is not None and abs(lam - lam_prev) <= tol * lam:
            resid = float(np.abs(L @ g - lam * g).max())
            if (g <= 0).any():
                raise ConvergenceError("eigenfunction is not strictly positive", trace)
            g = g.reshape(shape)
            return SpectralResult(lam, GridFunction(map_desc.m, G, g), it, resid / lam, tail_bar(g, params))
        lam_prev = lam
        f = g
    raise ConvergenceError(f"no convergence in {max_iter} iterations", trace)


def leading_eigenvalue(
    params: OperatorParams,
    map_desc: MapDescriptor,
    G: int,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> SpectralResult:
    """Dominant eigenvalue and positive eigenfunction by power iteration.

    The operator is built once, as a sparse matrix with duplicate
    entries coalesced (about 60 to 200 nonzeros per row), and each step
    is one product with it (_power_iteration).
    """
    (L,) = _assemble(params, map_desc, G, 1)
    return _power_iteration(L, params, map_desc, G, tol, max_iter)


def invariant_density(res: SpectralResult) -> GridFunction:
    """The eigenfunction of res, a solve at (s, t) = (1, 0), normalized to
    unit integral under midpoint quadrature, on the solve's own grid.

    It is a new GridFunction: res.eigenfunction keeps its sup norm 1.
    """
    f = res.eigenfunction
    return GridFunction(f.m, f.G, f.values / (f.values.sum() * f.G ** -f.m))


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
    """Derivatives of the leading eigenvalue at (1, 0) (eigenvalue_derivatives).

    lambda_s and the raw t-gradient/Hessian describe the plain operator;
    the centred Hessian applies the substitution s -> s - <Lambda, t>
    that normalizes the digit weights.  The *_bar fields estimate the error
    of the linear algebra only (see eigenvalue_derivatives), not the
    collocation error of the grid or the j_max truncation.  solve is the
    power-iteration solve at (1, 0) that gave lambda_value, and j_max the
    branch cap of its operator.
    """

    targets: tuple
    j_max: int
    lambda_value: float
    solve: SpectralResult
    lambda_s: float
    lambda_ss: float
    lambda_t_raw: np.ndarray
    lambda_st_raw: np.ndarray
    hessian_raw: np.ndarray
    frequencies: np.ndarray
    hessian_centred: np.ndarray
    lambda_s_bar: float = 0.0
    lambda_t_bar: float = 0.0
    hessian_bar: float = 0.0


def eigenvalue_derivatives(map_desc: MapDescriptor, targets, G: int, j_max: int) -> DerivativeData:
    """First and second derivatives of the eigenvalue at (1, 0), by
    eigenvalue perturbation theory around one power-iteration solve.

    With N = G^m nodes, one read of the branch table gives the sparse
    operator matrix L with its s- and t-derivatives; the power iteration
    on that L (_power_iteration, tol 1e-13) gives lambda and phi.  K is
    the inverse of the bordered matrix
    B = [[lambda I - L, phi], [phi^T, 0]].  For v, w in
    (s, t_1, ..., t_d), with L_v and L_vw the reweighted stencils:

        psi       = K[N, :N]                   left eigenvector
        lambda_v  = psi^T L_v phi / psi^T phi
        phi_v     = (K [(L_v - lambda_v) phi; 0])[:N]
        g_v       = (L_v - lambda_v)^T psi
        lambda_vw = (psi^T L_vw phi + g_v^T phi_w + g_w^T phi_v) / psi^T phi

    All of it is then redone with phi, psi and every phi_v corrected by
    one step x <- x - K r(x) on its residual r: the eigenpair residual
    (lambda - L) phi, the adjoint residual of psi, and the bordered-solve
    residual of phi_v.  The corrected values are returned, and each bar
    is the largest change the correction made in its group of
    derivatives (lambda_s; the t-gradient; lambda_ss, lambda_st and the
    t-Hessian).  B and K are the only dense matrices; raises ValueError
    above _MAX_ASSEMBLED_NODES nodes.
    """
    targets = tuple(targets)
    d = len(targets)
    N = _assembled_nodes(map_desc, G)
    params = OperatorParams(1.0, (0.0,) * d, targets, j_max)
    L, L_s, L_ss, *per_target = _assemble(params, map_desc, G, 3)
    res = _power_iteration(L, params, map_desc, G, tol=1e-13, max_iter=100_000)
    lam0 = res.eigenvalue
    phi = res.eigenfunction.values.ravel()

    def first(x, transpose=False):
        """(L_v x) for every v, as columns."""
        mats = [L_s] + [t[0] for t in per_target]
        return np.stack([(M.T if transpose else M) @ x for M in mats], axis=1)

    def second(psi, phi):
        """psi^T L_vw phi; d2/dt_k dt_l is d/dt_k for k = l and 0 otherwise."""
        h = np.zeros((d + 1, d + 1))
        h[0, 0] = psi @ (L_ss @ phi)
        for k, (L_t, L_st) in enumerate(per_target):
            h[0, k + 1] = h[k + 1, 0] = psi @ (L_st @ phi)
            h[k + 1, k + 1] = psi @ (L_t @ phi)
        return h

    # only the bordered matrix and its inverse are dense
    B = np.zeros((N + 1, N + 1))
    L = L.tocoo()
    B[L.row, L.col] = -L.data
    B[np.arange(N), np.arange(N)] += lam0
    B[:N, N] = B[N, :N] = phi
    K = np.linalg.inv(B)

    def derivatives(phi, psi, refine):
        c = psi @ phi
        Lphi = first(phi)
        lam1 = psi @ Lphi / c
        rhs = np.zeros((N + 1, d + 1))
        rhs[:N] = Lphi - phi[:, None] * lam1
        sol = K @ rhs
        if refine:
            sol -= K @ (B @ sol - rhs)
        cross = (first(psi, transpose=True) - psi[:, None] * lam1).T @ sol[:N]
        return lam1, (second(psi, phi) + cross + cross.T) / c

    psi = K[N]  # B^T psi = e_N
    lam1_raw, lam2_raw = derivatives(phi, psi[:N], refine=False)
    phi_corr = phi - K[:N, :N] @ (B[:N, :N] @ phi)
    r_psi = psi @ B
    r_psi[N] -= 1.0
    psi_corr = psi - r_psi @ K
    lam1, lam2 = derivatives(phi_corr, psi_corr[:N], refine=True)
    bar1 = np.abs(lam1 - lam1_raw)
    bar2 = np.abs(lam2 - lam2_raw)

    lam_s, lam_ss = lam1[0], lam2[0, 0]
    lam_t = lam1[1:]
    lam_st = lam2[0, 1:]
    hess = lam2[1:, 1:]
    # Normalised operator: with branch weights |J_h|^s e^<t,N> the centring
    # by <t, Lambda> w amounts to s -> s + <Lambda, t>, so all chain-rule
    # terms carry plus signs.
    freqs = -lam_t / lam_s
    hess_c = (
        hess
        + np.outer(freqs, lam_st)
        + np.outer(lam_st, freqs)
        + np.outer(freqs, freqs) * lam_ss
    )
    return DerivativeData(
        targets=targets,
        j_max=j_max,
        lambda_value=lam0,
        solve=res,
        lambda_s=float(lam_s),
        lambda_ss=float(lam_ss),
        lambda_t_raw=lam_t,
        lambda_st_raw=lam_st,
        hessian_raw=hess,
        frequencies=freqs,
        hessian_centred=hess_c,
        lambda_s_bar=float(bar1[0]),
        lambda_t_bar=float(bar1[1:].max(initial=0.0)),
        hessian_bar=float(bar2.max()),
    )


def frequency_constants(map_desc, targets, *, deriv: DerivativeData):
    """Asymptotic digit frequencies per unit weight, one per target of
    deriv (map_desc and targets are not read).

    A frequency must be strictly positive for every target inside the
    truncated branch set; a target beyond j_max is absent and yields 0.
    """
    for lab, freq in zip(deriv.targets, deriv.frequencies):
        j = lab if isinstance(lab, int) else lab[1]
        if j <= deriv.j_max and freq <= 0:
            raise ConvergenceError(f"non-positive frequency for target {lab}: {freq}", [])
    return deriv.frequencies


def covariance_matrix(map_desc, targets, *, deriv: DerivativeData):
    """Limit covariance of the centred counts, from the centred Hessian of
    deriv (map_desc and targets are not read)."""
    sigma = -deriv.hessian_centred / deriv.lambda_s
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
