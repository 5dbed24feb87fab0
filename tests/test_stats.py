import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from cfstats import bulk, stats
from cfstats.maps import GAUSS, BRUN2
from cfstats.orbits import enumerate_trajectories
from cfstats.stats import (
    EnsembleTable,
    clt_summary,
    dirichlet_partial_sum,
    empirical_lambda,
    gaussian_cdf,
    growth_constant,
    ks_distance,
    ks_distance_lattice,
    ks_distances,
    ldp_tail,
    moment_table,
    q_fit,
)


def wick_moment(sigma: np.ndarray, index: tuple) -> float:
    """Gaussian mixed moment for a covariance matrix by pair partitioning."""
    flat = []
    for k, power in enumerate(index):
        flat.extend([k] * power)
    if len(flat) % 2 == 1:
        return 0.0

    def pairings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for i in range(len(rest)):
            for tail in pairings(rest[:i] + rest[i + 1 :]):
                yield [(first, rest[i])] + tail

    return float(sum(math.prod(sigma[i, k] for i, k in prs) for prs in pairings(flat)))


def synthetic_table(rows, targets=(1,), algorithm="gauss", multiplier=2):
    """rows: list of (q, counts tuple, multiplicity)."""
    qs = np.array([r[0] for r in rows], dtype=np.int64)
    counts = np.array([r[1] for r in rows], dtype=np.int64)
    mult = np.array([r[2] for r in rows], dtype=np.int64)
    return EnsembleTable(algorithm, multiplier, tuple(targets), qs, counts, mult, int(qs.max()))


def nominal_Q(table):
    """The weight scale of a whole table: multiplier * log(denominator bound)."""
    return table.multiplier * math.log(table.denominator_bound)


class TestTableOrder:
    def test_unsorted_rows_come_out_sorted(self):
        rows = [(5, (1, 0), 2), (3, (2, 1), 1), (5, (0, 3), 4), (3, (2, 0), 7), (4, (0, 0), 1)]
        t = synthetic_table(rows, targets=(1, 2))
        assert t.qs.tolist() == [3, 3, 4, 5, 5]
        assert t.counts.tolist() == [[2, 0], [2, 1], [0, 0], [0, 3], [1, 0]]
        assert t.mult.tolist() == [7, 1, 1, 4, 2]

    def test_restriction_rows_stay_in_lexsort_order(self):
        t = bulk.gauss_ensemble_table(120, targets=(1, 2))
        for sub in (t, t.restrict(77), t.restrict_weight(7.5)):
            order = np.lexsort((sub.counts[:, 1], sub.counts[:, 0], sub.qs))
            assert np.array_equal(order, np.arange(len(order)))

    def test_restrict_weight_keeps_the_last_denominator_below_Q(self):
        # exp(Q / 3) rounds to just below 8 although 3 log 8 < Q
        Q = math.nextafter(3 * math.log(8), math.inf)
        t = synthetic_table([(q, (0,), 1) for q in range(2, 10)], multiplier=3)
        sub = t.restrict_weight(Q)
        assert sub.denominator_bound == 8
        assert sub.qs.max() == 8


class TestCentre:
    def test_ensemble_mean_small_at_q15(self, gauss_small_table, coarse_gauss_deriv):
        # mean of phi_1/sqrt(Q) is near zero on the ensemble scale (the
        # residual is the finite-Q drift, a few percent of the spread)
        Q = 15.0
        table = gauss_small_table.restrict_weight(Q)
        lam = -coarse_gauss_deriv.lambda_t_raw / coarse_gauss_deriv.lambda_s
        summ = clt_summary(table, lam, Q=Q)
        spread = math.sqrt(summ.covariance[0, 0])
        assert abs(summ.mean_phi[0]) < 3 * spread


class TestEmpiricalLambda:
    def test_absent_target_zero(self):
        t = bulk.gauss_ensemble_table(50, targets=(1, 101))
        lam = empirical_lambda(t, nominal_Q(t))
        assert lam[1] == 0.0
        assert lam[0] > 0

    def test_brun_stable_over_bound_increments(self):
        ta, tb = bulk.brun2_ensemble_table(60, targets=(1,)), bulk.brun2_ensemble_table(80, targets=(1,))
        a, b = empirical_lambda(ta, nominal_Q(ta)), empirical_lambda(tb, nominal_Q(tb))
        assert a[0] > 0 and b[0] > 0
        assert abs(b[0] / a[0] - 1) < 0.05

    def test_empty_raises(self, gauss_small_table):
        empty = gauss_small_table.restrict(1)
        with pytest.raises(ValueError):
            empirical_lambda(empty, nominal_Q(empty))

    def test_count_sums_are_exact_integers(self):
        # float64 rounds the multiplicity 2**53 + 1 to 2**53, so a float sum
        # gives 2**53 where the exact count sum is 2**53 + 2
        t = synthetic_table([(2, (1,), 2**53 + 1), (3, (1,), 1)])
        assert float(t.mult.astype(np.float64) @ t.counts[:, 0]) == 2.0**53
        assert empirical_lambda(t, 1.0).tolist() == [1.0]

    def test_streaming_equals_batch_bitwise(self):
        recs = list(enumerate_trajectories(GAUSS, denominator_cap=80))
        t_all = EnsembleTable.from_records(iter(recs), (1, 2), "gauss")
        t_two = EnsembleTable.from_records(iter(recs[:500] + recs[500:]), (1, 2), "gauss")
        a = empirical_lambda(t_all, 8.0)
        b = empirical_lambda(t_two, 8.0)
        assert a.tolist() == b.tolist()


class TestGrowth:
    def test_gauss_totient(self, gauss_small_table):
        Q = 2 * math.log(300)
        n, scaled = growth_constant(gauss_small_table, Q)
        assert n == bulk.totient_sum(300)
        assert abs(scaled - 3 / math.pi**2) < 0.01

    def test_below_smallest_weight(self, gauss_small_table):
        sub = gauss_small_table.restrict_weight(2 * math.log(2))
        n, scaled = growth_constant(sub, 2 * math.log(2))
        assert n == 0 and scaled == 0

    def test_jp_ratio_cauchy(self):
        r = [bulk.jp_ensemble_table(n).size / n**3 for n in (40, 60, 80)]
        assert abs(r[2] / r[1] - 1) < abs(r[1] / r[0] - 1) + 0.05
        assert all(v > 0 for v in r)


class TestKS:
    def test_degenerate_point_mass(self):
        # a constant ensemble: phi identically zero against a continuous law
        t = synthetic_table([(5, (2,), 1000)])
        lam = np.array([2.0 / (2 * math.log(5))])
        summ = clt_summary(t, lam, nominal_Q(t), sigma_matrix=np.array([[0.2]]))
        assert summ.covariance[0, 0] == 0.0
        assert summ.ks_distance[0] == pytest.approx(0.5)

    def test_gaussian_calibration(self):
        rng = np.random.default_rng(42)
        n = 4000
        xs = rng.standard_normal(n)
        d = ks_distance(xs, np.ones(n), lambda v: gaussian_cdf(v, 1.0))
        assert d < 1.36 / math.sqrt(n)

    @given(
        st.lists(st.floats(-50, 50), min_size=5, max_size=60, unique=True),
        st.floats(0.1, 4.0),
        st.floats(-3.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_increasing_reparameterization(self, xs, a, b):
        xs = np.array(xs)
        w = np.ones(len(xs))
        cdf = lambda v: gaussian_cdf(v, 5.0)
        d0 = ks_distance(xs, w, cdf)
        transformed = a * xs + b
        d1 = ks_distance(transformed, w, lambda v: cdf((v - b) / a))
        assert d1 == pytest.approx(d0, abs=1e-12)


def lattice_gaussian(s, h, kmax=60):
    """Atoms k*h, k = -kmax..kmax, with N(0, s^2) mass on [k - 1/2, k + 1/2]."""
    k = np.arange(-kmax, kmax + 1, dtype=np.float64)
    p = ndtr((k + 0.5) / s) - ndtr((k - 0.5) / s)
    return k * h, p


def spread_cdf(x, values, weights, width):
    """Direct evaluation of the CDF of atoms spread uniformly over width."""
    ramp = np.clip((x[:, None] - (values[None, :] - 0.5 * width)) / width, 0.0, 1.0)
    return ramp @ weights / weights.sum()


class TestKSLattice:
    def test_lattice_floor_removed(self):
        # a discretised Gaussian: plain KS sits at half an atom, the
        # continuity-corrected distance only sees the interpolation error
        s, h = 4.0, 0.25
        values, p = lattice_gaussian(s, h)
        half_atom = 0.5 * p.max()
        plain = ks_distance(values, p, lambda v: gaussian_cdf(v, s * h))
        corrected = ks_distance_lattice(values, p, h, s * h)
        assert plain == pytest.approx(half_atom, rel=0.05)
        # linear interpolation of Phi(k/s) at the half-integers: error at
        # most max|phi'| / (8 s^2) = 0.0019
        assert corrected < 0.1 * half_atom

    def test_mis_scaled_gaussian_detected(self):
        s, h = 4.0, 0.25
        values, p = lattice_gaussian(s, h)
        # sup |Phi(x) - Phi(x/1.1)| = 0.0231
        assert ks_distance_lattice(values, p, h, 1.1 * s * h) > 0.02

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_sup_matches_dense_grid(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 1.0, 40)
        weights = rng.integers(1, 20, 40).astype(np.float64)
        width, sigma = 0.6, 0.8
        d = ks_distance_lattice(values, weights, width, sigma)
        # the breakpoints are in the grid, so only smooth interior extrema
        # are approximated, to second order in the spacing
        breakpoints = np.concatenate([values - 0.5 * width, values + 0.5 * width])
        x = np.sort(np.concatenate([np.linspace(-6.0, 6.0, 400_001), breakpoints]))
        dense = float(np.abs(spread_cdf(x, values, weights, width) - gaussian_cdf(x, sigma)).max())
        assert d >= dense - 1e-12
        assert d == pytest.approx(dense, abs=1e-8)

    def test_interior_extremum_of_single_atom(self):
        # one wide atom: F is a ramp whose distance to Phi peaks where the
        # Gaussian density equals the ramp slope, not at a breakpoint
        width = 4.0
        d = ks_distance_lattice(np.array([0.0]), np.array([1.0]), width, 1.0)
        x = np.linspace(-3.0, 3.0, 600_001)
        dense = float(np.abs(spread_cdf(x, np.array([0.0]), np.array([1.0]), width) - ndtr(x)).max())
        at_breakpoints = max(abs(0.0 - ndtr(-2.0)), abs(1.0 - ndtr(2.0)))
        assert d == pytest.approx(dense, abs=1e-10)
        assert d > at_breakpoints + 0.05


class TestQFit:
    def test_slope_of_exactly_affine_tables(self):
        # mean count 0.2 Q + 0.5 on each sub-ensemble
        grid = [
            (8.0, synthetic_table([(5, (2,), 9), (7, (3,), 1)])),
            (10.0, synthetic_table([(5, (2,), 1), (7, (3,), 1)])),
            (12.0, synthetic_table([(5, (2,), 1), (7, (3,), 9)])),
            (14.0, synthetic_table([(5, (3,), 7), (7, (4,), 3)])),
        ]
        means = [empirical_lambda(t, 1.0)[0] for _, t in grid]
        slope, offset = q_fit([Q for Q, _ in grid], means, (1.0, 0.0))
        assert slope == pytest.approx(0.2, abs=1e-12)
        assert offset == pytest.approx(0.5, abs=1e-12)

    def test_constant_term_of_inverse_root_expansion(self):
        Qs = np.array([11.0, 13.0, 15.0, 17.0, 19.0, 19.8])
        m3 = -0.01 + 0.36 * Qs**-0.5 - 1.1 * Qs**-1.5
        assert q_fit(Qs, m3, (0.0, -0.5, -1.5))[0] == pytest.approx(-0.01, abs=1e-10)

    def test_columns_fitted_independently(self):
        Qs = np.array([1.0, 2.0, 3.0])
        coef = q_fit(Qs, np.stack([2 * Qs + 1, -Qs], axis=1), (1.0, 0.0))
        np.testing.assert_allclose(coef, [[2.0, -1.0], [1.0, 0.0]], atol=1e-12)

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            q_fit([1.0, 2.0], [1.0, 2.0], (0.0, -0.5, -1.5))


class TestCLTSummary:
    def test_covariance_psd_and_symmetric(self, gauss_small_table, coarse_gauss_deriv):
        lam = -coarse_gauss_deriv.lambda_t_raw / coarse_gauss_deriv.lambda_s
        summ = clt_summary(gauss_small_table, lam, nominal_Q(gauss_small_table))
        cov = summ.covariance
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_low_confidence_flag(self):
        t = synthetic_table([(5, (1,), 20), (7, (2,), 30)])
        summ = clt_summary(t, np.array([0.2]), nominal_Q(t))
        assert summ.low_confidence

    def test_histogram_layout(self, gauss_small_table, coarse_gauss_deriv):
        lam = -coarse_gauss_deriv.lambda_t_raw / coarse_gauss_deriv.lambda_s
        summ = clt_summary(gauss_small_table, lam, nominal_Q(gauss_small_table), bins=101)
        edges, counts = summ.histograms[0]
        assert len(edges) == 102 and len(counts) == 101
        sig = math.sqrt(summ.sigma_spectral[0, 0])
        assert edges[0] == pytest.approx(-5 * sig) and edges[-1] == pytest.approx(5 * sig)


def pow_moment_table(table, lambda_bar, Q, max_order):
    """moment_table as it was computed with libm pow, the reference for its arithmetic."""
    lam = np.asarray(lambda_bar, dtype=np.float64)
    w = table.weights
    phi = table.counts.astype(np.float64) - w[:, None] * lam[None, :]
    m = table.mult.astype(np.float64)
    out = {}
    for ix in stats._multi_indices(table.d, max_order):
        term = np.ones(len(w))
        for k, power in enumerate(ix):
            if power:
                term = term * phi[:, k] ** power
        out[ix] = stats._dot(m, term) / (table.size * Q ** (sum(ix) / 2.0))
    return out, phi


def synthetic_d3_table(rows=5000, seed=11):
    rng = np.random.default_rng(seed)
    qs = rng.integers(2, 20_000, rows)
    counts = rng.integers(0, 25, (rows, 3))
    mult = rng.integers(1, 40, rows)
    return EnsembleTable("gauss", 2, (1, 2, 3), qs, counts, mult, int(qs.max()))


class TestMoments:
    @pytest.mark.parametrize("case", ["gauss_small", "synthetic_d3"])
    def test_matches_the_pow_reference(self, case, gauss_small_table):
        if case == "gauss_small":
            table, lam, max_order = gauss_small_table, np.array([0.415, 0.17]), 4
        else:
            table, lam, max_order = synthetic_d3_table(), np.array([0.415, 0.17, 0.093]), 6
        Q = nominal_Q(table)
        got = moment_table(table, lam, Q=Q, max_order=max_order)
        ref, phi = pow_moment_table(table, lam, Q, max_order)
        assert list(got) == list(ref)
        m = table.mult.astype(np.float64)
        bound_factor = (8 + 2 * stats._CHUNK) * np.finfo(np.float64).eps
        exact = higher = 0
        for ix, value in ref.items():
            if max(ix) <= 2:
                assert got[ix] == value, ix  # x**2 is x*x, so nothing changed
                exact += 1
                continue
            mag = np.ones(len(m))
            for k, power in enumerate(ix):
                mag = mag * np.abs(phi[:, k]) ** power
            bound = bound_factor * float(m @ mag) / (table.size * Q ** (sum(ix) / 2.0))
            assert abs(got[ix] - value) <= bound, (ix, got[ix], value, bound)
            higher += 1
        assert exact > 0 and higher > 0

    def test_empty_ensemble_raises(self, gauss_small_table):
        empty = gauss_small_table.restrict(1)
        with pytest.raises(ValueError, match="empty ensemble"):
            moment_table(empty, np.array([0.4, 0.2]), Q=1.0)
        with pytest.raises(ValueError, match="empty ensemble"):
            clt_summary(empty, np.array([0.4, 0.2]), Q=1.0)
        with pytest.raises(ValueError, match="empty ensemble"):
            ks_distances(empty, np.array([0.4, 0.2]), 1.0, np.eye(2))

    def test_second_moment_equals_covariance_bitwise(self, gauss_small_table, coarse_gauss_deriv):
        lam = -coarse_gauss_deriv.lambda_t_raw / coarse_gauss_deriv.lambda_s
        Q = nominal_Q(gauss_small_table)
        summ = clt_summary(gauss_small_table, lam, Q=Q)
        moms = moment_table(gauss_small_table, lam, Q=Q)
        assert moms[(2, 0)] == pytest.approx(summ.covariance[0, 0], abs=1e-12)
        assert moms[(1, 1)] == pytest.approx(summ.covariance[0, 1], abs=1e-12)

    def test_summary_parts_equal_their_own_reductions(self, gauss_small_table, coarse_gauss_deriv):
        # clt_summary centres the counts once; its moments and KS distances
        # keep the bits of the reductions that centre them on their own
        lam = -coarse_gauss_deriv.lambda_t_raw / coarse_gauss_deriv.lambda_s
        sigma = np.array([[0.21, 0.01], [0.01, 0.07]])
        Q = 0.9 * nominal_Q(gauss_small_table)
        summ = clt_summary(gauss_small_table, lam, Q=Q, sigma_matrix=sigma)
        assert summ.moments == moment_table(gauss_small_table, lam, Q=Q)
        assert np.array_equal(summ.ks_distance, ks_distances(gauss_small_table, lam, Q, sigma))

    def test_odd_moments_small(self, gauss_small_table, coarse_gauss_deriv):
        lam = -coarse_gauss_deriv.lambda_t_raw / coarse_gauss_deriv.lambda_s
        moms = moment_table(gauss_small_table, lam, nominal_Q(gauss_small_table))
        assert abs(moms[(1, 0)]) < 0.2
        assert abs(moms[(3, 0)]) < 0.2

    def test_wick_on_synthetic_gaussian(self):
        rng = np.random.default_rng(7)
        n = 200_000
        sigma2 = 0.21
        xs = rng.normal(0.0, math.sqrt(sigma2), n)
        m4 = float(np.mean(xs**4))
        assert m4 == pytest.approx(wick_moment(np.array([[sigma2]]), (4,)), rel=0.05)

    def test_wick_pair_count(self):
        sig = np.array([[2.0]])
        assert wick_moment(sig, (2,)) == 2.0
        assert wick_moment(sig, (4,)) == 3 * 4.0  # three pairings of sigma^2
        assert wick_moment(sig, (3,)) == 0.0


class TestLDP:
    def synthetic_grid(self):
        tables = []
        for Q in (8.0, 10.0, 12.0, 14.0):
            t = synthetic_table([(3, (0,), 50), (5, (1,), 50), (7, (3,), 10)])
            tables.append((Q, t))
        return tables

    def test_eps_larger_than_any_deviation(self):
        out = ldp_tail(self.synthetic_grid(), 0, 0.17, eps=100.0)
        assert out["proportion"] == [0.0] * 4
        assert all(lp == -math.inf for lp in out["log_proportion"])
        assert math.isnan(out["slope"])

    def test_eps_tiny_everything_deviates(self):
        out = ldp_tail(self.synthetic_grid(), 0, 0.123456, eps=1e-12)
        assert out["proportion"] == [1.0] * 4

    def test_gauss_slope_negative(self, gauss_small_table, coarse_gauss_deriv):
        lam1 = float((-coarse_gauss_deriv.lambda_t_raw / coarse_gauss_deriv.lambda_s)[0])
        grid = [7.0, 8.5, 10.0, 11.4]
        tables = [(Q, gauss_small_table.restrict_weight(Q)) for Q in grid]
        out = ldp_tail(tables, 0, lam1, eps=0.75 * lam1)
        assert out["slope"] < 0

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            ldp_tail(self.synthetic_grid()[:3], 0, 0.1, eps=0.1)

    @pytest.mark.parametrize("continuity", [False, True])
    def test_empty_sub_ensemble_raises(self, gauss_small_table, continuity):
        tables = [(Q, gauss_small_table.restrict_weight(Q)) for Q in (1.0, 4.0, 5.0, 6.0)]
        assert tables[0][1].size == 0
        with pytest.raises(ValueError, match="empty ensemble"):
            ldp_tail(tables, 0, 0.4, eps=0.1, continuity=continuity)

    def test_continuity_corrected_band_mass(self):
        # N = 3 spread over [2.5, 3.5]; at Q = 10 the band is [1.9, 3.1],
        # so 0.4 of the mass lies above it, while N = 3 itself is inside;
        # from Q = 20 on the band starts above 3.5
        t = synthetic_table([(5, (3,), 1)])
        tables = [(Q, t) for Q in (10.0, 20.0, 30.0, 40.0)]
        out = ldp_tail(tables, 0, 0.25, eps=0.06, continuity=True)
        assert out["proportion"] == pytest.approx([0.4, 1.0, 1.0, 1.0], abs=1e-12)
        assert ldp_tail(tables, 0, 0.25, eps=0.06)["proportion"] == [0.0, 1.0, 1.0, 1.0]

    def test_deviation_at_eps_is_not_counted(self):
        # n / Q - lambda = -0.25 and 0.25 exactly: on the band edge, so inside it
        t = synthetic_table([(5, (1,), 1), (5, (3,), 1)])
        out = ldp_tail([(4.0, t)] * 4, 0, 0.5, eps=0.25)
        assert out["proportion"] == [0.0] * 4

    def test_continuity_corrected_extremes(self):
        out = ldp_tail(self.synthetic_grid(), 0, 0.17, eps=100.0, continuity=True)
        assert out["proportion"] == [0.0] * 4


class TestDirichlet:
    def test_large_s_tends_to_zero(self, gauss_small_table):
        vals = [dirichlet_partial_sum(gauss_small_table, s) for s in (2.0, 4.0, 8.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3

    def test_monotone_in_Q_for_t_zero(self, gauss_small_table):
        v1 = dirichlet_partial_sum(gauss_small_table, 1.5, Q=8.0)
        v2 = dirichlet_partial_sum(gauss_small_table, 1.5, Q=10.0)
        v3 = dirichlet_partial_sum(gauss_small_table, 1.5)
        assert v1 <= v2 <= v3

    def test_gauss_s2_against_double_loop_oracle(self):
        # s = 2, t = 0: sum over coprime pairs of q^{-4}
        table = bulk.gauss_ensemble_table(2000, targets=(1,))
        val = dirichlet_partial_sum(table, 2.0)
        phi = np.arange(2001, dtype=np.float64)
        for p in range(2, 2001):
            if phi[p] == p:
                phi[p::p] -= phi[p::p] / p
        oracle = float((phi[2:] / np.arange(2, 2001, dtype=np.float64) ** 4).sum())
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_grows_with_t(self):
        # one row: 7 points at q = 3 with count 2, so the sum is 7 * 3^(-2s) * e^(2t)
        t = synthetic_table([(3, (2,), 7)])
        up, down = dirichlet_partial_sum(t, 1.0, (1.0,)), dirichlet_partial_sum(t, 1.0, (-1.0,))
        assert up == pytest.approx(7 / 9 * math.exp(2.0), rel=1e-12)  # 5.75
        assert down == pytest.approx(7 / 9 * math.exp(-2.0), rel=1e-12)  # 0.105

    def test_log_domain_guard(self):
        # terms underflow double precision; the log-domain path keeps them
        t = synthetic_table([(3, (0,), 2)])
        assert dirichlet_partial_sum(t, 900.0) == 0.0
        lv = dirichlet_partial_sum(t, 900.0, log=True)
        assert math.isfinite(lv)
        assert lv == pytest.approx(-900 * 2 * math.log(3) + math.log(2), rel=1e-12)


