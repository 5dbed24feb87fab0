import hashlib
import math

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

import cfstats.spectral as spectral
from cfstats.maps import BRUN2, GAUSS, JP2
from cfstats.spectral import (
    ConvergenceError,
    GridFunction,
    MarkovViolationError,
    OperatorParams,
    apply_operator,
    brun_density_m2,
    covariance_matrix,
    eigenvalue_derivatives,
    frequency_constants,
    gauss_density,
    invariant_density,
    leading_eigenvalue,
    nonarithmeticity_witnesses,
)


class TestApplyOperator:
    def test_linearity_zero(self):
        f = GridFunction.constant(1, 64, 0.0)
        g = apply_operator(f, OperatorParams(1.0, (), (), 100), GAUSS)
        assert np.all(g.values == 0.0)

    def test_gauss_invariant_density_is_fixed_point(self):
        G = 512
        f = GridFunction(1, G, gauss_density((np.arange(G) + 0.5) / G))
        g = apply_operator(f, OperatorParams(1.0, (), (), 10_000), GAUSS)
        assert float(np.abs(g.values - f.values).max()) < 1e-6

    def test_constant_function_branch_sum_matches_zeta(self):
        # s = 2, f = 1: the node values are Hurwitz zeta sums 2s = 4
        G = 64
        f = GridFunction.constant(1, G)
        g = apply_operator(f, OperatorParams(2.0, (), (), 10_000), GAUSS)
        x = f.nodes[0]
        ref = hurwitz_zeta(4.0, 1.0 + x)
        assert float(np.abs(g.values - ref).max()) < 1e-10
        assert hurwitz_zeta(4.0, 1.0) == pytest.approx(math.pi**4 / 90, rel=1e-14)
        # s = 1, f = a + b y: interpolation and the fold beyond the exact cap
        # (with its slope column) are exact, and the sum is
        # a zeta(2s, 1 + x) + b zeta(2s + 1, 1 + x)
        f = GridFunction(1, G, 0.7 + 0.4 * x)
        g = apply_operator(f, OperatorParams(1.0, (), (), 10_000), GAUSS)
        ref = 0.7 * hurwitz_zeta(2.0, 1.0 + x) + 0.4 * hurwitz_zeta(3.0, 1.0 + x)
        assert float(np.abs(g.values - ref).max()) < 1e-12 * float(ref.max())
        # Brun, s = 1, f = 1: one zeta sum per branch family,
        # zeta(3s, 1 + x2) + zeta(3s, 1 + x1), folded beyond the cap j_max
        f = GridFunction.constant(2, 16)
        g = apply_operator(f, OperatorParams(1.0, (), (), 64), BRUN2)
        x1, x2 = np.meshgrid(*f.nodes, indexing="ij")
        ref = hurwitz_zeta(3.0, 1.0 + x2) + hurwitz_zeta(3.0, 1.0 + x1)
        assert float(np.abs(g.values - ref).max()) < 1e-12 * float(ref.max())

    def test_digit_weight_multiplies_one_branch(self):
        G = 32
        f = GridFunction.constant(1, G)
        x = f.nodes[0]
        t = 0.3
        base = apply_operator(f, OperatorParams(1.5, (), (), 500), GAUSS)
        weighted = apply_operator(f, OperatorParams(1.5, (t,), (2,), 500), GAUSS)
        expected = base.values + (math.exp(t) - 1.0) * (2.0 + x) ** -3.0
        assert float(np.abs(weighted.values - expected).max()) < 1e-12

    def test_jp_markov_violation_detected(self, monkeypatch):
        # corrupt the branch table: swapped image coordinates leave the cell
        orig = spectral._jp_branch_image
        monkeypatch.setattr(
            spectral, "_jp_branch_image", lambda a, b, xi, eta: orig(a, b, xi, eta)[::-1]
        )
        f = GridFunction.constant(2, 16)
        with pytest.raises(MarkovViolationError):
            apply_operator(f, OperatorParams(1.0, (), (), 8), JP2)


class TestLeadingEigenvalue:
    def test_gauss_eigenvalue_one_full_resolution(self):
        res = leading_eigenvalue(OperatorParams(1.0, (), (), 10_000), GAUSS, G=4096)
        assert abs(res.eigenvalue - 1.0) < 1e-6
        assert res.residual < 1e-10
        assert (res.eigenfunction.values > 0).all()

    def test_heavier_weight_shrinks_eigenvalue(self):
        r1 = leading_eigenvalue(OperatorParams(1.0, (), (), 2048), GAUSS, G=256)
        r2 = leading_eigenvalue(OperatorParams(2.0, (), (), 2048), GAUSS, G=256)
        assert r2.eigenvalue < r1.eigenvalue < 1.001

    def test_monotone_in_s(self):
        vals = [
            leading_eigenvalue(OperatorParams(s, (), (), 1024), GAUSS, G=128).eigenvalue
            for s in (0.9, 1.0, 1.2, 1.5, 2.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_grid_convergence(self):
        lams = [
            leading_eigenvalue(OperatorParams(1.3, (), (), 1024), GAUSS, G=G).eigenvalue
            for G in (64, 128, 256)
        ]
        assert abs(lams[2] - lams[1]) < abs(lams[1] - lams[0])

    # j_max below each map's exact cap
    @pytest.mark.parametrize(
        "desc, G, j_maxes",
        [(GAUSS, 64, (100, 200, 400)), (BRUN2, 16, (16, 32, 64)), (JP2, 8, (4, 8, 16))],
        ids=["gauss", "brun2", "jp2"],
    )
    def test_tail_bar_shrinks_with_jmax(self, desc, G, j_maxes):
        bars = [
            leading_eigenvalue(OperatorParams(1.0, (), (), jm), desc, G=G).tail_bar
            for jm in j_maxes
        ]
        assert bars[0] > bars[1] > bars[2] > 0

    # the exact float of each map's tail bar at the converged eigenfunction
    @pytest.mark.parametrize(
        "desc, G, j_max, bar",
        [
            (GAUSS, 64, 128, "0x1.ffd90cabbedbap-15"),
            (BRUN2, 8, 16, "0x1.22747ce9b25c7p-6"),
            (JP2, 8, 5, "0x1.7820e80516d0cp-5"),
        ],
        ids=["gauss", "brun2", "jp2"],
    )
    def test_tail_bar_pinned(self, desc, G, j_max, bar):
        res = leading_eigenvalue(OperatorParams(1.0, (), (), j_max), desc, G=G)
        assert res.tail_bar.hex() == bar

    def test_brun_eigenvalue_and_density_shape(self):
        res = leading_eigenvalue(OperatorParams(1.0, (), (), 512), BRUN2, G=96)
        assert abs(res.eigenvalue - 1.0) < 5e-4
        f = res.eigenfunction
        x1, x2 = np.meshgrid(f.nodes[0], f.nodes[1], indexing="ij")
        ref = brun_density_m2(x1, x2)
        scale = f.values.mean() / ref.mean()
        assert float((np.abs(f.values - scale * ref) / (scale * ref)).max()) < 5e-2

    def test_jp_eigenvalue_near_one(self):
        res = leading_eigenvalue(OperatorParams(1.0, (), (), 32), JP2, G=32, tol=1e-10)
        assert abs(res.eigenvalue - 1.0) < 5e-3
        assert (res.eigenfunction.values > 0).all()

    def test_grid_below_two_rejected(self):
        params = OperatorParams(1.0, (), (), 16)
        with pytest.raises(ValueError, match="at least 2"):
            leading_eigenvalue(params, GAUSS, G=1)
        with pytest.raises(ValueError, match="at least 2"):
            eigenvalue_derivatives(GAUSS, (1,), G=1, j_max=16)
        with pytest.raises(ValueError, match="at least 2"):
            apply_operator(GridFunction.constant(1, 1), params, GAUSS)
        with pytest.raises(ValueError, match="at least 2"):
            spectral.operator_matrix(params, BRUN2, 1)

    def test_nonconvergence_reports_trace(self):
        with pytest.raises(ConvergenceError) as err:
            leading_eigenvalue(OperatorParams(1.0, (), (), 512), GAUSS, G=64, max_iter=2)
        assert len(err.value.trace) == 2


class TestInvariantDensity:
    def test_gauss_closed_form(self):
        f = invariant_density(GAUSS, G=512, j_max=4096)
        x = f.nodes[0]
        ref = gauss_density(x)
        assert float((np.abs(f.values - ref) / ref).max()) < 1e-4
        assert f.values[0] == pytest.approx(1.0 / math.log(2.0), rel=1e-3)

    def test_unit_integral(self):
        f = invariant_density(GAUSS, G=256, j_max=1024)
        assert f.values.mean() == pytest.approx(1.0, abs=1e-12)


class TestDerivatives:
    def test_entropy_and_frequencies(self, coarse_gauss_deriv):
        d = coarse_gauss_deriv
        assert -d.lambda_s == pytest.approx(math.pi**2 / (6 * math.log(2)), abs=1e-4)
        # raw t-gradient equals the invariant measure of the digit cells
        mu1 = math.log(4.0 / 3.0) / math.log(2.0)
        mu2 = math.log(9.0 / 8.0) / math.log(2.0)
        assert d.lambda_t_raw[0] == pytest.approx(mu1, abs=1e-5)
        assert d.lambda_t_raw[1] == pytest.approx(mu2, abs=1e-5)
        lam = frequency_constants(GAUSS, (1, 2), deriv=d)
        assert lam[0] == pytest.approx(6 / math.pi**2 * math.log(4.0 / 3.0), abs=1e-5)
        assert (lam > 0).all()

    def test_covariance_positive_definite(self, coarse_gauss_deriv):
        sig = covariance_matrix(GAUSS, (1, 2), deriv=coarse_gauss_deriv)
        assert np.array_equal(sig, sig.T)
        assert np.linalg.eigvalsh(sig).min() > 0
        assert sig[0, 0] > 0

    def test_absent_target_frequency_zero(self):
        d = eigenvalue_derivatives(GAUSS, targets=(1, 10**7), G=64, j_max=512)
        lam = frequency_constants(GAUSS, (1, 10**7), deriv=d)
        assert lam[1] == 0.0
        assert lam[0] > 0

    def test_representable_target_beyond_cap_rejected(self):
        f = GridFunction.constant(1, 32)
        with pytest.raises(ValueError):
            apply_operator(f, OperatorParams(1.0, (0.1,), (2000,), 5000), GAUSS)


def _fd_derivatives(desc, targets, G, j_max, h):
    """Gradient and Hessian of the eigenvalue in (s, t_1, ..., t_d) at (1, 0):
    central differences of leading_eigenvalue, Richardson-extrapolated
    from steps h and h/2."""
    n = len(targets) + 1

    def lam(step):
        params = OperatorParams(1.0 + step[0], tuple(step[1:]), targets, j_max)
        return leading_eigenvalue(params, desc, G=G, tol=1e-14).eigenvalue

    def at(h):
        e = np.eye(n) * h
        lam0 = lam(np.zeros(n))
        grad = np.array([(lam(e[i]) - lam(-e[i])) / (2 * h) for i in range(n)])
        hess = np.zeros((n, n))
        for i in range(n):
            hess[i, i] = (lam(e[i]) - 2 * lam0 + lam(-e[i])) / h**2
            for k in range(i + 1, n):
                cross = lam(e[i] + e[k]) - lam(e[i] - e[k]) - lam(e[k] - e[i]) + lam(-e[i] - e[k])
                hess[i, k] = hess[k, i] = cross / (4 * h * h)
        return grad, hess

    (g1, h1), (g2, h2) = at(h), at(h / 2)
    return (4 * g2 - g1) / 3, (4 * h2 - h1) / 3


class TestAnalyticDerivatives:
    # algorithm, targets, G, j_max, and a target beyond j_max
    CASES = {
        "gauss": (GAUSS, (1, 2), 32, 64, 10**7),
        "brun2": (BRUN2, (1, 2), 8, 16, 10**6),
        "jp2": (JP2, ((1, 2), (0, 1)), 6, 4, (1, 50)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_finite_differences(self, name):
        desc, targets, G, j_max, _ = self.CASES[name]
        d = eigenvalue_derivatives(desc, targets, G=G, j_max=j_max)
        grad, hess = _fd_derivatives(desc, targets, G, j_max, 1e-3)
        assert d.lambda_s == pytest.approx(grad[0], abs=1e-9)
        assert np.abs(d.lambda_t_raw - grad[1:]).max() < 1e-9
        assert d.lambda_ss == pytest.approx(hess[0, 0], abs=1e-6)
        assert np.abs(d.lambda_st_raw - hess[0, 1:]).max() < 1e-6
        assert np.abs(d.hessian_raw - hess[1:, 1:]).max() < 1e-6
        # the bars cover the linear algebra only, which is near rounding level
        for bar in (d.lambda_s_bar, d.lambda_t_bar, d.hessian_bar):
            assert 0.0 <= bar < 1e-10

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_target_beyond_jmax_has_frequency_zero(self, name):
        desc, targets, G, j_max, absent = self.CASES[name]
        pair = (targets[0], absent)
        d = eigenvalue_derivatives(desc, pair, G=G, j_max=j_max)
        lam = frequency_constants(desc, pair, deriv=d)
        assert lam[1] == 0.0
        assert lam[0] > 0
        assert d.lambda_st_raw[1] == 0.0
        assert d.hessian_raw[1].tolist() == [0.0, 0.0]

    def test_grid_above_the_dense_cap_rejected(self):
        with pytest.raises(ValueError, match="4225 nodes"):
            eigenvalue_derivatives(BRUN2, (1,), G=65, j_max=16)


class TestOperatorMatrix:
    # s != 1 and t != 0; the Gauss j_max exceeds the exact cap, so the
    # middle Hurwitz fold is in the matrix
    CASES = {
        "gauss": (GAUSS, 48, OperatorParams(1.15, (0.3, -0.2), (1, 3), 3000)),
        "brun2": (BRUN2, 12, OperatorParams(1.1, (0.25,), (2,), 40)),
        "jp2": (JP2, 10, OperatorParams(1.05, (0.2, -0.1), ((1, 2), (0, 1)), 6)),
    }

    def test_gauss_case_covers_the_middle_fold(self):
        assert self.CASES["gauss"][2].j_max > spectral._EXACT_CAP_1D

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_apply(self, name):
        desc, G, params = self.CASES[name]
        mat = spectral.operator_matrix(params, desc, G)
        rng = np.random.default_rng(7)
        shape = (G,) if desc.m == 1 else (G, G)
        for _ in range(3):
            f = GridFunction(desc.m, G, rng.uniform(0.5, 1.5, shape))
            g = apply_operator(f, params, desc).values.ravel()
            assert np.abs(mat @ f.values.ravel() - g).max() <= 1e-13 * np.abs(g).max()


class TestOneBuildPerSolve:
    @staticmethod
    def count_reads(monkeypatch, name):
        reads = []
        table, tail_bar = spectral._MAPS[name]

        def counted(acc, params, G):
            reads.append(acc.orders)
            table(acc, params, G)

        monkeypatch.setitem(spectral._MAPS, name, (counted, tail_bar))
        return reads

    def test_power_iteration_reads_the_table_once(self, monkeypatch):
        reads = self.count_reads(monkeypatch, "gauss")
        for tol in (1e-6, 1e-12):
            res = leading_eigenvalue(OperatorParams(1.0, (), (), 256), GAUSS, G=64, tol=tol)
            assert res.iterations > 5
            assert reads == [1]
            reads.clear()

    @pytest.mark.parametrize(
        "name, desc, targets",
        [("gauss", GAUSS, (1, 2)), ("brun", BRUN2, (1, 2)), ("jp", JP2, ((1, 2),))],
        ids=["gauss", "brun", "jp"],
    )
    def test_derivatives_read_the_table_once(self, monkeypatch, name, desc, targets):
        reads = self.count_reads(monkeypatch, name)
        eigenvalue_derivatives(desc, targets, G=8, j_max=8)
        assert reads == [3]

    def test_sparse_matvec_matches_apply_above_the_dense_cap(self):
        G = 72
        assert G * G > spectral._MAX_ASSEMBLED_NODES
        params = OperatorParams(1.05, (0.2,), (1,), 40)
        (L,) = spectral._assemble(params, BRUN2, G, 1)
        f = GridFunction(2, G, np.random.default_rng(3).uniform(0.5, 1.5, (G, G)))
        g = apply_operator(f, params, BRUN2).values.ravel()
        assert np.abs(L @ f.values.ravel() - g).max() <= 1e-13 * np.abs(g).max()


class _StackedApply:
    """A stencil reader that stacks the entries of each add and reduces
    them over axis 0, the reference for the in-place accumulation."""

    orders = 1

    def __init__(self, f):
        self.values = f.values.ravel()
        self.out = np.zeros(self.values.size)

    def add(self, rows, n, part, targets=None):
        entries, coef = part(slice(0, n))
        cols, weight = (np.stack(x) for x in zip(*((c + d, w) for c, d, w in entries)))
        term = coef[0] * (weight * self.values[cols]).sum(axis=0)
        self.out[rows] += term.reshape((-1,) + rows.shape).sum(axis=0)


class _DenseAssembly:
    """A matrix reader that adds every entry into dense matrices by
    np.add.at, in table order, with the layout of _Assembly.matrices."""

    def __init__(self, params, N, orders):
        self.params = params
        self.orders = orders
        labels = [None] + (list(params.targets) if orders == 3 else [])
        self.mats = {lab: np.zeros((orders if lab is None else 2, N, N)) for lab in labels}

    def add(self, rows, n, part, targets=None):
        entries, coef = part(slice(0, n))
        entries = list(entries)
        self.accumulate(None, rows, entries, coef)
        for label, i in (targets or {}).items():
            if label in self.mats:
                self.accumulate(label, rows, [(c[i], d, w[i]) for c, d, w in entries], coef[:, i])

    def accumulate(self, label, rows, entries, coef):
        mats = self.mats[label]
        coef = coef[: len(mats)]
        for c, d, w in entries:
            c = c + d
            shape = np.broadcast_shapes(rows.shape, c.shape, w.shape, coef.shape[1:])
            at = (np.broadcast_to(rows, shape).ravel(), np.broadcast_to(c, shape).ravel())
            vals = (coef * np.broadcast_to(w, shape)).reshape(len(coef), -1)
            for mat, v in zip(mats, vals):
                np.add.at(mat, at, v)

    def matrices(self) -> tuple:
        per_target = [tuple(self.mats[lab]) for lab in self.params.targets] if self.orders == 3 else []
        return (*self.mats[None], *per_target)


def _flat(mats) -> list:
    return [m for x in mats for m in (x if isinstance(x, tuple) else (x,))]


class TestStencilReaders:
    # t != 0 on one target; each Gauss and Brun grid takes several digit
    # chunks, and the Gauss j_max exceeds the exact cap
    APPLY_CASES = {
        "gauss": (GAUSS, 256, OperatorParams(1.15, (0.3,), (3,), 3000)),
        "brun2": (BRUN2, 40, OperatorParams(1.1, (0.25,), (2,), 100)),
        "jp2": (JP2, 16, OperatorParams(1.05, (0.2,), ((1, 2),), 16)),
    }

    @staticmethod
    def apply_input(desc, G):
        return GridFunction(desc.m, G, np.random.default_rng(11).uniform(0.5, 1.5, (G,) * desc.m))

    # slab_rows = 7 patches the slab to 7 stacked rows, which splits the
    # adds unevenly; None keeps the slab, which holds each JP add whole
    @pytest.mark.parametrize(
        "name, slab_rows",
        [
            pytest.param(name, rows, id=name if rows is None else f"{name}-slab{rows}")
            for name in sorted(APPLY_CASES)
            for rows in (None, 7)
        ],
    )
    def test_apply_equals_the_stacked_reduction(self, monkeypatch, name, slab_rows):
        desc, G, params = self.APPLY_CASES[name]
        if slab_rows is not None:
            monkeypatch.setattr(spectral._Apply, "_SLAB", slab_rows * G**desc.m)
        slabs = []
        add = spectral._Apply.add

        def counted(acc, rows, n, part, targets=None):
            calls = []
            add(acc, rows, n, lambda sl: calls.append(sl) or part(sl), targets)
            slabs.append(len(calls))

        monkeypatch.setattr(spectral._Apply, "add", counted)
        f = self.apply_input(desc, G)
        ref = _StackedApply(f)
        spectral._MAPS[desc.algorithm][0](ref, params, G)
        assert np.array_equal(apply_operator(f, params, desc).values.ravel(), ref.out)
        assert max(slabs) == 1 if (name, slab_rows) == ("jp2", None) else max(slabs) > 1

    @pytest.mark.parametrize("orders", [1, 3])
    def test_merged_build_matches_dense_accumulation(self, monkeypatch, orders):
        G, params = 12, OperatorParams(1.1, (0.25, -0.1), (1, 2), 40)
        flushes = []
        flush = spectral._Assembly._flush

        def counted(acc, label):
            flushes.append(label)
            flush(acc, label)

        monkeypatch.setattr(spectral._Assembly, "_FLUSH", 8)
        monkeypatch.setattr(spectral._Assembly, "_flush", counted)
        mats = _flat(spectral._assemble(params, BRUN2, G, orders))
        assert len(flushes) > 50
        dense = _DenseAssembly(params, G * G, orders)
        spectral._MAPS["brun"][0](dense, params, G)
        ref = _flat(dense.matrices())
        assert len(mats) == len(ref) == (1 if orders == 1 else 7)
        for got, want in zip(mats, ref):
            assert np.abs(got.toarray() - want).max() <= 1e-14 * np.abs(want).max()


class TestSpectralBytes:
    """SHA-256 pins of spectral floats, so that a change meant to keep
    every byte shows it does: apply_operator on the inputs of
    TestStencilReaders, and the data, indices and indptr of every matrix
    that _assemble returns with its derivatives for TestOperatorMatrix."""

    APPLY = {
        "gauss": "f28ac22f6338f23346c6466476f83cc512ae5cdc1fe0d4ad0fee1fd47d2a9bce",
        "brun2": "04ee8a10b9788d2b5eaa7e679c174f78d028af4b2a2c7c8b6cbbfbd7f0586fcb",
        "jp2": "9bb277845ad0303cb39ad27ec3073952c9d6fd84f8ce1da72e5c4c752757f028",
    }
    MATRICES = {
        "gauss": "04eb1f7b5a326cdd5fc812eb81570823b1134d528d1075e49866bdea9f36b72f",
        "brun2": "be0e7804f8d54f94c804135d1ecf142fa03121b824d73f2704f0d68ed90b511d",
        "jp2": "e3b0fff7c18e6fb901121941aa82e8bf029a5b2f7e01e695a2ed84a37bee9950",
    }

    @pytest.mark.parametrize("name", sorted(TestStencilReaders.APPLY_CASES))
    def test_apply_bytes_pinned(self, name):
        desc, G, params = TestStencilReaders.APPLY_CASES[name]
        g = apply_operator(TestStencilReaders.apply_input(desc, G), params, desc)
        assert hashlib.sha256(g.values.tobytes()).hexdigest() == self.APPLY[name]

    @pytest.mark.parametrize("name", sorted(TestOperatorMatrix.CASES))
    def test_matrix_bytes_pinned(self, name):
        desc, G, params = TestOperatorMatrix.CASES[name]
        h = hashlib.sha256()
        for mat in _flat(spectral._assemble(params, desc, G, 3)):
            for part in (mat.data, mat.indices, mat.indptr):
                h.update(part.tobytes())
        assert h.hexdigest() == self.MATRICES[name]

    # eigenvalue_derivatives at the grids and caps of the tail-bar pins
    DERIVATIVE_CASES = {
        "gauss": (GAUSS, (1, 2), 64, 128),
        "brun2": (BRUN2, (1, 2), 8, 16),
        "jp2": (JP2, ((1, 2), (0, 1)), 8, 5),
    }
    DERIVATIVES = {
        "gauss": "06201f8d2edffdb55358780aed8d52ffbac75997a38f5d87cab8a2131bdff275",
        "brun2": "47163b05180044a849e7505711ecbd02986f8ca92195777730d0d97c655207e3",
        "jp2": "efa642399700a67aa3c3b73ec5dfa284ad56df56c7bf430e9557065c6aee3bb0",
    }

    @pytest.mark.parametrize("name", sorted(DERIVATIVE_CASES))
    def test_derivative_bytes_pinned(self, name):
        desc, targets, G, j_max = self.DERIVATIVE_CASES[name]
        d = eigenvalue_derivatives(desc, targets, G=G, j_max=j_max)
        res = d.solve
        floats = [
            d.lambda_value, d.lambda_s, d.lambda_ss, d.lambda_t_raw, d.lambda_st_raw, d.hessian_raw,
            d.frequencies, d.hessian_centred, d.lambda_s_bar, d.lambda_t_bar, d.hessian_bar,
            res.eigenvalue, res.eigenfunction.values, res.residual, res.tail_bar,
        ]
        h = hashlib.sha256()
        for x in floats:
            h.update(np.asarray(x, dtype=np.float64).tobytes())
        h.update(np.int64(res.iterations).tobytes())
        assert h.hexdigest() == self.DERIVATIVES[name]


class TestZetaDerivatives:
    # the exponents of the three tails near s = 1, and their shifts a >= 2
    SIGMAS = sorted({k * s + c for s in (0.9, 1.0, 1.1) for k, c in ((2, 0), (2, 1), (3, -1), (3, 0))})
    SHIFTS = (2.0, 2.49, 5.5, 65.03, 513.7, 1025.4, 10_001.5)

    def test_against_mpmath(self):
        import mpmath

        for sigma in self.SIGMAS:
            got = spectral._zeta_derivatives(sigma, np.array(self.SHIFTS))
            for i, a in enumerate(self.SHIFTS):
                for k in range(3):
                    ref = float(mpmath.zeta(sigma, a, derivative=k))
                    assert got[k, i] == pytest.approx(ref, rel=1e-13), (sigma, a, k)


class TestWitnesses:
    def test_gauss_constants(self):
        w = nonarithmeticity_witnesses(GAUSS)
        assert w.values[0] == pytest.approx(-2 * math.log((1 + math.sqrt(5)) / 2), abs=1e-12)
        assert w.values[1] == pytest.approx(-2 * math.log(1 + math.sqrt(2)), abs=1e-12)
        assert w.values[0] == pytest.approx(-0.9624236501, abs=1e-9)
        assert w.values[1] == pytest.approx(-1.7627471740, abs=1e-9)
        assert len(w.ratio_cf) == 20

    def test_brun_roots(self):
        w = nonarithmeticity_witnesses(BRUN2)
        tau, rho = w.fixed_points
        assert tau == pytest.approx(0.6823278, abs=1e-6)
        assert abs(tau**3 + tau - 1) < 1e-12
        assert abs(rho**3 + 2 * rho - 1) < 1e-12

    def test_jp_not_supported(self):
        with pytest.raises(ValueError):
            nonarithmeticity_witnesses(JP2)


class TestClosedFormDensities:
    def test_gauss_density_at_zero(self):
        assert gauss_density(0.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-15)

    def test_brun_density_at_origin(self):
        # both permutations contribute 1 at the origin
        assert brun_density_m2(0.0, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_brun_density_symmetric(self):
        assert brun_density_m2(0.3, 0.7) == pytest.approx(brun_density_m2(0.7, 0.3), rel=1e-15)
