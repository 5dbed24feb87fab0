"""The acceptance criteria, one test per criterion, at their stated
tolerances.  Each test prints its pass/fail line with the measured
values; the heavy shared artifacts are built once per session.

The criteria that compare with a limit (A1, A4, A5, A11, A12) separate
the finite-size terms of the quasi-power law out of the desk-scale
ensemble before applying their tolerances, and print the raw finite-Q
values alongside.  The negative controls at the end rerun three of them
on the same cached ensemble against deliberately wrong constants, and
require them to fail.
"""

import numpy as np
import pytest

from cfstats import acceptance


@pytest.fixture(scope="session")
def ctx():
    return acceptance.AcceptanceContext()


def _run(ctx, name):
    result = acceptance.CRITERIA[name](ctx)
    print(result.line())
    return result


def test_a1_gauss_lln(ctx):
    r = _run(ctx, "A1")
    assert r.passed, r.detail


def test_a2_gauss_density(ctx):
    r = _run(ctx, "A2")
    assert r.passed, r.detail


def test_a3_rohlin_entropy(ctx):
    r = _run(ctx, "A3")
    assert r.passed, r.detail


def test_a4_gauss_clt(ctx):
    r = _run(ctx, "A4")
    assert r.passed, r.detail


def test_a5_gauss_ldp(ctx):
    r = _run(ctx, "A5")
    assert r.passed, r.detail


def test_a6_brun_density(ctx):
    r = _run(ctx, "A6")
    assert r.passed, r.detail
    assert r.values["iterations"] > 1
    assert 0 <= r.values["residual"] < 1e-10


def test_a7_jp_admissibility(ctx):
    r = _run(ctx, "A7")
    assert r.passed, r.detail


def test_a8_roundtrip_exactness(ctx):
    r = _run(ctx, "A8")
    assert r.passed, r.detail


def test_a9_weight_telescoping(ctx):
    r = _run(ctx, "A9")
    assert r.passed, r.detail


def test_a10_nonarithmeticity_witnesses(ctx):
    r = _run(ctx, "A10")
    assert r.passed, r.detail


def test_a11_multidimensional_clt(ctx):
    r = _run(ctx, "A11")
    assert r.passed, r.detail


def test_a12_moment_limits(ctx):
    r = _run(ctx, "A12")
    assert r.passed, r.detail


def test_a13_growth_constant(ctx):
    r = _run(ctx, "A13")
    assert r.passed, r.detail


class PerturbedContext(acceptance.AcceptanceContext):
    """The session context with its spectral constants scaled entrywise."""

    def __init__(self, base, lambda_scale=1.0, sigma_scale=1.0):
        super().__init__()
        self._cache = base._cache
        self.lambda_scale = np.asarray(lambda_scale)
        self.sigma_scale = sigma_scale

    @property
    def gauss_lambda(self):
        return super().gauss_lambda * self.lambda_scale

    @property
    def gauss_sigma(self):
        return super().gauss_sigma * self.sigma_scale


def test_a1_rejects_lambda_off_by_3_percent(ctx):
    r = _run(PerturbedContext(ctx, lambda_scale=(1.03, 1.0)), "A1")
    assert not r.passed, r.detail


def test_a11_rejects_sigma_off_by_15_percent(ctx):
    r = _run(PerturbedContext(ctx, sigma_scale=1.15), "A11")
    assert not r.passed, r.detail


def test_a4_rejects_gaussian_10_percent_too_wide(ctx):
    r = _run(PerturbedContext(ctx, sigma_scale=1.1**2), "A4")
    assert not r.passed, r.detail
