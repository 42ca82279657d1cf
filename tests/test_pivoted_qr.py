"""The numpy-only pivoted QR behind `fit_ols` against scipy's column-pivoted
QR (LAPACK ``dgeqp3``) on the same designs.

Designs are the three equations of the chain model, with covariates, with
columns scaled by powers of ten, and with a column duplicated exactly or up
to a relative perturbation.  Required:

* full rank: the pivots are identical, and the coefficients differ by at
  most ``COEF_FACTOR * eps * kappa * (1 + kappa * tan(theta))``, the
  first-order perturbation bound of a least-squares solution (Golub & Van
  Loan, Thm 5.3.1), with kappa the condition number of the design with
  unit-norm columns and theta the angle between y and its fit; the error is
  measured on the coefficients times their column norms, relative to the
  same product of scipy's;
* rank deficient: `fit_ols` raises `RankDeficient` exactly when scipy's
  pivots fall below the same guard.  Which member of an exactly dependent
  set is named may differ, since rounding breaks the tie.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natfx.estimate import _PIVOT_TOL, RankDeficient, _pivoted_qr, fit_ols

scipy_linalg = pytest.importorskip("scipy.linalg")

EPS = np.finfo(float).eps
# over 20x the worst ratio to the bound, 4.4, seen on 23,000 random designs of
# this kind; against kappa * eps alone the worst ratio was 3,100
COEF_FACTOR = 100.0

# regressor columns of the M1, M2 and outcome equations, as indices into
# (1, A, M1, M2, A·M1, A·M2, M1·M2, A·M1·M2)
EQUATIONS = ((0, 1), (0, 1, 2, 4), tuple(range(8)))


@st.composite
def designs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(12, 300))
    a = rng.integers(0, 2, size=n).astype(float)
    m1 = 0.5 + a + rng.normal(size=n)
    m2 = 1.0 - 0.5 * a + 0.4 * m1 + rng.normal(size=n)
    chain = (np.ones(n), a, m1, m2, a * m1, a * m2, m1 * m2, a * m1 * m2)
    cols = [chain[j] for j in draw(st.sampled_from(EQUATIONS))]
    cols += [rng.normal(size=n) for _ in range(draw(st.integers(0, 2)))]
    x = np.column_stack(cols)
    x = x * 10.0 ** np.array(draw(st.lists(st.integers(-4, 4), min_size=x.shape[1],
                                           max_size=x.shape[1])))
    if draw(st.booleans()):
        j = draw(st.integers(0, x.shape[1] - 1))
        scale = draw(st.sampled_from([1.0, -2.0, 0.5]))
        noise = draw(st.sampled_from([0.0, 1e-13, 1e-12, 1e-6, 1e-3]))
        e = rng.normal(size=n)
        e *= noise * np.linalg.norm(x[:, j]) / np.linalg.norm(e)
        x = np.insert(x, draw(st.integers(0, x.shape[1])), scale * x[:, j] + e, axis=1)
    y = x @ rng.normal(size=x.shape[1]) + rng.normal(size=n)
    return x, y


@settings(max_examples=300, deadline=None)
@given(designs())
def test_pivots_verdict_and_coefficients_match_scipy(design):
    x, y = design
    p = x.shape[1]
    names = [f"x{j}" for j in range(p)]
    q, r, piv = scipy_linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0 or (diag <= _PIVOT_TOL * diag[0]).any():
        with pytest.raises(RankDeficient):
            fit_ols(x, y, names)
        return

    coef, _, _ = fit_ols(x, y, names)
    r0 = np.linalg.qr(np.column_stack([x, y]), mode="r")[:p, :p]
    assert _pivoted_qr(r0, names)[2].tolist() == piv.tolist()

    want = np.empty(p)
    want[piv] = scipy_linalg.solve_triangular(r, q.T @ y)
    norms = np.linalg.norm(x, axis=0)
    kappa = np.linalg.cond(x / norms)
    resid = y - x @ want
    tan_theta = np.linalg.norm(resid) / np.linalg.norm(y - resid)
    err = np.linalg.norm(norms * (coef - want)) / np.linalg.norm(norms * want)
    assert err <= COEF_FACTOR * EPS * kappa * (1.0 + kappa * tan_theta)

