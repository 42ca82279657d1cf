"""Gaussian-linear walkthrough: simulate, fit, decompose, bootstrap.

Draws chain data at known coefficients, refits the three regressions,
evaluates every component closed form at the sample-mean reference
levels, and prints fitted-vs-generating coefficients alongside the
decomposition with bootstrap intervals.

Usage: python scripts/linear_pipeline.py [--n 20000] [--seed 2] [--boot 400]
"""
from __future__ import annotations

import argparse

import numpy as np

from natfx.decomp import Query
from natfx.estimate import (
    CovariateProfile,
    LinearParams,
    fit_linear_system,
    linear_components,
)
from natfx.infer import BootstrapConfig, LinearEstimator, bootstrap
from natfx.scm import Dataset

TRUTH = LinearParams(
    theta=(2.0, 1.0, -0.5, 0.8, 0.6, -0.4, 0.3, 0.2),
    beta=(1.0, -0.5, 0.4, 0.2),
    gamma=(0.5, 1.0),
    theta_c=(0.5,),
    beta_c=(0.1,),
    gamma_c=(0.3,),
    sigma2_m1=1.0,
)


def draw(n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    t, b, g = TRUTH.theta, TRUTH.beta, TRUTH.gamma
    a = rng.integers(0, 2, size=n).astype(float)
    c = rng.uniform(30.0, 60.0, size=n)
    m1 = g[0] + g[1] * a + TRUTH.gamma_c[0] * c + rng.normal(size=n)
    m2 = b[0] + b[1] * a + b[2] * m1 + b[3] * a * m1 + TRUTH.beta_c[0] * c
    m2 = m2 + rng.normal(size=n)
    y = (
        t[0] + t[1] * a + t[2] * m1 + t[3] * m2 + t[4] * a * m1 + t[5] * a * m2
        + t[6] * m1 * m2 + t[7] * a * m1 * m2 + TRUTH.theta_c[0] * c
        + rng.normal(size=n)
    )
    return Dataset(exposure=a, m1=m1, outcome=y, m2=m2, covariates={"age": c})


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--boot", type=int, default=400)
    args = ap.parse_args()

    data = draw(args.n, args.seed)
    fit = fit_linear_system(data)
    print(f"n = {args.n}, seed = {args.seed}")
    print(f"{'coefficient':<12} {'truth':>8} {'fitted':>9}")
    for label, true_vals, got_vals in (
        ("theta", TRUTH.theta + TRUTH.theta_c, fit.params.theta + fit.params.theta_c),
        ("beta", TRUTH.beta + TRUTH.beta_c, fit.params.beta + fit.params.beta_c),
        ("gamma", TRUTH.gamma + TRUTH.gamma_c, fit.params.gamma + fit.params.gamma_c),
    ):
        for i, (want, got) in enumerate(zip(true_vals, got_vals)):
            print(f"{label}[{i}]{'':<6} {want:>8.3f} {got:>9.3f}")
    print(f"sigma2_m1    {TRUTH.sigma2_m1:>8.3f} {fit.params.sigma2_m1:>9.3f}")

    # reference levels at the sample means, the usual reporting convention
    m1_ref = fit.sample_means["m1"]
    m2_ref = fit.sample_means["m2"]
    q = Query(a=1.0, a_star=0.0, m1_star=m1_ref, m2_star=m2_ref)
    profile = CovariateProfile(values=(fit.sample_means["age"],), names=("age",))

    cfg = BootstrapConfig(replicates=args.boot, seed=args.seed)
    est = bootstrap(data, LinearEstimator(q, profile), cfg)
    true_decomp = linear_components(TRUTH, q, profile)

    print(f"\nreference levels: m1* = {m1_ref:.3f}, m2* = {m2_ref:.3f}")
    print(f"{'Component':<18} {'truth':>8} {'estimate':>9} {'95% C.I.':>20}")
    for true_row, est_row in zip(true_decomp.components, est.components):
        lo, hi = est_row.ci
        print(
            f"{true_row.name:<18} {true_row.value:>8.4f} {est_row.value:>9.4f}"
            f"   [{lo:>7.4f}, {hi:>7.4f}]"
        )
    print(f"\nsum gap (estimate) = {est.sum_gap:.2e}")


if __name__ == "__main__":
    main()
