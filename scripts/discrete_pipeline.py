"""End-to-end categorical walkthrough on a small two-mediator model.

Builds a binary chain model, decomposes it exactly, simulates a sample,
re-estimates by the plug-in sums, and bootstraps intervals.  The printed
comparison shows the plug-in estimates closing in on the enumerated truth.

Usage: python scripts/discrete_pipeline.py [--n 5000] [--seed 1] [--boot 500]
"""
from __future__ import annotations

import argparse

from natfx.cfexpr import Scenario
from natfx.decomp import Query
from natfx.estimate import plugin_seq2
from natfx.infer import BootstrapConfig, PluginEstimator, bootstrap
from natfx.scm import DiscreteScm, simulate

# a deliberately asymmetric model: exposure shifts both mediators and the
# outcome responds to every product of its parents
PM1 = {0: {0: 0.7, 1: 0.3}, 1: {0: 0.3, 1: 0.7}}
PM2 = {
    0: {0: {0: 0.8, 1: 0.2}, 1: {0: 0.5, 1: 0.5}},
    1: {0: {0: 0.6, 1: 0.4}, 1: {0: 0.2, 1: 0.8}},
}
YMEAN = {
    0: {0: {0: 1.0, 1: 1.5}, 1: {0: 1.8, 1: 2.6}},
    1: {0: {0: 2.0, 1: 2.9}, 1: {0: 3.1, 1: 4.4}},
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--boot", type=int, default=500)
    args = ap.parse_args()

    model = DiscreteScm(
        Scenario.chain(2), pm1=PM1, pm2=PM2, ymean=YMEAN, treatment=1, reference=0
    )
    q = Query(a=1, a_star=0, m1_star=0, m2_star=0)
    truth = plugin_seq2(model, q)

    data = simulate(model, n=args.n, seed=args.seed)
    cfg = BootstrapConfig(replicates=args.boot, seed=args.seed)
    estimate = bootstrap(data, PluginEstimator(Scenario.chain(2), q), cfg)

    print(f"n = {args.n}, seed = {args.seed}, replicates = {args.boot}\n")
    print(f"{'Component':<18} {'truth':>8} {'estimate':>9} {'95% C.I.':>20}")
    for true_row, est_row in zip(truth.components, estimate.components):
        lo, hi = est_row.ci
        print(
            f"{true_row.name:<18} {true_row.value:>8.4f} {est_row.value:>9.4f}"
            f"   [{lo:>7.4f}, {hi:>7.4f}]"
        )
    print(f"\nsum gap (truth) = {truth.sum_gap:.2e}")
    print(f"sum gap (estimate) = {estimate.sum_gap:.2e}")


if __name__ == "__main__":
    main()
