"""Simulation cross-checks of the analytic engine.

Runs the OFDM chain simulator at a few loadings and compares the
empirical amplitude distribution (KS distance) and the estimated mutual
information against the closed-form predictions, then validates the
multipath lower bound on a frequency-selective channel. The mutual
information comes from the radial estimator that mc-validate reports and
from the 2-D nearest-neighbor oracle.
"""

import argparse

import numpy as np

from ofdmsee import (
    ChannelProfile,
    FrameConfig,
    build_scenario,
    empirical_pdf_distance,
    estimate_mi,
    estimate_mi_radial,
    find_pa,
    se,
    simulate_frames,
    verify_multipath_bound,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200000)
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()

    spec = find_pa("SM2122-44L")
    scen = build_scenario(5.0, 3.76, 0.2, -174.0, 1e7, spec)
    frames = max(1, -(-args.samples // 256))
    config = FrameConfig(n_subcarriers=256, cp_length=16, n_frames=frames, seed=args.seed)

    print(f"{frames * 256} samples per loading")
    print("  xi     KS distance   MI radial     MI kNN        analytic SE   delta")
    for xi in (0.05, 0.1, 0.2, 0.4, 0.8):
        y = simulate_frames(config, xi, scen)
        ks = empirical_pdf_distance(y, xi, scen)
        mi = estimate_mi_radial(y, scen)
        knn = estimate_mi(y, scen)
        ref = se(xi, scen)
        print(f"  {xi:4.2f}   {ks:11.5f}   {mi:11.5f}   {knn:11.5f}   {ref:11.5f}   {mi - ref:+.4f}")

    print("\nmultipath lower bound, exponential 4-tap profile at xi=0.1")
    p = np.exp(-np.arange(4) / 1.5)
    profile = ChannelProfile(taps=tuple(np.sqrt(p / p.sum()).astype(complex)))
    bound, est, slack = verify_multipath_bound(config, 0.1, scen, profile)
    print(f"  bound={bound:.4f}  simulated={est:.4f}  slack={slack:+.4f} b/s/Hz")


if __name__ == "__main__":
    main()
