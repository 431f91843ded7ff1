"""Spectral efficiency of a clipped OFDM link across input loadings.

Sweeps the loading factor, comparing the exact rate (from the received
amplitude statistics) against the linear-amplifier ceiling and the
back-off approximation, then locates the best loading two ways: the exact
maximum of the rate and the paper's closed form.
"""

import argparse

import numpy as np

from ofdmsee import build_scenario, find_pa, se, se_ibo, se_ideal, xi_se_max, xi_se_opt


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pa", default="SM2122-44L")
    parser.add_argument("--d-km", type=float, default=0.2, help="link distance, km")
    parser.add_argument("--points", type=int, default=12)
    args = parser.parse_args()

    spec = find_pa(args.pa)
    scen = build_scenario(5.0, 3.76, args.d_km, -174.0, 1e7, spec)
    print(f"scenario: {spec.model_name} at {args.d_km} km, "
          f"full-load SNR {10 * np.log10(scen.gamma):.2f} dB")

    print("\n  xi      exact    ideal    back-off approx   (b/s/Hz)")
    for xi in np.geomspace(0.01, 1.0, args.points):
        print(f"  {xi:6.4f}  {se(xi, scen):7.4f}  {se_ideal(xi, scen):7.4f}  {se_ibo(xi, scen):7.4f}")

    ex = xi_se_max(scen)
    print(f"\nbest loading, exact:       xi={ex:.6f} -> {se(ex, scen):.4f} b/s/Hz")
    try:
        cf = xi_se_opt(scen)
        print(f"best loading, closed form: xi={cf:.6f} -> {se(cf, scen):.4f} b/s/Hz")
    except ValueError as exc:
        print(f"closed form outside its domain: {exc}")


if __name__ == "__main__":
    main()
