"""Energy efficiency of the link and the SE-EE tradeoff window.

Sweeps bits-per-joule against the loading factor, reports the best
loading found by the exact maximizer and by the paper's closed form, and
prints the loading window inside which spectral and energy efficiency
trade against each other.
"""

import argparse
from dataclasses import replace

import numpy as np

from ofdmsee import (
    BS_PRESETS,
    build_scenario,
    ee,
    ee_breakdown,
    find_pa,
    pareto_window,
    xi_ee_max,
    xi_ee_opt,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pa", default="SM2122-44L")
    parser.add_argument("--bs-type", default="macro", choices=sorted(BS_PRESETS))
    parser.add_argument("--n-ways", type=int, default=2)
    args = parser.parse_args()

    spec = find_pa(args.pa)
    scen = build_scenario(5.0, 3.76, 0.2, -174.0, 1e7, spec)
    power = replace(BS_PRESETS[args.bs_type], p_max_out=spec.p_max_out)

    print("  xi      EE (b/J)      draw (W)   SE (b/s/Hz)")
    for xi in np.geomspace(0.02, 1.0, 10):
        b = ee_breakdown(xi, scen, power, n_ways=args.n_ways)
        print(f"  {xi:6.4f}  {b.ee_bits_per_joule:12.1f}  {b.pc_watts:9.3f}  {b.se_bits:8.4f}")

    ex, piece_ex = xi_ee_max(scen, power, n_ways=args.n_ways)
    cf, piece_cf = xi_ee_opt(scen, power, n_ways=args.n_ways)
    print(f"\nbest loading, exact:       xi={ex:.6f} (piece {piece_ex}) "
          f"-> {ee(ex, scen, power, n_ways=args.n_ways):.1f} b/J")
    print(f"best loading, closed form: xi={cf:.6f} (piece {piece_cf}) "
          f"-> {ee(cf, scen, power, n_ways=args.n_ways):.1f} b/J")
    lo, hi = pareto_window(scen, power, n_ways=args.n_ways)
    print(f"SE-EE tradeoff window: xi in [{lo:.6f}, {hi:.6f}]")


if __name__ == "__main__":
    main()
