"""Frame-level switching between a small and a large amplifier.

Builds a two-amplifier schedule, shows how the frame split moves the
operating point between the amplifiers' own curves, and traces the
efficiency frontier with and without switch hardware penalties.
"""

import argparse

import numpy as np

from ofdmsee import (
    BS_PRESETS,
    Duplex,
    PasConfig,
    build_scenario,
    ee_sweep,
    find_pa,
    pas_ee,
    pas_frontier,
    pas_se,
    se_memo,
    switched_arm,
)


def make_arm(model, bs_type):
    spec = find_pa(model)
    scen = build_scenario(5.0, 3.76, 0.2, -174.0, 1e7, spec)
    return switched_arm(spec, scen, BS_PRESETS[bs_type])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pa-low", default="SM2122-44L")
    parser.add_argument("--pa-high", default="SM1720-50")
    parser.add_argument("--gs-db", type=float, default=1.0, help="switch insertion loss, dB")
    parser.add_argument("--duplex", choices=("tdd", "fdd"), default="tdd")
    args = parser.parse_args()

    low, high = make_arm(args.pa_low, "macro"), make_arm(args.pa_high, "macro")
    config = PasConfig(pa_low=low, pa_high=high, frame_length=0.01, frame_count=20,
                       insertion_loss_db=args.gs_db, switching_time=1e-5,
                       duplex=Duplex(args.duplex))

    print(f"arms: {low.spec.model_name} ({low.spec.p_max_out:.1f} W, standing "
          f"{low.power.p_fix:.1f} W) / {high.spec.model_name} "
          f"({high.spec.p_max_out:.1f} W, standing {high.power.p_fix:.1f} W), "
          f"switch loss {args.gs_db} dB, {args.duplex}")

    print("\nframe split kappa -> schedule SE and EE at xi=0.25")
    for kappa in np.linspace(0.0, 1.0, 6):
        print(f"  kappa={kappa:4.2f}  SE={pas_se(0.25, kappa, config):7.4f} b/s/Hz  "
              f"EE={pas_ee(0.25, kappa, config):12.1f} b/J")

    grid = np.geomspace(0.02, 1.0, 24)
    hi_curve = ee_sweep(high.scenario, high.power, grid)
    se_max = float(np.max(hi_curve["se_exact"]))
    targets = np.linspace(0.5, 0.95, 6) * se_max
    print(f"\nefficiency frontier (targets up to the large-amplifier max {se_max:.3f} b/s/Hz)")
    for point in pas_frontier(targets, config, grid):
        mark = "" if point.feasible else "  (infeasible)"
        print(f"  target {point.se_target:7.4f}  EE={point.ee:12.1f}  "
              f"kappa={point.kappa:4.2f}  xi={point.xi1:.4f}{mark}")


if __name__ == "__main__":
    # one memo for the run: each of the kappa table's pas_se/pas_ee calls
    # needs the same two per-arm SE points, now computed once
    with se_memo():
        main()
