"""Energy efficiency of the clipped OFDM link.

Bits-per-joule metrics pairing the spectral-efficiency engine with the
load-dependent consumption models: the practical EE, its linear-amplifier
and lossless-amplifier bounds, two loading-factor optimizers (the exact
maximizer of the practical EE and the paper's explicit Lambert-W
approximation), and the window of loadings where spectral and energy
efficiency trade off against each other.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._common import golden_max
from .power_models import doherty_pieces, pc_ideal, pc_nonlinear
from .se_engine import XI_FLOOR, se, se_curve, se_ideal, xi_se_opt
from .specfun import WBranch, lambert_w

__all__ = [
    "InfeasibleError",
    "EeBreakdown",
    "ee",
    "ee_linear",
    "ee_ideal",
    "zeta",
    "xi_ee_opt",
    "xi_ee_max",
    "pareto_window",
    "ee_breakdown",
    "ee_sweep",
]


class InfeasibleError(RuntimeError):
    """The EE optimization hypotheses do not hold for this parameter set."""


@dataclass(frozen=True)
class EeBreakdown:
    """One EE evaluation with the quantities behind it."""

    xi: float
    se_bits: float
    pc_watts: float
    ee_bits_per_joule: float


def _active_piece(xi, pieces):
    for idx, (lo, hi, v1, v2) in enumerate(pieces, start=1):
        if lo < xi <= hi:
            return idx, v1, v2
    raise ValueError("loading factor outside the piecewise consumption model")


def zeta(v1, v2, gamma):
    """Quasi-concavity threshold of the linear-PA EE on one consumption piece.

    (v + sqrt(1 + v^2))^2 / gamma^2 with v = v2/v1. xi_ee_opt clamps its
    closed-form root up to it, assuming the EE bound rises below it. That
    does not hold on every link: the bound can peak below zeta and fall
    between the peak and zeta, as with PA1157 under the femto preset at
    12 dB and one way (peak 0.48, zeta 0.71). xi_ee_max needs no zeta.
    """
    if v1 <= 0.0:
        raise ValueError("zeta requires v1 > 0")
    v = v2 / v1
    return (v + math.sqrt(1.0 + v * v)) ** 2 / gamma**2


def ee(xi, scenario, power_params, n_ways=2):
    """Practical energy efficiency, bits per joule.

    Bandwidth times the true spectral efficiency over the Doherty-model
    consumed power at the same loading: ee_breakdown's quotient.
    """
    return ee_breakdown(xi, scenario, power_params, n_ways).ee_bits_per_joule


def ee_linear(xi, scenario, power_params, n_ways=2):
    """EE bound with a distortion-free amplifier but real consumption; xi may be an array."""
    rate = scenario.bandwidth * se_ideal(xi, scenario)
    return rate / pc_nonlinear(xi, power_params, n_ways=n_ways)


def ee_ideal(xi, scenario, power_params):
    """EE bound with a distortion-free amplifier and lossless consumption; xi may be an array."""
    return scenario.bandwidth * se_ideal(xi, scenario) / pc_ideal(xi, power_params, scenario.gain)


def xi_ee_opt(scenario, power_params, n_ways=2):
    """Loading factor maximizing the linear-PA EE bound, plus the piece index.

    The paper's explicit principal-branch Lambert-W approximation
    (1/gamma)*exp(2 + 2*W(sqrt(gamma)/(e*v))) per consumption piece, clamped
    into the piece's admissible window (piece 1's is [zeta, 1/n_ways^2],
    piece 2's [1/n_ways^2, 1]); the candidate with the larger ee_linear
    wins, ties resolved toward the smaller loading. InfeasibleError if the
    first piece's zeta reaches full load, or if the winner lies below the
    zeta of the piece it falls in.
    """
    pieces = doherty_pieces(power_params, n_ways)
    gam = scenario.gamma
    _, _, v1_first, v2_first = pieces[0]
    zeta_first = zeta(v1_first, v2_first, gam)
    if zeta_first >= 1.0:
        raise InfeasibleError(
            "quasi-concavity threshold zeta = %.6g reaches the full-load "
            "boundary; the EE bound has no interior rise to optimize "
            "(gamma = %.6g, v = %.6g)" % (zeta_first, gam, v2_first / v1_first)
        )

    def better_end(lo, hi):
        # the piece endpoint with the larger ee_linear, ties to the lower one
        lo = max(lo, 1e-12)
        ee_lo = ee_linear(lo, scenario, power_params, n_ways)
        return lo if ee_lo >= ee_linear(hi, scenario, power_params, n_ways) else hi

    candidates = []
    for idx, (lo, hi, v1, v2) in enumerate(pieces, start=1):
        clamp_lo = max(zeta(v1, v2, gam), lo) if v1 > 0.0 else lo
        clamp_lo = min(max(clamp_lo, 1e-300), hi)
        if v1 <= 0.0:
            warnings.warn(
                "piece %d has non-positive v1; closed-form candidate "
                "replaced by the better piece endpoint" % idx,
                RuntimeWarning,
            )
            root = better_end(clamp_lo, hi)
        else:
            arg = math.sqrt(gam) / (math.e * (v2 / v1))
            root = math.exp(2.0 + 2.0 * lambert_w(arg, WBranch.PRINCIPAL)) / gam
            root = min(max(root, clamp_lo), hi)
        candidates.append((root, idx))
    best = None
    best_val = None
    for cand, idx in candidates:
        val = ee_linear(cand, scenario, power_params, n_ways)
        if best is None:
            best, best_val = (cand, idx), val
            continue
        margin = 1e-15 * max(1.0, abs(best_val))
        if val > best_val + margin or (abs(val - best_val) <= margin and cand < best[0]):
            best, best_val = (cand, idx), val
    xi_star, piece = best
    idx, v1, v2 = _active_piece(xi_star, pieces)
    if v1 > 0.0 and xi_star < zeta(v1, v2, gam) * (1.0 - 1e-12):
        raise InfeasibleError(
            "optimizer landed below the quasi-concavity threshold; the "
            "hypothesis xi* >= zeta fails for this parameter set"
        )
    return xi_star, piece


def xi_ee_max(scenario, power_params, n_ways=2):
    """Loading factor in (0, 1] that maximizes ee() itself, plus its piece.

    Golden-section search on log xi over each consumption piece, ends
    included (the first piece from XI_FLOOR); the piece maximum with the
    larger ee() wins, ties to the lower piece. The piece index is that of
    the winning loading, pieces being upper-inclusive. No approximation of
    se() and no zeta hypothesis enter.
    """
    pieces = doherty_pieces(power_params, n_ways)
    best_xi, best_ee = None, -math.inf
    for lo, hi, _, _ in pieces:
        xi, val = golden_max(lambda x: ee(x, scenario, power_params, n_ways), max(lo, XI_FLOOR), hi)
        if val > best_ee:
            best_xi, best_ee = xi, val
    return best_xi, _active_piece(best_xi, pieces)[0]


def pareto_window(scenario, power_params, n_ways=2):
    """Loading interval between the approximated EE and SE optima.

    Inside the window the approximated SE and EE move in opposite directions
    as the loading changes (a genuine tradeoff); outside it both improve
    toward the window. Endpoints use the closed-form optimizers.
    """
    xi_se = xi_se_opt(scenario)
    xi_ee, _ = xi_ee_opt(scenario, power_params, n_ways=n_ways)
    return (min(xi_ee, xi_se), max(xi_ee, xi_se))


def ee_breakdown(xi, scenario, power_params, n_ways=2):
    """One EE evaluation: the loading, its SE, its draw and their quotient."""
    se_bits = se(xi, scenario)
    pc = pc_nonlinear(xi, power_params, n_ways=n_ways)
    return EeBreakdown(
        xi=float(xi),
        se_bits=se_bits,
        pc_watts=pc,
        ee_bits_per_joule=scenario.bandwidth * se_bits / pc,
    )


def ee_sweep(scenario, power_params, xi_values, n_ways=2):
    """Evaluate the EE family over a loading grid.

    Returns a dict of arrays with keys xi, se_exact, ee_exact, ee_linear,
    ee_ideal, pc_watts (one entry per grid point); se_exact is the spectral
    efficiency behind ee_exact, so callers need no second SE sweep. Each
    column is one array call (se_curve, ee_linear, ee_ideal, pc_nonlinear),
    and each entry is the float its per-point function gives: se, ee,
    ee_linear, ee_ideal and pc_nonlinear.
    """
    xis = np.atleast_1d(np.asarray(xi_values, dtype=float))
    se_exact = se_curve(xis, scenario)
    pc = pc_nonlinear(xis, power_params, n_ways=n_ways)
    return {
        "xi": xis.copy(),
        "se_exact": se_exact,
        "ee_exact": scenario.bandwidth * se_exact / pc,
        "ee_linear": ee_linear(xis, scenario, power_params, n_ways=n_ways),
        "ee_ideal": ee_ideal(xis, scenario, power_params),
        "pc_watts": pc,
    }
