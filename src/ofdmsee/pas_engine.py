"""Amplifier-switching schedules over a two-amplifier transmitter.

A schedule splits a window of K frames between a low-power and a high-power
amplifier (time-sharing fraction kappa), pays a one-off switching dead time
per window in FDD operation, and sees the switch's insertion loss as extra
noise. This module evaluates the schedule's spectral and energy efficiency
and searches the (kappa, loading) space for the best energy efficiency at a
required spectral efficiency, tracing the SE-EE frontier.
"""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from ._common import check_loading, check_nonnegative, check_positive, db_to_lin
from .power_models import pc_nonlinear
from .se_engine import se, se_curve

__all__ = [
    "STANDING_DRAW_PER_WATT",
    "Duplex",
    "PaArm",
    "switched_arm",
    "PasConfig",
    "FrontierPoint",
    "pa_with_loss",
    "pas_se",
    "pas_ee",
    "pas_frontier",
]


class Duplex(enum.Enum):
    FDD = "fdd"
    TDD = "tdd"


@dataclass(frozen=True)
class PaArm:
    """One selectable amplifier: its ratings, link normalization, and draw model.

    The whole of power's draw, load-independent p_fix included, belongs to
    this amplifier: a schedule charges it only for the frames the arm
    transmits, and the switched-off arm draws nothing. Build arms with
    switched_arm so that p_fix is the amplifier's own standing draw rather
    than a whole site's overhead.
    """

    spec: object
    scenario: object
    power: object


# watts of standing draw per rated output watt of a switched amplifier
STANDING_DRAW_PER_WATT = 0.96


def switched_arm(spec, scenario, preset):
    """One arm of a switching transmitter, drawn from a transmitter preset.

    The arm keeps the preset's Doherty slope c and is rated at the amplifier's
    own p_max_out. Its load-independent draw p_fix is
    STANDING_DRAW_PER_WATT * p_max_out: it scales with the amplifier and is
    switched off with it, unlike the preset's p_fix, which is a whole site's
    overhead.

    STANDING_DRAW_PER_WATT = 0.96 W/W is set from the abstract's single
    high-power PA figure: with it the SM1720-50 alone, on the reference macro
    link, gains 68.1% EE at a 15% SE reduction below its max-SE point
    (abstract: 68%).
    """
    power = replace(
        preset,
        p_max_out=spec.p_max_out,
        p_fix=STANDING_DRAW_PER_WATT * spec.p_max_out,
    )
    return PaArm(spec=spec, scenario=scenario, power=power)


@dataclass(frozen=True)
class PasConfig:
    """A two-amplifier switching transmitter.

    The arms, the K-frame window, the switch's insertion loss and dead time,
    and the duplex mode; a schedule on it is a share kappa of the window for
    arm 1 (pa_low) and a loading, the arguments of pas_se and pas_ee. The
    switching dead time applies once per K-frame window and only when both
    arms are actually used in FDD mode; TDD switches between frames for free
    (the insertion loss still applies).
    """

    pa_low: PaArm
    pa_high: PaArm
    frame_length: float
    frame_count: int
    insertion_loss_db: float = 0.0
    switching_time: float = 0.0
    duplex: Duplex = Duplex.FDD
    n_ways: int = 2

    def __post_init__(self):
        if isinstance(self.duplex, str):
            object.__setattr__(self, "duplex", Duplex(self.duplex.lower()))
        check_positive("frame_length", self.frame_length)
        if not isinstance(self.frame_count, (int, np.integer)) or self.frame_count < 1:
            raise ValueError("frame_count must be a positive integer")
        check_nonnegative("insertion_loss_db", self.insertion_loss_db)
        check_nonnegative("switching_time", self.switching_time)


def _dead_time(config, kappa):
    # the switch is dead once per window, only in FDD and only when both arms run
    one_arm = (kappa == 0.0) | (kappa == 1.0)
    return np.where((config.duplex is Duplex.TDD) | one_arm, 0.0, config.switching_time)


def pa_with_loss(scenario, insertion_loss_db):
    """Fold a switch insertion loss into the link (noise raised by G_S dB)."""
    check_nonnegative("insertion_loss_db", insertion_loss_db)
    if insertion_loss_db == 0.0:
        return scenario
    return replace(
        scenario,
        noise_variance=scenario.noise_variance * db_to_lin(insertion_loss_db),
    )


def _arm_scenarios(config):
    # both arms' links with the switch's insertion loss applied
    return (
        pa_with_loss(config.pa_low.scenario, config.insertion_loss_db),
        pa_with_loss(config.pa_high.scenario, config.insertion_loss_db),
    )


def _arm_curves(config, xis):
    # per-arm SE curves and draws over the loading grid xis
    s1, s2 = _arm_scenarios(config)
    n = config.n_ways
    return (
        se_curve(xis, s1),
        se_curve(xis, s2),
        pc_nonlinear(xis, config.pa_low.power, n_ways=n),
        pc_nonlinear(xis, config.pa_high.power, n_ways=n),
    )


def _schedule(config, kappa, se1, se2, pc1, pc2):
    """Schedule (SE, EE) for arm-1 share kappa and per-arm SE and draw.

    Broadcasts over its array arguments. SE is the kappa-weighted mix of the
    arm efficiencies derated by the dead-time prefactor K*T/(K*T + eps); EE
    is the bits of the window over the energy of the elapsed window, with
    the dead time charged at the schedule's time-average draw.
    """
    kt = config.frame_count * config.frame_length
    pref = kt / (kt + _dead_time(config, kappa))
    mix = kappa * se1 + (1.0 - kappa) * se2
    rate = kappa * pc1 + (1.0 - kappa) * pc2
    return pref * mix, pref * config.pa_low.scenario.bandwidth * mix / rate


def _pas_point(xi, kappa, config):
    # a scalar loading drives both arms; a pair assigns (low, high); kappa
    # goes to the nearest point of the frame lattice, since frames are atomic
    if not (math.isfinite(kappa) and 0.0 <= kappa <= 1.0):
        raise ValueError("kappa must lie in [0, 1]")
    pair = tuple(xi) if isinstance(xi, (tuple, list)) else (xi, xi)
    if len(pair) != 2:
        raise ValueError("per-arm loading needs exactly two entries")
    x1, x2 = float(pair[0]), float(pair[1])
    s1, s2 = _arm_scenarios(config)
    n = config.n_ways
    se_val, ee_val = _schedule(
        config,
        round(kappa * config.frame_count) / config.frame_count,
        se(x1, s1),
        se(x2, s2),
        pc_nonlinear(x1, config.pa_low.power, n_ways=n),
        pc_nonlinear(x2, config.pa_high.power, n_ways=n),
    )
    return float(se_val), float(ee_val)


def pas_se(xi, kappa, config):
    """Schedule spectral efficiency, b/s/Hz.

    Frame-weighted mix of the two per-arm efficiencies (insertion loss
    applied), derated by the dead-time prefactor K*T/(K*T + eps). xi is one
    shared loading or a (low, high) pair; kappa in [0, 1] is arm 1's share
    of the window, rounded to the frame lattice round(kappa*K)/K.
    """
    return _pas_point(xi, kappa, config)[0]


def pas_ee(xi, kappa, config):
    """Schedule energy efficiency, bits per joule, at loading xi and arm-1
    share kappa, taken as in pas_se.

    Bits delivered over the K-frame window divided by the energy drawn over
    the elapsed window (dead time charged at the schedule's time-average
    draw; the switch itself draws nothing).
    """
    return _pas_point(xi, kappa, config)[1]


@dataclass(frozen=True)
class FrontierPoint:
    """Best schedule found for one SE target."""

    se_target: float
    se: float
    ee: float
    kappa: float
    xi1: float
    xi2: float
    feasible: bool


def pas_frontier(se_targets, config, xi_grid, xi_mode="shared"):
    """Best-EE schedules meeting each SE target.

    For every target, maximizes the schedule EE over the frame lattice
    kappa in {0, 1/K, ..., 1} and a loading grid, subject to the schedule SE
    reaching the target. shared mode uses one loading for both arms (the
    reference formulation); per_pa searches independent loadings (xi1, xi2).
    Infeasible targets come back marked; no, NaN, infinite or negative targets raise ValueError.
    """
    targets = np.atleast_1d(np.asarray(se_targets, dtype=float))
    if targets.size == 0 or not np.all(np.isfinite(targets) & (targets >= 0.0)):
        raise ValueError("targets needs at least one SE target, each finite and >= 0")
    if xi_mode not in ("shared", "per_pa"):
        raise ValueError("xi_mode must be 'shared' or 'per_pa'")
    xis = np.unique(check_loading(xi_grid))
    if xis.size < 2:
        raise ValueError("xi grid must contain at least two loadings")
    se1, se2, pc1, pc2 = _arm_curves(config, xis)
    # candidate (xi1, xi2) index pairs: the grid's diagonal, or every pair
    if xi_mode == "shared":
        i1 = i2 = np.arange(xis.size)
    else:
        i1, i2 = np.indices((xis.size, xis.size)).reshape(2, -1)
    kappas = np.arange(config.frame_count + 1) / config.frame_count
    se_mat, ee_mat = _schedule(config, kappas[:, None], se1[i1], se2[i2], pc1[i1], pc2[i2])
    se_flat = se_mat.ravel()
    ee_flat = ee_mat.ravel()
    points = []
    # one target at a time: a targets x candidates mask would grow with both
    # user-set grids
    for target in targets:
        floor = target - 1e-12
        best = int(np.argmax(np.where(se_flat >= floor, ee_flat, -np.inf)))
        if se_flat[best] >= floor:
            row, pair = divmod(best, i1.size)
            found = (se_flat[best], ee_flat[best], kappas[row], xis[i1[pair]], xis[i2[pair]])
            points.append(FrontierPoint(float(target), *map(float, found), feasible=True))
        else:
            points.append(FrontierPoint(float(target), *[math.nan] * 5, feasible=False))
    return points
