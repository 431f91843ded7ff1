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

from .power_models import pc_nonlinear
from .se_engine import se

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
    "single_pa_curve",
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
    """A two-amplifier switching schedule.

    kappa is the time-sharing fraction of arm 1 (pa_low); it is quantized to
    the frame lattice F_ind/K since frames are atomic. The switching dead
    time applies once per K-frame window and only when both arms are
    actually used in FDD mode; TDD switches between frames for free (the
    insertion loss still applies).
    """

    pa_low: PaArm
    pa_high: PaArm
    frame_length: float
    frame_count: int
    kappa: float
    insertion_loss_db: float = 0.0
    switching_time: float = 0.0
    duplex: Duplex = Duplex.FDD
    n_ways: int = 2

    def __post_init__(self):
        if isinstance(self.duplex, str):
            object.__setattr__(self, "duplex", Duplex(self.duplex.lower()))
        if not (math.isfinite(self.frame_length) and self.frame_length > 0.0):
            raise ValueError("frame_length must be finite and positive")
        if not isinstance(self.frame_count, (int, np.integer)) or self.frame_count < 1:
            raise ValueError("frame_count must be a positive integer")
        if not (math.isfinite(self.kappa) and 0.0 <= self.kappa <= 1.0):
            raise ValueError("kappa must lie in [0, 1]")
        if self.insertion_loss_db < 0.0 or not math.isfinite(self.insertion_loss_db):
            raise ValueError("insertion_loss_db must be finite and >= 0")
        if self.switching_time < 0.0 or not math.isfinite(self.switching_time):
            raise ValueError("switching_time must be finite and >= 0")

    @property
    def f_ind(self):
        """Frames assigned to arm 1 (nearest-integer split of kappa*K)."""
        return int(round(self.kappa * self.frame_count))

    @property
    def kappa_quantized(self):
        return self.f_ind / self.frame_count

    @property
    def eps_eff(self):
        """Effective switching dead time: zero in TDD and for one-arm schedules."""
        if self.duplex is Duplex.TDD:
            return 0.0
        if self.f_ind in (0, self.frame_count):
            return 0.0
        return self.switching_time


def pa_with_loss(scenario, insertion_loss_db):
    """Fold a switch insertion loss into the link (noise raised by G_S dB).

    Accepts a LinkScenario or a PaArm and returns the same type.
    """
    if insertion_loss_db < 0.0 or not math.isfinite(insertion_loss_db):
        raise ValueError("insertion_loss_db must be finite and >= 0")
    if isinstance(scenario, PaArm):
        return replace(scenario, scenario=pa_with_loss(scenario.scenario, insertion_loss_db))
    if insertion_loss_db == 0.0:
        return scenario
    return replace(
        scenario,
        noise_variance=scenario.noise_variance * 10.0 ** (insertion_loss_db / 10.0),
    )


def _arm_scenarios(config):
    return (
        pa_with_loss(config.pa_low.scenario, config.insertion_loss_db),
        pa_with_loss(config.pa_high.scenario, config.insertion_loss_db),
    )


def _split_xi(xi):
    # a scalar loading drives both arms; a pair assigns (low, high)
    if isinstance(xi, (tuple, list)):
        if len(xi) != 2:
            raise ValueError("per-arm loading needs exactly two entries")
        return float(xi[0]), float(xi[1])
    return float(xi), float(xi)


def _arm_se(xi, config):
    x1, x2 = _split_xi(xi)
    s1, s2 = _arm_scenarios(config)
    return se(x1, s1), se(x2, s2)


def _window_prefactor(config):
    kt = config.frame_count * config.frame_length
    return kt / (kt + config.eps_eff)


def pas_se(xi, config):
    """Schedule spectral efficiency, b/s/Hz.

    Frame-weighted mix of the two per-arm efficiencies (insertion loss
    applied), derated by the dead-time prefactor K*T/(K*T + eps). xi is one
    shared loading or a (low, high) pair.
    """
    se1, se2 = _arm_se(xi, config)
    kq = config.kappa_quantized
    return _window_prefactor(config) * (kq * se1 + (1.0 - kq) * se2)


def _arm_pc(xi, config):
    x1, x2 = _split_xi(xi)
    return (
        pc_nonlinear(x1, config.pa_low.power, n_ways=config.n_ways),
        pc_nonlinear(x2, config.pa_high.power, n_ways=config.n_ways),
    )


def pas_ee(xi, config):
    """Schedule energy efficiency, bits per joule.

    Direct accounting: bits delivered over the K-frame window divided by the
    energy drawn over the elapsed window (dead time charged at the schedule's
    time-average draw; the switch itself draws nothing).
    """
    se1, se2 = _arm_se(xi, config)
    pc1, pc2 = _arm_pc(xi, config)
    t = config.frame_length
    f1 = config.f_ind
    f2 = config.frame_count - f1
    bits = config.pa_low.scenario.bandwidth * t * (f1 * se1 + f2 * se2)
    active_energy = t * (f1 * pc1 + f2 * pc2)
    kt = config.frame_count * t
    energy = active_energy * (kt + config.eps_eff) / kt
    return bits / energy


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


def single_pa_curve(arm, xi_values, insertion_loss_db=0.0, n_ways=2):
    """SE and EE of one amplifier alone over a loading grid.

    Returns a dict of arrays (xi, se, ee, pc_watts). By default no switch is
    present (a one-amplifier transmitter needs none); pass insertion_loss_db
    to model the amplifier behind a switch.
    """
    scen = pa_with_loss(arm.scenario, insertion_loss_db)
    xis = np.atleast_1d(np.asarray(xi_values, dtype=float))
    out = {
        "xi": xis.copy(),
        "se": np.empty_like(xis),
        "ee": np.empty_like(xis),
        "pc_watts": np.empty_like(xis),
    }
    for i, x in enumerate(xis):
        s = se(x, scen)
        pc = pc_nonlinear(x, arm.power, n_ways=n_ways)
        out["se"][i] = s
        out["ee"][i] = arm.scenario.bandwidth * s / pc
        out["pc_watts"][i] = pc
    return out


def _default_xi_grid():
    coarse = np.geomspace(0.005, 1.0, 100)
    mid = np.linspace(0.15, 0.65, 76)
    return np.unique(np.concatenate([coarse, mid]))


def pas_frontier(se_targets, config, xi_mode="shared", xi_grid=None):
    """Best-EE schedules meeting each SE target.

    For every target, maximizes the schedule EE over the frame lattice
    kappa in {0, 1/K, ..., 1} and a loading grid, subject to the schedule SE
    reaching the target. shared mode uses one loading for both arms (the
    reference formulation); per_pa searches independent loadings (xi1, xi2).
    Infeasible targets are returned marked rather than raised.
    """
    if xi_mode not in ("shared", "per_pa"):
        raise ValueError("xi_mode must be 'shared' or 'per_pa'")
    xis = _default_xi_grid() if xi_grid is None else np.unique(np.asarray(xi_grid, dtype=float))
    if xis.size < 2 or np.any(xis <= 0.0) or np.any(xis > 1.0):
        raise ValueError("xi grid must contain at least two loadings in (0, 1]")
    s1, s2 = _arm_scenarios(config)
    n = xis.size
    se1 = np.asarray([se(x, s1) for x in xis])
    se2 = np.asarray([se(x, s2) for x in xis])
    pc1 = np.asarray([pc_nonlinear(x, config.pa_low.power, n_ways=config.n_ways) for x in xis])
    pc2 = np.asarray([pc_nonlinear(x, config.pa_high.power, n_ways=config.n_ways) for x in xis])

    k_count = config.frame_count
    kappas = np.arange(k_count + 1) / k_count
    bw = config.pa_low.scenario.bandwidth
    kt = config.frame_count * config.frame_length

    # effective dead time per kappa row (zero for the one-arm rows and in TDD)
    eps_rows = np.where(
        (config.duplex is Duplex.TDD) | (kappas == 0.0) | (kappas == 1.0),
        0.0,
        config.switching_time,
    )
    pref = kt / (kt + eps_rows)

    if xi_mode == "shared":
        se_mat = pref[:, None] * (kappas[:, None] * se1[None, :] + (1.0 - kappas)[:, None] * se2[None, :])
        energy_rate = kappas[:, None] * pc1[None, :] + (1.0 - kappas)[:, None] * pc2[None, :]
        ee_mat = pref[:, None] * bw * (
            kappas[:, None] * se1[None, :] + (1.0 - kappas)[:, None] * se2[None, :]
        ) / energy_rate
        xi1_mat = np.broadcast_to(xis[None, :], se_mat.shape)
        xi2_mat = xi1_mat
    else:
        mix_se = kappas[:, None, None] * se1[None, :, None] + (1.0 - kappas)[:, None, None] * se2[None, None, :]
        se_mat = pref[:, None, None] * mix_se
        energy_rate = (
            kappas[:, None, None] * pc1[None, :, None]
            + (1.0 - kappas)[:, None, None] * pc2[None, None, :]
        )
        ee_mat = pref[:, None, None] * bw * mix_se / energy_rate
        xi1_mat = np.broadcast_to(xis[None, :, None], se_mat.shape)
        xi2_mat = np.broadcast_to(xis[None, None, :], se_mat.shape)

    kap_mat = np.broadcast_to(
        kappas.reshape((-1,) + (1,) * (se_mat.ndim - 1)), se_mat.shape
    )
    se_flat = se_mat.ravel()
    ee_flat = ee_mat.ravel()
    points = []
    for target in np.atleast_1d(np.asarray(se_targets, dtype=float)):
        mask = se_flat >= target - 1e-12
        if not np.any(mask):
            points.append(
                FrontierPoint(
                    se_target=float(target),
                    se=math.nan,
                    ee=math.nan,
                    kappa=math.nan,
                    xi1=math.nan,
                    xi2=math.nan,
                    feasible=False,
                )
            )
            continue
        idx_masked = np.nonzero(mask)[0]
        best = idx_masked[np.argmax(ee_flat[idx_masked])]
        points.append(
            FrontierPoint(
                se_target=float(target),
                se=float(se_flat[best]),
                ee=float(ee_flat[best]),
                kappa=float(kap_mat.ravel()[best]),
                xi1=float(xi1_mat.ravel()[best]),
                xi2=float(xi2_mat.ravel()[best]),
                feasible=True,
            )
        )
    return points
