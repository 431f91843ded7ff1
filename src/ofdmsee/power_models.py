"""Transmitter power consumption models.

Load-dependent consumed power of a base-station transmitter built around a
multi-way Doherty amplifier, plus the affine reference model and the ideal
(output-only) lower bound. All loads are expressed through the input power
loading factor xi in (0, 1], where xi * p_max_out is the peak-rated output
power scaled by the load.

The Doherty draw has one shape, _phi_doherty (1 at full load): pc_nonlinear
scales it by the full-load PA draw c * p_max_out, ppa_doherty by the class-B
full-load draw 4 * p_full / pi; doherty_pieces splits it into segments.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._common import check_loading, check_positive, scalar_like

__all__ = [
    "PowerModelParams",
    "BS_PRESETS",
    "ppa_doherty",
    "pc_linear",
    "pc_nonlinear",
    "pc_ideal",
    "doherty_pieces",
]


@dataclass(frozen=True)
class PowerModelParams:
    """Consumed-power model of one transmitter chain.

    p_max_out: peak RF output power in watts.
    p_fix: load-independent draw (baseband, cooling, supply overhead), watts.
       A single-amplifier transmitter draws it whenever it is active. In a
       switching transmitter each arm's p_fix is that amplifier's own
       standing draw (see pas_engine.switched_arm): it goes off with the
       amplifier, so only the active arm is charged for it.
    c: slope of the affine draw model, so the chain adds c * p_out watts at
       output power p_out. The full-load PA draw is therefore c * p_max_out.
    """

    p_max_out: float
    p_fix: float
    c: float

    def __post_init__(self):
        for field in ("p_max_out", "p_fix", "c"):
            check_positive(field, getattr(self, field))

    @property
    def c0(self):
        """Full-load PA draw c * p_max_out, watts."""
        return self.c * self.p_max_out


# (p_max_out W, p_fix W, c)
BS_PRESETS = {
    "macro": PowerModelParams(20.0, 130.0, 4.7),
    "rrh": PowerModelParams(20.0, 84.0, 2.8),
    "micro": PowerModelParams(6.3, 56.0, 2.6),
    "pico": PowerModelParams(0.13, 6.8, 4.0),
    "femto": PowerModelParams(0.05, 4.8, 8.0),
}


def _check_ways(n_ways):
    if not isinstance(n_ways, (int, np.integer)) or n_ways < 1:
        raise ValueError("n_ways must be an integer >= 1")
    return int(n_ways)


def ppa_doherty(xi, p_full, n_ways=2):
    """DC draw of an n-way Doherty amplifier at loading xi.

    p_full is the amplifier's peak output power in watts. The draw is
    pc_nonlinear's Doherty shape scaled to the class-B full-load draw
    4 * p_full / pi, so peak efficiency pi/4 is reached at the transition
    xi = 1/n_ways^2 and at full load. n_ways=1 is a plain class-B stage.
    """
    x = check_loading(xi)
    w = _check_ways(n_ways)
    check_positive("p_full", p_full)
    return scalar_like(xi, 4.0 * p_full / math.pi * _phi_doherty(x, w))


def _phi_doherty(x, w):
    # shape function of the Doherty draw, normalized so phi(1, w) == 1.0
    # exactly in floats; shares its breakpoint algebra with doherty_pieces
    root = np.sqrt(x)
    return np.where(x <= 1.0 / w**2, root / w, ((w + 1.0) * root - 1.0) / w)


def pc_linear(xi, params):
    """Affine consumed-power model p_fix + c * xi * p_max_out."""
    x = check_loading(xi)
    out = params.p_fix + params.c0 * x
    return scalar_like(xi, out)


def pc_nonlinear(xi, params, n_ways=2):
    """Consumed power with an n-way Doherty PA.

    p_fix + c * p_max_out * phi(xi), where phi is the normalized Doherty
    draw profile. Matches pc_linear exactly at full load xi = 1.
    """
    x = check_loading(xi)
    w = _check_ways(n_ways)
    out = params.p_fix + params.c0 * _phi_doherty(x, w)
    return scalar_like(xi, out)


def pc_ideal(xi, params, pa_gain):
    """Lower-bound draw with a lossless amplifier.

    Only the RF power actually added by the PA, (1 - 1/gain) * xi *
    p_max_out, is consumed, derated by the class-B peak efficiency pi/4
    relative to the same c slope.
    """
    x = check_loading(xi)
    if not (math.isfinite(pa_gain) and pa_gain > 1.0):
        raise ValueError("pa_gain must be finite and exceed 1")
    out = params.p_fix + (math.pi / 4.0) * params.c * (1.0 - 1.0 / pa_gain) * x * params.p_max_out
    return scalar_like(xi, out)


def doherty_pieces(params, n_ways=2):
    """Square-root segments of pc_nonlinear.

    Returns a list of (xi_lo, xi_hi, v1, v2) with consumed power
    v1 + v2 * sqrt(xi) on xi in (xi_lo, xi_hi]. Adjacent segments agree at
    the shared breakpoint.
    """
    w = _check_ways(n_ways)
    c0 = params.c0
    knee = 1.0 / w**2
    pieces = [(0.0, knee, params.p_fix, c0 / w)]
    if knee < 1.0:
        pieces.append((knee, 1.0, params.p_fix - c0 / w, c0 * (w + 1.0) / w))
    return pieces

