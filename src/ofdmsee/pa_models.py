"""Power amplifier models and datasheet handling.

Two memoryless amplitude nonlinearities (ideal soft limiter and the Rapp
smooth-saturation model), the clipping probability exp(-1/xi) of a Gaussian
OFDM signal, which se_engine calls wherever it needs it, and a small
embedded corpus of commercial PA datasheet rows with a CSV loader for
user-supplied tables.
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._common import check_loading, check_positive, db_to_lin, dbm_to_watts, scalar_like

__all__ = [
    "PaSpec",
    "RappParams",
    "DatasheetWarning",
    "soft_limiter",
    "rapp",
    "clip_probability",
    "drain_efficiency",
    "load_datasheet",
    "embedded_datasheet",
    "find_pa",
]


class DatasheetWarning(UserWarning):
    """Row-level issue in a PA datasheet (row kept or skipped as noted)."""


@dataclass(frozen=True)
class PaSpec:
    """Static ratings of one power amplifier.

    p_max_out is the maximum (saturated) output power in watts, gain the
    linear power gain. The maximum input power is p_max_out / gain, so the
    amplitude limits satisfy b_max = sqrt(gain) * a_max by construction.
    Supply voltage/current and turn-on time are optional datasheet extras.
    """

    model_name: str
    p_max_out: float
    gain: float
    supply_voltage: float | None = None
    supply_current: float | None = None
    turn_on_time: float | None = None

    def __post_init__(self):
        check_positive("p_max_out", self.p_max_out)
        check_positive("gain", self.gain)
        for field in ("supply_voltage", "supply_current", "turn_on_time"):
            v = getattr(self, field)
            if v is not None:
                check_positive(field, v, " when given")

    @property
    def p_max_in(self):
        """Input power that drives the amplifier to saturation, watts."""
        return self.p_max_out / self.gain

    @property
    def a_max(self):
        """Input amplitude limit sqrt(p_max_in)."""
        return math.sqrt(self.p_max_in)

    @property
    def b_max(self):
        """Output amplitude limit sqrt(p_max_out)."""
        return math.sqrt(self.p_max_out)

    @classmethod
    def from_db(cls, model_name, p_max_out_dbm, gain_db, **kw):
        return cls(model_name, dbm_to_watts(p_max_out_dbm), db_to_lin(gain_db), **kw)


@dataclass(frozen=True)
class RappParams:
    """Rapp smooth-saturation model parameters.

    gain is the linear power gain of the small-signal region, b_sat the
    output saturation amplitude and p > 0 the smoothness; p -> inf recovers
    the ideal soft limiter.
    """

    gain: float
    b_sat: float
    p: float = 2.0

    def __post_init__(self):
        check_positive("gain", self.gain)
        check_positive("b_sat", self.b_sat)
        check_positive("smoothness p", self.p)


def soft_limiter(amplitude, spec):
    """Ideal clipping amplifier output amplitude for the given input amplitude.

    Linear amplification by sqrt(gain) up to the input limit a_max, hard
    saturation at b_max above it. Amplitude is a scalar or array, >= 0.
    """
    a = np.asarray(amplitude, dtype=float)
    if not (a >= 0.0).all():  # NaN fails too
        raise ValueError("amplitudes must be non-negative")
    return scalar_like(amplitude, np.minimum(math.sqrt(spec.gain) * a, spec.b_max))


def rapp(amplitude, params):
    """Rapp model output amplitude: smooth transition into saturation.

    f(a) = sqrt(g) a * (1 + (sqrt(g) a / b_sat)^(2p))^(-1/(2p)), which stays
    strictly below the soft limiter with the same gain and b_sat = b_max.
    """
    a = np.asarray(amplitude, dtype=float)
    if not (a >= 0.0).all():  # NaN fails too
        raise ValueError("amplitudes must be non-negative")
    two_p = 2.0 * params.p
    t = math.sqrt(params.gain) * a / params.b_sat
    # factor t out of the root above t = 1 so neither branch can overflow:
    # t (1 + t^2p)^(-1/2p) = (1 + t^-2p)^(-1/2p) for t > 0. Each branch sees
    # only its own t, so t = inf never meets the low branch's inf * 0.
    t_low = np.minimum(t, 1.0)
    t_high = np.maximum(t, 1.0)
    with np.errstate(under="ignore"):
        low = t_low * (1.0 + t_low**two_p) ** (-1.0 / two_p)
        high = (1.0 + t_high**-two_p) ** (-1.0 / two_p)
    return scalar_like(amplitude, params.b_sat * np.where(t <= 1.0, low, high))


def clip_probability(xi):
    """Probability that a Gaussian OFDM sample exceeds the PA input limit.

    With input power loaded at a fraction xi of the saturating input power,
    the Rayleigh amplitude exceeds a_max with probability exp(-1/xi), which
    is exactly 0.0 below xi = 1/746.
    """
    # the floor keeps 1/xi finite and changes no value: exp(-1000) is 0.0
    return scalar_like(xi, np.exp(-1.0 / np.maximum(check_loading(xi), 1e-3)))


def drain_efficiency(spec):
    """Rated output power over DC supply power, or None if ratings are missing."""
    if spec.supply_voltage is None or spec.supply_current is None:
        return None
    return spec.p_max_out / (spec.supply_voltage * spec.supply_current)


# ---------------------------------------------------------------------------
# Datasheet corpus
#
# Columns: id, model, p_max_out_dBm, gain_dB, voltage_V, current_mA,
# p_max_in_dBm (None if unlisted), turn_on_us (None if unlisted).
# Base-station-class parts; ids 106 and 113 are the two used by the
# default link scenarios.

_EMBEDDED_ROWS = [
    (75, "SM0825-33/33H", 33.0, 20.0, 12.0, 1100.0, 4.0, None),
    (78, "PA1110", 33.0, 10.0, 10.0, 725.0, 28.0, None),
    (79, "PA1132", 33.0, 22.0, 12.0, 725.0, 15.0, None),
    (80, "SM1727-34HS", 34.0, 33.0, 12.0, 1200.0, 1.0, None),
    (83, "PA1157", 36.0, 24.5, 10.0, 1350.0, 15.0, None),
    (84, "PA1159", 36.2, 23.5, 10.0, 1700.0, 28.0, None),
    (85, "PA1162", 36.2, 30.0, 10.0, 1450.0, 11.0, None),
    (86, "SM04060-37HS", 37.0, 36.0, 12.0, 1800.0, 1.0, None),
    (87, "SM04093-36HS", 37.0, 34.0, 12.0, 1600.0, 1.0, None),
    (88, "SM5659-37S", 37.0, 20.0, 12.0, 2300.0, 20.0, 1.0),
    (89, "SM5759-37HS", 37.0, 39.0, 12.0, 2300.0, 2.0, 1.0),
    (90, "PA1182", 37.5, 23.0, 28.0, 1000.0, 15.0, None),
    (93, "PA1186", 38.0, 29.0, 28.0, 1000.0, 15.0, None),
    (94, "XD010-42S-D4F/Y", 39.0, 30.0, 28.0, 930.0, 20.0, None),
    (95, "SM0822-39", 39.0, 45.0, 12.0, 3500.0, -4.0, 1.0),
    (96, "SM0825-40Q", 40.0, 39.0, 12.0, 5500.0, 1.0, None),
    (97, "SM2023-41", 41.0, 55.0, 12.0, 4500.0, -13.0, None),
    (98, "SM2027-41LS", 41.0, 51.0, 12.0, 6000.0, -7.0, None),
    (99, "SM4450-41L", 41.0, 55.0, 12.0, 5000.0, -13.0, 1.0),
    (100, "SM1822-42LS", 42.0, 52.0, 12.0, 5500.0, -8.0, None),
    (101, "SM3338-43", 43.0, 50.0, 12.0, 8500.0, -6.0, 1.0),
    (102, "SM5053-43L", 43.0, 55.0, 12.0, 9200.0, -7.0, 1.0),
    (104, "SM1923-44L", 44.0, 55.0, 12.0, 8200.0, -8.0, None),
    (105, "SM2025-44L", 44.0, 55.0, 12.0, 8500.0, -10.0, None),
    (106, "SM2122-44L", 44.0, 55.0, 12.0, 8200.0, -9.0, None),
    (107, "SM2325-44", 44.0, 55.0, 12.0, 8000.0, -10.0, None),
    (108, "SM2025-46L", 46.3, 52.0, 12.0, 15000.0, -7.0, None),
    (109, "SM04548-47L", 47.0, 55.0, 12.0, 14000.0, -8.0, None),
    (110, "SM2023-47L", 47.0, 55.0, 12.0, 15000.0, -7.0, None),
    (111, "SM3134-47L", 47.0, 55.0, 12.0, 15000.0, -6.0, None),
    (112, "SM3436-47L", 47.0, 56.0, 12.0, 15000.0, -6.0, None),
    (113, "SM1720-50", 50.0, 50.0, 12.0, 27000.0, 2.0, None),
    (114, "SM2325-50L", 50.0, 59.0, 12.0, 31000.0, -9.0, None),
    (115, "SM1819-52LD", 52.0, 45.0, 30.0, 11000.0, None, None),
]

_MISMATCH_LIMIT_DB = 3.0


def _build_spec(model, pout_dbm, gain_db, volts, milliamps, pin_dbm, ton_us, where):
    spec = PaSpec.from_db(
        model,
        pout_dbm,
        gain_db,
        supply_voltage=volts,
        supply_current=None if milliamps is None else milliamps * 1e-3,
        turn_on_time=None if ton_us is None else ton_us * 1e-6,
    )
    if pin_dbm is not None:
        computed = pout_dbm - gain_db
        if abs(pin_dbm - computed) > _MISMATCH_LIMIT_DB:
            warnings.warn(
                f"{where}: listed max input {pin_dbm:g} dBm disagrees with "
                f"p_max_out/gain = {computed:g} dBm by more than "
                f"{_MISMATCH_LIMIT_DB:g} dB; trusting output power and gain",
                DatasheetWarning,
                stacklevel=3,
            )
    return spec


def embedded_datasheet():
    """The built-in PA table as a list of PaSpec (input-rating mismatch warnings suppressed)."""
    specs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DatasheetWarning)
        for row in _EMBEDDED_ROWS:
            rid, model, pout, gdb, v, ma, pin, ton = row
            specs.append(_build_spec(model, pout, gdb, v, ma, pin, ton, f"row {rid}"))
    return specs


def _parse_cell(row, key, required):
    raw = (row.get(key) or "").strip()
    if raw in ("", "--", "-", "NA", "na", "None"):
        if required:
            raise ValueError(f"missing mandatory field '{key}'")
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"malformed numeric cell '{key}'={raw!r}") from None


def load_datasheet(source):
    """Parse a PA datasheet CSV into PaSpec records.

    `source` is a path or an open text stream. Mandatory columns: model,
    p_max_out_dBm, gain_dB. Optional: voltage_V, current_mA, p_max_in_dBm,
    turn_on_us. Bad rows are skipped with a DatasheetWarning rather than
    aborting the load; rows whose listed max input disagrees with
    p_max_out/gain by more than 3 dB are kept but flagged.
    """
    if hasattr(source, "read"):
        stream = source
        close = False
    else:
        stream = open(source, "r", newline="")
        close = True
    try:
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            raise ValueError("datasheet CSV has no header row")
        missing = {"model", "p_max_out_dBm", "gain_dB"} - set(reader.fieldnames)
        if missing:
            raise ValueError(f"datasheet CSV lacks mandatory columns: {sorted(missing)}")
        specs = []
        for idx, row in enumerate(reader, start=2):
            where = f"datasheet line {idx}"
            model = (row.get("model") or "").strip()
            try:
                if not model:
                    raise ValueError("missing mandatory field 'model'")
                pout = _parse_cell(row, "p_max_out_dBm", True)
                gdb = _parse_cell(row, "gain_dB", True)
                volts = _parse_cell(row, "voltage_V", False)
                ma = _parse_cell(row, "current_mA", False)
                pin = _parse_cell(row, "p_max_in_dBm", False)
                ton = _parse_cell(row, "turn_on_us", False)
                # PaSpec rejects NaN, inf and non-positive ratings
                specs.append(_build_spec(model, pout, gdb, volts, ma, pin, ton, where))
            except ValueError as exc:
                warnings.warn(f"{where}: {exc}; row skipped", DatasheetWarning, stacklevel=2)
        return specs
    finally:
        if close:
            stream.close()


def find_pa(key):
    """Look up an embedded PA by model name or numeric row id."""
    key_str = str(key).strip()
    for row, spec in zip(_EMBEDDED_ROWS, embedded_datasheet()):
        if key_str == row[1] or key_str == str(row[0]):
            return spec
    raise KeyError(f"no embedded PA matches {key!r}")
