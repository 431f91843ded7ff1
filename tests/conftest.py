"""Shared fixtures: the reference urban-macro link used across the suite;
and the fixed set of modules loaded before any property runs."""

import importlib
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ofdmsee
from ofdmsee import BS_PRESETS, LinkScenario, build_scenario, find_pa, se_engine, switched_arm

ROOT = Path(__file__).resolve().parents[1]

# Hypothesis draws some examples from the constants of every loaded module of
# this checkout, test files aside, so its draws would depend on which test
# files were collected. Loading every such module here, before any property
# runs, fixes that pool.
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))
for package, folder in ((ofdmsee.__name__, Path(ofdmsee.__file__).parent), ("perfbench", ROOT / "perfbench")):
    for path in sorted(folder.glob("*.py")):
        importlib.import_module(package if path.stem == "__init__" else f"{package}.{path.stem}")


@pytest.fixture(scope="session")
def pa_low():
    return find_pa("SM2122-44L")


@pytest.fixture(scope="session")
def pa_high():
    return find_pa("SM1720-50")


@pytest.fixture(scope="session")
def scenario(pa_low):
    # urban macro link: G = 5 dB, alpha = 3.76, d = 200 m, -174 dBm/Hz, 10 MHz
    return build_scenario(5.0, 3.76, 0.2, -174.0, 1e7, pa_low)


@pytest.fixture(scope="session")
def scenario_high(pa_high):
    return build_scenario(5.0, 3.76, 0.2, -174.0, 1e7, pa_high)


@pytest.fixture(scope="session")
def snr_scenario():
    """Factory of 20 W links by peak SNR in dB, for sweeps over the SNR axis."""

    def make(gamma_db):
        return LinkScenario(
            bandwidth=1e7,
            noise_variance=20.0 / 10.0 ** (gamma_db / 10.0),
            gain=1e5,
            p_max_out=20.0,
        )

    return make


@pytest.fixture(scope="session")
def macro_raw():
    # preset exactly as tabulated (20 W amplifier rating)
    return BS_PRESETS["macro"]


@pytest.fixture(scope="session")
def macro_power(pa_low):
    # site overhead from the preset, amplifier size from the actual PA
    return replace(BS_PRESETS["macro"], p_max_out=pa_low.p_max_out)


@pytest.fixture(scope="session")
def macro_power_high(pa_high):
    return replace(BS_PRESETS["macro"], p_max_out=pa_high.p_max_out)


# switching-transmitter arms: each amplifier carries its own standing draw,
# which goes off with it
@pytest.fixture(scope="session")
def arm_low(pa_low, scenario):
    return switched_arm(pa_low, scenario, BS_PRESETS["macro"])


@pytest.fixture(scope="session")
def arm_high(pa_high, scenario_high):
    return switched_arm(pa_high, scenario_high, BS_PRESETS["macro"])


@pytest.fixture
def entropy_calls(monkeypatch):
    """Replace se_engine's batched entropy quadrature, which entropy_y and
    se_curve both run on, by a cheap stand-in for the duration of a test;
    returns the list of loadings handed to it."""
    calls = []

    def stand_in(xis, scenario):
        calls.extend(xis)
        return [
            se_engine.noise_entropy(scenario) + math.log2(1.0 + scenario.gamma * xi) * (1.0 - 0.3 * xi)
            for xi in xis
        ]

    monkeypatch.setattr(se_engine, "_entropies", stand_in)
    return calls
