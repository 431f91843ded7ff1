"""Spectral and energy efficiency of clipped OFDM links.

The package models an OFDM transmitter whose power amplifier saturates, and
quantifies the rate and efficiency consequences: exact output statistics,
spectral efficiency with clipping, consumption-aware energy efficiency,
optimal input-power loading factors, and frame-level schedules that switch
between two differently sized amplifiers. A Monte Carlo simulator provides
independent validation of the analytic results.
"""

# the package exports what each module declares public in its __all__
from . import ee_engine, mc_oracle, pa_models, pas_engine, power_models, se_engine, specfun
from .specfun import *  # noqa: F401,F403
from .pa_models import *  # noqa: F401,F403
from .power_models import *  # noqa: F401,F403
from .se_engine import *  # noqa: F401,F403
from .ee_engine import *  # noqa: F401,F403
from .pas_engine import *  # noqa: F401,F403
from .mc_oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (specfun, pa_models, power_models, se_engine, ee_engine, pas_engine, mc_oracle)
    for name in module.__all__
] + ["__version__"]
