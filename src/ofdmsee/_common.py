"""Argument helpers shared by the modules of the package."""

import numpy as np


def check_loading(xi):
    """xi as a float array; ValueError unless every entry lies in (0, 1].

    The range test is written so that NaN fails it: non-finite loadings are
    rejected too.
    """
    x = np.asarray(xi, dtype=float)
    if not np.all((x > 0.0) & (x <= 1.0)):
        raise ValueError("loading factor must lie in (0, 1]")
    return x


def scalar_like(template, value):
    """value as a float when template is a scalar, else value unchanged."""
    if np.ndim(template) == 0:
        return float(np.asarray(value).reshape(-1)[0])
    return value
