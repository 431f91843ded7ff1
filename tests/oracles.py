"""Oracles for the tests, computed with the math module alone and so
independent of the package's quadrature and special functions."""

import math


def se_bounds(gamma, xi):
    """(lower, upper) bounds, b/s/Hz, on the SE of a link at peak SNR gamma
    whose amplifier clips a complex Gaussian input loaded at xi.

    With c = 1/xi the limiter's output power is xi*P_max*(1 - e^{-c}).
    - Upper: at a fixed power the Gaussian has the largest entropy, so
      SE <= log2(1 + gamma*xi*(1 - e^{-c})).
    - Lower: the output splits as alpha*X + D, with the distortion D
      uncorrelated with X and alpha = 1 - e^{-c} + (sqrt(pi)/2)*sqrt(c)*erfc(sqrt(c))
      (Bussgang, MIT RLE Tech. Rep. 216, 1952; Ochiai & Imai, IEEE Trans.
      Commun. 50(1), 2002). For a Gaussian input, Gaussian noise of the same
      power as D plus the channel noise does the most harm (Medard, IEEE
      Trans. IT 46(3), 2000), so
      SE >= log2(1 + alpha^2*xi*gamma / (xi*gamma*(1 - e^{-c}) - alpha^2*xi*gamma + 1)).
    """
    c = 1.0 / xi
    kept = -math.expm1(-c)
    alpha = kept + 0.5 * math.sqrt(math.pi * c) * math.erfc(math.sqrt(c))
    snr = gamma * xi
    lower = math.log2(1.0 + alpha**2 * snr / (snr * kept - alpha**2 * snr + 1.0))
    return lower, math.log2(1.0 + snr * kept)
