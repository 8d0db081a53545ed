"""The masked pipe rate, the reference the package's bit-rate kernels are checked against.

The package takes a pipe's rate unmasked (``rates._log_rate``) and lets
one ``fmax`` score a pipe without band or power 0.  Written out here,
the mask is explicit: w * log2(1 + p / inv_h) where w > 0 and p > 0,
and 0 elsewhere.
"""

import numpy as np

from sembit.rates import LN2, orth_inv_slope


def pipe_rate(bandwidth, power, inv_slope):
    """Bit rate w * log2(1 + p / inv_h); no band or no power carries nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = bandwidth * np.log1p(np.divide(power, inv_slope)) / LN2
    return np.where((np.asarray(bandwidth) > 0) & (np.asarray(power) > 0), rate, 0.0)


def clean_rate(bandwidth, power, gain, noise_psd):
    """AWGN capacity in bit/s of a clean band, as a float; zero bandwidth or power carries nothing."""
    return float(pipe_rate(bandwidth, power, orth_inv_slope(bandwidth, gain, noise_psd)))
