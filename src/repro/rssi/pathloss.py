"""The log-distance path loss model used to synthesise RSSI measurements.

Section 3.2: "We implement a generic, flexible path loss model as
``rssi(dBm) = -10 n log10(dt) + A + Nob + Nf``.  Specifically, ``rssi`` is the
measured value; ``dt`` is the present transmission distance between the
positioning device and the observed object.  We allow users to define three
variables: ``A`` is a calibration RSSI value measured at 1 meter, ``Nob`` is
the noise caused by influence of obstacles like walls and doors, and ``Nf`` is
the noise for signal fluctuation related to temperature, humidity, etc; a
default setting of these variables is provided for a quick customization."

The deterministic part (the first two terms) lives here; the two noise terms
are supplied by :mod:`repro.rssi.noise` so they can be swapped independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.errors import ConfigurationError

#: Transmission distances below this are clamped so that ``log10`` stays finite.
MIN_TRANSMISSION_DISTANCE = 0.1


@dataclass(frozen=True)
class PathLossModel:
    """The deterministic log-distance path loss curve.

    Attributes:
        exponent: the path loss exponent ``n`` (2.0 in free space, typically
            2.5–4 indoors).
        calibration_rssi: ``A``, the RSSI measured at 1 metre, in dBm.
    """

    exponent: float = 2.5
    calibration_rssi: float = -40.0

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ConfigurationError("path loss exponent must be positive")

    def rssi_at(self, distance: float) -> float:
        """Noise-free RSSI (dBm) at transmission distance *distance* (metres)."""
        return float(self.rssi_batch([distance])[0])

    def rssi_batch(self, distances: Sequence[float]) -> np.ndarray:
        """Noise-free RSSI (dBm) at each of *distances* (metres).

        ``math.log10`` runs element-wise (``np.log10`` may differ in the last
        bit), so each value is exactly the float Python's
        ``-10.0 * n * log10(d) + A`` gives.
        """
        clamped = np.maximum(np.asarray(distances, dtype=float), MIN_TRANSMISSION_DISTANCE)
        logs = np.fromiter(map(math.log10, clamped.tolist()), dtype=float, count=len(clamped))
        return (-10.0 * self.exponent) * logs + self.calibration_rssi

    def distance_from_rssi(self, rssi: float) -> float:
        """Invert the noise-free curve: distance (metres) producing *rssi*.

        This is the default "RSSI conversion function" offered to
        trilateration users (Section 3.3 (1)).
        """
        exponent_value = (self.calibration_rssi - rssi) / (10.0 * self.exponent)
        return max(10.0 ** exponent_value, MIN_TRANSMISSION_DISTANCE)

    def with_parameters(self, exponent: float = None, calibration_rssi: float = None) -> "PathLossModel":
        """Copy of the model with selected parameters replaced."""
        return PathLossModel(
            exponent=self.exponent if exponent is None else exponent,
            calibration_rssi=(
                self.calibration_rssi if calibration_rssi is None else calibration_rssi
            ),
        )


def default_model_for(device) -> PathLossModel:
    """Path loss model parameterised from a device's radio defaults."""
    return PathLossModel(
        exponent=device.path_loss_exponent,
        calibration_rssi=device.tx_power_dbm,
    )


__all__ = ["MIN_TRANSMISSION_DISTANCE", "PathLossModel", "default_model_for"]
