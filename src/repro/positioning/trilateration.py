"""Trilateration positioning.

Section 3.3 (1): "Trilateration infers deterministic locations from the
intersection of at least three circles.  The key is to convert an RSSI
measurement to the distance between a positioning device and an object.  To
this end, we allow users to define their own RSSI conversion functions that
derive the distances from the noisy RSSI measurements.  A default function is
also provided."

The implementation converts each device's mean window RSSI to a distance
(circle radius) and solves for the point in two steps, each a closed-form
2×2 solve in plain floats:

1. :func:`linearised_start` — subtracting the last circle equation from every
   other yields a linear system ``A [x, y]^T = b``; its least-squares
   solution is the start, and anchors whose ``A`` has rank < 2 (collinear or
   coincident devices) are rejected.
2. :func:`refine` — Levenberg–Marquardt on the circle residuals
   ``|p - anchor_i| - radius_i``, weighted by ``1 / max(radius_i, 0.5)`` so
   that nearby (less noisy) anchors dominate.  A step is kept only when it
   lowers :func:`weighted_cost`, so the refined point never costs more than
   the start.  At most 20 trial steps are made, and the loop stops once a
   step is shorter than 1e-4 m.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.building.model import Building
from repro.core.types import PositioningMethod, PositioningRecord
from repro.devices.base import PositioningDevice
from repro.geometry.point import Point
from repro.positioning.base import ObservationWindow, PositioningMethodBase
from repro.rssi.pathloss import PathLossModel, default_model_for

#: An RSSI conversion function maps (device, rssi_dbm) to a distance in metres.
RSSIConversion = Callable[[PositioningDevice, float], float]

#: Trial steps of the refinement, and the step length (m) that ends it early.
MAX_ITERATIONS = 20
STEP_TOLERANCE = 1e-4
#: ``numpy.finfo(float).eps``: the rank test uses ``numpy.linalg.matrix_rank``'s
#: tolerance, ``largest singular value * rows * eps``.
_FLOAT_EPS = 2.220446049250313e-16


def default_rssi_conversion(device: PositioningDevice, rssi: float) -> float:
    """The default conversion: invert the device's noise-free path loss curve."""
    return default_model_for(device).distance_from_rssi(rssi)


def linearised_start(
    xs: Sequence[float], ys: Sequence[float], radii: Sequence[float]
) -> Optional[Tuple[float, float]]:
    """Least-squares solution of the linearised circle system, or ``None``.

    Row ``i`` of ``A`` is ``2 (anchor_i - anchor_last)``.  By Cauchy–Binet,
    ``det(AᵀA)`` is the sum of the squared 2×2 minors of ``A``, and the
    least-squares solution is the minor-weighted sum of the 2×2 subsystem
    solutions.  Working from the minors avoids forming ``AᵀA``, whose
    condition number is the square of ``A``'s.
    """
    last = len(xs) - 1
    rx, ry, rr = xs[last], ys[last], radii[last]
    rows = [
        (
            2.0 * (xs[i] - rx),
            2.0 * (ys[i] - ry),
            xs[i] ** 2 - rx ** 2 + ys[i] ** 2 - ry ** 2 + rr ** 2 - radii[i] ** 2,
        )
        for i in range(last)
    ]
    trace = sum(u * u + v * v for u, v, _ in rows)
    det = x_sum = y_sum = 0.0
    for i, (ui, vi, bi) in enumerate(rows):
        for uj, vj, bj in rows[i + 1:]:
            minor = ui * vj - uj * vi
            det += minor * minor
            x_sum += minor * (vj * bi - vi * bj)
            y_sum += minor * (ui * bj - uj * bi)
    # Singular values of A: s_max^2 + s_min^2 = trace, s_max * s_min = sqrt(det).
    s_max_sq = 0.5 * (trace + math.sqrt(max(trace * trace - 4.0 * det, 0.0)))
    if not s_max_sq > 0.0 or math.sqrt(det) <= s_max_sq * max(last, 2) * _FLOAT_EPS:
        return None
    x, y = x_sum / det, y_sum / det
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    return x, y


def _linearise(xs, ys, radii, weights, x, y):
    """Weighted cost at ``(x, y)`` plus the Gauss–Newton normal equations:
    ``(cost, JᵀJ[0][0], JᵀJ[0][1], JᵀJ[1][1], Jᵀr[0], Jᵀr[1])``."""
    cost = a = b = c = gx = gy = 0.0
    for ax, ay, radius, weight in zip(xs, ys, radii, weights):
        dx, dy = x - ax, y - ay
        distance = max(math.hypot(dx, dy), 1e-6)
        residual = (distance - radius) * weight
        jx, jy = dx / distance * weight, dy / distance * weight
        cost += residual * residual
        a += jx * jx
        b += jx * jy
        c += jy * jy
        gx += jx * residual
        gy += jy * residual
    return cost, a, b, c, gx, gy


def _weights(radii: Sequence[float]) -> List[float]:
    return [1.0 / max(radius, 0.5) for radius in radii]


def weighted_cost(
    xs: Sequence[float], ys: Sequence[float], radii: Sequence[float], x: float, y: float
) -> float:
    """Sum of the squared weighted circle residuals at ``(x, y)``."""
    return _linearise(xs, ys, radii, _weights(radii), x, y)[0]


def refine(
    xs: Sequence[float], ys: Sequence[float], radii: Sequence[float], x: float, y: float
) -> Tuple[float, float]:
    """Levenberg–Marquardt refinement of the start ``(x, y)``.

    Each trial step solves ``(JᵀJ + mu I) step = -Jᵀr`` in closed form.  A
    step that lowers the cost is kept and relaxes the damping ``mu``; one
    that does not is dropped and stiffens it.  The returned point is finite
    and never costs more than the start.
    """
    weights = _weights(radii)
    cost, a, b, c, gx, gy = _linearise(xs, ys, radii, weights, x, y)
    mu = 1e-3 * max(a, c)
    for _ in range(MAX_ITERATIONS):
        a_mu, c_mu = a + mu, c + mu
        det = a_mu * c_mu - b * b
        if not det > 0.0:
            break
        step_x = (b * gy - c_mu * gx) / det
        step_y = (b * gx - a_mu * gy) / det
        trial = _linearise(xs, ys, radii, weights, x + step_x, y + step_y)
        if trial[0] < cost:
            x, y = x + step_x, y + step_y
            cost, a, b, c, gx, gy = trial
            mu *= 0.1
        else:
            mu *= 10.0
        if math.hypot(step_x, step_y) < STEP_TOLERANCE:
            break
    return x, y


class TrilaterationMethod(PositioningMethodBase):
    """Least-squares trilateration over at least three same-floor devices."""

    name = "trilateration"

    def __init__(
        self,
        building: Building,
        devices: Sequence[PositioningDevice],
        rssi_conversion: Optional[RSSIConversion] = None,
        min_devices: int = 3,
        max_devices: int = 5,
        path_loss: Optional[PathLossModel] = None,
        clamp_to_floor: bool = True,
        spatial=None,
    ) -> None:
        super().__init__(building, devices, spatial=spatial)
        if min_devices < 3:
            raise ValueError("trilateration needs at least three circles")
        if max_devices < min_devices:
            raise ValueError("max_devices must be >= min_devices")
        self.min_devices = min_devices
        self.max_devices = max_devices
        self.clamp_to_floor = clamp_to_floor
        if rssi_conversion is not None:
            self.rssi_conversion = rssi_conversion
        elif path_loss is not None:
            self.rssi_conversion = lambda device, rssi: path_loss.distance_from_rssi(rssi)
        else:
            self.rssi_conversion = default_rssi_conversion

    def estimate_window(self, window: ObservationWindow) -> Optional[PositioningRecord]:
        means = window.mean_rssi_by_device()
        if len(means) < self.min_devices:
            return None
        floor_id = self.dominant_floor(window)
        # Strongest measurements first: nearby devices have the least noisy
        # RSSI-to-distance conversion, so restricting the solve to the top
        # few anchors dramatically improves the estimate.
        ranked = sorted(means.items(), key=lambda pair: pair[1], reverse=True)
        xs: List[float] = []
        ys: List[float] = []
        radii: List[float] = []
        for device_id, rssi in ranked:
            device = self.device(device_id)
            if device.floor_id != floor_id:
                continue
            position = device.position
            xs.append(position.x)
            ys.append(position.y)
            radii.append(max(self.rssi_conversion(device, rssi), 0.05))
            if len(radii) >= self.max_devices:
                break
        if len(radii) < self.min_devices:
            return None
        start = linearised_start(xs, ys, radii)
        if start is None:
            return None
        estimate = Point(*refine(xs, ys, radii, *start))
        if self.clamp_to_floor:
            estimate = self._clamp_to_floor(floor_id, estimate)
        location = self.locate_point(floor_id, estimate)
        return PositioningRecord(
            object_id=window.object_id,
            location=location,
            t=window.t_center,
            method=PositioningMethod.TRILATERATION,
        )

    def _clamp_to_floor(self, floor_id: int, estimate: Point) -> Point:
        """Clamp an estimate into the floor extent (a real system knows it)."""
        # The floor extent is memoized by the spatial service — the original
        # recomputed the union over every partition per estimated window.
        box = self.spatial.floor_bounds(floor_id)
        return Point(
            min(max(estimate.x, box.min_x), box.max_x),
            min(max(estimate.y, box.min_y), box.max_y),
        )


__all__ = [
    "RSSIConversion",
    "default_rssi_conversion",
    "linearised_start",
    "refine",
    "weighted_cost",
    "TrilaterationMethod",
]
