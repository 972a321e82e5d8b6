"""Trilateration positioning.

Section 3.3 (1): "Trilateration infers deterministic locations from the
intersection of at least three circles.  The key is to convert an RSSI
measurement to the distance between a positioning device and an object.  To
this end, we allow users to define their own RSSI conversion functions that
derive the distances from the noisy RSSI measurements.  A default function is
also provided."

The implementation converts each device's mean window RSSI to a distance
(circle radius) and solves for the point in two steps, each a closed-form
2×2 solve:

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

Both steps solve a whole batch of windows at once (:func:`linearised_starts`,
:func:`refine_batch`): one row per window, one column per anchor, all rows
with the same number of anchors.  Per-window masks carry the control flow,
and a window that stops leaves the working arrays.  Each window gets exactly
the floats a one-window solve gives it: the same operations in the same
order, anchor sums accumulated one anchor at a time, ``math.hypot`` and the
squares of the start (Python's ``**``) applied element by element, and the
start's trace summed by Python's ``sum``.  The one-window functions are
batches of one.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.building.model import Building
from repro.core.types import DeviceId, PositioningMethod, PositioningRecord
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

Arrays = Tuple[np.ndarray, ...]
#: A device as an anchor: its floor, coordinates and RSSI -> distance conversion.
Anchor = Tuple[int, float, float, Callable[[float], float]]


def default_rssi_conversion(device: PositioningDevice, rssi: float) -> float:
    """The default conversion: invert the device's noise-free path loss curve."""
    return default_model_for(device).distance_from_rssi(rssi)


def _elementwise(function, *arrays: np.ndarray) -> np.ndarray:
    """*function* applied to each element in Python floats (exactly as a
    scalar loop would), as an array of the first argument's shape."""
    values = map(function, *(array.ravel().tolist() for array in arrays))
    return np.fromiter(values, dtype=float, count=arrays[0].size).reshape(arrays[0].shape)


def _square(value: float) -> float:
    # Python's ``**`` calls the C library's pow(), which is not always the
    # correctly rounded ``value * value``.
    return value ** 2


def _python_max(first: np.ndarray, second) -> np.ndarray:
    """``max(first, second)`` element by element, with Python's semantics:
    *first* unless ``second > first`` (so a NaN *first* is kept)."""
    return np.where(second > first, second, first)


def _as_batch(*values) -> Arrays:
    """A batch of one window: each sequence becomes a one-row array, each
    number a one-element array."""
    return tuple(np.array([value], dtype=float) for value in values)


def linearised_starts(xs: np.ndarray, ys: np.ndarray, radii: np.ndarray) -> Arrays:
    """Least-squares solutions of the linearised circle systems of a batch.

    *xs*, *ys* and *radii* hold one window per row and one anchor per column.
    Returns ``(ok, x, y)``: ``ok`` is false for a window without a start
    (rank < 2, or a non-finite solution), and its ``x``, ``y`` are NaN.

    Row ``i`` of ``A`` is ``2 (anchor_i - anchor_last)``.  By Cauchy–Binet,
    ``det(AᵀA)`` is the sum of the squared 2×2 minors of ``A``, and the
    least-squares solution is the minor-weighted sum of the 2×2 subsystem
    solutions.  Working from the minors avoids forming ``AᵀA``, whose
    condition number is the square of ``A``'s.
    """
    windows, anchors = xs.shape
    last = anchors - 1
    x_sq, y_sq, r_sq = (_elementwise(_square, array) for array in (xs, ys, radii))
    rx, ry = xs[:, last], ys[:, last]
    us = [2.0 * (xs[:, i] - rx) for i in range(last)]
    vs = [2.0 * (ys[:, i] - ry) for i in range(last)]
    bs = [
        x_sq[:, i] - x_sq[:, last] + y_sq[:, i] - y_sq[:, last] + r_sq[:, last] - r_sq[:, i]
        for i in range(last)
    ]
    terms = [(u * u + v * v).tolist() for u, v in zip(us, vs)]
    trace = np.array([sum(row) for row in zip(*terms)] if terms else [0] * windows, dtype=float)
    det = np.zeros(windows)
    x_sum = np.zeros(windows)
    y_sum = np.zeros(windows)
    for i in range(last):
        ui, vi, bi = us[i], vs[i], bs[i]
        for j in range(i + 1, last):
            uj, vj, bj = us[j], vs[j], bs[j]
            minor = ui * vj - uj * vi
            det += minor * minor
            x_sum += minor * (vj * bi - vi * bj)
            y_sum += minor * (ui * bj - uj * bi)
    # Singular values of A: s_max^2 + s_min^2 = trace, s_max * s_min = sqrt(det).
    s_max_sq = 0.5 * (trace + np.sqrt(_python_max(trace * trace - 4.0 * det, 0.0)))
    ok = (s_max_sq > 0.0) & ~(np.sqrt(det) <= s_max_sq * max(last, 2) * _FLOAT_EPS)
    # ``ok`` implies det > 0 (or NaN), so no division by zero.
    x = np.full(windows, math.nan)
    y = np.full(windows, math.nan)
    x[ok] = x_sum[ok] / det[ok]
    y[ok] = y_sum[ok] / det[ok]
    ok &= np.isfinite(x) & np.isfinite(y)
    return ok, x, y


def linearised_start(
    xs: Sequence[float], ys: Sequence[float], radii: Sequence[float]
) -> Optional[Tuple[float, float]]:
    """The linearised start of one window, or ``None``
    (:func:`linearised_starts` on a batch of one)."""
    ok, x, y = linearised_starts(*_as_batch(xs, ys, radii))
    if not ok[0]:
        return None
    return x.tolist()[0], y.tolist()[0]


def _linearise(xs, ys, radii, weights, x, y) -> Arrays:
    """Weighted cost at ``(x, y)`` plus the Gauss–Newton normal equations,
    one value per window: ``(cost, JᵀJ[0][0], JᵀJ[0][1], JᵀJ[1][1], Jᵀr[0],
    Jᵀr[1])``."""
    dx = x[:, None] - xs
    dy = y[:, None] - ys
    distance = _python_max(_elementwise(math.hypot, dx, dy), 1e-6)
    residual = (distance - radii) * weights
    jx = dx / distance * weights
    jy = dy / distance * weights
    cost, a, b, c, gx, gy = (np.zeros(len(x)) for _ in range(6))
    for anchor in range(xs.shape[1]):
        r, u, v = residual[:, anchor], jx[:, anchor], jy[:, anchor]
        cost += r * r
        a += u * u
        b += u * v
        c += v * v
        gx += u * r
        gy += v * r
    return cost, a, b, c, gx, gy


def _weights(radii: np.ndarray) -> np.ndarray:
    return 1.0 / _python_max(radii, 0.5)


def weighted_cost(
    xs: Sequence[float], ys: Sequence[float], radii: Sequence[float], x: float, y: float
) -> float:
    """Sum of the squared weighted circle residuals at ``(x, y)``."""
    xs, ys, radii, x, y = _as_batch(xs, ys, radii, x, y)
    return _linearise(xs, ys, radii, _weights(radii), x, y)[0].tolist()[0]


def refine_batch(
    xs: np.ndarray, ys: np.ndarray, radii: np.ndarray, x: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Levenberg–Marquardt refinement of each window's start ``(x[i], y[i])``.

    Each trial step solves ``(JᵀJ + mu I) step = -Jᵀr`` in closed form.  A
    step that lowers the cost is kept and relaxes the damping ``mu``; one
    that does not is dropped and stiffens it.  A window stops when ``det``
    is not positive, after a step shorter than :data:`STEP_TOLERANCE`, or
    after :data:`MAX_ITERATIONS` trial steps; stopped windows leave the
    working arrays.  Each refined point is finite and never costs more
    than its start.
    """
    weights = _weights(radii)
    cost, a, b, c, gx, gy = _linearise(xs, ys, radii, weights, x, y)
    mu = 1e-3 * _python_max(a, c)
    final_x, final_y = x.copy(), y.copy()
    live = np.arange(len(x))
    short_step = np.zeros(len(x), dtype=bool)
    for _ in range(MAX_ITERATIONS):
        a_mu, c_mu = a + mu, c + mu
        det = a_mu * c_mu - b * b
        going = (det > 0.0) & ~short_step
        if not going.all():
            if not going.any():
                break
            live, xs, ys, radii, weights, x, y, cost, a, b, c, gx, gy, mu, a_mu, c_mu, det = (
                array[going] for array in (
                    live, xs, ys, radii, weights, x, y, cost, a, b, c, gx, gy, mu, a_mu, c_mu, det
                )
            )
        step_x = (b * gy - c_mu * gx) / det
        step_y = (b * gx - a_mu * gy) / det
        trial_x, trial_y = x + step_x, y + step_y
        trial = _linearise(xs, ys, radii, weights, trial_x, trial_y)
        better = trial[0] < cost
        x = np.where(better, trial_x, x)
        y = np.where(better, trial_y, y)
        cost, a, b, c, gx, gy = (
            np.where(better, new, old) for new, old in zip(trial, (cost, a, b, c, gx, gy))
        )
        mu = np.where(better, mu * 0.1, mu * 10.0)
        final_x[live] = x
        final_y[live] = y
        short_step = _elementwise(math.hypot, step_x, step_y) < STEP_TOLERANCE
    return final_x, final_y


def refine(
    xs: Sequence[float], ys: Sequence[float], radii: Sequence[float], x: float, y: float
) -> Tuple[float, float]:
    """Levenberg–Marquardt refinement of one window's start ``(x, y)``
    (:func:`refine_batch` on a batch of one)."""
    refined_x, refined_y = refine_batch(*_as_batch(xs, ys, radii, x, y))
    return refined_x.tolist()[0], refined_y.tolist()[0]


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
        #: Each device's anchor, built on first use.
        self._anchors: Dict[DeviceId, Anchor] = {}

    def _anchor(self, device_id: DeviceId) -> Anchor:
        anchor = self._anchors.get(device_id)
        if anchor is None:
            device = self.device(device_id)
            if self.rssi_conversion is default_rssi_conversion:
                # One path loss model per device, not one per conversion.
                convert = default_model_for(device).distance_from_rssi
            else:
                convert = functools.partial(self.rssi_conversion, device)
            x, y = device.location.point()
            anchor = self._anchors[device_id] = (device.floor_id, x, y, convert)
        return anchor

    def _circles(self, window: ObservationWindow):
        """``(floor, xs, ys, radii)`` of the window's strongest same-floor
        anchors, or ``None`` when fewer than ``min_devices`` remain."""
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
            device_floor, x, y, convert = self._anchor(device_id)
            if device_floor != floor_id:
                continue
            xs.append(x)
            ys.append(y)
            radii.append(max(convert(rssi), 0.05))
            if len(radii) >= self.max_devices:
                break
        if len(radii) < self.min_devices:
            return None
        return floor_id, xs, ys, radii

    def estimate_windows(
        self, windows: Sequence[ObservationWindow]
    ) -> List[Optional[PositioningRecord]]:
        """Estimate every window with one batched solve per anchor count."""
        circles = [self._circles(window) for window in windows]
        by_count: Dict[int, List[int]] = defaultdict(list)
        for index, circle in enumerate(circles):
            if circle is not None:
                by_count[len(circle[1])].append(index)
        points: List[Optional[Tuple[float, float]]] = [None] * len(windows)
        for indices in by_count.values():
            xs, ys, radii = (
                np.array([circles[index][column] for index in indices], dtype=float)
                for column in (1, 2, 3)
            )
            ok, start_x, start_y = linearised_starts(xs, ys, radii)
            rows = np.flatnonzero(ok)
            refined_x, refined_y = refine_batch(
                xs[rows], ys[rows], radii[rows], start_x[rows], start_y[rows]
            )
            for row, x, y in zip(rows.tolist(), refined_x.tolist(), refined_y.tolist()):
                points[indices[row]] = (x, y)
        records: List[Optional[PositioningRecord]] = []
        for window, circle, point in zip(windows, circles, points):
            if point is None:
                records.append(None)
                continue
            floor_id = circle[0]
            estimate = Point(*point)
            if self.clamp_to_floor:
                estimate = self._clamp_to_floor(floor_id, estimate)
            records.append(PositioningRecord(
                object_id=window.object_id,
                location=self.locate_point(floor_id, estimate),
                t=window.t_center,
                method=PositioningMethod.TRILATERATION,
            ))
        return records

    def estimate_window(self, window: ObservationWindow) -> Optional[PositioningRecord]:
        return self.estimate_windows([window])[0]

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
    "linearised_starts",
    "refine",
    "refine_batch",
    "weighted_cost",
    "TrilaterationMethod",
]
