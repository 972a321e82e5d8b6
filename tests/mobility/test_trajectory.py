"""Unit tests for trajectories and trajectory sets."""

import math
import random
import time

import pytest

from repro.core.errors import MovementError
from repro.core.types import IndoorLocation, TrajectoryRecord
from repro.mobility.trajectory import Trajectory, TrajectorySet


def _record(object_id="o1", t=0.0, x=0.0, y=0.0, floor=0, partition="p"):
    return TrajectoryRecord(
        object_id=object_id,
        location=IndoorLocation("b", floor, partition_id=partition, x=x, y=y),
        t=t,
    )


def _brute_force_location(trajectory, t):
    """``Trajectory.location_at`` by a linear scan (the reference)."""
    records = trajectory.records
    start, end = records[0].t, records[-1].t
    if t < start or t > end:
        if math.isclose(t, start, rel_tol=1e-9, abs_tol=1e-9):
            t = start
        elif math.isclose(t, end, rel_tol=1e-9, abs_tol=1e-9):
            t = end
        else:
            return None
    index = max(i for i, record in enumerate(records) if record.t <= t)
    current = records[index]
    if index == len(records) - 1 or math.isclose(current.t, t):
        return current.location
    following = records[index + 1]
    if current.location.floor_id != following.location.floor_id:
        return current.location
    span = following.t - current.t
    fraction = 0.0 if span <= 0 else (t - current.t) / span
    x0, y0 = current.location.point()
    x1, y1 = following.location.point()
    return IndoorLocation(
        current.location.building_id, current.location.floor_id,
        partition_id=current.location.partition_id,
        x=x0 + (x1 - x0) * fraction, y=y0 + (y1 - y0) * fraction,
    )


@pytest.fixture()
def straight_walk() -> Trajectory:
    """An object walking 10 m along the x axis in 10 s, sampled every second."""
    trajectory = Trajectory("o1")
    for second in range(11):
        trajectory.append(_record(t=float(second), x=float(second)))
    return trajectory


class TestTrajectoryBasics:
    def test_append_enforces_object_id(self):
        trajectory = Trajectory("o1")
        with pytest.raises(MovementError):
            trajectory.append(_record(object_id="o2"))

    def test_append_enforces_time_order(self):
        trajectory = Trajectory("o1")
        trajectory.append(_record(t=5.0))
        with pytest.raises(MovementError):
            trajectory.append(_record(t=4.0))

    def test_duration_and_length(self, straight_walk):
        assert straight_walk.duration == pytest.approx(10.0)
        assert straight_walk.length == pytest.approx(10.0)
        assert straight_walk.average_speed() == pytest.approx(1.0)

    def test_empty_trajectory_properties(self):
        trajectory = Trajectory("o1")
        assert trajectory.is_empty
        assert trajectory.duration == 0.0
        assert trajectory.length == 0.0
        with pytest.raises(MovementError):
            _ = trajectory.start_time

    def test_floors_and_partitions_visited(self):
        trajectory = Trajectory("o1")
        trajectory.append(_record(t=0, floor=0, partition="a"))
        trajectory.append(_record(t=1, floor=0, partition="a"))
        trajectory.append(_record(t=2, floor=0, partition="b"))
        trajectory.append(_record(t=3, floor=1, partition="c"))
        assert trajectory.floors_visited() == [0, 1]
        assert trajectory.partitions_visited() == ["a", "b", "c"]

    def test_cross_floor_legs_do_not_count_toward_length(self):
        trajectory = Trajectory("o1")
        trajectory.append(_record(t=0, floor=0, x=0))
        trajectory.append(_record(t=1, floor=1, x=100))
        assert trajectory.length == 0.0


class TestInterpolation:
    def test_location_at_sample_times(self, straight_walk):
        location = straight_walk.location_at(3.0)
        assert location.point() == (3.0, 0.0)

    def test_location_at_interpolates(self, straight_walk):
        location = straight_walk.location_at(3.5)
        assert location.point()[0] == pytest.approx(3.5)

    def test_location_outside_lifespan_is_none(self, straight_walk):
        assert straight_walk.location_at(-1.0) is None
        assert straight_walk.location_at(99.0) is None

    def test_location_at_floor_change_keeps_earlier_floor(self):
        trajectory = Trajectory("o1")
        trajectory.append(_record(t=0, floor=0, x=0))
        trajectory.append(_record(t=10, floor=1, x=5))
        location = trajectory.location_at(5.0)
        assert location.floor_id == 0

    def test_location_at_matches_a_brute_force_scan(self):
        rng = random.Random(3)
        trajectory = Trajectory("o1")
        t = 0.0
        for _ in range(200):
            # Repeated timestamps (zero-length spans) and floor changes too.
            t += rng.choice((0.0, 0.5, 1.0, 1.3))
            trajectory.append(
                _record(t=t, x=rng.uniform(0, 30), y=rng.uniform(0, 10),
                        floor=rng.choice((0, 0, 0, 1)))
            )
        start, end = trajectory.start_time, trajectory.end_time
        times = [rng.uniform(start - 5.0, end + 5.0) for _ in range(300)]
        times += [record.t for record in trajectory.records]
        times += [start, end, start - 1e-12, end + 1e-12, start + (end - start) * 1.0]
        for query in times:
            assert trajectory.location_at(query) == _brute_force_location(trajectory, query)

    def test_location_at_is_logarithmic(self):
        trajectory = Trajectory("o1")
        for index in range(12_000):
            trajectory.append(_record(t=index * 0.5, x=float(index % 40)))
        started = time.perf_counter()
        for index in range(6_000):
            trajectory.location_at(index * 1.0 + 0.25)
        assert time.perf_counter() - started < 1.0

    def test_resample_coarser(self, straight_walk):
        coarse = straight_walk.resample(2.0)
        assert len(coarse) == 6
        assert coarse.records[1].t == pytest.approx(2.0)

    def test_resample_preserves_endpoints(self, straight_walk):
        coarse = straight_walk.resample(3.0)
        assert coarse.records[0].t == straight_walk.start_time
        assert coarse.records[-1].t == pytest.approx(straight_walk.end_time)

    def test_resample_rejects_non_positive_period(self, straight_walk):
        with pytest.raises(MovementError):
            straight_walk.resample(0.0)

    def test_slice(self, straight_walk):
        window = straight_walk.slice(2.0, 5.0)
        assert len(window) == 4
        assert window.records[0].t == 2.0


class TestTrajectorySet:
    def test_records_routed_by_object(self):
        trajectories = TrajectorySet()
        trajectories.add_record(_record(object_id="a", t=0))
        trajectories.add_record(_record(object_id="b", t=0))
        trajectories.add_record(_record(object_id="a", t=1))
        assert len(trajectories) == 2
        assert len(trajectories["a"]) == 2
        assert trajectories.total_records == 3
        assert trajectories.object_ids == ["a", "b"]

    def test_get_missing_returns_none(self):
        assert TrajectorySet().get("ghost") is None

    def test_all_records_sorted_by_time(self):
        trajectories = TrajectorySet()
        trajectories.add_record(_record(object_id="a", t=5))
        trajectories.add_record(_record(object_id="b", t=1))
        times = [record.t for record in trajectories.all_records()]
        assert times == sorted(times)

    def test_snapshot(self):
        trajectories = TrajectorySet()
        for t in range(5):
            trajectories.add_record(_record(object_id="a", t=float(t), x=float(t)))
        trajectories.add_record(_record(object_id="late", t=10.0))
        snapshot = trajectories.snapshot(2.0)
        assert "a" in snapshot and "late" not in snapshot

    def test_resample_set(self, office_simulation):
        coarse = office_simulation.trajectories.resample(5.0)
        assert len(coarse) == len(office_simulation.trajectories)
        assert coarse.total_records < office_simulation.trajectories.total_records
