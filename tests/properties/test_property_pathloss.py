"""Property-based tests for the path loss and noise models."""

import math

from hypothesis import given, strategies as st

from repro.rssi.noise import ObstacleNoiseModel
from repro.rssi.pathloss import MIN_TRANSMISSION_DISTANCE, PathLossModel

exponents = st.floats(min_value=1.5, max_value=5.0, allow_nan=False)
calibrations = st.floats(min_value=-70.0, max_value=-20.0, allow_nan=False)
distances = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)


class TestPathLossProperties:
    @given(exponents, calibrations, distances, distances)
    def test_monotonically_non_increasing(self, exponent, calibration, d1, d2):
        model = PathLossModel(exponent=exponent, calibration_rssi=calibration)
        nearer, farther = sorted((d1, d2))
        assert model.rssi_at(nearer) >= model.rssi_at(farther)

    @given(exponents, calibrations, distances)
    def test_inverse_round_trip(self, exponent, calibration, distance):
        model = PathLossModel(exponent=exponent, calibration_rssi=calibration)
        clamped = max(distance, MIN_TRANSMISSION_DISTANCE)
        recovered = model.distance_from_rssi(model.rssi_at(distance))
        assert math.isclose(recovered, clamped, rel_tol=1e-6)

    @given(exponents, calibrations, distances)
    def test_rssi_is_finite(self, exponent, calibration, distance):
        model = PathLossModel(exponent=exponent, calibration_rssi=calibration)
        assert math.isfinite(model.rssi_at(distance))

    @given(exponents, calibrations)
    def test_calibration_anchor_at_one_meter(self, exponent, calibration):
        model = PathLossModel(exponent=exponent, calibration_rssi=calibration)
        assert math.isclose(model.rssi_at(1.0), calibration, abs_tol=1e-9)


class TestObstacleNoiseProperties:
    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_attenuation_never_positive_and_bounded(self, walls, obstacles, wall_db, obstacle_db):
        model = ObstacleNoiseModel(
            wall_attenuation_db=wall_db,
            obstacle_attenuation_db=obstacle_db,
            max_attenuation_db=25.0,
        )
        value = model.attenuation_from_counts(walls, obstacles)
        assert -25.0 <= value <= 0.0

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    def test_more_walls_never_increase_signal(self, fewer, extra):
        model = ObstacleNoiseModel()
        assert model.attenuation_from_counts(fewer + extra, 0) <= model.attenuation_from_counts(fewer, 0)


class TestArrayForms:
    """The array forms the RSSI pass uses equal the one-value formulas bit for bit."""

    @given(exponents, calibrations, st.lists(distances, max_size=40))
    def test_rssi_batch_equals_the_scalar_formula(self, exponent, calibration, batch):
        model = PathLossModel(exponent=exponent, calibration_rssi=calibration)
        expected = [
            -10.0 * exponent * math.log10(max(d, MIN_TRANSMISSION_DISTANCE)) + calibration
            for d in batch
        ]
        values = model.rssi_batch(batch).tolist()
        assert [value.hex() for value in values] == [value.hex() for value in expected]
        assert [model.rssi_at(d).hex() for d in batch] == [value.hex() for value in expected]

    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 10)), max_size=40),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_attenuation_batch_equals_the_scalar_formula(
        self, counts, wall_db, obstacle_db, cap, extra
    ):
        model = ObstacleNoiseModel(
            wall_attenuation_db=wall_db,
            obstacle_attenuation_db=obstacle_db,
            max_attenuation_db=cap,
            non_line_of_sight_extra_db=extra,
        )
        expected = []
        for walls, obstacles in counts:
            total = walls * wall_db + obstacles * obstacle_db
            if walls + obstacles > 0:
                total += extra
            expected.append(-min(total, cap))
        walls = [walls for walls, _ in counts]
        obstacles = [obstacles for _, obstacles in counts]
        values = model.attenuation_batch(walls, obstacles).tolist()
        assert [value.hex() for value in values] == [value.hex() for value in expected]
        assert [
            model.attenuation_from_counts(*pair).hex() for pair in counts
        ] == [value.hex() for value in expected]
