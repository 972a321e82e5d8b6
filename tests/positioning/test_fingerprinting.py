"""Unit tests for fingerprinting (radio map, kNN, Naive Bayes) — Section 3.3 (2)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.errors import RadioMapError
from repro.core.types import PositioningMethod, RSSIRecord
from repro.geometry.point import Point
from repro.positioning.base import ObservationWindow, build_windows
from repro.positioning.fingerprinting import (
    KNNFingerprinting,
    MISSING_RSSI_DBM,
    NaiveBayesFingerprinting,
    RadioMap,
    ReferenceLocation,
)
from repro.rssi.measurement import RSSIGenerationConfig, RSSIGenerator
from repro.rssi.noise import FluctuationNoiseModel


@pytest.fixture(scope="module")
def survey_generator(office, office_wifi):
    """A low-noise generator used for the offline site survey."""
    return RSSIGenerator(
        office,
        office_wifi,
        RSSIGenerationConfig(
            fluctuation_noise=FluctuationNoiseModel(1.0),
            detection_probability=1.0,
            seed=17,
        ),
    )


@pytest.fixture(scope="module")
def radio_map(office, survey_generator):
    return RadioMap.survey_grid(office, survey_generator, spacing=4.0, samples_per_location=6)


class TestReferenceLocation:
    def test_signal_distance_prefers_similar_fingerprints(self):
        reference = ReferenceLocation(0, Point(1, 1), mean_rssi={"a": -50.0, "b": -70.0})
        close = reference.signal_distance({"a": -52.0, "b": -69.0})
        far = reference.signal_distance({"a": -80.0, "b": -40.0})
        assert close < far

    def test_missing_devices_penalised(self):
        reference = ReferenceLocation(0, Point(1, 1), mean_rssi={"a": -50.0})
        with_device = reference.signal_distance({"a": -50.0})
        without_device = reference.signal_distance({"b": -50.0})
        assert with_device < without_device

    def test_signal_distance_does_not_depend_on_string_hashing(self):
        # Set iteration order follows PYTHONHASHSEED; the distances (and so
        # the kNN ranking of near-tied references) must not.
        script = (
            "import random\n"
            "from repro.geometry.point import Point\n"
            "from repro.positioning.fingerprinting import ReferenceLocation\n"
            "rng = random.Random(4)\n"
            "ids = [f'wifi_{i}' for i in range(16)]\n"
            "out = []\n"
            "for _ in range(200):\n"
            "    mean = {d: rng.uniform(-95, -35) for d in rng.sample(ids, 9)}\n"
            "    seen = {d: rng.uniform(-95, -35) for d in rng.sample(ids, 7)}\n"
            "    reference = ReferenceLocation(0, Point(0.0, 0.0), mean_rssi=mean)\n"
            "    out.append(reference.signal_distance(seen).hex())\n"
            "print(' '.join(out))\n"
        )
        source = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source)
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                check=True,
            )
            outputs.append(completed.stdout)
        assert outputs[0].count(" ") == 199
        assert outputs[0] == outputs[1] == outputs[2]

    def test_empty_reference_gives_infinite_distance(self):
        reference = ReferenceLocation(0, Point(1, 1))
        assert reference.signal_distance({}) == float("inf")

    def test_log_likelihood_prefers_matching_observation(self):
        reference = ReferenceLocation(
            0, Point(1, 1), mean_rssi={"a": -50.0}, std_rssi={"a": 2.0}
        )
        assert reference.log_likelihood({"a": -50.0}) > reference.log_likelihood({"a": -70.0})


class TestRadioMapConstruction:
    def test_survey_grid_covers_every_floor(self, radio_map, office):
        assert radio_map.floors() == office.floor_ids

    def test_reference_density_follows_spacing(self, office, survey_generator):
        sparse = RadioMap.survey_grid(office, survey_generator, spacing=8.0, samples_per_location=3)
        dense = RadioMap.survey_grid(office, survey_generator, spacing=4.0, samples_per_location=3)
        assert len(dense) > len(sparse)

    def test_references_have_fingerprints(self, radio_map):
        assert all(reference.mean_rssi for reference in radio_map.references)

    def test_survey_explicit_points(self, office, survey_generator):
        """Section 3.3: users select the set of reference locations."""
        points = [(0, Point(4.0, 3.0)), (0, Point(20.0, 9.0)), (1, Point(12.0, 3.0))]
        radio_map = RadioMap.survey(office, survey_generator, points, samples_per_location=4)
        assert len(radio_map) == 3
        assert radio_map.references[0].partition_id is not None

    def test_empty_radio_map_rejected_by_methods(self, office, office_wifi):
        with pytest.raises(RadioMapError):
            KNNFingerprinting(office, office_wifi, RadioMap())
        with pytest.raises(RadioMapError):
            NaiveBayesFingerprinting(office, office_wifi, RadioMap())


class TestKNN:
    def test_k_must_be_positive(self, office, office_wifi, radio_map):
        with pytest.raises(RadioMapError):
            KNNFingerprinting(office, office_wifi, radio_map, k=0)

    def test_empty_window_returns_none(self, office, office_wifi, radio_map):
        method = KNNFingerprinting(office, office_wifi, radio_map)
        assert method.estimate_window(ObservationWindow("o", 0.0, 5.0)) is None

    def test_estimate_near_surveyed_location(self, office, office_wifi, radio_map, survey_generator):
        method = KNNFingerprinting(office, office_wifi, radio_map, k=3)
        true_point = Point(20.0, 9.0)
        observation = survey_generator.collect_fingerprint(0, true_point, samples=4)
        records = [
            RSSIRecord("o", device_id, sum(values) / len(values), 1.0)
            for device_id, values in observation.items()
        ]
        estimate = method.estimate_window(ObservationWindow("o", 0.0, 5.0, records=records))
        assert estimate is not None
        assert estimate.location.floor_id == 0
        x, y = estimate.location.point()
        assert Point(x, y).distance_to(true_point) < 6.0

    def test_estimates_never_mix_floors(self, office, office_wifi, radio_map, office_rssi):
        method = KNNFingerprinting(office, office_wifi, radio_map, k=5)
        for estimate in method.estimate(build_windows(office_rssi, period=5.0)):
            assert estimate.location.floor_id in office.floor_ids
            assert estimate.method is PositioningMethod.FINGERPRINTING

    def test_accuracy_on_generated_data(self, office, office_wifi, radio_map, office_rssi, office_simulation):
        from repro.analysis.accuracy import evaluate_positioning

        method = KNNFingerprinting(office, office_wifi, radio_map, k=3)
        estimates = method.estimate(build_windows(office_rssi, period=5.0))
        report = evaluate_positioning(estimates, office_simulation.trajectories)
        assert report.mean_error < 8.0


class TestNaiveBayes:
    def test_probabilities_sum_to_one(self, office, office_wifi, radio_map, office_rssi):
        method = NaiveBayesFingerprinting(office, office_wifi, radio_map, top_k=4)
        estimates = method.estimate(build_windows(office_rssi, period=5.0))
        assert estimates
        for estimate in estimates[:50]:
            total = sum(prob for _, prob in estimate.candidates)
            assert total == pytest.approx(1.0, abs=1e-6)
            assert len(estimate.candidates) <= 4

    def test_best_candidate_has_highest_probability(self, office, office_wifi, radio_map, office_rssi):
        method = NaiveBayesFingerprinting(office, office_wifi, radio_map)
        estimates = method.estimate(build_windows(office_rssi, period=5.0))
        for estimate in estimates[:50]:
            assert estimate.best_probability == max(prob for _, prob in estimate.candidates)

    def test_probabilistic_output_format(self, office, office_wifi, radio_map, office_rssi):
        """Section 4.2: probabilistic records are (o_id, {(loc_i, prob_i)}, t)."""
        method = NaiveBayesFingerprinting(office, office_wifi, radio_map)
        estimate = method.estimate(build_windows(office_rssi, period=5.0))[0]
        row = estimate.as_record()
        assert row["method"] == "fingerprinting"
        assert all("location" in candidate and "prob" in candidate for candidate in row["candidates"])

    def test_top_k_validation(self, office, office_wifi, radio_map):
        with pytest.raises(RadioMapError):
            NaiveBayesFingerprinting(office, office_wifi, radio_map, top_k=0)

    def test_empty_window_returns_none(self, office, office_wifi, radio_map):
        method = NaiveBayesFingerprinting(office, office_wifi, radio_map)
        assert method.estimate_window(ObservationWindow("o", 0.0, 5.0)) is None

    def test_bayes_accuracy_comparable_to_knn(self, office, office_wifi, radio_map, office_rssi, office_simulation):
        from repro.analysis.accuracy import evaluate_probabilistic

        method = NaiveBayesFingerprinting(office, office_wifi, radio_map, top_k=3)
        estimates = method.estimate(build_windows(office_rssi, period=5.0))
        report = evaluate_probabilistic(estimates, office_simulation.trajectories)
        assert report.mean_error < 10.0
