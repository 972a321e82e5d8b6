"""RSSI generation: path loss model, noise models, measurement generator."""

from repro.rssi.pathloss import MIN_TRANSMISSION_DISTANCE, PathLossModel, default_model_for
from repro.rssi.noise import FluctuationNoiseModel, ObstacleNoiseModel
from repro.rssi.measurement import RSSIGenerationConfig, RSSIGenerator

__all__ = [
    "MIN_TRANSMISSION_DISTANCE",
    "PathLossModel",
    "default_model_for",
    "FluctuationNoiseModel",
    "ObstacleNoiseModel",
    "RSSIGenerationConfig",
    "RSSIGenerator",
]
