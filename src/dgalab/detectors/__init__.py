from .base import DetectorModel, KINDS, load_detector, train_detector
from .distances import edit_distance
from .features import FEATURE_NAMES

__all__ = ["DetectorModel", "KINDS", "load_detector", "train_detector",
           "edit_distance", "FEATURE_NAMES"]
