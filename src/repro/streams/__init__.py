"""Stream-processing substrate: windows, DFT synopses, and workloads.

Implements the data / computation model of Sec. III: bounded streams
under the sliding-window model (:mod:`repro.streams.model`), unitary DFT
with the O(k) incremental update of Eq. 5 (:mod:`repro.streams.dft`),
the z- and unit-normalizations of Eq. 1/2
(:mod:`repro.streams.normalize`), incremental normalized feature
extraction (:mod:`repro.streams.features`), and synthetic generators /
datasets standing in for the paper's inputs
(:mod:`repro.streams.generators`, :mod:`repro.streams.datasets`).
"""

from .datasets import StockDataset, synthetic_host_load, synthetic_sp500
from .dft import (
    SlidingDFT,
    reconstruct_from_coefficients,
    truncated_dft,
    unitary_dft,
    unitary_idft,
)
from .features import (
    NORMALIZATION_MODES,
    IncrementalFeatureExtractor,
    extract_feature_vector,
    feature_dimensions,
    feature_distance,
)
from .generators import HostLoadGenerator, RandomWalkGenerator, StockGenerator
from .model import SlidingWindow
from .wavelets import (
    HaarFeatureExtractor,
    haar_transform,
    inverse_haar_transform,
    truncated_haar,
)
from .normalize import (
    correlation_to_distance,
    distance_to_correlation,
    euclidean,
    pearson,
    unit_normalize,
    z_normalize,
)

__all__ = [
    "StockDataset",
    "synthetic_host_load",
    "synthetic_sp500",
    "SlidingDFT",
    "reconstruct_from_coefficients",
    "truncated_dft",
    "unitary_dft",
    "unitary_idft",
    "NORMALIZATION_MODES",
    "IncrementalFeatureExtractor",
    "extract_feature_vector",
    "feature_dimensions",
    "feature_distance",
    "HostLoadGenerator",
    "RandomWalkGenerator",
    "StockGenerator",
    "SlidingWindow",
    "HaarFeatureExtractor",
    "haar_transform",
    "inverse_haar_transform",
    "truncated_haar",
    "correlation_to_distance",
    "distance_to_correlation",
    "euclidean",
    "pearson",
    "unit_normalize",
    "z_normalize",
]
