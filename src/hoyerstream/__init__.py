"""Sparsity estimation for noisy streaming image frames.

Estimates how sparse a mean shift is from noisy matrix-valued observations:
a ratio-form sparsity index, its predicted inflation under additive noise,
and the corrected index that subtracts the inflation, plus the stream
machinery (baseline fitting, residuals, sliding readings), simulation
drivers, and file I/O behind the ``hoyerstream`` command.
"""

from .errors import DimensionError, FrameFormatError, MixedSignWarning
from .indices import (
    MOMENT_MODES,
    SignalMoments,
    as_image_matrix,
    corrected_hoyer,
    estimate_moments,
    hoyer_index,
    noise_bias,
)
from .stream import (
    BaselineModel,
    SparsityReading,
    corrected_reading,
    fit_baseline,
    monitor_series,
    residual,
    windowed_reading,
)

__version__ = "0.1.0"

# The names in ``__all__`` that are not imported above are the simulation's.
# They resolve on first use (PEP 562), so commands that only read frames
# (``monitor``, ``index``) never import the simulation.


def __getattr__(name):
    if name in __all__:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "BaselineModel",
    "DimensionError",
    "ErrorBand",
    "FrameFormatError",
    "MixedSignWarning",
    "MOMENT_MODES",
    "NoiseSpec",
    "SignalMoments",
    "SparsityReading",
    "as_image_matrix",
    "corrected_hoyer",
    "corrected_reading",
    "estimate_moments",
    "exact_moments",
    "fit_baseline",
    "hoyer_index",
    "make_dense_anomaly",
    "make_scaled_anomaly",
    "make_sparse_anomaly",
    "monitor_series",
    "noise_bias",
    "residual",
    "run_consistency",
    "run_robustness",
    "sample_noise",
    "simulate_residual_stream",
    "verify_bias_theorem",
    "verify_noise_domination",
    "verify_noise_sparsity_decay",
    "windowed_reading",
]
