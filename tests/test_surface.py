"""The package's public names: a pinned list, so the surface grows only on purpose."""

import inspect
import re
from pathlib import Path

import hoyerstream
from hoyerstream import cli, errors, frameio, indices, simulate, stream

PUBLIC = [
    "BaselineModel", "DimensionError", "ErrorBand", "FrameFormatError", "MOMENT_MODES",
    "NoiseSpec", "SignalMoments", "SparsityReading", "as_image_matrix",
    "corrected_hoyer", "corrected_reading", "estimate_moments", "fit_baseline", "hoyer_index",
    "monitor_series", "noise_bias", "residual", "run_consistency", "run_robustness",
    "sample_noise", "verify_bias_theorem", "verify_noise_domination",
    "verify_noise_sparsity_decay", "windowed_reading",
]

# Test fixtures the pipeline never called, which the tests now build
# themselves, the sign-mass warning, which no reading raises, and the dims
# pair rule, which no fixed-shape experiment needs.
DELETED = [
    "make_dense_anomaly", "make_sparse_anomaly", "make_scaled_anomaly", "_repeat_row",
    "simulate_residual_stream", "write_pgm", "write_matrix_csv", "load_matrix",
    "moments_from_stats", "MixedSignWarning", "_warn_if_mixed_sign", "_dims",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(hoyerstream.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(hoyerstream, name), name
    # Internals stay in their modules, out of the package namespace.
    for name in ("float_key", "subseed", "near_square_dims", "stream_frame_noise", "error_band"):
        assert not hasattr(hoyerstream, name), name
        assert hasattr(hoyerstream.simulate, name), name


def test_fixture_code_stays_out_of_the_package():
    for module in (hoyerstream, simulate, frameio, indices, stream, errors):
        for name in DELETED:
            assert not hasattr(module, name), (module.__name__, name)


def test_no_package_path_reads_a_positive_mass():
    # Each frame is reduced to its two totals: only ``kernels`` names the
    # three-total ``matrix_stats``.
    package = Path(hoyerstream.__file__).parent
    naming = sorted(
        path.name for path in package.glob("*.py")
        if re.search(r"\bmatrix_stats\b", path.read_text(encoding="utf-8"))
    )
    assert naming == ["kernels.py"]


def test_experiment_settings_are_not_parameters():
    # Each experiment's frame shape and noise level are decided once, in
    # ``simulate``; the command line reads them rather than repeating them.
    for function, name in ((simulate.run_robustness, "dims"), (simulate.verify_bias_theorem, "dims"),
                           (simulate.verify_noise_sparsity_decay, "sigma"),
                           (simulate.verify_noise_domination, "sigma")):
        assert name not in inspect.signature(function).parameters, (function.__name__, name)
    assert not hasattr(cli, "SIM_DIMS")
