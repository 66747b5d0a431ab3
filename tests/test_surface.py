"""The package's public names: a pinned list, so the surface grows only on purpose."""

import hoyerstream

PUBLIC = [
    "BaselineModel", "DimensionError", "ErrorBand", "FrameFormatError", "MOMENT_MODES",
    "MixedSignWarning", "NoiseSpec", "SignalMoments", "SparsityReading", "as_image_matrix",
    "corrected_hoyer", "corrected_reading", "estimate_moments", "fit_baseline", "hoyer_index",
    "monitor_series", "noise_bias", "residual", "run_consistency", "run_robustness",
    "sample_noise", "verify_bias_theorem", "verify_noise_domination",
    "verify_noise_sparsity_decay", "windowed_reading",
]

# Test fixtures the pipeline never called; the tests build their own.
DELETED = [
    "make_dense_anomaly", "make_sparse_anomaly", "make_scaled_anomaly", "_repeat_row",
    "simulate_residual_stream", "write_pgm", "write_matrix_csv", "load_matrix",
    "moments_from_stats",
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
    for module in (hoyerstream, hoyerstream.simulate, hoyerstream.frameio, hoyerstream.indices):
        for name in DELETED:
            assert not hasattr(module, name), (module.__name__, name)
