"""Artifact persistence: save -> load round trips and failure modes.

The serving contract is that a loaded artifact is indistinguishable from
the live estimator it was saved from: parameter arrays (and their dtype
tier) survive bit-for-bit, scoring the same rows produces bit-identical
results, and every corruption/mismatch path fails with a ValidationError
naming the offending file.
"""

import hashlib
import json

import numpy as np
import pytest

from helpers.estimators import cd1_detector, cd1_recommender
from repro.analog import dequantize_symmetric, quantize_symmetric
from repro.config.specs import ComputeSpec, RunSpec
from repro.eval import RBMAnomalyDetector, RBMRecommender
from repro.rbm import BernoulliRBM
from repro.serve import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    load_model,
    save_model,
)
from repro.utils.validation import ValidationError


def _random_rbm(n_visible=16, n_hidden=8, dtype=np.float64, seed=1):
    rbm = BernoulliRBM(n_visible, n_hidden, rng=0)
    rng = np.random.default_rng(seed)
    rbm.weights = rng.normal(0, 0.3, (n_visible, n_hidden)).astype(dtype)
    rbm.visible_bias = rng.normal(0, 0.2, n_visible).astype(dtype)
    rbm.hidden_bias = rng.normal(0, 0.2, n_hidden).astype(dtype)
    return rbm


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rbm_round_trip_preserves_dtype_and_scores(self, tmp_path, dtype):
        rbm = _random_rbm(dtype=dtype)
        npz_path = save_model(rbm, tmp_path / "model")
        artifact = load_model(tmp_path / "model")

        assert artifact.kind == "rbm"
        for name in ("weights", "visible_bias", "hidden_bias"):
            stored = getattr(artifact.rbm, name)
            assert stored.dtype == dtype
            np.testing.assert_array_equal(stored, getattr(rbm, name))
        rows = (np.random.default_rng(2).random((5, 16)) < 0.5).astype(float)
        np.testing.assert_array_equal(
            artifact.scorer()(rows), rbm.score_samples(rows)
        )
        assert npz_path.is_file() and npz_path.suffix == ".npz"

    def test_path_suffixes_normalize_to_one_bundle(self, tmp_path):
        rbm = _random_rbm()
        save_model(rbm, tmp_path / "model.npz")
        for alias in ("model", "model.npz", "model.json"):
            artifact = load_model(tmp_path / alias)
            np.testing.assert_array_equal(artifact.rbm.weights, rbm.weights)

    def test_recommender_round_trip_scores_bit_identical(
        self, tmp_path, tiny_ratings_dataset
    ):
        recommender = cd1_recommender(n_hidden=8, epochs=3, rng=0).fit(
            tiny_ratings_dataset
        )
        save_model(recommender, tmp_path / "rec")
        artifact = load_model(tmp_path / "rec")

        assert artifact.kind == "recommender"
        assert artifact.n_features == tiny_ratings_dataset.n_users
        assert artifact.model._global_mean == recommender._global_mean
        item_rows = np.asarray(tiny_ratings_dataset.train_ratings, dtype=float).T
        np.testing.assert_array_equal(
            artifact.model.predict_ratings(item_rows),
            recommender.predict_ratings(item_rows),
        )

    @pytest.mark.sparse
    def test_sparse_trained_recommender_round_trip(
        self, tmp_path, tiny_ratings_dataset
    ):
        recommender = cd1_recommender(
            n_hidden=8, epochs=3, encoding="onehot", sparse=True, rng=0
        ).fit(tiny_ratings_dataset)
        save_model(recommender, tmp_path / "rec")
        artifact = load_model(tmp_path / "rec")

        assert artifact.model.sparse is True
        item_rows = np.asarray(tiny_ratings_dataset.train_ratings, dtype=float).T
        np.testing.assert_array_equal(
            artifact.model.predict_ratings(item_rows),
            recommender.predict_ratings(item_rows),
        )

    def test_anomaly_detector_round_trip_scores_bit_identical(
        self, tmp_path, tiny_fraud_dataset
    ):
        detector = cd1_detector(n_hidden=8, epochs=3, rng=0).fit(
            tiny_fraud_dataset
        )
        save_model(detector, tmp_path / "det")
        artifact = load_model(tmp_path / "det")

        assert artifact.kind == "anomaly"
        assert artifact.n_features == tiny_fraud_dataset.test_x.shape[1]
        np.testing.assert_array_equal(
            artifact.model.anomaly_scores(tiny_fraud_dataset.test_x),
            detector.anomaly_scores(tiny_fraud_dataset.test_x),
        )

    def test_run_spec_round_trips_losslessly(self, tmp_path):
        spec = RunSpec(experiment="figure9", seed=7)
        save_model(_random_rbm(), tmp_path / "model", run_spec=spec)
        artifact = load_model(tmp_path / "model")
        assert artifact.run_spec == spec
        # The dict form is accepted too (what the CLI passes through).
        save_model(_random_rbm(), tmp_path / "m2", run_spec=spec.to_dict())
        assert load_model(tmp_path / "m2").run_spec == spec


def _save_with_legacy_key(path, key, value):
    """Save a bundle whose run_spec JSON carries a retired ``compute.<key>``,
    as artifacts written while that knob existed do."""
    spec = RunSpec(experiment="figure7", compute=ComputeSpec(dtype="float32", workers=2))
    save_model(_random_rbm(), path, run_spec=spec)
    json_path = path.with_suffix(".json")
    meta = json.loads(json_path.read_text())
    meta["run_spec"]["compute"][key] = value
    json_path.write_text(json.dumps(meta))
    return spec


class TestLegacyExecutorKey:
    @pytest.mark.parametrize("value", [None, "threads", "processes"])
    def test_once_valid_value_is_dropped_on_load(self, tmp_path, value):
        spec = _save_with_legacy_key(tmp_path / "model", "executor", value)
        assert load_model(tmp_path / "model").run_spec == spec

    @pytest.mark.parametrize("value", ["forks", "PROCESSES", 2])
    def test_other_values_fail_naming_the_key(self, tmp_path, value):
        _save_with_legacy_key(tmp_path / "model", "executor", value)
        with pytest.raises(ValidationError, match="executor"):
            load_model(tmp_path / "model")


class TestLegacyFastPathKey:
    def test_true_is_dropped_on_load(self, tmp_path):
        spec = _save_with_legacy_key(tmp_path / "model", "fast_path", True)
        loaded = load_model(tmp_path / "model").run_spec
        assert loaded == spec
        assert "fast_path" not in loaded.to_dict()["compute"]

    @pytest.mark.parametrize("value", [False, "no"])
    def test_other_values_fail_naming_the_key(self, tmp_path, value):
        _save_with_legacy_key(tmp_path / "model", "fast_path", value)
        with pytest.raises(ValidationError, match="fast_path"):
            load_model(tmp_path / "model")


class TestRetiredComputeValues:
    """Artifacts whose run_spec records a since-retired compute value load
    with bit-equal parameters and the concrete spec that value computed
    under."""

    @pytest.mark.parametrize(
        "key, value, compute",
        [
            ("dtype", "qint8", ComputeSpec(dtype="float32", workers=2)),
            ("workers", None, ComputeSpec(dtype="float32")),
            ("workers", "auto", ComputeSpec(dtype="float32")),
            ("executor", "threads", ComputeSpec(dtype="float32", workers=2)),
            ("fast_path", True, ComputeSpec(dtype="float32", workers=2)),
        ],
    )
    def test_loads_bit_equal_with_mapped_run_spec(self, tmp_path, key, value, compute):
        spec = _save_with_legacy_key(tmp_path / "model", key, value)
        artifact = load_model(tmp_path / "model")
        saved = _random_rbm()
        for name in ("weights", "visible_bias", "hidden_bias"):
            np.testing.assert_array_equal(getattr(artifact.rbm, name), getattr(saved, name))
        assert artifact.run_spec == spec.replace(compute=compute)


class TestQuantizedArtifact:
    """``save_model(..., quantize=True)``: int8 codes + float32 scales."""

    def test_codes_and_scales_round_trip_losslessly(self, tmp_path):
        rbm = _random_rbm(dtype=np.float32)
        npz_path = save_model(rbm, tmp_path / "q", quantize=True)
        expected = {
            "weights": quantize_symmetric(rbm.weights, axis=0),
            "visible_bias": quantize_symmetric(rbm.visible_bias),
            "hidden_bias": quantize_symmetric(rbm.hidden_bias),
        }
        with np.load(npz_path) as npz:
            assert sorted(npz.files) == sorted(
                name + suffix for name in expected for suffix in ("_q", "_scale")
            )
            for name, (codes, scales) in expected.items():
                stored_codes = npz[name + "_q"]
                stored_scales = npz[name + "_scale"]
                assert stored_codes.dtype == np.int8
                assert int(np.abs(stored_codes).max()) <= 127
                assert stored_scales.dtype == np.float32
                np.testing.assert_array_equal(stored_codes, codes)
                np.testing.assert_array_equal(stored_scales, scales)

    def test_load_dequantizes_to_float32_parameters(self, tmp_path):
        rbm = _random_rbm(dtype=np.float32)
        save_model(rbm, tmp_path / "q", quantize=True)
        artifact = load_model(tmp_path / "q")
        assert artifact.meta["quantized"] is True
        for name in ("weights", "visible_bias", "hidden_bias"):
            stored = getattr(artifact.rbm, name)
            original = getattr(rbm, name)
            assert stored.dtype == np.float32
            codes, scales = quantize_symmetric(
                original, axis=0 if original.ndim == 2 else None
            )
            np.testing.assert_array_equal(stored, dequantize_symmetric(codes, scales))
        rows = (np.random.default_rng(2).random((5, 16)) < 0.5).astype(float)
        # Scores shift by at most the quantization LSB's worth of energy.
        np.testing.assert_allclose(
            artifact.scorer()(rows), rbm.score_samples(rows), atol=0.5
        )

    def test_quantized_bundle_is_at_least_3x_smaller(self, tmp_path):
        rbm = _random_rbm(n_visible=784, n_hidden=500, dtype=np.float32, seed=4)
        full_path = save_model(rbm, tmp_path / "full")
        quantized_path = save_model(rbm, tmp_path / "quant", quantize=True)
        ratio = full_path.stat().st_size / quantized_path.stat().st_size
        assert ratio >= 3.0

    def test_quantized_save_reload_is_idempotent_on_values(self, tmp_path):
        """Dequantized parameters re-quantize to the same codes, so a
        quantized artifact survives load -> save -> load unchanged."""
        rbm = _random_rbm(dtype=np.float32)
        save_model(rbm, tmp_path / "q1", quantize=True)
        first = load_model(tmp_path / "q1")
        save_model(first.rbm, tmp_path / "q2", quantize=True)
        second = load_model(tmp_path / "q2")
        for name in ("weights", "visible_bias", "hidden_bias"):
            np.testing.assert_array_equal(
                getattr(first.rbm, name), getattr(second.rbm, name)
            )

    def test_builds_without_quantized_support_would_fail_loudly(self, tmp_path):
        """The quantized bundle deliberately has no 'weights' array: a
        loader that ignores meta['quantized'] hits the required-array
        check instead of silently rebuilding a garbage model."""
        save_model(_random_rbm(), tmp_path / "q", quantize=True)
        json_path = tmp_path / "q.json"
        meta = json.loads(json_path.read_text())
        meta["quantized"] = False  # what a pre-quantization loader sees
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="'weights' is missing"):
            load_model(tmp_path / "q")

    def test_quantized_flag_on_plain_bundle_fails_loudly(self, tmp_path):
        save_model(_random_rbm(), tmp_path / "m")
        json_path = tmp_path / "m.json"
        meta = json.loads(json_path.read_text())
        meta["quantized"] = True
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="quantized bundle is missing"):
            load_model(tmp_path / "m")

    def test_quantized_anomaly_detector_still_ranks(self, tmp_path, tiny_fraud_dataset):
        """A quantized estimator artifact keeps its scoring behavior: the
        anomaly ranking survives the int8 round trip."""
        detector = cd1_detector(n_hidden=8, epochs=3, rng=0).fit(
            tiny_fraud_dataset
        )
        save_model(detector, tmp_path / "det", quantize=True)
        artifact = load_model(tmp_path / "det")
        direct = detector.anomaly_scores(tiny_fraud_dataset.test_x)
        loaded = artifact.model.anomaly_scores(tiny_fraud_dataset.test_x)
        assert np.corrcoef(direct, loaded)[0, 1] > 0.99


class TestLegacyChainState:
    """Bundles once could carry a persistent-chain ``chain_state`` array.
    They still load: the array is checked against the manifest like every
    other, then ignored."""

    @staticmethod
    def _with_chain_state(tmp_path, chains):
        rbm = _random_rbm()
        save_model(rbm, tmp_path / "old")
        npz_path, json_path = tmp_path / "old.npz", tmp_path / "old.json"
        with np.load(npz_path) as npz:
            arrays = {name: npz[name] for name in npz.files}
        np.savez(npz_path, **arrays, chain_state=chains)
        meta = json.loads(json_path.read_text())
        meta["arrays"]["chain_state"] = {"shape": [4, 8], "dtype": "float64"}
        meta["npz_sha256"] = hashlib.sha256(npz_path.read_bytes()).hexdigest()
        json_path.write_text(json.dumps(meta))
        return rbm

    def test_bundle_with_chain_state_loads_and_scores(self, tmp_path):
        rbm = self._with_chain_state(tmp_path, np.eye(4, 8))
        artifact = load_model(tmp_path / "old")
        rows = (np.random.default_rng(2).random((5, 16)) < 0.5).astype(float)
        np.testing.assert_array_equal(
            artifact.scorer()(rows), rbm.score_samples(rows)
        )

    def test_chain_state_is_still_checked_against_the_manifest(self, tmp_path):
        self._with_chain_state(tmp_path, np.eye(4, 9))
        with pytest.raises(ValidationError, match="'chain_state'"):
            load_model(tmp_path / "old")


class TestLegacyScoreMethod:
    """Detector bundles once stored a ``score_method``.  The reconstruction
    error is the only score now: a bundle that stored it loads, and one
    that stored another scorer fails rather than score differently."""

    @staticmethod
    def _detector_bundle(tmp_path, tiny_fraud_dataset, score_method):
        detector = cd1_detector(n_hidden=8, epochs=2, rng=0).fit(tiny_fraud_dataset)
        save_model(detector, tmp_path / "det")
        json_path = tmp_path / "det.json"
        meta = json.loads(json_path.read_text())
        assert "score_method" not in meta["state"]
        meta["state"]["score_method"] = score_method
        json_path.write_text(json.dumps(meta))
        return detector

    def test_reconstruction_bundle_loads_and_scores(self, tmp_path, tiny_fraud_dataset):
        detector = self._detector_bundle(tmp_path, tiny_fraud_dataset, "reconstruction")
        loaded = load_model(tmp_path / "det").model
        np.testing.assert_array_equal(
            loaded.anomaly_scores(tiny_fraud_dataset.test_x),
            detector.anomaly_scores(tiny_fraud_dataset.test_x),
        )

    def test_other_score_method_fails_the_load(self, tmp_path, tiny_fraud_dataset):
        self._detector_bundle(tmp_path, tiny_fraud_dataset, "free_energy")
        with pytest.raises(ValidationError, match="score_method"):
            load_model(tmp_path / "det")


class TestSaveErrors:
    def test_unfitted_estimators_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unfitted"):
            save_model(RBMRecommender(), tmp_path / "m")
        with pytest.raises(ValidationError, match="unfitted"):
            save_model(RBMAnomalyDetector(), tmp_path / "m")

    def test_unsupported_model_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="supported models"):
            save_model(object(), tmp_path / "m")


class TestLoadErrors:
    def test_missing_bundle(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_model(tmp_path / "nope")

    def test_missing_sidecar_json(self, tmp_path):
        save_model(_random_rbm(), tmp_path / "model")
        (tmp_path / "model.json").unlink()
        with pytest.raises(ValidationError, match="not found"):
            load_model(tmp_path / "model")

    def test_garbled_json(self, tmp_path):
        save_model(_random_rbm(), tmp_path / "model")
        (tmp_path / "model.json").write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_model(tmp_path / "model")

    def test_foreign_format_rejected(self, tmp_path):
        save_model(_random_rbm(), tmp_path / "model")
        meta = json.loads((tmp_path / "model.json").read_text())
        meta["format"] = "something-else"
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match=ARTIFACT_FORMAT):
            load_model(tmp_path / "model")

    def test_version_mismatch_names_the_remedy(self, tmp_path):
        save_model(_random_rbm(), tmp_path / "model")
        meta = json.loads((tmp_path / "model.json").read_text())
        meta["format_version"] = ARTIFACT_VERSION + 1
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="re-save the model"):
            load_model(tmp_path / "model")

    def test_truncated_payload_fails_checksum(self, tmp_path):
        npz_path = save_model(_random_rbm(), tmp_path / "model")
        payload = npz_path.read_bytes()
        npz_path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ValidationError, match="sha256"):
            load_model(tmp_path / "model")

    def test_manifest_drift_detected(self, tmp_path):
        npz_path = save_model(_random_rbm(), tmp_path / "model")
        meta = json.loads((tmp_path / "model.json").read_text())
        meta["arrays"]["weights"]["dtype"] = "float32"
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="manifest says"):
            load_model(tmp_path / "model")
        assert npz_path.is_file()  # the payload itself was never touched

    def test_missing_required_array(self, tmp_path):
        rbm = _random_rbm()
        npz_path = save_model(rbm, tmp_path / "model")
        # Rewrite the payload without hidden_bias, keeping the checksum and
        # manifest consistent, so the required-array check is what fires.
        np.savez(
            npz_path, weights=rbm.weights, visible_bias=rbm.visible_bias
        )
        meta = json.loads((tmp_path / "model.json").read_text())
        del meta["arrays"]["hidden_bias"]
        import hashlib

        meta["npz_sha256"] = hashlib.sha256(npz_path.read_bytes()).hexdigest()
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="'hidden_bias' is missing"):
            load_model(tmp_path / "model")

    def test_unknown_kind_rejected(self, tmp_path):
        save_model(_random_rbm(), tmp_path / "model")
        meta = json.loads((tmp_path / "model.json").read_text())
        meta["kind"] = "transformer"
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="unknown kind"):
            load_model(tmp_path / "model")

    def test_incomplete_estimator_state_is_corruption(self, tmp_path, tiny_fraud_dataset):
        detector = cd1_detector(n_hidden=8, epochs=2, rng=0).fit(
            tiny_fraud_dataset
        )
        save_model(detector, tmp_path / "det")
        meta = json.loads((tmp_path / "det.json").read_text())
        del meta["state"]["train_mean_score"]
        (tmp_path / "det.json").write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="missing field"):
            load_model(tmp_path / "det")


def _fitted_estimator(kind, request):
    if kind == "rbm":
        return _random_rbm()
    if kind == "recommender":
        return cd1_recommender(n_hidden=8, epochs=2, rng=0).fit(
            request.getfixturevalue("tiny_ratings_dataset")
        )
    return cd1_detector(n_hidden=8, epochs=2, rng=0).fit(
        request.getfixturevalue("tiny_fraud_dataset")
    )


@pytest.mark.parametrize(
    "kind, path, value, field",
    [
        ("rbm", ("arrays", "weights"), 5, "weights"),
        ("recommender", ("state", "n_hidden"), "x", "n_hidden"),
        ("anomaly", ("state", "n_bins"), [3], "n_bins"),
        ("recommender", ("state",), [1, 2], "state"),
        ("anomaly", ("state",), "oops", "state"),
    ],
    ids=[
        "non-mapping-manifest-entry",
        "non-numeric-recommender-state",
        "non-numeric-anomaly-state",
        "non-mapping-recommender-state",
        "non-mapping-anomaly-state",
    ],
)
def test_malformed_metadata_fails_naming_the_field(
    tmp_path, request, kind, path, value, field
):
    """Malformed JSON metadata is corruption: a ValidationError naming the
    field, never an AttributeError/TypeError/ValueError from deep inside
    the loader."""
    save_model(_fitted_estimator(kind, request), tmp_path / "model")
    json_path = tmp_path / "model.json"
    meta = json.loads(json_path.read_text())
    target = meta
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    json_path.write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match=field):
        load_model(tmp_path / "model")


@pytest.mark.parametrize("value", ["false", "true", 0, 1])
@pytest.mark.parametrize("kind", ["recommender", "anomaly"])
def test_non_bool_sparse_flag_is_corruption(tmp_path, request, kind, value):
    """``bool("false")`` is True: the ``sparse`` flag must be a real JSON
    bool, or the loader would silently flip the estimator's encoding."""
    save_model(_fitted_estimator(kind, request), tmp_path / "model")
    json_path = tmp_path / "model.json"
    meta = json.loads(json_path.read_text())
    meta["state"]["sparse"] = value
    json_path.write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match="'sparse' is not a valid bool"):
        load_model(tmp_path / "model")


@pytest.mark.parametrize("experiment", ["figure9", "figure10"])
def test_run_spec_of_a_retired_streamed_preset_still_loads(tmp_path, experiment):
    """Artifacts saved from the retired ``streamed`` presets carry
    ``streaming``/``chunk_size`` params; RunSpec params are free-form, so
    the bundle loads (running that spec is what fails, by name)."""
    spec = RunSpec(
        experiment=experiment,
        preset="streamed",
        params={
            "engine": "gs",
            "encoding": "onehot",
            "sparse": True,
            "streaming": True,
            "chunk_size": 64,
            "epochs": 10,
        },
    )
    save_model(_random_rbm(), tmp_path / "model", run_spec=spec)
    assert load_model(tmp_path / "model").run_spec == spec
