"""Versioned model artifacts: persist trained estimators for serving.

An artifact is a sidecar bundle ``<stem>.npz`` + ``<stem>.json``:

* the ``.npz`` holds the parameter arrays exactly as trained (``weights``,
  ``visible_bias``, ``hidden_bias``, optionally the persistent-chain
  ``chain_state``) — dtypes are preserved bit-for-bit, so float32-tier and
  float64 models round-trip losslessly.  With ``save_model(...,
  quantize=True)`` the parameters are instead stored as symmetric int8
  codes plus float32 scales (``<name>_q`` / ``<name>_scale``, per-column
  scales for the weight matrix, per-tensor for the biases), roughly 4x
  smaller; codes and scales round-trip losslessly and :func:`load_model`
  dequantizes them back into float32 parameters;
* the JSON holds everything needed to rebuild the estimator without the
  training data: the format version, the estimator ``kind`` and its scalar
  state, an array manifest (shape/dtype per array), a SHA-256 checksum of
  the ``.npz`` payload, and the resolved
  :class:`~repro.config.specs.RunSpec` the model was trained under (the
  PR-5 lossless ``to_dict`` round trip extended to trained weights).

Every failure mode — missing file, truncated/garbled payload, checksum
mismatch, unknown format or version, manifest drift — raises
:class:`~repro.utils.validation.ValidationError` with the offending path
in the message.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

import numpy as np

from repro.analog.converters import dequantize_symmetric, quantize_symmetric
from repro.config.specs import RunSpec
from repro.eval.anomaly import RBMAnomalyDetector
from repro.eval.recommender import RBMRecommender
from repro.rbm.rbm import BernoulliRBM
from repro.utils.validation import ValidationError, check_bool

ARTIFACT_FORMAT = "repro-rbm-artifact"
ARTIFACT_VERSION = 1

_PARAM_ARRAYS = ("weights", "visible_bias", "hidden_bias")


def _stem(path: Union[str, Path]) -> Path:
    """Canonical bundle stem: ``model``, ``model.npz`` and ``model.json``
    all address the same artifact."""
    path = Path(path)
    if path.suffix in (".npz", ".json"):
        return path.with_suffix("")
    return path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _estimator_state(model) -> tuple:
    """Dispatch a model object to (kind, scalar-state dict, fitted rbm)."""
    if isinstance(model, BernoulliRBM):
        return "rbm", {"n_visible": model.n_visible, "n_hidden": model.n_hidden}, model
    if isinstance(model, RBMRecommender):
        if model.rbm is None:
            raise ValidationError("cannot save an unfitted RBMRecommender")
        state = {
            "n_hidden": model.n_hidden,
            "epochs": model.epochs,
            "encoding": model.encoding,
            "sparse": model.sparse,
            "rating_levels": model._rating_levels,
            "global_mean": model._global_mean,
            "n_users": model._n_users,
        }
        return "recommender", state, model.rbm
    if isinstance(model, RBMAnomalyDetector):
        if model.rbm is None:
            raise ValidationError("cannot save an unfitted RBMAnomalyDetector")
        state = {
            "n_hidden": model.n_hidden,
            "epochs": model.epochs,
            "score_method": model.score_method,
            "encoding": model.encoding,
            "n_bins": model.n_bins,
            "sparse": model.sparse,
            "train_mean_score": model._train_mean_score,
            "n_features_raw": model._n_features_raw,
        }
        return "anomaly", state, model.rbm
    raise ValidationError(
        f"cannot save a {type(model).__name__}: supported models are"
        " BernoulliRBM, RBMRecommender and RBMAnomalyDetector"
    )


def save_model(
    model,
    path: Union[str, Path],
    *,
    run_spec: Optional[Union[RunSpec, Mapping[str, Any]]] = None,
    chain_state: Optional[np.ndarray] = None,
    quantize: bool = False,
) -> Path:
    """Persist a fitted model as a versioned ``.npz`` + JSON bundle.

    Parameters
    ----------
    model:
        A :class:`BernoulliRBM`, fitted :class:`RBMRecommender` or fitted
        :class:`RBMAnomalyDetector`.
    path:
        Bundle stem (``.npz``/``.json`` suffixes are normalized away);
        ``<stem>.npz`` and ``<stem>.json`` are written next to each other.
    run_spec:
        Optional :class:`RunSpec` (or its ``to_dict()`` form) recording
        the configuration the model was trained under; validated through
        the lossless ``RunSpec.from_dict`` round trip before storing.
    chain_state:
        Optional persistent-chain array to carry alongside the weights —
        ``GibbsSamplerTrainer.chain_states`` or ``PCDTrainer.particles``
        — so a PCD run can be resumed from the artifact.
    quantize:
        Store the parameter arrays as symmetric int8 codes + float32
        scales (``weights_q``/``weights_scale`` etc.) instead of the raw
        floats — per-column scales for the weight matrix and per-tensor
        for the biases.  The bundle
        is ~4x smaller; :func:`load_model` dequantizes back to float32
        parameters.  ``chain_state`` is never quantized (it holds binary
        unit states, not couplings).

    Returns the ``.npz`` path.
    """
    kind, state, rbm = _estimator_state(model)
    if run_spec is not None:
        if not isinstance(run_spec, RunSpec):
            run_spec = RunSpec.from_dict(run_spec)
        run_spec_dict = run_spec.to_dict()
    else:
        run_spec_dict = None

    arrays: Dict[str, np.ndarray] = {
        "weights": rbm.weights,
        "visible_bias": rbm.visible_bias,
        "hidden_bias": rbm.hidden_bias,
    }
    if quantize:
        quantized: Dict[str, np.ndarray] = {}
        for name, arr in arrays.items():
            axis = 0 if np.ndim(arr) == 2 else None
            codes, scales = quantize_symmetric(arr, axis=axis)
            quantized[name + "_q"] = codes
            quantized[name + "_scale"] = scales
        arrays = quantized
    if chain_state is not None:
        chain_state = np.asarray(chain_state)
        if chain_state.ndim != 2:
            raise ValidationError(
                f"chain_state must be 2-D (chains, units), got ndim={chain_state.ndim}"
            )
        arrays["chain_state"] = chain_state

    stem = _stem(path)
    stem.parent.mkdir(parents=True, exist_ok=True)
    npz_path = stem.with_suffix(".npz")
    json_path = stem.with_suffix(".json")
    np.savez(npz_path, **arrays)

    meta = {
        "format": ARTIFACT_FORMAT,
        "format_version": ARTIFACT_VERSION,
        "kind": kind,
        "quantized": bool(quantize),
        "state": state,
        "arrays": {
            name: {"shape": list(arr.shape), "dtype": str(arr.dtype)}
            for name, arr in arrays.items()
        },
        "npz_sha256": _sha256(npz_path),
        "run_spec": run_spec_dict,
    }
    json_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return npz_path


def _rebuild_rbm(arrays: Mapping[str, np.ndarray],
                 n_visible: int, n_hidden: int) -> BernoulliRBM:
    rbm = BernoulliRBM(n_visible=n_visible, n_hidden=n_hidden, rng=0)
    # Direct assignment (not set_parameters) so the stored dtype tier
    # survives: check_array would silently upcast float32 weights.
    rbm.weights = arrays["weights"]
    rbm.visible_bias = arrays["visible_bias"]
    rbm.hidden_bias = arrays["hidden_bias"]
    return rbm


@dataclass
class ModelArtifact:
    """A loaded artifact: the rebuilt estimator plus its provenance.

    ``scorer()`` returns the frozen scoring callable for the estimator
    kind — raw feature rows in, per-row scores out — which is what the
    micro-batching service wraps.
    """

    kind: str
    model: Any
    rbm: BernoulliRBM
    run_spec: Optional[RunSpec]
    chain_state: Optional[np.ndarray]
    path: Path
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_features(self) -> int:
        """Width of the raw rows the scorer accepts."""
        if self.kind == "recommender":
            return int(self.model._n_users)
        if self.kind == "anomaly":
            return int(self.model._n_features_raw or self.rbm.n_visible)
        return int(self.rbm.n_visible)

    def scorer(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.kind == "recommender":
            return self.model.predict_ratings
        if self.kind == "anomaly":
            return self.model.anomaly_scores
        return self.rbm.score_samples

    def example_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Valid random scoring inputs for this artifact's kind (test/bench
        traffic: ratings for the recommender, [0, 1] features otherwise)."""
        if self.kind == "recommender":
            levels = self.model._rating_levels
            return rng.integers(0, levels + 1, size=(n, self.n_features)).astype(float)
        if self.kind == "anomaly":
            return rng.random((n, self.n_features))
        return (rng.random((n, self.n_features)) < 0.5).astype(float)


def _corrupted(path: Path, why: str) -> ValidationError:
    return ValidationError(f"corrupted artifact {path}: {why}")


def load_model(path: Union[str, Path]) -> ModelArtifact:
    """Load a bundle written by :func:`save_model` and rebuild the estimator.

    Accepts the stem, the ``.npz`` path or the ``.json`` path.  Raises
    :class:`ValidationError` on missing files, payload corruption
    (checksum or manifest mismatch, truncated/garbled data) and
    format/version mismatches.
    """
    stem = _stem(path)
    npz_path = stem.with_suffix(".npz")
    json_path = stem.with_suffix(".json")
    for required in (json_path, npz_path):
        if not required.is_file():
            raise ValidationError(
                f"artifact file not found: {required} (an artifact is the"
                f" sidecar pair {stem}.npz + {stem}.json)"
            )

    try:
        meta = json.loads(json_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _corrupted(json_path, f"metadata is not valid JSON ({exc})") from exc
    if not isinstance(meta, dict) or meta.get("format") != ARTIFACT_FORMAT:
        raise ValidationError(
            f"{json_path} is not a {ARTIFACT_FORMAT!r} bundle"
            f" (format={meta.get('format') if isinstance(meta, dict) else meta!r})"
        )
    version = meta.get("format_version")
    if version != ARTIFACT_VERSION:
        raise ValidationError(
            f"artifact {json_path} has format_version {version!r}; this build"
            f" reads version {ARTIFACT_VERSION} — re-save the model with"
            " save_model"
        )
    kind = meta.get("kind")

    digest = _sha256(npz_path)
    if digest != meta.get("npz_sha256"):
        raise _corrupted(
            npz_path,
            f"sha256 {digest} does not match the manifest"
            f" ({meta.get('npz_sha256')}); the payload was modified or"
            " truncated after save",
        )
    try:
        with np.load(npz_path) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except Exception as exc:  # zipfile/pickle errors are not one exception type
        raise _corrupted(npz_path, f"payload failed to load ({exc})") from exc

    manifest = meta.get("arrays")
    if not isinstance(manifest, dict):
        raise _corrupted(json_path, "metadata has no array manifest")
    for name, info in manifest.items():
        if not isinstance(info, dict):
            raise _corrupted(
                json_path, f"manifest entry for array {name!r} is not a mapping"
            )
        if name not in arrays:
            raise _corrupted(npz_path, f"array {name!r} listed in the manifest is missing")
        arr = arrays[name]
        if list(arr.shape) != list(info.get("shape", [])) or str(arr.dtype) != info.get("dtype"):
            raise _corrupted(
                npz_path,
                f"array {name!r} is {arr.shape}/{arr.dtype}; manifest says"
                f" {tuple(info.get('shape', ()))}/{info.get('dtype')}",
            )
    if meta.get("quantized"):
        # Quantized bundle: rebuild the float32 parameters from the int8
        # codes + float32 scales before the required-array check, so the
        # rest of the loader sees an ordinary parameter set.  (Builds that
        # predate quantized artifacts fail this bundle loudly: their
        # required-array check reports 'weights' missing.)
        dequantized: Dict[str, np.ndarray] = {}
        for name in _PARAM_ARRAYS:
            codes_name, scale_name = name + "_q", name + "_scale"
            for required_name in (codes_name, scale_name):
                if required_name not in arrays:
                    raise _corrupted(
                        npz_path,
                        f"quantized bundle is missing array {required_name!r}",
                    )
            dequantized[name] = dequantize_symmetric(
                arrays[codes_name], arrays[scale_name]
            )
        arrays = {**arrays, **dequantized}
    for name in _PARAM_ARRAYS:
        if name not in arrays:
            raise _corrupted(npz_path, f"required array {name!r} is missing")

    state = meta.get("state") or {}
    if not isinstance(state, dict):
        raise _corrupted(json_path, "estimator state is not a mapping")
    run_spec = None
    if meta.get("run_spec") is not None:
        run_spec = RunSpec.from_dict(meta["run_spec"])

    weights = arrays["weights"]
    n_visible, n_hidden = (int(weights.shape[0]), int(weights.shape[1])) if weights.ndim == 2 else (0, 0)
    if weights.ndim != 2:
        raise _corrupted(npz_path, f"weights must be 2-D, got ndim={weights.ndim}")
    rbm = _rebuild_rbm(arrays, n_visible, n_hidden)

    def state_field(
        name: str, convert: Callable[[Any], Any] = lambda value: value
    ) -> Any:
        if name not in state:
            raise _corrupted(json_path, f"estimator state is missing field {name!r}")
        try:
            return convert(state[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise _corrupted(
                json_path,
                f"estimator state field {name!r} is not a valid"
                f" {convert.__name__.removeprefix('check_')}: {state[name]!r}",
            ) from exc

    if kind == "rbm":
        model: Any = rbm
    elif kind == "recommender":
        model = RBMRecommender(
            n_hidden=state_field("n_hidden", int),
            epochs=state_field("epochs", int),
            encoding=state_field("encoding"),
            sparse=state_field("sparse", check_bool),
            rng=0,
        )
        model.rbm = rbm
        model._rating_levels = state_field("rating_levels", int)
        model._global_mean = state_field("global_mean", float)
        model._n_users = state_field("n_users", int)
    elif kind == "anomaly":
        model = RBMAnomalyDetector(
            n_hidden=state_field("n_hidden", int),
            epochs=state_field("epochs", int),
            score_method=state_field("score_method"),
            encoding=state_field("encoding"),
            n_bins=state_field("n_bins", int),
            sparse=state_field("sparse", check_bool),
            rng=0,
        )
        model.rbm = rbm
        model._train_mean_score = state_field("train_mean_score", float)
        model._n_features_raw = state_field("n_features_raw", int)
    else:
        raise ValidationError(
            f"artifact {json_path} has unknown kind {kind!r}"
            " (expected 'rbm', 'recommender' or 'anomaly')"
        )

    return ModelArtifact(
        kind=kind,
        model=model,
        rbm=rbm,
        run_spec=run_spec,
        chain_state=arrays.get("chain_state"),
        path=npz_path,
        meta=meta,
    )
