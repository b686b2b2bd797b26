"""Model registry: save fitted detectors, load them back bit-identical.

``repro.registry.ModelRegistry`` is the deployment contract for the
CLI's warm-start path (``train`` → ``serve --model-id``): these tests
pin content-addressed ids, idempotent re-save, id/prefix/tag lookup,
mmap-backed loads, corruption detection, and — the whole point —
byte-equal decision scores across every (classifier, ensemble) grid
cell, with zero refit.
"""

from __future__ import annotations

import json
import multiprocessing

import numpy as np
import pytest

from repro.core.config import CLASSIFIER_NAMES, DetectorConfig
from repro.core.detector import HMDDetector
from repro.registry import ModelRegistry, RegistryError, model_id

FAST_ENOUGH = [c for c in CLASSIFIER_NAMES if c != "MLP"]


@pytest.fixture(scope="module")
def fitted(small_split):
    """One cheap fitted detector shared by the mechanics tests."""
    config = DetectorConfig("REPTree", "boosted", 2, n_estimators=3)
    return HMDDetector(config).fit(small_split.train)


@pytest.mark.parametrize("classifier", FAST_ENOUGH)
@pytest.mark.parametrize("ensemble", ["general", "boosted", "bagging"])
def test_every_grid_cell_round_trips_bit_identical(
    classifier, ensemble, small_split, tmp_path
):
    config = DetectorConfig(classifier, ensemble, 2, n_estimators=3)
    detector = HMDDetector(config).fit(small_split.train)
    registry = ModelRegistry(tmp_path / "reg")
    entry = registry.save_detector(detector)
    loaded = registry.load_detector(entry.model_id)
    assert loaded.fitted_ and loaded.config == config
    assert loaded.monitored_events == detector.monitored_events
    want = detector.decision_scores(small_split.test)
    got = loaded.decision_scores(small_split.test)
    assert want.tobytes() == got.tobytes()


def test_mlp_round_trips_bit_identical(small_split, tmp_path):
    config = DetectorConfig("MLP", "general", 2)
    detector = HMDDetector(config).fit(small_split.train)
    registry = ModelRegistry(tmp_path)
    entry = registry.save_detector(detector)
    loaded = registry.load_detector(entry.model_id)
    want = detector.decision_scores(small_split.test)
    assert want.tobytes() == loaded.decision_scores(small_split.test).tobytes()


def test_loaded_arrays_are_memory_mapped(fitted, tmp_path):
    registry = ModelRegistry(tmp_path)
    entry = registry.save_detector(fitted)
    loaded = registry.load_detector(entry.model_id, mmap=True)
    flats = [est._flat for est in loaded.model.estimators_]
    assert flats and all(
        isinstance(f.threshold, np.memmap) for f in flats
    )
    # read-only by construction: a stray write must fail loudly, not
    # corrupt the shared on-disk payload
    with pytest.raises((ValueError, OSError)):
        flats[0].threshold[0] = 0.0
    plain = registry.load_detector(entry.model_id, mmap=False)
    assert not isinstance(plain.model.estimators_[0]._flat.threshold, np.memmap)


def test_resave_is_a_manifest_noop_with_tag_union(fitted, tmp_path):
    registry = ModelRegistry(tmp_path)
    first = registry.save_detector(fitted, tags=["prod"])
    payload = registry.root / "models" / first.model_id / "arrays.npz"
    before = payload.stat().st_mtime_ns
    again = registry.save_detector(fitted, tags=["canary"])
    assert again.model_id == first.model_id
    assert len(registry) == 1
    assert set(registry.resolve(first.model_id).tags) == {"canary", "prod"}
    # idempotent: the payload was not rewritten
    assert payload.stat().st_mtime_ns == before


def test_resolve_by_prefix_and_tag(fitted, small_split, tmp_path):
    registry = ModelRegistry(tmp_path)
    entry = registry.save_detector(fitted, tags=["prod", "all"])
    other = HMDDetector(
        DetectorConfig("OneR", "general", 2)
    ).fit(small_split.train)
    registry.save_detector(other, tags=["baseline", "all"])
    assert registry.resolve(entry.model_id[:10]).model_id == entry.model_id
    assert registry.resolve("prod").model_id == entry.model_id
    with pytest.raises(RegistryError, match="no model matches"):
        registry.resolve("nope")
    with pytest.raises(RegistryError, match="no model matches"):
        registry.resolve("")
    with pytest.raises(RegistryError, match="ambiguous"):
        registry.resolve("all")


def test_corrupt_payload_raises_not_refits(fitted, tmp_path):
    registry = ModelRegistry(tmp_path)
    entry = registry.save_detector(fitted)
    payload = registry.root / "models" / entry.model_id / "arrays.npz"
    payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])
    with pytest.raises(RegistryError):
        registry.load_detector(entry.model_id)


def test_verify_detects_bit_flip(fitted, tmp_path):
    registry = ModelRegistry(tmp_path)
    entry = registry.save_detector(fitted)
    spec_path = registry.root / "models" / entry.model_id / "spec.json"
    spec = json.loads(spec_path.read_text())
    spec["ranking"]["scores"][0] += 1.0
    spec_path.write_text(json.dumps(spec))
    with pytest.raises(RegistryError, match="content mismatch"):
        registry.load_detector(entry.model_id, verify=True)


def test_unfitted_detector_refuses_to_save(tmp_path):
    registry = ModelRegistry(tmp_path)
    with pytest.raises(RegistryError, match="unfitted"):
        registry.save_detector(HMDDetector(DetectorConfig("OneR")))


def test_model_id_is_content_addressed():
    spec = {"kind": "X", "params": {"a": 1}}
    arrays = {"w": np.arange(4, dtype=float)}
    base = model_id(spec, arrays)
    assert base == model_id({"params": {"a": 1}, "kind": "X"}, dict(arrays))
    assert base != model_id(spec, {"w": np.arange(4, dtype=float) + 1})
    assert base != model_id({"kind": "X", "params": {"a": 2}}, arrays)
    # dtype and shape are part of the identity, not just the bytes
    assert base != model_id(spec, {"w": np.arange(4, dtype=float).reshape(2, 2)})


#: Ids captured before the registry's JSON moved from the ``to_jsonable``
#: walk to ``ioutil.dumps_json``.  Registries already on disk are
#: addressed by these ids, so the canonical spec bytes must not move.
PINNED_MODEL_IDS = {
    ("REPTree", "boosted"): "e57e2bac2e6af725301078ef43d38dfdc1b7b7e17d4397669fa40b965f06b59b",
    ("SMO", "general"): "e567f5197b154387c53ed9f8ac1569f5efb23baf13298e44dd4f3c8efc62a56c",
}


@pytest.mark.parametrize("cell", sorted(PINNED_MODEL_IDS), ids="-".join)
def test_model_id_of_a_fixed_fit_is_pinned(cell, small_split, tmp_path):
    classifier, ensemble = cell
    config = DetectorConfig(classifier, ensemble, 2, n_estimators=3)
    detector = HMDDetector(config).fit(small_split.train)
    entry = ModelRegistry(tmp_path).save_detector(detector)
    assert entry.model_id == PINNED_MODEL_IDS[cell]


def test_model_id_of_a_numpy_spec_is_pinned():
    """numpy leaves hash as the native values they stand for."""
    spec = {
        "kind": "X",
        "params": {
            "a": np.float64(0.1), "b": np.int64(3), "c": np.bool_(True),
            "d": np.float32(0.5), "e": np.arange(3), "f": (1.5, float("nan")),
        },
    }
    assert model_id(spec, {"w": np.arange(4, dtype=float)}) == (
        "36c53fa43cc45925d257b6f8f8d8cd067655c9bc4551b73c200561607ebb93a6"
    )


def test_save_and_load_bare_classifier(blobs, tmp_path):
    from repro.ml import JRip

    features, labels = blobs
    model = JRip().fit(features, labels)
    registry = ModelRegistry(tmp_path)
    entry = registry.save_classifier(model, tags=["rules"])
    loaded = registry.load_classifier("rules")
    assert (
        model.predict_proba(features).tobytes()
        == loaded.predict_proba(features).tobytes()
    )
    with pytest.raises(RegistryError, match="bare classifier"):
        registry.load_detector(entry.model_id)


def test_malformed_manifest_raises(tmp_path):
    registry = ModelRegistry(tmp_path)
    registry.manifest_path.parent.mkdir(parents=True, exist_ok=True)
    registry.manifest_path.write_text("{not json")
    with pytest.raises(RegistryError):
        registry.entries()


def _save_all(root, models, barrier):
    registry = ModelRegistry(root)
    barrier.wait()
    for model in models:
        registry.save_classifier(model)  # resolves the id it just saved


def test_concurrent_writers_keep_every_model(tmp_path):
    """Two processes saving 25 models each into one registry: every
    payload ends up in the manifest and every save resolves its own id
    (the manifest read-modify-write used to run unlocked, losing ~40%
    of the entries)."""
    from repro.ml import OneR

    rng = np.random.default_rng(5)
    models = []
    for _ in range(50):
        features = rng.normal(size=(40, 2))
        labels = (features[:, 0] + rng.normal(size=40) > 0).astype(np.intp)
        models.append(OneR().fit(features, labels))
    root = tmp_path / "registry"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    writers = [
        ctx.Process(target=_save_all, args=(root, models[k::2], barrier))
        for k in range(2)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(60)
    assert [w.exitcode for w in writers] == [0, 0]
    registry = ModelRegistry(root)
    payloads = list((root / "models").iterdir())
    assert len(payloads) == 50
    assert len(registry) == 50
    assert {e.model_id for e in registry.entries()} == {p.name for p in payloads}
