"""Versioned model registry with mmap-able compiled inference artifacts.

The paper's detectors are trained once and deployed for run-time
monitoring, but a fitted model historically lived only in the process
that trained it — every ``serve``/``fleet`` run refit from scratch.  This
module persists the *compiled inference state* of every learner — the
:class:`~repro.ml.tree.FlatTree` parallel arrays, the
:class:`~repro.ml.jrip.CompiledRuleList` stacked condition arrays, the
stacked ensemble member arrays — as one ``.npz`` payload plus a JSON
spec, so a served detector loads as flat numpy arrays with zero refit or
re-flatten.  Because ``np.savez`` stores members uncompressed
(``ZIP_STORED``), each array can be memory-mapped straight out of the
zip container: worker processes serving the same model share one set of
read-only pages, and predictions from the mapped arrays are byte-equal
to the freshly fitted model's (the bytes on disk *are* the fitted
float64 state).

Models are content-addressed: the SHA-256 of the canonical spec JSON
plus every array's dtype/shape/raw bytes is the model id, so re-saving
an identical model is a manifest no-op and two different models can
never collide on a name.  All writes go through
:mod:`repro.ioutil`'s atomic writer, mirroring
:mod:`repro.analysis.cache`'s crash-safety discipline.
"""

from __future__ import annotations

import io
import json
import time
import zipfile
from dataclasses import asdict, dataclass
from hashlib import sha256
from pathlib import Path

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.features.correlation import FeatureRanking
from repro.ioutil import (
    atomic_write_bytes,
    atomic_write_text,
    dumps_json,
    update_manifest,
)
from repro.ml.base import (
    ArtifactError,
    Classifier,
    classifier_from_artifact,
    export_classifier,
)

#: Format marker embedded in every spec; bump on incompatible layout changes.
PAYLOAD_FORMAT = "repro-model-v1"

MANIFEST_NAME = "manifest.json"


class RegistryError(RuntimeError):
    """A registry payload is missing, corrupt, or ambiguous."""


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------
def model_id(spec: dict, arrays: dict) -> str:
    """SHA-256 content address of one ``(spec, arrays)`` payload.

    Hashes the canonical spec JSON plus each array's key, dtype, shape,
    and raw bytes in sorted key order — byte-identical payloads get the
    same id regardless of dict ordering or container timestamps.
    """
    digest = sha256(PAYLOAD_FORMAT.encode())
    digest.update(dumps_json(spec, sort_keys=True).encode())
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(b"\x1f")
        digest.update(arr.dtype.str.encode())
        digest.update(b"\x1f")
        digest.update(repr(arr.shape).encode())
        digest.update(b"\x1e")
        digest.update(arr.tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# mmap-aware npz loading
# ----------------------------------------------------------------------
def _mmap_npz_member(path: Path, info: zipfile.ZipInfo) -> np.ndarray | None:
    """Memory-map one ``ZIP_STORED`` ``.npy`` member of an npz container.

    ``np.load(..., mmap_mode="r")`` silently ignores the mmap request for
    npz files, so we map the member ourselves: parse the zip local file
    header to find where the stored ``.npy`` bytes start, read the npy
    header, and map the raw data that follows.  Returns None when the
    member uses an npy format version we don't parse (caller falls back
    to a plain read).
    """
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local = handle.read(30)
        if len(local) < 30 or local[:4] != b"PK\x03\x04":
            raise RegistryError(f"corrupt zip member header in {path.name}")
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        handle.seek(info.header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            return None
        if dtype.hasobject:
            raise RegistryError(f"object arrays are not loadable: {info.filename}")
        if int(np.prod(shape, dtype=np.int64)) == 0:
            return np.empty(shape, dtype=dtype)
        return np.memmap(
            path,
            dtype=dtype,
            mode="r",
            offset=handle.tell(),
            shape=shape,
            order="F" if fortran else "C",
        )


def load_npz_arrays(path: str | Path, mmap: bool = True) -> dict[str, np.ndarray]:
    """Load every array of an ``.npz`` payload, memory-mapped when possible.

    With ``mmap=True`` each uncompressed member becomes a read-only
    :class:`numpy.memmap` view of the container file — no bytes are
    copied until touched, and concurrent loaders share the page cache.
    Compressed or exotic members fall back to a plain in-memory read.

    Raises:
        RegistryError: the container is missing, truncated, or corrupt.
    """
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as container:
            for info in container.infolist():
                name = info.filename
                key = name[:-4] if name.endswith(".npy") else name
                if mmap and info.compress_type == zipfile.ZIP_STORED:
                    mapped = _mmap_npz_member(path, info)
                    if mapped is not None:
                        arrays[key] = mapped
                        continue
                with container.open(info) as member:
                    arrays[key] = np.lib.format.read_array(
                        member, allow_pickle=False
                    )
    except RegistryError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        raise RegistryError(f"corrupt model payload {path.name}: {exc}") from exc
    return arrays


def _savez_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    """Uncompressed npz bytes of an array dict (C-contiguous members)."""
    buffer = io.BytesIO()
    np.savez(buffer, **{k: np.ascontiguousarray(v) for k, v in arrays.items()})
    return buffer.getvalue()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelEntry:
    """One manifest row: identity and lookup metadata of a saved model."""

    model_id: str
    payload: str  # "detector" or "classifier"
    kind: str  # classifier class name
    name: str  # human-readable label (detector config name or kind)
    tags: tuple[str, ...]
    saved_unix: float

    @property
    def short_id(self) -> str:
        return self.model_id[:12]


class ModelRegistry:
    """Content-addressed store of fitted detectors and classifiers.

    Layout::

        root/
          manifest.json                  # id -> {payload, kind, name, tags}
          manifest.json.lock             # held by writers while they save
          models/<id>/spec.json          # JSON spec (params, config, ranking)
          models/<id>/arrays.npz         # compiled inference arrays

    Every write is atomic (tempfile + ``os.replace``) and every save runs
    under the manifest lock (:func:`~repro.ioutil.update_manifest`), so
    concurrent writers never lose each other's entries; re-saving an
    identical model only touches the manifest, and only when its tag set
    actually grows.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise RegistryError(f"registry root {self.root} is not a directory")

    # -- manifest ------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _read_manifest(self) -> dict:
        try:
            text = self.manifest_path.read_text()
        except FileNotFoundError:
            return {"version": 1, "models": {}}
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RegistryError(f"corrupt manifest {self.manifest_path}: {exc}") from exc
        if not isinstance(manifest.get("models"), dict):
            raise RegistryError(f"malformed manifest {self.manifest_path}")
        return manifest

    def entries(self) -> list[ModelEntry]:
        """All saved models, newest first."""
        manifest = self._read_manifest()
        rows = [
            ModelEntry(
                model_id=mid,
                payload=meta.get("payload", "detector"),
                kind=meta.get("kind", ""),
                name=meta.get("name", ""),
                tags=tuple(meta.get("tags", ())),
                saved_unix=float(meta.get("saved_unix", 0.0)),
            )
            for mid, meta in manifest["models"].items()
        ]
        rows.sort(key=lambda e: e.saved_unix, reverse=True)
        return rows

    def __len__(self) -> int:
        return len(self._read_manifest()["models"])

    def resolve(self, ref: str) -> ModelEntry:
        """The unique entry matching an id, id prefix, or tag.

        Raises:
            RegistryError: no match, or the reference is ambiguous.
        """
        entries = self.entries()
        exact = [e for e in entries if e.model_id == ref]
        if exact:
            return exact[0]
        prefixed = [e for e in entries if e.model_id.startswith(ref)] if ref else []
        if not prefixed:
            prefixed = [e for e in entries if ref in e.tags]
        if not prefixed:
            raise RegistryError(f"no model matches {ref!r} in {self.root}")
        if len(prefixed) > 1:
            ids = ", ".join(e.short_id for e in prefixed)
            raise RegistryError(f"ambiguous model reference {ref!r}: {ids}")
        return prefixed[0]

    # -- save ----------------------------------------------------------
    def _model_dir(self, mid: str) -> Path:
        return self.root / "models" / mid

    def _save_payload(
        self, spec: dict, arrays: dict, *, payload: str, name: str, tags: tuple[str, ...]
    ) -> ModelEntry:
        mid = model_id(spec, arrays)

        def update(manifest: dict) -> bool:
            existing = manifest["models"].get(mid)
            if existing is not None:
                merged = sorted(set(existing.get("tags", ())) | set(tags))
                changed = merged != sorted(existing.get("tags", ()))
                existing["tags"] = merged
                return changed
            target = self._model_dir(mid)
            atomic_write_bytes(target / "arrays.npz", _savez_bytes(arrays))
            atomic_write_text(target / "spec.json", dumps_json(spec))
            manifest["models"][mid] = {
                "payload": payload,
                "kind": spec.get("model", {}).get("kind", ""),
                "name": name,
                "tags": sorted(set(tags)),
                "saved_unix": time.time(),
            }
            return True

        update_manifest(self.manifest_path, self._read_manifest, update)
        return self.resolve(mid)

    def save_detector(
        self, detector: HMDDetector, tags: tuple[str, ...] | list[str] = ()
    ) -> ModelEntry:
        """Persist a fitted detector (classifier + ranking + config)."""
        if not detector.fitted_ or detector.reducer.ranking_ is None:
            raise RegistryError("cannot save an unfitted detector")
        model_spec, arrays = export_classifier(detector.model)
        ranking = detector.reducer.ranking_
        spec = {
            "format": PAYLOAD_FORMAT,
            "payload": "detector",
            "config": asdict(detector.config),
            "ranking": {
                "names": list(ranking.names),
                "scores": [float(s) for s in ranking.scores],
                "method": ranking.method,
            },
            "model": model_spec,
        }
        return self._save_payload(
            spec, arrays, payload="detector", name=detector.config.name, tags=tuple(tags)
        )

    def save_classifier(
        self, model: Classifier, tags: tuple[str, ...] | list[str] = ()
    ) -> ModelEntry:
        """Persist a bare fitted classifier (no detector pipeline)."""
        model_spec, arrays = export_classifier(model)
        spec = {
            "format": PAYLOAD_FORMAT,
            "payload": "classifier",
            "model": model_spec,
        }
        return self._save_payload(
            spec, arrays, payload="classifier", name=model_spec["kind"], tags=tuple(tags)
        )

    # -- load ----------------------------------------------------------
    def _load_payload(
        self, ref: str, mmap: bool, verify: bool
    ) -> tuple[ModelEntry, dict, dict]:
        entry = self.resolve(ref)
        target = self._model_dir(entry.model_id)
        try:
            spec = json.loads((target / "spec.json").read_text())
        except FileNotFoundError as exc:
            raise RegistryError(f"missing spec for model {entry.short_id}") from exc
        except json.JSONDecodeError as exc:
            raise RegistryError(f"corrupt spec for model {entry.short_id}: {exc}") from exc
        if spec.get("format") != PAYLOAD_FORMAT:
            raise RegistryError(
                f"unsupported payload format {spec.get('format')!r} "
                f"for model {entry.short_id}"
            )
        arrays = load_npz_arrays(target / "arrays.npz", mmap=mmap and not verify)
        if verify and model_id(spec, arrays) != entry.model_id:
            raise RegistryError(
                f"content mismatch for model {entry.short_id}: "
                "payload bytes do not hash to the manifest id"
            )
        return entry, spec, arrays

    def load_classifier(
        self, ref: str, mmap: bool = True, verify: bool = False
    ) -> Classifier:
        """Rebuild the fitted classifier behind an id/prefix/tag reference.

        With ``mmap=True`` (default) the model's arrays stay memory-mapped
        read-only views of the on-disk payload.  ``verify=True`` re-hashes
        the payload against its content id first (forces a full read).
        """
        _, spec, arrays = self._load_payload(ref, mmap, verify)
        try:
            return classifier_from_artifact(spec["model"], arrays)
        except (ArtifactError, KeyError) as exc:
            raise RegistryError(f"cannot rebuild model {ref!r}: {exc}") from exc

    def load_detector(
        self, ref: str, mmap: bool = True, verify: bool = False
    ) -> HMDDetector:
        """Rebuild a full fitted detector with zero refit or re-flatten."""
        entry, spec, arrays = self._load_payload(ref, mmap, verify)
        if spec.get("payload") != "detector":
            raise RegistryError(
                f"model {entry.short_id} is a bare classifier; "
                "use load_classifier()"
            )
        try:
            config = DetectorConfig(**spec["config"])
            detector = HMDDetector(config)
            detector.model = classifier_from_artifact(spec["model"], arrays)
            ranking = spec["ranking"]
            detector.reducer.ranking_ = FeatureRanking(
                names=tuple(ranking["names"]),
                scores=tuple(float(s) for s in ranking["scores"]),
                method=ranking["method"],
            )
        except (ArtifactError, KeyError, TypeError, ValueError) as exc:
            raise RegistryError(
                f"cannot rebuild detector {entry.short_id}: {exc}"
            ) from exc
        detector.fitted_ = True
        return detector
