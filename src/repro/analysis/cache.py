"""Content-addressed, crash-safe on-disk cache for evaluation records.

The full evaluation grid trains 96 detectors; a production evaluation
must survive being killed halfway through.  :class:`ResultCache` stores
one JSON file per grid cell, addressed by a SHA-256 key over everything
the result depends on — corpus fingerprint, split protocol, detector
config, and record kind — so a resumed run recomputes only the missing
cells and a changed corpus or ranking method can never alias a stale
result.  All writes go through :func:`repro.ioutil.atomic_write_text`
(``tempfile`` + ``os.replace``), so a crash mid-write leaves either the
old file or the new one, never a truncated hybrid.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.records import record_from_payload, record_to_payload
from repro.core.config import DetectorConfig

from repro.ioutil import atomic_write_text, dumps_json
from repro.obs import NULL_REGISTRY, Registry
from repro.workloads.dataset import Dataset


class CacheError(RuntimeError):
    """A record cache file is corrupt, truncated, or schema-mismatched."""


def dataset_fingerprint(dataset: Dataset) -> str:
    """SHA-256 content fingerprint of a corpus (features, labels, provenance)."""
    digest = hashlib.sha256(b"repro-corpus-v1")
    digest.update(np.ascontiguousarray(dataset.features, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(dataset.labels, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(dataset.app_ids, dtype=np.int64).tobytes())
    for names in (dataset.feature_names, dataset.app_names, dataset.app_families):
        digest.update("\x1f".join(names).encode())
        digest.update(b"\x1e")
    return digest.hexdigest()


def record_cache_key(
    *,
    corpus: str,
    train_fraction: float,
    seeds: tuple[int, ...],
    config: DetectorConfig,
    kind: str,
    extra: dict | None = None,
) -> str:
    """Content address of one grid cell.

    Args:
        corpus: :func:`dataset_fingerprint` of the evaluation corpus.
        train_fraction: application-level split ratio.
        seeds: split seeds the runner averages over.
        config: the detector variant (includes classifier, ensemble,
            HPC budget, ensemble size, ranking method, and model seed).
        kind: ``"eval"``, ``"hardware"`` or ``"roc"``.
        extra: kind-specific parameters (e.g. ROC ``max_points``).
    """
    payload = {
        "corpus": corpus,
        "train_fraction": train_fraction,
        "seeds": list(seeds),
        "config": asdict(config),
        "kind": kind,
        "extra": extra or {},
    }
    blob = dumps_json(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def __str__(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes, {self.corrupt} corrupt"
        )


@dataclass
class ResultCache:
    """Per-record JSON cache under one root directory.

    Layout: ``root/<key[:2]>/<key>.json`` (two-level fan-out keeps
    directories small on full-grid runs).  Corrupt entries — e.g. a file
    truncated by an external crash — are treated as misses, deleted, and
    recomputed, so a damaged cache degrades to extra work, never to a
    wrong or unreadable result.

    Args:
        root: cache directory (created on first write).
        metrics: optional :class:`~repro.obs.Registry`; when given the
            cache publishes hit/miss/corrupt/write counters, bytes
            written, and an atomic-replace latency histogram alongside
            the in-process :class:`CacheStats`.
    """

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)
    metrics: Registry | None = None

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if self.root.exists() and not self.root.is_dir():
            raise CacheError(
                f"result cache root {self.root} exists but is not a directory"
            )
        registry = self.metrics if self.metrics is not None else NULL_REGISTRY
        self._c_hits = registry.counter(
            "cache_hits_total", "result-cache lookups served from disk"
        )
        self._c_misses = registry.counter(
            "cache_misses_total", "result-cache lookups that forced a recompute"
        )
        self._c_corrupt = registry.counter(
            "cache_corrupt_total", "corrupt cache entries discarded"
        )
        self._c_writes = registry.counter(
            "cache_writes_total", "records written back to the cache"
        )
        self._c_bytes = registry.counter(
            "cache_bytes_written_total", "serialized record bytes written"
        )
        self._h_write = registry.histogram(
            "cache_write_seconds", "atomic tempfile+replace write latency"
        )

    def path_of(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str):
        """The cached record for ``key``, or None on a miss.

        A corrupt entry counts as a miss and is removed so the slot can
        be rewritten by the recomputed record.
        """
        path = self.path_of(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self.stats.misses += 1
            self._c_misses.inc()
            return None
        try:
            record = record_from_payload(json.loads(text))
        except (ValueError, json.JSONDecodeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._c_corrupt.inc()
            self._c_misses.inc()
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        self.stats.hits += 1
        self._c_hits.inc()
        return record

    def put(self, key: str, record) -> None:
        """Store one record atomically under its content address."""
        text = dumps_json(record_to_payload(record))
        start = time.perf_counter()
        atomic_write_text(self.path_of(key), text)
        self._h_write.observe(time.perf_counter() - start)
        self.stats.writes += 1
        self._c_writes.inc()
        self._c_bytes.inc(len(text))

    def __contains__(self, key: str) -> bool:
        return self.path_of(key).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cached record; returns how many were removed."""
        removed = 0
        for path in list(self.root.glob("*/*.json")):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        return removed
