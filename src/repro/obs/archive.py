"""Columnar fleet-history archive: per-run telemetry into queryable segments.

A fleet is operated through its history — detection-rate trends, alert
frequency, latency percentiles over days of traffic — but the system's
run artifacts are per-run JSONL traces and JSON metrics snapshots.  This
module rotates those artifacts into a compact, append-only **archive**
(flat files + numpy, no database), following the ingest → archive →
report pipeline of per-host counter aggregators like TACC Stats:

* :class:`Archive` — one directory holding content-addressed columnar
  ``.npz`` segments (one per ingested run) under ``segments/<id[:2]>/``
  plus a JSON ``manifest.json`` indexing them.  Segment IDs are SHA-256
  over the segment's normalized content — the same content-addressing
  discipline as :mod:`repro.analysis.cache` — so re-ingesting the same
  run reproduces the same ID and is a **no-op** (idempotent manifest),
  and a run archived with ``--archive-dir`` deduplicates against a later
  re-ingest of the trace file it dumped (paired with its metrics
  snapshot, since the snapshot is part of the addressed content).  All writes go through
  :mod:`repro.ioutil` (temp file, fsync, ``os.replace``), so a crash
  mid-ingest leaves the previous archive state intact, never a
  truncated segment or manifest.
* :func:`normalize_events` — turns ``serve.verdict`` / ``fleet.verdict``
  / ``monitor.verdict`` / ``serve.alert`` / ``health.alert`` /
  ``quality.alert`` / ``quality.drift`` trace events and span events into
  the archive's normalized record schema.  A run's tracer events are
  the only thing archived: :meth:`Archive.ingest_events` takes them from
  memory, :meth:`Archive.ingest_trace` from a dumped trace file.

Segments store timestamps, interned host/app/rule strings, verdict
flags, and the run's full metrics snapshot (including classify-latency
histograms whose fixed buckets merge exactly across segments — see
:func:`repro.obs.metrics.merge_snapshots`).  Query and report rendering
live in :mod:`repro.obs.rollup`.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ioutil import atomic_write_bytes, dumps_json, update_manifest
from repro.obs.trace import load_trace

#: Schema tag of the archive layout (bump on incompatible change).
ARCHIVE_SCHEMA_VERSION = 1

#: Verdict-bearing trace event names → archive source tag.
VERDICT_EVENTS = {
    "serve.verdict": "serve",
    "fleet.verdict": "fleet",
    "monitor.verdict": "monitor",
}

#: Rule name under which per-host sliding-vote alerts are archived.
HOST_VOTE_RULE = "host_vote"

#: Rule name under which per-execution drift observations are archived
#: (``quality.drift`` events land as informational alert rows; the
#: drift *trend* roll-up filters on this constant).
DRIFT_RULE = "quality_drift"


class ArchiveError(RuntimeError):
    """The archive directory, a segment, or the manifest is unusable."""


# ---------------------------------------------------------------------------
# Normalized record schema (plain dicts; the hashable canonical form)
# ---------------------------------------------------------------------------

_VERDICT_FIELDS = (
    "ts", "source", "host", "app", "execution", "is_malware", "degraded",
    "malware_fraction", "n_windows", "n_windows_lost", "latency",
)
_ALERT_FIELDS = ("ts", "rule", "host", "severity", "state", "value")
_SPAN_FIELDS = ("name", "ts", "dur")


def verdict_record(
    *,
    ts: float,
    source: str,
    host: str,
    app: str,
    execution: int,
    is_malware: bool,
    malware_fraction: float,
    n_windows: int,
    n_windows_lost: int = 0,
    degraded: bool = False,
    latency: int | None = None,
) -> dict:
    """One normalized verdict row (plain python types, hash-stable)."""
    return {
        "ts": float(ts),
        "source": str(source),
        "host": str(host),
        "app": str(app),
        "execution": int(execution),
        "is_malware": bool(is_malware),
        "degraded": bool(degraded),
        "malware_fraction": float(malware_fraction),
        "n_windows": int(n_windows),
        "n_windows_lost": int(n_windows_lost),
        "latency": -1 if latency is None else int(latency),
    }


def alert_record(
    *, ts: float, rule: str, host: str, severity: str, state: str, value: float
) -> dict:
    """One normalized alert row (a host-vote trip or a rule transition)."""
    return {
        "ts": float(ts),
        "rule": str(rule),
        "host": str(host),
        "severity": str(severity),
        "state": str(state),
        "value": float(value),
    }


def normalize_events(events: list[dict]) -> tuple[list[dict], list[dict], list[dict]]:
    """Split raw trace events into (verdicts, alerts, spans) records.

    Verdict events (``serve.verdict`` / ``fleet.verdict`` /
    ``monitor.verdict``) become verdict rows; an event without an
    execution index (``monitor.verdict`` in traces written before every
    driver shared one verdict schema) is numbered in stream order.
    ``serve.alert`` host-vote trips, ``health.alert`` / ``quality.alert``
    rule transitions, and per-execution ``quality.drift`` observations
    (archived under :data:`DRIFT_RULE` with their worst per-feature PSI
    as the value, feeding the drift-trend roll-up) become alert rows;
    span events become (name, ts, dur) rows.  Unknown event names are
    ignored, so traces from future instrumentation still ingest.
    """
    verdicts: list[dict] = []
    alerts: list[dict] = []
    spans: list[dict] = []
    n_unindexed = 0
    for event in events:
        kind = event.get("type")
        name = event.get("name", "")
        ts = float(event.get("ts", 0.0))
        if kind == "span":
            spans.append(
                {"name": str(name), "ts": ts, "dur": float(event.get("dur", 0.0))}
            )
            continue
        if kind != "event":
            continue
        attrs = event.get("attrs", {})
        source = VERDICT_EVENTS.get(name)
        if source is not None:
            app = attrs.get("app", "")
            execution = attrs.get("index")
            if execution is None:
                execution = n_unindexed
                n_unindexed += 1
            verdicts.append(
                verdict_record(
                    ts=ts,
                    source=source,
                    host=attrs.get("host", app),
                    app=app,
                    execution=execution,
                    is_malware=attrs.get("is_malware", False),
                    malware_fraction=attrs.get("malware_fraction", 0.0),
                    n_windows=attrs.get("n_windows", 0),
                    n_windows_lost=attrs.get("n_windows_lost", 0),
                    degraded=attrs.get("degraded", False),
                    latency=attrs.get("detection_latency_windows"),
                )
            )
        elif name == "serve.alert":
            alerts.append(
                alert_record(
                    ts=ts,
                    rule=HOST_VOTE_RULE,
                    host=attrs.get("host", ""),
                    severity="critical",
                    state="firing",
                    value=attrs.get("fraction", 0.0),
                )
            )
        elif name in ("health.alert", "quality.alert"):
            alerts.append(
                alert_record(
                    ts=ts,
                    rule=attrs.get("rule", ""),
                    host=attrs.get("host", "*"),
                    severity=attrs.get("severity", ""),
                    state=attrs.get("state", ""),
                    value=attrs.get("value", 0.0),
                )
            )
        elif name == "quality.drift":
            # Two rows per observation: the fleet-level ("*") row carries
            # the global-window PSI the alert rules evaluate; the
            # per-host row carries that host's own window PSI (NaN until
            # the host accumulates enough evidence), so the drift-trend
            # roll-up reports genuinely per-host series.
            value = attrs.get("max_feature_psi")
            alerts.append(
                alert_record(
                    ts=ts,
                    rule=DRIFT_RULE,
                    host="*",
                    severity="info",
                    state="observation",
                    value=float("nan") if value is None else value,
                )
            )
            host = attrs.get("host", "")
            if host:
                host_value = attrs.get("host_max_feature_psi")
                alerts.append(
                    alert_record(
                        ts=ts,
                        rule=DRIFT_RULE,
                        host=host,
                        severity="info",
                        state="observation",
                        value=float("nan") if host_value is None else host_value,
                    )
                )
    return verdicts, alerts, spans


def normalize_metrics(snapshot: dict | None) -> dict:
    """A metrics snapshot reduced to its mergeable, hash-stable core.

    Cosmetic ``help`` strings are dropped (they never affect a roll-up)
    so the live registry snapshot and its JSON round trip through
    ``--metrics-out`` hash identically.
    """
    if not snapshot:
        return {"counters": {}, "gauges": {}, "histograms": {}}
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for name, data in snapshot.get("counters", {}).items():
        out["counters"][name] = {"value": float(data["value"])}
    for name, data in snapshot.get("gauges", {}).items():
        out["gauges"][name] = {"value": float(data["value"])}
    for name, data in snapshot.get("histograms", {}).items():
        out["histograms"][name] = {
            "buckets": [float(b) for b in data["buckets"]],
            "counts": [int(c) for c in data["counts"]],
            "sum": float(data["sum"]),
            "count": int(data["count"]),
        }
    return out


def segment_content_id(
    verdicts: list[dict], alerts: list[dict], spans: list[dict], metrics: dict
) -> str:
    """SHA-256 content address of one segment's normalized records."""
    payload = {
        "schema": ARCHIVE_SCHEMA_VERSION,
        "verdicts": [[v[f] for f in _VERDICT_FIELDS] for v in verdicts],
        "alerts": [[a[f] for f in _ALERT_FIELDS] for a in alerts],
        "spans": [[s[f] for f in _SPAN_FIELDS] for s in spans],
        "metrics": metrics,
    }
    blob = dumps_json(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Segment storage
# ---------------------------------------------------------------------------


class _Interner:
    """String → dense index table for one segment's columns."""

    def __init__(self) -> None:
        self.table: dict[str, int] = {}

    def __call__(self, value: str) -> int:
        index = self.table.get(value)
        if index is None:
            index = self.table[value] = len(self.table)
        return index

    @property
    def strings(self) -> list[str]:
        return list(self.table)


@dataclass(frozen=True)
class SegmentData:
    """One loaded segment: columnar arrays plus the interned string table.

    String-valued columns (host, app, rule, ...) hold indices into
    ``strings``; :meth:`resolve` maps an index column back to strings.
    """

    segment_id: str
    strings: tuple[str, ...]
    verdicts: dict[str, np.ndarray]
    alerts: dict[str, np.ndarray]
    spans: dict[str, np.ndarray]
    metrics: dict

    def resolve(self, ids: np.ndarray) -> np.ndarray:
        """Map an interned-index column back to its strings."""
        table = np.array(self.strings, dtype=object)
        if ids.size == 0:
            return np.zeros(0, dtype=object)
        return table[ids]

    @property
    def n_verdicts(self) -> int:
        return int(self.verdicts["ts"].size)

    @property
    def n_alerts(self) -> int:
        return int(self.alerts["ts"].size)

    @property
    def n_spans(self) -> int:
        return int(self.spans["ts"].size)

    def span_seconds(self, name: str) -> float:
        """Total recorded duration of spans called ``name`` (0.0 if none)."""
        if self.n_spans == 0:
            return 0.0
        names = self.resolve(self.spans["name"])
        return float(self.spans["dur"][names == name].sum())


def _segment_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    """Compressed npz bytes of one segment's columns."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def _build_segment_arrays(
    verdicts: list[dict], alerts: list[dict], spans: list[dict], metrics: dict
) -> dict[str, np.ndarray]:
    intern = _Interner()
    arrays: dict[str, np.ndarray] = {
        "schema": np.array([ARCHIVE_SCHEMA_VERSION], dtype=np.int64),
        "verdict_ts": np.array([v["ts"] for v in verdicts], dtype=np.float64),
        "verdict_source": np.array(
            [intern(v["source"]) for v in verdicts], dtype=np.uint32
        ),
        "verdict_host": np.array(
            [intern(v["host"]) for v in verdicts], dtype=np.uint32
        ),
        "verdict_app": np.array([intern(v["app"]) for v in verdicts], dtype=np.uint32),
        "verdict_execution": np.array(
            [v["execution"] for v in verdicts], dtype=np.int64
        ),
        "verdict_flag": np.array([v["is_malware"] for v in verdicts], dtype=np.uint8),
        "verdict_degraded": np.array(
            [v["degraded"] for v in verdicts], dtype=np.uint8
        ),
        "verdict_fraction": np.array(
            [v["malware_fraction"] for v in verdicts], dtype=np.float64
        ),
        "verdict_windows": np.array(
            [v["n_windows"] for v in verdicts], dtype=np.uint32
        ),
        "verdict_lost": np.array(
            [v["n_windows_lost"] for v in verdicts], dtype=np.uint32
        ),
        "verdict_latency": np.array([v["latency"] for v in verdicts], dtype=np.int64),
        "alert_ts": np.array([a["ts"] for a in alerts], dtype=np.float64),
        "alert_rule": np.array([intern(a["rule"]) for a in alerts], dtype=np.uint32),
        "alert_host": np.array([intern(a["host"]) for a in alerts], dtype=np.uint32),
        "alert_severity": np.array(
            [intern(a["severity"]) for a in alerts], dtype=np.uint32
        ),
        "alert_state": np.array([intern(a["state"]) for a in alerts], dtype=np.uint32),
        "alert_value": np.array([a["value"] for a in alerts], dtype=np.float64),
        "span_name": np.array([intern(s["name"]) for s in spans], dtype=np.uint32),
        "span_ts": np.array([s["ts"] for s in spans], dtype=np.float64),
        "span_dur": np.array([s["dur"] for s in spans], dtype=np.float64),
        "metrics_json": np.array([dumps_json(metrics, sort_keys=True)]),
        "strings": np.array(intern.strings if intern.strings else [""], dtype=str),
        "n_strings": np.array([len(intern.strings)], dtype=np.int64),
    }
    return arrays


def _segment_columns(prefix: str, data: np.lib.npyio.NpzFile) -> dict[str, np.ndarray]:
    return {
        key[len(prefix):]: data[key]
        for key in data.files
        if key.startswith(prefix)
    }


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one :meth:`Archive.ingest_records` call.

    ``ingested`` is False when the segment already existed — the
    idempotent-manifest contract — in which case the counts describe
    the existing segment.
    """

    segment_id: str
    ingested: bool
    n_verdicts: int
    n_alerts: int
    n_spans: int
    path: Path


class Archive:
    """Content-addressed columnar archive of fleet run history.

    Layout under ``root``::

        manifest.json                 # segment index (atomic rewrites)
        manifest.json.lock            # held by writers while they ingest
        segments/<id[:2]>/<id>.npz    # one columnar segment per run

    Args:
        root: archive directory, created on first ingest.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ArchiveError(f"archive root {self.root} is not a directory")

    # -- manifest -------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        """Path of the manifest index file."""
        return self.root / "manifest.json"

    def manifest(self) -> dict:
        """The manifest object (``{"schema": .., "segments": [..]}``)."""
        try:
            text = self.manifest_path.read_text()
        except FileNotFoundError:
            return {"schema": ARCHIVE_SCHEMA_VERSION, "segments": []}
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArchiveError(f"corrupt archive manifest {self.manifest_path}") from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("schema") != ARCHIVE_SCHEMA_VERSION
        ):
            raise ArchiveError(
                f"archive manifest {self.manifest_path} has unsupported schema "
                f"{manifest.get('schema') if isinstance(manifest, dict) else '?'}"
            )
        return manifest

    def segments(self) -> list[dict]:
        """Manifest entries, in ingestion order."""
        return list(self.manifest()["segments"])

    def entry(self, segment_id: str) -> dict:
        """The manifest entry for ``segment_id`` (prefix match allowed)."""
        matches = [
            e for e in self.segments() if e["segment_id"].startswith(segment_id)
        ]
        if not matches:
            raise ArchiveError(f"no archived segment matches {segment_id!r}")
        if len(matches) > 1:
            raise ArchiveError(f"segment id {segment_id!r} is ambiguous")
        return matches[0]

    def __len__(self) -> int:
        return len(self.manifest()["segments"])

    def segment_path(self, segment_id: str) -> Path:
        """On-disk location of one segment's ``.npz`` file."""
        return self.root / "segments" / segment_id[:2] / f"{segment_id}.npz"

    # -- ingest ---------------------------------------------------------
    def ingest_records(
        self,
        verdicts: list[dict],
        alerts: list[dict],
        spans: list[dict],
        metrics: dict | None = None,
        run_meta: dict | None = None,
        run_id: str | None = None,
        source: str = "trace",
    ) -> IngestResult:
        """Archive one run's normalized records as a segment.

        The segment ID is the SHA-256 of the normalized content, so
        ingesting the same run twice is a no-op: the second call finds
        the ID in the manifest and returns ``ingested=False`` without
        writing anything.  The check, the segment write and the manifest
        append run under the manifest lock
        (:func:`~repro.ioutil.update_manifest`), so concurrent ingests of
        one run index it once and ingests of different runs all land.
        The segment file is written before the manifest entry; a crash between the two leaves an orphan that the next
        ingest of the same content atomically overwrites and indexes.
        """
        snapshot = normalize_metrics(metrics)
        segment_id = segment_content_id(verdicts, alerts, spans, snapshot)
        path = self.segment_path(segment_id)

        def update(manifest: dict) -> bool:
            if any(e["segment_id"] == segment_id for e in manifest["segments"]):
                return False
            arrays = _build_segment_arrays(verdicts, alerts, spans, snapshot)
            atomic_write_bytes(path, _segment_bytes(arrays))
            all_ts = (
                [v["ts"] for v in verdicts]
                + [a["ts"] for a in alerts]
                + [s["ts"] for s in spans]
            )
            manifest["segments"].append(
                {
                    "segment_id": segment_id,
                    "file": str(path.relative_to(self.root)),
                    "source": source,
                    "run_id": run_id,
                    "created_ts": time.time(),
                    "n_verdicts": len(verdicts),
                    "n_alerts": len(alerts),
                    "n_spans": len(spans),
                    "ts_min": min(all_ts) if all_ts else None,
                    "ts_max": max(all_ts) if all_ts else None,
                    "hosts": sorted({v["host"] for v in verdicts}),
                    "run_meta": run_meta,
                }
            )
            return True

        # equal content ids mean equal records, so the counts of a
        # no-op re-ingest are this call's own
        return IngestResult(
            segment_id=segment_id,
            ingested=update_manifest(self.manifest_path, self.manifest, update),
            n_verdicts=len(verdicts),
            n_alerts=len(alerts),
            n_spans=len(spans),
            path=path,
        )

    def ingest_events(
        self,
        events: list[dict],
        metrics: dict | None = None,
        run_meta: dict | None = None,
        run_id: str | None = None,
        source: str = "trace",
    ) -> IngestResult:
        """Archive one run's raw trace events (plus a metrics snapshot)."""
        verdicts, alerts, spans = normalize_events(events)
        return self.ingest_records(
            verdicts, alerts, spans,
            metrics=metrics, run_meta=run_meta, run_id=run_id, source=source,
        )

    def ingest_trace(
        self,
        trace_path: str | Path,
        metrics_path: str | Path | None = None,
        run_meta: dict | None = None,
        run_id: str | None = None,
        source: str = "trace",
    ) -> IngestResult:
        """Rotate a ``--trace-out`` JSONL file (and optional
        ``--metrics-out`` snapshot) into the archive."""
        events = load_trace(trace_path)
        metrics = None
        if metrics_path is not None:
            metrics = json.loads(Path(metrics_path).read_text())
            if not isinstance(metrics, dict):
                raise ArchiveError(
                    f"metrics file {metrics_path} does not hold a snapshot"
                )
        return self.ingest_events(
            events, metrics=metrics, run_meta=run_meta, run_id=run_id, source=source
        )

    # -- load -----------------------------------------------------------
    def load_segment(self, entry: dict | str) -> SegmentData:
        """Load one segment's columns (by manifest entry or ID prefix)."""
        if isinstance(entry, str):
            entry = self.entry(entry)
        path = self.root / entry["file"]
        try:
            with np.load(path, allow_pickle=False) as data:
                schema = int(data["schema"][0])
                if schema != ARCHIVE_SCHEMA_VERSION:
                    raise ArchiveError(
                        f"segment {entry['segment_id']} has schema {schema}, "
                        f"expected {ARCHIVE_SCHEMA_VERSION}"
                    )
                n_strings = int(data["n_strings"][0])
                strings = tuple(str(s) for s in data["strings"][:n_strings])
                return SegmentData(
                    segment_id=entry["segment_id"],
                    strings=strings,
                    verdicts=_segment_columns("verdict_", data),
                    alerts=_segment_columns("alert_", data),
                    spans=_segment_columns("span_", data),
                    metrics=json.loads(str(data["metrics_json"][0])),
                )
        except OSError as exc:
            raise ArchiveError(
                f"cannot read archived segment {entry['segment_id']}: {exc}"
            ) from exc
        except (KeyError, ValueError) as exc:
            raise ArchiveError(
                f"corrupt archived segment {entry['segment_id']}: {exc}"
            ) from exc
