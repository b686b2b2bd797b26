"""Capacity-planning replay: re-drive the service from archived traffic.

An archived ``serve`` segment (see :mod:`repro.obs.archive`) carries the
run's manifest ``run_meta``, the same dict the run built its own
deployment from (:mod:`repro.core.deploy`): corpus seed, train/test
split, the fitted config or registry model, family stride and drift,
round count, per-execution container pool seeds.  :func:`replay_segment`
deploys from it again, streams the job list through
:meth:`~repro.serve.service.DetectionService.from_meta` (with optionally
scaled producer/worker/queue geometry substituted into the meta), and
compares every replayed verdict bit-for-bit against the archived
columns.

Two uses:

* **fidelity** — at ``repeat=1`` the replay must be bit-identical to
  the archived record (flag, malware fraction, window counts, detection
  latency); any mismatch raises :class:`ReplayMismatchError`.  This is
  the archive's end-to-end integrity check.
* **capacity planning** — ``repeat=N`` streams the archived day N times
  back-to-back and reports the achieved speed relative to the original
  run's recorded wall time (``speedup``), answering "could this
  geometry absorb N× the archived traffic?".

Replay is deterministic because verdicts are a pure function of the
reconstructed traces (the PR-6 determinism contract); injected worker
crashes in the original run never altered its verdicts, so replays run
fault-free and still match.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.deploy import deploy
from repro.core.runtime import detection_latency_windows
from repro.obs.archive import Archive, ArchiveError, SegmentData
from repro.serve.service import DetectionService, serve_jobs


class ReplayError(ArchiveError):
    """The segment cannot be replayed (missing/unsupported run_meta)."""


class ReplayMismatchError(ReplayError):
    """A replayed verdict differed from the archived record at 1×."""


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one archived segment.

    ``speedup`` is archived traffic time delivered per unit of replay
    wall time: ``repeat × archived_seconds / replay_seconds`` (0.0 when
    the archive recorded no wall time).  ``matched`` counts replayed
    verdicts compared bit-identical against the archive (every archived
    verdict, ``repeat`` times).
    """

    segment_id: str
    repeat: int
    executions: int
    n_windows: int
    matched: int
    archived_seconds: float
    replay_seconds: float
    producers: int
    workers: int
    queue_depth: int

    @property
    def speedup(self) -> float:
        if self.replay_seconds <= 0 or self.archived_seconds <= 0:
            return 0.0
        return self.repeat * self.archived_seconds / self.replay_seconds

    @property
    def windows_per_second(self) -> float:
        if self.replay_seconds <= 0:
            return 0.0
        return self.repeat * self.n_windows / self.replay_seconds


def archived_wall_seconds(segment: SegmentData) -> float:
    """The original run's recorded wall time for speed comparisons.

    Prefers the ``serve.run`` span; falls back to the verdict timestamp
    range when the segment holds no such span.
    """
    wall = segment.span_seconds("serve.run")
    if wall > 0:
        return wall
    ts = segment.verdicts["ts"]
    return float(ts.max() - ts.min()) if ts.size > 1 else 0.0


def _archived_rows(segment: SegmentData) -> dict[int, dict]:
    hosts = segment.resolve(segment.verdicts["host"])
    apps = segment.resolve(segment.verdicts["app"])
    rows: dict[int, dict] = {}
    for i in range(segment.n_verdicts):
        execution = int(segment.verdicts["execution"][i])
        rows[execution] = {
            "host": str(hosts[i]),
            "app": str(apps[i]),
            "flag": bool(segment.verdicts["flag"][i]),
            "fraction": float(segment.verdicts["fraction"][i]),
            "n_windows": int(segment.verdicts["windows"][i]),
            "lost": int(segment.verdicts["lost"][i]),
            "degraded": bool(segment.verdicts["degraded"][i]),
            "latency": int(segment.verdicts["latency"][i]),
        }
    return rows


def replay_segment(
    archive: Archive,
    segment_id: str | None = None,
    repeat: int = 1,
    producers: int | None = None,
    workers: int | None = None,
    queue_depth: int | None = None,
) -> ReplayResult:
    """Re-drive the service from one archived segment and verify it.

    Args:
        archive: the fleet archive.
        segment_id: segment to replay (id or unique prefix); None picks
            the most recently ingested replayable (``serve``) segment.
        repeat: how many times to stream the archived workload
            back-to-back (capacity planning at N× archived traffic).
        producers / workers / queue_depth: geometry overrides; None
            keeps the archived run's geometry.

    Every replayed verdict is compared against the archived record —
    flag, malware fraction, window counts, lost windows, degraded bit,
    detection latency — and any difference raises
    :class:`ReplayMismatchError`.  The determinism contract makes this
    exact at every ``repeat`` and geometry, so the assertion always
    holds, not just at 1×.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if segment_id is not None:
        entry = archive.entry(segment_id)
    else:
        candidates = [
            e for e in archive.segments()
            if (e.get("run_meta") or {}).get("command") == "serve"
        ]
        if not candidates:
            raise ReplayError("archive holds no replayable 'serve' segments")
        entry = candidates[-1]
    run_meta = entry.get("run_meta") or {}
    if run_meta.get("command") != "serve":
        raise ReplayError(
            f"only 'serve' runs can be replayed, got {run_meta.get('command')!r}"
        )
    geometry = {
        "producers": producers, "workers": workers, "queue_depth": queue_depth
    }
    meta = dict(
        run_meta, **{key: v for key, v in geometry.items() if v is not None}
    )
    detector, hosts = deploy(meta)
    jobs = serve_jobs(meta, hosts)
    segment = archive.load_segment(entry)
    archived = _archived_rows(segment)
    if len(archived) != len(jobs):
        raise ReplayMismatchError(
            f"segment {entry['segment_id'][:12]} archives {len(archived)} "
            f"verdicts but the reconstructed workload has {len(jobs)} jobs"
        )
    service = DetectionService.from_meta(detector, meta)
    matched = 0
    n_windows = 0
    started = time.perf_counter()
    for _ in range(repeat):
        report = service.run(jobs)
        for index, verdict in enumerate(report.verdicts):
            want = archived.get(index)
            if want is None:
                raise ReplayMismatchError(
                    f"archive has no verdict for execution {index}"
                )
            latency = detection_latency_windows(
                verdict.window_flags, service.vote_threshold
            )
            got = {
                "host": jobs[index].host_name,
                "app": verdict.app_name,
                "flag": bool(verdict.is_malware),
                "fraction": float(verdict.malware_fraction),
                "n_windows": int(verdict.n_windows),
                "lost": int(verdict.n_windows_lost),
                "degraded": bool(verdict.degraded),
                "latency": -1 if latency is None else int(latency),
            }
            if got != want:
                diffs = {
                    key: (got[key], want[key])
                    for key in got if got[key] != want[key]
                }
                raise ReplayMismatchError(
                    f"execution {index} diverged from the archive: {diffs}"
                )
            matched += 1
        n_windows = report.n_windows
    wall = time.perf_counter() - started
    return ReplayResult(
        segment_id=entry["segment_id"],
        repeat=repeat,
        executions=len(jobs),
        n_windows=n_windows,
        matched=matched,
        archived_seconds=archived_wall_seconds(segment),
        replay_seconds=wall,
        producers=service.producers,
        workers=service.workers,
        queue_depth=service.queue_depth,
    )
