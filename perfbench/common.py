"""Paths, input generation and statistics shared by the benchmark's parts.

Everything here is deterministic in the seed: the measured process and
the preparation process each call :func:`serve_jobs` and get the same
job list, so reference verdicts computed in one apply to the other.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC_DIR = ROOT / "src"
#: Everything the benchmark writes lives under here (listed in .gitignore).
WORK_DIR = ROOT / ".perfbench_work"
CACHE_DIR = WORK_DIR / "cache"
RESULTS_DIR = WORK_DIR / "results"

WORKLOADS = ("serve-short", "serve-long", "monitor-obs", "train-grid")

#: The deployed detector: boosted REPTree at 4 HPCs, the configuration
#: the service, monitor and registry benches already use.
DEPLOYED = ("REPTree", "boosted", 4)
#: The deployed detector is trained once on this fixed corpus; the run's
#: seed only decides which applications are monitored.
TRAIN_CORPUS_SEED = 2018
TRAIN_WINDOWS_PER_APP = 20
SPLIT_SEED = 7
#: Execution ``i`` of a job list runs in ``ContainerPool(POOL_BASE + i)``.
POOL_BASE = 10_000

#: Each family is instantiated this many times per seed: more distinct
#: hosts make verdict accuracy depend less on the seed.
HOST_DRAWS = 3
#: Windows per execution.
SHORT_WINDOWS = 20
LONG_WINDOWS = 640


def have_program() -> bool:
    return (SRC_DIR / "repro" / "__init__.py").is_file()


def use_program_source() -> None:
    """Import the program from the checkout's ``src``, never an install."""
    path = str(SRC_DIR)
    if path not in sys.path:
        sys.path.insert(0, path)


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources.

    Artifacts are cached under this key, so a change to fitting, the
    simulator or the benchmark's inputs never reads a stale artifact.
    """
    digest = hashlib.sha256()
    for base in (SRC_DIR, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()[:24]


def serve_jobs(workload: str, seed: int) -> list:
    """The job list a serve/monitor workload cycles over.

    Hosts are every application of every family, instantiated
    :data:`HOST_DRAWS` times from the seed (unseen by the deployed
    detector, which trained on the fixed corpus).  Order interleaves
    families so any contiguous chunk mixes benign and malicious hosts.
    """
    import numpy as np

    from repro.serve import ServeJob
    from repro.workloads import BENIGN_FAMILIES, MALWARE, MALWARE_FAMILIES

    rng = np.random.default_rng([seed, 0x5E7])
    per_family = [
        [
            (app, family.label == MALWARE)
            for _ in range(HOST_DRAWS)
            for app in family.instantiate(rng)
        ]
        for family in BENIGN_FAMILIES + MALWARE_FAMILIES
    ]
    hosts = []
    for i in range(max(len(apps) for apps in per_family)):
        hosts.extend(apps[i] for apps in per_family if i < len(apps))
    windows = LONG_WINDOWS if workload == "serve-long" else SHORT_WINDOWS
    return [ServeJob(app, windows, truth) for app, truth in hosts]

def verdict_to_json(verdict) -> dict:
    return {
        "app_name": verdict.app_name,
        "window_flags": [int(flag) for flag in verdict.window_flags],
        "malware_fraction": verdict.malware_fraction,
        "is_malware": bool(verdict.is_malware),
        "confidence": verdict.confidence,
        "n_windows_lost": verdict.n_windows_lost,
        "degraded": bool(verdict.degraded),
    }


def verdict_from_json(data: dict):
    from repro.core.runtime import DetectionVerdict

    return DetectionVerdict(**data)


def write_json_atomic(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)

