"""Build the artifacts a measured run warm-starts from, outside timing.

Run as its own process by ``run.py`` so the measured process never holds
the training corpus: its peak RSS is the deployed footprint.

Artifacts live under ``.perfbench_work/cache/<source digest>/``:

* ``registry/`` and ``model.json`` — the deployed detector saved through
  :class:`repro.registry.ModelRegistry` (independent of the seed);
* ``profile.json`` — the detector's training-time reference profile;
* ``ref-<workload>-<seed>.json`` — serial :class:`RuntimeMonitor`
  verdicts for every job of the workload's job list, the reference every
  measured verdict must equal.

Usage: ``python3 perfbench/prepare.py --workload serve-short --seed 1``
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def _deployed_artifacts(cache: Path) -> None:
    from repro.core.config import DetectorConfig
    from repro.core.detector import HMDDetector
    from repro.ml.validation import app_level_split
    from repro.obs import build_reference_profile
    from repro.registry import ModelRegistry
    from repro.workloads import default_corpus

    corpus = default_corpus(
        seed=common.TRAIN_CORPUS_SEED,
        windows_per_app=common.TRAIN_WINDOWS_PER_APP,
    )
    split = app_level_split(corpus, 0.7, seed=common.SPLIT_SEED)
    detector = HMDDetector(DetectorConfig(*common.DEPLOYED)).fit(split.train)
    entry = ModelRegistry(cache / "registry").save_detector(
        detector, tags=("perfbench",)
    )
    build_reference_profile(detector, split.train).save(cache / "profile.json")
    common.write_json_atomic(cache / "model.json", {"model_id": entry.model_id})


def _reference_verdicts(cache: Path, workload: str, seed: int) -> Path:
    from repro.core.runtime import RuntimeMonitor
    from repro.hpc.lxc import ContainerPool
    from repro.registry import ModelRegistry

    model_id = json.loads((cache / "model.json").read_text())["model_id"]
    detector = ModelRegistry(cache / "registry").load_detector(model_id)
    monitor = RuntimeMonitor(detector, n_counters=common.DEPLOYED[2])
    verdicts = [
        common.verdict_to_json(
            monitor.monitor(
                job.app,
                job.n_windows,
                ContainerPool(seed=common.POOL_BASE + i),
                job.is_malware,
            )
        )
        for i, job in enumerate(common.serve_jobs(workload, seed))
    ]
    path = cache / f"ref-{workload}-{seed}.json"
    common.write_json_atomic(path, verdicts)
    return path


def prepare(workload: str, seed: int) -> Path:
    """Build whatever is missing; return the artifact directory."""
    cache = common.CACHE_DIR / common.source_digest()
    if not (cache / "model.json").is_file():
        _deployed_artifacts(cache)
    if workload != "train-grid" and not (
        cache / f"ref-{workload}-{seed}.json"
    ).is_file():
        _reference_verdicts(cache, workload, seed)
    return cache


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    common.use_program_source()
    print(prepare(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
