"""One deploy path: the run_meta a detection run records, and what it deploys.

``monitor``, ``fleet`` and ``serve`` (:mod:`repro.cli`) and
:func:`repro.serve.replay.replay_segment` build their detector and hosts
through :func:`deploy`, from the dict :func:`deploy_meta` returns.  A
``fleet``/``serve`` run archives that same dict as its manifest
``run_meta``, so an archived run names everything needed to rebuild it:

* the corpus a fitted detector trains on (``seed``, ``windows``) and
  its 70/30 app-level split (``split_seed``);
* the detector: loaded from ``registry_dir`` (an absolute path) by its
  full ``model_id`` when the run deployed a registry model, otherwise
  fitted on the train half as ``classifier``/``ensemble``/``hpcs``
  (always the deployed detector's config);
* the hosts: every ``stride``-th family, instantiated in order from a
  generator seeded ``seed + 100`` and, for a ``serve`` run with a
  nonzero ``drift``, shifted toward a benign cover profile at that
  evasion strength.  Their containers are seeded from :func:`pool_seed`.

Segments archived before ``model_id`` and ``drift`` were recorded deploy
as those runs did: a refit, and no drift.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.detector import HMDDetector
from repro.hpc.microarch import ApplicationBehavior
from repro.ml import app_level_split
from repro.obs.trace import NULL_TRACER, Tracer
from repro.registry import ModelRegistry
from repro.workloads import (
    BENIGN_FAMILIES,
    MALWARE_FAMILIES,
    default_corpus,
    evasive_families,
)
from repro.workloads.dataset import MALWARE

#: run_meta keys every detection run records after ``command``; they are
#: also the CLI's argument names.
DEPLOY_KEYS = (
    "seed",
    "windows",
    "split_seed",
    "classifier",
    "ensemble",
    "hpcs",
    "model_id",
    "registry_dir",
    "counters",
    "vote_threshold",
    "stride",
)

#: Each command's run_meta keys after :data:`DEPLOY_KEYS`.
COMMAND_KEYS = {
    "monitor": (),
    "fleet": ("workers", "retries", "faulted"),
    "serve": (
        "rounds",
        "host_vote_windows",
        "producers",
        "workers",
        "queue_depth",
        "drift",
    ),
}

#: Keys that segments archived by older versions lack.
_OPTIONAL_KEYS = frozenset({"model_id", "registry_dir", "drift"})


def deploy_meta(command: str, **fields) -> dict:
    """The run_meta of one ``command`` run, in schema key order.

    ``fields`` are exactly :data:`DEPLOY_KEYS` plus the command's
    :data:`COMMAND_KEYS`.  ``model_id`` is a registry reference (id,
    unique prefix or tag) or None; :func:`deploy` resolves it.
    """
    keys = DEPLOY_KEYS + COMMAND_KEYS[command]
    if set(fields) != set(keys):
        raise TypeError(f"{command} run_meta takes exactly {', '.join(keys)}")
    return {"command": command, **{key: fields[key] for key in keys}}


def pool_seed(meta: dict) -> int:
    """Base seed of the run's container pools."""
    return int(meta["seed"]) + 99


def deploy(
    meta: dict, tracer: Tracer = NULL_TRACER
) -> tuple[HMDDetector, list[tuple[ApplicationBehavior, bool]]]:
    """Build the detector and ``(app, is_malware)`` hosts ``meta`` describes.

    A registry deployment (``model_id`` set) loads under a
    ``cli.load_model`` span, builds no corpus, and completes ``meta`` in
    place: the reference becomes the resolved full id, ``registry_dir``
    an absolute path and ``classifier``/``ensemble``/``hpcs`` the loaded
    detector's config, so the meta a run archives deploys the same model
    again from any working directory.  Otherwise the corpus is built
    under a ``cli.corpus`` span and the detector fitted on its train
    half under a ``cli.fit`` span.

    Raises:
        ValueError: unknown command or a missing run_meta key.
        RegistryError: the model reference does not resolve or load.
    """
    command = meta.get("command")
    if command not in COMMAND_KEYS:
        raise ValueError(f"cannot deploy a {command!r} run")
    missing = [
        key for key in DEPLOY_KEYS + COMMAND_KEYS[command]
        if key not in meta and key not in _OPTIONAL_KEYS
    ]
    if missing:
        raise ValueError(f"run_meta is missing deploy keys: {', '.join(missing)}")
    seed = int(meta["seed"])
    if meta.get("model_id"):
        registry_dir = Path(meta["registry_dir"]).resolve()
        registry = ModelRegistry(registry_dir)
        with tracer.span("cli.load_model", ref=meta["model_id"]):
            model_id = registry.resolve(meta["model_id"]).model_id
            detector = registry.load_detector(model_id)
        config = detector.config
        meta.update(
            model_id=model_id,
            registry_dir=str(registry_dir),
            classifier=config.classifier,
            ensemble=config.ensemble,
            hpcs=config.n_hpcs,
        )
    else:
        with tracer.span("cli.corpus"):
            corpus = default_corpus(seed=seed, windows_per_app=int(meta["windows"]))
        split = app_level_split(corpus, 0.7, seed=int(meta["split_seed"]))
        config = DetectorConfig(
            meta["classifier"], meta["ensemble"], int(meta["hpcs"])
        )
        with tracer.span("cli.fit", config=config.name):
            detector = HMDDetector(config).fit(split.train)
    families = BENIGN_FAMILIES + MALWARE_FAMILIES
    drift = float(meta.get("drift", 0.0))
    if drift:
        families = evasive_families(families, drift)
    rng = np.random.default_rng(seed + 100)
    hosts = [
        (family.instantiate(rng)[0], family.label == MALWARE)
        for family in families[:: int(meta["stride"])]
    ]
    return detector, hosts
