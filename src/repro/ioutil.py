"""Crash-safe file writing and JSON payload normalization.

Every on-disk artifact this repo produces — cache records, archived
segments, reference profiles, metrics snapshots, health/quality reports,
registry payloads — must survive the process dying mid-write: a reader
(``load_metrics``, ``report --ingest-metrics``, a resumed grid run) must
observe either the previous complete file or the new complete file,
never a truncated hybrid.  This module is the single implementation of
that discipline (write a sibling temp file, flush, fsync, then
``os.replace``), shared by :mod:`repro.analysis.cache`,
:mod:`repro.obs` and :mod:`repro.registry`.

:func:`update_manifest` adds the concurrent-writer half for the two
stores indexed by one JSON manifest (the model registry and the
archive): its read-modify-write runs under an exclusive ``flock``, so
two processes saving into one store both land in the manifest.

:func:`to_jsonable` is the companion payload normalizer: observability
reports are assembled from numpy arithmetic, and ``json.dumps(...,
default=str)`` would silently stringify any numpy scalar that leaks
into them (``np.float64(1.23)`` becomes ``"1.23"``), corrupting the
types downstream consumers parse.  Coercing to native Python types
keeps numbers numbers.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

import numpy as np


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (write-temp-then-rename).

    The temporary file lives in the target directory so ``os.replace``
    stays on one filesystem; readers never observe a partial file, and
    a failure mid-write leaves the previous ``path`` (if any) intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` (UTF-8) to ``path`` atomically."""
    atomic_write_bytes(path, text.encode("utf-8"))


def update_manifest(
    path: str | Path, read: Callable[[], Any], update: Callable[[Any], bool]
) -> bool:
    """Read-modify-write the JSON document at ``path`` under a file lock.

    Holds an exclusive ``fcntl.flock`` on the sibling ``<name>.lock``
    (created on first use) while ``read()`` loads the current document,
    ``update(document)`` mutates it in place and returns whether it
    changed, and a changed document is written back with
    :func:`atomic_write_text`.  Writers serialize on the lock, so no
    update is lost to a concurrent one; readers take no lock and see
    the old or the new file.  Anything ``update`` writes besides the
    manifest (a payload it indexes) is written under the lock too.

    Returns:
        Whether the document was written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_name(path.name + ".lock"), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        document = read()
        changed = update(document)
        if changed:
            atomic_write_text(path, json.dumps(document, indent=1))
        return changed


def to_jsonable(value):
    """Recursively coerce numpy scalars/arrays to native Python types.

    ``np.floating``/``np.integer``/``np.bool_`` become ``float``/``int``/
    ``bool``, arrays become (nested) lists, and containers are rebuilt
    with coerced leaves.  Non-finite floats pass through as floats —
    ``json.dumps`` renders them as ``NaN``/``Infinity`` literals, which
    the repo's readers round-trip — instead of being stringified.
    """
    if isinstance(value, dict):
        return {key: to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value
