"""Crash-safe file writing and the one JSON encoder for persisted files.

Every on-disk artifact this repo produces — cache records, archived
segments, reference profiles, metrics snapshots, health/quality reports,
registry payloads — must survive the process dying mid-write: a reader
(``load_metrics``, ``report --ingest-metrics``, a resumed grid run) must
observe either the previous complete file or the new complete file,
never a truncated hybrid.  This module is the single implementation of
that discipline (write a sibling temp file, flush, fsync, ``os.replace``,
then fsync the directory so the rename itself survives power loss),
shared by :mod:`repro.analysis.cache`, :mod:`repro.obs` and
:mod:`repro.registry`.

:func:`update_manifest` adds the concurrent-writer half for the two
stores indexed by one JSON manifest (the model registry and the
archive): its read-modify-write runs under an exclusive ``flock``, so
two processes saving into one store both land in the manifest.

:func:`dumps_json` is the one encoder every persisted JSON document goes
through.  It is compact (no indent), so CPython runs its C encoder
rather than the pure-Python one ``indent=`` falls back to, and its
``default`` hook turns numpy scalars and arrays into native numbers and
lists instead of stringifying them the way ``default=str`` would
(``np.float64(1.23)`` must stay ``1.23``, not become ``"1.23"``).
Pretty-print a dump with ``python -m json.tool``.
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
    The payload is fsynced before the rename and the directory after
    it, so a file written before another (a payload before the manifest
    that indexes it) is also on disk first after a power loss.
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
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Make a rename in ``directory`` durable: fsync the directory itself."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
            atomic_write_text(path, dumps_json(document))
        return changed


def _numpy_to_native(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_numpy_to_native)
_SORTED_ENCODER = json.JSONEncoder(
    separators=(",", ":"), sort_keys=True, default=_numpy_to_native
)


def dumps_json(value: Any, *, sort_keys: bool = False) -> str:
    """Encode ``value`` as compact one-line JSON with CPython's C encoder.

    numpy arrays become (nested) lists and numpy scalars their native
    ``int``/``float``/``bool``; ``np.float64`` already subclasses
    ``float`` and is written as ``float(x)`` would be.  Non-finite
    floats are written as the ``NaN``/``Infinity`` literals the repo's
    readers round-trip.  Any other non-JSON type raises ``TypeError``.
    ``sort_keys=True`` gives the canonical form content addresses hash.
    """
    return (_SORTED_ENCODER if sort_keys else _ENCODER).encode(value)
