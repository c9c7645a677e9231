"""``.npz`` checkpointing for streaming state.

A checkpoint is a single NumPy archive holding the integer count arrays
of an accumulator or session plus a JSON metadata record (stored as a
zero-dimensional string array under ``__meta__``).  Everything is plain
data — no pickling — so checkpoints are safe to load from untrusted
storage and portable across processes and hosts.

Checkpoints capture *server-side aggregation state only*.  Client-side
randomness is not part of the state (the server never holds it), so a
restored session resumes ingestion with a caller-provided generator.

Saves are atomic: the archive is written to a temporary file next to
the target and renamed over it, so a crash mid-save leaves the previous
checkpoint intact.  A truncated or corrupt archive loads as a
:class:`~repro.exceptions.ConfigurationError` naming the path.
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
import zlib
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..obs import metrics as _obs
from ..obs.log import log_event

PathLike = Union[str, Path]

#: Reserved archive key holding the JSON metadata record.
_META_KEY = "__meta__"


def save_state(path: PathLike, meta: Mapping, arrays: Mapping[str, np.ndarray]) -> Path:
    """Write ``meta`` (JSON-serialisable scalars) and ``arrays`` to ``path``.

    The ``.npz`` suffix is appended when missing (mirroring
    :func:`numpy.savez`); the resolved path is returned.  The write goes
    to a temporary file in the target directory that replaces ``path``
    only once complete.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    payload = {}
    for key, value in arrays.items():
        if key == _META_KEY:
            raise ConfigurationError(f"array name {_META_KEY!r} is reserved")
        payload[key] = np.asarray(value)
    payload[_META_KEY] = np.asarray(json.dumps(dict(meta)))
    # A unique sibling name opened with O_EXCL ("xb") keeps the usual
    # umask-derived permissions, unlike tempfile.mkstemp's 0600.
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(temp, "xb") as handle:
            np.savez(handle, **payload)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    registry = _obs.get_registry()
    if registry.enabled:
        registry.counter("checkpoint_saves_total").inc()
    log_event("checkpoint.save", path=str(path), session=meta.get("session"))
    return path


def load_state(path: PathLike) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back a checkpoint written by :func:`save_state`.

    Returns ``(meta, arrays)``.  Raises
    :class:`~repro.exceptions.ConfigurationError` when the archive lacks
    the metadata record (i.e. is not a repro checkpoint) or is truncated
    or corrupt.
    """
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    try:
        with np.load(path, allow_pickle=False) as archive:
            if _META_KEY not in archive.files:
                raise ConfigurationError(
                    f"{path} is not a repro streaming checkpoint"
                )
            meta = json.loads(str(archive[_META_KEY][()]))
            arrays = {
                key: archive[key] for key in archive.files if key != _META_KEY
            }
    except ConfigurationError:
        raise
    except (EOFError, zipfile.BadZipFile, zlib.error, ValueError) as error:
        raise ConfigurationError(
            f"{path} is truncated or corrupt ({type(error).__name__}: {error})"
        ) from error
    registry = _obs.get_registry()
    if registry.enabled:
        registry.counter("checkpoint_loads_total").inc()
    log_event("checkpoint.load", path=str(path), session=meta.get("session"))
    return meta, arrays
