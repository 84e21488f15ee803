"""Persisting preprocessing artifacts.

The paper notes the generated formats "can be stored for later use --
e.g., they can be generated and used during GNN training and then saved
and reused during GNN inference" (Sec. VI-B).  This module round-trips
the four accelerator formats and the partition assignment through ``.npz``
archives so a preprocessing run is a durable artifact.

Writes are atomic: each archive is written to a temporary file in the
destination directory and published with ``os.replace``, so a reader
(e.g. another plan-service worker, or a process that crashed mid-write)
can only ever observe a complete artifact or none at all.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Type, Union

import numpy as np

from repro.pipeline.formats import AnyFormat, TiledCoo, TiledCsr, UntiledCoo, UntiledCsr

__all__ = [
    "save_format",
    "load_format",
    "save_assignment",
    "load_assignment",
    "save_artifacts",
]

_FORMAT_TYPES: Dict[str, Type] = {
    cls.__name__: cls for cls in (UntiledCoo, TiledCoo, UntiledCsr, TiledCsr)
}


def _atomic_savez(path: Union[str, Path], payload: Dict[str, np.ndarray]) -> Path:
    """``np.savez`` into ``path`` atomically; returns the final path.

    Mirrors ``np.savez``'s naming rule (append ``.npz`` unless already
    present), but stages the archive in a temp file in the destination
    directory and publishes it with ``os.replace`` -- a crash mid-write
    leaves no partial ``.npz`` visible, only an unreferenced temp file
    that is removed on the way out.
    """
    final = Path(path)
    if final.suffix != ".npz":
        final = final.with_suffix(final.suffix + ".npz")
    fd, tmp = tempfile.mkstemp(
        dir=final.parent, prefix=f".{final.stem}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **payload)
        os.replace(tmp, final)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return final

#: Scalar (non-array) constructor fields per format type.
_SCALAR_FIELDS = {
    "UntiledCoo": ("n_rows", "n_cols"),
    "TiledCoo": ("n_rows", "n_cols"),
    "UntiledCsr": ("n_rows", "n_cols"),
    "TiledCsr": ("n_rows", "n_cols", "tile_height"),
}


def save_format(fmt: AnyFormat, path: Union[str, Path]) -> Path:
    """Write one accelerator format as a self-describing ``.npz``."""
    path = Path(path)
    type_name = type(fmt).__name__
    if type_name not in _FORMAT_TYPES:
        raise ValueError(f"unknown format type {type_name}")
    payload = {"__format__": np.array(type_name)}
    scalars = {}
    for field_name in fmt.__dataclass_fields__:
        value = getattr(fmt, field_name)
        if isinstance(value, np.ndarray):
            payload[field_name] = value
        else:
            scalars[field_name] = int(value)
    payload["__scalars__"] = np.array(json.dumps(scalars))
    return _atomic_savez(path, payload)


def load_format(path: Union[str, Path]) -> AnyFormat:
    """Load a format written by :func:`save_format`."""
    with np.load(path, allow_pickle=False) as data:
        try:
            type_name = str(data["__format__"])
            scalars = json.loads(str(data["__scalars__"]))
        except KeyError as exc:
            raise ValueError(f"{path} is not a saved HotTiles format") from exc
        cls = _FORMAT_TYPES.get(type_name)
        if cls is None:
            raise ValueError(f"unknown format type {type_name!r} in {path}")
        kwargs = dict(scalars)
        for field_name in cls.__dataclass_fields__:
            if field_name in kwargs:
                continue
            if field_name not in data:
                raise ValueError(f"{path} is missing array field {field_name!r}")
            kwargs[field_name] = data[field_name]
    return cls(**kwargs)


def save_assignment(
    assignment: np.ndarray, path: Union[str, Path], label: str = "", mode: str = ""
) -> Path:
    """Persist a hot/cold tile assignment with its provenance labels."""
    return _atomic_savez(
        path,
        {
            "assignment": np.asarray(assignment, dtype=bool),
            "label": np.array(label),
            "mode": np.array(mode),
        },
    )


def load_assignment(path: Union[str, Path]):
    """Load ``(assignment, label, mode)`` written by :func:`save_assignment`."""
    with np.load(path, allow_pickle=False) as data:
        try:
            return (
                data["assignment"].astype(bool),
                str(data["label"]),
                str(data["mode"]),
            )
        except KeyError as exc:
            raise ValueError(f"{path} is not a saved assignment") from exc


def save_artifacts(preprocess, out: Union[str, Path]) -> List[str]:
    """Write one preprocessing run's artifacts into the directory ``out``.

    Each format present goes to ``{side}_{format}.npz`` (e.g.
    ``hot_tiledcsr.npz``) and the chosen assignment, with its label and
    mode, to ``assignment.npz``.  Returns the written paths.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    saved: List[str] = []
    for side, fmt in (("hot", preprocess.hot_format), ("cold", preprocess.cold_format)):
        if fmt is None:
            continue
        path = save_format(fmt, out / f"{side}_{type(fmt).__name__.lower()}.npz")
        saved.append(str(path))
    chosen = preprocess.partition.chosen
    path = save_assignment(
        chosen.assignment,
        out / "assignment.npz",
        label=chosen.label,
        mode=chosen.mode.value,
    )
    saved.append(str(path))
    return saved
