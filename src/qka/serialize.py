"""JSON persistence of subspaces.

The file format stores the basis as k rows of 4n decimal numbers; Python's
float repr round-trips bit-exactly, so write -> read preserves the basis.
"""

from __future__ import annotations

import json
import os
import warnings
from itertools import chain

import numpy as np

from .subspace import ORTHONORMALITY_TOL, Subspace

__all__ = ["FORMAT_VERSION", "subspace_to_dict", "subspace_from_dict",
           "save_subspace", "load_subspace"]

FORMAT_VERSION = 1

# Rows orthonormal within ORTHONORMALITY_TOL, the gate of `Subspace`, are
# accepted as stored; up to this looser bound they are re-orthonormalized with
# a warning; beyond it the file is rejected.
REPAIR_TOL = 1e-8


def subspace_to_dict(v_space: Subspace, meta: dict | None = None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n": v_space.n,
        "k": v_space.k,
        "basis": v_space.basis.T.tolist(),
        "meta": dict(meta) if meta else {},
    }


def subspace_from_dict(data: dict) -> tuple[Subspace, dict]:
    """The subspace and meta of a parsed file.  ``format_version``, ``n`` and
    ``k`` must be JSON integers (not bools), the basis rows lists of JSON
    numbers and ``meta`` an object, null or absent; nothing is converted, and
    anything else raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("subspace file must contain a JSON object")
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    try:
        n, k, rows = data["n"], data["k"], data["basis"]
        for key, value in (("n", n), ("k", k)):
            if type(value) is not int:  # not a float, a string or a bool
                raise ValueError(f"{key} must be a JSON integer, got {value!r}")
        if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
            raise ValueError("basis entries must be JSON numbers")
        rows = np.asarray(rows, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed subspace file: {exc}") from exc
    if rows.shape != (k, 4 * n):
        raise ValueError(
            f"basis shape {rows.shape} does not match k={k}, n={n} (expected "
            f"({k}, {4 * n}))"
        )
    if not np.all(np.isfinite(rows)):
        raise ValueError("basis has non-finite entries")
    basis = rows.T
    dev = float(np.max(np.abs(basis.T @ basis - np.eye(k))))
    if dev > REPAIR_TOL:
        raise ValueError(f"basis rows are not orthonormal (deviation {dev:.2e})")
    if dev > ORTHONORMALITY_TOL:
        warnings.warn(
            f"re-orthonormalizing stored basis (deviation {dev:.2e})",
            stacklevel=2,
        )
        basis = np.linalg.qr(basis)[0]
    meta = {} if data.get("meta") is None else data["meta"]  # absent or null: no meta
    if not isinstance(meta, dict):
        raise ValueError("meta must be a JSON object")
    return Subspace(basis), meta


def save_subspace(path, v_space: Subspace, meta: dict | None = None) -> None:
    """Write the subspace as JSON; a payload holding NaN or inf raises
    ValueError before the file is opened, so no partial file is left."""
    text = json.dumps(subspace_to_dict(v_space, meta), indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_subspace(path) -> tuple[Subspace, dict]:
    if not isinstance(path, (str, os.PathLike)):  # open() takes an int as a descriptor
        raise ValueError(f"path must be a str or os.PathLike, got {type(path).__name__}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ValueError(f"invalid JSON in subspace file: {exc}") from exc
    return subspace_from_dict(data)
