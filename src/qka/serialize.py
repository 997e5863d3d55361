"""JSON persistence of subspaces.

The file format stores the basis as k rows of 4n decimal numbers; Python's
float repr round-trips bit-exactly, so write -> read preserves the basis.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .subspace import Subspace

__all__ = ["FORMAT_VERSION", "subspace_to_dict", "subspace_from_dict",
           "save_subspace", "load_subspace"]

FORMAT_VERSION = 1

# Rows orthonormal within this are accepted as stored; up to the looser
# bound they are re-orthonormalized with a warning; beyond it the file is
# rejected.
ACCEPT_TOL = 1e-10
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
    if not isinstance(data, dict):
        raise ValueError("subspace file must contain a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    try:
        n = int(data["n"])
        k = int(data["k"])
        rows = np.asarray(data["basis"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
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
    if dev > ACCEPT_TOL:
        warnings.warn(
            f"re-orthonormalizing stored basis (deviation {dev:.2e})",
            stacklevel=2,
        )
        basis = np.linalg.qr(basis)[0]
    meta = data.get("meta") or {}
    if not isinstance(meta, dict):
        raise ValueError("meta must be a JSON object")
    return Subspace(basis), meta


def save_subspace(path, v_space: Subspace, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(subspace_to_dict(v_space, meta), fh, indent=1)
        fh.write("\n")


def load_subspace(path) -> tuple[Subspace, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in subspace file: {exc}") from exc
    return subspace_from_dict(data)
