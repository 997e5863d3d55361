"""Answer checks against what the input generator declared.

Every expected value here comes from the parameters an input was built
from (family, angle cosines, block counts, class sign, the paper's moduli
table) and never from the program's own output.  The factorization check
recomputes H-orthogonality and block angles with plain numpy, so it calls
nothing in ``qka``.  A check returns None when the answer matches and a
short reason otherwise.  An ``unknown`` verdict is never a mismatch.  A
program that declines to answer (raises, or exits nonzero) is a refusal,
reported apart from a wrong answer.
"""

from __future__ import annotations

import json

import numpy as np

# Cosines of a computed triple carry eigenvalue round-off of order 1e-8 near
# 0 and 1; this is well inside the separation of every declared triple.
COS_TOL = 1e-6
# Blocks returned by factorize must be H-orthogonal and span V to this.
BLOCK_TOL = 1e-7
# Above this joint residual the program itself reports no common canonical basis.
JOINT_RESIDUAL_TOL = 1e-8


class Refused(Exception):
    """The program gave no answer: it raised or exited nonzero."""


def _hamilton(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ])


def _right_blocks() -> np.ndarray:
    """4x4 matrices of p -> p u for u = i, j, k on (w, x, y, z) slots."""
    units = np.eye(4)
    return np.stack([np.column_stack([_hamilton(units[c], units[u]) for c in range(4)])
                     for u in (1, 2, 3)])


_RIGHT = _right_blocks()


def _right_mult(u: int, vecs: np.ndarray) -> np.ndarray:
    n = vecs.shape[0] // 4
    return np.einsum("ab,nbm->nam", _RIGHT[u], vecs.reshape(n, 4, -1)).reshape(vecs.shape)


def cosines_mismatch(got, declared) -> str | None:
    got = np.sort(np.asarray(got, dtype=float))[::-1]
    want = np.sort(np.asarray(declared, dtype=float))[::-1]
    err = float(np.max(np.abs(got - want)))
    if err > COS_TOL:
        return f"cosines {np.round(got, 8).tolist()} differ from declared {want.tolist()}"
    return None


def verdict_mismatch(value: str, expected: str, what: str) -> str | None:
    if value in (expected, "unknown"):
        return None
    return f"{what} is {value!r}, declared {expected!r}"


def strata_pairs(entries) -> list:
    """(name, branch) pairs of membership hits or their dict form."""
    out = []
    for e in entries:
        d = e if isinstance(e, dict) else e.to_dict()
        out.append([d["name"], d.get("branch")])
    return out


def record_mismatch(record: dict, *, k: int, n: int, cosines=None, constant=True,
                    block_type=None, proto=None, strata=None) -> str | None:
    """Compare a classify_subspace record with the declared class."""
    if (record.get("k"), record.get("n")) != (k, n):
        return f"dimensions {(record.get('k'), record.get('n'))}, declared {(k, n)}"
    if record.get("constant") is not constant:
        return f"constant={record.get('constant')}, declared {constant}"
    if cosines is not None:
        bad = cosines_mismatch(record["cosines"], cosines)
        if bad:
            return bad
    verdict = record.get("protohomogeneous", {}).get("value")
    if proto is not None:
        bad = verdict_mismatch(verdict, proto, "protohomogeneous")
        if bad:
            return bad
    if block_type is not None and verdict != "unknown":
        if record.get("type") != list(block_type):
            return f"type {record.get('type')}, declared {list(block_type)}"
    if strata is not None and record.get("strata") is not None:
        got = strata_pairs(record["strata"])
        if got != [list(s) for s in strata]:
            return f"strata {got}, declared {[list(s) for s in strata]}"
    return None


def blocks_mismatch(blocks, v_basis: np.ndarray, cosines) -> str | None:
    """Independent check of a factorization into 4-dimensional blocks."""
    k = v_basis.shape[1]
    if len(blocks) != k // 4:
        return f"{len(blocks)} blocks, declared {k // 4}"
    bases = [np.asarray(b.basis) for b in blocks]
    if any(b.shape != (v_basis.shape[0], 4) for b in bases):
        return "a block is not 4-dimensional"
    proj = sum(b @ b.T for b in bases)
    if np.max(np.abs(proj - v_basis @ v_basis.T)) > BLOCK_TOL:
        return "blocks do not span V"
    for a in range(len(bases)):
        for c in range(a + 1, len(bases)):
            images = [bases[c]] + [_right_mult(u, bases[c]) for u in range(3)]
            if max(np.max(np.abs(bases[a].T @ m)) for m in images) > BLOCK_TOL:
                return f"blocks {a} and {c} are not H-orthogonal"
    want = np.sort(np.asarray(cosines, dtype=float) ** 2)[::-1]
    for idx, b in enumerate(bases):
        for coeff in (np.array([1.0, 0.0, 0.0, 0.0]), np.full(4, 0.5)):
            v = b @ coeff
            w = np.stack([b.T @ _right_mult(u, v[:, None])[:, 0] for u in range(3)])
            lams = np.sort(np.linalg.eigvalsh(w @ w.T))[::-1]
            if np.max(np.abs(lams - want)) > COS_TOL:
                return f"block {idx} has squared cosines {np.round(lams, 8).tolist()}"
    return None


def cli_payload(result) -> tuple[dict | None, str | None]:
    """The JSON a CLI call printed, from its (returncode, stdout, stderr).

    Raises Refused on a nonzero exit; returns a reason when a zero exit
    printed something that is not JSON.
    """
    code, out, err = result
    if code != 0:
        tail = err.strip().splitlines()[-1] if err.strip() else ""
        raise Refused(f"exited {code}: {tail}")
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"printed invalid JSON: {exc}"
