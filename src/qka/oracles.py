"""Independent brute-force validators used by the test suite.

These deliberately avoid the code paths they certify: eigenvalues of 3x3
symmetric matrices come from the trigonometric closed form rather than the
LAPACK path used by the angle machinery, and positive semidefiniteness is
double-checked against the principal-minor criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import gram_matrix
from .quaternion import random_group_element
from .subspace import AngleTriple, NumericalFailure, Subspace, distribution_rank
from .quaternion import STANDARD_BASIS

__all__ = [
    "GridSpec",
    "closed_form_eigvals",
    "psd_oracle",
    "psd_oracle_batch",
    "det_closed_form",
    "det_formula_check",
    "gram_grid_sweep",
    "invariance_oracle",
    "steenrod_allows",
    "steenrod_oracle",
]

PSD_TOL = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """A cosine-grid sweep configuration."""

    resolution: int = 50
    tolerance: float = PSD_TOL
    seed: int = 0

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("grid resolution must be at least 2")

    def sorted_cosine_triples(self, top: float = 0.98) -> np.ndarray:
        """All grid triples with x1 >= x2 >= x3 in [0, top]^3."""
        axis = np.linspace(0.0, top, self.resolution)
        x1, x2, x3 = np.meshgrid(axis, axis, axis, indexing="ij")
        mask = (x1 >= x2) & (x2 >= x3)
        return np.stack([x1[mask], x2[mask], x3[mask]], axis=1)


def closed_form_eigvals(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric 3x3 matrices by the trigonometric formula.

    Accepts a single matrix or a batch (..., 3, 3); returns eigenvalues in
    descending order along the last axis.
    """
    a = np.asarray(mats, dtype=float)
    single = a.ndim == 2
    if single:
        a = a[None]
    d = a[..., np.arange(3), np.arange(3)]
    q = d.sum(axis=-1) / 3.0
    p1 = a[..., 0, 1] ** 2 + a[..., 0, 2] ** 2 + a[..., 1, 2] ** 2
    p2 = ((d - q[..., None]) ** 2).sum(axis=-1) + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    safe = np.where(p > 0.0, p, 1.0)
    b = (a - q[..., None, None] * np.eye(3)) / safe[..., None, None]
    detb = (
        b[..., 0, 0] * (b[..., 1, 1] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 1])
        - b[..., 0, 1] * (b[..., 1, 0] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 0])
        + b[..., 0, 2] * (b[..., 1, 0] * b[..., 2, 1] - b[..., 1, 1] * b[..., 2, 0])
    )
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    out = np.stack([e1, e2, e3], axis=-1)
    # p == 0 means the matrix is already diagonal
    diag_sorted = -np.sort(-d, axis=-1)
    out = np.where((p > 0.0)[..., None], out, diag_sorted)
    return out[0] if single else out


def _principal_minors(m: np.ndarray) -> np.ndarray:
    """All seven principal minors of a symmetric 3x3 matrix."""
    det2 = lambda i, j: m[i, i] * m[j, j] - m[i, j] * m[j, i]
    det3 = (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )
    return np.array([m[0, 0], m[1, 1], m[2, 2],
                     det2(0, 1), det2(0, 2), det2(1, 2), det3])


def psd_oracle(m, tol: float = PSD_TOL) -> tuple[bool, int | None]:
    """Positive semidefiniteness and rank of a symmetric 3x3 matrix.

    Decided by closed-form eigenvalues and cross-checked against the
    principal-minor criterion; a disagreement raises, since it signals a
    tolerance misconfiguration rather than an answer.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or np.max(np.abs(m - m.T)) > 1e-12:
        raise ValueError("expected a symmetric 3x3 matrix")
    lams = closed_form_eigvals(m)
    psd_eig = bool(lams[-1] >= -tol)
    psd_minor = bool(np.min(_principal_minors(m)) >= -tol)
    if psd_eig != psd_minor:
        raise NumericalFailure(
            f"eigenvalue and principal-minor criteria disagree (lams={lams}, "
            f"minors min={np.min(_principal_minors(m)):.2e})"
        )
    if not psd_eig:
        return False, None
    return True, int(np.sum(lams > tol))


def psd_oracle_batch(mats: np.ndarray, tol: float = PSD_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized psd_oracle over a batch (m, 3, 3) of symmetric matrices.

    Returns boolean psd flags and integer ranks (ranks are meaningful only
    where psd holds).  Raises on any eigenvalue/minor disagreement.
    """
    m = np.asarray(mats, dtype=float)
    lams = closed_form_eigvals(m)
    psd_eig = lams[:, -1] >= -tol
    d = m[:, np.arange(3), np.arange(3)]
    det2_01 = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    det2_02 = m[:, 0, 0] * m[:, 2, 2] - m[:, 0, 2] * m[:, 2, 0]
    det2_12 = m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1]
    det3 = (
        m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
        - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
        + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
    )
    minors_min = np.min(
        np.stack([d[:, 0], d[:, 1], d[:, 2], det2_01, det2_02, det2_12, det3], axis=1),
        axis=1,
    )
    psd_minor = minors_min >= -tol
    if np.any(psd_eig != psd_minor):
        idx = int(np.argmax(psd_eig != psd_minor))
        raise NumericalFailure(
            f"eigenvalue and principal-minor criteria disagree at batch index {idx}"
        )
    return psd_eig, np.sum(lams > tol, axis=1)


def det_closed_form(cosines, sign: int) -> float:
    """The factored determinant of the Gram matrix in terms of cosines."""
    x1, x2, x3 = cosines
    e = float(sign)
    num = ((e + x1 - x2 - x3) * (-e + x1 + x2 - x3)
           * (-e + x1 - x2 + x3) * (e + x1 + x2 + x3))
    den = (1.0 - x1**2) * (1.0 - x2**2) * (1.0 - x3**2)
    return num / den


def det_formula_check(angles: AngleTriple, sign: int) -> float:
    """Deviation between det(gram) and its closed form; needs interior angles."""
    x = angles.cosines()
    if np.any(x <= 1e-12) or np.any(x >= 1.0 - 1e-12):
        raise ValueError("the closed form needs angles strictly inside (0, pi/2)")
    return float(abs(np.linalg.det(gram_matrix(angles, sign)) - det_closed_form(x, sign)))


def _gram_batch(xs: np.ndarray, sign: int) -> np.ndarray:
    s = np.sqrt(1.0 - xs**2)
    g = np.tile(np.eye(3), (len(xs), 1, 1))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        val = (sign * xs[:, k] - xs[:, i] * xs[:, j]) / (s[:, i] * s[:, j])
        g[:, i, j] = g[:, j, i] = val
    return g


def gram_grid_sweep(spec: GridSpec) -> dict:
    """Sweep both Gram signs over a cosine grid and tally every cross-check.

    Compares the eigenvalue psd oracle against the closed-form inequality
    (with rank 2 exactly on its boundary) and the numerical determinant
    against the factored closed form on the interior points.
    """
    xs = spec.sorted_cosine_triples()
    out = {"points": 2 * len(xs), "psd_disagreements": 0, "rank_mismatches": 0,
           "det_deviation": 0.0}
    interior = xs[np.all((xs > 0.02) & (xs < 0.97), axis=1)]
    for sign in (1, -1):
        grams = _gram_batch(xs, sign)
        psd, rank = psd_oracle_batch(grams, spec.tolerance)
        margin = xs[:, 0] + xs[:, 1] - sign * xs[:, 2] - 1.0
        formula = margin <= spec.tolerance
        out["psd_disagreements"] += int(np.sum(psd != formula))
        boundary = np.abs(margin) <= spec.tolerance
        out["rank_mismatches"] += int(np.sum(rank[psd & boundary] != 2))
        out["rank_mismatches"] += int(np.sum(rank[psd & ~boundary] != 3))
        if len(interior):
            dets = np.linalg.det(_gram_batch(interior, sign))
            closed = np.array([det_closed_form(x, sign) for x in interior])
            out["det_deviation"] = max(out["det_deviation"],
                                       float(np.max(np.abs(dets - closed))))
    return out


def _sorted_cos2_batch(v_space: Subspace, samples: int, rng) -> np.ndarray:
    """Sorted squared cosines at random unit vectors x of V, by brute force:
    Omega(x)_ij = <pi_V J_i x, pi_V J_j x> with the 4n x 4n projector pi_V."""
    c = rng.standard_normal((v_space.k, samples))
    x = v_space.basis @ (c / np.linalg.norm(c, axis=0))
    proj = v_space.projector()
    px = np.stack([proj @ STANDARD_BASIS.apply(i, x) for i in (1, 2, 3)])  # (3, 4n, m)
    oms = np.einsum("iam,jam->mij", px, px)
    return np.sort(np.linalg.eigvalsh(oms), axis=1)


def invariance_oracle(
    v_space: Subspace, trials: int = 100, seed: int = 0, vectors_per_trial: int = 6
) -> float:
    """Max deviation of the sorted squared cosines under random group elements."""
    rng = np.random.default_rng(seed)
    reference = _sorted_cos2_batch(v_space, 32, rng).mean(axis=0)
    worst = 0.0
    for t in range(trials):
        g = random_group_element(v_space.n, seed * 7919 + 2 * t + 1)
        moved = v_space.transformed(g)
        lams = _sorted_cos2_batch(moved, vectors_per_trial, rng)
        worst = max(worst, float(np.max(np.abs(lams - reference))))
    return worst


def steenrod_allows(k: int, triple: AngleTriple, tol: float = 1e-8) -> bool:
    """Whether a triple is possible for a constant-angle subspace of dim k.

    Encodes the sphere-distribution constraints: odd k other than 3 forces
    the totally real triple, k = 2 mod 4 forces (phi, pi/2, pi/2), and k = 3
    forces (phi, phi, pi/2).
    """
    c2 = triple.cos2()
    if k % 2 == 1 and k != 3:
        return bool(np.all(c2 <= tol))
    if k % 4 == 2:
        return bool(c2[1] <= tol and c2[2] <= tol)
    if k == 3:
        return bool(abs(c2[0] - c2[1]) <= tol and c2[2] <= tol)
    return True


def steenrod_oracle(v_space: Subspace, samples: int = 300, seed: int = 0) -> bool:
    """Dimension-dependent consistency of the triple and distribution rank."""
    from .subspace import constancy_check

    report = constancy_check(v_space, samples, seed)
    if not report.constant:
        raise ValueError("the oracle applies to constant-angle subspaces")
    triple = report.triple
    if not steenrod_allows(v_space.k, triple):
        return False
    expected_rank = int(np.sum(triple.cos2() > 1e-8))
    return distribution_rank(v_space, seed=seed) == expected_rank
