"""Real subspaces of H^n and their quaternionic Kahler angles.

The angle data of a subspace V is read off the 3x3 Kahler angle matrix
``Omega(v)_ij = <P_i v, P_j v>`` with ``P_i = pi_V J_i``: its eigenvalues are
the squared cosines of the angles of v, and V has constant angle exactly
when Omega is isospectral over the unit sphere of V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quaternion import STANDARD_BASIS, CanonicalBasis, GroupElement, HVector, _coords

__all__ = [
    "NumericalFailure",
    "AngleTriple",
    "ConstancyReport",
    "Subspace",
    "from_spanning",
    "p_operator",
    "omega",
    "vector_qka",
    "constancy_check",
    "joint_canonical_basis",
    "pbar_operator",
    "distribution_rank",
    "is_h_orthogonal",
]

HALF_PI = math.pi / 2.0

# Default tolerances: two orders above accumulated round-off at n <= 64.
ORTHONORMALITY_TOL = 1e-10
MEMBERSHIP_RTOL = 1e-9
CONSTANCY_TOL = 1e-8
RANK_RTOL = 1e-8


class NumericalFailure(RuntimeError):
    """An internal numerical consistency check failed."""


@dataclass(frozen=True)
class AngleTriple:
    """Sorted angles (phi1, phi2, phi3) with 0 <= phi1 <= phi2 <= phi3 <= pi/2."""

    phi1: float
    phi2: float
    phi3: float

    def __post_init__(self):
        a = (self.phi1, self.phi2, self.phi3)
        if not (-1e-12 <= a[0] and a[0] <= a[1] + 1e-12 and a[1] <= a[2] + 1e-12
                and a[2] <= HALF_PI + 1e-12):
            raise ValueError(f"angles must be sorted in [0, pi/2], got {a}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.phi1, self.phi2, self.phi3)

    def cosines(self) -> np.ndarray:
        return np.cos(np.array(self.as_tuple()))

    def cos2(self) -> np.ndarray:
        return self.cosines() ** 2

    @classmethod
    def from_cosines(cls, cosines) -> "AngleTriple":
        x = np.clip(np.asarray(cosines, dtype=float), 0.0, 1.0)
        x = np.sort(x)[::-1]  # descending cosines give ascending angles
        return cls(*np.arccos(x))

    @classmethod
    def from_cos2_eigenvalues(cls, lams) -> "AngleTriple":
        lams = np.clip(np.asarray(lams, dtype=float), 0.0, 1.0)
        return cls.from_cosines(np.sqrt(lams))

    def close_to(self, other: "AngleTriple", tol: float = 1e-8) -> bool:
        """Compare on cosines, the scale all region predicates use."""
        return bool(np.max(np.abs(self.cosines() - other.cosines())) <= tol)

    def __iter__(self):
        return iter(self.as_tuple())


@dataclass(frozen=True)
class ConstancyReport:
    """Result of sampling the Kahler angle spectrum over the unit sphere."""

    triple: AngleTriple
    max_spread: float
    samples: int
    constant: bool


class Subspace:
    """A real subspace of H^n given by an orthonormal basis matrix (4n x k)."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] % 4 != 0 or basis.shape[0] == 0:
            raise ValueError("basis must be a 4n x k matrix")
        k = basis.shape[1]
        if k == 0 or k > basis.shape[0]:
            raise ValueError("basis must have between 1 and 4n columns")
        # NaN fails every comparison, so the orthonormality gate below
        # cannot be trusted to reject it.
        if not np.all(np.isfinite(basis)):
            raise ValueError("basis has non-finite entries")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(k))) > ORTHONORMALITY_TOL:
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", basis)

    @property
    def n(self) -> int:
        return self.basis.shape[0] // 4

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    def project_coords(self, vecs: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ vecs)

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def contains(self, v, rtol: float = MEMBERSHIP_RTOL) -> bool:
        """Scale-free membership: ||v - pi_V v|| <= rtol ||v||."""
        c = _coords(v, self.n)
        return bool(np.linalg.norm(c - self.project_coords(c)) <= rtol * np.linalg.norm(c))

    def basis_vectors(self) -> list[HVector]:
        return [HVector(self.basis[:, j]) for j in range(self.k)]

    def transformed(self, t: GroupElement) -> "Subspace":
        """The image subspace under a group element (an isometry)."""
        if t.n != self.n:
            raise ValueError("dimension mismatch")
        return Subspace(t.apply_coords(self.basis))

    def __repr__(self) -> str:
        return f"Subspace(n={self.n}, k={self.k})"


def from_spanning(vectors, svtol: float = 1e-10) -> Subspace:
    """Orthonormalize a spanning set into a Subspace.

    Raises if the vectors are numerically dependent (smallest singular value
    of the stacked matrix at most ``svtol``).
    """
    if not vectors:
        raise ValueError("need at least one spanning vector")
    cols = [_coords(v) for v in vectors]
    sizes = {c.size for c in cols}
    if len(sizes) != 1:
        raise ValueError("spanning vectors have mixed ambient dimensions")
    a = np.column_stack(cols)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= svtol:
        raise ValueError(
            f"rank-deficient spanning set (smallest singular value {sv[-1]:.2e})"
        )
    q, r = np.linalg.qr(a)
    # QR of a full-rank matrix spans the same space; verify the residual.
    resid = np.max(np.abs(a - q @ (q.T @ a)))
    if resid > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise NumericalFailure(f"orthonormalization residual {resid:.2e}")
    return Subspace(q)


def p_operator(v_space: Subspace, i: int, basis: CanonicalBasis = STANDARD_BASIS) -> np.ndarray:
    """The operator P_i = pi_V J_i as a 4n x 4n matrix."""
    jmat = basis.operator(i, v_space.n)
    return v_space.projector() @ jmat


def _omega_batch(v_space: Subspace, coeffs: np.ndarray, basis: CanonicalBasis) -> np.ndarray:
    """Omega matrices for vectors B @ coeffs, returned as (m, 3, 3).

    With B the basis of V, the restricted structure W_i = B^T J_i B (k x k)
    gives P_i v in V coordinates as W_i c for v = B c, so
    Omega(v)_ij = (W_i c) . (W_j c) needs no product in R^{4n} per sample.
    """
    b = v_space.basis
    w = np.stack([b.T @ basis.apply(i, b) for i in (1, 2, 3)]) @ coeffs  # (3, k, m)
    wt = w.transpose(2, 0, 1)  # (m, 3, k)
    return wt @ wt.transpose(0, 2, 1)


def omega(v_space: Subspace, v, basis: CanonicalBasis = STANDARD_BASIS) -> np.ndarray:
    """The 3x3 Kahler angle matrix Omega(v)_ij = <P_i v, P_j v>.

    Requires a unit vector lying in the subspace.
    """
    c = _coords(v, v_space.n)
    if abs(np.linalg.norm(c) - 1.0) > 1e-12:
        raise ValueError("v must be a unit vector")
    if not v_space.contains(c):
        raise ValueError("v does not lie in the subspace")
    coeffs = v_space.basis.T @ c
    return _omega_batch(v_space, coeffs[:, None], basis)[0]


def _descending_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lams, vecs = np.linalg.eigh(mat)
    return lams[::-1], vecs[:, ::-1]


def _basis_from_columns(cols: np.ndarray) -> CanonicalBasis:
    """Build a canonical basis whose J_a is the a-th column direction."""
    cols = cols.copy()
    if np.linalg.det(cols) < 0:
        cols[:, 2] *= -1.0
    return CanonicalBasis(cols.T)


def vector_qka(v_space: Subspace, v) -> tuple[AngleTriple, CanonicalBasis]:
    """Angles of a single vector and a canonical basis diagonalizing them.

    The returned basis J satisfies <P_i v, P_j v> = 0 for i != j with the
    squared-cosine eigenvalues in descending order, so the angles come out
    ascending.  When eigenvalues repeat the basis is not unique; any
    diagonalizing choice is returned.
    """
    om = omega(v_space, v)
    lams, vecs = _descending_eigh(om)
    basis = _basis_from_columns(vecs)
    return AngleTriple.from_cos2_eigenvalues(lams), basis


def _sample_coeffs(k: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vectors of V in basis coordinates (normalized Gaussians)."""
    c = rng.standard_normal((k, samples))
    return c / np.linalg.norm(c, axis=0)


def constancy_check(
    v_space: Subspace,
    samples: int = 500,
    seed: int = 0,
    tol: float = CONSTANCY_TOL,
) -> ConstancyReport:
    """Sample the sphere of V and compare sorted Omega spectra.

    Reports the angle triple of the first sample and the largest deviation
    of the sorted squared-cosine eigenvalues across all samples.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    coeffs = _sample_coeffs(v_space.k, samples, rng)
    oms = _omega_batch(v_space, coeffs, STANDARD_BASIS)
    lams = np.linalg.eigvalsh(oms)  # ascending per sample
    spread = float(np.max(lams.max(axis=0) - lams.min(axis=0)))
    triple = AngleTriple.from_cos2_eigenvalues(lams[0, ::-1])
    return ConstancyReport(triple=triple, max_spread=spread, samples=samples,
                           constant=spread <= tol)


def _joint_offdiag_mass(mats: np.ndarray) -> float:
    off = mats.copy()
    off[:, np.arange(3), np.arange(3)] = 0.0
    return float(np.sum(off**2))


def _jacobi_joint_diagonalize(
    mats: np.ndarray, decrease_tol: float = 1e-14, max_sweeps: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal approximate joint diagonalization of symmetric 3x3 matrices.

    Cyclic Jacobi sweeps over the three Givens angles, each chosen to
    minimize the off-diagonal mass of the pair (Cardoso-Souloumiac angle).
    Stops when a sweep decreases the mass by less than ``decrease_tol``.
    """
    m = mats.copy()
    rot = np.eye(3)
    mass = _joint_offdiag_mass(m)
    for _ in range(max_sweeps):
        for p, q in ((0, 1), (0, 2), (1, 2)):
            d = m[:, p, p] - m[:, q, q]
            o = m[:, p, q] + m[:, q, p]
            ton = d @ d - o @ o
            toff = 2.0 * (d @ o)
            theta = 0.5 * math.atan2(toff, ton + math.hypot(ton, toff))
            c, s = math.cos(theta), math.sin(theta)
            if abs(s) < 1e-300:
                continue
            g = np.eye(3)
            g[p, p] = g[q, q] = c
            g[p, q] = -s
            g[q, p] = s
            m = g.T @ m @ g
            rot = rot @ g
        new_mass = _joint_offdiag_mass(m)
        if mass - new_mass < decrease_tol:
            mass = new_mass
            break
        mass = new_mass
    return rot, m


def joint_canonical_basis(
    v_space: Subspace, samples: int = 100, seed: int = 0
) -> tuple[CanonicalBasis, float]:
    """A canonical basis approximately diagonalizing Omega over all of V.

    Joint-diagonalizes sampled Omega matrices in the standard basis and
    returns the rotation minimizing the total squared off-diagonal mass,
    together with the attained root-mean-square residual per sample.  A
    large residual is a valid result: it certifies that no common canonical
    basis exists.
    """
    rng = np.random.default_rng(seed)
    coeffs = _sample_coeffs(v_space.k, samples, rng)
    oms = _omega_batch(v_space, coeffs, STANDARD_BASIS)
    rot, diag = _jacobi_joint_diagonalize(oms)
    residual = math.sqrt(_joint_offdiag_mass(diag) / samples)
    order = np.argsort(-np.mean(diag[:, np.arange(3), np.arange(3)], axis=0))
    return _basis_from_columns(rot[:, order]), residual


def pbar_operator(
    v_space: Subspace,
    basis: CanonicalBasis,
    i: int,
    phi: float,
    tol: float = 1e-9,
) -> np.ndarray:
    """The normalized operator Pbar_i = P_i / cos(phi_i) restricted to V.

    Returned as a k x k matrix in the coordinates of the basis of V.  Raises
    when phi = pi/2 (the normalization is singular) or when the restriction
    fails to be an orthogonal complex structure, which signals that V is not
    invariant under Pbar_i.
    """
    c = math.cos(phi)
    if abs(c) <= 1e-12:
        raise ValueError("pbar is undefined at phi = pi/2")
    b = v_space.basis
    m = (b.T @ basis.apply(i, b)) / c
    k = v_space.k
    if np.max(np.abs(m.T @ m - np.eye(k))) > tol or np.max(np.abs(m @ m + np.eye(k))) > tol:
        raise NumericalFailure(
            "restriction of pbar is not an orthogonal complex structure "
            "(subspace not invariant at this angle)"
        )
    return m


def distribution_rank(v_space: Subspace, samples: int = 24, seed: int = 0) -> int:
    """Rank of the tangent distribution spanned by {P_J v : J}.

    Computed as the numerical rank of the 4n x 3 matrix [P_1 v, P_2 v, P_3 v]
    at sampled unit vectors; for a constant-angle subspace it is constant and
    equals the number of angles different from pi/2.  Raises if the rank
    varies across samples.
    """
    rng = np.random.default_rng(seed)
    coeffs = _sample_coeffs(v_space.k, samples, rng)
    x = v_space.basis @ coeffs
    proj = v_space.projector()
    ranks = set()
    for s in range(samples):
        cols = np.column_stack(
            [proj @ STANDARD_BASIS.apply(i, x[:, s]) for i in (1, 2, 3)]
        )
        sv = np.linalg.svd(cols, compute_uv=False)
        ranks.add(int(np.sum(sv > RANK_RTOL * max(sv[0], 1.0))))
        if len(ranks) > 1:
            raise NumericalFailure(
                f"distribution rank varies across samples: {sorted(ranks)} "
                "(subspace does not have constant angle)"
            )
    return ranks.pop()


def is_h_orthogonal(v_space: Subspace, w_space: Subspace, tol: float = 1e-10) -> bool:
    """Whether V and W are orthogonal together with all images under J."""
    if v_space.n != w_space.n:
        raise ValueError("dimension mismatch")
    bv, bw = v_space.basis, w_space.basis
    if np.max(np.abs(bv.T @ bw)) > tol:
        return False
    for i in (1, 2, 3):
        if np.max(np.abs(bv.T @ STANDARD_BASIS.apply(i, bw))) > tol:
            return False
    return True
