"""Real subspaces of H^n and their quaternionic Kahler angles.

The angle data of a subspace V is read off the 3x3 Kahler angle matrix
``Omega(v)_ij = <P_i v, P_j v>`` with ``P_i = pi_V J_i``: its eigenvalues are
the squared cosines of the angles of v, and V has constant angle exactly
when Omega is isospectral over the unit sphere of V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .moduli import AngleTriple
from .quaternion import (
    STANDARD_BASIS,
    CanonicalBasis,
    GroupElement,
    _coords,
    _real_array,
)

__all__ = [
    "NumericalFailure",
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

# Tolerances: two orders above accumulated round-off at n <= 64.
ORTHONORMALITY_TOL = 1e-10
MEMBERSHIP_RTOL = 1e-9
CONSTANCY_TOL = 1e-8
RANK_RTOL = 1e-8
# Largest entry of Pbar^T Pbar - I (and of Pbar^2 + I) accepted for Pbar_i to
# be an orthogonal complex structure on V.
COMPLEX_STRUCTURE_TOL = 1e-9
_NOT_COMPLEX_STRUCTURE = (
    "restriction of pbar is not an orthogonal complex structure "
    "(subspace not invariant at this angle)"
)


class NumericalFailure(RuntimeError):
    """An internal numerical consistency check failed."""


@dataclass(frozen=True)
class ConstancyReport:
    """The Kahler angle spectrum over the unit sphere: its triple, its largest
    spread and the number of points it was read at (0 for the exact bound).

    ``constant`` is True or False when the spread decides, and None when
    nothing does (no certificate and no witness, never in dimension 3);
    ``gate`` then names the gates that left it undecided, and ``max_spread``
    is the largest spread seen, a lower bound only.
    """

    triple: AngleTriple
    max_spread: float
    samples: int
    constant: bool | None
    gate: str = ""


class Subspace:
    """A real subspace of H^n given by an orthonormal basis matrix (4n x k)."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        basis = _real_array(basis, "basis")
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

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def contains(self, v) -> bool:
        """Scale-free membership: ||v - pi_V v|| <= MEMBERSHIP_RTOL ||v||."""
        c = _coords(v, self.n)
        resid = c - self.basis @ (self.basis.T @ c)
        return bool(np.linalg.norm(resid) <= MEMBERSHIP_RTOL * np.linalg.norm(c))

    def transformed(self, t: GroupElement) -> "Subspace":
        """The image subspace under a group element (an isometry)."""
        if t.n != self.n:
            raise ValueError("dimension mismatch")
        return Subspace(t.apply_coords(self.basis))

    def __repr__(self) -> str:
        return f"Subspace(n={self.n}, k={self.k})"


def from_spanning(vectors) -> Subspace:
    """Orthonormalize a spanning set into a Subspace.

    Raises if an entry is not finite, or if the vectors are numerically
    dependent (smallest singular value of the stacked matrix at most 1e-10).
    """
    if not vectors:
        raise ValueError("need at least one spanning vector")
    cols = [_coords(v, name="vectors") for v in vectors]
    if len({c.size for c in cols}) != 1:
        raise ValueError("spanning vectors have mixed ambient dimensions")
    a = np.column_stack(cols)
    if not np.all(np.isfinite(a)):
        raise ValueError("spanning vectors have non-finite entries")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 1e-10:
        raise ValueError(
            f"rank-deficient spanning set (smallest singular value {sv[-1]:.2e})"
        )
    return Subspace(np.linalg.qr(a)[0])


def p_operator(v_space: Subspace, i: int, basis: CanonicalBasis = STANDARD_BASIS) -> np.ndarray:
    """The operator P_i = pi_V J_i as a 4n x 4n matrix."""
    jmat = basis.operator(i, v_space.n)
    return v_space.projector() @ jmat


def _w_at(w: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """W x at every column x of ``coeffs`` (k, m), shaped (m, 3, k): row a is
    W_a x, the V coordinates of P_a v for v = B x.  The one place W x is
    formed: Omega(B x) = (W x)(W x)^T, and the rank of W x is the rank of
    the tangent distribution."""
    return np.einsum("apq,qm->map", w, coeffs)


def _omega_batch(v_space: Subspace, coeffs: np.ndarray, basis: CanonicalBasis) -> np.ndarray:
    """Omega matrices for vectors B @ coeffs, returned as (m, 3, 3).

    Omega(v)_ij = (W'_i c) . (W'_j c) for v = B c, with W'_a = sum_b R_ab W_b
    the restricted structure in the canonical basis R (W from
    `_slot_structure`), so it needs no product in R^{4n} per sample.
    """
    w = _slot_structure(v_space)
    wx = _w_at((basis.rotation @ w.reshape(3, -1)).reshape(w.shape), coeffs)
    return wx @ wx.transpose(0, 2, 1)


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


def _rotation_from_columns(cols: np.ndarray) -> np.ndarray:
    """The rotation whose row a is the a-th orthonormal column direction,
    the last one flipped when that makes the determinant +1.  The sign of
    the determinant (+-1) is that of the triple product of its rows."""
    cols = cols.copy()
    (a, b, c), (d, e, f), (g, h, i) = cols.tolist()
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) < 0:
        cols[:, 2] *= -1.0
    return cols.T


def _basis_from_columns(cols: np.ndarray) -> CanonicalBasis:
    """Build a canonical basis whose J_a is the a-th column direction."""
    return CanonicalBasis(_rotation_from_columns(cols))


@dataclass(frozen=True)
class _ExactStructure:
    """The Omega data of V over its whole unit sphere, without sampling.

    Omega(B x)_ab = x^T S_ab x with S_ab = sym(W_a^T W_b).  The mean of
    Omega over the sphere is G_ab = tr(S_ab) / k; its eigenvectors, for
    descending eigenvalues c, are the rows of the candidate canonical basis
    R, and W'_a = sum_b R_ab W_b is the restricted structure in that basis.
    ``residual`` is (sum_ab ||S'_ab - delta_ab c_a I||_F^2)^(1/2).  For every
    unit x, ||Omega'(x) - diag(c)|| <= residual, so the sorted angle
    spectrum stays within residual of c and 2 * residual is a proven bound
    on its spread over the whole sphere.  The residual vanishes exactly when
    R is a common canonical basis.

    ``square_gap`` holds u_a = max|W'_a^T W'_a - c_a I|, the largest entry of
    the diagonal term of the residual.  Pbar_a = W'_a / cos(phi_a) has
    Pbar_a^T Pbar_a - I = (W'_a^T W'_a - c_a I) / c_a, and W'_a is
    antisymmetric, so Pbar_a^2 + I = -(Pbar_a^T Pbar_a - I): u_a / c_a is the
    largest entry of both, the one Pbar gate (`classify._Analysis._gated_cos`).
    ``cross12`` holds X_12 = W'_1^T W'_2, the residual's first cross product,
    from which the block type reads its sign operator: W'_1 is antisymmetric,
    so Pbar_1 Pbar_2 = -X_12 / (cos(phi1) cos(phi2)).
    """

    rotation: np.ndarray  # (3, 3) R, row a holding J'_a in the standard triple
    cos2: np.ndarray  # (3,) c, descending
    w_canonical: np.ndarray  # (3, k, k) W'_a
    residual: float
    square_gap: np.ndarray  # (3,) u_a
    cross12: np.ndarray  # (k, k) X_12

    @property
    def triple(self) -> AngleTriple:
        return AngleTriple.from_cos2_eigenvalues(self.cos2.tolist())


def _slot_structure(v_space: Subspace) -> np.ndarray:
    """W = B^T J B in the standard triple from the slot cross-Grams, (3, k, k).

    With B_u (n x k) the rows of B holding real axis u of every slot, and
    C_uv = B_u^T B_v, the triple (R_i, R_j, -R_k) pairs the slot axes as
    R_i (0,1)(2,3), R_j (0,2)(1,3) and -R_k (0,3)(1,2), so W_a = E_a - E_a^T
    with E_1 = C_23 - C_01, E_2 = -C_02 - C_13 and E_3 = C_03 - C_12.  The
    six C_uv come from three products of strided views of B, with no
    4n-length temporary, and every W_a is exactly antisymmetric.  The three
    E_a are combined in place in one (3, k, k) array, which one batched
    subtraction antisymmetrizes.  E_2 is the exact negation of C_02 + C_13,
    and -a - (-b) rounds as b - a, signed zeros included.
    """
    n, k = v_space.n, v_space.k
    b = v_space.basis.reshape(n, 4, k)
    c0 = b[:, 0].T @ b[:, 1:].reshape(n, 3 * k)  # [C_01 C_02 C_03]
    c1 = b[:, 1].T @ b[:, 2:].reshape(n, 2 * k)  # [C_12 C_13]
    e = np.empty((3, k, k))
    np.matmul(b[:, 2].T, b[:, 3], out=e[0])  # C_23
    e[0] -= c0[:, :k]
    np.add(c0[:, k:2 * k], c1[:, k:], out=e[1])
    np.negative(e[1], out=e[1])
    np.subtract(c0[:, 2 * k:], c1[:, :k], out=e[2])
    return e - e.transpose(0, 2, 1)


def _exact_structure(w: np.ndarray) -> _ExactStructure:
    """Build the exact structure (the frame) of V from W (one 3x3 eigh).

    W'_a is antisymmetric, to the bit: the rotation sums each entry and its
    mirror alike from the exactly antisymmetric W_b (the tests pin this).
    So W'_a^T W'_a = -W'_a W'_a, and W'_a^T W'_b = -W'_a W'_b = -(W'_b W'_a)^T:
    the frame takes three products, none with a transposed operand.  The
    batch W'_a W'_a gives the diagonal terms ||W'_a^T W'_a - c_a I||^2 of the
    residual, and their largest entries as ``square_gap``; that one product
    gates both Pbar_a^T Pbar_a = I and Pbar_a^2 = -I, and the analysis forms
    neither again.  [W'_2; W'_3] W'_1, one (2k x k) product, and W'_3 W'_2
    give the cross terms 2 ||sym(W'_a^T W'_b)||^2 for a < b (the (b, a)
    term is its transpose), and X_12 = W'_1^T W'_2 = -(W'_2 W'_1)^T as
    ``cross12``.  Every sign is an exact negation.  The squares are summed
    by numpy, not by a BLAS dot, whose split of a long sum across threads
    would make the last bits follow the thread count.
    """
    k = w.shape[-1]
    flat = w.reshape(3, -1)
    gram = flat @ flat.T / k  # tr(W_a^T W_b) / k
    cos2, vecs = _descending_eigh(gram)
    rotation = _rotation_from_columns(vecs)
    wc = (rotation @ flat).reshape(3, k, k)
    d = wc @ wc  # -W'_a^T W'_a
    d.reshape(3, -1)[:, ::k + 1] += cos2[:, None]  # -(W'_a^T W'_a - c_a I)
    np.abs(d, out=d)  # square_gap reads |d|
    square_gap = d.max(axis=(1, 2))
    total = float(np.square(d, out=d).sum())  # no BLAS dot: see the docstring
    cross = np.empty((3, k, k))  # W'_2 W'_1, W'_3 W'_1, W'_3 W'_2
    np.matmul(wc[1:].reshape(2 * k, k), wc[0], out=cross[:2].reshape(2 * k, k))
    np.matmul(wc[2], wc[1], out=cross[2])
    sym = np.add(cross, cross.transpose(0, 2, 1), out=d)  # -2 sym(W'_a^T W'_b)
    total += 0.5 * float(np.square(sym, out=sym).sum())
    return _ExactStructure(rotation=rotation, cos2=cos2, w_canonical=wc,
                           residual=math.sqrt(total), square_gap=square_gap,
                           cross12=np.negative(cross[0].T))


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
    return AngleTriple.from_cos2_eigenvalues(lams.tolist()), basis


def _sample_coeffs(k: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vectors of V in basis coordinates (normalized Gaussians)."""
    c = rng.standard_normal((k, samples))
    return c / np.linalg.norm(c, axis=0)


def constancy_check(
    v_space: Subspace,
    samples: int = 500,
    seed: int = 0,
) -> ConstancyReport:
    """Sample the sphere of V and compare sorted Omega spectra.

    Reports the angle triple of the first sample and the largest deviation
    of the sorted squared-cosine eigenvalues across all samples.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    return _spectrum_report(_slot_structure(v_space), _sample_coeffs(v_space.k, samples, rng))


def _spectrum_report(w: np.ndarray, coeffs: np.ndarray) -> ConstancyReport:
    """The triple at the first column x of ``coeffs`` and the largest spread
    of the sorted squared-cosine spectra of Omega(B x) over all columns, from
    W (3, k, k): one batched eigvalsh."""
    wx = _w_at(w, coeffs)
    lams = np.linalg.eigvalsh(wx @ wx.transpose(0, 2, 1))
    spread = float(np.max(lams.max(axis=0) - lams.min(axis=0)))
    triple = AngleTriple.from_cos2_eigenvalues(lams[0, ::-1].tolist())
    return ConstancyReport(triple=triple, max_spread=spread, samples=len(lams),
                           constant=spread <= CONSTANCY_TOL)


def _witness_report(w: np.ndarray) -> ConstancyReport:
    """Constancy from W = B^T J B alone: exact in dimension 3, elsewhere a
    witnessed "no" or undecided.

    tr Omega(B x) = sum_a |W_a x|^2 = x^T M x with M = sum_a W_a^T W_a, so
    the unit eigenvectors of M are the critical points of the trace of Omega
    on the unit sphere of V, its extremes among them.

    In dimension 3, W_a x = w_a x x for the rows w_a of a 3 x 3 matrix A, so
    Omega(B x) = A A^T - (A x)(A x)^T and M = T I - A^T A, T = tr M / 2.
    The eigenvalues of A^T A are l_a = T - mu_a for the ascending mu of M,
    the eigenvectors of M give (l_2, l_3, 0), (l_1, l_3, 0), (l_1, l_2, 0),
    and rank-one interlacing puts every other unit x between them.  So one
    eigvalsh of M gives the spread over the whole sphere, max(mu_2 - mu_1,
    mu_3 - mu_2), and the squared cosines (T - mu_2, T - mu_3, 0) of the
    first point, with no Omega formed.  A constant angle (A = cos(phi) Q, Q
    orthogonal) reports (phi, phi, pi/2), cos(phi)^2 = T / 3 = tr G / 2.

    Elsewhere Omega is read at the k eigenvectors of M (one eigh of M, one
    batched eigvalsh of Omega in `_spectrum_report`), and when they do not
    spread (M a multiple of I, say, as on a sum of two v3 in a basis along
    the summands) also at the k (k - 1) / 2 normalized sums of two of them.  A sorted spread
    beyond CONSTANCY_TOL between real unit vectors of V proves that the
    angle is not constant, with no seed involved.  No such spread proves
    nothing: ``constant`` is then None, and ``gate`` names this witness (the
    caller adds that the exact bound 2 * residual certified nothing either).
    """
    k = w.shape[-1]
    stacked = w.reshape(3 * k, k)  # [W_1; W_2; W_3], so M = stacked^T stacked
    m = stacked.T @ stacked
    if k == 3:
        mu = np.linalg.eigvalsh(m).tolist()
        spread = max(mu[1] - mu[0], mu[2] - mu[1])
        t = float(np.vdot(w, w)) / 2.0  # tr M / 2
        cos2 = (t / 3.0, t / 3.0) if spread <= CONSTANCY_TOL else (t - mu[1], t - mu[2])
        triple = AngleTriple.from_cos2_eigenvalues((*cos2, 0.0))
        return ConstancyReport(triple, spread, 3, spread <= CONSTANCY_TOL)
    points = np.linalg.eigh(m)[1]  # the unit eigenvectors of M, as columns
    report = _spectrum_report(w, points)
    if report.constant:
        i, j = np.triu_indices(k, 1)
        points = np.concatenate([points, (points[:, i] + points[:, j]) / math.sqrt(2.0)], axis=1)
        report = _spectrum_report(w, points)
    if not report.constant:
        return report
    gate = (f"constancy undecided: the sorted Omega spectra at {report.samples} witness "
            f"points spread {report.max_spread:.2e} <= CONSTANCY_TOL {CONSTANCY_TOL:.0e}")
    return replace(report, constant=None, gate=gate)


def _joint_offdiag_mass(mats: np.ndarray) -> float:
    off = mats.copy()
    off[:, np.arange(3), np.arange(3)] = 0.0
    return float(np.sum(off**2))


def _jacobi_joint_diagonalize(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal approximate joint diagonalization of symmetric 3x3 matrices.

    Cyclic Jacobi sweeps over the three Givens angles, each chosen to
    minimize the off-diagonal mass of the pair (Cardoso-Souloumiac angle).
    Stops when a sweep decreases the mass by less than 1e-14, or after 200
    sweeps.
    """
    m = mats.copy()
    rot = np.eye(3)
    mass = _joint_offdiag_mass(m)
    for _ in range(200):
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
        if mass - new_mass < 1e-14:
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
    basis exists.  The classification reads the basis from the sampling-free
    structure of W = B^T J B instead; this sampled route is kept as an
    independent reference for it.
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
    c: float,
) -> np.ndarray:
    """The normalized operator Pbar_i = P_i / c restricted to V, at the cosine
    c = cos(phi_i) of the angle (`AngleTriple.cos_tuple`).

    Returned as a k x k matrix in the coordinates of the basis of V.  Raises
    at c = 0 (the normalization is singular) or when the restriction fails
    to be an orthogonal complex structure, which signals that V is not
    invariant under Pbar_i.  This is the direct reference for the gate that
    the analysis reads off the exact structure (`classify._Analysis._gated_cos`).
    """
    if abs(c) <= 1e-12:
        raise ValueError("pbar is undefined at phi = pi/2")
    b = v_space.basis
    return _complex_structure((b.T @ basis.apply(i, b)) / c)


def _complex_structure(m: np.ndarray) -> np.ndarray:
    """Return the k x k matrix m after checking m^T m = I and m^2 = -I."""
    eye = np.eye(m.shape[0])
    if (np.max(np.abs(m.T @ m - eye)) > COMPLEX_STRUCTURE_TOL
            or np.max(np.abs(m @ m + eye)) > COMPLEX_STRUCTURE_TOL):
        raise NumericalFailure(_NOT_COMPLEX_STRUCTURE)
    return m


def distribution_rank(v_space: Subspace, samples: int = 24, seed: int = 0) -> int:
    """Rank of the tangent distribution spanned by {P_J v : J}.

    Computed as the numerical rank of [P_1 v, P_2 v, P_3 v] at sampled unit
    vectors v = B x, taken in V coordinates as the 3 x k matrix with rows
    W_a x (`_w_at`), which has the same singular values; for a
    constant-angle subspace it is constant and equals the number of angles
    different from pi/2.  Raises if the rank varies across samples.
    """
    rng = np.random.default_rng(seed)
    wx = _w_at(_slot_structure(v_space), _sample_coeffs(v_space.k, samples, rng))
    sv = np.linalg.svd(wx, compute_uv=False)  # (samples, min(k, 3)), descending
    per_sample = np.sum(sv > RANK_RTOL * np.maximum(sv[:, :1], 1.0), axis=1)
    ranks = sorted(set(per_sample.tolist()))
    if len(ranks) > 1:
        raise NumericalFailure(
            f"distribution rank varies across samples: {ranks} "
            "(subspace does not have constant angle)"
        )
    return ranks[0]


def is_h_orthogonal(v_space: Subspace, w_space: Subspace) -> bool:
    """Whether V and W are orthogonal together with all images under J, each
    inner product within 1e-10."""
    if v_space.n != w_space.n:
        raise ValueError("dimension mismatch")
    bv, bw = v_space.basis, w_space.basis
    images = (STANDARD_BASIS.apply(i, bw) if i else bw for i in range(4))
    return all(np.max(np.abs(bv.T @ m)) <= 1e-10 for m in images)
