"""Quaternion arithmetic, vectors of H^n, canonical triples, and the
Sp(1)Sp(n) action.

H^n is a right quaternionic vector space identified with R^{4n} by storing
each quaternionic coordinate as four reals in (w, x, y, z) order.  The
quaternionic structure is the span of the right multiplications by i, j, k;
the *standard canonical triple* used throughout is

    J1 = R_i,   J2 = R_j,   J3 = -R_k,

where ``R_q v = v q``.  Right multiplications compose in reverse order
(``R_p R_q = R_{qp}``), so the minus sign on J3 is what makes the canonical
identity ``J1 J2 = J3`` hold literally.  Any other canonical basis is an
SO(3) rotation of this triple.

Indices of canonical bases and angles are 1-based (J1, J2, J3) to match the
usual notation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "HVector",
    "CanonicalBasis",
    "GroupElement",
    "STANDARD_BASIS",
    "quat_mul",
    "quat_conj",
    "right_mult",
    "apply_group",
    "induced_rotation",
    "random_unitary",
    "random_group_element",
]


def quat_mul(p, q):
    """Hamilton product of quaternions stored as (..., 4) arrays."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def quat_conj(q):
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def _left_matrix(q):
    """4x4 real matrix of p -> q p."""
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def _right_matrix(q):
    """4x4 real matrix of p -> p q."""
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, z, -y],
            [y, -z, w, x],
            [z, y, -x, w],
        ]
    )


_I = np.array([0.0, 1.0, 0.0, 0.0])
_J = np.array([0.0, 0.0, 1.0, 0.0])
_K = np.array([0.0, 0.0, 0.0, 1.0])

# Per-slot 4x4 blocks of the standard canonical triple (R_i, R_j, -R_k).
_STANDARD_BLOCKS = np.stack(
    [_right_matrix(_I), _right_matrix(_J), -_right_matrix(_K)]
)


@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + x i + y j + z k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*quat_mul(self.as_array(), other.as_array()))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return float(np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        a = np.asarray(a, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


def _as_quat_array(q) -> np.ndarray:
    if isinstance(q, Quaternion):
        return q.as_array()
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"expected a quaternion (4 reals), got shape {q.shape}")
    return q


class HVector:
    """A vector of H^n stored as 4n real coordinates.

    The real inner product is the R^{4n} dot product; quaternionic scalars
    act on the right, slot by slot.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float).ravel()
        if coords.size == 0 or coords.size % 4 != 0:
            raise ValueError("coordinate length must be a positive multiple of 4")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.size // 4

    def slots(self) -> np.ndarray:
        """View the coordinates as an (n, 4) array of quaternion slots."""
        return self.coords.reshape(self.n, 4)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def inner(self, other: "HVector") -> float:
        if other.coords.size != self.coords.size:
            raise ValueError("dimension mismatch")
        return float(self.coords @ other.coords)

    def right_mul(self, q) -> "HVector":
        """Right scalar multiplication v -> v q."""
        q = _as_quat_array(q)
        return HVector(quat_mul(self.slots(), q).ravel())

    def __add__(self, other: "HVector") -> "HVector":
        return HVector(self.coords + other.coords)

    def __sub__(self, other: "HVector") -> "HVector":
        return HVector(self.coords - other.coords)

    def __rmul__(self, scalar: float) -> "HVector":
        return HVector(float(scalar) * self.coords)

    def __repr__(self) -> str:
        return f"HVector(n={self.n})"

    @classmethod
    def axis(cls, slot: int, n: int) -> "HVector":
        """The real unit vector of the given quaternionic coordinate."""
        if not 0 <= slot < n:
            raise ValueError("slot out of range")
        c = np.zeros(4 * n)
        c[4 * slot] = 1.0
        return cls(c)


def _coords(v, n: int | None = None) -> np.ndarray:
    """Coerce an HVector or array-like to a flat (4n,) float array."""
    c = v.coords if isinstance(v, HVector) else np.asarray(v, dtype=float).ravel()
    if c.size % 4 != 0:
        raise ValueError("coordinate length must be a multiple of 4")
    if n is not None and c.size != 4 * n:
        raise ValueError(f"dimension mismatch: expected n={n}, got n={c.size // 4}")
    return c


class CanonicalBasis:
    """An ordered triple (J1, J2, J3) of the quaternionic structure.

    Stored as a 3x3 rotation whose row a gives the coefficients of J_a in
    the standard triple.  Every SO(3) matrix yields a canonical basis
    (Ji^2 = -Id and Ji J_{i+1} = J_{i+2}), and conversely.
    """

    __slots__ = ("rotation",)

    def __init__(self, rotation):
        rotation = np.asarray(rotation, dtype=float)
        if rotation.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if np.max(np.abs(rotation.T @ rotation - np.eye(3))) > 1e-10:
            raise ValueError("rotation is not orthogonal")
        if np.linalg.det(rotation) < 0:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", rotation)

    def block(self, i: int) -> np.ndarray:
        """The 4x4 per-slot block of J_i (i in {1, 2, 3})."""
        if i not in (1, 2, 3):
            raise ValueError("canonical basis index must be 1, 2 or 3")
        return np.tensordot(self.rotation[i - 1], _STANDARD_BLOCKS, axes=(0, 0))

    def apply(self, i: int, vecs: np.ndarray) -> np.ndarray:
        """Apply J_i to coordinates shaped (4n,) or (4n, m)."""
        b = self.block(i)
        flat = vecs.ndim == 1
        v = vecs[:, None] if flat else vecs
        n = v.shape[0] // 4
        out = np.einsum("ab,nbm->nam", b, v.reshape(n, 4, -1)).reshape(v.shape)
        return out[:, 0] if flat else out

    def operator(self, i: int, n: int) -> np.ndarray:
        """The 4n x 4n real matrix of J_i."""
        return np.kron(np.eye(n), self.block(i))

    def rotated(self, r) -> "CanonicalBasis":
        """The basis whose row a is r[a] expressed in this basis."""
        return CanonicalBasis(np.asarray(r, dtype=float) @ self.rotation)

    def __repr__(self) -> str:
        return f"CanonicalBasis(rotation={np.array2string(self.rotation, precision=4)})"


STANDARD_BASIS = CanonicalBasis(np.eye(3))


def right_mult(j, v: HVector, basis: CanonicalBasis = STANDARD_BASIS) -> HVector:
    """Apply an element of the quaternionic structure to v.

    ``j`` is either a canonical-basis index in {1, 2, 3} or a unit imaginary
    quaternion u, in which case the operator is the right multiplication
    R_u (independent of ``basis``).
    """
    c = _coords(v)
    if isinstance(j, (int, np.integer)):
        return HVector(basis.apply(int(j), c))
    q = _as_quat_array(j)
    if abs(q[0]) > 1e-12 or abs(np.linalg.norm(q[1:]) - 1.0) > 1e-12:
        raise ValueError("expected a unit imaginary quaternion")
    block = _right_matrix(q)
    n = c.size // 4
    return HVector((c.reshape(n, 4) @ block.T).ravel())


def _qmat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of quaternionic matrices stored as (n, m, 4) component arrays."""
    return quat_mul(a[:, :, None, :], b[None, :, :, :]).sum(axis=1)


def _qmat_dagger(a: np.ndarray) -> np.ndarray:
    return quat_conj(a).transpose(1, 0, 2)


class GroupElement:
    """An element (q, A) of Sp(1)Sp(n) acting by v -> A v q^{-1}.

    ``q`` is a unit quaternion and ``A`` an n x n quaternionic matrix with
    A* A = Id, stored as an (n, n, 4) component array.
    """

    __slots__ = ("q", "matrix")

    def __init__(self, q, matrix):
        q = _as_quat_array(q)
        if abs(np.linalg.norm(q) - 1.0) > 1e-12:
            raise ValueError("q must be a unit quaternion")
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 3 or matrix.shape[2] != 4 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be an (n, n, 4) quaternion array")
        n = matrix.shape[0]
        gram = _qmat_mul(_qmat_dagger(matrix), matrix)
        ident = np.zeros((n, n, 4))
        ident[np.arange(n), np.arange(n), 0] = 1.0
        if np.max(np.abs(gram - ident)) > 1e-10:
            raise ValueError("matrix is not quaternionic unitary (A* A != Id)")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        a = np.zeros((n, n, 4))
        a[np.arange(n), np.arange(n), 0] = 1.0
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), a)

    def apply_coords(self, vecs: np.ndarray) -> np.ndarray:
        """Apply to coordinates shaped (4n,) or (4n, m)."""
        flat = vecs.ndim == 1
        v = vecs[:, None] if flat else vecs
        n, m = self.n, v.shape[1]
        slots = v.reshape(n, 4, m).transpose(0, 2, 1)  # (n, m, 4)
        out = quat_mul(self.matrix[:, :, None, :], slots[None, :, :, :]).sum(axis=1)
        out = quat_mul(out, quat_conj(self.q))
        out = out.transpose(0, 2, 1).reshape(4 * n, m)
        return out[:, 0] if flat else out

    def compose(self, other: "GroupElement") -> "GroupElement":
        """The element acting as self after other."""
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return GroupElement(quat_mul(self.q, other.q),
                            _qmat_mul(self.matrix, other.matrix))

    def inverse(self) -> "GroupElement":
        return GroupElement(quat_conj(self.q), _qmat_dagger(self.matrix))

    def real_matrix(self) -> np.ndarray:
        """The 4n x 4n real matrix of the action."""
        n = self.n
        out = np.zeros((4 * n, 4 * n))
        rq = _right_matrix(quat_conj(self.q))
        for a in range(n):
            for b in range(n):
                out[4 * a:4 * a + 4, 4 * b:4 * b + 4] = _left_matrix(self.matrix[a, b]) @ rq
        return out

    def __repr__(self) -> str:
        return f"GroupElement(n={self.n})"


def apply_group(t: GroupElement, v: HVector) -> HVector:
    """Act by t on v, i.e. v -> A v q^{-1}."""
    return HVector(t.apply_coords(_coords(v, t.n)))


def induced_rotation(t: GroupElement) -> np.ndarray:
    """The SO(3) matrix R with T J_u T^{-1} = J_{Ru} for unit imaginary u.

    J_u denotes right multiplication by u, and R depends only on the
    Sp(1) component: u -> q u q(bar) on imaginary quaternions.
    """
    q = t.q
    cols = []
    for u in (_I, _J, _K):
        cols.append(quat_mul(quat_mul(q, u), quat_conj(q))[1:])
    return np.stack(cols, axis=1)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """A seeded random quaternionic unitary matrix as an (n, n, 4) array.

    Quaternionic Gram-Schmidt on a matrix of independent standard normal
    quaternions; deterministic for a fixed seed.  Each column is projected
    off all earlier columns at once, twice (classical Gram-Schmidt with
    reorthogonalization).
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n, 4))
    cols = np.zeros_like(m)
    for j in range(n):
        v = m[:, j]
        earlier = cols[:, :j]  # (n, j, 4)
        for _ in range(2):  # second pass tightens orthogonality
            c = quat_mul(quat_conj(earlier), v[:, None]).sum(axis=0)  # (j, 4)
            v = v - quat_mul(earlier, c).sum(axis=1)
        cols[:, j] = v / np.linalg.norm(v)
    return cols


def random_group_element(n: int, seed: int) -> GroupElement:
    """A seeded random element of Sp(1)Sp(n)."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return GroupElement(q, random_unitary(n, seed + 1))
