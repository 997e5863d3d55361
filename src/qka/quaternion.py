"""Quaternion arithmetic, vectors of H^n, canonical triples, and the
Sp(1)Sp(n) action.

H^n is a right quaternionic vector space identified with R^{4n} by storing
each quaternionic coordinate as four reals in (w, x, y, z) order: a
quaternion is a (4,) array and a vector of H^n a (4n,) array.  The
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

import numpy as np

__all__ = [
    "CanonicalBasis",
    "GroupElement",
    "STANDARD_BASIS",
    "quat_mul",
    "quat_conj",
    "right_mult",
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

# _left_matrix(e_t) for the units e_t = 1, i, j, k: L(x) = sum_t x_t _LEFT_UNITS[t].
_LEFT_UNITS = np.stack([_left_matrix(e) for e in np.eye(4)])


def _real_left(a: np.ndarray) -> np.ndarray:
    """The 4n x 4m real matrix L(A) of v -> A v for an (n, m, 4) array A.

    Block (a, b) is _left_matrix(A[a, b]), so column 4b + t holds the
    quaternionic column b of A times e_t, and L(A)^T = L(A*).
    """
    n, m = a.shape[:2]
    return np.einsum("abt,trc->arbc", a, _LEFT_UNITS).reshape(4 * n, 4 * m)


def _as_quat_array(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"expected a quaternion (4 reals), got shape {q.shape}")
    return q


def _real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array, not copied if it is one, refused by ``name``
    unless its dtype is real: the cast would drop an imaginary part or parse text."""
    if (a := np.asarray(value)).dtype.kind not in "fiu":
        raise ValueError(f"{name} must hold real numbers, got dtype {a.dtype}")
    return a.astype(float, copy=False)


def _coords(v, n: int | None = None, name: str = "v") -> np.ndarray:
    """Coerce an array-like vector of H^n to a flat (4n,) float array."""
    c = _real_array(v, name).ravel()
    if c.size == 0 or c.size % 4 != 0:
        raise ValueError("coordinate length must be a positive multiple of 4")
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
        if not np.isfinite(rotation).all():
            raise ValueError("rotation has non-finite entries")
        if np.max(np.abs(rotation.T @ rotation - np.eye(3))) > 1e-10:
            raise ValueError("rotation is not orthogonal")
        if np.linalg.det(rotation) < 0:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", rotation)

    def block(self, i: int) -> np.ndarray:
        """The 4x4 per-slot block of J_i (i in {1, 2, 3})."""
        if i not in (1, 2, 3):
            raise ValueError("canonical basis index must be 1, 2 or 3")
        return (self.rotation[i - 1] @ _STANDARD_BLOCKS.reshape(3, 16)).reshape(4, 4)

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

    def __repr__(self) -> str:
        return f"CanonicalBasis(rotation={np.array2string(self.rotation, precision=4)})"


STANDARD_BASIS = CanonicalBasis(np.eye(3))


def right_mult(j, v, basis: CanonicalBasis = STANDARD_BASIS) -> np.ndarray:
    """Apply an element of the quaternionic structure to the vector v of H^n,
    given as 4n coordinates; returns them as a (4n,) array.

    ``j`` is either a canonical-basis index in {1, 2, 3} or a unit imaginary
    quaternion u, in which case the operator is the right multiplication
    R_u (independent of ``basis``).
    """
    c = _coords(v)
    if isinstance(j, (int, np.integer)):
        return basis.apply(int(j), c)
    q = _as_quat_array(j)
    if abs(q[0]) > 1e-12 or abs(np.linalg.norm(q[1:]) - 1.0) > 1e-12:
        raise ValueError("expected a unit imaginary quaternion")
    block = _right_matrix(q)
    n = c.size // 4
    return (c.reshape(n, 4) @ block.T).ravel()


def _qmat_dagger(a: np.ndarray) -> np.ndarray:
    return quat_conj(a).transpose(1, 0, 2)


class GroupElement:
    """An element (q, A) of Sp(1)Sp(n) acting by v -> A v q^{-1}.

    ``q`` is a unit quaternion and ``A`` an n x n quaternionic matrix with
    A* A = Id, stored as an (n, n, 4) component array.  The element keeps
    the 4n x 4n real matrix M = (I (x) R(q^{-1})) L(A) of its action: L(A)
    has the 4x4 blocks _left_matrix(A[a, b]), and R(q^{-1}) multiplies each
    slot by q^{-1} on the right.  Acting, composing and the unitarity gate
    are real matrix products.
    """

    __slots__ = ("q", "matrix", "_real")

    def __init__(self, q, matrix):
        q = _as_quat_array(q)
        matrix = np.asarray(matrix, dtype=float)
        if not (np.isfinite(q).all() and np.isfinite(matrix).all()):
            raise ValueError("group element has non-finite entries")
        if abs(np.linalg.norm(q) - 1.0) > 1e-12:
            raise ValueError("q must be a unit quaternion")
        if matrix.ndim != 3 or matrix.shape[2] != 4 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be an (n, n, 4) quaternion array")
        n = matrix.shape[0]
        left = _real_left(matrix)
        # L(A)^T L(A) = L(A* A), whose entries are +- the components of A* A,
        # each of them in the first column of its 4x4 block.  Column 4b of
        # L(A) is column b of A, so those first columns are L(A)^T times the
        # (4n, n) matrix of A's columns: the componentwise test of A* A = Id.
        first = left.T @ matrix.transpose(0, 2, 1).reshape(4 * n, n)
        first[::4] -= np.eye(n)
        if np.max(np.abs(first)) > 1e-10:
            raise ValueError("matrix is not quaternionic unitary (A* A != Id)")
        real = (_right_matrix(quat_conj(q)) @ left.reshape(n, 4, 4 * n)).reshape(4 * n, 4 * n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_real", real)

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
        return self._real @ vecs

    def compose(self, other: "GroupElement") -> "GroupElement":
        """The element acting as self after other."""
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        q = quat_mul(self.q, other.q)
        n = self.n
        # Block (a, b) of the product is R(q^{-1}) L(C[a, b]) with C the
        # product of the matrices; its first column is C[a, b] q^{-1}.
        first = (self._real @ other._real).reshape(n, 4, n, 4)[:, :, :, 0]
        return GroupElement(q, quat_mul(first.transpose(0, 2, 1), q))

    def inverse(self) -> "GroupElement":
        return GroupElement(quat_conj(self.q), _qmat_dagger(self.matrix))

    def real_matrix(self) -> np.ndarray:
        """The 4n x 4n real matrix of the action."""
        return self._real.copy()

    def __repr__(self) -> str:
        return f"GroupElement(n={self.n})"


def induced_rotation(t: GroupElement) -> np.ndarray:
    """The SO(3) matrix R with T J_u T^{-1} = J_{Ru} for unit imaginary u.

    J_u denotes right multiplication by u, and R depends only on the
    Sp(1) component: u -> q u q(bar) on imaginary quaternions.
    """
    q = t.q
    return np.stack([quat_mul(quat_mul(q, u), quat_conj(q))[1:] for u in (_I, _J, _K)], axis=1)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """A seeded random quaternionic unitary matrix as an (n, n, 4) array.

    Quaternionic Gram-Schmidt on a matrix of independent standard normal
    quaternions; deterministic for a fixed seed.  Each column is projected
    off all earlier columns at once, twice (classical Gram-Schmidt with
    reorthogonalization).  Projecting off a unit quaternionic column u is
    projecting off the orthonormal real columns u, u i, u j, u k, which are
    the columns of L(u), so each pass is one real product with the block
    columns of L(Q) found so far.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n, 4))
    cols = np.zeros_like(m)
    left = np.zeros((4 * n, 4 * n))
    for j in range(n):
        v = m[:, j].ravel()
        earlier = left[:, :4 * j]
        for _ in range(2):  # second pass tightens orthogonality
            v = v - earlier @ (earlier.T @ v)
        cols[:, j] = (v / np.linalg.norm(v)).reshape(n, 4)
        left[:, 4 * j:4 * j + 4] = _real_left(cols[:, j:j + 1])
    return cols


def random_group_element(n: int, seed: int) -> GroupElement:
    """A seeded random element of Sp(1)Sp(n)."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return GroupElement(q, random_unitary(n, seed + 1))
