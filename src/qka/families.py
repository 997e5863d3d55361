"""Constructors for every family of constant-angle subspaces.

All constructors are deterministic and place blocks on explicit quaternionic
coordinate slots, so block sums are H-orthogonal by construction.  The
four-dimensional families come in two classes per angle triple, labelled by
a sign: the inner products of the auxiliary unit vectors e_1, e_2, e_3 are

    <e_i, e_{i+1}> = (s cos(phi_{i+2}) - cos(phi_i) cos(phi_{i+1}))
                     / (sin(phi_i) sin(phi_{i+1}))

for s in {+1, -1}, and such vectors exist precisely when
cos(phi_1) + cos(phi_2) - s cos(phi_3) <= 1.  On that boundary the Gram
matrix drops to rank 2 and the block fits into one fewer quaternionic
dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quaternion import STANDARD_BASIS
from .subspace import HALF_PI, AngleTriple, NumericalFailure, Subspace

__all__ = [
    "FamilySpec",
    "CLASSICAL_FAMILIES",
    "gram_matrix",
    "admissible",
    "construct_classical",
    "construct_v3",
    "construct_v4",
    "construct_sum",
    "construct",
    "min_quaternionic_dim",
]

# Absolute tolerance on cosines for boundary and pi/2 tests.
BOUNDARY_TOL = 1e-12
# Absolute tolerance on the cos-sum boundary cos(phi1) + cos(phi2) -+ cos(phi3)
# = 1.  The moduli region predicates use the same value, so every triple they
# place on (or inside) the boundary is one the constructors can build.
REGION_TOL = 1e-10

CLASSICAL_FAMILIES = (
    "totally_real",
    "totally_complex",
    "quaternionic",
    "im_h_line",
    "cka_plane_sum",
    "complexified_cka",
)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one member of the constructor catalog."""

    family: str
    n: int
    k: int = 0
    phi: float | None = None
    angles: AngleTriple | None = None
    sign: int = 1
    l_plus: int = 0
    l_minus: int = 0


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return sign


def gram_matrix(angles: AngleTriple, sign: int) -> np.ndarray:
    """The 3x3 Gram matrix of the auxiliary vectors e_1, e_2, e_3."""
    _check_sign(sign)
    phis = np.array(angles.as_tuple())
    if math.cos(angles.phi1) > 1.0 - BOUNDARY_TOL:
        raise ValueError("gram matrix is singular at phi1 = 0")
    c, s = np.cos(phis), np.sin(phis)
    g = np.eye(3)
    for i in range(3):
        j = (i + 1) % 3
        k = (i + 2) % 3
        g[i, j] = g[j, i] = (sign * c[k] - c[i] * c[j]) / (s[i] * s[j])
    return g


def admissible(angles: AngleTriple, sign: int) -> tuple[bool, int | None]:
    """Existence of the sign-class at the given angles, and the Gram rank.

    Exists iff cos(phi1) + cos(phi2) - sign*cos(phi3) <= 1; on the boundary
    of that inequality the Gram matrix has rank 2, otherwise rank 3.
    """
    _check_sign(sign)
    if math.cos(angles.phi1) > 1.0 - BOUNDARY_TOL:
        raise ValueError("admissibility test requires phi1 > 0")
    x = angles.cosines()
    margin = x[0] + x[1] - sign * x[2] - 1.0
    if margin > REGION_TOL:
        return False, None
    return True, 2 if abs(margin) <= REGION_TOL else 3


def _psd_cholesky(g: np.ndarray, rank: int) -> np.ndarray:
    """Pivoted Cholesky factor of a PSD matrix truncated at a known rank.

    Returns L with g = L @ L.T up to round-off; pivots beyond ``rank`` are
    clamped to zero (they sit on the admissibility boundary).
    """
    m = g.shape[0]
    a = g.copy()
    perm = list(range(m))
    left = np.zeros((m, m))
    for step in range(rank):
        p = step + int(np.argmax(np.diag(a)[step:]))
        if p != step:
            a[[step, p], :] = a[[p, step], :]
            a[:, [step, p]] = a[:, [p, step]]
            left[[step, p], :] = left[[p, step], :]
            perm[step], perm[p] = perm[p], perm[step]
        pivot = a[step, step]
        if pivot <= BOUNDARY_TOL:
            raise NumericalFailure("gram matrix rank below the predicted rank")
        r = math.sqrt(pivot)
        left[step, step] = r
        left[step + 1:, step] = a[step + 1:, step] / r
        a[step + 1:, step + 1:] -= np.outer(left[step + 1:, step], left[step + 1:, step])
    left = left[:, :rank]
    inv = np.argsort(perm)
    left = left[inv, :]
    resid = np.max(np.abs(left @ left.T - g))
    if resid > 1e-9:
        raise NumericalFailure(f"cholesky residual {resid:.2e} exceeds tolerance")
    return left


def _axis(slot: int, n: int) -> np.ndarray:
    c = np.zeros(4 * n)
    c[4 * slot] = 1.0
    return c


def _jmul(i: int, col: np.ndarray) -> np.ndarray:
    return STANDARD_BASIS.apply(i, col)


def _need(n: int, slots: int, what: str):
    if n < slots:
        raise ValueError(f"{what} needs n >= {slots}, got n = {n}")


def _v4_block_columns(angles: AngleTriple, sign: int, offset: int, n: int) -> list[np.ndarray]:
    """The four basis columns of one sign-class block starting at a slot.

    Builds from either Gram sign whenever the Gram matrix is PSD; the
    public constructors additionally reject the minus sign at phi3 = pi/2,
    where the two signs give equivalent subspaces.
    """
    exists, rank = admissible(angles, sign)
    if not exists:
        x = angles.cosines()
        raise ValueError(
            f"no sign={sign:+d} class at these angles: "
            f"cos(phi1)+cos(phi2)-({sign:+d})cos(phi3) = "
            f"{x[0] + x[1] - sign * x[2]:.6f} > 1"
        )
    left = _psd_cholesky(gram_matrix(angles, sign), rank)
    _need(n, offset + 1 + rank, f"sign={sign:+d} block at these angles")
    e0 = _axis(offset, n)
    frame = [_axis(offset + 1 + r, n) for r in range(rank)]
    cols = [e0]
    phis = angles.as_tuple()
    for i in (1, 2, 3):
        e_i = sum(left[i - 1, r] * frame[r] for r in range(rank))
        cols.append(math.cos(phis[i - 1]) * _jmul(i, e0)
                    + math.sin(phis[i - 1]) * _jmul(i, e_i))
    return cols


def _complexified_block_columns(phi: float, offset: int, n: int) -> list[np.ndarray]:
    """One 4-dimensional block with angles (0, phi, phi), phi in [0, pi/2]."""
    if math.cos(phi) > 1.0 - BOUNDARY_TOL:
        _need(n, offset + 1, "quaternionic block")
        e = _axis(offset, n)
        return [e, _jmul(1, e), _jmul(2, e), _jmul(3, e)]
    _need(n, offset + 2, "complexified block")
    a = _axis(offset, n)
    b = _axis(offset + 1, n)
    c, s = math.cos(phi), math.sin(phi)
    return [
        a,
        _jmul(1, a),
        c * _jmul(2, a) + s * _jmul(2, b),
        c * _jmul(3, a) + s * _jmul(3, b),
    ]


def construct_classical(family: str, k: int, n: int, phi: float | None = None) -> Subspace:
    """One of the six classical families, by tag.

    totally_real       k <= n          angles (pi/2, pi/2, pi/2)
    totally_complex    k = 2l <= 2n    angles (0, pi/2, pi/2)
    quaternionic       k = 4l <= 4n    angles (0, 0, 0)
    im_h_line          k = 3, n >= 1   angles (0, 0, pi/2)
    cka_plane_sum      k = 2l <= 2*floor(n/2), phi in (0, pi/2), angles (phi, pi/2, pi/2)
    complexified_cka   k = 4l <= 4*floor(n/2), phi in (0, pi/2), angles (0, phi, phi)
    """
    if n < 1:
        raise ValueError("n must be positive")
    cols: list[np.ndarray] = []
    if family == "totally_real":
        if not 1 <= k <= n:
            raise ValueError(f"totally real subspaces need 1 <= k <= n, got k={k}, n={n}")
        cols = [_axis(m, n) for m in range(k)]
    elif family == "totally_complex":
        if k % 2 or not 2 <= k <= 2 * n:
            raise ValueError(f"totally complex subspaces need even k <= 2n, got k={k}, n={n}")
        for m in range(k // 2):
            e = _axis(m, n)
            cols += [e, _jmul(1, e)]
    elif family == "quaternionic":
        if k % 4 or not 4 <= k <= 4 * n:
            raise ValueError(f"quaternionic subspaces need k = 4l <= 4n, got k={k}, n={n}")
        for m in range(k // 4):
            e = _axis(m, n)
            cols += [e, _jmul(1, e), _jmul(2, e), _jmul(3, e)]
    elif family == "im_h_line":
        if k != 3:
            raise ValueError("the imaginary-span family has dimension 3")
        e = _axis(0, n)
        cols = [_jmul(1, e), _jmul(2, e), _jmul(3, e)]
    elif family == "cka_plane_sum":
        if phi is None or not 0.0 < phi < HALF_PI:
            raise ValueError("cka_plane_sum needs a Kahler angle phi in (0, pi/2)")
        if k % 2 or not 2 <= k <= 2 * (n // 2):
            raise ValueError(f"cka_plane_sum needs even k <= 2*floor(n/2), got k={k}, n={n}")
        c, s = math.cos(phi), math.sin(phi)
        for m in range(k // 2):
            a, b = _axis(2 * m, n), _axis(2 * m + 1, n)
            cols += [a, c * _jmul(1, a) + s * _jmul(1, b)]
    elif family == "complexified_cka":
        if phi is None or not 0.0 < phi < HALF_PI:
            raise ValueError("complexified_cka needs a Kahler angle phi in (0, pi/2)")
        if k % 4 or not 4 <= k <= 4 * (n // 2):
            raise ValueError(f"complexified_cka needs k = 4l <= 4*floor(n/2), got k={k}, n={n}")
        for m in range(k // 4):
            cols += _complexified_block_columns(phi, 2 * m, n)
    else:
        raise ValueError(f"unknown classical family {family!r}")
    return Subspace(np.column_stack(cols))


def _v3_overlap(phi: float, sign: int) -> float:
    """<e_1, e_2> = cos(phi) / (cos(phi) + sign) for the 3-dimensional classes."""
    return math.cos(phi) / (math.cos(phi) + sign)


def construct_v3(phi: float, sign: int, n: int) -> Subspace:
    """A 3-dimensional subspace with angles (phi, phi, pi/2) of the given class.

    The plus class exists for phi in (0, pi/2], the minus class for phi in
    [pi/3, pi/2].  Fits in H^2 only in the single case (minus, pi/3).
    """
    _check_sign(sign)
    if sign == 1 and not 0.0 < phi <= HALF_PI + 1e-12:
        raise ValueError("the plus class needs phi in (0, pi/2]")
    if sign == -1 and not math.pi / 3 - 1e-12 <= phi <= HALF_PI + 1e-12:
        raise ValueError("the minus class needs phi in [pi/3, pi/2]")
    c = _v3_overlap(phi, sign)
    e0 = _axis(0, n) if n >= 1 else None
    if n < 1:
        raise ValueError("n must be positive")
    if abs(abs(c) - 1.0) <= BOUNDARY_TOL:
        _need(n, 2, "this 3-dimensional class")
        e1 = _axis(1, n)
        e2 = math.copysign(1.0, c) * e1
    else:
        _need(n, 3, "this 3-dimensional class")
        e1 = _axis(1, n)
        e2 = c * e1 + math.sqrt(1.0 - c * c) * _axis(2, n)
    cp, sp = math.cos(phi), math.sin(phi)
    cols = [
        e0,
        cp * _jmul(1, e0) + sp * _jmul(1, e1),
        cp * _jmul(2, e0) + sp * _jmul(2, e2),
    ]
    return Subspace(np.column_stack(cols))


def construct_v4(angles: AngleTriple, sign: int, n: int) -> Subspace:
    """A 4-dimensional subspace with the given angles in the given class.

    At phi1 = 0 the angle triple must be of the form (0, phi, phi) and the
    class degenerates to the complexified family (the Gram construction is
    singular there); the minus class additionally requires phi3 != pi/2.
    """
    _check_sign(sign)
    if sign == -1 and math.cos(angles.phi3) <= BOUNDARY_TOL:
        raise ValueError("angle triples with phi3 = pi/2 occur only in the plus class")
    if math.cos(angles.phi1) > 1.0 - BOUNDARY_TOL:
        if sign == -1:
            raise ValueError("angle triples with phi1 = 0 only occur in the plus class")
        if abs(math.cos(angles.phi2) - math.cos(angles.phi3)) > BOUNDARY_TOL:
            raise ValueError("constant-angle triples with phi1 = 0 have phi2 = phi3")
        phi = angles.phi2
        if math.cos(phi) > 1.0 - BOUNDARY_TOL:
            return construct_classical("quaternionic", 4, n)
        if math.cos(phi) <= BOUNDARY_TOL:
            return construct_classical("totally_complex", 4, n)
        return construct_classical("complexified_cka", 4, n, phi=phi)
    return Subspace(np.column_stack(_v4_block_columns(angles, sign, 0, n)))


def construct_sum(angles: AngleTriple, l_plus: int, l_minus: int, n: int) -> Subspace:
    """An H-orthogonal sum of l_plus plus-blocks and l_minus minus-blocks.

    All blocks share the standard canonical basis and the same angle triple,
    so the sum has constant angle; its type is (l_plus, l_minus).
    """
    if l_plus < 0 or l_minus < 0 or l_plus + l_minus < 1:
        raise ValueError("need a non-negative number of blocks, at least one in total")
    if l_minus > 0:
        if math.cos(angles.phi3) <= BOUNDARY_TOL:
            raise ValueError("minus blocks do not exist at phi3 = pi/2")
        if math.cos(angles.phi1) > 1.0 - BOUNDARY_TOL:
            raise ValueError("minus blocks need phi1 > 0")
    cols: list[np.ndarray] = []
    offset = 0
    if math.cos(angles.phi1) > 1.0 - BOUNDARY_TOL:
        if abs(math.cos(angles.phi2) - math.cos(angles.phi3)) > BOUNDARY_TOL:
            raise ValueError("constant-angle triples with phi1 = 0 have phi2 = phi3")
        width = 1 if math.cos(angles.phi2) > 1.0 - BOUNDARY_TOL else 2
        _need(n, width * l_plus, f"a sum of {l_plus} blocks")
        for _ in range(l_plus):
            cols += _complexified_block_columns(angles.phi2, offset, n)
            offset += width
    else:
        for sign, count in ((1, l_plus), (-1, l_minus)):
            if count == 0:
                continue
            exists, rank = admissible(angles, sign)
            if not exists:
                raise ValueError(f"no sign={sign:+d} class at these angles")
            for _ in range(count):
                cols += _v4_block_columns(angles, sign, offset, n)
                offset += 1 + rank
    return Subspace(np.column_stack(cols))


def construct(spec: FamilySpec) -> Subspace:
    """Dispatch a FamilySpec to the matching constructor."""
    if spec.family in CLASSICAL_FAMILIES:
        return construct_classical(spec.family, spec.k, spec.n, phi=spec.phi)
    if spec.family == "v3":
        if spec.phi is None:
            raise ValueError("v3 needs an angle phi")
        return construct_v3(spec.phi, spec.sign, spec.n)
    if spec.family == "v4":
        if spec.angles is None:
            raise ValueError("v4 needs an angle triple")
        return construct_v4(spec.angles, spec.sign, spec.n)
    if spec.family == "sum_type":
        if spec.angles is None:
            raise ValueError("sum_type needs an angle triple")
        return construct_sum(spec.angles, spec.l_plus, spec.l_minus, spec.n)
    raise ValueError(f"unknown family {spec.family!r}")


def _block_width(angles: AngleTriple, sign: int) -> int:
    """Quaternionic dimensions consumed by one 4-dimensional block."""
    if math.cos(angles.phi1) > 1.0 - BOUNDARY_TOL:
        return 1 if math.cos(angles.phi2) > 1.0 - BOUNDARY_TOL else 2
    exists, rank = admissible(angles, sign)
    if not exists:
        raise ValueError(f"no sign={sign:+d} class at these angles")
    return 1 + rank


def min_quaternionic_dim(spec: FamilySpec) -> int:
    """The smallest ambient n admitting the requested construction."""
    fam = spec.family
    if fam == "totally_real":
        return spec.k
    if fam == "totally_complex":
        return (spec.k + 1) // 2
    if fam == "quaternionic":
        return (spec.k + 3) // 4
    if fam == "im_h_line":
        return 1
    if fam == "cka_plane_sum":
        return spec.k
    if fam == "complexified_cka":
        return (spec.k + 1) // 2
    if fam == "v3":
        if spec.phi is None:
            raise ValueError("v3 needs an angle phi")
        if math.cos(spec.phi) > 1.0 - BOUNDARY_TOL:
            return 1
        if spec.sign == -1 and abs(abs(_v3_overlap(spec.phi, -1)) - 1.0) <= BOUNDARY_TOL:
            return 2
        return 3
    if fam == "v4":
        if spec.angles is None:
            raise ValueError("v4 needs an angle triple")
        return _block_width(spec.angles, spec.sign)
    if fam == "sum_type":
        if spec.angles is None:
            raise ValueError("sum_type needs an angle triple")
        total = 0
        if spec.l_plus:
            total += spec.l_plus * _block_width(spec.angles, 1)
        if spec.l_minus:
            total += spec.l_minus * _block_width(spec.angles, -1)
        return total
    raise ValueError(f"unknown family {fam!r}")
