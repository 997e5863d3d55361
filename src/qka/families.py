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
from functools import partial
from typing import Callable

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

# Real dimension and quaternionic slots of one block of each classical
# family; a member is an H-orthogonal sum of blocks (exactly one for im_h_line).
_CLASSICAL_BLOCKS = {
    "totally_real": (1, 1),
    "totally_complex": (2, 1),
    "quaternionic": (4, 1),
    "im_h_line": (3, 1),
    "cka_plane_sum": (2, 2),
    "complexified_cka": (4, 2),
}
CLASSICAL_FAMILIES = tuple(_CLASSICAL_BLOCKS)


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


def _need(n: int, slots: int, what: str):
    if n < slots:
        raise ValueError(f"{what} needs n >= {slots}, got n = {n}")


# The slot counts: quaternionic dimensions each construction occupies.  They
# hold every existence and size rule of the catalog; the constructors check n
# against them before placing any column, and min_quaternionic_dim returns them.

def _classical_slots(family: str, k: int, phi: float | None) -> int:
    """Slots of construct_classical(family, k, n, phi): one per block of
    real dimension ``dim`` and ``width`` slots (see _CLASSICAL_BLOCKS)."""
    if family not in _CLASSICAL_BLOCKS:
        raise ValueError(f"unknown classical family {family!r}")
    dim, width = _CLASSICAL_BLOCKS[family]
    if family == "im_h_line" and k != dim:
        raise ValueError(f"the imaginary-span family has dimension 3, got k={k}")
    if k < dim or k % dim:
        raise ValueError(f"{family} needs k to be a positive multiple of {dim}, got k={k}")
    if family in ("cka_plane_sum", "complexified_cka") and (
            phi is None or not 0.0 < phi < HALF_PI):
        raise ValueError(f"{family} needs a Kahler angle phi in (0, pi/2)")
    return width * (k // dim)


def _v3_overlap(phi: float, sign: int) -> float:
    """<e_1, e_2> = cos(phi) / (cos(phi) + sign) for the 3-dimensional classes."""
    return math.cos(phi) / (math.cos(phi) + sign)


def _v3_slots(phi: float, sign: int) -> int:
    """Slots of construct_v3(phi, sign, n): e_0, then e_1 and e_2, which
    coincide up to sign (one slot) only for the minus class at pi/3."""
    _check_sign(sign)
    if sign == 1 and not 0.0 < phi <= HALF_PI + 1e-12:
        raise ValueError("the plus class needs phi in (0, pi/2]")
    if sign == -1 and not math.pi / 3 - 1e-12 <= phi <= HALF_PI + 1e-12:
        raise ValueError("the minus class needs phi in [pi/3, pi/2]")
    return 2 if abs(abs(_v3_overlap(phi, sign)) - 1.0) <= BOUNDARY_TOL else 3


# Builds the columns of one block from its first slot and the ambient n.
_BlockBuilder = Callable[[int, int], list[np.ndarray]]


def _block_layout(angles: AngleTriple, sign: int) -> tuple[int, _BlockBuilder]:
    """Slots of one 4-dimensional block of a sign class, and its builder.

    The slots are 1 + the Gram rank, or at phi1 = 0 (where only the plus
    class exists and phi2 = phi3) one for the quaternionic block and two
    for a complexified one.
    """
    _check_sign(sign)
    phi1_zero = math.cos(angles.phi1) > 1.0 - BOUNDARY_TOL
    if sign == -1 and (phi1_zero or math.cos(angles.phi3) <= BOUNDARY_TOL):
        raise ValueError("angle triples with phi1 = 0 or phi3 = pi/2 occur only in the "
                         "plus class")
    if phi1_zero:
        if abs(math.cos(angles.phi2) - math.cos(angles.phi3)) > BOUNDARY_TOL:
            raise ValueError("constant-angle triples with phi1 = 0 have phi2 = phi3")
        slots = 1 if math.cos(angles.phi2) > 1.0 - BOUNDARY_TOL else 2
        return slots, partial(_complexified_block_columns, angles.phi2)
    exists, rank = admissible(angles, sign)
    if not exists:
        x = angles.cosines()
        raise ValueError(
            f"no sign={sign:+d} class at these angles: "
            f"cos(phi1)+cos(phi2)-({sign:+d})cos(phi3) = "
            f"{x[0] + x[1] - sign * x[2]:.12g} > 1"
        )
    # Factor here, not in the builder, so the slot count refuses exactly the
    # triples whose Gram factor fails, and a sum factors once per sign.
    left = _psd_cholesky(gram_matrix(angles, sign), rank)
    return 1 + rank, partial(_v4_block_columns, angles, left)


def _sum_blocks(angles: AngleTriple, l_plus: int,
                l_minus: int) -> list[tuple[int, _BlockBuilder]]:
    """(slots, builder) of every block of construct_sum, plus blocks first."""
    if l_plus < 0 or l_minus < 0 or l_plus + l_minus < 1:
        raise ValueError("need a non-negative number of blocks, at least one in total")
    blocks: list[tuple[int, _BlockBuilder]] = []
    for sign, count in ((1, l_plus), (-1, l_minus)):
        if count:
            blocks += [_block_layout(angles, sign)] * count
    return blocks


def _axis(slot: int, n: int) -> np.ndarray:
    c = np.zeros(4 * n)
    c[4 * slot] = 1.0
    return c


def _jmul(i: int, col: np.ndarray) -> np.ndarray:
    return STANDARD_BASIS.apply(i, col)


def _v4_block_columns(angles: AngleTriple, left: np.ndarray, offset: int,
                      n: int) -> list[np.ndarray]:
    """The four basis columns of one sign-class block starting at a slot.

    ``left`` is a factor of the Gram matrix of the class, of width its
    rank (_psd_cholesky).  Builds from either Gram sign whenever the Gram
    matrix is PSD; the public constructors check the class with
    _block_layout first, which also rejects the minus sign at phi3 = pi/2,
    where the two signs give equivalent subspaces.
    """
    rank = left.shape[1]
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
        e = _axis(offset, n)
        return [e, _jmul(1, e), _jmul(2, e), _jmul(3, e)]
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
    slots = _classical_slots(family, k, phi)
    _need(n, slots, f"{family} with k = {k}")
    cols: list[np.ndarray] = []
    for slot in range(0, slots, _CLASSICAL_BLOCKS[family][1]):
        e = _axis(slot, n)
        if family == "totally_real":
            cols += [e]
        elif family == "totally_complex":
            cols += [e, _jmul(1, e)]
        elif family == "quaternionic":
            cols += [e, _jmul(1, e), _jmul(2, e), _jmul(3, e)]
        elif family == "im_h_line":
            cols += [_jmul(1, e), _jmul(2, e), _jmul(3, e)]
        elif family == "cka_plane_sum":
            b = _axis(slot + 1, n)
            cols += [e, math.cos(phi) * _jmul(1, e) + math.sin(phi) * _jmul(1, b)]
        else:  # complexified_cka
            cols += _complexified_block_columns(phi, slot, n)
    return Subspace(np.column_stack(cols))


def construct_v3(phi: float, sign: int, n: int) -> Subspace:
    """A 3-dimensional subspace with angles (phi, phi, pi/2) of the given class.

    The plus class exists for phi in (0, pi/2], the minus class for phi in
    [pi/3, pi/2].  Fits in H^2 only in the single case (minus, pi/3).
    """
    slots = _v3_slots(phi, sign)
    _need(n, slots, "this 3-dimensional class")
    c = _v3_overlap(phi, sign)
    e0, e1 = _axis(0, n), _axis(1, n)
    if slots == 2:
        e2 = math.copysign(1.0, c) * e1
    else:
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

    This is the one-block sum of that class.  At phi1 = 0 the angle triple
    must be of the form (0, phi, phi) and only the plus class exists (the
    Gram construction is singular there); at (0, pi/2, pi/2) the result is
    the totally complex subspace in its own basis.
    """
    _check_sign(sign)
    if (sign == 1 and math.cos(angles.phi1) > 1.0 - BOUNDARY_TOL
            and math.cos(angles.phi2) <= BOUNDARY_TOL
            and abs(math.cos(angles.phi2) - math.cos(angles.phi3)) <= BOUNDARY_TOL):
        return construct_classical("totally_complex", 4, n)
    return construct_sum(angles, int(sign == 1), int(sign == -1), n)


def construct_sum(angles: AngleTriple, l_plus: int, l_minus: int, n: int) -> Subspace:
    """An H-orthogonal sum of l_plus plus-blocks and l_minus minus-blocks.

    All blocks share the standard canonical basis and the same angle triple,
    so the sum has constant angle; its type is (l_plus, l_minus).
    """
    blocks = _sum_blocks(angles, l_plus, l_minus)
    _need(n, sum(slots for slots, _ in blocks),
          f"a sum of {l_plus} plus and {l_minus} minus blocks")
    cols: list[np.ndarray] = []
    offset = 0
    for slots, build in blocks:
        cols += build(offset, n)
        offset += slots
    return Subspace(np.column_stack(cols))


_PARAMETERS = {"k": "a dimension k", "phi": "an angle phi", "angles": "an angle triple"}


def _given(spec: FamilySpec, name: str):
    """A parameter the family of ``spec`` needs, refused when it is unset."""
    value = getattr(spec, name)
    if value is None:
        raise ValueError(f"{spec.family} needs {_PARAMETERS[name]}")
    return value


def construct(spec: FamilySpec) -> Subspace:
    """Dispatch a FamilySpec to the matching constructor."""
    fam = spec.family
    if fam in CLASSICAL_FAMILIES:
        return construct_classical(fam, _given(spec, "k"), spec.n, phi=spec.phi)
    if fam == "v3":
        return construct_v3(_given(spec, "phi"), spec.sign, spec.n)
    if fam == "v4":
        return construct_v4(_given(spec, "angles"), spec.sign, spec.n)
    if fam == "sum_type":
        return construct_sum(_given(spec, "angles"), spec.l_plus, spec.l_minus, spec.n)
    raise ValueError(f"unknown family {fam!r}")


def min_quaternionic_dim(spec: FamilySpec) -> int:
    """The smallest ambient n admitting the requested construction.

    This is the slot count the constructor checks n against, so a spec
    that no n admits raises ValueError, or NumericalFailure where the
    constructor's Gram factorization fails.  The one exception is the plus
    class of v3 at phi = 0, which the constructor refuses: its angles
    (0, 0, pi/2) are those of the imaginary span of a vector, in H^1.
    """
    fam = spec.family
    if fam in CLASSICAL_FAMILIES:
        return _classical_slots(fam, _given(spec, "k"), spec.phi)
    if fam == "v3":
        if spec.phi == 0.0 and spec.sign == 1:
            return 1
        return _v3_slots(_given(spec, "phi"), spec.sign)
    if fam == "v4":
        return _block_layout(_given(spec, "angles"), spec.sign)[0]
    if fam == "sum_type":
        blocks = _sum_blocks(_given(spec, "angles"), spec.l_plus, spec.l_minus)
        return sum(slots for slots, _ in blocks)
    raise ValueError(f"unknown family {fam!r}")
