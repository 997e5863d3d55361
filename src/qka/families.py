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

Each existence rule is one predicate on cosines (`moduli._class_rank`,
`_v3_rank`, `_phi2_is_phi3`), which the builders and the moduli strata
call.  Every builder reads cosines; a constructor taking phi passes cos(phi).

Every construction is a list of blocks.  A block is the (4s, d) matrix of
its d columns on its own s slots: entry 4t + u holds the coefficient of
J_u e_t, with J_0 = Id.  ``_place`` writes the blocks onto consecutive
slots, so a construction's slot count is read off the blocks it places.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .moduli import (AngleTriple, _class_rank, _cos_of, _count, _phi2_is_phi3, _real, _sign,
                     _triple, _v3_rank)
from .subspace import NumericalFailure, Subspace

__all__ = [
    "FamilySpec",
    "CATALOG",
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

# Absolute tolerance on a builder's cosine for phi1 = 0 and phi3 = pi/2 (and
# a Kahler angle of pi/2), and on the pivots of the Gram factor.
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one member of the catalog (`CATALOG`); ``cos`` is
    cos(phi) of the one angle phi of v3 and the Kahler-angle families."""

    family: str
    n: int
    k: int = 0
    cos: float | None = None
    angles: AngleTriple | None = None
    sign: int = 1
    l_plus: int = 0
    l_minus: int = 0


def _sin(c: float) -> float:
    """sin(phi) from c = cos(phi) in [0, 1], for the cosines of a triple."""
    return math.sqrt((1.0 - c) * (1.0 + c))


def _gram(c, sign: int) -> list[list[float]]:
    """The Gram matrix of e_1, e_2, e_3 at the cosines ``c`` as rows of
    floats, unchecked: the module docstring's inner products."""
    s = [_sin(x) for x in c]
    g = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[i][j] = g[j][i] = (sign * c[k] - c[i] * c[j]) / (s[i] * s[j])
    return g


def gram_matrix(angles: AngleTriple, sign: int) -> np.ndarray:
    """The 3x3 Gram matrix of the auxiliary vectors e_1, e_2, e_3."""
    sign, x = _sign(sign, "sign"), _triple(angles, "angles").cos_tuple()
    if x[0] > 1.0 - BOUNDARY_TOL:
        raise ValueError("gram matrix is singular at phi1 = 0")
    return np.array(_gram(x, sign))


def admissible(angles: AngleTriple, sign: int) -> tuple[bool, int | None]:
    """Existence of the sign-class at the given angles, and the Gram rank.

    Exists iff cos(phi1) + cos(phi2) - sign*cos(phi3) <= 1; on the boundary
    of that inequality the Gram matrix has rank 2, otherwise rank 3.
    """
    sign, x = _sign(sign, "sign"), _triple(angles, "angles").cos_tuple()
    if x[0] > 1.0 - BOUNDARY_TOL:
        raise ValueError("admissibility test requires phi1 > 0")
    rank = _class_rank(x, sign)
    return rank is not None, rank


def _psd_cholesky(g, rank: int) -> np.ndarray:
    """Pivoted Cholesky factor of a PSD matrix truncated at a known rank.

    Built on the rows of floats of ``g``, pivoting on the first largest
    remaining diagonal entry.  Returns L (numpy) with g = L @ L.T up to
    round-off; pivots beyond ``rank`` are clamped to zero (they sit on the
    admissibility boundary).  A NaN in g is refused, at the latest by the
    residual gate.  A truncated factor's rows are then scaled to unit
    length: they are the vectors e_i of a block, whose columns use disjoint
    real axes and so are orthonormal exactly when each e_i is a unit vector.
    """
    m = len(g)
    a = [list(row) for row in g]
    perm = list(range(m))
    left = [[0.0] * m for _ in range(m)]
    for step in range(rank):
        diag = [a[i][i] for i in range(step, m)]
        p = step + diag.index(max(diag))
        if p != step:
            a[step], a[p] = a[p], a[step]
            for row in a:
                row[step], row[p] = row[p], row[step]
            left[step], left[p] = left[p], left[step]
            perm[step], perm[p] = perm[p], perm[step]
        pivot = a[step][step]
        if pivot <= BOUNDARY_TOL:
            raise NumericalFailure("gram matrix rank below the predicted rank")
        r = math.sqrt(pivot)
        left[step][step] = r
        col = [a[i][step] / r for i in range(step + 1, m)]
        for i, li in enumerate(col, step + 1):
            left[i][step] = li
            row = a[i]
            for j, lj in enumerate(col, step + 1):
                row[j] -= li * lj
    left = np.array([left[perm.index(i)][:rank] for i in range(m)])  # undo the pivoting
    resid = np.max(np.abs(left @ left.T - g))
    if not resid <= 1e-9:  # a NaN is refused too
        raise NumericalFailure(f"cholesky residual {resid:.2e} exceeds tolerance")
    if rank < m:
        left /= np.sqrt(np.square(left).sum(axis=1, keepdims=True))
    return left


def _units(*us: int) -> np.ndarray:
    """The one-slot block of columns J_u e_0, one per u."""
    return np.eye(4)[:, list(us)]


def _tilted_block(cos_sin, frame: np.ndarray) -> np.ndarray:
    """Columns e_0 and cos(phi_u) J_u e_0 + sin(phi_u) J_u f_u, u = 1, 2, ...,
    from the pairs (cos(phi_u), sin(phi_u)).

    f_u = sum_r frame[u - 1, r] e_{1 + r}, so the block has 1 + frame.shape[1]
    slots.  A sign-class block takes the cosines of its triple, each with
    its `_sin`, and a factor of its Gram matrix as the frame.
    """
    m, rank = frame.shape
    block = np.zeros((4 * (1 + rank), 1 + m))
    block[0, 0] = 1.0
    for u, (c, s) in enumerate(cos_sin, 1):
        block[u, u] = c
        block[4 + u::4, u] = s * frame[u - 1]
    return block


def _complexified_block(c: float) -> np.ndarray:
    """One 4-dimensional block with angles (0, phi, phi), from c = cos(phi)."""
    if c > 1.0 - BOUNDARY_TOL:
        return _units(0, 1, 2, 3)
    s = _sin(c)
    return _tilted_block(((1.0, 0.0), (c, s), (c, s)), np.array([[0.0], [1.0], [1.0]]))


def _on_two_slots(block: np.ndarray) -> np.ndarray:
    """The block padded with zero rows to two slots: a complexified block keeps
    two slots even where it degenerates to the quaternionic one."""
    return np.pad(block, ((0, 8 - len(block)), (0, 0)))


# A blocks function takes the fields its catalog row reads, checked by
# `construct`, and holds the family's range and existence rules.  It returns
# the blocks, plus blocks first, and the name a too small n refuses.
_Blocks = tuple[list[np.ndarray], str]
_Row = namedtuple("_Row", "reads blocks unset", defaults=({},))  # see CATALOG


def _classical(family: str, dim: int, block, one_block: bool = False) -> tuple[str, _Row]:
    """The catalog row of a classical family: copies of a block of real dimension
    ``dim`` (just one if ``one_block``: k = dim, its value where unset), fixed or from
    the cosine c of a Kahler angle in (0, 1), refused at 1 and within BOUNDARY_TOL of 0."""

    def blocks(k: int, c: float | None = None) -> _Blocks:
        if c is not None and not BOUNDARY_TOL < c < 1.0:
            raise ValueError(f"{family} needs a Kahler angle phi in (0, pi/2)")
        if one_block and k != dim:
            raise ValueError(f"the imaginary-span family has dimension {dim}, got k={k}")
        if k < dim or k % dim:
            raise ValueError(f"{family} needs k to be a positive multiple of {dim}, got k={k}")
        return [block if c is None else block(c)] * (k // dim), f"{family} with k = {k}"

    reads = ("k", "cos") if callable(block) else ("k",)
    return family, _Row(reads, blocks, {"k": dim} if one_block else {})


def _v3_blocks(c: float, sign: int) -> _Blocks:
    """e_0, then e_1 and e_2 with <e_1, e_2> = c / (c + sign) at c = cos(phi)
    in [0, 1], which coincide up to sign (one slot) only for the minus class
    at pi/3 (`_v3_rank`); at c = 1 the sine is 0 and no e_i is placed."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"the 3-dimensional classes need cos(phi) in [0, 1], got {c!r}")
    rank = _v3_rank(c, sign)
    if rank is None:
        raise ValueError(f"the minus class needs cos(phi) <= 1/2 (phi >= pi/3), got {c!r}")
    if c == 1.0:
        frame = [[], []]
    elif rank == 1:
        frame = [[1.0], [-1.0]]
    else:
        g = c / (c + sign)
        frame = [[1.0, 0.0], [g, math.sqrt(1.0 - g * g)]]
    return [_tilted_block(((c, _sin(c)),) * 2, np.array(frame))], "this 3-dimensional class"


def _sign_block(angles: AngleTriple, sign: int) -> np.ndarray:
    """One 4-dimensional block of a sign class.

    Its slots are 1 + the Gram rank, or at phi1 = 0 (where only the plus
    class exists and phi2 = phi3) one for the quaternionic block and two
    for a complexified one.
    """
    x = angles.cos_tuple()
    phi1_zero = x[0] > 1.0 - BOUNDARY_TOL
    if sign == -1 and (phi1_zero or x[2] <= BOUNDARY_TOL):
        raise ValueError("angle triples with phi1 = 0 or phi3 = pi/2 occur only in the "
                         "plus class")
    if phi1_zero:
        if not _phi2_is_phi3(x):
            raise ValueError("constant-angle triples with phi1 = 0 have phi2 = phi3")
        return _complexified_block(x[1])
    rank = _class_rank(x, sign)
    if rank is None:
        raise ValueError(
            f"no sign={sign:+d} class at these angles: "
            f"cos(phi1)+cos(phi2)-({sign:+d})cos(phi3) = "
            f"{x[0] + x[1] - sign * x[2]:.12g} > 1"
        )
    return _tilted_block([(c, _sin(c)) for c in x], _psd_cholesky(_gram(x, sign), rank))


def _sum_blocks(angles: AngleTriple, l_plus: int, l_minus: int) -> _Blocks:
    if l_plus < 0 or l_minus < 0 or l_plus + l_minus < 1:
        raise ValueError("need a non-negative number of blocks, at least one in total")
    blocks: list[np.ndarray] = []
    for sign, count in ((1, l_plus), (-1, l_minus)):
        if count:  # one block, hence one Gram factor, per sign
            blocks += [_sign_block(angles, sign)] * count
    return blocks, f"a sum of {l_plus} plus and {l_minus} minus blocks"


def _v4_blocks(angles: AngleTriple, sign: int) -> _Blocks:
    """The one-block sum of the class, or at (0, pi/2, pi/2) the totally
    complex subspace in its own basis."""
    x = angles.cos_tuple()
    if sign == 1 and x[0] > 1.0 - BOUNDARY_TOL and x[1] <= BOUNDARY_TOL:  # so x[2] too
        return CATALOG["totally_complex"].blocks(4)
    return _sum_blocks(angles, int(sign == 1), int(sign == -1))


def _place(blocks: list[np.ndarray], what: str, n: int) -> Subspace:
    """The blocks on consecutive slots of H^n, refused if n is below their
    summed slots."""
    rows = sum(len(block) for block in blocks)
    if n < rows // 4:
        raise ValueError(f"{what} needs n >= {rows // 4}, got n = {n}")
    basis = np.zeros((4 * n, sum(block.shape[1] for block in blocks)))
    row = col = 0
    for block in blocks:
        s4, d = block.shape
        basis[row:row + s4, col:col + d] += block  # onto +0.0, so no -0.0 stays
        row, col = row + s4, col + d
    # Under the standard triple J_u e_t is the real axis 4t + u, negated for
    # u = 3 (J3 = -R_k); 0 - x rather than -x keeps the zeros +0.0.
    j3 = basis[3::4]
    np.subtract(0.0, j3, out=j3)
    return Subspace(basis)


# The one family catalog: per family, the FamilySpec fields it reads besides n
# (in the order its blocks function takes them), that function, and the value of
# a field it fixes where unset.  `construct`, `min_quaternionic_dim` and the CLI read it.
CATALOG: dict[str, _Row] = dict([
    _classical("totally_real", 1, _units(0)),
    _classical("totally_complex", 2, _units(0, 1)),
    _classical("quaternionic", 4, _units(0, 1, 2, 3)),
    _classical("im_h_line", 3, _units(1, 2, 3), one_block=True),
    _classical("cka_plane_sum", 2, lambda c: _tilted_block(((c, _sin(c)),), np.ones((1, 1)))),
    _classical("complexified_cka", 4, lambda c: _on_two_slots(_complexified_block(c))),
    ("v3", _Row(("cos", "sign"), _v3_blocks)),
    ("v4", _Row(("angles", "sign"), _v4_blocks)),
    ("sum_type", _Row(("angles", "l_plus", "l_minus"), _sum_blocks)),
])
CLASSICAL_FAMILIES = tuple(family for family, row in CATALOG.items() if "k" in row.reads)
# Each field's rule, refusing a value by the field's name; what an unset field lacks.
_FIELD_RULES = {"k": _count, "l_plus": _count, "l_minus": _count, "sign": _sign,
                "cos": _real, "angles": _triple}
_NEEDS = {"k": "a dimension k", "cos": "an angle phi", "angles": "an angle triple"}


def _spec_blocks(spec: FamilySpec) -> _Blocks:
    """The blocks a FamilySpec selects; each field its row reads is checked here, once."""
    if not isinstance(spec, FamilySpec):
        raise ValueError(f"spec must be a FamilySpec, got {type(spec).__name__}")
    if (row := CATALOG.get(spec.family)) is None:
        raise ValueError(f"family {spec.family!r} is unknown")
    values = []
    for name in row.reads:
        value = getattr(spec, name)
        if value is None and name in _NEEDS:
            if (value := row.unset.get(name)) is None:
                raise ValueError(f"{spec.family} needs {_NEEDS[name]}")
        values.append(_FIELD_RULES[name](value, name))
    return row.blocks(*values)


def construct(spec: FamilySpec) -> Subspace:
    """Build the member of the catalog a FamilySpec selects.  This is the
    door of every builder: it checks each field the family reads, and n."""
    return _place(*_spec_blocks(spec), _count(spec.n, "n"))


def construct_classical(family: str, k: int, n: int, phi: float | None = None) -> Subspace:
    """One of the six classical families, by tag.

    totally_real       k <= n          angles (pi/2, pi/2, pi/2)
    totally_complex    k = 2l <= 2n    angles (0, pi/2, pi/2)
    quaternionic       k = 4l <= 4n    angles (0, 0, 0)
    im_h_line          k = 3, n >= 1   angles (0, 0, pi/2)
    cka_plane_sum      k = 2l <= 2*floor(n/2), phi in (0, pi/2), angles (phi, pi/2, pi/2)
    complexified_cka   k = 4l <= 4*floor(n/2), phi in (0, pi/2), angles (0, phi, phi)

    A given phi must lie in [0, pi/2] for every family; only the last two read it.
    """
    if family not in CLASSICAL_FAMILIES:
        raise ValueError(f"family {family!r} is unknown or not classical")
    return construct(FamilySpec(family, n, k=k, cos=None if phi is None else _cos_of(phi, "phi")))


def construct_v3(phi: float, sign: int, n: int) -> Subspace:
    """A 3-dimensional subspace with angles (phi, phi, pi/2) of the given class.

    The plus class exists for phi in [0, pi/2], the minus class for phi in
    [pi/3, pi/2]: cos(phi) <= 1/2, decided on cos(phi) (`_v3_rank`).  Fits
    in H^1 where cos(phi) = 1 (plus), and in H^2 at (minus, pi/3).
    """
    return construct(FamilySpec("v3", n, cos=_cos_of(phi, "phi"), sign=sign))


def construct_v4(angles: AngleTriple, sign: int, n: int) -> Subspace:
    """A 4-dimensional subspace with the given angles in the given class.

    This is the one-block sum of that class.  At phi1 = 0 the angle triple
    must be of the form (0, phi, phi) and only the plus class exists (the
    Gram construction is singular there); at (0, pi/2, pi/2) the result is
    the totally complex subspace in its own basis.
    """
    return construct(FamilySpec("v4", n, angles=angles, sign=sign))


def construct_sum(angles: AngleTriple, l_plus: int, l_minus: int, n: int) -> Subspace:
    """An H-orthogonal sum of l_plus plus-blocks and l_minus minus-blocks.

    All blocks share the standard canonical basis and the same angle triple,
    so the sum has constant angle; its type is (l_plus, l_minus).
    """
    return construct(FamilySpec("sum_type", n, angles=angles, l_plus=l_plus, l_minus=l_minus))


def min_quaternionic_dim(spec: FamilySpec) -> int:
    """The smallest ambient n admitting the requested construction.

    This is the number of slots its blocks occupy, so a spec that no n
    admits raises ValueError, or NumericalFailure where the constructor's
    Gram factorization fails.
    """
    blocks, _ = _spec_blocks(spec)
    return sum(len(block) for block in blocks) // 4
