"""Block factorization, type detection, equivalence, and moduli representatives.

A constant-angle subspace of dimension 4l splits into l four-dimensional
blocks that are pairwise H-orthogonal and share the angle triple.  Each
block carries a sign: the normalized operators satisfy either
Pbar1 Pbar2 = +Pbar3 or = -Pbar3, and the pair (l_plus, l_minus) of block
counts is a complete equivalence invariant alongside the angle triple.
Mixed types are exactly the non-protohomogeneous constant-angle subspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .families import (
    FamilySpec,
    _Blocks,
    _place,
    _sum_blocks,
    _v3_blocks,
    construct,
    construct_classical,
)
from .moduli import REGION_TOL, AngleTriple, _sign, moduli_membership
from .subspace import (
    COMPLEX_STRUCTURE_TOL,
    CONSTANCY_TOL,
    ConstancyReport,
    NumericalFailure,
    Subspace,
    _exact_structure,
    _ExactStructure,
    _NOT_COMPLEX_STRUCTURE,
    _slot_structure,
    _witness_report,
)

__all__ = [
    "TypeSignature",
    "Verdict",
    "factorize",
    "type_of",
    "is_protohomogeneous",
    "branch_of_v3",
    "are_equivalent",
    "representative",
    "classify_subspace",
]

TRIPLE_MATCH_TOL = 1e-8
# The sign gates on M = Pbar3^T Pbar1 Pbar2 (`_sign_split`).  M must be
# symmetric: max|M - M^T| <= SIGN_SYMMETRY_TOL.  S = sym(M) must be an
# involution: ||S^2 - I||_F <= SIGN_INVOLUTION_TOL.  The second gate puts
# every eigenvalue lambda of S within SIGN_INVOLUTION_TOL of +1 or -1:
# |lambda^2 - 1| = |lambda - 1| |lambda + 1|, the larger factor is at least
# 1, and |lambda^2 - 1| <= ||S^2 - I||_2 <= ||S^2 - I||_F.  So every S it
# accepts also passes the per-eigenvalue rule |lambda -+ 1| <= 1e-8 max(gap, 1)
# of an eigenvalue split (the tests keep that rule as the reference), and
# the count of +1 eigenvalues is exact as round((k + tr S) / 2): tr S is off
# from their count minus that of the -1 eigenvalues by at most
# k * SIGN_INVOLUTION_TOL < 1/2 for every k < 5e7.
SIGN_SYMMETRY_TOL = 1e-8
SIGN_INVOLUTION_TOL = 1e-8
# Distance of the v3 branch ratio det(A) / cos(phi)^3 to a class +-1 (`_branch_sign`).
BRANCH_TOL = 1e-8
_SEED_STEP = 0.7548776662466927  # irrational: the inverse of the plastic number


@dataclass(frozen=True)
class TypeSignature:
    """Counts (l_plus, l_minus) of the two block signs."""

    l_plus: int
    l_minus: int

    def blocks(self) -> int:
        return self.l_plus + self.l_minus

    def as_tuple(self) -> tuple[int, int]:
        return (self.l_plus, self.l_minus)


@dataclass(frozen=True)
class Verdict:
    """A yes/no/unknown decision with its justification."""

    value: str
    reason: str = ""

    def __post_init__(self):
        if self.value not in ("yes", "no", "unknown"):
            raise ValueError("verdict value must be yes, no or unknown")

    @property
    def is_yes(self) -> bool:
        return self.value == "yes"

    @property
    def is_no(self) -> bool:
        return self.value == "no"


def _sign_split(m: np.ndarray) -> tuple[np.ndarray, int]:
    """S = sym(m) for m = Pbar3^T Pbar1 Pbar2, and the dimension of its +1
    eigenspace, counted by the trace through the sign gates (see
    SIGN_INVOLUTION_TOL); the two sign dimensions must be multiples of 4."""
    d = m - m.T
    asym = float(np.abs(d, out=d).max())
    if asym > SIGN_SYMMETRY_TOL:
        raise NumericalFailure(
            f"Pbar3^T Pbar1 Pbar2 is not symmetric (deviation {asym:.2e}), so the "
            "signs do not split the subspace"
        )
    k = len(m)
    s = m + m.T
    s *= 0.5
    sq = s @ s
    sq.flat[::k + 1] -= 1.0
    dev = math.sqrt(np.square(sq, out=sq).sum())  # no BLAS dot, whose threads move bits
    if not dev <= SIGN_INVOLUTION_TOL:  # a NaN is refused, not counted
        raise NumericalFailure(
            f"sign involution gate: sym(Pbar3^T Pbar1 Pbar2) is not an involution "
            f"(||S^2 - I||_F = {dev:.2e} > {SIGN_INVOLUTION_TOL:.0e}), so its "
            "eigenvalues are not all +1 or -1"
        )
    plus = round((k + float(s.trace())) / 2)
    if plus % 4 or (k - plus) % 4:
        raise NumericalFailure(f"kernel dimensions {(plus, k - plus)} are not multiples of 4")
    return s, plus


def _sign_parts(signs: tuple[np.ndarray, int] | None, k: int) -> list[tuple[np.ndarray, int]]:
    """The sign parts of V as (projector, dimension), plus first.

    Pbar3 is orthogonal, so the kernels of Pbar1 Pbar2 -+ Pbar3 = Pbar3 (M -+ I)
    are the +-1 eigenspaces of M = Pbar3^T Pbar1 Pbar2, which the sign gates
    have found symmetric with S = sym(M) an involution (`_sign_split`): their
    projectors are (I +- S) / 2, of dimensions plus and k - plus.  With no
    signs (phi3 = pi/2, where they coincide) the one part is V.
    """
    if signs is None:
        return [(np.eye(k), k)]
    s, plus = signs
    half = 0.5 * np.eye(k)
    return [(half + 0.5 * s, plus), (half - 0.5 * s, k - plus)]


def _cells(projector: np.ndarray, dim: int, generators: list[np.ndarray],
           taken: np.ndarray) -> np.ndarray:
    """``taken`` followed by ``dim`` orthonormal columns spanning the range of
    ``projector``: the cells {v} U {G v} in turn.

    Cell j is seeded by v = (I - Q Q^T) P^2 r for the fixed r_i =
    sin((i + 1)(j + 1) _SEED_STEP), P the projector and Q every cell so far,
    those of earlier parts (``taken``) included, so the cells depend on the
    range of P alone.  A sign projector (I +- S) / 2 whose S the involution
    gate passed leaks up to 2.5e-9 into the other part; P^2 leaks its
    square, and the deflation against Q keeps the cells of each part
    orthogonal to those before them.  The columns {v} U {G v} are projected
    against Q and take one QR; an |R_ii| <= 0.5 (a column mostly in Q or in
    the others) is refused.
    """
    size = len(generators) + 1
    start = taken.shape[1]
    cells = np.empty((len(projector), start + dim))
    cells[:, :start] = taken
    coords = np.arange(1, len(projector) + 1)
    for j in range(dim // size):
        done = cells[:, :start + j * size]
        v = projector @ (projector @ np.sin(coords * (j + 1) * _SEED_STEP))
        v -= done @ (done.T @ v)
        norm = math.sqrt(v @ v)
        if not norm > 0.0:
            raise NumericalFailure(f"the seed direction of cell {j} has no "
                                   "component in the remaining span")
        v /= norm
        cols = np.column_stack([v] + [g @ v for g in generators])
        cols -= done @ (done.T @ cols)
        cells[:, start + j * size:start + (j + 1) * size], rr = np.linalg.qr(cols)
        if not (least := np.abs(np.diagonal(rr)).min()) > 0.5:  # a NaN is refused too
            raise NumericalFailure(f"cell {j} is rank-deficient: min |R_ii| = {least:.2e}")
    return cells


class _once:
    """A lazy attribute: ``func`` runs on the first read, and its value is
    stored on the instance, where every later read finds it without calling
    the descriptor (`functools.cached_property` without its per-class lock)."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _Analysis:
    """The Omega/Pbar data of one subspace, and the one place its complete
    invariant (the report's cosines plus `invariant`) is decided; every
    entry point reads it.

    Holds W = B^T J B, the frame built from W (the exact structure:
    candidate canonical basis and its residual), the constancy report, the
    strata of its triple and the block type (read off the residual's
    W'_1^T W'_2) or v3 branch, each computed on first use and at most once.
    Nothing is sampled.  Dimension 3 reads W alone: constancy in closed form at the
    three witness points of W, the branch as the sign of det A for the axial
    vectors of W (`subspace._witness_report`, `_branch_sign`); its frame is
    formed only for a printed ``joint_residual``.  Every other dimension is
    certified by the exact residual or read at the witness points of W,
    which prove "no" or leave the constancy unknown (``constant`` None).
    """

    def __init__(self, v_space: Subspace):
        self.space = v_space

    @_once
    def w(self) -> np.ndarray:
        return _slot_structure(self.space)

    @_once
    def exact(self) -> _ExactStructure:
        return _exact_structure(self.w)

    @_once
    def report(self) -> ConstancyReport:
        """The exact triple when 2 * residual certifies constancy, else the
        witness points of W.  Dimension 3 reads only the witness, which is
        exact there: the certificate's mean triple has three equal cosines."""
        if self.space.k == 3:
            return _witness_report(self.w)
        spread = 2.0 * self.exact.residual
        if spread <= CONSTANCY_TOL:
            return ConstancyReport(self.exact.triple, spread, samples=0, constant=True)
        report = _witness_report(self.w)
        if report.constant is None:
            report = replace(report, gate=f"{report.gate}, and 2 * residual {spread:.2e} > "
                                          "CONSTANCY_TOL certifies nothing")
        return report

    @_once
    def strata(self) -> list:
        """The strata holding the report's triple (`moduli_membership`, a list
        of `StratumMembership`), looked up once for the record and for the
        protohomogeneity verdict."""
        return moduli_membership(self.space.k, self.space.n, self.report.triple)

    def _require_constant(self) -> None:
        """Raise unless the angle is decided constant.  For dim V = 4l only the
        certificate decides that, so the block routines read the frame: R is
        their common canonical basis, and c_i = cos(phi_i)^2 their angles."""
        report = self.report
        if report.constant is None:
            raise NumericalFailure(report.gate)
        if not report.constant:
            raise ValueError(
                f"subspace does not have constant angle (spread {report.max_spread:.2e})"
            )

    def pbar(self, i: int) -> np.ndarray:
        """Pbar_i = W'_i / cos(phi_i) in V coordinates, gated by `_gated_cos`."""
        return self.exact.w_canonical[i - 1] / self._gated_cos(i)

    def _gated_cos(self, i: int) -> float:
        """cos(phi_i) = sqrt(c_i), once the one Pbar gate accepts Pbar_i.

        The largest entry of Pbar_i^T Pbar_i - I = -(Pbar_i^2 + I) is
        u_i / c_i, read off the residual's own product W'_i^T W'_i
        (`_ExactStructure.square_gap`); it must not exceed
        COMPLEX_STRUCTURE_TOL, the bound of the direct check
        (`subspace._complex_structure`).  A NaN is refused.
        """
        exact = self.exact
        c = float(exact.cos2[i - 1])
        if not exact.square_gap[i - 1] <= COMPLEX_STRUCTURE_TOL * c:
            raise NumericalFailure(_NOT_COMPLEX_STRUCTURE)
        return math.sqrt(c)

    @_once
    def signs(self) -> tuple[np.ndarray, int] | None:
        """S = sym(M) and its +1 dimension (`_sign_split`), or None when
        phi3 = pi/2, where the two signs coincide.

        W'_1 is antisymmetric, so Pbar1 Pbar2 = -X_12 / (cos(phi1) cos(phi2))
        with X_12 = W'_1^T W'_2 (`_ExactStructure.cross12`), and so is W'_3,
        so M = Pbar3^T Pbar1 Pbar2 = M_0 / (cos(phi1) cos(phi2) cos(phi3)) for
        the one product M_0 = W'_3 X_12.  M is a symmetric involution, so
        ||M||_F = sqrt(k), and M_0 is normalized by its own scale
        p = ||M_0||_F / sqrt(k): the product of the three cosines.  The
        antisymmetric part that the symmetry gate lets through moves p by a
        relative 1.3e-17 k at most, so S = sym(M_0) / p.  No Pbar gate is needed:
        a symmetric S with S^2 = I is orthogonal, so the +-1 eigenspaces of
        M_0 / p that the sign gates accept are the sign parts.  phi3 = pi/2
        is p within the frame's own residual; p reads the whole M_0, so an
        antisymmetric M_0 is refused as not symmetric rather than merged.
        """
        self._require_constant()
        m = self.exact.w_canonical[2] @ self.exact.cross12
        p = math.sqrt(np.square(m).sum() / len(m))  # no BLAS dot, whose threads move bits
        if p <= self.exact.residual:
            return None
        m *= 1.0 / p
        return _sign_split(m)

    @_once
    def invariant(self) -> TypeSignature | int | None | NumericalFailure:
        """The block type for dim V = 4l; the branch for dim V = 3 when
        cos(phi1) lies more than REGION_TOL inside (0, 1), the one merge rule
        (the classes merge at phi = 0 and pi/2); else None.  Needs constant
        angle; a numerical failure, undecided constancy included, is the value."""
        k = self.space.k
        try:
            if k % 4 == 0:
                signs = self.signs
                plus = k if signs is None else signs[1]
                return TypeSignature(plus // 4, (k - plus) // 4)
            if k == 3:
                self._require_constant()
                if REGION_TOL < self.report.triple.cos_tuple()[0] < 1.0 - REGION_TOL:
                    return self._branch_sign()
        except NumericalFailure as exc:
            return exc
        return None

    def _decided(self) -> TypeSignature | int | None:
        """`invariant`, raising a kept numerical failure."""
        if isinstance(self.invariant, NumericalFailure):
            raise self.invariant
        return self.invariant

    def protohomogeneity(self) -> Verdict:
        report = self.report
        if report.constant is None:
            return Verdict("unknown", report.gate)
        if not report.constant:
            return Verdict(
                "no",
                f"the angle triple is not constant (spread {report.max_spread:.2e})",
            )
        if not self.strata:
            cosines = ", ".join(f"{c:.3e}" for c in report.triple.cos_tuple())
            return Verdict("unknown", f"strata gate: the constant triple with cosines "
                                      f"({cosines}) lies in no stratum of the "
                                      f"({self.space.k}, {self.space.n}) moduli space")
        k = self.space.k
        if k % 4 != 0 or k == 4:
            return Verdict("yes", "constant angle suffices in dimensions not divisible "
                                  "by four, and in dimension four")
        t = self.invariant
        if isinstance(t, NumericalFailure):
            return Verdict("unknown", str(t))
        if t.l_plus == 0 or t.l_minus == 0:
            return Verdict("yes", f"all {t.blocks()} blocks carry the same sign")
        return Verdict(
            "no",
            f"mixed block type ({t.l_plus}, {t.l_minus}): the two signs are "
            "inequivalent, so no group element can move one block family onto "
            "the other",
        )

    def _branch_sign(self) -> int:
        """The sign of a 3-dimensional constant-angle subspace at phi in (0, pi/2).

        W_a x = w_a x x, and constant angle means that the matrix A with rows
        w_a is cos(phi) Q for an orthogonal Q, so det(A) / cos(phi)^3 =
        det Q = +-1 is the class.  Neither Sp(1)Sp(n) (A -> R A, det R = 1)
        nor a change of orthonormal basis P of V (A -> det(P) A P) moves it.
        cos(phi)^2 = <W, W> / 6 = tr G / 2, as in the report, and the ratio
        must lie within BRANCH_TOL of +1 or -1.  det(A) is the triple
        product of the rows w_a = (W_a[2, 1], W_a[0, 2], W_a[1, 0]), on floats.
        """
        w = self.w
        (a, b, c), (d, e, f), (g, h, i) = ((x[7], x[2], x[3]) for x in w.reshape(3, 9).tolist())
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        ratio = det / (float(np.vdot(w, w)) / 6.0) ** 1.5
        for sign in (1, -1):
            if abs(ratio - sign) <= BRANCH_TOL:
                return sign
        raise NumericalFailure(
            f"branch ratio det(A) / cos(phi)^3 = {ratio:.6f} matches neither class "
            f"+-1 within BRANCH_TOL {BRANCH_TOL:.0e}"
        )


def factorize(v_space: Subspace) -> list[Subspace]:
    """Split a constant-angle subspace of dimension 4l into its 4-blocks.

    The blocks are pairwise H-orthogonal, each 4-dimensional with the same
    angle triple as V.  The generators G are the Pbar_i of the angles phi1,
    phi2 whose cosines exceed REGION_TOL, and
    Pbar_1 Pbar_2 when both are; each cell is the span of {v} U {G v}
    (`_cells`: one QR per cell, no SVD), and a block is V's basis times 4
    consecutive orthonormal cell columns.  The sign parts (`_sign_parts`)
    are factored in turn, so the orbit of each seed vector closes up in its
    block.
    """
    if v_space.k % 4:
        raise ValueError("block analysis needs dim V to be a multiple of 4")
    analysis = _Analysis(v_space)
    analysis._require_constant()
    cosines = analysis.report.triple.cos_tuple()
    generators = [analysis.pbar(i) for i in (1, 2) if cosines[i - 1] > REGION_TOL]
    if len(generators) == 2:
        generators.append(generators[0] @ generators[1])
    k = v_space.k
    cells = np.empty((k, 0))
    for projector, dim in _sign_parts(analysis.signs, k):
        cells = _cells(projector, dim, generators, cells)
    blocks = v_space.basis @ cells
    return [Subspace(blocks[:, r:r + 4]) for r in range(0, k, 4)]


def type_of(v_space: Subspace) -> TypeSignature:
    """The pair (l_plus, l_minus) of block-sign multiplicities.

    When phi3 = pi/2 the two signs coincide and the type is (l, 0) by
    convention; otherwise the counts are the kernel dimensions of
    Pbar1 Pbar2 -+ Pbar3 divided by four.
    """
    if v_space.k % 4:
        raise ValueError("block analysis needs dim V to be a multiple of 4")
    return _Analysis(v_space)._decided()


def is_protohomogeneous(v_space: Subspace) -> Verdict:
    """Decide whether some connected group orbit fills the unit sphere of V.

    Constant angle settles every dimension except multiples of four greater
    than four, where the verdict is the block-type test; without a common
    canonical basis the subspace falls outside the classified families and
    the verdict is unknown, as it is when constancy itself is undecided, and
    when a constant triple lies in no stratum of the moduli space (the
    strata gate): that record would contradict the classification.
    """
    return _Analysis(v_space).protohomogeneity()


def branch_of_v3(v_space: Subspace) -> int:
    """The sign separating the two 3-dimensional classes at the same angle.

    With W_a x = w_a x x on V, the axial vectors w_a are the rows of
    A = cos(phi) Q, Q orthogonal, and the sign is det Q = det(A) / cos(phi)^3.
    It is the sign in the paper's invariant <e_1, e_2> =
    cos(phi)/(cos(phi) + sign) of the auxiliary vectors e_i =
    -(J_i Pbar_i e0 + cos(phi) e0) / sin(phi), which the tests rebuild.
    """
    if v_space.k != 3:
        raise ValueError("branch detection applies to 3-dimensional subspaces")
    branch = _Analysis(v_space)._decided()
    if branch is None:
        raise ValueError("the two classes merge at phi = pi/2 and phi = 0")
    return branch


def are_equivalent(v_space: Subspace, w_space: Subspace) -> Verdict:
    """Decide congruence under the group from computable invariants.

    Dimension, constancy and the angle triple (within TRIPLE_MATCH_TOL) are
    compared first, then the discrete invariant (`_Analysis.invariant`): the
    branch sign in dimension 3 (the classes merge within REGION_TOL of
    phi = 0 and pi/2) and the block type in dimensions 4l.  A side whose
    constancy or invariant is undecided, or that has no common canonical
    basis in dimension 4l, yields unknown, as do matching triples of which
    only one lies in the merge band.
    """
    if v_space.n != w_space.n:
        return Verdict("no", "different ambient quaternionic dimensions")
    if v_space.k != w_space.k:
        return Verdict("no", "different dimensions")
    side_v, side_w = _Analysis(v_space), _Analysis(w_space)
    rep_v, rep_w = side_v.report, side_w.report
    for report in (rep_v, rep_w):
        if report.constant is None:
            return Verdict("unknown", report.gate)
    if rep_v.constant != rep_w.constant:
        return Verdict("no", "constancy of the angle triple is an invariant")
    if not rep_v.constant:
        return Verdict("unknown", "both angle triples are non-constant; no invariant "
                                  "implemented for that regime")
    if not all(abs(a - b) <= TRIPLE_MATCH_TOL
               for a, b in zip(rep_v.triple.cos_tuple(), rep_w.triple.cos_tuple())):
        return Verdict("no", "different angle triples")
    inv_v, inv_w = side_v.invariant, side_w.invariant
    for inv in (inv_v, inv_w):
        if isinstance(inv, NumericalFailure):
            return Verdict("unknown", str(inv))
    if isinstance(inv_v, TypeSignature):
        if inv_v == inv_w:
            return Verdict("yes", f"equal angle triples and type {inv_v.as_tuple()}")
        return Verdict("no", f"different types {inv_v.as_tuple()} vs {inv_w.as_tuple()}")
    if (inv_v is None) != (inv_w is None):
        return Verdict("unknown", "equal angle triples, but only one lies within REGION_TOL "
                                  "of phi = 0 or pi/2, where the two classes merge")
    if inv_v is not None:
        if inv_v == inv_w:
            return Verdict("yes", f"equal angle triples and branch ({inv_v:+d})")
        return Verdict("no", f"opposite branches ({inv_v:+d} vs {inv_w:+d})")
    if v_space.k == 3:
        return Verdict("yes", "equal angle triples; a single class exists at "
                              "this angle")
    return Verdict("yes", "equal angle triples; the triple is a complete invariant "
                          "in this dimension")


def _fitting_class(blocks: Callable[[int], _Blocks], branch: int | None, n: int) -> Subspace:
    """The class ``branch`` of the construction whose blocks of sign s are
    ``blocks(s)``, placed in H^n.  With no branch, the plus blocks when their
    slots fit (built once, then placed), else the minus ones, which fit
    there: the v3 at pi/3 in H^2, and the sum blocks on the minus boundary
    cos(phi1) + cos(phi2) + cos(phi3) = 1."""
    if branch is None:
        plus = blocks(1)
        if sum(map(len, plus[0])) <= 4 * n:
            return _place(*plus, n)
        branch = -1
    return _place(*blocks(branch), n)


def representative(
    k: int, n: int, triple: AngleTriple, branch: int | None = None
) -> Subspace:
    """A subspace realizing the given point of the moduli space.

    The subspace is built from the triple's cosines as they are stored, so
    it lies in the strata that `moduli_membership` lists for the triple.
    ``branch`` (+1 or -1) selects the class, and is accepted only on a
    two-class stratum.  An end value of the one cosine at k = 3 and
    k = 2 mod 4 is read within REGION_TOL, as the strata read it.  Without
    a branch, the plus class is built if its blocks fit in H^n, else the
    minus class (`_fitting_class`).
    """
    hits = moduli_membership(k, n, triple)
    if not hits:
        raise ValueError(
            f"the triple lies in no stratum of the ({k}, {n}) moduli space"
        )
    c = triple.cos_tuple()[0]
    if branch is not None:
        branch = _sign(branch, "branch")
        if not any(h.stratum.multiplicity == 2 for h in hits):
            raise ValueError("branch selection on a single-class stratum")
    if k == 3:
        if c >= 1.0 - REGION_TOL:  # (0, 0, pi/2)
            return construct_classical("im_h_line", 3, n)
        if c <= REGION_TOL:  # totally real
            return construct_classical("totally_real", 3, n)
        return _fitting_class(lambda s: _v3_blocks(c, s), branch, n)
    if k % 4 == 0:
        l = k // 4
        return _fitting_class(lambda s: _sum_blocks(triple, *((l, 0) if s == 1 else (0, l))),
                              branch, n)
    if k % 2 == 0:
        if c >= 1.0 - REGION_TOL:
            return construct_classical("totally_complex", k, n)
        if c <= REGION_TOL:
            return construct_classical("totally_real", k, n)
        return construct(FamilySpec("cka_plane_sum", n, k=k, cos=c))
    return construct_classical("totally_real", k, n)


def _report_fields(analysis: _Analysis) -> dict:
    """The fields that open the classify, angles and construct payloads, in
    this order: n, k, the triple, its cosines, ``constant`` (null when
    undecided) and ``spread``, then ``constancy_gate`` when undecided."""
    report = analysis.report
    fields = {
        "n": analysis.space.n,
        "k": analysis.space.k,
        "triple": list(report.triple.as_tuple()),
        "cosines": list(report.triple.cos_tuple()),
        "constant": report.constant,
        "spread": report.max_spread,
    }
    if report.constant is None:
        fields["constancy_gate"] = report.gate
    return fields


def classify_subspace(v_space: Subspace) -> dict:
    """Full classification record of a subspace (the `classify` CLI payload).

    No seed and no sampling: ``constant`` is decided exactly at the three
    witness points of W (dimension 3), certified by the exact residual,
    witnessed "no" at points read off W, or None (JSON null) when none of
    these decides.  An undecided record carries the gate as
    ``constancy_gate`` and as the reason of an unknown ``protohomogeneous``,
    and stops there, as does a non-constant one.  ``type`` (dimension 4l)
    or ``branch`` (dimension 3) is null with a ``type_diagnostic`` or
    ``branch_diagnostic`` when a gate refused it; ``branch`` is also null
    where the two classes merge.  An empty ``strata`` list makes
    ``protohomogeneous`` unknown, by the strata gate.
    """
    analysis = _Analysis(v_space)
    report = analysis.report
    record = _report_fields(analysis)
    if report.constant:
        record["joint_residual"] = analysis.exact.residual
    verdict = analysis.protohomogeneity()
    record["protohomogeneous"] = {"value": verdict.value, "reason": verdict.reason}
    if not report.constant:
        return record
    k = v_space.k
    if k % 4 == 0 or k == 3:
        name, invariant = "type" if k % 4 == 0 else "branch", analysis.invariant
        if isinstance(invariant, NumericalFailure):
            record[name], record[f"{name}_diagnostic"] = None, str(invariant)
        else:
            record[name] = list(invariant.as_tuple()) if k % 4 == 0 else invariant
    record["strata"] = [hit.to_dict() for hit in analysis.strata]
    return record
