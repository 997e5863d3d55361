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
    CONSTANCY_TOL,
    ConstancyReport,
    NumericalFailure,
    Subspace,
    _exact_structure,
    _ExactStructure,
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
_C = 4.0  # the factor of every discrete gate's bound C e / cos(phi), see `_Analysis.error`
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


def _margin(bound: float, e: float, phi: str, cos: float) -> str:
    """A gate's derived bound C e / cos(phi) with e and cos(phi), for its message."""
    return f"C e / cos({phi}) = {bound:.2e}, e = {e:.2e}, cos({phi}) = {cos:.2e}"


def _sign_split(m: np.ndarray, e: float, cos3: float) -> tuple[np.ndarray, int]:
    """S = sym(m) for m = Pbar3^T Pbar1 Pbar2, and the dimension of its +1
    eigenspace, counted by the trace; the two sign dimensions must be
    multiples of 4.

    Both sign gates read b = C e / cos(phi3) (`_Analysis.error`): m must be
    symmetric, max|m - m^T| <= b, and S an involution, ||S^2 - I||_F <= b,
    and the count is read only where sqrt(k) b <= 1/2.  Each eigenvalue
    lambda of S then lies |lambda^2 - 1| / (1 + |lambda|) <= |lambda^2 - 1|
    from its sign, and these distances sum to at most
    sqrt(k) ||S^2 - I||_F <= 1/2 (Cauchy-Schwarz), so tr S is within 1/2 of
    the count of positive eigenvalues minus that of negative ones, and
    round((k + tr S) / 2) counts the positive ones exactly.
    """
    k, bound = len(m), _C * e / cos3
    if not (scale := math.sqrt(k) * bound) <= 0.5:  # a NaN is refused too
        raise NumericalFailure(f"sign scale gate: sqrt(k) C e / cos(phi3) = {scale:.2e} > 1/2 "
                               f"({_margin(bound, e, 'phi3', cos3)})")
    d = m - m.T
    asym = float(np.abs(d, out=d).max())
    if not asym <= bound:
        raise NumericalFailure(f"Pbar3^T Pbar1 Pbar2 is not symmetric (deviation {asym:.2e} > "
                               f"{_margin(bound, e, 'phi3', cos3)}), so the signs do not split "
                               "the subspace")
    s = 0.5 * (m + m.T)
    sq = s @ s
    sq.flat[::k + 1] -= 1.0
    dev = math.sqrt(np.square(sq, out=sq).sum())  # no BLAS dot, whose threads move bits
    if not dev <= bound:
        raise NumericalFailure(f"sign involution gate: sym(Pbar3^T Pbar1 Pbar2) is not an "
                               f"involution (||S^2 - I||_F = {dev:.2e} > "
                               f"{_margin(bound, e, 'phi3', cos3)}), so its eigenvalues are not "
                               "all +1 or -1")
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
    gate passed at its bound b = C e / cos(phi3) (`_sign_split`) leaks up to
    about b / 4, below 1 / (8 sqrt(k)) where the count is read, into the
    other part; P^2 leaks its square, and the deflation against Q keeps the
    cells of each part orthogonal to those before them.  The columns
    {v} U {G v} are projected against Q and take one QR; an |R_ii| <= 0.5 (a
    column mostly in Q or in the others) is refused.
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

    @_once
    def error(self) -> float:
        """The error scale e = s + k 2^-52 of a constant record (raising, as
        `_require_constant`, for any other), which every discrete gate reads
        as its bound b = C e / cos(phi), with C = `_C` and phi the angle
        whose cosine the read divides by.  A read decides only where b, in
        the norm the read needs, is at most 1/2 (the branch's b always is,
        where it is read); otherwise it is a NumericalFailure (an unknown
        verdict) naming its gate.

        s is the record's proven spread: 2 * residual, or the witness spread
        in dimension 3.  k 2^-52 is at least gamma_k = k u / (1 - k u),
        u = 2^-53, the rounding bound of a k-term dot product of vectors of
        norm at most 1 (Higham, Accuracy and Stability of Numerical
        Algorithms, sec. 3.1); each entry of a frame product is one, as each
        W'_a = B^T (sum_b R_ab J_b) B has norm ||W'_a||_2 <= 1, and the term
        keeps e above that rounding where the residual itself rounds to 0.

        Proven, for any C: each read is exact for the operator it reads.
        Where the involution gate passes S and sqrt(k) b <= 1/2, the trace
        counts the positive eigenvalues of S (`_sign_split`); where the Pbar
        gate passes u_i and k b <= 1/2, ||Pbar_i^T Pbar_i - I||_2 <= 1/2
        (`_gated_cos`); and as b < 1, one branch class at most matches.

        Assumed, not proven: that these operators are close enough to those
        of an exact constant-angle subspace for a right input to pass its
        gates and read its own class.  The model is W'_a = cos(phi_a) J_a +
        D_a for the orthogonal complex structures J_a of such a subspace,
        with ||D_a||_2 <= e / 2: the error of W'_a is absolute, about e,
        whatever cos(phi_a) is.  The residual does not imply it.  It bounds
        only W'_a^T W'_a - c_a I, and the polar factor of W'_a is then within
        about residual / cos(phi_a) of W'_a / cos(phi_a), so ||D_a||_2 may
        reach about e / (2 cos(phi_a)).  Under the model:

        - Pbar gate (`_gated_cos`, b = C e / cos(phi_i), read where
          k b <= 1/2).  W'^T W' - c I is X - (c - cos(phi)^2) I with
          X = cos(phi)(J^T D + D^T J) + D^T D, and c - cos(phi)^2 is the mean
          of the diagonal of X, so u_i <= 4 cos(phi_i) ||D|| + ||D||^2 <=
          2 e cos(phi_i) + e^2 / 4, below b c_i = C e cos(phi_i) for every
          C > 2.01 where k b <= 1/2.  Without the model, u_i is an entry of
          a term of the residual: u_i <= e / 2 <= C e cos(phi_i) wherever
          cos(phi_i) >= 1 / (2 C).
        - Branch (`_branch_sign`, b = C e / cos(phi) < 1e-3 where read).
          A = cos(phi)(Q + E) with rows w_a, |w_a| = ||W_a||_2, so
          x = ||E||_2 <= sqrt(3) e / (2 cos(phi)) = sqrt(3) b / (2 C) < 1e-3,
          and the singular values of Q + E lie in [1 - x, 1 + x].  Their
          squares' mean exceeds their geometric mean by at most
          variance / (2 min) <= 2 x^2 / (1 - x)^2 (Popoviciu and
          Cartwright-Field), so 1 - |det A / cos(phi)^3| <= 3 x^2 / (1 - x)^4
          < 0.01 x, below b >= 2 C x / sqrt(3) for every C >= 1, with room for
          the ratio's own rounding of a few u, below C 3 2^-52.  The class
          is the sign of det Q.
        - Signs (`_sign_split`, b = C e / cos(phi3), read where
          sqrt(k) b <= 1/2).  M_0 = p* (S* + E), S* the sign involution,
          p* = cos(phi1) cos(phi2) cos(phi3) and, cos(phi3) being the least
          cosine, ||E||_2 <= (1 + b / (2 C))^3 - 1 = x; p / p* lies in
          [1 - x, 1 + x], so ||S - S*||_2 <= 2 x / (1 - x).  At k >= 4,
          b <= 1/4 and C = 4 give x < 0.1 and ||S - S*||_2 < 0.22: by
          Weyl's inequality S has as many positive eigenvalues as S*.  That
          the gates accept this S is not derived even under the model:
          ||S^2 - I||_F may carry sqrt(k) ||S - S*||_2.

        So C = 4, twice the factor the Pbar gate needs under the model, is
        chosen on measured margins: in the tests' exact, moved and noisy
        inputs each tested value stays below 0.93 e / cos(phi) (the sign
        gates on noisy sums at 1e-10), against the C e / cos(phi) it is read
        against.  So neither half is a theorem: that a right input passes
        the sign gates (no needless unknown) rests on those inputs, and that
        it passes the Pbar and branch gates, and that a class the gates pass
        is right, rest on the model.
        """
        self._require_constant()
        return self.report.max_spread + self.space.k * 2.0 ** -52

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
        b = C e / cos(phi_i) (`error`), that is u_i <= C e cos(phi_i).  The
        gate decides only where k b <= 1/2: then
        ||Pbar_i^T Pbar_i - I||_2 <= k b <= 1/2, every |Pbar_i v|^2 lies in
        [1/2, 3/2], and an |R_ii| <= 0.5 in `_cells` can only be a column
        mostly in the span of the others.  A NaN is refused.
        """
        e, cos = self.error, math.sqrt(float(self.exact.cos2[i - 1]))
        u, scale = float(self.exact.square_gap[i - 1]), 2.0 * self.space.k * _C * e
        if not (scale <= cos and u <= _C * e * cos):
            raise NumericalFailure(f"Pbar gate: u_{i} = {u:.2e} <= C e cos(phi{i}) = "
                                   f"{_C * e * cos:.2e} and 2 k C e = {scale:.2e} <= cos(phi{i}) "
                                   f"= {cos:.2e} do not both hold (e = {e:.2e})")
        return cos

    @_once
    def signs(self) -> tuple[np.ndarray, int] | None:
        """S = sym(M) and its +1 dimension (`_sign_split`), or None when
        phi3 = pi/2, where the two signs coincide.

        W'_1 is antisymmetric, so Pbar1 Pbar2 = -X_12 / (cos(phi1) cos(phi2))
        with X_12 = W'_1^T W'_2 (`_ExactStructure.cross12`), and so is W'_3,
        so M = Pbar3^T Pbar1 Pbar2 = M_0 / (cos(phi1) cos(phi2) cos(phi3)) for
        the one product M_0 = W'_3 X_12.  M is a symmetric involution, so
        ||M||_F = sqrt(k), and M_0 is normalized by its own scale
        p = ||M_0||_F / sqrt(k): the product of the three cosines.  Likewise
        q = ||X_12||_F / sqrt(k) is cos(phi1) cos(phi2), so p / q is
        cos(phi3), the least cosine, on the sign operator's own products,
        and the sign gates read C e / cos(phi3) (`error`).  The involution
        gate reads S = sym(M_0) / p itself, so p needs no correction for the
        antisymmetric part the symmetry gate lets through.  No Pbar gate is
        needed: a symmetric S with S^2 = I is orthogonal, so the +-1
        eigenspaces of M_0 / p that the sign gates accept are the sign
        parts.  phi3 = pi/2 is cos(phi3) within e of 0, p <= e q: W'_3, whose
        direction carries the signs, is then no larger than its own error.
        p reads the whole M_0, so an antisymmetric M_0 is refused as not
        symmetric rather than merged.
        """
        x12, e = self.exact.cross12, self.error
        m = self.exact.w_canonical[2] @ x12
        # no BLAS dot, whose threads move bits
        p, q = math.sqrt(np.square(m).sum() / len(m)), math.sqrt(np.square(x12).sum() / len(m))
        if p <= e * q:
            return None
        m *= 1.0 / p
        return _sign_split(m, e, p / q)

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
        must lie within b = C e / cos(phi) (`error`) of +1 or -1.  Where the
        branch is read, b < 1e-3, so one class at most matches: the witness
        spread s is at most 3 cos(phi)^2 (the three squared singular values
        of A average cos(phi)^2) and at most CONSTANCY_TOL, and cos(phi)
        exceeds REGION_TOL.  det(A) is the triple product of the rows
        w_a = (W_a[2, 1], W_a[0, 2], W_a[1, 0]), on floats.
        """
        w = self.w
        (a, b, c), (d, e, f), (g, h, i) = ((x[7], x[2], x[3]) for x in w.reshape(3, 9).tolist())
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        cos = math.sqrt(float(np.vdot(w, w)) / 6.0)
        ratio, bound = det / cos ** 3, _C * self.error / cos
        for sign in (1, -1):
            if abs(ratio - sign) <= bound:
                return sign
        raise NumericalFailure(f"branch ratio det(A) / cos(phi)^3 = {ratio:.6f} matches neither "
                               f"class +-1 within {_margin(bound, self.error, 'phi', cos)}")


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
    compared first; triples that do not match are "no" only where some
    squared-cosine gap exceeds e_v + e_w, the sum of the two records' error
    scales (`_Analysis.error`); within it, unknown (the triple gate) unless
    the discrete invariants are decided and differ.  Then the discrete
    invariant (`_Analysis.invariant`): the
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
    gate = None
    if not all(abs(a - b) <= TRIPLE_MATCH_TOL
               for a, b in zip(rep_v.triple.cos_tuple(), rep_w.triple.cos_tuple())):
        gap = max(abs(a - b) for a, b in zip(rep_v.triple.cos2(), rep_w.triple.cos2()))
        bound = side_v.error + side_w.error
        if gap > bound:
            return Verdict("no", "different angle triples")
        gate = Verdict("unknown", f"triple gate: the cosines differ by more than "
                                  f"TRIPLE_MATCH_TOL, but their largest squared-cosine gap "
                                  f"{gap:.2e} <= e_v + e_w = {bound:.2e} (e_v = "
                                  f"{side_v.error:.2e}, e_w = {side_w.error:.2e})")
    verdict = _invariant_verdict(side_v.invariant, side_w.invariant, v_space.k)
    return verdict if gate is None or verdict.is_no else gate


def _invariant_verdict(inv_v: TypeSignature | int | None | NumericalFailure,
                       inv_w: TypeSignature | int | None | NumericalFailure, k: int) -> Verdict:
    """`are_equivalent` on the discrete invariants of two constant records
    whose angle triples match, or lie within the triple gate, which keeps
    only a "no" from here."""
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
    if k == 3:
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
