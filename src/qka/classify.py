"""Block factorization, type detection, equivalence, and moduli enumeration.

A constant-angle subspace of dimension 4l splits into l four-dimensional
blocks that are pairwise H-orthogonal and share the angle triple.  Each
block carries a sign: the normalized operators satisfy either
Pbar1 Pbar2 = +Pbar3 or = -Pbar3, and the pair (l_plus, l_minus) of block
counts is a complete equivalence invariant alongside the angle triple.
Mixed types are exactly the non-protohomogeneous constant-angle subspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .families import construct_classical, construct_sum, construct_v3
from .quaternion import CanonicalBasis
from .subspace import (
    AngleTriple,
    ConstancyReport,
    NumericalFailure,
    Subspace,
    constancy_check,
    joint_canonical_basis,
    pbar_operator,
    vector_qka,
)

__all__ = [
    "TypeSignature",
    "Verdict",
    "ModuliStratum",
    "StratumMembership",
    "factorize",
    "type_of",
    "is_protohomogeneous",
    "branch_of_v3",
    "are_equivalent",
    "strata_for",
    "moduli_membership",
    "moduli_describe",
    "representative",
    "classify_subspace",
    "snapped",
]

JOINT_RESIDUAL_TOL = 1e-8
REGION_TOL = 1e-10
TRIPLE_MATCH_TOL = 1e-8
# Cosines this close to 0 or 1 are treated as exact pi/2 or 0 angles when a
# triple computed from eigenvalues enters a region predicate (eigenvalue
# round-off of order 1e-16 surfaces as a cosine of order 1e-8).
SNAP_TOL = 1e-7


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


def _snap_cos(x: np.ndarray, tol: float = SNAP_TOL) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    x[np.abs(x) <= tol] = 0.0
    x[np.abs(x - 1.0) <= tol] = 1.0
    return x


def snapped(triple: AngleTriple, tol: float = SNAP_TOL) -> AngleTriple:
    """Snap angles indistinguishable from 0 or pi/2 to the exact value."""
    return AngleTriple.from_cosines(_snap_cos(triple.cosines(), tol))


def _cos_leq(value: float, bound: float, tol: float) -> bool:
    return value <= bound + tol


def _nullspace(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical kernel (columns)."""
    _, sv, vt = np.linalg.svd(mat)
    thresh = 1e-8 * max(sv[0] if sv.size else 0.0, 1.0)
    return vt[np.sum(sv > thresh):].T


def _kernel_split(p1, p2, p3, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernels of Pbar1 Pbar2 -+ Pbar3; dimensions must be multiples of 4."""
    prod = p1 @ p2
    kplus = _nullspace(prod - p3)
    kminus = _nullspace(prod + p3)
    if kplus.shape[1] % 4 or kminus.shape[1] % 4:
        raise NumericalFailure(
            f"kernel dimensions ({kplus.shape[1]}, {kminus.shape[1]}) are not "
            "multiples of 4"
        )
    if kplus.shape[1] + kminus.shape[1] != k:
        raise NumericalFailure(
            "sign kernels do not decompose the subspace "
            f"({kplus.shape[1]} + {kminus.shape[1]} != {k})"
        )
    return kplus, kminus


def _deflate(remaining: np.ndarray, used: np.ndarray) -> np.ndarray:
    resid = remaining - used @ (used.T @ remaining)
    u, sv, _ = np.linalg.svd(resid, full_matrices=False)
    return u[:, sv > 0.5]


def _cells(part: np.ndarray, generators: list[np.ndarray]) -> list[np.ndarray]:
    """Spans {v} U {G v} with deflation, as orthonormal coordinate blocks."""
    cells = []
    remaining = part
    while remaining.shape[1]:
        v = remaining[:, 0]
        cols = [v] + [g @ v for g in generators]
        q, _ = np.linalg.qr(np.column_stack(cols))
        cells.append(q)
        remaining = _deflate(remaining, q)
    return cells


class _Analysis:
    """The Omega/Pbar data of one subspace, shared by the decisions of one call.

    Holds the constancy report, the joint canonical basis with its residual,
    the Pbar triple and the sign-kernel split.  Each is computed on first use
    and at most once; an analysis lives for a single public call and is never
    cached across calls.
    """

    def __init__(self, v_space: Subspace, samples: int, seed: int):
        self.space = v_space
        self.samples = samples
        self.seed = seed

    @cached_property
    def report(self) -> ConstancyReport:
        return constancy_check(self.space, self.samples, self.seed)

    @cached_property
    def joint(self) -> tuple[CanonicalBasis, float]:
        """Common canonical basis and its residual, sampled with seed + 1."""
        return joint_canonical_basis(self.space, max(50, self.samples // 4), self.seed + 1)

    def canonical(self) -> tuple[AngleTriple, CanonicalBasis]:
        """Triple and common canonical basis shared by the block routines."""
        if self.space.k % 4:
            raise ValueError("block analysis needs dim V to be a multiple of 4")
        if not self.report.constant:
            raise ValueError(
                f"subspace does not have constant angle (spread {self.report.max_spread:.2e})"
            )
        basis, residual = self.joint
        if residual > JOINT_RESIDUAL_TOL:
            raise NumericalFailure(
                f"no common canonical basis found (joint residual {residual:.2e})"
            )
        return self.report.triple, basis

    @cached_property
    def pbars(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Pbar_1, Pbar_2 and, when phi3 < pi/2, Pbar_3 in V coordinates."""
        triple, basis = self.canonical()
        p1 = pbar_operator(self.space, basis, 1, triple.phi1)
        p2 = pbar_operator(self.space, basis, 2, triple.phi2)
        p3 = None
        if math.cos(triple.phi3) > 1e-8:
            p3 = pbar_operator(self.space, basis, 3, triple.phi3)
        return p1, p2, p3

    @cached_property
    def kernels(self) -> tuple[np.ndarray, np.ndarray]:
        return _kernel_split(*self.pbars, self.space.k)

    @cached_property
    def _block_type(self) -> TypeSignature | NumericalFailure:
        try:
            triple, _ = self.canonical()
            if math.cos(triple.phi3) <= 1e-8:
                return TypeSignature(self.space.k // 4, 0)
            kplus, kminus = self.kernels
            return TypeSignature(kplus.shape[1] // 4, kminus.shape[1] // 4)
        except NumericalFailure as exc:
            return exc

    def block_type(self) -> TypeSignature:
        """The block type; a numerical failure is kept and raised on every use."""
        if isinstance(self._block_type, NumericalFailure):
            raise self._block_type
        return self._block_type

    def protohomogeneity(self) -> Verdict:
        report = self.report
        if not report.constant:
            return Verdict(
                "no",
                f"the angle triple is not constant (spread {report.max_spread:.2e})",
            )
        k = self.space.k
        if k % 4 != 0 or k == 4:
            return Verdict("yes", "constant angle suffices in dimensions not divisible "
                                  "by four, and in dimension four")
        try:
            t = self.block_type()
        except NumericalFailure as exc:
            return Verdict("unknown", str(exc))
        if t.l_plus == 0 or t.l_minus == 0:
            return Verdict("yes", f"all {t.blocks()} blocks carry the same sign")
        return Verdict(
            "no",
            f"mixed block type ({t.l_plus}, {t.l_minus}): the two signs are "
            "inequivalent, so no group element can move one block family onto "
            "the other",
        )


def factorize(v_space: Subspace, samples: int = 400, seed: int = 0) -> list[Subspace]:
    """Split a constant-angle subspace of dimension 4l into its 4-blocks.

    The blocks are pairwise H-orthogonal, each 4-dimensional with the same
    angle triple as V, spanned by {v, Pbar_1 v, Pbar_2 v, Pbar_1 Pbar_2 v}
    with deflation (pure-sign parts are factored separately so the orbit of
    each seed vector closes up in dimension 4).
    """
    analysis = _Analysis(v_space, samples, seed)
    triple, basis = analysis.canonical()
    k = v_space.k
    cos2 = math.cos(triple.phi2)
    if cos2 <= 1e-8:
        if math.cos(triple.phi1) <= 1e-8:
            cells = [np.eye(k)[:, 4 * r:4 * r + 4] for r in range(k // 4)]
            blocks = cells
        else:
            p1 = pbar_operator(v_space, basis, 1, triple.phi1)
            pairs = _cells(np.eye(k), [p1])
            blocks = [np.column_stack([pairs[2 * r], pairs[2 * r + 1]])
                      for r in range(len(pairs) // 2)]
    else:
        p1, p2, p3 = analysis.pbars
        if p3 is None:
            parts = [np.eye(k)]
        else:
            parts = [p for p in analysis.kernels if p.shape[1]]
        blocks = []
        for part in parts:
            blocks.extend(_cells(part, [p1, p2, p1 @ p2]))
    out = []
    for b in blocks:
        if b.shape[1] != 4:
            raise NumericalFailure("block extraction produced a non-4-dimensional cell")
        out.append(Subspace(np.linalg.qr(v_space.basis @ b)[0]))
    return out


def type_of(v_space: Subspace, samples: int = 400, seed: int = 0) -> TypeSignature:
    """The pair (l_plus, l_minus) of block-sign multiplicities.

    When phi3 = pi/2 the two signs coincide and the type is (l, 0) by
    convention; otherwise the counts are the kernel dimensions of
    Pbar1 Pbar2 -+ Pbar3 divided by four.
    """
    return _Analysis(v_space, samples, seed).block_type()


def is_protohomogeneous(v_space: Subspace, samples: int = 400, seed: int = 0) -> Verdict:
    """Decide whether some connected group orbit fills the unit sphere of V.

    Constant angle settles every dimension except multiples of four greater
    than four, where the verdict is the block-type test; without a common
    canonical basis the subspace falls outside the classified families and
    the verdict is unknown.
    """
    return _Analysis(v_space, samples, seed).protohomogeneity()


def branch_of_v3(
    v_space: Subspace, base_points: int = 24, seed: int = 0, tol: float = 1e-8
) -> int:
    """The sign separating the two 3-dimensional classes at the same angle.

    Reconstructs the auxiliary vectors e_i = -(J_i Pbar_i e0 + cos(phi) e0)
    / sin(phi) at sampled base points; their inner product equals
    cos(phi)/(cos(phi) + sign) and does not depend on the base point.
    """
    if v_space.k != 3:
        raise ValueError("branch detection applies to 3-dimensional subspaces")
    report = constancy_check(v_space, 300, seed)
    if not report.constant:
        raise ValueError("subspace does not have constant angle")
    triple = report.triple
    if abs(math.cos(triple.phi1) - math.cos(triple.phi2)) > 1e-7:
        raise NumericalFailure("3-dimensional constant-angle triples have phi1 = phi2")
    phi = 0.5 * (triple.phi1 + triple.phi2)
    c = math.cos(phi)
    if c <= 1e-8 or c >= 1.0 - 1e-8:
        raise ValueError("the two classes merge at phi = pi/2 and phi = 0")
    rng = np.random.default_rng(seed)
    proj = v_space.projector()
    thetas = []
    for _ in range(base_points):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        v = v_space.basis @ x
        _, basis = vector_qka(v_space, v)
        es = []
        for i in (1, 2):
            pbar_v = proj @ basis.apply(i, v) / c
            es.append(-(basis.apply(i, pbar_v) + c * v) / math.sin(phi))
        thetas.append(float(es[0] @ es[1]))
    thetas = np.array(thetas)
    if thetas.max() - thetas.min() > tol:
        raise NumericalFailure(
            f"branch invariant varies across base points (spread "
            f"{thetas.max() - thetas.min():.2e})"
        )
    theta = float(np.mean(thetas))
    for sign in (1, -1):
        if abs(theta - c / (c + sign)) <= tol:
            return sign
    raise NumericalFailure(
        f"branch invariant {theta:.6f} matches neither class at phi={phi:.6f}"
    )


def are_equivalent(
    v_space: Subspace, w_space: Subspace, samples: int = 400, seed: int = 0
) -> Verdict:
    """Decide congruence under the group from computable invariants.

    Dimension and the sorted angle triple are always compared; dimension 3
    additionally compares the branch sign (the classes merge at phi = pi/2),
    and dimensions 4l compare block types.  Constant-angle subspaces of
    dimension 4l without a common canonical basis are outside the classified
    regime and yield unknown.
    """
    if v_space.n != w_space.n:
        return Verdict("no", "different ambient quaternionic dimensions")
    if v_space.k != w_space.k:
        return Verdict("no", "different dimensions")
    side_v = _Analysis(v_space, samples, seed)
    side_w = _Analysis(w_space, samples, seed + 1)
    rep_v, rep_w = side_v.report, side_w.report
    if rep_v.constant != rep_w.constant:
        return Verdict("no", "constancy of the angle triple is an invariant")
    if not rep_v.constant:
        return Verdict("unknown", "both angle triples are non-constant; no invariant "
                                  "implemented for that regime")
    # Snap near-0/near-pi/2 angles first: eigenvalue round-off surfaces as a
    # square-root-sized cosine error at the ends of the range.
    triple = snapped(rep_v.triple)
    if not triple.close_to(snapped(rep_w.triple), TRIPLE_MATCH_TOL):
        return Verdict("no", "different angle triples")
    k = v_space.k
    if k == 3:
        c = math.cos(triple.phi1)
        if c <= 1e-8 or c >= 1.0 - 1e-8:
            return Verdict("yes", "equal angle triples; a single class exists at "
                                  "this angle")
        bv = branch_of_v3(v_space, seed=seed)
        bw = branch_of_v3(w_space, seed=seed + 1)
        if bv == bw:
            return Verdict("yes", f"equal angle triples and branch ({bv:+d})")
        return Verdict("no", f"opposite branches ({bv:+d} vs {bw:+d})")
    if k % 4 == 0:
        try:
            tv = side_v.block_type()
            tw = side_w.block_type()
        except NumericalFailure as exc:
            return Verdict("unknown", str(exc))
        if tv == tw:
            return Verdict("yes", f"equal angle triples and type {tv.as_tuple()}")
        return Verdict("no", f"different types {tv.as_tuple()} vs {tw.as_tuple()}")
    return Verdict("yes", "equal angle triples; the triple is a complete invariant "
                          "in this dimension")


@dataclass(frozen=True)
class ModuliStratum:
    """One stratum of the moduli space of protohomogeneous k-subspaces."""

    name: str
    kind: str  # point | curve | region | region_with_Z2 | surface
    description: str
    multiplicity: int
    predicate: Callable[[AngleTriple, float], bool] = field(repr=False)
    action: str = "subspace-induced"
    annotation: str | None = None

    def contains(self, triple: AngleTriple, tol: float = REGION_TOL) -> bool:
        return self.predicate(triple, tol)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "multiplicity": self.multiplicity,
            "action": self.action,
        }
        if self.annotation:
            out["annotation"] = self.annotation
        return out


def _point_stratum(name, cosines, description, annotation=None) -> ModuliStratum:
    target = np.asarray(cosines, dtype=float)

    def pred(triple: AngleTriple, tol: float) -> bool:
        return bool(np.max(np.abs(triple.cosines() - target)) <= tol)

    return ModuliStratum(name, "point", description, 1, pred, annotation=annotation)


def _in_minus_region(x: np.ndarray, tol: float) -> bool:
    return _cos_leq(x[0] + x[1] + x[2], 1.0, tol) and x[2] > tol


def strata_for(k: int, n: int) -> list[ModuliStratum]:
    """The strata of the moduli space of protohomogeneous k-subspaces of H^n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= 4 * n:
        raise ValueError(f"k must lie in [0, 4n] = [0, {4 * n}], got {k}")
    if k == 0:
        return []
    out: list[ModuliStratum] = []
    if k % 4 == 0:
        if k <= n:
            def plus_only(triple, tol):
                x = triple.cosines()
                return _cos_leq(x[0] + x[1] - x[2], 1.0, tol) and not _in_minus_region(x, tol)

            def both_signs(triple, tol):
                return _in_minus_region(triple.cosines(), tol)

            out.append(ModuliStratum(
                "single_class_region", "region",
                "triples with cos(phi1)+cos(phi2)-cos(phi3) <= 1 outside the "
                "two-class region; one subspace class per triple",
                1, plus_only))
            out.append(ModuliStratum(
                "two_class_region", "region_with_Z2",
                "triples with cos(phi1)+cos(phi2)+cos(phi3) <= 1 and "
                "phi3 != pi/2; two inequivalent classes per triple",
                2, both_signs))
        elif 3 * k <= 4 * n:
            def on_boundary(triple, tol):
                x = triple.cosines()
                return (abs(x[0] + x[1] - x[2] - 1.0) <= tol
                        or abs(x[0] + x[1] + x[2] - 1.0) <= tol)

            out.append(ModuliStratum(
                "boundary_sum_surface", "surface",
                "triples with cos(phi1)+cos(phi2)+-cos(phi3) = 1; blocks on "
                "the rank-two boundary fit three quaternionic dimensions each",
                1, on_boundary))
        elif k <= 2 * n:
            def complexified(triple, tol):
                x = triple.cosines()
                return x[0] >= 1.0 - tol and abs(x[1] - x[2]) <= tol

            out.append(ModuliStratum(
                "complexified_curve", "curve",
                "triples (0, phi, phi), phi in [0, pi/2]",
                1, complexified))
        else:
            out.append(_point_stratum(
                "quaternionic_point", (1.0, 1.0, 1.0),
                "the quaternionic subspace, angles (0, 0, 0)",
                annotation="tubes around a totally geodesic quaternionic "
                           "hyperbolic subspace"))
    elif k % 2 == 0:
        if k <= n:
            def kahler_line(triple, tol):
                x = triple.cosines()
                return x[1] <= tol and x[2] <= tol

            out.append(ModuliStratum(
                "kahler_angle_curve", "curve",
                "triples (phi, pi/2, pi/2), phi in [0, pi/2]",
                1, kahler_line))
        elif k <= 2 * n:
            out.append(_point_stratum(
                "totally_complex_point", (1.0, 0.0, 0.0),
                "the totally complex subspace, angles (0, pi/2, pi/2)"))
    elif k == 3:
        if k <= n:
            def merged(triple, tol):
                x = triple.cosines()
                return (abs(x[0] - x[1]) <= tol and x[2] <= tol
                        and (x[0] > 0.5 + tol or x[0] <= tol))

            def branched(triple, tol):
                x = triple.cosines()
                return (abs(x[0] - x[1]) <= tol and x[2] <= tol
                        and tol < x[0] <= 0.5 + tol)

            out.append(ModuliStratum(
                "single_branch_curve", "curve",
                "triples (phi, phi, pi/2), phi in [0, pi/3) or phi = pi/2; "
                "one subspace class per angle",
                1, merged))
            out.append(ModuliStratum(
                "two_branch_curve", "curve",
                "triples (phi, phi, pi/2), phi in [pi/3, pi/2); two "
                "inequivalent classes per angle",
                2, branched))
        elif 4 * n < 3 * k and k <= 2 * n:
            out.append(_point_stratum(
                "imaginary_line_point", (1.0, 1.0, 0.0),
                "the imaginary span of a vector, angles (0, 0, pi/2)"))
            out.append(_point_stratum(
                "compact_branch_point", (0.5, 0.5, 0.0),
                "the single 3-dimensional class at phi = pi/3 that fits two "
                "quaternionic dimensions"))
        elif k > 2 * n:
            out.append(_point_stratum(
                "imaginary_line_point", (1.0, 1.0, 0.0),
                "the imaginary span of a vector, angles (0, 0, pi/2)"))
    else:
        if k <= n:
            out.append(_point_stratum(
                "totally_real_point", (0.0, 0.0, 0.0),
                "the totally real subspace, angles (pi/2, pi/2, pi/2)"))
    if k == 1:
        annotated = []
        for s in out:
            annotated.append(ModuliStratum(
                s.name, s.kind, s.description, s.multiplicity, s.predicate,
                s.action, "solvable foliation"))
        out = annotated
    return out


@dataclass(frozen=True)
class StratumMembership:
    """A stratum containing a triple, tagged with one of its classes."""

    stratum: ModuliStratum
    branch: int | None = None

    def to_dict(self) -> dict:
        out = self.stratum.to_dict()
        if self.branch is not None:
            out["branch"] = self.branch
        return out


def moduli_membership(
    k: int, n: int, triple: AngleTriple, tol: float = REGION_TOL
) -> list[StratumMembership]:
    """The strata of the (k, n) moduli space containing the triple.

    Strata carrying two inequivalent classes contribute one entry per
    class, tagged branch +1 and -1.
    """
    if k < 1:
        raise ValueError("membership needs k >= 1")
    hits = []
    for stratum in strata_for(k, n):
        if stratum.contains(triple, tol):
            if stratum.multiplicity == 2:
                hits.append(StratumMembership(stratum, 1))
                hits.append(StratumMembership(stratum, -1))
            else:
                hits.append(StratumMembership(stratum))
    return hits


_SPECIAL_ACTIONS = [
    {
        "action": "N",
        "description": "the action producing the horosphere foliation",
    },
    {
        "action": "K",
        "description": "the action producing geodesic spheres centered at a point",
    },
    {
        "action": "SU(1,n+1)",
        "description": "the action producing tubes around a totally geodesic "
                       "complex hyperbolic subspace of half dimension",
    },
]


def moduli_describe(k: int, n: int) -> dict:
    """Machine-readable stratification of the (k, n) moduli space.

    k = 0 returns only the three special cohomogeneity-one actions; k >= 1
    returns the strata with their action labels.
    """
    out: dict = {"k": k, "n": n}
    if k == 0:
        out["special_actions"] = list(_SPECIAL_ACTIONS)
        out["strata"] = []
        return out
    out["strata"] = [s.to_dict() for s in strata_for(k, n)]
    return out


def representative(
    k: int, n: int, triple: AngleTriple, branch: int | None = None
) -> Subspace:
    """A subspace realizing the given point of the moduli space.

    ``branch`` selects the class on two-class strata (+1 by default) and is
    rejected on single-class strata.
    """
    hits = moduli_membership(k, n, triple)
    if not hits:
        raise ValueError(
            f"the triple lies in no stratum of the ({k}, {n}) moduli space"
        )
    if branch is not None and branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    two_class = any(h.stratum.multiplicity == 2 for h in hits)
    if branch == -1 and not two_class:
        raise ValueError("branch selection on a single-class stratum")
    x = _snap_cos(triple.cosines())
    phis = np.arccos(x)
    if k == 3:
        if x[0] >= 1.0:  # (0, 0, pi/2)
            return construct_classical("im_h_line", 3, n)
        if x[0] <= 0.0:  # totally real
            return construct_classical("totally_real", 3, n)
        if branch is None:
            # Single-class strata realize whichever branch fits the ambient
            # n (only the minus branch at pi/3 fits two quaternionic dims).
            try:
                return construct_v3(float(phis[0]), 1, n)
            except ValueError:
                return construct_v3(float(phis[0]), -1, n)
        return construct_v3(float(phis[0]), branch, n)
    if k % 4 == 0:
        l = k // 4
        if x[0] >= 1.0:  # (0, phi, phi) including quaternionic and complex
            return construct_sum(AngleTriple(*phis), l, 0, n)
        wants_minus = branch == -1
        if branch is None:
            # Single-class strata realize whichever sign fits the ambient n;
            # prefer the plus class.
            try:
                return construct_sum(AngleTriple(*phis), l, 0, n)
            except ValueError:
                return construct_sum(AngleTriple(*phis), 0, l, n)
        if wants_minus:
            return construct_sum(AngleTriple(*phis), 0, l, n)
        return construct_sum(AngleTriple(*phis), l, 0, n)
    if k % 2 == 0:
        if x[0] >= 1.0:
            return construct_classical("totally_complex", k, n)
        if x[0] <= 0.0:
            return construct_classical("totally_real", k, n)
        return construct_classical("cka_plane_sum", k, n, phi=float(phis[0]))
    return construct_classical("totally_real", k, n)


def classify_subspace(v_space: Subspace, samples: int = 500, seed: int = 0) -> dict:
    """Full classification record of a subspace (the `classify` CLI payload)."""
    analysis = _Analysis(v_space, samples, seed)
    report = analysis.report
    record: dict = {
        "n": v_space.n,
        "k": v_space.k,
        "triple": list(report.triple.as_tuple()),
        "cosines": report.triple.cosines().tolist(),
        "constant": report.constant,
        "spread": report.max_spread,
    }
    if not report.constant:
        record["protohomogeneous"] = {
            "value": "no",
            "reason": "the angle triple is not constant",
        }
        return record
    record["joint_residual"] = analysis.joint[1]
    verdict = analysis.protohomogeneity()
    record["protohomogeneous"] = {"value": verdict.value, "reason": verdict.reason}
    k = v_space.k
    if k % 4 == 0:
        try:
            record["type"] = list(analysis.block_type().as_tuple())
        except NumericalFailure as exc:
            record["type"] = None
            record["type_diagnostic"] = str(exc)
    if k == 3:
        triple = snapped(report.triple)
        c = math.cos(triple.phi1)
        if 1e-8 < c < 1.0 - 1e-8:
            record["branch"] = branch_of_v3(v_space, seed=seed)
        else:
            record["branch"] = None
    strata = moduli_membership(k, v_space.n, snapped(report.triple))
    record["strata"] = [hit.to_dict() for hit in strata]
    return record
