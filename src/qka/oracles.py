"""Independent brute-force validators used by the test suite.

These deliberately avoid the code paths they certify: eigenvalues of 3x3
symmetric matrices come from the trigonometric closed form rather than the
LAPACK path used by the angle machinery, and positive semidefiniteness is
double-checked against the principal-minor criterion.  The declared inputs
(`declared_inputs`) are the constructed subspaces that selftest and the
verdict tests share, each with the verdicts the paper's classification
declares for it (`declared_class`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

import numpy as np

from .families import CATALOG, FamilySpec, _gram, gram_matrix, min_quaternionic_dim
from .quaternion import STANDARD_BASIS, random_group_element
from .moduli import HALF_PI, AngleTriple, snapped
from .subspace import NumericalFailure, Subspace, constancy_check, distribution_rank

__all__ = [
    "DeclaredInput",
    "closed_form_eigvals",
    "declared_class",
    "declared_inputs",
    "psd_oracle",
    "psd_oracle_batch",
    "det_closed_form",
    "det_formula_check",
    "gram_grid_sweep",
    "invariance_oracle",
    "steenrod_allows",
    "steenrod_oracle",
]

PSD_TOL = 1e-10
# Squared cosines within this of 0, or of each other, count as equal in the
# sphere-distribution constraints (`steenrod_allows`, `steenrod_oracle`).
STEENROD_TOL = 1e-8


def _det3(a: np.ndarray) -> np.ndarray:
    """Determinants of 3x3 matrices (..., 3, 3), expanded along the first row."""
    return (
        a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
        - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
        + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
    )


def closed_form_eigvals(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric 3x3 matrices by the trigonometric formula.

    Accepts a single matrix or a batch (..., 3, 3); returns eigenvalues in
    descending order along the last axis.
    """
    a = np.asarray(mats, dtype=float)
    single = a.ndim == 2
    if single:
        a = a[None]
    d = a[..., np.arange(3), np.arange(3)]
    q = d.sum(axis=-1) / 3.0
    p1 = a[..., 0, 1] ** 2 + a[..., 0, 2] ** 2 + a[..., 1, 2] ** 2
    p2 = ((d - q[..., None]) ** 2).sum(axis=-1) + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    safe = np.where(p > 0.0, p, 1.0)
    b = (a - q[..., None, None] * np.eye(3)) / safe[..., None, None]
    r = np.clip(_det3(b) / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    out = np.stack([e1, e2, e3], axis=-1)
    # p == 0 means the matrix is already diagonal
    diag_sorted = -np.sort(-d, axis=-1)
    out = np.where((p > 0.0)[..., None], out, diag_sorted)
    return out[0] if single else out


def psd_oracle(m) -> tuple[bool, int | None]:
    """Positive semidefiniteness and rank of a symmetric 3x3 matrix.

    Decided by closed-form eigenvalues and cross-checked against the
    principal-minor criterion; a disagreement raises, since it signals a
    tolerance misconfiguration rather than an answer.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or np.max(np.abs(m - m.T)) > 1e-12:
        raise ValueError("expected a symmetric 3x3 matrix")
    psd, rank = psd_oracle_batch(m[None])
    return (True, int(rank[0])) if psd[0] else (False, None)


def psd_oracle_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized psd_oracle over a batch (m, 3, 3) of symmetric matrices.

    Returns boolean psd flags and integer ranks (ranks are meaningful only
    where psd holds), both read within PSD_TOL.  Raises on any
    eigenvalue/minor disagreement.
    """
    m = np.asarray(mats, dtype=float)
    lams = closed_form_eigvals(m)
    psd_eig = lams[:, -1] >= -PSD_TOL
    minors = [m[:, i, i] for i in range(3)]
    minors += [m[:, i, i] * m[:, j, j] - m[:, i, j] * m[:, j, i]
               for i, j in ((0, 1), (0, 2), (1, 2))]
    psd_minor = np.min(np.stack(minors + [_det3(m)], axis=1), axis=1) >= -PSD_TOL
    if np.any(psd_eig != psd_minor):
        idx = int(np.argmax(psd_eig != psd_minor))
        raise NumericalFailure(
            f"eigenvalue and principal-minor criteria disagree at batch index {idx}"
        )
    return psd_eig, np.sum(lams > PSD_TOL, axis=1)


def det_closed_form(cosines, sign: int) -> float:
    """The factored determinant of the Gram matrix in terms of cosines."""
    x1, x2, x3 = cosines
    e = float(sign)
    num = ((e + x1 - x2 - x3) * (-e + x1 + x2 - x3)
           * (-e + x1 - x2 + x3) * (e + x1 + x2 + x3))
    den = (1.0 - x1**2) * (1.0 - x2**2) * (1.0 - x3**2)
    return num / den


def det_formula_check(angles: AngleTriple, sign: int) -> float:
    """Deviation between det(gram) and its closed form; needs interior angles."""
    x = np.array(angles.cos_tuple())
    if np.any(x <= 1e-12) or np.any(x >= 1.0 - 1e-12):
        raise ValueError("the closed form needs angles strictly inside (0, pi/2)")
    return float(abs(np.linalg.det(gram_matrix(angles, sign)) - det_closed_form(x, sign)))


def gram_grid_sweep(resolution: int) -> dict:
    """Sweep both Gram signs over the cosine triples x1 >= x2 >= x3 of the
    grid of ``resolution`` points per axis on [0, 0.98], and tally every
    cross-check.

    Compares the eigenvalue psd oracle against the closed-form inequality
    (with rank 2 exactly on its boundary) and the numerical determinant
    against the factored closed form on the interior points.  The Gram
    matrices come from the kernel that gram_matrix and the constructors
    call (`families._gram`), at the grid cosines, so the sweep checks the
    production formula itself.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    axis = np.linspace(0.0, 0.98, resolution)
    x1, x2, x3 = np.meshgrid(axis, axis, axis, indexing="ij")
    mask = (x1 >= x2) & (x2 >= x3)
    xs = np.stack([x1[mask], x2[mask], x3[mask]], axis=1)
    out = {"points": 2 * len(xs), "psd_disagreements": 0, "rank_mismatches": 0,
           "det_deviation": 0.0}
    inside = np.all((xs > 0.02) & (xs < 0.97), axis=1)
    interior = xs[inside]
    for sign in (1, -1):
        grams = np.array([_gram(x, sign) for x in xs.tolist()])
        psd, rank = psd_oracle_batch(grams)
        margin = xs[:, 0] + xs[:, 1] - sign * xs[:, 2] - 1.0
        formula = margin <= PSD_TOL
        out["psd_disagreements"] += int(np.sum(psd != formula))
        boundary = np.abs(margin) <= PSD_TOL
        out["rank_mismatches"] += int(np.sum(rank[psd & boundary] != 2))
        out["rank_mismatches"] += int(np.sum(rank[psd & ~boundary] != 3))
        if len(interior):
            dets = np.linalg.det(grams[inside])
            closed = np.array([det_closed_form(x, sign) for x in interior])
            out["det_deviation"] = max(out["det_deviation"],
                                       float(np.max(np.abs(dets - closed))))
    return out


def _sorted_cos2_batch(v_space: Subspace, samples: int, rng) -> np.ndarray:
    """Sorted squared cosines at random unit vectors x of V, by brute force:
    Omega(x)_ij = <pi_V J_i x, pi_V J_j x> with the 4n x 4n projector pi_V."""
    c = rng.standard_normal((v_space.k, samples))
    x = v_space.basis @ (c / np.linalg.norm(c, axis=0))
    proj = v_space.projector()
    px = np.stack([proj @ STANDARD_BASIS.apply(i, x) for i in (1, 2, 3)])  # (3, 4n, m)
    oms = np.einsum("iam,jam->mij", px, px)
    return np.sort(np.linalg.eigvalsh(oms), axis=1)


def invariance_oracle(
    v_space: Subspace, trials: int = 100, seed: int = 0, vectors_per_trial: int = 6
) -> float:
    """Max deviation of the sorted squared cosines under random group elements."""
    rng = np.random.default_rng(seed)
    reference = _sorted_cos2_batch(v_space, 32, rng).mean(axis=0)
    worst = 0.0
    for t in range(trials):
        g = random_group_element(v_space.n, seed * 7919 + 2 * t + 1)
        moved = v_space.transformed(g)
        lams = _sorted_cos2_batch(moved, vectors_per_trial, rng)
        worst = max(worst, float(np.max(np.abs(lams - reference))))
    return worst


def steenrod_allows(k: int, triple: AngleTriple) -> bool:
    """Whether a triple is possible for a constant-angle subspace of dim k.

    Encodes the sphere-distribution constraints: odd k other than 3 forces
    the totally real triple, k = 2 mod 4 forces (phi, pi/2, pi/2), and k = 3
    forces (phi, phi, pi/2), on squared cosines within STEENROD_TOL.
    """
    c2 = np.square(triple.cos_tuple())
    if k % 2 == 1 and k != 3:
        return bool(np.all(c2 <= STEENROD_TOL))
    if k % 4 == 2:
        return bool(c2[1] <= STEENROD_TOL and c2[2] <= STEENROD_TOL)
    if k == 3:
        return bool(abs(c2[0] - c2[1]) <= STEENROD_TOL and c2[2] <= STEENROD_TOL)
    return True


def steenrod_oracle(v_space: Subspace, samples: int = 300, seed: int = 0) -> bool:
    """Dimension-dependent consistency of the triple and distribution rank."""
    report = constancy_check(v_space, samples, seed)
    if not report.constant:
        raise ValueError("the oracle applies to constant-angle subspaces")
    triple = report.triple
    if not steenrod_allows(v_space.k, triple):
        return False
    expected_rank = int(np.sum(np.square(triple.cos_tuple()) > STEENROD_TOL))
    return distribution_rank(v_space, seed=seed) == expected_rank


# -- The declared inputs ----------------------------------------------------


def declared_class(spec: FamilySpec) -> tuple[tuple[int, int] | int | None, str]:
    """The discrete invariant and protohomogeneity ("yes" or "no") that the
    paper's classification declares for the construction ``spec`` selects.

    The invariant is the block type (l_plus, l_minus) in dimension 4l, the
    branch (the class's sign) in dimension 3, else None.  The classical
    families are of the plus type: the two block signs coincide at
    phi3 = pi/2, and only the plus class exists at phi1 = 0.  The two
    3-dimensional classes merge at phi = 0 and pi/2 (read on the snapped
    cosine), where no branch is declared.  A constant-angle subspace is
    protohomogeneous exactly when its type is not mixed.
    """
    if spec.family == "v3":
        invariant = spec.sign if 0.0 < snapped((spec.cos,))[0] < 1.0 else None
    elif spec.family == "v4":
        invariant = (1, 0) if spec.sign == 1 else (0, 1)
    elif spec.family == "sum_type":
        invariant = (spec.l_plus, spec.l_minus)
    else:
        invariant = (spec.k // 4, 0) if spec.k % 4 == 0 else None
    mixed = isinstance(invariant, tuple) and min(invariant) > 0
    return invariant, "no" if mixed else "yes"


# The cosines of each family's triple, from the cosine c of the one angle of
# those that read one; v4 and sum_type carry their triple.
_FAMILY_COSINES = {
    "totally_real": lambda c: (0.0, 0.0, 0.0),
    "totally_complex": lambda c: (1.0, 0.0, 0.0),
    "quaternionic": lambda c: (1.0, 1.0, 1.0),
    "im_h_line": lambda c: (1.0, 1.0, 0.0),
    "cka_plane_sum": lambda c: (c, 0.0, 0.0),
    "complexified_cka": lambda c: (1.0, c, c),
    "v3": lambda c: (c, c, 0.0),
}


@dataclass(frozen=True)
class DeclaredInput:
    """One constructed input: its FamilySpec (n included), the tags of the
    readers that select it, and, where a reader declares them, the strata
    (name, branch) its record lists.  Its triple is its family's, and its
    type, branch and protohomogeneity are `declared_class`'s."""

    spec: FamilySpec
    tags: frozenset[str]
    strata: tuple[tuple[str, int | None], ...] | None = None

    @property
    def label(self) -> str:
        """The family, the fields it reads (cosines to four places) and n."""
        spec = self.spec
        read = {name: getattr(spec, name) for name in CATALOG[spec.family][0]}
        if "angles" in read:
            read["angles"] = read["angles"].cos_tuple()
        return " ".join([spec.family, *(f"{k}={np.round(v, 4)}" for k, v in read.items()),
                         f"n={spec.n}"])

    @property
    def triple(self) -> AngleTriple:
        """The declared triple: the spec's own, else its family's (`_FAMILY_COSINES`)."""
        if self.spec.angles is not None:
            return self.spec.angles
        return AngleTriple.from_cosines(_FAMILY_COSINES[self.spec.family](self.spec.cos))


# The v4 classes on the boundary cos(phi1) + cos(phi2) - sign cos(phi3) = 1,
# by sign; a boundary without a class is refused, not skipped.
_SIGN_BOUNDARIES = {
    1: ((0.8, 0.5, 0.3), (0.9, 0.5, 0.4), (0.7, 0.6, 0.3), (0.85, 0.6, 0.45),
        (0.95, 0.8, 0.75)),
    -1: ((1 / 3, 1 / 3, 1 / 3), (0.5, 0.3, 0.2), (0.4, 0.35, 0.25), (0.6, 0.3, 0.1),
         (0.5, 0.45, 0.05)),
}
_TWO_CLASS = (("two_class_region", 1), ("two_class_region", -1))


def declared_inputs(quick: bool) -> list[DeclaredInput]:
    """The constructed inputs of selftest and the verdict tests, each once.

    Each reader selects its records by a tag: "grid", every family over its
    parameter grid (C1 and C8, with each v4 class at its least n read by
    C4); "types", the sums of C5 at their least n, and "witness", its
    mixed sum in H^7; "orbit" (C9), "jacobi" (C10) and "blocks" (C11);
    "branch", the 3-dimensional classes whose invariant the tests rebuild
    point by point; and "property", one input of each kind of record, for
    the tests' random group and basis moves.  ``quick`` shrinks the grids
    and keeps the first rows of each list, as selftest's quick mode does.
    """
    inputs: dict[FamilySpec, DeclaredInput] = {}

    def add(spec, *tags, strata=None):
        old = inputs.get(spec, DeclaredInput(spec, frozenset()))
        inputs[spec] = replace(old, tags=old.tags | set(tags), strata=strata or old.strata)

    def classical(family, k, n, phi=None):
        return FamilySpec(family, n, k=k, cos=None if phi is None else math.cos(phi))

    def v3(phi, sign, n):
        return FamilySpec("v3", n, cos=math.cos(phi), sign=sign)

    def block_sum(angles, l_plus, l_minus):  # at its least n, as every sum here
        spec = FamilySpec("sum_type", 0, angles=angles, l_plus=l_plus, l_minus=l_minus)
        return replace(spec, n=min_quaternionic_dim(spec))

    def v4(angles, sign):  # at its least n
        spec = FamilySpec("v4", 0, angles=angles, sign=sign)
        return replace(spec, n=min_quaternionic_dim(spec))

    for k in (1, 3) if quick else (1, 2, 3, 4, 5, 7, 8):
        add(classical("totally_real", k, max(k, 5)), "grid")
    for k in (2, 4) if quick else (2, 4, 6, 8, 10):
        add(classical("totally_complex", k, 5), "grid")
    for k in (4,) if quick else (4, 8, 12, 16):
        add(classical("quaternionic", k, 4), "grid")
    for n in (1,) if quick else (1, 2, 4):
        add(classical("im_h_line", 3, n), "grid")
    for phi in (0.7, 1.3) if quick else (0.25, 0.6, 0.9, 1.1, 1.3, 1.45):
        for l in (1,) if quick else (1, 2, 3):
            add(classical("cka_plane_sum", 2 * l, 2 * l, phi), "grid")
        for l in (1,) if quick else (1, 2):
            add(classical("complexified_cka", 4 * l, 2 * l, phi), "grid")
    for sign, start, count in ((1, 0.12, 4 if quick else 14), (-1, math.pi / 3, 3 if quick else 9)):
        for phi in np.linspace(start, HALF_PI, count):
            add(v3(float(phi), sign, 3), "grid")
    add(v3(math.pi / 3, -1, 2), "grid")
    values = (0.85, 0.6, 0.35, 0.15) if quick else (0.95, 0.85, 0.7, 0.55, 0.4, 0.25, 0.12, 0.04)
    classes = []
    for x in combinations_with_replacement(values, 3):
        for sign in (1, -1):
            try:
                classes.append(v4(AngleTriple.from_cosines(x), sign))
            except ValueError:  # no class of this sign at these cosines
                continue
    classes += [v4(AngleTriple.from_cosines(x), sign) for sign, xs in _SIGN_BOUNDARIES.items()
                for x in (xs[:2] if quick else xs)]
    for spec in classes:
        for extra in (0,) if quick else (0, 1):
            add(replace(spec, n=spec.n + extra), "grid")

    t03, t13, tb, ta, t543, t853 = map(AngleTriple.from_cosines, (
        (0.3,) * 3, (1 / 3,) * 3, (0.5, 0.3, 0.2), (0.5, 0.25, 0.12), (0.5, 0.4, 0.3),
        (0.8, 0.5, 0.3)))
    sums = [(t03, 2, 0), (t03, 0, 2), (t03, 1, 1), (t13, 1, 1), (t13, 0, 2), (t13, 2, 0),
            (tb, 0, 3), (tb, 1, 2), (t543, 3, 0), (AngleTriple(HALF_PI, HALF_PI, HALF_PI), 2, 0)]
    for row in sums[:4] if quick else sums:
        add(block_sum(*row), "grid")
    pairs = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (3, 0), (0, 3), (2, 2),
             (3, 1), (4, 0)]
    for x in (t03, t13, t543, t853):
        for pair in pairs[:5] if quick else pairs:
            try:
                add(block_sum(x, *pair), "types")
            except ValueError:  # no class of one of the signs at this triple
                continue
    add(block_sum(t13, 1, 1), "witness", strata=(("boundary_sum_surface", None),))

    rows = {
        "orbit": (4, [classical("quaternionic", 4, 2), classical("totally_real", 3, 3),
                      classical("im_h_line", 3, 2), v3(0.9, 1, 3), v3(1.15, -1, 3),
                      v4(t03, 1), v4(t13, -1), block_sum(t13, 1, 1)]),
        "jacobi": (7, [classical("quaternionic", 8, 2), classical("totally_real", 4, 4),
                       classical("totally_complex", 4, 2),
                       classical("cka_plane_sum", 4, 4, 0.8),
                       classical("complexified_cka", 4, 2, 0.8),
                       classical("im_h_line", 3, 1), classical("im_h_line", 3, 3),
                       v4(t03, 1), v4(t03, -1), block_sum(t03, 2, 0), block_sum(t13, 0, 2)]),
        "blocks": (3, [block_sum(t03, 2, 0), block_sum(t03, 1, 1), block_sum(t13, 1, 1),
                       block_sum(t13, 0, 2), block_sum(tb, 0, 3), block_sum(t03, 2, 1)]),
    }
    for tag, (first, specs) in rows.items():
        for spec in specs[:first] if quick else specs:
            add(spec, tag)
    if not quick:  # the inputs only the tests read
        for phi in (math.pi / 3, 1.2, 1.45):
            for sign in (1, -1):
                for n in (2, 3, 5):
                    if n >= min_quaternionic_dim(v3(phi, sign, 0)):
                        add(v3(phi, sign, n), "branch")
        for spec, strata in (
                (block_sum(ta, 1, 1), _TWO_CLASS), (block_sum(ta, 4, 0), _TWO_CLASS),
                (block_sum(ta, 1, 3), _TWO_CLASS), (v4(t03, -1), _TWO_CLASS),
                (v3(1.2, -1, 3), (("two_branch_curve", 1), ("two_branch_curve", -1))),
                (classical("quaternionic", 8, 4), (("complexified_curve", None),)),
                (classical("im_h_line", 3, 2), (("imaginary_line_point", None),)),
                (classical("totally_complex", 6, 4), (("totally_complex_point", None),)),
                (classical("quaternionic", 4, 1), None)):  # the whole of H^1
            add(spec, strata=strata)
        for spec in (block_sum(ta, 1, 1), block_sum(t13, 1, 1), v4(t03, -1), v3(1.2, -1, 3),
                     v3(1.2, 1, 3), classical("quaternionic", 8, 4), classical("im_h_line", 3, 2),
                     classical("totally_complex", 6, 4), classical("cka_plane_sum", 4, 4, 0.8),
                     classical("totally_real", 4, 4)):
            add(spec, "property")
    return list(inputs.values())
