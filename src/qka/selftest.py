"""Acceptance battery: one callable per criterion, shared by CLI and tests.

Each criterion returns (passed, detail).  ``quick`` shrinks grids and sample
counts so the whole battery stays interactive; the full battery runs the
grids at the documented sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .classify import (
    are_equivalent,
    branch_of_v3,
    classify_subspace,
    factorize,
    is_protohomogeneous,
    representative,
    type_of,
)
from .families import (
    FamilySpec,
    _gram,
    _place,
    _psd_cholesky,
    _sin,
    _tilted_block,
    admissible,
    construct_classical,
    construct_sum,
    construct_v3,
    construct_v4,
    min_quaternionic_dim,
)
from .moduli import HALF_PI, AngleTriple, moduli_membership, snapped, strata_for
from .oracles import (
    GridSpec,
    gram_grid_sweep,
    invariance_oracle,
    steenrod_oracle,
)
from .quaternion import induced_rotation, random_group_element
from .subspace import (
    Subspace,
    constancy_check,
    is_h_orthogonal,
    joint_canonical_basis,
    omega,
    pbar_operator,
)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str


def _sorted_cos_triples(values) -> list[tuple[float, float, float]]:
    vals = sorted(values, reverse=True)
    return list(combinations_with_replacement(vals, 3))


_PLUS_BOUNDARY = [(0.8, 0.5, 0.3), (0.9, 0.5, 0.4), (0.7, 0.6, 0.3),
                  (0.85, 0.6, 0.45), (0.95, 0.8, 0.75)]
_MINUS_BOUNDARY = [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.3, 0.2), (0.4, 0.35, 0.25),
                   (0.6, 0.3, 0.1), (0.5, 0.45, 0.05)]


def _v4_parameter_grid(quick: bool) -> list[tuple[AngleTriple, int, int]]:
    """(triple, sign, minimal n) of every class on the grid, interiors plus
    exact boundaries."""
    values = (0.85, 0.6, 0.35, 0.15) if quick else (
        0.95, 0.85, 0.7, 0.55, 0.4, 0.25, 0.12, 0.04)
    candidates = [(sign, x) for x in _sorted_cos_triples(values) for sign in (1, -1)]
    boundaries = [(1, x) for x in _PLUS_BOUNDARY] + [(-1, x) for x in _MINUS_BOUNDARY]
    if quick:
        boundaries = boundaries[:2] + boundaries[5:7]

    def point(sign, x):
        triple = AngleTriple.from_cosines(x)
        spec = FamilySpec("v4", n=0, angles=triple, sign=sign)
        return triple, sign, min_quaternionic_dim(spec)

    out = []
    for sign, x in candidates:
        try:
            out.append(point(sign, x))
        except ValueError:  # no class of this sign at these angles
            continue
    # The declared boundaries must exist: a boundary that does not raises.
    return out + [point(sign, x) for sign, x in boundaries]


def _constructor_grid(quick: bool) -> list[tuple[str, Subspace, AngleTriple]]:
    """(label, subspace, declared triple) for every family/parameter point."""
    right = HALF_PI
    grid: list[tuple[str, Subspace, AngleTriple]] = []

    def add(label, space, triple):
        grid.append((label, space, triple))

    real_ks = (1, 3) if quick else (1, 2, 3, 4, 5, 7, 8)
    for k in real_ks:
        add(f"totally_real k={k}", construct_classical("totally_real", k, max(k, 5)),
            AngleTriple(right, right, right))
    for k in ((2, 4) if quick else (2, 4, 6, 8, 10)):
        add(f"totally_complex k={k}", construct_classical("totally_complex", k, 5),
            AngleTriple(0.0, right, right))
    for k in ((4,) if quick else (4, 8, 12, 16)):
        add(f"quaternionic k={k}", construct_classical("quaternionic", k, 4),
            AngleTriple(0.0, 0.0, 0.0))
    for n in ((1,) if quick else (1, 2, 4)):
        add(f"im_h_line n={n}", construct_classical("im_h_line", 3, n),
            AngleTriple(0.0, 0.0, right))
    phis = (0.7, 1.3) if quick else (0.25, 0.6, 0.9, 1.1, 1.3, 1.45)
    for phi in phis:
        for l in ((1,) if quick else (1, 2, 3)):
            add(f"cka_plane phi={phi} l={l}",
                construct_classical("cka_plane_sum", 2 * l, 2 * l, phi=phi),
                AngleTriple(phi, right, right))
        for l in ((1,) if quick else (1, 2)):
            add(f"complexified phi={phi} l={l}",
                construct_classical("complexified_cka", 4 * l, 2 * l, phi=phi),
                AngleTriple(0.0, phi, phi))
    v3_plus = np.linspace(0.12, right, 4 if quick else 14)
    for phi in v3_plus:
        add(f"v3 +1 phi={phi:.3f}", construct_v3(float(phi), 1, 3),
            AngleTriple(float(phi), float(phi), right))
    v3_minus = np.linspace(math.pi / 3, right, 3 if quick else 9)
    for phi in v3_minus:
        add(f"v3 -1 phi={phi:.3f}", construct_v3(float(phi), -1, 3),
            AngleTriple(float(phi), float(phi), right))
    add("v3 -1 pi/3 n=2", construct_v3(math.pi / 3, -1, 2),
        AngleTriple(math.pi / 3, math.pi / 3, right))
    for triple, sign, n_min in _v4_parameter_grid(quick):
        for extra in ((0,) if quick else (0, 1)):
            n = n_min + extra
            add(f"v4 {sign:+d} cos={np.round(triple.cos_tuple(), 3)} n={n}",
                construct_v4(triple, sign, n), triple)
    t03 = AngleTriple.from_cosines((0.3, 0.3, 0.3))
    t13 = AngleTriple.from_cosines((1 / 3, 1 / 3, 1 / 3))
    tb_minus = AngleTriple.from_cosines((0.5, 0.3, 0.2))
    sums = [
        (t03, 2, 0, 8), (t03, 0, 2, 8), (t03, 1, 1, 8),
        (t13, 1, 1, 7), (t13, 0, 2, 6), (t13, 2, 0, 8),
        (tb_minus, 0, 3, 9), (tb_minus, 1, 2, 10),
        (AngleTriple.from_cosines((0.5, 0.4, 0.3)), 3, 0, 12),
        (AngleTriple(right, right, right), 2, 0, 8),
    ]
    if quick:
        sums = sums[:4]
    for triple, p, q, n in sums:
        add(f"sum ({p},{q}) cos={np.round(triple.cos_tuple(), 3)} n={n}",
            construct_sum(triple, p, q, n), triple)
    return grid


def _cos2_match(reported, declared) -> float:
    return float(np.max(np.abs(np.square(reported) - np.square(declared))))


def crit_constancy(quick: bool, seed: int) -> tuple[bool, str]:
    """C1: every constructor output has constant angle with its declared triple."""
    grid = _constructor_grid(quick)
    samples = 120 if quick else 500
    worst_spread, worst_triple, bad = 0.0, 0.0, []
    for label, space, declared in grid:
        rep = constancy_check(space, samples, seed)
        dev = _cos2_match(rep.triple.cos_tuple(), declared.cos_tuple())
        worst_spread = max(worst_spread, rep.max_spread)
        worst_triple = max(worst_triple, dev)
        if rep.max_spread >= 1e-9 or dev > 1e-8:
            bad.append(label)
    enough = quick or len(grid) >= 300
    ok = not bad and enough
    return ok, (f"{len(grid)} constructions, max spread {worst_spread:.2e}, "
                f"max triple dev {worst_triple:.2e}"
                + (f", failures: {bad[:3]}" if bad else "")
                + ("" if enough else " (grid below 300 points)"))


def crit_gram_equivalence(quick: bool, seed: int) -> tuple[bool, str]:
    """C2: gram PSD <=> closed-form inequality, rank 2 exactly on the boundary."""
    sweep = gram_grid_sweep(GridSpec(resolution=15 if quick else 50))
    ok = (sweep["psd_disagreements"] == 0 and sweep["rank_mismatches"] == 0
          and sweep["det_deviation"] < 1e-10)
    return ok, (f"{sweep['points']} grid points, "
                f"{sweep['psd_disagreements']} psd disagreements, "
                f"{sweep['rank_mismatches']} rank mismatches, "
                f"det deviation {sweep['det_deviation']:.2e}")


def crit_v3_omega(quick: bool, seed: int) -> tuple[bool, str]:
    """C3: the explicit Omega matrix of the 3-dimensional classes."""
    rng = np.random.default_rng(seed)
    n_phi = 6 if quick else 20
    n_vec = 20 if quick else 100
    worst_entry, worst_eig = 0.0, 0.0
    for sign in (1, -1):
        lo = 0.05 if sign == 1 else math.pi / 3
        for phi in np.linspace(lo, HALF_PI - 0.05, n_phi):
            space = construct_v3(float(phi), sign, 3)
            c2 = math.cos(phi) ** 2
            for _ in range(n_vec):
                x = rng.standard_normal(3)
                x /= np.linalg.norm(x)
                om = omega(space, space.basis @ x)
                x0, x1, x2 = x
                expected = c2 * np.array([
                    [x0 * x0 + x1 * x1, x1 * x2, -sign * x0 * x2],
                    [x1 * x2, x0 * x0 + x2 * x2, sign * x0 * x1],
                    [-sign * x0 * x2, sign * x0 * x1, x1 * x1 + x2 * x2],
                ])
                worst_entry = max(worst_entry, float(np.max(np.abs(om - expected))))
                lams = np.sort(np.linalg.eigvalsh(om))
                worst_eig = max(worst_eig, float(np.max(np.abs(lams - np.array([0.0, c2, c2])))))
    ok = worst_entry < 1e-10 and worst_eig < 1e-10
    return ok, f"entrywise deviation {worst_entry:.2e}, eigenvalue deviation {worst_eig:.2e}"


def crit_pbar_sign(quick: bool, seed: int) -> tuple[bool, str]:
    """C4: Pbar1 Pbar2 = +Pbar3 on the plus class and -Pbar3 on the minus class."""
    from .quaternion import STANDARD_BASIS

    worst = 0.0
    tested = 0
    for triple, sign, n in _v4_parameter_grid(quick):
        if triple.cos_tuple()[2] <= 1e-8:
            continue
        space = construct_v4(triple, sign, n)
        p = [pbar_operator(space, STANDARD_BASIS, i, triple.cos_tuple()[i - 1])
             for i in (1, 2, 3)]
        worst = max(worst, float(np.max(np.abs(p[0] @ p[1] - sign * p[2]))))
        tested += 1
    ok = worst < 1e-8
    return ok, f"{tested} classes, max |P1 P2 - sign P3| = {worst:.2e}"


def crit_type_proto(quick: bool, seed: int) -> tuple[bool, str]:
    """C5: types of sums, protohomogeneity iff single sign, minimal witness n=7."""
    t13 = AngleTriple.from_cosines((1 / 3, 1 / 3, 1 / 3))
    triples = [
        AngleTriple.from_cosines((0.3, 0.3, 0.3)),
        t13,
        AngleTriple.from_cosines((0.5, 0.4, 0.3)),
        AngleTriple.from_cosines((0.8, 0.5, 0.3)),
    ]
    pairs = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
    if not quick:
        pairs += [(2, 1), (1, 2), (3, 0), (0, 3), (2, 2), (3, 1), (4, 0)]
    failures = []
    tested = 0
    for triple in triples:
        for p, q in pairs:
            if p + q > 4:
                continue
            try:
                n = min_quaternionic_dim(
                    FamilySpec("sum_type", n=0, angles=triple, l_plus=p, l_minus=q))
            except ValueError:  # no class of one of the signs at this triple
                continue
            if n > 16:
                continue
            space = construct_sum(triple, p, q, n)
            tested += 1
            t = type_of(space)
            if t.as_tuple() != (p, q):
                failures.append(f"type({p},{q})->{t.as_tuple()}")
                continue
            verdict = is_protohomogeneous(space)
            expected = "yes" if (p == 0 or q == 0) else "no"
            if verdict.value != expected:
                failures.append(f"proto({p},{q})={verdict.value}")
    witness_ok = True
    try:
        space = construct_sum(t13, 1, 1, 7)
        if is_protohomogeneous(space).value != "no":
            witness_ok = False
    except ValueError:
        witness_ok = False
    try:
        construct_sum(t13, 1, 1, 6)
        witness_ok = False
        rejected = False
    except ValueError:
        rejected = True
    ok = not failures and witness_ok and rejected
    return ok, (f"{tested} sums checked, witness n=7 ok={witness_ok}, "
                f"n=6 rejected={rejected}"
                + (f", failures: {failures[:3]}" if failures else ""))


def crit_inequivalence(quick: bool, seed: int) -> tuple[bool, str]:
    """C6: the sign classes are inequivalent away from phi3 = pi/2 and merge there."""
    rng = np.random.default_rng(seed)
    n_interior = 5 if quick else 20
    count = 0
    failures = []
    while count < n_interior:
        x = np.sort(rng.uniform(0.05, 0.6, size=3))[::-1]
        if x[0] + x[1] + x[2] > 0.98:
            continue
        triple = AngleTriple.from_cosines(x)
        count += 1
        vp = construct_v4(triple, 1, 4)
        vm = construct_v4(triple, -1, 4)
        verdict = are_equivalent(vp, vm)
        if verdict.value != "no":
            failures.append(f"interior {np.round(x, 3)} -> {verdict.value}")
    for x in [(0.6, 0.35), (0.4, 0.3)]:
        triple = AngleTriple.from_cosines((*x, 0.0))
        vp = construct_v4(triple, 1, 4)
        _, rank = admissible(triple, -1)
        c = triple.cos_tuple()
        left = _psd_cholesky(_gram(c, -1), rank)
        vm = _place([_tilted_block([(v, _sin(v)) for v in c], left)], "the minus block", 4)
        verdict = are_equivalent(vp, vm)
        if verdict.value != "yes":
            failures.append(f"pi/2 merge {x} -> {verdict.value}")
    for phi in np.linspace(math.pi / 3, HALF_PI - 0.03, 3 if quick else 6):
        plus = construct_v3(float(phi), 1, 3)
        minus = construct_v3(float(phi), -1, 3)
        if branch_of_v3(plus) != 1 or branch_of_v3(minus) != -1:
            failures.append(f"branch at phi={phi:.3f}")
        if are_equivalent(plus, minus).value != "no":
            failures.append(f"v3 classes equivalent at phi={phi:.3f}")
    merged = are_equivalent(construct_v3(HALF_PI, 1, 3), construct_v3(HALF_PI, -1, 3))
    if merged.value != "yes":
        failures.append("v3 classes fail to merge at pi/2")
    return not failures, (f"{n_interior} interior triples, merge cases checked"
                          + (f", failures: {failures[:3]}" if failures else ""))


_TABLE_CELLS = {
    (5, 5): ["totally_real_point"],
    (6, 4): ["totally_complex_point"],
    (6, 8): ["kahler_angle_curve"],
    (3, 1): ["imaginary_line_point"],
    (3, 2): ["imaginary_line_point", "compact_branch_point"],
    (3, 8): ["single_branch_curve", "two_branch_curve"],
    (4, 4): ["single_class_region", "two_class_region"],
    (8, 2): ["quaternionic_point"],
    (8, 4): ["complexified_curve"],
    (8, 6): ["boundary_sum_surface"],
    (8, 8): ["single_class_region", "two_class_region"],
    (12, 8): ["complexified_curve"],
}


def _stratum_samples(name: str, k: int, n: int, quick: bool) -> list[AngleTriple]:
    right = HALF_PI
    if name == "totally_real_point":
        return [AngleTriple(right, right, right)]
    if name == "totally_complex_point":
        return [AngleTriple(0.0, right, right)]
    if name == "quaternionic_point":
        return [AngleTriple(0.0, 0.0, 0.0)]
    if name == "imaginary_line_point":
        return [AngleTriple(0.0, 0.0, right)]
    if name == "compact_branch_point":
        return [AngleTriple(math.pi / 3, math.pi / 3, right)]
    if name == "kahler_angle_curve":
        phis = [0.0, 0.8, right] if not quick else [0.8]
        return [AngleTriple(p, right, right) for p in phis]
    if name == "complexified_curve":
        phis = [0.0, 0.9, right] if not quick else [0.9]
        return [AngleTriple(0.0, p, p) for p in phis]
    if name == "single_branch_curve":
        phis = [0.5, right] if not quick else [0.5]
        return [AngleTriple(p, p, right) for p in phis]
    if name == "two_branch_curve":
        phis = [math.pi / 3, 1.25] if not quick else [1.25]
        return [AngleTriple(p, p, right) for p in phis]
    if name == "single_class_region":
        xs = [(0.5, 0.4, 0.3), (0.8, 0.5, 0.3)] if not quick else [(0.5, 0.4, 0.3)]
        return [AngleTriple.from_cosines(x) for x in xs]
    if name == "two_class_region":
        xs = [(0.3, 0.3, 0.3), (1 / 3, 1 / 3, 1 / 3)] if not quick else [(0.3, 0.3, 0.3)]
        return [AngleTriple.from_cosines(x) for x in xs]
    if name == "boundary_sum_surface":
        return [AngleTriple.from_cosines(x) for x in ((0.8, 0.5, 0.3), (1 / 3, 1 / 3, 1 / 3))]
    raise ValueError(f"no samples for stratum {name}")


def crit_moduli_table(quick: bool, seed: int) -> tuple[bool, str]:
    """C7: the moduli table spot checks and stratum round-trips."""
    failures = []
    trips = 0
    for (k, n), expected in _TABLE_CELLS.items():
        names = [s.name for s in strata_for(k, n)]
        if names != expected:
            failures.append(f"cell ({k},{n}): {names} != {expected}")
            continue
        for name in expected:
            for triple in _stratum_samples(name, k, n, quick):
                hits = moduli_membership(k, n, triple)
                hit_names = {h.stratum.name for h in hits}
                if name not in hit_names:
                    failures.append(f"({k},{n}) {name}: sample not a member")
                    continue
                for hit in hits:
                    if hit.stratum.name != name:
                        continue
                    rep = representative(k, n, triple, hit.branch)
                    record = classify_subspace(rep)
                    trips += 1
                    got = snapped(record["cosines"])
                    if _cos2_match(got, snapped(triple.cos_tuple())) > 1e-8:
                        failures.append(f"({k},{n}) {name}: triple mismatch")
                    if name not in {s["name"] for s in record["strata"]}:
                        failures.append(f"({k},{n}) {name}: classify misses stratum")
                    if record["protohomogeneous"]["value"] != "yes":
                        failures.append(f"({k},{n}) {name}: representative not proto")
                    if hit.branch is not None:
                        if k == 3:
                            if record.get("branch") != hit.branch:
                                failures.append(f"({k},{n}) {name}: branch mismatch")
                        else:
                            l = k // 4
                            want = [l, 0] if hit.branch == 1 else [0, l]
                            if record.get("type") != want:
                                failures.append(f"({k},{n}) {name}: type mismatch")
    ok = not failures
    return ok, (f"{len(_TABLE_CELLS)} cells, {trips} round-trips"
                + (f", failures: {failures[:3]}" if failures else ""))


def crit_steenrod(quick: bool, seed: int) -> tuple[bool, str]:
    """C8: distribution rank equals the count of non-right angles everywhere."""
    grid = _constructor_grid(True)  # the quick grid covers every family
    failures = [label for label, space, _ in grid
                if not steenrod_oracle(space, samples=200, seed=seed)]
    return not failures, (f"{len(grid)} constructions"
                          + (f", failures: {failures[:3]}" if failures else ""))


def crit_group_invariance(quick: bool, seed: int) -> tuple[bool, str]:
    """C9: random group elements preserve the triple; rotations are orthogonal."""
    trials = 20 if quick else 100
    spaces = [
        ("quaternionic", construct_classical("quaternionic", 4, 2)),
        ("totally_real", construct_classical("totally_real", 3, 3)),
        ("im_h_line", construct_classical("im_h_line", 3, 2)),
        ("v3+", construct_v3(0.9, 1, 3)),
        ("v3-", construct_v3(1.15, -1, 3)),
        ("v4+", construct_v4(AngleTriple.from_cosines((0.3, 0.3, 0.3)), 1, 4)),
        ("v4-", construct_v4(AngleTriple.from_cosines((1 / 3, 1 / 3, 1 / 3)), -1, 3)),
        ("sum11", construct_sum(AngleTriple.from_cosines((1 / 3, 1 / 3, 1 / 3)), 1, 1, 7)),
    ]
    if quick:
        spaces = spaces[:4]
    worst_dev = 0.0
    for _, space in spaces:
        worst_dev = max(worst_dev, invariance_oracle(space, trials, seed))
    worst_rot = 0.0
    for t in range(trials):
        g = random_group_element(4, seed * 31 + t)
        r = induced_rotation(g)
        worst_rot = max(worst_rot, float(np.max(np.abs(r.T @ r - np.eye(3)))),
                        abs(float(np.linalg.det(r)) - 1.0))
    ok = worst_dev < 1e-9 and worst_rot < 1e-12
    return ok, (f"{len(spaces)} spaces x {trials} elements, triple deviation "
                f"{worst_dev:.2e}, rotation deviation {worst_rot:.2e}")


def crit_joint_diag(quick: bool, seed: int) -> tuple[bool, str]:
    """C10: joint diagonalization succeeds exactly where a common basis exists."""
    t03 = AngleTriple.from_cosines((0.3, 0.3, 0.3))
    t13 = AngleTriple.from_cosines((1 / 3, 1 / 3, 1 / 3))
    with_basis = [
        construct_classical("quaternionic", 8, 2),
        construct_classical("totally_real", 4, 4),
        construct_classical("totally_complex", 4, 2),
        construct_classical("cka_plane_sum", 4, 4, phi=0.8),
        construct_classical("complexified_cka", 4, 2, phi=0.8),
        construct_v4(t03, 1, 4),
        construct_v4(t03, -1, 4),
        construct_sum(t03, 2, 0, 8),
        construct_sum(t13, 0, 2, 6),
    ]
    if quick:
        with_basis = with_basis[:5]
    worst = 0.0
    for space in with_basis:
        _, residual = joint_canonical_basis(space, 80, seed)
        worst = max(worst, residual)
    lower = math.inf
    for n in (1, 3):
        space = construct_classical("im_h_line", 3, n)
        _, residual = joint_canonical_basis(space, 120, seed)
        lower = min(lower, residual)
    ok = worst < 1e-9 and lower > 1e-2
    return ok, (f"max residual with common basis {worst:.2e}, "
                f"imaginary-span residual {lower:.2e}")


def crit_factorization(quick: bool, seed: int) -> tuple[bool, str]:
    """C11: factorize returns H-orthogonal 4-blocks reconstructing the sum."""
    t03 = AngleTriple.from_cosines((0.3, 0.3, 0.3))
    t13 = AngleTriple.from_cosines((1 / 3, 1 / 3, 1 / 3))
    tb = AngleTriple.from_cosines((0.5, 0.3, 0.2))
    cases = [
        (t03, 2, 0, 8), (t03, 1, 1, 8), (t13, 1, 1, 7),
        (t13, 0, 2, 6), (tb, 0, 3, 9), (t03, 2, 1, 12),
    ]
    if quick:
        cases = cases[:3]
    failures = []
    for triple, p, q, n in cases:
        space = construct_sum(triple, p, q, n)
        blocks = factorize(space)
        label = f"({p},{q})@n={n}"
        if len(blocks) != p + q or any(b.k != 4 for b in blocks):
            failures.append(f"{label}: wrong block count")
            continue
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if not is_h_orthogonal(blocks[i], blocks[j]):
                    failures.append(f"{label}: blocks {i},{j} not H-orthogonal")
        proj = sum(b.projector() for b in blocks)
        if np.max(np.abs(proj - space.projector())) > 1e-8:
            failures.append(f"{label}: reconstruction residual too large")
        for b in blocks:
            rep = constancy_check(b, 200, seed)
            if _cos2_match(rep.triple.cos_tuple(), triple.cos_tuple()) > 1e-8:
                failures.append(f"{label}: block triple mismatch")
    return not failures, (f"{len(cases)} sums factorized"
                          + (f", failures: {failures[:3]}" if failures else ""))


CRITERIA: list[tuple[str, str, Callable[[bool, int], tuple[bool, str]]]] = [
    ("C1", "constancy of all constructors", crit_constancy),
    ("C2", "gram admissibility equivalence", crit_gram_equivalence),
    ("C3", "dimension-3 omega closed form", crit_v3_omega),
    ("C4", "block sign relation", crit_pbar_sign),
    ("C5", "type and protohomogeneity", crit_type_proto),
    ("C6", "inequivalence of sign classes", crit_inequivalence),
    ("C7", "moduli table and round-trips", crit_moduli_table),
    ("C8", "distribution rank consistency", crit_steenrod),
    ("C9", "group invariance", crit_group_invariance),
    ("C10", "joint diagonalization", crit_joint_diag),
    ("C11", "factorization round-trip", crit_factorization),
]


def run_criterion(cid: str, quick: bool = True, seed: int = 0) -> CriterionResult:
    for known, name, func in CRITERIA:
        if known == cid:
            passed, detail = func(quick, seed)
            return CriterionResult(cid, name, passed, detail)
    raise ValueError(f"unknown criterion {cid}")


def run_selftest(quick: bool = True, seed: int = 0, stream=None) -> list[CriterionResult]:
    """Run the whole battery, printing one pass/fail line per criterion."""
    results = []
    for cid, name, func in CRITERIA:
        passed, detail = func(quick, seed)
        results.append(CriterionResult(cid, name, passed, detail))
        if stream is not None:
            tag = "PASS" if passed else "FAIL"
            print(f"{tag}  {cid:>4}  {name:<34} {detail}", file=stream)
    return results
