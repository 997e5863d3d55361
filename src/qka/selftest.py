"""Acceptance battery: one callable per criterion, shared by CLI and tests.

Each criterion returns (passed, detail).  ``quick`` shrinks grids and sample
counts so the whole battery stays interactive; the full battery runs the
grids at the documented sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
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
    _gram,
    _place,
    _psd_cholesky,
    _sin,
    _tilted_block,
    admissible,
    construct,
    construct_v3,
    construct_v4,
    min_quaternionic_dim,
)
from .moduli import HALF_PI, AngleTriple, moduli_membership, snapped, strata_for
from .oracles import (
    DeclaredInput,
    declared_class,
    declared_inputs,
    gram_grid_sweep,
    invariance_oracle,
    steenrod_oracle,
)
from .quaternion import STANDARD_BASIS, induced_rotation, random_group_element
from .subspace import (
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


_declared_inputs = cache(declared_inputs)  # built once for each value of quick


def _inputs(quick: bool, tag: str) -> list[DeclaredInput]:
    """The declared inputs a criterion reads, selected by its tag."""
    return [record for record in _declared_inputs(quick) if tag in record.tags]


def _cos2_match(reported, declared) -> float:
    return float(np.max(np.abs(np.square(reported) - np.square(declared))))


def crit_constancy(quick: bool, seed: int) -> tuple[bool, str]:
    """C1: every constructor output has constant angle with its declared triple."""
    grid = _inputs(quick, "grid")
    samples = 120 if quick else 500
    worst_spread, worst_triple, bad = 0.0, 0.0, []
    for record in grid:
        rep = constancy_check(construct(record.spec), samples, seed)
        dev = _cos2_match(rep.triple.cos_tuple(), record.triple.cos_tuple())
        worst_spread = max(worst_spread, rep.max_spread)
        worst_triple = max(worst_triple, dev)
        if rep.max_spread >= 1e-9 or dev > 1e-8:
            bad.append(record.label)
    enough = quick or len(grid) >= 300
    ok = not bad and enough
    return ok, (f"{len(grid)} constructions, max spread {worst_spread:.2e}, "
                f"max triple dev {worst_triple:.2e}"
                + (f", failures: {bad[:3]}" if bad else "")
                + ("" if enough else " (grid below 300 points)"))


def crit_gram_equivalence(quick: bool, seed: int) -> tuple[bool, str]:
    """C2: gram PSD <=> closed-form inequality, rank 2 exactly on the boundary."""
    sweep = gram_grid_sweep(15 if quick else 50)
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
    """C4: Pbar1 Pbar2 = +Pbar3 on the plus class and -Pbar3 on the minus class,
    on each v4 class of the grid at its least n."""
    worst, tested = 0.0, 0
    for record in _inputs(quick, "grid"):
        spec, cosines = record.spec, record.triple.cos_tuple()
        if (spec.family != "v4" or spec.n != min_quaternionic_dim(spec)
                or cosines[2] <= 1e-8):
            continue
        space = construct(record.spec)
        p = [pbar_operator(space, STANDARD_BASIS, i, c) for i, c in enumerate(cosines, 1)]
        worst = max(worst, float(np.max(np.abs(p[0] @ p[1] - spec.sign * p[2]))))
        tested += 1
    ok = worst < 1e-8
    return ok, f"{tested} classes, max |P1 P2 - sign P3| = {worst:.2e}"


def crit_type_proto(quick: bool, seed: int) -> tuple[bool, str]:
    """C5: types of sums, protohomogeneity iff single sign, minimal witness n=7."""
    failures = []
    records = _inputs(quick, "types")
    for record in records:
        space = construct(record.spec)
        invariant, proto = declared_class(record.spec)
        t = type_of(space).as_tuple()
        if t != invariant:
            failures.append(f"type {record.label} -> {t}")
            continue
        verdict = is_protohomogeneous(space)
        if verdict.value != proto:
            failures.append(f"proto {record.label} = {verdict.value}")
    witness = _inputs(quick, "witness")[0].spec
    witness_ok = declared_class(witness)[1] == "no" == is_protohomogeneous(construct(witness)).value
    try:
        construct(replace(witness, n=witness.n - 1))
        rejected = False
    except ValueError:
        rejected = True
    ok = not failures and witness_ok and rejected
    return ok, (f"{len(records)} sums checked, witness n={witness.n} ok={witness_ok}, "
                f"n={witness.n - 1} rejected={rejected}"
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
    grid = _inputs(True, "grid")  # the quick grid covers every family
    failures = [record.label for record in grid
                if not steenrod_oracle(construct(record.spec), samples=200, seed=seed)]
    return not failures, (f"{len(grid)} constructions"
                          + (f", failures: {failures[:3]}" if failures else ""))


def crit_group_invariance(quick: bool, seed: int) -> tuple[bool, str]:
    """C9: random group elements preserve the triple; rotations are orthogonal."""
    trials = 20 if quick else 100
    spaces = _inputs(quick, "orbit")
    worst_dev = 0.0
    for record in spaces:
        worst_dev = max(worst_dev, invariance_oracle(construct(record.spec), trials, seed))
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
    """C10: joint diagonalization succeeds exactly where a common basis exists:
    everywhere but on the imaginary spans of a vector."""
    worst, lower = 0.0, math.inf
    for record in _inputs(quick, "jacobi"):
        if record.spec.family == "im_h_line":
            lower = min(lower, joint_canonical_basis(construct(record.spec), 120, seed)[1])
        else:
            worst = max(worst, joint_canonical_basis(construct(record.spec), 80, seed)[1])
    ok = worst < 1e-9 and lower > 1e-2
    return ok, (f"max residual with common basis {worst:.2e}, "
                f"imaginary-span residual {lower:.2e}")


def crit_factorization(quick: bool, seed: int) -> tuple[bool, str]:
    """C11: factorize returns H-orthogonal 4-blocks reconstructing the sum."""
    cases = _inputs(quick, "blocks")
    failures = []
    for record in cases:
        space, triple, label = construct(record.spec), record.triple, record.label
        blocks = factorize(space)
        if len(blocks) != space.k // 4 or any(b.k != 4 for b in blocks):
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
