"""Tests for factorization, type detection, equivalence, and the moduli table."""

import dataclasses
import itertools
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qka.classify
import qka.moduli
import qka.subspace
from qka.classify import (
    TypeSignature,
    Verdict,
    are_equivalent,
    branch_of_v3,
    classify_subspace,
    factorize,
    is_protohomogeneous,
    representative,
    type_of,
)
from qka.classify import SIGN_INVOLUTION_TOL, _Analysis, _sign_parts, _sign_split
from qka.families import (
    FamilySpec,
    construct,
    construct_classical,
    construct_sum,
    construct_v3,
    construct_v4,
)
from qka.moduli import (
    SNAP_TOL,
    ModuliStratum,
    _snap_into_strata,
    moduli_describe,
    moduli_membership,
    snapped,
    strata_for,
)
from qka.oracles import declared_class, declared_inputs
from qka.quaternion import STANDARD_BASIS, CanonicalBasis, random_group_element
from qka.subspace import (
    COMPLEX_STRUCTURE_TOL,
    CONSTANCY_TOL,
    AngleTriple,
    ConstancyReport,
    NumericalFailure,
    Subspace,
    _exact_structure,
    _slot_structure,
    _witness_report,
    constancy_check,
    from_spanning,
    is_h_orthogonal,
    pbar_operator,
    vector_qka,
)

HALF_PI = math.pi / 2
T13 = AngleTriple.from_cosines([1 / 3, 1 / 3, 1 / 3])
T03 = AngleTriple.from_cosines([0.3, 0.3, 0.3])
REAL3 = AngleTriple(HALF_PI, HALF_PI, HALF_PI)
TA = AngleTriple.from_cosines([0.5, 0.25, 0.12])
DECLARED = declared_inputs(quick=False)


def rotated(space, seed):
    return space.transformed(random_group_element(space.n, seed))


def moved(space, seed):
    """The subspace moved by a group element, in another orthonormal basis."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((space.k, space.k)))[0]
    return Subspace(rotated(space, seed).basis @ q)


class TestFactorize:
    def test_quaternionic_dim8(self):
        space = construct_classical("quaternionic", 8, 2)
        blocks = factorize(space)
        assert len(blocks) == 2
        assert all(b.k == 4 for b in blocks)
        assert is_h_orthogonal(blocks[0], blocks[1])
        for b in blocks:
            assert constancy_check(b, 100).triple.cos2() == pytest.approx(
                [1, 1, 1], abs=1e-9)

    def test_sum_round_trip(self):
        space = construct_sum(T03, 2, 0, 8)
        blocks = factorize(space)
        assert len(blocks) == 2
        assert is_h_orthogonal(blocks[0], blocks[1])
        for b in blocks:
            assert constancy_check(b, 200).triple.cos2() == pytest.approx(
                T03.cos2(), abs=1e-8)

    def test_mixed_sum_has_opposite_signs(self):
        space = construct_sum(T13, 1, 1, 7)
        blocks = factorize(space)
        types = sorted(type_of(b).as_tuple() for b in blocks)
        assert types == [(0, 1), (1, 0)]

    @staticmethod
    def _split_blocks(space):
        """The two H-orthogonal blocks of ``space``, checked to rebuild it."""
        blocks = factorize(space)
        assert len(blocks) == 2
        assert is_h_orthogonal(blocks[0], blocks[1])
        proj = sum(b.projector() for b in blocks)
        assert np.max(np.abs(proj - space.projector())) <= 1e-8
        return blocks

    def test_totally_real_blocks(self):
        space = construct_classical("totally_real", 8, 8)
        for v in (space, moved(space, 1), moved(space, 2)):
            self._split_blocks(v)

    def test_kahler_plane_blocks(self):
        space = construct_classical("cka_plane_sum", 8, 8, phi=0.8)
        for v in (space, moved(space, 1), moved(space, 2)):
            for b in self._split_blocks(v):
                got = constancy_check(b, 200).triple.cos2()
                assert got == pytest.approx([math.cos(0.8) ** 2, 0, 0], abs=1e-9)

    def test_reconstruction(self):
        space = construct_sum(T03, 2, 1, 12)
        blocks = factorize(space)
        proj = sum(b.projector() for b in blocks)
        assert np.max(np.abs(proj - space.projector())) < 1e-8

    def test_rejects_non_multiple_of_four(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            factorize(construct_classical("totally_real", 3, 3))

    def test_rejects_non_constant(self):
        rng = np.random.default_rng(0)
        space = from_spanning([rng.standard_normal(24) for _ in range(4)])
        with pytest.raises(ValueError, match="constant"):
            factorize(space)

    def test_zero_seed_refused(self, monkeypatch):
        # A seed direction with no component in the remaining span is refused
        # by name instead of normalized into NaNs.
        monkeypatch.setattr(qka.classify, "_SEED_STEP", 0.0)
        with pytest.raises(NumericalFailure, match="seed direction of cell 0"):
            factorize(construct_sum(TA, 1, 1, 8))

    @pytest.mark.parametrize("space,cell_dim", [
        (moved(construct_sum(TA, 2, 1, 12), 3), 4),
        (moved(construct_sum(T03, 0, 4, 16), 4), 4),
        (moved(construct_classical("complexified_cka", 8, 4, phi=0.7), 5), 4),
        (moved(construct_classical("cka_plane_sum", 8, 8, phi=0.8), 1), 2),
        (moved(construct_classical("totally_real", 8, 8), 7), 1),
    ])
    def test_one_qr_per_cell_and_no_svd(self, monkeypatch, space, cell_dim):
        # Cells are deflated by projection against the cells before them, and
        # the blocks they join are orthonormal already: k / cell_dim QRs in all.
        # The sign parts are the projectors (I +- S) / 2, so the one eigh is
        # the frame's, on the 3 x 3 mean of Omega.
        qrs, eighs = [], []
        qr, eigh = np.linalg.qr, np.linalg.eigh

        def counted(a, *args, **kwargs):
            qrs.append(a.shape)
            return qr(a, *args, **kwargs)

        def counted_eigh(a, *args, **kwargs):
            eighs.append(a.shape)
            return eigh(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("factorize called an SVD")

        monkeypatch.setattr(np.linalg, "qr", counted)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        blocks = factorize(space)
        assert qrs == [(space.k, cell_dim)] * (space.k // cell_dim)
        assert eighs == [(3, 3)]
        assert len(blocks) == space.k // 4
        proj = sum(b.projector() for b in blocks)
        assert np.max(np.abs(proj - space.projector())) <= 1e-12

    @pytest.mark.parametrize("l_plus,l_minus,triple", [
        (1, 0, TA), (0, 1, TA), (1, 1, TA), (2, 2, T03), (0, 4, TA), (3, 1, T13),
    ])
    def test_cells_match_svd_deflation(self, l_plus, l_minus, triple):
        # Reference: each cell's span deflated from the remaining span of its
        # SVD sign kernel by an SVD that keeps the singular values above 0.5.
        k = 4 * (l_plus + l_minus)
        space = moved(construct_sum(triple, l_plus, l_minus, k), k + l_plus)
        analysis = _Analysis(space)
        generators = _pbar_triple(analysis)[:2]
        generators.append(generators[0] @ generators[1])
        cells = np.empty((k, 0))
        for (projector, dim), kernel in zip(_sign_parts(analysis.signs, k),
                                            _svd_kernel_split(*_pbar_triple(analysis))):
            start = cells.shape[1]
            cells = qka.classify._cells(projector, dim, generators, cells)
            assert cells.shape == (k, start + dim) == (k, start + kernel.shape[1])
            want = _svd_deflated_cells(kernel, generators) if dim else []
            assert len(want) == dim // 4
            for j, b in enumerate(want):
                a = cells[:, start + 4 * j:start + 4 * j + 4]
                assert np.max(np.abs(a @ a.T - b @ b.T)) <= 1e-12
        assert np.max(np.abs(cells.T @ cells - np.eye(k))) <= 1e-12

    @pytest.mark.parametrize("l_plus,l_minus", [(1, 1), (2, 2), (1, 3)])
    def test_parts_deflated_against_one_running_set(self, l_plus, l_minus):
        # A symmetric E that maps each sign part of S into the other
        # anticommutes with S, so S + E passes the involution gate at
        # ||E^2||_F: it tilts the parts by about |E| / 2.  The generators do
        # not commute with E, so cells of one part, deflated only against
        # their own part, meet those of the other at about that size.
        k = 4 * (l_plus + l_minus)
        space = moved(construct_sum(TA, l_plus, l_minus, k), k + l_plus)
        analysis = _Analysis(space)
        generators = _pbar_triple(analysis)[:2]
        generators.append(generators[0] @ generators[1])
        s, plus = analysis.signs
        x = np.random.default_rng(k).standard_normal((k, k)) * 1e-6
        cross = 0.25 * (np.eye(k) + s) @ x @ (np.eye(k) - s)
        tilted = s + cross + cross.T
        assert _sign_split(tilted)[1] == plus
        cells = np.empty((k, 0))
        for projector, dim in _sign_parts((tilted, plus), k):
            cells = qka.classify._cells(projector, dim, generators, cells)
        assert np.max(np.abs(cells.T @ cells - np.eye(k))) <= 1e-14

    def test_repeated_generator_trips_the_rank_refusal(self):
        analysis = _Analysis(construct_sum(TA, 1, 1, 8))
        analysis._require_constant()
        pbar1 = analysis.pbar(1)
        with pytest.raises(NumericalFailure, match="cell 0 is rank-deficient"):
            qka.classify._cells(np.eye(8), 8, [pbar1, pbar1], np.empty((8, 0)))

    @pytest.mark.parametrize("k", [8, 12])
    def test_kahler_plane_sums_factorize_under_every_move(self, k):
        # The generators follow the snapped cosines: cos(phi2) = 0 up to
        # round-off, so no Pbar_2 is formed.  Round-off puts sqrt(c_2) above
        # RIGHT_ANGLE_TOL under some moves (seeds 4, 6 and 10 at k = 8), and a
        # Pbar_2 normalized by it is refused as not a complex structure.
        for seed in range(12):
            space = moved(construct_classical("cka_plane_sum", k, k, phi=0.8), seed)
            blocks = factorize(space)
            assert len(blocks) == k // 4
            proj = sum(b.projector() for b in blocks)
            assert np.max(np.abs(proj - space.projector())) <= 1e-12, seed
            for a, b in itertools.combinations(blocks, 2):
                assert is_h_orthogonal(a, b), seed

    @pytest.mark.parametrize("l_plus,l_minus", [(1, 1), (2, 2), (1, 3)])
    def test_opposite_signs_stay_h_orthogonal_at_the_involution_gate(
            self, monkeypatch, l_plus, l_minus):
        # The plus part of M_0 scaled by 1 - eps puts the eigenvalues of S at
        # +(1 - eps) and -1 up to the common scale p: ||S^2 - I||_F, about
        # 2 eps sqrt(k_+ k_- / k), sits just inside the gate, and each
        # projector (I +- S) / 2 leaks about eps / 2 into the other sign part.
        # Seeded by P r, the blocks of opposite sign would meet J_a images at
        # up to 1.5e-10; seeded by P^2 r and deflated against every cell
        # before them, they are H-orthogonal to round-off.
        k = 4 * (l_plus + l_minus)
        space = moved(construct_sum(TA, l_plus, l_minus, k), k + l_minus)
        eps = 0.9 * SIGN_INVOLUTION_TOL / (2.0 * math.sqrt(16 * l_plus * l_minus / k))
        _tampered(monkeypatch, space, cross12=_plus_part_scaled(space, eps))
        s, plus = _Analysis(space).signs
        assert 0.8 * SIGN_INVOLUTION_TOL < np.linalg.norm(s @ s - np.eye(k)) <= SIGN_INVOLUTION_TOL
        blocks = factorize(space)
        assert plus == 4 * l_plus and len(blocks) == l_plus + l_minus
        for a in blocks[:l_plus]:
            for b in blocks[l_plus:]:
                assert is_h_orthogonal(a, b)
                for i in range(4):
                    image = STANDARD_BASIS.apply(i, b.basis) if i else b.basis
                    assert np.max(np.abs(a.basis.T @ image)) <= 1e-14


def _svd_deflated_cells(part, generators):
    """Reference cells: seed, orbit and QR as `_cells`, but each cell taken
    out of the remaining span by an SVD (singular values above 0.5 kept)."""
    cells, remaining = [], part
    coords = np.arange(1, len(part) + 1)
    while remaining.shape[1]:
        v = remaining @ (remaining.T @ np.sin(coords * (len(cells) + 1) * qka.classify._SEED_STEP))
        v /= np.linalg.norm(v)
        q = np.linalg.qr(np.column_stack([v] + [g @ v for g in generators]))[0]
        cells.append(q)
        u, sv, _ = np.linalg.svd(remaining - q @ (q.T @ remaining), full_matrices=False)
        remaining = u[:, sv > 0.5]
    return cells


class TestTypeOf:
    def test_right_angle_convention(self):
        t = AngleTriple.from_cosines([0.6, 0.35, 0.0])
        assert type_of(construct_v4(t, 1, 4)) == TypeSignature(1, 0)
        space = construct_classical("totally_real", 8, 8)
        assert type_of(space) == TypeSignature(2, 0)

    @pytest.mark.parametrize("c3", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 5e-9, 1e-10, 1e-11])
    def test_near_a_right_phi3_the_type_is_right_or_unknown(self, c3):
        # The signs differ while phi3 < pi/2, however small cos(phi3) is: a
        # decided type or protohomogeneity must be the declared one (a merge
        # to phi3 = pi/2 would call the mixed sum protohomogeneous), and
        # down to cos(phi3) = 1e-7 both must be decided.
        angles = AngleTriple.from_cosines((0.5, 0.3, c3))
        for l_plus, l_minus in ((2, 0), (1, 1), (0, 2)):
            spec = FamilySpec("sum_type", 8, angles=angles, l_plus=l_plus, l_minus=l_minus)
            invariant, proto = declared_class(spec)
            for seed in range(4):
                space = moved(construct(spec), seed)
                where = l_plus, l_minus, seed
                verdict = is_protohomogeneous(space)
                try:
                    block_type = type_of(space).as_tuple()
                except NumericalFailure:
                    block_type = None
                assert verdict.value in ("unknown", proto), where
                assert block_type in (None, invariant), where
                if c3 >= 1e-7:
                    assert verdict.value == proto and block_type == invariant, where


class TestProtohomogeneous:
    def test_constant_triple_in_no_stratum_is_unknown(self):
        # v3(pi/2 - 1e-5, +) + v3(pi/2 - 1e-5, s): the certificate reads the
        # cos^2 mean (8.2e-6)^3, a triple in no stratum of the (6, 6) moduli
        # space, so the record would contradict a decided verdict.
        phi = HALF_PI - 1e-5
        first = construct_v3(phi, 1, 3).basis
        for sign in (1, -1):
            basis = np.zeros((24, 6))
            basis[:12, :3], basis[12:, 3:] = first, construct_v3(phi, sign, 3).basis
            space = Subspace(basis)
            record = classify_subspace(space)
            assert record["constant"] is True and record["strata"] == []
            verdict = is_protohomogeneous(space)
            assert verdict.value == "unknown" and verdict.reason.startswith("strata gate")
            assert record["protohomogeneous"] == {"value": "unknown", "reason": verdict.reason}

    def test_mixed_sums_no(self):
        verdict = is_protohomogeneous(construct_sum(T13, 1, 1, 7))
        assert verdict.value == "no"
        assert "mixed" in verdict.reason

    def test_non_constant_no(self):
        rng = np.random.default_rng(1)
        space = from_spanning([rng.standard_normal(24) for _ in range(3)])
        verdict = is_protohomogeneous(space)
        assert verdict.value == "no"
        assert "not constant" in verdict.reason


def _per_point_invariants(v_space, points, phi):
    """Reference: <e_1, e_2> point by point from vector_qka and the 4n x 4n projector."""
    c = math.cos(phi)
    proj = v_space.projector()
    thetas = []
    for x in points:
        v = v_space.basis @ x
        _, basis = vector_qka(v_space, v)
        es = []
        for i in (1, 2):
            pbar_v = proj @ basis.apply(i, v) / c
            es.append(-(basis.apply(i, pbar_v) + c * v) / math.sin(phi))
        thetas.append(float(es[0] @ es[1]))
    return np.array(thetas)


def _unit_points(seed, m):
    points = np.random.default_rng(seed).standard_normal((m, 3))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def _reference_class(thetas, phi):
    """The sign whose cos(phi)/(cos(phi) + sign) every invariant matches within 1e-9."""
    c = math.cos(phi)
    matched = [sign for sign in (1, -1) if np.max(np.abs(thetas - c / (c + sign))) <= 1e-9]
    assert len(matched) == 1
    return matched[0]


class TestBranch:
    @pytest.mark.parametrize("sign,phi,n", [
        (1, math.pi / 3, 3), (-1, math.pi / 3, 2), (1, 1.2, 4), (-1, 1.3, 3),
    ])
    def test_round_trip(self, sign, phi, n):
        assert branch_of_v3(construct_v3(phi, sign, n)) == sign

    def test_invariant_across_base_points(self):
        # The paper's functional <e_1, e_2>, rebuilt in R^{4n}, does not depend
        # on the base point, and the determinant reads the class it names.
        phi = 1.25
        space = construct_v3(phi, -1, 3)
        thetas = _per_point_invariants(space, _unit_points(1, 24), phi)
        assert thetas.max() - thetas.min() <= 1e-9
        assert branch_of_v3(space) == -1 == _reference_class(thetas, phi)

    def test_invariant_at_random_base_points(self):
        # 200 random unit points of a moved v3 agree within 1e-9.
        phi, sign = 1.25, -1
        space = rotated(construct_v3(phi, sign, 3), 9)
        thetas = _per_point_invariants(space, _unit_points(3, 200), phi)
        assert thetas.max() - thetas.min() <= 1e-9
        assert thetas == pytest.approx(math.cos(phi) / (math.cos(phi) + sign), abs=1e-9)
        assert branch_of_v3(space) == sign

    def test_merged_angles_rejected(self):
        with pytest.raises(ValueError, match="merge"):
            branch_of_v3(construct_v3(HALF_PI, 1, 3))
        with pytest.raises(ValueError, match="merge"):
            branch_of_v3(construct_classical("im_h_line", 3, 1))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="3-dimensional"):
            branch_of_v3(construct_classical("totally_real", 4, 4))

    @pytest.mark.parametrize("n", [3, 5])
    def test_read_up_to_the_right_angle(self, n):
        # d = pi/2 - phi down to 1e-7: the witness triple keeps cos(phi) = sin(d),
        # so the branch is read wherever the snap leaves cos(phi) inside (0, 1),
        # and the classes merge only past SNAP_TOL.
        for d in np.logspace(-2, -7, 11):
            phi = HALF_PI - d
            spaces = {s: rotated(construct_v3(phi, s, n), 17 * n + s + 2) for s in (1, -1)}
            twins = {s: moved(construct_v3(phi, s, n), 31 * n + s + 5) for s in (1, -1)}
            records = {s: classify_subspace(space) for s, space in spaces.items()}
            if math.sin(d) < 3 * SNAP_TOL and records[1]["branch"] is None:
                assert are_equivalent(spaces[1], spaces[-1]).value == "yes"
                continue
            for s, record in records.items():
                assert record["branch"] == s == branch_of_v3(spaces[s])
                assert record["strata"][0]["name"] == "two_branch_curve"
                assert record["cosines"][0] == pytest.approx(math.sin(d), rel=1e-6)
                assert are_equivalent(spaces[s], twins[s]).value == "yes"
            assert are_equivalent(spaces[1], spaces[-1]).value == "no"

    def test_refused_branch_kept_by_every_reader(self, monkeypatch, tmp_path, capsys):
        from qka.cli import main
        from qka.serialize import save_subspace

        def skewed(v_space):
            # W_1 scaled by 1 + 1e-3 at cos(phi) = 1e-3: the spread, 2e-9 in
            # cos^2, stays within CONSTANCY_TOL, while det(A) / cos(phi)^3
            # is off +-1 by 2/3 1e-6 (to second order in the scale).
            w = _slot_structure(v_space)
            w[0] *= 1.0 + 1e-3
            return w

        monkeypatch.setattr(qka.classify, "_slot_structure", skewed)
        phi = math.acos(1e-3)
        plus, minus = construct_v3(phi, 1, 3), construct_v3(phi, -1, 3)
        verdict = are_equivalent(plus, minus)
        assert verdict.value == "unknown"
        assert verdict.reason.startswith("branch ratio det(A) / cos(phi)^3 = 0.999999 "
                                         "matches neither class")
        with pytest.raises(NumericalFailure, match="matches neither class"):
            branch_of_v3(minus)
        path = tmp_path / "v3.json"
        save_subspace(path, plus)
        assert main(["classify", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["branch"] is None and record["branch_diagnostic"] == verdict.reason
        assert record["protohomogeneous"]["value"] == "yes"

    @pytest.mark.parametrize("record", [r for r in DECLARED if "branch" in r.tags],
                             ids=lambda r: r.label)
    def test_batched_invariant_matches_per_point_loop(self, record):
        # The class the R^{4n} rebuild of e_1, e_2 picks is the determinant's.
        phi, n, sign = record.triple.phi1, record.spec.n, declared_class(record.spec)[0]
        space = rotated(construct(record.spec), n)
        reference = _per_point_invariants(space, _unit_points(n, 12), phi)
        assert reference == pytest.approx(math.cos(phi) / (math.cos(phi) + sign), abs=1e-10)
        assert _reference_class(reference, phi) == branch_of_v3(space) == sign

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_branches_across_seeds(self, seed):
        # The seed picks the group elements and the basis changes only.
        for phi in (math.pi / 3, 1.2, 1.45):
            spaces = {sign: moved(construct_v3(phi, sign, 3), 10 * seed + 2 + sign)
                      for sign in (1, -1)}
            for sign, space in spaces.items():
                assert classify_subspace(space)["branch"] == sign
                twin = moved(construct_v3(phi, sign, 3), 10 * seed + 5)
                assert are_equivalent(space, twin).value == "yes"
            assert are_equivalent(spaces[1], spaces[-1]).value == "no"


class TestEquivalence:
    def test_sign_classes_inequivalent(self):
        verdict = are_equivalent(construct_v4(T03, 1, 4), construct_v4(T03, -1, 4))
        assert verdict.value == "no"

    def test_totally_real_unique(self):
        a = construct_classical("totally_real", 3, 4)
        b = representative(3, 4, REAL3)
        assert are_equivalent(a, b).value == "yes"

    def test_branches_inequivalent_then_merge(self):
        plus = construct_v3(1.2, 1, 3)
        minus = construct_v3(1.2, -1, 3)
        assert are_equivalent(plus, minus).value == "no"
        plus = construct_v3(HALF_PI, 1, 3)
        minus = construct_v3(HALF_PI, -1, 3)
        assert are_equivalent(plus, minus).value == "yes"

    def test_different_triples(self):
        a = construct_v3(1.0, 1, 3)
        b = construct_v3(1.2, 1, 3)
        assert are_equivalent(a, b).value == "no"

    def test_different_dimensions(self):
        a = construct_classical("totally_real", 2, 3)
        b = construct_classical("totally_real", 3, 3)
        assert are_equivalent(a, b).value == "no"

    def test_mixed_sums_with_same_type_equivalent(self):
        a = construct_sum(T13, 1, 1, 7)
        b = construct_sum(T13, 1, 1, 8)
        assert are_equivalent(a, b).value == "no"  # different ambient n
        c = construct_sum(T13, 1, 1, 7)
        assert are_equivalent(a, c).value == "yes"

    def test_equivalence_relation_on_catalog(self):
        spaces = [
            construct_v4(T03, 1, 4),
            construct_v4(T03, -1, 4),
            construct_classical("quaternionic", 4, 4),
            construct_classical("totally_complex", 4, 4),
        ]
        for s in spaces:
            assert are_equivalent(s, s).value == "yes"
        for a in spaces:
            for b in spaces:
                assert are_equivalent(a, b).value == are_equivalent(b, a).value

    def test_transitive_on_plus_class(self):
        a = construct_v4(T03, 1, 4)
        b = representative(4, 4, T03, 1)
        c = construct_sum(T03, 1, 0, 4)
        assert are_equivalent(a, b).value == "yes"
        assert are_equivalent(b, c).value == "yes"
        assert are_equivalent(a, c).value == "yes"

    def test_non_constant_pair_unknown(self):
        rng = np.random.default_rng(5)
        a = from_spanning([rng.standard_normal(24) for _ in range(3)])
        b = from_spanning([rng.standard_normal(24) for _ in range(3)])
        assert are_equivalent(a, b).value == "unknown"


def _ref_snap_cos(x) -> np.ndarray:
    """The numpy snap that `snapped` replaced."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    x[np.abs(x) <= SNAP_TOL] = 0.0
    x[np.abs(x - 1.0) <= SNAP_TOL] = 1.0
    return x


class TestThreeCosinesOnFloats:
    def test_snap_matches_numpy_formula(self):
        edges = (SNAP_TOL, 1.0 - SNAP_TOL)
        values = [0.0, -0.0, 1.0, 0.5, -1e-12, 1.0 + 1e-12, math.nan]
        values += [math.nextafter(e, d) for e in edges for d in (0.0, 1.0)] + list(edges)
        for x in itertools.product(values, repeat=3):
            assert np.array(snapped(x)).tobytes() == _ref_snap_cos(x).tobytes(), x

    def test_membership_reads_the_cosines_once_without_numpy(self, monkeypatch):
        triples = [AngleTriple.from_cosines(x) for x in
                   ((0.5, 0.3, 0.2), (0.6, 0.3, 0.1), (1.0, 1.0, 1.0), (0.5, 0.5, 0.0),
                    (0.5, 0.3, 5e-8), (1.0, 0.0, 0.0))]
        reads = Counter()
        original = AngleTriple.cos_tuple

        def counted(self):
            reads[self] += 1
            return original(self)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy ran on the three cosines")

        monkeypatch.setattr(AngleTriple, "cos_tuple", counted)
        for name in ("clip", "sort", "cos", "arccos", "array", "asarray", "max", "abs"):
            monkeypatch.setattr(np, name, refuse)
        for k, n in ((3, 3), (4, 4), (8, 6), (8, 4), (6, 6), (16, 4)):
            for t in triples:
                reads.clear()
                moduli_membership(k, n, t)
                assert reads == {t: 1}
                snapped(t.cos_tuple())
                _snap_into_strata(k, n, t)


class TestModuli:
    def test_odd_k_above_n_empty(self):
        assert strata_for(7, 5) == []
        assert strata_for(5, 16) != []

    def test_k2_mod4_above_2n_empty(self):
        assert strata_for(6, 2) == []

    def test_membership_multiplicity_two(self):
        hits = moduli_membership(4, 4, T03)
        assert len(hits) == 2
        assert {h.branch for h in hits} == {1, -1}
        assert all(h.stratum.name == "two_class_region" for h in hits)

    def test_membership_point(self):
        hits = moduli_membership(5, 5, REAL3)
        assert len(hits) == 1 and hits[0].branch is None

    def test_membership_quaternionic_regime(self):
        hits = moduli_membership(8, 2, AngleTriple(0, 0, 0))
        assert [h.stratum.name for h in hits] == ["quaternionic_point"]

    def test_membership_empty(self):
        assert moduli_membership(5, 5, T03) == []

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            strata_for(9, 2)
        with pytest.raises(ValueError):
            moduli_membership(0, 2, T03)

    @pytest.mark.parametrize("k,n", [(0, 0), (0, -3), (-1, 3), (13, 3)])
    def test_describe_checks_the_ranges_for_every_k(self, k, n):
        with pytest.raises(ValueError, match="n must be positive|k must lie in"):
            moduli_describe(k, n)

    def test_describe_k0(self):
        desc = moduli_describe(0, 3)
        assert [a["action"] for a in desc["special_actions"]] == ["N", "K", "SU(1,n+1)"]
        assert desc["strata"] == []

    def test_solvable_foliation_annotation(self):
        desc = moduli_describe(1, 3)
        assert desc["strata"][0]["annotation"] == "solvable foliation"

    def test_monotone_in_n(self):
        triples = [REAL3, T03, T13, AngleTriple(0, 0.8, 0.8),
                   AngleTriple(0.9, HALF_PI, HALF_PI)]
        for k in range(1, 9):
            for n in range(max(k, 1), 10):
                for t in triples:
                    if moduli_membership(k, n, t):
                        assert moduli_membership(k, n + 1, t)


# Offsets around each existence rule: within REGION_TOL, on both sides.
_PROBE_OFFSETS = (-9e-11, -5e-11, -1e-11, -1e-12, -1e-13, 0.0, 1e-13, 1e-12, 1e-11, 5e-11,
                  9e-11)


def _probe_inputs(d):
    """(k, n, cosines, stratum, sign) moved by d next to each existence rule:
    the minus v3 class at cos(phi) = 1/2, phi1 = 0 forcing phi2 = phi3, and
    the two cos-sum boundaries.  ``sign`` is the class built without a
    branch, None on a two-branch stratum."""
    inputs = [(3, n, (0.5 + d, 0.5 + d, 0.0), "two_branch_curve", None) for n in (3, 8)]
    inputs += [(3, 2, (0.5 + d, 0.5 + d, 0.0), "compact_branch_point", -1)]
    inputs += [(k, n, (1.0, 0.5 + d, 0.5), "complexified_curve", 1)
               for k, n in ((4, 2), (8, 4), (12, 8))]
    inputs += [(8, 6, (x + d, y, z), "boundary_sum_surface", sign)
               for x, y, z, sign in ((0.5, 0.3, 0.2, -1), (0.8, 0.5, 0.3, 1),
                                     (1 / 3, 1 / 3, 1 / 3, -1))]
    return inputs


class TestRepresentative:
    def test_v3_branch_dispatch(self):
        space = representative(3, 3, AngleTriple(math.pi / 3, math.pi / 3, HALF_PI), -1)
        assert branch_of_v3(space) == -1

    def test_dim3_n2_point(self):
        space = representative(3, 2, AngleTriple(math.pi / 3, math.pi / 3, HALF_PI))
        assert space.n == 2
        assert branch_of_v3(space) == -1

    def test_sum_dispatch(self):
        space = representative(8, 8, T03, 1)
        assert type_of(space) == TypeSignature(2, 0)
        space = representative(8, 8, T03, -1)
        assert type_of(space) == TypeSignature(0, 2)

    def test_line(self):
        space = representative(1, 4, REAL3)
        assert space.k == 1

    def test_boundary_surface_picks_fitting_sign(self):
        space = representative(8, 6, T13)
        assert type_of(space) == TypeSignature(0, 2)
        plus_boundary = AngleTriple.from_cosines([0.8, 0.5, 0.3])
        space = representative(8, 6, plus_boundary)
        assert type_of(space) == TypeSignature(2, 0)

    @pytest.mark.parametrize("offset", _PROBE_OFFSETS)
    def test_round_trip_next_to_boundary(self, offset):
        # Membership promises a constructible class: next to each existence
        # rule, every stratum (and branch) a triple lies in is built by
        # `representative`, and its record lists that stratum and class.
        for k, n, cosines, name, sign in _probe_inputs(offset):
            triple = AngleTriple.from_cosines(cosines)
            hits = moduli_membership(k, n, triple)
            assert {h.stratum.name for h in hits} == {name}, (k, n, cosines)
            for hit in hits:
                where = (k, n, cosines, hit.stratum.name, hit.branch)
                space = representative(k, n, triple, hit.branch)
                record = classify_subspace(space)
                assert space.n == n and name in [s["name"] for s in record["strata"]], where
                assert np.max(np.abs(np.array(record["cosines"]) - cosines)) < 1e-8, where
                built = sign if hit.branch is None else hit.branch
                if k == 3:
                    assert record["branch"] == built, where
                else:
                    assert record["type"] == ([k // 4, 0] if built == 1 else [0, k // 4]), where

    def test_readme_witness_in_h7(self):
        # The README witness: cosines 1/3 to eleven digits, one block per sign.
        triple = AngleTriple.from_cosines([0.33333333333] * 3)
        record = classify_subspace(construct_sum(triple, 1, 1, 7))
        assert record["type"] == [1, 1]
        assert record["protohomogeneous"]["value"] == "no"
        assert [s["name"] for s in record["strata"]] == ["boundary_sum_surface"]

    def test_empty_membership_rejected(self):
        with pytest.raises(ValueError, match="no stratum"):
            representative(5, 5, T03)

    @pytest.mark.parametrize("branch", [1, -1])
    def test_built_from_the_stored_cosines(self, branch):
        # `representative` builds from the snapped cosines as they are stored,
        # as construct_v4 does from a triple of those cosines, so the bases
        # match bit for bit.
        rng = np.random.default_rng(23)
        for _ in range(300):
            c = sorted(rng.dirichlet([1.0, 1.0, 1.0, 1.0])[:3], reverse=True)
            triple = AngleTriple.from_cosines(c)
            assert [h.stratum.name for h in moduli_membership(4, 4, triple)] == [
                "two_class_region"] * 2
            got = representative(4, 4, triple, branch)
            want = construct_v4(AngleTriple.from_cosines(snapped(triple.cos_tuple())),
                                branch, 4)
            assert got.basis.tobytes() == want.basis.tobytes(), c

    @pytest.mark.parametrize("branch", [True, 1.0, -1.0])
    def test_branch_must_be_an_int(self, branch):
        # True and 1.0 compare equal to 1, but only the ints +1 and -1 select a class.
        with pytest.raises(ValueError, match="branch must be the int"):
            representative(3, 3, AngleTriple(1.2, 1.2, math.pi / 2), branch)

    @pytest.mark.parametrize("branch", [1, -1])
    def test_int_branch_builds_its_class(self, branch):
        space = representative(3, 3, AngleTriple(1.2, 1.2, math.pi / 2), branch)
        assert np.array_equal(space.basis, construct_v3(1.2, branch, 3).basis)
        assert branch_of_v3(space) == branch

    def test_branch_on_single_class_rejected(self):
        with pytest.raises(ValueError, match="single-class"):
            representative(5, 5, REAL3, -1)

    @pytest.mark.parametrize("branch", [1, -1])
    @pytest.mark.parametrize("k,n,cosines", [
        (8, 6, [1 / 3] * 3),  # boundary_sum_surface
        (8, 4, [1.0, 0.6, 0.6]),  # complexified_curve
        (5, 5, [0.0, 0.0, 0.0]),  # totally_real_point
        (3, 3, [0.9, 0.9, 0.0]),  # single_branch_curve
        (3, 3, [1.0, 1.0, 0.0]),  # single_branch_curve at (0, 0, pi/2)
        (3, 2, [0.5, 0.5, 0.0]),  # compact_branch_point
    ])
    def test_either_branch_on_single_class_strata_rejected(self, k, n, cosines, branch):
        # One rule: a branch is accepted only on a two-class stratum.
        with pytest.raises(ValueError, match="single-class"):
            representative(k, n, AngleTriple.from_cosines(cosines), branch)

    @pytest.mark.parametrize("k,n,cosines", [
        (8, 4, [1.0, 0.6, 0.6]), (8, 2, [1.0, 1.0, 1.0]), (4, 4, [1.0, 0.0, 0.0]),
        (12, 8, [1.0, 0.2, 0.2]),
    ])
    def test_phi1_zero_builds_the_plus_sum(self, k, n, cosines):
        # At cos(phi1) = 1 the plus blocks fit on every stratum, so the
        # general path places the plus sum (up to the round-off of the
        # cosine round trip).
        triple = AngleTriple.from_cosines(cosines)
        space = representative(k, n, triple)
        assert np.max(np.abs(space.basis - construct_sum(triple, k // 4, 0, n).basis)) <= 1e-15

    @pytest.mark.parametrize("k,n,cosines,constructor,expected", [
        (8, 6, [1 / 3] * 3, "construct_sum", (0, 2)),
        (8, 6, [0.8, 0.5, 0.3], "construct_sum", (2, 0)),
        (8, 6, [(1 - 1e-11) / 3] * 3, "construct_sum", (0, 2)),
        (8, 6, [(1 + 1e-11) / 3] * 3, "construct_sum", (0, 2)),
        (8, 8, [0.5, 0.4, 0.3], "construct_sum", (2, 0)),
        (3, 2, [0.5, 0.5, 0.0], "construct_v3", -1),
        (3, 3, [0.9, 0.9, 0.0], "construct_v3", 1),
        (3, 6, [0.9, 0.9, 0.0], "construct_v3", 1),
    ])
    def test_single_class_constructed_once(self, monkeypatch, k, n, cosines, constructor,
                                           expected):
        # The fitting class is chosen by counting the slots of the plus
        # blocks, which are then placed, not built again; the minus blocks are
        # built only when the plus ones do not fit.  A sum block's build is
        # one Gram factorization (`_psd_cholesky`), keyed here by its Gram
        # matrix; a v3 build is one `_v3_blocks`, keyed by its sign.
        builds = Counter()
        if constructor == "construct_sum":
            original = qka.families._psd_cholesky

            def counted(g, rank):
                builds[repr(g)] += 1
                return original(g, rank)

            monkeypatch.setattr(qka.families, "_psd_cholesky", counted)
        else:
            original = qka.families._v3_blocks

            def counted(phi, sign):
                builds[sign] += 1
                return original(phi, sign)

            for module in (qka.families, qka.classify):
                monkeypatch.setattr(module, "_v3_blocks", counted)
        space = representative(k, n, AngleTriple.from_cosines(cosines))
        plus_fits = expected in (1, (k // 4, 0))
        assert sorted(builds.values()) == [1] * (1 if plus_fits else 2)
        assert (type_of(space).as_tuple() if k % 4 == 0 else branch_of_v3(space)) == expected

    def test_snap_that_leaves_the_region_is_not_applied(self):
        # cos(phi3) = 5e-8 lies within SNAP_TOL of 0, but snapping it would
        # push cos(phi1) + cos(phi2) - cos(phi3) past 1 and out of the region.
        triple = AngleTriple.from_cosines([0.6, 0.4 + 1e-8, 5e-8])
        hits = moduli_membership(8, 8, triple)
        assert [h.stratum.name for h in hits] == ["single_class_region"]
        space = representative(8, 8, triple)
        record = classify_subspace(space)
        assert record["type"] == [2, 0]
        assert [s["name"] for s in record["strata"]] == ["single_class_region"]
        assert np.max(np.abs(np.array(record["cosines"]) - triple.cos_tuple())) < 1e-8

    def test_snap_onto_single_class_boundary_refuses_minus(self):
        # Membership puts cos(phi3) = 5e-9 in the two-class region, but the
        # snap lands on the single-class boundary, where classify_subspace
        # reports it: representative builds the plus class there and refuses
        # the minus class, which classify_subspace could not report.
        triple = AngleTriple.from_cosines([0.5, 0.3, 5e-9])
        hits = moduli_membership(8, 8, triple)
        assert [(h.stratum.name, h.branch) for h in hits] == [
            ("two_class_region", 1), ("two_class_region", -1)]
        with pytest.raises(ValueError, match="single-class"):
            representative(8, 8, triple, -1)
        record = classify_subspace(representative(8, 8, triple))
        assert record["type"] == [2, 0]
        assert [s["name"] for s in record["strata"]] == ["single_class_region"]

    def test_membership_queried_again_only_after_a_snap(self, monkeypatch):
        calls = []
        original = qka.moduli._strata_holding

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(qka.moduli, "_strata_holding", counted)
        representative(8, 8, T03, -1)
        assert len(calls) == 1
        calls.clear()
        representative(8, 8, AngleTriple.from_cosines([0.6, 0.4 + 1e-8, 5e-8]))
        assert len(calls) == 2


class TestClassifyRecord:
    def test_non_constant_record(self):
        rng = np.random.default_rng(2)
        space = from_spanning([rng.standard_normal(24) for _ in range(3)])
        record = classify_subspace(space)
        assert record["constant"] is False
        assert record["protohomogeneous"]["value"] == "no"

    def test_snapped_helper(self):
        t = AngleTriple.from_cos2_eigenvalues([1 - 1e-15, 0.5, 1e-15])
        s = snapped(t.cos_tuple())
        assert s == pytest.approx([1.0, math.sqrt(0.5), 0.0], abs=1e-12)


@pytest.fixture
def analysis_calls(monkeypatch):
    """Calls of the W stage, the frame built from a W, the sampled constancy
    check and the Jacobi reference, through every binding in a loaded qka
    module, per subspace (a frame counts for the subspace its W was read from)."""
    calls = Counter()
    owner = {}  # id of a returned W -> id of its subspace
    originals = {"_slot_structure": qka.subspace._slot_structure,
                 "_exact_structure": qka.subspace._exact_structure,
                 "constancy_check": qka.subspace.constancy_check,
                 "joint_canonical_basis": qka.subspace.joint_canonical_basis}
    for name, original in originals.items():

        def counted(arg, *args, _name=name, _original=original, **kwargs):
            space = owner[id(arg)] if _name == "_exact_structure" else id(arg)
            calls[_name, space] += 1
            out = _original(arg, *args, **kwargs)
            if _name == "_slot_structure":
                owner[id(out)] = space
            return out

        for module in [m for key, m in sys.modules.items() if key.startswith("qka")]:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def _read(*spaces, frame=True):
    """The calls of one W stage per subspace, and of one frame when ``frame``."""
    stages = ("_slot_structure", "_exact_structure") if frame else ("_slot_structure",)
    return Counter({(stage, id(space)): 1 for space in spaces for stage in stages})


class TestAnalysisOnce:
    @pytest.mark.parametrize("l_plus,l_minus", [(1, 1), (4, 0), (1, 3)])
    def test_classify_samples_once(self, analysis_calls, l_plus, l_minus):
        # A certified sum is read from its exact structure: no sampling at all.
        k = 4 * (l_plus + l_minus)
        space = rotated(construct_sum(TA, l_plus, l_minus, k), k)
        record = classify_subspace(space)
        assert record["type"] == [l_plus, l_minus]
        assert record["spread"] == 2 * record["joint_residual"] <= 1e-12
        assert analysis_calls == _read(space)

    def test_classify_v3_samples_once(self, analysis_calls):
        # Dimension 3 reads the three witness points of W: no sampling at
        # all.  The frame is built once, only for the printed joint_residual.
        space = rotated(construct_v3(1.2, -1, 3), 6)
        record = classify_subspace(space)
        assert record["branch"] == -1 and record["constant"] is True
        assert analysis_calls == _read(space)

    def test_v3_equivalence_samples_once_per_side(self, analysis_calls):
        # Constancy, triple and branch all read W alone: no frame on either side.
        a = rotated(construct_v3(1.2, 1, 3), 7)
        b = rotated(construct_v3(1.2, 1, 3), 8)
        assert are_equivalent(a, b).value == "yes"
        assert analysis_calls == _read(a, b, frame=False)

    def test_v3_branch_and_protohomogeneity_form_no_frame(self, analysis_calls):
        a = rotated(construct_v3(1.2, -1, 3), 9)
        b = rotated(construct_v3(1.2, 1, 3), 10)
        assert branch_of_v3(a) == -1
        assert is_protohomogeneous(b).value == "yes"
        assert analysis_calls == _read(a, b, frame=False)

    def test_equivalence_samples_at_most_once_per_side(self, analysis_calls):
        a = rotated(construct_sum(TA, 1, 1, 8), 1)
        b = rotated(construct_sum(TA, 1, 1, 8), 2)
        assert are_equivalent(a, b).value == "yes"
        assert analysis_calls == _read(a, b)

    def test_v4_equivalence_does_not_sample(self, analysis_calls):
        a = rotated(construct_v4(T03, 1, 4), 3)
        b = rotated(construct_v4(T03, -1, 4), 4)
        assert are_equivalent(a, b).value == "no"
        assert analysis_calls == _read(a, b)

    def test_random_subspace_reads_exact_structure_once(self, analysis_calls):
        # The "no" is witnessed at points read off W: no sampling at all.
        rng = np.random.default_rng(11)
        space = from_spanning([rng.standard_normal(24) for _ in range(4)])
        assert classify_subspace(space)["constant"] is False
        assert analysis_calls == _read(space)


def _svd_kernel_split(p1, p2, p3):
    """Reference: the kernels of Pbar1 Pbar2 -+ Pbar3 from one SVD each."""

    def nullspace(mat):
        _, sv, vt = np.linalg.svd(mat)
        return vt[np.sum(sv > 1e-8 * max(sv[0], 1.0)):].T

    prod = p1 @ p2
    return nullspace(prod - p3), nullspace(prod + p3)


def _eigvalsh_sign_dims(s):
    """Reference: the eigenvalue split of sym(M) by eigvalsh, each eigenvalue
    within 1e-8 max(gap, 1) of +1 or -1, refused unless the two counts are
    multiples of 4 that sum to k."""
    lams = np.linalg.eigvalsh(s)
    plus, minus = (int(np.sum(gap <= 1e-8 * max(gap.max(), 1.0)))
                   for gap in (np.abs(lams - 1.0), np.abs(lams + 1.0)))
    if plus % 4 or minus % 4 or plus + minus != len(s):
        raise NumericalFailure(f"eigenvalue split ({plus}, {minus}) refused")
    return plus, minus


def _pbar_triple(analysis):
    analysis._require_constant()
    return [analysis.pbar(i) for i in (1, 2, 3)]


def _tampered(monkeypatch, space, **fields):
    """Make every analysis of ``space`` read a copy of its exact structure with
    ``fields(exact)`` in place of the named fields; the Pbar gates, which read
    ``square_gap`` and ``cos2``, still pass."""
    exact = _exact_structure(_slot_structure(space))
    copy = dataclasses.replace(exact, **{f: fn(exact) for f, fn in fields.items()})
    monkeypatch.setattr(qka.classify, "_exact_structure", lambda w: copy)


def _plus_part_scaled(space, eps):
    """X_12 -> X_12 (I - eps P_+), with P_+ = (I + S) / 2 the plus projector
    of the untampered analysis: M_0 = W'_3 X_12 keeps its minus part and
    scales its plus part by 1 - eps.  The generators do not read X_12."""
    s, _ = _Analysis(space).signs
    shrink = np.eye(len(s)) - 0.5 * eps * (np.eye(len(s)) + s)
    return lambda exact: exact.cross12 @ shrink


def _third_is_first(exact):
    # W'_1 in place of W'_3: M = -W'_1^T W'_1^T W'_2 / (c1 c2 c3) is then
    # proportional to the antisymmetric W'_2, so no sign split exists.
    wc = exact.w_canonical.copy()
    wc[2] = wc[0]
    return wc


class TestKernelSplit:
    @pytest.mark.parametrize("k", [8, 16, 64])
    def test_projectors_match_svd_split(self, k):
        # The sign parts factorize takes, (I +- S) / 2, against the kernels of
        # Pbar1 Pbar2 -+ Pbar3 from one SVD each.
        l = k // 4
        for l_plus in sorted({0, 1, l // 2, l - 1, l}):
            space = rotated(construct_sum(TA, l_plus, l - l_plus, k), k + l_plus)
            analysis = _Analysis(space)
            got = _sign_parts(analysis.signs, k)
            want = _svd_kernel_split(*_pbar_triple(analysis))
            assert [dim for _, dim in got] == [w.shape[1] for w in want] == [
                4 * l_plus, 4 * (l - l_plus)]
            for (projector, _), w in zip(got, want):
                assert np.max(np.abs(projector - w @ w.T)) <= 1e-10

    def test_non_symmetric_product_rejected(self, monkeypatch):
        space = rotated(construct_sum(TA, 1, 1, 8), 3)
        _tampered(monkeypatch, space, w_canonical=_third_is_first)
        with pytest.raises(NumericalFailure, match="not symmetric") as split:
            _Analysis(space).signs
        with pytest.raises(NumericalFailure) as blocks:
            factorize(space)
        assert str(blocks.value) == str(split.value)

    @pytest.mark.parametrize("k", [8, 16, 64])
    def test_eigenvalue_type_matches_kernel_dimensions(self, k):
        # The block type counts by the trace; the projectors have that rank.
        l = k // 4
        for l_plus in sorted({0, 1, l // 2, l - 1, l}):
            space = rotated(construct_sum(TA, l_plus, l - l_plus, k), k + l_plus)
            analysis = _Analysis(space)
            ranks = [np.linalg.matrix_rank(p, tol=0.5) for p, _ in
                     _sign_parts(analysis.signs, k)]
            assert analysis.invariant.as_tuple() == (ranks[0] // 4, ranks[1] // 4)
            assert analysis.invariant.as_tuple() == (l_plus, l - l_plus)

    def test_eigenvalue_type_refuses_non_symmetric_product(self, monkeypatch):
        space = rotated(construct_sum(TA, 1, 1, 8), 3)
        _tampered(monkeypatch, space, w_canonical=_third_is_first)
        with pytest.raises(NumericalFailure) as typed:
            type_of(space)
        with pytest.raises(NumericalFailure) as blocks:
            factorize(space)
        assert str(typed.value) == str(blocks.value)
        assert "not symmetric" in str(typed.value)
        assert classify_subspace(space)["type_diagnostic"] == str(typed.value)


def _involution(k, l_plus, seed):
    """The eigenvalues (4 l_plus of them +1, the rest -1) and a random
    orthonormal eigenbasis of a symmetric involution."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((k, k)))[0]
    lams = np.where(np.arange(k) < 4 * l_plus, 1.0, -1.0)
    return lams, q


class TestSignGates:
    """`_sign_split`'s involution gate and trace count against the eigenvalue
    split by eigvalsh (`_eigvalsh_sign_dims`, the reference)."""

    @pytest.mark.parametrize("k", [4, 16, 64])
    def test_involution_gate_implies_eigenvalue_split(self, k):
        l = k // 4
        accepted = refused = 0
        for l_plus in sorted({0, l // 2, l}):
            for index in (0, k - 1):
                for eps in (1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, -1e-9, -1e-8, -1e-7):
                    lams, q = _involution(k, l_plus, k + 7 * l_plus + index)
                    lams[index] += eps
                    s = (q * lams) @ q.T
                    try:
                        _, plus = _sign_split(s)
                    except NumericalFailure as exc:
                        assert "sign involution gate" in str(exc)
                        refused += 1
                        continue
                    accepted += 1
                    assert _eigvalsh_sign_dims(s) == (plus, k - plus) == (4 * l_plus,
                                                                          k - 4 * l_plus)
        assert accepted and refused

    @pytest.mark.parametrize("k", [4, 8, 16, 32, 64])
    def test_type_matches_eigvalsh_and_svd_references(self, k):
        l = k // 4
        for l_plus in sorted({0, 1, l // 2, l - 1, l}):
            space = moved(construct_sum(TA, l_plus, l - l_plus, k), k + l_plus)
            analysis = _Analysis(space)
            p1, p2, p3 = _pbar_triple(analysis)
            m = p3.T @ (p1 @ p2)
            plus, minus = _eigvalsh_sign_dims(0.5 * (m + m.T))
            svd = [part.shape[1] for part in _svd_kernel_split(p1, p2, p3)]
            assert [plus, minus] == svd == [4 * l_plus, 4 * (l - l_plus)]
            assert analysis.invariant.as_tuple() == (l_plus, l - l_plus)

    def test_count_not_a_multiple_of_four_refused(self):
        q = np.linalg.qr(np.random.default_rng(6).standard_normal((8, 8)))[0]
        s = (q * np.where(np.arange(8) < 2, 1.0, -1.0)) @ q.T
        with pytest.raises(NumericalFailure, match=r"kernel dimensions \(2, 6\) are not "
                                                   "multiples of 4"):
            _sign_split(s)
        with pytest.raises(NumericalFailure):
            _eigvalsh_sign_dims(s)

    def test_near_involution_refused_by_name(self):
        lams, q = _involution(8, 1, 5)
        lams[0] = 1.0 - 1e-6
        with pytest.raises(NumericalFailure, match="sign involution gate") as exc:
            _sign_split((q * lams) @ q.T)
        assert "2.00e-06" in str(exc.value)  # |(1 - 1e-6)^2 - 1|
        assert f"{SIGN_INVOLUTION_TOL:.0e}" in str(exc.value)

    def test_near_involution_refused_on_the_type_path(self, monkeypatch):
        # The plus part of M_0 scaled by 1 - 1e-6 puts the eigenvalues of S at
        # +(1 - 1e-6) and -1 up to the common scale p, which absorbs a scale of
        # the whole M_0 but not this one.
        space = moved(construct_sum(TA, 1, 1, 8), 9)
        _tampered(monkeypatch, space, cross12=_plus_part_scaled(space, 1e-6))
        with pytest.raises(NumericalFailure, match="sign involution gate"):
            type_of(space)
        verdict = is_protohomogeneous(space)
        assert verdict.value == "unknown" and "sign involution gate" in verdict.reason


def _invariant_part(record):
    return (record["constant"], record.get("type"), record.get("branch"),
            record["protohomogeneous"]["value"],
            [(s["name"], s.get("branch")) for s in record.get("strata", [])])


@settings(max_examples=40, deadline=None, database=None)
@given(case=st.sampled_from([r for r in DECLARED if "property" in r.tags]),
       group_seed=st.integers(0, 2**31 - 1),
       basis_seed=st.integers(0, 2**31 - 1))
def test_record_invariant_under_group_and_basis_change(case, group_seed, basis_seed):
    space = construct(case.spec)
    q = np.linalg.qr(np.random.default_rng(basis_seed).standard_normal((space.k, space.k)))[0]
    moved = Subspace(random_group_element(space.n, group_seed).apply_coords(space.basis) @ q)
    base, record = classify_subspace(space), classify_subspace(moved)
    assert _invariant_part(record) == _invariant_part(base)
    assert snapped(record["cosines"]) == pytest.approx(snapped(base["cosines"]), abs=1e-9)


@pytest.mark.parametrize("seed", [None, 0, 7])
def test_declared_verdicts(seed):
    # Every declared input, unmoved and moved by the group and a change of
    # basis at two fixed seeds, gets the verdicts `declared_class` states:
    # constant, its family's snapped cosines, its type or branch and its
    # protohomogeneity, and its strata (with branches) where declared.
    for record in DECLARED:
        space = construct(record.spec)
        got = classify_subspace(space if seed is None else moved(space, seed))
        invariant, proto = declared_class(record.spec)
        where = record.label, seed
        assert got["constant"] is True, where
        assert snapped(got["cosines"]) == pytest.approx(
            snapped(record.triple.cos_tuple()), abs=1e-9), where
        assert got.get("type" if space.k % 4 == 0 else "branch") == (
            list(invariant) if isinstance(invariant, tuple) else invariant), where
        assert got["protohomogeneous"]["value"] == proto, where
        if record.strata is not None:
            assert tuple((s["name"], s.get("branch")) for s in got["strata"]) == record.strata, where


# Three-dimensional subspaces of every kind the witness decides: the v3 classes
# and the imaginary spans among the declared inputs, each moved by the group
# at its own seed, and a non-constant plane.
SEED_FREE_CASES = [
    *[(r.label, lambda spec=r.spec, seed=20 + i: rotated(construct(spec), seed))
      for i, r in enumerate(r for r in DECLARED if r.spec.family in ("v3", "im_h_line"))],
    ("random_plane", lambda: from_spanning(
        list(np.random.default_rng(5).standard_normal((3, 12))))),
]


class TestSeedFreeDimension3:
    @pytest.mark.parametrize("name,build", SEED_FREE_CASES,
                             ids=[c[0] for c in SEED_FREE_CASES])
    def test_record_identical_for_every_seed(self, name, build):
        # Repeated calls agree exactly; the group and a change of basis, at
        # ten seeds, move no part of the record that is invariant.
        space = build()
        record = classify_subspace(space)
        assert classify_subspace(space) == record
        assert record["constant"] is (name != "random_plane")
        for seed in range(10):
            other = classify_subspace(moved(space, seed))
            assert _invariant_part(other) == _invariant_part(record)
            if record["constant"]:
                assert snapped(other["cosines"]) == pytest.approx(
                    snapped(record["cosines"]), abs=1e-9)

    def test_equivalence_identical_for_every_seed(self):
        for phi in (math.pi / 3, 1.2, 1.45):
            plus = rotated(construct_v3(phi, 1, 3), 1)
            for seed in range(10):
                twin = moved(construct_v3(phi, 1, 3), seed + 3)
                minus = moved(construct_v3(phi, -1, 3), seed + 2)
                assert are_equivalent(plus, twin).value == "yes"
                assert are_equivalent(plus, minus).value == "no"

    @pytest.mark.parametrize("build", [
        lambda: construct_v3(1.2, 1, 3),
        lambda: construct_v3(HALF_PI, -1, 3),
        lambda: construct_classical("totally_real", 3, 3),
        lambda: rotated(construct_classical("im_h_line", 3, 2), 4),
    ], ids=["v3", "v3_right_angle", "totally_real", "im_h_line"])
    def test_witness_is_the_only_constancy_path(self, build, monkeypatch):
        # Even where the exact residual would certify constancy, dimension 3
        # reads the 3 witness points, and no eigh or eigvalsh on any of its
        # decisions sees a batch of more than 3 matrices.
        space = build()
        batches = []

        def counted(decompose):
            def call(a, *args, **kwargs):
                batches.append(math.prod(np.shape(a)[:-2]))
                return decompose(a, *args, **kwargs)
            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        report = _Analysis(space).report
        assert report.samples == 3 and report.constant is True
        record = classify_subspace(space)
        assert is_protohomogeneous(space).value == "yes"
        assert are_equivalent(space, moved(space, 1)).value == "yes"
        if record["branch"] is not None:
            assert branch_of_v3(space) == record["branch"]
        assert batches and max(batches) <= 3

    def test_no_random_generator_on_verdict_paths(self, monkeypatch):
        spaces = [build() for _, build in SEED_FREE_CASES]
        v3_pair = [rotated(construct_v3(1.2, sign, 3), 20 + sign) for sign in (1, -1)]

        def refuse(*args, **kwargs):
            raise AssertionError("a random generator was drawn")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for space in spaces:
            classify_subspace(space)
            is_protohomogeneous(space)
        assert branch_of_v3(v3_pair[0]) == 1 and branch_of_v3(v3_pair[1]) == -1
        assert are_equivalent(*v3_pair).value == "no"


def _random_subspace(rng, k, n):
    return Subspace(np.linalg.qr(rng.standard_normal((4 * n, k)))[0])


def _h_orthogonal_sum(a, b):
    """a + b on the first a.n and the last b.n quaternionic slots of H^(a.n + b.n)."""
    basis = np.zeros((4 * (a.n + b.n), a.k + b.k))
    basis[:4 * a.n, :a.k] = a.basis
    basis[4 * a.n:, a.k:] = b.basis
    return Subspace(basis)


UNKNOWN_GATE = "constancy undecided (test gate)"


def _unknown(analysis):
    return ConstancyReport(triple=analysis.exact.triple, max_spread=0.0,
                           samples=analysis.space.k, constant=None, gate=UNKNOWN_GATE)


class TestWitnessedConstancy:
    def test_random_subspaces_witnessed_no(self):
        # k = 4..12 in H^n, n <= 16, avoiding k = 4n (certified constant).
        rng = np.random.default_rng(2024)
        for k in range(4, 13):
            for n in rng.choice(np.arange(k // 4 + 1, 17), size=3, replace=False):
                space = _random_subspace(rng, k, int(n))
                report = _Analysis(space).report
                assert report.constant is False and report.gate == ""
                assert report.max_spread > CONSTANCY_TOL
                assert report.samples == k
                assert classify_subspace(space)["constant"] is False
                assert is_protohomogeneous(space).value == "no"

    @pytest.mark.parametrize("phi", [1.1, 1.3, 1.55])
    def test_sums_of_two_v3_witnessed_no(self, phi):
        # tr Omega is constant on these sums, so M is a multiple of I and its
        # eigenvectors are any basis: unmoved, they lie in the two summands
        # and only the sums of two points spread.
        for s, t in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            space = _h_orthogonal_sum(construct_v3(phi, s, 3), construct_v3(phi, t, 3))
            report = _Analysis(space).report
            assert report.constant is False and report.samples == 6 + 15
            for seed in range(3):
                other = rotated(space, 100 * seed + 7)
                assert _Analysis(other).report.constant is False
                assert classify_subspace(moved(space, seed))["constant"] is False
                assert is_protohomogeneous(other).value == "no"
                assert are_equivalent(space, other).value == "unknown"

    def test_constant_without_certificate_is_unknown(self):
        # A hand-built frame at k = 8: that of a constant sum, with the
        # residual of a v3 (no common canonical basis) in place of its own.
        v3 = construct_v3(1.2, 1, 3)
        residual = _exact_structure(_slot_structure(v3)).residual
        assert 2 * residual == pytest.approx(0.59, abs=0.01)
        analysis = _Analysis(rotated(construct_sum(TA, 1, 1, 8), 2))
        analysis.exact = dataclasses.replace(_exact_structure(analysis.w), residual=residual)
        report = analysis.report
        assert report.constant is None
        assert report.max_spread <= CONSTANCY_TOL and report.samples == 8 + 28
        assert "CONSTANCY_TOL" in report.gate and "2 * residual 5.87e-01" in report.gate
        # In dimension 3 the same witness is exact, so it decides alone.
        report = _witness_report(_slot_structure(v3))
        assert report.constant is True and report.samples == 3 and report.gate == ""

    def test_every_consumer_keeps_unknown(self, monkeypatch):
        rng = np.random.default_rng(8)
        noisy = _random_subspace(rng, 8, 8)
        certified = rotated(construct_sum(TA, 1, 1, 8), 2)
        assert _Analysis(noisy).report.constant is False
        decided = _Analysis.__dict__["report"].func
        monkeypatch.setattr(_Analysis, "report", property(
            lambda self: _unknown(self) if self.space is noisy else decided(self)))
        record = classify_subspace(noisy)
        assert record["constant"] is None and '"constant": null' in json.dumps(record)
        assert record["constancy_gate"] == UNKNOWN_GATE
        assert record["protohomogeneous"] == {"value": "unknown", "reason": UNKNOWN_GATE}
        assert is_protohomogeneous(noisy) == Verdict("unknown", UNKNOWN_GATE)
        # Neither a wrong "no" from unequal constancy nor from "not constant".
        for pair in ((noisy, certified), (certified, noisy), (noisy, noisy)):
            assert are_equivalent(*pair) == Verdict("unknown", UNKNOWN_GATE)
        for decision in (type_of, factorize):
            with pytest.raises(NumericalFailure, match="test gate"):
                decision(noisy)
        assert type_of(certified).as_tuple() == (1, 1)

    def test_branch_and_cli_keep_unknown(self, monkeypatch, tmp_path, capsys):
        from qka.cli import main
        from qka.serialize import save_subspace

        monkeypatch.setattr(_Analysis, "report", property(_unknown))
        with pytest.raises(NumericalFailure, match="test gate"):
            branch_of_v3(construct_v3(1.2, -1, 3))
        path = tmp_path / "v3.json"
        save_subspace(path, construct_v3(1.2, -1, 3))
        out = tmp_path / "vm.json"
        for argv in (["angles", str(path)], ["classify", str(path)],
                     ["construct", "--family", "v4", "--cos", "0.3", "0.3", "0.3",
                      "--sign", "-", "--n", "4", "--out", str(out)]):
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["constant"] is None
            assert payload["constancy_gate"] == UNKNOWN_GATE


def test_no_random_generator_on_any_verdict_path(monkeypatch):
    rng = np.random.default_rng(12)
    inputs = [
        _random_subspace(rng, 5, 4), _random_subspace(rng, 8, 6),
        rotated(construct_v3(1.2, -1, 3), 1),
        rotated(construct_v4(T03, -1, 4), 2),
        rotated(construct_sum(TA, 1, 2, 12), 3),
        _h_orthogonal_sum(construct_v3(1.3, 1, 3), construct_v3(1.3, -1, 3)),
        rotated(construct_classical("quaternionic", 8, 4), 4),
        rotated(construct_classical("cka_plane_sum", 4, 4, phi=0.8), 5),
        rotated(construct_classical("totally_complex", 6, 4), 6),
    ]
    expected = [(classify_subspace(v), is_protohomogeneous(v)) for v in inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("a random generator was drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for space, (record, verdict) in zip(inputs, expected):
        assert classify_subspace(space) == record
        assert is_protohomogeneous(space) == verdict
        assert are_equivalent(space, space).value != "no"
        if space.k % 4 == 0 and record["constant"]:
            assert list(type_of(space).as_tuple()) == record["type"]
            assert len(factorize(space)) == space.k // 4


# (triple, l_plus, l_minus, n): pure and mixed sums from (n, k) = (1, 4) to
# (64, 64), including the quaternionic (phi1 = 0) and complexified blocks.
PBAR_GATE_CASES = [
    (AngleTriple(0.0, 0.0, 0.0), 1, 0, 1),
    (AngleTriple(0.0, 0.9, 0.9), 1, 0, 2),
    (T03, 0, 1, 4),
    (TA, 1, 1, 8),
    (T13, 1, 1, 7),
    (TA, 2, 1, 12),
    (T03, 4, 0, 16),
    (TA, 3, 5, 32),
    (T13, 6, 6, 48),
    (TA, 8, 8, 64),
]


def _direct_gate(m):
    """The direct check of `subspace._complex_structure`, as a number."""
    eye = np.eye(m.shape[0])
    return max(np.max(np.abs(m.T @ m - eye)), np.max(np.abs(m @ m + eye)))


class TestResidualReadPbarGate:
    """The Pbar gate read off the exact residual's products (u_i / c_i, from
    `square_gap` and `cos2`) against the direct check of m^T m = I and
    m^2 = -I."""

    @pytest.mark.parametrize("triple,l_plus,l_minus,n", PBAR_GATE_CASES)
    def test_agrees_with_direct_check(self, triple, l_plus, l_minus, n):
        space = moved(construct_sum(triple, l_plus, l_minus, n), n)
        exact = _exact_structure(_slot_structure(space))
        wc = exact.w_canonical
        # Pbar^2 + I = -(Pbar^T Pbar - I) rests on W' being antisymmetric.
        assert not np.any(wc + wc.transpose(0, 2, 1))
        analysis = _Analysis(space)
        basis = CanonicalBasis(exact.rotation)
        for i, (c, u) in enumerate(zip(exact.cos2, exact.square_gap), 1):
            if math.sqrt(max(c, 0.0)) <= 1e-8:
                continue
            pbar = wc[i - 1] / math.sqrt(c)
            gap, direct = u / c, _direct_gate(pbar)
            assert abs(gap - direct) <= 1e-14
            assert gap >= direct - 1e-15
            assert np.array_equal(analysis.pbar(i), pbar)
            reference = pbar_operator(space, basis, i, math.sqrt(c))
            assert np.max(np.abs(reference - pbar)) <= 1e-13

    @pytest.mark.parametrize("triple,l_plus,l_minus,n", PBAR_GATE_CASES)
    def test_wrong_angle_refused_alike(self, triple, l_plus, l_minus, n):
        # phi1 -> 0.9; the unmoved sum has the standard canonical basis.
        space = construct_sum(triple, l_plus, l_minus, n)
        exact = _exact_structure(_slot_structure(space))
        wrong = exact.w_canonical[0] / math.cos(0.9)
        assert _direct_gate(wrong) > COMPLEX_STRUCTURE_TOL
        with pytest.raises(NumericalFailure, match="not an orthogonal complex structure"):
            pbar_operator(space, STANDARD_BASIS, 1, math.cos(0.9))


def test_no_second_complex_structure_check(monkeypatch):
    # The analysis gates every Pbar from the residual's products; the direct
    # check stays only behind the reference `pbar_operator`.
    inputs = [
        rotated(construct_v4(T03, 1, 4), 1),
        rotated(construct_v4(T03, -1, 4), 2),
        moved(construct_sum(TA, 1, 1, 8), 3),
        moved(construct_sum(T03, 2, 2, 16), 4),
        moved(construct_sum(TA, 8, 8, 64), 5),
        moved(construct_classical("quaternionic", 8, 4), 6),
        moved(construct_classical("complexified_cka", 8, 4, phi=0.8), 7),
    ]
    expected = [(classify_subspace(v), is_protohomogeneous(v), type_of(v),
                 [b.basis for b in factorize(v)]) for v in inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("the complex structure was checked a second time")

    monkeypatch.setattr(qka.subspace, "_complex_structure", refuse)
    monkeypatch.setattr(qka.classify, "_complex_structure", refuse, raising=False)
    for space, (record, verdict, block_type, blocks) in zip(inputs, expected):
        assert record["type"] is not None
        assert classify_subspace(space) == record
        assert is_protohomogeneous(space) == verdict
        assert type_of(space) == block_type
        got = factorize(space)
        assert len(got) == len(blocks) == space.k // 4
        assert all(np.array_equal(g.basis, b) for g, b in zip(got, blocks))
        assert are_equivalent(space, space).is_yes


def test_no_canonical_basis_per_analysis(monkeypatch):
    # The frame keeps R as the rotation its eigh built: no decision builds or
    # validates a CanonicalBasis.
    inputs = [
        rotated(construct_v4(T03, 1, 4), 1),
        rotated(construct_v4(T03, -1, 4), 2),
        moved(construct_sum(TA, 1, 1, 8), 3),
        moved(construct_sum(T03, 2, 2, 16), 4),
        moved(construct_classical("cka_plane_sum", 8, 8, phi=0.8), 5),
        moved(construct_classical("totally_real", 8, 8), 6),
        rotated(construct_v3(1.2, -1, 3), 7),
        from_spanning(list(np.random.default_rng(8).standard_normal((5, 16)))),
    ]
    expected = [(classify_subspace(v), is_protohomogeneous(v),
                 type_of(v) if v.k % 4 == 0 else None,
                 [b.basis for b in factorize(v)] if v.k % 4 == 0 else None)
                for v in inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("a CanonicalBasis was built")

    monkeypatch.setattr(qka.quaternion.CanonicalBasis, "__init__", refuse)
    for space, (record, verdict, block_type, blocks) in zip(inputs, expected):
        assert classify_subspace(space) == record
        assert is_protohomogeneous(space) == verdict
        assert are_equivalent(space, space).value != "no"
        if space.k % 4 == 0:
            assert type_of(space) == block_type
            assert all(np.array_equal(g.basis, b) for g, b in zip(factorize(space), blocks))
    assert are_equivalent(inputs[0], inputs[1]).is_no


def test_no_eigvalsh_and_no_pbar_on_the_type_path(monkeypatch):
    # The block type reads its count off the trace of the sign operator built
    # from the residual's W'_1^T W'_2: no eigvalsh and no Pbar matrix.
    inputs = [
        rotated(construct_v4(T03, 1, 4), 1),
        rotated(construct_v4(T03, -1, 4), 2),
        moved(construct_sum(TA, 1, 1, 8), 3),
        moved(construct_sum(T03, 2, 2, 16), 4),
        moved(construct_sum(TA, 3, 5, 32), 5),
        moved(construct_sum(TA, 8, 8, 64), 6),
    ]
    expected = [(classify_subspace(v), is_protohomogeneous(v), type_of(v))
                for v in inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("the block type ran eigvalsh or formed a Pbar")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(_Analysis, "pbar", refuse)
    for space, (record, verdict, block_type) in zip(inputs, expected):
        assert record["type"] is not None
        assert classify_subspace(space) == record
        assert is_protohomogeneous(space) == verdict
        assert type_of(space) == block_type
        assert are_equivalent(space, space).is_yes
    assert are_equivalent(inputs[0], inputs[1]).is_no


def _reference_slot_structure(v_space):
    """W as the slot kernel formed it with three separate antisymmetrizations:
    the reference the kernel must meet bit for bit."""
    n, k = v_space.n, v_space.k
    b = v_space.basis.reshape(n, 4, k)
    c0 = b[:, 0].T @ b[:, 1:].reshape(n, 3 * k)
    c1 = b[:, 1].T @ b[:, 2:].reshape(n, 2 * k)
    c23 = b[:, 2].T @ b[:, 3]
    w = np.empty((3, k, k))
    e = c23 - c0[:, :k]
    np.subtract(e, e.T, out=w[0])
    e = c0[:, k:2 * k] + c1[:, k:]  # -E_2
    np.subtract(e.T, e, out=w[1])
    e = c0[:, 2 * k:] - c1[:, :k]
    np.subtract(e, e.T, out=w[2])
    return w


def _one_pass_inputs():
    rng = np.random.default_rng(25)
    spaces = [_random_subspace(rng, k, (k + 3) // 4 + int(rng.integers(0, 4)))
              for k in range(3, 65)]
    for k in range(4, 65, 4):
        for l_plus in sorted({0, k // 8}):
            spaces.append(moved(construct_sum(TA, l_plus, k // 4 - l_plus, k), k + l_plus))
    return spaces


class TestOnePass:
    def test_slot_structure_is_the_reference_bit_for_bit(self):
        # tobytes compares the bits, the sign of every zero included.
        for space in _one_pass_inputs():
            assert _slot_structure(space).tobytes() == \
                _reference_slot_structure(space).tobytes(), space

    def test_frame_products_have_no_transposed_operand(self):
        # W'^T W' is read off -W'W' and X_12 off -(W'_2 W'_1)^T, bit for bit:
        # products of the contiguous W', with every sign an exact negation.
        for space in _one_pass_inputs():
            exact = _exact_structure(_slot_structure(space))
            wc, k = exact.w_canonical, space.k
            d = wc @ wc + exact.cos2[:, None, None] * np.eye(k)
            assert exact.square_gap.tobytes() == np.abs(d).max(axis=(1, 2)).tobytes()
            cross = wc[1:].reshape(2 * k, k) @ wc[0]
            assert exact.cross12.tobytes() == np.ascontiguousarray(-cross[:k].T).tobytes()

    def test_strata_records_are_built_once(self, monkeypatch):
        built = []
        init = ModuliStratum.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["name"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(ModuliStratum, "__init__", counted)
        rng = np.random.default_rng(0)
        hits = [moduli_membership(8, 8, AngleTriple.from_cosines(rng.uniform(0.0, 0.5, 3)))
                for _ in range(100)]
        assert built == [] and any(hits)
        first, second = strata_for(8, 8), strata_for(8, 8)
        assert first is not second and first == second
        assert all(a is b for a, b in zip(first, second))

    def test_branch_sign_calls_no_det(self, monkeypatch):
        spaces = [moved(construct_v3(phi, sign, 4), seed)
                  for seed, (phi, sign) in enumerate(itertools.product((1.1, 1.3, 1.5), (1, -1)))]
        expected = [branch_of_v3(space) for space in spaces]
        assert expected == [1, -1] * 3

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.det ran")

        monkeypatch.setattr(np.linalg, "det", refuse)
        assert [branch_of_v3(space) for space in spaces] == expected

    def test_eigenvalues_reach_the_clip_as_floats_once(self, monkeypatch):
        handed, clipped = [], []
        clip = qka.moduli._finite_clip01
        from_eigenvalues = AngleTriple.from_cos2_eigenvalues.__func__

        def spy_clip(x, what):
            clipped.append((x, what))
            return clip(x, what)

        def spy_from(cls, lams):
            handed.append(lams)
            return from_eigenvalues(cls, lams)

        monkeypatch.setattr(qka.moduli, "_finite_clip01", spy_clip)
        monkeypatch.setattr(AngleTriple, "from_cos2_eigenvalues", classmethod(spy_from))
        rng = np.random.default_rng(3)
        inside = [moved(construct_sum(TA, 1, 1, 8), 1), moved(construct_sum(TA, 2, 2, 16), 2),
                  _random_subspace(rng, 8, 8), _random_subspace(rng, 5, 6)]
        for space in inside + [moved(construct_v3(1.2, 1, 3), 3)]:
            handed.clear()
            clipped.clear()
            record = classify_subspace(space)
            assert handed and all(type(v) is float for lams in handed for v in lams)
            assert all(type(x) is float for x, _ in clipped)
            if space in inside:
                # Each squared cosine is clipped once, and no cosine again.
                assert all(SNAP_TOL < c < 1.0 - SNAP_TOL for c in record["cosines"])
                values = [v for lams in handed for v in lams]
                assert [w for _, w in clipped] == ["squared cosine"] * len(values)
                assert all(x is v for (x, _), v in zip(clipped, values))
