"""Tests for subspaces, the angle map, constancy, and joint diagonalization."""

import math

import numpy as np
import pytest

from qka.families import construct_classical, construct_sum, construct_v3, construct_v4
from qka.quaternion import (
    STANDARD_BASIS,
    CanonicalBasis,
    HVector,
    random_group_element,
    right_mult,
)
from qka.subspace import (
    AngleTriple,
    NumericalFailure,
    Subspace,
    _jacobi_joint_diagonalize,
    _omega_batch,
    constancy_check,
    distribution_rank,
    from_spanning,
    is_h_orthogonal,
    joint_canonical_basis,
    omega,
    p_operator,
    pbar_operator,
    vector_qka,
)

HALF_PI = math.pi / 2


def imaginary_span(n=2):
    e0 = HVector.axis(0, n)
    return from_spanning([right_mult(i, e0) for i in (1, 2, 3)])


def quaternionic_line(n=2):
    e0 = HVector.axis(0, n)
    return from_spanning([e0] + [right_mult(i, e0) for i in (1, 2, 3)])


def t_cos(*cosines):
    return AngleTriple.from_cosines(cosines)


class TestFromSpanning:
    def test_single_vector(self):
        space = from_spanning([HVector([1.0, 0, 0, 0])])
        assert space.k == 1 and space.n == 1

    def test_dependent_vectors_rejected(self):
        v = HVector([1.0, 0, 0, 0, 2.0, 0, 0, 0])
        with pytest.raises(ValueError, match="rank-deficient"):
            from_spanning([v, 2.0 * v])

    def test_random_spanning_orthonormalized(self):
        rng = np.random.default_rng(0)
        vecs = [HVector(rng.standard_normal(12)) for _ in range(4)]
        space = from_spanning(vecs)
        assert space.k == 4
        assert np.max(np.abs(space.basis.T @ space.basis - np.eye(4))) < 1e-12
        for v in vecs:
            assert space.contains(v)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            from_spanning([HVector(np.ones(4)), HVector(np.ones(8))])


class TestSubspaceInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_basis(self, bad):
        basis = quaternionic_line().basis.copy()
        basis[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Subspace(basis)

    def test_rejects_all_nan_basis(self):
        with pytest.raises(ValueError, match="non-finite"):
            Subspace(np.full((8, 2), np.nan))


class TestAngleTriple:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            AngleTriple(1.0, 0.5, 1.2)

    def test_from_cosines_sorts(self):
        t = AngleTriple.from_cosines([0.2, 0.9, 0.5])
        assert t.phi1 <= t.phi2 <= t.phi3
        assert t.cosines() == pytest.approx([0.9, 0.5, 0.2])


class TestPOperator:
    def test_zero_on_totally_real(self):
        space = construct_classical("totally_real", 3, 3)
        for i in (1, 2, 3):
            p = p_operator(space, i)
            assert np.max(np.abs(p @ space.basis)) < 1e-12

    def test_isometry_on_quaternionic(self):
        space = quaternionic_line()
        rng = np.random.default_rng(1)
        v = space.basis @ rng.standard_normal(4)
        for i in (1, 2, 3):
            pv = p_operator(space, i) @ v
            assert np.linalg.norm(pv) == pytest.approx(np.linalg.norm(v), abs=1e-12)

    def test_skew_symmetric_on_subspace(self):
        space = construct_v3(0.9, 1, 3)
        rng = np.random.default_rng(2)
        p = p_operator(space, 2)
        for _ in range(10):
            v = space.basis @ rng.standard_normal(3)
            w = space.basis @ rng.standard_normal(3)
            assert (p @ v) @ w == pytest.approx(-(v @ (p @ w)), abs=1e-12)


class TestOmega:
    def test_imaginary_span_eigenvalues(self):
        space = imaginary_span()
        c = np.array([0.3, -0.5, 0.8])
        c /= np.linalg.norm(c)
        om = omega(space, space.basis @ c)
        assert np.linalg.eigvalsh(om) == pytest.approx([0, 1, 1], abs=1e-12)

    def test_totally_real_zero_matrix(self):
        space = construct_classical("totally_real", 4, 4)
        v = space.basis @ np.array([0.5, 0.5, 0.5, 0.5])
        assert np.max(np.abs(omega(space, v))) < 1e-12

    def test_rejects_outside_vector(self):
        space = imaginary_span()
        with pytest.raises(ValueError, match="does not lie"):
            omega(space, HVector.axis(0, 2))

    def test_rejects_non_unit(self):
        space = imaginary_span()
        with pytest.raises(ValueError, match="unit"):
            omega(space, 2.0 * HVector(space.basis[:, 0]))

    def test_trace_identity(self):
        space = construct_v4(t_cos(0.55, 0.4, 0.25), 1, 4)
        expected = np.sum(t_cos(0.55, 0.4, 0.25).cos2())
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            om = omega(space, space.basis @ x)
            assert np.trace(om) == pytest.approx(expected, abs=1e-9)
            lams = np.linalg.eigvalsh(om)
            assert lams[0] > -1e-12 and lams[-1] < 1 + 1e-12


    @pytest.mark.parametrize("rotation_seed", [None, 4])
    def test_batch_matches_projection_in_ambient_space(self, rotation_seed):
        # Omega from the k x k restricted structure against
        # <pi_V J_i x, pi_V J_j x> computed in R^{4n}.
        rng = np.random.default_rng(11)
        space = from_spanning([HVector(rng.standard_normal(16)) for _ in range(5)])
        assert not constancy_check(space, 50).constant
        basis = STANDARD_BASIS
        if rotation_seed is not None:
            q, _ = np.linalg.qr(np.random.default_rng(rotation_seed).standard_normal((3, 3)))
            basis = CanonicalBasis(q * np.sign(np.linalg.det(q)))
        coeffs = rng.standard_normal((5, 40))
        coeffs /= np.linalg.norm(coeffs, axis=0)
        x = space.basis @ coeffs
        px = np.stack([p_operator(space, i, basis) @ x for i in (1, 2, 3)])
        brute = np.einsum("iam,jam->mij", px, px)
        assert np.max(np.abs(_omega_batch(space, coeffs, basis) - brute)) <= 1e-12


class TestVectorQka:
    def test_imaginary_span(self):
        space = imaginary_span()
        triple, basis = vector_qka(space, HVector(space.basis[:, 1]))
        assert triple.cos2() == pytest.approx([1, 1, 0], abs=1e-12)
        # returned basis diagonalizes omega at the vector
        om = omega(space, space.basis[:, 1], basis)
        off = om - np.diag(np.diag(om))
        assert np.max(np.abs(off)) < 1e-10

    def test_quaternionic(self):
        space = quaternionic_line()
        triple, _ = vector_qka(space, HVector(space.basis[:, 0]))
        assert triple.cos2() == pytest.approx([1, 1, 1], abs=1e-12)

    def test_totally_real(self):
        space = construct_classical("totally_real", 2, 2)
        triple, _ = vector_qka(space, HVector(space.basis[:, 0]))
        assert triple.cos2() == pytest.approx([0, 0, 0], abs=1e-12)


class TestConstancy:
    def test_quaternionic_constant(self):
        report = constancy_check(quaternionic_line(), 200, seed=1)
        assert report.constant
        assert report.max_spread < 1e-12
        assert report.triple.cos2() == pytest.approx([1, 1, 1], abs=1e-12)

    def test_generic_two_plane_is_constant(self):
        # Omega of a 2-plane is the constant rank-one matrix a a^T, so every
        # 2-plane has constant angle (phi, pi/2, pi/2).
        rng = np.random.default_rng(11)
        space = from_spanning([HVector(rng.standard_normal(16)) for _ in range(2)])
        report = constancy_check(space, 200, seed=2)
        assert report.constant
        assert report.triple.cos2()[1:] == pytest.approx([0, 0], abs=1e-12)

    def test_generic_three_plane_not_constant(self):
        rng = np.random.default_rng(4)
        space = from_spanning([HVector(rng.standard_normal(16)) for _ in range(3)])
        report = constancy_check(space, 200, seed=2)
        assert not report.constant
        assert report.max_spread > 1e-3

    def test_minus_class_constant(self):
        space = construct_v4(t_cos(0.3, 0.3, 0.3), -1, 4)
        report = constancy_check(space, 200, seed=3)
        assert report.constant and report.max_spread < 1e-9

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            constancy_check(quaternionic_line(), samples=1)


class TestJointBasis:
    def test_quaternionic_residual_tiny(self):
        _, residual = joint_canonical_basis(quaternionic_line(), 60, seed=0)
        assert residual < 1e-12

    def test_plus_class_residual(self):
        space = construct_v4(t_cos(0.5, 0.4, 0.3), 1, 4)
        basis, residual = joint_canonical_basis(space, 80, seed=1)
        assert residual < 1e-9
        # the basis diagonalizes omega everywhere with descending diagonal
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        om = omega(space, space.basis @ x, basis)
        assert np.max(np.abs(om - np.diag(np.diag(om)))) < 1e-9
        d = np.diag(om)
        assert d[0] >= d[1] >= d[2]

    def test_imaginary_span_has_no_common_basis(self):
        _, residual = joint_canonical_basis(imaginary_span(), 120, seed=2)
        assert residual > 1e-2

    def test_jacobi_returns_rotated_batch(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((30, 3, 3))
        mats = a + a.transpose(0, 2, 1)
        rot, diag = _jacobi_joint_diagonalize(mats)
        assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-12
        assert np.max(np.abs(rot.T @ mats @ rot - diag)) < 1e-12


class TestPbar:
    def test_quaternionic_clifford_identity(self):
        space = quaternionic_line()
        p = [pbar_operator(space, STANDARD_BASIS, i, 0.0) for i in (1, 2, 3)]
        assert np.max(np.abs(p[0] @ p[1] - p[2])) < 1e-12

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sign_classes(self, sign):
        triple = t_cos(0.3, 0.3, 0.3)
        space = construct_v4(triple, sign, 4)
        p = [pbar_operator(space, STANDARD_BASIS, i, triple.as_tuple()[i - 1])
             for i in (1, 2, 3)]
        assert np.max(np.abs(p[0] @ p[1] - sign * p[2])) < 1e-9

    def test_anticommutation(self):
        triple = t_cos(0.5, 0.3, 0.15)
        space = construct_sum(triple, 1, 1, 8)
        p = [pbar_operator(space, STANDARD_BASIS, i, triple.as_tuple()[i - 1])
             for i in (1, 2, 3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.max(np.abs(p[i] @ p[j] + p[j] @ p[i])) < 1e-8

    def test_rejects_right_angle(self):
        space = construct_classical("totally_real", 4, 4)
        with pytest.raises(ValueError, match="pi/2"):
            pbar_operator(space, STANDARD_BASIS, 1, HALF_PI)

    def test_rejects_non_invariant(self):
        # dimension-3 subspaces are not invariant under the normalized maps
        space = construct_v3(0.9, 1, 3)
        with pytest.raises(NumericalFailure):
            pbar_operator(space, STANDARD_BASIS, 1, 0.9)


class TestDistributionRank:
    def test_totally_real_rank_zero(self):
        assert distribution_rank(construct_classical("totally_real", 5, 5)) == 0

    def test_imaginary_span_rank_two(self):
        assert distribution_rank(imaginary_span()) == 2

    def test_interior_class_rank_three(self):
        space = construct_v4(t_cos(0.5, 0.4, 0.3), 1, 4)
        assert distribution_rank(space) == 3

    def test_generic_two_plane_rank_one(self):
        rng = np.random.default_rng(6)
        space = from_spanning([HVector(rng.standard_normal(16)) for _ in range(2)])
        assert distribution_rank(space) == 1


class TestHOrthogonality:
    def test_distinct_axes(self):
        a = quaternionic_line(2)
        e1 = HVector.axis(1, 2)
        b = from_spanning([e1] + [right_mult(i, e1) for i in (1, 2, 3)])
        assert is_h_orthogonal(a, b)

    def test_complex_conjugate_plane_fails(self):
        space = construct_classical("totally_complex", 2, 2)
        rotated = Subspace(STANDARD_BASIS.apply(1, space.basis))
        assert not is_h_orthogonal(space, rotated)

    def test_sum_blocks(self):
        from qka.classify import factorize

        space = construct_sum(t_cos(0.3, 0.3, 0.3), 2, 0, 8)
        blocks = factorize(space)
        assert is_h_orthogonal(blocks[0], blocks[1])


class TestGroupInvariance:
    def test_triple_preserved(self):
        space = construct_v4(t_cos(1 / 3, 1 / 3, 1 / 3), -1, 3)
        reference = constancy_check(space, 100, seed=0).triple.cos2()
        for seed in range(5):
            moved = space.transformed(random_group_element(3, seed))
            got = constancy_check(moved, 100, seed=1).triple.cos2()
            assert got == pytest.approx(reference, abs=1e-9)
