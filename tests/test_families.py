"""Tests for the constant-angle family constructors and admissibility."""

import math

import numpy as np
import pytest

from qka.families import (
    FamilySpec,
    admissible,
    construct_classical,
    construct_sum,
    construct_v3,
    construct_v4,
    gram_matrix,
    min_quaternionic_dim,
)
from qka.quaternion import STANDARD_BASIS
from qka.subspace import AngleTriple, constancy_check

HALF_PI = math.pi / 2
ACOS13 = math.acos(1 / 3)
T13 = AngleTriple(ACOS13, ACOS13, ACOS13)
T03 = AngleTriple.from_cosines([0.3, 0.3, 0.3])


def check_triple(space, declared, samples=300, seed=0, spread_tol=1e-9):
    report = constancy_check(space, samples, seed)
    assert report.constant, report
    assert report.max_spread < spread_tol
    assert report.triple.cos2() == pytest.approx(declared.cos2(), abs=1e-8)
    return report


class TestGram:
    def test_right_angles_give_identity(self):
        t = AngleTriple(HALF_PI, HALF_PI, HALF_PI)
        assert np.max(np.abs(gram_matrix(t, 1) - np.eye(3))) < 1e-12

    def test_minus_at_pi_thirds_not_psd(self):
        t = AngleTriple(math.pi / 3, math.pi / 3, math.pi / 3)
        g = gram_matrix(t, -1)
        assert g[0, 1] == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.eigvalsh(g) == pytest.approx([-1, 2, 2], abs=1e-12)

    def test_minus_boundary_rank_two(self):
        g = gram_matrix(T13, -1)
        assert g[0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert np.linalg.eigvalsh(g) == pytest.approx([0, 1.5, 1.5], abs=1e-12)

    def test_rejects_zero_first_angle(self):
        with pytest.raises(ValueError, match="phi1"):
            gram_matrix(AngleTriple(0.0, 1.0, 1.0), 1)


class TestAdmissible:
    def test_right_angles(self):
        assert admissible(AngleTriple(HALF_PI, HALF_PI, HALF_PI), 1) == (True, 3)

    def test_minus_at_pi_thirds(self):
        t = AngleTriple(math.pi / 3, math.pi / 3, math.pi / 3)
        assert admissible(t, -1) == (False, None)

    def test_minus_boundary(self):
        assert admissible(T13, -1) == (True, 2)

    def test_plus_boundary(self):
        t = AngleTriple.from_cosines([0.8, 0.5, 0.3])
        assert admissible(t, 1) == (True, 2)
        assert admissible(t, -1) == (False, None)

    @pytest.mark.parametrize("offset", [-1e-11, 1e-11])
    def test_boundary_tolerance_matches_region_predicates(self, offset):
        t = AngleTriple.from_cosines([(1 + offset) / 3] * 3)
        assert admissible(t, -1) == (True, 2)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            admissible(T13, 0)


class TestClassical:
    @pytest.mark.parametrize("family,k,n,phi,cosines", [
        ("totally_real", 3, 3, None, (0, 0, 0)),
        ("totally_real", 1, 4, None, (0, 0, 0)),
        ("totally_complex", 4, 2, None, (1, 0, 0)),
        ("quaternionic", 8, 2, None, (1, 1, 1)),
        ("im_h_line", 3, 1, None, (1, 1, 0)),
        ("cka_plane_sum", 4, 4, 0.8, (math.cos(0.8), 0, 0)),
        ("complexified_cka", 4, 2, math.pi / 4,
         (1, math.cos(math.pi / 4), math.cos(math.pi / 4))),
    ])
    def test_declared_triples(self, family, k, n, phi, cosines):
        space = construct_classical(family, k, n, phi=phi)
        assert space.k == k and space.n == n
        check_triple(space, AngleTriple.from_cosines(cosines))

    @pytest.mark.parametrize("family,k,n,phi", [
        ("totally_real", 4, 3, None),
        ("totally_complex", 3, 4, None),
        ("totally_complex", 10, 4, None),
        ("quaternionic", 6, 4, None),
        ("cka_plane_sum", 4, 3, 0.8),   # needs two slots per plane
        ("cka_plane_sum", 4, 4, 0.0),   # angle outside (0, pi/2)
        ("complexified_cka", 4, 1, 0.8),
        ("complexified_cka", 4, 2, HALF_PI),
    ])
    def test_inadmissible_rejected(self, family, k, n, phi):
        with pytest.raises(ValueError):
            construct_classical(family, k, n, phi=phi)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown"):
            construct_classical("exotic", 3, 3)


class TestV3:
    def test_minus_pi_thirds_fits_two_dims(self):
        space = construct_v3(math.pi / 3, -1, 2)
        assert space.n == 2
        check_triple(space, AngleTriple(math.pi / 3, math.pi / 3, HALF_PI))

    def test_minus_pi_thirds_not_one_dim(self):
        with pytest.raises(ValueError):
            construct_v3(math.pi / 3, -1, 1)

    def test_plus_right_angle_is_totally_real(self):
        space = construct_v3(HALF_PI, 1, 3)
        check_triple(space, AngleTriple(HALF_PI, HALF_PI, HALF_PI))

    def test_plus_pi_thirds(self):
        space = construct_v3(math.pi / 3, 1, 3)
        check_triple(space, AngleTriple(math.pi / 3, math.pi / 3, HALF_PI))

    @pytest.mark.parametrize("phi,sign", [
        (0.0, 1), (0.9, -1), (math.pi / 3 - 0.05, -1), (-0.1, 1),
    ])
    def test_angle_ranges(self, phi, sign):
        with pytest.raises(ValueError):
            construct_v3(phi, sign, 3)

    def test_generic_plus_needs_three_dims(self):
        with pytest.raises(ValueError):
            construct_v3(0.9, 1, 2)

    def test_auxiliary_vector_orthogonality(self):
        # recover e1, e2 from the output columns and check <J3 e1, e2> = 0
        phi = 1.1
        space = construct_v3(phi, 1, 3)
        e0, u1, u2 = space.basis.T
        c, s = math.cos(phi), math.sin(phi)
        e1 = (-STANDARD_BASIS.apply(1, u1) - c * e0) / s
        e2 = (-STANDARD_BASIS.apply(2, u2) - c * e0) / s
        assert abs(STANDARD_BASIS.apply(3, e1) @ e2) < 1e-10
        assert e1 @ e2 == pytest.approx(c / (c + 1), abs=1e-12)


class TestV4:
    def test_right_angles_totally_real(self):
        space = construct_v4(AngleTriple(HALF_PI, HALF_PI, HALF_PI), 1, 4)
        check_triple(space, AngleTriple(HALF_PI, HALF_PI, HALF_PI))

    def test_minus_boundary_fits_three_dims(self):
        space = construct_v4(T13, -1, 3)
        assert space.n == 3
        check_triple(space, T13)

    def test_minus_interior_needs_four_dims(self):
        with pytest.raises(ValueError):
            construct_v4(T03, -1, 3)

    def test_inadmissible_rejected(self):
        t = AngleTriple.from_cosines([0.9, 0.9, 0.1])
        with pytest.raises(ValueError, match="no sign"):
            construct_v4(t, -1, 4)

    def test_minus_at_right_angle_rejected(self):
        t = AngleTriple.from_cosines([0.4, 0.3, 0.0])
        with pytest.raises(ValueError, match="plus class"):
            construct_v4(t, -1, 4)

    def test_zero_first_angle_routes_to_complexified(self):
        t = AngleTriple(0.0, 0.9, 0.9)
        space = construct_v4(t, 1, 2)
        check_triple(space, t)

    def test_zero_triple_routes_to_quaternionic(self):
        space = construct_v4(AngleTriple(0.0, 0.0, 0.0), 1, 1)
        check_triple(space, AngleTriple(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_auxiliary_vectors_h_orthogonal(self, sign):
        # e_i recovered from the output satisfy <e_i, J e_j> = 0 and the
        # declared Gram inner products
        triple = T03
        space = construct_v4(triple, sign, 4)
        cols = space.basis.T
        e0 = cols[0]
        phis = triple.as_tuple()
        es = []
        for i in (1, 2, 3):
            c, s = math.cos(phis[i - 1]), math.sin(phis[i - 1])
            es.append((-STANDARD_BASIS.apply(i, cols[i]) - c * e0) / s)
        g = gram_matrix(triple, sign)
        for i in range(3):
            assert np.linalg.norm(es[i]) == pytest.approx(1.0, abs=1e-10)
            for j in range(3):
                if i != j:
                    for a in (1, 2, 3):
                        assert abs(es[i] @ STANDARD_BASIS.apply(a, es[j])) < 1e-10
                assert es[i] @ es[j] == pytest.approx(g[i, j], abs=1e-10)


class TestSums:
    def test_two_real_blocks(self):
        t = AngleTriple(HALF_PI, HALF_PI, HALF_PI)
        space = construct_sum(t, 2, 0, 8)
        assert space.k == 8
        check_triple(space, t)

    def test_mixed_blocks_at_boundary(self):
        space = construct_sum(T13, 1, 1, 7)
        assert space.k == 8 and space.n == 7
        check_triple(space, T13)

    def test_insufficient_ambient_rejected(self):
        with pytest.raises(ValueError, match="needs n >="):
            construct_sum(T13, 1, 1, 6)

    def test_minus_blocks_need_interior_third_angle(self):
        t = AngleTriple.from_cosines([0.4, 0.3, 0.0])
        with pytest.raises(ValueError, match="pi/2"):
            construct_sum(t, 0, 2, 8)

    def test_zero_first_angle_sum(self):
        t = AngleTriple(0.0, 0.7, 0.7)
        space = construct_sum(t, 2, 0, 4)
        assert space.k == 8
        check_triple(space, t)

    def test_no_blocks_rejected(self):
        with pytest.raises(ValueError):
            construct_sum(T03, 0, 0, 4)


class TestMinQuaternionicDim:
    @pytest.mark.parametrize("spec,expected", [
        (FamilySpec("v4", n=0, angles=T13, sign=-1), 3),
        (FamilySpec("v4", n=0, angles=T03, sign=-1), 4),
        (FamilySpec("v3", n=0, phi=math.pi / 3, sign=-1), 2),
        (FamilySpec("v3", n=0, phi=math.pi / 3, sign=1), 3),
        (FamilySpec("v3", n=0, phi=0.0, sign=1), 1),
        (FamilySpec("sum_type", n=0, angles=T13, l_plus=1, l_minus=1), 7),
        (FamilySpec("sum_type", n=0, angles=T03, l_plus=1, l_minus=1), 8),
        (FamilySpec("totally_real", n=0, k=5), 5),
        (FamilySpec("totally_complex", n=0, k=6), 3),
        (FamilySpec("quaternionic", n=0, k=12), 3),
        (FamilySpec("im_h_line", n=0, k=3), 1),
        (FamilySpec("cka_plane_sum", n=0, k=6, phi=0.8), 6),
        (FamilySpec("complexified_cka", n=0, k=8, phi=0.8), 4),
    ])
    def test_minimal_ambient(self, spec, expected):
        assert min_quaternionic_dim(spec) == expected

    def test_constructions_succeed_at_minimum(self):
        spec = FamilySpec("sum_type", n=7, angles=T13, l_plus=1, l_minus=1)
        assert min_quaternionic_dim(spec) == 7
        construct_sum(T13, 1, 1, 7)
