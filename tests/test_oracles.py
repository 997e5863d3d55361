"""Tests for the independent validators."""

import math

import numpy as np
import pytest

from qka.families import construct, construct_classical, construct_v3, construct_v4
from qka.oracles import (
    closed_form_eigvals,
    declared_inputs,
    det_closed_form,
    det_formula_check,
    gram_grid_sweep,
    invariance_oracle,
    psd_oracle,
    psd_oracle_batch,
    steenrod_allows,
    steenrod_oracle,
)
from qka.subspace import AngleTriple

HALF_PI = math.pi / 2
ACOS13 = math.acos(1 / 3)
T13 = AngleTriple(ACOS13, ACOS13, ACOS13)


class TestClosedFormEigvals:
    def test_matches_lapack(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.standard_normal((3, 3))
            m = a + a.T
            mine = closed_form_eigvals(m)
            ref = np.linalg.eigvalsh(m)[::-1]
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_diagonal_matrix(self):
        assert closed_form_eigvals(np.diag([3.0, 1.0, 2.0])) == pytest.approx([3, 2, 1])

    def test_batch_shape(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((7, 3, 3))
        mats = a + a.transpose(0, 2, 1)
        assert closed_form_eigvals(mats).shape == (7, 3)


class TestPsdOracle:
    def test_identity(self):
        assert psd_oracle(np.eye(3)) == (True, 3)

    def test_all_minus_one(self):
        m = np.full((3, 3), -1.0)
        np.fill_diagonal(m, 1.0)
        psd, rank = psd_oracle(m)
        assert psd is False and rank is None

    def test_all_minus_half(self):
        m = np.full((3, 3), -0.5)
        np.fill_diagonal(m, 1.0)
        assert psd_oracle(m) == (True, 2)

    def test_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 1e-3
        with pytest.raises(ValueError):
            psd_oracle(m)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(2)
        mats = []
        for _ in range(50):
            a = rng.standard_normal((3, 3))
            mats.append((a + a.T) / 2)
        mats = np.array(mats)
        psd, rank = psd_oracle_batch(mats)
        for i, m in enumerate(mats):
            p, r = psd_oracle(m)
            assert p == psd[i]
            if p:
                assert r == rank[i]


class TestDetFormula:
    def test_near_right_angles(self):
        phi = HALF_PI - 0.1
        t = AngleTriple(phi, phi, phi)
        assert det_formula_check(t, 1) < 1e-12

    def test_boundary_determinant_vanishes(self):
        x = np.array(T13.cos_tuple())
        assert abs(det_closed_form(x, -1)) < 1e-12
        assert det_formula_check(T13, -1) < 1e-12

    def test_random_sweep(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(500):
            x = np.sort(rng.uniform(0.02, 0.95, 3))[::-1]
            t = AngleTriple.from_cosines(x)
            for sign in (1, -1):
                worst = max(worst, det_formula_check(t, sign))
        assert worst < 1e-10

    def test_rejects_boundary_angles(self):
        with pytest.raises(ValueError):
            det_formula_check(AngleTriple(0.5, 0.5, HALF_PI), 1)


class TestGridSweep:
    def test_small_grid_clean(self):
        sweep = gram_grid_sweep(12)
        assert sweep["psd_disagreements"] == 0
        assert sweep["rank_mismatches"] == 0
        assert sweep["det_deviation"] < 1e-10

    def test_resolution_validated(self):
        with pytest.raises(ValueError, match="at least 2"):
            gram_grid_sweep(1)


class TestInvarianceOracle:
    def test_quaternionic(self):
        space = construct_classical("quaternionic", 4, 2)
        assert invariance_oracle(space, trials=30, seed=0) < 1e-12

    def test_minus_class(self):
        space = construct_v4(T13, -1, 3)
        assert invariance_oracle(space, trials=30, seed=1) < 1e-9

    def test_imaginary_span(self):
        space = construct_classical("im_h_line", 3, 2)
        assert invariance_oracle(space, trials=30, seed=2) < 1e-9


class TestSteenrod:
    def test_totally_real_odd(self):
        assert steenrod_oracle(construct_classical("totally_real", 5, 5))

    def test_v3(self):
        assert steenrod_oracle(construct_v3(math.pi / 3, 1, 3))

    def test_rejects_unequal_pair_at_k3(self):
        t = AngleTriple(math.pi / 4, math.pi / 3, HALF_PI)
        assert not steenrod_allows(3, t)

    def test_rejects_nontrivial_odd(self):
        assert not steenrod_allows(5, AngleTriple(0.3, HALF_PI, HALF_PI))

    def test_k2_mod4_constraint(self):
        assert steenrod_allows(6, AngleTriple(0.3, HALF_PI, HALF_PI))
        assert not steenrod_allows(6, AngleTriple(0.3, 0.4, HALF_PI))

    def test_catalog_outputs(self):
        for record in declared_inputs(quick=False):
            if {"orbit", "jacobi"} & record.tags:
                assert steenrod_oracle(construct(record.spec)), record.label
