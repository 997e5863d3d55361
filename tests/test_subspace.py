"""Tests for subspaces, the angle map, constancy, and joint diagonalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qka import families
from qka.families import construct, construct_classical, construct_sum, construct_v3, construct_v4
from qka.quaternion import (
    STANDARD_BASIS,
    CanonicalBasis,
    random_group_element,
    right_mult,
)
from qka.oracles import declared_inputs
from qka.subspace import (
    AngleTriple,
    NumericalFailure,
    Subspace,
    _exact_structure,
    _jacobi_joint_diagonalize,
    _omega_batch,
    _rotation_from_columns,
    _slot_structure,
    _witness_report,
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


def axis(slot, n):
    """The real unit vector of the given quaternionic coordinate of H^n."""
    e = np.zeros(4 * n)
    e[4 * slot] = 1.0
    return e


def imaginary_span(n=2):
    e0 = axis(0, n)
    return from_spanning([right_mult(i, e0) for i in (1, 2, 3)])


def quaternionic_line(n=2):
    e0 = axis(0, n)
    return from_spanning([e0] + [right_mult(i, e0) for i in (1, 2, 3)])


def t_cos(*cosines):
    return AngleTriple.from_cosines(cosines)


class TestFromSpanning:
    def test_single_vector(self):
        space = from_spanning([np.array([1.0, 0, 0, 0])])
        assert space.k == 1 and space.n == 1

    def test_dependent_vectors_rejected(self):
        v = np.array([1.0, 0, 0, 0, 2.0, 0, 0, 0])
        with pytest.raises(ValueError, match="rank-deficient"):
            from_spanning([v, 2.0 * v])

    def test_random_spanning_orthonormalized(self):
        rng = np.random.default_rng(0)
        vecs = [rng.standard_normal(12) for _ in range(4)]
        space = from_spanning(vecs)
        assert space.k == 4
        assert np.max(np.abs(space.basis.T @ space.basis - np.eye(4))) < 1e-12
        for v in vecs:
            assert space.contains(v)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            from_spanning([np.ones(4), np.ones(8)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_rejected_before_the_svd(self, bad, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the SVD ran on a non-finite matrix")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        for vectors in ([np.array([bad, 0, 0, 0])],
                        [np.array([1.0, 0, 0, 0, 0, 0, 0, 0]), np.array([0, 1.0, 0, 0, 0, bad, 0, 0])]):
            with pytest.raises(ValueError, match="non-finite"):
                from_spanning(vectors)


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
        with pytest.raises(ValueError, match="sorted ascending"):
            AngleTriple(1.0, 0.5, 1.2)

    @pytest.mark.parametrize("angles,bad", [
        ((0.1, 0.1, 2.0), "2.0"), ((-0.5, 0.1, 0.2), "-0.5"), ((math.nan, 0.1, 0.2), "nan"),
        ((0.1, 0.2, math.nan), "nan"),
    ])
    def test_range_refused_apart_from_order(self, angles, bad):
        with pytest.raises(ValueError, match=rf"angle {bad} lies outside \[0, pi/2\]"):
            AngleTriple(*angles)

    def test_from_cosines_sorts(self):
        t = AngleTriple.from_cosines([0.2, 0.9, 0.5])
        assert t.phi1 <= t.phi2 <= t.phi3
        assert t.cos_tuple() == (0.9, 0.5, 0.2)

    @pytest.mark.parametrize("angles", [
        (0.1, 0.2, HALF_PI + 1e-13), (-1e-13, 0.2, 0.3), (0.2 + 1e-13, 0.2, 0.3),
    ])
    def test_angles_checked_without_slack(self, angles):
        with pytest.raises(ValueError, match="outside|sorted"):
            AngleTriple(*angles)

    def test_angles_are_the_acos_of_the_stored_cosines(self):
        t = AngleTriple(0.3, 0.7, HALF_PI)
        assert t.cos_tuple() == (math.cos(0.3), math.cos(0.7), math.cos(HALF_PI))
        assert t.as_tuple() == tuple(math.acos(c) for c in t.cos_tuple())
        assert (t.phi1, t.phi2, t.phi3) == t.as_tuple()
        assert t == AngleTriple.from_cosines(t.cos_tuple())
        assert hash(t) == hash(AngleTriple.from_cosines(t.cos_tuple()))


def _ref_clip(v: float) -> float:
    return 0.0 if v <= 0.0 else 1.0 if v >= 1.0 else v


_EDGE_COSINES = (0.0, -0.0, 1.0, 5e-324, 2.225073858507201e-308, 1e-8, 1.0 - 2**-53,
                 -1e-300, 1.0 + 2**-52, -1.0, 2.0)


@settings(max_examples=400, deadline=None)
@given(x=st.lists(st.floats(0.0, 1.0) | st.sampled_from(_EDGE_COSINES), min_size=3, max_size=3),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]), position=st.integers(0, 2))
def test_from_cosines_stores_the_clipped_cosines_bit_for_bit(x, bad, position):
    # The stored cosines are x clipped to [0, 1] (-0.0 to 0.0) and sorted
    # descending, to the bit; a NaN or an infinite cosine is refused.
    want = sorted(map(_ref_clip, x), reverse=True)
    assert [c.hex() for c in AngleTriple.from_cosines(x).cos_tuple()] == [c.hex() for c in want]
    x[position] = bad
    with pytest.raises(ValueError, match="is not finite"):
        AngleTriple.from_cosines(x)


def test_sum_blocks_read_the_declared_cosines(monkeypatch):
    # cos(phi3) = 1e-8 reaches the Gram matrix and the block as 1e-8; through
    # an angle it came back as 1.000000000045763e-08.
    seen = []
    gram, tilted = families._gram, families._tilted_block

    def spy_gram(c, sign):
        seen.append(tuple(c))
        return gram(c, sign)

    def spy_tilted(cos_sin, frame):
        seen.append(tuple(c for c, _ in cos_sin))
        return tilted(cos_sin, frame)

    monkeypatch.setattr(families, "_gram", spy_gram)
    monkeypatch.setattr(families, "_tilted_block", spy_tilted)
    construct_sum(t_cos(0.5, 0.3, 1e-8), 1, 1, 8)
    assert seen and all(c == (0.5, 0.3, 1e-8) for c in seen), seen


def _ref_cosines(cosines) -> np.ndarray:
    """The cosines clipped to [0, 1] and sorted descending, on numpy."""
    return np.sort(np.clip(np.asarray(cosines, dtype=float), 0.0, 1.0))[::-1]


def _ref_angles(cosines) -> np.ndarray:
    """The numpy formula that from_cosines replaced (arccos on a reversed view)."""
    return np.arccos(_ref_cosines(cosines))


def _cosine_grid():
    """Seeded cosine triples, unsorted, with ties, the ends 0 and 1, values
    near 1e-8 and 1 - 1e-8, and values outside [0, 1] that the clip moves."""
    rng = np.random.default_rng(22)
    ends = (0.0, 1.0, 1e-8, 1e-8 + 1e-16, 5e-9, 1e-12, 1.0 - 1e-8, 1.0 - 1e-12,
            1e-300, -1e-12, 1.0 + 1e-12, math.inf, -math.inf)
    grid = [tuple(rng.uniform(0.0, 1.0, 3)) for _ in range(2000)]
    grid += [tuple(rng.choice(ends + (0.5, 1 / 3), 3)) for _ in range(2000)]
    grid += [(x, x, y) for x, y in rng.uniform(0.0, 1.0, (200, 2))]
    return grid


class TestAngleTripleOnFloats:
    # The grid's triples with an infinite value are refused
    # (`test_infinite_cosine_refused`); the rest match numpy bit for bit.

    def test_from_cosines_matches_numpy_formula(self):
        for x in _cosine_grid():
            if not np.isfinite(x).all():
                with pytest.raises(ValueError, match="cosine -?inf is not finite"):
                    AngleTriple.from_cosines(x)
                continue
            t = AngleTriple.from_cosines(x)
            assert np.array(t.as_tuple()).tobytes() == _ref_angles(x).tobytes(), x
            assert np.array(t.cos_tuple()).tobytes() == _ref_cosines(x).tobytes(), x
            # The angle formula cos(arccos(x)) these replaced, within 1 ulp of 1.
            old = np.cos(_ref_angles(x))
            assert np.max(np.abs(t.cos_tuple() - old)) <= np.finfo(float).eps, x

    def test_from_cos2_eigenvalues_matches_numpy_formula(self):
        for lams in _cosine_grid():
            if not np.isfinite(lams).all():
                with pytest.raises(ValueError, match="squared cosine -?inf is not finite"):
                    AngleTriple.from_cos2_eigenvalues(lams)
                continue
            t = AngleTriple.from_cos2_eigenvalues(lams)
            roots = np.sqrt(np.clip(np.asarray(lams), 0.0, 1.0))
            assert np.array(t.as_tuple()).tobytes() == _ref_angles(roots).tobytes(), lams
            assert np.array(t.cos_tuple()).tobytes() == _ref_cosines(roots).tobytes(), lams

    def test_fields_are_floats(self):
        space = construct_sum(t_cos(0.5, 0.3, 0.2), 1, 1, 8)
        triples = [AngleTriple.from_cosines(np.array([0.5, 0.3, 0.2])),
                   AngleTriple.from_cos2_eigenvalues(np.array([0.25, 0.09, 0.04])),
                   _exact_structure(_slot_structure(space)).triple,
                   _witness_report(_slot_structure(construct_v3(1.2, 1, 3))).triple]
        for t in triples:
            assert all(type(phi) is float for phi in t.as_tuple()), t
            assert all(type(c) is float for c in t.cos_tuple()), t

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_cosine_refused(self, position):
        x = [0.5, 0.3, 0.2]
        x[position] = math.nan
        for build in (AngleTriple.from_cosines, AngleTriple.from_cos2_eigenvalues):
            with pytest.raises(ValueError, match=r"cosine nan is not finite"):
                build(x)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_infinite_cosine_refused(self, position, bad):
        # The clip alone would take +inf to cos 1 and -inf to cos 0, so
        # (inf, 0.5, 0.5) would give phi1 = 0.0.
        x = [0.5, 0.3, 0.2]
        x[position] = bad
        with pytest.raises(ValueError, match=rf"^cosine {bad} is not finite$"):
            AngleTriple.from_cosines(x)
        with pytest.raises(ValueError, match=rf"^squared cosine {bad} is not finite$"):
            AngleTriple.from_cos2_eigenvalues(x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_refused(self, bad):
        with pytest.raises(ValueError, match="lies outside"):
            AngleTriple(0.1, 0.2, bad)
        with pytest.raises(ValueError, match="lies outside"):
            AngleTriple(bad, 0.2, 0.3)


def _ref_rotation(cols: np.ndarray) -> np.ndarray:
    cols = cols.copy()
    if np.linalg.det(cols) < 0:
        cols[:, 2] *= -1.0
    return cols.T


def test_rotation_sign_from_the_triple_product():
    rng = np.random.default_rng(22)
    flipped = 0
    for _ in range(500):
        cols = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        cols[:, rng.integers(3)] *= rng.choice([-1.0, 1.0])
        got, expected = _rotation_from_columns(cols), _ref_rotation(cols)
        assert got.tobytes() == expected.tobytes()
        assert got.strides == expected.strides
        assert np.linalg.det(got) > 0
        flipped += bool(np.linalg.det(cols) < 0)
    assert 100 < flipped < 400


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
            omega(space, axis(0, 2))

    def test_rejects_non_unit(self):
        space = imaginary_span()
        with pytest.raises(ValueError, match="unit"):
            omega(space, 2.0 * space.basis[:, 0])

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
        space = from_spanning([rng.standard_normal(16) for _ in range(5)])
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
        triple, basis = vector_qka(space, space.basis[:, 1])
        assert triple.cos2() == pytest.approx([1, 1, 0], abs=1e-12)
        # returned basis diagonalizes omega at the vector
        om = omega(space, space.basis[:, 1], basis)
        off = om - np.diag(np.diag(om))
        assert np.max(np.abs(off)) < 1e-10

    def test_quaternionic(self):
        space = quaternionic_line()
        triple, _ = vector_qka(space, space.basis[:, 0])
        assert triple.cos2() == pytest.approx([1, 1, 1], abs=1e-12)

    def test_totally_real(self):
        space = construct_classical("totally_real", 2, 2)
        triple, _ = vector_qka(space, space.basis[:, 0])
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
        space = from_spanning([rng.standard_normal(16) for _ in range(2)])
        report = constancy_check(space, 200, seed=2)
        assert report.constant
        assert report.triple.cos2()[1:] == pytest.approx([0, 0], abs=1e-12)

    def test_generic_three_plane_not_constant(self):
        rng = np.random.default_rng(4)
        space = from_spanning([rng.standard_normal(16) for _ in range(3)])
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

    def test_negative_seed_refused_by_name(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            constancy_check(quaternionic_line(), seed=-1)


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
        p = [pbar_operator(space, STANDARD_BASIS, i, 1.0) for i in (1, 2, 3)]
        assert np.max(np.abs(p[0] @ p[1] - p[2])) < 1e-12

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sign_classes(self, sign):
        triple = t_cos(0.3, 0.3, 0.3)
        space = construct_v4(triple, sign, 4)
        p = [pbar_operator(space, STANDARD_BASIS, i, triple.cos_tuple()[i - 1])
             for i in (1, 2, 3)]
        assert np.max(np.abs(p[0] @ p[1] - sign * p[2])) < 1e-9

    def test_anticommutation(self):
        triple = t_cos(0.5, 0.3, 0.15)
        space = construct_sum(triple, 1, 1, 8)
        p = [pbar_operator(space, STANDARD_BASIS, i, triple.cos_tuple()[i - 1])
             for i in (1, 2, 3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.max(np.abs(p[i] @ p[j] + p[j] @ p[i])) < 1e-8

    def test_rejects_right_angle(self):
        space = construct_classical("totally_real", 4, 4)
        with pytest.raises(ValueError, match="pi/2"):
            pbar_operator(space, STANDARD_BASIS, 1, math.cos(HALF_PI))

    def test_rejects_non_invariant(self):
        # dimension-3 subspaces are not invariant under the normalized maps
        space = construct_v3(0.9, 1, 3)
        with pytest.raises(NumericalFailure):
            pbar_operator(space, STANDARD_BASIS, 1, math.cos(0.9))


def _looped_ranks(v_space, samples, seed):
    """Reference: ranks of [P_1 v, P_2 v, P_3 v] sample by sample, in R^{4n}."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((v_space.k, samples))
    x = v_space.basis @ (c / np.linalg.norm(c, axis=0))
    proj = v_space.projector()
    ranks = set()
    for s in range(samples):
        cols = np.column_stack([proj @ STANDARD_BASIS.apply(i, x[:, s]) for i in (1, 2, 3)])
        sv = np.linalg.svd(cols, compute_uv=False)
        ranks.add(int(np.sum(sv > 1e-8 * max(sv[0], 1.0))))
    return ranks


def near_rank_cut():
    """span(e0, cos t J1 e0 + sin t e1, e2) with cos t = 2e-8: |P_1 v| runs
    over [0, 2e-8], across the rank cut of 1e-8."""
    e0, e1, e2 = (axis(i, 3) for i in range(3))
    c = 2e-8
    tilted = c * right_mult(1, e0) + math.sqrt(1 - c * c) * e1
    return from_spanning([e0, tilted, e2])


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
        space = from_spanning([rng.standard_normal(16) for _ in range(2)])
        assert distribution_rank(space) == 1

    @pytest.mark.parametrize("build", [
        lambda: construct_classical("totally_real", 3, 3),
        lambda: imaginary_span(3),
        lambda: construct_v3(1.1, -1, 3),
        lambda: construct_sum(t_cos(0.3, 0.3, 0.3), 1, 1, 8).transformed(
            random_group_element(8, 2)),
        lambda: Subspace(np.linalg.qr(np.random.default_rng(3).standard_normal((20, 5)))[0]),
        near_rank_cut,
    ])
    def test_batched_rank_matches_projector_loop(self, build):
        space = build()
        ranks = _looped_ranks(space, 24, 5)
        if len(ranks) > 1:
            with pytest.raises(NumericalFailure, match="varies"):
                distribution_rank(space, 24, 5)
        else:
            assert distribution_rank(space, 24, 5) == ranks.pop()

    def test_rank_straddling_the_cut_varies(self):
        assert len(_looped_ranks(near_rank_cut(), 24, 5)) > 1


class TestExactStructure:
    def test_residual_agrees_with_jacobi_over_constructor_grid(self):
        uncertified = []
        for record in [r for r in declared_inputs(quick=False) if "grid" in r.tags]:
            space, label = construct(record.spec), record.label
            exact = _exact_structure(_slot_structure(space))
            _, jacobi = joint_canonical_basis(space, 80, 0)
            spread = constancy_check(space, 200, 0).max_spread
            if jacobi <= 1e-9:
                assert exact.residual <= 1e-12, label
                assert exact.triple.cos2() == pytest.approx(record.triple.cos2(), abs=1e-12)
            else:
                uncertified.append(record.spec.family)
            if jacobi > 1e-2:
                assert exact.residual > 1e-2, label
            # 2 * residual bounds the spread over the whole sphere; the
            # sampled spread carries eigenvalue round-off of a few 1e-16.
            assert 2 * exact.residual + 1e-14 >= spread, label
        assert uncertified
        assert set(uncertified) <= {"v3", "im_h_line"}

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_random_four_planes_uncertified(self, n):
        rng = np.random.default_rng(n)
        space = from_spanning([rng.standard_normal(4 * n) for _ in range(4)])
        exact = _exact_structure(_slot_structure(space))
        assert exact.residual > 1e-2
        assert 2 * exact.residual >= constancy_check(space, 500, n).max_spread

    def test_canonical_structure_is_w_in_the_basis(self):
        space = construct_sum(t_cos(0.5, 0.25, 0.12), 2, 1, 12).transformed(
            random_group_element(12, 4))
        exact = _exact_structure(_slot_structure(space))
        basis = CanonicalBasis(exact.rotation)
        b = space.basis
        for i in (1, 2, 3):
            direct = b.T @ basis.apply(i, b)
            assert np.max(np.abs(exact.w_canonical[i - 1] - direct)) <= 1e-13
        # G is the mean of Omega over the sphere, diagonal in the basis R.
        mean_omega = np.mean(_omega_batch(space, np.linalg.qr(
            np.random.default_rng(0).standard_normal((12, 12)))[0], basis), axis=0)
        assert mean_omega == pytest.approx(np.diag(exact.cos2), abs=1e-12)
        assert np.linalg.det(exact.rotation) == pytest.approx(1.0, abs=1e-12)
        assert exact.residual <= 1e-13


def _axial_rows(w):
    """The 3 x 3 matrix A whose row a is the axial vector w_a of W_a (k = 3)."""
    return np.stack([w[:, 2, 1], w[:, 0, 2], w[:, 1, 0]], axis=1)


class TestDimension3Witness:
    def test_witness_spread_is_exact(self):
        # Constant 3-spaces: the 3 witness points decide, with cosines (s, s, 0).
        v3 = construct_v3(1.2, 1, 3).transformed(random_group_element(3, 1))
        for space, cos in ((imaginary_span(2), 1.0), (v3, math.cos(1.2))):
            report = _witness_report(_slot_structure(space))
            assert report.constant and report.samples == 3
            assert report.max_spread <= 1e-14
            assert report.triple.cos_tuple() == pytest.approx([cos, cos, 0.0], abs=1e-14)
        # Random 3-planes: W_a x = w_a x x, and the spread at the witness points
        # is max(l1 - l2, l2 - l3) for the eigenvalues of A^T A, never below
        # what 2000 random points see (up to round-off).
        rng = np.random.default_rng(4)
        for n in (3, 3, 4, 6, 9):
            plane = from_spanning([rng.standard_normal(4 * n) for _ in range(3)])
            w = _slot_structure(plane)
            a = _axial_rows(w)
            x = rng.standard_normal(3)
            assert w @ x == pytest.approx(np.cross(a, x), abs=1e-15)
            l3, l2, l1 = np.linalg.eigvalsh(a.T @ a)
            report = _witness_report(w)
            assert not report.constant and report.samples == 3
            assert report.max_spread == pytest.approx(max(l1 - l2, l2 - l3), abs=1e-14)
            # The first point, the eigenvector of l1, has the spectrum (l2, l3, 0).
            assert report.triple.cos2() == pytest.approx([l2, l3, 0.0], abs=1e-14)
            assert report.max_spread >= constancy_check(plane, 2000, 0).max_spread - 1e-14


class TestSlotStructure:
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (1, 4), (2, 1), (2, 8), (3, 3),
                                     (4, 16), (5, 7), (16, 64), (64, 64)])
    def test_matches_restricted_structure(self, n, k):
        # The slot cross-Grams give B^T J B, exactly antisymmetric; rotated by
        # R they give B^T J' B in the canonical basis R, as `_omega_batch`
        # reads it.  Reference: the three applies of each basis.
        rng = np.random.default_rng(100 * n + k)
        space = Subspace(np.linalg.qr(rng.standard_normal((4 * n, k)))[0])
        w = _slot_structure(space)
        assert w.shape == (3, k, k)
        assert np.array_equal(w, -w.transpose(0, 2, 1))
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        rotation *= np.sign(np.linalg.det(rotation))
        b = space.basis
        for basis in (STANDARD_BASIS, CanonicalBasis(rotation)):
            reference = np.stack([b.T @ basis.apply(i, b) for i in (1, 2, 3)])
            got = (basis.rotation @ w.reshape(3, -1)).reshape(3, k, k)
            assert np.max(np.abs(got - reference)) <= 1e-14

    def test_exact_structure_memory_stays_small(self):
        # Building every J_a B (a 3 x 4n x k array) and the (3, 3, k, k)
        # products S_ab peaked at about 834 KiB at k = n = 64.
        import tracemalloc

        space = Subspace(np.linalg.qr(np.random.default_rng(64).standard_normal((256, 64)))[0])
        _exact_structure(_slot_structure(space))
        tracemalloc.start()
        try:
            _exact_structure(_slot_structure(space))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10, peak


class TestHOrthogonality:
    def test_distinct_axes(self):
        a = quaternionic_line(2)
        e1 = axis(1, 2)
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
