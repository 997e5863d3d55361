"""Tests for quaternion arithmetic, canonical triples, and the group action."""

import numpy as np
import pytest

from qka.quaternion import (
    STANDARD_BASIS,
    CanonicalBasis,
    GroupElement,
    _STANDARD_BLOCKS,
    _left_matrix,
    _real_left,
    _right_matrix,
    induced_rotation,
    quat_conj,
    quat_mul,
    random_group_element,
    random_unitary,
    right_mult,
)

I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])


# Quaternion-product references for the real-matrix group action.

def _qmat_mul(a, b):
    """Product of quaternionic matrices stored as (n, m, 4) component arrays."""
    return quat_mul(a[:, :, None, :], b[None, :, :, :]).sum(axis=1)


def _ref_apply(t, vecs):
    """A v q^{-1} slot by slot, for coordinates shaped (4n,) or (4n, m)."""
    flat = vecs.ndim == 1
    v = vecs[:, None] if flat else vecs
    n, m = t.n, v.shape[1]
    slots = v.reshape(n, 4, m).transpose(0, 2, 1)  # (n, m, 4)
    out = quat_mul(_qmat_mul(t.matrix, slots), quat_conj(t.q))
    out = out.transpose(0, 2, 1).reshape(4 * n, m)
    return out[:, 0] if flat else out


def _ref_real_matrix(t):
    """The action's real matrix, one 4x4 block L(A[a, b]) R(q^{-1}) at a time."""
    n = t.n
    out = np.zeros((4 * n, 4 * n))
    rq = _right_matrix(quat_conj(t.q))
    for a in range(n):
        for b in range(n):
            out[4 * a:4 * a + 4, 4 * b:4 * b + 4] = _left_matrix(t.matrix[a, b]) @ rq
    return out


def test_multiplication_table():
    assert quat_mul(I, J) == pytest.approx(K)
    assert quat_mul(J, K) == pytest.approx(I)
    assert quat_mul(K, I) == pytest.approx(J)
    assert quat_mul(I, I) == pytest.approx([-1, 0, 0, 0])


def test_multiplication_associative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p, q, r = rng.standard_normal((3, 4))
        left = quat_mul(quat_mul(p, q), r)
        right = quat_mul(p, quat_mul(q, r))
        assert np.max(np.abs(left - right)) < 1e-12


def test_norm_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p, q = rng.standard_normal((2, 4))
        prod = quat_mul(p, q)
        assert np.linalg.norm(prod) == pytest.approx(
            np.linalg.norm(p) * np.linalg.norm(q), abs=1e-12
        )


def test_right_mult_unit_action():
    v = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    out = right_mult(1, v)
    assert isinstance(out, np.ndarray) and out.shape == (8,)
    assert out == pytest.approx([0, 1, 0, 0, 0, 0, 0, 0])
    assert right_mult(J, v) == pytest.approx([0, 0, 1, 0, 0, 0, 0, 0])


def test_right_mult_squares_to_minus_id():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(8)
    out = right_mult(1, right_mult(1, v))
    assert np.max(np.abs(out + v)) < 1e-12


def test_canonical_identity_j1j2_is_j3():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.standard_normal(12)
        lhs = STANDARD_BASIS.apply(1, STANDARD_BASIS.apply(2, v))
        assert np.max(np.abs(lhs - STANDARD_BASIS.apply(3, v))) < 1e-12


@pytest.mark.parametrize("i", [1, 2, 3])
def test_standard_triple_isometry(i):
    rng = np.random.default_rng(4)
    v = rng.standard_normal(16)
    out = STANDARD_BASIS.apply(i, v)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), abs=1e-12)


def test_random_imaginary_unit_right_mult():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        q = np.concatenate([[0.0], u])
        v = rng.standard_normal(12)
        jv = right_mult(q, v)
        assert np.linalg.norm(jv) == pytest.approx(np.linalg.norm(v), abs=1e-12)
        assert np.max(np.abs(right_mult(q, jv) + v)) < 1e-12


def test_right_mult_dimension_mismatch():
    with pytest.raises(ValueError):
        right_mult(np.array([0.0, 1.0, 0.0]), np.ones(4))


@pytest.mark.parametrize("coords", [[], [1.0, 0.0, 0.0], np.ones(6)])
def test_right_mult_refuses_a_length_not_a_positive_multiple_of_4(coords):
    with pytest.raises(ValueError, match="positive multiple of 4"):
        right_mult(1, coords)


def test_apply_group_identity():
    t = GroupElement.identity(3)
    rng = np.random.default_rng(6)
    v = rng.standard_normal(12)
    assert np.max(np.abs(t.apply_coords(v) - v)) < 1e-15


def test_apply_group_isometry():
    t = random_group_element(3, 7)
    rng = np.random.default_rng(8)
    for _ in range(100):
        v, w = rng.standard_normal((2, 12))
        tv = t.apply_coords(v)
        tw = t.apply_coords(w)
        assert tv @ tw == pytest.approx(v @ w, abs=1e-10)


def test_apply_group_composition():
    t1 = random_group_element(3, 9)
    t2 = random_group_element(3, 10)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(12)
    combined = t1.compose(t2).apply_coords(v)
    sequential = t1.apply_coords(t2.apply_coords(v))
    assert np.max(np.abs(combined - sequential)) < 1e-10


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement([2.0, 0, 0, 0], GroupElement.identity(2).matrix)
    bad = GroupElement.identity(2).matrix.copy()
    bad[0, 1, 0] = 0.5
    with pytest.raises(ValueError):
        GroupElement([1.0, 0, 0, 0], bad)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_unitarity_gate_refuses_as_the_full_product(n):
    # The gate reads the first column of every 4x4 block of L(A)^T L(A); the
    # reference is the whole product against the identity, with the same bound.
    a = random_unitary(n, 40 + n)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(n)
    for off in (1e-9, 1e-11, *np.geomspace(3e-11, 3e-10, 9)):
        for _ in range(4):
            bad = a.copy()
            bad[tuple(rng.integers(0, (n, n, 4)))] += off * rng.choice([-1.0, 1.0])
            left = _real_left(bad)
            full = np.max(np.abs(left.T @ left - np.eye(4 * n)))
            if abs(full - 1e-10) <= 1e-16:
                continue  # on the bound, where rounding may decide either way
            try:
                GroupElement(q, bad)
                refused = False
            except ValueError as exc:
                assert "not quaternionic unitary" in str(exc)
                refused = True
            assert refused == (full > 1e-10), (off, full)
            if off in (1e-9, 1e-11):
                assert refused == (off == 1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_canonical_basis_rejects_non_finite(bad):
    # NaN fails every tolerance comparison, so it must be refused explicitly.
    with pytest.raises(ValueError, match="non-finite"):
        CanonicalBasis(np.full((3, 3), bad))
    rotation = np.eye(3)
    rotation[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        CanonicalBasis(rotation)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_group_element_rejects_non_finite(bad):
    identity = GroupElement.identity(2).matrix
    with pytest.raises(ValueError, match="non-finite"):
        GroupElement([bad] * 4, np.full_like(identity, bad))
    with pytest.raises(ValueError, match="non-finite"):
        GroupElement([1.0, 0.0, bad, 0.0], identity)
    matrix = identity.copy()
    matrix[1, 0, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        GroupElement([1.0, 0.0, 0.0, 0.0], matrix)


def test_induced_rotation_identity():
    t = GroupElement.identity(2)
    assert np.max(np.abs(induced_rotation(t) - np.eye(3))) < 1e-15


def test_induced_rotation_axis():
    theta = 0.7
    q = np.array([np.cos(theta / 2), np.sin(theta / 2), 0.0, 0.0])
    t = GroupElement(q, GroupElement.identity(2).matrix)
    r = induced_rotation(t)
    expected = np.array([
        [1.0, 0.0, 0.0],
        [0.0, np.cos(theta), -np.sin(theta)],
        [0.0, np.sin(theta), np.cos(theta)],
    ])
    assert np.max(np.abs(r - expected)) < 1e-12


def test_induced_rotation_orthogonal():
    for seed in range(100):
        t = random_group_element(2, seed)
        r = induced_rotation(t)
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_induced_rotation_homomorphism():
    for seed in range(20):
        t1 = random_group_element(2, 2 * seed)
        t2 = random_group_element(2, 2 * seed + 1)
        lhs = induced_rotation(t1.compose(t2))
        rhs = induced_rotation(t1) @ induced_rotation(t2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_conjugation_rotates_structure():
    # T R_u T^{-1} = R_{Ru} with R the induced rotation
    rng = np.random.default_rng(12)
    t = random_group_element(3, 13)
    r = induced_rotation(t)
    for _ in range(10):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(12)
        lhs = t.apply_coords(
            right_mult(np.concatenate([[0.0], u]), t.inverse().apply_coords(v))
        )
        rhs = right_mult(np.concatenate([[0.0], r @ u]), v)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_real_matrix_matches_action():
    t = random_group_element(2, 14)
    rng = np.random.default_rng(15)
    v = rng.standard_normal(8)
    assert np.max(np.abs(t.real_matrix() @ v - t.apply_coords(v))) < 1e-12


def test_random_unitary_n1_is_unit_quaternion():
    a = random_unitary(1, 16)
    assert np.linalg.norm(a[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_random_unitary_unitarity():
    from qka.quaternion import _qmat_dagger

    a = random_unitary(8, 17)
    gram = _qmat_mul(_qmat_dagger(a), a)
    ident = np.zeros((8, 8, 4))
    ident[np.arange(8), np.arange(8), 0] = 1.0
    assert np.max(np.abs(gram - ident)) < 1e-10


def test_random_unitary_deterministic():
    a = random_unitary(5, 18)
    b = random_unitary(5, 18)
    assert np.array_equal(a, b)


def _random_unitary_by_columns(n, seed):
    """Reference: the same draws, projected off one earlier column at a time."""
    m = np.random.default_rng(seed).standard_normal((n, n, 4))
    cols = np.zeros_like(m)
    for j in range(n):
        v = m[:, j].copy()
        for _ in range(2):
            for p in range(j):
                u = cols[:, p]
                v = v - quat_mul(u, quat_mul(quat_conj(u), v).sum(axis=0))
        cols[:, j] = v / np.linalg.norm(v)
    return cols


@pytest.mark.parametrize("n", [1, 2, 7, 24, 64])
def test_random_unitary_matches_column_by_column_reference(n):
    # Summation order differs, so agreement is to round-off, not bitwise.
    assert np.max(np.abs(random_unitary(n, 19) - _random_unitary_by_columns(n, 19))) < 1e-13


class TestRealMatrixAction:
    """The real 4n x 4n action against the quaternion-product formulas."""

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_apply_coords_matches_reference(self, n):
        t = random_group_element(n, 20 + n)
        v = np.random.default_rng(n).standard_normal((4 * n, 5))
        assert np.max(np.abs(t.apply_coords(v) - _ref_apply(t, v))) < 1e-13
        assert np.max(np.abs(t.apply_coords(v[:, 2]) - _ref_apply(t, v[:, 2]))) < 1e-13
        assert t.apply_coords(v[:, 2]).shape == (4 * n,)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_compose_inverse_real_matrix_match_reference(self, n):
        t1 = random_group_element(n, 30 + n)
        t2 = random_group_element(n, 40 + n)
        both = t1.compose(t2)
        assert np.max(np.abs(both.q - quat_mul(t1.q, t2.q))) < 1e-13
        assert np.max(np.abs(both.matrix - _qmat_mul(t1.matrix, t2.matrix))) < 1e-13
        inv = t1.inverse()
        assert np.max(np.abs(inv.q - quat_conj(t1.q))) < 1e-13
        assert np.max(np.abs(_qmat_mul(inv.matrix, t1.matrix)
                             - GroupElement.identity(n).matrix)) < 1e-13
        real = t1.real_matrix()
        assert np.max(np.abs(real - _ref_real_matrix(t1))) < 1e-13
        real[0, 0] += 1.0  # a copy: the element's own matrix is untouched
        v = np.random.default_rng(n).standard_normal(4 * n)
        assert np.max(np.abs(t1.apply_coords(v) - _ref_apply(t1, v))) < 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("component", [0, 1, 2, 3])
    def test_unitarity_gate_threshold(self, n, component):
        # An off-diagonal entry moves A* A - Id by the perturbation itself,
        # against the 1e-10 gate.
        q = np.array([1.0, 0.0, 0.0, 0.0])
        for size, accepted in ((5e-11, True), (2e-10, False)):
            a = GroupElement.identity(n).matrix.copy()
            a[n - 1, 0, component] += size
            if accepted:
                GroupElement(q, a)
            else:
                with pytest.raises(ValueError, match="not quaternionic unitary"):
                    GroupElement(q, a)


def test_group_layer_memory_stays_small():
    # Broadcasting the Hamilton product to (n, n, m, 4) took about 16 MB at
    # n = 64; the real products need about 2 MB.
    import tracemalloc

    t = random_group_element(64, 60)
    v = np.random.default_rng(61).standard_normal((256, 64))
    peaks = []
    for call in (lambda: random_group_element(64, 62), lambda: t.apply_coords(v)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4 * 2**20, peaks


def test_canonical_basis_block_is_rotated_standard_blocks():
    rotation = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    basis = CanonicalBasis(rotation)
    for i in (1, 2, 3):
        ref = np.tensordot(rotation[i - 1], _STANDARD_BLOCKS, axes=(0, 0))
        assert np.array_equal(basis.block(i), ref)
    with pytest.raises(ValueError):
        basis.block(4)
