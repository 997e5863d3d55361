"""Tests for quaternion arithmetic, canonical triples, and the group action."""

import numpy as np
import pytest

from qka.quaternion import (
    STANDARD_BASIS,
    GroupElement,
    HVector,
    Quaternion,
    apply_group,
    induced_rotation,
    quat_mul,
    random_group_element,
    random_unitary,
    right_mult,
)

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def test_multiplication_table():
    assert (I * J).as_array() == pytest.approx(K.as_array())
    assert (J * K).as_array() == pytest.approx(I.as_array())
    assert (K * I).as_array() == pytest.approx(J.as_array())
    assert (I * I).as_array() == pytest.approx([-1, 0, 0, 0])


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
    v = HVector([1.0, 0.0, 0.0, 0.0])
    assert right_mult(1, v).coords == pytest.approx([0, 1, 0, 0])


def test_right_mult_squares_to_minus_id():
    rng = np.random.default_rng(2)
    v = HVector(rng.standard_normal(8))
    out = right_mult(1, right_mult(1, v))
    assert np.max(np.abs(out.coords + v.coords)) < 1e-12


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
        v = HVector(rng.standard_normal(12))
        jv = right_mult(q, v)
        assert jv.norm() == pytest.approx(v.norm(), abs=1e-12)
        assert np.max(np.abs(right_mult(q, jv).coords + v.coords)) < 1e-12


def test_right_mult_dimension_mismatch():
    with pytest.raises(ValueError):
        right_mult(np.array([0.0, 1.0, 0.0]), HVector(np.ones(4)))


def test_apply_group_identity():
    t = GroupElement.identity(3)
    rng = np.random.default_rng(6)
    v = HVector(rng.standard_normal(12))
    assert np.max(np.abs(apply_group(t, v).coords - v.coords)) < 1e-15


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
            right_mult(np.concatenate([[0.0], u]),
                       HVector(t.inverse().apply_coords(v))).coords
        )
        rhs = right_mult(np.concatenate([[0.0], r @ u]), HVector(v)).coords
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
    from qka.quaternion import _qmat_dagger, _qmat_mul

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
    from qka.quaternion import quat_conj, quat_mul

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


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_random_unitary_matches_column_by_column_reference(n):
    # Summation order differs, so agreement is to round-off, not bitwise.
    assert np.max(np.abs(random_unitary(n, 19) - _random_unitary_by_columns(n, 19))) < 1e-13


def test_hvector_right_scalar_action():
    v = HVector([1.0, 0, 0, 0, 0, 0, 0, 0])
    w = v.right_mul(Quaternion(0, 1, 0, 0))
    assert w.coords == pytest.approx([0, 1, 0, 0, 0, 0, 0, 0])
    assert v.inner(v) == pytest.approx(1.0)
