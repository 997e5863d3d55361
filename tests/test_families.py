"""Tests for the constant-angle family constructors and admissibility."""

import dataclasses
import math
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest

from qka import oracles
from qka.families import (
    CLASSICAL_FAMILIES,
    FamilySpec,
    _gram,
    _psd_cholesky,
    admissible,
    construct,
    construct_classical,
    construct_sum,
    construct_v3,
    construct_v4,
    gram_matrix,
    min_quaternionic_dim,
)
from qka.moduli import REGION_TOL, moduli_membership
from qka.quaternion import STANDARD_BASIS, CanonicalBasis
from qka.subspace import AngleTriple, NumericalFailure, Subspace, constancy_check

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
        # A given phi is checked by every family, read or not.
        ("totally_real", 3, 3, math.nan),
        ("totally_real", 3, 3, 5.0),
        ("totally_complex", 4, 2, -0.1),
        ("quaternionic", 4, 1, math.inf),
        ("im_h_line", 3, 1, HALF_PI + 1e-9),
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
        (0.0, -1), (0.9, -1), (math.pi / 3 - 0.05, -1), (-0.1, 1),
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
        (FamilySpec("v3", n=0, cos=math.cos(math.pi / 3), sign=-1), 2),
        (FamilySpec("v3", n=0, cos=math.cos(math.pi / 3), sign=1), 3),
        (FamilySpec("v3", n=0, cos=1.0, sign=1), 1),
        (FamilySpec("sum_type", n=0, angles=T13, l_plus=1, l_minus=1), 7),
        (FamilySpec("sum_type", n=0, angles=T03, l_plus=1, l_minus=1), 8),
        (FamilySpec("totally_real", n=0, k=5), 5),
        (FamilySpec("totally_complex", n=0, k=6), 3),
        (FamilySpec("quaternionic", n=0, k=12), 3),
        (FamilySpec("im_h_line", n=0, k=3), 1),
        (FamilySpec("cka_plane_sum", n=0, k=6, cos=math.cos(0.8)), 6),
        (FamilySpec("complexified_cka", n=0, k=8, cos=math.cos(0.8)), 4),
    ])
    def test_minimal_ambient(self, spec, expected):
        assert min_quaternionic_dim(spec) == expected

    def test_constructions_succeed_at_minimum(self):
        spec = FamilySpec("sum_type", n=7, angles=T13, l_plus=1, l_minus=1)
        assert min_quaternionic_dim(spec) == 7
        construct_sum(T13, 1, 1, 7)


# -- The catalog against the constructors of the previous implementation ----
#
# Reference: the constructors as they were before the slot counts moved into
# one function per family, each with its own checks.  They share only the
# admissibility test with the library; the Gram matrix and its Cholesky factor
# are the numpy kernels the library's float kernels replaced (`_ref_gram`,
# `_ref_psd_cholesky`).  They build every column as a full 4n-vector: a slot
# axis, then a J pass over all n slots.
#
# Every builder reads cosines c: those that take an angle phi read
# c = cos(phi), those that take a triple its stored cosines, and for each c
# `_ref_cos_sin(c, phi)`: the library's formula (c, sqrt((1 - c)(1 + c))),
# or, patched to `_angle_cos_sin`, the angle formula (cos(phi), sin(phi))
# that it replaced, to which the bases are compared within a few ulp.  A
# rank-2 Gram factor has unit rows (`_ref_unit_rows`), compared likewise to
# the factor as the residual gate passed it.

def _ref_cos_sin(c: float, phi: float) -> tuple[float, float]:
    return c, math.sqrt((1.0 - c) * (1.0 + c))


def _angle_cos_sin(c: float, phi: float) -> tuple[float, float]:
    return math.cos(phi), math.sin(phi)


def _sine_scale(name: str, args) -> float:
    """1 / sin(phi) for a builder that takes an angle phi, else 1 (also at
    phi = 0, where v3 builds exact unit columns)."""
    if name == "construct_v3":
        return 1.0 / (math.sin(args[0]) or 1.0)
    if name == "construct_classical" and args[0] in ("cka_plane_sum", "complexified_cka"):
        return 1.0 / math.sin(args[3])
    return 1.0


def _boundary_distance(name: str, args) -> float:
    """|cos(phi1) + cos(phi2) -+ cos(phi3) - 1| of a triple builder's angles
    on a boundary (within REGION_TOL), the larger for both; else 0."""
    if name not in ("construct_v4", "construct_sum"):
        return 0.0
    x = args[0].cos_tuple()
    margins = [abs(x[0] + x[1] - sign * x[2] - 1.0) for sign in (1, -1)]
    return max([m for m in margins if m <= REGION_TOL], default=0.0)


def _ref_gram_batch(cs: np.ndarray, sign: int) -> np.ndarray:
    """The Gram matrix of each row of a batch (m, 3, 2) of (cos, sin) pairs, on numpy."""
    c, s = cs[:, :, 0], cs[:, :, 1]
    g = np.tile(np.eye(3), (len(cs), 1, 1))
    for i in range(3):
        j = (i + 1) % 3
        k = (i + 2) % 3
        g[:, i, j] = g[:, j, i] = (sign * c[:, k] - c[:, i] * c[:, j]) / (s[:, i] * s[:, j])
    return g


def _ref_triple_cos_sin(angles) -> list[tuple[float, float]]:
    return [_ref_cos_sin(c, phi) for c, phi in zip(angles.cos_tuple(), angles.as_tuple())]


def _ref_gram(angles, sign):
    return _ref_gram_batch(np.array([_ref_triple_cos_sin(angles)]), sign)[0]


def _ref_psd_cholesky(g: np.ndarray, rank: int) -> np.ndarray:
    """The pivoted Cholesky factor on numpy arrays, with its gates."""
    m = g.shape[0]
    a = g.copy()
    perm = list(range(m))
    left = np.zeros((m, m))
    for step in range(rank):
        p = step + int(np.argmax(np.diag(a)[step:]))
        if p != step:
            a[[step, p], :] = a[[p, step], :]
            a[:, [step, p]] = a[:, [p, step]]
            left[[step, p], :] = left[[p, step], :]
            perm[step], perm[p] = perm[p], perm[step]
        pivot = a[step, step]
        if pivot <= REGION_TOL:
            raise NumericalFailure("gram matrix rank below the predicted rank")
        r = math.sqrt(pivot)
        left[step, step] = r
        left[step + 1:, step] = a[step + 1:, step] / r
        a[step + 1:, step + 1:] -= np.outer(left[step + 1:, step], left[step + 1:, step])
    left = left[:, :rank]
    inv = np.argsort(perm)
    left = left[inv, :]
    resid = np.max(np.abs(left @ left.T - g))
    if resid > 1e-9:
        raise NumericalFailure(f"cholesky residual {resid:.2e} exceeds tolerance")
    return _ref_unit_rows(left) if rank < m else left


def _ref_unit_rows(left: np.ndarray) -> np.ndarray:
    """The rows of a truncated factor scaled to unit length."""
    return np.array([row / math.sqrt(sum(v * v for v in row)) for row in left])

def _axis(slot: int, n: int) -> np.ndarray:
    c = np.zeros(4 * n)
    c[4 * slot] = 1.0
    return c


def _jmul(i: int, col: np.ndarray) -> np.ndarray:
    return STANDARD_BASIS.apply(i, col)


def _ref_need(n, slots):
    if n < slots:
        raise ValueError("reference: ambient dimension too small")


def _ref_v4_block_columns(angles, sign, offset, n):
    exists, rank = admissible(angles, sign)
    if not exists:
        raise ValueError("reference: no class")
    left = _ref_psd_cholesky(_ref_gram(angles, sign), rank)
    _ref_need(n, offset + 1 + rank)
    e0 = _axis(offset, n)
    frame = [_axis(offset + 1 + r, n) for r in range(rank)]
    cols = [e0]
    for i, (c, s) in enumerate(_ref_triple_cos_sin(angles), 1):
        e_i = sum(left[i - 1, r] * frame[r] for r in range(rank))
        cols.append(c * _jmul(i, e0) + s * _jmul(i, e_i))
    return cols


def _ref_complexified_block_columns(c, s, offset, n):
    if c >= 1.0 - REGION_TOL:
        _ref_need(n, offset + 1)
        e = _axis(offset, n)
        return [e, _jmul(1, e), _jmul(2, e), _jmul(3, e)]
    _ref_need(n, offset + 2)
    a, b = _axis(offset, n), _axis(offset + 1, n)
    return [a, _jmul(1, a), c * _jmul(2, a) + s * _jmul(2, b),
            c * _jmul(3, a) + s * _jmul(3, b)]


def _ref_classical(family, k, n, phi=None):
    if n < 1:
        raise ValueError("reference: n must be positive")
    if phi is not None and not 0.0 <= phi <= HALF_PI:  # every family, NaN included
        raise ValueError("reference: phi outside [0, pi/2]")
    cols = []
    if family == "totally_real":
        if not 1 <= k <= n:
            raise ValueError("reference")
        cols = [_axis(m, n) for m in range(k)]
    elif family == "totally_complex":
        if k % 2 or not 2 <= k <= 2 * n:
            raise ValueError("reference")
        for m in range(k // 2):
            e = _axis(m, n)
            cols += [e, _jmul(1, e)]
    elif family == "quaternionic":
        if k % 4 or not 4 <= k <= 4 * n:
            raise ValueError("reference")
        for m in range(k // 4):
            e = _axis(m, n)
            cols += [e, _jmul(1, e), _jmul(2, e), _jmul(3, e)]
    elif family == "im_h_line":
        if k != 3:
            raise ValueError("reference")
        e = _axis(0, n)
        cols = [_jmul(1, e), _jmul(2, e), _jmul(3, e)]
    elif family == "cka_plane_sum":
        if phi is None or not 0.0 < phi < HALF_PI:
            raise ValueError("reference")
        if k % 2 or not 2 <= k <= 2 * (n // 2):
            raise ValueError("reference")
        c, s = _ref_cos_sin(math.cos(phi), phi)
        for m in range(k // 2):
            a, b = _axis(2 * m, n), _axis(2 * m + 1, n)
            cols += [a, c * _jmul(1, a) + s * _jmul(1, b)]
    elif family == "complexified_cka":
        if phi is None or not 0.0 < phi < HALF_PI:
            raise ValueError("reference")
        if k % 4 or not 4 <= k <= 4 * (n // 2):
            raise ValueError("reference")
        for m in range(k // 4):
            cols += _ref_complexified_block_columns(*_ref_cos_sin(math.cos(phi), phi), 2 * m, n)
    else:
        raise ValueError("reference: unknown family")
    return np.column_stack(cols)


def _ref_v3(phi, sign, n):
    if sign not in (1, -1):
        raise ValueError("reference")
    if not 0.0 <= phi <= HALF_PI:
        raise ValueError("reference")
    cp, sp = _ref_cos_sin(math.cos(phi), phi)
    if sign == -1 and cp > 0.5 + REGION_TOL:
        raise ValueError("reference")
    if n < 1:
        raise ValueError("reference")
    e0, e1 = _axis(0, n), None
    if cp >= 1.0 - REGION_TOL:  # phi = 0: e0, J1 e0, J2 e0 on one slot
        return np.column_stack([e0, _jmul(1, e0), _jmul(2, e0)])
    if sign == -1 and cp >= 0.5 - REGION_TOL:
        _ref_need(n, 2)
        e1 = _axis(1, n)
        e2 = -e1
    else:
        _ref_need(n, 3)
        c = cp / (cp + sign)
        e1 = _axis(1, n)
        e2 = c * e1 + math.sqrt(1.0 - c * c) * _axis(2, n)
    return np.column_stack([e0, cp * _jmul(1, e0) + sp * _jmul(1, e1),
                            cp * _jmul(2, e0) + sp * _jmul(2, e2)])


def _ref_v4(angles, sign, n):
    if sign not in (1, -1):
        raise ValueError("reference")
    x = angles.cos_tuple()
    if sign == -1 and x[2] <= REGION_TOL:
        raise ValueError("reference")
    if x[0] >= 1.0 - REGION_TOL:
        if sign == -1:
            raise ValueError("reference")
        if abs(x[1] - x[2]) > REGION_TOL:
            raise ValueError("reference")
        if x[1] >= 1.0 - REGION_TOL:
            return _ref_classical("quaternionic", 4, n)
        if x[1] <= REGION_TOL:
            return _ref_classical("totally_complex", 4, n)
        return np.column_stack(_ref_complexified_block_columns(
            *_ref_cos_sin(x[1], angles.phi2), 0, n))
    return np.column_stack(_ref_v4_block_columns(angles, sign, 0, n))


def _ref_sum(angles, l_plus, l_minus, n):
    if l_plus < 0 or l_minus < 0 or l_plus + l_minus < 1:
        raise ValueError("reference")
    x = angles.cos_tuple()
    if l_minus > 0:
        if x[2] <= REGION_TOL:
            raise ValueError("reference")
        if x[0] >= 1.0 - REGION_TOL:
            raise ValueError("reference")
    cols = []
    offset = 0
    if x[0] >= 1.0 - REGION_TOL:
        if abs(x[1] - x[2]) > REGION_TOL:
            raise ValueError("reference")
        width = 1 if x[1] >= 1.0 - REGION_TOL else 2
        _ref_need(n, width * l_plus)
        for _ in range(l_plus):
            cols += _ref_complexified_block_columns(*_ref_cos_sin(x[1], angles.phi2), offset, n)
            offset += width
    else:
        for sign, count in ((1, l_plus), (-1, l_minus)):
            if count == 0:
                continue
            exists, rank = admissible(angles, sign)
            if not exists:
                raise ValueError("reference")
            for _ in range(count):
                cols += _ref_v4_block_columns(angles, sign, offset, n)
                offset += 1 + rank
    return np.column_stack(cols)


_REFERENCE = {
    "construct_classical": _ref_classical,
    "construct_v3": _ref_v3,
    "construct_v4": _ref_v4,
    "construct_sum": _ref_sum,
}
_LIBRARY = {
    "construct_classical": construct_classical,
    "construct_v3": construct_v3,
    "construct_v4": construct_v4,
    "construct_sum": construct_sum,
}


def _outcome(fn, args):
    """The basis bytes of a construction, or None where it is refused."""
    try:
        basis = fn(*args)
    except (ValueError, NumericalFailure):
        return None
    basis = basis.basis if isinstance(basis, Subspace) else basis
    return basis.shape, basis.tobytes()


def _grid_calls():
    """The constructor call of every record of the full catalog's grid; an
    angle is the acos of the spec's cosine, whose cosine is that one again."""
    calls = []
    for spec in [r.spec for r in oracles.declared_inputs(quick=False) if "grid" in r.tags]:
        phi = None if spec.cos is None else math.acos(spec.cos)
        assert phi is None or math.cos(phi) == spec.cos
        if spec.family == "v3":
            calls.append(("construct_v3", (phi, spec.sign, spec.n)))
        elif spec.family == "v4":
            calls.append(("construct_v4", (spec.angles, spec.sign, spec.n)))
        elif spec.family == "sum_type":
            calls.append(("construct_sum", (spec.angles, spec.l_plus, spec.l_minus, spec.n)))
        else:
            calls.append(("construct_classical", (spec.family, spec.k, spec.n, phi)))
    return calls


_SWEEP_COSINES = (1.0, 1.0 - 1e-13, 0.95, 0.8, 0.6, 0.5, 0.4, 1 / 3, 0.3, 0.2, 0.1,
                  1e-13, 0.0)
# Around pi/3: inside and outside the REGION_TOL band of cos(phi) = 1/2, where
# the minus class fits one fewer slot (inside) or does not exist (below).
_SWEEP_PHIS = (0.0, 1e-13, 1e-7, 0.05, 0.9, math.acos(0.5 + 2e-10), math.acos(0.5 + 9e-11),
               math.pi / 3 - 1e-13, math.pi / 3, math.pi / 3 + 1e-13, math.acos(0.5 - 9e-11),
               math.acos(0.5 - 2e-10), 1.2, HALF_PI - 1e-13, HALF_PI, HALF_PI + 1e-13,
               -0.1, math.nan)


def _sweep_calls():
    """Classical, v3, v4 and sum constructions on and around every boundary."""
    calls = []
    for family in CLASSICAL_FAMILIES + ("exotic",):
        for k in range(-1, 14):
            for n in range(-1, 8):
                for phi in (None, 0.0, 0.7, HALF_PI, math.nan):
                    calls.append(("construct_classical", (family, k, n, phi)))
    for phi in _SWEEP_PHIS:
        for sign in (1, -1, 0):
            for n in range(-1, 5):
                calls.append(("construct_v3", (phi, sign, n)))
    for x in combinations_with_replacement(_SWEEP_COSINES, 3):
        angles = AngleTriple.from_cosines(x)
        for n in range(0, 6):
            for sign in (1, -1, 0):
                calls.append(("construct_v4", (angles, sign, n)))
        for l_plus, l_minus in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (-1, 2)):
            for n in (0, 3, 4, 6, 7, 8):
                calls.append(("construct_sum", (angles, l_plus, l_minus, n)))
    return calls


class TestCatalogMatchesPreviousConstructors:
    @pytest.mark.parametrize("calls", [_grid_calls, _sweep_calls])
    def test_same_bases_and_same_refusals(self, calls):
        built = refused = 0
        for name, args in calls():
            got = _outcome(_LIBRARY[name], args)
            assert got == _outcome(_REFERENCE[name], args), (name, args)
            built += got is not None
            refused += got is None
        assert built > 250
        if calls is _sweep_calls:
            assert refused > 1000

    @pytest.mark.parametrize("calls", [_grid_calls, _sweep_calls])
    def test_bases_within_a_few_ulp_of_the_angle_formula(self, calls, monkeypatch):
        # The builders read cosines; the angle formula they replaced builds
        # the same bases within 8 ulp of 1 and refuses the same calls.  An
        # angle builder's c = cos(phi) holds sin(phi) only to within about
        # eps / sin(phi), so its bound is 8 ulp / sin(phi).
        got = [_outcome(_LIBRARY[name], args) for name, args in calls()]
        monkeypatch.setitem(globals(), "_ref_cos_sin", _angle_cos_sin)
        moved = 0
        for (name, args), new in zip(calls(), got):
            old = _outcome(_REFERENCE[name], args)
            assert (new is None) == (old is None), (name, args)
            if new is not None:
                assert new[0] == old[0]
                diff = np.max(np.abs(np.frombuffer(new[1]) - np.frombuffer(old[1])))
                assert diff <= 8 * np.finfo(float).eps * _sine_scale(name, args), (name, args)
                moved += bool(diff)
        assert moved > 10

    @pytest.mark.parametrize("calls", [_grid_calls, _sweep_calls])
    def test_bases_within_a_few_ulp_of_the_kept_rows(self, calls, monkeypatch):
        # A block on a cos-sum boundary has unit rows in its Gram factor.
        # The factor the residual gate passed builds the same bases within
        # 8 ulp of 1 plus twice the triple's distance to the boundary (its
        # rows miss unit length by about that distance; 1.88 times it at
        # the sweep's worst, (0.8, 0.2, 1e-13)).
        got = [_outcome(_LIBRARY[name], args) for name, args in calls()]
        monkeypatch.setitem(globals(), "_ref_unit_rows", lambda left: left)
        moved = 0
        for (name, args), new in zip(calls(), got):
            old = _outcome(_REFERENCE[name], args)
            assert (new is None) == (old is None), (name, args)
            if new is not None:
                diff = np.max(np.abs(np.frombuffer(new[1]) - np.frombuffer(old[1])))
                bound = 8 * np.finfo(float).eps + 2.0 * _boundary_distance(name, args)
                assert diff <= bound, (name, args)
                moved += bool(diff)
        assert moved > (10 if calls is _sweep_calls else 0)

    def test_degenerate_complexified_block_keeps_two_slots(self):
        # cos(1e-7) is within REGION_TOL of 1, so each block is the
        # quaternionic one, still placed on two slots: the Kahler cosine is
        # refused at exactly 1 only.
        args = ("complexified_cka", 8, 4, 1e-7)
        assert _outcome(construct_classical, args) == _outcome(_ref_classical, args)
        with pytest.raises(ValueError, match="needs n >= 4"):
            construct_classical("complexified_cka", 8, 3, phi=1e-7)


def _kernel_grid():
    """(angles, sign, rank) for every admissible sign on a seeded grid:
    random interior triples (rank 3), triples on the boundary
    cos(phi1) + cos(phi2) - sign cos(phi3) = 1 (rank 2) for both signs, and
    ties and cosines near 1e-8."""
    rng = np.random.default_rng(22)
    cosines = [tuple(rng.uniform(0.0, 0.999, 3)) for _ in range(200)]
    for sign in (1, -1):
        for _ in range(150):
            x2 = rng.uniform(0.0, 0.5)
            x3 = rng.uniform(0.0, x2 if sign == 1 else 0.5)
            cosines.append((1.0 + sign * x3 - x2, x2, x3))
    cosines += combinations_with_replacement((0.9, 0.5, 1 / 3, 0.3, 1e-8, 5e-9, 0.0), 3)
    grid = []
    for x in cosines:
        if max(x) > 0.999:  # phi1 = 0 has no Gram matrix
            continue
        angles = AngleTriple.from_cosines(x)
        for sign in (1, -1):
            exists, rank = admissible(angles, sign)
            if exists:
                grid.append((angles, sign, rank))
    return grid


def _factor_outcome(cholesky, g, rank):
    try:
        left = cholesky(g, rank)
    except NumericalFailure as exc:
        return "refused", str(exc)
    return "factor", left.shape, left.tobytes()


class TestFloatKernelsMatchNumpyReference:
    def test_gram_bit_for_bit(self):
        cases = Counter()
        for angles, sign, rank in _kernel_grid():
            expected = _ref_gram(angles, sign).tobytes()
            assert np.array(_gram(angles.cos_tuple(), sign)).tobytes() == expected
            assert gram_matrix(angles, sign).tobytes() == expected
            cases[sign, rank] += 1
        assert min(cases[sign, rank] for sign in (1, -1) for rank in (2, 3)) >= 75, cases

    def test_gram_within_a_few_ulp_of_the_angle_formula(self, monkeypatch):
        # sin = sqrt((1 - c)(1 + c)) against cos and sin of acos(c): every
        # entry within 16 ulp of 1, though 1 / sin grows as cos(phi1) nears 1.
        grid = _kernel_grid()
        got = [np.array(_gram(angles.cos_tuple(), sign)) for angles, sign, _ in grid]
        monkeypatch.setitem(globals(), "_ref_cos_sin", _angle_cos_sin)
        old = [_ref_gram(angles, sign) for angles, sign, _ in grid]
        diff = max(np.max(np.abs(a - b)) for a, b in zip(got, old))
        assert 0.0 < diff <= 16 * np.finfo(float).eps

    def test_factor_bit_for_bit_and_same_refusals(self):
        # Rank 2 on an interior Gram matrix leaves a pivot out, which the
        # residual gate refuses with its value; rank 3 on a boundary one
        # meets a pivot below REGION_TOL.
        outcomes = Counter()
        for angles, sign, _ in _kernel_grid():
            for rank in (2, 3):
                got = _factor_outcome(_psd_cholesky, _gram(angles.cos_tuple(), sign), rank)
                assert got == _factor_outcome(_ref_psd_cholesky, _ref_gram(angles, sign), rank)
                outcomes[got[1].split(" ")[1] if got[0] == "refused" else "factor"] += 1
        # (factor, the residual gate, the rank gate)
        assert outcomes["factor"] >= 400, outcomes
        assert outcomes["residual"] >= 200, outcomes
        assert outcomes["matrix"] >= 200, outcomes

    def test_unit_rows_within_a_few_ulp_of_the_kept_rows(self, monkeypatch):
        # The grid's rank-2 triples lie within round-off of their boundary,
        # so scaling a factor's rows to unit length moves no entry by more
        # than 8 ulp of 1.
        grid = [(angles, sign) for angles, sign, rank in _kernel_grid() if rank == 2]
        got = [_psd_cholesky(_gram(angles.cos_tuple(), sign), 2) for angles, sign in grid]
        for left in got:
            assert np.max(np.abs(np.square(left).sum(axis=1) - 1.0)) <= 2 * np.finfo(float).eps
        monkeypatch.setitem(globals(), "_ref_unit_rows", lambda left: left)
        diff = max(np.max(np.abs(new - _ref_psd_cholesky(_ref_gram(angles, sign), 2)))
                   for new, (angles, sign) in zip(got, grid))
        assert 0.0 < diff <= 8 * np.finfo(float).eps

    def test_near_one_cosines_refused_alike(self):
        # At cosines (1 - 1e-12)^3 the margin is on the boundary (rank 2),
        # but the Gram eigenvalues are (0.5, 0.5, 2): the truncated factor
        # misses by 2/3.  The builders never factor it: cos(phi1) lies
        # within REGION_TOL of 1, so phi1 = 0 and the block is quaternionic.
        angles = AngleTriple.from_cosines([1.0 - 1e-12] * 3)
        message = "cholesky residual 6.67e-01 exceeds tolerance"
        with pytest.raises(NumericalFailure, match=message):
            _psd_cholesky(_gram(angles.cos_tuple(), 1), 2)
        with pytest.raises(NumericalFailure, match=message):
            _ref_psd_cholesky(_ref_gram(angles, 1), 2)
        with pytest.raises(ValueError, match="phi1 > 0"):
            admissible(angles, 1)
        with pytest.raises(ValueError, match="phi1 = 0"):
            gram_matrix(angles, 1)
        assert construct_v4(angles, 1, 1).k == 4

    @pytest.mark.parametrize("entry", [(0, 1), (0, 0), (2, 2)])
    def test_nan_gram_refused(self, entry):
        g = [[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]]
        i, j = entry
        g[i][j] = g[j][i] = math.nan
        with pytest.raises(NumericalFailure, match="cholesky residual nan"):
            _psd_cholesky(g, 3)
        # The numpy gate `resid > 1e-9` let the NaN through.
        assert np.isnan(_ref_psd_cholesky(np.array(g), 3)).any()

    def test_boundary_tolerance_is_the_region_tolerance(self):
        # The grid's boundary points are those admissible() puts at rank 2.
        for angles, sign, rank in _kernel_grid():
            x = angles.cos_tuple()
            assert (rank == 2) == (abs(x[0] + x[1] - sign * x[2] - 1.0) <= REGION_TOL)


class TestConstructorsPlaceSlotBlocks:
    def test_no_construction_applies_j_over_all_slots(self, monkeypatch):
        def refuse(basis, i, vecs):
            raise AssertionError("a constructor applied J over all 4n coordinates")

        monkeypatch.setattr(CanonicalBasis, "apply", refuse)
        built = 0
        for name, args in _grid_calls():
            _LIBRARY[name](*args)
            built += 1
        for spec in _catalog_specs():
            try:
                n = min_quaternionic_dim(spec)
                construct(dataclasses.replace(spec, n=n))
            except (ValueError, NumericalFailure):
                continue
            built += 1
        assert built > 400


def _least_n(spec, limit=15):
    """The least n <= limit at which construct(spec) succeeds, else None."""
    for n in range(limit + 1):
        try:
            construct(dataclasses.replace(spec, n=n))
        except (ValueError, NumericalFailure):
            continue
        return n
    return None


def _catalog_specs():
    specs = [FamilySpec(family, n=0, k=k, cos=c)
             for family in CLASSICAL_FAMILIES for k in range(0, 13) for c in (None, math.cos(0.8))]
    specs += [FamilySpec("v3", n=0, cos=math.cos(phi), sign=sign)
              for phi in _SWEEP_PHIS if not math.isnan(phi) for sign in (1, -1)]
    for x in combinations_with_replacement((1.0, 0.8, 0.5, 1 / 3, 0.3, 0.2, 0.0), 3):
        angles = AngleTriple.from_cosines(x)
        specs += [FamilySpec("v4", n=0, angles=angles, sign=sign) for sign in (1, -1)]
        specs += [FamilySpec("sum_type", n=0, angles=angles, l_plus=p, l_minus=q)
                  for p, q in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1))]
    return specs


class TestMinimalDimensionIsTheSlotCount:
    def test_every_family_at_its_least_constructible_n(self):
        specs = _catalog_specs()
        assert {spec.family for spec in specs} == set(CLASSICAL_FAMILIES) | {
            "v3", "v4", "sum_type"}
        refused = 0
        for spec in specs:
            least = _least_n(spec)
            if least is None:
                refused += 1
                with pytest.raises(ValueError):
                    min_quaternionic_dim(spec)
            else:
                assert min_quaternionic_dim(spec) == least, spec
        assert refused > 100

    @pytest.mark.parametrize("phi", [0.0, 1e-9])
    def test_v3_at_unit_cosine_fits_one_dim(self, phi):
        # cos(phi) rounds to 1: the sine is 0, so the block is e0, J1 e0,
        # J2 e0 on one slot, the least n the constructor and
        # min_quaternionic_dim agree on.
        assert math.cos(phi) == 1.0
        check_triple(construct_v3(phi, 1, 1), AngleTriple(0.0, 0.0, HALF_PI))
        assert min_quaternionic_dim(FamilySpec("v3", n=0, cos=math.cos(phi), sign=1)) == 1

    def test_v3_near_zero_fits_one_dim(self):
        # cos(1e-7) lies within REGION_TOL of 1, where the strata list the
        # imaginary line point: the block is e0, J1 e0, J2 e0 on one slot.
        spec = FamilySpec("v3", n=0, cos=math.cos(1e-7), sign=1)
        assert min_quaternionic_dim(spec) == 1
        strata = moduli_membership(3, 1, AngleTriple.from_cosines([spec.cos, spec.cos, 0.0]))
        assert [m.stratum.name for m in strata] == ["imaginary_line_point"]
        assert np.array_equal(construct_v3(1e-7, 1, 1).basis, construct_v3(0.0, 1, 1).basis)
        with pytest.raises(ValueError, match="needs n >= 1"):
            construct_v3(1e-7, 1, 0)

    def test_slot_count_at_near_one_cosines_is_the_quaternionic_block(self):
        # Cosines (1 - 1e-12)^3 lie within REGION_TOL of (0, 0, 0), where the
        # Gram matrix is not factored: the block is the quaternionic one, on
        # one slot, and a sum places one per block.
        angles = AngleTriple.from_cosines([1 - 1e-12] * 3)
        spec = FamilySpec("v4", n=3, angles=angles, sign=1)
        assert min_quaternionic_dim(spec) == 1
        assert min_quaternionic_dim(dataclasses.replace(spec, family="sum_type", l_plus=2)) == 2
        construct_v4(angles, 1, 1)
        with pytest.raises(ValueError, match="needs n >= 1"):
            construct_v4(angles, 1, 0)

    def test_sum_factors_the_gram_matrix_once_per_sign(self, monkeypatch):
        from qka import families

        calls = []

        def counted(g, rank):
            calls.append(rank)
            return _psd_cholesky(g, rank)

        monkeypatch.setattr(families, "_psd_cholesky", counted)
        space = construct_sum(T03, 3, 2, 20)
        assert space.k == 20
        assert len(calls) == 2

    @pytest.mark.parametrize("spec", [
        FamilySpec("totally_complex", n=0, k=5),
        FamilySpec("totally_real", n=0, k=0),
        FamilySpec("cka_plane_sum", n=0, k=4),
        FamilySpec("v4", n=0, angles=AngleTriple.from_cosines([0.4, 0.3, 0.0]), sign=-1),
        FamilySpec("sum_type", n=0, angles=T03, l_plus=0, l_minus=0),
        FamilySpec("v3", n=0, sign=1),
    ])
    def test_refused_where_no_n_admits_the_construction(self, spec):
        with pytest.raises(ValueError):
            min_quaternionic_dim(spec)


class TestSelftestParameterGrid:
    def test_declared_boundaries_all_present(self):
        # Each declared boundary class is on its boundary (Gram rank 2), and
        # the grid holds it at its least n and one above.
        grid = {record.spec for record in oracles.declared_inputs(quick=False)
                if "grid" in record.tags}
        for sign, boundary in oracles._SIGN_BOUNDARIES.items():
            for x in boundary:
                spec = FamilySpec("v4", 0, angles=AngleTriple.from_cosines(x), sign=sign)
                assert admissible(spec.angles, sign) == (True, 2)
                n = min_quaternionic_dim(spec)
                assert {dataclasses.replace(spec, n=m) for m in (n, n + 1)} <= grid

    def test_boundary_without_a_class_raises(self, monkeypatch):
        monkeypatch.setitem(oracles._SIGN_BOUNDARIES, -1, ((0.9, 0.9, 0.9),) * 5)
        with pytest.raises(ValueError, match="no sign=-1 class"):
            oracles.declared_inputs(quick=True)
