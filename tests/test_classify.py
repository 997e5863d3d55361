"""Tests for factorization, type detection, equivalence, and the moduli table."""

import math
from collections import Counter

import numpy as np
import pytest

import qka.classify
from qka.classify import (
    TypeSignature,
    are_equivalent,
    branch_of_v3,
    classify_subspace,
    factorize,
    is_protohomogeneous,
    moduli_describe,
    moduli_membership,
    representative,
    snapped,
    strata_for,
    type_of,
)
from qka.families import construct_classical, construct_sum, construct_v3, construct_v4
from qka.quaternion import HVector, random_group_element
from qka.subspace import AngleTriple, constancy_check, from_spanning, is_h_orthogonal

HALF_PI = math.pi / 2
T13 = AngleTriple.from_cosines([1 / 3, 1 / 3, 1 / 3])
T03 = AngleTriple.from_cosines([0.3, 0.3, 0.3])
REAL3 = AngleTriple(HALF_PI, HALF_PI, HALF_PI)
TA = AngleTriple.from_cosines([0.5, 0.25, 0.12])


def rotated(space, seed):
    return space.transformed(random_group_element(space.n, seed))


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
        assert is_h_orthogonal(blocks[0], blocks[1], tol=1e-9)
        for b in blocks:
            assert constancy_check(b, 200).triple.cos2() == pytest.approx(
                T03.cos2(), abs=1e-8)

    def test_mixed_sum_has_opposite_signs(self):
        space = construct_sum(T13, 1, 1, 7)
        blocks = factorize(space)
        types = sorted(type_of(b).as_tuple() for b in blocks)
        assert types == [(0, 1), (1, 0)]

    def test_totally_real_blocks(self):
        space = construct_classical("totally_real", 8, 8)
        blocks = factorize(space)
        assert len(blocks) == 2
        assert is_h_orthogonal(blocks[0], blocks[1])

    def test_kahler_plane_blocks(self):
        space = construct_classical("cka_plane_sum", 8, 8, phi=0.8)
        blocks = factorize(space)
        assert len(blocks) == 2
        assert is_h_orthogonal(blocks[0], blocks[1])
        for b in blocks:
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
        space = from_spanning([HVector(rng.standard_normal(24)) for _ in range(4)])
        with pytest.raises(ValueError, match="constant"):
            factorize(space)


class TestTypeOf:
    def test_plus_class(self):
        assert type_of(construct_v4(T03, 1, 4)) == TypeSignature(1, 0)

    def test_minus_class(self):
        assert type_of(construct_v4(T03, -1, 4)) == TypeSignature(0, 1)

    def test_quaternionic_line_is_plus(self):
        assert type_of(construct_classical("quaternionic", 4, 1)) == TypeSignature(1, 0)

    def test_sums(self):
        assert type_of(construct_sum(T13, 1, 1, 7)) == TypeSignature(1, 1)
        assert type_of(construct_sum(T03, 0, 2, 8)) == TypeSignature(0, 2)

    def test_right_angle_convention(self):
        t = AngleTriple.from_cosines([0.6, 0.35, 0.0])
        assert type_of(construct_v4(t, 1, 4)) == TypeSignature(1, 0)
        space = construct_classical("totally_real", 8, 8)
        assert type_of(space) == TypeSignature(2, 0)


class TestProtohomogeneous:
    def test_dimension_three_always_yes(self):
        for space in (construct_v3(1.0, 1, 3), construct_classical("im_h_line", 3, 1)):
            assert is_protohomogeneous(space).value == "yes"

    def test_single_sign_sums_yes(self):
        assert is_protohomogeneous(construct_sum(T03, 2, 0, 8)).value == "yes"
        assert is_protohomogeneous(construct_sum(T13, 0, 2, 6)).value == "yes"

    def test_mixed_sums_no(self):
        verdict = is_protohomogeneous(construct_sum(T13, 1, 1, 7))
        assert verdict.value == "no"
        assert "mixed" in verdict.reason

    def test_cor_nonproto_witness_interior(self):
        verdict = is_protohomogeneous(construct_sum(T03, 1, 1, 8))
        assert verdict.value == "no"

    def test_non_constant_no(self):
        rng = np.random.default_rng(1)
        space = from_spanning([HVector(rng.standard_normal(24)) for _ in range(3)])
        verdict = is_protohomogeneous(space)
        assert verdict.value == "no"
        assert "not constant" in verdict.reason


class TestBranch:
    @pytest.mark.parametrize("sign,phi,n", [
        (1, math.pi / 3, 3), (-1, math.pi / 3, 2), (1, 1.2, 4), (-1, 1.3, 3),
    ])
    def test_round_trip(self, sign, phi, n):
        assert branch_of_v3(construct_v3(phi, sign, n)) == sign

    def test_invariant_across_base_points(self):
        # the branch functional must not depend on the base point
        branch_of_v3(construct_v3(1.25, -1, 3), base_points=200, tol=1e-9)

    def test_merged_angles_rejected(self):
        with pytest.raises(ValueError, match="merge"):
            branch_of_v3(construct_v3(HALF_PI, 1, 3))
        with pytest.raises(ValueError, match="merge"):
            branch_of_v3(construct_classical("im_h_line", 3, 1))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="3-dimensional"):
            branch_of_v3(construct_classical("totally_real", 4, 4))


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
        a = from_spanning([HVector(rng.standard_normal(24)) for _ in range(3)])
        b = from_spanning([HVector(rng.standard_normal(24)) for _ in range(3)])
        assert are_equivalent(a, b).value == "unknown"


class TestModuli:
    def test_spot_cells(self):
        cells = {
            (5, 5): ["totally_real_point"],
            (6, 4): ["totally_complex_point"],
            (6, 8): ["kahler_angle_curve"],
            (3, 1): ["imaginary_line_point"],
            (3, 2): ["imaginary_line_point", "compact_branch_point"],
            (4, 4): ["single_class_region", "two_class_region"],
            (8, 2): ["quaternionic_point"],
            (8, 4): ["complexified_curve"],
            (8, 6): ["boundary_sum_surface"],
            (12, 8): ["complexified_curve"],
        }
        for (k, n), names in cells.items():
            assert [s.name for s in strata_for(k, n)] == names

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

    def test_empty_membership_rejected(self):
        with pytest.raises(ValueError, match="no stratum"):
            representative(5, 5, T03)

    def test_branch_on_single_class_rejected(self):
        with pytest.raises(ValueError, match="single-class"):
            representative(5, 5, REAL3, -1)

    def test_type_matches_requested_blocks(self):
        for p, q in [(1, 0), (0, 1), (2, 0), (1, 1)]:
            if q and p:
                space = construct_sum(T13, p, q, 7)
            else:
                space = construct_sum(T13, p, q, 4 * p + 3 * q)
            assert type_of(space) == TypeSignature(p, q)


class TestClassifyRecord:
    def test_mixed_sum_record(self):
        record = classify_subspace(construct_sum(T13, 1, 1, 7))
        assert record["type"] == [1, 1]
        assert record["protohomogeneous"]["value"] == "no"
        assert record["constant"] is True

    def test_v3_record_has_branch(self):
        record = classify_subspace(construct_v3(1.2, -1, 3))
        assert record["branch"] == -1
        assert record["protohomogeneous"]["value"] == "yes"
        # two-class strata list one entry per class
        assert [(s["name"], s["branch"]) for s in record["strata"]] == [
            ("two_branch_curve", 1), ("two_branch_curve", -1)]

    def test_non_constant_record(self):
        rng = np.random.default_rng(2)
        space = from_spanning([HVector(rng.standard_normal(24)) for _ in range(3)])
        record = classify_subspace(space)
        assert record["constant"] is False
        assert record["protohomogeneous"]["value"] == "no"

    def test_snapped_helper(self):
        t = AngleTriple.from_cos2_eigenvalues([1 - 1e-15, 0.5, 1e-15])
        s = snapped(t)
        assert s.cosines() == pytest.approx([1.0, math.sqrt(0.5), 0.0], abs=1e-12)


@pytest.fixture
def analysis_calls(monkeypatch):
    """Calls of the sampled analysis through classify's bindings, per subspace."""
    calls = Counter()
    for name in ("constancy_check", "joint_canonical_basis"):
        original = getattr(qka.classify, name)

        def counted(v_space, *args, _name=name, _original=original, **kwargs):
            calls[_name, id(v_space)] += 1
            return _original(v_space, *args, **kwargs)

        monkeypatch.setattr(qka.classify, name, counted)
    return calls


class TestAnalysisOnce:
    @pytest.mark.parametrize("l_plus,l_minus", [(1, 1), (4, 0), (1, 3)])
    def test_classify_samples_once(self, analysis_calls, l_plus, l_minus):
        k = 4 * (l_plus + l_minus)
        space = rotated(construct_sum(TA, l_plus, l_minus, k), k)
        record = classify_subspace(space)
        assert record["type"] == [l_plus, l_minus]
        assert analysis_calls == Counter({("constancy_check", id(space)): 1,
                                          ("joint_canonical_basis", id(space)): 1})

    def test_equivalence_samples_at_most_once_per_side(self, analysis_calls):
        a = rotated(construct_sum(TA, 1, 1, 8), 1)
        b = rotated(construct_sum(TA, 1, 1, 8), 2)
        assert are_equivalent(a, b).value == "yes"
        assert set(analysis_calls) <= {(name, id(side))
                                       for name in ("constancy_check", "joint_canonical_basis")
                                       for side in (a, b)}
        assert max(analysis_calls.values()) == 1


# Declared answers for fixed inputs at fixed sampling seeds: type,
# protohomogeneity, strata (with branches) and the 3-dimensional branch.
TWO_CLASS = [("two_class_region", 1), ("two_class_region", -1)]
RECORD_CASES = [
    ("sum8_mixed", lambda: rotated(construct_sum(TA, 1, 1, 8), 3),
     dict(type=[1, 1], proto="no", strata=TWO_CLASS)),
    ("sum16_pure", lambda: rotated(construct_sum(TA, 4, 0, 16), 4),
     dict(type=[4, 0], proto="yes", strata=TWO_CLASS)),
    ("sum16_mixed", lambda: rotated(construct_sum(TA, 1, 3, 16), 5),
     dict(type=[1, 3], proto="no", strata=TWO_CLASS)),
    ("witness", lambda: construct_sum(T13, 1, 1, 7),
     dict(type=[1, 1], proto="no", strata=[("boundary_sum_surface", None)])),
    ("v4_minus", lambda: construct_v4(T03, -1, 4),
     dict(type=[0, 1], proto="yes", strata=TWO_CLASS)),
    ("v3_minus", lambda: construct_v3(1.2, -1, 3),
     dict(branch=-1, proto="yes",
          strata=[("two_branch_curve", 1), ("two_branch_curve", -1)])),
    ("quaternionic", lambda: construct_classical("quaternionic", 8, 4),
     dict(type=[2, 0], proto="yes", strata=[("complexified_curve", None)])),
    ("im_h_line", lambda: construct_classical("im_h_line", 3, 2),
     dict(branch=None, proto="yes", strata=[("imaginary_line_point", None)])),
    ("totally_complex", lambda: construct_classical("totally_complex", 6, 4),
     dict(proto="yes", strata=[("totally_complex_point", None)])),
]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name,build,expected", RECORD_CASES, ids=[c[0] for c in RECORD_CASES])
def test_classify_record_on_fixed_seeds(name, build, expected, seed):
    record = classify_subspace(build(), seed=seed)
    assert record["protohomogeneous"]["value"] == expected["proto"]
    assert record.get("type") == expected.get("type")
    assert "branch" not in expected or record["branch"] == expected["branch"]
    assert [(s["name"], s.get("branch")) for s in record["strata"]] == expected["strata"]
