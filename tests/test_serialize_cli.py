"""Tests for JSON persistence and the command-line interface."""

import argparse
import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qka
import qka.cli
from qka.cli import main
from qka.families import construct_sum, construct_v4
from qka.quaternion import random_group_element
from qka.serialize import load_subspace, save_subspace, subspace_from_dict, subspace_to_dict
from qka.subspace import AngleTriple, Subspace

T13 = AngleTriple.from_cosines([1 / 3, 1 / 3, 1 / 3])


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        space = construct_v4(T13, -1, 3)
        path = tmp_path / "v.json"
        save_subspace(path, space, {"family": "v4"})
        loaded, meta = load_subspace(path)
        assert np.array_equal(loaded.basis, space.basis)
        assert meta == {"family": "v4"}

    def test_rejects_wrong_version(self):
        data = subspace_to_dict(construct_v4(T13, -1, 3))
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            subspace_from_dict(data)

    def test_rejects_shape_mismatch(self):
        data = subspace_to_dict(construct_v4(T13, -1, 3))
        data["k"] = 3
        with pytest.raises(ValueError, match="shape"):
            subspace_from_dict(data)

    def test_rejects_far_from_orthonormal(self):
        data = subspace_to_dict(construct_v4(T13, -1, 3))
        data["basis"][0][0] += 1e-3
        with pytest.raises(ValueError, match="orthonormal"):
            subspace_from_dict(data)

    def test_refuses_non_finite_meta_without_writing(self, tmp_path):
        path = tmp_path / "v.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            save_subspace(path, construct_v4(T13, -1, 3), {"spread": float("nan")})
        assert not path.exists()

    @pytest.mark.parametrize("field,value", [
        ("n", 3.7), ("n", "3"), ("k", 4.2), ("k", "4"), ("format_version", True),
        ("basis", "0.0"), ("basis", True), ("basis", False),
    ])
    def test_rejects_non_integer_fields_and_non_numeric_entries(self, tmp_path, capsys,
                                                                field, value):
        # An int() or float cast would turn each of these into a valid file:
        # 3.7 into n = 3, "4" into k = 4, true into version 1, and a basis
        # entry "0.0", true or false into the 0.0 or 1.0 it replaces.
        data = subspace_to_dict(construct_v4(T13, -1, 3))
        if field == "basis":
            row = data["basis"][0]
            row[row.index(1.0 if value is True else 0.0)] = value
        else:
            data[field] = value
        with pytest.raises(ValueError, match=field):
            subspace_from_dict(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, stdout, stderr = run_cli(["classify", str(path)], capsys)
        assert code == 2 and stdout == "" and field in stderr

    @pytest.mark.parametrize("value", [[], [1], 0, 1, False, True, "", "x", 0.5])
    def test_rejects_meta_that_is_not_an_object(self, tmp_path, capsys, value):
        # A falsy non-object ([], 0, false, "") must not load as an empty meta.
        data = subspace_to_dict(construct_v4(T13, -1, 3))
        data["meta"] = value
        with pytest.raises(ValueError, match="meta must be a JSON object"):
            subspace_from_dict(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, stdout, stderr = run_cli(["classify", str(path)], capsys)
        assert code == 2 and stdout == "" and "meta must be a JSON object" in stderr

    @pytest.mark.parametrize("present", [False, True])
    def test_absent_or_null_meta_loads_as_empty(self, present):
        data = subspace_to_dict(construct_v4(T13, -1, 3))
        if present:
            data["meta"] = None
        else:
            del data["meta"]
        assert subspace_from_dict(data)[1] == {}

    def test_repairs_small_drift_with_warning(self):
        data = subspace_to_dict(construct_v4(T13, -1, 3))
        data["basis"][0][0] += 3e-9
        with pytest.warns(UserWarning, match="re-orthonormalizing"):
            space, _ = subspace_from_dict(data)
        assert np.max(np.abs(space.basis.T @ space.basis - np.eye(4))) < 1e-12


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_construct_then_angles(self, tmp_path, capsys):
        out = tmp_path / "vm.json"
        code, stdout, _ = run_cli(
            ["construct", "--family", "v4", "--cos", "0.3", "0.3", "0.3",
             "--sign", "-", "--n", "4", "--out", str(out)], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["k"] == 4
        assert payload["triple"][0] == pytest.approx(math.acos(0.3), abs=1e-9)
        assert payload["constant"] is True

        code, stdout, _ = run_cli(["angles", str(out)], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report["constant"] is True
        assert report["cosines"] == pytest.approx([0.3, 0.3, 0.3], abs=1e-8)
        assert report["joint_residual"] < 1e-9

    def test_construct_v3_minus_in_h2(self, tmp_path, capsys):
        out = tmp_path / "v3.json"
        code, stdout, _ = run_cli(
            ["construct", "--family", "v3", "--angles", f"{math.pi / 3}",
             "--sign", "-", "--n", "2", "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(stdout)["n"] == 2

    def test_inadmissible_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["construct", "--family", "v4", "--cos", "0.9", "0.9", "0.1",
             "--sign", "-", "--n", "4", "--out", str(tmp_path / "x.json")], capsys)
        assert code == 2
        assert "no sign" in stderr

    def test_classify_mixed_sum(self, tmp_path, capsys):
        out = tmp_path / "sum.json"
        save_subspace(out, construct_sum(T13, 1, 1, 7))
        code, stdout, _ = run_cli(["classify", str(out)], capsys)
        assert code == 0
        record = json.loads(stdout)
        assert record["type"] == [1, 1]
        assert record["protohomogeneous"]["value"] == "no"

    def test_classify_dim3(self, tmp_path, capsys):
        out = tmp_path / "v3.json"
        run_cli(["construct", "--family", "v3", "--angles", "1.2", "--sign", "+",
                 "--n", "3", "--out", str(out)], capsys)
        code, stdout, _ = run_cli(["classify", str(out)], capsys)
        record = json.loads(stdout)
        assert record["protohomogeneous"]["value"] == "yes"
        assert record["branch"] == 1

    def test_moduli_describe(self, capsys):
        code, stdout, _ = run_cli(["moduli", "--k", "4", "--n", "4"], capsys)
        assert code == 0
        payload = json.loads(stdout)
        names = [s["name"] for s in payload["strata"]]
        assert names == ["single_class_region", "two_class_region"]

    def test_moduli_membership(self, capsys):
        code, stdout, _ = run_cli(
            ["moduli", "--k", "4", "--n", "4", "--cos", "0.3", "0.3", "0.3"], capsys)
        payload = json.loads(stdout)
        assert payload["member"] is True
        assert [s["branch"] for s in payload["strata"]] == [1, -1]

    def test_moduli_echoes_declared_cosines_as_given(self, capsys):
        # Before, they came back through acos and cos as 0.4999999999999999,
        # 0.29999999999999993 and 0.19999999999999993.
        code, stdout, _ = run_cli(
            ["moduli", "--k", "8", "--n", "8", "--cos", "0.3", "0.5", "0.2"], capsys)
        payload = json.loads(stdout)
        assert code == 0 and payload["cosines"] == [0.5, 0.3, 0.2]
        assert payload["triple"] == [math.acos(0.5), math.acos(0.3), math.acos(0.2)]

    def test_moduli_triple_echoes_the_acos_of_its_cosines(self, capsys):
        code, stdout, _ = run_cli(
            ["moduli", "--k", "8", "--n", "8", "--triple", "1.2", "0.9", "1.0"], capsys)
        payload = json.loads(stdout)
        assert code == 0
        assert payload["cosines"] == [math.cos(0.9), math.cos(1.0), math.cos(1.2)]
        assert payload["triple"] == [math.acos(c) for c in payload["cosines"]]

    def test_moduli_k0(self, capsys):
        code, stdout, _ = run_cli(["moduli", "--k", "0", "--n", "3"], capsys)
        payload = json.loads(stdout)
        assert [a["action"] for a in payload["special_actions"]] == [
            "N", "K", "SU(1,n+1)"]

    @pytest.mark.parametrize("triple,bad", [(["2", "0.1", "0.1"], "2.0"),
                                            (["nan", "0.1", "0.1"], "nan")])
    def test_moduli_triple_out_of_range_names_the_angle(self, capsys, triple, bad):
        code, stdout, stderr = run_cli(["moduli", "--k", "4", "--n", "4", "--triple", *triple],
                                       capsys)
        assert code == 2 and stdout == ""
        assert f"angle {bad} lies outside [0, pi/2]" in stderr and "sorted" not in stderr

    @pytest.mark.parametrize("first,second", [("--triple", "--cos"), ("--cos", "--triple")])
    def test_moduli_refuses_triple_and_cos_together(self, capsys, first, second):
        # Before, --cos won silently and the command exited 0.
        values = {"--triple": ["0.1", "0.2", "0.3"], "--cos": ["0.3", "0.3", "0.3"]}
        with pytest.raises(SystemExit) as exc:
            main(["moduli", "--k", "4", "--n", "4", first, *values[first],
                  second, *values[second]])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument {second}: not allowed with argument {first}" in captured.err

    def test_construct_prints_snapped_cosines(self, tmp_path, capsys):
        code, stdout, _ = run_cli(["construct", "--family", "cka_plane_sum", "--k", "4",
                                   "--n", "4", "--angles", "0.8",
                                   "--out", str(tmp_path / "c.json")], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["cosines"][0] == pytest.approx(math.cos(0.8), abs=1e-12)
        assert payload["cosines"][1:] == [0.0, 0.0]
        assert payload["meta"]["cosines"][1:] == [0.0, 0.0]

    def test_moduli_out_of_range(self, capsys):
        code, _, stderr = run_cli(["moduli", "--k", "13", "--n", "3"], capsys)
        assert code == 2

    @pytest.mark.parametrize("args,message", [
        (["--k", "0", "--n", "0"], "n must be positive"),
        (["--k", "0", "--n", "-3"], "n must be positive"),
        (["--k", "-1", "--n", "3"], "k must lie in [0, 4n] = [0, 12]"),
        (["--k", "13", "--n", "3", "--cos", "0.3", "0.3", "0.3"], "k must lie in"),
        (["--k", "0", "--n", "3", "--cos", "0.3", "0.3", "0.3"], "membership needs k >= 1"),
    ])
    def test_moduli_ranges_are_checked_by_the_library(self, capsys, args, message):
        code, stdout, stderr = run_cli(["moduli", *args], capsys)
        assert code == 2 and stdout == "" and message in stderr

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "n": "x"}')
        code, _, stderr = run_cli(["angles", str(bad)], capsys)
        assert code == 2
        assert "error" in stderr

    @pytest.mark.parametrize("text,message", [
        ('{"format_version": 1, "n": 1, "k": 1, "basis": [[1, 0, 0, 1' + "0" * 400 + "]]}",
         "malformed subspace file: int too large to convert to float"),
        ("[" * 100000, "invalid JSON in subspace file: maximum recursion depth exceeded"),
    ], ids=["int_beyond_float", "nested_too_deep"])
    def test_file_escapes_exit_2_by_name(self, tmp_path, capsys, text, message):
        # An OverflowError from the float cast and a RecursionError from
        # json.load, each once a traceback, exit 2 with the loader's message.
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, stdout, stderr = run_cli(["classify", str(path)], capsys)
        assert code == 2 and stdout == "" and message in stderr

    @pytest.mark.parametrize("command", ["angles", "classify"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_basis_exits_2(self, tmp_path, capsys, command, bad):
        data = subspace_to_dict(construct_v4(T13, -1, 3))
        data["basis"][1][2] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))  # writes NaN / Infinity literals
        code, stdout, stderr = run_cli([command, str(path)], capsys)
        assert code == 2
        assert "non-finite" in stderr and stdout == ""

    def test_angles_and_classify_report_one_joint_residual(self, tmp_path, capsys):
        path = tmp_path / "vm.json"
        save_subspace(path, construct_v4(T13, -1, 4))
        _, angles, _ = run_cli(["angles", str(path)], capsys)
        _, record, _ = run_cli(["classify", str(path)], capsys)
        assert json.loads(angles)["joint_residual"] == json.loads(record)["joint_residual"]

    @pytest.mark.parametrize("family_args,certified", [
        (["--family", "v4", "--cos", "0.3", "0.3", "0.3", "--sign", "-", "--n", "4"], True),
        (["--family", "v3", "--angles", "1.2", "--sign", "-", "--n", "3"], False),
    ])
    def test_construct_angles_classify_report_one_spread(self, tmp_path, capsys,
                                                         family_args, certified):
        path = tmp_path / "v.json"
        _, built, _ = run_cli(["construct", *family_args, "--out", str(path)], capsys)
        _, angles, _ = run_cli(["angles", str(path)], capsys)
        _, record, _ = run_cli(["classify", str(path)], capsys)
        spreads = {json.loads(out)["spread"] for out in (built, angles, record)}
        assert len(spreads) == 1
        # A certified subspace reports the exact whole-sphere bound, unsampled.
        assert (json.loads(angles)["samples"] == 0) == certified
        if certified:
            assert spreads == {2 * json.loads(angles)["joint_residual"]}

    @pytest.mark.parametrize("args,parameter", [
        (["--family", "totally_real", "--n", "3"], "dimension k"),
        (["--family", "quaternionic", "--n", "3"], "dimension k"),
        (["--family", "cka_plane_sum", "--n", "4", "--angles", "0.8"], "dimension k"),
        (["--family", "complexified_cka", "--n", "4", "--k", "4"], "phi"),
        (["--family", "cka_plane_sum", "--n", "4", "--k", "4"], "phi"),
        (["--family", "v3", "--n", "3", "--sign", "-"], "phi"),
        (["--family", "v4", "--n", "4", "--angles", "0.8"], "angle triple"),
        (["--family", "sum", "--n", "8", "--lplus", "2"], "angle triple"),
        (["--family", "v4", "--n", "4", "--angles", "0.8", "0.9"], "--angles/--cos"),
    ])
    def test_missing_parameter_exits_2_and_names_it(self, tmp_path, capsys, args, parameter):
        out = tmp_path / "x.json"
        code, stdout, stderr = run_cli(["construct", *args, "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert parameter in stderr

    @pytest.mark.parametrize("args,named", [
        (["--family", "sum", "--cos", "0.3", "0.3", "0.3", "--lplus", "1", "--sign", "-",
          "--n", "4"], "--sign"),
        (["--family", "v3", "--k", "5", "--angles", "1.2", "--n", "3"], "--k is 5"),
        (["--family", "v4", "--k", "8", "--cos", "0.3", "0.3", "0.3", "--n", "4"], "--k is 8"),
        (["--family", "sum", "--k", "4", "--cos", "0.3", "0.3", "0.3", "--lplus", "1",
          "--lminus", "1", "--n", "8"], "--k is 4"),
        (["--family", "v4", "--lplus", "3", "--cos", "0.3", "0.3", "0.3", "--n", "4"],
         "--lplus"),
        (["--family", "v3", "--lminus", "1", "--angles", "1.2", "--n", "3"], "--lminus"),
        (["--family", "quaternionic", "--k", "4", "--n", "1", "--cos", "0.5"], "--cos"),
        (["--family", "totally_real", "--k", "2", "--n", "2", "--angles", "0.5"], "--angles"),
        (["--family", "cka_plane_sum", "--k", "4", "--n", "4", "--sign", "+",
          "--angles", "0.8"], "--sign"),
        (["--family", "v3", "--angles", "1.2", "1.2", "1.5", "--n", "3"], "--angles"),
        (["--family", "v4", "--cos", "0.3", "0.3", "0.3", "--angles", "1.0", "1.1", "1.2",
          "--n", "4"], "--angles: not allowed with argument --cos"),
    ])
    def test_unread_flag_exits_2_and_names_it(self, tmp_path, capsys, args, named):
        # Before, each of these exited 0 and built the member without the flag
        # (or with the first angle flag).  The parser refuses two angle flags.
        out = tmp_path / "x.json"
        try:
            code = main(["construct", *args, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert named in captured.err

    def test_minus_v3_built_within_the_band_of_its_rule(self, tmp_path, capsys):
        # The minus class exists for cos(phi) <= 1/2, within REGION_TOL, as in
        # the two-branch curve of the moduli table; beyond it, exit 2 with the rule.
        base = ["construct", "--family", "v3", "--sign", "-", "--n", "3", "--out"]
        code, stdout, _ = run_cli(base + [str(tmp_path / "a.json"), "--cos", "0.500000000001"],
                                  capsys)
        assert code == 0 and json.loads(stdout)["constant"] is True
        out = tmp_path / "b.json"
        code, stdout, err = run_cli(base + [str(out), "--cos", "0.5000000002"], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert "the minus class needs cos(phi) <= 1/2" in err
        # A single --cos value is the cosine the builder reads, as given: no
        # acos/cos round trip moves it back into the band, so construct and
        # the moduli table agree that no minus class exists there.
        out = tmp_path / "c.json"
        code, stdout, err = run_cli(base + [str(out), "--cos", "0.5000000001"], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert "the minus class needs cos(phi) <= 1/2" in err
        code, stdout, _ = run_cli(["moduli", "--k", "3", "--n", "3", "--cos", "0.5000000001",
                                   "0.5000000001", "0"], capsys)
        strata = json.loads(stdout)["strata"]
        assert code == 0 and strata and all(s.get("branch") != -1 for s in strata)

    def test_retired_phi_flag_is_refused_by_the_parser(self, tmp_path, capsys):
        # --angles takes the one family angle that --phi used to pass.
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--family", "v3", "--phi", "1.2", "--sign", "+", "--n", "3",
                  "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert "unrecognized arguments: --phi" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--family", "v3", "--k", "3", "--angles", "1.2", "--n", "3"],
        ["--family", "v4", "--k", "4", "--cos", "0.3", "0.3", "0.3", "--sign", "-",
         "--n", "4"],
        ["--family", "sum", "--k", "8", "--cos", "0.3", "0.3", "0.3", "--lplus", "1",
         "--lminus", "1", "--n", "8"],
    ])
    def test_k_equal_to_the_dimension_built_is_accepted(self, tmp_path, capsys, args):
        code, stdout, _ = run_cli(["construct", *args, "--out", str(tmp_path / "x.json")],
                                  capsys)
        assert code == 0 and json.loads(stdout)["k"] == int(args[args.index("--k") + 1])

    @pytest.mark.parametrize("args", [
        ["construct", "--family", "v4", "--cos", "nan", "0.3", "0.3", "--n", "4"],
        ["construct", "--family", "v4", "--cos", "1.5", "0.3", "0.3", "--n", "4"],
        ["construct", "--family", "v3", "--cos", "inf", "--n", "3"],
        ["construct", "--family", "cka_plane_sum", "--k", "2", "--cos", "-0.1", "--n", "2"],
        ["construct", "--family", "sum", "--cos", "0.3", "0.3", "-0.3", "--lplus", "1",
         "--n", "4"],
        ["moduli", "--k", "4", "--n", "4", "--cos", "1.5", "0.3", "0.3"],
        ["moduli", "--k", "4", "--n", "4", "--cos", "-0.5", "0.3", "0.3"],
        ["moduli", "--k", "4", "--n", "4", "--cos", "0.3", "nan", "0.3"],
        ["moduli", "--k", "4", "--n", "4", "--cos", "0.3", "0.3", "inf"],
    ])
    def test_cosines_outside_unit_interval_exit_2(self, tmp_path, capsys, args):
        # Before, these were clamped into [0, 1] and answered for another triple.
        if args[0] == "construct":
            args = [*args, "--out", str(tmp_path / "x.json")]
        code, stdout, stderr = run_cli(args, capsys)
        assert code == 2 and stdout == ""
        assert "--cos" in stderr

    @pytest.mark.parametrize("family", [["v3", "--sign", "+", "--n", "3"],
                                        ["cka_plane_sum", "--k", "2", "--n", "2"]])
    @pytest.mark.parametrize("phi", ["-0.1", "1.6", "nan", "inf"])
    def test_single_angle_outside_its_range_exits_2_and_names_the_flag(self, tmp_path, capsys,
                                                                      family, phi):
        # The angle is checked before its cosine is taken: cos(-0.1) is a
        # valid cosine, so the check cannot be left to the builder.
        out = tmp_path / "x.json"
        code, stdout, stderr = run_cli(["construct", "--family", *family, "--angles", phi,
                                        "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert f"--angles values must be finite numbers in [0, pi/2], got {float(phi)}" in stderr

    @pytest.mark.parametrize("k", [None, "3"])
    def test_im_h_line_k_optional(self, tmp_path, capsys, k):
        out = tmp_path / "im.json"
        args = ["construct", "--family", "im_h_line", "--n", "1", "--out", str(out)]
        code, stdout, _ = run_cli(args + (["--k", k] if k else []), capsys)
        assert code == 0 and json.loads(stdout)["k"] == 3

    @pytest.mark.parametrize("k", ["1", "4", "5"])
    def test_im_h_line_refuses_other_k(self, tmp_path, capsys, k):
        # Before, any --k was replaced by 3 and a 3-dimensional file was written.
        out = tmp_path / "im.json"
        code, stdout, stderr = run_cli(["construct", "--family", "im_h_line", "--k", k,
                                        "--n", "1", "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert f"k={k}" in stderr

    def test_non_finite_payload_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                           monkeypatch):
        path = tmp_path / "q.json"
        run_cli(["construct", "--family", "quaternionic", "--k", "4", "--n", "1",
                 "--out", str(path)], capsys)
        monkeypatch.setattr(qka.cli, "classify_subspace",
                            lambda space, **kwargs: {"k": space.k, "spread": float("nan")})
        code, stdout, stderr = run_cli(["classify", str(path)], capsys)
        assert code == 2 and stdout == ""
        assert "JSON compliant" in stderr

        report_fields = qka.cli._report_fields
        monkeypatch.setattr(qka.cli, "_report_fields", lambda analysis: {
            **report_fields(analysis), "cosines": [math.nan, 0.0, 0.0]})
        out = tmp_path / "nan.json"
        code, stdout, _ = run_cli(["construct", "--family", "quaternionic", "--k", "4",
                                   "--n", "1", "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()

    def test_no_other_command_reads_a_seed(self, tmp_path, capsys):
        # Only `selftest` samples: no other payload carries a seed.
        code, _, _ = run_cli(["moduli", "--k", "4", "--n", "4"], capsys)
        assert code == 0
        out = tmp_path / "q.json"
        code, stdout, _ = run_cli(["construct", "--family", "quaternionic", "--k", "4",
                                   "--n", "1", "--out", str(out)], capsys)
        assert code == 0 and "seed" not in json.loads(stdout)["meta"]
        for command in ("angles", "classify"):
            code, stdout, _ = run_cli([command, str(out)], capsys)
            assert code == 0 and "seed" not in stdout

    def test_selftest_seed_defaults_to_zero(self, capsys, monkeypatch):
        # --seed is the one way to set it: the environment is not read.
        monkeypatch.setenv("QKA_SEED", "abc")
        code, default, _ = run_cli(["selftest", "--quick"], capsys)
        _, explicit, _ = run_cli(["selftest", "--quick", "--seed", "0"], capsys)
        assert code == 0 and default == explicit

    @pytest.mark.parametrize("flags,named", [(["--samples", "-3"], "--samples"),
                                             (["--samples", "1"], "--samples"),
                                             (["--seed", "-1"], "--seed")])
    def test_bad_samples_or_seed_refused_where_they_enter(self, tmp_path, capsys,
                                                          flags, named):
        # No verdict samples, so construct, angles and classify take neither
        # flag: the parser refuses both, before anything is written, on a
        # certified file and on a random one.
        certified, random_plane = tmp_path / "vm.json", tmp_path / "r.json"
        save_subspace(certified, construct_v4(T13, -1, 3))
        rng = np.random.default_rng(5)
        save_subspace(random_plane, Subspace(np.linalg.qr(rng.standard_normal((12, 5)))[0]))
        out = tmp_path / "q.json"
        construct = ["construct", "--family", "quaternionic", "--k", "4", "--n", "1",
                     "--out", str(out)]
        for argv in (["angles", str(certified)], ["classify", str(certified)],
                     ["angles", str(random_plane)], ["classify", str(random_plane)],
                     construct):
            with pytest.raises(SystemExit) as exc:
                main(argv + flags)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "unrecognized arguments" in captured.err
            assert named in captured.err
        assert not out.exists()

    def test_negative_seed_refused_by_selftest(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--quick", "--seed", "-1"])
        assert exc.value.code == 2 and "argument --seed" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(["angles", "/nonexistent/path.json"], capsys)
        assert code == 2

    def test_angles_deterministic_per_seed(self, tmp_path, capsys):
        # `angles` reads no seed: the same output on every run.
        out = tmp_path / "q.json"
        run_cli(["construct", "--family", "quaternionic", "--k", "8", "--n", "2",
                 "--out", str(out)], capsys)
        outputs = [run_cli(["angles", str(out)], capsys)[1] for _ in range(3)]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_selftest_quick(self, capsys):
        code, stdout, _ = run_cli(["selftest", "--quick", "--seed", "1"], capsys)
        assert code == 0
        lines = [l for l in stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 11
        assert all(l.startswith("PASS") for l in lines)

    def test_selftest_deterministic(self, capsys):
        _, first, _ = run_cli(["selftest", "--quick", "--seed", "3"], capsys)
        _, second, _ = run_cli(["selftest", "--quick", "--seed", "3"], capsys)
        assert first == second

    def test_blas_thread_count_leaves_the_output_unchanged(self, tmp_path):
        # A BLAS dot splits a long sum across threads, which moves its last
        # bits: at k = 64 the residual sums 3 k^2 = 12288 terms.  The printed
        # joint residual and spread must not follow the thread count.
        space = construct_sum(AngleTriple.from_cosines([0.45, 0.3, 0.12]), 8, 8, 64)
        path = tmp_path / "s64.json"
        save_subspace(path, space.transformed(random_group_element(64, 7)))
        outputs = []
        for threads in ("1", "2"):
            env = dict(_child_env(), OPENBLAS_NUM_THREADS=threads)
            outputs.append([subprocess.run(
                [sys.executable, "-m", "qka.cli", command, str(path)], capture_output=True,
                text=True, env=env, check=True).stdout for command in ("angles", "classify")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["type"] == [8, 8]

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qka.cli", "moduli", "--k", "3", "--n", "1"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert "imaginary_line_point" in proc.stdout

    def test_cli_import_leaves_selftest_unloaded(self):
        # Only `qka selftest` needs the acceptance battery.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qka.cli; print('qka.selftest' in sys.modules)"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_oracles_unloaded(self):
        # The oracles are test-only; the package resolves them on first use.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qka.cli; loaded = 'qka.oracles' in sys.modules; "
             "from qka import psd_oracle; "
             "print(loaded, 'qka.oracles' in sys.modules, callable(psd_oracle))"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert proc.stdout.split() == ["False", "True", "True"]

    def test_cli_import_leaves_numpy_polynomial_unloaded(self):
        # No CLI path needs numpy.polynomial, whose import would add several
        # milliseconds to every CLI process.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qka.cli; print('numpy.polynomial' in sys.modules)"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_package_rejects_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qka.no_such_name


_CERTIFIED_V4 = ["construct", "--family", "v4", "--cos", "0.3", "0.3", "0.3", "--sign", "-",
                 "--n", "4"]
_REPORT_KEYS = ["n", "k", "triple", "cosines", "constant", "spread"]


def _payload_keys(tmp_path, capsys) -> dict:
    """The key order of the construct, angles and classify payloads of one
    certified v4."""
    path = tmp_path / "v.json"
    keys = {}
    for name, argv in (("construct", [*_CERTIFIED_V4, "--out", str(path)]),
                       ("angles", ["angles", str(path)]),
                       ("classify", ["classify", str(path)])):
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0
        keys[name] = list(json.loads(stdout))
    return keys


def test_payload_key_order_is_pinned(tmp_path, capsys):
    assert _payload_keys(tmp_path, capsys) == {
        "construct": ["path", *_REPORT_KEYS, "meta"],
        "angles": [*_REPORT_KEYS, "samples", "joint_residual"],
        "classify": [*_REPORT_KEYS, "joint_residual", "protohomogeneous", "type", "strata"],
    }


def test_undecided_payload_key_order_is_pinned(tmp_path, capsys, monkeypatch):
    # constancy_gate follows spread in every payload that reports it.
    from qka.classify import _Analysis
    from qka.subspace import ConstancyReport

    monkeypatch.setattr(_Analysis, "report", property(lambda self: ConstancyReport(
        self.exact.triple, 0.0, self.space.k, None, "constancy undecided (test gate)")))
    undecided = [*_REPORT_KEYS, "constancy_gate"]
    assert _payload_keys(tmp_path, capsys) == {
        "construct": ["path", *undecided, "meta"],
        "angles": [*undecided, "samples", "joint_residual"],
        "classify": [*undecided, "protohomogeneous"],
    }


def _child_env() -> dict:
    """Environment for a child that imports the same qka as this process."""
    src = os.path.dirname(os.path.dirname(qka.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[str]:
    """The `qka ...` lines of the README's fenced blocks, continuations joined."""
    commands, fenced, pending = [], False, ""
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        pending = ""
        if line.startswith("qka "):
            commands.append(line)
    return commands


def _readme_python() -> str:
    """The source of the README's python block."""
    return README.read_text().split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs_as_documented():
    # Each expression statement is checked against the value its comment
    # documents, the comment's text before any colon.
    source = _readme_python()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            documented = lines[stmt.end_lineno - 1].split("#", 1)[1].split(":")[0].strip()
            assert repr(eval(code, namespace)) == documented, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 3


def test_readme_commands_run_as_documented(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert any("witness.json" in c for c in commands)
    monkeypatch.chdir(tmp_path)
    failures = []
    for command in commands:
        code = main(shlex.split(command, comments=True)[1:])
        capsys.readouterr()
        if code != 0:
            failures.append((command, code))
    assert failures == []


# Loads `moduli.py` by path with numpy blocked (a None entry in sys.modules
# makes every import of it raise), then answers the queries given as JSON.
_MODULI_WITHOUT_NUMPY = """
import importlib.util, json, sys
sys.modules["numpy"] = None
spec = importlib.util.spec_from_file_location("moduli", sys.argv[1])
moduli = importlib.util.module_from_spec(spec)
sys.modules["moduli"] = moduli  # a dataclass looks its module up as it is defined
spec.loader.exec_module(moduli)
out = []
for k, n, cosines in json.loads(sys.argv[2]):
    if cosines is None:
        out.append(moduli.moduli_describe(k, n))
    else:
        triple = moduli.AngleTriple.from_cosines(cosines)
        out.append([hit.to_dict() for hit in moduli.moduli_membership(k, n, triple)])
print(json.dumps(out))
"""


def test_moduli_module_answers_the_readme_queries_without_numpy():
    queries, expected = [], []
    for command in _readme_commands():
        args = qka.cli._build_parser().parse_args(shlex.split(command, comments=True)[1:])
        if args.command != "moduli":
            continue
        triple, _ = qka.cli._parse_angles(args)
        if triple is None:
            queries.append((args.k, args.n, None))
            expected.append(qka.moduli_describe(args.k, args.n))
        else:
            queries.append((args.k, args.n, triple.cos_tuple()))
            expected.append([h.to_dict() for h in qka.moduli_membership(args.k, args.n, triple)])
    assert len(queries) == 3 and [q for q in queries if q[2] is not None]
    moduli_py = Path(qka.__file__).resolve().parent / "moduli.py"
    proc = subprocess.run([sys.executable, "-c", _MODULI_WITHOUT_NUMPY, str(moduli_py),
                           json.dumps(queries)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(proc.stdout) == json.loads(json.dumps(expected))


def _parser_options() -> list[str]:
    """Every option string of the qka parser and its subcommands."""
    parsers, options = [qka.cli._build_parser()], []
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            options += [o for o in action.option_strings if o not in ("-h", "--help")]
    return options


def test_every_parser_option_is_documented_in_readme():
    options = _parser_options()
    assert {"--family", "--triple", "--seed"} <= set(options)
    text = README.read_text()
    assert [o for o in options if not re.search(re.escape(o) + r"(?![\w-])", text)] == []
