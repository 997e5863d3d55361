"""Tests for JSON persistence and the command-line interface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qka
from qka.cli import main
from qka.families import construct_sum, construct_v4
from qka.serialize import load_subspace, save_subspace, subspace_from_dict, subspace_to_dict
from qka.subspace import AngleTriple

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
        run_cli(["construct", "--family", "v3", "--phi", "1.2", "--sign", "+",
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

    def test_moduli_k0(self, capsys):
        code, stdout, _ = run_cli(["moduli", "--k", "0", "--n", "3"], capsys)
        payload = json.loads(stdout)
        assert [a["action"] for a in payload["special_actions"]] == [
            "N", "K", "SU(1,n+1)"]

    def test_moduli_out_of_range(self, capsys):
        code, _, stderr = run_cli(["moduli", "--k", "13", "--n", "3"], capsys)
        assert code == 2

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "n": "x"}')
        code, _, stderr = run_cli(["angles", str(bad)], capsys)
        assert code == 2
        assert "error" in stderr

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
        _, angles, _ = run_cli(["angles", str(path), "--seed", "3"], capsys)
        _, record, _ = run_cli(["classify", str(path), "--seed", "3"], capsys)
        assert json.loads(angles)["joint_residual"] == json.loads(record)["joint_residual"]

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(["angles", "/nonexistent/path.json"], capsys)
        assert code == 2

    def test_angles_deterministic_per_seed(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        run_cli(["construct", "--family", "quaternionic", "--k", "8", "--n", "2",
                 "--out", str(out)], capsys)
        _, first, _ = run_cli(["angles", str(out), "--seed", "7"], capsys)
        _, second, _ = run_cli(["angles", str(out), "--seed", "7"], capsys)
        assert first == second

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "q.json"
        run_cli(["construct", "--family", "quaternionic", "--k", "4", "--n", "1",
                 "--out", str(out)], capsys)
        monkeypatch.setenv("QKA_SEED", "11")
        _, with_env, _ = run_cli(["angles", str(out)], capsys)
        monkeypatch.delenv("QKA_SEED")
        _, explicit, _ = run_cli(["angles", str(out), "--seed", "11"], capsys)
        assert with_env == explicit

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

    def test_entry_point_runs(self):
        # The child imports the same qka as this process, installed or not.
        src = os.path.dirname(os.path.dirname(qka.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "qka.cli", "moduli", "--k", "3", "--n", "1"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "imaginary_line_point" in proc.stdout
