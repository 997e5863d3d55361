"""The three workloads: seeded inputs, the program calls, declared answers.

Each builder takes the ``qka`` modules, a workload seed and a scratch
directory, generates every input from the seed alone, and returns a
``Workload`` whose ops are closures over those inputs.  Program calls go
through module attributes (``mods.classify.classify_subspace``) so that the
traced run's wrappers see them.  The program's own sampling seeds stay at
their defaults.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import (blocks_mismatch, cli_payload, cosines_mismatch, record_mismatch,
                    strata_pairs, verdict_mismatch, JOINT_RESIDUAL_TOL)

TWO_CLASS = (("two_class_region", 1), ("two_class_region", -1))


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a program call and its declared answer.

    ``check`` returns None when the answer matches, a reason when it does
    not, and raises ``checks.Refused`` when the program gave no answer.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    ops: list[Op]
    digest: str
    warmup: bool
    # False when every op is a child process (cli_readme untraced); peak
    # memory is then that of the largest child.
    in_process: bool = True
    begin_cycle: Callable[[], None] = lambda: None
    end_cycle: Callable[[], None] = lambda: None
    close: Callable[[], None] = lambda: None


class _Digest:
    """SHA-256 over every generated input, to compare set-ups."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._h.update(np.ascontiguousarray(item, dtype=float).tobytes())
            else:
                self._h.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# -- seeded parameter draws ------------------------------------------------

def _sorted_cosines(rng, lo, hi, accept) -> np.ndarray:
    """Descending cosines in [lo, hi], pairwise 0.02 apart, passing accept."""
    while True:
        x = np.sort(rng.uniform(lo, hi, 3))[::-1]
        if x[0] - x[1] > 0.02 and x[1] - x[2] > 0.02 and accept(x):
            return x


def two_class_cosines(rng) -> np.ndarray:
    """Interior of the two-class region: cos-sum <= 0.9, phi3 well below pi/2."""
    return _sorted_cosines(rng, 0.08, 0.6, lambda x: x.sum() <= 0.9)


def single_class_cosines(rng) -> np.ndarray:
    """Interior of the single-class region: cos-sum > 1.1, x0 + x1 - x2 < 0.9."""
    return _sorted_cosines(rng, 0.1, 0.9,
                           lambda x: x.sum() > 1.1 and x[0] + x[1] - x[2] < 0.9)


def boundary_cosines(rng) -> np.ndarray:
    """A triple on the cos-sum = 1 surface, away from its edges."""
    x2 = rng.uniform(0.1, 0.25)
    x1 = rng.uniform(x2 + 0.03, (1.0 - x2) / 2.0 - 0.03)
    return np.array([1.0 - x1 - x2, x1, x2])


def _seed32(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _rotated(mods, space, rng, digest):
    """The subspace moved by a seeded random element of Sp(1)Sp(n)."""
    g = mods.quaternion.random_group_element(space.n, _seed32(rng))
    moved = space.transformed(g)
    digest.add(moved.basis)
    return moved


def _triple(mods, cosines):
    return mods.subspace.AngleTriple.from_cosines(cosines)


# -- classify_large --------------------------------------------------------

def build_classify_large(mods, seed: int, workdir: str, in_process: bool) -> Workload:
    rng = np.random.default_rng([seed, 1])
    digest = _Digest()
    ops = []
    for k in (16, 32, 64):
        l = k // 4
        pure = (l, 0) if rng.integers(2) else (0, l)
        split = int(rng.integers(1, l))
        for label, block_type in (("pure", pure), ("mixed", (split, l - split))):
            cos = two_class_cosines(rng)
            digest.add(k, block_type, cos)
            space = mods.families.construct_sum(_triple(mods, cos), *block_type, k)
            moved = _rotated(mods, space, rng, digest)
            expect = dict(k=k, n=k, cosines=cos, block_type=block_type,
                          proto="yes" if 0 in block_type else "no", strata=TWO_CLASS)
            ops.append(Op(
                f"classify k={k} {label} type {block_type}",
                lambda v=moved: mods.classify.classify_subspace(v),
                lambda rec, e=expect: record_mismatch(rec, **e),
            ))
    return Workload(ops, digest.hexdigest(), warmup=True)


# -- decisions_small -------------------------------------------------------

# (family, k, n, declared cosines as a function of phi, declared stratum);
# strata follow the paper's moduli table for that (k, n).
CLASSICAL_CASES = (
    ("totally_real", 5, 6, lambda phi: (0.0, 0.0, 0.0), "totally_real_point"),
    ("totally_complex", 6, 4, lambda phi: (1.0, 0.0, 0.0), "totally_complex_point"),
    ("quaternionic", 8, 4, lambda phi: (1.0, 1.0, 1.0), "complexified_curve"),
    ("im_h_line", 3, 2, lambda phi: (1.0, 1.0, 0.0), "imaginary_line_point"),
    ("cka_plane_sum", 6, 6, lambda phi: (math.cos(phi), 0.0, 0.0), "kahler_angle_curve"),
    ("complexified_cka", 8, 4, lambda phi: (1.0, math.cos(phi), math.cos(phi)),
     "complexified_curve"),
)


def _equivalence_ops(mods, rng, digest) -> list[Op]:
    ops = []
    phi = float(rng.uniform(math.pi / 3 + 0.1, math.pi / 2 - 0.1))
    n3 = int(rng.integers(3, 6))
    cos4 = two_class_cosines(rng)
    n4 = int(rng.integers(4, 9))
    digest.add(phi, n3, cos4, n4)
    # Four v3 pairs: the v3 ops are the slowest, and with more than a tenth of
    # the cycle p90 falls inside their cluster, not on its edge.
    for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        expected = "yes" if s == t else "no"
        a = _rotated(mods, mods.families.construct_v3(phi, s, n3), rng, digest)
        b = _rotated(mods, mods.families.construct_v3(phi, t, n3), rng, digest)
        ops.append(Op(f"are_equivalent v3 ({s:+d},{t:+d})",
                      lambda a=a, b=b: mods.classify.are_equivalent(a, b),
                      lambda v, e=expected: verdict_mismatch(v.value, e, "equivalence")))
    for s, t in ((1, 1), (1, -1), (-1, -1)):
        expected = "yes" if s == t else "no"
        a = _rotated(mods, mods.families.construct_v4(_triple(mods, cos4), s, n4), rng, digest)
        b = _rotated(mods, mods.families.construct_v4(_triple(mods, cos4), t, n4), rng, digest)
        ops.append(Op(f"are_equivalent v4 ({s:+d},{t:+d})",
                      lambda a=a, b=b: mods.classify.are_equivalent(a, b),
                      lambda v, e=expected: verdict_mismatch(v.value, e, "equivalence")))
    return ops


def _classical_ops(mods, rng, digest) -> list[Op]:
    ops = []
    for family, k, n, cosines_of, stratum in CLASSICAL_CASES:
        phi = float(rng.uniform(0.2, 1.3))
        digest.add(family, phi)
        space = mods.families.construct_classical(family, k, n, phi=phi)
        moved = _rotated(mods, space, rng, digest)
        expect = dict(k=k, n=n, cosines=cosines_of(phi), proto="yes",
                      block_type=(k // 4, 0) if k % 4 == 0 else None,
                      strata=((stratum, None),))
        ops.append(Op(f"classify {family} k={k} n={n}",
                      lambda v=moved: mods.classify.classify_subspace(v),
                      lambda rec, e=expect: record_mismatch(rec, **e)))
    return ops


def _factorize_ops(mods, rng, digest) -> list[Op]:
    ops = []
    for k in (8, 16):
        l = k // 4
        split = int(rng.integers(0, l + 1))
        cos = two_class_cosines(rng)
        digest.add(k, split, cos)
        space = mods.families.construct_sum(_triple(mods, cos), split, l - split, k)
        moved = _rotated(mods, space, rng, digest)
        ops.append(Op(f"factorize k={k} type {(split, l - split)}",
                      lambda v=moved: mods.classify.factorize(v),
                      lambda blocks, v=moved, c=cos: blocks_mismatch(blocks, v.basis, c)))
    return ops


def _nonconstant_ops(mods, rng, digest) -> list[Op]:
    ops = []
    for k in (5, 8, 12):
        n = int(rng.integers(4, 17))
        basis = np.linalg.qr(rng.standard_normal((4 * n, k)))[0]
        digest.add(basis)
        space = mods.subspace.Subspace(basis)
        expect = dict(k=k, n=n, constant=False, proto="no")
        ops.append(Op(f"classify random k={k} n={n}",
                      lambda v=space: mods.classify.classify_subspace(v),
                      lambda rec, e=expect: record_mismatch(rec, **e)))
    return ops


def _roundtrip_ops(mods, rng, digest) -> list[Op]:
    """moduli_membership -> representative -> classify_subspace.

    The last two triples sit 1e-11 inside and outside the cos-sum = 1
    surface: the membership tolerance places them on it, so representative
    must realize them like the exact boundary triple.
    """
    two = two_class_cosines(rng)
    single = single_class_cosines(rng)
    edge = boundary_cosines(rng)
    cases = (
        ("two-class +1", two, 4, 4, 1, (1, 0), TWO_CLASS),
        ("two-class -1", two, 4, 4, -1, (0, 1), TWO_CLASS),
        ("single-class", single, 8, 8, None, (2, 0), (("single_class_region", None),)),
        ("boundary", edge, 8, 6, None, (0, 2), (("boundary_sum_surface", None),)),
        ("boundary -1e-11", edge - [0, 0, 1e-11], 8, 6, None, (0, 2),
         (("boundary_sum_surface", None),)),
        ("boundary +1e-11", edge + [0, 0, 1e-11], 8, 6, None, (0, 2),
         (("boundary_sum_surface", None),)),
    )
    ops = []
    for label, cos, k, n, branch, block_type, strata in cases:
        digest.add(label, cos, k, n, branch)
        triple = _triple(mods, cos)

        def call(t=triple, k=k, n=n, branch=branch):
            hits = mods.classify.moduli_membership(k, n, t)
            rep = mods.classify.representative(k, n, t, branch)
            return hits, mods.classify.classify_subspace(rep)

        def check(out, k=k, n=n, cos=cos, block_type=block_type, strata=strata):
            hits, record = out
            if strata_pairs(hits) != [list(s) for s in strata]:
                return f"membership {strata_pairs(hits)}, declared {[list(s) for s in strata]}"
            return record_mismatch(record, k=k, n=n, cosines=cos, block_type=block_type,
                                   proto="yes", strata=strata)

        ops.append(Op(f"round-trip {label} k={k} n={n}", call, check))
    return ops


def build_decisions_small(mods, seed: int, workdir: str, in_process: bool) -> Workload:
    rng = np.random.default_rng([seed, 2])
    digest = _Digest()
    ops = (_equivalence_ops(mods, rng, digest) + _classical_ops(mods, rng, digest)
           + _factorize_ops(mods, rng, digest) + _nonconstant_ops(mods, rng, digest)
           + _roundtrip_ops(mods, rng, digest))
    return Workload(ops, digest.hexdigest(), warmup=True)


# -- cli_readme ------------------------------------------------------------

THIRD = ".33333333333"

# The README's CLI block, verbatim, with the answer each command declares.
README_BLOCK = (
    ("construct --family v4 --cos 0.3 0.3 0.3 --sign - --n 4 --out vm.json",
     dict(kind="construct", k=4, n=4, cosines=(0.3, 0.3, 0.3), out="vm.json")),
    ("construct --family v3 --angles 1.0471975511965976 --sign - --n 2 --out v3.json",
     dict(kind="construct", k=3, n=2, cosines=(0.5, 0.5, 0.0), out="v3.json")),
    (f"construct --family sum --cos {THIRD} {THIRD} {THIRD} "
     "--lplus 1 --lminus 1 --n 7 --out witness.json",
     dict(kind="construct", k=8, n=7, cosines=(1 / 3, 1 / 3, 1 / 3), out="witness.json")),
    ("angles vm.json", dict(kind="angles", k=4, n=4, cosines=(0.3, 0.3, 0.3))),
    ("classify witness.json",
     dict(kind="classify", k=8, n=7, cosines=(1 / 3, 1 / 3, 1 / 3), block_type=(1, 1),
          proto="no", strata=(("boundary_sum_surface", None),))),
    ("moduli --k 4 --n 4",
     dict(kind="describe", strata=("single_class_region", "two_class_region"))),
    ("moduli --k 4 --n 4 --cos 0.3 0.3 0.3", dict(kind="member", strata=TWO_CLASS)),
    ("moduli --k 0 --n 3",
     dict(kind="describe", strata=(), actions=("N", "K", "SU(1,n+1)"))),
)


def _cli_mismatch(result, cwd: str, e: dict) -> str | None:
    payload, bad = cli_payload(result)
    if bad:
        return bad
    kind = e["kind"]
    if kind == "construct":
        if (payload.get("k"), payload.get("n")) != (e["k"], e["n"]) or not payload.get("constant"):
            return f"construct reported k={payload.get('k')} n={payload.get('n')} " \
                   f"constant={payload.get('constant')}"
        if not os.path.isfile(os.path.join(cwd, e["out"])):
            return f"construct wrote no {e['out']}"
        return cosines_mismatch(payload["cosines"], e["cosines"])
    if kind == "angles":
        if (payload.get("k"), payload.get("n")) != (e["k"], e["n"]) or not payload.get("constant"):
            return f"angles reported k={payload.get('k')} n={payload.get('n')} " \
                   f"constant={payload.get('constant')}"
        if not payload.get("joint_residual", 1.0) <= JOINT_RESIDUAL_TOL:
            return f"joint residual {payload.get('joint_residual')} above {JOINT_RESIDUAL_TOL}"
        return cosines_mismatch(payload["cosines"], e["cosines"])
    if kind == "classify":
        fields = {key: e[key] for key in ("k", "n", "cosines", "block_type", "proto", "strata")}
        return record_mismatch(payload, **fields)
    if kind == "describe":
        names = [s["name"] for s in payload.get("strata", [])]
        if names != list(e["strata"]):
            return f"strata {names}, declared {list(e['strata'])}"
        actions = [a["action"] for a in payload.get("special_actions", [])]
        if actions != list(e.get("actions", ())):
            return f"special actions {actions}, declared {list(e.get('actions', ()))}"
        return None
    if kind == "member":
        got = strata_pairs(payload.get("strata", []))
        if not payload.get("member") or got != [list(s) for s in e["strata"]]:
            return f"membership {got}, declared {[list(s) for s in e['strata']]}"
        return None
    raise ValueError(f"unknown CLI check {kind!r}")


class _CliRunner:
    """Runs CLI commands in a fresh directory per cycle."""

    def __init__(self, mods, src_dir: str, workdir: str, in_process: bool):
        self.mods = mods
        self.workdir = workdir
        self.in_process = in_process
        self.cwd = None
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def begin_cycle(self) -> None:
        self.cwd = tempfile.mkdtemp(prefix="cycle-", dir=self.workdir)

    def end_cycle(self) -> None:
        shutil.rmtree(self.cwd, ignore_errors=True)
        self.cwd = None

    def run(self, argv: list[str]):
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "qka.cli", *argv], cwd=self.cwd,
                                  env=self.env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        previous = os.getcwd()
        os.chdir(self.cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.mods.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
        finally:
            os.chdir(previous)
        return code, out.getvalue(), err.getvalue()


def build_cli_readme(mods, seed: int, workdir: str, in_process: bool) -> Workload:
    rng = np.random.default_rng([seed, 3])
    digest = _Digest()
    files_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
    src_dir = os.path.dirname(os.path.dirname(mods.cli.__file__))
    runner = _CliRunner(mods, src_dir, workdir, in_process)
    commands = [(line.split(), expect) for line, expect in README_BLOCK]
    for k, block_type in ((32, (4, 4)), (64, (8, 8))):
        cos = two_class_cosines(rng)
        space = mods.families.construct_sum(_triple(mods, cos), *block_type, k)
        moved = _rotated(mods, space, rng, digest)
        path = os.path.join(files_dir, f"sum{k}.json")
        meta = {"family": "sum_type", "cosines": cos.tolist(),
                "l_plus": block_type[0], "l_minus": block_type[1]}
        mods.serialize.save_subspace(path, moved, meta)
        with open(path, "rb") as fh:
            digest.add(fh.read())
        commands.append((["angles", path], dict(kind="angles", k=k, n=k, cosines=cos)))
        commands.append((["classify", path],
                         dict(kind="classify", k=k, n=k, cosines=cos, block_type=block_type,
                              proto="no", strata=TWO_CLASS)))
    ops = []
    for argv, expect in commands:
        digest.add([os.path.basename(a) for a in argv])
        ops.append(Op("qka " + " ".join(os.path.basename(a) for a in argv),
                      lambda argv=argv: runner.run(argv),
                      lambda res, e=expect: _cli_mismatch(res, runner.cwd, e)))
    return Workload(ops, digest.hexdigest(), warmup=False, in_process=in_process,
                    begin_cycle=runner.begin_cycle, end_cycle=runner.end_cycle,
                    close=lambda: shutil.rmtree(files_dir, ignore_errors=True))


BUILDERS = {
    "cli_readme": build_cli_readme,
    "classify_large": build_classify_large,
    "decisions_small": build_decisions_small,
}
