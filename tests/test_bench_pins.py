"""The names the benchmark harness reads from the program, checked here so
that a move or a rename fails in the suite before it fails a traced run.

`bench/tracing.py` looks up each wrapped function as
``vars(sys.modules["qka.<module>"])[name]`` and binds the ``samples``
argument of two of them; `bench/run.py` parses ``-X importtime`` of
``import qka.cli`` for the ``numpy``, ``qka`` and ``qka.cli`` lines.
"""

import argparse
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qka

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("cli", "serialize", "families", "quaternion", "subspace", "classify")


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ next to the harness
    sys.modules[name] = module  # a dataclass looks its module up as it is defined
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
        del sys.modules[name]
    return module


def _tracing():
    return _load("bench_tracing", "tracing.py")


def test_every_traced_target_is_bound_where_the_harness_looks():
    for name in MODULES:
        importlib.import_module(f"qka.{name}")
    tracing = _tracing()
    bound = tracing.bindings()
    assert sorted(bound) == sorted(tracing.target_names())
    assert all(callable(fn) for fn in bound.values())
    for name in ("subspace.constancy_check", "subspace.joint_canonical_basis"):
        assert "samples" in inspect.signature(bound[name]).parameters, name


def test_importtime_lists_numpy_qka_and_the_cli():
    src = os.path.dirname(os.path.dirname(qka.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qka.cli"],
                          env=env, capture_output=True, text=True, check=True, timeout=60)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1])
    assert {"numpy", "qka", "qka.cli"} <= cumulative.keys()


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("workload", ["classify_large", "decisions_small"])
def test_one_workload_cycle_passes_the_benchmark_checks(monkeypatch, tmp_path, workload, seed):
    # One in-process cycle, checked by the benchmark's own answer checks, so
    # that a wrong answer on a measured workload fails here first.
    # `workloads.py` imports its checks as the top-level module `checks`.
    monkeypatch.setitem(sys.modules, "checks", _load("checks", "checks.py"))
    workloads = _load("bench_workloads", "workloads.py")
    mods = argparse.Namespace(qka=qka, **{name: importlib.import_module(f"qka.{name}")
                                          for name in MODULES})
    ops = workloads.BUILDERS[workload](mods, seed, str(tmp_path), True).ops
    assert ops
    failures = {op.name: op.check(op.call()) for op in ops}
    assert {name: reason for name, reason in failures.items() if reason} == {}
