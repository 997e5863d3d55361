"""qka benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload classify_large --seed 1 --seconds 30 --trace 0

The benchmark imports ``src/qka`` of the checkout it sits in and runs the
CLI as ``python -m qka.cli`` with that ``PYTHONPATH``.  Each workload is a
closed loop with one client: the next op starts when the previous one has
returned.  Every answer is checked against what the input generator
declared.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
an untraced and a traced in-process loop and prints the per-layer metrics.
The last line of standard output is the result; the line before it holds
the provenance.  Details and spans go to ``.bench_work/`` in the checkout.
BLAS thread settings are left as found and recorded, never set.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import Refused
from tracing import COUNTERS, Tracer, assert_unwrapped, target_names
from workloads import BUILDERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5
# Percentiles need at least ten samples beyond p90.
MIN_OPS = 100
# Share of cycles, the fastest, that the timing metrics are computed from.
KEEP = 0.75
INTERPRETER_REPEATS = 5
IMPORT_REPEATS = 3
# Nominal time of Reference.seconds(): its median on the 2-vCPU host the
# baseline was measured on, while that host was quiet.
REFERENCE_S = 0.005


class Reference:
    """A fixed computation that calls nothing in qka, timed after each cycle.

    Other tenants of a shared host slow every process on it by up to half
    for tens of seconds at a time, far longer than a cycle, so run-to-run
    spreads of raw times exceed any useful bound.  The reference slows down
    with them: every time metric is scaled by REFERENCE_S over the run's
    median reference time (``speed_factor``), and the raw values are kept in
    the provenance line.  The mix (a Python loop, small products, batched
    3x3 eigenvalues and SVDs) resembles what the ops execute.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.square = rng.standard_normal((16, 16))
        batch = rng.standard_normal((100, 3, 3))
        self.batch = batch + batch.transpose(0, 2, 1)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        for _ in range(30):
            self.square @ self.square
            np.linalg.eigvalsh(self.batch)
            np.linalg.svd(self.square)
        return time.perf_counter() - t0


def _fail(message: str, code: int = 2) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def load_qka():
    """Import qka from the checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import qka  # noqa: F401
    from qka import classify, cli, families, quaternion, serialize, subspace

    if Path(qka.__file__).resolve().parent != (SRC / "qka").resolve():
        raise ImportError(f"qka resolved to {qka.__file__}, not {SRC / 'qka'}")
    return argparse.Namespace(qka=qka, cli=cli, serialize=serialize, families=families,
                              quaternion=quaternion, subspace=subspace, classify=classify)


# -- measurement ----------------------------------------------------------

def run_op(op):
    """Run one op: (seconds, outcome, reason) with outcome ok/refused/wrong."""
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a refusal is data, not a benchmark error
        return time.perf_counter() - t0, "refused", f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        reason = op.check(out)
    except Refused as exc:
        return elapsed, "refused", str(exc)
    return elapsed, ("wrong" if reason else "ok"), reason


def closed_loop(workload, seconds: float, min_ops: int, tracer=None) -> dict:
    """Whole cycles over the ops until ``seconds`` have passed and the kept
    cycles hold at least ``min_ops`` ops.  Checks and the reference run
    between ops, off the op clock."""
    reference = Reference()
    cycles, outcomes = [], {"ok": 0, "refused": 0, "wrong": 0}
    start = time.perf_counter()
    while True:
        workload.begin_cycle()
        cycle = {"latencies": [], "failed": []}
        try:
            for op in workload.ops:
                if tracer is not None:
                    tracer.op = len(cycles) * len(workload.ops) + len(cycle["latencies"])
                elapsed, outcome, reason = run_op(op)
                cycle["latencies"].append(elapsed)
                outcomes[outcome] += 1
                if outcome != "ok":
                    cycle["failed"].append([op.name, outcome, reason])
        finally:
            workload.end_cycle()
        cycle["reference"] = reference.seconds()
        cycles.append(cycle)
        kept = math.ceil(KEEP * len(cycles)) * len(workload.ops)
        if time.perf_counter() - start >= seconds and kept >= min_ops:
            break
    return {"cycles": cycles, "outcomes": outcomes, "wall_s": time.perf_counter() - start}


def kept_latencies(loop: dict) -> list[float]:
    """Op latencies of the faster KEEP share of cycles, ranked by op time.

    Every cycle runs the same ops on the same inputs, so the spread between
    cycles is mostly interference from other processes on the machine;
    dropping the slowest quarter keeps the figures steady from run to run.
    """
    ranked = sorted(loop["cycles"], key=lambda c: sum(c["latencies"]))
    kept = ranked[:math.ceil(KEEP * len(ranked))]
    return [x for c in kept for x in c["latencies"]]


def speed_factor(cycles: list) -> float:
    """REFERENCE_S over the median reference time: below 1 on a slow host."""
    return REFERENCE_S / statistics.median(c["reference"] for c in cycles)


def failure_summary(cycles: list) -> list:
    """Failed ops per cycle, with runs of identical cycles merged."""
    groups = []
    for index, failed in enumerate(c["failed"] for c in cycles):
        if groups and groups[-1]["failed_ops"] == failed:
            groups[-1]["cycles"][1] = index
        else:
            groups.append({"cycles": [index, index], "failed_ops": failed})
    return [g for g in groups if g["failed_ops"]]


def set_up(build, mods, seed: int, repeats: int):
    """Build the workload ``repeats`` times; the digests must agree."""
    times, digests, workload = [], set(), None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        t0 = time.perf_counter()
        workload = build(mods, seed, str(WORK), False)
        if workload.warmup:
            for op in workload.ops:
                run_op(op)
        times.append(time.perf_counter() - t0)
        digests.add(workload.digest)
    if len(digests) != 1:
        raise RuntimeError("equal seeds generated different inputs")
    return workload, times


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(name: str, mods, seed: int, seconds: float,
                 min_ops: int = MIN_OPS) -> tuple[dict, dict]:
    assert_unwrapped()
    workload, setup_times = set_up(BUILDERS[name], mods, seed, SETUP_REPEATS)
    try:
        loop = closed_loop(workload, seconds, min_ops)
    finally:
        workload.close()
    lat = kept_latencies(loop)
    attempted = sum(loop["outcomes"].values())
    raw = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
    }
    factor = speed_factor(loop["cycles"])
    metrics = {
        "setup_s": (raw["setup_s"] * factor, "s"),
        "ops_per_s": (raw["ops_per_s"] / factor, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * factor, "ms"),
        "latency_p90_ms": (raw["latency_p90_ms"] * factor, "ms"),
        "ok_ratio": (loop["outcomes"]["ok"] / attempted, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(children=not workload.in_process), "MB"),
    }
    info = {"speed_factor": factor, "raw_times": raw,
            "setup_times_s": setup_times, "input_digest": workload.digest,
            "ops_per_cycle": len(workload.ops), "cycles": len(loop["cycles"]),
            "ops": attempted, "latency_samples": len(lat), "loop_wall_s": loop["wall_s"],
            "outcomes": loop["outcomes"], "failures": failure_summary(loop["cycles"])}
    return metrics, info


# -- traced run -----------------------------------------------------------

def interpreter_ms() -> float:
    times = []
    for _ in range(INTERPRETER_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def import_ms() -> tuple[float, float]:
    """Cumulative import time of qka.cli and of numpy from -X importtime."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    cli_ms, numpy_ms = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qka.cli"],
                              env=env, capture_output=True, text=True, check=True,
                              timeout=60, cwd=str(WORK))
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        cli_ms.append((cumulative["qka"] + cumulative["qka.cli"]) / 1e3)
        numpy_ms.append(cumulative["numpy"] / 1e3)
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def run_traced(name: str, mods, seed: int, seconds: float) -> tuple[dict, dict]:
    """Half the time untraced, half traced, both in-process; per-layer
    values are one traced set-up plus the mean over the traced cycles."""
    build = BUILDERS[name]
    assert_unwrapped()
    workload = build(mods, seed, str(WORK), True)
    try:
        if workload.warmup:
            for op in workload.ops:
                run_op(op)
        base = closed_loop(workload, seconds / 2, 1)
    finally:
        workload.close()

    tracer = Tracer()
    tracer.op = "setup"
    tracer.install()
    try:
        workload = build(mods, seed, str(WORK), True)
        try:
            loop = closed_loop(workload, seconds / 2, 1, tracer)
        finally:
            workload.close()
    finally:
        tracer.remove()
    assert_unwrapped()

    cycles = len(loop["cycles"])
    ops = cycles * len(workload.ops)
    factor = speed_factor(loop["cycles"])
    setup, per_loop = tracer.totals(setup=True), tracer.totals(setup=False)
    metrics = {}
    for target in target_names():
        for key, unit in (("calls", "count"), ("self_ms", "ms"), ("failed", "count")):
            value = setup[target][key] + per_loop[target][key] / cycles
            metrics[f"{target}.{key}"] = (value * factor if key == "self_ms" else value, unit)
    for counter in COUNTERS:
        value = tracer.counters["setup"][counter] + tracer.counters["loop"][counter] / cycles
        unit = "bytes" if counter.startswith("serialize") else "count"
        metrics[counter] = (value, unit)
    for target in ("subspace.constancy_check", "subspace.joint_canonical_basis"):
        metrics[f"{target}.per_op"] = (per_loop[target]["calls"] / ops, "calls/op")
    base_lat, traced_lat = kept_latencies(base), kept_latencies(loop)
    base_rate = len(base_lat) / sum(base_lat) / speed_factor(base["cycles"])
    traced_rate = len(traced_lat) / sum(traced_lat) / factor
    metrics["trace.overhead_ratio"] = (traced_rate / base_rate, "ratio")
    metrics["cli.interpreter_ms"] = (interpreter_ms() * factor, "ms")
    metrics["cli.import_ms"], metrics["cli.import_numpy_ms"] = (
        (value * factor, "ms") for value in import_ms())

    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{name}.jsonl"
    tracer.write(spans_path)
    outcomes = {key: base["outcomes"][key] + loop["outcomes"][key] for key in base["outcomes"]}
    info = {"speed_factor": factor, "input_digest": workload.digest,
            "ops_per_cycle": len(workload.ops),
            "untraced_cycles": len(base["cycles"]), "traced_cycles": cycles,
            "untraced_ops": sum(base["outcomes"].values()), "traced_ops": ops,
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
            "outcomes": outcomes,
            "failures": failure_summary(base["cycles"] + loop["cycles"])}
    return metrics, info


# -- provenance -----------------------------------------------------------

def blas_info() -> dict:
    """OpenBLAS version and the thread count it runs with, read, not set."""
    info = {"env": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = None
    return info


def provenance(mods, args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "qka").glob("*.py")):
        src_hash.update(path.name.encode())
        src_hash.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "src_sha256": src_hash.hexdigest(),
        "qka_file": str(Path(mods.qka.__file__).resolve()),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "load_shape": "closed loop, one client, one process",
        "setup_repeats": SETUP_REPEATS, "kept_cycle_share": KEEP, "min_kept_ops": MIN_OPS,
        "reference_s": REFERENCE_S,
    }


# -- entry ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qka" / "__init__.py").is_file():
        return _fail(f"no qka package under {SRC}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return _fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    # The program's own sampling seed stays at its default.
    os.environ.pop("QKA_SEED", None)
    try:
        mods = load_qka()
    except ImportError as exc:
        return _fail(f"cannot import qka from {SRC}: {exc}")
    WORK.mkdir(exist_ok=True)

    runner = run_traced if args.trace else run_untraced
    metrics, info = runner(args.workload, mods, args.seed, args.seconds)

    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != declared:
        return _fail("printed metrics differ from BENCHMARK.json: missing "
                     f"{sorted(declared - set(metrics))}, extra {sorted(set(metrics) - declared)}",
                     code=3)
    outcomes = info["outcomes"]
    attempted = sum(outcomes.values())
    record = {"provenance": provenance(mods, args), **info}
    detail = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n",
                      encoding="utf-8")
    for group in info["failures"]:
        first, last = group["cycles"]
        for op_name, outcome, reason in group["failed_ops"]:
            print(f"bench: cycles {first}-{last}: {op_name}: {outcome}: {reason}",
                  file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": outcomes["wrong"] == 0,
        "attempted": attempted,
        "failed": outcomes["refused"] + outcomes["wrong"],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
