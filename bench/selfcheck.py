"""Self-checks for the benchmark's own code.

    python3 bench/selfcheck.py

Checks that equal seeds generate identical inputs and different seeds
different ones; that the metric names each mode prints are exactly those in
BENCHMARK.json; that a traced run leaves every qka binding as it found it;
and that BENCHMARK.json keeps to its format limits.  Short runs only: it
takes well under a minute.  Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import re
import sys

import run
from tracing import assert_unwrapped, bindings
from workloads import BUILDERS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok  {message}")


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    check(all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names)),
          "every name is well formed and used once")
    metrics = spec["end_to_end"] + spec["per_layer"]
    check(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
              for m in metrics), "every unit and direction is well formed")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values())
          and bounds["setup_s"] == max(bounds.values()),
          "bounds lie in (0, 0.25] and setup_s has the largest")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]),
          "every workload rationale is one line of at most 200 characters")


def check_inputs(mods, seed: int) -> None:
    for name, build in BUILDERS.items():
        digests = []
        for s in (seed, seed, seed + 1):
            workload = build(mods, s, str(run.WORK), False)
            digests.append(workload.digest)
            workload.close()
        check(digests[0] == digests[1], f"{name}: equal seeds give identical inputs")
        check(digests[0] != digests[2], f"{name}: different seeds give different inputs")


def check_runs(mods, spec: dict, seed: int) -> None:
    declared = {mode: {m["name"] for m in spec[mode]} for mode in ("end_to_end", "per_layer")}
    originals = bindings()
    for name in BUILDERS:
        metrics, _ = run.run_untraced(name, mods, seed, 0.5, min_ops=1)
        check(set(metrics) == declared["end_to_end"],
              f"{name}: untraced metric names match BENCHMARK.json")
        metrics, _ = run.run_traced(name, mods, seed, 1.0)
        check(set(metrics) == declared["per_layer"],
              f"{name}: traced metric names match BENCHMARK.json")
        assert_unwrapped()
        same = all(bindings()[target] is original for target, original in originals.items())
        check(same, f"{name}: every wrapper removed after the traced run")
        if name == "classify_large":
            per_op = metrics["subspace.constancy_check.per_op"][0]
            check(per_op > 0, f"{name}: constancy_check spans recorded ({per_op} per op)")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    mods = run.load_qka()
    run.WORK.mkdir(exist_ok=True)
    check_inputs(mods, seed=7)
    check_runs(mods, spec, seed=7)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
