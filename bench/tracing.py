"""Per-layer tracing by wrapping qka's public functions from outside.

A ``Tracer`` replaces every binding of each target function -- in its
defining module and in every ``qka`` module that imported it -- with a
wrapper that records a span (name, start, end, parent, op) and a few
counters.  ``remove`` puts the originals back.  Nothing inside ``src/`` is
edited; the untraced run never has a wrapper installed.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# (module, attribute path) of every function the traced run wraps.  The
# ``oracles`` and ``selftest`` modules are test-only and stay unwrapped.
TARGETS = (
    ("cli", "main"),
    ("serialize", "load_subspace"),
    ("serialize", "save_subspace"),
    ("families", "construct"),
    ("families", "construct_sum"),
    ("quaternion", "random_group_element"),
    ("quaternion", "GroupElement.apply_coords"),
    ("subspace", "constancy_check"),
    ("subspace", "joint_canonical_basis"),
    ("subspace", "pbar_operator"),
    ("subspace", "vector_qka"),
    ("classify", "classify_subspace"),
    ("classify", "type_of"),
    ("classify", "is_protohomogeneous"),
    ("classify", "branch_of_v3"),
    ("classify", "are_equivalent"),
    ("classify", "factorize"),
    ("classify", "moduli_membership"),
    ("classify", "representative"),
)

COUNTERS = (
    "serialize.bytes_read",
    "serialize.bytes_written",
    "subspace.omega_matrices",
    "classify.unknown",
)

_MARK = "__bench_original__"


def target_names() -> list[str]:
    return [f"{module}.{path}" for module, path in TARGETS]


def _qka_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qka" or name.startswith("qka."))]


def _definition(name: str) -> tuple[object, str]:
    """The module or class that defines a target, and the attribute name."""
    module_name, *path = name.split(".")
    holder = sys.modules[f"qka.{module_name}"]
    for part in path[:-1]:
        holder = getattr(holder, part)
    return holder, path[-1]


def bindings() -> dict[str, object]:
    """Each target as its defining module or class holds it now."""
    out = {}
    for name in target_names():
        holder, attr = _definition(name)
        out[name] = vars(holder)[attr]
    return out


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Spans and counters for one traced phase; install, run, then remove."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, t0, t1, failed, op]
        self.counters = {"setup": dict.fromkeys(COUNTERS, 0),
                         "loop": dict.fromkeys(COUNTERS, 0)}
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        assert_unwrapped()
        modules = _qka_modules()
        for name, original in bindings().items():
            wrapper = self._wrap(name, original)
            holder, attr = _definition(name)
            if isinstance(holder, type):
                self._patch(holder, attr, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, holder, attr, wrapper) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, wrapper)

    def remove(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        assert_unwrapped()

    # -- spans ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        count = self._counter_hook(name, signature)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, time.perf_counter(), None, False, self.op]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _add(self, counter: str, amount: int) -> None:
        self.counters["setup" if self.op == "setup" else "loop"][counter] += amount

    def _counter_hook(self, name: str, signature: inspect.Signature):
        if name in ("subspace.constancy_check", "subspace.joint_canonical_basis"):
            def count(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._add("subspace.omega_matrices", int(bound.arguments["samples"]))
            return count
        if name == "serialize.save_subspace":
            def count(args, kwargs, result):
                path = args[0] if args else kwargs.get("path")
                self._add("serialize.bytes_written", _file_size(path))
            return count
        if name == "serialize.load_subspace":
            def count(args, kwargs, result):
                path = args[0] if args else kwargs.get("path")
                self._add("serialize.bytes_read", _file_size(path))
            return count
        if name in ("classify.is_protohomogeneous", "classify.are_equivalent"):
            def count(args, kwargs, result):
                if getattr(result, "value", None) == "unknown":
                    self._add("classify.unknown", 1)
            return count
        return None

    # -- aggregation ----------------------------------------------------
    def totals(self, setup: bool) -> dict[str, dict[str, float]]:
        """Calls, failed calls and self time (ms) per target, over the spans
        of the set-up (``op == "setup"``) or of the timed loop."""
        out = {name: {"calls": 0, "failed": 0, "self_ms": 0.0} for name in target_names()}
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, t0, t1, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        for sid, _, name, t0, t1, failed, op in self.spans:
            if (op == "setup") != setup:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["failed"] += int(failed)
            entry["self_ms"] += 1e3 * (t1 - t0 - child_time[sid])
        return out

    def write(self, path) -> None:
        """Spans as JSON lines of [id, parent, name, start_ms, end_ms, failed, op]."""
        base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, failed, op in self.spans:
                fh.write(json.dumps([sid, parent, name, round(1e3 * (t0 - base), 4),
                                     round(1e3 * (t1 - base), 4), failed, op]))
                fh.write("\n")


def assert_unwrapped() -> None:
    """Raise if any qka module or target class still holds a wrapper."""
    leaks = []
    for module in _qka_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                leaks.append(f"{module.__name__}.{attr}")
    leaks += [name for name, value in bindings().items()
              if isinstance(_definition(name)[0], type) and hasattr(value, _MARK)]
    if leaks:
        raise RuntimeError(f"tracing wrappers left installed: {', '.join(leaks)}")
