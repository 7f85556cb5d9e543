"""Outside-in tracer for majgeom's public functions.

Every traced function object is bound under its name in several modules
(``from .bloch import as_bloch`` binds it in ``qubit_values``,
``nlevel_values`` and ``cli``; ``__init__`` re-exports it, sometimes under
another name).  ``install`` therefore rebinds every attribute of every loaded
``majgeom`` module that *is* the function object, including the defining
module, so calls from inside that module are caught too.  The source tree is
never edited.

Spans live in flat in-memory arrays while the workload runs and are written
out once at the end.  A single-thread stack gives each span its parent; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

# The public functions of each layer, by defining module.
LAYERS = {
    "numerics": ("solve_polynomial", "eig_hermitian", "unitary_exp"),
    "bloch": ("as_bloch", "qubit_to_bloch", "bloch_to_qubit", "solid_angle_triangle",
              "solid_angle_quadrangle", "rodrigues_rotate"),
    "qubit_values": ("projector_weak_value_direct", "projector_weak_value_geometric",
                     "modular_value_direct", "modular_value_geometric"),
    "majorana": ("nlevel_state", "majorana_points", "symmetrize", "normalization_factor",
                 "qutrit_roots_closed_form", "discriminant_degeneracy"),
    "canonical": ("canonicalize_triple",),
    "nlevel_values": ("weak_value_direct", "modular_value_direct", "factored_weak_value",
                      "factored_modular_value", "pair_points",
                      "qutrit_projector_weak_value_geometric",
                      "qutrit_modular_value_geometric"),
    "experiments": ("singularity_scan", "three_box_report"),
    "cli": ("run",),
}

# Functions whose cost grows as m! in the number m of points they are given;
# their spans record m so that the enumerated terms can be counted.
FACTORIAL = ("majorana.normalization_factor", "nlevel_values.pair_points")

# Self time per call split by state dimension N (stellar-highN only).
SPLIT_BY_N = ("majorana.majorana_points", "majorana.normalization_factor",
              "nlevel_values.pair_points")
SPLIT_DIMENSIONS = (4, 5, 6, 7, 8)

# Metric names are capped at 64 characters; this one function's name is too
# long for the ``.self_us_per_op`` suffix and takes ``.self_us`` instead.
_SHORT_SUFFIX = {"nlevel_values.qutrit_projector_weak_value_geometric"}

def function_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def self_time_name(qualified: str) -> str:
    suffix = "self_us" if qualified in _SHORT_SUFFIX else "self_us_per_op"
    return f"{qualified}.{suffix}"


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units: dict[str, str] = {}
    for qualified in function_names():
        units[f"{qualified}.calls_per_op"] = "calls/op"
        units[self_time_name(qualified)] = "us/op"
    units["majorana.normalization_factor.perm_terms_per_op"] = "terms/op"
    units["nlevel_values.pair_points.perms_per_op"] = "perms/op"
    for qualified in SPLIT_BY_N:
        for n in SPLIT_DIMENSIONS:
            units[f"{qualified}.self_us_per_call.n{n}"] = "us/call"
    units["cli.bytes_out_per_op"] = "B/op"
    units["check.raised"] = "count"
    units["check.refused"] = "count"
    units["check.gap_exceeded"] = "count"
    units["check.failed_frac"] = "ratio"
    units["check.max_rel_gap"] = "ratio"
    units["trace_overhead_frac"] = "ratio"
    return units


class Tracer:
    """Records one span per call of a traced function.

    ``op`` is the index of the benchmark operation in progress; spans of one
    operation share it.
    """

    def __init__(self) -> None:
        self.names = function_names()
        self.op = -1
        self.name = array("i")
        self.parent = array("q")
        self.op_index = array("q")
        self.size = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def _wrap(self, fn, index: int, sized: bool):
        name, parent, op_index, size = self.name, self.parent, self.op_index, self.size
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            op_index.append(tracer.op)
            size.append(len(args[0]) if sized else 0)
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded ``majgeom`` module."""
        if not self._bindings:
            modules = [m for key, m in sorted(sys.modules.items())
                       if m is not None and (key == "majgeom" or key.startswith("majgeom."))]
            for index, qualified in enumerate(self.names):
                layer, fname = qualified.split(".")
                original = getattr(sys.modules[f"majgeom.{layer}"], fname)
                wrapper = self._wrap(original, index, qualified in FACTORIAL)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._bindings.append((module, attr, original, wrapper))
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def save(self, path) -> None:
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int64),
            op=np.frombuffer(self.op_index, np.int64),
            size=np.frombuffer(self.size, np.int32),
            start_ns=np.frombuffer(self.start, np.int64),
            end_ns=np.frombuffer(self.end, np.int64))

    def layer_metrics(self, dimensions: list) -> dict[str, float]:
        """Per-layer metrics over the traced operations.

        ``dimensions[k]`` is the state dimension N of operation k, or None
        when the workload has none; the per-N split uses it.
        """
        import numpy as np
        name = np.frombuffer(self.name, np.int32)
        parent = np.frombuffer(self.parent, np.int64)
        size = np.frombuffer(self.size, np.int32)
        op = np.frombuffer(self.op_index, np.int64)
        duration = (np.frombuffer(self.end, np.int64)
                    - np.frombuffer(self.start, np.int64)).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=name.size)
        self_ns = duration - child
        # Spans outside any operation (the checks) are not counted.
        keep = op >= 0
        name, size, op, self_ns = name[keep], size[keep], op[keep], self_ns[keep]
        n_ops = len(dimensions)
        calls = np.bincount(name, minlength=len(self.names))
        self_total = np.bincount(name, weights=self_ns, minlength=len(self.names))

        out: dict[str, float] = {}
        for index, qualified in enumerate(self.names):
            out[f"{qualified}.calls_per_op"] = float(calls[index]) / n_ops
            out[self_time_name(qualified)] = float(self_total[index]) / 1e3 / n_ops
        terms = {qualified: sum(math.factorial(int(m))
                                for m in size[name == self.names.index(qualified)])
                 for qualified in FACTORIAL}
        out["majorana.normalization_factor.perm_terms_per_op"] = \
            terms["majorana.normalization_factor"] / n_ops
        out["nlevel_values.pair_points.perms_per_op"] = \
            terms["nlevel_values.pair_points"] / n_ops
        dims = np.array([d or 0 for d in dimensions])[op]
        for qualified in SPLIT_BY_N:
            picked = name == self.names.index(qualified)
            for n in SPLIT_DIMENSIONS:
                sel = picked & (dims == n)
                value = float(self_ns[sel].mean()) / 1e3 if sel.any() else 0.0
                out[f"{qualified}.self_us_per_call.n{n}"] = value
        return out
