"""One workload process: import majgeom, generate inputs, run, check, report.

``run.py`` starts this with OpenBLAS pinned to one thread and ``src`` on
``PYTHONPATH``.  The process is single-threaded and closed-loop: each call
into majgeom returns before the next one starts.  It pins itself, and so the
processes it starts, to one CPU.  It prints one JSON object as its last line
of output.  The untraced run also starts fresh processes that only time
``import majgeom``, between rounds, for ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

SETUP_SAMPLES = 30
REFERENCE_EVERY_NS = 50_000_000
REFERENCE_WINDOW_NS = 1_000_000_000
# The reference task's time in a fast phase of the baseline host (Intel Xeon,
# 2.0 GHz); scaled times read as that host's fast-phase times.
REFERENCE_NOMINAL_NS = 200_000
IMPORT_PROBE = ("import time; start = time.perf_counter(); import majgeom; "
                "print(time.perf_counter() - start)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


class Tally:
    """Outcome counts over every checked operation of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.raised = 0
        self.refused = 0
        self.gap_exceeded = 0
        self.failed = 0
        self.max_gap = 0.0
        self.wrong: list[str] = []

    def add(self, verdict=None, *, refused=None, raised=None) -> None:
        self.attempted += 1
        if refused is not None:
            self.refused += 1
        elif raised is not None:
            self.raised += 1
            self.wrong.append(raised)
        else:
            self.max_gap = max(self.max_gap, verdict.gap)
            if verdict.failed:
                self.gap_exceeded += 1
            if verdict.wrong is not None:
                self.wrong.append(verdict.wrong)
        if refused is not None or raised is not None or verdict.failed:
            self.failed += 1


class HostSpeed:
    """Tracks the host's speed with a fixed task that does not use majgeom.

    On a shared host raw times move with the neighbours' load: the baseline
    host ran up to twice as slow for seconds to minutes at a time, on one CPU
    and not the other.  ``sample`` times the reference task (Python bytecode
    and small numpy calls, the mix the workloads run) on the worker's CPU
    between operations.  ``factors`` gives, for each span, the factor that
    turns its raw time into the time the same work takes when the reference
    takes ``REFERENCE_NOMINAL_NS``, from the median of the reference times
    within a second of the span.  A change to majgeom does not change the
    reference, so it shows in full.
    """

    def __init__(self) -> None:
        import numpy as np
        self.np = np
        self.matrix = np.random.default_rng(0).normal(size=(3, 3)) + 0j
        self.at_ns: list[int] = []
        self.took_ns: list[int] = []
        self.sample()

    def _task(self) -> float:
        np, matrix = self.np, self.matrix
        total = 0.0
        for k in range(1000):
            total += k * 0.5
        for _ in range(20):
            product = matrix @ matrix
            total += float(np.linalg.norm(product)) + abs(complex(np.vdot(product[0],
                                                                          product[1])))
        return total

    def sample(self) -> None:
        """Time the task's second of two runs, so that what the last
        operation left in the caches does not count."""
        self._task()
        start = time.perf_counter_ns()
        self._task()
        end = time.perf_counter_ns()
        self.at_ns.append(end)
        self.took_ns.append(end - start)

    def sample_if_due(self) -> None:
        if time.perf_counter_ns() - self.at_ns[-1] >= REFERENCE_EVERY_NS:
            self.sample()

    def factors(self, starts_ns, ends_ns) -> list[float]:
        """The scale factor of each span from ``starts_ns[k]`` to ``ends_ns[k]``."""
        np = self.np
        at = np.asarray(self.at_ns)
        took = np.asarray(self.took_ns, dtype=float)
        lo = np.searchsorted(at, np.asarray(starts_ns) - REFERENCE_WINDOW_NS)
        hi = np.searchsorted(at, np.asarray(ends_ns) + REFERENCE_WINDOW_NS, side="right")
        local: dict = {}
        for i, j in zip(lo.tolist(), hi.tolist()):
            if (i, j) not in local:
                local[i, j] = REFERENCE_NOMINAL_NS / float(np.median(took[i:j]))
        return [local[i, j] for i, j in zip(lo.tolist(), hi.tolist())]


class Runner:
    """Times each operation from outside and checks it outside the timing."""

    def __init__(self, workload, tally: Tally, mg, tracer=None, speed=None) -> None:
        self.workload = workload
        self.tally = tally
        self.mg = mg
        self.tracer = tracer
        self.speed = speed
        # Compact, so that the bookkeeping barely shows in peak_rss_mb.
        self.starts_ns = array("q")
        self.ends_ns = array("q")
        self.inputs = array("q")
        self.dimensions: list[int | None] = []
        self.bytes_out = 0

    def one(self, op) -> None:
        wl = self.workload
        if self.tracer is not None:
            self.tracer.op = len(self.starts_ns)
        out = refused = raised = None
        start = time.perf_counter_ns()
        try:
            out = wl.run(op)
        except self.mg.MajgeomError as exc:
            refused = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # any other exception is a wrong result; report it
            raised = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.op = -1
        verdict = None
        if out is not None:
            verdict = wl.verdict(op, out)
            self.bytes_out += wl.bytes_out(op, out)
        self.tally.add(verdict, refused=refused, raised=raised)
        self.starts_ns.append(start)
        self.ends_ns.append(end)
        self.inputs.append(id(op))
        self.dimensions.append(wl.dimension(op))
        if self.speed is not None:
            self.speed.sample_if_due()

    def latencies_ns(self) -> list[int]:
        return [end - start for start, end in zip(self.starts_ns, self.ends_ns)]


def median_per_input(values: list, inputs) -> list:
    """Each input's median over its repeats, one value per input run.

    A round's operations are the same objects on every pass, so ``id(op)``
    names an input.  The median over repeats takes the jitter of single
    operations out of the percentiles, which then spread over inputs only.
    """
    by_input: dict = {}
    for value, key in zip(values, inputs):
        by_input.setdefault(key, []).append(value)
    return [statistics.median(v) for v in by_input.values()]


def warm_up(workload) -> None:
    """Run the first operation once, untimed.  The loop runs and checks the
    same operation first, so an exception here is reported there."""
    with contextlib.suppress(Exception):
        workload.run(workload.rounds[0][0])


def environment(nproc: int) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu": cpu,
        "nproc": nproc,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
    }


def _percentile_ms(latencies_ns, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(latencies_ns, dtype=float), q)) / 1e6


def import_probe() -> tuple[float, tuple[int, int]]:
    """``import majgeom`` time in a fresh process, and when the probe ran."""
    start = time.perf_counter_ns()
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE,
                          text=True, timeout=60, check=True)
    return float(done.stdout), (start, time.perf_counter_ns())


def measure(workload, seconds: float, mg) -> dict:
    """Untraced run: the end-to-end metrics, every operation counted.

    The run lasts ``seconds`` and at least one pass over every round.  The
    import probes for ``setup_s`` run between rounds, spread over the run.
    Times are scaled by ``HostSpeed``; the raw figures go into the notes.
    """
    tally = Tally()
    speed = HostSpeed()
    runner = Runner(workload, tally, mg, speed=speed)
    warm_up(workload)
    rounds = workload.rounds
    start = time.perf_counter()
    probes: list[tuple[float, tuple[int, int]]] = []
    k = 0
    while k < len(rounds) or time.perf_counter() < start + seconds:
        for op in rounds[k % len(rounds)]:
            runner.one(op)
        k += 1
        due = start + len(probes) * seconds / SETUP_SAMPLES
        if len(probes) < SETUP_SAMPLES and time.perf_counter() >= due:
            probes.append(import_probe())
            speed.sample()
    while len(probes) < SETUP_SAMPLES:
        probes.append(import_probe())
        speed.sample()
    # Before the lists below are built, which would count otherwise.
    peak_rss_kb = workload.peak_rss_kb()
    raw = runner.latencies_ns()
    scaled = [t * f for t, f in zip(raw, speed.factors(runner.starts_ns, runner.ends_ns))]
    per_input = median_per_input(scaled, runner.inputs)
    imports = [took * f for (took, _), f in
               zip(probes, speed.factors([a for _, (a, _) in probes],
                                         [b for _, (_, b) in probes]))]
    metrics = {
        "setup_s": (statistics.median(imports), "s"),
        "ops_per_s": (len(scaled) * 1e9 / sum(scaled), "1/s"),
        "op_p50_ms": (_percentile_ms(per_input, 50.0), "ms"),
        "op_p90_ms": (_percentile_ms(per_input, 90.0), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    notes = {"rounds": k, "operations": len(raw), "inputs": len(per_input),
             "setup_samples": len(probes),
             "reference_samples": len(speed.took_ns),
             "reference_us_min_median": (round(min(speed.took_ns) / 1e3, 1),
                                         round(statistics.median(speed.took_ns) / 1e3, 1)),
             "raw_ops_per_s": round(len(raw) * 1e9 / sum(raw), 4),
             "raw_op_p50_ms": round(_percentile_ms(raw, 50.0), 4),
             "raw_setup_s": round(statistics.median(took for took, _ in probes), 4)}
    return {"tally": tally, "metrics": metrics, "notes": notes}


def measure_traced(workload, seconds: float, mg, root: Path, tag: str) -> dict:
    """Traced run: each round runs untraced, then again traced.

    Interleaving the two passes round by round keeps drift in machine speed
    out of ``trace_overhead_frac``.
    """
    from tracer import Tracer, per_layer_metric_units
    tally = Tally()
    tracer = Tracer()
    plain = Runner(workload, tally, mg)
    traced = Runner(workload, tally, mg, tracer)
    warm_up(workload)
    rounds = workload.rounds
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        ops = rounds[k % len(rounds)]
        for op in ops:
            plain.one(op)
        tracer.install()
        try:
            for op in ops:
                traced.one(op)
        finally:
            tracer.uninstall()
        k += 1
    n_ops = len(traced.starts_ns)
    layer = tracer.layer_metrics(traced.dimensions)
    layer["cli.bytes_out_per_op"] = traced.bytes_out / n_ops
    layer["check.raised"] = tally.raised
    layer["check.refused"] = tally.refused
    layer["check.gap_exceeded"] = tally.gap_exceeded
    layer["check.failed_frac"] = tally.failed / tally.attempted
    layer["check.max_rel_gap"] = tally.max_gap
    layer["trace_overhead_frac"] = sum(traced.latencies_ns()) / sum(plain.latencies_ns()) - 1.0
    out_dir = root / ".perfbench_out" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(out_dir / f"{tag}.npz")
    units = per_layer_metric_units()
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    notes = {"rounds": k, "traced_ops": n_ops, "spans": len(tracer.name),
             "trace_file": str(Path(".perfbench_out") / "traces" / f"{tag}.npz")}
    return {"tally": tally, "metrics": metrics, "notes": notes}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = args.root.resolve()
    # One CPU for the worker, the processes it starts and the reference task,
    # so that all of them meet the same neighbours.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    import majgeom as mg
    if not Path(mg.__file__).resolve().is_relative_to(root / "src"):
        print(f"majgeom was imported from {mg.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, root)
    if args.trace:
        tag = f"{args.workload}-seed{args.seed}"
        workload.in_process = True
        result = measure_traced(workload, args.seconds, mg, root, tag)
    else:
        result = measure(workload, args.seconds, mg)
    tally = result["tally"]
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "causes": {"raised": tally.raised, "refused": tally.refused,
                   "gap_exceeded": tally.gap_exceeded, "max_rel_gap": tally.max_gap},
        "wrong": tally.wrong[:10],
        "wrong_count": len(tally.wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "notes": result["notes"],
        "env": environment(len(cpus)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
