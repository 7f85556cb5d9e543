"""Layered benchmark for majgeom.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle-mix --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; ``--trace
1`` runs the same rounds untraced and then traced and reports the per-layer
metrics.  The metric names are those of ``BENCHMARK.json``.  Human-readable
lines come first; the last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

This process never imports numpy.  It runs the workload in a fresh process
(``worker.py``) with OpenBLAS pinned to one thread and the checkout's ``src``
first on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("oracle-mix", "stellar-highN", "scan", "cli")
WORKER_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Layered benchmark for majgeom.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("MAJGEOM_TOL", None)  # would change the CLI's mismatch check
    return env


def run_worker(root: Path, env: dict, args: list[str]) -> dict:
    """Run ``worker.py`` and return its last line of output as JSON.

    The worker gets a session of its own, so that on a timeout the processes
    it started are killed with it.
    """
    command = [sys.executable, str(root / "perfbench" / "worker.py"), "--root", str(root),
               *args]
    with subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as worker:
        try:
            stdout, stderr = worker.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
            raise
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {worker.returncode}:\n"
                           f"{stderr[-4000:]}")
    return json.loads(lines[-1])


def declared_metrics(root: Path, trace: int) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "majgeom" / "__init__.py").is_file():
        print(f"no majgeom sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        result = run_worker(root, env, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    declared = declared_metrics(root, args.trace)
    reported = {name: m["unit"] for name, m in metrics.items()}
    if reported != declared:
        print(f"metrics differ from BENCHMARK.json: reported {sorted(reported.items())}, "
              f"declared {sorted(declared.items())}", file=sys.stderr)
        return 1

    env_info = result["env"]
    causes = result["causes"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"environment: python {env_info['python']}, numpy {env_info['numpy']}, "
          f"OpenBLAS {env_info['openblas']} ({env_info['openblas_threads']} thread), "
          f"{env_info['cpu']}, nproc {env_info['nproc']}, pinned to CPU {env_info['pinned_cpu']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed; "
          f"failed_frac {result['failed_frac']:.6g} ratio (raised {causes['raised']}, "
          f"refused {causes['refused']}, gap_exceeded {causes['gap_exceeded']}, "
          f"max_rel_gap {causes['max_rel_gap']:.3g})")
    print("notes: " + ", ".join(f"{k} {v}" for k, v in result["notes"].items()))
    for reason in result["wrong"]:
        print(f"WRONG: {reason}")
    for name in declared:
        print(f"  {name:<58} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}")
    print(json.dumps({
        "correct": result["wrong_count"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
