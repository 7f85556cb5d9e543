"""In-process timing of the value entry points, one line per entry point.

Each entry point is called on 300 fixed random inputs (numpy
``default_rng(0)``); a round times those 300 calls, and the figure printed is
the fastest of 5 rounds divided by 300: microseconds per call (milliseconds
for the scan).  The process pins itself to one CPU and runs OpenBLAS on one
thread.  It needs only numpy and the package under ``src``::

    PYTHONPATH=src python tools/route_timing.py

Inputs are built before anything is timed, and each call's conversions
(Bloch vectors for the qubit geometric routes, the modular specs, the
projectors of the direct weak route, the rotated points of the factored
modular value) are built with them.  Besides the value routes, it times
``qubit_to_bloch``, ``majorana_points`` and ``canonicalize_triple`` at the
same N, ``symmetrize`` at m = 2, 4 and 7 points and the factored cores at
m = 1, 2, 4 and 7 points, each twice: the value alone, and the value with
its breakdown's ``factors`` read (the lines ending ``.factors``).  Last come
the numerics kernels under the value routes: ``eig_hermitian`` at N = 3, 5
and 8, ``hermiticity_defect`` at N = 3 and 8, ``solve_polynomial`` on the
stellar polynomials of N = 4 and 8 states, and ``normalization_factor`` at
m = 2, 4 and 7 points; after the scan, ``pair_points`` on two random sets of
m = 2, 5 and 7 points, and then the geometric modular route at N = 3, 5 and 8
with its breakdown's ``factors`` read, each drawn after every line above it.
Only public names are called, so the script runs unchanged on older
checkouts: to compare two, run it in each checkout alternately, a few times,
and compare the smallest figure of each line.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import majgeom as mg  # noqa: E402

ROUNDS = 5
CALLS = 300
LEVELS = (3, 5, 8)
POINTS = (1, 2, 4, 7)  # m = N - 1 of the factored cores
SYMMETRIZED = (2, 4, 7)  # point counts given to symmetrize and normalization_factor
EIGH_LEVELS = (3, 5, 8)
DEFECT_LEVELS = (3, 8)
POLYNOMIAL_LEVELS = (4, 8)  # N of the stellar polynomial, of degree N - 1
ROWS = 1024  # rows of the untimed point sets drawn before symmetrize's
PAIRED = (2, 5, 7)  # point counts of the sets given to pair_points


def _state(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _hermitian(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def _bloch(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _blochs(rng, rows: int) -> np.ndarray:
    v = rng.normal(size=(rows, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _factored_modular(i, s, r, f, a):
    return mg.factored_modular_value(i, s, r, f, alpha=a, beta=0.3, eigenvalue=1.0)


def entry_points():
    """``(name, function, argument tuples)`` for every timed entry point."""
    rng = np.random.default_rng(0)
    qubits = [tuple(_state(rng, 2) for _ in range(3)) for _ in range(CALLS)]
    blochs = [tuple(mg.qubit_to_bloch(q) for q in triple) for triple in qubits]
    specs = [mg.QubitModularSpec(axis=_bloch(rng), alpha=float(rng.uniform(-4, 4)),
                                 beta=float(rng.uniform(-1, 1))) for _ in range(CALLS)]
    yield ("qubit_to_bloch", mg.qubit_to_bloch, [(i,) for i, _, _ in qubits])
    yield ("qubit.weak.direct", mg.projector_weak_value_direct, qubits)
    yield ("qubit.weak.geometric", mg.projector_weak_value_geometric, blochs)
    yield ("qubit.modular.direct", mg.qubit_modular_value_direct,
           [(i, spec, f) for (i, _, f), spec in zip(qubits, specs)])
    yield ("qubit.modular.geometric", mg.qubit_modular_value_geometric,
           [(i, spec, f) for (i, _, f), spec in zip(blochs, specs)])
    for n in LEVELS:
        triples = [tuple(_state(rng, n) for _ in range(3)) for _ in range(CALLS)]
        specs = [mg.NLevelModularSpec(observable=_hermitian(rng, n),
                                      alpha=float(rng.uniform(-3, 3)),
                                      beta=float(rng.uniform(-1, 1))) for _ in range(CALLS)]
        yield (f"nlevel.weak.direct.n{n}", mg.weak_value_direct,
               [(i, np.outer(r, r.conj()), f) for i, r, f in triples])
        yield (f"nlevel.weak.geometric.n{n}", mg.qutrit_projector_weak_value_geometric, triples)
        yield (f"nlevel.modular.direct.n{n}", mg.modular_value_direct,
               [(i, spec, f) for (i, _, f), spec in zip(triples, specs)])
        yield (f"nlevel.modular.geometric.n{n}", mg.qutrit_modular_value_geometric,
               [(i, spec, f) for (i, _, f), spec in zip(triples, specs)])
        yield (f"majorana_points.n{n}", mg.majorana_points, [(i,) for i, _, _ in triples])
        yield (f"canonicalize_triple.n{n}", mg.canonicalize_triple, triples)
    for m in POINTS:
        # i points with coherent r and f; s is i rotated rigidly about r, so
        # r's coherent state is an eigenvector of the evolution, as the
        # modular core's contract asks.
        triples = [(_blochs(rng, m), _bloch(rng), _bloch(rng)) for _ in range(CALLS)]
        angles = rng.uniform(-3, 3, size=CALLS).tolist()
        rotated = [(i, np.array([mg.rodrigues_rotate(p, r, a) for p in i]), r, f, a)
                   for (i, r, f), a in zip(triples, angles)]
        yield (f"factored.weak.m{m}", mg.factored_weak_value, triples)
        yield (f"factored.modular.m{m}", _factored_modular, rotated)
        # The same calls with the per-factor records read, as the CLI reads them.
        yield (f"factored.weak.m{m}.factors",
               lambda i, r, f: mg.factored_weak_value(i, r, f)[1].factors, triples)
        yield (f"factored.modular.m{m}.factors",
               lambda *a: _factored_modular(*a)[1].factors, rotated)
    # Sets of 1024 points and two vectors that no line times: older checkouts
    # time batch kernels on them, and the lines below keep their inputs.
    for _ in range(CALLS):
        _blochs(rng, ROWS), _bloch(rng), _bloch(rng)
    for m in SYMMETRIZED:  # drawn after the lines above, so they keep their inputs
        yield (f"symmetrize.m{m}", mg.symmetrize, [(_blochs(rng, m),) for _ in range(CALLS)])
    # The numerics kernels and K, drawn after everything above.
    for n in EIGH_LEVELS:
        yield (f"eig_hermitian.n{n}", mg.eig_hermitian,
               [(_hermitian(rng, n),) for _ in range(CALLS)])
    for n in DEFECT_LEVELS:
        yield (f"hermiticity_defect.n{n}", mg.numerics.hermiticity_defect,
               [(_hermitian(rng, n),) for _ in range(CALLS)])
    for n in POLYNOMIAL_LEVELS:
        coefficients = mg.majorana.representation_coefficients
        yield (f"solve_polynomial.n{n}", mg.solve_polynomial,
               [(coefficients(_state(rng, n)),) for _ in range(CALLS)])
    for m in SYMMETRIZED:
        yield (f"normalization_factor.m{m}", mg.normalization_factor,
               [(_blochs(rng, m),) for _ in range(CALLS)])
    yield ("singularity_scan.count512.ms", lambda: mg.singularity_scan(count=512),
           [()] * CALLS)
    for m in PAIRED:  # drawn after everything above, so older lines keep their inputs
        yield (f"pair_points.m{m}", mg.nlevel_values.pair_points,
               [(_blochs(rng, m), _blochs(rng, m)) for _ in range(CALLS)])
    for n in LEVELS:  # drawn after everything above, so older lines keep their inputs
        cases = [(_state(rng, n), mg.NLevelModularSpec(observable=_hermitian(rng, n),
                                                       alpha=float(rng.uniform(-3, 3)),
                                                       beta=float(rng.uniform(-1, 1))),
                  _state(rng, n)) for _ in range(CALLS)]
        yield (f"nlevel.modular.geometric.n{n}.factors",
               lambda i, spec, f: mg.qutrit_modular_value_geometric(i, spec, f)[1].factors, cases)


def per_call(fn, args: list[tuple]) -> float:
    """Seconds per call: the fastest of ``ROUNDS`` rounds over ``args``."""
    fn(*args[0])  # warm-up
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter_ns()
        for a in args:
            fn(*a)
        best = min(best, time.perf_counter_ns() - start)
    return best * 1e-9 / len(args)


def main() -> int:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for name, fn, args in entry_points():
        scale = 1e3 if name.endswith(".ms") else 1e6
        print(f"{name} {per_call(fn, args) * scale:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
