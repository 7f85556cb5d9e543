"""Bit-identity sweep: one sha256 digest per entry point over fixed inputs.

Run it on two checkouts and compare the printed lines; equal digests mean
every computed bit (and every printed CLI byte) is unchanged.  It needs only
numpy and the package under ``src``::

    PYTHONPATH=src python tools/bit_sweep.py

The inputs come from fixed seeds.  A result is hashed through its exact
float bits (``float.hex``, the raw bytes of arrays); an exception is hashed
by its type and message, so a refusal that moves shows as well.  A
``SymmetricRepresentation`` is hashed with its K after its fields, and a
``GeometricBreakdown`` by what it is read for: its ``factors``, then its
dynamical phase and K ratio, however it holds them.  A CLI run
is hashed by its exit code (or ``SystemExit`` code), stdout and stderr; the
scenarios of the value subcommands are written to a temporary directory at
full precision.  The ``state.*`` lines hash the public functions that
return a state (gauge-fixed), so they show apart from the value lines; the
plural qubit line stacks ``bloch_to_qubit`` of the rows of sets of 1 to 7
points, under the name it has on older checkouts.
``nlevel.modular.routes`` hashes the geometric modular route
together with the factored core on the frame points it reads off, so a split
between the two shows.  The ``cli.help.*`` lines hash the ``--help``
text of the program and of each subcommand.  The last line hashes the sorted
names ``from majgeom import *`` binds, so a change of the public surface
shows too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import majgeom as mg
from majgeom import bloch, canonical, cli, majorana, nlevel_values, numerics
from majgeom import experiments as exp

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
LEVELS = range(2, 9)
DRAWS = 40
THETA_C = math.atan(math.sqrt(1.5))  # the default scan's weak-value singularity
# The subcommands that compute a value by both routes and take --mode.
VALUE_COMMANDS = ("qubit-weak", "qubit-modular", "qutrit-weak", "qutrit-modular")
COMMANDS = VALUE_COMMANDS + ("nlevel-direct", "majorana", "canonicalize", "scan-singularity",
                             "three-box", "abl")


def _canon(obj) -> str:
    """A string that differs whenever a bit of ``obj`` differs."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, complex):
        return f"({float.hex(obj.real)},{float.hex(obj.imag)})"
    if isinstance(obj, (np.ndarray, np.generic)):
        arr = np.ascontiguousarray(obj)
        return f"array({arr.dtype.str},{arr.shape},{arr.tobytes().hex()})"
    if isinstance(obj, mg.GeometricBreakdown):  # its read surface, whatever its fields
        names = ["factors", "dynamical_phase", "k_ratio"]
        return type(obj).__name__ + _canon([(name, getattr(obj, name)) for name in names])
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
        if isinstance(obj, mg.SymmetricRepresentation) and "normalization" not in names:
            names.append("normalization")  # K, computed when read
        return type(obj).__name__ + _canon([(name, getattr(obj, name)) for name in names])
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_canon, obj)) + "]"
    if isinstance(obj, (set, frozenset)):
        return "set" + _canon(sorted(obj))
    raise TypeError(f"cannot hash {type(obj).__name__}")


def _outcome(fn, *args, **kwargs) -> str:
    try:
        return _canon(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - a refusal is part of the outcome
        return f"error:{type(exc).__name__}:{exc}"


def _state(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _hermitian(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def _bloch(rng, m: int | None = None) -> np.ndarray:
    v = rng.normal(size=(3,) if m is None else (m, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def qubit_values():
    rng = np.random.default_rng(101)
    for _ in range(4 * DRAWS):
        qi, qr, qf = (_state(rng, 2) for _ in range(3))
        vi, vr, vf = (mg.qubit_to_bloch(q) for q in (qi, qr, qf))
        spec = mg.QubitModularSpec(axis=_bloch(rng), alpha=float(rng.uniform(-4, 4)),
                                   beta=float(rng.uniform(-1, 1)))
        yield "qubit.weak.direct", _outcome(mg.projector_weak_value_direct, qi, qr, qf)
        yield "qubit.weak.geometric", _outcome(mg.projector_weak_value_geometric, vi, vr, vf)
        yield "qubit.modular.direct", _outcome(mg.qubit_modular_value_direct, qi, spec, qf)
        yield "qubit.modular.geometric", _outcome(mg.qubit_modular_value_geometric,
                                                  vi, spec, vf)


def nlevel_values_sweep():
    rng = np.random.default_rng(202)
    for n in LEVELS:
        for _ in range(DRAWS):
            si, sr, sf = (_state(rng, n) for _ in range(3))
            projector = np.outer(sr, sr.conj())
            spec = mg.NLevelModularSpec(observable=_hermitian(rng, n),
                                        alpha=float(rng.uniform(-3, 3)),
                                        beta=float(rng.uniform(-1, 1)))
            yield f"nlevel.weak.direct.n{n}", _outcome(mg.weak_value_direct, si, projector, sf)
            yield f"nlevel.weak.geometric.n{n}", _outcome(
                mg.qutrit_projector_weak_value_geometric, si, sr, sf)
            yield f"nlevel.modular.direct.n{n}", _outcome(mg.modular_value_direct, si, spec, sf)
            yield f"nlevel.modular.geometric.n{n}", _outcome(
                mg.qutrit_modular_value_geometric, si, spec, sf)


def modular_routes():
    """Both modular routes on one set of frame points: the geometric route, and
    the factored core given the points that route reads off (the frame of the
    anchor eigenvector, as ``numerics._eigh`` returns it without a gauge, and
    of f, applied to i and to its evolution) in their sorted order, with the
    pairing the route gives its factors, so a split between the two shows."""
    rng = np.random.default_rng(606)
    for n in LEVELS:
        for _ in range(DRAWS):
            psi_i, psi_f = _state(rng, n), _state(rng, n)
            observable = _hermitian(rng, n)
            alpha, beta = float(rng.uniform(-3, 3)), float(rng.uniform(-1, 1))
            spec = mg.NLevelModularSpec(observable=observable, alpha=alpha, beta=beta)
            si, sf = mg.nlevel_state(psi_i), mg.nlevel_state(psi_f)
            evals, evecs = numerics._eigh(observable)
            strength = alpha * (n - 1) / 2.0
            to_frame, f_vec, _ = canonical._frame(evecs[:, -1], sf)
            evolved = nlevel_values._evolved(si, evals, evecs, strength)
            i_points = mg.majorana_points(to_frame(si)).points
            s_points = mg.majorana_points(to_frame(evolved)).points
            yield "nlevel.modular.routes", (
                _outcome(mg.qutrit_modular_value_geometric, psi_i, spec, psi_f) + "|"
                + _outcome(nlevel_values._modular_value, i_points, s_points,
                           canonical._NORTH, f_vec, beta, strength * float(evals[-1]),
                           paired=lambda: nlevel_values.pair_points(i_points, s_points)))


def stellar():
    rng = np.random.default_rng(303)
    for n in LEVELS:
        for _ in range(DRAWS):
            state = _state(rng, n)
            yield f"majorana_points.n{n}", _outcome(mg.majorana_points, state)
            yield f"symmetrize.n{n}", _outcome(mg.symmetrize, _bloch(rng, n - 1))
            yield f"canonicalize_triple.n{n}", _outcome(
                mg.canonicalize_triple, state, _state(rng, n), _state(rng, n))


def entropies():
    """The entanglement entropy of random, coincident and antipodal pairs."""
    rng = np.random.default_rng(808)
    for _ in range(4 * DRAWS):
        p = _bloch(rng)
        yield "entanglement_entropy.random", _outcome(mg.entanglement_entropy, _bloch(rng, 2))
        yield "entanglement_entropy.coincident", _outcome(mg.entanglement_entropy, [p, p])
        yield "entanglement_entropy.antipodal", _outcome(mg.entanglement_entropy, [p, -p])


def _qubit_rows(points: np.ndarray) -> np.ndarray:
    """``bloch_to_qubit`` of each row, stacked as an ``(m, 2)`` array."""
    return np.array([mg.bloch_to_qubit(p) for p in points])


def states():
    """The public functions that return a state, on fixed inputs: each keeps
    the global phase it fixes, whatever the value routes do with theirs."""
    rng = np.random.default_rng(707)
    for n in LEVELS:
        for _ in range(DRAWS):
            state = _state(rng, n)
            yield f"state.nlevel_state.n{n}", _outcome(mg.nlevel_state, state)
            yield f"state.canonical_gauge.n{n}", _outcome(numerics.canonical_gauge, state)
            yield f"state.representation_coefficients.n{n}", _outcome(
                majorana.representation_coefficients, state)
            yield f"state.eig_hermitian.n{n}", _outcome(mg.eig_hermitian, _hermitian(rng, n))
            triple = canonical.canonicalize_triple(state, _state(rng, n), _state(rng, n))
            yield f"state.canonicalize_triple.n{n}", _canon(
                [triple.psi_i, triple.psi_r, triple.psi_f, triple.u_total, triple.f_vec,
                 triple.eta])
    for _ in range(4 * DRAWS):
        yield "state.as_qubit", _outcome(bloch.as_qubit, _state(rng, 2))
        yield "state.bloch_to_qubit", _outcome(mg.bloch_to_qubit, _bloch(rng))
    for m in range(1, 8):
        yield "state.bloch_to_qubits", _outcome(_qubit_rows, _bloch(rng, m))
    for kwargs in SCAN_RUNS:
        angles = {key: kwargs.get(key, default) for key, default in (
            ("epsilon", exp.SCAN_EPSILON), ("chi1", exp.SCAN_CHI1), ("chi2", exp.SCAN_CHI2))}
        for theta in np.linspace(0.0, 1.5, 31).tolist() + [THETA_C]:
            yield "state.scan_state", _outcome(exp.scan_state, theta, **angles)


def pairing():
    rng = np.random.default_rng(404)
    for m in range(1, 8):
        for _ in range(DRAWS):
            yield f"pair_points.m{m}", _outcome(
                nlevel_values.pair_points, _bloch(rng, m), _bloch(rng, m))
            # m coincident initial points: every pairing costs the same.
            first = np.repeat(_bloch(rng)[None], m, axis=0)
            yield f"pair_points.coincident.m{m}", _outcome(
                nlevel_values.pair_points, first, _bloch(rng, m))
    # Sets with tied optimal pairings, so a changed tie pick shows: a first
    # set whose rows 0 and 1 coincide (their partners swap at equal cost), and
    # two sets that the half-turn about z maps onto themselves, the first
    # with a pole that the second lacks, so each optimal pairing has a
    # mirror image of the same cost.
    rng = np.random.default_rng(405)
    north, south = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
    for m in range(2, 8):
        for _ in range(DRAWS):
            first = _bloch(rng, m)
            first[1] = first[0]
            yield f"pair_points.coincident_pair.m{m}", _outcome(
                nlevel_values.pair_points, first, _bloch(rng, m))
            poles = [north, south][:2 - m % 2], [south] * (m % 2)
            yield f"pair_points.half_turn.m{m}", _outcome(
                nlevel_values.pair_points, *(_half_turn(rng, m, fixed) for fixed in poles))


def _half_turn(rng, m: int, poles: list) -> np.ndarray:
    """m points, in random order, that the half-turn about z maps onto
    themselves: the ``poles``, and pairs of a point and its image."""
    half = _bloch(rng, (m - len(poles)) // 2)
    rows = [*poles, *half, *(half * [-1.0, -1.0, 1.0])]
    return np.array(rows)[rng.permutation(m)]


SCAN_RUNS = [
    {"count": 32}, {"count": 300}, {"count": 512}, {"count": 777}, {"count": 1024},
    {"count": 4096},
    {"count": 700, "epsilon": 0.3, "chi1": 1.0, "chi2": 2.5},
    {"count": 512, "epsilon": 0.9, "chi1": -2.0, "chi2": 0.4},
    {"count": 1024, "epsilon": 0.3, "chi1": 1.0, "chi2": 2.5},
]


def experiments():
    for kwargs in SCAN_RUNS:
        yield "singularity_scan", _outcome(mg.singularity_scan, **kwargs)
    user_grid = np.sort(np.append(np.linspace(0.05, 1.5, 61), THETA_C))
    yield "singularity_scan.user_grid", _outcome(mg.singularity_scan, user_grid)
    yield "three_box_report", _outcome(mg.three_box_report)


CLI_RUNS = [
    ("three-box",),
    ("scan-singularity", "--count", "32"),
    ("scan-singularity", "--count", "300"),
    ("scan-singularity", "--count", "512"),
    ("scan-singularity", "--count", "777"),
    ("scan-singularity", "--count", "4096"),
    ("scan-singularity", "--count", "700", "--epsilon", "0.3", "--chi1", "1.0",
     "--chi2", "2.5"),
    ("scan-singularity", "--count", "512", "--epsilon", "0.9", "--chi1", "-2.0",
     "--chi2", "0.4"),
    ("scan-singularity", "--count", "1024", "--epsilon", "0.3", "--chi1", "1.0",
     "--chi2", "2.5"),
    ("canonicalize", "--scenario", str(DATA / "qutrit_triple.scenario.json")),
    ("qutrit-weak", "--scenario", str(DATA / "qutrit_triple.scenario.json")),
    ("qutrit-modular", "--scenario", str(DATA / "qutrit_modular.scenario.json")),
]


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # a parser that exits instead of returning
            code = exc.code
    return f"{code}:{out.getvalue()}" + (f"\nstderr:{err.getvalue()}" if err.getvalue() else "")


def cli_runs():
    for argv in CLI_RUNS:
        for fmt in ("json", "csv"):
            for degrees in ((), ("--degrees",)):
                yield "cli.run", _outcome(_cli, [*argv, "--format", fmt, *degrees])


def _amplitudes(vec) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def _scenarios() -> dict[str, dict]:
    """One scenario document per value-subcommand case, from fixed seeds; a
    ``json.dumps`` of them keeps every float bit."""
    rng = np.random.default_rng(505)

    def states(n: int, keys: str) -> dict:
        return {key: _amplitudes(_state(rng, n)) for key in keys}

    def bloch(keys: str) -> dict:
        return {key: {"bloch": _bloch(rng).tolist()} for key in keys}

    def matrix(m: np.ndarray) -> list:
        return [_amplitudes(row) for row in m]

    def angles() -> dict:
        return {"alpha": float(rng.uniform(-3, 3)), "beta": float(rng.uniform(-1, 1))}

    basis = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    return {
        "qubit-weak.bloch": bloch("irf"),
        "qubit-weak.amplitudes": states(2, "irf"),
        "qubit-modular": {**states(2, "if"), "spec": {"axis": _bloch(rng).tolist(), **angles()}},
        "nlevel-direct.weak": {**states(4, "if"), "kind": "weak",
                               "observable": matrix(_hermitian(rng, 4))},
        "nlevel-direct.modular": {**states(3, "if"), "kind": "modular",
                                  "spec": {"observable": matrix(_hermitian(rng, 3)),
                                           **angles()}},
        "majorana.n2-bloch": {"state": {"bloch": _bloch(rng).tolist()}},
        "majorana.n3": states(3, ["state"]),
        "majorana.n8": states(8, ["state"]),
        "abl": {**states(3, "if"),
                "projectors": [matrix(np.outer(e, e.conj())) for e in basis.T]},
        "canonicalize.n5": states(5, "irf"),
        "qutrit-modular.theta": {**states(4, "if"),
                                 "spec": {"observable": matrix(_hermitian(rng, 4)),
                                          "theta": float(rng.uniform(-3, 3)), **angles()}},
        # a state off its norm by 1e-9: renormalized, with a warning on stderr
        "qutrit-weak.renormalized": {**states(3, "ir"),
                                     "f": _amplitudes((1.0 + 1e-9) * _state(rng, 3))},
        # exit 3: the pre- and postselected qubits are orthogonal
        "qubit-weak.orthogonal": {"i": {"bloch": [0.0, 0.0, 1.0]},
                                  "r": {"bloch": [1.0, 0.0, 0.0]},
                                  "f": {"bloch": [0.0, 0.0, -1.0]}},
        # exit 2: the second state has another dimension than the first
        "qutrit-weak.dimensions": {**states(3, "ir"), **states(4, "f")},
    }


def scenario_runs():
    with tempfile.TemporaryDirectory() as root:
        for name, doc in _scenarios().items():
            path = Path(root) / f"{name}.json"
            path.write_text(json.dumps({"version": 1, **doc}))
            command = name.split(".")[0]
            modes = ([("--mode", mode) for mode in ("both", "geometric", "direct")]
                     if command in VALUE_COMMANDS else [()])
            for mode in modes:
                for fmt in ("json", "csv"):
                    for degrees in ((), ("--degrees",)):
                        yield f"cli.{name}", _outcome(
                            _cli, [command, "--scenario", str(path), *mode,
                                   "--format", fmt, *degrees])
        scenario = str(Path(root) / "qutrit-modular.theta.json")
        with mock.patch.dict(os.environ, {"MAJGEOM_TOL": "1e-3"}):
            yield "cli.tolerance-env", _outcome(_cli, ["qutrit-modular", "--scenario", scenario])
        out = Path(root) / "out.json"
        yield "cli.out-file", _outcome(_cli, ["qutrit-modular", "--scenario", scenario,
                                              "--out", str(out)]) + out.read_text()


# Command lines and scenarios the CLI must refuse with exit 2 and its JSON
# error document.
USAGE_RUNS = {
    "unknown-command": ["no-such-command"],
    "unknown-option": ["three-box", "--bogus"],
    "count-not-int": ["scan-singularity", "--count", "abc"],
    "no-command": [],
    "missing-scenario": ["qutrit-weak"],
    "three-box-mode": ["three-box", "--mode", "direct"],
    "majorana-mode": ["majorana", "--mode", "geometric",
                      "--scenario", str(DATA / "qutrit_triple.scenario.json")],
}


def _non_number_scenarios(bad) -> dict[str, tuple[str, dict]]:
    """Scenarios with ``bad`` (a JSON ``true`` or a string) where a number
    belongs, one per number slot the CLI reads, by name, each with the
    subcommand that reads it."""
    base = json.loads((DATA / "qutrit_modular.scenario.json").read_text())
    triple = json.loads((DATA / "qutrit_triple.scenario.json").read_text())
    pair = {"version": 1, "i": base["i"], "f": base["f"]}
    qubits = {"version": 1, "i": {"bloch": [0.0, 0.0, 1.0]}, "f": {"bloch": [0.0, 1.0, 0.0]}}
    # The 3x3 identity as [re, im] pairs, with ``bad`` as its first real part.
    matrix = [[[bad if j == k == 0 else float(j == k), 0.0] for k in range(3)]
              for j in range(3)]

    def modular(**spec) -> dict:
        return {**base, "spec": {**base["spec"], **spec}}

    def qubit_modular(**spec) -> dict:
        return {**qubits, "spec": {"axis": [0.0, 0.0, 1.0], **spec}}

    def grid(**bounds) -> dict:
        return {"version": 1, "grid": {"start": 0.2, "stop": 1.2, "count": 8, **bounds}}

    return {
        "qutrit-modular.alpha": ("qutrit-modular", modular(alpha=bad)),
        "qutrit-modular.eigen_choice": ("qutrit-modular", modular(eigen_choice=bad)),
        "qutrit-modular.version": ("qutrit-modular", {**base, "version": bad}),
        "scan.epsilon": ("scan-singularity", {"version": 1, "epsilon": bad}),
        "scan.grid-count": ("scan-singularity", grid(count=bad)),
        "qutrit-modular.beta": ("qutrit-modular", modular(beta=bad)),
        "qutrit-modular.theta": ("qutrit-modular", modular(theta=bad)),
        "qutrit-modular.r8": ("qutrit-modular", modular(r8=[bad, *base["spec"]["r8"][1:]])),
        "qutrit-modular.observable": ("qutrit-modular",
                                      {**pair, "spec": {"observable": matrix, "alpha": 0.9}}),
        "qutrit-weak.amplitudes": ("qutrit-weak",
                                   {**triple, "i": [[bad, 0.0], *triple["i"][1:]]}),
        "qubit-weak.bloch": ("qubit-weak", {**qubits, "r": {"bloch": [bad, 0.0, 1.0]}}),
        "qubit-modular.axis": ("qubit-modular", qubit_modular(axis=[bad, 0.0, 1.0])),
        "qubit-modular.alpha": ("qubit-modular", qubit_modular(alpha=bad)),
        "qubit-modular.beta": ("qubit-modular", qubit_modular(beta=bad)),
        "nlevel-direct.observable": ("nlevel-direct", {**pair, "observable": matrix}),
        "abl.projectors": ("abl", {**pair, "projectors": [matrix]}),
        "scan.chi1": ("scan-singularity", {"version": 1, "chi1": bad}),
        "scan.chi2": ("scan-singularity", {"version": 1, "chi2": bad}),
        "scan.grid-start": ("scan-singularity", grid(start=bad)),
        "scan.grid-stop": ("scan-singularity", grid(stop=bad)),
    }


def _nested(leaf, depth: int):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


def _unreadable_scenarios() -> dict[str, tuple[str, dict]]:
    """Scenarios whose integer is not finite, whose number lists do not form
    an array, or whose state, grid or projectors is not the object or list it
    must be, one per refusal that names its field, each with the subcommand
    that reads it.  ``json.dumps`` writes NaN and Infinity as the JSON reader
    accepts them."""
    base = json.loads((DATA / "qutrit_modular.scenario.json").read_text())
    triple = json.loads((DATA / "qutrit_triple.scenario.json").read_text())
    pair = {"version": 1, "i": base["i"], "f": base["f"]}
    identity = [[[float(j == k), 0.0] for k in range(3)] for j in range(3)]

    def grid(count) -> dict:
        return {"version": 1, "grid": {"start": 0.2, "stop": 1.2, "count": count}}

    return {
        "eigen_choice.nan": ("qutrit-modular",
                             {**base, "spec": {**base["spec"], "eigen_choice": math.nan}}),
        "eigen_choice.infinity": ("qutrit-modular",
                                  {**base, "spec": {**base["spec"], "eigen_choice": math.inf}}),
        "grid-count.nan": ("scan-singularity", grid(math.nan)),
        "grid-count.infinity": ("scan-singularity", grid(-math.inf)),
        "ragged.amplitudes": ("qutrit-weak", {**triple, "i": [[1.0, 0.0], [0.0]]}),
        "ragged.r8": ("qutrit-modular",
                      {**base, "spec": {**base["spec"], "r8": [[1.0]] + [0.0] * 7}}),
        "ragged.observable": ("nlevel-direct", {**pair, "observable": [
            [[1.0]] + identity[0][1:], *identity[1:]]}),
        "ragged.bloch": ("qubit-weak", {"version": 1, "i": {"bloch": [0.0, 0.0, 1.0]},
                                        "r": {"bloch": [[1.0], 0.0, 0.0]},
                                        "f": {"bloch": [0.0, 1.0, 0.0]}}),
        "deep.amplitudes": ("majorana", {"version": 1, "state": _nested(0.0, 65)}),
        "container.state": ("qutrit-weak", {**triple, "i": {"amplitude": triple["i"]}}),
        "container.grid-number": ("scan-singularity", {"version": 1, "grid": 5}),
        "container.grid-string": ("scan-singularity", {"version": 1, "grid": "start"}),
        "container.projectors": ("abl", {**pair, "projectors": 5}),
    }


def usage_runs():
    for name, argv in USAGE_RUNS.items():
        yield f"cli.usage.{name}", _outcome(_cli, argv)
    with tempfile.TemporaryDirectory() as root:
        for name, (command, doc) in _unreadable_scenarios().items():
            path = Path(root) / f"{name}.json"
            path.write_text(json.dumps(doc))
            yield f"cli.usage.{name}", _outcome(_cli, [command, "--scenario", str(path)])
        for kind, bad in (("boolean", True), ("string", "1")):
            for name, (command, doc) in _non_number_scenarios(bad).items():
                path = Path(root) / f"{kind}.{name}.json"
                path.write_text(json.dumps(doc))
                yield f"cli.usage.{kind}.{name}", _outcome(_cli, [command, "--scenario",
                                                                  str(path)])


def help_runs():
    """The program's and every subcommand's ``--help``, 80 columns wide, so a
    reordered or dropped argument shows."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        yield "cli.help.majgeom", _outcome(_cli, ["--help"])
        for command in COMMANDS:
            yield f"cli.help.{command}", _outcome(_cli, [command, "--help"])


def surface():
    namespace: dict = {}
    exec("from majgeom import *", namespace)  # noqa: S102 - the star-import surface
    yield "majgeom.star-import", _canon(sorted(set(namespace) - {"__builtins__"}))


SWEEPS = (qubit_values, nlevel_values_sweep, modular_routes, stellar, entropies, states,
          pairing, experiments, cli_runs, scenario_runs, usage_runs, help_runs, surface)


def main() -> int:
    digests = {}
    for sweep in SWEEPS:
        for name, text in sweep():
            digests.setdefault(name, hashlib.sha256()).update(text.encode() + b"\n")
    for name, digest in digests.items():
        print(name, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
