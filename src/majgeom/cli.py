"""Command-line surface: scenario ingestion, dispatch, JSON/CSV emission.

Exit codes: 0 success, 2 usage or validation failure, 3 physical singularity
(orthogonal selection and friends).  Output bytes are deterministic for fixed
inputs.  ``MAJGEOM_TOL`` overrides the comparison tolerance of the
geometric/direct ``mismatch`` check and nothing else: the library computes
every value with ``DEFAULT_TOL``, and the envelope's ``tolerances`` shows the
record the check used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import canonical, experiments, majorana, nlevel_values, qubit_values
from .bloch import as_bloch, bloch_to_qubit, qubit_to_bloch
from .errors import MajgeomError, OrthogonalSelection, UndefinedSolidAngle, ZeroDenominator
from .numerics import _NORM_SLACK, _RENORM_WARNING, DEFAULT_TOL, Tolerances
from .polar import GeometricBreakdown, PolarComplex

SCENARIO_VERSION = 1

_PHYSICAL_ERRORS = (OrthogonalSelection, UndefinedSolidAngle, ZeroDenominator)
# Any other MajgeomError (NotHermitian, ...) means the input failed validation;
# an OverflowError is a scenario number out of range for int() or float(), and
# an ArgumentError a command line the parser refused.
_USAGE_ERRORS = (ValueError, KeyError, TypeError, OSError, OverflowError, MajgeomError,
                 argparse.ArgumentError)

# Printed keys whose numbers are radians and honor --degrees on output.
_ANGLE_KEYS = {
    "argument", "unwrapped_argument", "solid_angle", "dynamical_phase", "alpha1", "alpha2",
    "beta1", "beta2", "omega1", "omega2", "wv_arg", "theta", "eta", "epsilon", "chi1", "chi2",
    "theta_bifurcation", "theta_singular", "omega2_jump",
}
_DEGREES_PER_RADIAN = 180.0 / math.pi

# Printed names of the record fields that differ from the dataclass's.
_PRINTED_NAMES = {"wv_modulus": "wv_mod", "wv_argument": "wv_arg"}
_SCAN_COLUMNS = ("theta", "alpha1", "alpha2", "beta1", "beta2", "omega1", "omega2",
                 "wv_mod", "wv_arg")
# Scan parameters a scenario may set and a flag of the same name overrides.
_SCAN_PARAMETERS = ("epsilon", "chi1", "chi2")
# Largest scan grid: the scan's memory grows with its point count.
_MAX_SCAN_POINTS = 2**16


class ScenarioInvalid(ValueError):
    pass


def _tolerances_from_env() -> Tolerances:
    raw = os.environ.get("MAJGEOM_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ScenarioInvalid(f"MAJGEOM_TOL is not a number: {raw!r}") from exc
    if not 0.0 < value < 1.0:
        raise ScenarioInvalid("MAJGEOM_TOL must lie in (0, 1)")
    return replace(DEFAULT_TOL, comparison=value)


def _load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError as exc:
            raise ScenarioInvalid("scenario document is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ScenarioInvalid("scenario document must be a JSON object")
    version = doc.get("version")
    if isinstance(version, bool) or version != SCENARIO_VERSION:
        raise ScenarioInvalid(f"scenario version must be {SCENARIO_VERSION}")
    return doc


def _required(doc: dict, key: str, where: str = "scenario"):
    """``doc[key]``; a missing key raises :class:`ScenarioInvalid` naming it."""
    if key not in doc:
        raise ScenarioInvalid(f"{where} is missing {key!r}")
    return doc[key]


def _is_number(raw) -> bool:
    """Whether ``raw`` is a JSON number: an ``int`` that is not a ``bool`` (JSON
    ``true`` and ``false``), or a ``float``."""
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _integer(raw, name: str) -> int:
    """``int(raw)``; anything but a JSON number, or a number that ``int()``
    changes, raises :class:`ScenarioInvalid` naming it."""
    if _is_number(raw):
        value = int(raw)
        if value == raw:
            return value
    raise ScenarioInvalid(f"{name} must be an integer")


def _real(raw, name: str) -> float:
    """``float(raw)``; anything but a JSON number raises
    :class:`ScenarioInvalid` naming it."""
    if not _is_number(raw):
        raise ScenarioInvalid(f"{name} must be a number")
    return float(raw)


def _numbers(raw, name: str):
    """``raw``, a JSON number or nested lists of them; any other leaf raises
    :class:`ScenarioInvalid` naming it.  The walk keeps its own stack, so a
    list nested as deeply as the JSON reader allows does not recurse."""
    pending = [raw]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif not _is_number(item):
            raise ScenarioInvalid(f"{name} must hold only numbers")
    return raw


def _complex_vector(raw, name: str, length: int | None = None) -> np.ndarray:
    arr = np.asarray(_numbers(raw, name), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ScenarioInvalid("amplitudes must be a list of [re, im] pairs")
    if length is not None and arr.shape[0] != length:
        raise ScenarioInvalid(f"expected {length} amplitudes, got {arr.shape[0]}")
    return arr[:, 0] + 1j * arr[:, 1]


def _complex_matrix(raw, name: str, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(_numbers(raw, name), dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ScenarioInvalid("matrix must be a square grid of [re, im] pairs")
    if dim is not None and arr.shape[0] != dim:
        raise ScenarioInvalid(f"expected a {dim}x{dim} matrix")
    return arr[..., 0] + 1j * arr[..., 1]


def _states(doc: dict, keys: tuple[str, ...], dim: int | None = None) -> list[np.ndarray]:
    """The scenario's states ``keys``, each given either as amplitudes or (for
    qubits) as a Bloch vector, all of dimension ``dim`` when it is given.
    Otherwise the first state sets N (its amplitude count, or 2 for a
    ``{"bloch": ...}`` entry) and the others must match it."""
    states = []
    for key in keys:
        if key not in doc:
            raise ScenarioInvalid(f"scenario is missing the state {key!r}")
        entry = doc[key]
        if isinstance(entry, dict) and "bloch" in entry:
            if dim not in (None, 2):
                raise ScenarioInvalid("bloch input is only meaningful for qubits")
            bloch = as_bloch(_numbers(entry["bloch"], f"state {key!r}"))
            states.append(bloch_to_qubit(bloch))
        else:
            raw = entry["amplitudes"] if isinstance(entry, dict) else entry
            vec = _complex_vector(raw, f"state {key!r}", dim)
            norm = float(np.linalg.norm(vec))
            if abs(norm - 1.0) > _NORM_SLACK:
                raise ScenarioInvalid(f"state {key!r} deviates from normalization by "
                                      f"{abs(norm - 1.0):.2e}")
            if abs(norm - 1.0) > _RENORM_WARNING:
                print(f"warning: state {key!r} renormalized "
                      f"(deviation {abs(norm - 1.0):.2e})", file=sys.stderr)
            states.append(vec / norm)
        dim = states[-1].size
    return states


def _jsonable(value, degrees: bool = False):
    """``value`` in JSON types: a dataclass record becomes the dict of its fields
    in declaration order, renamed by ``_PRINTED_NAMES``, and with ``degrees``
    every number under an ``_ANGLE_KEYS`` key is converted from radians."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            if value.ndim == 0:
                return _jsonable(complex(value))
            return [_jsonable(row) for row in value]
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, degrees) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        node = value
    elif isinstance(value, PolarComplex):
        rect = value.rect
        node = {"modulus": value.modulus, "argument": value.argument,
                "re": rect.real, "im": rect.imag}
        if value.unwrapped_argument is not None:
            node["unwrapped_argument"] = value.unwrapped_argument
    elif isinstance(value, GeometricBreakdown):
        node = {"k_ratio": value.k_ratio, "dynamical_phase": value.dynamical_phase,
                "factors": [{"modulus_ratio": f.modulus_ratio, "solid_angle": f.solid_angle,
                             "i_point": f.i_point,
                             **({"s_point": f.s_point} if f.s_point is not None else {})}
                            for f in value.factors]}
    else:
        node = {_PRINTED_NAMES.get(k, k): v for k, v in vars(value).items()}
    out = {k: _jsonable(v, degrees) for k, v in node.items()}
    if degrees:
        for key, v in out.items():
            if key in _ANGLE_KEYS and isinstance(v, (int, float)):
                out[key] = v * _DEGREES_PER_RADIAN
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0  # fold negative zero
        return f"{value:.17g}"
    return str(value)


def _run_routes(mode: str, tol: Tolerances, geometric, direct) -> dict:
    """Payload of a value command: the routes ``mode`` selects (thunks, geometric
    first), its breakdown, and whether the two values differ by more than
    ``tol.comparison * max(1, |direct|)``."""
    results: dict = {}
    breakdown = None
    if mode in ("geometric", "both"):
        results["geometric"], breakdown = geometric()
    if mode in ("direct", "both"):
        results["direct"] = direct()
    mismatch = False
    if mode == "both":
        gap = abs(results["geometric"].rect - results["direct"].rect)
        mismatch = gap > tol.comparison * max(1.0, abs(results["direct"].rect))
    if breakdown is not None:
        results["breakdown"] = breakdown
    return {"results": results, "mismatch": mismatch}


def _cmd_qubit_weak(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    qi, qr, qf = _states(doc, ("i", "r", "f"), dim=2)
    vi, vr, vf = (qubit_to_bloch(q) for q in (qi, qr, qf))
    payload = _run_routes(
        args.mode, tol,
        lambda: qubit_values.projector_weak_value_geometric(vi, vr, vf),
        lambda: qubit_values.projector_weak_value_direct(qi, qr, qf))
    results = payload["results"]
    primary = results["geometric"] if "geometric" in results else results["direct"]
    results["modulus"] = primary.modulus
    results["argument"] = primary.argument
    return payload


def _modular_spec(doc: dict) -> qubit_values.QubitModularSpec:
    spec = doc.get("spec")
    if not isinstance(spec, dict):
        raise ScenarioInvalid("scenario is missing the 'spec' object")
    return qubit_values.QubitModularSpec(
        axis=as_bloch(_numbers(_required(spec, "axis", "spec"), "axis")),
        alpha=_real(spec.get("alpha", 0.0), "alpha"),
        beta=_real(spec.get("beta", 0.0), "beta"),
    )


def _cmd_qubit_modular(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    qi, qf = _states(doc, ("i", "f"), dim=2)
    spec = _modular_spec(doc)
    vi, vf = qubit_to_bloch(qi), qubit_to_bloch(qf)
    return _run_routes(
        args.mode, tol,
        lambda: qubit_values.modular_value_geometric(vi, spec, vf),
        lambda: qubit_values.modular_value_direct(qi, spec, qf))


def _cmd_qutrit_weak(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    si, sr, sf = _states(doc, ("i", "r", "f"))
    return _run_routes(
        args.mode, tol,
        lambda: nlevel_values.qutrit_projector_weak_value_geometric(si, sr, sf),
        lambda: nlevel_values.weak_value_direct(si, np.outer(sr, sr.conj()), sf))


def _nlevel_spec(doc: dict) -> nlevel_values.NLevelModularSpec:
    spec = doc.get("spec")
    if not isinstance(spec, dict):
        raise ScenarioInvalid("scenario is missing the 'spec' object")
    if "r8" in spec:
        direction = nlevel_values.GellMannDirection.from_r8(_numbers(spec["r8"], "r8"))
        observable = direction.operator
    elif "observable" in spec:
        observable = _complex_matrix(spec["observable"], "observable")
    else:
        raise ScenarioInvalid("spec needs either 'r8' or 'observable'")
    eigen_choice = spec.get("eigen_choice")
    return nlevel_values.NLevelModularSpec(
        observable=observable,
        alpha=_real(spec.get("alpha", 0.0), "alpha"),
        beta=_real(spec.get("beta", 0.0), "beta"),
        eigen_choice=None if eigen_choice is None else _integer(eigen_choice, "eigen_choice"),
        generic_theta=(None if spec.get("theta") is None else _real(spec["theta"], "theta")),
    )


def _cmd_qutrit_modular(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    si, sf = _states(doc, ("i", "f"))
    spec = _nlevel_spec(doc)
    return _run_routes(
        args.mode, tol,
        lambda: nlevel_values.qutrit_modular_value_geometric(si, spec, sf),
        lambda: nlevel_values.modular_value_direct(si, spec, sf))


def _cmd_nlevel_direct(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    si, sf = _states(doc, ("i", "f"))
    kind = doc.get("kind", "weak")
    if kind == "weak":
        observable = _complex_matrix(_required(doc, "observable"), "observable", si.size)
        value = nlevel_values.weak_value_direct(si, observable, sf)
    elif kind == "modular":
        value = nlevel_values.modular_value_direct(si, _nlevel_spec(doc), sf)
    else:
        raise ScenarioInvalid("kind must be 'weak' or 'modular'")
    return {"results": {"value": value, "kind": kind}, "provenance": "direct"}


def _cmd_majorana(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    (state,) = _states(doc, ("state",))
    rep = majorana.majorana_points(state)
    results = {"points": rep.points, "normalization": rep.normalization}
    if state.size == 3:
        results["discriminant"] = majorana.discriminant_degeneracy(state)
        results["entanglement_entropy"] = majorana.entanglement_entropy(rep.points)
    return {"results": results, "provenance": "direct"}


def _cmd_canonicalize(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    triple = canonical.canonicalize_triple(*_states(doc, ("i", "r", "f")))
    return {
        "results": {
            "u_total": triple.u_total,
            "r_vec": triple.r_vec,
            "f_vec": triple.f_vec,
            "eta": triple.eta,
            "i_points": triple.i_rep.points,
            "i_normalization": triple.i_rep.normalization,
            "psi_i": triple.psi_i,
            "psi_r": triple.psi_r,
            "psi_f": triple.psi_f,
        },
        "provenance": "direct",
    }


def _cmd_abl(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    si, sf = _states(doc, ("i", "f"))
    projectors = [_complex_matrix(p, "projectors", si.size)
                  for p in _required(doc, "projectors")]
    dist = nlevel_values.abl_distribution(si, projectors, sf)
    return {"results": {"probabilities": dist}, "provenance": "direct"}


def _scan_to_results(scan: experiments.SingularityScan) -> dict:
    return {
        "parameters": {"epsilon": scan.epsilon, "chi1": scan.chi1, "chi2": scan.chi2},
        "theta_bifurcation": scan.theta_bifurcation,
        "theta_singular": scan.theta_singular,
        "omega2_jump": scan.omega2_jump,
        "records": scan.records,
    }


def _scan_count(count, name: str) -> int:
    count = _integer(count, name)
    if count > _MAX_SCAN_POINTS:
        raise ScenarioInvalid(f"{name} must not exceed {_MAX_SCAN_POINTS}")
    return count


def _cmd_scan(args, tol: Tolerances) -> dict:
    """The scan of the scenario's parameters and grid, if any; a flag always
    overrides the scenario's key, and ``--count`` is unused with a grid."""
    doc = {} if args.scenario is None else _load_scenario(args.scenario)
    kwargs = {key: _real(doc[key], key) for key in _SCAN_PARAMETERS if key in doc}
    kwargs.update((key, getattr(args, key)) for key in _SCAN_PARAMETERS
                  if getattr(args, key) is not None)
    count, grid = _scan_count(args.count, "--count"), None
    grid_spec = doc.get("grid")
    if grid_spec is not None:
        start, stop, points = (_required(grid_spec, key, "grid")
                               for key in ("start", "stop", "count"))
        grid = np.linspace(_real(start, "grid start"), _real(stop, "grid stop"),
                           _scan_count(points, "grid count"))
    scan = experiments.singularity_scan(grid, count=count, **kwargs)
    return {"results": _scan_to_results(scan), "provenance": "both"}


def _cmd_three_box(args, tol: Tolerances) -> dict:
    return {"results": experiments.three_box_report(), "provenance": "both"}


def _csv(header, rows) -> str:
    """A table: the ``header`` names, then one line of ``_fmt`` cells per row."""
    lines = [",".join(header)] + [",".join(_fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _three_box_csv(results: dict) -> str:
    boxes = list(enumerate(results["boxes"], start=1))
    rows = [(b, q, f["modulus"], f["solid_angle"], f["value"]["re"], f["value"]["im"])
            for b, box in boxes for q, f in enumerate(box["factors"], start=1)]
    rows += [(b, "total", abs(complex(box["weak_value"]["re"], box["weak_value"]["im"])),
              sum(f["solid_angle"] for f in box["factors"]),
              box["weak_value"]["re"], box["weak_value"]["im"])
             for b, box in boxes]
    return _csv(("box", "qubit", "modulus", "solid_angle", "weak_value_re", "weak_value_im"),
                rows)


def _scan_csv(results: dict) -> str:
    return _csv(_SCAN_COLUMNS + ("flags",),
                ([*(r[c] for c in _SCAN_COLUMNS), ";".join(r["flags"])]
                 for r in results["records"]))


def _field_rows(node, prefix: str = ""):
    """``(dotted path, leaf)`` for every leaf of a JSON document, in order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _field_rows(value, f"{prefix}{key}.")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _field_rows(value, f"{prefix}{index}.")
    else:
        yield prefix[:-1], node


_COMMANDS = {
    "qubit-weak": _cmd_qubit_weak,
    "qubit-modular": _cmd_qubit_modular,
    "qutrit-weak": _cmd_qutrit_weak,
    "qutrit-modular": _cmd_qutrit_modular,
    "nlevel-direct": _cmd_nlevel_direct,
    "majorana": _cmd_majorana,
    "canonicalize": _cmd_canonicalize,
    "scan-singularity": _cmd_scan,
    "three-box": _cmd_three_box,
    "abl": _cmd_abl,
}


# The subcommands that compute a value by both routes and take --mode.
_VALUE_COMMANDS = ("qubit-weak", "qubit-modular", "qutrit-weak", "qutrit-modular")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads any token starting ``-<digit>`` or
    ``-.<digit>`` as a negative number, so ``--chi1 -1e-3`` parses like
    ``--chi1=-1e-3`` (Python 3.11's argparse takes ``-1e-3`` for an option),
    and raises a command line it refuses instead of exiting, so that
    :func:`run` prints the usage error document."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="majgeom",
        description="Weak and modular values of discrete quantum systems, "
                    "directly and through Bloch-sphere geometry.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name != "three-box":
            p.add_argument("--scenario", required=name != "scan-singularity",
                           help="JSON scenario file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if name in _VALUE_COMMANDS:
            p.add_argument("--mode", choices=("geometric", "direct", "both"),
                           default="both")
        else:
            p.set_defaults(mode="both")
        p.add_argument("--out", default=None, help="write the document to a file")
        p.add_argument("--degrees", action="store_true",
                       help="convert angular output fields to degrees")
        if name == "scan-singularity":
            p.add_argument("--count", type=int, default=512)
            p.add_argument("--epsilon", type=float, default=None)
            p.add_argument("--chi1", type=float, default=None)
            p.add_argument("--chi2", type=float, default=None)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _error_document(kind: str, exc: Exception) -> str:
    doc = {"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}}
    return json.dumps(doc, indent=2) + "\n"


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        tol = _tolerances_from_env()
        payload = _COMMANDS[args.command](args, tol)
    except _PHYSICAL_ERRORS as exc:
        sys.stdout.write(_error_document("physical-singularity", exc))
        return 3
    except _USAGE_ERRORS as exc:
        sys.stdout.write(_error_document("usage", exc))
        return 2

    envelope = {
        "command": args.command,
        "version": SCENARIO_VERSION,
        "mode": args.mode,
        "provenance": payload.get("provenance", args.mode),
        "tolerances": _jsonable(tol),
        "results": _jsonable(payload["results"], args.degrees),
    }
    if "mismatch" in payload:
        envelope["mismatch"] = payload["mismatch"]
    if args.degrees:
        envelope["angle_unit"] = "degrees"

    if args.format == "json":
        text = json.dumps(envelope, indent=2) + "\n"
    elif args.command == "three-box":
        text = _three_box_csv(envelope["results"])
    elif args.command == "scan-singularity":
        text = _scan_csv(envelope["results"])
    else:
        text = _csv(("field", "value"), _field_rows(envelope["results"]))
    try:
        _emit(text, args.out)
    except OSError as exc:  # an unwritable --out
        sys.stdout.write(_error_document("usage", exc))
        return 2
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
