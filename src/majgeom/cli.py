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
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import canonical, experiments, majorana, nlevel_values, qubit_values
from .bloch import as_bloch, bloch_to_qubit, qubit_to_bloch
from .errors import MajgeomError, OrthogonalSelection, UndefinedSolidAngle, ZeroDenominator
from .numerics import _NORM_SLACK, _RENORM_WARNING, DEFAULT_TOL, Tolerances
from .polar import GeometricBreakdown, PolarComplex

SCENARIO_VERSION = 1

_PHYSICAL_ERRORS = (OrthogonalSelection, UndefinedSolidAngle, ZeroDenominator)
# Any other MajgeomError (NotHermitian, ...) means the input failed validation.
_USAGE_ERRORS = (ValueError, KeyError, TypeError, OSError, MajgeomError)

# Field names whose values are radians and honor --degrees on output.
_ANGLE_KEYS = {
    "argument", "unwrapped_argument", "solid_angle", "dynamical_phase",
    "alpha", "beta", "alpha1", "alpha2", "beta1", "beta2",
    "omega1", "omega2", "wv_arg", "theta", "eta", "epsilon", "chi1", "chi2",
    "theta_bifurcation", "theta_singular", "omega2_jump",
}

_RECORD_FIELDS = tuple(field.name for field in fields(experiments.ScanRecord))
# Printed names of the scan-record fields that differ from the dataclass's.
_RECORD_KEYS = {"wv_modulus": "wv_mod", "wv_argument": "wv_arg"}
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


def _load_scenario(path: str | None) -> dict:
    if path is None:
        raise ScenarioInvalid("this command requires --scenario FILE")
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ScenarioInvalid("scenario document must be a JSON object")
    if doc.get("version") != SCENARIO_VERSION:
        raise ScenarioInvalid(f"scenario version must be {SCENARIO_VERSION}")
    return doc


def _required(doc: dict, key: str, where: str = "scenario"):
    """``doc[key]``; a missing key raises :class:`ScenarioInvalid` naming it."""
    if key not in doc:
        raise ScenarioInvalid(f"{where} is missing {key!r}")
    return doc[key]


def _complex_vector(raw, length: int | None = None) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ScenarioInvalid("amplitudes must be a list of [re, im] pairs")
    if length is not None and arr.shape[0] != length:
        raise ScenarioInvalid(f"expected {length} amplitudes, got {arr.shape[0]}")
    return arr[:, 0] + 1j * arr[:, 1]


def _complex_matrix(raw, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
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
            states.append(bloch_to_qubit(as_bloch(entry["bloch"])))
        else:
            raw = entry["amplitudes"] if isinstance(entry, dict) else entry
            vec = _complex_vector(raw, dim)
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


def _jsonable(value):
    if isinstance(value, PolarComplex):
        rect = value.rect
        out = {"modulus": value.modulus, "argument": value.argument,
               "re": rect.real, "im": rect.imag}
        if value.unwrapped_argument is not None:
            out["unwrapped_argument"] = value.unwrapped_argument
        return out
    if isinstance(value, GeometricBreakdown):
        return {
            "k_ratio": value.k_ratio,
            "dynamical_phase": value.dynamical_phase,
            "factors": [
                {
                    "modulus_ratio": f.modulus_ratio,
                    "solid_angle": f.solid_angle,
                    "i_point": _jsonable(f.i_point),
                    **({"s_point": _jsonable(f.s_point)} if f.s_point is not None else {}),
                }
                for f in value.factors
            ],
        }
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
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def _convert_angles(node, factor: float):
    if isinstance(node, dict):
        return {k: (_convert_angles(v, factor) if k not in _ANGLE_KEYS
                    else (v * factor if isinstance(v, (int, float)) else v))
                for k, v in node.items()}
    if isinstance(node, list):
        return [_convert_angles(v, factor) for v in node]
    return node


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
        axis=as_bloch(_required(spec, "axis", "spec")),
        alpha=float(spec.get("alpha", 0.0)),
        beta=float(spec.get("beta", 0.0)),
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
        observable = nlevel_values.GellMannDirection.from_r8(spec["r8"]).operator
    elif "observable" in spec:
        observable = _complex_matrix(spec["observable"])
    else:
        raise ScenarioInvalid("spec needs either 'r8' or 'observable'")
    eigen_choice = spec.get("eigen_choice")
    return nlevel_values.NLevelModularSpec(
        observable=observable,
        alpha=float(spec.get("alpha", 0.0)),
        beta=float(spec.get("beta", 0.0)),
        eigen_choice=None if eigen_choice is None else int(eigen_choice),
        generic_theta=(None if spec.get("theta") is None else float(spec["theta"])),
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
        observable = _complex_matrix(_required(doc, "observable"), si.size)
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
    results = asdict(rep)
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
    projectors = [_complex_matrix(p, si.size) for p in _required(doc, "projectors")]
    dist = nlevel_values.abl_distribution(si, projectors, sf)
    return {"results": {"probabilities": dist}, "provenance": "direct"}


def _scan_to_results(scan: experiments.SingularityScan) -> dict:
    return {
        "parameters": {"epsilon": scan.epsilon, "chi1": scan.chi1, "chi2": scan.chi2},
        "theta_bifurcation": scan.theta_bifurcation,
        "theta_singular": scan.theta_singular,
        "omega2_jump": scan.omega2_jump,
        "records": [{_RECORD_KEYS.get(name, name): getattr(r, name) for name in _RECORD_FIELDS}
                    for r in scan.records],
    }


def _scan_count(count: int, name: str) -> int:
    if count > _MAX_SCAN_POINTS:
        raise ScenarioInvalid(f"{name} must not exceed {_MAX_SCAN_POINTS}")
    return count


def _cmd_scan(args, tol: Tolerances) -> dict:
    """The scan of the scenario's parameters and grid, if any; a flag always
    overrides the scenario's key, and ``--count`` is unused with a grid."""
    doc = {} if args.scenario is None else _load_scenario(args.scenario)
    kwargs = {key: float(doc[key]) for key in _SCAN_PARAMETERS if key in doc}
    kwargs.update((key, getattr(args, key)) for key in _SCAN_PARAMETERS
                  if getattr(args, key) is not None)
    count, grid = _scan_count(args.count, "--count"), None
    grid_spec = doc.get("grid")
    if grid_spec is not None:
        start, stop, points = (_required(grid_spec, key, "grid")
                               for key in ("start", "stop", "count"))
        grid = np.linspace(float(start), float(stop), _scan_count(int(points), "grid count"))
    scan = experiments.singularity_scan(grid, count=count, **kwargs)
    return {"results": _scan_to_results(scan), "provenance": "both"}


def _cmd_three_box(args, tol: Tolerances) -> dict:
    return {"results": asdict(experiments.three_box_report()), "provenance": "both"}


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majgeom",
        description="Weak and modular values of discrete quantum systems, "
                    "directly and through Bloch-sphere geometry.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", default=None, help="JSON scenario file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--mode", choices=("geometric", "direct", "both"),
                       default="both")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
        "tolerances": asdict(tol),
        "results": _jsonable(payload["results"]),
    }
    if "mismatch" in payload:
        envelope["mismatch"] = payload["mismatch"]
    if args.degrees:
        envelope["results"] = _convert_angles(envelope["results"], 180.0 / math.pi)
        envelope["angle_unit"] = "degrees"

    if args.format == "json":
        text = json.dumps(envelope, indent=2) + "\n"
    elif args.command == "three-box":
        text = _three_box_csv(envelope["results"])
    elif args.command == "scan-singularity":
        text = _scan_csv(envelope["results"])
    else:
        text = _csv(("field", "value"), _field_rows(envelope["results"]))
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
