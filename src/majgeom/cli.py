"""Command-line surface: scenario ingestion, dispatch, JSON/CSV emission.

Exit codes: 0 success, 2 usage or validation failure, 3 physical singularity
(orthogonal selection and friends).  Output bytes are deterministic for fixed
inputs; set ``MAJGEOM_TOL`` to override the comparison tolerance used for the
geometric/direct mismatch check.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import canonical, experiments, majorana, nlevel_values, qubit_values
from .bloch import as_bloch, qubit_to_bloch
from .errors import (
    EtaOutOfRange,
    MajgeomError,
    OrthogonalSelection,
    UndefinedSolidAngle,
    ZeroDenominator,
)
from .numerics import _NORM_SLACK, DEFAULT_TOL, Tolerances
from .polar import GeometricBreakdown, PolarComplex

SCENARIO_VERSION = 1

_PHYSICAL_ERRORS = (OrthogonalSelection, EtaOutOfRange, UndefinedSolidAngle,
                    ZeroDenominator)
# Any other MajgeomError (NotHermitian, ...) means the input failed validation.
_USAGE_ERRORS = (ValueError, KeyError, TypeError, OSError, MajgeomError)

# Field names whose values are radians and honor --degrees on output.
_ANGLE_KEYS = {
    "argument", "unwrapped_argument", "solid_angle", "dynamical_phase",
    "alpha", "beta", "alpha1", "alpha2", "beta1", "beta2",
    "omega1", "omega2", "wv_arg", "theta", "eta", "epsilon", "chi1", "chi2",
    "theta_bifurcation", "theta_singular", "omega2_jump",
}


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


def _state_entry(doc: dict, key: str, dim: int, tol: Tolerances) -> np.ndarray:
    """A state given either as amplitudes or (for qubits) as a Bloch vector."""
    if key not in doc:
        raise ScenarioInvalid(f"scenario is missing the state {key!r}")
    entry = doc[key]
    if isinstance(entry, dict) and "bloch" in entry:
        if dim != 2:
            raise ScenarioInvalid("bloch input is only meaningful for qubits")
        from .bloch import bloch_to_qubit
        return bloch_to_qubit(as_bloch(entry["bloch"], tol=tol), tol=tol)
    raw = entry["amplitudes"] if isinstance(entry, dict) else entry
    vec = _complex_vector(raw, dim)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > _NORM_SLACK:
        raise ScenarioInvalid(f"state {key!r} deviates from normalization by "
                              f"{abs(norm - 1.0):.2e}")
    if abs(norm - 1.0) > 1e-10:
        print(f"warning: state {key!r} renormalized "
              f"(deviation {abs(norm - 1.0):.2e})", file=sys.stderr)
    return vec / norm


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


def _polar_pair(direct: PolarComplex | None, geometric: PolarComplex | None,
                tol: Tolerances) -> tuple[dict, bool]:
    results: dict = {}
    mismatch = False
    if geometric is not None:
        results["geometric"] = geometric
    if direct is not None:
        results["direct"] = direct
    if geometric is not None and direct is not None:
        gap = abs(geometric.rect - direct.rect)
        mismatch = gap > tol.comparison * max(1.0, abs(direct.rect))
    return results, mismatch


def _cmd_qubit_weak(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    states = {k: _state_entry(doc, k, 2, tol) for k in ("i", "r", "f")}
    vectors = {k: qubit_to_bloch(v, tol=tol) for k, v in states.items()}
    geometric = direct = breakdown = None
    if args.mode in ("geometric", "both"):
        geometric, breakdown = qubit_values.projector_weak_value_geometric(
            vectors["i"], vectors["r"], vectors["f"], tol=tol)
    if args.mode in ("direct", "both"):
        direct = qubit_values.projector_weak_value_direct(
            states["i"], states["r"], states["f"], tol=tol)
    results, mismatch = _polar_pair(direct, geometric, tol)
    if breakdown is not None:
        results["breakdown"] = breakdown
    primary = geometric if geometric is not None else direct
    results["modulus"] = primary.modulus
    results["argument"] = primary.argument
    return {"results": results, "mismatch": mismatch}


def _modular_spec(doc: dict, tol: Tolerances) -> qubit_values.QubitModularSpec:
    spec = doc.get("spec")
    if not isinstance(spec, dict):
        raise ScenarioInvalid("scenario is missing the 'spec' object")
    return qubit_values.QubitModularSpec(
        axis=as_bloch(spec["axis"], tol=tol),
        alpha=float(spec.get("alpha", 0.0)),
        beta=float(spec.get("beta", 0.0)),
    )


def _cmd_qubit_modular(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    states = {k: _state_entry(doc, k, 2, tol) for k in ("i", "f")}
    spec = _modular_spec(doc, tol)
    vectors = {k: qubit_to_bloch(v, tol=tol) for k, v in states.items()}
    geometric = direct = breakdown = None
    if args.mode in ("geometric", "both"):
        geometric, breakdown = qubit_values.modular_value_geometric(
            vectors["i"], spec, vectors["f"], tol=tol)
    if args.mode in ("direct", "both"):
        direct = qubit_values.modular_value_direct(states["i"], spec, states["f"], tol=tol)
    results, mismatch = _polar_pair(direct, geometric, tol)
    if breakdown is not None:
        results["breakdown"] = breakdown
    return {"results": results, "mismatch": mismatch}


def _cmd_qutrit_weak(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    states = {k: _state_entry(doc, k, 3, tol) for k in ("i", "r", "f")}
    geometric = direct = breakdown = None
    if args.mode in ("geometric", "both"):
        geometric, breakdown = nlevel_values.qutrit_projector_weak_value_geometric(
            states["i"], states["r"], states["f"], tol=tol)
    if args.mode in ("direct", "both"):
        projector = np.outer(states["r"], states["r"].conj())
        direct = nlevel_values.weak_value_direct(states["i"], projector, states["f"],
                                                 tol=tol)
    results, mismatch = _polar_pair(direct, geometric, tol)
    if breakdown is not None:
        results["breakdown"] = breakdown
    return {"results": results, "mismatch": mismatch}


def _nlevel_spec(doc: dict, tol: Tolerances) -> nlevel_values.NLevelModularSpec:
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
    states = {k: _state_entry(doc, k, 3, tol) for k in ("i", "f")}
    spec = _nlevel_spec(doc, tol)
    geometric = direct = breakdown = None
    if args.mode in ("geometric", "both"):
        geometric, breakdown = nlevel_values.qutrit_modular_value_geometric(
            states["i"], spec, states["f"], tol=tol)
    if args.mode in ("direct", "both"):
        direct = nlevel_values.modular_value_direct(states["i"], spec, states["f"],
                                                    tol=tol)
    results, mismatch = _polar_pair(direct, geometric, tol)
    if breakdown is not None:
        results["breakdown"] = breakdown
    return {"results": results, "mismatch": mismatch}


def _cmd_nlevel_direct(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    dim = len(doc["i"]) if not isinstance(doc["i"], dict) else len(doc["i"]["amplitudes"])
    states = {k: _state_entry(doc, k, dim, tol) for k in ("i", "f")}
    kind = doc.get("kind", "weak")
    if kind == "weak":
        observable = _complex_matrix(doc["observable"], dim)
        value = nlevel_values.weak_value_direct(states["i"], observable, states["f"],
                                                tol=tol)
    elif kind == "modular":
        spec = _nlevel_spec(doc, tol)
        value = nlevel_values.modular_value_direct(states["i"], spec, states["f"],
                                                   tol=tol)
    else:
        raise ScenarioInvalid("kind must be 'weak' or 'modular'")
    return {"results": {"value": value, "kind": kind}, "provenance": "direct"}


def _cmd_majorana(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    raw = doc["state"]
    state = _state_entry(doc, "state", len(raw["amplitudes"] if isinstance(raw, dict)
                                           else raw), tol)
    rep = majorana.majorana_points(state, tol=tol)
    results = {
        "points": rep.points,
        "normalization": rep.normalization,
    }
    if state.size == 3:
        results["discriminant"] = majorana.discriminant_degeneracy(state, tol=tol)
        results["entanglement_entropy"] = majorana.entanglement_entropy(rep.points,
                                                                        tol=tol)
    return {"results": results, "provenance": "direct"}


def _cmd_canonicalize(args, tol: Tolerances) -> dict:
    doc = _load_scenario(args.scenario)
    states = {k: _state_entry(doc, k, 3, tol) for k in ("i", "r", "f")}
    triple = canonical.canonicalize_triple(states["i"], states["r"], states["f"],
                                           tol=tol)
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
    dim = len(doc["i"]) if not isinstance(doc["i"], dict) else len(doc["i"]["amplitudes"])
    states = {k: _state_entry(doc, k, dim, tol) for k in ("i", "f")}
    projectors = [_complex_matrix(p, dim) for p in doc["projectors"]]
    dist = nlevel_values.abl_distribution(states["i"], projectors, states["f"], tol=tol)
    return {"results": {"probabilities": dist}, "provenance": "direct"}


def _scan_to_results(scan: experiments.SingularityScan) -> dict:
    return {
        "parameters": {"epsilon": scan.epsilon, "chi1": scan.chi1, "chi2": scan.chi2},
        "theta_bifurcation": scan.theta_bifurcation,
        "theta_singular": scan.theta_singular,
        "omega2_jump": scan.omega2_jump,
        "records": [
            {
                "theta": r.theta,
                "alpha1": r.alpha1, "alpha2": r.alpha2,
                "beta1": r.beta1, "beta2": r.beta2,
                "i1": r.i1, "i2": r.i2,
                "omega1": r.omega1, "omega2": r.omega2,
                "wv_mod": r.wv_modulus, "wv_arg": r.wv_argument,
                "wv_direct": r.wv_direct,
                "flags": r.flags,
            }
            for r in scan.records
        ],
    }


def _cmd_scan(args, tol: Tolerances) -> dict:
    kwargs = {}
    if args.scenario is not None:
        doc = _load_scenario(args.scenario)
        for key in ("epsilon", "chi1", "chi2"):
            if key in doc:
                kwargs[key] = float(doc[key])
        grid_spec = doc.get("grid")
        if grid_spec is not None:
            grid = np.linspace(float(grid_spec["start"]), float(grid_spec["stop"]),
                               int(grid_spec["count"]))
            scan = experiments.singularity_scan(grid, tol=tol, **kwargs)
            return {"results": _scan_to_results(scan), "provenance": "both"}
    if args.epsilon is not None:
        kwargs["epsilon"] = args.epsilon
    if args.chi1 is not None:
        kwargs["chi1"] = args.chi1
    if args.chi2 is not None:
        kwargs["chi2"] = args.chi2
    scan = experiments.singularity_scan(count=args.count, tol=tol, **kwargs)
    return {"results": _scan_to_results(scan), "provenance": "both"}


def _cmd_three_box(args, tol: Tolerances) -> dict:
    report = experiments.three_box_report(tol=tol)
    boxes = []
    for box in report.boxes:
        boxes.append({
            "name": box.name,
            "points": box.points,
            "normalization": box.normalization,
            "factors": [
                {"modulus": f.modulus, "solid_angle": f.solid_angle,
                 "value": f.value, "point": f.point}
                for f in box.factors
            ],
            "weak_value": box.weak_value,
            "weak_value_direct": box.weak_value_direct,
            "entropy": box.entropy,
            "r_basis": box.r_basis,
            "bell_overlap": box.bell_overlap,
            "closest_separable": box.closest_separable,
        })
    return {
        "results": {
            "i_vec": report.i_vec,
            "f_vec": report.f_vec,
            "boxes": boxes,
            "weak_value_sum": report.weak_value_sum,
            "abl_one_box": report.abl_one_box,
            "abl_all_boxes": report.abl_all_boxes,
            "symmetry_checks": report.symmetry_checks,
        },
        "provenance": "both",
    }


def _three_box_csv(results: dict) -> str:
    buffer = io.StringIO()
    buffer.write("box,qubit,modulus,solid_angle,weak_value_re,weak_value_im\n")
    for box_index, box in enumerate(results["boxes"], start=1):
        for qubit_index, factor in enumerate(box["factors"], start=1):
            buffer.write(",".join([
                str(box_index), str(qubit_index),
                _fmt(factor["modulus"]), _fmt(factor["solid_angle"]),
                _fmt(factor["value"]["re"]), _fmt(factor["value"]["im"]),
            ]) + "\n")
    for box_index, box in enumerate(results["boxes"], start=1):
        total_angle = sum(f["solid_angle"] for f in box["factors"])
        total_mod = abs(complex(box["weak_value"]["re"], box["weak_value"]["im"]))
        buffer.write(",".join([
            str(box_index), "total",
            _fmt(total_mod), _fmt(total_angle),
            _fmt(box["weak_value"]["re"]), _fmt(box["weak_value"]["im"]),
        ]) + "\n")
    return buffer.getvalue()


def _scan_csv(results: dict) -> str:
    buffer = io.StringIO()
    buffer.write("theta,alpha1,alpha2,beta1,beta2,omega1,omega2,wv_mod,wv_arg,flags\n")
    for record in results["records"]:
        buffer.write(",".join([
            _fmt(record["theta"]),
            _fmt(record["alpha1"]), _fmt(record["alpha2"]),
            _fmt(record["beta1"]), _fmt(record["beta2"]),
            _fmt(record["omega1"]), _fmt(record["omega2"]),
            _fmt(record["wv_mod"]), _fmt(record["wv_arg"]),
            ";".join(record["flags"]),
        ]) + "\n")
    return buffer.getvalue()


def _generic_csv(node, prefix: str = "") -> list[str]:
    rows: list[str] = []
    if isinstance(node, dict):
        for key, value in node.items():
            rows.extend(_generic_csv(value, f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            rows.extend(_generic_csv(value, f"{prefix}{index}."))
    else:
        rows.append(f"{prefix[:-1]},{_fmt(node)}")
    return rows


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
        "tolerances": {
            "comparison": tol.comparison,
            "unitarity": tol.unitarity,
            "zero": tol.zero,
            "orthogonality": tol.orthogonality,
        },
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
        text = "field,value\n" + "\n".join(_generic_csv(envelope["results"])) + "\n"
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
