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
# an OverflowError is a scenario integer out of range for float(), and an
# ArgumentError a command line the parser refused.
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
# Deepest nesting of a scenario's number lists: numpy's largest array rank.
_MAX_RANK = 64


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


def _object(doc: dict, key: str) -> dict:
    """``doc[key]``; a missing key, or anything but a JSON object there, raises
    :class:`ScenarioInvalid` naming it."""
    if key not in doc:
        raise ScenarioInvalid(f"scenario is missing the {key!r} object")
    if not isinstance(doc[key], dict):
        raise ScenarioInvalid(f"scenario {key!r} must be an object")
    return doc[key]


def _is_number(raw) -> bool:
    """Whether ``raw`` is a JSON number: an ``int`` that is not a ``bool`` (JSON
    ``true`` and ``false``), or a ``float``."""
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _integer(raw, name: str) -> int:
    """``int(raw)``; anything but a finite JSON number, or a number that
    ``int()`` changes, raises :class:`ScenarioInvalid` naming it."""
    if _is_number(raw) and (isinstance(raw, int) or math.isfinite(raw)):
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


def _numbers(raw, name: str) -> np.ndarray:
    """``raw``, a JSON number or nested lists of them, as a float array.  A
    leaf that is not a number, lists of unequal length at one depth (or a list
    beside a number) and lists nested more than ``_MAX_RANK`` deep each raise
    :class:`ScenarioInvalid` naming it, in that order wherever they sit.  The
    walk goes one depth at a time, so a list nested as deeply as the JSON
    reader allows does not recurse."""
    level, shape, rectangular = [raw], [], True
    while True:
        lists = [item for item in level if isinstance(item, list)]
        if not all(_is_number(item) for item in level if not isinstance(item, list)):
            raise ScenarioInvalid(f"{name} must hold only numbers")
        if not lists:
            break
        rectangular = (rectangular and len(lists) == len(level)
                       and len({len(item) for item in lists}) == 1)
        shape.append(len(lists[0]))
        level = [leaf for item in lists for leaf in item]
    if not rectangular:
        raise ScenarioInvalid(f"{name} must be a rectangular array")
    if len(shape) > _MAX_RANK:
        raise ScenarioInvalid(f"{name} is nested too deeply")
    return np.array(level, dtype=float).reshape(shape)


def _bloch(raw, name: str, where: str) -> np.ndarray:
    """``raw`` as a unit Bloch vector (:func:`as_bloch`); a refusal of its
    numbers names ``name``, a refusal of the vector names ``where``."""
    vec = _numbers(raw, name)
    try:
        return as_bloch(vec)
    except ValueError as exc:
        raise ScenarioInvalid(f"{where}: {exc}") from exc


def _complex_vector(raw, name: str, length: int | None = None) -> np.ndarray:
    arr = _numbers(raw, name)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ScenarioInvalid("amplitudes must be a list of [re, im] pairs")
    if length is not None and arr.shape[0] != length:
        raise ScenarioInvalid(f"expected {length} amplitudes, got {arr.shape[0]}")
    if not np.isfinite(arr).all():  # 1j * inf would make a NaN real part
        raise ScenarioInvalid(f"{name} amplitudes must be finite")
    return arr[:, 0] + 1j * arr[:, 1]


def _complex_matrix(raw, name: str, dim: int | None = None) -> np.ndarray:
    arr = _numbers(raw, name)
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
            name = f"state {key!r}"
            states.append(bloch_to_qubit(_bloch(entry["bloch"], name, name)))
        else:
            raw = (_required(entry, "amplitudes", f"state {key!r}") if isinstance(entry, dict)
                   else entry)
            vec = _complex_vector(raw, f"state {key!r}", dim)
            with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
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
            return [_jsonable(row) for row in value]
        return value.tolist()
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


def _run_routes(mode: str, geometric, direct) -> dict:
    """Results of a value command: the routes ``mode`` selects (thunks, geometric
    first) and its breakdown."""
    results: dict = {}
    breakdown = None
    if mode in ("geometric", "both"):
        results["geometric"], breakdown = geometric()
    if mode in ("direct", "both"):
        results["direct"] = direct()
    if breakdown is not None:
        results["breakdown"] = breakdown
    return results


def _cmd_qubit_weak(doc: dict, args) -> dict:
    qi, qr, qf = _states(doc, ("i", "r", "f"), dim=2)
    vi, vr, vf = (qubit_to_bloch(q) for q in (qi, qr, qf))
    results = _run_routes(args.mode,
                          lambda: qubit_values.projector_weak_value_geometric(vi, vr, vf),
                          lambda: qubit_values.projector_weak_value_direct(qi, qr, qf))
    primary = results["geometric"] if "geometric" in results else results["direct"]
    results["modulus"] = primary.modulus
    results["argument"] = primary.argument
    return results


def _modular_spec(doc: dict) -> qubit_values.QubitModularSpec:
    spec = _object(doc, "spec")
    return qubit_values.QubitModularSpec(
        axis=_bloch(_required(spec, "axis", "spec"), "axis", "spec 'axis'"),
        alpha=_real(spec.get("alpha", 0.0), "alpha"),
        beta=_real(spec.get("beta", 0.0), "beta"),
    )


def _cmd_qubit_modular(doc: dict, args) -> dict:
    qi, qf = _states(doc, ("i", "f"), dim=2)
    spec = _modular_spec(doc)
    vi, vf = qubit_to_bloch(qi), qubit_to_bloch(qf)
    return _run_routes(args.mode,
                       lambda: qubit_values.modular_value_geometric(vi, spec, vf),
                       lambda: qubit_values.modular_value_direct(qi, spec, qf))


def _cmd_qutrit_weak(doc: dict, args) -> dict:
    si, sr, sf = _states(doc, ("i", "r", "f"))
    return _run_routes(args.mode,
                       lambda: nlevel_values.qutrit_projector_weak_value_geometric(si, sr, sf),
                       lambda: nlevel_values.weak_value_direct(si, np.outer(sr, sr.conj()), sf))


def _nlevel_spec(doc: dict) -> nlevel_values.NLevelModularSpec:
    spec = _object(doc, "spec")
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


def _cmd_qutrit_modular(doc: dict, args) -> dict:
    si, sf = _states(doc, ("i", "f"))
    spec = _nlevel_spec(doc)
    return _run_routes(args.mode,
                       lambda: nlevel_values.qutrit_modular_value_geometric(si, spec, sf),
                       lambda: nlevel_values.modular_value_direct(si, spec, sf))


def _cmd_nlevel_direct(doc: dict, args) -> dict:
    si, sf = _states(doc, ("i", "f"))
    kind = doc.get("kind", "weak")
    if kind == "weak":
        observable = _complex_matrix(_required(doc, "observable"), "observable", si.size)
        value = nlevel_values.weak_value_direct(si, observable, sf)
    elif kind == "modular":
        value = nlevel_values.modular_value_direct(si, _nlevel_spec(doc), sf)
    else:
        raise ScenarioInvalid("kind must be 'weak' or 'modular'")
    return {"value": value, "kind": kind}


def _cmd_majorana(doc: dict, args) -> dict:
    (state,) = _states(doc, ("state",))
    rep = majorana.majorana_points(state)
    results = {"points": rep.points, "normalization": rep.normalization}
    if state.size == 3:
        results["discriminant"] = majorana.discriminant_degeneracy(state)
        results["entanglement_entropy"] = majorana.entanglement_entropy(rep.points)
    return results


def _cmd_canonicalize(doc: dict, args) -> dict:
    triple = canonical.canonicalize_triple(*_states(doc, ("i", "r", "f")))
    return {
        "u_total": triple.u_total,
        "r_vec": triple.r_vec,
        "f_vec": triple.f_vec,
        "eta": triple.eta,
        "i_points": triple.i_rep.points,
        "i_normalization": triple.i_rep.normalization,
        "psi_i": triple.psi_i,
        "psi_r": triple.psi_r,
        "psi_f": triple.psi_f,
    }


def _cmd_abl(doc: dict, args) -> dict:
    si, sf = _states(doc, ("i", "f"))
    projectors = _required(doc, "projectors")
    if not isinstance(projectors, list):
        raise ScenarioInvalid("projectors must be a list of matrices")
    projectors = [_complex_matrix(p, "projectors", si.size) for p in projectors]
    dist = nlevel_values.abl_distribution(si, projectors, sf)
    return {"probabilities": dist}


def _scan_count(count, name: str) -> int:
    count = _integer(count, name)
    if count > _MAX_SCAN_POINTS:
        raise ScenarioInvalid(f"{name} must not exceed {_MAX_SCAN_POINTS}")
    return count


def _cmd_scan(doc: dict, args) -> dict:
    """The scan of the scenario's parameters and grid, if any; a flag always
    overrides the scenario's key, and ``--count`` is unused with a grid."""
    kwargs = {key: _real(doc[key], key) for key in _SCAN_PARAMETERS if key in doc}
    kwargs.update((key, getattr(args, key)) for key in _SCAN_PARAMETERS
                  if getattr(args, key) is not None)
    count, grid = _scan_count(args.count, "--count"), None
    if doc.get("grid") is not None:
        grid_spec = _object(doc, "grid")
        start, stop, points = (_required(grid_spec, key, "grid")
                               for key in ("start", "stop", "count"))
        grid = np.linspace(_real(start, "grid start"), _real(stop, "grid stop"),
                           _scan_count(points, "grid count"))
    scan = experiments.singularity_scan(grid, count=count, **kwargs)
    return {
        "parameters": {"epsilon": scan.epsilon, "chi1": scan.chi1, "chi2": scan.chi2},
        "theta_bifurcation": scan.theta_bifurcation,
        "theta_singular": scan.theta_singular,
        "omega2_jump": scan.omega2_jump,
        "records": scan.records,
    }


def _cmd_three_box(doc: dict, args) -> experiments.ThreeBoxReport:
    return experiments.three_box_report()


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


def _fields_csv(results: dict) -> str:
    return _csv(("field", "value"), _field_rows(results))


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


# Each subcommand: its handler, called with the scenario document (empty when
# none is given) and the arguments; whether --scenario is "required",
# "optional" or absent (None); its provenance; and its CSV writer.  A value
# command has provenance None: it takes --mode, prints the mode as its
# provenance, and run() adds the mismatch flag of its two routes.
_COMMANDS = {
    "qubit-weak": (_cmd_qubit_weak, "required", None, _fields_csv),
    "qubit-modular": (_cmd_qubit_modular, "required", None, _fields_csv),
    "qutrit-weak": (_cmd_qutrit_weak, "required", None, _fields_csv),
    "qutrit-modular": (_cmd_qutrit_modular, "required", None, _fields_csv),
    "nlevel-direct": (_cmd_nlevel_direct, "required", "direct", _fields_csv),
    "majorana": (_cmd_majorana, "required", "direct", _fields_csv),
    "canonicalize": (_cmd_canonicalize, "required", "direct", _fields_csv),
    "scan-singularity": (_cmd_scan, "optional", "both", _scan_csv),
    "three-box": (_cmd_three_box, None, "both", _three_box_csv),
    "abl": (_cmd_abl, "required", "direct", _fields_csv),
}


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
    for name, (_, scenario, provenance, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        if scenario is not None:
            p.add_argument("--scenario", required=scenario == "required",
                           help="JSON scenario file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if provenance is None:
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
        handler, _, provenance, writer = _COMMANDS[args.command]
        tol = _tolerances_from_env()
        path = getattr(args, "scenario", None)
        results = handler({} if path is None else _load_scenario(path), args)
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
        "provenance": provenance or args.mode,
        "tolerances": _jsonable(tol),
        "results": _jsonable(results, args.degrees),
    }
    if provenance is None:
        envelope["mismatch"] = args.mode == "both" and (
            abs(results["geometric"].rect - results["direct"].rect)
            > tol.comparison * max(1.0, abs(results["direct"].rect)))
    if args.degrees:
        envelope["angle_unit"] = "degrees"

    if args.format == "json":
        text = json.dumps(envelope, indent=2) + "\n"
    else:
        text = writer(envelope["results"])
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
