"""Names that other files depend on: the benchmark tracer's layers, the
README's entry points and example, what ``import majgeom`` loads and
exports, and how its records compare."""

import copy
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

import numpy as np

from helpers import run_python
import majgeom

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def tracer_layers():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, name) for layer, names in tracer.LAYERS.items() for name in names]


@pytest.mark.parametrize("layer, name", tracer_layers())
def test_tracer_layer_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"majgeom.{layer}"), name))


def readme_entry_points():
    table = README.split("Key entry points:", 1)[1].split("\n\n", 2)[1]
    names = []
    for row in table.splitlines()[2:]:
        for cell in re.findall(r"`([^`]+)`", row.split("|")[2]):
            stem = re.fullmatch(r"(\w*)\{([\w,]+)\}(\w*)", cell)
            if stem is None:
                names.append(cell)
            else:
                names += [stem[1] + part + stem[3] for part in stem[2].split(",")]
    return names


def test_readme_lists_entry_points():
    assert len(readme_entry_points()) >= 30


@pytest.mark.parametrize("name", readme_entry_points())
def test_readme_entry_point_exported(name):
    assert callable(getattr(majgeom, name))


def test_readme_python_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})


# What ``from majgeom import *`` binds, the lazy names included.
STAR_NAMES = [
    "AllCoefficientsZero", "CanonicalTriple", "DEFAULT_TOL", "GELL_MANN", "GellMannDirection",
    "GeometricBreakdown", "GeometricFactor", "IncompleteContext", "MajgeomError",
    "NLevelModularSpec", "NotHermitian", "OrthogonalSelection", "PolarComplex",
    "PreconditionViolated", "ProjectiveRoot", "QubitModularSpec", "QutritAngles", "SCAN_CHI1",
    "SCAN_CHI2", "SCAN_EPSILON", "ScanRecord", "SingularityScan", "StateAngles",
    "SymmetricRepresentation", "ThreeBoxReport", "Tolerances", "UndefinedSolidAngle",
    "ZeroDenominator", "abl_distribution", "abl_probability", "as_bloch", "as_bloch_array",
    "bloch", "bloch_to_qubit", "canonical", "canonicalize_triple",
    "cayley_hamilton_exp_spin1", "discriminant_degeneracy", "eig_hermitian",
    "entanglement_entropy", "errors", "experiments", "factored_modular_value",
    "factored_weak_value", "gell_mann_matrices", "majorana", "majorana_points",
    "modular_value_direct", "nlevel_state", "nlevel_values",
    "normalization_factor", "numerics", "observable_to_modular_spec", "params_to_state",
    "polar", "projection_probability", "projector_weak_value_direct",
    "projector_weak_value_geometric", "qubit_modular_value_direct",
    "qubit_modular_value_geometric", "qubit_to_bloch", "qubit_values",
    "qutrit_modular_value_geometric", "qutrit_projector_weak_value_geometric",
    "qutrit_roots_closed_form", "rodrigues_rotate", "singularity_scan",
    "solid_angle_quadrangle", "solid_angle_quadrangle_rotation", "solid_angle_triangle",
    "solve_polynomial", "symmetrize", "three_box_report", "unitary_exp",
    "weak_value_direct",
]
LAZY_NAMES = ["SCAN_CHI1", "SCAN_CHI2", "SCAN_EPSILON", "ScanRecord", "SingularityScan",
              "ThreeBoxReport", "singularity_scan", "three_box_report", "experiments"]

# Run in a fresh interpreter, so that nothing else has loaded a module yet.
IMPORT_PROBE = """
import json, sys
import majgeom
report = {"loaded_on_import": "majgeom.experiments" in sys.modules}
resolved = {name: getattr(majgeom, name) for name in NAMES}
import majgeom.experiments as experiments
report["same_objects"] = {name: value is (experiments if name == "experiments"
                                          else getattr(experiments, name))
                          for name, value in resolved.items()}
original, experiments.singularity_scan = experiments.singularity_scan, object()
report["reads_rebinding"] = majgeom.singularity_scan is experiments.singularity_scan
experiments.singularity_scan = original
namespace = {}
exec("from majgeom import *", namespace)
report["star"] = sorted(set(namespace) - {"__builtins__"})
report["dir"] = dir(majgeom)
try:
    majgeom.no_such_name
except AttributeError as exc:
    report["missing"] = [type(exc).__name__, str(exc)]
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def import_report():
    done = run_python("-c", f"NAMES = {LAZY_NAMES!r}" + IMPORT_PROBE, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_leaves_reproductions_unloaded(import_report):
    assert import_report["loaded_on_import"] is False


def test_lazy_names_are_the_experiments_objects(import_report):
    assert import_report["same_objects"] == {name: True for name in LAZY_NAMES}


def test_lazy_name_follows_a_rebinding(import_report):
    # The benchmark tracer rebinds the function in ``experiments`` alone.
    assert import_report["reads_rebinding"] is True


def test_star_import_and_dir_keep_the_surface(import_report):
    assert import_report["star"] == STAR_NAMES
    assert set(STAR_NAMES) <= set(import_report["dir"])


def test_missing_name_raises_attribute_error(import_report):
    assert import_report["missing"] == ["AttributeError",
                                        "module 'majgeom' has no attribute 'no_such_name'"]


def array_records():
    """One instance of each record that holds arrays, or records that do."""
    si, sr, sf = (np.array(v, dtype=complex) / np.linalg.norm(v)
                  for v in ([1, 1j, 0.5], [1, 0, 1], [0.3, 1, -1j]))
    direction = majgeom.GellMannDirection.from_r8([1.0] + [0.0] * 7)
    _, breakdown = majgeom.projector_weak_value_geometric([0, 0, 1], [1, 0, 0], [0, 1, 0])
    scan = majgeom.singularity_scan(count=8)
    report = majgeom.three_box_report()
    return [majgeom.canonicalize_triple(si, sr, sf), majgeom.majorana_points(si), direction,
            majgeom.NLevelModularSpec(direction.operator, alpha=0.3),
            majgeom.QubitModularSpec([0, 0, 1], alpha=0.3), breakdown.factors[0], breakdown,
            scan.records[0], scan, report.boxes[0].factors[0], report.boxes[0], report]


def test_record_equality():
    """A record that holds arrays compares and hashes by identity; a
    ``PolarComplex`` compares by value."""
    records = array_records()
    assert [type(r).__name__ for r in records] == [
        "CanonicalTriple", "SymmetricRepresentation", "GellMannDirection",
        "NLevelModularSpec", "QubitModularSpec", "GeometricFactor", "GeometricBreakdown",
        "ScanRecord", "SingularityScan", "BoxFactor", "BoxResult", "ThreeBoxReport"]
    for record in records:
        assert record == record and hash(record) == hash(record)
        assert copy.copy(record) != record
    value = majgeom.PolarComplex(2.0, 0.5)
    assert value == majgeom.PolarComplex(2.0, 0.5) and hash(value) == hash(copy.copy(value))
