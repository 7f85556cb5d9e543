import contextlib
import copy
import io
import itertools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_state, run_python
from majgeom.cli import main, run
from majgeom.experiments import SCAN_CHI1, SCAN_CHI2, SCAN_EPSILON
from majgeom.nlevel_values import GellMannDirection, NLevelModularSpec, modular_value_direct

SQ3 = math.sqrt(3.0)
DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"version": 1, **payload}))
    return str(path)


def amplitudes(vec):
    return [[z.real, z.imag] for z in np.asarray(vec, dtype=complex)]


def flatten(node, prefix=""):
    """(dotted path, leaf) pairs of a JSON document, in document order."""
    if isinstance(node, dict):
        return [pair for key, value in node.items() for pair in flatten(value, f"{prefix}{key}.")]
    if isinstance(node, list):
        return [pair for index, value in enumerate(node)
                for pair in flatten(value, f"{prefix}{index}.")]
    return [(prefix[:-1], node)]


def csv_rows(text):
    return [line.split(",") for line in text.rstrip("\n").split("\n")]


class TestQubitCommands:
    def test_trivial_weak_value(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {
            "i": {"bloch": [0, 0, 1]},
            "r": {"bloch": [0, 0, 1]},
            "f": {"bloch": [0, 0, 1]},
        })
        code, out = run_cli(capsys, "qubit-weak", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["modulus"] == 1.0
        assert doc["results"]["argument"] == 0.0
        assert doc["mismatch"] is False

    def test_amplitude_input_and_modes_agree(self, capsys, tmp_path):
        rng = np.random.default_rng(90)
        states = {}
        for key in ("i", "r", "f"):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            states[key] = v / np.linalg.norm(v)
        scenario = write_scenario(tmp_path, {k: amplitudes(v) for k, v in states.items()})
        code, out = run_cli(capsys, "qubit-weak", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        geo = doc["results"]["geometric"]
        direct = doc["results"]["direct"]
        assert abs(geo["re"] - direct["re"]) <= 1e-9
        assert abs(geo["im"] - direct["im"]) <= 1e-9
        assert doc["mismatch"] is False

    def test_orthogonal_selection_exit_code(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {
            "i": {"bloch": [0, 0, 1]},
            "r": {"bloch": [1, 0, 0]},
            "f": {"bloch": [0, 0, -1]},
        })
        code, out = run_cli(capsys, "qubit-weak", "--scenario", scenario)
        assert code == 3
        doc = json.loads(out)
        assert doc["error"]["kind"] == "physical-singularity"
        assert doc["error"]["type"] == "OrthogonalSelection"

    def test_zero_weak_value_exit_zero(self, capsys, tmp_path):
        # <r|i> = 0: both routes give 0; the geometric one used to exit 3.
        scenario = write_scenario(tmp_path, {
            "i": {"bloch": [0, 0, -1]},
            "r": {"bloch": [0, 0, 1]},
            "f": {"bloch": [1, 0, 0]},
        })
        code, out = run_cli(capsys, "qubit-weak", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["geometric"]["modulus"] == 0.0
        assert doc["results"]["direct"]["modulus"] == 0.0
        assert doc["results"]["breakdown"]["factors"][0]["solid_angle"] == 0.0
        assert doc["mismatch"] is False

    def test_qubit_modular(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {
            "i": {"bloch": [0, 0, 1]},
            "f": {"bloch": [1, 0, 0]},
            "spec": {"axis": [0, 1, 0], "alpha": 1.1, "beta": 0.4},
        })
        code, out = run_cli(capsys, "qubit-modular", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        assert doc["mismatch"] is False

    def test_half_turn_about_near_perpendicular_axis(self, capsys, tmp_path):
        # +x turned by pi about an axis 1e-8 off perpendicular lands 2e-8 from
        # -x, a diagonal of the quadrangle that its cyclic product never
        # forms: the routes agree far inside the 1e-9 comparison.
        scenario = write_scenario(tmp_path, {
            "i": {"bloch": [1, 0, 0]},
            "f": {"bloch": [0, -1, 0]},
            "spec": {"axis": [1e-8, 0, 1], "alpha": math.pi},
        })
        code, out = run_cli(capsys, "qubit-modular", "--scenario", scenario, "--mode", "both")
        assert code == 0, out
        doc = json.loads(out)
        geo, direct = doc["results"]["geometric"], doc["results"]["direct"]
        assert abs(complex(geo["re"], geo["im"]) - complex(direct["re"], direct["im"])) <= 1e-12
        assert doc["mismatch"] is False

    @pytest.mark.parametrize("tilt", [1e-7, 1e-8, 1e-9])
    def test_half_turn_with_both_diagonals_near_antipodes(self, capsys, tmp_path, tilt):
        # +x turned by pi about (tilt, 0, 1) lands 2 tilt from -x, and f =
        # (tilt, 3 tilt, -1) sits about 3 tilt from -axis: both diagonals of
        # the quadrangle near antipodes, so a split along either rounds like
        # u/tilt (a gap of 1.1e-8 at 1e-9).  The cyclic product forms no
        # diagonal and meets the direct route far inside the 1e-9 comparison.
        scenario = write_scenario(tmp_path, {
            "i": {"bloch": [1, 0, 0]},
            "f": {"bloch": [tilt, 3 * tilt, -1]},
            "spec": {"axis": [tilt, 0, 1], "alpha": math.pi},
        })
        code, out = run_cli(capsys, "qubit-modular", "--scenario", scenario, "--mode", "both")
        assert code == 0, out
        doc = json.loads(out)
        geo, direct = doc["results"]["geometric"], doc["results"]["direct"]
        assert abs(complex(geo["re"], geo["im"]) - complex(direct["re"], direct["im"])) <= 1e-12
        assert doc["mismatch"] is False

    def test_zero_modular_value_exit_zero(self, capsys, tmp_path):
        # +z turned by pi about +x is antipodal to f = +z: the value is 0 and
        # the geometric route used to exit 3.
        scenario = write_scenario(tmp_path, {
            "i": {"bloch": [0, 0, 1]},
            "f": {"bloch": [0, 0, 1]},
            "spec": {"axis": [1, 0, 0], "alpha": math.pi},
        })
        code, out = run_cli(capsys, "qubit-modular", "--scenario", scenario)
        assert code == 0, out
        doc = json.loads(out)
        assert doc["results"]["geometric"]["modulus"] == 0.0
        assert doc["results"]["geometric"]["argument"] == 0.0
        assert doc["results"]["direct"]["modulus"] <= 1e-16
        assert doc["mismatch"] is False


class TestQutritCommands:
    def test_qutrit_weak(self, capsys, tmp_path):
        rng = np.random.default_rng(91)
        states = {}
        for key in ("i", "r", "f"):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            states[key] = v / np.linalg.norm(v)
        scenario = write_scenario(tmp_path, {k: amplitudes(v) for k, v in states.items()})
        code, out = run_cli(capsys, "qutrit-weak", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        assert doc["mismatch"] is False
        assert len(doc["results"]["breakdown"]["factors"]) == 2

    def test_zero_weak_value_exit_zero(self, capsys, tmp_path):
        # <r|i> = 0 with i = |0>, r = |2>: both routes give 0, exit 0.
        scenario = write_scenario(tmp_path, {
            "i": amplitudes([1, 0, 0]),
            "r": amplitudes([0, 0, 1]),
            "f": amplitudes(np.ones(3) / SQ3),
        })
        code, out = run_cli(capsys, "qutrit-weak", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["geometric"]["modulus"] == 0.0
        assert doc["results"]["geometric"]["argument"] == 0.0
        assert doc["results"]["direct"]["modulus"] == 0.0
        assert doc["mismatch"] is False

    def test_qutrit_modular_with_r8(self, capsys, tmp_path):
        rng = np.random.default_rng(92)
        states = {}
        for key in ("i", "f"):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            states[key] = v / np.linalg.norm(v)
        scenario = write_scenario(tmp_path, {
            **{k: amplitudes(v) for k, v in states.items()},
            "spec": {"r8": list(rng.normal(size=8)), "alpha": 0.9, "beta": 0.2},
        })
        code, out = run_cli(capsys, "qutrit-modular", "--scenario", scenario)
        assert code == 0
        assert json.loads(out)["mismatch"] is False

    def test_qutrit_modular_with_generic_theta(self, capsys, tmp_path):
        # "theta" sets the evolution exp(-1j*theta*A) for both routes.
        rng = np.random.default_rng(94)
        states = {k: rng.normal(size=3) + 1j * rng.normal(size=3) for k in ("i", "f")}
        scenario = write_scenario(tmp_path, {
            **{k: amplitudes(v / np.linalg.norm(v)) for k, v in states.items()},
            "spec": {"r8": list(rng.normal(size=8)), "alpha": 0.3, "beta": 0.2,
                     "theta": 0.8},
        })
        code, out = run_cli(capsys, "qutrit-modular", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        assert doc["mismatch"] is False
        gap = abs(complex(doc["results"]["geometric"]["re"], doc["results"]["geometric"]["im"])
                  - complex(doc["results"]["direct"]["re"], doc["results"]["direct"]["im"]))
        assert gap <= 1e-9

    def test_nlevel_direct_weak(self, capsys, tmp_path):
        psi_i = np.ones(3) / SQ3
        psi_f = np.array([1.0, -1.0, 1.0]) / SQ3
        observable = np.diag([0.0, 1.0, 0.0]).astype(complex)
        scenario = write_scenario(tmp_path, {
            "i": amplitudes(psi_i),
            "f": amplitudes(psi_f),
            "kind": "weak",
            "observable": [[[v.real, v.imag] for v in row] for row in observable],
        })
        code, out = run_cli(capsys, "nlevel-direct", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["results"]["value"]["re"] - (-1.0)) <= 1e-10

    def test_majorana_command(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {"state": amplitudes([0.0, 1.0, 0.0])})
        code, out = run_cli(capsys, "majorana", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        points = np.array(doc["results"]["points"])
        assert np.allclose(points, [[0, 0, 1], [0, 0, -1]], atol=1e-9)
        assert abs(doc["results"]["normalization"] - 1 / math.sqrt(2)) <= 1e-12
        assert doc["results"]["entanglement_entropy"] == pytest.approx(1.0, abs=1e-12)

    def test_canonicalize_command(self, capsys, tmp_path):
        rng = np.random.default_rng(93)
        states = {}
        for key in ("i", "r", "f"):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            states[key] = v / np.linalg.norm(v)
        scenario = write_scenario(tmp_path, {k: amplitudes(v) for k, v in states.items()})
        code, out = run_cli(capsys, "canonicalize", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["r_vec"] == [0.0, 0.0, 1.0]
        assert len(doc["results"]["i_points"]) == 2

    def test_canonicalize_five_levels(self, capsys, tmp_path):
        rng = np.random.default_rng(94)
        scenario = write_scenario(tmp_path, {k: amplitudes(random_state(rng, 5)) for k in "irf"})
        code, out = run_cli(capsys, "canonicalize", "--scenario", scenario)
        assert code == 0, out
        results = json.loads(out)["results"]
        assert len(results["u_total"]) == 5 and len(results["u_total"][0]) == 5
        assert len(results["i_points"]) == 4
        assert results["r_vec"] == [0.0, 0.0, 1.0]

    def test_abl_command(self, capsys, tmp_path):
        psi_i = np.ones(3) / SQ3
        psi_f = np.array([1.0, -1.0, 1.0]) / SQ3
        boxes = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
        scenario = write_scenario(tmp_path, {
            "i": amplitudes(psi_i),
            "f": amplitudes(psi_f),
            "projectors": [[[[v.real, v.imag] for v in row] for row in p] for p in boxes],
        })
        code, out = run_cli(capsys, "abl", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["results"]["probabilities"], [1 / 3] * 3, atol=1e-12)


class TestValueCommandsAnyDimension:
    """The value commands read N from the scenario: the amplitude count, or 2
    for Bloch input."""

    def test_qutrit_weak_five_levels(self, capsys, tmp_path):
        rng = np.random.default_rng(95)
        scenario = write_scenario(tmp_path, {k: amplitudes(random_state(rng, 5)) for k in "irf"})
        code, out = run_cli(capsys, "qutrit-weak", "--scenario", scenario)
        assert code == 0, out
        doc = json.loads(out)
        assert doc["mismatch"] is False
        assert len(doc["results"]["breakdown"]["factors"]) == 4

    def test_qutrit_modular_four_levels(self, capsys, tmp_path):
        rng = np.random.default_rng(96)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = (a + a.conj().T) / 2
        scenario = write_scenario(tmp_path, {
            "i": amplitudes(random_state(rng, 4)),
            "f": amplitudes(random_state(rng, 4)),
            "spec": {"observable": [[[z.real, z.imag] for z in row] for row in a],
                     "alpha": 0.7, "beta": 0.2},
        })
        code, out = run_cli(capsys, "qutrit-modular", "--scenario", scenario)
        assert code == 0, out
        doc = json.loads(out)
        assert doc["mismatch"] is False
        assert len(doc["results"]["breakdown"]["factors"]) == 3

    def test_qutrit_weak_two_levels_from_bloch(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {
            "i": {"bloch": [0, 0, 1]},
            "r": {"bloch": [1, 0, 0]},
            "f": {"bloch": [0, 1, 0]},
        })
        code, out = run_cli(capsys, "qutrit-weak", "--scenario", scenario)
        assert code == 0, out
        doc = json.loads(out)
        assert doc["mismatch"] is False
        assert len(doc["results"]["breakdown"]["factors"]) == 1

    @pytest.mark.parametrize("command", ["qutrit-weak", "qutrit-modular", "canonicalize"])
    def test_nine_levels_exit_two(self, capsys, tmp_path, command):
        state = amplitudes(np.ones(9) / 3.0)
        scenario = write_scenario(tmp_path, {
            "i": state, "r": state, "f": state,
            "spec": {"observable": [amplitudes(row) for row in np.eye(9)]},
        })
        code, out = run_cli(capsys, command, "--scenario", scenario)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "usage"
        assert error["type"] == "ValueError"
        assert "[2, 8]" in error["message"]

    def test_mixed_dimensions_exit_two(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {
            "i": amplitudes(np.ones(4) / 2.0),
            "r": amplitudes(np.ones(4) / 2.0),
            "f": {"bloch": [0, 0, 1]},
        })
        code, out = run_cli(capsys, "qutrit-weak", "--scenario", scenario)
        assert code == 2
        assert json.loads(out)["error"]["message"] == "bloch input is only meaningful for qubits"


class TestThreeBoxCommand:
    def test_csv_shape_and_values(self, capsys):
        code, out = run_cli(capsys, "three-box", "--format", "csv")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "box,qubit,modulus,solid_angle,weak_value_re,weak_value_im"
        assert len(lines) == 1 + 6 + 3
        factor_rows = [line.split(",") for line in lines[1:7]]
        total_rows = [line.split(",") for line in lines[7:]]
        moduli = [float(row[2]) for row in factor_rows]
        expected = [1.0, 1.0, math.sqrt(2 + SQ3), math.sqrt(2 - SQ3), 1.0, 1.0]
        assert np.max(np.abs(np.array(moduli) - expected)) <= 1e-9
        totals = [complex(float(r[4]), float(r[5])) for r in total_rows]
        assert np.max(np.abs(np.array(totals) - np.array([1, -1, 1]))) <= 1e-10
        assert all(row[1] == "total" for row in total_rows)

    def test_json_has_symmetry_checks(self, capsys):
        code, out = run_cli(capsys, "three-box")
        assert code == 0
        doc = json.loads(out)
        assert all(doc["results"]["symmetry_checks"].values())


class TestScanCommand:
    def test_csv_columns_and_flags(self, capsys):
        code, out = run_cli(capsys, "scan-singularity", "--count", "512",
                            "--format", "csv")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == ("theta,alpha1,alpha2,beta1,beta2,omega1,omega2,"
                            "wv_mod,wv_arg,flags")
        assert len(lines) == 513
        flagged = [line for line in lines[1:] if "singular" in line.split(",")[-1]]
        assert len(flagged) == 2
        theta_c = math.atan(math.sqrt(1.5))
        thetas = [float(line.split(",")[0]) for line in flagged]
        assert thetas[0] < theta_c < thetas[1]

    def test_json_locations(self, capsys):
        code, out = run_cli(capsys, "scan-singularity", "--count", "64")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["results"]["theta_bifurcation"]
                   - math.atan(2 * math.sqrt(6))) <= 1e-10
        assert abs(doc["results"]["theta_singular"]
                   - math.atan(math.sqrt(1.5))) <= 1e-10

    def test_scenario_grid(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {
            "grid": {"start": 0.2, "stop": 1.0, "count": 16},
        })
        code, out = run_cli(capsys, "scan-singularity", "--scenario", scenario)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]["records"]) == 16
        thetas = [r["theta"] for r in doc["results"]["records"]]
        assert thetas == np.linspace(0.2, 1.0, 16).tolist()

    @pytest.mark.parametrize("grid", [None, {"start": 0.2, "stop": 1.2, "count": 8}])
    @pytest.mark.parametrize("key, value", [("epsilon", 0.3), ("chi1", 1.0), ("chi2", 2.5)])
    def test_scenario_parameter_and_flag_override(self, capsys, tmp_path, grid, key, value):
        # A flag always overrides the scenario's key, with or without a grid.
        payload = {key: value} if grid is None else {key: value, "grid": grid}
        scenario = write_scenario(tmp_path, payload)
        for flags, expected in (((), value), ((f"--{key}", "0.4"), 0.4)):
            code, out = run_cli(capsys, "scan-singularity", "--scenario", scenario,
                                "--count", "8", *flags)
            assert code == 0, out
            results = json.loads(out)["results"]
            defaults = {"epsilon": SCAN_EPSILON, "chi1": SCAN_CHI1, "chi2": SCAN_CHI2}
            assert results["parameters"] == {**defaults, key: expected}
            assert len(results["records"]) == 8

    def test_rows_on_the_singularity_have_empty_cells(self, capsys, tmp_path):
        # Three grid points on theta_C: the weak value and omega2 are undefined
        # there, so they print as null in JSON and as empty CSV cells.
        scenario = write_scenario(tmp_path, {
            "grid": {"start": 0.8860771237926, "stop": 0.8860771237927, "count": 3},
        })
        code, out = run_cli(capsys, "scan-singularity", "--scenario", scenario)
        assert code == 0
        records = json.loads(out)["results"]["records"]
        assert len(records) == 3
        for record in records:
            assert "singular" in record["flags"]
            assert (record["omega2"], record["wv_mod"], record["wv_arg"]) == (None, None, None)
        code, out = run_cli(capsys, "scan-singularity", "--scenario", scenario,
                            "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.rstrip("\n").split("\n")[1:]]
        assert len(rows) == 3
        for row in rows:
            assert row[6:9] == ["", "", ""]
            assert "singular" in row[9].split(";")

    @pytest.mark.parametrize("argv, payload, message", [
        (("--count", str(2**16 + 1)), None, "--count must not exceed 65536"),
        ((), {"grid": {"start": 0.2, "stop": 1.2, "count": 2**16 + 1}},
         "grid count must not exceed 65536"),
    ])
    def test_count_bound_exit_two(self, capsys, tmp_path, argv, payload, message):
        if payload is not None:
            argv = ("--scenario", write_scenario(tmp_path, payload), *argv)
        code, out = run_cli(capsys, "scan-singularity", *argv)
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "usage", "type": "ScenarioInvalid",
                                            "message": message}


# Every command pinned by a file in tests/data, with that file.
GOLDEN_RUNS = [
    (("three-box",), "three_box.json"),
    (("three-box", "--format", "csv"), "three_box.csv"),
    (("scan-singularity", "--count", "512", "--format", "csv"), "scan_singularity_512.csv"),
    (("scan-singularity", "--count", "512", "--format", "json"), "scan_singularity_512.json"),
    (("scan-singularity", "--count", "1024", "--epsilon", "0.3", "--chi1", "1.0",
      "--chi2", "2.5", "--format", "csv"), "scan_singularity_1024_eps0.3.csv"),
    (("canonicalize", "--scenario", str(DATA / "qutrit_triple.scenario.json")),
     "canonicalize_qutrit_triple.json"),
    (("qutrit-weak", "--scenario", str(DATA / "qutrit_triple.scenario.json")),
     "qutrit_weak.json"),
    (("qutrit-modular", "--scenario", str(DATA / "qutrit_modular.scenario.json")),
     "qutrit_modular.json"),
]


VALUE_COMMANDS = ("qubit-weak", "qubit-modular", "qutrit-weak", "qutrit-modular")
OTHER_COMMANDS = ("nlevel-direct", "majorana", "canonicalize", "scan-singularity", "three-box",
                  "abl")
# The commands that require --scenario.
SCENARIO_COMMANDS = tuple(command for command in VALUE_COMMANDS + OTHER_COMMANDS
                          if command not in ("scan-singularity", "three-box"))
# Each option only scan-singularity takes, on every other command (with the
# --scenario it requires, which is not opened), by name.
MISPLACED_SCAN_OPTIONS = {
    f"{command}{flag}": (command,
                         *(("--scenario", "x.json") if command in SCENARIO_COMMANDS else ()),
                         flag, "8")
    for command in VALUE_COMMANDS + OTHER_COMMANDS if command != "scan-singularity"
    for flag in ("--count", "--epsilon", "--chi1", "--chi2")}


class TestCliContract:
    def test_unknown_command_exit_two(self, capsys):
        code = main(["no-such-command"])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
        assert (error["kind"], error["type"]) == ("usage", "ArgumentError")
        assert "invalid choice: 'no-such-command'" in error["message"]
        assert captured.err == ""

    @pytest.mark.parametrize("argv, fragment", [
        ((), "the following arguments are required: command"),
        (("three-box", "--bogus"), "unrecognized arguments: --bogus"),
        (("scan-singularity", "--count", "abc"), "argument --count: invalid int value: 'abc'"),
        (("qutrit-weak",), "the following arguments are required: --scenario"),
        (("three-box", "--scenario", "/no/such/file.json"),
         "unrecognized arguments: --scenario /no/such/file.json"),
        (("qubit-weak", "--mode", "fast", "--scenario", "x.json"),
         "argument --mode: invalid choice: 'fast'"),
    ] + [((command,), "the following arguments are required: --scenario")
         for command in SCENARIO_COMMANDS
    ] + [(argv, f"unrecognized arguments: {argv[-2]} 8")
         for argv in MISPLACED_SCAN_OPTIONS.values()
    ], ids=["no-command", "unknown-option", "count-not-int", "missing-scenario",
            "three-box-scenario", "bad-mode",
            *(f"{command}-no-scenario" for command in SCENARIO_COMMANDS),
            *MISPLACED_SCAN_OPTIONS])
    def test_refused_command_line_is_the_error_document(self, capsys, argv, fragment):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
        assert (error["kind"], error["type"]) == ("usage", "ArgumentError")
        assert fragment in error["message"]
        assert captured.err == ""

    def test_scan_needs_no_scenario(self, capsys):
        code, out = run_cli(capsys, "scan-singularity", "--count", "8")
        assert code == 0
        assert len(json.loads(out)["results"]["records"]) == 8

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["three-box", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: majgeom three-box")

    @pytest.mark.parametrize("command", VALUE_COMMANDS + OTHER_COMMANDS)
    def test_mode_only_for_value_commands(self, capsys, command):
        # The scenario file does not exist: a value command gets past the
        # parser and fails to open it, any other command stops at --mode.
        argv = [command, "--mode", "direct"]
        if command != "three-box":
            argv += ["--scenario", "no-such-scenario.json"]
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        if command in VALUE_COMMANDS:
            assert error["type"] == "FileNotFoundError"
        else:
            assert (error["type"], error["message"]) == (
                "ArgumentError", "unrecognized arguments: --mode direct")

    def test_missing_scenario_exit_two(self, capsys):
        code, out = run_cli(capsys, "qubit-weak")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "usage"

    def test_bad_version_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 7}))
        code, out = run_cli(capsys, "qubit-weak", "--scenario", str(path))
        assert code == 2

    def test_unnormalized_state_exit_two(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {
            "i": [[1.0, 0.0], [1.0, 0.0]],
            "r": {"bloch": [0, 0, 1]},
            "f": {"bloch": [0, 0, 1]},
        })
        code, out = run_cli(capsys, "qubit-weak", "--scenario", scenario)
        assert code == 2

    def test_non_finite_scan_grid_exit_two(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {
            "grid": {"start": math.nan, "stop": 1.2, "count": 16},
        })
        code, out = run_cli(capsys, "scan-singularity", "--scenario", scenario)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "usage"
        assert error["message"] == "theta grid must be finite"

    @pytest.mark.parametrize("flag, value", [("--chi1", "-1e-3"), ("--chi2", "-2.5E+0"),
                                             ("--chi1", "-.5e1")])
    def test_negative_exponent_after_space(self, capsys, flag, value):
        # argparse on Python 3.11 takes "-1e-3" for an option unless told otherwise.
        spaced = run_cli(capsys, "scan-singularity", "--count", "32", flag, value)
        joined = run_cli(capsys, "scan-singularity", "--count", "32", f"{flag}={value}")
        assert spaced[0] == 0
        assert spaced == joined

    def test_deterministic_bytes(self, capsys):
        _, first = run_cli(capsys, "three-box")
        _, second = run_cli(capsys, "three-box")
        assert first == second
        _, csv_a = run_cli(capsys, "scan-singularity", "--count", "32",
                           "--format", "csv")
        _, csv_b = run_cli(capsys, "scan-singularity", "--count", "32",
                           "--format", "csv")
        assert csv_a == csv_b

    @pytest.mark.parametrize("argv, golden", GOLDEN_RUNS)
    def test_golden_bytes(self, capsys, argv, golden):
        # Reference outputs of earlier implementations (tests/data/README.md
        # names the command and commit of each); regenerate only for a
        # deliberate change of the printed numbers.
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == (DATA / golden).read_bytes()

    def test_emitted_json_parses_and_reruns(self, capsys):
        _, out = run_cli(capsys, "three-box")
        json.loads(out)
        _, again = run_cli(capsys, "three-box")
        assert out == again

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out = run_cli(capsys, "three-box", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "three-box"

    @pytest.mark.parametrize("target, error_type", [
        ("no-such-dir/result.json", "FileNotFoundError"), (".", "IsADirectoryError")])
    def test_unwritable_out_exit_two(self, capsys, tmp_path, target, error_type):
        code = main(["three-box", "--out", str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
        assert (error["kind"], error["type"]) == ("usage", error_type)
        assert captured.err == ""

    def test_degrees_flag(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {
            "i": {"bloch": [0, 0, 1]},
            "r": {"bloch": [1, 0, 0]},
            "f": {"bloch": [0, 1, 0]},
        })
        _, radians = run_cli(capsys, "qubit-weak", "--scenario", scenario)
        _, degrees = run_cli(capsys, "qubit-weak", "--scenario", scenario, "--degrees")
        rad_doc = json.loads(radians)
        deg_doc = json.loads(degrees)
        assert deg_doc["angle_unit"] == "degrees"
        assert deg_doc["results"]["argument"] == pytest.approx(
            math.degrees(rad_doc["results"]["argument"]))

    @pytest.mark.parametrize("argv, golden", GOLDEN_RUNS)
    def test_tolerance_env_reaches_only_mismatch(self, capsys, monkeypatch, argv, golden):
        # MAJGEOM_TOL changes the printed record and the mismatch check, and
        # no value: the library computes with DEFAULT_TOL whatever it is.
        comparison = 1e-3
        monkeypatch.setenv("MAJGEOM_TOL", str(comparison))
        code, out = run_cli(capsys, *argv)
        assert code == 0
        reference = (DATA / golden).read_text(encoding="utf-8")
        if not golden.endswith(".json"):
            assert out == reference
            return
        doc, expected = json.loads(out), json.loads(reference)
        assert doc["tolerances"].pop("comparison") == comparison
        expected["tolerances"].pop("comparison")
        assert doc == expected
        if "mismatch" in doc:
            results = doc["results"]
            geometric, direct = (complex(results[k]["re"], results[k]["im"])
                                 for k in ("geometric", "direct"))
            gap = abs(geometric - direct)
            assert doc["mismatch"] == (gap > comparison * max(1.0, abs(direct)))

    @pytest.mark.parametrize("value, message", [
        ("banana", "MAJGEOM_TOL is not a number: 'banana'"),
        ("2.0", "MAJGEOM_TOL must lie in (0, 1)"),
    ])
    def test_bad_tolerance_env(self, capsys, monkeypatch, value, message):
        monkeypatch.setenv("MAJGEOM_TOL", value)
        code, out = run_cli(capsys, "three-box")
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "usage", "type": "ScenarioInvalid",
                                            "message": message}

    def test_mode_direct_only(self, capsys, tmp_path):
        scenario = write_scenario(tmp_path, {
            "i": {"bloch": [0, 0, 1]},
            "r": {"bloch": [1, 0, 0]},
            "f": {"bloch": [0, 1, 0]},
        })
        code, out = run_cli(capsys, "qubit-weak", "--scenario", scenario,
                            "--mode", "direct")
        assert code == 0
        doc = json.loads(out)
        assert "direct" in doc["results"] and "geometric" not in doc["results"]

    @pytest.mark.parametrize("mode", ["geometric", "direct", "both"])
    def test_non_hermitian_observable_exit_two(self, capsys, tmp_path, mode):
        observable = np.diag([1.0, 0.0, -1.0]).astype(complex)
        observable[0, 1] = 0.5  # no mirrored entry below the diagonal
        scenario = write_scenario(tmp_path, {
            "i": amplitudes(np.ones(3) / SQ3),
            "f": amplitudes(np.array([1.0, -1.0, 1.0]) / SQ3),
            "spec": {"observable": [[[v.real, v.imag] for v in row]
                                    for row in observable], "alpha": 0.9},
        })
        code, out = run_cli(capsys, "qutrit-modular", "--scenario", scenario,
                            "--mode", mode)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["kind"] == "usage"
        assert doc["error"]["type"] == "NotHermitian"

    @pytest.mark.parametrize("command, payload, extra, error_type, message", [
        ("nlevel-direct", {"kind": "weak", "observable": [
            [[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}, (), "NotHermitian",
         "Hermiticity defect nan exceeds 1.0e-10"),
        ("abl", {"projectors": [
            [[[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]]}, (), "IncompleteContext",
         "context contains a non-Hermitian element"),
        ("qutrit-modular", {"spec": {"r8": [1.0] + [0.0] * 7, "alpha": math.nan}}, (),
         "ValueError", "alpha must be finite"),
        ("qutrit-modular", {"spec": {"r8": [1.0] + [0.0] * 7, "alpha": math.nan}},
         ("--mode", "direct"), "ValueError", "alpha must be finite"),
        ("qutrit-modular", {"spec": {"r8": [1.0, math.nan] + [0.0] * 6, "alpha": 0.3}}, (),
         "ValueError", "direction must be finite"),
        ("scan-singularity", {}, ("--epsilon", "inf"), "ValueError",
         "epsilon must lie in [0, pi/2]"),
        ("scan-singularity", {}, ("--epsilon", "nan"), "ValueError",
         "epsilon must lie in [0, pi/2]"),
        ("scan-singularity", {}, ("--epsilon", "2.0"), "ValueError",
         "epsilon must lie in [0, pi/2]"),
        ("scan-singularity", {}, ("--chi1", "inf"), "ValueError", "chi1 must be finite"),
        ("scan-singularity", {}, ("--chi2", "nan"), "ValueError", "chi2 must be finite"),
        # Finite phases whose doubled value overflows in the closed form.
        ("scan-singularity", {}, ("--chi2", "1e308"), "ValueError",
         "2*chi2 - chi1 must be finite"),
        ("scan-singularity", {}, ("--chi1", "-1.7e308", "--chi2", "8.9e307"), "ValueError",
         "2*chi2 - chi1 must be finite"),
        # A negative exponent float after a space reaches the library's check.
        ("scan-singularity", {}, ("--epsilon", "-1e-3"), "ValueError",
         "epsilon must lie in [0, pi/2]"),
    ])
    def test_non_finite_input_exit_two(self, capsys, tmp_path, command, payload, extra,
                                       error_type, message):
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        scenario = write_scenario(tmp_path, {
            "i": amplitudes(np.ones(3) / SQ3),
            "f": amplitudes(np.array([1.0, -1.0, 1.0]) / SQ3), **payload})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--scenario", scenario, *extra])
        captured = capsys.readouterr()
        assert code == 2, captured.out
        error = json.loads(captured.out, parse_constant=refuse)["error"]
        assert error == {"kind": "usage", "type": error_type, "message": message}
        assert (captured.err, caught) == ("", [])

    def test_csv_seventeen_digits(self, capsys):
        _, out = run_cli(capsys, "three-box", "--format", "csv")
        row = out.split("\n")[5].split(",")
        assert row[:3] == ["3", "1", "0.99999999999999967"]


QUBIT_PAIR = {"i": {"bloch": [0, 0, 1]}, "f": {"bloch": [0, 1, 0]}}
QUTRIT_PAIR = {"i": amplitudes(np.ones(3) / SQ3),
               "f": amplitudes(np.array([1.0, -1.0, 1.0]) / SQ3)}
IDENTITY_3 = [[[float(j == k), 0.0] for k in range(3)] for j in range(3)]


def nested(leaf, depth):
    """``leaf`` inside ``depth`` single-element lists."""
    for _ in range(depth):
        leaf = [leaf]
    return leaf


class TestScenarioValidation:
    """Each refusal of a malformed scenario: exit 2 with a usage error naming it."""

    @pytest.mark.parametrize("command, payload, message", [
        ("qubit-weak", {"i": [1.0, 0.0], "r": {"bloch": [1, 0, 0]}, "f": {"bloch": [0, 1, 0]}},
         "amplitudes must be a list of [re, im] pairs"),
        ("qubit-weak", {"i": amplitudes(np.ones(3) / SQ3), "r": {"bloch": [1, 0, 0]},
                        "f": {"bloch": [0, 1, 0]}}, "expected 2 amplitudes, got 3"),
        ("nlevel-direct", {**QUTRIT_PAIR, "observable": [[1.0, 0.0], [0.0, 1.0]]},
         "matrix must be a square grid of [re, im] pairs"),
        ("nlevel-direct", {**QUTRIT_PAIR, "observable": [[[1.0, 0.0], [0.0, 0.0]],
                                                         [[0.0, 0.0], [1.0, 0.0]]]},
         "expected a 3x3 matrix"),
        ("qubit-weak", {"i": {"bloch": [0, 0, 1]}, "r": {"bloch": [1, 0, 0]}},
         "scenario is missing the state 'f'"),
        ("qubit-modular", QUBIT_PAIR, "scenario is missing the 'spec' object"),
        ("qubit-modular", {**QUBIT_PAIR, "spec": {"alpha": 0.3}}, "spec is missing 'axis'"),
        ("qutrit-modular", QUTRIT_PAIR, "scenario is missing the 'spec' object"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"alpha": 0.3}},
         "spec needs either 'r8' or 'observable'"),
        ("nlevel-direct", {**QUTRIT_PAIR, "kind": "strong", "observable": IDENTITY_3},
         "kind must be 'weak' or 'modular'"),
        ("nlevel-direct", {**QUTRIT_PAIR, "kind": "weak"}, "scenario is missing 'observable'"),
        ("abl", QUTRIT_PAIR, "scenario is missing 'projectors'"),
        ("scan-singularity", {"grid": {"stop": 1.2, "count": 8}}, "grid is missing 'start'"),
        ("scan-singularity", {"grid": {"start": 0.2, "count": 8}}, "grid is missing 'stop'"),
        ("scan-singularity", {"grid": {"start": 0.2, "stop": 1.2}}, "grid is missing 'count'"),
        ("scan-singularity", {"grid": {"start": 0.2, "stop": 1.2, "count": 3.9}},
         "grid count must be an integer"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7,
                                                    "eigen_choice": 1.7}},
         "eigen_choice must be an integer"),
        # json.dumps writes NaN and Infinity, which the JSON reader accepts.
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7,
                                                    "eigen_choice": math.nan}},
         "eigen_choice must be an integer"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7,
                                                    "eigen_choice": math.inf}},
         "eigen_choice must be an integer"),
        ("scan-singularity", {"grid": {"start": 0.2, "stop": 1.2, "count": math.nan}},
         "grid count must be an integer"),
        ("scan-singularity", {"grid": {"start": 0.2, "stop": 1.2, "count": -math.inf}},
         "grid count must be an integer"),
        ("qubit-weak", {"i": [[1.0, 0.0], [0.0]], "r": {"bloch": [0, 0, 1]},
                        "f": [[0.6, 0.0], [0.8, 0.0]]}, "state 'i' must be a rectangular array"),
        ("qutrit-weak", {**QUTRIT_PAIR, "r": [[1.0, 0.0], 0.0, [0.0, 0.0]]},
         "state 'r' must be a rectangular array"),
        ("qubit-weak", {"i": {"bloch": [0, 0, 1]}, "r": {"bloch": [[1], 0, 0]},
                        "f": {"bloch": [0, 1, 0]}}, "state 'r' must be a rectangular array"),
        ("qubit-modular", {**QUBIT_PAIR, "spec": {"axis": [0, [0, 0], 1]}},
         "axis must be a rectangular array"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [[1.0]] + [0.0] * 7}},
         "r8 must be a rectangular array"),
        ("nlevel-direct", {**QUTRIT_PAIR, "observable": [
            [[1.0]] + IDENTITY_3[0][1:], *IDENTITY_3[1:]]},
         "observable must be a rectangular array"),
        ("abl", {**QUTRIT_PAIR, "projectors": [IDENTITY_3[:2] + [IDENTITY_3[2][:2]]]},
         "projectors must be a rectangular array"),
        ("majorana", {"state": nested(0.0, 65)}, "state 'state' is nested too deeply"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": nested(1.0, 65)}},
         "r8 is nested too deeply"),
        # 64 levels make an array numpy can hold, refused for its shape.
        ("majorana", {"state": nested(0.0, 64)}, "amplitudes must be a list of [re, im] pairs"),
        ("qubit-weak", {"i": {"amplitude": [[1.0, 0.0], [0.0, 0.0]]}, "r": {"bloch": [1, 0, 0]},
                        "f": {"bloch": [0, 1, 0]}}, "state 'i' is missing 'amplitudes'"),
        ("scan-singularity", {"grid": 5}, "scenario 'grid' must be an object"),
        ("scan-singularity", {"grid": "start"}, "scenario 'grid' must be an object"),
        ("abl", {**QUTRIT_PAIR, "projectors": 5}, "projectors must be a list of matrices"),
        ("qubit-weak", {"i": {"bloch": 5}, "r": {"bloch": [1, 0, 0]}, "f": {"bloch": [0, 1, 0]}},
         "state 'i': Bloch vector must have exactly three components"),
        ("qubit-weak", {"i": {"bloch": [0, 0, 0]}, "r": {"bloch": [1, 0, 0]},
                        "f": {"bloch": [0, 1, 0]}},
         "state 'i': Bloch vector norm 0.000000 deviates from 1 beyond 1e-08"),
        ("qubit-modular", {**QUBIT_PAIR, "spec": {"axis": [0, 0, 0]}},
         "spec 'axis': Bloch vector norm 0.000000 deviates from 1 beyond 1e-08"),
        ("qubit-modular", {**QUBIT_PAIR, "spec": {"axis": [0, 0, 1, 0]}},
         "spec 'axis': Bloch vector must have exactly three components"),
        ("qubit-modular", {**QUBIT_PAIR, "spec": [0, 0, 1]}, "scenario 'spec' must be an object"),
    ])
    def test_malformed_scenario_exit_two(self, capsys, tmp_path, command, payload, message):
        code, out = run_cli(capsys, command, "--scenario", write_scenario(tmp_path, payload))
        assert code == 2, out
        assert json.loads(out)["error"] == {"kind": "usage", "type": "ScenarioInvalid",
                                            "message": message}

    @pytest.mark.parametrize("command, document, error_type, message", [
        ("majorana", '{"version": 1, "state": ' + "[" * 200_000 + "]" * 200_000 + "}",
         "ScenarioInvalid", "scenario document is nested too deeply"),
        # JSON reads 1e400 as inf, which is no integer.
        ("qutrit-modular", json.dumps({"version": 1, **QUTRIT_PAIR, "spec": {
            "r8": [1.0] + [0.0] * 7, "eigen_choice": 0}}).replace('"eigen_choice": 0',
                                                               '"eigen_choice": 1e400'),
         "ScenarioInvalid", "eigen_choice must be an integer"),
        ("scan-singularity",
         '{"version": 1, "grid": {"start": 0.2, "stop": 1.2, "count": 1e400}}',
         "ScenarioInvalid", "grid count must be an integer"),
        # An integer of 401 digits, which float() refuses.
        ("qutrit-modular", json.dumps({"version": 1, **QUTRIT_PAIR, "spec": {
            "r8": [1.0] + [0.0] * 7, "alpha": 10**400}}),
         "OverflowError", "int too large to convert to float"),
        ("qubit-modular", json.dumps({"version": 1, **QUBIT_PAIR, "spec": {
            "axis": [0, 0, 1], "alpha": 10**400}}),
         "OverflowError", "int too large to convert to float"),
    ], ids=["deep-nesting", "eigen-choice-1e400", "grid-count-1e400", "qutrit-alpha-401-digits",
            "qubit-alpha-401-digits"])
    def test_out_of_range_document_exit_two(self, capsys, tmp_path, command, document,
                                            error_type, message):
        path = tmp_path / "scenario.json"
        path.write_text(document)
        code = main([command, "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 2, captured.out
        assert json.loads(captured.out)["error"] == {"kind": "usage", "type": error_type,
                                                     "message": message}
        assert captured.err == ""

    @pytest.mark.parametrize("command, payload, message", [
        ("qutrit-modular", {"version": True, **QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7}},
         "scenario version must be 1"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7,
                                                    "eigen_choice": True}},
         "eigen_choice must be an integer"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7, "alpha": True}},
         "alpha must be a number"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7, "beta": True}},
         "beta must be a number"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7, "theta": True}},
         "theta must be a number"),
        ("qubit-modular", {**QUBIT_PAIR, "spec": {"axis": [0, 0, 1], "alpha": True}},
         "alpha must be a number"),
        ("qubit-modular", {**QUBIT_PAIR, "spec": {"axis": [0, 0, 1], "beta": False}},
         "beta must be a number"),
        ("scan-singularity", {"epsilon": True}, "epsilon must be a number"),
        ("scan-singularity", {"chi1": True}, "chi1 must be a number"),
        ("scan-singularity", {"chi2": False}, "chi2 must be a number"),
        ("scan-singularity", {"grid": {"start": True, "stop": 1.2, "count": 8}},
         "grid start must be a number"),
        ("scan-singularity", {"grid": {"start": 0.2, "stop": True, "count": 8}},
         "grid stop must be a number"),
        ("scan-singularity", {"grid": {"start": 0.2, "stop": 1.2, "count": True}},
         "grid count must be an integer"),
    ], ids=["version", "eigen_choice", "qutrit-alpha", "qutrit-beta", "theta", "qubit-alpha",
            "qubit-beta", "epsilon", "chi1", "chi2", "grid-start", "grid-stop", "grid-count"])
    def test_boolean_number_exit_two(self, capsys, tmp_path, command, payload, message):
        # JSON true and false are Python's bool, an int equal to 1 or 0.
        code, out = run_cli(capsys, command, "--scenario", write_scenario(tmp_path, payload))
        assert code == 2, out
        assert json.loads(out)["error"] == {"kind": "usage", "type": "ScenarioInvalid",
                                            "message": message}

    @pytest.mark.parametrize("command, payload, message", [
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7, "alpha": "0.5"}},
         "alpha must be a number"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7, "beta": "0.5"}},
         "beta must be a number"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7, "theta": "0.5"}},
         "theta must be a number"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": [1.0] + [0.0] * 7,
                                                    "eigen_choice": "1"}},
         "eigen_choice must be an integer"),
        ("qubit-modular", {**QUBIT_PAIR, "spec": {"axis": [0, 0, 1], "alpha": "0.5"}},
         "alpha must be a number"),
        ("scan-singularity", {"epsilon": "0.5"}, "epsilon must be a number"),
        ("scan-singularity", {"chi1": "1.0"}, "chi1 must be a number"),
        ("scan-singularity", {"chi2": "2.5"}, "chi2 must be a number"),
        ("scan-singularity", {"grid": {"start": "0.2", "stop": 1.2, "count": 8}},
         "grid start must be a number"),
        ("scan-singularity", {"grid": {"start": 0.2, "stop": "1.2", "count": 8}},
         "grid stop must be a number"),
        ("scan-singularity", {"grid": {"start": 0.2, "stop": 1.2, "count": "8"}},
         "grid count must be an integer"),
        ("qubit-weak", {"i": [[True, 0], [False, 0]], "r": {"bloch": [0, 0, 1]},
                        "f": [[0.6, 0], [0.8, 0]]}, "state 'i' must hold only numbers"),
        ("qubit-weak", {"i": [[1.0, 0], [0.0, 0]], "r": {"bloch": [0, 0, 1]},
                        "f": {"amplitudes": [["0.6", 0], [0.8, 0]]}},
         "state 'f' must hold only numbers"),
        ("qubit-weak", {"i": {"bloch": [0, 0, 1]}, "r": {"bloch": ["1", 0, 0]},
                        "f": {"bloch": [0, 1, 0]}}, "state 'r' must hold only numbers"),
        ("qubit-modular", {**QUBIT_PAIR, "spec": {"axis": [0, 0, True]}},
         "axis must hold only numbers"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"r8": ["1.0"] + [0.0] * 7}},
         "r8 must hold only numbers"),
        ("qutrit-modular", {**QUTRIT_PAIR, "spec": {"observable": [
            [[True, 0.0]] + IDENTITY_3[0][1:], *IDENTITY_3[1:]]}},
         "observable must hold only numbers"),
        ("nlevel-direct", {**QUTRIT_PAIR, "observable": [
            [["1", 0.0]] + IDENTITY_3[0][1:], *IDENTITY_3[1:]]},
         "observable must hold only numbers"),
        ("abl", {**QUTRIT_PAIR, "projectors": [IDENTITY_3[:2] + [[[0.0, 0.0], [0.0, 0.0],
                                                                  [False, 0.0]]]]},
         "projectors must hold only numbers"),
    ], ids=["qutrit-alpha", "qutrit-beta", "theta", "eigen_choice", "qubit-alpha", "epsilon",
            "chi1", "chi2", "grid-start", "grid-stop", "grid-count", "amplitudes-boolean",
            "amplitudes-string", "bloch", "axis", "r8", "spec-observable", "observable",
            "projectors"])
    def test_non_number_exit_two(self, capsys, tmp_path, command, payload, message):
        # Only an int that is not a bool, or a float, is a JSON number.
        code, out = run_cli(capsys, command, "--scenario", write_scenario(tmp_path, payload))
        assert code == 2, out
        assert json.loads(out)["error"] == {"kind": "usage", "type": "ScenarioInvalid",
                                            "message": message}

    def test_non_object_document_exit_two(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, out = run_cli(capsys, "majorana", "--scenario", str(path))
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "usage", "type": "ScenarioInvalid",
                                            "message": "scenario document must be a JSON object"}


class TestCliProcess:
    """``python -m majgeom`` in a fresh interpreter, as a user runs it."""

    @pytest.mark.parametrize("argv, golden", GOLDEN_RUNS)
    def test_golden_bytes(self, argv, golden):
        done = run_python("-m", "majgeom", *argv)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (DATA / golden).read_bytes()

    def test_usage_error_exit_two(self):
        done = run_python("-m", "majgeom", "no-such-command")
        assert (done.returncode, done.stderr) == (2, b"")
        error = json.loads(done.stdout)["error"]
        assert (error["kind"], error["type"]) == ("usage", "ArgumentError")
        assert "invalid choice: 'no-such-command'" in error["message"]

    def test_orthogonal_selection_exit_three(self, tmp_path):
        scenario = write_scenario(tmp_path, {"i": {"bloch": [0, 0, 1]},
                                             "r": {"bloch": [1, 0, 0]},
                                             "f": {"bloch": [0, 0, -1]}})
        done = run_python("-m", "majgeom", "qubit-weak", "--scenario", scenario)
        assert (done.returncode, done.stderr) == (3, b"")
        error = json.loads(done.stdout)["error"]
        assert (error["kind"], error["type"]) == ("physical-singularity", "OrthogonalSelection")


class TestCsvOutput:
    TRIPLE = json.loads((DATA / "qutrit_triple.scenario.json").read_text())

    @pytest.mark.parametrize("command, payload", [
        ("qutrit-weak", TRIPLE),
        ("canonicalize", TRIPLE),
        ("majorana", {"state": amplitudes([0.6, 0.0, 0.8j])}),
        ("majorana", {"state": amplitudes(random_state(np.random.default_rng(95), 4))}),
    ])
    def test_field_rows_match_json(self, capsys, tmp_path, command, payload):
        scenario = write_scenario(tmp_path, payload)
        _, document = run_cli(capsys, command, "--scenario", scenario)
        code, table = run_cli(capsys, command, "--scenario", scenario, "--format", "csv")
        assert code == 0
        rows = csv_rows(table)
        expected = flatten(json.loads(document)["results"])
        assert rows[0] == ["field", "value"]
        assert [row[0] for row in rows[1:]] == [path for path, _ in expected]
        for (_, cell), (_, leaf) in zip(rows[1:], expected):
            if leaf is None:
                assert cell == ""
            elif isinstance(leaf, float):
                assert float(cell) == leaf
            else:
                assert cell == str(leaf)

    def test_three_box_degrees_scale_solid_angles(self, capsys):
        _, radians = run_cli(capsys, "three-box", "--format", "csv")
        _, degrees = run_cli(capsys, "three-box", "--format", "csv", "--degrees")
        rad_rows, deg_rows = csv_rows(radians), csv_rows(degrees)
        assert deg_rows[0] == rad_rows[0]
        assert rad_rows[0][3] == "solid_angle"
        for rad, deg in zip(rad_rows[1:7], deg_rows[1:7]):
            assert float(deg[3]) == float(rad[3]) * (180.0 / math.pi)
            assert deg[:3] + deg[4:] == rad[:3] + rad[4:]
        for box, (rad, deg) in enumerate(zip(rad_rows[7:], deg_rows[7:])):
            factor_rows = deg_rows[1 + 2 * box:3 + 2 * box]
            assert float(deg[3]) == sum(float(row[3]) for row in factor_rows)
            assert deg[:3] + deg[4:] == rad[:3] + rad[4:]

    def test_scan_degrees_scale_angle_columns(self, capsys):
        angles = {"theta", "alpha1", "alpha2", "beta1", "beta2", "omega1", "omega2",
                  "wv_arg"}
        argv = ("scan-singularity", "--count", "512", "--format", "csv")
        _, radians = run_cli(capsys, *argv)
        _, degrees = run_cli(capsys, *argv, "--degrees")
        rad_rows, deg_rows = csv_rows(radians), csv_rows(degrees)
        header = rad_rows[0]
        assert deg_rows[0] == header
        assert any("" in row for row in rad_rows[1:])
        for rad, deg in zip(rad_rows[1:], deg_rows[1:]):
            for name, rad_cell, deg_cell in zip(header, rad, deg):
                if name in angles and rad_cell != "":
                    assert float(deg_cell) == float(rad_cell) * (180.0 / math.pi)
                else:
                    assert deg_cell == rad_cell


class TestNlevelDirectModular:
    @pytest.mark.parametrize("spec", [
        {"observable": [[[float(i == j) * (i - 1.0), 0.0] for j in range(3)]
                        for i in range(3)], "alpha": 0.7, "beta": 0.1},
        {"r8": [0.3, -1.2, 0.5, 0.0, 2.0, -0.7, 0.1, 0.9], "alpha": 0.4, "theta": 0.9},
    ])
    def test_equals_modular_value_direct(self, capsys, tmp_path, spec):
        rng = np.random.default_rng(96)
        psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
        scenario = write_scenario(tmp_path, {"i": amplitudes(psi_i), "f": amplitudes(psi_f),
                                             "kind": "modular", "spec": spec})
        code, out = run_cli(capsys, "nlevel-direct", "--scenario", scenario)
        assert code == 0, out
        doc = json.loads(out)
        assert doc["provenance"] == "direct"
        assert doc["results"]["kind"] == "modular"
        if "r8" in spec:
            observable = GellMannDirection.from_r8(spec["r8"]).operator
        else:
            grid = np.array(spec["observable"])
            observable = grid[..., 0] + 1j * grid[..., 1]
        expected = modular_value_direct(
            psi_i / np.linalg.norm(psi_i),
            NLevelModularSpec(observable=observable, alpha=spec["alpha"],
                              beta=spec.get("beta", 0.0), generic_theta=spec.get("theta")),
            psi_f / np.linalg.norm(psi_f))
        rect = expected.rect
        assert doc["results"]["value"] == {"modulus": expected.modulus,
                                           "argument": expected.argument,
                                           "re": rect.real, "im": rect.imag}


class TestOverflowingPhase:
    """A phase that fits is computed; one beyond the float range is a usage
    error.  Either way the output is strict JSON and stderr stays empty."""

    OBSERVABLE = [[[float(i == j) * (1.0 - i), 0.0] for j in range(3)] for i in range(3)]
    PAIR = {"i": amplitudes(np.ones(3) / SQ3), "f": amplitudes(np.array([1.0, -1.0, 1.0]) / SQ3)}

    @staticmethod
    def run_quiet(capsys, command, scenario):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--scenario", scenario])
        captured = capsys.readouterr()
        assert (captured.err, caught) == ("", [])

        def refuse(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        return code, json.loads(captured.out, parse_constant=refuse)

    @pytest.mark.parametrize("command, extra", [
        ("nlevel-direct", {"kind": "modular"}),
        ("qutrit-modular", {}),
    ])
    def test_phase_within_range(self, capsys, tmp_path, command, extra):
        scenario = write_scenario(tmp_path, {**self.PAIR, **extra, "spec": {
            "observable": self.OBSERVABLE, "alpha": 1e308}})
        code, doc = self.run_quiet(capsys, command, scenario)
        assert code == 0, doc
        value = doc["results"]["value" if command == "nlevel-direct" else "direct"]
        assert abs(value["re"] - (2.0 * math.cos(1e308) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("command, extra", [
        ("nlevel-direct", {"kind": "modular"}),
        ("qutrit-modular", {}),
    ])
    def test_overflowing_phase_exit_two(self, capsys, tmp_path, command, extra):
        observable = [[[10.0 * re, im] for re, im in row] for row in self.OBSERVABLE]
        scenario = write_scenario(tmp_path, {**self.PAIR, **extra, "spec": {
            "observable": observable, "alpha": 1e308}})
        code, doc = self.run_quiet(capsys, command, scenario)
        assert code == 2
        assert doc == {"error": {"kind": "usage", "type": "ValueError",
                                 "message": "evolution_phase must be finite"}}


class TestStderr:
    @pytest.mark.parametrize("deviation, warning", [
        (5e-10, "warning: state 'state' renormalized (deviation 5.00e-10)\n"),
        (5e-11, ""),
    ])
    def test_renormalization_warning(self, capsys, tmp_path, deviation, warning):
        scenario = write_scenario(tmp_path, {"state": amplitudes([1.0 + deviation, 0.0, 0.0])})
        code = main(["majorana", "--scenario", scenario])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert captured.err == warning

    def test_inf_observable_entry_writes_no_warning(self, capsys, tmp_path):
        # An infinite real or imaginary part (1j * inf has a NaN real part),
        # and an imaginary part whose difference from its conjugate overflows.
        for entry in ([math.inf, 0.0], [0.0, math.inf], [0.0, 1e308]):
            observable = [[[0.0, 0.0] for _ in range(3)] for _ in range(3)]
            observable[1][1] = entry
            scenario = write_scenario(tmp_path, {
                "i": amplitudes(np.ones(3) / SQ3),
                "f": amplitudes(np.array([1.0, -1.0, 1.0]) / SQ3),
                "kind": "weak", "observable": observable})
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["nlevel-direct", "--scenario", scenario])
            captured = capsys.readouterr()
            assert code == 2, entry
            assert json.loads(captured.out)["error"]["type"] == "NotHermitian", entry
            assert (captured.err, caught) == ("", []), entry

    @pytest.mark.parametrize("command, state, message", [
        ("qutrit-weak", [[0.5, 1e300], [0.0, 0.0], [0.0, 0.0]],
         "state 'i' deviates from normalization by inf"),
        ("qutrit-weak", [[0.5, math.inf], [0.0, 0.0], [0.0, 0.0]],
         "state 'i' amplitudes must be finite"),
        ("qubit-weak", {"bloch": [0, 0, 1e300]},
         "state 'i': Bloch vector norm inf deviates from 1 beyond 1e-08"),
    ])
    def test_out_of_range_state_writes_no_warning(self, tmp_path, command, state, message):
        # The norm of each state overflows, or an infinite imaginary part
        # meets 1j; numpy's RuntimeWarning must not reach stderr.
        doc = (json.loads((DATA / "qutrit_triple.scenario.json").read_text())
               if command == "qutrit-weak" else
               {"r": {"bloch": [0, 0, 1]}, "f": {"bloch": [1, 0, 0]}})
        scenario = write_scenario(tmp_path, {**doc, "i": state})
        done = run_python("-m", "majgeom", command, "--scenario", scenario)
        assert (done.returncode, done.stderr) == (2, b"")
        assert json.loads(done.stdout) == {"error": {"kind": "usage", "type": "ScenarioInvalid",
                                                     "message": message}}

    @pytest.mark.parametrize("start, stop", [(math.inf, 1.0), (0.5, -math.inf),
                                             (-1e308, 1e308)])
    def test_non_finite_scan_grid_writes_no_warning(self, tmp_path, start, stop):
        # An infinite end, or a span that overflows, gives non-finite grid
        # points, which the scan refuses; numpy's RuntimeWarning must not
        # reach stderr.
        scenario = write_scenario(tmp_path, {"grid": {"start": start, "stop": stop, "count": 16}})
        done = run_python("-m", "majgeom", "scan-singularity", "--scenario", scenario)
        assert (done.returncode, done.stderr) == (2, b"")
        assert json.loads(done.stdout) == {"error": {"kind": "usage", "type": "ValueError",
                                                     "message": "theta grid must be finite"}}


def readme_scenarios():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    return [json.loads(block) for block in blocks]


def test_readme_has_scenarios():
    assert len(readme_scenarios()) >= 2


@pytest.mark.parametrize("doc", readme_scenarios())
def test_readme_scenario_runs(capsys, tmp_path, doc):
    dim = 2 if isinstance(doc["i"], dict) else len(doc["i"])
    command = ("qubit" if dim == 2 else "qutrit") + ("-modular" if "spec" in doc
                                                    else "-weak")
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, command, "--scenario", str(path))
    assert code == 0, out
    assert json.loads(out)["mismatch"] is False


# Leaves and subtrees the contract property puts in place of a scenario node:
# signed zeros, the float extremes, non-finite numbers and the wrong JSON types.
HOSTILE = (0, -0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf,
           "0.5", None, True, [], {})
# A Hermitian 3x3 observable as [re, im] pairs.
OBSERVABLE = [[[1.0, 0.0], [0.5, -0.25], [0.0, 0.0]],
              [[0.5, 0.25], [-0.5, 0.0], [0.0, 1.0]],
              [[0.0, 0.0], [0.0, -1.0], [0.25, 0.0]]]


def contract_bases():
    """Valid scenario documents of the commands the contract property runs."""
    triple = json.loads((DATA / "qutrit_triple.scenario.json").read_text())
    pair = {key: triple[key] for key in ("version", "i", "f")}
    readme = readme_scenarios()
    bloch = next(doc for doc in readme if isinstance(doc["i"], dict))
    four = next(doc for doc in readme if len(doc.get("r", ())) == 4)
    r8 = next(doc for doc in readme if "spec" in doc)  # real amplitudes: zeros to sign
    half = math.sqrt(0.5)
    qubits = {"version": 1, "i": [[0.6, 0.0], [0.0, 0.8]], "r": [[half, 0.0], [0.0, -half]],
              "f": [[0.8, 0.0], [-0.36, 0.48]]}
    rotation = {"axis": [0.0, 0.6, 0.8], "alpha": 0.9, "beta": -0.2}
    return {
        "qubit-weak": [bloch, qubits],
        "qubit-modular": [{**bloch, "spec": rotation},
                          {**qubits, "spec": {**rotation, "axis": [1.0, 0.0, 0.0]}}],
        "qutrit-weak": [triple, four],
        "qutrit-modular": [
            json.loads((DATA / "qutrit_modular.scenario.json").read_text()), r8,
            {**pair, "spec": {"observable": OBSERVABLE, "alpha": 0.7, "beta": -0.2,
                              "eigen_choice": 1}},
            {**pair, "spec": {"observable": OBSERVABLE, "theta": 0.4}},
        ],
        "nlevel-direct": [
            {**pair, "kind": "weak", "observable": OBSERVABLE},
            {**pair, "kind": "modular", "spec": {"observable": OBSERVABLE, "alpha": 0.7}},
            {**r8, "kind": "modular"},
        ],
        "majorana": [{"version": 1, "state": triple["i"]}, {"version": 1, "state": four["r"]},
                     {"version": 1, "state": bloch["r"]}],
        "canonicalize": [triple, four],
        "abl": [{**pair, "projectors": [[[[float(j == k == n), 0.0] for k in range(3)]
                                         for j in range(3)] for n in range(3)]},
                {**pair, "projectors": [OBSERVABLE]}],
        # At most 16 grid points (or --count, below): a scan's time grows with them.
        "scan-singularity": [
            {"version": 1, "epsilon": SCAN_EPSILON, "chi1": SCAN_CHI1, "chi2": SCAN_CHI2,
             "grid": {"start": 0.1, "stop": 1.4, "count": 16}},
            {"version": 1, "epsilon": 0.3, "chi1": 1.0, "chi2": 2.5},
            {"version": 1, "grid": {"start": 0.5, "stop": 1.0, "count": 16}},
        ],
    }


def node_paths(node, path=()):
    """The key path of every node below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


@st.composite
def mutated(draw, base):
    """``base`` with up to three nodes replaced by a ``HOSTILE`` value, removed,
    or (in a list) repeated, so lengths and shapes go wrong too, or with a
    number negated, which keeps a state's norm and turns a zero's sign."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(node_paths(doc))
        if not paths:
            break
        *head, key = draw(st.sampled_from(paths))
        parent = doc
        for step in head:
            parent = parent[step]
        leaf = parent[key]
        number = isinstance(leaf, (int, float)) and not isinstance(leaf, bool)
        action = draw(st.sampled_from(("negate",) * number + ("replace", "remove", "repeat")))
        if action == "negate":
            parent[key] = -float(leaf)
        elif action == "replace":
            parent[key] = draw(st.sampled_from(HOSTILE))
        elif action == "remove":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key], copy.deepcopy(parent[key])]
    return doc


CONTRACT_BASES = contract_bases()
# Options drawn per example beside the scenario: --mode for the value
# commands, and for the scan a --count (used where the scenario has no grid),
# valid ones no larger than 64 so that every scan stays small.
CONTRACT_OPTIONS = {
    **{command: st.sampled_from(("both", "geometric", "direct")).map(
        lambda mode: ("--mode", mode)) for command in VALUE_COMMANDS},
    "scan-singularity": st.sampled_from(
        ("2", "3", "16", "64", "1", "0", "-5", "65537", "1e3", "nan", "")).map(
        lambda count: ("--count", count)),
}
# The three-box command's flags, valid and not, in any order.
THREE_BOX_FLAGS = (("--degrees",), ("--format", "csv"), ("--format", "json"),
                   ("--format", "xml"), ("--format",), ("--mode", "direct"), ("--count", "8"),
                   ("--scenario", "scenario.json"), ("--out",), ("--degrees=1",), ("extra",))
CSV_HEADERS = {
    "scan-singularity": "theta,alpha1,alpha2,beta1,beta2,omega1,omega2,wv_mod,wv_arg,flags",
    "three-box": "box,qubit,modulus,solid_angle,weak_value_re,weak_value_im",
}
CONTRACT_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


class TestContractProperty:
    """Mutated scenarios and flags through :func:`majgeom.cli.run` in-process,
    with every warning raised as an error: the exit code is 0, 2 or 3, stdout
    is one JSON document (the error object unless the exit is 0) or, for
    ``--format csv`` and exit 0, the command's table, stderr holds nothing but
    renormalization warnings, and a second run prints the same bytes."""

    @staticmethod
    def run_captured(argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def check_table(out, header):
        lines = out.splitlines()
        assert out.endswith("\n") and lines[0] == header, out
        assert all(line.count(",") == header.count(",") for line in lines[1:]), out

    def check_contract(self, argv):
        code, out, err = self.run_captured(argv)
        assert code in (0, 2, 3), out
        formats = [value for flag, value in zip(argv, argv[1:]) if flag == "--format"]
        if code == 0 and formats[-1] == "csv":
            self.check_table(out, CSV_HEADERS.get(argv[0], "field,value"))
        else:
            envelope = json.loads(out)
            assert ("error" in envelope) == (code != 0), out
        assert all(line.startswith("warning: state ") for line in err.splitlines()), err
        assert self.run_captured(argv) == (code, out, err)

    @pytest.mark.parametrize("command", CONTRACT_BASES)
    def test_exit_code_document_and_bytes(self, tmp_path_factory, command):
        path = tmp_path_factory.mktemp("contract") / "scenario.json"
        options = CONTRACT_OPTIONS.get(command, st.just(()))
        formats = st.sampled_from(("json", "csv"))

        @CONTRACT_SETTINGS
        @given(st.sampled_from(CONTRACT_BASES[command]).flatmap(mutated), options, formats)
        def check(doc, option, fmt):
            path.write_text(json.dumps(doc))
            self.check_contract([command, "--scenario", str(path), *option, "--format", fmt])

        check()

    def test_three_box_flags(self):
        @CONTRACT_SETTINGS
        @given(st.sampled_from(("json", "csv")),
               st.lists(st.sampled_from(THREE_BOX_FLAGS), max_size=3))
        def check(fmt, flags):
            self.check_contract(["three-box", "--format", fmt, *itertools.chain(*flags)])

        check()
