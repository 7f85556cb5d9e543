import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import random_state
from majgeom.cli import main

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


class TestCliContract:
    def test_unknown_command_exit_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2

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

    def test_deterministic_bytes(self, capsys):
        _, first = run_cli(capsys, "three-box")
        _, second = run_cli(capsys, "three-box")
        assert first == second
        _, csv_a = run_cli(capsys, "scan-singularity", "--count", "32",
                           "--format", "csv")
        _, csv_b = run_cli(capsys, "scan-singularity", "--count", "32",
                           "--format", "csv")
        assert csv_a == csv_b

    @pytest.mark.parametrize("argv, golden", [
        (("three-box",), "three_box.json"),
        (("three-box", "--format", "csv"), "three_box.csv"),
        (("scan-singularity", "--count", "512", "--format", "csv"),
         "scan_singularity_512.csv"),
        (("scan-singularity", "--count", "512", "--format", "json"),
         "scan_singularity_512.json"),
        (("scan-singularity", "--count", "1024", "--epsilon", "0.3", "--chi1", "1.0",
          "--chi2", "2.5", "--format", "csv"), "scan_singularity_1024_eps0.3.csv"),
        (("canonicalize", "--scenario", str(DATA / "qutrit_triple.scenario.json")),
         "canonicalize_qutrit_triple.json"),
        (("qutrit-weak", "--scenario", str(DATA / "qutrit_triple.scenario.json")),
         "qutrit_weak.json"),
        (("qutrit-modular", "--scenario", str(DATA / "qutrit_modular.scenario.json")),
         "qutrit_modular.json"),
    ])
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

    def test_tolerance_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MAJGEOM_TOL", "1e-3")
        code, out = run_cli(capsys, "three-box")
        assert code == 0
        assert json.loads(out)["tolerances"]["comparison"] == 1e-3

    def test_bad_tolerance_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MAJGEOM_TOL", "banana")
        code, out = run_cli(capsys, "three-box")
        assert code == 2

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

    @pytest.mark.parametrize("command, payload, extra, error_type", [
        ("nlevel-direct", {"kind": "weak", "observable": [
            [[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}, (), "NotHermitian"),
        ("abl", {"projectors": [
            [[[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]]}, (), "IncompleteContext"),
        ("qutrit-modular", {"spec": {"r8": [1.0] + [0.0] * 7, "alpha": math.nan}}, (),
         "ValueError"),
        ("qutrit-modular", {"spec": {"r8": [1.0] + [0.0] * 7, "alpha": math.nan}},
         ("--mode", "direct"), "ValueError"),
        ("qutrit-modular", {"spec": {"r8": [1.0, math.nan] + [0.0] * 6, "alpha": 0.3}}, (),
         "ValueError"),
    ])
    def test_non_finite_input_exit_two(self, capsys, tmp_path, command, payload, extra,
                                       error_type):
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        scenario = write_scenario(tmp_path, {
            "i": amplitudes(np.ones(3) / SQ3),
            "f": amplitudes(np.array([1.0, -1.0, 1.0]) / SQ3), **payload})
        code, out = run_cli(capsys, command, "--scenario", scenario, *extra)
        assert code == 2, out
        error = json.loads(out, parse_constant=refuse)["error"]
        assert (error["kind"], error["type"]) == ("usage", error_type)

    def test_csv_seventeen_digits(self, capsys):
        _, out = run_cli(capsys, "three-box", "--format", "csv")
        row = out.split("\n")[2].split(",")
        assert row[2] == "0.99999999999999978"


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
