import cmath
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import ang_dist, exact_abl_distribution
from majgeom.bloch import as_bloch, solid_angle_triangle, weak_moduli
import majgeom.canonical
import majgeom.experiments
import majgeom.majorana
from majgeom.canonical import StateAngles, params_to_state
from majgeom.errors import OrthogonalSelection, UndefinedSolidAngle
from majgeom.experiments import (
    SCAN_CHI1,
    SCAN_CHI2,
    SCAN_EPSILON,
    default_theta_grid,
    scan_state,
    singularity_scan,
    three_box_report,
)
from majgeom.majorana import discriminant_degeneracy, nlevel_state, qutrit_roots_closed_form
from majgeom.nlevel_values import weak_value_direct
from majgeom.numerics import DEFAULT_TOL

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
THETA_B = math.atan(2 * math.sqrt(6.0))
THETA_C = math.atan(math.sqrt(1.5))

# One hostile scan parameter per row, with the message that refuses it.
HOSTILE_SCAN_PARAMETERS = [
    ({"epsilon": math.inf}, "epsilon must lie in [0, pi/2]"),
    ({"epsilon": -math.inf}, "epsilon must lie in [0, pi/2]"),
    ({"epsilon": math.nan}, "epsilon must lie in [0, pi/2]"),
    ({"epsilon": 2.0}, "epsilon must lie in [0, pi/2]"),
    ({"epsilon": -1e-300}, "epsilon must lie in [0, pi/2]"),
    ({"chi1": math.inf}, "chi1 must be finite"),
    ({"chi1": math.nan}, "chi1 must be finite"),
    ({"chi2": -math.inf}, "chi2 must be finite"),
    ({"chi2": math.nan}, "chi2 must be finite"),
    ({"chi2": 1e308}, "2*chi2 - chi1 must be finite"),
    ({"chi2": -1e308}, "2*chi2 - chi1 must be finite"),
    ({"chi1": -1.7e308, "chi2": 8.9e307}, "2*chi2 - chi1 must be finite"),
]


@pytest.fixture(scope="module")
def scan():
    return singularity_scan(count=512)


@pytest.fixture(scope="module")
def report():
    return three_box_report()


class TestSingularityScan:
    def test_default_parameters(self, scan):
        assert scan.epsilon == pytest.approx(math.asin(math.tan(math.pi / 6)))
        assert scan.chi1 == pytest.approx(4 * math.pi / 3)
        assert scan.chi2 == pytest.approx(2 * math.pi / 3)
        assert len(scan.records) == 512

    def test_bifurcation_location(self, scan):
        assert abs(scan.theta_bifurcation - THETA_B) <= 1e-10

    def test_singularity_location(self, scan):
        assert abs(scan.theta_singular - THETA_C) <= 1e-10

    def test_flags_bracket_special_points(self, scan):
        recs = scan.records
        singular = [k for k, r in enumerate(recs) if "singular" in r.flags]
        bifurcation = [k for k, r in enumerate(recs) if "bifurcation" in r.flags]
        assert len(singular) == 2 and singular[1] == singular[0] + 1
        assert recs[singular[0]].theta < THETA_C < recs[singular[1]].theta
        assert len(bifurcation) == 2 and bifurcation[1] == bifurcation[0] + 1
        assert recs[bifurcation[0]].theta < THETA_B < recs[bifurcation[1]].theta

    def test_omega2_single_jump(self, scan):
        recs = scan.records
        steps = [(k, recs[k + 1].omega2 - recs[k].omega2)
                 for k in range(len(recs) - 1)
                 if recs[k].omega2 is not None and recs[k + 1].omega2 is not None]
        big = [(k, s) for k, s in steps if abs(s) > 0.1]
        assert len(big) == 1
        gap_index, jump = big[0]
        assert recs[gap_index].theta < THETA_C < recs[gap_index + 1].theta
        assert abs(jump - 2 * math.pi) <= 0.05
        assert abs(scan.omega2_jump - jump) <= 1e-12

    def test_omega1_continuous(self, scan):
        recs = scan.records
        steps = [abs(recs[k + 1].omega1 - recs[k].omega1)
                 for k in range(len(recs) - 1)
                 if recs[k].omega1 is not None and recs[k + 1].omega1 is not None]
        assert max(steps) < 0.1

    def test_omega_sums(self, scan):
        for r in scan.records:
            if r.omega1 is None or r.omega2 is None:
                continue
            total = r.omega1 + r.omega2
            target = 0.0 if r.theta < scan.theta_singular else 2 * math.pi
            assert abs(total - target) <= 1e-8

    def test_omega_sums_at_quoted_thetas(self):
        scan = singularity_scan(np.array([0.25 * math.pi, 0.30 * math.pi]))
        r_lo, r_hi = scan.records
        assert abs(r_lo.omega1 + r_lo.omega2) <= 1e-8
        assert abs(r_hi.omega1 + r_hi.omega2 - 2 * math.pi) <= 1e-8

    def test_polar_angles_degenerate_below_bifurcation(self, scan):
        for r in scan.records:
            if r.theta < THETA_B - 1e-6:
                assert abs(r.beta1 - r.beta2) <= 1e-9
                assert ang_dist(r.alpha1 + r.alpha2, SCAN_CHI1) <= 1e-9
            elif r.theta > THETA_B + 1e-6:
                assert ang_dist(r.alpha1, SCAN_CHI1 / 2) <= 1e-9
                assert ang_dist(r.alpha2, SCAN_CHI1 / 2) <= 1e-9

    def test_geometric_matches_direct(self, scan):
        for r in scan.records:
            if r.wv_modulus is None or r.wv_direct is None:
                continue
            geometric = r.wv_modulus * np.exp(1j * r.wv_argument)
            direct = r.wv_direct.rect
            assert abs(geometric - direct) <= 1e-8 * max(1.0, abs(direct))

    def test_closed_form_weak_value(self, scan):
        for r in scan.records[::17]:
            if r.wv_modulus is None:
                continue
            expected = 1.0 / (1.0 - math.sqrt(2.0 / 3.0) * math.tan(r.theta))
            geometric = r.wv_modulus * np.exp(1j * r.wv_argument)
            assert abs(geometric - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_argument_jump_is_pi(self, scan):
        recs = scan.records
        below = [r for r in recs if r.theta < THETA_C - 0.05 and r.wv_argument is not None]
        above = [r for r in recs if r.theta > THETA_C + 0.05 and r.wv_argument is not None]
        assert all(abs(r.wv_argument) <= 1e-8 for r in below)
        assert all(ang_dist(r.wv_argument, math.pi) <= 1e-8 for r in above)

    def test_printed_numbers_meet_their_closed_forms(self, report):
        # Every number three-box prints that has a closed form, to within a
        # few units in the last place, not just the 1e-9 of the rows above.
        corner = 2 * math.atan(math.sqrt(3 + 2 * SQ3))
        moduli = ((1.0, 1.0), (math.sqrt(2 + SQ3), math.sqrt(2 - SQ3)), (1.0, 1.0))
        angles = ((-corner, corner), (0.0, 2 * math.pi), (0.0, 0.0))
        entropy = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
        middle = np.array([SQ2, 0.0, 1.0]) / SQ3
        rows = [("i_vec", report.i_vec, [0.0, 0.0, 1.0]),
                ("f_vec", report.f_vec, [2 * SQ2 / 3, 0.0, -1.0 / 3]),
                ("weak_value_sum", report.weak_value_sum, 1.0)]
        for box, value, box_moduli, box_angles, side in zip(
                report.boxes, (1.0, -1.0, 1.0), moduli, angles, (-1.0, None, 1.0)):
            rows += [(f"{box.name} weak_value", box.weak_value, value),
                     (f"{box.name} weak_value_direct", box.weak_value_direct, value)]
            for k, (factor, modulus, omega) in enumerate(zip(box.factors, box_moduli, box_angles)):
                rows += [(f"{box.name} factor {k} modulus", factor.modulus, modulus),
                         (f"{box.name} factor {k} solid_angle", factor.solid_angle, omega),
                         (f"{box.name} factor {k} value", factor.value,
                          modulus * cmath.exp(-0.5j * omega))]
            if side is not None:
                rows += [(f"{box.name} entropy", box.entropy, entropy),
                         (f"{box.name} bell_overlap", box.bell_overlap, 0.0),
                         (f"{box.name} closest_separable", box.closest_separable, side * middle)]
        for name, got, expected in rows:
            assert np.max(np.abs(np.subtract(got, expected))) <= 2e-15, name

    def test_one_frame_and_a_point_solve_per_box(self, monkeypatch):
        frames, solves = [], []

        def counted(fn, log):
            def wrapper(*args):
                log.append(args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(majgeom.experiments, "_frame",
                            counted(majgeom.experiments._frame, frames))
        for module in (majgeom.canonical, majgeom.majorana):
            monkeypatch.setattr(module, "_majorana_points",
                                counted(majgeom.majorana._majorana_points, solves))
        three_box_report()
        assert len(frames) == 1
        assert len(solves) == 3  # the boxes; none for the pre- or postselected state

    def test_frame_vectors_belong_to_the_caller(self):
        first = three_box_report()
        first.i_vec[:] = 0.0
        first.f_vec[:] = 0.0
        second = three_box_report()
        assert second.i_vec.tolist() == [0.0, 0.0, 1.0]
        assert np.max(np.abs(second.f_vec - np.array([2 * SQ2, 0.0, -1.0]) / 3.0)) <= 2.3e-16
        assert majgeom.canonical._NORTH.tolist() == [0.0, 0.0, 1.0]

    def test_runtime(self):
        import time
        start = time.perf_counter()
        singularity_scan(count=512)
        assert time.perf_counter() - start < 5.0

    def test_custom_grid_validation(self):
        with pytest.raises(ValueError):
            singularity_scan(np.array([0.3, 0.2]))
        with pytest.raises(ValueError):
            singularity_scan(np.array([0.0, 0.3]))

    @pytest.mark.parametrize("grid", [[0.1, math.nan, 0.3], [math.nan, 0.3],
                                      [0.1, math.inf], [0.1, 0.2, -math.inf]])
    def test_non_finite_grid_rejected_up_front(self, grid):
        # NaN compares false, so such a grid passes the ordering and range
        # checks and used to fail later on the states.
        with pytest.raises(ValueError, match="^theta grid must be finite$"):
            singularity_scan(grid)

    @pytest.mark.parametrize("kwargs, message", HOSTILE_SCAN_PARAMETERS)
    def test_hostile_parameters_rejected_up_front(self, kwargs, message):
        params = {"epsilon": SCAN_EPSILON, "chi1": SCAN_CHI1, "chi2": SCAN_CHI2, **kwargs}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                singularity_scan(count=8, **params)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                qutrit_roots_closed_form(0.3, **params)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                scan_state(0.3, **params)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_scan_state_needs_finite_theta(self, theta):
        with pytest.raises(ValueError, match="^theta must be finite$"):
            scan_state(theta, SCAN_EPSILON, SCAN_CHI1, SCAN_CHI2)

    def test_near_degenerate_flagging(self):
        grid = np.array([THETA_B - 1e-5, THETA_B - 1e-9, THETA_B + 1e-5])
        scan = singularity_scan(grid)
        assert "near_degenerate" in scan.records[1].flags

    def test_default_grid_properties(self):
        grid = default_theta_grid(512)
        assert grid.size == 512
        assert grid[0] > 0.0 and grid[-1] < math.pi / 2
        assert np.all(np.diff(grid) > 0)

    def test_grid_count_must_be_integer(self):
        # 2.5 once gave a last point at exactly pi/2, outside the open interval.
        for count in (2.5, 500.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="^grid count must be an integer$"):
                default_theta_grid(count)
            with pytest.raises(ValueError, match="^grid count must be an integer$"):
                singularity_scan(count=count)
        for count in (512.0, np.int64(512)):
            assert default_theta_grid(count).tobytes() == default_theta_grid(512).tobytes()


# Canonical scan frame, restated: projector on |2>, postselection with both
# stellar points on +x, triangles against +z and +x.
F_STATE = np.array([0.5, math.sqrt(0.5), 0.5], dtype=complex)
R_PROJECTOR = np.diag([0.0, 0.0, 1.0]).astype(complex)
EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def check_against_per_theta_functions(scan):
    """Every record, bit for bit, against the public one-theta functions."""
    eps, chi1, chi2 = scan.epsilon, scan.chi1, scan.chi2
    for r in scan.records:
        angles = qutrit_roots_closed_form(r.theta, eps, chi1, chi2)
        for got, want in ((r.alpha1, angles.alpha_1), (r.alpha2, angles.alpha_2),
                          (r.beta1, angles.beta_1), (r.beta2, angles.beta_2)):
            assert bits(got) == bits(want)
        p1, p2 = angles.points()
        assert r.i1.tobytes() == p1.tobytes() and r.i2.tobytes() == p2.tobytes()

        state = scan_state(r.theta, eps, chi1, chi2)
        raw = params_to_state(StateAngles(r.theta, eps, chi1, chi2))
        assert state.tobytes() == nlevel_state(raw).tobytes()
        try:
            direct = weak_value_direct(state, R_PROJECTOR, F_STATE)
        except OrthogonalSelection:
            assert r.wv_direct is None and "singular" in r.flags
        else:
            assert bits(r.wv_direct.modulus) == bits(direct.modulus)
            assert bits(r.wv_direct.argument) == bits(direct.argument)
        disc = discriminant_degeneracy(state)
        assert ("near_degenerate" in r.flags) == (DEFAULT_TOL.zero < disc <= 1e-8)

        for omega, point in ((r.omega1, p1), (r.omega2, p2)):
            try:
                plain = solid_angle_triangle(point, EZ, EX)
            except UndefinedSolidAngle:
                assert omega is None
                continue
            turns = round((omega - plain) / (4.0 * math.pi))
            assert bits(omega) == bits(plain + 4.0 * math.pi * turns)

        # The moduli read the points as solid_angle_triangle reads them.
        modulus = float(weak_moduli(as_bloch(p1), EZ, EX) * weak_moduli(as_bloch(p2), EZ, EX))
        if r.omega1 is None or r.omega2 is None or r.wv_direct is None or math.isnan(modulus):
            assert r.wv_modulus is None and r.wv_argument is None
        else:
            assert bits(r.wv_modulus) == bits(modulus)
            assert bits(r.wv_argument) == bits(-0.5 * (r.omega1 + r.omega2))


class TestScanMatchesPerThetaFunctions:
    """The batched scan keeps the bits of the per-theta public functions."""

    @pytest.mark.parametrize("count, params", [
        (64, {}),
        (300, {}),
        (512, {}),  # densified around the bifurcation
        (1024, {"epsilon": 0.3, "chi1": 1.0, "chi2": 2.5}),
        (400, {"epsilon": 1.2, "chi1": 5.9, "chi2": 0.4}),
        (200, {"epsilon": 0.0, "chi1": 0.7, "chi2": 3.0}),
        (200, {"epsilon": 0.5 * math.pi}),
    ])
    def test_default_grids(self, count, params):
        check_against_per_theta_functions(singularity_scan(count=count, **params))

    @pytest.mark.parametrize("grid", [
        [0.1, 0.5, THETA_C, 1.0, 1.2],  # a node exactly at the singularity
        [THETA_C, THETA_B],
        [THETA_B - 1e-5, THETA_B - 1e-9, THETA_B + 1e-5],
        [1e-12, 1e-6, 0.5 * math.pi - 1e-9],
        list(np.linspace(0.01, 1.56, 333)),
    ])
    def test_custom_grids(self, grid):
        scan = singularity_scan(np.array(grid))
        check_against_per_theta_functions(scan)

    def test_node_at_singularity_blanks_its_row_only(self):
        scan = singularity_scan(np.array([0.1, 0.5, THETA_C, 1.0, 1.2]))
        singular = scan.records[2]
        assert singular.wv_direct is None and singular.omega2 is None
        assert singular.omega1 is not None
        assert all(r.wv_direct is not None for k, r in enumerate(scan.records) if k != 2)


class TestThreeBoxReport:
    def test_frame_vectors(self, report):
        assert np.max(np.abs(report.i_vec - np.array([0, 0, 1.0]))) <= 1e-12
        expected_f = np.array([2 * SQ2, 0.0, -1.0]) / 3.0
        assert np.max(np.abs(report.f_vec - expected_f)) <= 1e-12

    def test_factor_moduli(self, report):
        expected = {
            "box1": (1.0, 1.0),
            "box2": (math.sqrt(2 + SQ3), math.sqrt(2 - SQ3)),
            "box3": (1.0, 1.0),
        }
        for box in report.boxes:
            for factor, value in zip(box.factors, expected[box.name]):
                assert abs(factor.modulus - value) <= 1e-9

    def test_factor_solid_angles(self, report):
        corner = 2 * math.atan(math.sqrt(3 + 2 * SQ3))
        expected = {
            "box1": (-corner, corner),
            "box2": (0.0, 2 * math.pi),
            "box3": (0.0, 0.0),
        }
        for box in report.boxes:
            for factor, value in zip(box.factors, expected[box.name]):
                assert abs(factor.solid_angle - value) <= 1e-9

    def test_box_weak_values(self, report):
        expected = (1.0, -1.0, 1.0)
        for box, value in zip(report.boxes, expected):
            assert abs(box.weak_value - value) <= 1e-10
            assert abs(box.weak_value_direct - value) <= 1e-10
        assert abs(report.weak_value_sum - 1.0) <= 1e-10

    def test_point_closed_forms(self, report):
        x = 2.0 - SQ3
        q = 3 ** 0.25
        expected = {
            "box1": np.array([[-SQ2 * x, q * math.sqrt(6 * x), -x],
                              [-SQ2 * x, -q * math.sqrt(6 * x), -x]]) / SQ3,
            "box2": np.array([[SQ2, 0.0, 1.0], [-SQ2, 0.0, -1.0]]) / SQ3,
            "box3": np.array([[2 * math.sqrt(x * (1 + q * math.sqrt(x))), 0.0,
                               x - 2 * q * math.sqrt(x)],
                              [-2 * math.sqrt(x * (1 - q * math.sqrt(x))), 0.0,
                               x + 2 * q * math.sqrt(x)]]) / SQ3,
        }
        for box in report.boxes:
            assert np.max(np.abs(box.points - expected[box.name])) <= 1e-12

    def test_normalization_factors(self, report):
        by_name = {box.name: box for box in report.boxes}
        assert abs(1.0 / by_name["box2"].normalization - SQ2) <= 1e-12
        assert abs(1.0 / by_name["box1"].normalization - (2 * SQ3 - 2)) <= 1e-12
        assert abs(1.0 / by_name["box3"].normalization - (2 * SQ3 - 2)) <= 1e-12

    def test_entropies(self, report):
        # h(1/4) at 20 digits.  The exact entropy of box 1's printed points is
        # itself 3.0e-16 from it; the two-qubit computation was 5 units off.
        quarter = 0.81127812445913286391
        by_name = {box.name: box for box in report.boxes}
        for name in ("box1", "box3"):
            assert abs(by_name[name].entropy - quarter) <= 3 * math.ulp(quarter), name
        assert round(by_name["box1"].entropy, 2) == 0.81
        assert by_name["box2"].entropy == 1.0

    def test_abl_probabilities(self, report):
        # Bit for bit the exact values, from the exact oracle.
        i, f = [1, 1, 1], [1, -1, 1]
        one_box = [exact_abl_distribution(i, [[k], [j for j in range(3) if j != k]], f)[0]
                   for k in (0, 2)]
        every_box = exact_abl_distribution(i, [[0], [1], [2]], f)
        assert one_box == [1, 1] and every_box == [Fraction(1, 3)] * 3
        assert [report.abl_one_box["box1"], report.abl_one_box["box3"]] == [1.0, 1.0]
        assert report.abl_all_boxes.tolist() == [float(p) for p in every_box]

    def test_symmetry_checks(self, report):
        assert all(report.symmetry_checks.values()), report.symmetry_checks

    def test_conjugate_factor_pair(self, report):
        box1 = report.boxes[0]
        assert abs(box1.factors[0].value
                   - np.conj(box1.factors[1].value)) <= 1e-10

    def test_r_basis_states(self, report):
        by_name = {box.name: box for box in report.boxes}
        assert np.max(np.abs(by_name["box1"].r_basis
                             - np.array([SQ3 / 2, 0.0, 0.5]))) <= 1e-9
        assert np.max(np.abs(by_name["box2"].r_basis
                             - np.array([0.0, 1.0, 0.0]))) <= 1e-9
        assert np.max(np.abs(by_name["box3"].r_basis
                             - np.array([-0.5, 0.0, SQ3 / 2]))) <= 1e-9

    def test_bell_overlaps_vanish(self, report):
        by_name = {box.name: box for box in report.boxes}
        assert abs(by_name["box1"].bell_overlap) <= 1e-10
        assert abs(by_name["box3"].bell_overlap) <= 1e-10

    def test_closest_separable_states(self, report):
        by_name = {box.name: box for box in report.boxes}
        r1 = by_name["box2"].points[0]
        assert np.max(np.abs(by_name["box1"].closest_separable + r1)) <= 1e-9
        assert np.max(np.abs(by_name["box3"].closest_separable - r1)) <= 1e-9
        assert by_name["box2"].closest_separable is None

    def test_printed_numbers_meet_their_closed_forms(self, report):
        # Every number three-box prints that has a closed form, to within a
        # few units in the last place, not just the 1e-9 of the rows above.
        corner = 2 * math.atan(math.sqrt(3 + 2 * SQ3))
        moduli = ((1.0, 1.0), (math.sqrt(2 + SQ3), math.sqrt(2 - SQ3)), (1.0, 1.0))
        angles = ((-corner, corner), (0.0, 2 * math.pi), (0.0, 0.0))
        entropy = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
        middle = np.array([SQ2, 0.0, 1.0]) / SQ3
        rows = [("i_vec", report.i_vec, [0.0, 0.0, 1.0]),
                ("f_vec", report.f_vec, [2 * SQ2 / 3, 0.0, -1.0 / 3]),
                ("weak_value_sum", report.weak_value_sum, 1.0)]
        for box, value, box_moduli, box_angles, side in zip(
                report.boxes, (1.0, -1.0, 1.0), moduli, angles, (-1.0, None, 1.0)):
            rows += [(f"{box.name} weak_value", box.weak_value, value),
                     (f"{box.name} weak_value_direct", box.weak_value_direct, value)]
            for k, (factor, modulus, omega) in enumerate(zip(box.factors, box_moduli, box_angles)):
                rows += [(f"{box.name} factor {k} modulus", factor.modulus, modulus),
                         (f"{box.name} factor {k} solid_angle", factor.solid_angle, omega),
                         (f"{box.name} factor {k} value", factor.value,
                          modulus * cmath.exp(-0.5j * omega))]
            if side is not None:
                rows += [(f"{box.name} entropy", box.entropy, entropy),
                         (f"{box.name} bell_overlap", box.bell_overlap, 0.0),
                         (f"{box.name} closest_separable", box.closest_separable, side * middle)]
        for name, got, expected in rows:
            assert np.max(np.abs(np.subtract(got, expected))) <= 2e-15, name

    def test_one_frame_and_a_point_solve_per_box(self, monkeypatch):
        frames, solves = [], []

        def counted(fn, log):
            def wrapper(*args):
                log.append(args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(majgeom.experiments, "_frame",
                            counted(majgeom.experiments._frame, frames))
        for module in (majgeom.canonical, majgeom.majorana):
            monkeypatch.setattr(module, "_majorana_points",
                                counted(majgeom.majorana._majorana_points, solves))
        three_box_report()
        assert len(frames) == 1
        assert len(solves) == 3  # the boxes; none for the pre- or postselected state

    def test_frame_vectors_belong_to_the_caller(self):
        first = three_box_report()
        first.i_vec[:] = 0.0
        first.f_vec[:] = 0.0
        second = three_box_report()
        assert second.i_vec.tolist() == [0.0, 0.0, 1.0]
        assert np.max(np.abs(second.f_vec - np.array([2 * SQ2, 0.0, -1.0]) / 3.0)) <= 2.3e-16
        assert majgeom.canonical._NORTH.tolist() == [0.0, 0.0, 1.0]

    def test_runtime(self):
        import time
        start = time.perf_counter()
        three_box_report()
        assert time.perf_counter() - start < 1.0


def test_scan_state_parametrization():
    state = scan_state(0.3, SCAN_EPSILON, SCAN_CHI1, SCAN_CHI2)
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-12
    assert abs(abs(state[2]) - math.cos(0.3)) <= 1e-12
