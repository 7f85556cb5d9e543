import math

import numpy as np
import pytest

from helpers import ang_dist, bargmann_argument, bloch_of, random_bloch, random_qubit
from majgeom.bloch import (
    as_qubit,
    bloch_to_qubit,
    projection_probability,
    qubit_to_bloch,
    rodrigues_rotate,
    solid_angle_quadrangle,
    solid_angle_quadrangle_rotation,
    solid_angle_triangle,
)
from majgeom.errors import UndefinedSolidAngle

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


class TestStateVectorMaps:
    def test_north_pole(self):
        assert np.allclose(qubit_to_bloch([1, 0]), EZ)

    def test_plus_x(self):
        assert np.allclose(qubit_to_bloch([1 / math.sqrt(2), 1 / math.sqrt(2)]), EX)

    def test_round_trip_vector(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            v = random_bloch(rng)
            assert np.max(np.abs(qubit_to_bloch(bloch_to_qubit(v)) - v)) <= 1e-10

    def test_round_trip_state_fidelity(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            q = random_qubit(rng)
            back = bloch_to_qubit(qubit_to_bloch(q))
            assert abs(np.vdot(back, q)) >= 1.0 - 1e-10

    def test_south_pole(self):
        assert np.allclose(bloch_to_qubit([0, 0, -1]), [0, 1])

    def test_gauge(self):
        q = as_qubit([1j * 0.6, 0.8j])
        assert q[0].imag == 0 and q[0].real > 0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            as_qubit([1.0, 1.0])


class TestProjectionProbability:
    def test_identical(self):
        v = random_bloch(np.random.default_rng(1))
        assert projection_probability(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal(self):
        v = random_bloch(np.random.default_rng(2))
        assert projection_probability(v, -v) == pytest.approx(0.0, abs=1e-12)

    def test_pole_vs_equator(self):
        assert projection_probability(EZ, EX) == pytest.approx(0.5, abs=1e-12)

    def test_matches_hilbert_space(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            qu, qv = random_qubit(rng), random_qubit(rng)
            expected = abs(np.vdot(qv, qu)) ** 2
            got = projection_probability(bloch_of(qu), bloch_of(qv))
            assert abs(got - expected) <= 1e-12


class TestSolidAngleTriangle:
    def test_positive_octant(self):
        assert solid_angle_triangle(EZ, EX, EY) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_degenerate_pair_is_zero(self):
        rng = np.random.default_rng(23)
        i, f = random_bloch(rng), random_bloch(rng)
        assert solid_angle_triangle(i, i, f) == pytest.approx(0.0, abs=1e-12)

    def test_three_box_value(self):
        x = 2.0 - math.sqrt(3.0)
        n1 = np.array([-math.sqrt(2) * x, 3 ** 0.25 * math.sqrt(6 * x), -x]) / math.sqrt(3)
        f = np.array([2 * math.sqrt(2), 0, -1.0]) / 3.0
        omega = solid_angle_triangle(EZ, n1, f)
        assert omega == pytest.approx(-2 * math.atan(math.sqrt(3 + 2 * math.sqrt(3))),
                                      abs=1e-12)

    def test_branch_interval(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            omega = solid_angle_triangle(random_bloch(rng), random_bloch(rng),
                                         random_bloch(rng))
            assert -2 * math.pi < omega <= 2 * math.pi

    def test_matches_bargmann_argument(self):
        rng = np.random.default_rng(25)
        for _ in range(1000):
            qi, qr, qf = random_qubit(rng), random_qubit(rng), random_qubit(rng)
            omega = solid_angle_triangle(bloch_of(qi), bloch_of(qr), bloch_of(qf))
            assert ang_dist(-0.5 * omega, bargmann_argument(qi, qr, qf)) <= 1e-9

    def test_orientation_reversal(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            i, r, f = (random_bloch(rng) for _ in range(3))
            fwd = solid_angle_triangle(i, r, f)
            rev = solid_angle_triangle(f, r, i)
            assert ang_dist(fwd, -rev, period=4 * math.pi) <= 1e-10

    def test_antipodal_configuration_raises(self):
        with pytest.raises(UndefinedSolidAngle):
            solid_angle_triangle(EX, EZ, -EX)


class TestRodrigues:
    def test_quarter_turn(self):
        assert np.allclose(rodrigues_rotate(EZ, EX, math.pi / 2), -EY, atol=1e-12)

    def test_full_turn(self):
        rng = np.random.default_rng(27)
        i, r = random_bloch(rng), random_bloch(rng)
        assert np.max(np.abs(rodrigues_rotate(i, r, 2 * math.pi) - i)) <= 1e-12

    def test_conservation(self):
        rng = np.random.default_rng(28)
        for _ in range(300):
            i, r = random_bloch(rng), random_bloch(rng)
            alpha = rng.uniform(-2 * math.pi, 2 * math.pi)
            s = rodrigues_rotate(i, r, alpha)
            assert abs(np.linalg.norm(s) - 1.0) <= 1e-12
            assert abs(float(r @ s) - float(r @ i)) <= 1e-12

    def test_matches_hilbert_space_rotation(self):
        # rotating the qubit with exp(-1j*(alpha/2)*sigma_r) and re-projecting
        sigma = (np.array([[0, 1], [1, 0]], dtype=complex),
                 np.array([[0, -1j], [1j, 0]], dtype=complex),
                 np.array([[1, 0], [0, -1]], dtype=complex))
        rng = np.random.default_rng(29)
        for _ in range(200):
            q = random_qubit(rng)
            r = random_bloch(rng)
            alpha = rng.uniform(-2 * math.pi, 2 * math.pi)
            sr = sum(c * p for c, p in zip(r, sigma))
            u = math.cos(alpha / 2) * np.eye(2) - 1j * math.sin(alpha / 2) * sr
            expected = bloch_of(u @ q)
            got = rodrigues_rotate(bloch_of(q), r, alpha)
            assert np.max(np.abs(got - expected)) <= 1e-10


class TestQuadrangle:
    def test_collapsed_is_zero(self):
        rng = np.random.default_rng(30)
        i, r, f = (random_bloch(rng) for _ in range(3))
        assert solid_angle_quadrangle(i, r, i, f) == pytest.approx(0.0, abs=1e-12)

    def test_decomposition_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            i, r, s, f = (random_bloch(rng) for _ in range(4))
            total = solid_angle_quadrangle(i, r, s, f)
            parts = solid_angle_triangle(i, r, s) + solid_angle_triangle(i, s, f)
            assert ang_dist(total, parts, period=4 * math.pi) <= 1e-9

    def test_closed_form_matches_triangle_sum(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            i, r, f = (random_bloch(rng) for _ in range(3))
            alpha = rng.uniform(-2 * math.pi, 2 * math.pi)
            s = rodrigues_rotate(i, r, alpha)
            via_triangles = solid_angle_quadrangle(i, r, s, f)
            closed = solid_angle_quadrangle_rotation(i, r, f, alpha)
            assert ang_dist(via_triangles, closed, period=4 * math.pi) <= 1e-9

    def test_closed_form_survives_half_turn(self):
        rng = np.random.default_rng(33)
        i, r, f = (random_bloch(rng) for _ in range(3))
        s = rodrigues_rotate(i, r, math.pi)
        closed = solid_angle_quadrangle_rotation(i, r, f, math.pi)
        parts = solid_angle_quadrangle(i, r, s, f)
        assert ang_dist(closed, parts, period=4 * math.pi) <= 1e-9
