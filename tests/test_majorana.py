import itertools
import math

import numpy as np
import pytest

from helpers import random_bloch, random_state
from majgeom.bloch import bloch_to_qubit
from majgeom.canonical import StateAngles, params_to_state
from majgeom.majorana import (
    discriminant_degeneracy,
    entanglement_entropy,
    majorana_points,
    nlevel_state,
    normalization_factor,
    qutrit_roots_closed_form,
    representation_coefficients,
    symmetrize,
)
from majgeom.numerics import solve_polynomial

SQ2 = math.sqrt(2.0)
NORTH = np.array([0.0, 0.0, 1.0])
SOUTH = np.array([0.0, 0.0, -1.0])


def fidelity(a, b) -> float:
    return abs(np.vdot(a, b))


class TestCoefficientConvention:
    def test_three_level_matches_reference_polynomial(self):
        # general binomial-weight coefficients equal the familiar three-level
        # polynomial (c0/sqrt2, -c1, c2/sqrt2) after one overall sqrt(2)
        rng = np.random.default_rng(40)
        for _ in range(50):
            c = random_state(rng, 3)
            general = representation_coefficients(nlevel_state(c))
            state = nlevel_state(c)
            reference = SQ2 * np.array([state[0] / SQ2, -state[1], state[2] / SQ2])
            assert np.max(np.abs(general - reference)) <= 1e-12

    def test_basis_correspondence(self):
        for n in (3, 4, 5):
            lowest = np.zeros(n)
            lowest[0] = 1.0
            rep = majorana_points(lowest)
            assert np.max(np.abs(rep.points - SOUTH)) <= 1e-12
            highest = np.zeros(n)
            highest[-1] = 1.0
            rep = majorana_points(highest)
            assert np.max(np.abs(rep.points - NORTH)) <= 1e-12


class TestMajoranaPoints:
    def test_qutrit_top_state(self):
        rep = majorana_points([0.0, 0.0, 1.0])
        assert np.max(np.abs(rep.points - NORTH)) <= 1e-12
        assert rep.normalization == pytest.approx(0.5, abs=1e-12)

    def test_qutrit_middle_state(self):
        rep = majorana_points([0.0, 1.0, 0.0])
        assert np.allclose(rep.points, np.array([NORTH, SOUTH]))
        assert rep.normalization == pytest.approx(1 / SQ2, abs=1e-12)

    def test_round_trip_random_qutrits(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            state = nlevel_state(random_state(rng, 3))
            rep = majorana_points(state)
            back, k = symmetrize(rep.points)
            assert fidelity(back, state) >= 1.0 - 1e-9
            assert k == pytest.approx(rep.normalization, abs=1e-12)

    @pytest.mark.parametrize("dim", [4, 5])
    def test_round_trip_higher_dims(self, dim):
        rng = np.random.default_rng(42 + dim)
        for _ in range(200):
            state = nlevel_state(random_state(rng, dim))
            rep = majorana_points(state)
            back, _ = symmetrize(rep.points)
            assert fidelity(back, state) >= 1.0 - 1e-9

    def test_round_trip_with_roots_at_infinity(self):
        rng = np.random.default_rng(44)
        for dim in (3, 4, 5):
            for n_zero in range(1, dim - 1):
                c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                c[dim - n_zero:] = 0.0
                state = nlevel_state(c / np.linalg.norm(c))
                rep = majorana_points(state)
                south_count = int(np.sum(np.all(np.abs(rep.points - SOUTH) < 1e-12,
                                                axis=1)))
                assert south_count >= n_zero
                back, _ = symmetrize(rep.points)
                assert fidelity(back, state) >= 1.0 - 1e-9

    def test_point_sorting_is_deterministic(self):
        rng = np.random.default_rng(45)
        state = nlevel_state(random_state(rng, 5))
        pts = majorana_points(state).points
        keys = list(map(tuple, np.round(pts[:, [2, 0, 1]], 12)))
        assert keys == sorted(keys, reverse=True)


class TestSymmetrize:
    def test_coincident_pair(self):
        rng = np.random.default_rng(46)
        p = random_bloch(rng)
        state, k = symmetrize([p, p])
        assert k == pytest.approx(0.5, abs=1e-12)
        rep = majorana_points(state)
        # double roots carry square-root conditioning: eps-level coefficient
        # noise moves the recovered points by ~1e-8
        assert np.max(np.abs(rep.points - p)) <= 1e-7
        back, _ = symmetrize(rep.points)
        assert fidelity(back, state) >= 1.0 - 1e-9

    def test_antipodal_pair(self):
        state, k = symmetrize([NORTH, SOUTH])
        assert np.allclose(state, [0, 1, 0], atol=1e-12)
        assert k == pytest.approx(1 / SQ2, abs=1e-12)

    def test_round_trip_points(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            pts = np.array([random_bloch(rng), random_bloch(rng)])
            state, _ = symmetrize(pts)
            back = majorana_points(state).points
            cost_direct = np.linalg.norm(back[0] - pts[0]) + np.linalg.norm(back[1] - pts[1])
            cost_cross = np.linalg.norm(back[0] - pts[1]) + np.linalg.norm(back[1] - pts[0])
            assert min(cost_direct, cost_cross) <= 1e-8


class TestNormalizationFactor:
    def test_two_formulas_agree(self):
        rng = np.random.default_rng(48)
        for _ in range(200):
            state = nlevel_state(random_state(rng, 3))
            rep = majorana_points(state)
            from majgeom.bloch import bloch_to_qubit
            q1, q2 = bloch_to_qubit(rep.points[0]), bloch_to_qubit(rep.points[1])
            via_dot = 1.0 / math.sqrt(3.0 + float(rep.points[0] @ rep.points[1]))
            via_overlap = (2.0 + 2.0 * abs(np.vdot(q1, q2)) ** 2) ** -0.5
            assert abs(rep.normalization - via_dot) <= 1e-10
            assert abs(rep.normalization - via_overlap) <= 1e-10

    def test_symmetrized_norm_is_one(self):
        rng = np.random.default_rng(49)
        for m in (2, 3, 4):
            pts = np.array([random_bloch(rng) for _ in range(m)])
            from majgeom.bloch import bloch_to_qubit
            qs = [bloch_to_qubit(p) for p in pts]
            import itertools
            psi = sum(
                np.array([np.prod([q[int(bit)] for q, bit in zip(perm, bits)])
                          for bits in itertools.product((0, 1), repeat=m)])
                for perm in itertools.permutations(qs))
            k = normalization_factor(pts)
            assert abs(k * np.linalg.norm(psi) - 1.0) <= 1e-10


def permanent_normalization(points):
    """``1/sqrt(m! perm(G))`` with the permanent of the qubit Gram matrix
    summed over all m! permutations."""
    qs = [bloch_to_qubit(p) for p in points]
    gram = np.array([[np.vdot(a, b) for b in qs] for a in qs])
    m = len(qs)
    permanent = sum(np.prod(gram[np.arange(m), list(perm)])
                    for perm in itertools.permutations(range(m)))
    return 1.0 / math.sqrt(math.factorial(m) * permanent.real)


def point_sets(rng, m):
    """Random, coincident, polar and antipodal multisets of m points."""
    p = random_bloch(rng)
    yield np.array([random_bloch(rng) for _ in range(m)])
    yield np.array([random_bloch(rng) for _ in range(m)])
    yield np.tile(p, (m, 1))
    yield np.array([NORTH if k % 2 else SOUTH for k in range(m)])
    yield np.tile(SOUTH, (m, 1))
    yield np.array([p if k % 2 else -p for k in range(m)])
    yield np.array([p, -p, *[random_bloch(rng) for _ in range(m - 2)]][:m])


class TestClosedFormNormalization:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_permanent(self, m):
        rng = np.random.default_rng(60 + m)
        for pts in point_sets(rng, m):
            reference = permanent_normalization(pts)
            assert abs(normalization_factor(pts) - reference) <= 1e-12 * reference

    @pytest.mark.parametrize("m", range(1, 8))
    def test_symmetrize_shares_the_value(self, m):
        rng = np.random.default_rng(70 + m)
        for pts in point_sets(rng, m):
            _, k = symmetrize(pts)
            assert k == pytest.approx(normalization_factor(pts), rel=1e-14)

    def test_rejects_bad_shapes(self):
        for bad in (np.zeros((0, 3)), np.zeros(3), np.zeros((2, 2))):
            with pytest.raises(ValueError):
                normalization_factor(bad)


class TestClosedFormRoots:
    def test_reference_slice(self):
        # roots of the scan slice: e^{-j*pi/3} (-tan(th) +- sqrt((tan(th)-2sqrt6)tan(th)))/sqrt6
        import cmath
        epsilon = math.asin(math.tan(math.pi / 6))
        for theta in (0.2, 0.6, 1.0, 1.35, 1.45):
            angles = qutrit_roots_closed_form(theta, epsilon, 4 * math.pi / 3,
                                              2 * math.pi / 3)
            t = math.tan(theta)
            disc = cmath.sqrt((t - 2 * math.sqrt(6)) * t)
            phase = cmath.exp(-1j * math.pi / 3)
            e1 = phase * (-t + disc) / math.sqrt(6)
            e2 = phase * (-t - disc) / math.sqrt(6)
            z1, z2 = angles.roots()
            err = min(abs(z1 - e1) + abs(z2 - e2), abs(z1 - e2) + abs(z2 - e1))
            assert err <= 1e-9

    def test_theta_zero_double_root(self):
        angles = qutrit_roots_closed_form(0.0, 0.7, 1.0, 2.0)
        assert angles.beta_1 == pytest.approx(0.0, abs=1e-12)
        assert angles.beta_2 == pytest.approx(0.0, abs=1e-12)
        z1, z2 = angles.roots()
        assert z1 == z2

    def test_against_generic_solver(self):
        rng = np.random.default_rng(50)
        for _ in range(500):
            theta = rng.uniform(0.01, 0.5 * math.pi - 0.01)
            epsilon = rng.uniform(0.0, 0.5 * math.pi)
            chi1 = rng.uniform(0.0, 2 * math.pi)
            chi2 = rng.uniform(0.0, 2 * math.pi)
            angles = qutrit_roots_closed_form(theta, epsilon, chi1, chi2)
            state = nlevel_state(params_to_state(StateAngles(theta, epsilon, chi1, chi2)))
            roots = [r.value for r in solve_polynomial(representation_coefficients(state))
                     if not r.is_infinite]
            z1, z2 = angles.roots()
            scale = max(1.0, sum(abs(z) for z in roots))
            err = min(abs(z1 - roots[0]) + abs(z2 - roots[1]),
                      abs(z1 - roots[1]) + abs(z2 - roots[0])) / scale
            assert err <= 1e-9

    def test_double_root_at_bifurcation(self):
        epsilon = math.asin(math.tan(math.pi / 6))
        theta_b = math.atan(2 * math.sqrt(6))
        angles = qutrit_roots_closed_form(theta_b, epsilon, 4 * math.pi / 3,
                                          2 * math.pi / 3)
        z1, z2 = angles.roots()
        assert z1 == z2


class TestDiscriminant:
    def test_bifurcation_slice(self):
        epsilon = math.asin(math.tan(math.pi / 6))
        theta_b = math.atan(2 * math.sqrt(6))
        state = params_to_state(StateAngles(theta_b, epsilon, 4 * math.pi / 3,
                                            2 * math.pi / 3))
        assert discriminant_degeneracy(nlevel_state(state)) <= 1e-12

    def test_top_state(self):
        assert discriminant_degeneracy([0.0, 0.0, 1.0]) <= 1e-15

    def test_bottom_state_with_double_infinity(self):
        assert discriminant_degeneracy([1.0, 0.0, 0.0]) <= 1e-15

    def test_generic_positive_matches_separation(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            state = nlevel_state(random_state(rng, 3))
            disc = discriminant_degeneracy(state)
            pts = majorana_points(state).points
            separation = np.linalg.norm(pts[0] - pts[1])
            assert (disc > 1e-8) == (separation > 1e-4)


class TestEntanglementEntropy:
    def test_coincident(self):
        p = random_bloch(np.random.default_rng(52))
        assert entanglement_entropy([p, p]) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal(self):
        p = random_bloch(np.random.default_rng(53))
        assert entanglement_entropy([p, -p]) == pytest.approx(1.0, abs=1e-12)

    def test_three_box_box1_value(self):
        x = 2.0 - math.sqrt(3.0)
        q = 3 ** 0.25
        n = np.array([[-SQ2 * x, q * math.sqrt(6 * x), -x],
                      [-SQ2 * x, -q * math.sqrt(6 * x), -x]]) / math.sqrt(3)
        expected = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
        assert entanglement_entropy(n) == pytest.approx(expected, abs=1e-10)
        assert round(entanglement_entropy(n), 2) == 0.81


def test_state_validation():
    with pytest.raises(ValueError):
        nlevel_state([1.0])
    with pytest.raises(ValueError):
        nlevel_state(np.ones(9) / 3.0)
    with pytest.raises(ValueError):
        nlevel_state([1.0, 1.0, 1.0])
