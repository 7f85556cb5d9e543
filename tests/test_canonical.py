import math

import numpy as np
import pytest

from helpers import random_state, top_state, unitarity_defect
from majgeom.canonical import canonicalize_triple
from majgeom.majorana import (
    MAX_LEVELS,
    discriminant_degeneracy,
    majorana_points,
    nlevel_state,
    symmetrize,
)

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)

DIMS = list(range(2, MAX_LEVELS + 1))


def coherent_state(point, n):
    """The state whose n-1 points all sit at ``point`` (in the xz plane):
    amplitudes ``sqrt(C(m, k)) sin(theta/2)^(m-k) cos(theta/2)^k``."""
    m = n - 1
    half = 0.5 * math.atan2(point[0], point[2])
    return np.array([math.sqrt(math.comb(m, k)) * math.sin(half) ** (m - k)
                     * math.cos(half) ** k for k in range(n)], dtype=complex)


def phase_gap(a, b):
    """Distance of ``a`` from the nearest phase multiple of ``b``."""
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(a - phase * b)))


def frame_point(psi_r, psi_f):
    """f's frame point from cos^(N-1)(theta/2) = |<r|f>|, not from roots."""
    r, f = nlevel_state(psi_r), nlevel_state(psi_f)
    half = math.acos(min(1.0, abs(np.vdot(r, f))) ** (1.0 / (r.size - 1)))
    return np.array([math.sin(2.0 * half), 0.0, math.cos(2.0 * half)])


class TestCanonicalizeTriple:
    def test_pole_projector_and_final(self):
        rng = np.random.default_rng(64)
        psi_i = random_state(rng, 3)
        pole = np.array([0.0, 0.0, 1.0])
        triple = canonicalize_triple(psi_i, pole, pole)
        assert np.allclose(triple.r_vec, [0, 0, 1])
        assert np.max(np.abs(triple.f_vec - np.array([0, 0, 1.0]))) <= 1e-9

    def test_reference_scenario_frame(self):
        # projector on the pole with final state (sqrt2,1,1)/2 lands on e_z / e_x
        rng = np.random.default_rng(65)
        psi_i = random_state(rng, 3)
        triple = canonicalize_triple(psi_i, [0.0, 0.0, 1.0],
                                     np.array([SQ2, 1.0, 1.0]) / 2.0)
        assert np.allclose(triple.r_vec, [0, 0, 1])
        assert np.max(np.abs(triple.f_vec - np.array([1.0, 0, 0]))) <= 1e-10

    def test_posts_hold_for_random_triples(self):
        rng = np.random.default_rng(66)
        for _ in range(200):
            triple = canonicalize_triple(random_state(rng, 3), random_state(rng, 3),
                                         random_state(rng, 3))
            assert unitarity_defect(triple.u_total) <= 1e-10
            assert discriminant_degeneracy(triple.psi_r) <= 1e-9
            assert discriminant_degeneracy(triple.psi_f) <= 1e-9
            rep_f = majorana_points(triple.psi_f)
            assert np.max(np.abs(rep_f.points - triple.f_vec)) <= 1e-6
            rep_r = majorana_points(triple.psi_r)
            assert np.max(np.abs(rep_r.points - np.array([0, 0, 1.0]))) <= 1e-6
            c = math.cos(triple.eta)
            expected_f = np.array([math.sqrt(4.0 * c * (1.0 - c)), 0.0, 2.0 * c - 1.0])
            assert np.max(np.abs(expected_f - triple.f_vec)) <= 1e-12

    def test_weak_value_invariance(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            psi_i = nlevel_state(random_state(rng, 3))
            psi_r = nlevel_state(random_state(rng, 3))
            psi_f = nlevel_state(random_state(rng, 3))
            if abs(np.vdot(psi_f, psi_i)) < 1e-6:
                continue
            before = (np.vdot(psi_f, psi_r) * np.vdot(psi_r, psi_i)
                      / np.vdot(psi_f, psi_i))
            triple = canonicalize_triple(psi_i, psi_r, psi_f)
            after = (np.vdot(triple.psi_f, triple.psi_r)
                     * np.vdot(triple.psi_r, triple.psi_i)
                     / np.vdot(triple.psi_f, triple.psi_i))
            assert abs(before - after) <= 1e-10 * max(1.0, abs(before))


class TestCanonicalFrame:
    """The two-reflection frame for every supported N."""

    @staticmethod
    def random_triples(seed, n, count=40):
        rng = np.random.default_rng(seed)
        return [tuple(random_state(rng, n) for _ in range(3)) for _ in range(count)]

    @pytest.mark.parametrize("n", DIMS)
    def test_unitary_and_images(self, n):
        for psi_i, psi_r, psi_f in self.random_triples(100 + n, n):
            triple = canonicalize_triple(psi_i, psi_r, psi_f)
            assert triple.u_total.shape == (n, n)
            assert unitarity_defect(triple.u_total) <= 1e-12
            for state, image in ((psi_i, triple.psi_i), (psi_r, triple.psi_r),
                                 (psi_f, triple.psi_f)):
                assert np.max(np.abs(triple.u_total @ nlevel_state(state) - image)) <= 1e-15
            assert np.array_equal(triple.r_vec, [0.0, 0.0, 1.0])
            rep = majorana_points(triple.psi_i)
            assert np.array_equal(triple.i_rep.points, rep.points)
            assert triple.i_rep.normalization == rep.normalization

    @pytest.mark.parametrize("n", DIMS)
    def test_projector_maps_to_top(self, n):
        for psi_i, psi_r, psi_f in self.random_triples(200 + n, n):
            triple = canonicalize_triple(psi_i, psi_r, psi_f)
            assert phase_gap(triple.psi_r, top_state(n)) <= 1e-14

    @pytest.mark.parametrize("n", DIMS)
    def test_final_state_is_coherent(self, n):
        for psi_i, psi_r, psi_f in self.random_triples(300 + n, n):
            triple = canonicalize_triple(psi_i, psi_r, psi_f)
            overlap = abs(np.vdot(nlevel_state(psi_r), nlevel_state(psi_f)))
            assert triple.eta == pytest.approx(math.acos(overlap), abs=1e-12)
            assert np.max(np.abs(triple.f_vec - frame_point(psi_r, psi_f))) <= 1e-14
            assert phase_gap(triple.psi_f, coherent_state(triple.f_vec, n)) <= 1e-13
            symmetrized, _ = symmetrize(np.tile(triple.f_vec, (n - 1, 1)))
            assert phase_gap(triple.psi_f, symmetrized) <= 1e-12

    def test_qutrit_final_amplitudes(self):
        # The qutrit coherent state at the frame point, written out.
        for psi_i, psi_r, psi_f in self.random_triples(63, 3, count=100):
            triple = canonicalize_triple(psi_i, psi_r, psi_f)
            c = math.cos(triple.eta)
            expected = np.array([1.0 - c, math.sqrt(max(0.0, 2.0 * c * (1.0 - c))), c])
            assert phase_gap(triple.psi_f, expected) <= 1e-12

    @pytest.mark.parametrize("n", DIMS)
    def test_projector_orthogonal_to_final(self, n):
        # |<r|f>| is rounding noise here; the frame point lies within the
        # (N-1)-th root of it from the south pole, with f mapped onto the
        # coherent state there.
        for psi_i, psi_r, psi_f in self.random_triples(450 + n, n, count=10):
            psi_r = nlevel_state(psi_r)
            psi_f = psi_f - np.vdot(psi_r, psi_f) * psi_r
            psi_f = psi_f / np.linalg.norm(psi_f)
            triple = canonicalize_triple(psi_i, psi_r, psi_f)
            assert triple.eta == pytest.approx(0.5 * math.pi, abs=1e-15)
            assert 0.0 <= triple.f_vec[0] <= 2.0 * 1e-15 ** (1.0 / (n - 1))
            assert phase_gap(triple.psi_r, top_state(n)) <= 1e-14
            assert phase_gap(triple.psi_f, coherent_state(triple.f_vec, n)) <= 1e-13

    @pytest.mark.parametrize("n", DIMS)
    def test_projector_equals_final(self, n):
        # f's point comes from the rest's norm here, not from 1 - |<r|f>|,
        # whose rounding would move it by sqrt(eps).
        for psi_i, psi_r, _ in self.random_triples(500 + n, n, count=10):
            triple = canonicalize_triple(psi_i, psi_r, 1j * psi_r)
            assert triple.eta == pytest.approx(0.0, abs=1e-15)
            assert np.max(np.abs(triple.f_vec - np.array([0.0, 0.0, 1.0]))) <= 1e-15
            assert unitarity_defect(triple.u_total) <= 1e-12
            assert phase_gap(triple.psi_r, top_state(n)) <= 1e-14
            assert phase_gap(triple.psi_f, top_state(n)) <= 1e-15

    @pytest.mark.parametrize("n", DIMS)
    def test_projector_already_top(self, n):
        for psi_i, _, psi_f in self.random_triples(600 + n, n, count=10):
            for psi_r in (top_state(n), -1j * top_state(n)):
                triple = canonicalize_triple(psi_i, psi_r, psi_f)
                assert unitarity_defect(triple.u_total) <= 1e-12
                assert phase_gap(triple.psi_r, top_state(n)) <= 1e-15
                assert phase_gap(triple.psi_f, coherent_state(triple.f_vec, n)) <= 1e-13

    def test_two_levels(self):
        # One point per state: the frame is a rotation of the Bloch sphere
        # that puts r on the north pole and f in the xz half-plane.
        for psi_i, psi_r, psi_f in self.random_triples(700, 2, count=100):
            triple = canonicalize_triple(psi_i, psi_r, psi_f)
            vi, vr, vf = (majorana_points(s).points[0] for s in (psi_i, psi_r, psi_f))
            point_r, point_f = (majorana_points(s).points[0] for s in (triple.psi_r, triple.psi_f))
            point_i = triple.i_rep.points[0]
            assert np.max(np.abs(point_r - [0.0, 0.0, 1.0])) <= 1e-15
            assert np.max(np.abs(point_f - triple.f_vec)) <= 1e-14
            assert float(point_f @ point_r) == pytest.approx(float(vf @ vr), abs=1e-14)
            assert float(point_i @ point_r) == pytest.approx(float(vi @ vr), abs=1e-14)
            assert float(point_i @ point_f) == pytest.approx(float(vi @ vf), abs=1e-14)
            # a rotation, not a reflection, of the sphere
            assert float(np.cross(point_r, point_f) @ point_i) == pytest.approx(
                float(np.cross(vr, vf) @ vi), abs=1e-14)

    def test_rejects_mixed_dimensions(self):
        rng = np.random.default_rng(800)
        with pytest.raises(ValueError, match="share a dimension"):
            canonicalize_triple(random_state(rng, 3), random_state(rng, 4),
                                random_state(rng, 3))


# The paper's two unitaries canonicalizing the three-box scenario, as
# printed: the reference the generic frame is checked against.
SQ6 = math.sqrt(6.0)
THREE_BOX_U1 = np.array([
    [-SQ3, SQ3, 0.0],
    [-1.0, -1.0, 2.0],
    [SQ2, SQ2, SQ2],
], dtype=complex) / SQ6
THREE_BOX_U2 = np.array([
    [-(1.0 + SQ3), 1.0 - SQ3, 0.0],
    [1.0 - SQ3, 1.0 + SQ3, 0.0],
    [0.0, 0.0, 2.0 * SQ2],
], dtype=complex) / (2.0 * SQ2)
THREE_BOX_I = np.ones(3) / SQ3
THREE_BOX_F = np.array([1.0, -1.0, 1.0]) / SQ3


class TestThreeBoxFrame:
    """The generic frame with the preselected state in the projector slot and
    the postselected one in the final slot is the paper's frame, phases and all."""

    @pytest.fixture(scope="class")
    def triple(self):
        # the middle box's state in the initial slot
        return canonicalize_triple(np.array([0.0, 1.0, 0.0]), THREE_BOX_I, THREE_BOX_F)

    def test_unitarity(self):
        assert unitarity_defect(THREE_BOX_U1) <= 1e-15
        assert unitarity_defect(THREE_BOX_U2) <= 1e-15

    def test_general_frame_agrees(self, triple):
        # column k is the frame image of e_k, the state of box k + 1
        assert np.max(np.abs(triple.u_total - THREE_BOX_U2 @ THREE_BOX_U1)) <= 4.4e-16
        assert unitarity_defect(triple.u_total) <= 4.4e-16

    def test_preselected_state_maps_to_north_pair(self, triple):
        assert np.max(np.abs(triple.psi_r - np.array([0.0, 0.0, 1.0]))) <= 1e-15

    def test_postselected_state_maps_to_coincident_pair(self, triple):
        expected = np.array([2.0 * SQ2, 0.0, -1.0]) / 3.0
        assert np.max(np.abs(triple.f_vec - expected)) <= 2.3e-16
        assert abs(triple.eta - math.acos(1.0 / 3.0)) <= 2.3e-16

    def test_middle_box_maps_to_antipodal_pair(self, triple):
        expected = np.array([SQ2, 0.0, 1.0]) / SQ3
        assert np.max(np.abs(triple.i_rep.points - np.stack([expected, -expected]))) <= 4.4e-16
