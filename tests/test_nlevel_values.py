import cmath
import itertools
import math

import numpy as np
import pytest

from helpers import ang_dist, polar_close, random_hermitian, random_state
from majgeom.bloch import solid_angle_triangle
import majgeom.majorana
import majgeom.nlevel_values
from majgeom.errors import IncompleteContext, NotHermitian, OrthogonalSelection, ZeroDenominator
from majgeom.majorana import majorana_points, nlevel_state, symmetrize
from majgeom.nlevel_values import (
    GELL_MANN,
    GellMannDirection,
    NLevelModularSpec,
    abl_distribution,
    abl_probability,
    factored_modular_value,
    factored_weak_value,
    modular_value_direct,
    pair_points,
    qutrit_modular_value_geometric,
    qutrit_projector_weak_value_geometric,
    weak_value_direct,
)
from majgeom.numerics import eig_hermitian, unitary_exp

SQ3 = math.sqrt(3.0)
NORTH = np.array([0.0, 0.0, 1.0])


def random_bloch(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_points(rng, m):
    return np.array([random_bloch(rng) for _ in range(m)])


def enumerated_pairing(first, second):
    """The pairing by a plain lexicographic scan over all m! permutations."""
    angles = np.arccos(np.clip(first @ second.T, -1.0, 1.0))
    best, best_cost = None, math.inf
    for perm in itertools.permutations(range(first.shape[0])):
        cost = sum(angles[k, perm[k]] for k in range(first.shape[0]))
        if cost < best_cost - 1e-15:
            best, best_cost = perm, cost
    return second[list(best)]


class TestGellMann:
    def test_algebra_normalization(self):
        for a, ga in enumerate(GELL_MANN):
            assert abs(np.trace(ga)) <= 1e-14
            assert np.max(np.abs(ga - ga.conj().T)) <= 1e-14
            for b, gb in enumerate(GELL_MANN):
                expected = 2.0 if a == b else 0.0
                assert abs(np.trace(ga @ gb) - expected) <= 1e-12

    def test_direction_round_trip(self):
        rng = np.random.default_rng(70)
        for _ in range(100):
            direction = GellMannDirection.from_r8(rng.normal(size=8))
            assert abs(np.trace(direction.operator)) <= 1e-12
            assert abs(np.trace(direction.operator @ direction.operator) - 2.0) <= 1e-10
            back = GellMannDirection.from_operator(direction.operator)
            assert np.max(np.abs(back.r8 - direction.r8)) <= 1e-10

    def test_spin_like_detection(self):
        rng = np.random.default_rng(71)
        from helpers import random_spin1_operator
        direction = GellMannDirection.from_operator(random_spin1_operator(rng))
        assert direction.is_spin_like()


class TestWeakValueDirect:
    def test_identity_observable(self):
        rng = np.random.default_rng(72)
        for n in (2, 3, 4):
            psi_i, psi_f = random_state(rng, n), random_state(rng, n)
            value = weak_value_direct(psi_i, np.eye(n), psi_f)
            assert polar_close(value, 1.0 + 0.0j)

    def test_three_box_middle_projector(self):
        psi_i = np.ones(3) / SQ3
        psi_f = np.array([1.0, -1.0, 1.0]) / SQ3
        value = weak_value_direct(psi_i, np.diag([0.0, 1.0, 0.0]), psi_f)
        assert polar_close(value, -1.0 + 0.0j)

    def test_projector_completeness(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            psi_i, psi_f = random_state(rng, n), random_state(rng, n)
            if abs(np.vdot(psi_f, psi_i)) < 1e-3:
                continue
            basis = np.linalg.qr(rng.normal(size=(n, n))
                                 + 1j * rng.normal(size=(n, n)))[0]
            total = sum(
                weak_value_direct(psi_i, np.outer(basis[:, k], basis[:, k].conj()),
                                  psi_f).rect
                for k in range(n))
            assert abs(total - 1.0) <= 1e-10

    def test_orthogonal_selection(self):
        with pytest.raises(OrthogonalSelection):
            weak_value_direct([1.0, 0.0, 0.0], np.eye(3), [0.0, 1.0, 0.0])


def unmirrored_observable():
    observable = np.diag([1.0, 0.0, -1.0]).astype(complex)
    observable[0, 1] = 0.5  # no mirrored entry below the diagonal
    return observable


class TestNonHermitianInput:
    """Every route reports a non-Hermitian operator as NotHermitian."""

    def test_weak_value_direct(self):
        with pytest.raises(NotHermitian, match="Hermiticity defect 5.000e-01"):
            weak_value_direct(np.ones(3) / SQ3, unmirrored_observable(),
                              np.array([1.0, -1.0, 1.0]) / SQ3)

    def test_gell_mann_direction(self):
        with pytest.raises(NotHermitian, match="Hermiticity defect 5.000e-01"):
            GellMannDirection.from_operator(unmirrored_observable())

    def test_modular_routes(self):
        spec = NLevelModularSpec(observable=unmirrored_observable(), alpha=0.9)
        psi_i, psi_f = np.ones(3) / SQ3, np.array([1.0, -1.0, 1.0]) / SQ3
        with pytest.raises(NotHermitian):
            modular_value_direct(psi_i, spec, psi_f)
        with pytest.raises(NotHermitian):
            qutrit_modular_value_geometric(psi_i, spec, psi_f)


class TestModularValueDirect:
    def test_no_evolution(self):
        rng = np.random.default_rng(74)
        psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
        spec = NLevelModularSpec(observable=random_hermitian(rng, 3), alpha=0.0,
                                 beta=0.0)
        assert polar_close(modular_value_direct(psi_i, spec, psi_f), 1.0 + 0.0j)

    def test_cayley_hamilton_cross_check(self):
        from helpers import random_spin1_operator
        from majgeom.numerics import cayley_hamilton_exp_spin1
        rng = np.random.default_rng(75)
        for _ in range(100):
            lam = random_spin1_operator(rng)
            alpha = rng.uniform(-2 * math.pi, 2 * math.pi)
            psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
            if abs(np.vdot(psi_f, psi_i)) < 1e-3:
                continue
            spec = NLevelModularSpec(observable=lam, alpha=alpha, beta=0.0)
            via_eig = modular_value_direct(psi_i, spec, psi_f).rect
            u = cayley_hamilton_exp_spin1(lam, alpha)
            via_ch = np.vdot(psi_f, u @ psi_i) / np.vdot(psi_f, psi_i)
            assert abs(via_eig - via_ch) <= 1e-10 * max(1.0, abs(via_ch))

    def test_derivative_relation(self):
        rng = np.random.default_rng(76)
        h = 1e-5
        for n in (2, 3):
            for _ in range(50):
                a = random_hermitian(rng, n)
                psi_i, psi_f = random_state(rng, n), random_state(rng, n)
                if abs(np.vdot(psi_f, psi_i)) < 1e-2:
                    continue
                plus = modular_value_direct(
                    psi_i, NLevelModularSpec(observable=a, generic_theta=h), psi_f).rect
                minus = modular_value_direct(
                    psi_i, NLevelModularSpec(observable=a, generic_theta=-h), psi_f).rect
                derived = 1j * (plus - minus) / (2 * h)
                expected = weak_value_direct(psi_i, a, psi_f).rect
                assert abs(derived - expected) <= 1e-6


class TestQutritProjectorGeometric:
    def test_coincident_triple(self):
        psi = random_state(np.random.default_rng(77), 3)
        value, _ = qutrit_projector_weak_value_geometric(psi, psi, psi)
        assert polar_close(value, 1.0 + 0.0j, tol=1e-9)

    def test_reference_slice_value(self):
        # the canonical-frame slice evaluates to (1 - sqrt(2/3) tan(theta))^-1
        epsilon = math.asin(math.tan(math.pi / 6))
        theta = math.pi / 4
        psi_i = np.array([
            cmath.exp(4j * math.pi / 3) * math.cos(epsilon) * math.sin(theta),
            cmath.exp(2j * math.pi / 3) * math.sin(epsilon) * math.sin(theta),
            math.cos(theta)])
        psi_r = np.array([0.0, 0.0, 1.0])
        psi_f = np.array([1.0, math.sqrt(2.0), 1.0]) / 2.0
        value, _ = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
        expected = 1.0 / (1.0 - math.sqrt(2.0 / 3.0) * math.tan(theta))
        assert abs(value.rect - expected) <= 1e-9 * abs(expected)
        assert abs(expected - 5.449489742783178) <= 1e-12

    def test_against_direct_oracle(self):
        rng = np.random.default_rng(78)
        checked = 0
        while checked < 300:
            psi_i, psi_r, psi_f = (random_state(rng, 3) for _ in range(3))
            if abs(np.vdot(psi_f, psi_i)) < 1e-4:
                continue
            projector = np.outer(psi_r, psi_r.conj())
            expected = weak_value_direct(psi_i, projector, psi_f).rect
            value, breakdown = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
            assert abs(value.rect - expected) <= 1e-9 * max(1.0, abs(expected))
            assert len(breakdown.factors) == 2
            checked += 1

    def test_breakdown_recombination(self):
        rng = np.random.default_rng(79)
        psi_i, psi_r, psi_f = (random_state(rng, 3) for _ in range(3))
        value, br = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
        assert abs(br.modulus - value.modulus) <= 1e-12
        assert ang_dist(br.raw_argument, value.argument) <= 1e-12
        assert br.k_ratio == 1.0 and br.dynamical_phase == 0.0


class TestQutritModularGeometric:
    def test_no_evolution(self):
        rng = np.random.default_rng(80)
        psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
        beta = 0.87
        spec = NLevelModularSpec(observable=GellMannDirection.from_r8(
            rng.normal(size=8)).operator, alpha=0.0, beta=beta)
        value, breakdown = qutrit_modular_value_geometric(psi_i, spec, psi_f)
        assert value.modulus == pytest.approx(1.0, abs=1e-10)
        assert ang_dist(value.argument, beta) <= 1e-9
        assert breakdown.dynamical_phase == pytest.approx(beta, abs=1e-12)

    def test_dynamical_cancellation(self):
        rng = np.random.default_rng(81)
        gm = GellMannDirection.from_r8(rng.normal(size=8))
        evals, _ = eig_hermitian(gm.operator)
        alpha = 0.9
        spec = NLevelModularSpec(observable=gm.operator, alpha=alpha,
                                 beta=alpha * float(evals[-1]))
        psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
        value, breakdown = qutrit_modular_value_geometric(psi_i, spec, psi_f)
        assert abs(breakdown.dynamical_phase) <= 1e-12
        total_omega = sum(f.solid_angle for f in breakdown.factors)
        assert ang_dist(value.argument, -0.5 * total_omega) <= 1e-12

    def test_against_direct_oracle(self):
        rng = np.random.default_rng(82)
        checked = 0
        while checked < 300:
            psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
            if abs(np.vdot(psi_f, psi_i)) < 1e-4:
                continue
            spec = NLevelModularSpec(
                observable=GellMannDirection.from_r8(rng.normal(size=8)).operator,
                alpha=rng.uniform(-2 * math.pi, 2 * math.pi),
                beta=rng.uniform(-2 * math.pi, 2 * math.pi))
            expected = modular_value_direct(psi_i, spec, psi_f).rect
            value, _ = qutrit_modular_value_geometric(psi_i, spec, psi_f)
            assert abs(value.rect - expected) <= 1e-9 * max(1.0, abs(expected))
            checked += 1

    def test_normalization_computed_once_per_point_set(self, monkeypatch):
        # canonicalize_triple and majorana_points each return K; the value
        # route reuses them instead of recomputing K for the same points.
        calls = []
        original = majgeom.majorana.normalization_factor

        def counting(points, **kwargs):
            calls.append(len(points))
            return original(points, **kwargs)

        monkeypatch.setattr(majgeom.majorana, "normalization_factor", counting)
        monkeypatch.setattr(majgeom.nlevel_values, "normalization_factor", counting)
        rng = np.random.default_rng(85)
        spec = NLevelModularSpec(
            observable=GellMannDirection.from_r8(rng.normal(size=8)).operator,
            alpha=0.7, beta=0.2)
        psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
        value, breakdown = qutrit_modular_value_geometric(psi_i, spec, psi_f)
        assert calls == [2, 2]
        expected = modular_value_direct(psi_i, spec, psi_f).rect
        assert abs(value.rect - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_eigen_choice_override(self):
        rng = np.random.default_rng(83)
        psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
        gm = GellMannDirection.from_r8(rng.normal(size=8))
        for choice in (0, 1, 2):
            spec = NLevelModularSpec(observable=gm.operator, alpha=1.1, beta=0.3,
                                     eigen_choice=choice)
            expected = modular_value_direct(psi_i, spec, psi_f).rect
            value, _ = qutrit_modular_value_geometric(psi_i, spec, psi_f)
            assert abs(value.rect - expected) <= 1e-9 * max(1.0, abs(expected))


class TestFactoredGeneralN:
    def _canonical_dim4_setup(self, rng):
        psi_r = np.zeros(4, dtype=complex)
        psi_r[3] = 1.0
        f_point = random_bloch(rng)
        psi_f, _ = symmetrize(np.array([f_point, f_point, f_point]))
        psi_i = nlevel_state(random_state(rng, 4))
        return psi_i, psi_r, psi_f, f_point

    def test_weak_value_dim4(self):
        rng = np.random.default_rng(84)
        checked = 0
        while checked < 100:
            psi_i, psi_r, psi_f, f_point = self._canonical_dim4_setup(rng)
            if abs(np.vdot(psi_f, psi_i)) < 1e-4:
                continue
            projector = np.outer(psi_r, psi_r.conj())
            expected = weak_value_direct(psi_i, projector, psi_f).rect
            i_points = majorana_points(psi_i).points
            value, breakdown = factored_weak_value(i_points, NORTH, f_point)
            assert abs(value.rect - expected) <= 1e-9 * max(1.0, abs(expected))
            assert len(breakdown.factors) == 3
            checked += 1

    def test_modular_value_dim4(self):
        rng = np.random.default_rng(85)
        checked = 0
        while checked < 100:
            psi_i, psi_r, psi_f, f_point = self._canonical_dim4_setup(rng)
            if abs(np.vdot(psi_f, psi_i)) < 1e-4:
                continue
            # traceless observable with the anchor state as an eigenvector
            block = random_hermitian(rng, 3)
            eigenvalue_raw = rng.uniform(-1.5, 1.5)
            observable = np.zeros((4, 4), dtype=complex)
            observable[:3, :3] = block
            observable[3, 3] = eigenvalue_raw
            observable -= np.trace(observable) / 4.0 * np.eye(4)
            eigenvalue = observable[3, 3].real
            alpha = rng.uniform(-math.pi, math.pi)
            beta = rng.uniform(-math.pi, math.pi)
            spec = NLevelModularSpec(observable=observable, alpha=alpha, beta=beta)
            expected = modular_value_direct(psi_i, spec, psi_f).rect
            evolution = unitary_exp(observable, 0.0, alpha * 1.5)
            psi_s = evolution @ psi_i
            s_points = majorana_points(psi_s / np.linalg.norm(psi_s)).points
            i_points = majorana_points(psi_i).points
            value, _ = factored_modular_value(
                i_points, s_points, NORTH, f_point,
                alpha=alpha, beta=beta, eigenvalue=eigenvalue)
            assert abs(value.rect - expected) <= 1e-9 * max(1.0, abs(expected))
            checked += 1

    def test_pairing_invariance_of_total(self):
        rng = np.random.default_rng(86)
        for _ in range(200):
            i_pts = np.array([random_bloch(rng), random_bloch(rng)])
            s_pts = np.array([random_bloch(rng), random_bloch(rng)])
            r, f = NORTH, random_bloch(rng)

            def total_argument(s_order):
                return -0.5 * sum(
                    solid_angle_triangle(i, r, s) + solid_angle_triangle(i, s, f)
                    for i, s in zip(i_pts, s_order))

            direct = total_argument(s_pts)
            swapped = total_argument(s_pts[::-1])
            assert ang_dist(direct, swapped) <= 1e-9
        for m in range(3, 8):
            for _ in range(5):
                i_pts, s_pts = random_points(rng, m), random_points(rng, m)
                r, f = random_bloch(rng), random_bloch(rng)
                paired = total_argument(pair_points(i_pts, s_pts))
                for _ in range(6):
                    shuffled = total_argument(s_pts[rng.permutation(m)])
                    assert ang_dist(shuffled, paired) <= 1e-9

    def test_pair_points_minimizes_distance(self):
        a = np.array([NORTH, [1.0, 0.0, 0.0]])
        b = np.array([[0.98, 0.0, math.sqrt(1 - 0.98**2)],
                      [0.0, math.sqrt(1 - 0.98**2), 0.98]])
        paired = pair_points(a, b)
        assert paired[0][2] > 0.9  # near-north partner aligned with north


class TestPairPoints:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_enumeration(self, m):
        rng = np.random.default_rng(300 + m)
        cases = []
        for _ in range(4 if m == 7 else 12):
            a = random_points(rng, m)
            cases.append((a, random_points(rng, m)))
            cases.append((a, a[rng.permutation(m)]))
            noisy = a[rng.permutation(m)] + 1e-3 * rng.normal(size=(m, 3))
            cases.append((a, noisy / np.linalg.norm(noisy, axis=1)[:, None]))
        p, q = random_bloch(rng), random_bloch(rng)
        coincident = np.tile(p, (m, 1))
        cases.append((coincident, random_points(rng, m)))
        cases.append((random_points(rng, m), coincident))
        cases.append((coincident, np.array([p if k % 2 else q for k in range(m)])))
        for a, b in cases:
            assert np.array_equal(pair_points(a, b), enumerated_pairing(a, b))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            pair_points(np.zeros((2, 3)), np.zeros((3, 3)))


class TestABL:
    def test_three_box_single_box_context(self):
        psi_i = np.ones(3) / SQ3
        psi_f = np.array([1.0, -1.0, 1.0]) / SQ3
        p1 = np.diag([1.0, 0.0, 0.0])
        context = [p1, np.eye(3) - p1]
        assert abl_probability(psi_i, context, psi_f, 0) == pytest.approx(1.0,
                                                                          abs=1e-12)

    def test_three_box_full_context(self):
        psi_i = np.ones(3) / SQ3
        psi_f = np.array([1.0, -1.0, 1.0]) / SQ3
        context = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
        dist = abl_distribution(psi_i, context, psi_f)
        assert np.max(np.abs(dist - 1.0 / 3.0)) <= 1e-12

    def test_eigenstate_certainty(self):
        state = np.array([0.0, 1.0, 0.0])
        context = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
        assert abl_probability(state, context, state, 1) == pytest.approx(1.0,
                                                                          abs=1e-12)

    def test_distribution_normalizes(self):
        rng = np.random.default_rng(87)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            basis = np.linalg.qr(rng.normal(size=(n, n))
                                 + 1j * rng.normal(size=(n, n)))[0]
            context = [np.outer(basis[:, k], basis[:, k].conj()) for k in range(n)]
            psi_i, psi_f = random_state(rng, n), random_state(rng, n)
            dist = abl_distribution(psi_i, context, psi_f)
            assert abs(dist.sum() - 1.0) <= 1e-12

    def test_incomplete_context_raises(self):
        psi = np.array([1.0, 0.0, 0.0])
        with pytest.raises(IncompleteContext):
            abl_distribution(psi, [np.diag([1.0, 0, 0])], psi)

    def test_zero_denominator(self):
        # orthogonal selection with a diagonal context blocks every path
        psi_i = np.array([1.0, 0.0])
        psi_f = np.array([0.0, 1.0])
        with pytest.raises(ZeroDenominator):
            abl_distribution(psi_i, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], psi_f)
