import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import (
    ang_dist,
    is_spin_like,
    polar_close,
    random_hermitian,
    random_spin1_operator,
    random_state,
    spin_component,
    top_state,
)
from majgeom.bloch import solid_angle_triangle
import majgeom.canonical
import majgeom.majorana
import majgeom.nlevel_values
import majgeom.numerics
from majgeom.errors import (
    IncompleteContext,
    NotHermitian,
    OrthogonalSelection,
    UndefinedSolidAngle,
    ZeroDenominator,
)
from majgeom.majorana import MAX_LEVELS, majorana_points, nlevel_state, symmetrize
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
from majgeom.polar import PolarComplex
from majgeom.qubit_values import observable_to_modular_spec

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
        if cost < best_cost - majgeom.numerics._PAIRING_TIE_SLACK:
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
        direction = GellMannDirection.from_operator(random_spin1_operator(rng))
        assert is_spin_like(direction.operator)


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

    def test_qubit_modular_spec(self):
        observable = np.diag([1.0, -1.0]).astype(complex)
        observable[0, 1] = 0.5
        with pytest.raises(NotHermitian, match="Hermiticity defect 5.000e-01"):
            observable_to_modular_spec(observable, 0.3)


class TestNonFiniteInput:
    """NaN and inf in an operator, an angle or a direction are input errors."""

    PSI_I, PSI_F = np.ones(3) / SQ3, np.array([1.0, -1.0, 1.0]) / SQ3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_observable_entry(self, bad):
        observable = np.diag([0.0, 1.0, 0.0]).astype(complex)
        observable[1, 1] = bad
        with pytest.raises(NotHermitian):
            weak_value_direct(self.PSI_I, observable, self.PSI_F)
        with pytest.raises(NotHermitian):
            modular_value_direct(self.PSI_I, NLevelModularSpec(observable=observable),
                                 self.PSI_F)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_projector_entry(self, bad):
        context = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])]
        context[0][0, 0] = bad
        with pytest.raises(IncompleteContext, match="non-Hermitian"):
            abl_distribution(self.PSI_I, context, self.PSI_F)

    @pytest.mark.parametrize("field", ["alpha", "beta", "generic_theta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_spec_angles(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            NLevelModularSpec(observable=GELL_MANN[2], **{field: bad})

    @pytest.mark.parametrize("field", ["alpha", "beta", "eigenvalue"])
    def test_factored_modular_value_parameters(self, field):
        params = {"alpha": 0.4, "beta": 0.1, "eigenvalue": 1.0, field: math.nan}
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            factored_modular_value([NORTH], [NORTH], NORTH, NORTH, **params)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_gell_mann_direction(self, bad):
        r8 = np.ones(8)
        r8[3] = bad
        with pytest.raises(ValueError, match="^direction must be finite$"):
            GellMannDirection.from_r8(r8)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e200, 1e308])
    def test_gell_mann_direction_extreme_scale(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direction = GellMannDirection.from_r8([scale] * 8)
        assert abs(np.linalg.norm(direction.r8) - 1.0) <= 1e-12
        assert np.allclose(direction.r8, 1.0 / math.sqrt(8.0), rtol=0.0, atol=1e-15)


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

    def test_zero_value_when_r_orthogonal_to_i(self):
        # <r|i> = 0 puts an initial point at the south pole, antipodal to r:
        # that factor's triangle has no area, but its modulus and the value are 0.
        psi_i, psi_r = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
        psi_f = np.ones(3) / SQ3
        direct = weak_value_direct(psi_i, np.outer(psi_r, psi_r), psi_f)
        assert (direct.modulus, direct.argument) == (0.0, 0.0)
        value, breakdown = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
        assert (value.modulus, value.argument) == (0.0, 0.0)
        zero = [f for f in breakdown.factors if f.modulus_ratio == 0.0]
        assert zero and all(f.solid_angle == 0.0 for f in zero)

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_zero_value_when_f_orthogonal_to_r(self, n):
        # <f|r> = 0 puts f_vec at the south pole: every factor vanishes.
        rng = np.random.default_rng(60 + n)
        psi_i, psi_f = random_state(rng, n), random_state(rng, n)
        psi_f[0] = 0.0
        psi_f = psi_f / np.linalg.norm(psi_f)
        psi_r = np.eye(n)[0]
        direct = weak_value_direct(psi_i, np.outer(psi_r, psi_r), psi_f)
        assert (direct.modulus, direct.argument) == (0.0, 0.0)
        value, breakdown = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
        assert (value.modulus, value.argument) == (0.0, 0.0)
        assert [(f.modulus_ratio, f.solid_angle) for f in breakdown.factors] == [(0.0, 0.0)] * (n - 1)

    def test_other_undefined_triangle_raises(self):
        # i a hair from -r and f = r: the modulus is 1, not 0, yet the triangle
        # is degenerate within DEFAULT_TOL.zero, so the route still refuses it.
        delta = 1e-7
        i_point = np.array([math.sin(delta), 0.0, -math.cos(delta)])
        value, _ = factored_weak_value([[0.0, 0.0, 1.0]], NORTH, NORTH)
        assert value.modulus == 1.0
        with pytest.raises(UndefinedSolidAngle):
            factored_weak_value([i_point], NORTH, NORTH)


class TestNBoxParadox:
    """The N-box paradox: preselect sum_k |k>, postselect sum_{k<N} |k> +
    (2 - N)|N>.  Boxes 1..N-1 have weak value exactly 1, box N has 2 - N.
    The box states are Dicke states: their points coincide at the poles and
    include roots at infinity."""

    @pytest.mark.parametrize("n", range(3, MAX_LEVELS + 1))
    def test_box_weak_values_are_exact(self, n):
        psi_i = np.ones(n) / math.sqrt(n)
        psi_f = np.ones(n)
        psi_f[-1] = 2.0 - n
        psi_f = psi_f / np.linalg.norm(psi_f)
        for k, box in enumerate(np.eye(n)):
            exact = 1.0 if k < n - 1 else 2.0 - n
            value, _ = qutrit_projector_weak_value_geometric(psi_i, box, psi_f)
            assert abs(value.rect - exact) <= 1e-12, k
            direct = weak_value_direct(psi_i, np.outer(box, box), psi_f)
            assert abs(direct.rect - exact) <= 1e-14, k


class TestValidatedOnce:
    """Each caller input passes ``nlevel_state`` once per geometric value."""

    @pytest.fixture
    def state_calls(self, monkeypatch):
        calls = []
        original = majgeom.majorana.nlevel_state

        def counting(coeffs, **kwargs):
            calls.append(len(coeffs))
            return original(coeffs, **kwargs)

        for module in (majgeom.majorana, majgeom.canonical, majgeom.nlevel_values):
            monkeypatch.setattr(module, "nlevel_state", counting)
        return calls

    @pytest.mark.parametrize("n", (2, 3, 5, 8))
    def test_weak_value(self, state_calls, n):
        rng = np.random.default_rng(87 + n)
        psi_i, psi_r, psi_f = (random_state(rng, n) for _ in range(3))
        value, _ = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
        assert state_calls == [n, n, n]
        expected = weak_value_direct(psi_i, np.outer(psi_r, psi_r.conj()), psi_f).rect
        assert relative_gap(value, expected) <= 1e-9

    @pytest.mark.parametrize("n", (2, 3, 5, 8))
    def test_modular_value(self, state_calls, n):
        rng = np.random.default_rng(97 + n)
        psi_i, psi_f = random_state(rng, n), random_state(rng, n)
        spec = NLevelModularSpec(observable=random_hermitian(rng, n), alpha=0.9, beta=0.3)
        value, _ = qutrit_modular_value_geometric(psi_i, spec, psi_f)
        assert state_calls == [n, n]
        expected = modular_value_direct(psi_i, spec, psi_f).rect
        assert relative_gap(value, expected) <= 1e-9


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

    def test_zero_value_when_s_antipodal_to_f(self):
        # exp(-i pi/2 sigma_x)|0> = -i|1>: s lands antipodal to f = |0>, so
        # the value is 0 although the quadrangle has no area.
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        spec = NLevelModularSpec(observable=sigma_x, generic_theta=math.pi / 2)
        ket0 = np.array([1.0, 0.0], dtype=complex)
        assert modular_value_direct(ket0, spec, ket0).modulus <= 1e-16
        value, breakdown = qutrit_modular_value_geometric(ket0, spec, ket0)
        assert (value.modulus, value.argument, value.unwrapped_argument) == (0.0, 0.0, 0.0)
        assert [(f.modulus_ratio, f.solid_angle) for f in breakdown.factors] == [(0.0, 0.0)]

    def test_near_antipodal_s_still_raises(self):
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        spec = NLevelModularSpec(observable=sigma_x, generic_theta=math.pi / 2 - 1e-7)
        ket0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(UndefinedSolidAngle):
            qutrit_modular_value_geometric(ket0, spec, ket0)

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

    @staticmethod
    def count_calls(monkeypatch, name, modules):
        """Record ``len`` of the first argument of every call to ``name``."""
        calls = []
        original = getattr(modules[0], name)

        def counting(points, *args, **kwargs):
            calls.append(len(points))
            return original(points, *args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counting)
        return calls

    def test_normalization_never_computed(self, monkeypatch):
        # K_s / K_i is read off the anchor: neither modular route symmetrizes.
        calls = self.count_calls(monkeypatch, "_symmetrized", (majgeom.majorana,))
        rng = np.random.default_rng(85)
        spec = NLevelModularSpec(
            observable=GellMannDirection.from_r8(rng.normal(size=8)).operator,
            alpha=0.7, beta=0.2)
        psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
        value, breakdown = qutrit_modular_value_geometric(psi_i, spec, psi_f)
        factored_modular_value([f.i_point for f in breakdown.factors],
                               [f.s_point for f in breakdown.factors], NORTH, random_bloch(rng),
                               alpha=0.7, beta=0.2, eigenvalue=1.0)
        assert calls == []
        expected = modular_value_direct(psi_i, spec, psi_f).rect
        assert abs(value.rect - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_factored_modular_value_validates_and_normalizes_each_set_once(self, monkeypatch):
        k_calls = self.count_calls(monkeypatch, "_symmetrized", (majgeom.majorana,))
        checks = self.count_calls(monkeypatch, "as_bloch_array",
                                  (majgeom.bloch, majgeom.majorana))
        rng = np.random.default_rng(88)
        i_pts, s_pts = random_points(rng, 4), random_points(rng, 4)
        factored_modular_value(i_pts, s_pts, random_bloch(rng), random_bloch(rng),
                               alpha=0.4, beta=0.1, eigenvalue=1.0)
        assert k_calls == []
        assert checks == [4, 4]

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        # The anchor eigenvector and the evolution share one _eigh; neither
        # route gauge-fixes its eigenvectors.
        calls = []
        original = majgeom.numerics._eigh

        def counting(matrix, **kwargs):
            calls.append(np.shape(matrix))
            return original(matrix, **kwargs)

        for module in (majgeom.numerics, majgeom.nlevel_values):
            monkeypatch.setattr(module, "_eigh", counting)
        monkeypatch.setattr(majgeom.numerics, "eig_hermitian", None)  # a call would fail
        rng = np.random.default_rng(86)
        spec = NLevelModularSpec(
            observable=GellMannDirection.from_r8(rng.normal(size=8)).operator,
            alpha=1.3, beta=-0.4)
        psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
        value, _ = qutrit_modular_value_geometric(psi_i, spec, psi_f)
        assert calls == [(3, 3)]
        calls.clear()
        expected = modular_value_direct(psi_i, spec, psi_f).rect
        assert calls == [(3, 3)]
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


PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None, suppress_health_check=[HealthCheck.too_slow])
amplitude = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def triples(draw):
    """Dimension, three states and a Hermitian observable, drawn entry by entry
    so sparse and repeated amplitudes come up."""
    n = draw(st.integers(2, MAX_LEVELS))
    states = []
    for _ in range(3):
        v = np.array([complex(draw(amplitude), draw(amplitude)) for _ in range(n)])
        norm = float(np.linalg.norm(v))
        assume(norm >= 0.1)
        states.append(v / norm)
    m = np.array([[complex(draw(amplitude), draw(amplitude)) for _ in range(n)]
                  for _ in range(n)])
    return n, *states, 0.5 * (m + m.conj().T)


def relative_gap(value, expected: complex) -> float:
    return abs(value.rect - expected) / max(1.0, abs(expected))


class TestGeometricEveryDimension:
    """The canonical-frame routes against the direct oracle for N = 2..8."""

    @PROPERTY_SETTINGS
    @given(triples(), st.floats(-2 * math.pi, 2 * math.pi), st.floats(-math.pi, math.pi))
    def test_matches_direct(self, case, alpha, beta):
        n, psi_i, psi_r, psi_f, observable = case
        # A factor vanishes when <r|i> or <f|r> does, and its angle with it;
        # near-orthogonal selections make the value itself ill-conditioned.
        assume(abs(np.vdot(psi_f, psi_i)) >= 1e-3)
        assume(min(abs(np.vdot(psi_r, psi_i)), abs(np.vdot(psi_f, psi_r))) >= 1e-3)
        projector = np.outer(psi_r, psi_r.conj())
        expected = weak_value_direct(psi_i, projector, psi_f).rect
        value, breakdown = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
        assert relative_gap(value, expected) <= 1e-9
        assert len(breakdown.factors) == n - 1

        spec = NLevelModularSpec(observable=observable, alpha=alpha, beta=beta)
        expected = modular_value_direct(psi_i, spec, psi_f).rect
        assume(abs(expected) >= 1e-6)
        value, breakdown = qutrit_modular_value_geometric(psi_i, spec, psi_f)
        assert relative_gap(value, expected) <= 1e-9
        assert len(breakdown.factors) == n - 1

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_small_selection_overlap(self, n):
        rng = np.random.default_rng(900 + n)
        for overlap in (1e-2, 1e-4, 1e-6):
            psi_i, psi_r, psi_f = (nlevel_state(random_state(rng, n)) for _ in range(3))
            # keep |<f|i>| = overlap: f's component along i, then the rest
            perp = psi_f - np.vdot(psi_i, psi_f) * psi_i
            psi_f = overlap * psi_i + math.sqrt(1 - overlap**2) * perp / np.linalg.norm(perp)
            projector = np.outer(psi_r, psi_r.conj())
            expected = weak_value_direct(psi_i, projector, psi_f).rect
            value, _ = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
            assert abs(value.rect - expected) <= 1e-9 * abs(expected) / overlap
            spec = NLevelModularSpec(observable=random_hermitian(rng, n), alpha=0.8, beta=0.1)
            expected = modular_value_direct(psi_i, spec, psi_f).rect
            value, _ = qutrit_modular_value_geometric(psi_i, spec, psi_f)
            assert abs(value.rect - expected) <= 1e-9 * abs(expected) / overlap

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_projector_on_final_state(self, n):
        rng = np.random.default_rng(950 + n)
        for _ in range(10):
            psi_i, psi_f = random_state(rng, n), random_state(rng, n)
            value, _ = qutrit_projector_weak_value_geometric(psi_i, -1j * psi_f, psi_f)
            assert abs(value.rect - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_projector_on_top_state(self, n):
        rng = np.random.default_rng(970 + n)
        psi_r = np.zeros(n, dtype=complex)
        psi_r[n - 1] = 1.0
        for _ in range(10):
            psi_i, psi_f = random_state(rng, n), random_state(rng, n)
            expected = weak_value_direct(psi_i, np.outer(psi_r, psi_r), psi_f).rect
            value, _ = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
            assert relative_gap(value, expected) <= 1e-12

    def test_generic_theta_drives_both_routes(self):
        # generic_theta replaces alpha*(N-1)/2 as the evolution strength in
        # the direct and the geometric route alike.
        rng = np.random.default_rng(990)
        for n in (2, 3, 5):
            psi_i, psi_f = random_state(rng, n), random_state(rng, n)
            spec = NLevelModularSpec(observable=random_hermitian(rng, n), alpha=0.3,
                                     beta=0.2, generic_theta=0.8)
            expected = modular_value_direct(psi_i, spec, psi_f).rect
            value, breakdown = qutrit_modular_value_geometric(psi_i, spec, psi_f)
            assert relative_gap(value, expected) <= 1e-9
            evals, _ = eig_hermitian(spec.observable)
            assert breakdown.dynamical_phase == pytest.approx(0.2 - 0.8 * evals[-1], abs=1e-15)


def value_bits(result):
    """A value and its breakdown as exact bit patterns."""
    value, breakdown = result
    factors = [(f.modulus_ratio.hex(), f.solid_angle.hex(), f.i_point.tobytes(),
                None if f.s_point is None else f.s_point.tobytes())
               for f in breakdown.factors]
    return (value.modulus.hex(), value.argument.hex(), repr(value.unwrapped_argument),
            breakdown.k_ratio.hex(), breakdown.dynamical_phase.hex(), factors)


class TestCanonicalRoutesAreFactored:
    """The canonical-frame routes return, bit for bit, what the factored cores
    return for the frame's own points, and the public ``factored_*`` of
    ``canonicalize_triple``'s points agree with them to 1e-12 relative.  The
    public functions renormalize the points once more; the gap that makes
    grows like ``1/|<f|i>|^2``, as the routes' own gap to the direct oracle
    does, so the bound is checked where ``|<f|i>| >= 0.1``."""

    @staticmethod
    def frame_values(evecs, evals, si, sf, strength):
        """The frame's points of ``si`` and of its evolution, as the route reads
        them: the frame of the raw anchor eigenvector, the evolution applied to
        the vector, and ``majorana_points`` of each image."""
        to_frame, f_vec, _ = majgeom.canonical._frame(evecs[:, -1], sf)
        evolved = evecs @ (np.exp(-1j * strength * evals) * (si.conj() @ evecs).conj())
        i_points = majorana_points(to_frame(si)).points
        return i_points, majorana_points(to_frame(evolved)).points, f_vec

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_modular_route(self, n):
        rng = np.random.default_rng(1200 + n)
        reordered = 0
        for _ in range(40):
            psi_i, psi_f = random_state(rng, n), random_state(rng, n)
            observable = random_hermitian(rng, n)
            alpha, beta = rng.uniform(-3, 3), rng.uniform(-1, 1)
            spec = NLevelModularSpec(observable=observable, alpha=alpha, beta=beta)
            si, sf = nlevel_state(psi_i), nlevel_state(psi_f)
            evals, evecs = majgeom.numerics._eigh(observable)
            strength = alpha * (n - 1) / 2.0
            route = qutrit_modular_value_geometric(psi_i, spec, psi_f)

            i_points, s_points, f_vec = self.frame_values(evecs, evals, si, sf, strength)
            paired = pair_points(i_points, s_points)
            reordered += not np.array_equal(paired, s_points)
            assert value_bits(route) == value_bits(majgeom.nlevel_values._paired_modular_value(
                i_points, paired, NORTH, f_vec, beta - strength * float(evals[-1])))

            if abs(np.vdot(sf, si)) < 0.1:
                continue
            triple = majgeom.canonical.canonicalize_triple(si, evecs[:, -1], sf)
            psi_s = triple.u_total @ (unitary_exp(observable, 0.0, strength) @ si)
            public, _ = factored_modular_value(
                triple.i_rep.points, majorana_points(psi_s / np.linalg.norm(psi_s)).points,
                triple.r_vec, triple.f_vec, alpha=alpha, beta=beta,
                eigenvalue=float(evals[-1]))
            assert relative_gap(public, route[0].rect) <= 1e-12
        assert reordered > 0 or n == 2  # one point has one pairing

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_weak_route(self, n):
        rng = np.random.default_rng(1300 + n)
        for _ in range(40):
            psi_i, psi_r, psi_f = (random_state(rng, n) for _ in range(3))
            route = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
            triple = majgeom.canonical.canonicalize_triple(psi_i, psi_r, psi_f)
            assert value_bits(route) == value_bits(majgeom.nlevel_values._factored_weak_value(
                triple.i_rep.points, triple.r_vec, triple.f_vec))
            if abs(np.vdot(psi_f, psi_i)) >= 0.1:
                public, _ = factored_weak_value(triple.i_rep.points, triple.r_vec, triple.f_vec)
                assert relative_gap(public, route[0].rect) <= 1e-12


def anchored_observable(rng, r):
    """A Hermitian observable whose largest eigenvalue, 2, has eigenvector ``r``;
    the rest of its spectrum lies in [-1, 1]."""
    r = nlevel_state(r)
    rest = np.eye(r.size) - np.outer(r, r.conj())
    block = rest @ random_hermitian(rng, r.size) @ rest
    return 2.0 * np.outer(r, r.conj()) + block / np.linalg.norm(block, 2)


def orthogonal_to(rng, state):
    """A random unit state orthogonal to ``state``."""
    state = nlevel_state(state)
    other = random_state(rng, state.size)
    other = other - np.vdot(state, other) * state
    return other / np.linalg.norm(other)


class TestFrameEdgeCases:
    """Both canonical-frame routes at the frame's edge cases, against the direct
    oracle, for N = 2..8.  ``r`` is the projector state of the weak value and
    the anchor eigenvector of the modular one."""

    CASES = ("r-top", "r-equals-f", "r-orthogonal-f", "i-equals-r", "r-orthogonal-i")

    @staticmethod
    def triple(rng, n, case):
        psi_i, psi_r, psi_f = (random_state(rng, n) for _ in range(3))
        if case == "r-top":  # the projector state is already |N-1>
            psi_r = -1j * top_state(n)
        elif case == "r-equals-f":  # w = 1: f's frame point is the north pole
            psi_f = 1j * psi_r
        elif case == "r-orthogonal-f":  # f's frame point is the south pole
            psi_f = orthogonal_to(rng, psi_r)
        elif case == "i-equals-r":
            psi_i = psi_r
        else:  # the weak value is 0
            psi_i = orthogonal_to(rng, psi_r)
        return psi_i, psi_r, psi_f

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_weak_route(self, n, case):
        rng = np.random.default_rng(1400 + n)
        checked = 0
        while checked < 10:
            psi_i, psi_r, psi_f = self.triple(rng, n, case)
            if abs(np.vdot(psi_f, psi_i)) < 1e-2:
                continue
            expected = weak_value_direct(psi_i, np.outer(psi_r, psi_r.conj()), psi_f).rect
            value, _ = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
            assert relative_gap(value, expected) <= 1e-9
            checked += 1

    def modular_draws(self, n, case, count=10):
        """Selections and a spec anchored at ``r``, with ``|<f|i>| >= 1e-2``."""
        rng = np.random.default_rng(1500 + n)
        while count:
            psi_i, psi_r, psi_f = self.triple(rng, n, case)
            if abs(np.vdot(psi_f, psi_i)) < 1e-2:
                continue
            yield psi_i, NLevelModularSpec(observable=anchored_observable(rng, psi_r),
                                           alpha=rng.uniform(-3, 3),
                                           beta=rng.uniform(-1, 1)), psi_f
            count -= 1

    @pytest.mark.parametrize("case", CASES[:-1])
    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_modular_route(self, n, case):
        for psi_i, spec, psi_f in self.modular_draws(n, case):
            expected = modular_value_direct(psi_i, spec, psi_f).rect
            value, _ = qutrit_modular_value_geometric(psi_i, spec, psi_f)
            assert relative_gap(value, expected) <= 1e-9

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_modular_route_refuses_anchor_orthogonal_to_i(self, n):
        # A point of i lands on the south pole, antipodal to r, so the
        # quadrangle i -> r -> s -> f has no defined area; unlike the weak
        # value, the modular value is not 0 there, and the route refuses it.
        for psi_i, spec, psi_f in self.modular_draws(n, "r-orthogonal-i", count=3):
            assert modular_value_direct(psi_i, spec, psi_f).modulus > 1e-3
            with pytest.raises(UndefinedSolidAngle):
                qutrit_modular_value_geometric(psi_i, spec, psi_f)


def with_overlap(rng, n, overlap):
    """A random initial state and a final state with ``|<f|i>| = overlap``."""
    psi_i = random_state(rng, n)
    phase = np.exp(2j * math.pi * rng.uniform())
    return psi_i, overlap * phase * psi_i + math.sqrt(1.0 - overlap**2) * orthogonal_to(rng, psi_i)


class TestSmallOverlapAccuracy:
    """Both canonical-frame routes at ``|<f|i>| = 1e-3``, where the Bloch
    route's ``1 + f.i`` is small: an unrenormalized frame point shows here."""

    @pytest.mark.parametrize("n", (3, 5, 8))
    def test_weak_route(self, n):
        rng = np.random.default_rng(1600 + n)
        for _ in range(200):
            psi_i, psi_f = with_overlap(rng, n, 1e-3)
            psi_r = random_state(rng, n)
            expected = weak_value_direct(psi_i, np.outer(psi_r, psi_r.conj()), psi_f).rect
            value, _ = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
            assert relative_gap(value, expected) <= 1e-9

    @pytest.mark.parametrize("n", (3, 5, 8))
    def test_modular_route(self, n):
        rng = np.random.default_rng(1700 + n)
        for _ in range(200):
            psi_i, psi_f = with_overlap(rng, n, 1e-3)
            spec = NLevelModularSpec(observable=random_hermitian(rng, n),
                                     alpha=rng.uniform(-3, 3), beta=rng.uniform(-1, 1))
            expected = modular_value_direct(psi_i, spec, psi_f).rect
            value, _ = qutrit_modular_value_geometric(psi_i, spec, psi_f)
            assert relative_gap(value, expected) <= 1e-9


class TestAnchorRatio:
    """K_s / K_i read off the anchor, ``prod |r+i_k| / prod |r+s_k|``: against
    the ratio of the two symmetrization constants, at its 0/0 edge, and in the
    modular route where ``|<r|i>|`` is small."""

    @staticmethod
    def evolved_points(rng, n, kind, angle):
        """Points of a random ``i``, of its evolution and the anchor point ``r``.
        ``spin``: a spin rotation by ``angle`` about a random ``r``.  ``anchor``:
        ``i`` and its evolution under a Gell-Mann (N = 3) or random observable,
        in the frame of that observable's top eigenvector and a random ``f``,
        where ``r`` is the north pole."""
        psi_i = nlevel_state(random_state(rng, n))
        if kind == "spin":
            r = random_bloch(rng)
            evolved = unitary_exp(spin_component(n - 1, r), 0.0, angle) @ psi_i
            return majorana_points(psi_i).points, majorana_points(evolved).points, r
        observable = (GellMannDirection.from_r8(rng.normal(size=8)).operator if n == 3
                      else random_hermitian(rng, n))
        _, evecs = eig_hermitian(observable)
        triple = majgeom.canonical.canonicalize_triple(psi_i, evecs[:, -1], random_state(rng, n))
        evolved = triple.u_total @ (unitary_exp(observable, 0.0, angle) @ psi_i)
        return triple.i_rep.points, majorana_points(evolved).points, NORTH

    @PROPERTY_SETTINGS
    @given(st.integers(2, MAX_LEVELS), st.sampled_from(("spin", "anchor")),
           st.floats(-2 * math.pi, 2 * math.pi), st.integers(0, 2**32 - 1))
    def test_matches_normalization_ratio(self, n, kind, angle, seed):
        rng = np.random.default_rng(seed)
        i_pts, s_pts, r = self.evolved_points(rng, n, kind, angle)
        _, breakdown = factored_modular_value(i_pts, s_pts, r, random_bloch(rng),
                                              alpha=angle, beta=0.0, eigenvalue=1.0)
        expected = (majgeom.majorana.normalization_factor(pair_points(i_pts, s_pts))
                    / majgeom.majorana.normalization_factor(i_pts))
        assert abs(breakdown.k_ratio - expected) <= 1e-12 * expected

    @staticmethod
    def finite(value, breakdown) -> bool:
        numbers = [value.modulus, value.argument, value.unwrapped_argument,
                   breakdown.k_ratio, breakdown.dynamical_phase]
        for factor in breakdown.factors:
            numbers += [factor.modulus_ratio, factor.solid_angle,
                        *factor.i_point, *factor.s_point]
        return all(map(math.isfinite, numbers))

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_evolved_point_antipodal_to_anchor(self, n):
        # s_k = -r makes the anchor ratio 0/0: the value is refused, or it is
        # 0 by the zero-value rule (f = r) and every number of it is finite.
        rng = np.random.default_rng(1800 + n)
        for _ in range(10):
            r = random_bloch(rng)
            i_pts, s_pts = random_points(rng, n - 1), random_points(rng, n - 1)
            k = rng.integers(n - 1)
            s_pts[k] = -r

            def value(f, i_pts=i_pts):
                return factored_modular_value(i_pts, s_pts, r, f, alpha=0.3, beta=0.2,
                                              eigenvalue=1.0)

            with pytest.raises(UndefinedSolidAngle):
                value(random_bloch(rng))
            result = value(r)
            assert result[0] == PolarComplex(0.0, 0.0, 0.0)
            assert result[1].k_ratio == 0.0 and self.finite(*result)
            with pytest.raises(OrthogonalSelection):  # i_k = -r is antipodal to f = r
                value(r, np.concatenate((-r[None], i_pts[1:])))

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_evolved_point_all_but_antipodal_to_anchor(self, n):
        # |r + s_k|^2 underflows to 0 although s_k != -r.
        rng = np.random.default_rng(1850 + n)
        for _ in range(10):
            r = random_bloch(rng)
            near = -r + 1e-170 * np.cross(r, random_bloch(rng))
            i_pts, s_pts = random_points(rng, n - 1), random_points(rng, n - 1)
            s_pts[:] = near / np.linalg.norm(near)
            for f in (r, random_bloch(rng)):
                try:
                    result = factored_modular_value(i_pts, s_pts, r, f, alpha=0.3, beta=0.2,
                                                    eigenvalue=1.0)
                except (UndefinedSolidAngle, OrthogonalSelection):
                    continue
                assert self.finite(*result)

    @pytest.mark.parametrize("overlap", (1e-2, 1e-3))
    @pytest.mark.parametrize("n", (3, 5, 8))
    def test_small_anchor_overlap(self, n, overlap):
        # |<r|i>| small puts points of i and s near -r, where |r + x| is small.
        rng = np.random.default_rng(1900 + n)
        checked = 0
        while checked < 40:
            psi_r, psi_i = with_overlap(rng, n, overlap)
            psi_f = random_state(rng, n)
            if abs(np.vdot(psi_f, psi_i)) < 1e-2:
                continue
            spec = NLevelModularSpec(observable=anchored_observable(rng, psi_r),
                                     alpha=rng.uniform(-3, 3), beta=rng.uniform(-1, 1))
            expected = modular_value_direct(psi_i, spec, psi_f).rect
            value, _ = qutrit_modular_value_geometric(psi_i, spec, psi_f)
            assert abs(value.rect - expected) <= 1e-9 * abs(expected)
            checked += 1


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

    @pytest.mark.parametrize("m", range(2, 8))
    def test_coincident_points_keep_order(self, m):
        # Every pairing with m coincident initial points costs the same up to
        # summation rounding; the tie resolves to the identity.
        rng = np.random.default_rng(5)
        for _ in range(200):
            first = np.tile(random_bloch(rng), (m, 1))
            second = random_points(rng, m)
            assert np.array_equal(pair_points(first, second), second)

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

    def test_mixed_dimensions(self):
        with pytest.raises(ValueError, match="must share a dimension"):
            abl_distribution(np.ones(3) / SQ3, [np.eye(3)], np.array([1.0, 0.0]))

    def test_zero_denominator(self):
        # orthogonal selection with a diagonal context blocks every path
        psi_i = np.array([1.0, 0.0])
        psi_f = np.array([0.0, 1.0])
        with pytest.raises(ZeroDenominator):
            abl_distribution(psi_i, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], psi_f)
