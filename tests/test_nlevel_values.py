import cmath
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import (
    ang_dist,
    exact_abl_distribution,
    exact_weak_value,
    is_spin_like,
    polar_close,
    random_hermitian,
    random_spin1_operator,
    random_state,
    random_unitary,
    spin_component,
    top_state,
)
from majgeom.bloch import qubit_to_bloch, solid_angle_triangle
import majgeom.bloch
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
from majgeom.polar import GeometricFactor, PolarComplex
from majgeom.qubit_values import (
    QubitModularSpec,
    observable_to_modular_spec,
    projector_weak_value_direct,
    projector_weak_value_geometric,
)
from majgeom.qubit_values import modular_value_direct as qubit_modular_value_direct
from majgeom.qubit_values import modular_value_geometric as qubit_modular_value_geometric

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

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, MAX_LEVELS).flatmap(lambda n: st.tuples(
        st.lists(signed_part, min_size=2 * n * n, max_size=2 * n * n),
        st.lists(signed_part, min_size=2 * n, max_size=2 * n),
        st.lists(signed_part, min_size=2 * n, max_size=2 * n))))
    def test_matches_conjugated_row_form(self, parts):
        # A|i> is written out from A's rows; it must keep the bits of
        # _inner(conj(row), i), signed zeros included.
        entries, i_parts, f_parts = (np.array(p[::2]) + 1j * np.array(p[1::2]) for p in parts)
        n = len(i_parts)
        a = entries.reshape(n, n)
        a = a + a.conj().T
        psi_i, psi_f = (v / np.linalg.norm(v) for v in (i_parts + 1.0, f_parts + 1.0))
        assume(abs(np.vdot(psi_f, psi_i)) > 1e-3)
        si = majgeom.majorana._unit_state(psi_i)
        sf = majgeom.majorana._unit_state(psi_f)
        image = [majgeom.numerics._inner(row, si) for row in a.conj().tolist()]
        expected = majgeom.numerics._inner(sf, image) / majgeom.numerics._checked_overlap(sf, si)
        assert weak_value_direct(psi_i, a, psi_f) == PolarComplex.from_complex(expected)


# Ordinary values with exact and signed zeros.
signed_part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0, allow_nan=False))


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

    @pytest.mark.parametrize("where, bad, defect", [
        ((1, 1), math.nan, "nan"),
        ((1, 1), math.inf, "nan"),  # inf - inf on the diagonal
        ((0, 1), math.inf, "inf"),
        ((0, 2), complex(0.0, -math.inf), "inf"),
        ((2, 0), complex(math.nan, 1.0), "nan"),
    ])
    def test_observable_entry_message_without_warning(self, where, bad, defect):
        observable = np.diag([0.0, 1.0, 0.0]).astype(complex)
        observable[where] = bad
        spec = NLevelModularSpec(observable=observable)
        calls = [lambda: weak_value_direct(self.PSI_I, observable, self.PSI_F),
                 lambda: modular_value_direct(self.PSI_I, spec, self.PSI_F),
                 lambda: qutrit_modular_value_geometric(self.PSI_I, spec, self.PSI_F)]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotHermitian) as info:
                    call()
            assert str(info.value) == f"Hermiticity defect {defect} exceeds 1.0e-10"

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


class TestOverflowingPhase:
    """An evolution or dynamical phase beyond the float range is refused by
    name, with no numpy warning; every phase that fits is computed."""

    PSI_I, PSI_F = np.ones(3) / SQ3, np.array([1.0, -1.0, 1.0]) / SQ3
    OBSERVABLE = np.diag([1.0, 0.0, -1.0])

    def test_phase_within_range_is_computed(self):
        # alpha*(N-1) overflows at alpha = 1e308; the phases alpha*((N-1)/2)*lambda fit.
        spec = NLevelModularSpec(observable=self.OBSERVABLE, alpha=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direct = modular_value_direct(self.PSI_I, spec, self.PSI_F)
            geometric, _ = qutrit_modular_value_geometric(self.PSI_I, spec, self.PSI_F)
        # <f|k><k|i> = (1, -1, 1)/3 and <f|i> = 1/3: the value is 2 cos(1e308) - 1.
        assert abs(direct.rect - (2.0 * math.cos(1e308) - 1.0)) <= 1e-12
        assert geometric.modulus == pytest.approx(direct.modulus, rel=1e-9)

    @pytest.mark.parametrize("route", [modular_value_direct, qutrit_modular_value_geometric])
    def test_observable_near_the_largest_float(self, route):
        # A + A^H overflows here; A/2 + A^H/2 does not, so the spectrum is
        # +-sqrt(2)*1e308 and no evolution phase is involved at alpha = 0.
        observable = np.array([[1e308, 1e308], [1e308, -1e308]])
        spec = NLevelModularSpec(observable=observable, alpha=0.0)
        psi_i, psi_f = np.array([0.6, 0.8j]), np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = route(psi_i, spec, psi_f)
        value = value if isinstance(value, PolarComplex) else value[0]
        assert (value.modulus, value.argument) == pytest.approx((1.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("route", [modular_value_direct, qutrit_modular_value_geometric])
    def test_overflowing_evolution_phase(self, route):
        spec = NLevelModularSpec(observable=10.0 * self.OBSERVABLE, alpha=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^evolution_phase must be finite$"):
                route(self.PSI_I, spec, self.PSI_F)

    def test_overflowing_dynamical_phase(self):
        # strength*eigenvalue = -1e308 fits, beta minus it does not: each is
        # reduced on its own, so the geometric route answers as the direct one.
        spec = NLevelModularSpec(observable=self.OBSERVABLE, alpha=-1e308, beta=1e308)
        direct = modular_value_direct(self.PSI_I, spec, self.PSI_F).rect
        geometric, _ = qutrit_modular_value_geometric(self.PSI_I, spec, self.PSI_F)
        assert abs(geometric.rect - direct) <= 1e-9 * max(1.0, abs(direct))
        # alpha*((N-1)/2)*eigenvalue = 5e308 is itself beyond the float range.
        with pytest.raises(ValueError, match="^dynamical_phase must be finite$"):
            factored_modular_value([NORTH], [[1.0, 0.0, 0.0]], NORTH, [0.0, 1.0, 0.0],
                                   alpha=1e308, beta=0.0, eigenvalue=10.0)


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


def counting(original, log):
    """``original``, logging the length of its first argument on each call."""
    def counted(vec, *args, **kwargs):
        log.append(len(vec))
        return original(vec, *args, **kwargs)
    return counted


class TestValidatedOnce:
    """Each caller input passes ``_unit_state`` once per value, and no value
    route, nor ``qubit_to_bloch`` or ``majorana_points``, fixes a gauge: no
    value or point depends on it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The vector sizes of every ``_unit_state`` and ``_fix_gauge`` call,
        counted in each majgeom module that binds the name."""
        calls = {"_unit_state": [], "_fix_gauge": []}
        for name, log in calls.items():
            modules = [m for key, m in sys.modules.items()
                       if key.startswith("majgeom.") and hasattr(m, name)]
            wrapped = counting(getattr(modules[0], name), log)
            for module in modules:
                monkeypatch.setattr(module, name, wrapped)
        return calls

    @pytest.mark.parametrize("n", (2, 3, 5, 8))
    def test_weak_value(self, calls, n):
        rng = np.random.default_rng(87 + n)
        psi_i, psi_r, psi_f = (random_state(rng, n) for _ in range(3))
        value, _ = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
        assert calls == {"_unit_state": [n, n, n], "_fix_gauge": []}
        expected = weak_value_direct(psi_i, np.outer(psi_r, psi_r.conj()), psi_f).rect
        assert calls == {"_unit_state": [n] * 5, "_fix_gauge": []}
        assert relative_gap(value, expected) <= 1e-9

    @pytest.mark.parametrize("n", (2, 3, 5, 8))
    def test_modular_value(self, calls, n):
        rng = np.random.default_rng(97 + n)
        psi_i, psi_f = random_state(rng, n), random_state(rng, n)
        spec = NLevelModularSpec(observable=random_hermitian(rng, n), alpha=0.9, beta=0.3)
        value, _ = qutrit_modular_value_geometric(psi_i, spec, psi_f)
        assert calls == {"_unit_state": [n, n], "_fix_gauge": []}
        expected = modular_value_direct(psi_i, spec, psi_f).rect
        assert calls == {"_unit_state": [n] * 4, "_fix_gauge": []}
        assert relative_gap(value, expected) <= 1e-9

    def test_abl_and_points(self, calls):
        rng = np.random.default_rng(107)
        psi_i, psi_f = random_state(rng, 3), random_state(rng, 3)
        abl_distribution(psi_i, [np.diag(e).astype(complex) for e in np.eye(3)], psi_f)
        majorana_points(random_state(rng, 5))
        assert calls == {"_unit_state": [3, 3, 5], "_fix_gauge": []}

    def test_qubit_routes(self, calls):
        rng = np.random.default_rng(117)
        qi, qr, qf = (random_state(rng, 2) for _ in range(3))
        vi, vr, vf = (qubit_to_bloch(q) for q in (qi, qr, qf))
        spec = QubitModularSpec(axis=vr, alpha=0.7, beta=0.2)
        projector_weak_value_direct(qi, qr, qf)
        qubit_modular_value_direct(qi, spec, qf)
        projector_weak_value_geometric(vi, vr, vf)
        qubit_modular_value_geometric(vi, spec, vf)
        assert calls == {"_unit_state": [], "_fix_gauge": []}


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
        checks = self.count_calls(monkeypatch, "_bloch_rows",
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
def triples(draw, dims=st.integers(2, MAX_LEVELS)):
    """Dimension, three states and a Hermitian observable, drawn entry by entry
    so sparse and repeated amplitudes come up."""
    n = draw(dims)
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
        # near-orthogonal selections make the value itself ill-conditioned:
        # the geometric error grows like 20 u/|<f|i>|, 2e-10 at 1e-5.
        assume(abs(np.vdot(psi_f, psi_i)) >= 1e-5)
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


class TestLargeEvolutionAngle:
    """The dynamical phase reduces beta and s*eigenvalue each on its own, as
    the direct route's exponentials do, so the routes keep the 1e-9 contract
    however large alpha is; beta - s*eigenvalue as one float missed by 2.8e-8
    at alpha = 1e8 (qutrit)."""

    @PROPERTY_SETTINGS
    @given(st.integers(2, MAX_LEVELS), st.floats(-1e12, 1e12), st.floats(-math.pi, math.pi),
           st.integers(0, 2**32 - 1))
    def test_routes_agree(self, n, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        psi_i, psi_f = random_state(rng, n), random_state(rng, n)
        assume(abs(np.vdot(psi_f, psi_i)) >= 1e-2)
        spec = NLevelModularSpec(observable=random_hermitian(rng, n), alpha=alpha, beta=beta)
        expected = modular_value_direct(psi_i, spec, psi_f).rect
        value, _ = qutrit_modular_value_geometric(psi_i, spec, psi_f)
        assert relative_gap(value, expected) <= 1e-9


class TestCanonicalRoutesAreFactored:
    """The canonical-frame routes return, bit for bit, what the factored cores
    return for the frame's own points, and the public ``factored_*`` of
    ``canonicalize_triple``'s points agree with them to 1e-12 relative.  The
    public functions renormalize the points once more; the gap that makes
    grows like ``1/|<f|i>|``, as the routes' own gap to the direct oracle
    does, so the bound is checked where ``|<f|i>| >= 0.1``."""

    @staticmethod
    def frame_values(evecs, evals, si, sf, strength):
        """The frame's points of ``si`` and of its evolution, as the route reads
        them: the frame of the raw anchor eigenvector, the evolution applied to
        the vector, and ``majorana_points`` of each image."""
        to_frame, f_vec, _ = majgeom.canonical._frame(evecs[:, -1].tolist(), sf)
        evolved = majgeom.nlevel_values._evolved(si, evals, evecs, strength)
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
            si, sf = (majgeom.majorana._unit_state(s) for s in (psi_i, psi_f))
            evals, evecs = majgeom.numerics._eigh(observable)
            strength = alpha * (n - 1) / 2.0
            route = qutrit_modular_value_geometric(psi_i, spec, psi_f)

            i_points, s_points, f_vec = self.frame_values(evecs, evals, si, sf, strength)
            paired = pair_points(i_points, s_points)
            reordered += not np.array_equal(paired, s_points)
            assert value_bits(route) == value_bits(majgeom.nlevel_values._paired_modular_value(
                i_points, paired, NORTH, f_vec, beta, strength * float(evals[-1])))

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
            si, sr, sf = (majgeom.majorana._unit_state(s) for s in (psi_i, psi_r, psi_f))
            to_frame, f_vec, _ = majgeom.canonical._frame(sr, sf)
            assert value_bits(route) == value_bits(majgeom.nlevel_values._factored_weak_value(
                majorana_points(to_frame(si)).points, NORTH, f_vec))
            if abs(np.vdot(psi_f, psi_i)) >= 0.1:
                triple = majgeom.canonical.canonicalize_triple(psi_i, psi_r, psi_f)
                public, _ = factored_weak_value(triple.i_rep.points, triple.r_vec, triple.f_vec)
                assert relative_gap(public, route[0].rect) <= 1e-12


def eager_factors(moduli, angles, i_points, s_points=None):
    """The per-factor records built at once from a value's moduli, angles and
    points: each point set as one ``(m, 3)`` float array, one row per factor."""
    points = [np.asarray(p, dtype=float).reshape(-1, 3) for p in (i_points, s_points)
              if p is not None]
    return tuple(map(GeometricFactor, moduli, angles, *points))


def factor_bits(factors):
    """Per-factor records as exact bit patterns, array dtypes and shapes too."""
    return [(f.modulus_ratio.hex(), f.solid_angle.hex(),
             *((p.dtype.str, p.shape, p.tobytes()) if p is not None else None
               for p in (f.i_point, f.s_point))) for f in factors]


class TestLazyBreakdown:
    """A breakdown holds the kernel's columns and builds its per-factor
    records when ``factors`` is first read: bit for bit the records built at
    once from the same moduli, angles and points, on every geometric route,
    and none while only the value is read."""

    ZERO_CASES = ("qubit.weak.zero", "factored.weak.zero", "factored.modular.zero")

    @staticmethod
    def cases():
        """``(name, thunk, expected records)``: each thunk calls one geometric
        route, and the records are built at once from the factor kernel's
        moduli and angles on the points the route reads off.  A thunk may run
        after later cases are drawn, so it binds the names they draw again."""
        rng = np.random.default_rng(3100)
        unit, rows = majgeom.bloch._bloch_vector, majgeom.majorana._point_rows
        weak, modular = majgeom.bloch._weak_factors, majgeom.bloch._modular_factors
        vi, vr, vf = (random_bloch(rng) for _ in range(3))
        yield ("qubit.weak", lambda: projector_weak_value_geometric(vi, vr, vf),
               eager_factors(*weak([unit(vi)], unit(vr), unit(vf)), unit(vi)))
        spec = QubitModularSpec(random_bloch(rng), alpha=1.1, beta=0.4)
        axis = spec.axis.tolist()
        vs = majgeom.bloch._rotate(unit(vi), axis, spec.alpha)
        yield ("qubit.modular", lambda q=spec: qubit_modular_value_geometric(vi, q, vf),
               eager_factors(*modular([unit(vi)], axis, [vs], unit(vf))[:2], unit(vi), vs))
        ez, ex, ey = np.eye(3)[2], np.eye(3)[0], np.eye(3)[1]
        yield ("qubit.weak.zero", lambda: projector_weak_value_geometric(ex, -ez, ez),
               eager_factors([0.0], [0.0], unit(ex)))
        for m in range(1, MAX_LEVELS):
            points, s = random_points(rng, m), random_points(rng, m)
            r, f = random_bloch(rng), random_bloch(rng)
            pi, ps = rows(points), rows(pair_points(points, s))
            yield (f"factored.weak.m{m}", lambda p=points, r=r, f=f: factored_weak_value(p, r, f),
                   eager_factors(*weak(pi, unit(r), unit(f)), pi))
            yield (f"factored.modular.m{m}",
                   lambda p=points, s=s, r=r, f=f: factored_modular_value(
                       p, s, r, f, alpha=0.7, beta=0.2, eigenvalue=1.0),
                   eager_factors(*modular(pi, unit(r), ps, unit(f))[:2], pi, ps))
        points = np.array([[0.6, 0.0, 0.8], [0.0, 0.6, -0.8]])
        pi, ps = rows(points), rows(pair_points(points, np.array([-ex, ey])))
        yield ("factored.weak.zero", lambda p=points: factored_weak_value(p, -ez, ez),
               eager_factors([0.0, 0.0], [0.0, 0.0], pi))
        yield ("factored.modular.zero",
               lambda p=points: factored_modular_value(p, np.array([-ex, ey]), ez, ex,
                                                       alpha=0.3, beta=0.0, eigenvalue=1.0),
               eager_factors(*modular(pi, ez, ps, ex)[:2], pi, ps))
        for n in range(2, MAX_LEVELS + 1):
            psi_i, psi_r, psi_f = (random_state(rng, n) for _ in range(3))
            si, sr, sf = (majgeom.majorana._unit_state(v) for v in (psi_i, psi_r, psi_f))
            to_frame, f_vec, _ = majgeom.canonical._frame(sr, sf)
            frame_i = majorana_points(to_frame(si)).points
            yield (f"nlevel.weak.n{n}",
                   lambda a=psi_i, b=psi_r, c=psi_f: qutrit_projector_weak_value_geometric(a, b, c),
                   eager_factors(*weak(frame_i, NORTH, f_vec), frame_i))
            spec = NLevelModularSpec(observable=random_hermitian(rng, n), alpha=0.9, beta=-0.3)
            evals, evecs = majgeom.numerics._eigh(spec.observable)
            frame_i, frame_s, f_vec = TestCanonicalRoutesAreFactored.frame_values(
                evecs, evals, si, sf, 0.9 * ((n - 1) / 2.0))
            frame_s = pair_points(frame_i, frame_s)
            yield (f"nlevel.modular.n{n}",
                   lambda a=psi_i, b=spec, c=psi_f: qutrit_modular_value_geometric(a, b, c),
                   eager_factors(*modular(frame_i, NORTH, frame_s, f_vec)[:2], frame_i, frame_s))

    def test_factors_match_eager_records(self):
        names = set()
        for name, route, expected in self.cases():
            _, breakdown = route()
            assert factor_bits(breakdown.factors) == factor_bits(expected), name
            if name in self.ZERO_CASES:
                assert 0.0 in [f.modulus_ratio for f in breakdown.factors], name
            names.add(name.split(".")[0])
        assert names == {"qubit", "factored", "nlevel"}

    def test_value_alone_builds_no_record(self, monkeypatch):
        built = []
        init = GeometricFactor.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cases = list(self.cases())
        monkeypatch.setattr(GeometricFactor, "__init__", counted)
        for name, route, expected in cases:
            value, breakdown = route()
            reads = (value.rect, breakdown.modulus, breakdown.raw_argument,
                     breakdown.to_polar())
            assert reads[-1] == value, name
            assert built == [], name
            factors = breakdown.factors
            assert len(built) == len(factors) == len(expected), name
            assert breakdown.factors is factors and len(built) == len(expected), name
            built.clear()

    def test_inputs_changed_after_the_call_leave_the_records(self):
        rng = np.random.default_rng(3200)
        points, s = random_points(rng, 4), random_points(rng, 4)
        r, f = random_bloch(rng), random_bloch(rng)
        psi_i, psi_r, psi_f = (random_state(rng, 5) for _ in range(3))
        spec = NLevelModularSpec(observable=random_hermitian(rng, 5), alpha=0.9, beta=-0.3)
        qubit_spec = QubitModularSpec(random_bloch(rng), alpha=1.1, beta=0.4)
        calls = [
            (lambda: projector_weak_value_geometric(points[0], r, f), (points, r, f)),
            (lambda: qubit_modular_value_geometric(points[0], qubit_spec, f),
             (points, f, qubit_spec.axis)),
            (lambda: factored_weak_value(points, r, f), (points, r, f)),
            (lambda: factored_modular_value(points, s, r, f, alpha=0.7, beta=0.2,
                                            eigenvalue=1.0), (points, s, r, f)),
            (lambda: qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f),
             (psi_i, psi_r, psi_f)),
            (lambda: qutrit_modular_value_geometric(psi_i, spec, psi_f),
             (psi_i, psi_f, spec.observable)),
        ]
        for k, (route, inputs) in enumerate(calls):
            kept = [a.copy() for a in inputs]
            expected = factor_bits(route()[1].factors)
            _, breakdown = route()
            for a in inputs:
                a[...] = np.flip(a).copy()
            assert factor_bits(breakdown.factors) == expected, k
            for a, b in zip(inputs, kept):
                a[...] = b


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


PHASES = st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 3)


def phased(states, phases):
    """Each state times its own global phase ``exp(1j*phase)``."""
    return [s * cmath.exp(1j * p) for s, p in zip(states, phases)]


class TestGlobalPhaseInvariance:
    """A global phase on any input state changes no value and no point; with
    the inputs taken ungauged, only rounding moves them."""

    @staticmethod
    def assert_close(values, moved):
        for a, b in zip(values, moved):
            assert abs(b - a) <= 1e-12 * max(1.0, abs(a))

    @PROPERTY_SETTINGS
    @given(triples(), PHASES, st.floats(-2 * math.pi, 2 * math.pi), st.floats(-math.pi, math.pi))
    def test_nlevel_values(self, case, phases, alpha, beta):
        n, psi_i, psi_r, psi_f, observable = case
        assume(abs(np.vdot(psi_f, psi_i)) >= 1e-2)
        # The weak value's factors vanish with <r|i> or <f|r>, and their angles.
        assume(min(abs(np.vdot(psi_r, psi_i)), abs(np.vdot(psi_f, psi_r))) >= 1e-3)
        spec = NLevelModularSpec(observable=observable, alpha=alpha, beta=beta)

        def values(si, sr, sf):
            return [weak_value_direct(si, np.outer(sr, sr.conj()), sf).rect,
                    qutrit_projector_weak_value_geometric(si, sr, sf)[0].rect,
                    modular_value_direct(si, spec, sf).rect,
                    qutrit_modular_value_geometric(si, spec, sf)[0].rect]

        self.assert_close(values(psi_i, psi_r, psi_f),
                          values(*phased((psi_i, psi_r, psi_f), phases)))

    @PROPERTY_SETTINGS
    @given(triples(st.just(2)), PHASES, st.floats(-2 * math.pi, 2 * math.pi),
           st.floats(-math.pi, math.pi))
    def test_qubit_direct_routes(self, case, phases, alpha, beta):
        _, qi, qr, qf, _ = case
        assume(abs(np.vdot(qf, qi)) >= 1e-2)
        spec = QubitModularSpec(axis=qubit_to_bloch(qr), alpha=alpha, beta=beta)

        def values(si, sr, sf):
            return [projector_weak_value_direct(si, sr, sf).rect,
                    qubit_modular_value_direct(si, spec, sf).rect,
                    *(component for s in (si, sr, sf) for component in qubit_to_bloch(s))]

        self.assert_close(values(qi, qr, qf), values(*phased((qi, qr, qf), phases)))

    @PROPERTY_SETTINGS
    @given(triples(), st.floats(0.0, 2.0 * math.pi))
    def test_majorana_points(self, case, phase):
        _, state, *_ = case
        # Clustered roots, and the companion solve of coefficients that span
        # many decades, are ill-conditioned: there any rounding moves them.
        assume(np.all((state == 0) | (np.abs(state) >= 1e-2)))
        points = majorana_points(state).points
        gaps = np.linalg.norm(points[:, None] - points[None], axis=-1)
        assume(np.min(gaps + 2.0 * np.eye(len(points))) >= 1e-2)
        moved = majorana_points(state * cmath.exp(1j * phase)).points
        # Matched point by point, so the sort order of near-equal points is moot.
        assert np.abs(moved[:, None] - points[None]).max(-1).min(-1).max() <= 5e-14


class TestExactWeakValue:
    """The weak routes against the exact value of their float inputs where
    ``|<f|i>|`` is small; their relative error grows like u/|<f|i>|.
    Each bound is the largest error measured over these draws, plus ~10 %."""

    BOUNDS = {1e-2: 1.2e-14, 1e-4: 1.0e-12, 1e-6: 1.2e-10}

    @pytest.mark.parametrize("overlap", sorted(BOUNDS))
    def test_direct_routes(self, overlap):
        rng = np.random.default_rng(11)
        worst = 0.0
        for n in (2, 3, 8):
            for _ in range(40):
                psi_i, psi_f = with_overlap(rng, n, overlap)
                psi_r = random_state(rng, n)
                exact = exact_weak_value(psi_i, psi_r, psi_f)
                values = [weak_value_direct(psi_i, np.outer(psi_r, psi_r.conj()), psi_f).rect]
                if n == 2:
                    values.append(projector_weak_value_direct(psi_i, psi_r, psi_f).rect)
                worst = max(worst, *(abs(v - exact) / abs(exact) for v in values))
        assert worst <= self.BOUNDS[overlap]

    @PROPERTY_SETTINGS
    @given(st.integers(2, MAX_LEVELS), st.floats(-8.0, -2.0), st.integers(0, 2**32 - 1))
    def test_geometric_route(self, n, decade, seed):
        # |<f|i>| log-uniform in [1e-8, 1e-2].  Each 1 + a.b is the
        # projection |a+b|^2/2, so the error grows like u*kappa, as the direct
        # route's does (kappa = 1/|<f|i>|); the largest constant measured over
        # 2000 such draws was 19.8.  Forming 1 + a.b missed this bound at
        # every decade, its error growing like u*kappa**2.
        rng = np.random.default_rng(seed)
        psi_i, psi_f = with_overlap(rng, n, 10.0**decade)
        psi_r = random_state(rng, n)
        exact = exact_weak_value(psi_i, psi_r, psi_f)
        kappa = 1.0 / abs(np.vdot(psi_f, psi_i))
        value, _ = qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)
        assert abs(value.rect - exact) <= 64 * 2.0**-53 * kappa * abs(exact)


class TestProjectorSumRule:
    """Over any orthonormal basis the projector weak values sum to 1, by
    both routes; their error grows like u/|<f|i>|, so ``<f|i>`` is kept off 0."""

    @PROPERTY_SETTINGS
    @given(triples(), st.integers(0, 2**32 - 1))
    def test_sums_to_one(self, case, seed):
        n, psi_i, _, psi_f, _ = case
        assume(abs(np.vdot(psi_f, psi_i)) >= 1e-2)
        basis = random_unitary(np.random.default_rng(seed), n).T
        direct = [weak_value_direct(psi_i, np.outer(b, b.conj()), psi_f).rect for b in basis]
        geometric = [qutrit_projector_weak_value_geometric(psi_i, b, psi_f)[0].rect
                     for b in basis]
        for values in (direct, geometric):
            assert abs(sum(values) - 1.0) <= 1e-9 * max(1.0, sum(map(abs, values)))


class TestExactAbl:
    """``abl_distribution`` against the exact ABL probabilities of
    Gaussian-integer states in computational-basis contexts.  Its error is
    bounded by ``2 eps (sum_j |f_j| |i_j|)^2 / sum_k |<f|P_k|i>|^2``; over
    these draws it reached 0.39 of that."""

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_matches_exact_oracle(self, n):
        rng = np.random.default_rng(120 + n)
        for _ in range(100):
            gi, gf = (rng.integers(-3, 4, size=n) + 1j * rng.integers(-3, 4, size=n)
                      for _ in range(2))
            if not (gi.any() and gf.any()):
                continue
            labels = rng.integers(0, rng.integers(1, n + 1), size=n)
            groups = [np.flatnonzero(labels == label).tolist() for label in np.unique(labels)]
            projectors = [np.diag(np.isin(np.arange(n), g)).astype(complex) for g in groups]
            si, sf = gi / np.linalg.norm(gi), gf / np.linalg.norm(gf)
            weights = [abs(np.vdot(gf[g], gi[g])) ** 2 for g in groups]
            if sum(weights) == 0.0:  # the Gaussian-integer overlaps are exact
                with pytest.raises(ZeroDenominator):
                    abl_distribution(si, projectors, sf)
                continue
            exact = exact_abl_distribution(gi, groups, gf)
            scale = float(np.abs(gf) @ np.abs(gi)) ** 2 / sum(weights)
            got = abl_distribution(si, projectors, sf)
            assert max(abs(p - float(e)) for p, e in zip(got, exact)) <= \
                2.0 * sys.float_info.epsilon * scale


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

    def test_makes_no_blas_dot(self, monkeypatch):
        # |r+x|^2 is summed in Python floats, so no BLAS build moves K_s / K_i.
        def refuse(*_):
            raise AssertionError("np.vdot called")

        assert not hasattr(majgeom.bloch, "_rowdot")
        monkeypatch.setattr(np, "vdot", refuse)
        rng = np.random.default_rng(8)
        vi, vs = random_points(rng, 4), random_points(rng, 4)
        value, breakdown = majgeom.nlevel_values._paired_modular_value(
            vi, vs, NORTH, random_bloch(rng), 0.3, 0.0)
        assert math.isfinite(value.modulus) and len(breakdown.factors) == 4

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
