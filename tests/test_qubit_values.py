import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import (
    ang_dist,
    bloch_of,
    polar_close,
    qubit_modular_closed_form,
    qubit_weak_value_rect,
    random_bloch,
    random_qubit,
)
import majgeom.bloch
import majgeom.qubit_values
from majgeom.bloch import bloch_to_qubit, qubit_to_bloch, rodrigues_rotate
from majgeom.errors import OrthogonalSelection, UndefinedSolidAngle
from majgeom.nlevel_values import factored_modular_value, factored_weak_value
from majgeom.qubit_values import (
    QubitModularSpec,
    modular_value_direct,
    modular_value_geometric,
    observable_to_modular_spec,
    projector_weak_value_direct,
    projector_weak_value_geometric,
    weak_value_from_modular_derivative,
)

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
KET0 = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)


class TestProjectorWeakValueDirect:
    def test_all_equal(self):
        q = random_qubit(np.random.default_rng(0))
        assert polar_close(projector_weak_value_direct(q, q, q), 1.0 + 0.0j)

    def test_half(self):
        value = projector_weak_value_direct(KET0, PLUS, KET0)
        assert polar_close(value, 0.5 + 0.0j)

    def test_orthogonal_raises(self):
        with pytest.raises(OrthogonalSelection):
            projector_weak_value_direct(KET0, PLUS, np.array([0.0, 1.0], dtype=complex))


class TestProjectorWeakValueGeometric:
    def test_octant(self):
        value, breakdown = projector_weak_value_geometric(EZ, EX, EY)
        assert value.modulus == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert value.argument == pytest.approx(-math.pi / 4, abs=1e-12)
        assert len(breakdown.factors) == 1

    def test_all_equal(self):
        v = random_bloch(np.random.default_rng(1))
        value, _ = projector_weak_value_geometric(v, v, v)
        assert polar_close(value, 1.0 + 0.0j)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(2)
        qi, qr, qf = random_qubit(rng), random_qubit(rng), random_qubit(rng)
        base = projector_weak_value_direct(qi, qr, qf)
        phased = projector_weak_value_direct(np.exp(1j * math.pi / 7) * qi, qr, qf)
        assert abs(base.rect - phased.rect) <= 1e-12

    def test_against_direct_oracle(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 1000:
            qi, qr, qf = random_qubit(rng), random_qubit(rng), random_qubit(rng)
            if abs(np.vdot(qf, qi)) < 1e-6:
                continue
            expected = qubit_weak_value_rect(qi, qr, qf)
            value, _ = projector_weak_value_geometric(
                bloch_of(qi), bloch_of(qr), bloch_of(qf))
            assert abs(value.rect - expected) <= 1e-10 * max(1.0, abs(expected))
            checked += 1

    def test_antipodal_selection_raises(self):
        with pytest.raises(OrthogonalSelection):
            projector_weak_value_geometric(EZ, EX, -EZ)

    @pytest.mark.parametrize("i, r, f", [(-EZ, EZ, EX), (EX, EZ, -EZ)],
                             ids=["r-antipodal-to-i", "r-antipodal-to-f"])
    def test_zero_value(self, i, r, f):
        # <r|i> = 0 or <f|r> = 0: the triangle has no area, the value is 0.
        direct = projector_weak_value_direct(bloch_to_qubit(i), bloch_to_qubit(r),
                                             bloch_to_qubit(f))
        assert direct.modulus == 0.0
        value, breakdown = projector_weak_value_geometric(i, r, f)
        assert (value.modulus, value.argument) == (0.0, 0.0)
        (factor,) = breakdown.factors
        assert (factor.modulus_ratio, factor.solid_angle) == (0.0, 0.0)

    def test_other_undefined_triangle_raises(self):
        # i a hair from -r and f = r: modulus 1, degenerate triangle.
        delta = 1e-7
        i = np.array([math.sin(delta), 0.0, -math.cos(delta)])
        with pytest.raises(UndefinedSolidAngle):
            projector_weak_value_geometric(i, EZ, EZ)

    def test_complementary_projectors(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            i, r, f = (random_bloch(rng) for _ in range(3))
            plus, _ = projector_weak_value_geometric(i, r, f)
            minus, _ = projector_weak_value_geometric(i, -r, f)
            assert abs(plus.rect + minus.rect - 1.0) <= 1e-10

    def test_argument_odd_under_swap(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            i, r, f = (random_bloch(rng) for _ in range(3))
            fwd, _ = projector_weak_value_geometric(i, r, f)
            rev, _ = projector_weak_value_geometric(f, r, i)
            assert ang_dist(fwd.argument, -rev.argument) <= 1e-10


class TestModularValueDirect:
    def test_identity_evolution(self):
        rng = np.random.default_rng(6)
        qi, qf = random_qubit(rng), random_qubit(rng)
        spec = QubitModularSpec(axis=random_bloch(rng), alpha=0.0, beta=0.0)
        assert polar_close(modular_value_direct(qi, spec, qf), 1.0 + 0.0j)

    def test_full_turn_gives_minus_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            qi, qf = random_qubit(rng), random_qubit(rng)
            if abs(np.vdot(qf, qi)) < 1e-3:
                continue
            spec = QubitModularSpec(axis=random_bloch(rng), alpha=2 * math.pi, beta=0.0)
            assert polar_close(modular_value_direct(qi, spec, qf), -1.0 + 0.0j)

    def test_pi_pi_equals_spin_weak_value(self):
        sigma = (np.array([[0, 1], [1, 0]], dtype=complex),
                 np.array([[0, -1j], [1j, 0]], dtype=complex),
                 np.array([[1, 0], [0, -1]], dtype=complex))
        rng = np.random.default_rng(8)
        for _ in range(100):
            qi, qf = random_qubit(rng), random_qubit(rng)
            if abs(np.vdot(qf, qi)) < 1e-6:
                continue
            r = random_bloch(rng)
            spec = QubitModularSpec(axis=r, alpha=math.pi, beta=math.pi)
            sr = sum(c * p for c, p in zip(r, sigma))
            expected = np.vdot(qf, sr @ qi) / np.vdot(qf, qi)
            assert abs(modular_value_direct(qi, spec, qf).rect - expected) <= 1e-12

    def test_closed_form_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            qi, qf = random_qubit(rng), random_qubit(rng)
            if abs(np.vdot(qf, qi)) < 1e-6:
                continue
            spec = QubitModularSpec(axis=random_bloch(rng),
                                    alpha=rng.uniform(-2 * math.pi, 2 * math.pi),
                                    beta=rng.uniform(-2 * math.pi, 2 * math.pi))
            expected = qubit_modular_closed_form(bloch_of(qi), spec.axis, bloch_of(qf),
                                                 spec.alpha, spec.beta)
            got = modular_value_direct(qi, spec, qf).rect
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


class TestModularValueGeometric:
    def test_alpha_zero(self):
        rng = np.random.default_rng(10)
        i, f = random_bloch(rng), random_bloch(rng)
        beta = 1.234
        spec = QubitModularSpec(axis=random_bloch(rng), alpha=0.0, beta=beta)
        value, breakdown = modular_value_geometric(i, spec, f)
        assert value.modulus == pytest.approx(1.0, abs=1e-12)
        assert ang_dist(value.argument, beta / 2) <= 1e-10
        assert breakdown.dynamical_phase == pytest.approx(beta / 2)

    def test_full_turns_cancel(self):
        rng = np.random.default_rng(11)
        i, f = random_bloch(rng), random_bloch(rng)
        spec = QubitModularSpec(axis=random_bloch(rng), alpha=2 * math.pi,
                                beta=2 * math.pi)
        value, breakdown = modular_value_geometric(i, spec, f)
        assert abs(value.rect - 1.0) <= 1e-10
        assert abs(breakdown.dynamical_phase) <= 1e-12
        assert abs(breakdown.factors[0].solid_angle) <= 1e-10

    def test_against_direct_oracle(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 1000:
            qi, qf = random_qubit(rng), random_qubit(rng)
            if abs(np.vdot(qf, qi)) < 1e-6:
                continue
            spec = QubitModularSpec(axis=random_bloch(rng),
                                    alpha=rng.uniform(-2 * math.pi, 2 * math.pi),
                                    beta=rng.uniform(-2 * math.pi, 2 * math.pi))
            expected = modular_value_direct(qi, spec, qf).rect
            value, _ = modular_value_geometric(bloch_of(qi), spec, bloch_of(qf))
            assert abs(value.rect - expected) <= 1e-10 * max(1.0, abs(expected))
            checked += 1

    def test_breakdown_recombines(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            spec = QubitModularSpec(axis=random_bloch(rng),
                                    alpha=rng.uniform(-6, 6), beta=rng.uniform(-6, 6))
            value, br = modular_value_geometric(random_bloch(rng), spec,
                                                random_bloch(rng))
            assert abs(br.modulus - value.modulus) <= 1e-12
            assert ang_dist(br.raw_argument, value.argument) <= 1e-12

    def test_zero_value_when_s_antipodal_to_f(self):
        # +z turned by pi about +x lands on -z, antipodal to f = +z: the
        # quadrangle has no area, but the modulus and the value are 0.
        spec = QubitModularSpec(axis=EX, alpha=math.pi)
        direct = modular_value_direct(KET0, spec, KET0)
        assert direct.modulus <= 1e-16
        value, breakdown = modular_value_geometric(EZ, spec, EZ)
        assert (value.modulus, value.argument, value.unwrapped_argument) == (0.0, 0.0, 0.0)
        (factor,) = breakdown.factors
        assert (factor.modulus_ratio, factor.solid_angle) == (0.0, 0.0)

    def test_near_antipodal_s_still_raises(self):
        # s a hair from -f: the modulus is not 0, so the degenerate
        # quadrangle is refused, as for weak values.
        spec = QubitModularSpec(axis=EX, alpha=math.pi - 1e-7)
        with pytest.raises(UndefinedSolidAngle):
            modular_value_geometric(EZ, spec, EZ)


class TestDerivativeRelation:
    def test_spin_observable(self):
        # j * dA_m/dtheta at zero strength reproduces the weak value
        sigma = (np.array([[0, 1], [1, 0]], dtype=complex),
                 np.array([[0, -1j], [1j, 0]], dtype=complex),
                 np.array([[1, 0], [0, -1]], dtype=complex))
        rng = np.random.default_rng(14)
        for _ in range(100):
            qi, qf = random_qubit(rng), random_qubit(rng)
            if abs(np.vdot(qf, qi)) < 1e-3:
                continue
            r = random_bloch(rng)
            sr = sum(c * p for c, p in zip(r, sigma))
            expected = np.vdot(qf, sr @ qi) / np.vdot(qf, qi)
            derived = weak_value_from_modular_derivative(qi, sr, qf, h=1e-5)
            assert abs(derived - expected) <= 1e-6

    @pytest.mark.parametrize("h", [0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_step_must_be_finite_and_non_zero(self, h):
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        qi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        with pytest.raises(ValueError, match="^h must be finite and non-zero$"):
            weak_value_from_modular_derivative(qi, sz, qi, h=h)

    def test_observable_decomposition_round_trip(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = 0.5 * (m + m.conj().T)
            theta = rng.uniform(-2, 2)
            spec = observable_to_modular_spec(a, theta)
            qi, qf = random_qubit(rng), random_qubit(rng)
            if abs(np.vdot(qf, qi)) < 1e-6:
                continue
            evals, evecs = np.linalg.eigh(a)
            u = (evecs * np.exp(-1j * theta * evals)) @ evecs.conj().T
            expected = np.vdot(qf, u @ qi) / np.vdot(qf, qi)
            got = modular_value_direct(qi, spec, qf).rect
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


def test_geometric_accepts_states_via_vectors():
    # the two routes describe the same physics through different carriers
    rng = np.random.default_rng(16)
    qi, qr, qf = random_qubit(rng), random_qubit(rng), random_qubit(rng)
    direct = projector_weak_value_direct(qi, qr, qf)
    value, _ = projector_weak_value_geometric(
        qubit_to_bloch(qi), qubit_to_bloch(qr), qubit_to_bloch(qf))
    assert abs(direct.rect - value.rect) <= 1e-10
    back = bloch_to_qubit(qubit_to_bloch(qi))
    assert abs(np.vdot(back, qi)) >= 1.0 - 1e-10


class TestValidatedOnce:
    """The geometric routes pass each caller vector through ``as_bloch``'s
    check, ``_bloch_vector``, once."""

    @pytest.fixture
    def bloch_calls(self, monkeypatch):
        calls = []
        original = majgeom.bloch._bloch_vector

        def counting(vec, **kwargs):
            calls.append(tuple(vec))
            return original(vec, **kwargs)

        for module in (majgeom.bloch, majgeom.qubit_values):
            monkeypatch.setattr(module, "_bloch_vector", counting)
        return calls

    def test_weak_value(self, bloch_calls):
        rng = np.random.default_rng(30)
        i, r, f = (random_bloch(rng) for _ in range(3))
        value, _ = projector_weak_value_geometric(i, r, f)
        assert bloch_calls == [tuple(i), tuple(r), tuple(f)]
        expected = qubit_weak_value_rect(bloch_to_qubit(i), bloch_to_qubit(r), bloch_to_qubit(f))
        assert polar_close(value, expected)

    def test_modular_value(self, bloch_calls):
        rng = np.random.default_rng(31)
        i, axis, f = (random_bloch(rng) for _ in range(3))
        spec = QubitModularSpec(axis=axis, alpha=1.3, beta=0.4)
        bloch_calls.clear()  # the spec validated its axis when it was built
        value, _ = modular_value_geometric(i, spec, f)
        assert bloch_calls == [tuple(i), tuple(f)]
        expected = modular_value_direct(bloch_to_qubit(i), spec, bloch_to_qubit(f))
        assert polar_close(value, expected.rect)


coordinate = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def near_unit_vectors(draw):
    """Unit vectors with norms off 1 by less than the validation slack, the
    poles over-represented."""
    v = np.array([draw(coordinate), draw(coordinate), draw(st.sampled_from([-1.0, 1.0]))
                  if draw(st.integers(0, 4)) == 0 else draw(coordinate)])
    norm = float(np.linalg.norm(v))
    if norm < 1e-3:
        v, norm = EZ, 1.0
    return v / norm * (1.0 + draw(st.floats(-1e-9, 1e-9)))


def outcome(fn, *args, **kwargs):
    """``fn``'s value and breakdown, or its error type and message."""
    try:
        return fn(*args, **kwargs)
    except (OrthogonalSelection, UndefinedSolidAngle) as exc:
        return type(exc), str(exc)


def breakdown_bits(breakdown):
    return (breakdown.dynamical_phase, breakdown.k_ratio,
            [(f.modulus_ratio, f.solid_angle, f.i_point.tobytes(),
              None if f.s_point is None else f.s_point.tobytes()) for f in breakdown.factors])


class TestOnePointCase:
    """The qubit geometric routes are the m = 1 case of the factored N-level cores."""

    SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                        suppress_health_check=[HealthCheck.too_slow])

    @SETTINGS
    @given(i=near_unit_vectors(), r=near_unit_vectors(), f=near_unit_vectors())
    def test_weak_value_is_bit_for_bit_the_factored_value(self, i, r, f):
        qubit = outcome(projector_weak_value_geometric, i, r, f)
        factored = outcome(factored_weak_value, [i], r, f)
        if isinstance(qubit[0], type):
            assert qubit == factored
            return
        assert qubit[0] == factored[0]
        assert breakdown_bits(qubit[1]) == breakdown_bits(factored[1])

    @SETTINGS
    @given(i=near_unit_vectors(), axis=near_unit_vectors(), f=near_unit_vectors(),
           alpha=st.floats(-7.0, 7.0), beta=st.floats(-7.0, 7.0))
    def test_modular_value_matches_the_factored_value(self, i, axis, f, alpha, beta):
        spec = QubitModularSpec(axis=axis, alpha=alpha, beta=beta)
        qubit = outcome(modular_value_geometric, i, spec, f)
        factored = outcome(factored_modular_value, [i], [rodrigues_rotate(i, axis, alpha)],
                           axis, f, alpha=alpha, beta=beta / 2, eigenvalue=1.0)
        if isinstance(qubit[0], type):
            assert qubit == factored
            return
        expected = factored[0].rect
        assert abs(qubit[0].rect - expected) <= 1e-12 * max(1.0, abs(expected))


class TestLargeRotationAngle:
    """The dynamical phase reduces alpha/2 and beta/2 each on its own, as the
    direct route's exponentials do, so the routes keep the 1e-9 contract
    however large alpha is; beta/2 - alpha/2 as one float missed by 6.9e-9
    at alpha = 1e8."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(alpha=st.floats(-1e12, 1e12), beta=st.floats(-math.pi, math.pi),
           seed=st.integers(0, 2**32 - 1))
    def test_routes_agree(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        qi, qf = random_qubit(rng), random_qubit(rng)
        assume(abs(np.vdot(qf, qi)) >= 1e-2)
        spec = QubitModularSpec(axis=random_bloch(rng), alpha=alpha, beta=beta)
        expected = modular_value_direct(qi, spec, qf).rect
        value, _ = modular_value_geometric(bloch_of(qi), spec, bloch_of(qf))
        assert abs(value.rect - expected) <= 1e-9 * max(1.0, abs(expected))


class TestNonFiniteSpec:
    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            QubitModularSpec(axis=EZ, **{field: bad})

    def test_huge_angles_answer_where_direct_does(self):
        # (beta - alpha)/2 would overflow; beta/2 and alpha/2 are each reduced
        # exactly, as the direct route reduces them.
        spec = QubitModularSpec(axis=EZ, alpha=-1e308, beta=1e308)
        value, breakdown = modular_value_geometric(EX, spec, EY)
        direct = modular_value_direct(bloch_to_qubit(EX), spec, bloch_to_qubit(EY))
        assert abs(breakdown.dynamical_phase) <= math.pi
        assert abs(value.rect - direct.rect) <= 1e-9 * max(1.0, abs(direct.rect))
