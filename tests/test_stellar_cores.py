"""The check-free stellar cores against the validating functions they serve.

``numerics._polynomial_roots`` must give the roots that ``solve_polynomial``
gave when it called ``np.roots``, and ``majorana._symmetrized`` of validated
rows the K and state of ``normalization_factor`` and ``symmetrize``, bit for
bit.  The public shells must still raise the same errors, in the same order.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_bloch, random_state
from majgeom.bloch import as_bloch_array
from majgeom.errors import AllCoefficientsZero
from majgeom.majorana import (
    MAX_LEVELS,
    _binomial_weights,
    _symmetrized,
    majorana_points,
    normalization_factor,
    symmetrize,
)
from majgeom.nlevel_values import (
    _permutation_table,
    factored_modular_value,
    factored_weak_value,
    pair_points,
)
from majgeom.numerics import (
    DEFAULT_TOL,
    _polynomial_roots,
    _quadratic_roots,
    canonical_gauge,
    solve_polynomial,
)

CORE_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[HealthCheck.too_slow])
NORTH = [0.0, 0.0, 1.0]
EAST = [1.0, 0.0, 0.0]


def reference_roots(c, tol=DEFAULT_TOL):
    """``solve_polynomial`` as written over ``np.roots``, returning Python
    complexes and ``None`` for roots at infinity."""
    mags = np.abs(c)
    if np.all(mags <= tol.zero):
        raise AllCoefficientsZero("every polynomial coefficient is below tolerance")
    n_inf = 0
    while mags[c.size - 1 - n_inf] <= tol.zero:
        n_inf += 1
    work = c[: c.size - n_inf]
    d = work.size - 1
    finite = []
    if d == 1:
        finite = [complex(-work[0] / work[1])]
    elif d == 2:
        finite = [complex(z) for z in _quadratic_roots(work[0], work[1], work[2])]
    elif d >= 3:
        finite = [complex(z) for z in np.roots(work[::-1])]
    return finite + [None] * n_inf


def bits(roots):
    """Roots as exact bit patterns, zero signs included."""
    return [None if z is None else (z.real.hex(), z.imag.hex()) for z in roots]


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except AllCoefficientsZero as exc:
        return ("raised", str(exc))


def basis_coefficients(n, k, top_weight=0.0):
    """Stellar coefficients of ``|k> + top_weight |N-1>``, normalized."""
    state = np.zeros(n, dtype=complex)
    state[k] = 1.0
    state[-1] += top_weight
    return _binomial_weights(n - 1) * (state / np.linalg.norm(state))


# --- strategies --------------------------------------------------------------

parts = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
small = st.sampled_from([0.0, -0.0, DEFAULT_TOL.zero, 0.5 * DEFAULT_TOL.zero, 1e-300,
                         -DEFAULT_TOL.zero])


@st.composite
def biased_coefficients(draw):
    """Complex coefficients, lowest degree first, for N = 2..MAX_LEVELS, with
    runs of exact-zero constant terms, top coefficients at or below
    ``tol.zero`` and scattered exact zeros between them."""
    size = draw(st.integers(2, MAX_LEVELS))
    low_zeros = draw(st.integers(0, size - 1))
    tiny_tops = draw(st.integers(0, size - 1))
    coeffs = []
    for k in range(size):
        if k < low_zeros:
            coeffs.append(complex(0.0, draw(st.sampled_from([0.0, -0.0]))))
        elif k >= size - tiny_tops:
            coeffs.append(complex(draw(small), draw(small)))
        elif draw(st.integers(0, 4)) == 0:
            coeffs.append(0j)
        else:
            coeffs.append(complex(draw(parts), draw(parts)))
    return np.array(coeffs, dtype=complex)


basis_states = st.integers(2, MAX_LEVELS).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1),
                        st.sampled_from([0.0, 0.5, 1e-13])))

coefficient_draws = st.one_of(biased_coefficients(),
                              basis_states.map(lambda case: basis_coefficients(*case)))


@st.composite
def unit_rows(draw):
    """1..MAX_LEVELS-1 Bloch points: random, polar, near the south pole, with
    norms off 1 by less than the validation slack."""
    m = draw(st.integers(1, MAX_LEVELS - 1))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["random", "random", "north", "south", "near-south"]))
        if kind == "random":
            v = np.array([draw(parts), draw(parts), draw(parts)])
            if not np.linalg.norm(v) > 1e-3:
                v = np.array(EAST)
            v = v / np.linalg.norm(v)
        elif kind == "north":
            v = np.array(NORTH)
        elif kind == "south":
            v = np.array([0.0, 0.0, -1.0])
        else:
            t = draw(st.sampled_from([1e-8, 1e-12, 1e-160]))
            v = np.array([math.sin(t), 0.0, -math.cos(t)])
        rows.append(v * (1.0 + draw(st.floats(-1e-9, 1e-9))))
    return np.array(rows)


# --- the cores ---------------------------------------------------------------

class TestPolynomialRootsCore:
    @CORE_SETTINGS
    @given(coefficient_draws)
    def test_matches_np_roots_reference(self, c):
        expected = outcome(reference_roots, c)
        assert outcome(_polynomial_roots, c, DEFAULT_TOL) == expected
        assert outcome(lambda c: [r.value for r in solve_polynomial(c)], c) == expected

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_every_basis_state(self, n):
        for k in range(n):
            for top_weight in (0.0, 0.5):
                c = basis_coefficients(n, k, top_weight)
                assert bits(_polynomial_roots(c, DEFAULT_TOL)) == bits(reference_roots(c))

    def test_top_basis_state_has_zero_roots_only(self):
        c = basis_coefficients(MAX_LEVELS, MAX_LEVELS - 1)
        assert bits(_polynomial_roots(c, DEFAULT_TOL)) == bits([0j] * (MAX_LEVELS - 1))


class TestSymmetrizedCore:
    @CORE_SETTINGS
    @given(unit_rows())
    def test_matches_validating_functions(self, pts):
        state, k = _symmetrized(as_bloch_array(pts))
        assert np.float64(k).tobytes() == np.float64(normalization_factor(pts)).tobytes()
        public_state, public_k = symmetrize(pts)
        assert np.float64(k).tobytes() == np.float64(public_k).tobytes()
        assert canonical_gauge(state).tobytes() == public_state.tobytes()

    @pytest.mark.parametrize("n", range(2, MAX_LEVELS + 1))
    def test_majorana_points_k_is_that_of_its_points(self, n):
        rng = np.random.default_rng(400 + n)
        states = [random_state(rng, n) for _ in range(20)]
        states += [np.eye(n)[k] for k in range(n)]
        for psi in states:
            rep = majorana_points(psi)
            assert np.float64(rep.normalization).tobytes() == \
                np.float64(normalization_factor(rep.points)).tobytes()


# --- errors of the public shells ---------------------------------------------

def points(rng, m, scale=1.0):
    return np.array([random_bloch(rng) for _ in range(m)]) * scale


def message(fn, *args, **kwargs):
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def modular(i_pts, s_pts, r=NORTH, f=EAST):
    return message(factored_modular_value, i_pts, s_pts, r, f,
                   alpha=0.5, beta=0.1, eigenvalue=1.0)


NORM_MESSAGE = "Bloch vector norm {:.6f} deviates from 1 beyond 1e-08"
SHAPE_MESSAGE = "expected an (m, 3) array of Bloch points"


class TestFactoredModularValueErrors:
    def test_bad_s_set(self):
        rng = np.random.default_rng(410)
        assert modular(points(rng, 3), points(rng, 3, 2.0)) == \
            (ValueError, NORM_MESSAGE.format(2.0))

    def test_bad_i_set(self):
        rng = np.random.default_rng(411)
        assert modular(points(rng, 3, 1.5), points(rng, 3)) == \
            (ValueError, NORM_MESSAGE.format(1.5))

    def test_both_bad_reports_s_first(self):
        rng = np.random.default_rng(412)
        assert modular(points(rng, 3, 1.5), points(rng, 3, 2.0)) == \
            (ValueError, NORM_MESSAGE.format(2.0))

    def test_point_sets_before_r_and_f(self):
        rng = np.random.default_rng(413)
        assert modular(points(rng, 2, 1.5), points(rng, 2), r=[0.0, 0.0, 3.0]) == \
            (ValueError, NORM_MESSAGE.format(1.5))
        assert modular(points(rng, 2), points(rng, 2), r=[0.0, 0.0, 3.0], f=[np.nan, 0, 1]) == \
            (ValueError, NORM_MESSAGE.format(3.0))

    def test_non_finite_s_set(self):
        rng = np.random.default_rng(414)
        s_pts = points(rng, 2)
        s_pts[1, 0] = np.nan
        assert modular(points(rng, 2, 1.5), s_pts) == \
            (ValueError, "Bloch vector must be finite")

    def test_mismatched_shapes(self):
        rng = np.random.default_rng(415)
        assert modular(points(rng, 2, 1.5), points(rng, 3, 2.0)) == \
            (ValueError, "point sets must have matching shapes")

    @pytest.mark.parametrize("shape", [(0, 3), (2, 4)])
    def test_wrong_point_shape(self, shape):
        assert modular(np.zeros(shape), np.zeros(shape)) == (ValueError, SHAPE_MESSAGE)


class TestPointSetShapeErrors:
    @pytest.mark.parametrize("bad", [np.zeros((0, 3)), np.zeros(3), np.zeros((2, 2)),
                                     np.zeros((1, 2, 3)), [[5.0, 0.0, 0.0, 0.0]]])
    def test_normalization_factor(self, bad):
        assert message(normalization_factor, bad) == (ValueError, SHAPE_MESSAGE)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2)), np.zeros((1, 2, 3)),
                                     [[5.0, 0.0, 0.0, 0.0]]])
    def test_symmetrize(self, bad):
        assert message(symmetrize, bad) == (ValueError, SHAPE_MESSAGE)

    @pytest.mark.parametrize("count", [0, MAX_LEVELS])
    def test_symmetrize_point_count(self, count):
        assert message(symmetrize, np.full((count, 3), 5.0)) == \
            (ValueError, f"point count must lie in [1, {MAX_LEVELS - 1}]")

    def test_norms_checked_after_shape(self):
        for fn in (normalization_factor, symmetrize):
            assert message(fn, [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]) == \
                (ValueError, NORM_MESSAGE.format(2.0))
            assert message(fn, [[0.0, 0.0, 2.0], [0.0, np.inf, 1.0]]) == \
                (ValueError, "Bloch vector must be finite")


class TestPointCountBound:
    """Every ``(m, 3)`` entry point takes 1 <= m <= MAX_LEVELS - 1 points and
    refuses any other m before m!-sized work: m = 0 fails the shape check,
    m = MAX_LEVELS the count check, both ahead of the row norms."""

    CALLS = {
        "factored_weak_value": lambda pts: factored_weak_value(pts, NORTH, EAST),
        "factored_modular_value": lambda pts: factored_modular_value(
            pts, pts, NORTH, EAST, alpha=0.5, beta=0.1, eigenvalue=1.0),
        "normalization_factor": normalization_factor,
        "pair_points": lambda pts: pair_points(pts, pts),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("count, expected", [
        (0, SHAPE_MESSAGE), (MAX_LEVELS, f"point count must lie in [1, {MAX_LEVELS - 1}]")])
    @pytest.mark.parametrize("norm", [1.0, 5.0])
    def test_out_of_range_count(self, name, count, expected, norm):
        tables = _permutation_table.cache_info().currsize
        assert message(self.CALLS[name], np.tile([0.0, 0.0, norm], (count, 1))) == \
            (ValueError, expected)
        assert _permutation_table.cache_info().currsize == tables

    def test_factored_weak_value_column_count(self):
        assert message(factored_weak_value, np.zeros((2, 4)), NORTH, EAST) == \
            (ValueError, SHAPE_MESSAGE)


class TestSolvePolynomialErrors:
    @pytest.mark.parametrize("coeffs", [[np.nan, 1.0], [1.0, np.inf, 0.0],
                                        [complex(0.0, np.nan), 0.0], [np.nan, 0.0]])
    def test_non_finite(self, coeffs):
        assert message(solve_polynomial, coeffs) == (ValueError, "coefficients must be finite")

    @pytest.mark.parametrize("coeffs", [[0.0], [0.0, 0.0], [1e-13, 0.0, -1e-12],
                                        [0.0] * MAX_LEVELS])
    def test_all_zero(self, coeffs):
        assert message(solve_polynomial, coeffs) == \
            (AllCoefficientsZero, "every polynomial coefficient is below tolerance")

    @pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0]]])
    def test_shape(self, coeffs):
        assert message(solve_polynomial, coeffs) == \
            (ValueError, "coefficients must form a non-empty 1-d sequence")
