import importlib
import inspect
import math
import pkgutil
import types
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    evaluate_polynomial,
    random_hermitian,
    random_spin1_operator,
    random_state,
    reference_canonical_gauge,
    reference_column_gauge,
    unitarity_defect,
)
import majgeom
from majgeom.errors import AllCoefficientsZero, NotHermitian, PreconditionViolated
from majgeom.numerics import (
    Tolerances,
    canonical_gauge,
    cayley_hamilton_exp_spin1,
    eig_hermitian,
    hermiticity_defect,
    principal_angle,
    solve_polynomial,
    unitary_exp,
)

SQ2 = math.sqrt(2.0)


def infinite_count(roots):
    return sum(r.is_infinite for r in roots)


class TestSolvePolynomial:
    def test_qutrit_basis_state_zero(self):
        # coefficient vector of the |0> qutrit polynomial: constant only
        roots = solve_polynomial([1 / SQ2, 0, 0])
        assert len(roots) == 2 and infinite_count(roots) == 2

    def test_qutrit_basis_state_one(self):
        roots = solve_polynomial([0, -1, 0])
        assert len(roots) == 2 and infinite_count(roots) == 1
        finite = [r for r in roots if not r.is_infinite]
        assert abs(finite[0].value) < 1e-12

    def test_qutrit_basis_state_two(self):
        roots = solve_polynomial([0, 0, 1 / SQ2])
        assert len(roots) == 2 and infinite_count(roots) == 0
        assert all(abs(r.value) < 1e-12 for r in roots)

    def test_all_zero_raises(self):
        with pytest.raises(AllCoefficientsZero):
            solve_polynomial([0.0, 1e-15, 0.0])

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 7])
    def test_random_residuals(self, degree):
        rng = np.random.default_rng(100 + degree)
        for _ in range(50):
            coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
            roots = solve_polynomial(coeffs)
            assert len(roots) == degree
            scale = np.abs(coeffs).sum()
            for r in roots:
                assert not r.is_infinite
                value = evaluate_polynomial(coeffs, r.value)
                local = sum(abs(c) * abs(r.value) ** k for k, c in enumerate(coeffs))
                assert abs(value) <= 1e-9 * max(scale, local)

    def test_reexpansion_reproduces_coefficients(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            degree = int(rng.integers(1, 8))
            n_inf = int(rng.integers(0, min(3, degree) + 1))
            coeffs = rng.normal(size=degree + 1 - n_inf) \
                + 1j * rng.normal(size=degree + 1 - n_inf)
            coeffs = np.concatenate([coeffs, np.zeros(n_inf)])
            roots = solve_polynomial(coeffs)
            assert infinite_count(roots) == n_inf
            rebuilt = np.array([1.0 + 0.0j])
            for r in roots:
                if not r.is_infinite:
                    rebuilt = np.convolve(rebuilt, [-r.value, 1.0])
            rebuilt = np.concatenate([rebuilt, np.zeros(n_inf)])
            lead = coeffs[degree - n_inf]
            assert np.max(np.abs(coeffs - lead * rebuilt)) <= 1e-9 * np.abs(coeffs).max()


class TestEigHermitian:
    def test_pauli_z_spectrum(self):
        evals, _ = eig_hermitian(np.diag([1.0, -1.0]))
        assert np.allclose(evals, [-1.0, 1.0])

    def test_spin1_spectra(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            evals, _ = eig_hermitian(random_spin1_operator(rng))
            assert np.max(np.abs(evals - np.array([-1.0, 0.0, 1.0]))) <= 1e-9

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            h = random_hermitian(rng, 3)
            evals, vecs = eig_hermitian(h)
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(3))) <= 1e-10
            rebuilt = (vecs * evals) @ vecs.conj().T
            assert np.max(np.abs(rebuilt - h)) <= 1e-9
            for k in range(3):
                assert np.max(np.abs(h @ vecs[:, k] - evals[k] * vecs[:, k])) <= 1e-9

    def test_gauge_fix(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            _, vecs = eig_hermitian(random_hermitian(rng, 3))
            for k in range(3):
                col = vecs[:, k]
                first = next(c for c in col if abs(c) > 1e-12)
                assert first.real > 0 and abs(first.imag) <= 1e-12

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_entry(self, bad):
        matrix = np.eye(2, dtype=complex)
        matrix[0, 0] = bad
        with pytest.raises(NotHermitian):
            eig_hermitian(matrix)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, complex(math.inf, math.inf)])
    def test_inf_entry_defect_not_finite_without_warning(self, bad):
        matrix = np.eye(2, dtype=complex)
        matrix[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not math.isfinite(hermiticity_defect(matrix))


    @pytest.mark.parametrize("matrix, spectrum", [
        ([[1e308, 1e308], [1e308, -1e308]], [-SQ2, SQ2]),
        ([[1e308, 0.5e308 + 0.5e308j, 0.0], [0.5e308 - 0.5e308j, -1e308, 0.0],
          [0.0, 0.0, 1.5e308]], [-math.sqrt(1.5), math.sqrt(1.5), 1.5]),
        ([[-1.2e308, 0.0], [0.0, 1.7e308]], [-1.2, 1.7]),
    ])
    def test_entries_near_the_largest_float(self, matrix, spectrum):
        # The symmetrization halves before it sums, so A + A^H cannot overflow.
        a = np.array(matrix, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evals, vecs = eig_hermitian(a)
        assert (evals / 1e308).tolist() == pytest.approx(spectrum, rel=1e-14)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(a)))) <= 1e-14


class TestUnitaryExp:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 3)
        assert np.max(np.abs(unitary_exp(h, 0.0, 0.0) - np.eye(3))) <= 1e-12

    def test_half_turn_is_minus_j_sigma(self):
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        u = unitary_exp(sigma_x, 0.0, math.pi / 2)
        assert np.max(np.abs(u - (-1j) * sigma_x)) <= 1e-12
        assert unitarity_defect(unitary_exp(sigma_x, 0.0, math.pi)) <= 1e-10

    def test_inverse_property(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            h = random_hermitian(rng, int(rng.integers(2, 5)))
            beta = rng.uniform(-3, 3)
            s = rng.uniform(-3, 3)
            prod = unitary_exp(h, beta, s) @ unitary_exp(h, -beta, -s)
            assert np.max(np.abs(prod - np.eye(h.shape[0]))) <= 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            u = unitary_exp(random_hermitian(rng, 3), rng.uniform(-3, 3),
                            rng.uniform(-3, 3))
            assert unitarity_defect(u) <= 1e-10


class TestCayleyHamilton:
    def test_alpha_zero_and_two_pi(self):
        rng = np.random.default_rng(11)
        lam = random_spin1_operator(rng)
        assert np.max(np.abs(cayley_hamilton_exp_spin1(lam, 0.0) - np.eye(3))) <= 1e-12
        assert np.max(np.abs(cayley_hamilton_exp_spin1(lam, 2 * math.pi)
                             - np.eye(3))) <= 1e-12

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            lam = random_spin1_operator(rng)
            alpha = rng.uniform(-2 * math.pi, 2 * math.pi)
            direct = cayley_hamilton_exp_spin1(lam, alpha)
            assert unitarity_defect(direct) <= 1e-10
            via_eig = unitary_exp(lam, 0.0, alpha)
            assert np.max(np.abs(direct - via_eig)) <= 1e-10

    def test_precondition_messages(self):
        with pytest.raises(PreconditionViolated, match="trace"):
            cayley_hamilton_exp_spin1(np.eye(3), 0.5)
        with pytest.raises(PreconditionViolated, match="second-moment"):
            cayley_hamilton_exp_spin1(np.diag([1.0, 0.0, -1.0]) * 2, 0.5)
        with pytest.raises(PreconditionViolated, match="determinant"):
            bad = np.diag([2.0, -1.0, -1.0]) / math.sqrt(3.0)
            cayley_hamilton_exp_spin1(bad, 0.5)


def test_principal_angle_range():
    for a in np.linspace(-20, 20, 401):
        w = principal_angle(a)
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(a - w, 2 * math.pi)) <= 1e-12


def test_canonical_gauge_first_component():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5):
        for _ in range(20):
            v = canonical_gauge(random_state(rng, n))
            first = next(c for c in v if abs(c) > 1e-12)
            assert first.real > 0 and abs(first.imag) <= 1e-12


def test_tolerances_defaults():
    tol = Tolerances()
    assert tol.comparison == 1e-9
    assert tol.unitarity == 1e-10
    assert tol.zero == 1e-12


@pytest.mark.parametrize("field", ["comparison", "unitarity", "zero", "orthogonality"])
@pytest.mark.parametrize("bad", [-1e-12, -1.0, math.nan, math.inf])
def test_tolerances_reject_negative_and_non_finite(field, bad):
    with pytest.raises(ValueError, match=f"^tolerance {field} must be finite and non-negative$"):
        Tolerances(**{field: bad})
    assert getattr(Tolerances(**{field: 0.0}), field) == 0.0


def package_callables():
    """``(qualified name, function)`` for every function and method defined in
    a ``majgeom`` module, constructors (``__init__``) included."""
    for info in pkgutil.iter_modules(majgeom.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"majgeom.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class/static methods
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


class TestThresholdsAreConstants:
    """The library reads its thresholds from ``DEFAULT_TOL``: no signature
    takes a ``Tolerances`` or one of its fields, the CLI's included.  Only
    ``cli.run`` holds the record that ``MAJGEOM_TOL`` may change."""

    def test_no_public_tol_parameter(self):
        public = [(name, fn) for name, fn in package_callables()
                  if not any(part.startswith("_") and not part.endswith("__")
                             for part in name.split("."))]
        assert {"numerics.solve_polynomial",
                "nlevel_values.GellMannDirection.from_operator"} <= dict(public).keys()
        assert [name for name, fn in public if "tol" in inspect.signature(fn).parameters] == []

    def test_no_threshold_parameter(self):
        thresholds = {"tol", *(field.name for field in fields(Tolerances))}
        offenders = [name for name, fn in package_callables()
                     if not name.startswith("numerics.Tolerances")
                     and thresholds & set(inspect.signature(fn).parameters)]
        assert offenders == []


ZERO = Tolerances().zero
# Real and imaginary parts that put a modulus below, at and just above ZERO.
GAUGE_EDGES = (0.0, -0.0, 0.5 * ZERO, ZERO, -ZERO, float(np.nextafter(ZERO, 1.0)),
               0.7 * ZERO, 2.0 * ZERO)
gauge_part = st.one_of(st.sampled_from(GAUGE_EDGES),
                       st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))
gauge_entry = st.builds(complex, gauge_part, gauge_part)


@st.composite
def gauge_vectors(draw, size=None):
    """Edge-sized and ordinary entries, then (maybe) an all-zero tail."""
    n = draw(st.integers(1, 8)) if size is None else size
    entries = draw(st.lists(gauge_entry, min_size=n, max_size=n))
    tail = draw(st.integers(0, n))
    return np.array(entries[:tail] + [0j] * (n - tail), dtype=complex)


class TestGaugeMatchesReference:
    """The gauge loops find the leading entry over Python complexes and write
    the phase out; the per-entry numpy-scalar loops they replaced are the
    reference, bit for bit."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(gauge_vectors())
    def test_canonical_gauge(self, vec):
        assert canonical_gauge(vec).tobytes() == reference_canonical_gauge(vec, ZERO).tobytes()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 5).flatmap(
        lambda n: st.lists(gauge_vectors(n), min_size=n, max_size=n)))
    def test_eig_hermitian_columns(self, rows):
        m = np.array(rows)
        m = m + m.conj().T
        _, evecs = eig_hermitian(m)
        _, raw = np.linalg.eigh(0.5 * m + 0.5 * m.conj().T)  # as _eigh symmetrizes
        assert evecs.tobytes() == reference_column_gauge(raw, ZERO).tobytes()

    def test_random_states(self):
        rng = np.random.default_rng(14)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            v = random_state(rng, n) * 10.0 ** rng.uniform(-14, 2)
            assert canonical_gauge(v).tobytes() == reference_canonical_gauge(v).tobytes()


# Entries with exact (and signed) zeros among ordinary values.
lapack_part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0, allow_nan=False))
LAPACK_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def stellar_coefficients(draw):
    """The stellar polynomial of an N = 4..8 state whose top coefficient is
    above ``DEFAULT_TOL.zero``, with up to N - 2 exact-zero low-order
    coefficients, lowest degree first."""
    n = draw(st.integers(4, 8))
    parts = draw(st.lists(lapack_part, min_size=2 * n, max_size=2 * n))
    state = [complex(a, b) for a, b in zip(parts[::2], parts[1::2])]
    state[-1] = complex(draw(st.floats(0.05, 1.0)), state[-1].imag)
    zeros = draw(st.integers(0, n - 2))
    state[:zeros] = [0j] * zeros
    norm = math.sqrt(sum(abs(z) ** 2 for z in state))
    weights = majgeom.majorana._binomial_weights(n - 1)
    return [w * complex(z.real / norm, z.imag / norm) for w, z in zip(weights, state)]


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(2, 8))
    parts = draw(st.lists(lapack_part, min_size=2 * n * n, max_size=2 * n * n))
    m = np.array(parts[::2]) + 1j * np.array(parts[1::2])
    m = m.reshape(n, n)
    return m + m.conj().T


class TestLapackKernels:
    """``numerics._lapack`` calls the gufuncs behind ``np.linalg.eigvals`` and
    ``np.linalg.eigh`` without numpy's wrapper: same bits, same refusals."""

    @LAPACK_SETTINGS
    @given(stellar_coefficients())
    def test_companion_eigvals(self, c):
        p = np.array(c[::-1])  # np.roots' order, highest degree first
        roots = majgeom.numerics._polynomial_roots(c)
        assert np.array(roots).tobytes() == np.roots(p).astype(complex).tobytes()
        zeros = len(p) - 1 - int(np.nonzero(p)[0][-1])
        size = len(p) - 1 - zeros
        if size:
            companion = np.eye(size, size, -1, dtype=complex)
            companion[0, :] = -p[1:size + 1] / p[0]
            direct = majgeom.numerics._lapack("eigvals", "D->D", companion)
            assert direct.tobytes() == np.linalg.eigvals(companion).tobytes()

    @LAPACK_SETTINGS
    @given(hermitian_matrices())
    def test_eigh(self, m):
        evals, evecs = majgeom.numerics._lapack("eigh_lo", "D->dD", m)
        expected = np.linalg.eigh(m)
        assert evals.tobytes() == expected.eigenvalues.tobytes()
        assert evecs.tobytes() == expected.eigenvectors.tobytes()
        evals, evecs = majgeom.numerics._eigh(m)
        expected = np.linalg.eigh(0.5 * m + 0.5 * m.conj().T)
        assert (evals.tobytes(), evecs.tobytes()) == (expected.eigenvalues.tobytes(),
                                                      expected.eigenvectors.tobytes())

    def test_invalid_flag_raises_linalg_error(self, monkeypatch):
        # LAPACK's non-convergence reaches numpy as the invalid flag.
        stub = types.SimpleNamespace(eigvals=lambda a, signature: np.sqrt(-np.ones(1)))
        monkeypatch.setattr(majgeom.numerics, "_umath_linalg", stub)
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            majgeom.numerics._lapack("eigvals", "D->D", np.eye(3, dtype=complex))

    def test_overflow_and_division_flags_are_ignored(self, monkeypatch):
        stub = types.SimpleNamespace(eigvals=lambda a, signature: np.ones(2) / np.zeros(2))
        monkeypatch.setattr(majgeom.numerics, "_umath_linalg", stub)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = majgeom.numerics._lapack("eigvals", "D->D", np.eye(2, dtype=complex))
        assert result.tolist() == [math.inf, math.inf]

    def test_non_finite_companion_is_refused_as_numpy_refuses_it(self):
        # -1e300 / 1e-11 overflows the companion's first row.
        coeffs = [1e300, 0.0, 0.0, 1e-11]
        with np.errstate(over="ignore"), pytest.raises(np.linalg.LinAlgError) as expected:
            np.roots(coeffs[::-1])
        with np.errstate(over="ignore"), pytest.raises(np.linalg.LinAlgError) as info:
            solve_polynomial(coeffs)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize("coeffs", [
        [1e300, 0.0, 0.0, 1e-11],
        [1e300j, 0.0, 1e300, 1e-11],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1e300 + 1e300j, 1e-11j],
    ])
    def test_overflowing_companion_is_refused_without_a_warning(self, coeffs):
        # A quotient of the companion's first row overflows; the row is
        # refused as numpy.linalg refuses it, and no RuntimeWarning comes first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="^Array must not contain infs"):
                solve_polynomial(coeffs)
