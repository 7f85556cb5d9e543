"""Numerical foundations: tolerances, projective polynomial roots, small
Hermitian eigenproblems and unitary exponentials.

Everything here is a pure function over immutable inputs; results are fresh
arrays that callers may share freely between threads.

The value path holds its states as lists of Python complexes.  Its norms
(:func:`_norm`), scalar products (:func:`_inner`) and complex products
(:func:`_product`) are written out in a fixed order in real components:
Python float arithmetic is never fused, whereas a BLAS dot (and numpy's
elementwise complex ``*``, through SIMD multiply-adds) rounds differently
from build to build and CPU to CPU.  Batch versions of these forms run on
numpy real columns, whose elementwise ``+ - * /`` and ``sqrt`` round as
Python floats do.  :func:`_lapack` calls the only LAPACK kernels left between
an input state and a printed value, ``numpy.linalg``'s ``eigvals`` and
``eigh``, without numpy's wrapper, which costs as much as LAPACK at N <= 8.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    AllCoefficientsZero,
    NotHermitian,
    OrthogonalSelection,
    PreconditionViolated,
)


@dataclass(frozen=True)
class Tolerances:
    """The four numeric thresholds.  The library reads them from the one
    instance ``DEFAULT_TOL``; only the CLI builds another, whose
    ``comparison`` (set by ``MAJGEOM_TOL``) drives its mismatch check alone.

    comparison     general value agreement (relative or absolute as documented)
    unitarity      max-norm defect allowed for unitary / Hermitian checks
    zero           modulus below which a coefficient counts as zero
    orthogonality  overlap modulus below which a selection counts as orthogonal
    """

    comparison: float = 1e-9
    unitarity: float = 1e-10
    zero: float = 1e-12
    orthogonality: float = 1e-10

    def __post_init__(self) -> None:
        for field in fields(self):
            if not 0.0 <= getattr(self, field.name) < math.inf:  # False for NaN
                raise ValueError(f"tolerance {field.name} must be finite and non-negative")


DEFAULT_TOL = Tolerances()

# Slack on the norm of every input vector (Bloch vectors, qubit and N-level
# states) before it is renormalized.
_NORM_SLACK = 1e-8

# Slack on the trace, the second moment and the norm of an operator read as a
# unit Gell-Mann direction.
_GELL_MANN_SLACK = 1e-9

# Slack on idempotence, mutual orthogonality and completeness of the
# projectors of a measurement context.
_CONTEXT_SLACK = 1e-8

# Norm deviation above which the CLI warns that it renormalized a scenario state.
_RENORM_WARNING = 1e-10

# Slack on the trace, second moment and determinant of a spin-1 generator.
_SPIN1_SLACK = 1e-9

# Newton slope below which a stellar root is left unpolished.
_NEWTON_SLOPE_FLOOR = 1e-8

# Slack on the three-box symmetry checks, and on its r-basis against closed forms.
_SYMMETRY_SLACK = 1e-10
_R_BASIS_SLACK = 1e-9

# Squared root modulus above which a stellar root is placed at the south pole.
_INFINITE_ROOT = 1e300

# Amplitude of |0> below which a Bloch point maps to the south-pole qubit (0, 1).
_SOUTH_POLE_CUT = 1e-150

# Cost margin by which a pairing of Majorana points must beat the identity; it
# lies above the summation spread of equal costs (5.3e-15 seen at m = 7).
_PAIRING_TIE_SLACK = 1e-12


def principal_angle(angle: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    wrapped = math.remainder(float(angle), math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def _gauge_phase(entries: list[complex]) -> complex | None:
    """The global phase that makes the first of the Python complexes
    ``entries`` of modulus above ``DEFAULT_TOL.zero`` real >= 0; ``None`` when
    there is no such entry.

    ``abs`` of a Python complex is the ``hypot`` numpy scalars use.  The phase
    ``conj(lead) / |lead|`` is numpy's complex division written out (a
    reciprocal, then products); Python's own complex division rounds
    differently.
    """
    for entry in entries:
        modulus = abs(entry)
        if modulus > DEFAULT_TOL.zero:
            scale = 1.0 / modulus
            re, im = entry.real, -entry.imag
            return complex((re + im * 0.0) * scale, (im - re * 0.0) * scale)
    return None


def _fix_gauge(vec: np.ndarray) -> np.ndarray:
    """Multiply the 1-d complex ``vec`` in place by its :func:`_gauge_phase`,
    if it has one, and return it."""
    phase = _gauge_phase(vec.tolist())
    if phase is not None:
        vec *= phase
    return vec


def canonical_gauge(vec: np.ndarray) -> np.ndarray:
    """Multiply by a global phase so the first non-vanishing entry is real >= 0."""
    return _fix_gauge(np.asarray(vec, dtype=complex).copy())


def _sumsq(vec) -> float:
    """``|z0|^2 + |z1|^2 + ...`` of Python complexes (or floats), left to
    right, each term ``re*re + im*im``: the order of every norm here."""
    total = 0.0
    for z in vec:
        re, im = z.real, z.imag
        total += re * re + im * im
    return total


def _norm(vec) -> float:
    """``sqrt(_sumsq(vec))``; not finite when an entry is not, or when the sum
    overflows."""
    return math.sqrt(_sumsq(vec))


def _divided(vec, norm: float) -> list[complex]:
    """The Python complexes ``vec`` divided by ``norm`` part by part."""
    return [complex(z.real / norm, z.imag / norm) for z in vec]


def _inner(bra, ket) -> complex:
    """``<bra|ket>`` of Python complexes (or floats), left to right in real
    components: ``re += b.re k.re + b.im k.im``, ``im += b.re k.im - b.im k.re``."""
    re = im = 0.0
    for b, k in zip(bra, ket):
        br, bi, kr, ki = b.real, b.imag, k.real, k.imag
        re += br * kr + bi * ki
        im += br * ki - bi * kr
    return complex(re, im)


def _product(a: complex, b: complex) -> complex:
    """``a * b`` of Python complexes in real components, never fused."""
    return complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _checked_overlap(bra, ket) -> complex:
    """``<bra|ket>`` of the post- and preselected states (Python complexes),
    each part's rounded products summed by ``math.fsum``: the overlap cancels
    as it nears 0, and every value divides by it.  A modulus at or below
    ``DEFAULT_TOL.orthogonality`` raises :class:`OrthogonalSelection`."""
    re: list[float] = []
    im: list[float] = []
    for b, k in zip(bra, ket):
        br, bi, kr, ki = b.real, b.imag, k.real, k.imag
        re += (br * kr, bi * ki)
        im += (br * ki, -(bi * kr))
    overlap = complex(math.fsum(re), math.fsum(im))
    if abs(overlap) <= DEFAULT_TOL.orthogonality:
        raise OrthogonalSelection(
            f"|<f|i>| = {abs(overlap):.3e} is below {DEFAULT_TOL.orthogonality:.1e}")
    return overlap


def _check_finite(**values: float | None) -> None:
    """Raise ``ValueError`` naming the first of ``values`` that is set (not
    ``None``) but not finite."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _checked_norm(vec: list[complex], what: str, entries: str) -> float:
    """:func:`_norm` of Python complexes that must be finite and of unit norm
    within ``_NORM_SLACK``; ``what`` and ``entries`` name them in errors."""
    norm = _norm(vec)
    if not math.isfinite(norm) and not all(map(cmath.isfinite, vec)):
        raise ValueError(f"{what} {entries} must be finite")
    if abs(norm - 1.0) > _NORM_SLACK:
        raise ValueError(f"{what} norm {norm:.6f} deviates from 1 beyond {_NORM_SLACK}")
    return norm


@dataclass(frozen=True)
class ProjectiveRoot:
    """A root of a polynomial on the Riemann sphere.

    ``value is None`` encodes the root at infinity, which arises when leading
    coefficients vanish.
    """

    value: complex | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None


def _lapack(kernel: str, signature: str, a: np.ndarray):
    """The ``numpy.linalg._umath_linalg`` gufunc ``kernel`` of the square complex
    array ``a`` (checked by the caller) in ``numpy.linalg``'s error state, where
    LAPACK's non-convergence raises ``LinAlgError``."""
    def nonconvergence(err, flag):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    with np.errstate(all="ignore", call=nonconvergence, invalid="call"):
        return getattr(_umath_linalg, kernel)(a, signature=signature)


def _quadratic_roots(c0: complex, c1: complex, c2: complex) -> list[complex]:
    # Numerically stable branch: avoid cancellation between -b and sqrt(disc).
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = cmath.sqrt(disc)
    if (c1.conjugate() * sq).real < 0.0:
        sq = -sq
    q = -0.5 * (c1 + sq)
    if abs(q) == 0.0:
        z = -c1 / (2.0 * c2)
        return [z, z]
    return [q / c2, c0 / q]


def _polynomial_roots(c: list[complex]) -> list[complex | None]:
    """:func:`solve_polynomial` of finite Python complexes, without its
    checks: the finite roots as Python complexes, then ``None`` for each
    root at infinity.

    Up to degree 2 the roots come from Python complex arithmetic.  Above it
    they are the eigenvalues of the companion matrix that ``np.roots``
    builds, so they keep its bits and order: exact-zero low-order
    coefficients are split off as ``0j`` roots listed last.
    """
    mags = [abs(z) for z in c]
    top = len(c) - 1
    while mags[top] <= DEFAULT_TOL.zero:
        top -= 1
        if top < 0:
            raise AllCoefficientsZero("every polynomial coefficient is below tolerance")
    n_inf = len(c) - 1 - top

    finite: list[complex] = []
    if top == 1:
        finite = [-c[0] / c[1]]
    elif top == 2:
        finite = _quadratic_roots(c[0], c[1], c[2])
    elif top >= 3:
        zeros = 0
        while mags[zeros] == 0.0:
            zeros += 1
        size = top - zeros
        if size:
            # np.roots' first row -p[1:] / p[0], p = c[top], ..., c[zeros]; a
            # quotient that overflows is refused below, without a warning.
            with np.errstate(over="ignore", invalid="ignore"):
                row = -np.array(c[zeros:top][::-1]) / c[top]
            if not all(map(cmath.isfinite, row.tolist())):  # as numpy.linalg.eigvals refuses it
                raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
            companion = np.eye(size, size, -1, dtype=complex)
            companion[0, :] = row
            finite = _lapack("eigvals", "D->D", companion).tolist()
        finite += [0j] * zeros
    return finite + [None] * n_inf


def solve_polynomial(coeffs) -> list[ProjectiveRoot]:
    """Roots (with multiplicity) of ``sum_k coeffs[k] z^k`` on the Riemann sphere.

    Coefficients are lowest degree first.  Exactly ``len(coeffs) - 1`` roots are
    returned; each leading coefficient of modulus <= ``DEFAULT_TOL.zero`` contributes
    one root at infinity.  Finite roots come from the closed-form quadratic for
    degree <= 2 and from companion-matrix eigenvalues above that.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must form a non-empty 1-d sequence")
    if not np.all(np.isfinite(c.real) & np.isfinite(c.imag)):
        raise ValueError("coefficients must be finite")
    return [ProjectiveRoot(z) for z in _polynomial_roots(c.tolist())]


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def hermiticity_defect(matrix) -> float:
    m = _as_square(matrix)
    return _defect(m, m.conj().T)


def _defect(m: np.ndarray, h: np.ndarray) -> float:
    """``max |m - h|`` of a square complex array and its conjugate transpose."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN; callers refuse a non-finite defect
        return float(abs(m - h).max())


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of the square complex array ``m``; raise
    :class:`NotHermitian` unless ``m``'s defect is at most
    ``DEFAULT_TOL.unitarity``.  A NaN or inf entry gives a defect that is not."""
    h = m.conj().T
    defect = _defect(m, h)
    if not defect <= DEFAULT_TOL.unitarity:
        raise NotHermitian(
            f"Hermiticity defect {defect:.3e} exceeds {DEFAULT_TOL.unitarity:.1e}")
    return h


def _eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a small Hermitian
    matrix, checked and symmetrized (one conjugate transpose serves both), with
    the column phases LAPACK's ``eigh`` gives them: ``V diag(f(lambda)) V^H``
    and the rays of the columns do not depend on those phases.  The halves are
    taken before the sum, which cannot overflow for entries near the largest
    float."""
    m = _as_square(matrix)
    h = _check_hermitian(m)  # before 0.5 * m, whose inf * 0 would warn
    return _lapack("eigh_lo", "D->dD", 0.5 * m + 0.5 * h)


def eig_hermitian(matrix):
    """Eigendecomposition of a small Hermitian matrix.

    Returns ascending eigenvalues and an orthonormal eigenvector matrix whose
    columns are gauge fixed: the first entry of modulus above
    ``DEFAULT_TOL.zero`` is made real and positive.
    """
    evals, evecs = _eigh(matrix)
    evecs = evecs.copy()
    for k in range(evecs.shape[1]):
        _fix_gauge(evecs[:, k])
    return evals.astype(float), evecs


def unitary_exp(matrix, phase: float = 0.0, strength: float = 1.0) -> np.ndarray:
    """``exp(1j*phase) * exp(-1j*strength*H)`` for Hermitian ``H``."""
    evals, evecs = _eigh(matrix)
    diag = np.exp(-1j * strength * evals)
    return np.exp(1j * phase) * ((evecs * diag) @ evecs.conj().T)


def cayley_hamilton_exp_spin1(matrix, alpha: float) -> np.ndarray:
    """Closed-form ``exp(-1j*alpha*L)`` for a 3x3 Hermitian ``L`` whose spectrum
    is {-1, 0, +1}.

    The spectral conditions are checked explicitly: zero trace, second moment
    ``tr(L^2) = 2`` and zero determinant, each within 1e-9.
    """
    m = _as_square(matrix)
    if m.shape[0] != 3:
        raise ValueError("spin-1 exponential requires a 3x3 matrix")
    _check_hermitian(m)
    trace = complex(np.trace(m))
    if abs(trace) > _SPIN1_SLACK:
        raise PreconditionViolated(f"trace condition failed: |tr| = {abs(trace):.3e}")
    second = complex(np.trace(m @ m))
    if abs(second - 2.0) > _SPIN1_SLACK:
        raise PreconditionViolated(
            f"second-moment condition failed: |tr(L^2) - 2| = {abs(second - 2.0):.3e}")
    det = complex(np.linalg.det(m))
    if abs(det) > _SPIN1_SLACK:
        raise PreconditionViolated(f"determinant condition failed: |det| = {abs(det):.3e}")
    eye = np.eye(3, dtype=complex)
    return eye - 1j * math.sin(alpha) * m + (math.cos(alpha) - 1.0) * (m @ m)
