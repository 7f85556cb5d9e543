"""Numerical foundations: tolerances, projective polynomial roots, small
Hermitian eigenproblems and unitary exponentials.

Everything here is a pure function over immutable inputs; results are fresh
arrays that callers may share freely between threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

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

# Cost margin by which a pairing of Majorana points must beat the current one.
_PAIRING_TIE_SLACK = 1e-15


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


def _norm(vec: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-d complex array by its own arithmetic, as a
    Python float; not finite when an entry is not, or when the sum overflows."""
    x = vec.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _checked_overlap(bra: np.ndarray, ket: np.ndarray) -> complex:
    """``<bra|ket>`` of the post- and preselected states as a Python complex; a
    modulus at or below ``DEFAULT_TOL.orthogonality`` raises
    :class:`OrthogonalSelection`."""
    overlap = complex(np.vdot(bra, ket))
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


def _checked_norm(vec: np.ndarray, what: str, entries: str) -> float:
    """:func:`_norm` of a 1-d complex array that must be finite and of unit
    norm within ``_NORM_SLACK``; ``what`` and ``entries`` name it in errors."""
    norm = _norm(vec)
    if not math.isfinite(norm) and not np.all(np.isfinite(vec.real) & np.isfinite(vec.imag)):
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


def _polynomial_roots(c: np.ndarray) -> list[complex | None]:
    """:func:`solve_polynomial` of a finite 1-d complex array, without its
    checks: the finite roots as Python complexes, then ``None`` for each
    root at infinity.

    Above degree 2 the roots are the eigenvalues of the companion matrix
    that ``np.roots`` builds, so they keep its bits and order: exact-zero
    low-order coefficients are split off as ``0j`` roots listed last.
    """
    mags = np.abs(c).tolist()
    top = c.size - 1
    while mags[top] <= DEFAULT_TOL.zero:
        top -= 1
        if top < 0:
            raise AllCoefficientsZero("every polynomial coefficient is below tolerance")
    n_inf = c.size - 1 - top

    finite: list[complex] = []
    if top == 1:
        finite = [complex(-c[0] / c[1])]
    elif top == 2:
        finite = [complex(z) for z in _quadratic_roots(c[0], c[1], c[2])]
    elif top >= 3:
        zeros = 0
        while mags[zeros] == 0.0:
            zeros += 1
        size = top - zeros
        if size:
            # np.roots' first row -p[1:] / p[0], p = c[top], ..., c[zeros].
            companion = np.eye(size, size, -1, dtype=complex)
            companion[0, :] = -c[zeros:top][::-1] / c[top]
            finite = np.linalg.eigvals(companion).tolist()
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
    return [ProjectiveRoot(z) for z in _polynomial_roots(c)]


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def hermiticity_defect(matrix) -> float:
    m = _as_square(matrix)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN; callers refuse a non-finite defect
        return float(np.max(np.abs(m - m.conj().T)))


def _check_hermitian(matrix) -> None:
    """Raise :class:`NotHermitian` unless the defect is at most
    ``DEFAULT_TOL.unitarity``; a NaN or inf entry gives a defect that is not."""
    defect = hermiticity_defect(matrix)
    if not defect <= DEFAULT_TOL.unitarity:
        raise NotHermitian(
            f"Hermiticity defect {defect:.3e} exceeds {DEFAULT_TOL.unitarity:.1e}")


def eig_hermitian(matrix):
    """Eigendecomposition of a small Hermitian matrix.

    Returns ascending eigenvalues and an orthonormal eigenvector matrix whose
    columns are gauge fixed: the first entry of modulus above
    ``DEFAULT_TOL.zero`` is made real and positive.
    """
    m = _as_square(matrix)
    _check_hermitian(m)
    sym = 0.5 * (m + m.conj().T)
    evals, evecs = np.linalg.eigh(sym)
    evecs = evecs.copy()
    for k in range(evecs.shape[1]):
        _fix_gauge(evecs[:, k])
    return evals.astype(float), evecs


def unitary_exp(matrix, phase: float = 0.0, strength: float = 1.0) -> np.ndarray:
    """``exp(1j*phase) * exp(-1j*strength*H)`` for Hermitian ``H``."""
    evals, evecs = eig_hermitian(matrix)
    return _spectral_exp(evals, evecs, phase, strength)


def _spectral_exp(evals: np.ndarray, evecs: np.ndarray, phase: float,
                  strength: float) -> np.ndarray:
    """:func:`unitary_exp` from an eigendecomposition of ``H``."""
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
