"""Numerical foundations: tolerances, projective polynomial roots, small
Hermitian eigenproblems and unitary exponentials.

Everything here is a pure function over immutable inputs; results are fresh
arrays that callers may share freely between threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AllCoefficientsZero, NotHermitian, PreconditionViolated


@dataclass(frozen=True)
class Tolerances:
    """Central numeric thresholds used by every module.

    comparison     general value agreement (relative or absolute as documented)
    unitarity      max-norm defect allowed for unitary / Hermitian checks
    zero           modulus below which a coefficient counts as zero
    orthogonality  overlap modulus below which a selection counts as orthogonal
    """

    comparison: float = 1e-9
    unitarity: float = 1e-10
    zero: float = 1e-12
    orthogonality: float = 1e-10


DEFAULT_TOL = Tolerances()

# Slack on the norm of every input vector (Bloch vectors, qubit and N-level
# states) before it is renormalized.
_NORM_SLACK = 1e-8


def principal_angle(angle: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    wrapped = math.remainder(float(angle), math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def canonical_gauge(vec: np.ndarray, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Multiply by a global phase so the first non-vanishing entry is real >= 0."""
    out = np.asarray(vec, dtype=complex).copy()
    for entry in out:
        if abs(entry) > tol.zero:
            out *= entry.conjugate() / abs(entry)
            break
    return out


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

    @staticmethod
    def finite(z: complex) -> "ProjectiveRoot":
        return ProjectiveRoot(complex(z))

    @staticmethod
    def at_infinity() -> "ProjectiveRoot":
        return ProjectiveRoot(None)


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


def solve_polynomial(coeffs, *, tol: Tolerances = DEFAULT_TOL) -> list[ProjectiveRoot]:
    """Roots (with multiplicity) of ``sum_k coeffs[k] z^k`` on the Riemann sphere.

    Coefficients are lowest degree first.  Exactly ``len(coeffs) - 1`` roots are
    returned; each leading coefficient of modulus <= ``tol.zero`` contributes
    one root at infinity.  Finite roots come from the closed-form quadratic for
    degree <= 2 and from companion-matrix eigenvalues above that.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must form a non-empty 1-d sequence")
    if not np.all(np.isfinite(c.real) & np.isfinite(c.imag)):
        raise ValueError("coefficients must be finite")
    mags = np.abs(c)
    if np.all(mags <= tol.zero):
        raise AllCoefficientsZero("every polynomial coefficient is below tolerance")

    degree = c.size - 1
    n_inf = 0
    while mags[c.size - 1 - n_inf] <= tol.zero:
        n_inf += 1
    work = c[: c.size - n_inf]

    finite: list[complex] = []
    d = work.size - 1
    if d == 1:
        finite = [complex(-work[0] / work[1])]
    elif d == 2:
        finite = _quadratic_roots(work[0], work[1], work[2])
    elif d >= 3:
        finite = [complex(z) for z in np.roots(work[::-1])]

    roots = [ProjectiveRoot.finite(z) for z in finite]
    roots.extend(ProjectiveRoot.at_infinity() for _ in range(n_inf))
    assert len(roots) == degree
    return roots


def evaluate_polynomial(coeffs, z: complex) -> complex:
    """Horner evaluation with lowest-degree-first coefficients."""
    acc = 0.0 + 0.0j
    for coefficient in reversed(np.asarray(coeffs, dtype=complex)):
        acc = acc * z + coefficient
    return complex(acc)


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def hermiticity_defect(matrix) -> float:
    m = _as_square(matrix)
    return float(np.max(np.abs(m - m.conj().T)))


def eig_hermitian(matrix, *, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a small Hermitian matrix.

    Returns ascending eigenvalues and an orthonormal eigenvector matrix whose
    columns are gauge fixed: the first entry of modulus above ``tol.zero`` is
    made real and positive.
    """
    m = _as_square(matrix)
    defect = hermiticity_defect(m)
    if defect > tol.unitarity:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {tol.unitarity:.1e}")
    sym = 0.5 * (m + m.conj().T)
    evals, evecs = np.linalg.eigh(sym)
    evecs = evecs.copy()
    for k in range(evecs.shape[1]):
        col = evecs[:, k]
        for entry in col:
            if abs(entry) > tol.zero:
                col *= entry.conjugate() / abs(entry)
                break
    return evals.astype(float), evecs


def unitary_exp(matrix, phase: float = 0.0, strength: float = 1.0,
                *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """``exp(1j*phase) * exp(-1j*strength*H)`` for Hermitian ``H``."""
    evals, evecs = eig_hermitian(matrix, tol=tol)
    diag = np.exp(-1j * strength * evals)
    return np.exp(1j * phase) * ((evecs * diag) @ evecs.conj().T)


def cayley_hamilton_exp_spin1(matrix, alpha: float,
                              *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Closed-form ``exp(-1j*alpha*L)`` for a 3x3 Hermitian ``L`` whose spectrum
    is {-1, 0, +1}.

    The spectral conditions are checked explicitly: zero trace, second moment
    ``tr(L^2) = 2`` and zero determinant, each within 1e-9.
    """
    m = _as_square(matrix)
    if m.shape[0] != 3:
        raise ValueError("spin-1 exponential requires a 3x3 matrix")
    defect = hermiticity_defect(m)
    if defect > tol.unitarity:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {tol.unitarity:.1e}")
    spectral_tol = 1e-9
    trace = complex(np.trace(m))
    if abs(trace) > spectral_tol:
        raise PreconditionViolated(f"trace condition failed: |tr| = {abs(trace):.3e}")
    second = complex(np.trace(m @ m))
    if abs(second - 2.0) > spectral_tol:
        raise PreconditionViolated(
            f"second-moment condition failed: |tr(L^2) - 2| = {abs(second - 2.0):.3e}")
    det = complex(np.linalg.det(m))
    if abs(det) > spectral_tol:
        raise PreconditionViolated(f"determinant condition failed: |det| = {abs(det):.3e}")
    eye = np.eye(3, dtype=complex)
    return eye - 1j * math.sin(alpha) * m + (math.cos(alpha) - 1.0) * (m @ m)


def unitarity_defect(matrix) -> float:
    m = _as_square(matrix)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
