"""Weak and modular values of two-level observables.

Each quantity exists twice: a direct Hilbert-space evaluation and a geometric
one built from Bloch vectors (probability ratios and oriented solid angles).
The two routes agree to the comparison tolerance and are cross-checked in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (
    as_bloch,
    as_qubit,
    modular_moduli,
    rodrigues_rotate,
    solid_angle_quadrangle,
    solid_angle_triangle,
    weak_moduli,
)
from .errors import OrthogonalSelection
from .numerics import DEFAULT_TOL, Tolerances, _check_hermitian
from .polar import GeometricBreakdown, GeometricFactor, PolarComplex

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class QubitModularSpec:
    """Rotation axis plus the two angles of the unitary
    ``exp(1j*beta/2) * exp(-1j*(alpha/2)*sigma_r)``.

    ``alpha`` rotates the Bloch sphere about ``axis``; ``beta`` applies a
    global phase shift of ``beta/2``.
    """

    axis: np.ndarray
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", as_bloch(self.axis))

    @property
    def sigma(self) -> np.ndarray:
        return sum(c * p for c, p in zip(self.axis, PAULI))


def _overlap_or_raise(bra, ket, tol: Tolerances) -> complex:
    overlap = complex(np.vdot(bra, ket))
    if abs(overlap) <= tol.orthogonality:
        raise OrthogonalSelection(
            f"|<f|i>| = {abs(overlap):.3e} is below {tol.orthogonality:.1e}")
    return overlap


def _checked_modulus(modulus) -> float:
    value = float(modulus)
    if math.isnan(value):
        raise OrthogonalSelection("pre- and postselected Bloch vectors are antipodal")
    return value


def projector_weak_value_direct(i, r, f, *, tol: Tolerances = DEFAULT_TOL) -> PolarComplex:
    """``<f|r><r|i> / <f|i>`` for the projector onto the qubit state ``r``."""
    qi, qr, qf = as_qubit(i, tol=tol), as_qubit(r, tol=tol), as_qubit(f, tol=tol)
    den = _overlap_or_raise(qf, qi, tol)
    value = np.vdot(qf, qr) * np.vdot(qr, qi) / den
    return PolarComplex.from_complex(value)


def projector_weak_value_geometric(i, r, f, *, tol: Tolerances = DEFAULT_TOL):
    """Projector weak value from Bloch vectors.

    Modulus ``sqrt((1+f.r)(1+r.i) / (2(1+f.i)))``; argument is minus half the
    oriented solid angle of the (i, r, f) geodesic triangle.
    """
    vi, vr, vf = as_bloch(i, tol=tol), as_bloch(r, tol=tol), as_bloch(f, tol=tol)
    modulus = _checked_modulus(weak_moduli(vi, vr, vf, tol=tol))
    omega = solid_angle_triangle(vi, vr, vf, tol=tol)
    breakdown = GeometricBreakdown((GeometricFactor(modulus, omega, vi),))
    return breakdown.to_polar(), breakdown


def modular_value_direct(i, spec: QubitModularSpec, f,
                         *, tol: Tolerances = DEFAULT_TOL) -> PolarComplex:
    """``exp(1j*beta/2) <f| exp(-1j*(alpha/2)*sigma_r) |i> / <f|i>``."""
    qi, qf = as_qubit(i, tol=tol), as_qubit(f, tol=tol)
    den = _overlap_or_raise(qf, qi, tol)
    half = 0.5 * spec.alpha
    unitary = math.cos(half) * np.eye(2) - 1j * math.sin(half) * spec.sigma
    value = np.exp(0.5j * spec.beta) * np.vdot(qf, unitary @ qi) / den
    return PolarComplex.from_complex(value)


def modular_value_geometric(i, spec: QubitModularSpec, f,
                            *, tol: Tolerances = DEFAULT_TOL):
    """Modular value from Bloch vectors.

    The evolved vector ``s`` is ``i`` rotated about the axis by ``alpha``.  The
    modulus is ``sqrt((1+f.s)/(1+f.i))``; the argument splits into the
    dynamical term ``(beta-alpha)/2`` and the geometric term given by minus
    half the (i, r, s, f) quadrangle solid angle.
    """
    vi, vf = as_bloch(i, tol=tol), as_bloch(f, tol=tol)
    vr = spec.axis
    vs = rodrigues_rotate(vi, vr, spec.alpha, tol=tol)
    modulus = _checked_modulus(modular_moduli(vi, vs, vf, tol=tol))
    omega = solid_angle_quadrangle(vi, vr, vs, vf, tol=tol)
    dynamical = 0.5 * (spec.beta - spec.alpha)
    breakdown = GeometricBreakdown(
        (GeometricFactor(modulus, omega, vi, vs),), dynamical_phase=dynamical)
    return breakdown.to_polar(), breakdown


def observable_to_modular_spec(observable, theta: float,
                               *, tol: Tolerances = DEFAULT_TOL) -> QubitModularSpec:
    """Rewrite ``exp(-1j*theta*A)`` for a 2x2 Hermitian ``A`` as a modular spec.

    Decomposes ``A = -(beta/2) I + (alpha/2) sigma_r`` and scales both angles
    by the evolution strength.
    """
    a = np.asarray(observable, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("expected a 2x2 observable")
    _check_hermitian(a, tol)
    beta = -float(np.trace(a).real)
    traceless = a + 0.5 * beta * np.eye(2)
    comps = np.array([0.5 * np.trace(traceless @ p).real for p in PAULI])
    alpha = 2.0 * float(np.linalg.norm(comps))
    if alpha <= tol.zero:
        axis = np.array([0.0, 0.0, 1.0])
    else:
        axis = 2.0 * comps / alpha
    return QubitModularSpec(axis=axis, alpha=theta * alpha, beta=theta * beta)


def weak_value_from_modular_derivative(i, observable, f, *, h: float = 1e-5,
                                       tol: Tolerances = DEFAULT_TOL) -> complex:
    """Central-difference check of ``A_w = 1j * dA_m/dtheta`` at zero strength."""
    plus = modular_value_direct(i, observable_to_modular_spec(observable, h, tol=tol), f,
                                tol=tol).rect
    minus = modular_value_direct(i, observable_to_modular_spec(observable, -h, tol=tol), f,
                                 tol=tol).rect
    return 1j * (plus - minus) / (2.0 * h)
