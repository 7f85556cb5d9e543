"""Weak and modular values of two-level observables.

Each quantity exists twice: a direct Hilbert-space evaluation and a geometric
one built from Bloch vectors (probability ratios and oriented solid angles).
The geometric routes are the one-point case of the factored N-level cores of
:mod:`majgeom.nlevel_values`.  The two routes agree to the comparison
tolerance and are cross-checked in the test suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bloch import _bloch_vector, _rotate, _unit_qubit, as_bloch
from .nlevel_values import _factored_weak_value, _paired_modular_value
from .numerics import (
    DEFAULT_TOL,
    _check_finite,
    _check_hermitian,
    _checked_overlap,
    _inner,
    _product,
)
from .polar import PolarComplex

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True, eq=False)
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
        _check_finite(alpha=self.alpha, beta=self.beta)

    @property
    def sigma(self) -> np.ndarray:
        return sum(c * p for c, p in zip(self.axis, PAULI))


def projector_weak_value_direct(i, r, f) -> PolarComplex:
    """``<f|r><r|i> / <f|i>`` for the projector onto the qubit state ``r``."""
    qi, qr, qf = _unit_qubit(i), _unit_qubit(r), _unit_qubit(f)
    den = _checked_overlap(qf, qi)
    return PolarComplex.from_complex(_product(_inner(qf, qr), _inner(qr, qi)) / den)


def projector_weak_value_geometric(i, r, f):
    """Projector weak value from Bloch vectors.

    Modulus ``sqrt((1+f.r)(1+r.i) / (2(1+f.i)))``; argument is minus half the
    oriented solid angle of the (i, r, f) geodesic triangle.  When ``r`` is
    antipodal to ``i`` or ``f`` (a modulus of at most ``DEFAULT_TOL.zero`` and
    an undefined triangle), the value is ``PolarComplex(0.0, 0.0)``.
    Bit for bit ``factored_weak_value([i], r, f)``.
    """
    return _factored_weak_value([_bloch_vector(i)], _bloch_vector(r), _bloch_vector(f))


def modular_value_direct(i, spec: QubitModularSpec, f) -> PolarComplex:
    """``exp(1j*beta/2) <f| exp(-1j*(alpha/2)*sigma_r) |i> / <f|i>``.

    The evolution is applied to ``|i>`` as
    ``cos(alpha/2) |i> - 1j sin(alpha/2) (n.sigma)|i>`` from the axis
    components; no matrix is built."""
    qi, qf = _unit_qubit(i), _unit_qubit(f)
    den = _checked_overlap(qf, qi)
    x, y, z = spec.axis.tolist()
    a0, a1 = qi
    n0, n1 = z * a0 + complex(x, -y) * a1, complex(x, y) * a0 - z * a1  # (n.sigma)|i>
    half = 0.5 * spec.alpha
    c, s = math.cos(half), math.sin(half)
    b0, b1 = (b.conjugate() for b in qf)
    transition = b0 * (c * a0 - 1j * s * n0) + b1 * (c * a1 - 1j * s * n1)  # <f|U|i>
    value = cmath.exp(0.5j * spec.beta) * transition / den
    return PolarComplex.from_complex(value)


def modular_value_geometric(i, spec: QubitModularSpec, f):
    """Modular value from Bloch vectors.

    The evolved vector ``s`` is ``i`` rotated about the axis by ``alpha``.  The
    modulus is ``sqrt((1+f.s)/(1+f.i))``; the argument splits into the
    dynamical term ``beta/2 - alpha/2``, reduced to (-pi, pi] with each half
    angle reduced exactly as the direct route reduces it, and the geometric term
    given by minus half the (i, r, s, f) quadrangle solid angle.  When ``s``
    is antipodal to ``f`` (a modulus of at most ``DEFAULT_TOL.zero`` and an
    undefined quadrangle), the value is ``PolarComplex(0.0, 0.0)``.  This is
    the one-point ``factored_modular_value`` with ``beta/2`` for ``beta``,
    eigenvalue 1 and K_s / K_i taken as exactly 1.
    """
    vi, vr, vf = _bloch_vector(i), spec.axis.tolist(), _bloch_vector(f)
    vs = _rotate(vi, vr, spec.alpha)
    return _paired_modular_value([vi], [vs], vr, vf, 0.5 * spec.beta, 0.5 * spec.alpha, 1.0)


def observable_to_modular_spec(observable, theta: float) -> QubitModularSpec:
    """Rewrite ``exp(-1j*theta*A)`` for a 2x2 Hermitian ``A`` as a modular spec.

    Decomposes ``A = -(beta/2) I + (alpha/2) sigma_r`` and scales both angles
    by the evolution strength.
    """
    a = np.asarray(observable, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("expected a 2x2 observable")
    _check_hermitian(a)
    beta = -float(np.trace(a).real)
    traceless = a + 0.5 * beta * np.eye(2)
    comps = np.array([0.5 * np.trace(traceless @ p).real for p in PAULI])
    alpha = 2.0 * float(np.linalg.norm(comps))
    if alpha <= DEFAULT_TOL.zero:
        axis = np.array([0.0, 0.0, 1.0])
    else:
        axis = 2.0 * comps / alpha
    return QubitModularSpec(axis=axis, alpha=theta * alpha, beta=theta * beta)


def weak_value_from_modular_derivative(i, observable, f, *, h: float = 1e-5) -> complex:
    """Central-difference check of ``A_w = 1j * dA_m/dtheta`` at zero strength."""
    if not (math.isfinite(h) and h != 0.0):
        raise ValueError("h must be finite and non-zero")
    plus = modular_value_direct(i, observable_to_modular_spec(observable, h), f).rect
    minus = modular_value_direct(i, observable_to_modular_spec(observable, -h), f).rect
    return 1j * (plus - minus) / (2.0 * h)
