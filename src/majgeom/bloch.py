"""Bloch-sphere geometry: qubit/vector maps, projection probabilities,
oriented solid angles of geodesic triangles and quadrangles, axis rotations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UndefinedSolidAngle
from .numerics import _NORM_SLACK, DEFAULT_TOL, Tolerances, canonical_gauge


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar products along the last axis, rounded exactly as ``float(a @ b)``.

    Two 1-d vectors give a numpy scalar.  Stacked rows go through
    ``(..., 1, n) @ (..., n, 1)``, one BLAS dot per row: the routine a 1-d
    ``a @ b`` runs, whereas ``einsum`` and ``(a * b).sum(-1)`` round differently.
    """
    if a.ndim == 1 and b.ndim == 1:
        return a.dot(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _column(values):
    """``values[..., None]`` for broadcasting against rows; scalars stay scalars."""
    return values[..., None] if values.ndim else values


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of ``(..., 3)`` arrays, written out with the same roundings."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    out = np.empty(np.shape(c0) + (3,))
    out[..., 0] = c0
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def as_bloch_array(vecs, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Validate and renormalize unit 3-vectors stacked as an ``(..., 3)`` array.

    Every row passes the checks of :func:`as_bloch` and comes back divided by
    its norm, bit for bit as ``as_bloch`` returns it alone.  A failing row
    raises the ``ValueError`` that ``as_bloch`` raises for it; when several
    rows fail, non-finite entries are reported before norm deviations.
    """
    v = np.asarray(vecs, dtype=float)
    if v.ndim == 0 or v.shape[-1] != 3:
        raise ValueError("Bloch vector must have exactly three components")
    norms = np.sqrt(_rowdot(v, v))
    unit = abs(norms - 1.0) <= _NORM_SLACK  # False for NaN
    if np.count_nonzero(unit) != unit.size:
        if not np.isfinite(v).all():
            raise ValueError("Bloch vector must be finite")
        norm = float(np.ravel(norms)[~np.ravel(unit)][0])
        raise ValueError(f"Bloch vector norm {norm:.6f} deviates from 1 beyond {_NORM_SLACK}")
    return v / _column(norms)


def as_bloch(vec, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Validate and renormalize a unit 3-vector."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have exactly three components")
    return as_bloch_array(v, tol=tol)


def bloch_vector(x: float, y: float, z: float, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    return as_bloch([x, y, z], tol=tol)


def as_qubit(state, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Validate, normalize and gauge-fix a two-component amplitude vector."""
    q = np.asarray(state, dtype=complex)
    if q.shape != (2,):
        raise ValueError("qubit state must have exactly two amplitudes")
    if not np.all(np.isfinite(q.real) & np.isfinite(q.imag)):
        raise ValueError("qubit amplitudes must be finite")
    norm = float(np.linalg.norm(q))
    if abs(norm - 1.0) > _NORM_SLACK:
        raise ValueError(f"qubit norm {norm:.6f} deviates from 1 beyond {_NORM_SLACK}")
    return canonical_gauge(q / norm, tol=tol)


def qubit_state(a0, a1, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    return as_qubit([a0, a1], tol=tol)


def qubit_to_bloch(state, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unit Bloch vector of a pure qubit state."""
    q = as_qubit(state, tol=tol)
    cross = q[0].conjugate() * q[1]
    v = np.array([2.0 * cross.real, 2.0 * cross.imag, abs(q[0]) ** 2 - abs(q[1]) ** 2])
    return v / np.linalg.norm(v)


def _amplitudes(x: float, y: float, z: float) -> tuple[float, float, float, float]:
    # (re, im) of (cos(t/2), e^(i p) sin(t/2)) before renormalization.
    a0 = math.sqrt(max(0.0, 0.5 * (1.0 + z)))
    if a0 < 1e-150:
        return 0.0, 0.0, 1.0, 0.0
    a1 = complex(x, y) / (2.0 * a0)
    return a0, 0.0, a1.real, a1.imag


def bloch_to_qubits(vecs, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Gauge-canonical qubit states of the rows of an ``(..., 3)`` array.

    Returns an ``(..., 2)`` complex array ``(a0, a1)/|(a0, a1)|`` with
    ``a0 = sqrt((1+z)/2)`` and ``a1 = (x + iy)/(2 a0)``; south-pole rows
    (``a0`` below 1e-150) map to ``(0, 1)``.  Rows are validated by
    :func:`as_bloch_array`.  The amplitudes are formed per row in Python
    floats; the renormalization runs on the whole batch.
    """
    v = as_bloch_array(vecs, tol=tol)
    rows = [_amplitudes(*row) for row in v.reshape(-1, 3).tolist()]
    q = np.array(rows).reshape(v.shape[:-1] + (4,)).view(complex)
    # Real and imaginary strided dots, as np.linalg.norm takes a complex norm.
    re, im = q.real, q.imag
    return q / _column(np.sqrt(_rowdot(re, re) + _rowdot(im, im)))


def bloch_to_qubit(vec, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Gauge-canonical qubit state of a Bloch vector."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have exactly three components")
    return bloch_to_qubits(v, tol=tol)


def projection_probability(u, v, *, tol: Tolerances = DEFAULT_TOL) -> float:
    """``|<phi_v|phi_u>|^2`` expressed through the Bloch scalar product."""
    a = as_bloch(u, tol=tol)
    b = as_bloch(v, tol=tol)
    return float(np.clip(0.5 * (1.0 + float(a @ b)), 0.0, 1.0))


def _selection_denominators(i, f, tol: Tolerances) -> np.ndarray:
    den = 1.0 + _rowdot(f, i)
    return np.where(den <= 2.0 * tol.orthogonality**2, np.nan, den)


def weak_moduli(i, r, f, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """``sqrt(0.5 (1+f.r)(1+r.i) / (1+f.i))`` over ``(..., 3)`` arrays that broadcast.

    The modulus of the projector weak value ``<f|r><r|i>/<f|i>`` from unit
    Bloch vectors (the caller validates them).  Rows whose ``1+f.i`` is at or
    below ``2 tol.orthogonality**2`` (i antipodal to f) come back as NaN.
    """
    i, r, f = (np.asarray(i, dtype=float), np.asarray(r, dtype=float),
               np.asarray(f, dtype=float))
    den = _selection_denominators(i, f, tol)
    return np.sqrt(np.maximum(0.0, 0.5 * (1.0 + _rowdot(f, r)) * (1.0 + _rowdot(r, i)) / den))


def modular_moduli(i, s, f, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """``sqrt((1+f.s) / (1+f.i))`` over ``(..., 3)`` arrays that broadcast.

    The per-qubit modulus ratio of a modular value, ``s`` the evolved vector;
    NaN marks antipodal i and f as in :func:`weak_moduli`.
    """
    i, s, f = (np.asarray(i, dtype=float), np.asarray(s, dtype=float),
               np.asarray(f, dtype=float))
    return np.sqrt(np.maximum(0.0, (1.0 + _rowdot(f, s)) / _selection_denominators(i, f, tol)))


def _reduce_to_branch(omega: float) -> float:
    # Solid angles live on (-2*pi, 2*pi]; -2*atan2 lands on [-2*pi, 2*pi).
    if omega <= -2.0 * math.pi:
        omega += 4.0 * math.pi
    return omega


def _triangle_angle(y: float, x: float, zero: float) -> float:
    # libm's atan2 per element: numpy's vectorized arctan2 differs in the last bit.
    if abs(x) <= zero and abs(y) <= zero:
        raise UndefinedSolidAngle(
            "triangle contains an antipodal pair; the enclosed area is ambiguous")
    return _reduce_to_branch(-2.0 * math.atan2(y, x))


def _solid_angles(vi: np.ndarray, vr: np.ndarray, vf: np.ndarray,
                  tol: Tolerances) -> np.ndarray:
    """Triangle solid angles of validated, broadcastable ``(..., 3)`` arrays."""
    y = _rowdot(vf, _cross(vr, vi))
    x = 1.0 + _rowdot(vf, vr) + _rowdot(vr, vi) + _rowdot(vf, vi)
    angles = [_triangle_angle(yy, xx, tol.zero)
              for yy, xx in zip(np.ravel(y).tolist(), np.ravel(x).tolist())]
    return np.array(angles).reshape(np.shape(x))


def triangle_solid_angles(i, r, f, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Oriented solid angles of geodesic triangles i -> r -> f -> i, batched.

    ``i``, ``r`` and ``f`` are ``(..., 3)`` arrays of unit vectors that
    broadcast against each other; each is validated by :func:`as_bloch_array`.
    Uses ``omega = -2 atan2(f.(r x i), 1 + f.r + r.i + f.i)`` reduced to
    (-2*pi, 2*pi].  If any triangle has both arctangent arguments below
    ``tol.zero`` (antipodal vertices), the batch raises
    :class:`UndefinedSolidAngle`.
    """
    return _solid_angles(as_bloch_array(i, tol=tol), as_bloch_array(r, tol=tol),
                         as_bloch_array(f, tol=tol), tol)


def solid_angle_triangle(i, r, f, *, tol: Tolerances = DEFAULT_TOL) -> float:
    """Oriented solid angle of the geodesic triangle traversed i -> r -> f -> i.

    The result lies in (-2*pi, 2*pi] and equals minus twice the argument of the
    Bargmann triple of the three corresponding qubit states.  A configuration
    with both arctangent arguments below ``tol.zero`` (antipodal vertices) has
    no defined value and raises :class:`UndefinedSolidAngle`.
    """
    return float(_solid_angles(as_bloch(i, tol=tol), as_bloch(r, tol=tol),
                               as_bloch(f, tol=tol), tol))


def rodrigues_rotate(i, r, alpha: float, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Rotate ``i`` about the axis ``r`` by ``alpha`` radians."""
    vi = as_bloch(i, tol=tol)
    vr = as_bloch(r, tol=tol)
    ca, sa = math.cos(alpha), math.sin(alpha)
    s = ca * vi + float(vr @ vi) * (1.0 - ca) * vr + sa * _cross(vr, vi)
    return s / np.linalg.norm(s)


def solid_angle_quadrangle(i, r, s, f, *, tol: Tolerances = DEFAULT_TOL) -> float:
    """Oriented solid angle of the spherical quadrangle i -> r -> s -> f -> i.

    Defined as the sum of the triangles (i, r, s) and (i, s, f); the shared
    i <-> s geodesic legs cancel.  The raw sum is returned (callers compare
    modulo 4*pi).
    """
    return (solid_angle_triangle(i, r, s, tol=tol)
            + solid_angle_triangle(i, s, f, tol=tol))


def solid_angle_quadrangle_rotation(i, r, f, alpha: float,
                                    *, tol: Tolerances = DEFAULT_TOL) -> float:
    """Closed-form quadrangle solid angle when ``s`` is ``i`` rotated about ``r``.

    Evaluates the quadrangle i -> r -> s -> f -> i without constructing ``s``,
    using only scalar and triple products of the three remaining vectors.  The
    expression is regularized so it stays finite at alpha = pi.
    """
    vi = as_bloch(i, tol=tol)
    vr = as_bloch(r, tol=tol)
    vf = as_bloch(f, tol=tol)
    c = math.cos(0.5 * alpha)
    sn = math.sin(0.5 * alpha)
    volume = float(vf @ _cross(vr, vi))
    pair = float(vf @ vr) + float(vr @ vi)
    base = 1.0 + float(vf @ vi)
    re = c * c * base + volume * sn * c + pair * sn * sn
    im = sn * c * base + volume * sn * sn - pair * sn * c
    if abs(re) <= tol.zero and abs(im) <= tol.zero:
        raise UndefinedSolidAngle("rotated quadrangle is degenerate; no defined area")
    return _reduce_to_branch(-2.0 * math.atan2(im, re))
