"""Bloch-sphere geometry: qubit/vector maps, projection probabilities,
oriented solid angles of geodesic triangles and quadrangles, axis rotations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OrthogonalSelection, UndefinedSolidAngle
from .numerics import (
    _NORM_SLACK,
    _SOUTH_POLE_CUT,
    DEFAULT_TOL,
    _checked_norm,
    _fix_gauge,
)


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


def as_bloch_array(vecs) -> np.ndarray:
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


def _unit(v: np.ndarray) -> np.ndarray:
    """:func:`as_bloch_array`'s renormalization without its checks.  It is
    not bitwise idempotent, so a caller applies it wherever an ``as_bloch``
    of an already-valid vector used to run."""
    return v / _column(np.sqrt(_rowdot(v, v)))


def as_bloch(vec) -> np.ndarray:
    """Validate and renormalize a unit 3-vector."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have exactly three components")
    norm = math.sqrt(v.dot(v))
    if abs(norm - 1.0) <= _NORM_SLACK:  # False for NaN
        return v / norm
    return as_bloch_array(v)  # raises its error for this vector


def as_qubit(state) -> np.ndarray:
    """Validate, normalize and gauge-fix a two-component amplitude vector."""
    q = np.asarray(state, dtype=complex)
    if q.shape != (2,):
        raise ValueError("qubit state must have exactly two amplitudes")
    return _fix_gauge(q / _checked_norm(q, "qubit", "amplitudes"))


def qubit_to_bloch(state) -> np.ndarray:
    """Unit Bloch vector of a pure qubit state."""
    q = as_qubit(state)
    cross = q[0].conjugate() * q[1]
    v = np.array([2.0 * cross.real, 2.0 * cross.imag, abs(q[0]) ** 2 - abs(q[1]) ** 2])
    return v / math.sqrt(v.dot(v))


def _amplitudes(x: float, y: float, z: float) -> tuple[float, float, float, float]:
    # (re, im) of (cos(t/2), e^(i p) sin(t/2)) before renormalization.
    a0 = math.sqrt(max(0.0, 0.5 * (1.0 + z)))
    if a0 < _SOUTH_POLE_CUT:
        return 0.0, 0.0, 1.0, 0.0
    a1 = complex(x, y) / (2.0 * a0)
    return a0, 0.0, a1.real, a1.imag


def bloch_to_qubits(vecs) -> np.ndarray:
    """Gauge-canonical qubit states of the rows of an ``(..., 3)`` array.

    Returns an ``(..., 2)`` complex array ``(a0, a1)/|(a0, a1)|`` with
    ``a0 = sqrt((1+z)/2)`` and ``a1 = (x + iy)/(2 a0)``; south-pole rows
    (``a0`` below ``_SOUTH_POLE_CUT``) map to ``(0, 1)``.  Rows are validated
    by :func:`as_bloch_array`.  The amplitudes are formed per row in Python
    floats; the renormalization runs on the whole batch.
    """
    return _qubits(as_bloch_array(vecs))


def _qubits(v: np.ndarray) -> np.ndarray:
    """:func:`bloch_to_qubits` of unit rows, without their validation."""
    rows = [_amplitudes(*row) for row in v.reshape(-1, 3).tolist()]
    q = np.array(rows).reshape(v.shape[:-1] + (4,)).view(complex)
    # Real and imaginary strided dots, as np.linalg.norm takes a complex norm.
    re, im = q.real, q.imag
    return q / _column(np.sqrt(_rowdot(re, re) + _rowdot(im, im)))


def bloch_to_qubit(vec) -> np.ndarray:
    """Gauge-canonical qubit state of a Bloch vector."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have exactly three components")
    return bloch_to_qubits(v)


def projection_probability(u, v) -> float:
    """``|<phi_v|phi_u>|^2`` expressed through the Bloch scalar product."""
    a, b = as_bloch(u), as_bloch(v)
    return float(np.clip(0.5 * (1.0 + float(a @ b)), 0.0, 1.0))


def _selection_denominators(i, f) -> np.ndarray:
    den = 1.0 + _rowdot(f, i)
    return np.where(den <= 2.0 * DEFAULT_TOL.orthogonality**2, np.nan, den)


def weak_moduli(i, r, f) -> np.ndarray:
    """``sqrt(0.5 (1+f.r)(1+r.i) / (1+f.i))`` over ``(..., 3)`` arrays that broadcast.

    The modulus of the projector weak value ``<f|r><r|i>/<f|i>`` from unit
    Bloch vectors (the caller validates them).  Rows whose ``1+f.i`` is at or
    below ``2 DEFAULT_TOL.orthogonality**2`` (i antipodal to f) come back as NaN.
    """
    i, r, f = (np.asarray(i, dtype=float), np.asarray(r, dtype=float),
               np.asarray(f, dtype=float))
    den = _selection_denominators(i, f)
    return np.sqrt(np.maximum(0.0, 0.5 * (1.0 + _rowdot(f, r)) * (1.0 + _rowdot(r, i)) / den))


def modular_moduli(i, s, f) -> np.ndarray:
    """``sqrt((1+f.s) / (1+f.i))`` over ``(..., 3)`` arrays that broadcast.

    The per-qubit modulus ratio of a modular value, ``s`` the evolved vector;
    NaN marks antipodal i and f as in :func:`weak_moduli`.
    """
    i, s, f = (np.asarray(i, dtype=float), np.asarray(s, dtype=float),
               np.asarray(f, dtype=float))
    return np.sqrt(np.maximum(0.0, (1.0 + _rowdot(f, s)) / _selection_denominators(i, f)))


def _factor_moduli(moduli) -> list[float]:
    """The moduli of :func:`weak_moduli` or :func:`modular_moduli` as a flat
    list of floats; a NaN (an initial point antipodal to the final one)
    raises :class:`OrthogonalSelection`."""
    values = moduli.reshape(-1).tolist()
    if any(map(math.isnan, values)):
        raise OrthogonalSelection("an initial point is antipodal to the final point")
    return values


def _reduce_to_branch(omega: float) -> float:
    # Solid angles live on (-2*pi, 2*pi]; -2*atan2 lands on [-2*pi, 2*pi).
    if omega <= -2.0 * math.pi:
        omega += 4.0 * math.pi
    return omega


def _triangle_angle(y: float, x: float) -> float | None:
    # libm's atan2 per element: numpy's vectorized arctan2 differs in the last bit.
    if abs(x) <= DEFAULT_TOL.zero and abs(y) <= DEFAULT_TOL.zero:
        return None  # antipodal vertices: no defined area
    return _reduce_to_branch(-2.0 * math.atan2(y, x))


def _triangle_angles(vi: np.ndarray, vr: np.ndarray,
                     vf: np.ndarray) -> tuple[list[float | None], tuple[int, ...]]:
    """Flattened triangle solid angles of validated, broadcastable ``(..., 3)``
    arrays, ``None`` for each undefined triangle, and the batch shape."""
    y = _rowdot(vf, _cross(vr, vi))
    x = 1.0 + _rowdot(vf, vr) + _rowdot(vr, vi) + _rowdot(vf, vi)
    angles = [_triangle_angle(yy, xx)
              for yy, xx in zip(np.ravel(y).tolist(), np.ravel(x).tolist())]
    return angles, np.shape(x)


def _checked_angles(angles: list[float | None]) -> list[float]:
    """``angles`` unchanged, unless one is undefined (``None``): then raise."""
    if None in angles:
        raise UndefinedSolidAngle(
            "triangle contains an antipodal pair; the enclosed area is ambiguous")
    return angles


def _quadrangle_angles(vi: np.ndarray, vr: np.ndarray, vs: np.ndarray,
                       vf: np.ndarray) -> list[float | None]:
    """Flattened solid angles of the quadrangles i -> r -> s -> f of validated,
    broadcastable ``(..., 3)`` arrays: the triangles (i, r, s) plus (i, s, f),
    whose shared i <-> s legs cancel; ``None`` where either is undefined."""
    first, _ = _triangle_angles(vi, vr, vs)
    second, _ = _triangle_angles(vi, vs, vf)
    return [None if a is None or b is None else a + b for a, b in zip(first, second)]


def _factor_angles(angles: list[float | None], moduli: list[float]) -> list[float]:
    """The solid angles of a value's factors.  A factor whose modulus is
    exactly 0 gets 0.0: its polygon has an antipodal pair there, but the value
    is 0 whatever its angle.  Any other undefined angle raises."""
    return _checked_angles([0.0 if modulus == 0.0 else angle
                            for angle, modulus in zip(angles, moduli)])


def _solid_angles(vi: np.ndarray, vr: np.ndarray, vf: np.ndarray) -> np.ndarray:
    """Triangle solid angles of validated, broadcastable ``(..., 3)`` arrays."""
    angles, shape = _triangle_angles(vi, vr, vf)
    return np.array(_checked_angles(angles)).reshape(shape)


def triangle_solid_angles(i, r, f) -> np.ndarray:
    """Oriented solid angles of geodesic triangles i -> r -> f -> i, batched.

    ``i``, ``r`` and ``f`` are ``(..., 3)`` arrays of unit vectors that
    broadcast against each other; each is validated by :func:`as_bloch_array`.
    Uses ``omega = -2 atan2(f.(r x i), 1 + f.r + r.i + f.i)`` reduced to
    (-2*pi, 2*pi].  If any triangle has both arctangent arguments below
    ``DEFAULT_TOL.zero`` (antipodal vertices), the batch raises
    :class:`UndefinedSolidAngle`.
    """
    return _solid_angles(as_bloch_array(i), as_bloch_array(r), as_bloch_array(f))


def solid_angle_triangle(i, r, f) -> float:
    """Oriented solid angle of the geodesic triangle traversed i -> r -> f -> i.

    The result lies in (-2*pi, 2*pi] and equals minus twice the argument of the
    Bargmann triple of the three corresponding qubit states.  A configuration
    with both arctangent arguments below ``DEFAULT_TOL.zero`` (antipodal
    vertices) has no defined value and raises :class:`UndefinedSolidAngle`.
    """
    return float(_solid_angles(as_bloch(i), as_bloch(r), as_bloch(f)))


def rodrigues_rotate(i, r, alpha: float) -> np.ndarray:
    """Rotate ``i`` about the axis ``r`` by ``alpha`` radians."""
    return _rotate(as_bloch(i), as_bloch(r), alpha)


def _rotate(vi: np.ndarray, vr: np.ndarray, alpha: float) -> np.ndarray:
    """:func:`rodrigues_rotate` of validated unit vectors."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    s = ca * vi + float(vr @ vi) * (1.0 - ca) * vr + sa * _cross(vr, vi)
    return s / math.sqrt(s.dot(s))


def solid_angle_quadrangle(i, r, s, f) -> float:
    """Oriented solid angle of the spherical quadrangle i -> r -> s -> f -> i.

    Defined as the sum of the triangles (i, r, s) and (i, s, f); the shared
    i <-> s geodesic legs cancel.  The raw sum is returned (callers compare
    modulo 4*pi).
    """
    vi, vr, vs, vf = (as_bloch(v) for v in (i, r, s, f))
    (omega,) = _checked_angles(_quadrangle_angles(vi, vr, vs, vf))
    return omega


def solid_angle_quadrangle_rotation(i, r, f, alpha: float) -> float:
    """Closed-form quadrangle solid angle when ``s`` is ``i`` rotated about ``r``.

    Evaluates the quadrangle i -> r -> s -> f -> i without constructing ``s``,
    using only scalar and triple products of the three remaining vectors.  The
    expression is regularized so it stays finite at alpha = pi.
    """
    vi, vr, vf = as_bloch(i), as_bloch(r), as_bloch(f)
    c = math.cos(0.5 * alpha)
    sn = math.sin(0.5 * alpha)
    volume = float(vf @ _cross(vr, vi))
    pair = float(vf @ vr) + float(vr @ vi)
    base = 1.0 + float(vf @ vi)
    re = c * c * base + volume * sn * c + pair * sn * sn
    im = sn * c * base + volume * sn * sn - pair * sn * c
    if abs(re) <= DEFAULT_TOL.zero and abs(im) <= DEFAULT_TOL.zero:
        raise UndefinedSolidAngle("rotated quadrangle is degenerate; no defined area")
    return _reduce_to_branch(-2.0 * math.atan2(im, re))
