"""Bloch-sphere geometry: qubit/vector maps, projection probabilities,
oriented solid angles of geodesic triangles and quadrangles, axis rotations.

Every modulus ratio and polygon solid angle comes from one stacked-dot
kernel: the cross products and every scalar product a call needs are stacked
into one :func:`_rowdot` call, and the formulas then run row by row in Python
floats.  The scalar routes (:func:`solid_angle_triangle`,
:func:`solid_angle_quadrangle`), the batches (:func:`weak_moduli`,
:func:`modular_moduli`, :func:`triangle_solid_angles`) and the factored weak
and modular values of :mod:`majgeom.nlevel_values` all share it; only
:func:`solid_angle_quadrangle_rotation`, an independent closed form, does not.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

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


# Component k of a x b is a[k+1] b[k+2] - a[k+2] b[k+1]: both products of
# every component come from one gather of a and one of b.
_ROLLS = np.array([[1, 2, 0], [2, 0, 1]])
_ROLLS_SWAPPED = _ROLLS[::-1].copy()


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of ``(..., 3)`` arrays that broadcast, with the same roundings."""
    products = a.take(_ROLLS, -1) * b.take(_ROLLS_SWAPPED, -1)
    return products[..., 0, :] - products[..., 1, :]


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


def _tiled(*vecs) -> tuple[int, list[np.ndarray]]:
    """The row count ``n`` of unit ``(3,)`` vectors and ``(n, 3)`` rows, and
    each of them as ``(n, 3)`` rows."""
    n = next((len(v) for v in vecs if v.ndim == 2), 1)
    return n, [v if v.ndim == 2 else v[None].repeat(n, 0) for v in vecs]


def _stacked_dots(left: list[np.ndarray], right: list[np.ndarray],
                  n: int) -> list[list[float]]:
    """The row scalar products of the ``(n, 3)`` blocks ``left[k]`` and
    ``right[k]``, stacked into one :func:`_rowdot` call, as one list of
    floats per block."""
    size = len(left) * n
    rows = np.concatenate(left + right)
    flat = _rowdot(rows[:size], rows[size:]).tolist()
    return [flat[k * n:(k + 1) * n] for k in range(len(left))]


# The formulas run row by row in Python floats: +, -, *, /, math.sqrt and
# math.atan2 round as numpy's elementwise ufuncs and libm do.

def _moduli(nums: Iterable[float], fi: list[float]) -> list[float]:
    """``sqrt(num / (1 + f.i))`` row by row, clipped at 0 as ``np.maximum``
    clips (a NaN stays NaN); NaN where ``1 + f.i`` is at or below
    ``2 DEFAULT_TOL.orthogonality**2`` (i antipodal to f)."""
    floor = 2.0 * DEFAULT_TOL.orthogonality**2
    out = []
    for num, dot in zip(nums, fi):
        den = 1.0 + dot
        ratio = num / den if den > floor else math.nan
        out.append(math.sqrt(0.0 if ratio <= 0.0 else ratio))
    return out


def _weak_modulus_rows(fr: list[float], ri: list[float], fi: list[float]) -> list[float]:
    return _moduli((0.5 * (1.0 + a) * (1.0 + b) for a, b in zip(fr, ri)), fi)


def _modular_modulus_rows(fs: list[float], fi: list[float]) -> list[float]:
    return _moduli((1.0 + a for a in fs), fi)


def _reduce_to_branch(omega: float) -> float:
    # Solid angles live on (-2*pi, 2*pi]; -2*atan2 lands on [-2*pi, 2*pi).
    if omega <= -2.0 * math.pi:
        omega += 4.0 * math.pi
    return omega


def _triangles(y: list[float], fr: list[float], ri: list[float],
               fi: list[float]) -> list[float | None]:
    """Solid angles of the triangles i -> r -> f row by row, from
    ``y = f.(r x i)`` and the three scalar products; ``None`` for each
    undefined triangle."""
    zero = DEFAULT_TOL.zero
    out = []
    for yy, a, b, c in zip(y, fr, ri, fi):
        x = 1.0 + a + b + c
        if abs(x) <= zero and abs(yy) <= zero:
            out.append(None)  # antipodal vertices: no defined area
        else:
            # libm's atan2 per row: numpy's vectorized arctan2 differs in the last bit.
            out.append(_reduce_to_branch(-2.0 * math.atan2(yy, x)))
    return out


def _triangle_dots(vi: np.ndarray, vr: np.ndarray, vf: np.ndarray) -> list[list[float]]:
    """``f.(r x i)``, ``f.r``, ``r.i`` and ``f.i`` of the triangles (i, r, f)
    of unit ``(3,)`` vectors or ``(n, 3)`` rows, one float per row."""
    n, (i, r, f) = _tiled(vi, vr, vf)
    return _stacked_dots([f, f, r, f], [_cross(r, i), r, i, i], n)


def _triangle_rows(vi: np.ndarray, vr: np.ndarray, vf: np.ndarray) -> list[float | None]:
    """Triangle solid angles of unit ``(3,)`` vectors or ``(n, 3)`` rows, one
    per row, ``None`` for each undefined triangle."""
    return _triangles(*_triangle_dots(vi, vr, vf))


def _quadrangle_rows(vi: np.ndarray, vr: np.ndarray, vs: np.ndarray,
                     vf: np.ndarray) -> tuple[list[float | None], list[float], list[float]]:
    """Solid angles of the quadrangles i -> r -> s -> f row by row, ``None``
    where one is undefined, with ``f.s`` and ``f.i``.  Each is the triangles
    (i, r, s) and (i, s, f), whose shared i <-> s legs cancel, stacked into
    one :func:`_triangle_dots` call over 2n rows."""
    n, (i, r, s, f) = _tiled(vi, vr, vs, vf)
    y, fr, ri, fi = _triangle_dots(*(np.concatenate(pair) for pair in ((i, i), (r, s), (s, f))))
    angles = _triangles(y, fr, ri, fi)
    return ([None if a is None or b is None else a + b for a, b in zip(angles[:n], angles[n:])],
            fr[n:], fi[n:])


def _defined(angles: list[float | None]) -> list[float]:
    """``angles`` unchanged, unless one is undefined (``None``): then raise."""
    if None in angles:
        raise UndefinedSolidAngle(
            "triangle contains an antipodal pair; the enclosed area is ambiguous")
    return angles


def _factors(moduli: list[float],
             angles: list[float | None]) -> tuple[list[float], list[float]]:
    """The moduli and solid angles of a value's factors.  A NaN modulus (an
    initial point antipodal to the final one) raises
    :class:`OrthogonalSelection` before any angle is looked at.  A factor
    whose modulus is exactly 0 gets 0.0: its polygon has an antipodal pair
    there, but the value is 0 whatever its angle.  Any other undefined angle
    raises :class:`UndefinedSolidAngle`."""
    if any(map(math.isnan, moduli)):
        raise OrthogonalSelection("an initial point is antipodal to the final point")
    return moduli, _defined([0.0 if modulus == 0.0 else angle
                             for modulus, angle in zip(moduli, angles)])


def _weak_factors(vi: np.ndarray, vr: np.ndarray, vf: np.ndarray):
    """Factor moduli and triangle solid angles of the weak value of unit
    ``(m, 3)`` points (or one ``(3,)`` point) ``vi`` with ``vr`` and ``vf``."""
    y, fr, ri, fi = _triangle_dots(vi, vr, vf)
    return _factors(_weak_modulus_rows(fr, ri, fi), _triangles(y, fr, ri, fi))


def _modular_factors(vi: np.ndarray, vr: np.ndarray, vs: np.ndarray, vf: np.ndarray):
    """Factor moduli and quadrangle solid angles of the modular value of
    paired unit points ``vi`` and ``vs`` (``(m, 3)`` or ``(3,)``)."""
    angles, fs, fi = _quadrangle_rows(vi, vr, vs, vf)
    return _factors(_modular_modulus_rows(fs, fi), angles)


def _flat_rows(*vecs) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The batch shape of ``(..., 3)`` arrays that broadcast, and each array
    as a ``(3,)`` vector or as the ``(n, 3)`` rows of that shape."""
    arrays = [np.asarray(v, dtype=float) for v in vecs]
    shape = np.broadcast(*arrays).shape
    return shape[:-1], [
        a if a.ndim == 1 else (a if a.shape == shape else np.broadcast_to(a, shape)).reshape(-1, 3)
        for a in arrays]


def _shaped(values: list[float], shape: tuple[int, ...]) -> np.ndarray:
    return np.array(values, dtype=float).reshape(shape)


def weak_moduli(i, r, f) -> np.ndarray:
    """``sqrt(0.5 (1+f.r)(1+r.i) / (1+f.i))`` over ``(..., 3)`` arrays that
    broadcast; three single vectors give a numpy scalar.

    The modulus of the projector weak value ``<f|r><r|i>/<f|i>`` from unit
    Bloch vectors (the caller validates them).  Rows whose ``1+f.i`` is at or
    below ``2 DEFAULT_TOL.orthogonality**2`` (i antipodal to f) come back as NaN.
    """
    shape, rows = _flat_rows(i, r, f)
    return _shaped(_weak_modulus_rows(*_triangle_dots(*rows)[1:]), shape)[()]


def modular_moduli(i, s, f) -> np.ndarray:
    """``sqrt((1+f.s) / (1+f.i))`` over ``(..., 3)`` arrays that broadcast.

    The per-qubit modulus ratio of a modular value, ``s`` the evolved vector;
    NaN marks antipodal i and f as in :func:`weak_moduli`.
    """
    shape, rows = _flat_rows(i, s, f)
    _, fs, _, fi = _triangle_dots(*rows)  # of the triangles (i, s, f)
    return _shaped(_modular_modulus_rows(fs, fi), shape)[()]


def triangle_solid_angles(i, r, f) -> np.ndarray:
    """Oriented solid angles of geodesic triangles i -> r -> f -> i, batched.

    ``i``, ``r`` and ``f`` are ``(..., 3)`` arrays of unit vectors that
    broadcast against each other; each is validated by :func:`as_bloch_array`.
    Uses ``omega = -2 atan2(f.(r x i), 1 + f.r + r.i + f.i)`` reduced to
    (-2*pi, 2*pi].  If any triangle has both arctangent arguments below
    ``DEFAULT_TOL.zero`` (antipodal vertices), the batch raises
    :class:`UndefinedSolidAngle`.
    """
    shape, rows = _flat_rows(as_bloch_array(i), as_bloch_array(r), as_bloch_array(f))
    return _shaped(_defined(_triangle_rows(*rows)), shape)


def solid_angle_triangle(i, r, f) -> float:
    """Oriented solid angle of the geodesic triangle traversed i -> r -> f -> i.

    The result lies in (-2*pi, 2*pi] and equals minus twice the argument of the
    Bargmann triple of the three corresponding qubit states.  A configuration
    with both arctangent arguments below ``DEFAULT_TOL.zero`` (antipodal
    vertices) has no defined value and raises :class:`UndefinedSolidAngle`.
    """
    (omega,) = _defined(_triangle_rows(as_bloch(i), as_bloch(r), as_bloch(f)))
    return omega


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
    (omega,) = _defined(_quadrangle_rows(vi, vr, vs, vf)[0])
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
