"""Bloch-sphere geometry: qubit/vector maps, projection probabilities,
oriented solid angles of geodesic triangles and quadrangles, axis rotations.

Every modulus ratio and polygon solid angle comes from one per-row kernel:
the unit points are read once, and every product and formula runs row by
row in Python floats, whose bits no BLAS build moves.  Each ``1 + a.b`` of
unit vectors is read as the projection ``|a+b|^2/2`` (twice ``|<a|b>|^2``),
which keeps its relative accuracy where ``a`` nears ``-b``.  The scalar routes
(:func:`solid_angle_triangle`, :func:`solid_angle_quadrangle`) and the
factored weak and modular values of :mod:`majgeom.nlevel_values` share it;
only :func:`solid_angle_quadrangle_rotation`, an independent closed form,
does not.

The checks and maps in front of the kernel (:func:`as_bloch`,
:func:`qubit_to_bloch`, :func:`bloch_to_qubit`, the rotation) run on Python
floats too.  The batch check :func:`as_bloch_array` writes the same
expressions on numpy real columns, whose elementwise ``+ - * /`` and
``sqrt`` round as Python floats do.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .errors import OrthogonalSelection, UndefinedSolidAngle
from .numerics import (
    _DIAGONAL_FLOOR,
    _NORM_SLACK,
    _SOUTH_POLE_CUT,
    DEFAULT_TOL,
    _checked_norm,
    _divided,
    _fix_gauge,
)


def _dot(a, b) -> float:
    """``(a0 b0 + a1 b1) + a2 b2`` of two 3-vectors of Python floats."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _cross(a, b) -> list[float]:
    """The cross product of two 3-vectors of Python floats, as ``np.cross``
    forms it."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _unit_row(v) -> list[float]:
    """A 3-vector of Python floats divided by its norm ``sqrt(_dot(v, v))``."""
    a0, a1, a2 = v
    norm = math.sqrt((a0 * a0 + a1 * a1) + a2 * a2)
    return [a0 / norm, a1 / norm, a2 / norm]


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
    # _unit_row's norm on numpy columns: elementwise *, + and sqrt round as
    # Python floats do, so each row keeps as_bloch's bits.
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    with np.errstate(over="ignore"):  # a norm that overflows is inf and fails below
        norms = np.sqrt((x * x + y * y) + z * z)
    unit = abs(norms - 1.0) <= _NORM_SLACK  # False for NaN
    if np.count_nonzero(unit) != unit.size:
        if not np.isfinite(v).all():
            raise ValueError("Bloch vector must be finite")
        norm = float(np.ravel(norms)[~np.ravel(unit)][0])
        raise ValueError(f"Bloch vector norm {norm:.6f} deviates from 1 beyond {_NORM_SLACK}")
    return v / norms[..., None]


def _bloch_vector(vec) -> list[float]:
    """:func:`as_bloch` as Python floats, the form the value routes take."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have exactly three components")
    a0, a1, a2 = v.tolist()
    norm = math.sqrt((a0 * a0 + a1 * a1) + a2 * a2)
    if abs(norm - 1.0) <= _NORM_SLACK:  # False for NaN
        return [a0 / norm, a1 / norm, a2 / norm]
    return as_bloch_array(v)  # raises its error for this vector


def _bloch_rows(v: np.ndarray) -> list[list[float]]:
    """:func:`_bloch_vector` of each row of an ``(m, 3)`` float array; a set
    with a failing row raises :func:`as_bloch_array`'s error for the set."""
    rows = []
    for a0, a1, a2 in v.tolist():
        norm = math.sqrt((a0 * a0 + a1 * a1) + a2 * a2)
        if not abs(norm - 1.0) <= _NORM_SLACK:  # True for NaN
            return as_bloch_array(v)
        rows.append([a0 / norm, a1 / norm, a2 / norm])
    return rows


def as_bloch(vec) -> np.ndarray:
    """Validate and renormalize a unit 3-vector."""
    return np.array(_bloch_vector(vec))


def as_qubit(state) -> np.ndarray:
    """Validate, normalize and gauge-fix a two-component amplitude vector."""
    return _fix_gauge(np.array(_unit_qubit(state)))


def _unit_qubit(state) -> list[complex]:
    """:func:`as_qubit` without the gauge: two amplitudes checked and divided
    by their norm, as Python complexes, with the global phase left as given."""
    q = np.asarray(state, dtype=complex)
    if q.shape != (2,):
        raise ValueError("qubit state must have exactly two amplitudes")
    amplitudes = q.tolist()
    return _divided(amplitudes, _checked_norm(amplitudes, "qubit", "amplitudes"))


def qubit_to_bloch(state) -> np.ndarray:
    """Unit Bloch vector of a pure qubit state, checked and renormalized; its
    global phase, which moves no vector, is not fixed."""
    q0, q1 = _unit_qubit(state)
    a, b, c, d = q0.real, q0.imag, q1.real, q1.imag
    # 2 conj(q0) q1 and |q0|^2 - |q1|^2 in real components.
    return np.array(_unit_row([2.0 * (a * c + b * d), 2.0 * (a * d - b * c),
                               (a * a + b * b) - (c * c + d * d)]))


def _amplitudes(x: float, y: float, z: float) -> tuple[float, float, float, float]:
    """(re, im) of (cos(t/2), e^(i p) sin(t/2)) before renormalization.  South
    of the equator ``a0 = |x+iy| / (2 sin(t/2))``, which keeps its relative
    accuracy where ``sqrt((1+z)/2)`` would cancel."""
    if z < 0.0:
        a0 = math.hypot(x, y) / (2.0 * math.sqrt(0.5 * (1.0 - z)))
    else:
        a0 = math.sqrt(0.5 * (1.0 + z))
    if a0 < _SOUTH_POLE_CUT:
        return 0.0, 0.0, 1.0, 0.0
    scale = 2.0 * a0
    return a0, 0.0, x / scale, y / scale


def _qubit(x: float, y: float, z: float) -> tuple[complex, complex]:
    """The gauge-canonical qubit of a unit Bloch vector as two Python
    complexes: :func:`_amplitudes` divided by their norm."""
    a, b, c, d = _amplitudes(x, y, z)
    norm = math.sqrt((a * a + b * b) + (c * c + d * d))
    return complex(a / norm, b / norm), complex(c / norm, d / norm)


def bloch_to_qubit(vec) -> np.ndarray:
    """Gauge-canonical qubit state of a Bloch vector: ``(a0, a1)/|(a0, a1)|``
    with ``a0 = sqrt((1+z)/2)`` (``|x+iy| / sqrt(2(1-z))`` for z < 0) and
    ``a1 = (x + iy)/(2 a0)``; a south-pole vector (``a0`` below
    ``_SOUTH_POLE_CUT``) maps to ``(0, 1)``."""
    return np.array(_qubit(*_bloch_vector(vec)))


def projection_probability(u, v) -> float:
    """``|<phi_v|phi_u>|^2 = |u+v|^2/4`` of two Bloch vectors, which unlike
    ``(1 + u.v)/2`` keeps its relative accuracy near antipodes."""
    w = [a + b for a, b in zip(_bloch_vector(u), _bloch_vector(v))]
    return min(0.25 * _dot(w, w), 1.0)


# The formulas run row by row in Python floats: +, -, *, /, math.sqrt and
# math.atan2 round as numpy's elementwise ufuncs and libm do.

def _moduli(nums: Iterable[float], fi: list[float]) -> list[float]:
    """``sqrt(num / p)`` row by row with ``p = |f+i|^2/2``; NaN where ``p`` is
    at or below ``2 DEFAULT_TOL.orthogonality**2`` (i antipodal to f)."""
    floor = 2.0 * DEFAULT_TOL.orthogonality**2
    return [math.sqrt(num / den) if den > floor else math.nan for num, den in zip(nums, fi)]


def _weak_modulus_rows(fr: list[float], ri: list[float], fi: list[float]) -> list[float]:
    return _moduli((0.5 * a * b for a, b in zip(fr, ri)), fi)


def _reduce_to_branch(omega: float) -> float:
    # Solid angles live on (-2*pi, 2*pi]; -2*atan2 lands on [-2*pi, 2*pi).
    if omega <= -2.0 * math.pi:
        omega += 4.0 * math.pi
    return omega


def _triangles(y: list[float], x: list[float]) -> list[float | None]:
    """Solid angles ``-2 atan2(y, x)`` of the triangles i -> r -> f row by
    row, from :func:`_row_dots`'s ``y`` and ``x``; ``None`` for each
    undefined triangle."""
    zero = DEFAULT_TOL.zero
    # libm's atan2 per row: numpy's vectorized arctan2 differs in the last bit.
    return [None if abs(xx) <= zero and abs(yy) <= zero  # antipodal vertices: no defined area
            else _reduce_to_branch(-2.0 * math.atan2(yy, xx)) for yy, xx in zip(y, x)]


def _float_rows(*vecs) -> list[list[list[float]]]:
    """Unit 3-vectors and rows of them, as numpy arrays (``(3,)`` or
    ``(n, 3)``) or as lists of Python floats, turned into ``n`` rows of Python
    floats each; a single vector is one row, shared."""
    rows = [v.tolist() if isinstance(v, np.ndarray) else v for v in vecs]
    batch = [not v or type(v[0]) is list for v in rows]
    n = len(rows[batch.index(True)]) if True in batch else 1
    return [v if b else [v] * n for v, b in zip(rows, batch)]


def _row_dots(i_rows, r_rows, f_rows) -> tuple[list[float], ...]:
    """``y``, ``x`` and the projections ``|f+r|^2/2``, ``|r+i|^2/2`` and
    ``|f+i|^2/2`` of the triangles (i, r, f) of rows of three Python floats.

    ``y = f.(r x i)``, the cross product in :func:`_cross`'s order, and
    ``x = |f+i|^2/2 + r.(f+i)``, which is ``1 + f.r + r.i + f.i``.  Each sum of
    three products is ``(a0 b0 + a1 b1) + a2 b2``, never a fused ``a*b + c``.
    """
    y, x, fr, ri, fi = [], [], [], [], []
    for (i0, i1, i2), (r0, r1, r2), (f0, f1, f2) in zip(i_rows, r_rows, f_rows):
        y.append((f0 * (r1 * i2 - r2 * i1) + f1 * (r2 * i0 - r0 * i2))
                 + f2 * (r0 * i1 - r1 * i0))
        a0, a1, a2 = f0 + r0, f1 + r1, f2 + r2
        fr.append(0.5 * ((a0 * a0 + a1 * a1) + a2 * a2))
        a0, a1, a2 = r0 + i0, r1 + i1, r2 + i2
        ri.append(0.5 * ((a0 * a0 + a1 * a1) + a2 * a2))
        a0, a1, a2 = f0 + i0, f1 + i1, f2 + i2
        p = 0.5 * ((a0 * a0 + a1 * a1) + a2 * a2)
        fi.append(p)
        x.append(p + ((r0 * a0 + r1 * a1) + r2 * a2))
    return y, x, fr, ri, fi


def _triangle_dots(vi, vr, vf) -> tuple[list[float], ...]:
    """:func:`_row_dots` of unit vectors or rows, as :func:`_float_rows` takes them."""
    return _row_dots(*_float_rows(vi, vr, vf))


def _quadrangle_rows(i, r, s, f) -> tuple[list, ...]:
    """Solid angles of the quadrangles i -> r -> s -> f of rows of Python
    floats, ``None`` where one is undefined, with the projections
    ``|s+r|^2/2``, ``|r+i|^2/2``, ``|f+s|^2/2``, ``|f+i|^2/2`` and
    ``|s+i|^2/2``.  Each quadrangle is the triangles (i, r, s) and (i, s, f),
    whose shared i <-> s legs cancel, as one :func:`_row_dots` pass over 2n
    rows."""
    n = len(i)
    y, x, fr, ri, fi = _row_dots(i + i, r + s, s + f)
    return (_block_sums(_triangles(y, x), n), fr[:n], ri[:n], fr[n:], fi[n:], fi[:n])


def _block_sums(angles: list[float | None], n: int) -> list[float | None]:
    """``(angles[k] + angles[n + k]) + ...`` for k < n, ``None`` where any is."""
    rows = zip(*(angles[j:j + n] for j in range(0, len(angles), n)))
    return [None if None in q else sum(q[1:], q[0]) for q in rows]


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
    whose polygon is undefined (it has an antipodal pair) and whose modulus
    is at most ``DEFAULT_TOL.zero`` is an exact zero: its modulus and angle
    are 0.0, and the value is 0 whatever the angles, so any other undefined
    angle is 0.0 too.  Without an exact zero, an undefined angle raises
    :class:`UndefinedSolidAngle`."""
    if any(map(math.isnan, moduli)):
        raise OrthogonalSelection("an initial point is antipodal to the final point")
    zero = DEFAULT_TOL.zero
    if None in angles and any(a is None and m <= zero for m, a in zip(moduli, angles)):
        moduli = [0.0 if a is None and m <= zero else m for m, a in zip(moduli, angles)]
        angles = [0.0 if a is None else a for a in angles]
    return moduli, _defined(angles)


def _weak_factors(vi, vr, vf):
    """Factor moduli and triangle solid angles of the weak value of unit
    points ``vi`` (rows, or one vector) with ``vr`` and ``vf``."""
    y, x, fr, ri, fi = _triangle_dots(vi, vr, vf)
    return _factors(_weak_modulus_rows(fr, ri, fi), _triangles(y, x))


def _modular_factors(vi, vr, vs, vf):
    """Factor moduli and quadrangle solid angles of the modular value of unit
    points ``vi`` and ``vs`` (rows, or one vector each), with the anchor
    projections ``|r+i_k|^2/2`` and ``|r+s_k|^2/2`` of the same pass.

    Each quadrangle i_k -> r -> s_k -> f is split along its i-s diagonal.
    Where ``|s_k+i_k|^2/2`` is below ``_DIAGONAL_FLOOR`` (those triangles
    round like ``u/|s_k+i_k|``, and have no area at ``s_k = -i_k``) and
    ``|r+f|^2/2`` is larger, its angle is taken along the r-f diagonal
    instead, as the triangles (i_k, r, f) and (r, s_k, f) of one more
    :func:`_row_dots` pass over those rows; the moduli and projections keep
    the i-s pass's bits.

    A quadrangle still undefined, as where both diagonals are at antipodes
    or two legs of one of its triangles are, is summed as the fan of
    triangles (p, i_k, r), (p, r, s_k), (p, s_k, f) and (p, f, i_k) from the
    coordinate axis p whose least ``p.v`` over the four vertices is largest.
    A vertex has ``p.v < -3/4`` for at most one of the six axes, so every
    ``|p+v|^2/2`` is at least 1/4, and only two adjacent vertices at
    antipodes leave a fan triangle undefined."""
    i, r, s, f = _float_rows(vi, vr, vs, vf)
    angles, sr, ri, fs, fi, si = _quadrangle_rows(i, r, s, f)
    if min(si) < _DIAGONAL_FLOOR:
        near = [k for k, p in enumerate(si) if p < _DIAGONAL_FLOOR]
        qi, qr, qs, qf = ([rows[k] for k in near] for rows in (i, r, s, f))
        y, x, rf, _, _ = _row_dots(qi + qr, qr + qs, qf + qf)
        for k, p, angle in zip(near, rf, _block_sums(_triangles(y, x), len(near))):
            if p > si[k]:
                angles[k] = angle
    if None in angles:
        axes = [[a * (j == k) for k in range(3)] for j in range(3) for a in (1.0, -1.0)]
        rows = [(i[k], r[k], s[k], f[k]) for k, a in enumerate(angles) if a is None]
        hubs = [max(axes, key=lambda e: min(_dot(e, v) for v in row)) for row in rows]
        n, ends = len(rows), [row[j] for j in range(4) for row in rows]
        y, x, _, _, _ = _row_dots(hubs * 4, ends, ends[n:] + ends[:n])
        fans = iter(_block_sums(_triangles(y, x), n))
        angles = [next(fans) if a is None else a for a in angles]
    return (*_factors(_moduli(fs, fi), angles), ri, sr)


def solid_angle_triangle(i, r, f) -> float:
    """Oriented solid angle of the geodesic triangle traversed i -> r -> f -> i.

    The result lies in (-2*pi, 2*pi] and equals minus twice the argument of the
    Bargmann triple of the three corresponding qubit states.  A configuration
    with both arctangent arguments below ``DEFAULT_TOL.zero`` (antipodal
    vertices) has no defined value and raises :class:`UndefinedSolidAngle`.
    """
    vi, vr, vf = _bloch_vector(i), _bloch_vector(r), _bloch_vector(f)
    (omega,) = _defined(_triangles(*_triangle_dots(vi, vr, vf)[:2]))
    return omega


def rodrigues_rotate(i, r, alpha: float) -> np.ndarray:
    """Rotate ``i`` about the axis ``r`` by ``alpha`` radians."""
    return np.array(_rotate(_bloch_vector(i), _bloch_vector(r), alpha))


def _rotate(vi: list[float], vr: list[float], alpha: float) -> list[float]:
    """:func:`rodrigues_rotate` of unit vectors of Python floats,
    ``(cos a i + (r.i)(1 - cos a) r) + sin a (r x i)`` renormalized."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    k = _dot(vr, vi) * (1.0 - ca)
    return _unit_row([(ca * a + k * b) + sa * c for a, b, c in zip(vi, vr, _cross(vr, vi))])


def solid_angle_quadrangle(i, r, s, f) -> float:
    """Oriented solid angle of the spherical quadrangle i -> r -> s -> f -> i.

    Defined as the sum of the triangles (i, r, s) and (i, s, f); the shared
    i <-> s geodesic legs cancel.  The raw sum is returned (callers compare
    modulo 4*pi).
    """
    (omega,) = _defined(_quadrangle_rows(*([_bloch_vector(v)] for v in (i, r, s, f)))[0])
    return omega


def solid_angle_quadrangle_rotation(i, r, f, alpha: float) -> float:
    """Closed-form quadrangle solid angle when ``s`` is ``i`` rotated about ``r``.

    Evaluates the quadrangle i -> r -> s -> f -> i without constructing ``s``,
    using only scalar and triple products of the three remaining vectors.  The
    expression is regularized so it stays finite at alpha = pi.
    """
    vi, vr, vf = _bloch_vector(i), _bloch_vector(r), _bloch_vector(f)
    c = math.cos(0.5 * alpha)
    sn = math.sin(0.5 * alpha)
    volume = _dot(vf, _cross(vr, vi))
    pair = _dot(vf, vr) + _dot(vr, vi)
    base = 1.0 + _dot(vf, vi)
    re = c * c * base + volume * sn * c + pair * sn * sn
    im = sn * c * base + volume * sn * sn - pair * sn * c
    if abs(re) <= DEFAULT_TOL.zero and abs(im) <= DEFAULT_TOL.zero:
        raise UndefinedSolidAngle("rotated quadrangle is degenerate; no defined area")
    return _reduce_to_branch(-2.0 * math.atan2(im, re))
