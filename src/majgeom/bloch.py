"""Bloch-sphere geometry: qubit/vector maps, projection probabilities,
oriented solid angles of geodesic triangles and quadrangles, axis rotations.

Every modulus ratio and polygon solid angle comes from one per-row kernel,
:func:`_polygons`.  A polygon's solid angle is minus twice the argument of
the cyclic product of its vertices' overlaps, ``<f|s><s|r><r|i><i|f>`` (or
``<f|r><r|i><i|f>``), with each vertex taken as an unnormalized spinor
straight from its coordinates.  No diagonal splits the polygon, so the angle
rounds like ``u/|<a|b>|`` of its adjacent vertices, as the polygon itself is
conditioned.  The moduli come from the projections ``|a+b|^2/2`` (twice
``|<a|b>|^2``) of the same adjacent vertices, which keep their relative
accuracy where ``a`` nears ``-b``.  Every product and formula runs row by
row in Python floats, whose bits no BLAS build moves.  The scalar routes
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


def _reduce_to_branch(omega: float) -> float:
    # Solid angles live on (-2*pi, 2*pi]; -2*atan2 lands on [-2*pi, 2*pi].
    if omega <= -2.0 * math.pi:
        omega += 4.0 * math.pi
    return omega


def _vertices(v) -> list[tuple[float, ...]]:
    """Unit 3-vectors, an ``(n, 3)`` array or list of rows of Python floats
    or a single vector (one row, shared by every row), as rows ``(x, y, z)``
    followed by the real and imaginary parts of the unnormalized spinor:
    ``(1+z, x+iy)`` for z >= 0 and ``(x-iy, 1-z)`` below, whose squared norm
    ``2(1+|z|)`` lies in [2, 4]."""
    v = v.tolist() if isinstance(v, np.ndarray) else v
    return [(x, y, z, 1.0 + z, 0.0, x, y) if z >= 0.0 else (x, y, z, x, -y, 1.0 - z, 0.0)
            for x, y, z in (v if not v or type(v[0]) is list else [v])]


def _chain(a, b, c, tail) -> tuple[list, list[float], list[float]]:
    """``<a|b><b|c>`` times ``tail``'s entry, row by row, from
    :func:`_vertices` rows (a single row is shared by all), with the
    projections ``|a+b|^2/2`` and ``|b+c|^2/2``.  The entry is ``None`` where
    ``tail``'s is, or where a projection is at or below ``2 zero**2``: there
    ``|<a|b>|`` or ``|<b|c>|`` is at most ``DEFAULT_TOL.zero``.  Each overlap
    and product is written in real components, never fused."""
    n = max(len(a), len(b), len(c), len(tail))
    floor = 2.0 * DEFAULT_TOL.zero**2
    out, ab, bc = [], [], []
    for (x0, y0, z0, a0, a1, a2, a3), (x1, y1, z1, b0, b1, b2, b3), \
            (x2, y2, z2, c0, c1, c2, c3), t in zip(
                a if len(a) == n else a * n, b if len(b) == n else b * n,
                c if len(c) == n else c * n, tail if len(tail) == n else tail * n):
        s0, s1, s2 = x0 + x1, y0 + y1, z0 + z1
        p = 0.5 * ((s0 * s0 + s1 * s1) + s2 * s2)
        s0, s1, s2 = x1 + x2, y1 + y2, z1 + z2
        q = 0.5 * ((s0 * s0 + s1 * s1) + s2 * s2)
        ab.append(p)
        bc.append(q)
        if t is None or p <= floor or q <= floor:
            out.append(None)
            continue
        re1 = (a0 * b0 + a1 * b1) + (a2 * b2 + a3 * b3)
        im1 = (a0 * b1 - a1 * b0) + (a2 * b3 - a3 * b2)
        re2 = (b0 * c0 + b1 * c1) + (b2 * c2 + b3 * c3)
        im2 = (b0 * c1 - b1 * c0) + (b2 * c3 - b3 * c2)
        re, im = re1 * re2 - im1 * im2, re1 * im2 + im1 * re2
        tr, ti = t
        out.append((re * tr - im * ti, re * ti + im * tr))
    return out, ab, bc


def _polygons(i, r, s, f) -> tuple[list[float | None], tuple[list[float], ...]]:
    """Solid angles of the quadrangles i -> r -> s -> f (the triangles
    i -> r -> f where ``s`` is ``None``) of unit vectors or rows, as
    :func:`_vertices` takes them, row by row, with the projections
    ``|r+i|^2/2``, ``|s+r|^2/2``, ``|f+s|^2/2`` and ``|f+i|^2/2`` of the
    adjacent vertices (``|f+r|^2/2`` and ``|f+f|^2/2`` in the middle for a
    triangle).

    Each angle is minus twice the argument of the cyclic product
    ``<f|s><s|r><r|i><i|f>`` of the vertices' spinors, formed as the halves
    ``<f|s><s|r>`` and ``<r|i><i|f>``; a half whose vertices are single
    vectors is formed once for all rows.  The argument depends on no
    spinor's scale or phase, and each overlap rounds to about ``u/|<a|b>|``
    relative: the angle is as well conditioned as the polygon.  It is
    ``None`` (undefined) where some adjacent ``|<a|b>|`` is at most
    ``DEFAULT_TOL.zero``."""
    i, r, f = _vertices(i), _vertices(r), _vertices(f)
    s = f if s is None else _vertices(s)
    half, fs, sr = _chain(f, s, r, [(1.0, 0.0)])
    products, ri, fi = _chain(r, i, f, half)
    n = len(products)
    # libm's atan2 per row: numpy's vectorized arctan2 differs in the last bit.
    angles = [None if z is None else _reduce_to_branch(-2.0 * math.atan2(z[1], z[0]))
              for z in products]
    return angles, (ri, sr if len(sr) == n else sr * n, fs if len(fs) == n else fs * n, fi)


def _defined(angles: list[float | None]) -> list[float]:
    """``angles`` unchanged, unless one is undefined (``None``): then raise."""
    if None in angles:
        raise UndefinedSolidAngle(
            "polygon has adjacent antipodal vertices; the enclosed area is ambiguous")
    return angles


def _factors(moduli: list[float],
             angles: list[float | None]) -> tuple[list[float], list[float]]:
    """The moduli and solid angles of a value's factors.  A NaN modulus (an
    initial point antipodal to the final one) raises
    :class:`OrthogonalSelection` before any angle is looked at.  A factor
    whose polygon is undefined (two adjacent vertices at antipodes) and
    whose modulus is at most ``DEFAULT_TOL.zero`` is an exact zero: its modulus and angle
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


def _weak_columns(vi, vr, vf) -> tuple[list[float], list[float | None]]:
    """Factor moduli, NaN where ``i_k`` is antipodal to ``f``, and triangle
    solid angles, ``None`` where undefined, of the weak value of unit points
    ``vi`` with ``vr`` and ``vf`` (each rows, or one vector)."""
    angles, (ri, fr, _, fi) = _polygons(vi, vr, None, vf)
    return _moduli((0.5 * a * b for a, b in zip(fr, ri)), fi), angles


def _weak_factors(vi, vr, vf):
    """:func:`_factors` of :func:`_weak_columns`."""
    return _factors(*_weak_columns(vi, vr, vf))


def _modular_factors(vi, vr, vs, vf):
    """Factor moduli and quadrangle solid angles of the modular value of unit
    points ``vi`` and ``vs`` (rows, or one vector each), with the anchor
    projections ``|r+i_k|^2/2`` and ``|r+s_k|^2/2`` of the same pass."""
    angles, (ri, sr, fs, fi) = _polygons(vi, vr, vs, vf)
    return (*_factors(_moduli(fs, fi), angles), ri, sr)


def solid_angle_triangle(i, r, f) -> float:
    """Oriented solid angle of the geodesic triangle traversed i -> r -> f -> i.

    The result lies in (-2*pi, 2*pi] and equals minus twice the argument of the
    Bargmann triple ``<f|r><r|i><i|f>`` of the three corresponding qubit
    states.  A triangle with two vertices within ``DEFAULT_TOL.zero`` of
    antipodes (an overlap ``|<a|b>|`` at most that) has no defined value and
    raises :class:`UndefinedSolidAngle`.
    """
    vi, vr, vf = _bloch_vector(i), _bloch_vector(r), _bloch_vector(f)
    (omega,) = _defined(_polygons(vi, vr, None, vf)[0])
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

    Minus twice the argument of the cyclic product ``<f|s><s|r><r|i><i|f>``,
    in (-2*pi, 2*pi].  A quadrangle with two adjacent vertices within
    ``DEFAULT_TOL.zero`` of antipodes raises :class:`UndefinedSolidAngle`.
    """
    (omega,) = _defined(_polygons(*(_bloch_vector(v) for v in (i, r, s, f)))[0])
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
