"""Canonical frames for N-level triples.

Any triple (initial, projector, final) of N-level states can be rotated so
the projector state has all N-1 stellar points at the north pole and the
final state has N-1 coincident points in the xz half-plane.  Weak and modular
values are invariant under the rotation, which is what makes the geometric
factorization possible.  One construction serves every N: a Householder
reflection takes the projector state to ``|N-1>``, a second one on the first
N-1 components plus a phase on ``|N-1>`` takes the final state to the coherent
state.  The frame is held as two Householder vectors and applied to lists of
Python complexes, every sum in the fixed order of :mod:`majgeom.numerics`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bloch import _unit_row
from .majorana import SymmetricRepresentation, _majorana_points, _point_list, nlevel_state
from .numerics import _divided, _inner, _norm, _product, _sumsq

_NORTH = np.array([0.0, 0.0, 1.0])
_DIMENSIONS = "the three states must share a dimension"


@dataclass(frozen=True)
class StateAngles:
    """Four-angle parametrization
    ``(exp(1j*chi1) cos(eps) sin(theta), exp(1j*chi2) sin(eps) sin(theta), cos(theta))``
    of a qutrit.
    """

    theta: float
    epsilon: float
    chi1: float
    chi2: float


def params_to_state(p: StateAngles) -> np.ndarray:
    return np.array([
        np.exp(1j * p.chi1) * math.cos(p.epsilon) * math.sin(p.theta),
        np.exp(1j * p.chi2) * math.sin(p.epsilon) * math.sin(p.theta),
        math.cos(p.theta) + 0.0j,
    ])


def _phase(z: complex) -> complex:
    """``z / |z|`` of a Python complex, part by part; 1 for 0."""
    return _divided([z], abs(z))[0] if z else 1.0 + 0.0j


def _householder(x: list[complex],
                 direction: list[float]) -> tuple[list[complex], float, complex]:
    """Householder vector ``u`` and ``|u|^2/2`` of the reflection taking ``x``
    to ``phase * |x| * direction``, and that phase.

    The phase makes ``<x|image>`` negative, so ``x - image`` suffers no
    cancellation and vanishes only with ``x`` (then ``|u|^2/2`` is 0.0 and the
    reflection is the identity).  ``u`` is ``x - image`` scaled, as LAPACK
    scales it, to a component 1 along ``direction``:
    ``u = (conj(q) x + |x| direction) / (|x| + |<direction|x>|)`` with
    ``q = -phase``.  In one dimension any reflection is -1; this phase makes
    -1 the right map.
    """
    along = _inner(direction, x)
    q = _phase(along)
    norm = _norm(x)
    scale = norm + abs(along)
    if not scale:
        return list(x), 0.0, -q
    qr, qi = q.real, q.imag
    u = [complex(((z.real * qr + z.imag * qi) + norm * d) / scale,
                 (z.imag * qr - z.real * qi) / scale) for z, d in zip(x, direction)]
    return u, 0.5 * _sumsq(u), -q


def _reflect(x: list[complex], u: list[complex], half: float) -> list[complex]:
    """``x - u (u^H x) / half``: a Householder reflection applied to one
    vector, ``half`` being ``|u|^2/2`` (0.0: the identity)."""
    if not half:
        return list(x)
    c = _inner(u, x)
    cr, ci = c.real, c.imag
    return [complex(z.real - (cr * w.real - ci * w.imag) / half,
                    z.imag - (cr * w.imag + ci * w.real) / half) for z, w in zip(x, u)]


@functools.lru_cache(maxsize=None)
def _coherent_roots(m: int) -> tuple[float, ...]:
    """``sqrt(C(m, k))`` for k = 0..m-1."""
    return tuple(math.sqrt(float(math.comb(m, k))) for k in range(m))


def _coherent_direction(w: float, v: float, m: int) -> list[float]:
    """Unit vector along the first m amplitudes of the coherent state with
    ``|<N-1|state>|^2 = w^m``, given ``v = 1 - w``.

    That state has amplitudes ``sqrt(C(m, k)) v^((m-k)/2) w^(k/2)``;
    ``sqrt(v)`` is divided out so the direction stays defined at ``v = 0``.
    """
    sv, sw = math.sqrt(v), math.sqrt(w)
    amps = [root * sv ** (m - 1 - k) * sw ** k for k, root in enumerate(_coherent_roots(m))]
    norm = _norm(amps)
    return [a / norm for a in amps]


@dataclass(frozen=True, eq=False)
class CanonicalTriple:
    """Result of rotating a triple into the canonical frame.

    ``psi_*`` are the frame applied to the gauge-fixed inputs: ``psi_r`` is a
    phase times ``|N-1>`` and ``psi_f`` a phase times the coherent state whose
    points all sit at the unit vector ``f_vec``.  ``eta`` is ``arccos |<r|f>|``,
    evaluated as an ``atan2`` that stays accurate near 0.
    """

    u_total: np.ndarray
    r_vec: np.ndarray
    f_vec: np.ndarray
    i_rep: SymmetricRepresentation
    psi_i: np.ndarray
    psi_r: np.ndarray
    psi_f: np.ndarray
    eta: float


def canonicalize_triple(psi_i, psi_r, psi_f) -> CanonicalTriple:
    """Rotate (initial, projector, final) into the canonical frame.

    Afterwards the projector state has all points at the north pole and the
    final state all points at ``(2 sqrt(w(1-w)), 0, 2w-1)`` with
    ``w = |<r|f>|^(2/(N-1))``, taken in closed form: an (N-1)-fold root
    loses accuracy like eps^(1/(N-1)).  The initial state's stellar
    representation is returned; its K is computed only when read.  The states
    and points are the frame's, as the geometric value routes take them;
    ``u_total`` is the frame applied to the identity.
    """
    si, sr, sf = (nlevel_state(s).tolist() for s in (psi_i, psi_r, psi_f))
    if len(si) != len(sf):
        raise ValueError(_DIMENSIONS)
    to_frame, f_vec, eta = _frame(sr, sf)
    image_i = to_frame(si)
    columns = [to_frame(e) for e in np.eye(len(si), dtype=complex).tolist()]
    return CanonicalTriple(
        u_total=np.array(columns).T.copy(),
        r_vec=_NORTH.copy(),
        f_vec=np.array(f_vec),
        i_rep=_majorana_points(_divided(image_i, _norm(image_i))),
        psi_i=np.array(image_i),
        psi_r=np.array(to_frame(sr)),
        psi_f=np.array(to_frame(sf)),
        eta=eta,
    )


def _frame(sr: list[complex], sf: list[complex]) -> tuple[Callable, list[float], float]:
    """The frame of the validated projector and final states (Python
    complexes) as the map it applies to a state vector (two Householder
    reflections held as vectors, then a phase on ``|N-1>``), f's frame point,
    renormalized once so the Bloch kernel reads it as it stands, and ``eta``."""
    if len(sr) != len(sf):
        raise ValueError(_DIMENSIONS)
    m = len(sr) - 1
    first, h_first, _ = _householder(sr, [0.0] * m + [1.0])
    f_first = _reflect(sf, first, h_first)
    overlap = min(1.0, abs(f_first[m]))
    rest = _norm(f_first[:m])
    w = overlap ** (2.0 / m)
    # 1 - w from the rest's norm where the subtraction would cancel: near the
    # north pole the point moves like the square root of any error in w.
    v = 1.0 - w if w < 0.5 else -math.expm1(math.log1p(-rest * rest) / m)
    second, h_second, phase = _householder(f_first[:m], _coherent_direction(w, v, m))
    phase = _product(phase, _phase(f_first[m]).conjugate())

    def to_frame(x: list[complex]) -> list[complex]:
        y = _reflect(x, first, h_first)
        return _reflect(y[:m], second, h_second) + [_product(y[m], phase)]

    f_vec = _unit_row([2.0 * math.sqrt(w * v), 0.0, w - v])
    return to_frame, f_vec, math.atan2(rest, overlap)


def _frame_points(psi: list[complex]) -> list[list[float]]:
    """The stellar points of a frame image, divided by its norm once and
    given no gauge, as the rows of Python floats that
    :func:`_majorana_points` holds: bit for bit :func:`majorana_points` of it."""
    return _point_list(_divided(psi, _norm(psi)))
