"""Canonical frames for N-level triples.

Any triple (initial, projector, final) of N-level states can be rotated so
the projector state has all N-1 stellar points at the north pole and the
final state has N-1 coincident points in the xz half-plane.  Weak and modular
values are invariant under the rotation, which is what makes the geometric
factorization possible.  One construction serves every N: a Householder
reflection takes the projector state to ``|N-1>``, a second one on the first
N-1 components plus a phase on ``|N-1>`` takes the final state to the coherent
state.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bloch import _unit
from .majorana import SymmetricRepresentation, _majorana_points, _normalized, nlevel_state
from .numerics import _norm

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
    return z / abs(z) if z != 0 else 1.0 + 0.0j


def _householder(x: np.ndarray, direction: np.ndarray) -> tuple[np.ndarray, float, complex]:
    """Householder vector ``v`` and ``2/|v|^2`` of the reflection taking ``x``
    to ``phase * |x| * direction``, and that phase.

    The phase makes ``<x|image>`` negative, so ``v = x - image`` suffers no
    cancellation and vanishes only with ``x`` (then ``2/|v|^2`` is 0.0 and the
    reflection is the identity).  In one dimension any reflection is -1; this
    phase makes -1 the right map.
    """
    phase = -_phase(np.vdot(direction, x))
    v = x - (phase * _norm(x)) * direction
    scale = np.vdot(v, v).real
    return v, (2.0 / scale if scale else 0.0), phase


def _reflect(x: np.ndarray, v: np.ndarray, k: float) -> np.ndarray:
    """``x - k v (v^H x)``: a Householder reflection applied to one vector."""
    return x - (k * np.vdot(v, x)) * v


@functools.lru_cache(maxsize=None)
def _coherent_weights(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sqrt(C(m, k))``, ``m - 1 - k`` and ``k`` for k = 0..m-1."""
    k = np.arange(m)
    return np.sqrt([float(math.comb(m, j)) for j in range(m)]), m - 1 - k, k


def _coherent_direction(w: float, v: float, m: int) -> np.ndarray:
    """Unit vector along the first m amplitudes of the coherent state with
    ``|<N-1|state>|^2 = w^m``, given ``v = 1 - w``.

    That state has amplitudes ``sqrt(C(m, k)) v^((m-k)/2) w^(k/2)``;
    ``sqrt(v)`` is divided out so the direction stays defined at ``v = 0``.
    """
    roots, v_powers, w_powers = _coherent_weights(m)
    amps = roots * math.sqrt(v) ** v_powers * math.sqrt(w) ** w_powers
    return amps / math.sqrt(amps.dot(amps))


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
    si, sr, sf = (nlevel_state(s) for s in (psi_i, psi_r, psi_f))
    if si.size != sf.size:
        raise ValueError(_DIMENSIONS)
    to_frame, f_vec, eta = _frame(sr, sf)
    image_i = to_frame(si)
    return CanonicalTriple(
        u_total=np.stack([to_frame(e) for e in np.eye(si.size, dtype=complex)], axis=1),
        r_vec=_NORTH.copy(),
        f_vec=f_vec,
        i_rep=_frame_points(image_i),
        psi_i=image_i,
        psi_r=to_frame(sr),
        psi_f=to_frame(sf),
        eta=eta,
    )


def _frame(sr: np.ndarray, sf: np.ndarray) -> tuple[Callable, np.ndarray, float]:
    """The frame of the validated projector and final states as the map it
    applies to a state vector (two Householder reflections held as vectors,
    then a phase on ``|N-1>``), f's frame point, renormalized once so the Bloch
    kernel reads it as it stands, and ``eta``."""
    if sr.size != sf.size:
        raise ValueError(_DIMENSIONS)
    m = sr.size - 1
    top = np.zeros(m + 1)
    top[m] = 1.0
    first, k_first, _ = _householder(sr, top)
    f_first = _reflect(sf, first, k_first)
    overlap = min(1.0, abs(f_first[m]))
    rest = _norm(f_first[:m])
    w = overlap ** (2.0 / m)
    # 1 - w from the rest's norm where the subtraction would cancel: near the
    # north pole the point moves like the square root of any error in w.
    v = 1.0 - w if w < 0.5 else -math.expm1(math.log1p(-rest * rest) / m)
    second, k_second, phase = _householder(f_first[:m], _coherent_direction(w, v, m))
    phase *= _phase(f_first[m]).conjugate()

    def to_frame(x: np.ndarray) -> np.ndarray:
        y = _reflect(x, first, k_first)
        y[:m] = _reflect(y[:m], second, k_second)
        y[m] *= phase
        return y

    f_vec = _unit(np.array([2.0 * math.sqrt(w * v), 0.0, w - v]))
    return to_frame, f_vec, math.atan2(rest, overlap)


def _frame_points(psi: np.ndarray) -> SymmetricRepresentation:
    """The stellar points of a frame image, bit for bit :func:`majorana_points` of it."""
    return _majorana_points(_normalized(psi))

