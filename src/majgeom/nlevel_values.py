"""Weak and modular values of N-level observables.

Direct Hilbert-space evaluation works for every dimension and serves as the
oracle.  The geometric route factors each value into N-1 qubit contributions
via the stellar representation, after rotating the triple into the canonical
frame of :mod:`majgeom.canonical`; it is constructive for every supported N.
It ends in the assembly of the ``factored_*`` entry points, which also accept
caller-canonicalized point sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import _modular_factors, _weak_factors, as_bloch
from .canonical import _canonicalize
from .errors import IncompleteContext, ZeroDenominator
from .majorana import (
    _majorana_points,
    _normalized,
    _point_array,
    _point_rows,
    _symmetrized,
    nlevel_state,
)
from .numerics import (
    _CONTEXT_SLACK,
    _GELL_MANN_SLACK,
    _PAIRING_TIE_SLACK,
    DEFAULT_TOL,
    _check_finite,
    _check_hermitian,
    _checked_overlap,
    _norm,
    _spectral_exp,
    eig_hermitian,
    hermiticity_defect,
    unitary_exp,
)
from .polar import GeometricBreakdown, GeometricFactor, PolarComplex


def gell_mann_matrices() -> tuple[np.ndarray, ...]:
    """The eight traceless Hermitian generators with ``tr(L_a L_b) = 2 delta_ab``."""
    s3 = math.sqrt(3.0)
    return (
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
        np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
        np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
        np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
        np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
        np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
        np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
        np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / s3,
    )


GELL_MANN = gell_mann_matrices()

# Range of the largest |component| in which the norm's eight squares neither
# overflow nor lose bits to underflow; outside it, a direction is scaled by that
# component first.
_SQUARES_SAFE = (1e-140, 1e140)


@dataclass(frozen=True, eq=False)
class GellMannDirection:
    """Unit direction in the eight-dimensional generator space and the
    associated traceless Hermitian operator."""

    r8: np.ndarray
    operator: np.ndarray

    @classmethod
    def from_r8(cls, r8) -> "GellMannDirection":
        r = np.asarray(r8, dtype=float)
        if r.shape != (8,):
            raise ValueError("direction must have eight components")
        if not np.isfinite(r).all():
            raise ValueError("direction must be finite")
        peak = float(np.max(np.abs(r)))
        if peak == 0.0:
            raise ValueError("direction must be non-zero")
        if not _SQUARES_SAFE[0] <= peak <= _SQUARES_SAFE[1]:
            r = r / peak
        r = r / float(np.linalg.norm(r))
        op = sum(c * g for c, g in zip(r, GELL_MANN))
        return cls(r, op)

    @classmethod
    def from_operator(cls, operator) -> "GellMannDirection":
        op = np.asarray(operator, dtype=complex)
        if op.shape != (3, 3):
            raise ValueError("operator must be 3x3")
        _check_hermitian(op)
        if abs(np.trace(op)) > _GELL_MANN_SLACK:
            raise ValueError("operator must be traceless")
        r = np.array([0.5 * np.trace(op @ g).real for g in GELL_MANN])
        norm = float(np.linalg.norm(r))
        second = float(np.trace(op @ op).real)
        if abs(second - 2.0) > _GELL_MANN_SLACK or abs(norm - 1.0) > _GELL_MANN_SLACK:
            raise ValueError("operator must satisfy tr(L^2) = 2 (unit direction)")
        return cls(r, op)


@dataclass(frozen=True, eq=False)
class NLevelModularSpec:
    """Evolution data for an N-level modular value.

    The unitary is ``exp(1j*beta) * exp(-1j*alpha*(N-1)/2 * A)``; the (N-1)/2
    factor keeps ``alpha`` an ordinary rotation angle for spin operators and
    reduces to 1 for three-level systems.  ``eigen_choice`` selects which
    eigenvector of ``A`` anchors the geometric route (default: largest
    eigenvalue).  When ``generic_theta`` is set the plain evolution
    ``exp(-1j*theta*A)`` is used instead of the alpha convention.
    """

    observable: np.ndarray
    alpha: float = 0.0
    beta: float = 0.0
    eigen_choice: int | None = None
    generic_theta: float | None = None

    def __post_init__(self) -> None:
        _check_finite(alpha=self.alpha, beta=self.beta, generic_theta=self.generic_theta)


def _state_pair(psi_i, psi_f) -> tuple[np.ndarray, np.ndarray]:
    si, sf = nlevel_state(psi_i), nlevel_state(psi_f)
    if si.size != sf.size:
        raise ValueError("pre- and postselected states must share a dimension")
    return si, sf


def _validated_pair(psi_i, psi_f) -> tuple[np.ndarray, np.ndarray, complex]:
    si, sf = _state_pair(psi_i, psi_f)
    return si, sf, _checked_overlap(sf, si)


def weak_value_direct(psi_i, observable, psi_f) -> PolarComplex:
    """``<f|A|i> / <f|i>`` for a Hermitian observable."""
    si, sf, overlap = _validated_pair(psi_i, psi_f)
    a = _observable(observable, si.size)
    _check_hermitian(a)
    return PolarComplex.from_complex(np.vdot(sf, a @ si) / overlap)


def _observable(observable, dim: int) -> np.ndarray:
    a = np.asarray(observable, dtype=complex)
    if a.shape != (dim, dim):
        raise ValueError("observable dimension does not match the states")
    return a


def _evolution_strength(spec: NLevelModularSpec, dim: int) -> float:
    """The ``s`` of ``exp(-1j*s*A)``: ``generic_theta`` when set, else
    ``alpha*(N-1)/2``."""
    if spec.generic_theta is not None:
        return float(spec.generic_theta)
    return spec.alpha * (dim - 1) / 2.0


def modular_value_direct(psi_i, spec: NLevelModularSpec, psi_f) -> PolarComplex:
    """``exp(1j*beta) <f| U |i> / <f|i>`` with U from the spec's convention."""
    si, sf, overlap = _validated_pair(psi_i, psi_f)
    a = _observable(spec.observable, si.size)
    u = unitary_exp(a, phase=spec.beta, strength=_evolution_strength(spec, si.size))
    return PolarComplex.from_complex(np.vdot(sf, u @ si) / overlap)


@functools.lru_cache(maxsize=None)
def _permutation_table(m: int) -> np.ndarray:
    """Permutations of ``range(m)`` in lexicographic order, one per column."""
    count = math.factorial(m)
    flat = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(m))),
                       dtype=np.int8, count=count * m)
    return np.ascontiguousarray(flat.reshape(count, m).T)


def pair_points(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Reorder ``second`` to minimize the summed great-circle distance to
    ``first``.

    All permutations are scored at once.  ``second`` keeps its order unless
    the cheapest pairing is shorter than the identity by more than
    ``_PAIRING_TIE_SLACK``; then the first cheapest pairing (in lexicographic
    order) is returned.  Only sums over the paired polygons are
    contract-bearing.  Both sets are ``(m, 3)``, 1 <= m <= 7, checked before
    any m!-sized work; their rows are not.
    """
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    if a.shape != b.shape:
        raise ValueError("point sets must have matching shapes")
    _point_array(a)
    angles = np.arccos(np.clip(a @ b.T, -1.0, 1.0))
    table = _permutation_table(a.shape[0])
    costs = np.zeros(table.shape[1])
    for row, images in zip(angles, table):
        costs += row.take(images)
    best = int(costs.argmin())  # column 0 of the table is the identity
    if not costs[best] < costs[0] - _PAIRING_TIE_SLACK:  # False for NaN too
        best = 0
    return b.take(table[:, best], axis=0)


def factored_weak_value(i_points, r_point, f_point):
    """Projector weak value from canonicalized stellar points.

    One factor per initial point: modulus ``sqrt((1+f.r)(1+r.i_k)/(2(1+f.i_k)))``
    and solid angle of the (i_k, r, f) triangle, each evaluated for all points
    in one batch.  The normalization constants of the symmetrized states
    cancel for projector weak values.

    A factor whose modulus is exactly 0 (``r`` antipodal to ``i_k`` or to
    ``f``: ``<r|i> = 0`` or ``<f|r> = 0``) gets solid angle 0.0, and the value
    is then ``PolarComplex(0.0, 0.0)``.  Any other undefined triangle raises
    :class:`UndefinedSolidAngle`.
    """
    return _factored_weak_value(_point_rows(i_points), as_bloch(r_point), as_bloch(f_point))


def _factored_weak_value(vi: np.ndarray, vr: np.ndarray, vf: np.ndarray):
    """:func:`factored_weak_value` of validated unit vectors, or one ``(3,)`` ``vi``."""
    moduli, angles = _weak_factors(vi, vr, vf)
    breakdown = GeometricBreakdown(tuple(map(GeometricFactor, moduli, angles,
                                             vi.reshape(-1, 3))))
    return breakdown.to_polar(), breakdown


def _factored_modular_value(vi: np.ndarray, vs: np.ndarray, vr: np.ndarray, vf: np.ndarray,
                            k_ratio: float, *, dynamical: float):
    """:func:`factored_modular_value` of validated unit vectors (or one ``(3,)``
    point each), paired point sets, a known K_s / K_i and the dynamical phase."""
    moduli, omegas = _modular_factors(vi, vr, vs, vf)
    breakdown = GeometricBreakdown(
        tuple(map(GeometricFactor, moduli, omegas, vi.reshape(-1, 3), vs.reshape(-1, 3))),
        dynamical_phase=dynamical, k_ratio=k_ratio)
    return breakdown.to_polar(), breakdown


def factored_modular_value(i_points, s_points, r_point, f_point,
                           *, alpha: float, beta: float, eigenvalue: float):
    """Modular value from canonicalized stellar points of the initial and
    evolved states.

    Per pair (i_k, s_k): modulus ratio ``sqrt((1+f.s_k)/(1+f.i_k))`` and the
    quadrangle i_k -> r -> s_k -> f, as two triangle batches.  The dynamical
    phase is ``beta - alpha*(N-1)/2*eigenvalue`` and the overall modulus
    carries the normalization ratio K_s / K_i, each K read from the validated
    rows of its paired set.  A pair with modulus ratio 0 (``s_k`` antipodal to
    ``f``) gets solid angle 0.0, as in :func:`factored_weak_value`.
    :func:`qutrit_modular_value_geometric` ends in the same assembly.
    """
    _check_finite(alpha=alpha, beta=beta, eigenvalue=eigenvalue)
    return _paired_modular_value(i_points, s_points, r_point, f_point,
                                 dynamical=lambda m: beta - alpha * m / 2.0 * eigenvalue)


def _paired_modular_value(i_points, s_points, r_point, f_point, *, dynamical):
    """The modular value of point sets in one frame: ``s`` paired to ``i``,
    each set validated once (``s`` first, then ``i``, ``r`` and ``f``), and
    K_s / K_i read from the paired rows.  ``dynamical(m)`` is the dynamical
    phase for the m points, called only once both sets have passed."""
    vs = _point_rows(pair_points(i_points, s_points))
    vi = _point_rows(i_points)
    return _factored_modular_value(
        vi, vs, as_bloch(r_point), as_bloch(f_point),
        _symmetrized(vs)[1] / _symmetrized(vi)[1], dynamical=dynamical(vi.shape[0]))


def qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f):
    """Geometric weak value of the projector onto the N-level state ``psi_r``.

    Each input is validated once, the triple is rotated into the canonical
    frame, and the value is :func:`factored_weak_value` of the frame's
    points; it is 0 when ``<r|i> = 0`` or ``<f|r> = 0``, as that function
    describes.
    """
    si, sf, _ = _validated_pair(psi_i, psi_f)
    triple = _canonicalize(si, nlevel_state(psi_r), sf)
    return factored_weak_value(triple.i_rep.points, triple.r_vec, triple.f_vec)


def qutrit_modular_value_geometric(psi_i, spec: NLevelModularSpec, psi_f):
    """Geometric modular value for an N-level Hermitian observable.

    The anchor eigenvector is canonicalized together with the selections; the
    evolved state is pushed through the same frame before its points are read
    off.  The one eigendecomposition of the observable gives both the anchor
    and the evolution.  The points then go through the assembly that
    :func:`factored_modular_value` ends in: ``s`` is paired to ``i`` and each K
    is read from the validated paired rows, so both routes return the same
    bits for the same canonical points.  The dynamical phase is
    ``beta - s*eigenvalue`` for the evolution ``exp(-1j*s*A)`` that
    :func:`modular_value_direct` applies.  The selections are validated once;
    every renormalization of the validated states is kept, so the bits do not
    depend on where checks run.
    """
    si, sf, _ = _validated_pair(psi_i, psi_f)
    evals, evecs = eig_hermitian(_observable(spec.observable, si.size))
    index = spec.eigen_choice if spec.eigen_choice is not None else si.size - 1
    if not 0 <= index < si.size:
        raise ValueError("eigen_choice outside the spectrum")
    psi_r = evecs[:, index]
    strength = _evolution_strength(spec, si.size)

    triple = _canonicalize(_normalized(si), _normalized(psi_r), _normalized(sf))
    evolution = _spectral_exp(evals, evecs, 0.0, strength)
    psi_s = triple.u_total @ (evolution @ si)
    s_rep = _majorana_points(_normalized(psi_s / _norm(psi_s)))
    return _paired_modular_value(triple.i_rep.points, s_rep.points, triple.r_vec, triple.f_vec,
                                 dynamical=lambda m: spec.beta - strength * float(evals[index]))


def _check_context(projectors, dim: int) -> list[np.ndarray]:
    mats = [np.asarray(p, dtype=complex) for p in projectors]
    if not mats:
        raise IncompleteContext("context must contain at least one projector")
    for p in mats:
        if p.shape != (dim, dim):
            raise IncompleteContext("projector dimension does not match the states")
        if not hermiticity_defect(p) <= DEFAULT_TOL.unitarity:  # NaN and inf fail too
            raise IncompleteContext("context contains a non-Hermitian element")
        if float(np.max(np.abs(p @ p - p))) > _CONTEXT_SLACK:
            raise IncompleteContext("context contains a non-idempotent element")
    for a, b in itertools.combinations(mats, 2):
        if float(np.max(np.abs(a @ b))) > _CONTEXT_SLACK:
            raise IncompleteContext("context projectors are not mutually orthogonal")
    total = sum(mats)
    if float(np.max(np.abs(total - np.eye(dim)))) > _CONTEXT_SLACK:
        raise IncompleteContext("context projectors do not sum to the identity")
    return mats


def abl_distribution(psi_i, projectors, psi_f) -> np.ndarray:
    """Conditional outcome probabilities of an intermediate projective
    measurement between pre- and postselection:
    ``P(k) = |<f|P_k|i>|^2 / sum_j |<f|P_j|i>|^2``.
    """
    si, sf = _state_pair(psi_i, psi_f)
    mats = _check_context(projectors, si.size)
    weights = np.array([abs(complex(np.vdot(sf, p @ si))) ** 2 for p in mats])
    total = float(weights.sum())
    if total <= DEFAULT_TOL.zero:
        raise ZeroDenominator("no intermediate outcome is compatible with the selection")
    return weights / total


def abl_probability(psi_i, projectors, psi_f, k: int) -> float:
    dist = abl_distribution(psi_i, projectors, psi_f)
    if not 0 <= k < dist.size:
        raise ValueError("outcome index outside the context")
    return float(dist[k])
