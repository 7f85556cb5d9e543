"""Weak and modular values of N-level observables.

Direct Hilbert-space evaluation works for every dimension and serves as the
oracle.  The geometric route factors each value into N-1 qubit contributions
via the stellar representation; it is constructive for N = 2 and 3 and, for
larger N, available through entry points that accept caller-canonicalized
point sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import _solid_angles, as_bloch, as_bloch_array, modular_moduli, weak_moduli
from .canonical import canonicalize_triple
from .errors import IncompleteContext, NotHermitian, OrthogonalSelection, ZeroDenominator
from .majorana import majorana_points, nlevel_state, normalization_factor
from .numerics import DEFAULT_TOL, Tolerances, eig_hermitian, hermiticity_defect, unitary_exp
from .polar import GeometricBreakdown, GeometricFactor, PolarComplex

_NORTH = np.array([0.0, 0.0, 1.0])


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


@dataclass(frozen=True)
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
        norm = float(np.linalg.norm(r))
        if norm <= 0.0:
            raise ValueError("direction must be non-zero")
        r = r / norm
        op = sum(c * g for c, g in zip(r, GELL_MANN))
        return cls(r, op)

    @classmethod
    def from_operator(cls, operator, *, tol: Tolerances = DEFAULT_TOL) -> "GellMannDirection":
        op = np.asarray(operator, dtype=complex)
        if op.shape != (3, 3):
            raise ValueError("operator must be 3x3")
        _check_hermitian(op, tol)
        if abs(np.trace(op)) > 1e-9:
            raise ValueError("operator must be traceless")
        r = np.array([0.5 * np.trace(op @ g).real for g in GELL_MANN])
        norm = float(np.linalg.norm(r))
        second = float(np.trace(op @ op).real)
        if abs(second - 2.0) > 1e-9 or abs(norm - 1.0) > 1e-9:
            raise ValueError("operator must satisfy tr(L^2) = 2 (unit direction)")
        return cls(r, op)

    def is_spin_like(self) -> bool:
        """True when det = 0, i.e. the spectrum is {-1, 0, +1}."""
        return abs(complex(np.linalg.det(self.operator))) <= 1e-9


@dataclass(frozen=True)
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


def _check_hermitian(matrix: np.ndarray, tol: Tolerances) -> None:
    defect = hermiticity_defect(matrix)
    if defect > tol.unitarity:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {tol.unitarity:.1e}")


def _validated_pair(psi_i, psi_f, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, complex]:
    si = nlevel_state(psi_i, tol=tol)
    sf = nlevel_state(psi_f, tol=tol)
    if si.size != sf.size:
        raise ValueError("pre- and postselected states must share a dimension")
    overlap = complex(np.vdot(sf, si))
    if abs(overlap) <= tol.orthogonality:
        raise OrthogonalSelection(
            f"|<f|i>| = {abs(overlap):.3e} is below {tol.orthogonality:.1e}")
    return si, sf, overlap


def weak_value_direct(psi_i, observable, psi_f,
                      *, tol: Tolerances = DEFAULT_TOL) -> PolarComplex:
    """``<f|A|i> / <f|i>`` for a Hermitian observable."""
    si, sf, overlap = _validated_pair(psi_i, psi_f, tol)
    a = np.asarray(observable, dtype=complex)
    if a.shape != (si.size, si.size):
        raise ValueError("observable dimension does not match the states")
    _check_hermitian(a, tol)
    return PolarComplex.from_complex(np.vdot(sf, a @ si) / overlap)


def modular_value_direct(psi_i, spec: NLevelModularSpec, psi_f,
                         *, tol: Tolerances = DEFAULT_TOL) -> PolarComplex:
    """``exp(1j*beta) <f| U |i> / <f|i>`` with U from the spec's convention."""
    si, sf, overlap = _validated_pair(psi_i, psi_f, tol)
    a = np.asarray(spec.observable, dtype=complex)
    if a.shape != (si.size, si.size):
        raise ValueError("observable dimension does not match the states")
    if spec.generic_theta is not None:
        strength = float(spec.generic_theta)
    else:
        strength = spec.alpha * (si.size - 1) / 2.0
    u = unitary_exp(a, phase=spec.beta, strength=strength, tol=tol)
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

    All permutations are scored at once; near-ties resolve as in a
    lexicographic scan that accepts only improvements above 1e-15.  Only sums
    over the paired polygons are contract-bearing.
    """
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    if a.shape != b.shape:
        raise ValueError("point sets must have matching shapes")
    angles = np.arccos(np.clip(a @ b.T, -1.0, 1.0))
    table = _permutation_table(a.shape[0])
    costs = np.zeros(table.shape[1])
    for row, images in zip(angles, table):
        costs += row.take(images)
    # Replay the scan: nothing before the current pick undercuts it by 1e-15,
    # so the first such hit in the whole array is the scan's next pick.
    best = 0
    while True:
        cheaper = costs < costs[best] - 1e-15
        candidate = int(cheaper.argmax())
        if not cheaper[candidate]:
            return b.take(table[:, best], axis=0)
        best = candidate


def _point_set(points, tol: Tolerances) -> np.ndarray:
    pts = as_bloch_array(points, tol=tol)
    if pts.ndim != 2:
        raise ValueError("expected an (m, 3) array of Bloch points")
    return pts


def _checked_moduli(moduli: np.ndarray) -> list[float]:
    if np.isnan(moduli).any():
        raise OrthogonalSelection("an initial point is antipodal to the final point")
    return moduli.tolist()


def factored_weak_value(i_points, r_point, f_point,
                        *, tol: Tolerances = DEFAULT_TOL):
    """Projector weak value from canonicalized stellar points.

    One factor per initial point: modulus ``sqrt((1+f.r)(1+r.i_k)/(2(1+f.i_k)))``
    and solid angle of the (i_k, r, f) triangle, each evaluated for all points
    in one batch.  The normalization constants of the symmetrized states
    cancel for projector weak values.
    """
    vi = _point_set(i_points, tol)
    vr = as_bloch(r_point, tol=tol)
    vf = as_bloch(f_point, tol=tol)
    moduli = _checked_moduli(weak_moduli(vi, vr, vf, tol=tol))
    omegas = _solid_angles(vi, vr, vf, tol).tolist()
    breakdown = GeometricBreakdown(tuple(
        GeometricFactor(modulus, omega, p) for modulus, omega, p in zip(moduli, omegas, vi)))
    return breakdown.to_polar(), breakdown


def _factored_modular_value(i_points, s_points, r_point, f_point, k_ratio: float,
                            *, alpha: float, beta: float, eigenvalue: float,
                            tol: Tolerances):
    """:func:`factored_modular_value` for paired point sets with a known K_s / K_i."""
    vi = _point_set(i_points, tol)
    vs = _point_set(s_points, tol)
    vr = as_bloch(r_point, tol=tol)
    vf = as_bloch(f_point, tol=tol)
    moduli = _checked_moduli(modular_moduli(vi, vs, vf, tol=tol))
    omegas = (_solid_angles(vi, vr, vs, tol) + _solid_angles(vi, vs, vf, tol)).tolist()
    dim = vi.shape[0] + 1
    dynamical = beta - alpha * (dim - 1) / 2.0 * eigenvalue
    breakdown = GeometricBreakdown(
        tuple(GeometricFactor(modulus, omega, pi, ps)
              for modulus, omega, pi, ps in zip(moduli, omegas, vi, vs)),
        dynamical_phase=dynamical, k_ratio=k_ratio)
    return breakdown.to_polar(), breakdown


def factored_modular_value(i_points, s_points, r_point, f_point,
                           *, alpha: float, beta: float, eigenvalue: float,
                           tol: Tolerances = DEFAULT_TOL):
    """Modular value from canonicalized stellar points of the initial and
    evolved states.

    Per pair (i_k, s_k): modulus ratio ``sqrt((1+f.s_k)/(1+f.i_k))`` and the
    quadrangle i_k -> r -> s_k -> f, as two triangle batches.  The dynamical
    phase is ``beta - alpha*(N-1)/2*eigenvalue`` and the overall modulus
    carries the normalization ratio K_s / K_i.
    """
    i_pts = np.asarray(i_points, dtype=float)
    s_pts = pair_points(i_pts, np.asarray(s_points, dtype=float))
    k_ratio = (normalization_factor(s_pts, tol=tol)
               / normalization_factor(i_pts, tol=tol))
    return _factored_modular_value(i_pts, s_pts, r_point, f_point, k_ratio,
                                   alpha=alpha, beta=beta, eigenvalue=eigenvalue, tol=tol)


def qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f,
                                          *, tol: Tolerances = DEFAULT_TOL):
    """Geometric weak value of the projector onto the qutrit ``psi_r``."""
    _validated_pair(psi_i, psi_f, tol)
    triple = canonicalize_triple(psi_i, psi_r, psi_f, tol=tol)
    return factored_weak_value(triple.i_rep.points, triple.r_vec, triple.f_vec, tol=tol)


def qutrit_modular_value_geometric(psi_i, spec: NLevelModularSpec, psi_f,
                                   *, tol: Tolerances = DEFAULT_TOL):
    """Geometric modular value for a traceless 3x3 Hermitian observable.

    The anchor eigenvector is canonicalized together with the selections; the
    evolved state is pushed through the same frame before its points are read
    off.  Both point sets arrive with their K, so neither is recomputed.
    """
    si, sf, _ = _validated_pair(psi_i, psi_f, tol)
    if si.size != 3:
        raise ValueError("the constructive geometric route requires three-level states")
    a = np.asarray(spec.observable, dtype=complex)
    evals, evecs = eig_hermitian(a, tol=tol)
    index = spec.eigen_choice if spec.eigen_choice is not None else si.size - 1
    if not 0 <= index < si.size:
        raise ValueError("eigen_choice outside the spectrum")
    psi_r = evecs[:, index]
    eigenvalue = float(evals[index])

    triple = canonicalize_triple(si, psi_r, sf, tol=tol)
    evolution = unitary_exp(a, phase=0.0, strength=spec.alpha * (si.size - 1) / 2.0,
                            tol=tol)
    psi_s = triple.u_total @ (evolution @ si)
    psi_s = psi_s / np.linalg.norm(psi_s)
    s_rep = majorana_points(psi_s, tol=tol)
    i_pts = triple.i_rep.points
    return _factored_modular_value(
        i_pts, pair_points(i_pts, s_rep.points), triple.r_vec, triple.f_vec,
        s_rep.normalization / triple.i_rep.normalization,
        alpha=spec.alpha, beta=spec.beta, eigenvalue=eigenvalue, tol=tol)


def _check_context(projectors, dim: int, tol: Tolerances) -> list[np.ndarray]:
    mats = [np.asarray(p, dtype=complex) for p in projectors]
    if not mats:
        raise IncompleteContext("context must contain at least one projector")
    for p in mats:
        if p.shape != (dim, dim):
            raise IncompleteContext("projector dimension does not match the states")
        if hermiticity_defect(p) > tol.unitarity:
            raise IncompleteContext("context contains a non-Hermitian element")
        if float(np.max(np.abs(p @ p - p))) > 1e-8:
            raise IncompleteContext("context contains a non-idempotent element")
    for a, b in itertools.combinations(mats, 2):
        if float(np.max(np.abs(a @ b))) > 1e-8:
            raise IncompleteContext("context projectors are not mutually orthogonal")
    total = sum(mats)
    if float(np.max(np.abs(total - np.eye(dim)))) > 1e-8:
        raise IncompleteContext("context projectors do not sum to the identity")
    return mats


def abl_distribution(psi_i, projectors, psi_f,
                     *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Conditional outcome probabilities of an intermediate projective
    measurement between pre- and postselection:
    ``P(k) = |<f|P_k|i>|^2 / sum_j |<f|P_j|i>|^2``.
    """
    si = nlevel_state(psi_i, tol=tol)
    sf = nlevel_state(psi_f, tol=tol)
    mats = _check_context(projectors, si.size, tol)
    weights = np.array([abs(complex(np.vdot(sf, p @ si))) ** 2 for p in mats])
    total = float(weights.sum())
    if total <= tol.zero:
        raise ZeroDenominator("no intermediate outcome is compatible with the selection")
    return weights / total


def abl_probability(psi_i, projectors, psi_f, k: int,
                    *, tol: Tolerances = DEFAULT_TOL) -> float:
    dist = abl_distribution(psi_i, projectors, psi_f, tol=tol)
    if not 0 <= k < dist.size:
        raise ValueError("outcome index outside the context")
    return float(dist[k])
