"""Weak and modular values of N-level observables.

Direct Hilbert-space evaluation works for every dimension and serves as the
oracle.  The geometric route factors each value into N-1 qubit contributions
via the stellar representation, after rotating the triple into the canonical
frame of :mod:`majgeom.canonical`; it is constructive for every supported N.
It ends in the assembly of the ``factored_*`` entry points, which also accept
caller-canonicalized point sets.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import _bloch_vector, _dot, _modular_factors, _weak_factors
from .canonical import _NORTH, _frame, _frame_points
from .errors import IncompleteContext, ZeroDenominator
from .majorana import _point_array, _point_rows, _unit_state
from .numerics import (
    _CONTEXT_SLACK,
    _GELL_MANN_SLACK,
    _PAIRING_TIE_SLACK,
    DEFAULT_TOL,
    _check_finite,
    _check_hermitian,
    _checked_overlap,
    _eigh,
    _inner,
    _product,
    hermiticity_defect,
)
from .polar import GeometricBreakdown, PolarComplex


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


def _state_pair(psi_i, psi_f) -> tuple[list[complex], list[complex]]:
    """The checked, renormalized selections; no value depends on their phases."""
    si, sf = _unit_state(psi_i), _unit_state(psi_f)
    if len(si) != len(sf):
        raise ValueError("pre- and postselected states must share a dimension")
    return si, sf


def _validated_pair(psi_i, psi_f) -> tuple[list[complex], list[complex], complex]:
    si, sf = _state_pair(psi_i, psi_f)
    return si, sf, _checked_overlap(sf, si)


def weak_value_direct(psi_i, observable, psi_f) -> PolarComplex:
    """``<f|A|i> / <f|i>`` for a Hermitian observable."""
    si, sf, overlap = _validated_pair(psi_i, psi_f)
    a = _observable(observable, len(si))
    _check_hermitian(a)
    ir, ii = [z.real for z in si], [z.imag for z in si]
    image = []  # A|i>, row by row: _inner of the conjugated row, in its order
    for row_re, row_im in zip(a.real.tolist(), a.imag.tolist()):
        re = im = 0.0
        for ar, ai, kr, ki in zip(row_re, row_im, ir, ii):
            re += ar * kr - ai * ki
            im += ar * ki + ai * kr
        image.append(complex(re, im))
    return PolarComplex.from_complex(_inner(sf, image) / overlap)


def _observable(observable, dim: int) -> np.ndarray:
    a = np.asarray(observable, dtype=complex)
    if a.shape != (dim, dim):
        raise ValueError("observable dimension does not match the states")
    return a


def _evolution_strength(spec: NLevelModularSpec, dim: int) -> float:
    """The ``s`` of ``exp(-1j*s*A)``: ``generic_theta`` when set, else
    ``alpha*((N-1)/2)``, which overflows only where ``s`` itself does."""
    if spec.generic_theta is not None:
        return float(spec.generic_theta)
    return spec.alpha * ((dim - 1) / 2.0)


def _evolved(si: list[complex], evals: np.ndarray, evecs: np.ndarray,
             strength: float) -> list[complex]:
    """``exp(-1j*strength*A) si`` applied to the vector from the
    eigendecomposition of ``A``: each component ``<v_k|si>`` turned by
    ``exp(-1j*strength*lambda_k)``, then summed back over the ``v_k``; no
    unitary is built.  A phase ``strength*eigenvalue`` that overflows raises
    ``ValueError``; the ascending spectrum's two ends bound every phase."""
    spectrum = evals.tolist()
    _check_finite(evolution_phase=strength * max(-spectrum[0], spectrum[-1]))
    turned = [_product(complex(math.cos(strength * lam), -math.sin(strength * lam)),
                       _inner(column, si)) for lam, column in zip(spectrum, evecs.T.tolist())]
    return [_inner(row, turned) for row in evecs.conj().tolist()]


def _transition(si: list[complex], sf: list[complex], evals: np.ndarray,
                evecs: np.ndarray, strength: float) -> complex:
    """``<f|exp(-1j*strength*A)|i>``, the sum over k of
    ``exp(-1j*strength*lambda_k) conj(<v_k|f>) <v_k|i>`` in one pass over the
    eigenvectors, each sum left to right in real components; overflow is
    refused as in :func:`_evolved`."""
    spectrum = evals.tolist()
    _check_finite(evolution_phase=strength * max(-spectrum[0], spectrum[-1]))
    ir, ii = [z.real for z in si], [z.imag for z in si]
    fr, fi = [z.real for z in sf], [z.imag for z in sf]
    total_re = total_im = 0.0
    for lam, col_re, col_im in zip(spectrum, evecs.real.T.tolist(), evecs.imag.T.tolist()):
        ar = ai = br = bi = 0.0  # <v_k|f> and <v_k|i>
        for vr, vi, xr, xi, yr, yi in zip(col_re, col_im, ir, ii, fr, fi):
            ar += vr * yr + vi * yi
            ai += vr * yi - vi * yr
            br += vr * xr + vi * xi
            bi += vr * xi - vi * xr
        c, s = math.cos(strength * lam), -math.sin(strength * lam)
        tr, ti = c * br - s * bi, c * bi + s * br
        total_re += ar * tr + ai * ti
        total_im += ar * ti - ai * tr
    return complex(total_re, total_im)


def modular_value_direct(psi_i, spec: NLevelModularSpec, psi_f) -> PolarComplex:
    """``exp(1j*beta) <f| U |i> / <f|i>`` with U from the spec's convention,
    summed over the eigenbasis of one eigendecomposition of the observable."""
    si, sf, overlap = _validated_pair(psi_i, psi_f)
    evals, evecs = _eigh(_observable(spec.observable, len(si)))
    transition = _transition(si, sf, evals, evecs, _evolution_strength(spec, len(si)))
    turn = complex(math.cos(spec.beta), math.sin(spec.beta))
    return PolarComplex.from_complex(_product(turn, transition) / overlap)


def _assignment(costs: list[list[float]]) -> list[int]:
    """The permutation p of ``range(m)`` that minimizes ``sum_k costs[k][p[k]]``
    over a square matrix of finite costs, by shortest augmenting paths with
    row and column potentials ``u``, ``v`` (Kuhn's method, O(m^3)).  Rows
    join one at a time; index 0 of the columns is a sentinel, and rows are
    counted from 1 in ``match``."""
    m = len(costs)
    u, v = [0.0] * (m + 1), [0.0] * (m + 1)
    match, way = [0] * (m + 1), [0] * (m + 1)  # match[j]: the row of column j
    for row in range(1, m + 1):
        match[0], col = row, 0
        slack, used = [math.inf] * (m + 1), [False] * (m + 1)
        while match[col]:  # until the path reaches a free column
            used[col] = True
            i, delta, nearest = match[col], math.inf, 0
            line, ui = costs[i - 1], u[i]
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = line[j - 1] - ui - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, col
                    if slack[j] < delta:
                        delta, nearest = slack[j], j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            col = nearest
        while col:  # shift the matches back along the path
            match[col] = match[way[col]]
            col = way[col]
    perm = [0] * m
    for j in range(1, m + 1):
        perm[match[j] - 1] = j - 1
    return perm


def _point_sets(first, second) -> tuple[np.ndarray, np.ndarray]:
    """Two point sets as float arrays of one shape, the first checked for its
    shape and count by :func:`_point_array`; no row is checked."""
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    if a.shape != b.shape:
        raise ValueError("point sets must have matching shapes")
    _point_array(a)
    return a, b


def pair_points(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Reorder ``second`` to minimize the summed great-circle distance to
    ``first``.

    The cheapest pairing comes from :func:`_assignment` on the ``(m, m)``
    angles, whose dots are the kernel's ``(a0 b0 + a1 b1) + a2 b2`` in
    Python floats.  ``second`` keeps its order unless that pairing's cost,
    summed from 0 in row order, is shorter than the identity's by more than
    ``_PAIRING_TIE_SLACK``, or if any angle is NaN.  Only sums over the paired
    polygons are contract-bearing.  Both sets are ``(m, 3)``,
    1 <= m <= MAX_LEVELS - 1, checked first; their rows are not: a
    non-finite or overflowing row gives NaN or clipped angles silently.
    """
    a, b = _point_sets(first, second)
    cols = b.tolist()
    dots = [[_dot(x, y) for y in cols] for x in a.tolist()]
    angles = [[math.acos(1.0 if d > 1.0 else -1.0 if d < -1.0 else d) for d in row]
              for row in dots]  # a NaN dot stays NaN
    order = list(range(len(angles)))
    if not math.isnan(sum(map(sum, angles))):  # angles lie in [0, pi] or are NaN
        best = _assignment(angles)
        if sum(row[k] for row, k in zip(angles, best)) < \
                sum(row[k] for row, k in zip(angles, order)) - _PAIRING_TIE_SLACK:
            order = best
    return b.take(order, axis=0)


def factored_weak_value(i_points, r_point, f_point):
    """Projector weak value from canonicalized stellar points.

    One factor per initial point: modulus ``sqrt((1+f.r)(1+r.i_k)/(2(1+f.i_k)))``
    and solid angle of the (i_k, r, f) triangle, minus twice the argument of
    ``<f|r><r|i_k><i_k|f>``, each evaluated for all points in one kernel
    pass.  The normalization constants of the symmetrized states cancel for
    projector weak values.

    A factor with an undefined triangle and a modulus of at most
    ``DEFAULT_TOL.zero`` (``|<r|i_k>|`` or ``|<f|r>|`` at most that) is an exact zero,
    and the value is then ``PolarComplex(0.0, 0.0)``, whatever any other
    factor's triangle.  Without an exact zero, an undefined triangle raises
    :class:`UndefinedSolidAngle`.
    """
    return _factored_weak_value(_point_rows(i_points), _bloch_vector(r_point),
                                _bloch_vector(f_point))


def _factored_weak_value(vi, vr, vf):
    """:func:`factored_weak_value` of validated unit rows ``vi`` of Python
    floats, which the breakdown holds, and unit vectors ``vr`` and ``vf``."""
    moduli, angles = _weak_factors(vi, vr, vf)
    breakdown = GeometricBreakdown(moduli, angles, vi)
    return breakdown.to_polar(), breakdown


def factored_modular_value(i_points, s_points, r_point, f_point,
                           *, alpha: float, beta: float, eigenvalue: float):
    """Modular value from canonicalized stellar points of the initial and
    evolved states.

    Per pair (i_k, s_k): modulus ratio ``sqrt((1+f.s_k)/(1+f.i_k))`` and the
    quadrangle i_k -> r -> s_k -> f, minus twice the argument of the cyclic
    product ``<f|s_k><s_k|r><r|i_k><i_k|f>``, which no diagonal splits.  The dynamical
    phase is ``beta - alpha*((N-1)/2)*eigenvalue``, reduced term by term; a
    second term that overflows raises ``ValueError``.  The overall modulus
    carries the anchor ratio ``prod_k |r+i_k| / prod_k |r+s_k|``, which equals
    the normalization ratio K_s / K_i under this function's contract: ``s`` is
    ``i`` evolved by a unitary with the coherent state at ``r`` as an
    eigenvector, so ``|<r|s>| = |<r|i>|``.  A pair with an undefined
    quadrangle (``s_k`` antipodal to ``f``) is an exact zero, as in
    :func:`factored_weak_value`.

    The value is computed on the rows in the order given: neither the
    product of the moduli nor the summed angle (mod 4*pi) depends on which
    ``s_k`` goes with which ``i_k``.  Only the breakdown's ``factors`` do:
    they pair ``s`` to ``i`` by :func:`pair_points` of the sets as given
    (copied here) when first read.  A quadrangle's angle rounds like
    ``u/|<a|b>|`` of its adjacent vertices only, so an ``s_k`` that the given
    order puts near ``-i_k`` (or an ``r`` near ``-f``) costs no accuracy, and
    only adjacent vertices within ``DEFAULT_TOL.zero`` of antipodes leave it
    undefined.  The shapes are
    checked to match first, then ``i``'s shape and count, then ``s``'s rows,
    ``i``'s rows, ``r`` and ``f``; :func:`qutrit_modular_value_geometric`
    ends in the same core.
    """
    _check_finite(alpha=alpha, beta=beta, eigenvalue=eigenvalue)
    a, b = _point_sets(np.array(i_points, dtype=float), np.array(s_points, dtype=float))
    vs, vi = _point_rows(b), _point_rows(a)
    phase = alpha * (len(vi) / 2.0) * eigenvalue
    _check_finite(dynamical_phase=phase)
    return _modular_value(vi, vs, _bloch_vector(r_point), _bloch_vector(f_point), beta, phase,
                          paired=lambda: _point_rows(pair_points(a, b)))


def _modular_value(vi, vs, vr, vf, beta: float, phase: float,
                   k_ratio: float | None = None, paired=None):
    """The modular value of unit rows of Python floats in one frame, ``vs`` in
    the order given and both held by the breakdown, with the dynamical phase
    ``arg(exp(1j*beta) exp(-1j*phase))``: each angle is reduced exactly, as
    the direct routes' exponentials reduce it, so the phase's rounding does
    not grow with their size.

    K_s / K_i is ``k_ratio`` when given; otherwise it is read off the anchor
    ``vr``.  The coherent state at ``r`` is an eigenvector of the evolution, so
    ``|<r|s>| = |<r|i>|``, and ``<r|psi> = K m! prod_k <r|q_k>`` with
    ``|<r|q_k>| = |r+q_k|/2``: K_s / K_i is ``prod_k |r+i_k| / prod_k |r+s_k|``,
    whatever the order, from the projections ``|r+i_k|^2/2`` and
    ``|r+s_k|^2/2`` that the kernel forms for the quadrangles' legs.

    The value is always computed on the rows as given, each quadrangle as
    the cyclic product of its vertices' spinors, whatever its diagonals.
    ``paired``, when given, returns the rows of ``vs`` paired to ``vi``, and
    the breakdown's ``factors`` are built on them when first read.  Without
    it, the factors are the value's columns.
    """
    moduli, omegas, ri, rs = _modular_factors(vi, vr, vs, vf)
    if k_ratio is None:
        num, den = math.prod(ri), math.prod(rs)
        ratio = num / den if den else math.inf
        # Infinite only where some |r+s_k| underflows (0/0 at -r): that
        # quadrangle has no area, so the value is refused or an exact zero.
        k_ratio = math.sqrt(ratio) if ratio < math.inf else 0.0
    breakdown = GeometricBreakdown(
        moduli, omegas, vi, vs,
        dynamical_phase=cmath.phase(cmath.exp(1j * beta) * cmath.exp(-1j * phase)),
        k_ratio=k_ratio,
        _paired_columns=None if paired is None else lambda: _paired_columns(
            vi, vr, vf, paired))
    return breakdown.to_polar(), breakdown


def _paired_columns(vi, vr, vf, paired):
    """The moduli, solid angles and ``s`` rows of the factors of ``vi`` and the
    rows ``paired()`` returns, from one kernel pass."""
    vs = paired()
    moduli, omegas, _, _ = _modular_factors(vi, vr, vs, vf)
    return moduli, omegas, vs


def qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f):
    """Geometric weak value of the projector onto the N-level state ``psi_r``.

    Each input is validated once, the triple is rotated into the canonical
    frame, and the value is the core of :func:`factored_weak_value` on the
    frame's points, which nothing re-validates; it is 0 when ``<r|i> = 0`` or
    ``<f|r> = 0``, as that function describes.
    """
    si, sf, _ = _validated_pair(psi_i, psi_f)
    to_frame, f_vec, _ = _frame(_unit_state(psi_r), sf)
    return _factored_weak_value(_frame_points(to_frame(si)), _NORTH, f_vec)


def qutrit_modular_value_geometric(psi_i, spec: NLevelModularSpec, psi_f):
    """Geometric modular value for an N-level Hermitian observable.

    The anchor eigenvector is canonicalized together with the final state;
    the initial state and its evolution ``exp(-1j*s*A)``, applied to the
    vector from the one eigendecomposition of the observable, are pushed
    through the frame and their points read off.  The points go, in the
    sorted order the frame gives them, through the core that
    :func:`factored_modular_value` calls once it has validated, with
    K_s / K_i read off the anchor: the value is not paired (a quadrangle
    whose ``s_k`` nears ``-i_k`` in the sorted order is as well conditioned
    as any, as that function describes), and the breakdown's ``factors``
    pair the frame's ``s`` points to its ``i`` points by :func:`pair_points`
    when first read.  The dynamical phase is
    ``beta - s*eigenvalue`` reduced to (-pi, pi], each term reduced exactly as
    :func:`modular_value_direct`'s ``exp`` reduces it.  The selections are
    validated once, and nothing the route makes is validated or renormalized
    again.
    """
    si, sf, _ = _validated_pair(psi_i, psi_f)
    dim = len(si)
    evals, evecs = _eigh(_observable(spec.observable, dim))
    index = spec.eigen_choice if spec.eigen_choice is not None else dim - 1
    if not 0 <= index < dim:
        raise ValueError("eigen_choice outside the spectrum")
    strength = _evolution_strength(spec, dim)
    to_frame, f_vec, _ = _frame(evecs[:, index].tolist(), sf)
    vi = _frame_points(to_frame(si))
    vs = _frame_points(to_frame(_evolved(si, evals, evecs, strength)))
    return _modular_value(vi, vs, _NORTH, f_vec, spec.beta, strength * float(evals[index]),
                          paired=lambda: pair_points(np.array(vi), np.array(vs)).tolist())


def _check_context(projectors, dim: int) -> list[np.ndarray]:
    mats = [np.asarray(p, dtype=complex) for p in projectors]
    if not mats:
        raise IncompleteContext("context must contain at least one projector")
    # A product or sum that overflows makes an inf or NaN defect, refused.
    with np.errstate(over="ignore", invalid="ignore"):
        for p in mats:
            if p.shape != (dim, dim):
                raise IncompleteContext("projector dimension does not match the states")
            if not hermiticity_defect(p) <= DEFAULT_TOL.unitarity:  # NaN and inf fail too
                raise IncompleteContext("context contains a non-Hermitian element")
            if not float(np.max(np.abs(p @ p - p))) <= _CONTEXT_SLACK:
                raise IncompleteContext("context contains a non-idempotent element")
        for a, b in itertools.combinations(mats, 2):
            if not float(np.max(np.abs(a @ b))) <= _CONTEXT_SLACK:
                raise IncompleteContext("context projectors are not mutually orthogonal")
        total = sum(mats)
        if not float(np.max(np.abs(total - np.eye(dim)))) <= _CONTEXT_SLACK:
            raise IncompleteContext("context projectors do not sum to the identity")
    return mats


def abl_distribution(psi_i, projectors, psi_f) -> np.ndarray:
    """Conditional outcome probabilities of an intermediate projective
    measurement between pre- and postselection:
    ``P(k) = |<f|P_k|i>|^2 / sum_j |<f|P_j|i>|^2``.
    """
    si, sf = _state_pair(psi_i, psi_f)
    mats = _check_context(projectors, len(si))
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
