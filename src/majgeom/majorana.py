"""Stellar (Majorana) representation of N-level states.

A normalized N-component state corresponds to an unordered multiset of N-1
points on the Bloch sphere: the projective roots of its representation
polynomial.  Basis states map downward, ``|0> -> south^(N-1)`` and
``|N-1> -> north^(N-1)``; the general coefficient convention is pinned by the
binomial weights below and reduces to the familiar three-level polynomial
``c0/sqrt(2) - c1 z + c2 z^2 / sqrt(2)`` after an overall scale.

States enter as lists of Python complexes; the root points are unit rows of
Python floats, and the symmetrized state's norm is the fixed-order sum of
:mod:`majgeom.numerics`.  Only the companion eigenvalues of degree 3 and up
come from LAPACK.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bloch import _bloch_rows, _qubit, _unit_row, as_bloch_array
from .numerics import (
    _INFINITE_ROOT,
    _NEWTON_SLOPE_FLOOR,
    DEFAULT_TOL,
    _check_finite,
    _checked_norm,
    _divided,
    _fix_gauge,
    _norm,
    _polynomial_roots,
    canonical_gauge,
)

MAX_LEVELS = 8


def nlevel_state(coeffs) -> np.ndarray:
    """Validate, normalize and gauge-fix an N-level coefficient vector: the
    state :func:`_unit_state` returns, times the global phase that makes its
    first non-vanishing entry real and positive."""
    return _fix_gauge(np.array(_unit_state(coeffs)))


def _unit_state(coeffs) -> list[complex]:
    """An N-level coefficient vector checked (dimension, finiteness, unit norm
    within the slack) and divided by its norm, as Python complexes, with its
    global phase left as given.  Values and stellar points depend only on the
    ray, so the routes that return no state take their inputs this way."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or not 2 <= c.size <= MAX_LEVELS:
        raise ValueError(f"state dimension must lie in [2, {MAX_LEVELS}]")
    entries = c.tolist()
    return _divided(entries, _checked_norm(entries, "state", "coefficients"))


@dataclass(frozen=True, eq=False)
class SymmetricRepresentation:
    """Multiset of N-1 Bloch points; its symmetrization normalization K is
    computed each time it is read.

    Points are stored sorted by (z, x, y) descending so serialized output is
    stable; the multiset itself carries no order.
    """

    points: np.ndarray

    @property
    def normalization(self) -> float:
        """K of the points, renormalized once more, as validating them would
        leave them."""
        return _symmetrized([_unit_row(p) for p in self.points.tolist()])[1]


@functools.lru_cache(maxsize=None)
def _binomial_weights(m: int) -> tuple[float, ...]:
    """``(-1)^k sqrt(C(m, k))``, k = 0..m: state -> polynomial coefficients."""
    return tuple((-1.0) ** k * math.sqrt(math.comb(m, k)) for k in range(m + 1))


def representation_coefficients(state) -> np.ndarray:
    """Polynomial coefficients (lowest degree first) of the stellar polynomial."""
    c = nlevel_state(state)
    return np.array(_binomial_weights(c.size - 1)) * c


def _root_points(roots: list[complex | None]) -> list[list[float]]:
    """Bloch points of projective roots, one unit row of Python floats per
    root, sorted by (z, x, y) descending; infinity (``None``, or a squared
    modulus above ``_INFINITE_ROOT``) is the south pole."""
    rows = []
    for z in roots:
        w = math.inf if z is None else abs(z) ** 2
        if not math.isfinite(w) or w > _INFINITE_ROOT:
            rows.append([0.0, 0.0, -1.0])
            continue
        denom = 1.0 + w
        rows.append(_unit_row([2.0 * z.real / denom, 2.0 * z.imag / denom, (1.0 - w) / denom]))
    rows.sort(key=lambda p: (-p[2], -p[0], -p[1]))  # stable: equal rows keep the roots' order
    return rows


def _symmetrized(rows) -> tuple[list[complex], float]:
    """Normalized coefficients of the symmetrized multiset of unit rows (as
    Python floats), and its K; the rows are not validated or renormalized.

    With ``a_k`` the coefficients of the product of the qubits' linear
    factors ``u z - v`` (a south-pole point just zeroes the top one), the sum
    over the m! qubit permutations has norm ``m! sqrt(sum_k |a_k|^2 / C(m, k))``.
    """
    poly = [1.0 + 0.0j]  # lowest degree first; new a_k = u a_(k-1) - v a_k
    for x, y, z in rows:
        u, v = _qubit(x, y, z)
        poly = [u * lower - v * same for lower, same in zip([0j, *poly], [*poly, 0j])]
    c = [complex(a.real / w, a.imag / w) for a, w in zip(poly, _binomial_weights(len(rows)))]
    norm = _norm(c)
    if norm <= 0.0:
        raise ValueError("symmetrized state has vanishing norm")
    return _divided(c, norm), 1.0 / (math.factorial(len(rows)) * norm)


def normalization_factor(points) -> float:
    """K such that K * sum over qubit permutations is normalized.

    Equals ``1/sqrt(m! * perm(G))`` for the Gram matrix ``G`` of the qubit
    states, evaluated in O(m^2) from the closed form of ``_symmetrized``.
    """
    return _symmetrized(_point_rows(points))[1]


def _point_rows(points) -> list[list[float]]:
    """The unit rows of an ``(m, 3)`` array of Bloch points as Python floats,
    checked as every point-set entry point checks them: shape and count by
    :func:`_point_array`, then each row by :func:`bloch._bloch_rows`."""
    return _bloch_rows(_point_array(points))


def _point_array(points) -> np.ndarray:
    """``points`` as a float ``(m, 3)`` array, checked for its shape (m = 0
    fails it) and then for 1 <= m <= MAX_LEVELS - 1, but not row by row."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError("expected an (m, 3) array of Bloch points")
    if pts.shape[0] > MAX_LEVELS - 1:
        raise ValueError(f"point count must lie in [1, {MAX_LEVELS - 1}]")
    return pts


def majorana_points(state) -> SymmetricRepresentation:
    """Stellar representation of a state: its N-1 Bloch points.  The state is
    checked and renormalized; its global phase, which moves no point, is not
    fixed."""
    return _majorana_points(_unit_state(state))


def _majorana_points(c: list[complex]) -> SymmetricRepresentation:
    """:func:`majorana_points` of a state that :func:`_unit_state` returned, or
    that was divided by its norm; nothing is checked or renormalized."""
    return SymmetricRepresentation(np.array(_point_list(c), dtype=float))


def _point_list(c: list[complex]) -> list[list[float]]:
    """The sorted points of :func:`_majorana_points` as rows of Python floats."""
    weighted = [complex(w * z.real, w * z.imag) for w, z in zip(_binomial_weights(len(c) - 1), c)]
    return _root_points(_polynomial_roots(weighted))


def symmetrize(points) -> tuple[np.ndarray, float]:
    """State whose stellar representation is the given point multiset.

    Returns the gauge-canonical state together with the normalization K.
    """
    state, normalization = _symmetrized(_point_rows(points))
    return canonical_gauge(state), normalization


def _discriminant(c0: complex, c1: complex, c2: complex) -> float:
    """|discriminant| of the stellar polynomial of the qutrit ``(c0, c1, c2)``,
    in Python complex arithmetic: it rounds as numpy's scalar arithmetic,
    where numpy's array ``abs`` would not."""
    return abs(2.0 * c1 * c1 - 4.0 * c0 * c2)


def discriminant_degeneracy(state) -> float:
    """|discriminant| of the three-level stellar polynomial.

    Zero (within tolerance) exactly when the two points coincide, including
    the doubly-infinite case.
    """
    c = _unit_state(state)
    if len(c) != 3:
        raise ValueError("discriminant diagnostic is defined for three-level states")
    return _discriminant(*c)


@dataclass(frozen=True)
class QutritAngles:
    """Closed-form root angles of the three-level stellar polynomial.

    The roots are ``tan(beta_k/2) * exp(1j*alpha_k)``.
    """

    alpha_1: float
    alpha_2: float
    beta_1: float
    beta_2: float

    def roots(self) -> tuple[complex, complex]:
        z1 = math.tan(0.5 * self.beta_1) * complex(math.cos(self.alpha_1),
                                                   math.sin(self.alpha_1))
        z2 = math.tan(0.5 * self.beta_2) * complex(math.cos(self.alpha_2),
                                                   math.sin(self.alpha_2))
        return z1, z2

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        p1 = np.array([math.cos(self.alpha_1) * math.sin(self.beta_1),
                       math.sin(self.alpha_1) * math.sin(self.beta_1),
                       math.cos(self.beta_1)])
        p2 = np.array([math.cos(self.alpha_2) * math.sin(self.beta_2),
                       math.sin(self.alpha_2) * math.sin(self.beta_2),
                       math.cos(self.beta_2)])
        return p1, p2


def _check_state_angles(epsilon: float, chi1: float, chi2: float) -> None:
    """Refuse an ``epsilon`` outside [0, pi/2] (NaN included), a non-finite
    ``chi1`` or ``chi2`` of the closed-form three-level state, and phases so
    large that the closed form's ``2*chi2 - chi1`` overflows; where that is
    finite, so is ``2*chi2``."""
    if not 0.0 <= epsilon <= 0.5 * math.pi:
        raise ValueError("epsilon must lie in [0, pi/2]")
    _check_finite(chi1=chi1, chi2=chi2)
    if not math.isfinite(2.0 * chi2 - chi1):
        raise ValueError("2*chi2 - chi1 must be finite")


def _polish_root_angles(alpha: float, beta: float, lin: complex,
                        const: complex) -> tuple[float, float]:
    """Newton-refine a root of ``z^2 + lin*z + const`` keeping the angle branch."""
    z = math.tan(0.5 * beta) * complex(math.cos(alpha), math.sin(alpha))
    for _ in range(2):
        residual = (z + lin) * z + const
        slope = 2.0 * z + lin
        if abs(slope) < _NEWTON_SLOPE_FLOOR:
            break
        step = residual / slope
        if abs(step) > 0.5 * max(1.0, abs(z)):
            break
        z = z - step
    raw = math.atan2(z.imag, z.real)
    alpha_polished = raw + 2.0 * math.pi * round((alpha - raw) / (2.0 * math.pi))
    return alpha_polished, 2.0 * math.atan(abs(z))


def _qutrit_roots_at(epsilon: float, chi1: float,
                     chi2: float) -> Callable[[float], QutritAngles]:
    """:func:`qutrit_roots_closed_form` as a function of ``theta`` alone.

    The ``theta``-independent factors are computed once, and each product keeps
    its evaluation order, so every call returns the bits of the full function.
    Nothing is validated.
    """
    ce, se = math.cos(epsilon), math.sin(epsilon)
    chi_tilde = (2.0 * chi2 - chi1) / 2.0 % (2.0 * math.pi)
    branch = 1.0 if chi_tilde < math.pi else -1.0
    four_ce2, se4, four_ce_se2 = 4.0 * ce * ce, se**4, 4.0 * ce * se * se
    cos_2chi_tilde, cos_chi_tilde = math.cos(2.0 * chi_tilde), math.cos(chi_tilde)
    two_ce, se2, sq2_se = 2.0 * ce, se * se, math.sqrt(2.0) * se
    half_chi1 = 0.5 * chi1
    lin_scale = -math.sqrt(2.0) * se
    e_chi1, e_chi2 = np.exp(1j * chi1), np.exp(1j * chi2)

    def roots(theta: float) -> QutritAngles:
        t = math.tan(theta)
        rho = four_ce2 * t * t + se4 * t**4 - four_ce_se2 * t**3 * cos_2chi_tilde
        s = math.sqrt(max(0.0, two_ce * t + se2 * t * t + math.sqrt(max(0.0, rho))))
        product = ce * t
        spread = math.sqrt(max(0.0, s * s - 4.0 * product))
        # Index convention: branch 2 is the root that can align against the
        # postselection axis (the singular one in the scan), branch 1 stays
        # continuous across the weak-value divergence.
        beta_1 = 2.0 * math.atan(0.5 * (s - spread))
        beta_2 = 2.0 * math.atan(0.5 * (s + spread))

        if s <= DEFAULT_TOL.zero:
            alpha_1 = alpha_2 = half_chi1
        else:
            cos_arg = min(1.0, max(-1.0, sq2_se * t * cos_chi_tilde / s))
            delta = math.acos(cos_arg)
            alpha_1 = half_chi1 - branch * delta
            alpha_2 = half_chi1 + branch * delta
            # Newton-polish against the exact monic polynomial; the nested
            # square roots above lose ~8 digits in unlucky regimes and
            # downstream solid angles amplify root errors near singular
            # configurations.
            lin = lin_scale * t * e_chi2
            const = ce * t * e_chi1
            alpha_1, beta_1 = _polish_root_angles(alpha_1, beta_1, lin, const)
            alpha_2, beta_2 = _polish_root_angles(alpha_2, beta_2, lin, const)
        return QutritAngles(alpha_1, alpha_2, beta_1, beta_2)

    return roots


def qutrit_roots_closed_form(theta: float, epsilon: float, chi1: float,
                             chi2: float) -> QutritAngles:
    """Closed-form roots for the state
    ``(exp(1j*chi1) cos(eps) sin(theta), exp(1j*chi2) sin(eps) sin(theta), cos(theta))``.

    Valid for ``theta`` in [0, pi/2) and ``epsilon`` in [0, pi/2], where the
    root-modulus product ``cos(eps) tan(theta)`` is non-negative.
    """
    _check_state_angles(epsilon, chi1, chi2)
    if not 0.0 <= theta < 0.5 * math.pi:
        raise ValueError("theta must lie in [0, pi/2)")
    return _qutrit_roots_at(epsilon, chi1, chi2)(theta)


def entanglement_entropy(points) -> float:
    """Von Neumann entropy (bits) of either qubit of a symmetrized point pair,
    read off the points.

    For unit points a and b with c = a.b, the reduced qubit has the Bloch
    vector n = 2(a+b)/(3+c); with the concurrence C = (1-c)/(3+c),
    |n| = sqrt((1-C)(1+C)), and the smaller eigenvalue C^2 / (2(1+|n|)) has
    no cancellation near separable pairs.  0 for coincident points
    (separable), 1 for antipodal points (Bell state).
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (2, 3):
        raise ValueError("entropy diagnostic needs exactly two Bloch points")
    (a0, a1, a2), (b0, b1, b2) = as_bloch_array(pts).tolist()
    # The kernel's product order; an antipodal pair can round below -1.
    c = min(1.0, max(-1.0, (a0 * b0 + a1 * b1) + a2 * b2))
    concurrence = (1.0 - c) / (3.0 + c)
    length = math.sqrt((1.0 - concurrence) * (1.0 + concurrence))
    low = concurrence * concurrence / (2.0 * (1.0 + length))
    if low == 0.0:
        return 0.0
    return -(low * math.log2(low) + (1.0 - low) * math.log2(1.0 - low))
