"""End-to-end reproductions: the weak-value singularity scan and the
three-box report, as structured records ready for serialization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bloch import bloch_to_qubits, solid_angle_triangle, triangle_solid_angles, weak_moduli
from .canonical import StateAngles, params_to_state, three_box_transform
from .errors import OrthogonalSelection, UndefinedSolidAngle
from .majorana import (
    discriminant_degeneracy,
    entanglement_entropy,
    majorana_points,
    nlevel_state,
    qutrit_roots_closed_form,
)
from .nlevel_values import abl_distribution, abl_probability, weak_value_direct
from .numerics import DEFAULT_TOL, Tolerances
from .polar import PolarComplex

SCAN_EPSILON = float(math.asin(math.tan(math.pi / 6.0)))
SCAN_CHI1 = 4.0 * math.pi / 3.0
SCAN_CHI2 = 2.0 * math.pi / 3.0

_EZ = np.array([0.0, 0.0, 1.0])
_EX = np.array([1.0, 0.0, 0.0])
# Canonical-frame postselection: coincident stellar points on the +x axis.
_F_STATE = np.array([0.5, math.sqrt(0.5), 0.5], dtype=complex)
_R_PROJECTOR = np.diag([0.0, 0.0, 1.0]).astype(complex)

_NEAR_DEGENERATE_BAND = 1e-8
_LOCATE_RESIDUAL = 1e-8


@dataclass(frozen=True)
class ScanRecord:
    """One grid point of the singularity scan.

    ``omega1``/``omega2`` are unwrapped along the grid (reset across the
    singular bracket); undefined quantities at a singular point are ``None``.
    """

    theta: float
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    i1: np.ndarray
    i2: np.ndarray
    omega1: float | None
    omega2: float | None
    wv_modulus: float | None
    wv_argument: float | None
    wv_direct: PolarComplex | None
    flags: frozenset[str]


@dataclass(frozen=True)
class SingularityScan:
    records: tuple[ScanRecord, ...]
    epsilon: float
    chi1: float
    chi2: float
    theta_bifurcation: float | None
    theta_singular: float | None
    omega2_jump: float | None


def _bisect(fn: Callable[[float], float], lo: float, hi: float,
            *, xtol: float = 1e-12, maxiter: int = 256) -> float | None:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return None
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return mid
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _unwrap_segment(raw: list[float | None], period: float) -> list[float | None]:
    out: list[float | None] = []
    prev: float | None = None
    for value in raw:
        if value is None:
            out.append(None)
            continue
        if prev is not None:
            value += period * round((prev - value) / period)
        out.append(value)
        prev = value
    return out


def scan_state(theta: float, epsilon: float, chi1: float, chi2: float) -> np.ndarray:
    return nlevel_state(params_to_state(StateAngles(theta, epsilon, chi1, chi2)))


def _overlap_re(theta: float, epsilon: float, chi1: float, chi2: float) -> float:
    return float(np.vdot(_F_STATE, scan_state(theta, epsilon, chi1, chi2)).real)


def _disc_re(theta: float, epsilon: float, chi1: float, chi2: float) -> float:
    se, ce = math.sin(epsilon), math.cos(epsilon)
    st, ct = math.sin(theta), math.cos(theta)
    disc = 2.0 * se * se * st * st * np.exp(2j * chi2) \
        - 4.0 * ce * st * ct * np.exp(1j * chi1)
    return float((disc * np.exp(-1j * chi1)).real)


def default_theta_grid(count: int = 512) -> np.ndarray:
    """Midpoint grid strictly inside (0, pi/2)."""
    if count < 2:
        raise ValueError("grid needs at least two points")
    return (np.arange(count) + 0.5) / count * (0.5 * math.pi)


def _midpoints(lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (np.arange(n) + 0.5) / n * (hi - lo)


_CUSP_WINDOW = 0.02
_CUSP_POINTS = 96


def _refined_default_grid(count: int, epsilon: float, chi1: float,
                          chi2: float) -> np.ndarray:
    """Default scan grid: uniform midpoints, densified around the bifurcation.

    The root trajectories have a square-root cusp where the stellar points
    collide; a uniform grid at moderate counts leaves visible kinks in the
    unwrapped solid angles there.  A probe pass locates the cusp and a fixed
    share of the points is packed into a small window around it.
    """
    base = default_theta_grid(count)
    if count < 4 * _CUSP_POINTS:
        return base
    probe = default_theta_grid(2048)
    cusp = None
    for k in range(probe.size - 1):
        lo, hi = float(probe[k]), float(probe[k + 1])
        if _disc_re(lo, epsilon, chi1, chi2) * _disc_re(hi, epsilon, chi1, chi2) < 0.0:
            cusp = _bisect(lambda th: _disc_re(th, epsilon, chi1, chi2), lo, hi)
            break
    if cusp is None:
        return base
    window_lo = max(cusp - _CUSP_WINDOW, 0.25 * base[0])
    window_hi = min(cusp + _CUSP_WINDOW, 0.5 * math.pi - 0.25 * base[0])
    outside = count - _CUSP_POINTS
    left_span = window_lo
    right_span = 0.5 * math.pi - window_hi
    n_left = max(2, round(outside * left_span / (left_span + right_span)))
    n_right = outside - n_left
    parts = [_midpoints(0.0, window_lo, n_left),
             _midpoints(window_lo, window_hi, _CUSP_POINTS)]
    if n_right > 0:
        parts.append(_midpoints(window_hi, 0.5 * math.pi, n_right))
    return np.concatenate(parts)


def singularity_scan(theta_grid=None, *, count: int = 512,
                     epsilon: float = SCAN_EPSILON,
                     chi1: float = SCAN_CHI1, chi2: float = SCAN_CHI2,
                     tol: Tolerances = DEFAULT_TOL) -> SingularityScan:
    """Sweep the initial-state polar angle and track the projector weak value.

    Each record carries the closed-form root angles, the two initial Bloch
    vectors, their (unwrapped) solid angles against the canonical frame
    (projector on +z, postselection on +x), the geometric weak value and the
    direct oracle.  The bifurcation (double stellar root) and the weak-value
    singularity are located by bisection on sign-changing proxies and flagged
    on the bracketing grid points.
    """
    if theta_grid is None:
        grid = _refined_default_grid(count, epsilon, chi1, chi2)
    else:
        grid = np.asarray(theta_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("theta grid must be a 1-d sequence of at least two points")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("theta grid must be strictly increasing")
        if grid[0] <= 0.0 or grid[-1] >= 0.5 * math.pi:
            raise ValueError("theta grid must lie inside (0, pi/2)")

    def overlap_re(theta: float) -> float:
        return _overlap_re(theta, epsilon, chi1, chi2)

    def disc_re(theta: float) -> float:
        return _disc_re(theta, epsilon, chi1, chi2)

    def locate(fn: Callable[[float], float],
               residual: Callable[[float], float]) -> tuple[float | None, int | None]:
        for k in range(grid.size - 1):
            if fn(grid[k]) * fn(grid[k + 1]) < 0.0:
                found = _bisect(fn, float(grid[k]), float(grid[k + 1]))
                if found is not None and residual(found) <= _LOCATE_RESIDUAL:
                    return found, k
        return None, None

    theta_singular, singular_gap = locate(
        overlap_re,
        lambda th: abs(complex(np.vdot(_F_STATE, scan_state(th, epsilon, chi1, chi2)))))
    theta_bifurcation, bifurcation_gap = locate(
        disc_re,
        lambda th: discriminant_degeneracy(scan_state(th, epsilon, chi1, chi2)))

    raw1: list[float | None] = []
    raw2: list[float | None] = []
    rows = []
    for theta in grid:
        theta = float(theta)
        angles = qutrit_roots_closed_form(theta, epsilon, chi1, chi2, tol=tol)
        i1, i2 = angles.points()
        state = scan_state(theta, epsilon, chi1, chi2)
        disc = discriminant_degeneracy(state, tol=tol)
        flags = set()
        if tol.zero < disc <= _NEAR_DEGENERATE_BAND:
            flags.add("near_degenerate")

        def tri(point) -> float | None:
            try:
                return solid_angle_triangle(point, _EZ, _EX, tol=tol)
            except UndefinedSolidAngle:
                return None

        w1, w2 = tri(i1), tri(i2)
        try:
            direct = weak_value_direct(state, _R_PROJECTOR, _F_STATE, tol=tol)
        except OrthogonalSelection:
            direct = None
            flags.add("singular")
        raw1.append(w1)
        raw2.append(w2)
        rows.append((theta, angles, i1, i2, direct, flags))

    for gap, name in ((singular_gap, "singular"), (bifurcation_gap, "bifurcation")):
        if gap is not None:
            rows[gap][5].add(name)
            rows[gap + 1][5].add(name)

    # Unwrap each side of the singular bracket independently; the genuine
    # jump across the singularity is reported, not smoothed away.
    period = 4.0 * math.pi
    if singular_gap is not None:
        split = singular_gap + 1
        omega1 = (_unwrap_segment(raw1[:split], period)
                  + _unwrap_segment(raw1[split:], period))
        omega2 = (_unwrap_segment(raw2[:split], period)
                  + _unwrap_segment(raw2[split:], period))
    else:
        omega1 = _unwrap_segment(raw1, period)
        omega2 = _unwrap_segment(raw2, period)

    omega2_jump = None
    if singular_gap is not None:
        lo, hi = omega2[singular_gap], omega2[singular_gap + 1]
        if lo is not None and hi is not None:
            omega2_jump = hi - lo

    # Weak-value modulus factors over the whole grid; NaN where a point is
    # antipodal to the postselection.
    moduli1 = weak_moduli(np.array([row[2] for row in rows]), _EZ, _EX, tol=tol).tolist()
    moduli2 = weak_moduli(np.array([row[3] for row in rows]), _EZ, _EX, tol=tol).tolist()
    records = []
    for k, (theta, angles, i1, i2, direct, flags) in enumerate(rows):
        w1, w2 = omega1[k], omega2[k]
        wv_mod = moduli1[k] * moduli2[k]
        if w1 is None or w2 is None or direct is None or math.isnan(wv_mod):
            wv_mod = wv_arg = None
        else:
            wv_arg = -0.5 * (w1 + w2)
        records.append(ScanRecord(
            theta=theta,
            alpha1=angles.alpha_1, alpha2=angles.alpha_2,
            beta1=angles.beta_1, beta2=angles.beta_2,
            i1=i1, i2=i2,
            omega1=w1, omega2=w2,
            wv_modulus=wv_mod, wv_argument=wv_arg,
            wv_direct=direct,
            flags=frozenset(flags),
        ))
    return SingularityScan(
        records=tuple(records),
        epsilon=epsilon, chi1=chi1, chi2=chi2,
        theta_bifurcation=theta_bifurcation,
        theta_singular=theta_singular,
        omega2_jump=omega2_jump,
    )


@dataclass(frozen=True)
class BoxFactor:
    """One qubit contribution to a box-projector weak value.

    ``modulus`` carries the symmetrization normalization split evenly between
    the two factors (2K per factor), matching the per-factor bookkeeping of
    the entangled-projector case.
    """

    point: np.ndarray
    modulus: float
    solid_angle: float
    value: complex


@dataclass(frozen=True)
class BoxResult:
    name: str
    points: np.ndarray
    normalization: float
    factors: tuple[BoxFactor, BoxFactor]
    weak_value: complex
    weak_value_direct: complex
    entropy: float
    r_basis: np.ndarray
    bell_overlap: complex
    closest_separable: np.ndarray | None


@dataclass(frozen=True)
class ThreeBoxReport:
    i_vec: np.ndarray
    f_vec: np.ndarray
    boxes: tuple[BoxResult, BoxResult, BoxResult]
    weak_value_sum: complex
    abl_one_box: dict[str, float]
    abl_all_boxes: np.ndarray
    symmetry_checks: dict[str, bool]
    u1: np.ndarray
    u2: np.ndarray


def _symmetric_embedding(qutrit: np.ndarray) -> np.ndarray:
    """Two-qubit amplitudes of a qutrit under the stellar correspondence."""
    c0, c1, c2 = qutrit
    half = c1 / math.sqrt(2.0)
    return np.array([c2, half, half, c0])


def three_box_report(*, tol: Tolerances = DEFAULT_TOL) -> ThreeBoxReport:
    """Full bipartite analysis of the three-box pre/postselection scenario."""
    sq3 = math.sqrt(3.0)
    psi_i = np.array([1.0, 1.0, 1.0], dtype=complex) / sq3
    psi_f = np.array([1.0, -1.0, 1.0], dtype=complex) / sq3
    box_projectors = [np.diag([1.0, 0.0, 0.0]).astype(complex),
                      np.diag([0.0, 1.0, 0.0]).astype(complex),
                      np.diag([0.0, 0.0, 1.0]).astype(complex)]

    u1, u2 = three_box_transform()
    u = u2 @ u1
    i_rep = majorana_points(u @ psi_i, tol=tol)
    f_rep = majorana_points(u @ psi_f, tol=tol)
    i_vec = i_rep.points.mean(axis=0)
    i_vec = i_vec / np.linalg.norm(i_vec)
    f_vec = f_rep.points.mean(axis=0)
    f_vec = f_vec / np.linalg.norm(f_vec)

    boxes = []
    transformed_states = []
    for index, projector in enumerate(box_projectors):
        state = u @ np.eye(3, dtype=complex)[:, index]
        transformed_states.append(state)
        rep = majorana_points(state, tol=tol)
        factors = []
        bare_moduli = weak_moduli(i_vec, rep.points, f_vec, tol=tol).tolist()
        omegas = triangle_solid_angles(i_vec, rep.points, f_vec, tol=tol).tolist()
        for point, bare, omega in zip(rep.points, bare_moduli, omegas):
            modulus = 2.0 * rep.normalization * bare
            factors.append(BoxFactor(point=point, modulus=modulus, solid_angle=omega,
                                     value=modulus * complex(math.cos(-0.5 * omega),
                                                             math.sin(-0.5 * omega))))
        # stable physical row order: negative-phase factor first, then +x, +y
        factors.sort(key=lambda f: (round(f.solid_angle, 9),
                                    -round(f.point[0], 12), -round(f.point[1], 12)))
        weak_value = factors[0].value * factors[1].value
        direct = weak_value_direct(psi_i, projector, psi_f, tol=tol).rect
        if index in (0, 2):
            bisector = rep.points.sum(axis=0)
            closest = bisector / np.linalg.norm(bisector)
        else:
            closest = None
        boxes.append((rep, factors, weak_value, direct, closest))

    r_pair = boxes[1][0].points
    phi_r, phi_mr = bloch_to_qubits(r_pair, tol=tol)
    basis_rr = np.kron(phi_r, phi_r)
    basis_mm = np.kron(phi_mr, phi_mr)
    basis_bell = (np.kron(phi_r, phi_mr) + np.kron(phi_mr, phi_r)) / math.sqrt(2.0)

    results = []
    for index, (rep, factors, weak_value, direct, closest) in enumerate(boxes):
        embedded = _symmetric_embedding(transformed_states[index])
        components = np.array([np.vdot(basis_mm, embedded),
                               np.vdot(basis_bell, embedded),
                               np.vdot(basis_rr, embedded)])
        # report the r-basis image with the same global-phase convention as states
        anchor = components[np.argmax(np.abs(components))]
        components = components * (anchor.conjugate() / abs(anchor))
        results.append(BoxResult(
            name=f"box{index + 1}",
            points=np.stack([f.point for f in factors]),
            normalization=rep.normalization,
            factors=(factors[0], factors[1]),
            weak_value=weak_value,
            weak_value_direct=direct,
            entropy=entanglement_entropy(rep.points, tol=tol),
            r_basis=components,
            bell_overlap=complex(components[1]),
            closest_separable=closest,
        ))

    identity = np.eye(3, dtype=complex)
    abl_one_box = {
        "box1": abl_probability(psi_i, [box_projectors[0], identity - box_projectors[0]],
                                psi_f, 0, tol=tol),
        "box3": abl_probability(psi_i, [box_projectors[2], identity - box_projectors[2]],
                                psi_f, 0, tol=tol),
    }
    abl_all = abl_distribution(psi_i, box_projectors, psi_f, tol=tol)

    def reflect(v: np.ndarray) -> np.ndarray:
        return 2.0 * float(v @ r_pair[0]) * r_pair[0] - v

    check = 1e-10

    def swapped(pair: np.ndarray) -> bool:
        return bool(np.linalg.norm(reflect(pair[0]) - pair[1]) <= check
                    and np.linalg.norm(reflect(pair[1]) - pair[0]) <= check)

    n_pair = results[0].points
    m_pair = results[2].points
    expected_r_basis = (
        np.array([sq3 / 2.0, 0.0, 0.5]),
        np.array([0.0, 1.0, 0.0]),
        np.array([-0.5, 0.0, sq3 / 2.0]),
    )
    r_basis_ok = all(
        np.linalg.norm(results[k].r_basis - expected_r_basis[k]) <= 1e-9
        or np.linalg.norm(results[k].r_basis + expected_r_basis[k]) <= 1e-9
        for k in range(3))
    weak_sum = sum(r.weak_value for r in results)
    symmetry_checks = {
        "rotation_fixes_r_pair": bool(
            np.linalg.norm(reflect(r_pair[0]) - r_pair[0]) <= check
            and np.linalg.norm(reflect(r_pair[1]) - r_pair[1]) <= check),
        "rotation_swaps_n_pair": swapped(n_pair),
        "rotation_swaps_m_pair": swapped(m_pair),
        "rotation_swaps_i_f": bool(np.linalg.norm(reflect(i_vec) - f_vec) <= check),
        "box1_factors_conjugate": bool(
            abs(results[0].factors[0].value - results[0].factors[1].value.conjugate())
            <= check),
        "bell_overlap_zero": bool(abs(results[0].bell_overlap) <= check
                                  and abs(results[2].bell_overlap) <= check),
        "r_basis_matches": bool(r_basis_ok),
        "weak_values_sum_to_one": bool(abs(weak_sum - 1.0) <= check),
    }

    return ThreeBoxReport(
        i_vec=i_vec,
        f_vec=f_vec,
        boxes=(results[0], results[1], results[2]),
        weak_value_sum=weak_sum,
        abl_one_box=abl_one_box,
        abl_all_boxes=abl_all,
        symmetry_checks=symmetry_checks,
        u1=u1,
        u2=u2,
    )
