"""End-to-end reproductions: the weak-value singularity scan and the
three-box report, as structured records ready for serialization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import majorana
from .bloch import (
    _triangle_dots,
    _triangles,
    _unit_row,
    _weak_factors,
    _weak_modulus_rows,
    as_bloch_array,
)
from .canonical import _NORTH, _frame
from .errors import OrthogonalSelection
from .majorana import (
    _check_state_angles,
    _discriminant,
    _qutrit_roots_at,
    _unit_state,
    discriminant_degeneracy,
    entanglement_entropy,
    nlevel_state,
)
from .nlevel_values import abl_distribution, abl_probability, weak_value_direct
from .numerics import (
    _R_BASIS_SLACK,
    _SYMMETRY_SLACK,
    DEFAULT_TOL,
    _check_finite,
    _divided,
    _gauge_phase,
    _checked_overlap,
    _inner,
    _norm,
)
from .polar import PolarComplex

SCAN_EPSILON = float(math.asin(math.tan(math.pi / 6.0)))
SCAN_CHI1 = 4.0 * math.pi / 3.0
SCAN_CHI2 = 2.0 * math.pi / 3.0

_EZ = np.array([0.0, 0.0, 1.0])
_EX = np.array([1.0, 0.0, 0.0])
# Canonical-frame postselection: coincident stellar points on the +x axis.
_F_STATE = np.array([0.5, math.sqrt(0.5), 0.5], dtype=complex)
_F_ENTRIES = _F_STATE.tolist()
_R_PROJECTOR = np.diag([0.0, 0.0, 1.0]).astype(complex)

# Solid angles are defined modulo 4 pi; the scan unwraps them along the grid.
_SOLID_ANGLE_PERIOD = 4.0 * math.pi
_NEAR_DEGENERATE_BAND = 1e-8
_LOCATE_RESIDUAL = 1e-8
# Bracket width at which a bisection stops, and its step budget.
_BISECT_WIDTH = 1e-12
_BISECT_STEPS = 256


@dataclass(frozen=True, eq=False)
class ScanRecord:
    """One grid point of the singularity scan.

    ``omega1``/``omega2`` are unwrapped along the grid (reset across the
    singular bracket); undefined quantities at a singular point are ``None``.
    ``scan-singularity`` prints the fields in this order, ``wv_modulus`` and
    ``wv_argument`` as ``wv_mod`` and ``wv_arg``.
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


@dataclass(frozen=True, eq=False)
class SingularityScan:
    """The singularity scan: one :class:`ScanRecord` per grid angle, the scan
    parameters, and the located features, ``None`` where the grid has none:
    the bifurcation angle, the angle where ``<f|i>`` vanishes, and the jump of
    ``omega2`` across it.  ``scan-singularity`` prints ``epsilon``, ``chi1``
    and ``chi2`` as its ``parameters``, then the other fields in declaration
    order with ``records`` last.
    """

    records: tuple[ScanRecord, ...]
    epsilon: float
    chi1: float
    chi2: float
    theta_bifurcation: float | None
    theta_singular: float | None
    omega2_jump: float | None


def _bisect(fn: Callable[[float], float], lo: float, hi: float) -> float | None:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return None
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BISECT_WIDTH:
            return mid
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _first_root(thetas, values: np.ndarray, fn: Callable[[float], float],
                residual: Callable[[float], float] | None = None
                ) -> tuple[float | None, int | None]:
    """The first root of ``fn`` that bisection finds in a bracket where
    ``values`` (``fn`` on the grid ``thetas``) changes sign, with the index of
    the bracket's left node; a root whose ``residual`` exceeds
    ``_LOCATE_RESIDUAL`` is passed over.  ``(None, None)`` when none is found."""
    for k in np.flatnonzero(values[:-1] * values[1:] < 0.0).tolist():
        found = _bisect(fn, float(thetas[k]), float(thetas[k + 1]))
        if found is not None and (residual is None or residual(found) <= _LOCATE_RESIDUAL):
            return found, k
    return None, None


def _unwrap_segment(raw: list[float | None]) -> list[float | None]:
    out: list[float | None] = []
    prev: float | None = None
    for value in raw:
        if value is None:
            out.append(None)
            continue
        if prev is not None:
            value += _SOLID_ANGLE_PERIOD * round((prev - value) / _SOLID_ANGLE_PERIOD)
        out.append(value)
        prev = value
    return out


def _complex_columns(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _unit_rows(c: np.ndarray) -> np.ndarray:
    """:func:`_unit_state` of each row of an ``(n, N)`` complex array, bit for
    bit, without its checks: the norm's sum and the division on numpy real
    columns, in :func:`numerics._sumsq`'s order."""
    re, im = c.real, c.imag
    total = np.zeros(len(c))
    for k in range(c.shape[1]):
        total = total + (re[:, k] * re[:, k] + im[:, k] * im[:, k])
    norms = np.sqrt(total)[:, None]
    return _complex_columns(re / norms, im / norms)


def _column_inner(bra: list[complex], kets: np.ndarray) -> np.ndarray:
    """:func:`numerics._inner` of the Python complexes ``bra`` with each row
    of an ``(n, N)`` complex array, bit for bit, on numpy real columns."""
    re = im = np.zeros(len(kets))
    for b, column in zip(bra, kets.T):
        br, bi, kr, ki = b.real, b.imag, column.real, column.imag
        re = re + (br * kr + bi * ki)
        im = im + (br * ki - bi * kr)
    return _complex_columns(re, im)


def _gauged_rows(c: np.ndarray) -> np.ndarray:
    """:func:`nlevel_state` of each unit row of an ``(n, 3)`` complex array, bit
    for bit, without its checks; every unit row has a :func:`_gauge_phase`."""
    out = _unit_rows(c)
    return out * np.array([_gauge_phase(row) for row in out.tolist()])[:, None]


def _scan_states(thetas, epsilon: float, chi1: float, chi2: float) -> np.ndarray:
    """:func:`scan_state` of every angle in ``thetas`` as an ``(n, 3)`` array;
    nothing is checked."""
    ce, se = math.cos(epsilon), math.sin(epsilon)
    thetas = np.asarray(thetas, dtype=float)
    sin_t, cos_t = np.sin(thetas), np.cos(thetas)  # libm's bits, as math.sin
    c = np.empty((thetas.size, 3), dtype=complex)
    c[:, 0] = np.exp(1j * chi1) * ce * sin_t
    c[:, 1] = np.exp(1j * chi2) * se * sin_t
    c[:, 2] = cos_t
    return _gauged_rows(c)


def scan_state(theta: float, epsilon: float, chi1: float, chi2: float) -> np.ndarray:
    """``nlevel_state`` of ``params_to_state(StateAngles(theta, epsilon, chi1, chi2))``."""
    _check_state_angles(epsilon, chi1, chi2)
    _check_finite(theta=theta)
    return _scan_states([theta], epsilon, chi1, chi2)[0]


def _scan_overlap(theta: float, epsilon: float, chi1: float, chi2: float) -> complex:
    return _inner(_F_ENTRIES, scan_state(theta, epsilon, chi1, chi2).tolist())


def _disc_re(theta, epsilon: float, chi1: float, chi2: float):
    """Re(disc * exp(-1j chi1)) of the scan state's stellar polynomial.

    ``theta`` is a float or a float array.  The complex products are written
    out in real arithmetic with the roundings of the complex expression
    ``(2 se^2 st^2 e^(2i chi2) - 4 ce st ct e^(i chi1)) e^(-i chi1)``.
    """
    se, ce = math.sin(epsilon), math.cos(epsilon)
    st, ct = np.sin(theta), np.cos(theta)
    e2, e1, back = np.exp(2j * chi2), np.exp(1j * chi1), np.exp(-1j * chi1)
    a = 2.0 * se * se * st * st
    b = 4.0 * ce * st * ct
    re = a * e2.real - b * e1.real
    im = a * e2.imag - b * e1.imag
    return re * back.real - im * back.imag


def _midpoints(lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (np.arange(n) + 0.5) / n * (hi - lo)


def default_theta_grid(count: int = 512) -> np.ndarray:
    """Midpoint grid of ``count`` points strictly inside (0, pi/2); ``count``
    must be a finite integer (``512.0`` counts as one) of at least 2."""
    if not (math.isfinite(count) and count == int(count)):
        raise ValueError("grid count must be an integer")
    if count < 2:
        raise ValueError("grid needs at least two points")
    return _midpoints(0.0, 0.5 * math.pi, count)


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
    cusp, _ = _first_root(probe, _disc_re(probe, epsilon, chi1, chi2),
                          lambda th: _disc_re(th, epsilon, chi1, chi2))
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
                     chi1: float = SCAN_CHI1, chi2: float = SCAN_CHI2) -> SingularityScan:
    """Sweep the initial-state polar angle and track the projector weak value.

    Each record carries the closed-form root angles, the two initial Bloch
    vectors, their (unwrapped) solid angles against the canonical frame
    (projector on +z, postselection on +x), the geometric weak value and the
    direct oracle.  The bifurcation (double stellar root) and the weak-value
    singularity are located by bisection on sign-changing proxies and flagged
    on the bracketing grid points.
    """
    _check_state_angles(epsilon, chi1, chi2)
    if theta_grid is None:
        grid = _refined_default_grid(count, epsilon, chi1, chi2)
    else:
        grid = np.asarray(theta_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("theta grid must be a 1-d sequence of at least two points")
        if not np.isfinite(grid).all():
            raise ValueError("theta grid must be finite")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("theta grid must be strictly increasing")
        if grid[0] <= 0.0 or grid[-1] >= 0.5 * math.pi:
            raise ValueError("theta grid must lie inside (0, pi/2)")
    thetas = grid.tolist()

    # Every stage runs once over the grid; each row keeps the bits of the
    # per-theta public functions (scan_state, weak_value_direct,
    # discriminant_degeneracy, solid_angle_triangle), which bisection still uses.
    states = _scan_states(grid, epsilon, chi1, chi2)
    # Renormalized once more, as weak_value_direct and discriminant_degeneracy
    # take scan_state; neither fixes a gauge, which moves no value.
    oracle_states = _unit_rows(states)

    theta_singular, singular_gap = _first_root(
        thetas, _column_inner(_F_ENTRIES, states).real,
        lambda th: _scan_overlap(th, epsilon, chi1, chi2).real,
        lambda th: abs(_scan_overlap(th, epsilon, chi1, chi2)))
    theta_bifurcation, bifurcation_gap = _first_root(
        thetas, _disc_re(grid, epsilon, chi1, chi2),
        lambda th: _disc_re(th, epsilon, chi1, chi2),
        lambda th: discriminant_degeneracy(scan_state(th, epsilon, chi1, chi2)))
    flags = [set() for _ in thetas]
    for gap, name in ((singular_gap, "singular"), (bifurcation_gap, "bifurcation")):
        if gap is not None:
            flags[gap].add(name)
            flags[gap + 1].add(name)

    roots = _qutrit_roots_at(epsilon, chi1, chi2)
    angles = [roots(theta) for theta in thetas]
    alpha = np.array([[a.alpha_1, a.alpha_2] for a in angles])
    beta = np.array([[a.beta_1, a.beta_2] for a in angles])
    sin_beta = np.sin(beta)
    points = np.stack([np.cos(alpha) * sin_beta, np.sin(alpha) * sin_beta, np.cos(beta)],
                      axis=-1)

    # One kernel pass over both renormalized points of every row gives the
    # solid angles of (i_k, +z, +x), an undefined triangle blanking only its
    # entry, and the modulus factors, NaN where a point is antipodal to the
    # postselection.  Each side of the singular bracket is unwrapped
    # independently: the genuine jump across the singularity is reported.
    y, x, fr, ri, fi = _triangle_dots(as_bloch_array(points).reshape(-1, 3), _EZ, _EX)
    raw = _triangles(y, x)
    moduli = _weak_modulus_rows(fr, ri, fi)
    split = len(thetas) if singular_gap is None else singular_gap + 1
    omega1, omega2 = (_unwrap_segment(side[:split]) + _unwrap_segment(side[split:])
                      for side in (raw[0::2], raw[1::2]))
    ends = omega2[split - 1:split + 1]  # one entry when no bracket splits the grid
    omega2_jump = ends[1] - ends[0] if len(ends) == 2 and None not in ends else None

    # Direct oracle, as weak_value_direct(state, _R_PROJECTOR, _F_STATE) with
    # the constant postselection validated once.
    f_state = _unit_state(_F_STATE)
    image = np.stack([_column_inner(row, oracle_states) for row in _R_PROJECTOR.conj().tolist()],
                     axis=1)
    records = []
    for k, (numerator, entries, row) in enumerate(zip(
            _column_inner(f_state, image).tolist(), oracle_states.tolist(), flags)):
        try:
            direct = PolarComplex.from_complex(numerator / _checked_overlap(f_state, entries))
        except OrthogonalSelection:
            direct = None
            row.add("singular")
        if DEFAULT_TOL.zero < _discriminant(*entries) <= _NEAR_DEGENERATE_BAND:
            row.add("near_degenerate")
        w1, w2 = omega1[k], omega2[k]
        a = angles[k]
        wv_mod = moduli[2 * k] * moduli[2 * k + 1]
        if w1 is None or w2 is None or direct is None or math.isnan(wv_mod):
            wv_mod = wv_arg = None
        else:
            wv_arg = -0.5 * (w1 + w2)
        records.append(ScanRecord(
            theta=thetas[k],
            alpha1=a.alpha_1, alpha2=a.alpha_2,
            beta1=a.beta_1, beta2=a.beta_2,
            i1=points[k, 0], i2=points[k, 1],
            omega1=w1, omega2=w2,
            wv_modulus=wv_mod, wv_argument=wv_arg,
            wv_direct=direct,
            flags=frozenset(row),
        ))
    return SingularityScan(
        records=tuple(records),
        epsilon=epsilon, chi1=chi1, chi2=chi2,
        theta_bifurcation=theta_bifurcation,
        theta_singular=theta_singular,
        omega2_jump=omega2_jump,
    )


@dataclass(frozen=True, eq=False)
class BoxFactor:
    """One qubit contribution to a box-projector weak value.

    ``modulus`` carries the symmetrization normalization split evenly between
    the two factors (2K per factor), matching the per-factor bookkeeping of
    the entangled-projector case.
    """

    modulus: float
    solid_angle: float
    value: complex
    point: np.ndarray


@dataclass(frozen=True, eq=False)
class BoxResult:
    """One box of the three-box analysis, in the canonical frame: the Majorana
    points of the box state (in factor order) and their K, its two qubit
    factors, its weak value as their product and by the direct route, the
    entanglement entropy of its points as a symmetrized qubit pair, its
    overlaps with the states whose points are the middle box's pair taken as
    {-r,-r}, {r,-r} and {r,r} (the two-qubit basis -r-r, symmetric Bell, rr)
    with the largest made real and positive, the Bell overlap alone, and the
    unit sum of the points (``None`` for the middle box, whose points are
    antipodal).  ``three-box`` prints the fields in declaration order.
    """

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


@dataclass(frozen=True, eq=False)
class ThreeBoxReport:
    """The three-box analysis; ``three-box`` prints it, its :class:`BoxResult`
    and :class:`BoxFactor` records field by field in declaration order."""

    i_vec: np.ndarray
    f_vec: np.ndarray
    boxes: tuple[BoxResult, BoxResult, BoxResult]
    weak_value_sum: complex
    abl_one_box: dict[str, float]
    abl_all_boxes: np.ndarray
    symmetry_checks: dict[str, bool]


def three_box_report() -> ThreeBoxReport:
    """Full bipartite analysis of the three-box pre/postselection scenario."""
    sq3 = math.sqrt(3.0)
    psi_i = np.array([1.0, 1.0, 1.0], dtype=complex) / sq3
    psi_f = np.array([1.0, -1.0, 1.0], dtype=complex) / sq3
    box_projectors = [np.diag([1.0, 0.0, 0.0]).astype(complex),
                      np.diag([0.0, 1.0, 0.0]).astype(complex),
                      np.diag([0.0, 0.0, 1.0]).astype(complex)]

    to_frame, f_vec, _ = _frame(nlevel_state(psi_i).tolist(), nlevel_state(psi_f).tolist())
    f_vec = np.array(f_vec)
    i_vec = _NORTH.copy()
    states = [to_frame(e) for e in np.eye(3, dtype=complex).tolist()]
    reps = [majorana._majorana_points(_divided(state, _norm(state))) for state in states]
    r_pair = reps[1].points
    # The states whose points are {-r,-r}, {r,-r} and {r,r}: the symmetric
    # two-qubit r basis (-r-r, Bell, rr), in the space of the box states.
    r_basis = [majorana._symmetrized(r_pair[rows].tolist())[0]
               for rows in ([1, 1], [0, 1], [0, 0])]

    results = []
    for index, (projector, state, rep) in enumerate(zip(box_projectors, states, reps)):
        normalization = rep.normalization
        factors = []
        for point, bare, omega in zip(rep.points,
                                      *_weak_factors(i_vec, rep.points, f_vec)):
            modulus = 2.0 * normalization * bare
            factors.append(BoxFactor(point=point, modulus=modulus, solid_angle=omega,
                                     value=modulus * complex(math.cos(-0.5 * omega),
                                                             math.sin(-0.5 * omega))))
        # stable physical row order: negative-phase factor first, then +x, +y
        factors.sort(key=lambda f: (round(f.solid_angle, 9),
                                    -round(f.point[0], 12), -round(f.point[1], 12)))
        components = np.array([_inner(b, state) for b in r_basis])
        # report the r-basis image with its largest component (the first, on a tie)
        # real and positive
        anchor = components[np.argmax(np.abs(components))]
        components = components * (anchor.conjugate() / abs(anchor))
        results.append(BoxResult(
            name=f"box{index + 1}",
            points=np.stack([f.point for f in factors]),
            normalization=normalization,
            factors=(factors[0], factors[1]),
            weak_value=factors[0].value * factors[1].value,
            weak_value_direct=weak_value_direct(psi_i, projector, psi_f).rect,
            entropy=entanglement_entropy(rep.points),
            r_basis=components,
            bell_overlap=complex(components[1]),
            closest_separable=None if index == 1 else np.array(
                _unit_row(rep.points.sum(axis=0).tolist())),
        ))

    identity = np.eye(3, dtype=complex)
    abl_one_box = {
        "box1": abl_probability(psi_i, [box_projectors[0], identity - box_projectors[0]],
                                psi_f, 0),
        "box3": abl_probability(psi_i, [box_projectors[2], identity - box_projectors[2]],
                                psi_f, 0),
    }
    abl_all = abl_distribution(psi_i, box_projectors, psi_f)

    def reflect(v: np.ndarray) -> np.ndarray:
        return 2.0 * float(v @ r_pair[0]) * r_pair[0] - v

    def swapped(pair: np.ndarray) -> bool:
        return bool(np.linalg.norm(reflect(pair[0]) - pair[1]) <= _SYMMETRY_SLACK
                    and np.linalg.norm(reflect(pair[1]) - pair[0]) <= _SYMMETRY_SLACK)

    n_pair = results[0].points
    m_pair = results[2].points
    expected_r_basis = (
        np.array([sq3 / 2.0, 0.0, 0.5]),
        np.array([0.0, 1.0, 0.0]),
        np.array([-0.5, 0.0, sq3 / 2.0]),
    )
    r_basis_ok = all(
        np.linalg.norm(results[k].r_basis - expected_r_basis[k]) <= _R_BASIS_SLACK
        or np.linalg.norm(results[k].r_basis + expected_r_basis[k]) <= _R_BASIS_SLACK
        for k in range(3))
    weak_sum = sum(r.weak_value for r in results)
    symmetry_checks = {
        "rotation_fixes_r_pair": bool(
            np.linalg.norm(reflect(r_pair[0]) - r_pair[0]) <= _SYMMETRY_SLACK
            and np.linalg.norm(reflect(r_pair[1]) - r_pair[1]) <= _SYMMETRY_SLACK),
        "rotation_swaps_n_pair": swapped(n_pair),
        "rotation_swaps_m_pair": swapped(m_pair),
        "rotation_swaps_i_f": bool(np.linalg.norm(reflect(i_vec) - f_vec) <= _SYMMETRY_SLACK),
        "box1_factors_conjugate": bool(
            abs(results[0].factors[0].value - results[0].factors[1].value.conjugate())
            <= _SYMMETRY_SLACK),
        "bell_overlap_zero": bool(abs(results[0].bell_overlap) <= _SYMMETRY_SLACK
                                  and abs(results[2].bell_overlap) <= _SYMMETRY_SLACK),
        "r_basis_matches": bool(r_basis_ok),
        "weak_values_sum_to_one": bool(abs(weak_sum - 1.0) <= _SYMMETRY_SLACK),
    }

    return ThreeBoxReport(
        i_vec=i_vec,
        f_vec=f_vec,
        boxes=(results[0], results[1], results[2]),
        weak_value_sum=weak_sum,
        abl_one_box=abl_one_box,
        abl_all_boxes=abl_all,
        symmetry_checks=symmetry_checks,
    )
