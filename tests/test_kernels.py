"""The per-row Bloch kernel, its scalar wrappers and the batch check against
the reference formulas.

The reference functions below restate the kernel one vertex at a time in
Python floats: each vertex's unnormalized spinor, each overlap ``<a|b>`` and
complex product in real components, ``math.atan2`` of the cyclic product,
and each ``1 + a.b`` of unit vectors read as the projection ``|a+b|^2/2``,
``(a0 b0 + a1 b1) + a2 b2``.  Every kernel must reproduce them bit for bit,
zero signs included, for any number of rows and whichever vertex the rows
fill.  Independently of them, ``helpers.exact_solid_angle`` (50-digit
``decimal``, no branch shared with the kernel) bounds every kernel angle on
the near-degenerate classes by ``C u / min |<a|b>|`` of its adjacent
vertices.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import ang_dist, exact_solid_angle, random_state, spin_component, tilted_axis
import majgeom
from majgeom import bloch, experiments, majorana, numerics
from majgeom.bloch import (
    _chain,
    _defined,
    _modular_factors,
    _moduli,
    _polygons,
    _vertices,
    _weak_columns,
    _weak_factors,
    as_bloch,
    as_bloch_array,
    bloch_to_qubit,
    qubit_to_bloch,
    rodrigues_rotate,
    solid_angle_quadrangle,
    solid_angle_triangle,
)
from majgeom.errors import OrthogonalSelection, UndefinedSolidAngle
from majgeom.nlevel_values import (
    NLevelModularSpec,
    factored_modular_value,
    factored_weak_value,
    modular_value_direct,
    pair_points,
    qutrit_modular_value_geometric,
)
from majgeom.numerics import DEFAULT_TOL, eig_hermitian
from majgeom.qubit_values import (
    QubitModularSpec,
    modular_value_geometric,
    projector_weak_value_direct,
    projector_weak_value_geometric,
)
from majgeom.qubit_values import modular_value_direct as qubit_modular_value_direct

KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                           suppress_health_check=[HealthCheck.too_slow])
THRESHOLD = 2.0 * DEFAULT_TOL.orthogonality**2
U = 2.0**-53
# The kernel's angle errs from the exact angle of its float points by at most
# C u / min |<a|b>| over the polygon's adjacent vertices.  The largest ratio
# measured was 8.8, over 84 000 draws of the near-degenerate classes below
# (vertices 1e-2 to 1e-10 from the antipodes, seven seeds), where the smallest
# overlap was O(1); C holds nearly a factor of two.
C_ANGLE = 16.0


# --- reference formulas, one vector at a time --------------------------------

def ref_as_bloch(vec):
    a0, a1, a2 = map(float, vec)
    norm = math.sqrt((a0 * a0 + a1 * a1) + a2 * a2)
    return np.array([a0 / norm, a1 / norm, a2 / norm])


def ref_bloch_to_qubit(vec):
    x, y, z = ref_as_bloch(vec).tolist()
    if z < 0.0:  # cos(t/2) as |x+iy| / (2 sin(t/2)), free of the cancellation of 1 + z
        a0 = math.hypot(x, y) / (2.0 * math.sqrt(0.5 * (1.0 - z)))
    else:
        a0 = math.sqrt(0.5 * (1.0 + z))
    if a0 < 1e-150:
        return np.array([0.0 + 0.0j, 1.0 + 0.0j])
    parts = [a0, 0.0, x / (2.0 * a0), y / (2.0 * a0)]
    norm = math.sqrt((parts[0] ** 2 + parts[1] ** 2) + (parts[2] ** 2 + parts[3] ** 2))
    return np.array([complex(parts[0] / norm, parts[1] / norm),
                     complex(parts[2] / norm, parts[3] / norm)])


def ref_solid_angle(*corners):
    """The kernel's solid angle of the triangle (i, r, f) or quadrangle
    (i, r, s, f) of vectors checked by :func:`ref_as_bloch`."""
    return ref_unit_solid_angle(*map(ref_as_bloch, corners))


def ref_dot(a, b):
    a0, a1, a2 = map(float, a)
    b0, b1, b2 = map(float, b)
    return (a0 * b0 + a1 * b1) + a2 * b2


def ref_sum(a, b):
    return [float(x) + float(y) for x, y in zip(a, b)]


def ref_projection(a, b):
    """``1 + a.b`` of unit vectors, as ``|a+b|^2/2``."""
    w = ref_sum(a, b)
    return 0.5 * ref_dot(w, w)


def ref_spinor(v):
    """The unnormalized spinor of a unit vector as (re, im, re, im):
    ``(1+z, x+iy)``, or ``(x-iy, 1-z)`` for z < 0."""
    x, y, z = map(float, v)
    return (1.0 + z, 0.0, x, y) if z >= 0.0 else (x, -y, 1.0 - z, 0.0)


def ref_overlap(a, b):
    """``<a|b>`` of the spinors of two unit vectors, as (re, im)."""
    a0, a1, a2, a3 = ref_spinor(a)
    b0, b1, b2, b3 = ref_spinor(b)
    return (a0 * b0 + a1 * b1) + (a2 * b2 + a3 * b3), (a0 * b1 - a1 * b0) + (a2 * b3 - a3 * b2)


def ref_times(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def ref_unit_solid_angle(*corners):
    """Minus twice the argument of ``<f|s><s|r><r|i><i|f>`` of unit corners
    (i, r, s, f), with s = f for a triangle (i, r, f), multiplied as
    ``(<r|i><i|f>)((<f|s><s|r>)(1, 0))``; undefined where the projection of
    adjacent corners is at most ``2 zero**2``."""
    vi, vr, *rest, vf = corners
    vs = rest[0] if rest else vf
    legs = ((vi, vr), (vr, vs), (vs, vf), (vf, vi))
    if min(ref_projection(a, b) for a, b in legs) <= 2.0 * DEFAULT_TOL.zero**2:
        raise UndefinedSolidAngle("reference")
    half = ref_times(ref_times(ref_overlap(vf, vs), ref_overlap(vs, vr)), (1.0, 0.0))
    re, im = ref_times(ref_times(ref_overlap(vr, vi), ref_overlap(vi, vf)), half)
    omega = -2.0 * math.atan2(im, re)
    return omega + 4.0 * math.pi if omega <= -2.0 * math.pi else omega


def ref_weak_modulus(vi, vr, vf):
    den = ref_projection(vf, vi)
    if den <= THRESHOLD:
        return math.nan
    return math.sqrt(0.5 * ref_projection(vf, vr) * ref_projection(vr, vi) / den)


def ref_modular_modulus(vi, vs, vf):
    den = ref_projection(vf, vi)
    if den <= THRESHOLD:
        return math.nan
    return math.sqrt(ref_projection(vf, vs) / den)


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def row_angles(*corners) -> list[float | None]:
    """The kernel's solid angles of the triangles (i, r, f) or quadrangles
    (i, r, s, f) of vertices (rows, or one vector each) checked by
    ``as_bloch_array``; ``None`` where undefined."""
    vi, vr, *rest, vf = map(as_bloch_array, corners)
    return _polygons(vi, vr, rest[0] if rest else None, vf)[0]


def ref_angle_or_none(*corners):
    try:
        return ref_solid_angle(*corners)
    except UndefinedSolidAngle:
        return None


def same_angles(got, want) -> bool:
    """Row angles equal bit for bit, ``None`` in the same rows."""
    return ([a is None for a in got] == [a is None for a in want]
            and all(same_bits(a, b) for a, b in zip(got, want) if a is not None))


def smallest_overlap(*corners) -> float:
    """``min |<a|b>|`` over the adjacent corners of a polygon of unit vectors,
    from the exact projections ``|a+b|^2/4`` of the float corners."""
    units = [[Fraction(c) for c in ref_as_bloch(v).tolist()] for v in corners]
    return min(math.sqrt(float(exact_projection(a, b) / 2))
               for a, b in zip(units, units[1:] + units[:1]))


def angle_error_bound(*corners) -> float:
    """``C_ANGLE u / min |<a|b>|`` of a polygon's adjacent corners."""
    size = smallest_overlap(*corners)
    return C_ANGLE * U / size if size else math.inf


# --- strategies --------------------------------------------------------------

coordinate = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def unit_vectors(draw):
    """Unit vectors, with poles, near-poles and signed zeros over-represented."""
    kind = draw(st.sampled_from(["generic", "generic", "south", "near_south",
                                 "north", "signed_zero"]))
    if kind == "south":
        return np.array([0.0, 0.0, -1.0])
    if kind == "north":
        return np.array([draw(st.sampled_from([0.0, -0.0])),
                         draw(st.sampled_from([0.0, -0.0])), 1.0])
    if kind == "near_south":
        tiny = st.floats(-1e-7, 1e-7, allow_nan=False)
        v = np.array([draw(tiny), draw(tiny), -1.0])
    else:
        v = np.array([draw(coordinate), draw(coordinate), draw(coordinate)])
        if kind == "signed_zero":
            v[draw(st.integers(0, 1))] = -0.0
    norm = float(np.linalg.norm(v))
    if norm < 1e-3:
        return np.array([0.0, -0.0, 1.0])
    return v / norm


def batches(max_rows=7):
    return st.lists(unit_vectors(), min_size=1, max_size=max_rows).map(np.array)


@st.composite
def triangle_batches(draw):
    """A batch of m initial points, shared r and f, some rows near-antipodal."""
    points = draw(batches())
    r, f = draw(unit_vectors()), draw(unit_vectors())
    for k in range(points.shape[0]):
        if draw(st.integers(0, 5)) == 0:  # i_k just off -f or -r
            target = f if draw(st.booleans()) else r
            v = -target + draw(st.floats(-1e-6, 1e-6, allow_nan=False))
            points[k] = v / np.linalg.norm(v)
    return points, r, f


# --- validation --------------------------------------------------------------

class TestAsBlochArray:
    @KERNEL_SETTINGS
    @given(points=batches())
    def test_rows_match_scalar_and_reference(self, points):
        batch = as_bloch_array(points)
        assert batch.shape == points.shape
        for row, p in zip(batch, points):
            assert same_bits(row, as_bloch(p))
            assert same_bits(row, ref_as_bloch(p))

    def test_nested_batch_shape(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(2, 4, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        out = as_bloch_array(v)
        assert out.shape == (2, 4, 3)
        assert same_bits(out[1, 2], as_bloch(v[1, 2]))

    @pytest.mark.parametrize("bad, message", [
        ([0.0, 0.0, 2.0], "Bloch vector norm 2.000000 deviates from 1 beyond 1e-08"),
        ([math.nan, 0.0, 1.0], "Bloch vector must be finite"),
        ([math.inf, 0.0, 0.0], "Bloch vector must be finite"),
        ([1e300, 1e300, 0.0], "Bloch vector norm inf deviates from 1 beyond 1e-08"),
    ])
    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflowing norm warns nothing
    def test_one_bad_row_raises_like_scalar(self, bad, message, position):
        with pytest.raises(ValueError) as scalar:
            as_bloch(bad)
        assert str(scalar.value) == message
        rows = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0],
                [0.0, -1.0, 0.0]]
        rows[position] = bad
        with pytest.raises(ValueError) as batch:
            as_bloch_array(rows)
        assert str(batch.value) == message

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 2)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="three components"):
            as_bloch_array(np.ones(shape))

    def test_scalar_wrapper_rejects_batches(self):
        with pytest.raises(ValueError, match="three components"):
            as_bloch(np.array([[0.0, 0.0, 1.0]]))


# --- qubit states ------------------------------------------------------------

class TestBlochToQubits:
    @KERNEL_SETTINGS
    @given(points=batches())
    def test_rows_match_scalar_and_reference(self, points):
        for p in points:
            q = bloch_to_qubit(p)
            assert q.shape == (2,) and q.dtype == complex
            assert same_bits(q, ref_bloch_to_qubit(p))

    def test_south_pole_rows(self):
        points = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1e-9, -1e-9, -1.0]])
        q = [bloch_to_qubit(p) for p in points / np.linalg.norm(points, axis=1, keepdims=True)]
        assert same_bits(q[0], np.array([0j, 1 + 0j]))
        assert same_bits(q[1], np.array([1 + 0j, 0j]))
        # 1.4e-9 from the pole is not the pole: |a0| = |x+iy|/2.
        assert same_bits(q[2], ref_bloch_to_qubit(points[2]))
        assert abs(q[2][0] - math.sqrt(0.5) * 1e-9) <= 1e-24

    @pytest.mark.parametrize("phi", [0.0, 0.7, -2.9])
    def test_near_south_pole_keeps_relative_accuracy(self, phi):
        # The point delta = 1.3e-8 from -z has amplitudes sin(delta/2) and
        # e^(i phi) cos(delta/2); sqrt((1+z)/2) would cancel to 7.45e-9
        # where sin(delta/2) is 6.5e-9.
        delta, eps = 1.3e-8, 2.0**-52
        point = [math.sin(delta) * math.cos(phi), math.sin(delta) * math.sin(phi),
                 -math.cos(delta)]
        a0, a1 = bloch_to_qubit(point)
        assert a0.imag == 0.0
        assert abs(a0.real - math.sin(0.5 * delta)) <= 4 * eps * math.sin(0.5 * delta)
        assert abs(a1 - math.cos(0.5 * delta) * complex(math.cos(phi), math.sin(phi))) <= 4 * eps
        state, _ = majgeom.symmetrize([point])
        assert abs(abs(state[1]) - math.sin(0.5 * delta)) <= 4 * eps * math.sin(0.5 * delta)

    def test_one_bad_row_raises_like_scalar(self):
        for bad in ([0.0, 0.0, 1.1], [math.nan, 0.0, 1.0], [[0.0, 0.0, 1.0]]):
            with pytest.raises(ValueError) as scalar:
                as_bloch(bad)
            with pytest.raises(ValueError) as qubit:
                bloch_to_qubit(bad)
            assert str(qubit.value) == str(scalar.value)


# --- solid angles ------------------------------------------------------------

class TestTriangleSolidAngles:
    """:func:`solid_angle_triangle` and the row kernel behind it (and behind
    the factored values), :func:`bloch._polygons` with ``s`` left out."""

    @KERNEL_SETTINGS
    @given(case=triangle_batches())
    def test_batch_matches_scalar_and_reference(self, case):
        points, r, f = case
        expected = [ref_angle_or_none(p, r, f) for p in points]
        assert same_angles(row_angles(points, r, f), expected)
        for p, ref in zip(points, expected):
            if ref is None:
                with pytest.raises(UndefinedSolidAngle):
                    solid_angle_triangle(p, r, f)
            else:
                assert same_bits(solid_angle_triangle(p, r, f), ref)

    @KERNEL_SETTINGS
    @given(points=batches(), r=unit_vectors(), f=unit_vectors(),
           slot=st.integers(0, 2))
    def test_broadcast_in_every_slot(self, points, r, f, slot):
        # The row kernel shares a single vector across the rows of any vertex,
        # as the modular factors pair rows of i and s with one r and f.
        args = [r, f]
        args.insert(slot, points)
        singles = [[p if k == slot else a for k, a in enumerate(args)] for p in points]
        assert same_angles(row_angles(*args), [ref_angle_or_none(*t) for t in singles])

    def test_single_triangle_is_zero_dimensional(self):
        ez, ex, ey = np.eye(3)[2], np.eye(3)[0], np.eye(3)[1]
        out = solid_angle_triangle(ez, ex, ey)
        assert type(out) is float
        assert same_bits(out, ref_solid_angle(ez, ex, ey))

    def test_keeps_negative_zero(self):
        ez, ex = np.eye(3)[2], np.eye(3)[0]
        expected = [ref_solid_angle(ez, ez, ex), ref_solid_angle(ex, ez, ex)]
        assert same_angles(row_angles(np.array([ez, ex]), ez, ex), expected)
        assert same_bits(solid_angle_triangle(ez, ez, ex), expected[0])
        assert math.copysign(1.0, expected[0]) == -1.0

    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_one_antipodal_triangle_raises_like_scalar(self, position):
        rng = np.random.default_rng(position)
        points = rng.normal(size=(7, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        r = np.array([0.0, 0.0, 1.0])
        f = np.array([1.0, 0.0, 0.0])
        points[position] = -f
        with pytest.raises(UndefinedSolidAngle) as scalar:
            solid_angle_triangle(points[position], r, f)
        with pytest.raises(UndefinedSolidAngle) as batch:
            _defined(row_angles(points, r, f))
        assert str(batch.value) == str(scalar.value)

    def test_undefined_triangle_is_none_for_its_row_only(self):
        # The per-row kernel: an antipodal triangle blanks its own row, and
        # only the value that reads it refuses.
        rng = np.random.default_rng(11)
        points = rng.normal(size=(5, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        r = np.array([0.0, 0.0, 1.0])
        f = np.array([1.0, 0.0, 0.0])
        points[2] = -f
        angles = row_angles(points, r, f)
        assert len(angles) == 5
        assert angles[2] is None
        for k in (0, 1, 3, 4):
            assert same_bits(angles[k], solid_angle_triangle(points[k], r, f))

    def test_validates_each_vertex_batch(self):
        vertices = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        for slot in range(3):
            bad = list(vertices)
            bad[slot] = [0.0, 0.5, 0.5]
            with pytest.raises(ValueError, match="deviates"):
                solid_angle_triangle(*bad)


class TestQuadrangle:
    def test_sum_of_reference_triangles(self):
        # The quadrangle is the reference cyclic product bit for bit, and the
        # sum of the triangles (i, r, s) and (i, s, f), whose shared i <-> s
        # legs cancel, to the rounding of all three (mod 4 pi).
        rng = np.random.default_rng(12)
        for _ in range(300):
            i, r, s, f = (v / np.linalg.norm(v) for v in rng.normal(size=(4, 3)))
            got = solid_angle_quadrangle(i, r, s, f)
            assert same_bits(got, ref_solid_angle(i, r, s, f))
            assert -2.0 * math.pi < got <= 2.0 * math.pi
            total = solid_angle_triangle(i, r, s) + solid_angle_triangle(i, s, f)
            bound = sum(angle_error_bound(*t) for t in ((i, r, s, f), (i, r, s), (i, s, f)))
            assert ang_dist(got, total, period=4 * math.pi) <= bound

    @pytest.mark.parametrize("i, r, s, f", [
        ((0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0)),  # i -> r at antipodes
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)),  # s -> f at antipodes
    ])
    def test_undefined_triangle_raises(self, i, r, s, f):
        with pytest.raises(UndefinedSolidAngle):
            solid_angle_quadrangle(i, r, s, f)

    def test_antipodal_diagonals_are_defined(self):
        # No diagonal enters the product: s = -i and f = -r leave the
        # quadrangle z -> x -> -z -> -x a great circle through the poles,
        # whose hemisphere is 2 pi on either side.
        ez, ex = np.eye(3)[2], np.eye(3)[0]
        assert abs(solid_angle_quadrangle(ez, ex, -ez, -ex)) == 2.0 * math.pi
        ey = np.eye(3)[1]
        got = solid_angle_quadrangle(ez, ex, -ez, ey)
        assert same_bits(got, ref_solid_angle(ez, ex, -ez, ey))
        assert ang_dist(got, exact_solid_angle(ez, ex, -ez, ey), 4 * math.pi) <= 4 * U


# --- the kernel's products --------------------------------------------------

def exact_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def exact_projection(a, b):
    w = [x + y for x, y in zip(a, b)]
    return exact_dot(w, w) / 2


def exact_spinor(v):
    """:func:`ref_spinor` of a vector of rationals, exact."""
    x, y, z = v
    return (1 + z, 0, x, y) if z >= 0 else (x, -y, 1 - z, 0)


def exact_overlap(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3, a0 * b1 - a1 * b0 + a2 * b3 - a3 * b2


class TestKernelProducts:
    @KERNEL_SETTINGS
    @given(case=triangle_batches())
    def test_within_a_few_units_of_exact(self, case):
        # Each product of one kernel chain against its exact value from the
        # float inputs as rationals (u = 2**-53).  Each projection |a+b|^2/2 is
        # within 6 u of itself, relative, near antipodes too (its first-order
        # error is 5 u), up to 4 units of the smallest subnormal, where
        # squares underflow.  The half product <a|b><b|c> of the spinors is
        # within 12 u |a| |b|^2 |c| of the exact product of the exact spinors,
        # absolute: one rounding of 1 + z or 1 - z per spinor, and one per
        # product and sum.
        points, r, f = case
        half, ab, bc = _chain(_vertices(points.tolist()), _vertices([r.tolist()]),
                              _vertices([f.tolist()]), [(1.0, 0.0)])
        vr, vf = ([Fraction(v) for v in vec.tolist()] for vec in (r, f))
        unit, tiny = Fraction(1, 2**53), 4 * Fraction(1, 2**1074)
        sr, sf = exact_spinor(vr), exact_spinor(vf)
        for k, p in enumerate(points.tolist()):
            vi = [Fraction(v) for v in p]
            for got, (a, b) in ((ab[k], (vi, vr)), (bc[k], (vr, vf))):
                want = exact_projection(a, b)
                assert abs(Fraction(got) - want) <= 6 * unit * want + tiny
            if half[k] is None:
                assert min(ab[k], bc[k]) <= 2.0 * DEFAULT_TOL.zero**2
                continue
            si = exact_spinor(vi)
            (p_re, p_im), (q_re, q_im) = exact_overlap(si, sr), exact_overlap(sr, sf)
            size = math.sqrt(float(exact_dot(si, si) * exact_dot(sr, sr) ** 2 * exact_dot(sf, sf)))
            for got, want in zip(half[k], (p_re * q_re - p_im * q_im, p_re * q_im + p_im * q_re)):
                assert abs(Fraction(got) - want) <= 12 * unit * Fraction(size) + tiny

    def test_factors_make_no_blas_dot(self, monkeypatch):
        # From the input state to the value every sum runs in Python floats,
        # so no BLAS build (whose dot may fuse a*b + c) can move a value's
        # bits: the factor kernel, the qubit routes, the N-level routes,
        # majorana_points and symmetrize all run with np.vdot refused.
        def refuse(*_):
            raise AssertionError("np.vdot called")

        assert not hasattr(bloch, "_rowdot")
        monkeypatch.setattr(np, "vdot", refuse)
        rng = np.random.default_rng(3)
        vi, vs = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in rng.normal(size=(2, 4, 3)))
        r, f = np.eye(3)[2], np.eye(3)[0]
        for rows in (vi, vi[0]):
            assert len(_weak_factors(rows, r, f)[0]) == len(np.atleast_2d(rows))
        assert len(_modular_factors(vi, r, vs, f)[1]) == 4

        def state(n):
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            return v / np.linalg.norm(v)

        qi, qr, qf = (state(2) for _ in range(3))
        spec = QubitModularSpec(axis=qubit_to_bloch(qr), alpha=0.7, beta=0.2)
        values = [projector_weak_value_direct(qi, qr, qf),
                  projector_weak_value_geometric(*map(qubit_to_bloch, (qi, qr, qf)))[0],
                  qubit_modular_value_direct(qi, spec, qf),
                  modular_value_geometric(qubit_to_bloch(qi), spec, qubit_to_bloch(qf))[0]]
        for n in range(2, majorana.MAX_LEVELS + 1):
            psi_i, psi_r, psi_f = (state(n) for _ in range(3))
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            nspec = majgeom.NLevelModularSpec(observable=h + h.conj().T, alpha=0.9, beta=0.3)
            values += [majgeom.weak_value_direct(psi_i, np.outer(psi_r, psi_r.conj()), psi_f),
                       majgeom.qutrit_projector_weak_value_geometric(psi_i, psi_r, psi_f)[0],
                       majgeom.modular_value_direct(psi_i, nspec, psi_f),
                       majgeom.qutrit_modular_value_geometric(psi_i, nspec, psi_f)[0]]
            points = majgeom.majorana_points(psi_i).points
            assert majgeom.symmetrize(points)[0].shape == (n,)
        assert all(math.isfinite(v.modulus) for v in values)


# --- column forms ------------------------------------------------------------

# Components with signed zeros, and rows scaled near 1e-150 and 1e150 where
# the squares of a norm neither overflow nor vanish.
component = st.one_of(st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3), st.sampled_from([0.0, -0.0]))
row_scale = st.sampled_from([1.0, 1e-150, 3e-150, 1e150, 3e150])


@st.composite
def real_rows(draw, width=3, max_rows=6):
    """``(n, width)`` float rows, n = 0..max_rows, none all zero, each
    scaled by a draw of ``row_scale``."""
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        scale = draw(row_scale)
        row = [draw(component) * scale for _ in range(width)]
        rows.append(row if any(row) else [scale] + row[1:])
    return np.array(rows, dtype=float).reshape(len(rows), width)


@st.composite
def complex_rows(draw):
    n_levels = draw(st.integers(2, majorana.MAX_LEVELS))
    re, im = draw(real_rows(n_levels)), draw(real_rows(n_levels))
    c = np.empty((min(len(re), len(im)), n_levels), dtype=complex)
    c.real, c.imag = re[:len(c)], im[:len(c)]  # keeps the parts' zero signs
    return c


class TestColumnForms:
    """Each batch function forms its row's scalar expression on numpy real
    columns, bit for bit, zero signs included; ``as_bloch_array`` against
    ``as_bloch`` is pinned in ``TestAsBlochArray``.  The qubit map, which
    has no batch form, is pinned to its Python-float row here."""

    @KERNEL_SETTINGS
    @given(points=st.lists(unit_vectors(), min_size=0, max_size=7))
    def test_qubits(self, points):
        for p in points:
            assert same_bits(bloch_to_qubit(p), np.array(bloch._qubit(*as_bloch(p).tolist())))

    @KERNEL_SETTINGS
    @given(c=complex_rows())
    def test_state_rows_and_overlaps(self, c):
        units = experiments._unit_rows(c)
        bra = (c[0] if len(c) else np.ones(c.shape[1])).tolist()
        inner = experiments._column_inner(bra, c)
        assert units.shape == c.shape and inner.shape == (len(c),)
        for row, unit, value in zip(c.tolist(), units, inner):
            norm = numerics._norm(row)
            assert same_bits(unit, np.array(numerics._divided(row, norm)))
            assert same_bits(value, np.complex128(numerics._inner(bra, row)))


# --- moduli ------------------------------------------------------------------

def row_weak_moduli(i, r, f) -> list[float]:
    """The row kernel's weak moduli of the triangles (i, r, f)."""
    return _weak_columns(i, r, f)[0]


def row_modular_moduli(i, s, f) -> list[float]:
    """The row kernel's modular moduli ``sqrt(|f+s|^2 / |f+i|^2)``, read off
    the quadrangles (i, f, s, f) as the modular factors read them."""
    _, (_, _, fs, fi) = _polygons(i, f, s, f)
    return _moduli(fs, fi)


class TestModuli:
    @KERNEL_SETTINGS
    @given(case=triangle_batches(), s=batches())
    def test_match_reference(self, case, s):
        points, r, f = case
        vi = as_bloch_array(points)
        weak = row_weak_moduli(vi, r, f)
        assert same_bits(weak, np.array([ref_weak_modulus(p, r, f) for p in vi]))
        vs = as_bloch_array(s)[: vi.shape[0]]
        vi = vi[: vs.shape[0]]
        modular = row_modular_moduli(vi, vs, f)
        assert same_bits(modular, np.array([ref_modular_modulus(p, q, f)
                                            for p, q in zip(vi, vs)]))

    def test_antipodal_rows_are_nan(self):
        f = np.array([0.0, 0.0, 1.0])
        points = np.array([[1.0, 0.0, 0.0], -f])
        weak = row_weak_moduli(points, np.array([0.0, 1.0, 0.0]), f)
        assert not math.isnan(weak[0]) and math.isnan(weak[1])
        assert math.isnan(row_modular_moduli(points, points, f)[1])

    def test_single_vectors_give_a_scalar(self):
        # One vector per vertex is one row; the qubit route's one factor
        # carries its modulus.
        ez, ex = np.eye(3)[2], np.eye(3)[0]
        (modulus,) = row_weak_moduli(ez, ex, ez)
        assert same_bits(modulus, ref_weak_modulus(ez, ex, ez))
        (factor,) = projector_weak_value_geometric(ez, ex, ez)[1].factors
        assert same_bits(factor.modulus_ratio, modulus)


# --- factored values ---------------------------------------------------------

def ref_factors(moduli, angle_fns):
    """Reference factor moduli and angles under the value rules: a NaN
    modulus raises OrthogonalSelection before any angle is formed; a factor
    whose angle is undefined and whose modulus is at most DEFAULT_TOL.zero
    is an exact zero, modulus and angle 0.0, and then every other undefined
    angle is 0.0; without an exact zero, an undefined angle raises."""
    if any(math.isnan(m) for m in moduli):
        raise OrthogonalSelection("reference")
    angles = []
    for angle in angle_fns:
        try:
            angles.append(angle())
        except UndefinedSolidAngle:
            angles.append(None)
    zeros = [a is None and m <= DEFAULT_TOL.zero for m, a in zip(moduli, angles)]
    if None in angles and not any(zeros):
        raise UndefinedSolidAngle("reference")
    return ([0.0 if z else m for m, z in zip(moduli, zeros)],
            [0.0 if a is None else a for a in angles])


def ref_weak_factors(vi, vr, vf):
    """Of unit rows ``vi`` and unit ``vr``, ``vf``."""
    return ref_factors([ref_weak_modulus(p, vr, vf) for p in vi],
                       [lambda p=p: ref_unit_solid_angle(p, vr, vf) for p in vi])


def ref_modular_factors(vi, vs, vr, vf):
    """Of unit rows ``vi`` and ``vs``, taken row by row, and unit ``vr``, ``vf``."""
    return ref_factors(
        [ref_modular_modulus(p, q, vf) for p, q in zip(vi, vs)],
        [lambda p=p, q=q: ref_unit_solid_angle(p, vr, q, vf) for p, q in zip(vi, vs)])


def units(rows):
    return [ref_as_bloch(p) for p in rows]


def factor_lists(breakdown):
    return ([g.modulus_ratio for g in breakdown.factors],
            [g.solid_angle for g in breakdown.factors])


def same_outcome(expected, actual):
    """Run both thunks: the same error type, or factor lists equal bit for bit."""
    try:
        want = expected()
    except (OrthogonalSelection, UndefinedSolidAngle) as exc:
        with pytest.raises(type(exc)):
            actual()
        return
    got = actual()
    assert same_bits(np.array(got[0]), np.array(want[0]))
    assert same_bits(np.array(got[1]), np.array(want[1]))


@st.composite
def modular_batches(draw):
    """A triangle batch plus m evolved points, some exactly or nearly antipodal to f."""
    points, r, f = draw(triangle_batches())
    s = draw(st.lists(unit_vectors(), min_size=len(points), max_size=len(points)).map(np.array))
    for k in range(len(s)):
        if draw(st.integers(0, 5)) == 0:
            v = -f + draw(st.sampled_from([0.0, 1e-9]))
            s[k] = v / np.linalg.norm(v)
    return points, s, r, f


@st.composite
def reordered(draw, sets):
    """A ``(points, s, r, f)`` case from ``sets`` with s's rows in a drawn
    order; with one chance in four, every initial point is the first one."""
    points, s, r, f = draw(sets)
    if draw(st.integers(0, 3)) == 0:
        points = np.repeat(points[:1], len(points), axis=0)
    order = draw(st.permutations(range(len(s))))
    return points, s[list(order)], r, f


@st.composite
def spin_rotations(draw):
    """Initial points, each rotated rigidly about r by +-pi into s, and f."""
    points, r, f = draw(triangle_batches())
    alpha = draw(st.sampled_from([math.pi, -math.pi]))
    return points, np.array([rodrigues_rotate(p, r, alpha) for p in points]), r, f


@st.composite
def row_order_antipodes(draw):
    """Two to seven initial points, r, f and evolved rows that, in the order
    given, put some s_k exactly on -i_k or within a drawn distance of it."""
    points = draw(st.lists(unit_vectors(), min_size=2, max_size=7).map(np.array))
    s = draw(st.lists(unit_vectors(), min_size=len(points), max_size=len(points)).map(np.array))
    r, f = draw(unit_vectors()), draw(unit_vectors())
    for k in range(len(s)):
        if draw(st.booleans()):
            offset = draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-4, 0.03, 0.1]))
            v = -points[k] + offset * draw(unit_vectors())
            s[k] = v / np.linalg.norm(v)
    return points, s, r, f


def angle_rounding(points, s, r, f) -> float:
    """A bound on the rounding of the value's argument with s's rows taken in
    the order given: half the sum of each quadrangle's
    :func:`angle_error_bound`.  The kernel splits no quadrangle, so the
    bound reads only adjacent vertices; it is infinite at an antipode of
    adjacent corners."""
    return 0.5 * sum(angle_error_bound(p, r, q, f) for p, q in zip(points, s))


def same_value_any_order(points, s, r, f):
    """The modular value of s's rows as given against the value of the same
    rows paired to ``points``: the same refusal, or the same modulus to
    1e-12 max(1, |A|) and the same argument (mod 2 pi) to that plus |A| times
    both orders' :func:`angle_rounding`.  A paired order that is refused may
    be answered in another order; where the paired order is answered, the
    order given is answered too."""
    def value(rows):
        return factored_modular_value(points, rows, r, f, alpha=0.4, beta=0.2,
                                      eigenvalue=1.0)[0]

    paired = pair_points(points, s)
    try:
        want = value(paired)
    except OrthogonalSelection:
        with pytest.raises(OrthogonalSelection):
            value(s)
        return
    except UndefinedSolidAngle:
        return
    got = value(s)
    tol = 1e-12 * max(1.0, want.modulus)
    assert abs(got.modulus - want.modulus) <= tol
    if want.modulus:
        rounding = angle_rounding(points, s, r, f) + angle_rounding(points, paired, r, f)
        assert want.modulus * ang_dist(got.argument, want.argument) <= (
            tol + want.modulus * min(rounding, math.pi))
    else:
        assert got.modulus == 0.0


class TestUnpairedValue:
    """``factored_modular_value`` computes the value on s's rows in the order
    given: the modulus product and the summed solid angle (mod 4 pi) do not
    depend on the pairing, so any order gives the paired rows' value to
    rounding.  The argument's rounding grows only where adjacent vertices of
    a quadrangle near an antipode: an s_k that the given order puts near
    -i_k is a diagonal, which the cyclic product never forms."""

    @KERNEL_SETTINGS
    @given(case=reordered(modular_batches()))
    def test_any_row_order(self, case):
        same_value_any_order(*case)

    @KERNEL_SETTINGS
    @given(case=reordered(spin_rotations()))
    def test_spin_rotation_by_pi(self, case):
        same_value_any_order(*case)

    @KERNEL_SETTINGS
    @given(case=row_order_antipodes())
    def test_row_order_near_antipode(self, case):
        same_value_any_order(*case)


class TestFactoredValues:
    """``factored_weak_value`` and ``factored_modular_value`` (with the qubit
    routes as their one-point case) against the one-vector references."""

    @KERNEL_SETTINGS
    @given(case=triangle_batches())
    def test_weak_factors_match_reference(self, case):
        points, r, f = case
        vr, vf = ref_as_bloch(r), ref_as_bloch(f)
        same_outcome(lambda: ref_weak_factors(units(points), vr, vf),
                     lambda: factor_lists(factored_weak_value(points, r, f)[1]))
        same_outcome(lambda: ref_weak_factors(units(points[:1]), vr, vf),
                     lambda: factor_lists(projector_weak_value_geometric(points[0], r, f)[1]))

    @KERNEL_SETTINGS
    @given(case=modular_batches())
    def test_modular_factors_match_reference(self, case):
        points, s, r, f = case
        vi, vs = units(points), units(pair_points(points, s))
        vr, vf = ref_as_bloch(r), ref_as_bloch(f)
        same_outcome(lambda: ref_modular_factors(vi, vs, vr, vf),
                     lambda: factor_lists(factored_modular_value(
                         points, s, r, f, alpha=0.4, beta=0.2, eigenvalue=1.0)[1]))
        # The one-point case: the qubit route rotates i about r into s.
        alpha = float(np.arctan2(s[0, 1], s[0, 0]))
        evolved = rodrigues_rotate(points[0], r, alpha)
        same_outcome(lambda: ref_modular_factors(vi[:1], [evolved], vr, vf),
                     lambda: factor_lists(modular_value_geometric(
                         points[0], QubitModularSpec(r, alpha=alpha), f)[1]))

    def test_zero_modulus_factor_gets_positive_zero_angle(self):
        ez, ex = np.eye(3)[2], np.eye(3)[0]
        points = np.array([[0.6, 0.0, 0.8], [0.0, 0.6, -0.8]])
        value, breakdown = factored_weak_value(points, -ez, ez)  # r antipodal to f
        assert (value.modulus, value.argument) == (0.0, 0.0)
        for factor in breakdown.factors:
            assert factor.modulus_ratio == 0.0
            assert math.copysign(1.0, factor.solid_angle) == 1.0
        value, breakdown = factored_modular_value(
            points, np.array([-ex, [0.0, 1.0, 0.0]]), ez, ex, alpha=0.3, beta=0.0,
            eigenvalue=1.0)
        zero = [g for g in breakdown.factors if g.modulus_ratio == 0.0]
        assert len(zero) == 1 and same_bits(zero[0].solid_angle, 0.0)
        assert (value.modulus, value.argument) == (0.0, 0.0)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_orthogonal_selection_before_undefined_angle(self, order):
        ez, ex, ey = np.eye(3)[2], np.eye(3)[0], np.eye(3)[1]
        # Row -ex is antipodal to f; row -ez makes the (i, r, s) triangle
        # undefined while its modulus stays finite and non-zero.
        rows = np.array([-ex, -ez])[list(order)]
        s = np.array([ey, [0.6, 0.8, 0.0]])
        with pytest.raises(OrthogonalSelection):
            factored_modular_value(rows, s, ez, ex, alpha=0.3, beta=0.0, eigenvalue=1.0)
        with pytest.raises(UndefinedSolidAngle):
            factored_modular_value(np.array([ey, -ez]), s, ez, ex, alpha=0.3, beta=0.0,
                                   eigenvalue=1.0)
        # One row both antipodal to f and with an undefined triangle.
        with pytest.raises(OrthogonalSelection):
            factored_weak_value(np.array([ey, -ex])[list(order)], ez, ex)

    def test_negative_zero_angles_kept(self):
        ez, ex = np.eye(3)[2], np.eye(3)[0]
        _, breakdown = factored_weak_value(np.array([ez, ex]), ez, ex)
        moduli, angles = factor_lists(breakdown)
        assert same_bits(np.array(angles), np.array([ref_solid_angle(ez, ez, ex),
                                                      ref_solid_angle(ex, ez, ex)]))
        assert [math.copysign(1.0, a) for a in angles] == [-1.0, -1.0]
        assert same_bits(np.array(moduli), np.array([ref_weak_modulus(ez, ez, ex),
                                                      ref_weak_modulus(ex, ez, ex)]))


# --- near-degenerate classes -------------------------------------------------

offsets = st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
tilts = st.sampled_from([1e-6, 1e-7, 1e-8, 1e-9])


@st.composite
def near(draw, point, offset):
    """A unit vector about ``offset`` from the unit vector ``point``."""
    v = np.asarray(point, dtype=float) + offset * draw(unit_vectors())
    return v / np.linalg.norm(v)


@st.composite
def near_degenerate(draw):
    """A quadrangle (i, r, s, f), or a triangle (i, r, f), of one of the
    classes where splitting it along a diagonal rounds badly or not at all:
    s_k near -i_k; both diagonals near antipodes; i, r and f nearly equal
    with s at their antipode; an adjacent near-antipode (r near -i); f near
    -i; a half turn of i about an axis off perpendicular to it with f near
    either end of the axis; the weak triangle with f near i and r near their
    antipode."""
    kind = draw(st.sampled_from(["s_antipode", "both_diagonals", "three_equal", "adjacent",
                                 "final_antipode", "half_turn", "weak_equal"]))
    i, r, s, f = (draw(unit_vectors()) for _ in range(4))
    d = draw(offsets)
    if kind == "s_antipode":
        s = draw(near(-i, d))
    elif kind == "both_diagonals":
        s, f = draw(near(-i, d)), draw(near(-r, d))
    elif kind == "three_equal":
        r, f, s = draw(near(i, d)), draw(near(i, d)), draw(near(-i, d))
    elif kind == "adjacent":
        r = draw(near(-i, d))
    elif kind == "final_antipode":
        f = draw(near(-i, d))
    elif kind == "half_turn":
        r = tilted_axis(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), i, draw(tilts))
        s = rodrigues_rotate(i, r, math.pi)
        f = draw(near(draw(st.sampled_from([-1.0, 1.0])) * r, d))
    else:
        return i, draw(near(-i, d)), draw(near(i, d))
    return i, r, s, f


class TestNearDegenerateClasses:
    """The kernel against the 50-digit angle of its float points on every
    class where a diagonal split of the polygon rounds like u over a
    diagonal, or has no area: within ``C_ANGLE u / min |<a|b>|`` of the
    adjacent vertices, and bit for bit the reference cyclic product.  Where
    the value is well conditioned (a half turn, at N = 2 to 8, with f near
    either end of the axis), both geometric routes meet the direct route to
    1e-12 max(1, |A|)."""

    @KERNEL_SETTINGS
    @given(corners=near_degenerate())
    def test_angle_within_bound_of_exact(self, corners):
        (got,) = row_angles(*corners)
        assert same_angles([got], [ref_angle_or_none(*corners)])
        if got is None:  # only where adjacent vertices are within zero of antipodes
            assert smallest_overlap(*corners) <= DEFAULT_TOL.zero * (1.0 + 1e-12)
            return
        assert -2.0 * math.pi < got <= 2.0 * math.pi
        assert ang_dist(got, exact_solid_angle(*corners), 4 * math.pi) <= (
            angle_error_bound(*corners))

    @pytest.mark.parametrize("n", range(2, majorana.MAX_LEVELS + 1))
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(tilt=tilts, offset=st.sampled_from([0.0, 1e-10, 1e-8, 1e-6, 1e-4]),
           sign=st.sampled_from([-1.0, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_half_turn_routes_match_direct(self, n, tilt, offset, sign, seed):
        # s_0 within 2 tilt of -i_0 and f within offset of -r or r: with
        # f near -r both diagonals of the first quadrangle near antipodes.
        rng = np.random.default_rng(seed)
        psi_i = random_state(rng, n)
        i_pts = majgeom.majorana_points(psi_i).points
        r = tilted_axis(rng, i_pts[0], tilt)
        v = sign * r + offset * rng.normal(size=3)
        f = v / np.linalg.norm(v)
        s_pts = np.array([rodrigues_rotate(p, r, math.pi) for p in i_pts])
        spec = NLevelModularSpec(spin_component(n - 1, r) / ((n - 1) / 2.0), alpha=math.pi)
        psi_f = eig_hermitian(spin_component(n - 1, f))[1][:, -1]
        want = modular_value_direct(psi_i, spec, psi_f)
        values = [factored_modular_value(i_pts, s_pts, r, f, alpha=math.pi, beta=0.0,
                                         eigenvalue=1.0)[0],
                  qutrit_modular_value_geometric(psi_i, spec, psi_f)[0]]
        if n == 2:
            qspec = QubitModularSpec(r, alpha=math.pi)
            want_qubit = qubit_modular_value_direct(bloch_to_qubit(i_pts[0]), qspec,
                                                    bloch_to_qubit(f))
            got_qubit = modular_value_geometric(i_pts[0], qspec, f)[0]
            assert abs(got_qubit.rect - want_qubit.rect) <= 1e-12 * max(1.0, want_qubit.modulus)
        for value in values:
            assert abs(value.rect - want.rect) <= 1e-12 * max(1.0, want.modulus)
