"""The per-row Bloch kernel, its scalar wrappers and the batch check against
the reference formulas.

The reference functions below restate the scalar formulas one vector at a
time (``math.atan2``, and every norm, cross and scalar product in Python
floats, ``(a0 b0 + a1 b1) + a2 b2``, with each ``1 + a.b`` of unit vectors
read as the projection ``|a+b|^2/2``).
Every kernel must reproduce them bit for bit, zero signs included, for any
number of rows and whichever vertex the rows fill.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import majgeom
from majgeom import bloch, experiments, majorana, numerics
from majgeom.bloch import (
    _defined,
    _modular_factors,
    _moduli,
    _triangle_dots,
    _triangles,
    _weak_factors,
    _weak_modulus_rows,
    as_bloch,
    as_bloch_array,
    bloch_to_qubit,
    qubit_to_bloch,
    rodrigues_rotate,
    solid_angle_quadrangle,
    solid_angle_triangle,
)
from majgeom.errors import OrthogonalSelection, UndefinedSolidAngle
from majgeom.nlevel_values import factored_modular_value, factored_weak_value, pair_points
from majgeom.numerics import DEFAULT_TOL
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


def ref_solid_angle(i, r, f):
    return ref_unit_solid_angle(ref_as_bloch(i), ref_as_bloch(r), ref_as_bloch(f))


def ref_dot(a, b):
    a0, a1, a2 = map(float, a)
    b0, b1, b2 = map(float, b)
    return (a0 * b0 + a1 * b1) + a2 * b2


def ref_cross(a, b):
    a0, a1, a2 = map(float, a)
    b0, b1, b2 = map(float, b)
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def ref_sum(a, b):
    return [float(x) + float(y) for x, y in zip(a, b)]


def ref_projection(a, b):
    """``1 + a.b`` of unit vectors, as ``|a+b|^2/2``."""
    w = ref_sum(a, b)
    return 0.5 * ref_dot(w, w)


def ref_unit_solid_angle(vi, vr, vf):
    y = ref_dot(vf, ref_cross(vr, vi))
    x = ref_projection(vf, vi) + ref_dot(vr, ref_sum(vf, vi))
    if abs(x) <= DEFAULT_TOL.zero and abs(y) <= DEFAULT_TOL.zero:
        raise UndefinedSolidAngle("reference")
    omega = -2.0 * math.atan2(y, x)
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


def row_angles(i, r, f) -> list[float | None]:
    """The row kernel's triangle solid angles of vertices (rows, or one
    vector each) checked by ``as_bloch_array``; ``None`` where undefined."""
    return _triangles(*_triangle_dots(*map(as_bloch_array, (i, r, f)))[:2])


def ref_angle_or_none(i, r, f):
    try:
        return ref_solid_angle(i, r, f)
    except UndefinedSolidAngle:
        return None


def same_angles(got, want) -> bool:
    """Row angles equal bit for bit, ``None`` in the same rows."""
    return ([a is None for a in got] == [a is None for a in want]
            and all(same_bits(a, b) for a, b in zip(got, want) if a is not None))


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
    the factored values), ``_triangles`` of ``_triangle_dots``."""

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
        rng = np.random.default_rng(12)
        for _ in range(300):
            i, r, s, f = (v / np.linalg.norm(v) for v in rng.normal(size=(4, 3)))
            expected = ref_solid_angle(i, r, s) + ref_solid_angle(i, s, f)
            assert same_bits(solid_angle_quadrangle(i, r, s, f), expected)

    @pytest.mark.parametrize("i, r, s, f", [
        ((0, 0, 1), (1, 0, 0), (0, 0, -1), (0, 1, 0)),  # (i, r, s) undefined
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)),  # (i, s, f) undefined
    ])
    def test_undefined_triangle_raises(self, i, r, s, f):
        with pytest.raises(UndefinedSolidAngle):
            solid_angle_quadrangle(i, r, s, f)


# --- the kernel's products --------------------------------------------------

def exact_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def exact_projection(a, b):
    w = [x + y for x, y in zip(a, b)]
    return exact_dot(w, w) / 2


class TestKernelProducts:
    @KERNEL_SETTINGS
    @given(case=triangle_batches())
    def test_within_a_few_units_of_exact(self, case):
        # Each kernel output against its exact value from the float inputs as
        # rationals (u = 2**-53).  The triple product y is at most 4 u off.
        # Each projection |a+b|^2/2 is within 6 u of itself, relative, near
        # antipodes too (its first-order error is 5 u), and x = |f+i|^2/2 +
        # r.(f+i) within 8 u of |f+i|^2/2 + sum_k |r_k (f_k+i_k)|; both up to
        # 4 units of the smallest subnormal, where squares underflow.
        points, r, f = case
        y, x, fr, ri, fi = _triangle_dots(points, r, f)
        vr, vf = ([Fraction(v) for v in vec.tolist()] for vec in (r, f))
        unit, tiny = Fraction(1, 2**53), 4 * Fraction(1, 2**1074)
        for k, p in enumerate(points.tolist()):
            vi = [Fraction(v) for v in p]
            cross = [vr[1] * vi[2] - vr[2] * vi[1], vr[2] * vi[0] - vr[0] * vi[2],
                     vr[0] * vi[1] - vr[1] * vi[0]]
            assert abs(Fraction(y[k]) - exact_dot(vf, cross)) <= 4 * unit
            for got, (a, b) in ((fr[k], (vf, vr)), (ri[k], (vr, vi)), (fi[k], (vf, vi))):
                want = exact_projection(a, b)
                assert abs(Fraction(got) - want) <= 6 * unit * want + tiny
            terms = [rk * (fk + ik) for rk, fk, ik in zip(vr, vf, vi)]
            want = exact_projection(vf, vi)
            assert abs(Fraction(x[k]) - (want + sum(terms))) <= (
                8 * unit * (want + sum(map(abs, terms))) + tiny)

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
    return _weak_modulus_rows(*_triangle_dots(i, r, f)[2:])


def row_modular_moduli(i, s, f) -> list[float]:
    """The row kernel's modular moduli ``sqrt(|f+s|^2 / |f+i|^2)``, read off
    the triangles (i, s, f) as the modular factors read them."""
    _, _, fs, _, fi = _triangle_dots(i, s, f)
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
    is an exact zero, modulus and angle 0.0; any other undefined angle raises."""
    if any(math.isnan(m) for m in moduli):
        raise OrthogonalSelection("reference")
    factors = []
    for m, angle in zip(moduli, angle_fns):
        try:
            factors.append((m, angle()))
        except UndefinedSolidAngle:
            if m > DEFAULT_TOL.zero:
                raise
            factors.append((0.0, 0.0))
    return [m for m, _ in factors], [a for _, a in factors]


def ref_weak_factors(vi, vr, vf):
    """Of unit rows ``vi`` and unit ``vr``, ``vf``."""
    return ref_factors([ref_weak_modulus(p, vr, vf) for p in vi],
                       [lambda p=p: ref_unit_solid_angle(p, vr, vf) for p in vi])


def ref_modular_factors(vi, vs, vr, vf):
    """Of unit rows ``vi`` and ``vs``, paired row by row, and unit ``vr``, ``vf``."""
    return ref_factors(
        [ref_modular_modulus(p, q, vf) for p, q in zip(vi, vs)],
        [lambda p=p, q=q: ref_unit_solid_angle(p, vr, q) + ref_unit_solid_angle(p, q, vf)
         for p, q in zip(vi, vs)])


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
