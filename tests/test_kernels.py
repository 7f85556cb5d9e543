"""Batched Bloch kernels against their scalar wrappers and the reference formulas.

The reference functions below restate the scalar formulas one vector at a
time (``np.linalg.norm``, ``np.cross``, ``float(a @ b)``, ``math.atan2``,
Python complex division).  Every kernel must reproduce them bit for bit,
zero signs included, for any batch size and broadcast pattern.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from majgeom.bloch import (
    as_bloch,
    as_bloch_array,
    bloch_to_qubit,
    bloch_to_qubits,
    modular_moduli,
    solid_angle_triangle,
    triangle_solid_angles,
    weak_moduli,
)
from majgeom.errors import UndefinedSolidAngle
from majgeom.numerics import DEFAULT_TOL

KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                           suppress_health_check=[HealthCheck.too_slow])
THRESHOLD = 2.0 * DEFAULT_TOL.orthogonality**2


# --- reference formulas, one vector at a time --------------------------------

def ref_as_bloch(vec):
    v = np.asarray(vec, dtype=float)
    return v / float(np.linalg.norm(v))


def ref_bloch_to_qubit(vec):
    v = ref_as_bloch(vec)
    a0 = math.sqrt(max(0.0, 0.5 * (1.0 + v[2])))
    if a0 < 1e-150:
        return np.array([0.0 + 0.0j, 1.0 + 0.0j])
    q = np.array([a0 + 0.0j, complex(v[0], v[1]) / (2.0 * a0)])
    return q / np.linalg.norm(q)


def ref_solid_angle(i, r, f):
    vi, vr, vf = ref_as_bloch(i), ref_as_bloch(r), ref_as_bloch(f)
    y = float(vf @ np.cross(vr, vi))
    x = 1.0 + float(vf @ vr) + float(vr @ vi) + float(vf @ vi)
    if abs(x) <= DEFAULT_TOL.zero and abs(y) <= DEFAULT_TOL.zero:
        raise UndefinedSolidAngle("reference")
    omega = -2.0 * math.atan2(y, x)
    return omega + 4.0 * math.pi if omega <= -2.0 * math.pi else omega


def ref_weak_modulus(vi, vr, vf):
    den = 1.0 + float(vf @ vi)
    if den <= THRESHOLD:
        return math.nan
    return math.sqrt(max(0.0, 0.5 * (1.0 + vf @ vr) * (1.0 + vr @ vi) / den))


def ref_modular_modulus(vi, vs, vf):
    den = 1.0 + float(vf @ vi)
    if den <= THRESHOLD:
        return math.nan
    return math.sqrt(max(0.0, (1.0 + vf @ vs) / den))


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


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
    @pytest.mark.filterwarnings("ignore:overflow encountered")
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
        batch = bloch_to_qubits(points)
        assert batch.shape == (points.shape[0], 2)
        for row, p in zip(batch, points):
            assert same_bits(row, bloch_to_qubit(p))
            assert same_bits(row, ref_bloch_to_qubit(p))

    def test_south_pole_rows(self):
        points = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [1e-9, -1e-9, -1.0]])
        q = bloch_to_qubits(points / np.linalg.norm(points, axis=1, keepdims=True))
        assert same_bits(q[0], np.array([0j, 1 + 0j]))
        assert same_bits(q[2], np.array([0j, 1 + 0j]))
        assert same_bits(q[1], np.array([1 + 0j, 0j]))

    def test_one_bad_row_raises_like_scalar(self):
        with pytest.raises(ValueError, match="deviates"):
            bloch_to_qubits([[0.0, 0.0, 1.0], [0.0, 0.0, 1.1]])
        with pytest.raises(ValueError, match="three components"):
            bloch_to_qubit([[0.0, 0.0, 1.0]])


# --- solid angles ------------------------------------------------------------

class TestTriangleSolidAngles:
    @KERNEL_SETTINGS
    @given(case=triangle_batches())
    def test_batch_matches_scalar_and_reference(self, case):
        points, r, f = case
        expected = []
        for p in points:
            try:
                ref = ref_solid_angle(p, r, f)
            except UndefinedSolidAngle:
                with pytest.raises(UndefinedSolidAngle):
                    triangle_solid_angles(points, r, f)
                return
            assert same_bits(solid_angle_triangle(p, r, f), ref)
            expected.append(ref)
        assert same_bits(triangle_solid_angles(points, r, f), np.array(expected))

    @KERNEL_SETTINGS
    @given(points=batches(), r=unit_vectors(), f=unit_vectors(),
           slot=st.integers(0, 2))
    def test_broadcast_in_every_slot(self, points, r, f, slot):
        args = [r, f]
        args.insert(slot, points)
        singles = [[p if k == slot else a for k, a in enumerate(args)] for p in points]
        try:
            expected = [ref_solid_angle(*triple) for triple in singles]
        except UndefinedSolidAngle:
            with pytest.raises(UndefinedSolidAngle):
                triangle_solid_angles(*args)
            return
        assert same_bits(triangle_solid_angles(*args), np.array(expected))

    def test_single_triangle_is_zero_dimensional(self):
        ez, ex, ey = np.eye(3)[2], np.eye(3)[0], np.eye(3)[1]
        out = triangle_solid_angles(ez, ex, ey)
        assert out.shape == ()
        assert same_bits(out, ref_solid_angle(ez, ex, ey))

    def test_keeps_negative_zero(self):
        ez, ex = np.eye(3)[2], np.eye(3)[0]
        out = triangle_solid_angles(np.array([ez, ex]), ez, ex)
        assert same_bits(out, np.array([ref_solid_angle(ez, ez, ex),
                                        ref_solid_angle(ex, ez, ex)]))
        assert math.copysign(1.0, out[0]) == -1.0

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
            triangle_solid_angles(points, r, f)
        assert str(batch.value) == str(scalar.value)

    def test_validates_each_vertex_batch(self):
        with pytest.raises(ValueError, match="deviates"):
            triangle_solid_angles([[0.0, 0.0, 1.0], [0.0, 0.5, 0.5]],
                                  [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


# --- moduli ------------------------------------------------------------------

class TestModuli:
    @KERNEL_SETTINGS
    @given(case=triangle_batches(), s=batches())
    def test_match_reference(self, case, s):
        points, r, f = case
        vi = as_bloch_array(points)
        weak = weak_moduli(vi, r, f)
        assert same_bits(weak, np.array([ref_weak_modulus(p, r, f) for p in vi]))
        vs = as_bloch_array(s)[: vi.shape[0]]
        vi = vi[: vs.shape[0]]
        modular = modular_moduli(vi, vs, f)
        assert same_bits(modular, np.array([ref_modular_modulus(p, q, f)
                                            for p, q in zip(vi, vs)]))

    def test_antipodal_rows_are_nan(self):
        f = np.array([0.0, 0.0, 1.0])
        points = np.array([[1.0, 0.0, 0.0], -f])
        weak = weak_moduli(points, np.array([0.0, 1.0, 0.0]), f)
        assert not math.isnan(weak[0]) and math.isnan(weak[1])
        assert math.isnan(modular_moduli(points, points, f)[1])

    def test_single_vectors_give_a_scalar(self):
        ez, ex = np.eye(3)[2], np.eye(3)[0]
        assert same_bits(weak_moduli(ez, ex, ez), ref_weak_modulus(ez, ex, ez))
