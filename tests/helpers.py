"""Shared randomized-state generators, independent test oracles, and the
command that runs Python on this checkout's package in a fresh process."""

import cmath
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from majgeom.bloch import bloch_to_qubit

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args: str, text: bool = False) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with this checkout's ``src``
    first on ``PYTHONPATH``; stdout and stderr are captured."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=text,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def ang_dist(a: float, b: float, period: float = 2.0 * math.pi) -> float:
    """Shortest circular distance between two angles."""
    return abs(math.remainder(a - b, period))


def random_bloch(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def tilted_axis(rng, point: np.ndarray, tilt: float) -> np.ndarray:
    """A random unit axis ``tilt`` radians off perpendicular to the unit
    vector ``point``: a half turn about it takes ``point`` to within
    ``2 tilt`` of its antipode.  ``tools/bit_sweep.py`` takes its half-turn
    axes from here, so the random vector is normalized as that tool's own
    draws are, which keeps its lines' bits."""
    v = rng.normal(size=3)
    axis = np.cross(point, v / np.linalg.norm(v, axis=-1, keepdims=True))
    axis = math.cos(tilt) * axis / np.linalg.norm(axis) + math.sin(tilt) * point
    return axis / np.linalg.norm(axis)


def random_state(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def top_state(n: int) -> np.ndarray:
    """The basis state ``|N-1>``, whose N-1 stellar points sit at the north pole."""
    state = np.zeros(n, dtype=complex)
    state[n - 1] = 1.0
    return state


def random_qubit(rng) -> np.ndarray:
    return random_state(rng, 2)


def random_hermitian(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def random_unitary(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def spin_component(m: int, axis: np.ndarray) -> np.ndarray:
    """``axis . J`` for spin m/2 in majgeom's N-level basis, where ``|k>`` has
    k of its m stellar points at the north pole; the coherent state at
    ``axis`` is its eigenvector of eigenvalue m/2."""
    k = np.arange(m + 1, dtype=float)
    j_plus = np.diag(np.sqrt((m - k[:-1]) * (k[:-1] + 1.0)), -1).astype(complex)
    j_minus = j_plus.conj().T
    jz = np.diag(k - 0.5 * m).astype(complex)
    return (axis[0] * 0.5 * (j_plus + j_minus) - axis[1] * 0.5j * (j_plus - j_minus)
            + axis[2] * jz)


def random_spin1_operator(rng) -> np.ndarray:
    """Random traceless Hermitian 3x3 with spectrum exactly {-1, 0, +1}."""
    v = random_unitary(rng, 3)
    return v @ np.diag([1.0, 0.0, -1.0]).astype(complex) @ v.conj().T


def bloch_of(state: np.ndarray) -> np.ndarray:
    """Independent qubit -> Bloch map used as an oracle."""
    a0, a1 = state
    cross = np.conj(a0) * a1
    v = np.array([2 * cross.real, 2 * cross.imag, abs(a0) ** 2 - abs(a1) ** 2])
    return v / np.linalg.norm(v)


def bargmann_argument(qi: np.ndarray, qr: np.ndarray, qf: np.ndarray) -> float:
    """Argument of <i|f><f|r><r|i>, the gauge-invariant triple product."""
    triple = np.vdot(qi, qf) * np.vdot(qf, qr) * np.vdot(qr, qi)
    return cmath.phase(triple)


def qubit_weak_value_rect(qi, qr, qf) -> complex:
    """Direct rectangular projector weak value, written independently."""
    return complex(np.vdot(qf, qr) * np.vdot(qr, qi) / np.vdot(qf, qi))


def exact_weak_value(psi_i, psi_r, psi_f) -> complex:
    """``<f|r><r|i> / (<r|r><f|i>)`` evaluated exactly (``fractions.Fraction``)
    on the float inputs as given, then rounded once to a complex.  The value
    is scale-invariant, so unnormalized inputs need no renormalizing."""

    def exact(state):
        return [(Fraction(z.real), Fraction(z.imag)) for z in np.asarray(state, dtype=complex)]

    def vdot(a, b):
        return (sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(a, b)),
                sum(ar * bi - ai * br for (ar, ai), (br, bi) in zip(a, b)))

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    i, r, f = exact(psi_i), exact(psi_r), exact(psi_f)
    num = mul(vdot(f, r), vdot(r, i))
    den = mul(vdot(r, r), vdot(f, i))
    scale = den[0] ** 2 + den[1] ** 2
    re, im = mul(num, (den[0], -den[1]))
    return complex(float(re / scale), float(im / scale))


def exact_solid_angle(*vertices) -> float:
    """Oriented solid angle of the triangle or quadrangle through the Bloch
    vectors ``vertices`` (i -> r -> f or i -> r -> s -> f), to a few units in
    the last place of the given float points, sharing no branch with
    ``majgeom``'s kernel.

    Each vertex is normalized in ``decimal`` at 50 digits, and the trace of
    the product of the projectors ``P_v = (1 + v.sigma)/2``, which is the
    cyclic product ``<i|r><r|(s|)f><f|i>``, is formed from dot and triple
    products: ``(1 + a.b + b.c + c.a + i (a x b).c)/4`` for a triangle and
    ``((1 + a.b)(1 + c.d) + (a+b).(c+d) - (a x b).(c x d)
    + i ((a+b).(c x d) + (a x b).(c+d)))/8`` for a quadrangle.  Its real and
    imaginary parts are rounded once to floats, and the angle is twice their
    ``math.atan2``, in [-2 pi, 2 pi]."""

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])

    def plus(a, b):
        return tuple(x + y for x, y in zip(a, b))

    with localcontext() as ctx:
        ctx.prec = 50
        units = []
        for vertex in vertices:
            v = [Decimal(float(c)) for c in vertex]
            norm = dot(v, v).sqrt()
            units.append(tuple(c / norm for c in v))
        if len(units) == 3:
            a, b, c = units
            re, im = 1 + dot(a, b) + dot(b, c) + dot(c, a), dot(cross(a, b), c)
        else:
            a, b, c, d = units
            ab, cd = cross(a, b), cross(c, d)
            re = (1 + dot(a, b)) * (1 + dot(c, d)) + dot(plus(a, b), plus(c, d)) - dot(ab, cd)
            im = dot(plus(a, b), cd) + dot(ab, plus(c, d))
        return 2.0 * math.atan2(float(im), float(re))


def exact_abl_distribution(psi_i, groups, psi_f) -> list[Fraction]:
    """ABL probabilities ``|<f|P_k|i>|^2 / sum_j |<f|P_j|i>|^2`` evaluated
    exactly (``fractions.Fraction``) on the inputs as given, for the
    computational-basis context whose projector ``P_k`` keeps the basis
    indices ``groups[k]``.  Gaussian-integer states give the exact values of
    the rays they span: the probabilities are scale-invariant."""
    i, f = (np.asarray(state, dtype=complex) for state in (psi_i, psi_f))

    def weight(group):
        re = im = Fraction(0)
        for j in group:
            fr, fi = Fraction(f[j].real), Fraction(f[j].imag)
            ir, ii = Fraction(i[j].real), Fraction(i[j].imag)
            re += fr * ir + fi * ii
            im += fr * ii - fi * ir
        return re * re + im * im

    weights = [weight(group) for group in groups]
    total = sum(weights)
    return [w / total for w in weights]


def two_qubit_entropy(points) -> float:
    """Entropy (bits) of either qubit of the symmetrized pair of two Bloch
    points, from the two-qubit vector: its reduced density matrix is
    diagonalized, and eigenvalues at or below 1e-15 count as zero."""
    q1, q2 = (bloch_to_qubit(p) for p in points)
    psi = np.kron(q1, q2) + np.kron(q2, q1)
    amp = (psi / np.linalg.norm(psi)).reshape(2, 2)
    evals = np.clip(np.linalg.eigvalsh(amp @ amp.conj().T).real, 0.0, 1.0)
    entropy = -sum(v * math.log2(v) for v in evals if v > 1e-15)
    return float(np.clip(entropy, 0.0, 1.0))


def qubit_modular_closed_form(vi, vr, vf, alpha, beta) -> complex:
    """Closed-form qubit modular value from Bloch vectors only."""
    volume = float(vf @ np.cross(vr, vi))
    pair = float(vf @ vr) + float(vr @ vi)
    base = 1.0 + float(vf @ vi)
    half = 0.5 * alpha
    value = (math.cos(half) * base
             + math.sin(half) * (volume - 1j * pair)) / base
    return cmath.exp(0.5j * beta) * value


def polar_close(polar, z: complex, tol: float = 1e-10) -> bool:
    """Compare a PolarComplex against a rectangular reference."""
    if abs(polar.modulus - abs(z)) > tol * max(1.0, abs(z)):
        return False
    if abs(z) > 1e-12 and ang_dist(polar.argument, cmath.phase(z)) > tol:
        return False
    return True


def evaluate_polynomial(coeffs, z: complex) -> complex:
    """Horner evaluation with lowest-degree-first coefficients."""
    acc = 0.0 + 0.0j
    for coefficient in reversed(np.asarray(coeffs, dtype=complex)):
        acc = acc * z + coefficient
    return complex(acc)


def unitarity_defect(matrix) -> float:
    m = np.asarray(matrix, dtype=complex)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def is_spin_like(operator) -> bool:
    """True when det = 0, i.e. a unit Gell-Mann direction has spectrum {-1, 0, +1}."""
    return abs(complex(np.linalg.det(operator))) <= 1e-9


def reference_canonical_gauge(vec, zero: float = 1e-12) -> np.ndarray:
    """The per-entry numpy-scalar loop that ``numerics.canonical_gauge`` ran
    before its leading entry was found over Python complexes."""
    out = np.asarray(vec, dtype=complex).copy()
    for entry in out:
        if abs(entry) > zero:
            out *= entry.conjugate() / abs(entry)
            break
    return out


def reference_column_gauge(evecs, zero: float = 1e-12) -> np.ndarray:
    """The column-gauge loop of ``numerics.eig_hermitian`` before the same
    rewrite, applied to a copy of ``evecs``."""
    evecs = np.array(evecs, dtype=complex)
    for k in range(evecs.shape[1]):
        col = evecs[:, k]
        for entry in col:
            if abs(entry) > zero:
                col *= entry.conjugate() / abs(entry)
                break
    return evecs
