"""Shared randomized-state generators, independent test oracles, and the
command that runs Python on this checkout's package in a fresh process."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def random_state(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_qubit(rng) -> np.ndarray:
    return random_state(rng, 2)


def random_hermitian(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def random_unitary(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


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
