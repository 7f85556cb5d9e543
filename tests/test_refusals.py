"""Each input refusal that no other test reaches, pinned by its error type and
message: one row per ``raise``."""

import math

import numpy as np
import pytest

import majgeom as mg
from majgeom.bloch import as_qubit
from majgeom.errors import IncompleteContext, UndefinedSolidAngle

EZ, EX = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]
E0 = [1.0, 0.0, 0.0]
UNIFORM = np.ones(3) / math.sqrt(3.0)
BASIS = [np.diag(row).astype(complex) for row in np.eye(3)]
SPIN_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)

REFUSALS = [
    ("qubit-shape", lambda: as_qubit([1.0, 0.0, 0.0]), ValueError,
     "qubit state must have exactly two amplitudes"),
    # alpha = 0 and f = -i: both arctangent arguments are exactly 0.
    ("rotated-quadrangle-degenerate",
     lambda: mg.solid_angle_quadrangle_rotation(EZ, EX, [0.0, 0.0, -1.0], 0.0),
     UndefinedSolidAngle, "rotated quadrangle is degenerate; no defined area"),
    ("default-grid-count", lambda: mg.experiments.default_theta_grid(1), ValueError,
     "grid needs at least two points"),
    ("scan-grid-size", lambda: mg.singularity_scan([0.5]), ValueError,
     "theta grid must be a 1-d sequence of at least two points"),
    ("discriminant-dimension", lambda: mg.discriminant_degeneracy([1.0, 0.0]), ValueError,
     "discriminant diagnostic is defined for three-level states"),
    ("closed-form-theta",
     lambda: mg.qutrit_roots_closed_form(-0.1, mg.SCAN_EPSILON, mg.SCAN_CHI1, mg.SCAN_CHI2),
     ValueError, "theta must lie in [0, pi/2)"),
    ("entropy-shape", lambda: mg.entanglement_entropy(np.zeros((3, 3))), ValueError,
     "entropy diagnostic needs exactly two Bloch points"),
    ("entropy-norm", lambda: mg.entanglement_entropy([EZ, [0.0, 2.0, 0.0]]), ValueError,
     "Bloch vector norm 2.000000 deviates from 1 beyond 1e-08"),
    ("r8-shape", lambda: mg.GellMannDirection.from_r8(np.ones(7)), ValueError,
     "direction must have eight components"),
    ("r8-zero", lambda: mg.GellMannDirection.from_r8(np.zeros(8)), ValueError,
     "direction must be non-zero"),
    ("gell-mann-operator-shape", lambda: mg.GellMannDirection.from_operator(np.eye(2)),
     ValueError, "operator must be 3x3"),
    ("gell-mann-operator-trace", lambda: mg.GellMannDirection.from_operator(np.eye(3)),
     ValueError, "operator must be traceless"),
    ("gell-mann-operator-scale", lambda: mg.GellMannDirection.from_operator(2.0 * SPIN_Z),
     ValueError, "operator must satisfy tr(L^2) = 2 (unit direction)"),
    ("observable-dimension", lambda: mg.weak_value_direct(E0, np.eye(2), E0), ValueError,
     "observable dimension does not match the states"),
    ("eigen-choice-range",
     lambda: mg.qutrit_modular_value_geometric(
         UNIFORM, mg.NLevelModularSpec(observable=SPIN_Z, eigen_choice=3), UNIFORM),
     ValueError, "eigen_choice outside the spectrum"),
    ("context-empty", lambda: mg.abl_distribution(UNIFORM, [], UNIFORM), IncompleteContext,
     "context must contain at least one projector"),
    ("context-dimension", lambda: mg.abl_distribution(UNIFORM, [np.eye(2)], UNIFORM),
     IncompleteContext, "projector dimension does not match the states"),
    ("context-idempotent", lambda: mg.abl_distribution(UNIFORM, [2.0 * np.eye(3)], UNIFORM),
     IncompleteContext, "context contains a non-idempotent element"),
    ("context-orthogonal",
     lambda: mg.abl_distribution(UNIFORM, [BASIS[0], BASIS[0] + BASIS[1]], UNIFORM),
     IncompleteContext, "context projectors are not mutually orthogonal"),
    ("abl-outcome-index", lambda: mg.abl_probability(UNIFORM, BASIS, UNIFORM, 3), ValueError,
     "outcome index outside the context"),
    ("state-finite", lambda: mg.nlevel_state([math.nan, 0.0, 0.0]), ValueError,
     "state coefficients must be finite"),
    ("square-matrix", lambda: mg.eig_hermitian(np.zeros((2, 3))), ValueError,
     "expected a square matrix"),
    ("spin1-dimension", lambda: mg.cayley_hamilton_exp_spin1(np.eye(2), 0.5), ValueError,
     "spin-1 exponential requires a 3x3 matrix"),
    ("qubit-observable-shape", lambda: mg.observable_to_modular_spec(np.eye(3), 0.5),
     ValueError, "expected a 2x2 observable"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
