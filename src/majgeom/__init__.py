"""Weak and modular values of discrete quantum systems, computed directly in
Hilbert space and geometrically on the Bloch sphere through the stellar
representation."""

from .bloch import (
    as_bloch,
    as_bloch_array,
    bloch_to_qubit,
    bloch_to_qubits,
    bloch_vector,
    modular_moduli,
    projection_probability,
    qubit_state,
    qubit_to_bloch,
    rodrigues_rotate,
    solid_angle_quadrangle,
    solid_angle_quadrangle_rotation,
    solid_angle_triangle,
    triangle_solid_angles,
    weak_moduli,
)
from .canonical import (
    CanonicalTriple,
    StateAngles,
    canonicalize_triple,
    params_to_state,
    three_box_transform,
)
from .errors import (
    AllCoefficientsZero,
    IncompleteContext,
    MajgeomError,
    NotHermitian,
    OrthogonalSelection,
    PreconditionViolated,
    UndefinedSolidAngle,
    ZeroDenominator,
)
from .experiments import (
    SCAN_CHI1,
    SCAN_CHI2,
    SCAN_EPSILON,
    ScanRecord,
    SingularityScan,
    ThreeBoxReport,
    singularity_scan,
    three_box_report,
)
from .majorana import (
    QutritAngles,
    SymmetricRepresentation,
    discriminant_degeneracy,
    entanglement_entropy,
    majorana_points,
    nlevel_state,
    normalization_factor,
    qutrit_roots_closed_form,
    symmetrize,
)
from .nlevel_values import (
    GELL_MANN,
    GellMannDirection,
    NLevelModularSpec,
    abl_distribution,
    abl_probability,
    factored_modular_value,
    factored_weak_value,
    gell_mann_matrices,
    modular_value_direct,
    qutrit_modular_value_geometric,
    qutrit_projector_weak_value_geometric,
    weak_value_direct,
)
from .numerics import (
    DEFAULT_TOL,
    ProjectiveRoot,
    Tolerances,
    cayley_hamilton_exp_spin1,
    eig_hermitian,
    solve_polynomial,
    unitary_exp,
)
from .polar import GeometricBreakdown, GeometricFactor, PolarComplex
from .qubit_values import (
    QubitModularSpec,
    observable_to_modular_spec,
)
from .qubit_values import modular_value_direct as qubit_modular_value_direct
from .qubit_values import modular_value_geometric as qubit_modular_value_geometric
from .qubit_values import projector_weak_value_direct
from .qubit_values import projector_weak_value_geometric

__version__ = "0.1.0"
