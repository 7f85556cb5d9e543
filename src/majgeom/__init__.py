"""Weak and modular values of discrete quantum systems, computed directly in
Hilbert space and geometrically on the Bloch sphere through the stellar
representation.

``import majgeom`` loads numpy and the value modules.  The paper's two
reproductions, ``experiments`` and the names it exports here, load on first
use (PEP 562); the CLI imports every module itself."""

from .bloch import (
    as_bloch,
    as_bloch_array,
    bloch_to_qubit,
    projection_probability,
    qubit_to_bloch,
    rodrigues_rotate,
    solid_angle_quadrangle,
    solid_angle_quadrangle_rotation,
    solid_angle_triangle,
)
from .canonical import (
    CanonicalTriple,
    StateAngles,
    canonicalize_triple,
    params_to_state,
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

# Exported from ``experiments``, which is imported when one of them is first
# read.  Each read goes to the module, so a rebinding there shows here.
_EXPERIMENTS = frozenset({
    "SCAN_CHI1", "SCAN_CHI2", "SCAN_EPSILON", "ScanRecord", "SingularityScan",
    "ThreeBoxReport", "singularity_scan", "three_box_report",
})

# Every public name bound above (the submodules included), and the lazy ones.
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | _EXPERIMENTS | {"experiments"})


def __getattr__(name: str):
    if name == "experiments" or name in _EXPERIMENTS:
        import importlib

        experiments = importlib.import_module(f"{__name__}.experiments")
        return experiments if name == "experiments" else getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
