"""Polar-form value containers shared by the qubit and N-level modules."""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import principal_angle


@dataclass(frozen=True)
class PolarComplex:
    """A complex value held as (modulus, argument).

    ``argument`` lies in (-pi, pi].  ``unwrapped_argument`` preserves the raw
    accumulated phase when the value was assembled from angle sums (scan and
    breakdown contexts); it is ``None`` when no unwrapping information exists.
    An exact zero has no argument and is held as ``(0.0, 0.0)``.
    """

    modulus: float
    argument: float
    unwrapped_argument: float | None = None

    @property
    def rect(self) -> complex:
        return self.modulus * cmath.exp(1j * self.argument)

    @classmethod
    def from_complex(cls, z: complex) -> "PolarComplex":
        z = complex(z)
        if not z:
            return cls(0.0, 0.0)
        return cls(abs(z), principal_angle(cmath.phase(z)))


@dataclass(frozen=True, eq=False)
class GeometricFactor:
    """One per-qubit contribution to a factored weak or modular value.

    ``solid_angle`` is the oriented solid angle of this factor's spherical
    polygon; ``s_point`` is present only for modular values (evolved vector).
    """

    modulus_ratio: float
    solid_angle: float
    i_point: np.ndarray
    s_point: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class GeometricBreakdown:
    """Factored form of a weak or modular value, held as the factor kernel's
    columns.

    ``moduli`` and ``angles`` are the factors' modulus ratios and solid
    angles; ``i_rows`` (and, for modular values, ``s_rows``) their points as
    rows of three Python floats.  Recombination contract: the total modulus is
    ``k_ratio * math.prod(moduli)`` and the total argument
    ``dynamical_phase - sum(angles)/2``, each taken over the factors in order.
    ``factors`` is built from the columns when it is first read.
    """

    moduli: list[float]
    angles: list[float]
    i_rows: list[list[float]]
    s_rows: list[list[float]] | None = None
    dynamical_phase: float = 0.0
    k_ratio: float = 1.0

    @functools.cached_property
    def factors(self) -> tuple[GeometricFactor, ...]:
        """One :class:`GeometricFactor` per factor; its points are rows of one
        float array per point set."""
        points = [np.array(self.i_rows, dtype=float)]
        if self.s_rows is not None:
            points.append(np.array(self.s_rows, dtype=float))
        return tuple(map(GeometricFactor, self.moduli, self.angles, *points))

    @property
    def modulus(self) -> float:
        return self.k_ratio * math.prod(self.moduli)

    @property
    def raw_argument(self) -> float:
        return self.dynamical_phase - 0.5 * sum(self.angles)

    def to_polar(self) -> PolarComplex:
        modulus = self.modulus
        if modulus == 0.0:
            return PolarComplex(0.0, 0.0, unwrapped_argument=0.0)
        raw = self.raw_argument
        return PolarComplex(modulus, principal_angle(raw), unwrapped_argument=raw)
