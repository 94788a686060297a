"""Action functional of a density path: static cost plus control cost.

The total rate of a path m splits into the entropy of its initial profile
(the integral of the Legendre transform h(m(0, theta))) and half the
squared L2 norm of the smallest control that reproduces the path through
the controlled equation.  That minimal control is recovered from the
path's defect g = dm/dt - (1/2) [H(m)]_thetatheta: the equation forces
du/dtheta = -g, so u* is the zero-mean circular antiderivative of -g,
which exists only when g integrates to zero in theta (mass is conserved);
otherwise the path is infeasible and the rate is +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureDiverged, RootNotBracketed
from .pde import ControlGrid, DensityField
from .potential import EnvelopeTable, Potential

MASS_DEFECT_TOL = 1e-8


@dataclass(frozen=True)
class RateDecomposition:
    """Rate of one path: initial entropy term plus dynamic control term."""

    initial_cost: float
    minimal_control: ControlGrid | None
    dynamic_cost: float
    total: float
    feasible: bool

    def csv_row(self) -> str:
        return (f"{self.initial_cost:.17g},{self.dynamic_cost:.17g},"
                f"{self.total:.17g},{str(self.feasible).lower()}")

    CSV_HEADER = "initial_cost,dynamic_cost,total,feasible"


def initial_cost(pot: Potential, m0) -> float:
    """Integral over the circle of the Legendre transform of m(0, .)."""
    m0 = np.asarray(m0, dtype=float)
    h, _ = pot.legendre_h_vec(m0)
    return float(np.mean(h))


def _defect(pot: Potential, field: DensityField) -> np.ndarray:
    """g[k] = forward time difference minus the discrete diffusive term."""
    past = field.values[:-1]
    hm = EnvelopeTable(pot, np.min(past), np.max(past))(past)
    lap = np.roll(hm, -1, axis=1) - 2.0 * hm + np.roll(hm, 1, axis=1)
    return (field.values[1:] - past) / field.dt - 0.5 * lap / field.dtheta ** 2


def minimal_control(pot: Potential, field: DensityField):
    """Smallest-L2 control reproducing the path, or None if infeasible.

    Returns (control, feasible).  Feasibility requires the defect to have
    zero spatial mean on every slice (up to MASS_DEFECT_TOL, relative to the
    field scale); the control cells are face-averaged values of the
    antiderivative, shifted to zero mean.
    """
    g = _defect(pot, field)
    scale = 1.0 + float(np.max(np.abs(field.values)))
    mass_defect = float(np.max(np.abs(g.mean(axis=1)), initial=0.0))
    if mass_defect > MASS_DEFECT_TOL * scale:
        return None, False
    dth = field.dtheta
    centered = g - g.mean(axis=1, keepdims=True)
    faces = np.concatenate(
        [np.zeros((g.shape[0], 1)), -dth * np.cumsum(centered, axis=1)],
        axis=1)
    cells = 0.5 * (faces[:, :-1] + faces[:, 1:])
    cells -= cells.mean(axis=1, keepdims=True)
    return ControlGrid(cells, field.horizon), True


def rate(pot: Potential, field: DensityField) -> RateDecomposition:
    """Full decomposition; infeasible paths get total = +inf."""
    try:
        init = initial_cost(pot, field.values[0])
    except (RootNotBracketed, QuadratureDiverged):
        return RateDecomposition(math.inf, None, math.inf, math.inf, False)
    control, feasible = minimal_control(pot, field)
    if not feasible:
        return RateDecomposition(init, None, math.inf, math.inf, False)
    dyn = 0.5 * control.l2_norm_sq
    return RateDecomposition(init, control, dyn, init + dyn, True)
