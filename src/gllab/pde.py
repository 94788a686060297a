"""Controlled hydrodynamic equation on the circle.

Solves d/dt m = (1/2) d^2/dtheta^2 [H(m)] - d/dtheta u for the envelope
slope H(m) (the tilt at which the reference density has mean m), with an
explicit conservative finite-volume scheme: cells are centered on the
uniform nodes theta_j = j/J, the diffusive term is the standard 3-point
flux difference of H(m), and the control enters through face values.
Both terms telescope, so cell-average mass is conserved to round-off.

The control is a ``ControlGrid``, the type the particle engine takes
too, with one slice per time step; its face values are the average of
the two neighboring cells.
Stability needs dt <= dtheta^2 / max H'(m), H' = 1/var over the envelope
chunks the field reads: the initial density's (the scheme is then
monotone) and, under a control, each chunk it gains later.  A violation
raises CFLViolation.

The solver steps in place: the control flux of every time slice is
computed before the loop, and each step writes the 3-point Laplacian into
one preallocated buffer and the new level straight into the output
field, with the floating-point grouping ((H[j+1] - 2 H[j]) + H[j-1],
then m + diff*lap, then minus the flux) of the step written with
``np.roll``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CFLViolation, NonFiniteField
from .potential import EnvelopeTable, Potential
from .particles import ControlGrid, write_csv

CFL_SAFETY = 0.5


@dataclass
class DensityField:
    """Space-time density on the solver grid: values[k, j] = m(t_k, j/J)."""

    values: np.ndarray
    horizon: float
    range_escaped: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] < 2:
            raise ValueError("field needs at least two time levels")
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def j_cells(self) -> int:
        return self.values.shape[1]

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def dtheta(self) -> float:
        return 1.0 / self.j_cells

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def masses(self) -> np.ndarray:
        """Cell-average integral at every time level."""
        return self.values.mean(axis=1)

    def slice_at(self, t: float) -> np.ndarray:
        k = int(round(t / self.dt))
        return self.values[min(max(k, 0), self.n_steps)]

    def to_csv(self, fh):
        write_csv(fh, ["t"] + [f"m_{i}" for i in range(self.j_cells)],
                  (np.concatenate(([t], v))
                   for t, v in zip(self.times, self.values)))


def _resolve_grid(pot: Potential, m0, j_cells):
    """Initial density on the grid and its envelope table."""
    m0_arr = np.asarray(m0(np.arange(j_cells) / j_cells)
                        if callable(m0) else m0, dtype=float)
    if m0_arr.ndim != 1:
        raise ValueError("initial density must be one-dimensional")
    return m0_arr, EnvelopeTable(pot, np.min(m0_arr), np.max(m0_arr))


def _stable_dt(table: EnvelopeTable, j_cells: int, dt: float = 0.0):
    """CFL_SAFETY * dtheta^2 / max H' over the table; checks ``dt``."""
    dt_max = CFL_SAFETY * (1.0 / j_cells) ** 2 / table.max_curvature()
    if dt > dt_max * (1 + 1e-9):
        raise CFLViolation(
            f"dt={dt:g} exceeds {dt_max:g} "
            f"(= safety*dtheta^2/max_curvature with safety={CFL_SAFETY:g}, "
            f"J={j_cells}, max H'={table.max_curvature():g})")
    return dt_max


def _cfl_steps(horizon: float, table: EnvelopeTable, j_cells: int) -> int:
    return max(1, int(math.ceil(horizon / _stable_dt(table, j_cells))))


def cfl_time_steps(pot: Potential, m0, j_cells: int, horizon: float) -> int:
    """Smallest step count satisfying dt <= CFL_SAFETY * dtheta^2 / max H'."""
    m, table = _resolve_grid(pot, m0, j_cells)
    return _cfl_steps(horizon, table, m.size)


def solve_controlled_pde(pot: Potential, m0, u: ControlGrid | None = None,
                         horizon: float | None = None,
                         j_cells: int | None = None,
                         n_steps: int | None = None) -> DensityField:
    """March the controlled equation forward from the initial density.

    When a ControlGrid is given it fixes the grid (and the horizon);
    otherwise the control is zero, ``j_cells`` sizes the grid from the
    initial density, and ``n_steps`` defaults to the CFL-determined count.
    """
    if u is not None:
        horizon = u.horizon
        j_cells = u.j_cells
        n_steps = u.n_steps
    if horizon is None or not (horizon > 0):
        raise ValueError("horizon must be positive")
    if callable(m0) and j_cells is None:
        raise ValueError("j_cells required with a callable initial density")
    m, table = _resolve_grid(pot, m0, j_cells)
    j_cells = m.size

    dtheta = 1.0 / j_cells
    if n_steps is None:
        n_steps = _cfl_steps(horizon, table, j_cells)
    dt = horizon / n_steps
    _stable_dt(table, j_cells, dt)

    diff = 0.5 * dt / dtheta ** 2
    flux = None
    if u is not None:
        right = 0.5 * (u.values + np.roll(u.values, -1, axis=1))
        flux = (dt / dtheta) * (right - np.roll(right, 1, axis=1))
    out = np.empty((n_steps + 1, j_cells))
    out[0] = m
    lap = np.empty(j_cells)
    for k in range(n_steps):
        hm = table(out[k])
        if flux is not None:
            _stable_dt(table, j_cells, dt)     # the table may have grown
        # lap = (hm[j+1] - 2 hm[j]) + hm[j-1] on the circle, in place
        np.multiply(hm, 2.0, out=lap)
        np.subtract(hm[1:], lap[:-1], out=lap[:-1])
        lap[-1] = hm[0] - lap[-1]
        lap[1:] += hm[:-1]
        lap[0] += hm[-1]
        lap *= diff
        nxt = out[k + 1]
        np.add(out[k], lap, out=nxt)
        if flux is not None:
            nxt -= flux[k]
        if not np.all(np.isfinite(nxt)):
            raise NonFiniteField(f"field blew up at step {k + 1}")

    return DensityField(out, horizon, range_escaped=table.range_escaped)


def weak_form_residual(pot: Potential, field: DensityField,
                       u: ControlGrid | None, test_function: Callable,
                       t: float) -> float:
    """Defect of the weak formulation against a smooth test function.

    Computes |<m(t),J> - <m(0),J> - (1/2) int int J'' H(m) - int int J' u|
    with grid quadrature in space and left-endpoint rule in time, matching
    the explicit scheme's attribution of fluxes to the left time level.
    """
    j = field.j_cells
    theta = np.arange(j) / j
    dtheta = field.dtheta
    dt = field.dt
    k_end = int(round(t / dt))
    if abs(k_end * dt - t) > 1e-9 * max(1.0, t):
        raise ValueError("t must lie on the field's time grid")
    k_end = min(max(k_end, 0), field.n_steps)

    # Spectral derivatives of the test function on the periodic grid;
    # exact for trigonometric polynomials below the Nyquist mode.
    jv = np.asarray(test_function(theta), dtype=float)
    freq = 2.0j * np.pi * np.fft.rfftfreq(j, d=dtheta)
    jhat = np.fft.rfft(jv)
    jp = np.fft.irfft(jhat * freq, n=j)
    jpp = np.fft.irfft(jhat * freq ** 2, n=j)

    boundary = (np.sum(field.values[k_end] * jv)
                - np.sum(field.values[0] * jv)) * dtheta
    diffusive = advective = 0.0
    if k_end:
        vals = field.values[:k_end]
        hm = EnvelopeTable(pot, np.min(vals), np.max(vals))(vals)
        diffusive = np.sum(hm * jpp) * dtheta * dt
        if u is not None:
            advective = np.sum(u.values[:k_end] * jp) * dtheta * dt
    return float(abs(boundary - 0.5 * diffusive - advective))


def control_l2_distance(u1: ControlGrid, u2: ControlGrid) -> float:
    if u1.values.shape != u2.values.shape or u1.horizon != u2.horizon:
        raise ValueError("control grids are not conformable")
    return float(math.sqrt(np.sum((u1.values - u2.values) ** 2)
                           * u1.dt * u1.dtheta))


def contraction_gap(pot: Potential, m0, u1: ControlGrid, u2: ControlGrid):
    """Path distance of two controlled solutions vs. the Gronwall bound.

    Returns (lhs, rhs): lhs is the bounded-Lipschitz distance between the
    two solutions from the same initial density, the max over 9 evenly
    spaced snapshots with one atom per cell; rhs is exp(T/2) times the L2
    distance of the controls.
    """
    from .measures import path_from_density_slices, d_star

    f1 = solve_controlled_pde(pot, m0, u1)
    f2 = solve_controlled_pde(pot, m0, u2)
    times = np.linspace(0.0, u1.horizon, 9)
    idx = np.round(times / f1.dt).astype(int)
    p1 = path_from_density_slices(idx * f1.dt, [f1.values[k] for k in idx],
                                  f1.j_cells)
    p2 = path_from_density_slices(idx * f2.dt, [f2.values[k] for k in idx],
                                  f2.j_cells)
    lhs = d_star(p1, p2)
    rhs = math.exp(u1.horizon / 2.0) * control_l2_distance(u1, u2)
    return lhs, rhs
