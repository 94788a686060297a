"""Controlled hydrodynamic equation on the circle.

Solves d/dt m = (1/2) d^2/dtheta^2 [H(m)] - d/dtheta u for the envelope
slope H(m) (the tilt at which the reference density has mean m), with an
explicit conservative finite-volume scheme: cells are centered on the
uniform nodes theta_j = j/J, the diffusive term is the standard 3-point
flux difference of H(m), and the control enters through face values.
Both terms telescope, so cell-average mass is conserved to round-off.

The control is a ``ControlGrid``, the type the particle engine takes
too; step k reads its slice ``slice_of(k, n_steps)``, as the engine
does, and its face values average the two neighboring cells.
Stability needs dt <= dtheta^2 / max H'(m), H' = 1/var over the envelope
chunks the field reads: the initial density's (the scheme is then
monotone) and, under a control, each chunk it gains later.  A violation
raises CFLViolation.

One march steps an (R, J) stack of densities: one row for
``solve_controlled_pde`` and ``write_field_csv``, one per control for
``contraction_gap``.  It hands each level to its caller as it is made,
and the caller keeps what it reads: the solve every level, written in
place into its field, the gap its nine snapshots, and the CSV writer
none, so that its march holds two levels in a ring.  The control flux is
computed FLUX_STEPS time steps at a time.  A step does only the
stencil: H from the envelope view's nodes (nan past them), the 3-point
Laplacian in one preallocated buffer, the new level straight into its
slot, with the floating-point grouping ((H[j+1] - 2 H[j]) + H[j-1], then
m + diff*lap, then minus the flux) of the step written with ``np.roll``,
and one finiteness check.  A step that is not finite is
redone through the checked ``EnvelopeTable`` call, which reads a new
value's chunk or clamps it; a controlled march then re-checks the CFL
bound, and a level still not finite raises NonFiniteField.  A view with
a gap takes the checked call on every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, NonFiniteField
from .potential import EnvelopeTable, Potential
from .particles import ControlGrid, write_csv

CFL_SAFETY = 0.5
# time steps whose control flux a march computes at once
FLUX_STEPS = 64


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

    def slice_at(self, t: float) -> np.ndarray:
        k = int(round(t / self.dt))
        return self.values[min(max(k, 0), self.n_steps)]

    def to_csv(self, fh):
        _field_csv(fh, self.dt, self.values, self.j_cells)


def _field_csv(fh, dt: float, levels, j_cells: int):
    """The rows t_k = k dt, m(t_k, .) of the levels, through write_csv."""
    write_csv(fh, ["t"] + [f"m_{i}" for i in range(j_cells)],
              (np.concatenate(([k * dt], v)) for k, v in enumerate(levels)))


def _resolve_grid(pot: Potential, m0, j_cells):
    """Initial density on the grid and its envelope table."""
    m0_arr = np.asarray(m0(np.arange(j_cells) / j_cells)
                        if callable(m0) else m0, dtype=float)
    if m0_arr.shape != (j_cells or m0_arr.size,):
        raise ValueError(f"initial density has shape {m0_arr.shape}, the "
                         f"grid ({j_cells or m0_arr.size},)")
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


def cfl_time_steps(pot: Potential, m0, j_cells: int, horizon: float) -> int:
    """Smallest step count satisfying dt <= CFL_SAFETY * dtheta^2 / max H'."""
    return _plan(pot, m0, None, horizon, j_cells, None)[-1]


def _march(table: EnvelopeTable, m0, controls, horizon: float,
           n_steps: int, out=None):
    """Step m0 under each control as one (R, J) stack (one uncontrolled
    row without controls), sharing ``table``; yields the levels
    k = 0..n_steps, each an (R, J) view.  Level k is out[k] when an
    (n_steps+1, R, J) ``out`` is given; otherwise the levels take turns in
    a two-level ring, so a caller copies what it keeps before it asks for
    the next level.  A value past the view's nodes reads nan, so its step
    is redone through the checked ``table`` call (see the module
    docstring)."""
    j_cells = m0.size
    dtheta = 1.0 / j_cells
    dt = horizon / n_steps
    _stable_dt(table, j_cells, dt)

    diff = 0.5 * dt / dtheta ** 2
    levels = np.empty((2, max(1, len(controls)), j_cells)) \
        if out is None else out
    levels[0] = m0
    lap = np.empty(levels.shape[1:])
    flux = np.empty((FLUX_STEPS,) + lap.shape) if controls else None

    def step(k, hm):
        # lap = (hm[j+1] - 2 hm[j]) + hm[j-1] on the circle, in place
        np.multiply(hm, 2.0, out=lap)
        np.subtract(hm[:, 1:], lap[:, :-1], out=lap[:, :-1])
        lap[:, -1] = hm[:, 0] - lap[:, -1]
        lap[:, 1:] += hm[:, :-1]
        lap[:, 0] += hm[:, -1]
        np.multiply(lap, diff, out=lap)
        nxt = levels[(k + 1) % len(levels)]
        np.add(levels[k % len(levels)], lap, out=nxt)
        if flux is not None:
            nxt -= flux[k % FLUX_STEPS]
        return np.isfinite(nxt).all()

    nodes = table.nodes()
    for k in range(n_steps):
        cur = levels[k % len(levels)]
        yield cur
        if flux is not None and k % FLUX_STEPS == 0:
            # the control flux of steps k, k+1, ... (at most FLUX_STEPS)
            block = flux[:min(FLUX_STEPS, n_steps - k)]
            for r, u in enumerate(controls):
                values = u.values[u.slice_of(np.arange(k, k + len(block)),
                                             n_steps)]
                right = values + np.roll(values, -1, axis=1)
                right *= 0.5
                np.subtract(right, np.roll(right, 1, axis=1),
                            out=block[:, r])
            block *= dt / dtheta
        if nodes is not None and step(k, np.interp(
                cur, *nodes, left=math.nan, right=math.nan)):
            continue
        hm = table(cur)
        if flux is not None:
            _stable_dt(table, j_cells, dt)     # the view may have grown
        if not step(k, hm):
            raise NonFiniteField(f"field blew up at step {k + 1}")
        nodes = table.nodes()
    yield levels[n_steps % len(levels)]


def _plan(pot: Potential, m0, u, horizon, j_cells, n_steps):
    """Every PDE run's arguments resolved, as ``solve_controlled_pde``
    documents them: (table, initial density, controls, horizon, n_steps)."""
    if u is not None:
        for key, given, fixed in (("horizon", horizon, u.horizon),
                                  ("j_cells", j_cells, u.j_cells)):
            if given not in (None, fixed):
                raise ValueError(f"{key}={given} disagrees with the "
                                 f"control's {fixed}")
        horizon, j_cells = u.horizon, u.j_cells
        n_steps = u.n_steps if n_steps is None else n_steps
    if horizon is None or not (horizon > 0):
        raise ValueError("horizon must be positive")
    if callable(m0) and j_cells is None:
        raise ValueError("j_cells required with a callable initial density")
    m, table = _resolve_grid(pot, m0, j_cells)
    if n_steps is None:
        n_steps = max(1, int(math.ceil(horizon / _stable_dt(table, m.size))))
    if n_steps < 1:
        raise ValueError(f"n_steps={n_steps} must be at least 1")
    return table, m, [] if u is None else [u], horizon, n_steps


def solve_controlled_pde(pot: Potential, m0, u: ControlGrid | None = None,
                         horizon: float | None = None,
                         j_cells: int | None = None,
                         n_steps: int | None = None) -> DensityField:
    """March the controlled equation forward from the initial density.

    When a ControlGrid is given it fixes J and T, which ``horizon`` and
    ``j_cells`` must match, and its slice count is the default ``n_steps``;
    otherwise the control is zero, ``j_cells`` sizes the grid from the
    initial density, and ``n_steps`` defaults to the CFL-determined count.
    """
    table, m, controls, horizon, n_steps = _plan(pot, m0, u, horizon,
                                                 j_cells, n_steps)
    out = np.empty((n_steps + 1, 1, m.size))
    for _ in _march(table, m, controls, horizon, n_steps, out):
        pass
    return DensityField(out[:, 0], horizon, range_escaped=table.range_escaped)


def write_field_csv(fh, pot: Potential, m0, u: ControlGrid | None = None,
                    horizon: float | None = None, j_cells: int | None = None,
                    n_steps: int | None = None):
    """Write to ``fh`` what ``solve_controlled_pde`` (same arguments)
    returns, as ``DensityField.to_csv`` writes it, one level at a time as
    the march makes it: the field is never held whole."""
    table, m, controls, horizon, n_steps = _plan(pot, m0, u, horizon,
                                                 j_cells, n_steps)
    _field_csv(fh, horizon / n_steps, (level[0] for level in _march(
        table, m, controls, horizon, n_steps)), m.size)


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
    distance of the controls.  The two solutions are one two-row march
    over one envelope view: a clamp warns once, and a failure of either
    row raises at the first step where it occurs.
    """
    from .measures import path_from_density_slices, d_star

    rhs = math.exp(u1.horizon / 2.0) * control_l2_distance(u1, u2)
    table, m, _, horizon, n_steps = _plan(pot, m0, u1, None, None, None)
    dt = horizon / n_steps
    idx = np.round(np.linspace(0.0, horizon, 9) / dt).astype(int)
    keep = set(idx.tolist())
    kept = {k: level.copy() for k, level in enumerate(
        _march(table, m, [u1, u2], horizon, n_steps)) if k in keep}
    p1, p2 = (path_from_density_slices(idx * dt, [kept[k][r] for k in idx],
                                       m.size) for r in (0, 1))
    return d_star(p1, p2), rhs
