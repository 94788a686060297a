"""Interacting lattice diffusion on the discrete circle.

N coupled scalar diffusions X_1..X_N evolve through bond variables: each
bond i carries dZ_i = (N^2/2)(phi'(X_{i-1}) - phi'(X_i)) dt + N dB_i and
site i receives dZ_i - dZ_{i+1}, indices mod N.  The update is written in
that flux form so the total charge sum(X) is conserved to round-off by
construction.  A controlled variant adds a per-site drift psi_i to the
driving noise and tracks the Girsanov log weight

    log dP/dPbar = -sum_i int psi_i dB_i - (1/2) sum_i int psi_i^2 dt

together with the quadratic control cost.  Under the controlled law the
weight is an exact exponential martingale even at finite dt, because the
per-step increment is a Gaussian shift identity.

One engine, ``_run``, steps every run in place.  It draws its normals
ahead in blocks of steps on one helper thread, from one generator for all
rows or one per row, and its outputs and the generators' final states are
bit-identical to drawing one block per step: a row alone gives the same.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CFLViolation, NonFiniteState
from .potential import Potential, TiltedFamilySampler, uniforms

DEFAULT_STABILITY_SAFETY = 0.1


@dataclass(frozen=True)
class LatticeState:
    """Charges on the N lattice sites at one instant."""

    charges: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "charges",
                           np.asarray(self.charges, dtype=float))
        if self.charges.ndim != 1 or self.charges.size < 1:
            raise ValueError("charges must be a nonempty 1-d array")

    @property
    def n_sites(self) -> int:
        return self.charges.size

    def total_charge(self) -> float:
        return float(np.sum(self.charges))


@dataclass(frozen=True)
class SimConfig:
    """Time-stepping parameters for one particle run.

    The drift carries an N^2 factor, so explicit stepping needs
    dt <= c / N^2 with c = DEFAULT_STABILITY_SAFETY / max|phi''|, evaluated
    over the potential's probe range at validation time (``stable_dt``).
    """

    n_sites: int
    horizon: float
    dt: float
    seed: int = 0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        if not (self.horizon > 0 and self.dt > 0):
            raise ValueError("horizon and dt must be positive")

    def validate_stability(self, pot: Potential):
        limit = stable_dt(pot, self.n_sites)
        if self.dt > limit * (1 + 1e-12):
            raise CFLViolation(
                f"dt={self.dt:g} exceeds stability limit {limit:g} "
                f"(= {DEFAULT_STABILITY_SAFETY:g}/max|phi''|/N^2 with "
                f"N={self.n_sites})")

    def n_steps(self) -> int:
        """Fewest equal steps spanning the horizon, none longer than dt
        (to within the 1e-12 that ``validate_stability`` allows)."""
        return max(1, math.ceil(self.horizon / self.dt * (1 - 1e-12)))


def stable_dt(pot: Potential, n_sites: int) -> float:
    """Largest dt the default stability rule allows for this potential."""
    return (DEFAULT_STABILITY_SAFETY / pot.max_phi_double_prime()
            / n_sites ** 2)


@dataclass
class ControlGrid:
    """Space-time control u(t, theta) on a uniform grid.

    values[k, j] is the control on time slice k, [t_k, t_{k+1}) with
    t_k = k T/K, at theta = j/J.  This is the one control type: the
    particle engine needs J = N and gives site i the column at i/N (site
    N takes column 0), and the PDE solver gives cell j column j.  A
    uniform step grid over [0, T] finds each step's slice with
    ``slice_of``, in the particle engine and the PDE solver alike.  The
    squared L2 norm over [0, T] x S is cached at construction.
    """

    values: np.ndarray
    horizon: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("control values must be a (K, J) array")
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("control values must be finite")
        self.l2_norm_sq = float(
            np.sum(self.values ** 2) * self.dt * self.dtheta)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def j_cells(self) -> int:
        return self.values.shape[1]

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def dtheta(self) -> float:
        return 1.0 / self.j_cells

    @classmethod
    def from_function(cls, u: Callable, n_steps: int, j_cells: int,
                      horizon: float) -> "ControlGrid":
        """Sample u(t, theta) at the slice starts t_k and positions j/J:
        the one way a function becomes a control."""
        times = np.arange(n_steps) * (horizon / n_steps)
        theta = np.arange(j_cells) / j_cells
        vals = np.stack([np.asarray(u(t, theta), dtype=float) for t in times])
        return cls(vals, horizon)

    def slice_of(self, k, n_steps: int):
        """The slice holding the start k T/n of step k (an int or an int
        array) of n uniform steps over [0, T]: k K // n, exactly."""
        return k * self.n_steps // n_steps

    def resample(self, n_steps: int, j_cells: int) -> "ControlGrid":
        """This control on n_steps slices and j_cells positions: row k is
        the slice of step k, column j the node nearest j/j_cells (ties to
        even; theta = 1 wraps to column 0)."""
        rows = self.slice_of(np.arange(n_steps), n_steps)
        cols = np.round(np.arange(j_cells) / j_cells * self.j_cells) \
            .astype(int) % self.j_cells
        return ControlGrid(self.values[np.ix_(rows, cols)], self.horizon)


def write_csv(fh, header: Sequence[str], rows):
    """Write a header line, then each 1-d float row as %.17g values (read
    back as the same doubles), turning one row at a time into floats."""
    fh.write(",".join(header) + "\n")
    fmt = "%.17g" + ",%.17g" * (len(header) - 1) + "\n"
    for row in rows:
        fh.write(fmt % tuple(row.tolist()))


# -- the engine ---------------------------------------------------------------


@dataclass(frozen=True)
class ReplicaBatch:
    """Vectorized ensemble run: pairings, weights, costs per replica.

    ``log_weight_path``/``cost_path`` hold each replica's running totals at
    the sample times; ``log_weights``/``costs`` are the end-of-horizon
    values.
    """

    sample_times: np.ndarray          # (S,)
    pairings: np.ndarray              # (n_fns, S, M)
    log_weights: np.ndarray           # (M,)
    costs: np.ndarray                 # (M,)
    log_weight_path: np.ndarray       # (S, M)
    cost_path: np.ndarray             # (S, M)
    states: np.ndarray | None = None  # (S, M, N) if recorded

    def trajectory(self, r: int) -> "TrajectoryRecord":
        """Replica r as a trajectory record; needs recorded states."""
        return TrajectoryRecord(
            self.sample_times, self.states[:, r], float(self.log_weights[r]),
            float(self.costs[r]), self.log_weight_path[:, r],
            self.cost_path[:, r])


# Bytes in one block of drawn-ahead normals; _run keeps two.
NOISE_BLOCK_BYTES = 1 << 20


def _run(pot: Potential, config: SimConfig, charges: np.ndarray,
         control: ControlGrid | None, sample_times: Sequence[float] | None,
         rng, pairing_functions: Sequence[Callable] = (),
         record_states: bool = False) -> ReplicaBatch:
    """March an (M, N) charge array over the horizon: the one stepping loop.

    The noise comes in (K, M, N) blocks of K steps, the most that fit in
    NOISE_BLOCK_BYTES (at least one); the last block is trimmed.  ``rng``
    is one Generator, which fills each block in C order, or a sequence of
    M generators, the r-th filling row r.  One helper thread draws the
    next block into a second buffer while this thread steps through the
    current one, and it is joined before ``_run`` returns or raises.  The
    step runs in place on a copy of the charges, in the operation order of
    one (M, N) draw per step, so every output and each generator's final
    state are bit-identical to that serial stream.  The state is checked
    for finiteness after every step.

    Sample times snap to the nearest step-grid point; at each one the
    pairings with ``pairing_functions`` (at site positions i/N), the
    running Girsanov log weights and costs, and optionally the states are
    recorded.  Weights and costs stay zero without a control; a
    non-finite final weight or cost raises NonFiniteState.

    A control has one column per site and the run's horizon.  Step k
    takes slice ``control.slice_of(k, n_steps)``, an integer rule with no
    rounding at slice boundaries.
    """
    config.validate_stability(pot)
    m, n = charges.shape
    if n != config.n_sites:
        raise ValueError("initial state size does not match config")
    if control is not None:
        if (control.j_cells, control.horizon) != (n, config.horizon):
            raise ValueError("control grid does not match config")
        # grid column j sits at theta = j/N and engine column i is site
        # i + 1, so row r of ``rows`` is slice r with site N's column last
        rows = np.roll(control.values, -1, axis=1)
    n_steps = config.n_steps()
    dt = config.horizon / n_steps
    sqdt = math.sqrt(dt)
    if sample_times is None:
        sample_times = [0.0, config.horizon]
    sample_idx = np.clip(np.round(np.asarray(sample_times, dtype=float) / dt)
                         .astype(int), 0, n_steps)
    lookup = {}
    for pos, idx in enumerate(sample_idx):
        lookup.setdefault(int(idx), []).append(pos)

    theta_sites = np.arange(1, n + 1) / n
    j_vals = [np.asarray(fn(theta_sites), dtype=float)
              for fn in pairing_functions]
    s = len(sample_idx)
    pairings = np.empty((len(j_vals), s, m))
    states = np.empty((s, m, n)) if record_states else None
    logw_path = np.empty((s, m))
    cost_path = np.empty((s, m))
    logw = np.zeros(m)
    cost = np.zeros(m)
    x = np.array(charges, dtype=float, order="C")
    dz, db = np.empty((m, n)), np.empty((m, n))
    dlogw, last = np.empty(m), np.empty(m)
    if control is not None:     # uncontrolled runs never read these two
        psi_dt, psi_sqdt = np.empty((m, n)), np.empty((m, n))
    finite = np.empty((m, n), dtype=bool)
    # a site shift is one op on the flat views; row seams are redone after
    xf, dzf = x.reshape(-1), dz.reshape(-1)
    k_block = max(1, min(n_steps, NOISE_BLOCK_BYTES // (8 * m * n)))
    fill = getattr(rng, "standard_normal", None)
    # with a generator per row, a block is a (K, M, N) view of an (M, K, N)
    # array, so that each row's slab is contiguous, as standard_normal needs
    blocks = [np.empty((k_block, m, n)) if fill is not None
              else np.empty((m, k_block, n)).transpose(1, 0, 2)
              for _ in range(2)]
    if fill is None:
        def fill(out):
            for r, gen in enumerate(rng):
                gen.standard_normal(out=out[:, r])
            return out
    outs = (blocks[c % 2][:min(k_block, n_steps - start)]
            for c, start in enumerate(range(0, n_steps, k_block)))

    def record(step_index):
        for pos in lookup.get(step_index, ()):
            for q, jv in enumerate(j_vals):
                pairings[q, pos] = x @ jv / n
            if states is not None:
                states[pos] = x
            logw_path[pos] = logw
            cost_path[pos] = cost

    record(0)
    k = 0
    piece = -1      # the slice whose terms psi..dcost hold
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(fill, out=next(outs))
        while pending is not None:
            block = pending.result()
            out = next(outs, None)
            pending = (None if out is None
                       else helper.submit(fill, out=out))
            for noise in block:
                if control is not None:
                    i = control.slice_of(k, n_steps)
                    if i != piece:
                        piece, psi = i, rows[i]
                        np.multiply(psi, dt, out=psi_dt)
                        np.multiply(psi, sqdt, out=psi_sqdt)
                        dcost = 0.5 * np.sum(psi ** 2) * dt
                # dz = ((N*N/2) * (fp[i-1] - fp[i])) * dt + N * (sqrt(dt)
                # * noise + psi*dt); x = (x + dz) - dz[i+1], in this order
                fp = np.asarray(pot.phi_prime(x), dtype=float).reshape(-1)
                np.subtract(fp[:-1], fp[1:], out=dzf[1:])
                np.subtract(fp[n - 1::n], fp[::n], out=dz[:, 0])
                dz *= 0.5 * n * n
                dz *= dt
                np.multiply(noise, sqdt, out=db)
                if control is not None:
                    db += psi_dt
                db *= n
                dz += db
                x += dz
                np.subtract(x[:, -1], dz[:, 0], out=last)
                xf[:-1] -= dzf[1:]
                x[:, -1] = last
                if not np.isfinite(x, out=finite).all():
                    raise NonFiniteState(f"state blew up at step {k + 1}")
                if control is not None:
                    np.multiply(noise, psi_sqdt, out=db)
                    np.sum(db, axis=1, out=dlogw)
                    np.negative(dlogw, out=dlogw)
                    dlogw -= dcost
                    logw += dlogw
                    cost += dcost
                k += 1
                record(k)
    if not (np.isfinite(logw).all() and np.isfinite(cost).all()):
        raise NonFiniteState("Girsanov log weight or control cost is not "
                             "finite")

    return ReplicaBatch(
        sample_times=sample_idx * dt,
        pairings=pairings,
        log_weights=logw,
        costs=cost,
        log_weight_path=logw_path,
        cost_path=cost_path,
        states=states,
    )


# -- trajectories ------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRecord:
    """Snapshots of one trajectory plus accumulated weight and cost.

    ``log_weight_path``/``cost_path`` hold the running totals at each
    sample time; the scalar fields are the end-of-horizon values.
    """

    sample_times: np.ndarray
    states: np.ndarray               # (S, N)
    girsanov_log_weight: float
    control_cost: float
    log_weight_path: np.ndarray      # (S,)
    cost_path: np.ndarray            # (S,)

    def state_at(self, index: int) -> LatticeState:
        return LatticeState(self.states[index], float(self.sample_times[index]))

    def to_csv(self, fh):
        header = ["t"] + [f"x_{i}" for i in range(self.states.shape[1])] \
            + ["cumulative_log_weight", "cumulative_cost"]
        write_csv(fh, header, np.column_stack((
            self.sample_times, self.states, self.log_weight_path,
            self.cost_path)))


def simulate_trajectory(pot: Potential, config: SimConfig,
                        initial: LatticeState,
                        control: ControlGrid | None = None,
                        sample_times: Sequence[float] | None = None,
                        rng: np.random.Generator | None = None
                        ) -> TrajectoryRecord:
    """Run one trajectory, recording snapshots at the requested times.

    This is the engine on a single replica (a (1, N) charge array, whose
    noise stream equals an (N,) draw).  Sample times snap to the nearest
    step-grid point.  With a fixed seed the output is bit-identical across
    runs; pass an explicit rng to manage replica streams externally.
    """
    if not isinstance(initial, LatticeState):
        initial = LatticeState(np.asarray(initial, dtype=float))
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _run(pot, config, initial.charges[None, :], control,
                sample_times, rng, record_states=True).trajectory(0)


# -- initial profiles ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProfileMeasure:
    """Initial product law: at position theta, the reference density
    tilted to the mean m0(theta), or a point mass at m0(theta).

    ``means`` is an increasing grid with its tilts lam*(m) and entropies
    h(m), read by linear interpolation; a mean outside it raises
    ValueError.  Its sampler keeps the table's tilt range but no CDF rows:
    each draw builds the rows it reads and drops them when it returns.  A
    point mass has no table, no sampler and entropy +inf.
    Site i realizes the cell average over ((i-1)/N, i/N] exactly, by
    drawing theta uniformly in the cell first.
    """

    mean_fn: Callable
    means: np.ndarray | None = None
    tilts: np.ndarray | None = None
    entropies: np.ndarray | None = None
    sampler: TiltedFamilySampler | None = None

    def _read(self, theta, column):
        """``column`` interpolated at m0(theta), inside the table."""
        m = np.asarray(self.mean_fn(theta), dtype=float)
        if not np.all((m >= self.means[0]) & (m <= self.means[-1])):
            raise ValueError(f"profile mean outside its tilt table "
                             f"[{self.means[0]:g}, {self.means[-1]:g}]")
        return np.interp(m, self.means, column)

    def sample(self, theta, rng):
        """One charge per entry of the position array theta."""
        if self.sampler is None:
            return np.asarray(self.mean_fn(theta), dtype=float)
        return self.sampler.sample(self._read(theta, self.tilts), rng)

    def entropy_density(self, theta):
        """Relative entropy against the reference at each position."""
        if self.sampler is None:
            return np.full(np.shape(theta), np.inf)
        return self._read(theta, self.entropies)


def equilibrium_profile(pot: Potential) -> ProfileMeasure:
    """Every site starts from the reference density itself: the zero tilt
    at the reference mean rho'(0), on the one-row sampler, whose row each
    draw builds."""
    m_eq = float(pot._tilted_stats(0.0)[1])
    return ProfileMeasure(lambda theta: np.full(np.shape(theta), m_eq),
                          np.array([m_eq]), np.zeros(1), np.zeros(1),
                          TiltedFamilySampler(pot, 0.0, 0.0))


def tilted_profile(pot: Potential, mean_fn: Callable) -> ProfileMeasure:
    """Exponentially tilted profile with prescribed mean m0(theta).

    The tilt solves rho'(lam(theta)) = m0(theta); its entropy density is
    the Legendre transform value h(m0(theta)).  The table spans the means
    that a 512-point probe of m0 sees, padded by 1 % of their range.
    """
    probe = np.linspace(0.0, 1.0, 512, endpoint=False)
    means = np.asarray(mean_fn(probe), dtype=float)
    mlo, mhi = float(np.min(means)), float(np.max(means))
    span = max(mhi - mlo, 1e-6)
    grid = np.linspace(mlo - 0.01 * span, mhi + 0.01 * span, 513)
    h_grid, lam_grid = pot.legendre_h_vec(grid)
    return ProfileMeasure(mean_fn, grid, lam_grid, h_grid, TiltedFamilySampler(
        pot, float(np.min(lam_grid)), float(np.max(lam_grid))))


def tilted_sine_profile(pot: Potential, amplitude: float) -> ProfileMeasure:
    return tilted_profile(
        pot, lambda theta: amplitude * np.sin(2.0 * np.pi * np.asarray(theta)))


def tilted_constant_profile(pot: Potential, level: float) -> ProfileMeasure:
    return tilted_profile(pot, lambda theta: np.full_like(
        np.asarray(theta, dtype=float), level))


def deterministic_profile(mean_fn: Callable) -> ProfileMeasure:
    """Point mass at m0(theta); infinite entropy against the reference."""
    return ProfileMeasure(mean_fn)


def _cell_positions(n_sites: int, shape, rng: np.random.Generator):
    """theta drawn uniformly in ((i-1)/N, i/N] for each site i."""
    i = np.arange(1, n_sites + 1, dtype=float)
    u = uniforms(rng, shape + (n_sites,))
    return (i - u) / n_sites


def sample_initial_from_profile(profile: ProfileMeasure, n_sites: int,
                                rng: np.random.Generator) -> LatticeState:
    """Draw one initial state whose site laws are the exact cell averages."""
    return LatticeState(sample_initial_matrix(profile, n_sites, 1, rng)[0])


def sample_initial_matrix(profile: ProfileMeasure, n_sites: int,
                          n_replicas: int,
                          rng: np.random.Generator) -> np.ndarray:
    """(n_replicas, n_sites) matrix of independent initial draws, from
    one Generator or, row r, from ``rng[r]`` alone."""
    theta = _cell_positions(n_sites, (n_replicas,), rng)
    return profile.sample(theta, rng)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def entropy_cost_of_profile(profile: ProfileMeasure, n_sites: int) -> float:
    """Mean per-site relative entropy of the cell-averaged initial law.

    Jensen bounds each site's entropy by the cell average of the entropy
    density, and the sum over sites is the circle integral; evaluated by
    per-cell Gauss-Legendre quadrature.
    """
    edges = np.arange(n_sites + 1) / n_sites
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 / n_sites
    theta = mid[:, None] + half * _GL_NODES[None, :]
    vals = np.asarray(profile.entropy_density(theta), dtype=float)
    return float(np.sum(vals @ _GL_WEIGHTS) * half)


# -- batched replicas ---------------------------------------------------------


def simulate_replicas(pot: Potential, config: SimConfig,
                      profile: ProfileMeasure,
                      n_replicas: int,
                      control: ControlGrid | None = None,
                      sample_times: Sequence[float] | None = None,
                      pairing_functions: Sequence[Callable] = (),
                      record_states: bool = False,
                      rng: np.random.Generator | Sequence | None = None
                      ) -> ReplicaBatch:
    """Run n_replicas trajectories in one vectorized sweep of the engine.

    All replicas share one Generator's stream (the initial matrix, then
    one (M, N) block per step), or replica r draws from ``rng[r]`` alone,
    bit for bit as ``simulate_trajectory`` on it.  Pairings against the
    given test functions are accumulated at the snapshot times so callers
    rarely need full states.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if not hasattr(rng, "standard_normal") and len(rng) != n_replicas:
        raise ValueError("need one generator per replica")
    # one draw for the batch, so a tilted profile's rows are built once
    charges = sample_initial_matrix(profile, config.n_sites, n_replicas, rng)
    return _run(pot, config, charges, control, sample_times, rng,
                pairing_functions, record_states)
