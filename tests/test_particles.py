"""Particle system: conservation, stability guard, Girsanov bookkeeping."""

import io
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gllab import (CFLViolation, ControlGrid, DensityField, LatticeState,
                   NonFiniteState, SimConfig, TrajectoryRecord,
                   deterministic_profile, entropy_cost_of_profile,
                   equilibrium_profile, quartic_potential,
                   sample_initial_from_profile, sample_initial_matrix,
                   simulate_replicas, simulate_trajectory, stable_dt,
                   steering_plan, tilted_constant_profile, tilted_profile,
                   tilted_sine_profile)
from gllab import particles
from gllab.particles import _cell_positions


def test_total_charge_is_conserved(gaussian, rng):
    n = 16
    cfg = SimConfig(n, 0.02, 2e-5, seed=1)
    init = rng.standard_normal(n)
    rec = simulate_trajectory(gaussian, cfg, init, sample_times=[0.0, 0.02],
                              rng=rng)
    assert abs(rec.states[-1].sum() - init.sum()) < 1e-10


def test_one_step_matches_hand_rolled_update(gaussian):
    # freeze the noise and reproduce the flux-form update by hand
    n = 6
    dt = 1e-4
    x = np.asarray([0.3, -0.2, 0.7, 0.1, -0.5, 0.0])
    noise = np.asarray([1.0, -1.0, 0.5, 0.0, 2.0, -0.3])

    class FixedRng:
        def standard_normal(self, out):
            assert out.shape == (1, 1, n)  # one step's (K, M, N) block
            out[...] = noise
            return out

    rec = simulate_trajectory(gaussian, SimConfig(n, dt, dt), x,
                              rng=FixedRng())
    dz = 0.5 * n * n * (np.roll(x, 1) - x) * dt + n * (math.sqrt(dt) * noise)
    expected = x + dz - np.roll(dz, -1)
    assert np.array_equal(rec.states[-1], expected)
    assert rec.state_at(1).time == pytest.approx(dt)


def test_stability_guard_rejects_large_dt(gaussian):
    cfg = SimConfig(32, 0.1, 1e-3)
    with pytest.raises(CFLViolation, match="stability"):
        cfg.validate_stability(gaussian)
    # the guarded dt passes
    SimConfig(32, 0.1, stable_dt(gaussian, 32)).validate_stability(gaussian)


def test_stable_dt_formula(gaussian):
    assert stable_dt(gaussian, 10) == pytest.approx(0.1 / 100)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4096), horizon=st.floats(1e-6, 10.0),
       dt=st.floats(1e-6, 10.0))
@example(n=4, horizon=1.4, dt=1.0)
@example(n=3, horizon=0.025, dt=0.1 / 9)   # gllab simulate's default dt
def test_no_step_is_longer_than_dt(n, horizon, dt):
    # the engine steps horizon / n_steps(), while validate_stability
    # checks dt: a longer step would pass the stability limit unchecked
    steps = SimConfig(n, horizon, dt).n_steps()
    assert horizon / steps <= dt * (1 + 1e-12)
    assert steps == 1 or horizon / (steps - 1) > dt


def test_girsanov_weight_is_normalized(gaussian):
    # E[exp(log dP/dPbar)] = 1 under the controlled law, exactly per step
    n, c, horizon = 4, 0.7, 0.2
    cfg = SimConfig(n, horizon, stable_dt(gaussian, n), seed=9)
    ctrl = ControlGrid(np.full((1, n), c), horizon)
    batch = simulate_replicas(gaussian, cfg, equilibrium_profile(gaussian),
                              4000, control=ctrl,
                              rng=np.random.default_rng(99))
    w = np.exp(batch.log_weights)
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - 1.0) < 4 * se
    # constant control makes the quadratic cost deterministic
    assert np.allclose(batch.costs, 0.5 * n * c * c * horizon, atol=1e-12)
    # entropy identity: mean(-log weight) equals mean cost
    se_l = batch.log_weights.std(ddof=1) / math.sqrt(w.size)
    assert abs(-batch.log_weights.mean() - batch.costs.mean()) < 4 * se_l


def test_controlled_step_increments(gaussian, rng):
    dt = 1e-4
    rec = simulate_trajectory(gaussian, SimConfig(8, dt, dt), np.zeros(8),
                              ControlGrid(np.full((1, 8), 0.3), dt), rng=rng)
    assert rec.states.shape == (2, 8)
    assert rec.control_cost == pytest.approx(0.5 * 8 * 0.09 * 1e-4)
    assert math.isfinite(rec.girsanov_log_weight)


def test_sample_times_snap_to_grid(gaussian, rng):
    cfg = SimConfig(8, 0.1, 1e-3, seed=0)
    rec = simulate_trajectory(gaussian, cfg, np.zeros(8),
                              sample_times=[0.0, 0.0503, 0.1], rng=rng)
    assert np.allclose(rec.sample_times, [0.0, 0.05, 0.1])


def test_trajectory_csv_roundtrip(gaussian, rng):
    cfg = SimConfig(4, 0.01, 1e-4, seed=2)
    rec = simulate_trajectory(gaussian, cfg, np.arange(4.0),
                              sample_times=[0.0, 0.005, 0.01], rng=rng)
    buf = io.StringIO()
    rec.to_csv(buf)
    buf.seek(0)
    header = buf.readline().strip().split(",")
    assert header == ["t", "x_0", "x_1", "x_2", "x_3",
                      "cumulative_log_weight", "cumulative_cost"]
    body = np.loadtxt(buf, delimiter=",")
    assert body.shape == (3, 7)
    assert np.allclose(body[:, 1:5], rec.states)
    assert np.allclose(body[0, 1:5], np.arange(4.0))


def test_state_at_returns_tagged_state(gaussian, rng):
    cfg = SimConfig(4, 0.01, 1e-3, seed=2)
    rec = simulate_trajectory(gaussian, cfg, np.zeros(4),
                              sample_times=[0.0, 0.01], rng=rng)
    st = rec.state_at(1)
    assert isinstance(st, LatticeState)
    assert st.time == pytest.approx(0.01)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_unstable_run_raises_nonfinite(gaussian, rng):
    # deliberately loosen the stability rule to force blow-up
    cfg = SimConfig(16, 40.0, 0.2, seed=0)
    threads = threading.active_count()
    # two-step noise blocks, so a draw is pending when the state blows up
    with mock.patch.object(particles, "DEFAULT_STABILITY_SAFETY", 999.0), \
            mock.patch.object(particles, "NOISE_BLOCK_BYTES", 2 * 8 * 16), \
            pytest.raises(NonFiniteState):
        simulate_trajectory(gaussian, cfg, np.ones(16), rng=rng)
    # the noise helper thread is joined on error and on a normal run
    assert threading.active_count() == threads
    simulate_trajectory(gaussian, SimConfig(16, 0.01, 1e-4), np.ones(16),
                        rng=rng)
    assert threading.active_count() == threads


def test_cell_positions_land_in_their_cells(rng):
    theta = _cell_positions(10, (500,), rng)
    i = np.arange(1, 11) / 10.0
    assert np.all(theta <= i[None, :])
    assert np.all(theta > i[None, :] - 0.1)


def test_equilibrium_profile_moments(gaussian, rng):
    prof = equilibrium_profile(gaussian)
    x = sample_initial_matrix(prof, 32, 2000, rng)
    assert x.shape == (2000, 32)
    se = 1.0 / math.sqrt(x.size)
    assert abs(x.mean()) < 5 * se
    assert abs(x.var() - 1.0) < 6 * se
    assert entropy_cost_of_profile(prof, 32) == pytest.approx(0.0, abs=1e-12)


def test_tilted_sine_profile_tracks_its_mean(gaussian, quartic, rng):
    n, (nodes, weights) = 64, np.polynomial.legendre.leggauss(8)
    theta = (np.arange(n)[:, None] + 0.5 * (1.0 + nodes)) / n
    for pot in (gaussian, quartic):
        prof = tilted_sine_profile(pot, 0.8)
        draws = prof.sample(np.full(20000, 0.25), rng)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.8) < 5 * se           # sin(pi/2) = 1
        # per-cell Gauss-Legendre of h(m0), with h solved at every node;
        # the profile reads h off its 513-point table by linear
        # interpolation, which is off by at most dm^2/8 max h''
        # (h'' = 1/Var of the tilted law) at table spacing dm, plus the
        # Legendre solves' round-off
        h = pot.legendre_h_vec(0.8 * np.sin(2.0 * np.pi * theta.ravel()))[0]
        direct = float(np.sum(h.reshape(theta.shape) @ weights) * 0.5 / n)
        dm = prof.means[1] - prof.means[0]
        bound = dm ** 2 / 8.0 / np.min(pot._tilted_stats(prof.tilts)[2])
        cost = entropy_cost_of_profile(prof, n)
        assert abs(cost - direct) <= bound + 1e-12
    # Gaussian entropy density h(m) = m^2/2 integrates to a^2/4
    assert entropy_cost_of_profile(tilted_sine_profile(gaussian, 0.8), n) \
        == pytest.approx(0.16, abs=1e-4)


def test_a_mean_outside_the_tilt_table_raises(gaussian, rng):
    # the 512-point probe of m0 misses this bump's peak, so the table ends
    # near m = 0.16; clamping the peak's mean 1 there would give an entropy
    # density of 0.0124 in place of h(1) = 1/2
    prof = tilted_profile(gaussian, lambda th: np.exp(
        -((np.asarray(th) - 0.3001) / 0.0005) ** 2))
    peak = np.array([0.2, 0.3001])
    with pytest.raises(ValueError, match="outside its tilt table"):
        prof.entropy_density(peak)
    with pytest.raises(ValueError, match="outside its tilt table"):
        prof.sample(peak, rng)
    assert prof.means[-1] < 0.2
    assert prof.entropy_density(peak[:1]) == pytest.approx(0.0, abs=1e-9)


def test_tilted_constant_profile(gaussian, rng):
    prof = tilted_constant_profile(gaussian, 0.6)
    x = sample_initial_from_profile(prof, 64, rng)
    assert x.n_sites == 64
    assert entropy_cost_of_profile(prof, 16) == pytest.approx(0.18, abs=1e-6)


def test_deterministic_profile_is_exact(gaussian, rng):
    prof = deterministic_profile(lambda th: 2.0 * np.asarray(th))
    x = sample_initial_matrix(prof, 4, 3, rng)
    # values are 2*theta with theta inside each cell
    assert np.all(x > 2.0 * (np.arange(4) / 4.0)[None, :] - 1e-12)
    assert math.isinf(entropy_cost_of_profile(prof, 4))


def test_replica_batch_shapes_and_pairings(gaussian, rng):
    cfg = SimConfig(8, 0.02, stable_dt(gaussian, 8), seed=5)
    fns = [lambda th: np.ones_like(np.asarray(th, dtype=float)),
           lambda th: np.sin(2.0 * np.pi * np.asarray(th))]
    batch = simulate_replicas(gaussian, cfg, equilibrium_profile(gaussian),
                              50, sample_times=[0.0, 0.01, 0.02],
                              pairing_functions=fns, record_states=True,
                              rng=rng)
    assert batch.pairings.shape == (2, 3, 50)
    assert batch.states.shape == (3, 50, 8)
    # recorded pairings match the recorded states
    theta = np.arange(1, 9) / 8.0
    want = batch.states @ np.sin(2.0 * np.pi * theta) / 8.0
    assert np.allclose(batch.pairings[1], want, atol=1e-12)
    # conservation holds replica-wise
    drift = batch.states[-1].sum(axis=1) - batch.states[0].sum(axis=1)
    assert np.max(np.abs(drift)) < 1e-10


_CONTROLS = st.one_of(
    st.none(),
    st.tuples(st.just("constant"), st.floats(-2.0, 2.0)),
    st.tuples(st.just("sine"), st.floats(-2.0, 2.0), st.integers(2, 6)))


def _control(spec, n, horizon):
    if spec is None:
        return None
    if spec[0] == "constant":
        return ControlGrid(np.full((1, n), spec[1]), horizon)
    amp, pieces = spec[1], spec[2]
    return ControlGrid.from_function(
        lambda t, th: amp * np.sin(2.0 * np.pi * (th + t / horizon)), pieces,
        n, horizon)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 24), steps=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1), spec=_CONTROLS)
def test_engine_single_replica_matches_trajectory(gaussian, n, steps, seed,
                                                  spec):
    dt = stable_dt(gaussian, n)
    horizon = steps * dt
    cfg = SimConfig(n, horizon, dt)
    ctrl = _control(spec, n, horizon)
    profile = equilibrium_profile(gaussian)
    times = np.arange(steps + 1) * dt
    batch = simulate_replicas(gaussian, cfg, profile, 1, ctrl, times,
                              record_states=True,
                              rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    initial = sample_initial_from_profile(profile, n, rng)
    rec = simulate_trajectory(gaussian, cfg, initial, ctrl, times, rng=rng)
    # one replica of the batch is the single trajectory, bit for bit
    assert np.array_equal(batch.states[:, 0], rec.states)
    assert batch.log_weights[0] == rec.girsanov_log_weight
    assert batch.costs[0] == rec.control_cost
    assert np.array_equal(batch.log_weight_path[:, 0], rec.log_weight_path)
    # the flux form conserves charge
    q = rec.states.sum(axis=1)
    assert np.max(np.abs(q - q[0])) <= 1e-10 * (1.0 + abs(q[0]))
    if ctrl is None:
        assert not np.any(rec.log_weight_path) and not np.any(rec.cost_path)


def _advance(pot, charges, dt, noise, psi):
    """Reference step: one (M, N) noise block, operations in the
    documented order, allocating as it goes."""
    n = charges.shape[-1]
    sqdt = math.sqrt(dt)
    fp = np.asarray(pot.phi_prime(charges), dtype=float)
    drift = 0.5 * n * n * (np.roll(fp, 1, axis=-1) - fp) * dt
    db = sqdt * noise
    if psi is not None:
        db = db + psi * dt
    dz = drift + n * db
    new = charges + dz - np.roll(dz, -1, axis=-1)
    if psi is None:
        return new, 0.0, 0.0
    cost = 0.5 * np.sum(psi ** 2, axis=-1) * dt
    logw = -np.sum(psi * sqdt * noise, axis=-1) - cost
    return new, logw, cost


def _serial(pot, x0, dt, steps, rng, psi_at):
    """Reference run: ``_advance`` once per step on one (M, N) draw, with
    control row ``psi_at(k)`` on step k; the states, log weights and costs
    after every step."""
    x, logw, cost = x0, np.zeros(len(x0)), np.zeros(len(x0))
    states, logws, costs = [x0], [logw], [cost]
    for k in range(steps):
        x, dlogw, dcost = _advance(pot, x, dt, rng.standard_normal(x0.shape),
                                   psi_at(k))
        logw, cost = logw + dlogw, cost + dcost
        states.append(x)
        logws.append(logw)
        costs.append(cost)
    return states, np.stack(logws), np.stack(costs)


def _site_control(ctrl, k, steps):
    """The row sites 1..N feel on step k of ``steps``: slice k K // steps,
    the one holding the step's exact start k T/steps, read at theta = i/N,
    which is column i mod N."""
    n = ctrl.j_cells
    return ctrl.values[k * ctrl.n_steps // steps, np.arange(1, n + 1) % n]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 300), n=st.integers(1, 24),
       steps=st.integers(1, 40), block_steps=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1), spec=_CONTROLS,
       sample_steps=st.lists(st.integers(0, 40), max_size=6))
@example(m=300, n=24, steps=40, block_steps=7, seed=1,
         spec=("sine", 1.5, 6), sample_steps=[3, 11, 40])
def test_run_matches_serial_reference(quartic, m, n, steps, block_steps,
                                      seed, spec, sample_steps):
    # quartic: phi' allocates, and a nonlinear drift moves more bits
    horizon = steps * stable_dt(quartic, n)
    cfg = SimConfig(n, horizon, stable_dt(quartic, n))
    dt = horizon / cfg.n_steps()         # the engine's step
    ctrl = _control(spec, n, horizon)
    idx = sorted({min(i, steps) for i in sample_steps} | {0, steps})
    jv = np.sin(2.0 * np.pi * (np.arange(1, n + 1) / n))
    x0 = np.random.default_rng(seed + 1).standard_normal((m, n))
    rng = np.random.default_rng(seed)
    # one byte short of block_steps + 1 steps: K = block_steps
    block_bytes = 8 * m * n * (block_steps + 1) - 1
    with mock.patch.object(particles, "NOISE_BLOCK_BYTES", block_bytes):
        batch = particles._run(
            quartic, cfg, x0, ctrl, np.asarray(idx) * dt, rng,
            [lambda th: np.sin(2.0 * np.pi * np.asarray(th))],
            record_states=True)
    ref_rng = np.random.default_rng(seed)
    states, logws, costs = _serial(
        quartic, x0, dt, steps, ref_rng,
        lambda k: None if ctrl is None else _site_control(ctrl, k, steps))
    assert np.array_equal(batch.states, np.stack(states)[idx])
    assert np.array_equal(batch.pairings[0],
                          [states[i] @ jv / n for i in idx])
    assert np.array_equal(batch.log_weight_path, logws[idx])
    assert np.array_equal(batch.cost_path, costs[idx])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_a_step_on_a_slice_boundary_takes_the_later_slice(gaussian):
    # with T = 0.01 in 9 steps, steps 3 and 6 start exactly on the slice
    # boundaries T/3 and 2T/3 of a 3-slice grid, while their float times
    # 3 dt and 6 dt lie one ulp below the float boundaries; the integer
    # rule gives each step the slice that holds its exact start
    n, horizon = 2, 0.01
    cfg = SimConfig(n, horizon, horizon / 9)
    dt = horizon / cfg.n_steps()
    grid = ControlGrid(np.repeat([[0.0], [1.0], [2.0]], n, axis=1), horizon)
    boundaries = np.linspace(0.0, horizon, 4)
    assert boundaries[1] - 3 * dt == np.spacing(boundaries[1])
    assert boundaries[2] - 6 * dt == np.spacing(boundaries[2])
    # the float rule (last boundary at or before k dt) keeps the earlier
    # slice on both steps
    assert [int(np.searchsorted(boundaries, k * dt, "right")) - 1
            for k in (3, 6)] == [0, 1]
    batch = particles._run(gaussian, cfg, np.zeros((1, n)), grid,
                           np.arange(10) * dt, np.random.default_rng(0))
    # slice r costs 0.5 * N * r^2 * dt per step
    used = np.diff(batch.cost_path[:, 0]) / (0.5 * n * dt)
    assert used == pytest.approx([0, 0, 0, 1, 1, 1, 4, 4, 4], abs=1e-9)
    assert list(grid.slice_of(np.arange(9), 9)) == [0, 0, 0, 1, 1, 1, 2, 2,
                                                    2]


def test_run_rejects_a_control_grid_of_another_shape(gaussian):
    cfg = SimConfig(4, 0.01, 1e-4)
    for grid in (ControlGrid(np.zeros((2, 3)), 0.01),
                 ControlGrid(np.zeros((2, 4)), 0.02)):
        with pytest.raises(ValueError, match="does not match config"):
            particles._run(gaussian, cfg, np.zeros((1, 4)), grid, None,
                           np.random.default_rng(0))


_PLANS = {}


def _parent_lookup(grid, t, theta):
    """``ControlGrid.lookup`` as it was before ``resample`` replaced it:
    slice int(t/dt + 1e-9), nearest node (theta = 1 wraps to node 0)."""
    kdx = min(int(t / grid.dt + 1e-9), grid.n_steps - 1)
    jdx = np.round(np.asarray(theta) * grid.j_cells).astype(int) \
        % grid.j_cells
    return grid.values[kdx, jdx]


def _parent_site_control(grid, n, steps, k):
    """The trend study's per-site control on step k: the parent's lookup
    on n slices at piece starts p T/n and at sites theta = (1..n)/n, the
    piece of step k being k n // steps, the one holding its exact start."""
    piece = k * n // steps
    return _parent_lookup(grid, piece * (grid.horizon / n),
                          np.arange(1, n + 1) / n)


def _steering_grid(pot, target, horizon):
    key = (pot, target, horizon)
    if key not in _PLANS:
        _PLANS[key] = steering_plan(pot, target, horizon,
                                    lambda th: np.sin(2.0 * np.pi * th))
    return _PLANS[key].control_grid


_GRIDS = st.one_of(
    st.builds(lambda k, j, horizon, seed: ControlGrid(
        np.random.default_rng(seed).standard_normal((k, j)), horizon),
        st.integers(1, 160), st.integers(1, 160),
        st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.3, 1.0 / 3.0]),
        st.integers(0, 2 ** 32 - 1)),
    st.tuples(st.sampled_from(["gaussian", "quartic"]),
              st.sampled_from([0.02, 0.05, 0.1, 0.3])))


@settings(max_examples=200, deadline=None)
@given(spec=_GRIDS, n=st.integers(1, 128), j_cells=st.integers(1, 128))
@example(spec=("gaussian", 0.3), n=32, j_cells=32)
@example(spec=("gaussian", 0.02), n=35, j_cells=35)
@example(spec=("quartic", 0.05), n=128, j_cells=96)
def test_resample_matches_the_parent_lookup(gaussian, quartic, spec, n,
                                            j_cells):
    grid = spec if isinstance(spec, ControlGrid) else _steering_grid(
        {"gaussian": gaussian, "quartic": quartic}[spec[0]], 0.27, spec[1])
    new = grid.resample(n, j_cells)
    old = ControlGrid.from_function(
        lambda t, th: _parent_lookup(grid, t, th), n, j_cells, grid.horizon)
    assert np.array_equal(new.values, old.values)
    assert new.horizon == old.horizon
    assert new.l2_norm_sq == old.l2_norm_sq


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), target=st.sampled_from([-0.3, 0.1, 0.27]),
       m=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
@example(n=64, target=0.27, m=3, seed=5)
@example(n=35, target=0.27, m=2, seed=7)
@example(n=55, target=0.27, m=2, seed=11)
def test_trend_study_embedding_is_bit_identical(gaussian, n, target, m,
                                                seed):
    # at T = 0.02, N = 35 and N = 55 have steps whose exact start is a
    # slice boundary while their float time is an ulp below it
    horizon = 0.02
    grid = _steering_grid(gaussian, target, horizon)
    cfg = SimConfig(n, horizon, stable_dt(gaussian, n))
    steps = cfg.n_steps()
    dt = horizon / steps
    x0 = np.random.default_rng(seed + 1).standard_normal((m, n))
    rng = np.random.default_rng(seed)
    # the embedding ldp_trend_study uses
    control = grid.resample(n, n)
    batch = particles._run(gaussian, cfg, x0, control,
                           np.arange(steps + 1) * dt, rng,
                           record_states=True)
    ref_rng = np.random.default_rng(seed)
    states, logws, costs = _serial(
        gaussian, x0, dt, steps, ref_rng,
        lambda k: _parent_site_control(grid, n, steps, k))
    assert np.array_equal(batch.states, np.stack(states))
    assert np.array_equal(batch.log_weight_path, logws)
    assert np.array_equal(batch.cost_path, costs)
    assert np.array_equal(batch.log_weights, logws[-1])
    assert np.array_equal(batch.costs, costs[-1])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 24), replicas=st.integers(1, 6),
       steps=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1),
       spec=_CONTROLS, block_steps=st.integers(0, 9))
@example(n=5, replicas=4, steps=12, seed=3, spec=("sine", 1.0, 3),
         block_steps=0)
def test_per_row_streams_match_serial_trajectories(gaussian, n, replicas,
                                                   steps, seed, spec,
                                                   block_steps):
    dt = stable_dt(gaussian, n)
    horizon = steps * dt
    cfg = SimConfig(n, horizon, dt)
    ctrl = _control(spec, n, horizon)
    profile = equilibrium_profile(gaussian)
    times = np.arange(steps + 1) * dt
    children = np.random.SeedSequence(seed).spawn(replicas)
    rngs = [np.random.default_rng(c) for c in children]
    # block_steps = 0: one step's (M, N) array exceeds the block, so every
    # block holds a single step
    block_bytes = max(1, 8 * replicas * n * (block_steps + 1) - 1)
    with mock.patch.object(particles, "NOISE_BLOCK_BYTES", block_bytes):
        batch = simulate_replicas(gaussian, cfg, profile, replicas, ctrl,
                                  times, record_states=True, rng=rngs)
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        initial = sample_initial_from_profile(profile, n, rng)
        rec = simulate_trajectory(gaussian, cfg, initial, ctrl, times,
                                  rng=rng)
        one = batch.trajectory(r)
        assert np.array_equal(one.states, rec.states)
        assert np.array_equal(one.log_weight_path, rec.log_weight_path)
        assert np.array_equal(one.cost_path, rec.cost_path)
        assert one.girsanov_log_weight == rec.girsanov_log_weight
        assert one.control_cost == rec.control_cost
        assert rngs[r].bit_generator.state == rng.bit_generator.state


def test_per_row_streams_draw_a_tilted_profile_in_one_sweep(tilt_builds):
    # eight generators, one draw: each row is built once for the batch,
    # and replica r starts where a draw from rng[r] alone starts
    pot = quartic_potential(1.0, 1.0)
    profile = tilted_sine_profile(pot, 0.8)
    dt = stable_dt(pot, 32)
    cfg = SimConfig(32, dt, dt)
    children = np.random.SeedSequence(5).spawn(8)
    built = tilt_builds(pot)
    batch = simulate_replicas(pot, cfg, profile, 8, sample_times=[0.0],
                              record_states=True,
                              rng=[np.random.default_rng(c) for c in children])
    assert len(built) == len(set(built)) > 2
    for r, child in enumerate(children):
        alone = sample_initial_from_profile(profile, 32,
                                            np.random.default_rng(child))
        assert batch.trajectory(r).states[0].tobytes() == \
            alone.charges.tobytes()


def test_per_row_streams_need_one_generator_per_row(gaussian):
    cfg = SimConfig(4, 1e-3, 1e-4)
    rngs = [np.random.default_rng(s) for s in range(2)]
    with pytest.raises(ValueError, match="one generator per"):
        simulate_replicas(gaussian, cfg, equilibrium_profile(gaussian), 3,
                          rng=rngs)


def _old_csv_row(values):
    """The per-value join the shared writer replaced."""
    return ",".join(f"{v:.17g}" for v in values) + "\n"


_EDGE_ROWS = np.array([
    [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308],
    [np.nan, np.inf, -np.inf, 3.0, -7.0, 2.0 ** 53],
    [0.1, 1.0 / 3.0, 2.2250738585072014e-308, 1e-300, 123456789.0, 1e16],
])


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(st.floats(), min_size=3, max_size=3),
                     min_size=1, max_size=5))
def test_write_csv_matches_the_per_value_join(rows):
    rows = np.array(rows, dtype=float)
    for table in (rows, _EDGE_ROWS):
        buf = io.StringIO()
        particles.write_csv(buf, [f"c{i}" for i in range(table.shape[1])],
                            table)
        assert buf.getvalue() == ",".join(
            f"c{i}" for i in range(table.shape[1])) + "\n" + "".join(
            _old_csv_row(row) for row in table)


def test_csv_writers_match_the_per_value_join():
    t = np.array([0.0, 0.5, 1.0])
    states = np.concatenate([_EDGE_ROWS[:, :4], [[4.0, -0.0, 1e-320, 7.0]]])
    rec = TrajectoryRecord(t, states[:3], 0.0, 0.0, _EDGE_ROWS[:, 4],
                           _EDGE_ROWS[:, 5])
    field = DensityField(_EDGE_ROWS, 2.0)
    expected = {
        "trajectory": "".join(_old_csv_row([t[k], *rec.states[k],
                                            rec.log_weight_path[k],
                                            rec.cost_path[k]])
                              for k in range(3)),
        "field": "".join(_old_csv_row([tk, *row]) for tk, row in
                         zip(field.times, field.values)),
    }
    for name, write in (("trajectory", rec.to_csv), ("field", field.to_csv)):
        buf = io.StringIO()
        write(buf)
        assert buf.getvalue().split("\n", 1)[1] == expected[name], name
