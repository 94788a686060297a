"""Estimators for exponential functionals and their variational bounds."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gllab import (ControlGrid, DegenerateEstimate, ExperimentReport,
                   Functional, SimConfig, TrendRow, entropy_cost_of_profile,
                   equilibrium_profile, gaussian_potential,
                   importance_sampled_expectation, laplace_functional_mc,
                   ldp_trend_study, sine_target_field, simulate_replicas,
                   stable_dt, steering_plan, tilted_sine_profile, trend_gaps,
                   variational_upper_bound)
from gllab.potential import FAMILY_TILTS


def _sin_fn(th):
    return np.sin(2.0 * np.pi * np.asarray(th))


def _embed(grid, n_sites, n_pieces=None):
    return grid.resample(n_pieces or n_sites, n_sites)


def _quadratic_functional(a=8.0, center=0.0, bound=64.0):
    return Functional(kind="pairing_at_end", test_function=_sin_fn,
                      transform=lambda v: a * (np.asarray(v) - center) ** 2,
                      bound=bound)


def test_laplace_estimator_matches_gaussian_closed_form(gaussian):
    # stationary start: the end pairing is centered normal with variance
    # sigma_x^2/(2N); the Euler chain inflates sigma_x^2 to 1 + dt N^2/2
    n, a, horizon, m = 8, 8.0, 0.1, 40000
    dt = 2e-4
    cfg = SimConfig(n, horizon, dt, seed=21)
    rep = laplace_functional_mc(gaussian, _quadratic_functional(a), cfg,
                                equilibrium_profile(gaussian), m,
                                rng=np.random.default_rng(17))
    sigma_x2 = 1.0 + dt * n * n / 2.0
    sigma_s2 = sigma_x2 / (2.0 * n)
    oracle = math.log1p(2.0 * n * a * sigma_s2) / (2.0 * n)
    assert rep.estimate == pytest.approx(oracle,
                                         abs=4 * rep.std_error + 1e-3)
    assert rep.method == "laplace_mc"
    assert rep.replicas == m


def test_laplace_below_plain_mean(gaussian):
    # Jensen: -(1/N) log E exp(-N F) <= E F
    fun = _quadratic_functional()
    cfg = SimConfig(8, 0.05, stable_dt(gaussian, 8), seed=4)
    prof = equilibrium_profile(gaussian)
    lap = laplace_functional_mc(gaussian, fun, cfg, prof, 5000,
                                rng=np.random.default_rng(1))
    plain = importance_sampled_expectation(gaussian, fun, None, cfg, prof,
                                           5000, rng=np.random.default_rng(2))
    slack = 4.0 * (lap.std_error + plain.std_error)
    assert lap.estimate <= plain.estimate + slack


def test_importance_sampling_agrees_with_plain_mc(gaussian):
    # the reweighting identity is exact for the discrete chain, so both
    # estimators target the same number
    n, horizon = 8, 0.1
    fun = Functional(kind="pairing_at_end", test_function=_sin_fn,
                     transform=lambda v: np.exp(-4.0 * (np.asarray(v)
                                                        - 0.3) ** 2),
                     bound=2.0)
    cfg = SimConfig(n, horizon, stable_dt(gaussian, n), seed=8)
    prof = equilibrium_profile(gaussian)
    plan = steering_plan(gaussian, 0.3, horizon, _sin_fn)
    ctrl = _embed(plan.control_grid, n)
    plain = importance_sampled_expectation(gaussian, fun, None, cfg, prof,
                                           40000,
                                           rng=np.random.default_rng(5))
    tilted = importance_sampled_expectation(gaussian, fun, ctrl, cfg, prof,
                                            40000,
                                            rng=np.random.default_rng(6))
    slack = 4.0 * (plain.std_error + tilted.std_error)
    assert tilted.estimate == pytest.approx(plain.estimate, abs=slack)


def test_variational_bound_dominates_laplace(gaussian):
    n, horizon = 8, 0.1
    fun = _quadratic_functional(center=0.25)
    cfg = SimConfig(n, horizon, stable_dt(gaussian, n), seed=12)
    lap = laplace_functional_mc(gaussian, fun, cfg,
                                equilibrium_profile(gaussian), 20000,
                                rng=np.random.default_rng(3))
    plan = steering_plan(gaussian, 0.25, horizon, _sin_fn)
    ctrl = _embed(plan.control_grid, n)
    bound = variational_upper_bound(gaussian, fun, ctrl, plan.profile, cfg,
                                    4000, rng=np.random.default_rng(4))
    slack = 4.0 * (lap.std_error + bound.std_error)
    assert bound.estimate >= lap.estimate - slack
    assert bound.method == "variational_bound"


@pytest.fixture(scope="module")
def profiles(gaussian):
    return {"equilibrium": equilibrium_profile(gaussian),
            "tilted": tilted_sine_profile(gaussian, 0.3)}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2 ** 32 - 1),
       m=st.integers(1, 24), kind=st.sampled_from(["pairing_at_end",
                                                     "sup_pairing"]),
       scale=st.floats(0.5, 40.0),
       sine=st.none() | st.tuples(st.floats(-3.0, 3.0),
                                  st.floats(0.0, 2.0 * math.pi),
                                  st.integers(1, 4)),
       profile=st.sampled_from(["equilibrium", "tilted"]))
def test_estimators_reduce_one_batch_bit_for_bit(gaussian, profiles, n, seed,
                                                 m, kind, scale, sine,
                                                 profile):
    # each estimator is its formula applied to the batch that
    # simulate_replicas draws from the same stream, to the last bit
    fun = Functional(kind=kind, test_function=_sin_fn,
                     transform=lambda v: scale * (np.asarray(v) - 0.1) ** 2,
                     bound=64.0)
    horizon = 0.01
    cfg = SimConfig(n, horizon, stable_dt(gaussian, n), seed=seed)
    prof = profiles[profile]
    control = None
    if sine is not None:
        amp, phase, slices = sine
        control = ControlGrid.from_function(
            lambda t, th: amp * np.sin(2.0 * np.pi * th + phase + t),
            slices, n, horizon)
    times = ([0.0, horizon] if kind == "pairing_at_end"
             else list(np.linspace(0.0, horizon, 9)))

    def batch(ctrl):
        b = simulate_replicas(gaussian, cfg, prof, m, control=ctrl,
                              sample_times=times, pairing_functions=[_sin_fn],
                              rng=np.random.default_rng(seed))
        return b, fun.from_pairings(b.pairings[0])

    def mean_se(x):
        se = float(np.std(x, ddof=1)) / math.sqrt(m) if m > 1 else 0.0
        return float(np.mean(x)), se

    def got(report):
        return report.estimate, report.std_error

    _, f = batch(None)
    a = -n * f
    shift = float(np.max(a))
    w = np.exp(a - shift)
    mean_w = float(np.mean(w))
    sd_w = float(np.std(w, ddof=1)) if m > 1 else 0.0
    lap = laplace_functional_mc(gaussian, fun, cfg, prof, m,
                                rng=np.random.default_rng(seed))
    assert got(lap) == (-(shift + math.log(mean_w)) / n,
                        sd_w / (math.sqrt(m) * mean_w * n))

    b, g = batch(control)
    imp = importance_sampled_expectation(gaussian, fun, control, cfg, prof, m,
                                         rng=np.random.default_rng(seed))
    assert got(imp) == mean_se(g * np.exp(b.log_weights))

    mean, se = mean_se(b.costs / n + g)
    bound = variational_upper_bound(gaussian, fun, control, prof, cfg, m,
                                    rng=np.random.default_rng(seed))
    assert got(bound) == (entropy_cost_of_profile(prof, n) + mean, se)


def test_functional_clamps_to_its_bound():
    fun = Functional(kind="pairing_at_end", test_function=_sin_fn,
                     transform=lambda v: 1e9 * np.asarray(v), bound=5.0)
    vals = fun.from_pairings(np.asarray([[0.0, -1.0, 1.0]]))
    assert np.allclose(vals, [0.0, -5.0, 5.0])
    with pytest.raises(ValueError):
        Functional(kind="pairing_at_end", test_function=_sin_fn,
                   transform=lambda v: v, bound=-1.0)
    with pytest.raises(ValueError):
        Functional(kind="nope", test_function=_sin_fn,
                   transform=lambda v: v, bound=1.0)


def test_sup_functional_uses_the_whole_path():
    fun = Functional(kind="sup_pairing", test_function=_sin_fn,
                     transform=lambda v: np.asarray(v), bound=10.0)
    pairings = np.asarray([[0.1, 0.0], [0.7, -0.2], [0.3, -0.1]])
    assert np.allclose(fun.from_pairings(pairings), [0.7, 0.0])
    # a deterministic path is one replica
    assert fun.from_pairings(np.asarray([[0.1], [0.9], [0.2]]))[0] == \
        pytest.approx(0.9)


def test_nan_functional_raises_degenerate(gaussian):
    fun = Functional(kind="pairing_at_end", test_function=_sin_fn,
                     transform=lambda v: np.full_like(np.asarray(v), np.nan),
                     bound=1.0)
    cfg = SimConfig(4, 0.01, stable_dt(gaussian, 4), seed=0)
    with pytest.raises(DegenerateEstimate):
        laplace_functional_mc(gaussian, fun, cfg,
                              equilibrium_profile(gaussian), 10,
                              rng=np.random.default_rng(0))


def test_sine_target_field_hits_its_pairing():
    field = sine_target_field(0.3, horizon=0.1, j_cells=64)
    theta = np.arange(64) / 64.0
    pairing = field.values[-1] @ _sin_fn(theta) / 64.0
    assert pairing == pytest.approx(0.3, abs=1e-12)
    start = field.values[0] @ _sin_fn(theta) / 64.0
    assert start == pytest.approx(0.3 * math.exp(-2.0 * math.pi ** 2 * 0.1),
                                  rel=1e-9)


def test_steering_plan_rate_matches_quadratic_tail(gaussian):
    # the exponential-in-time sine deviation has total rate target^2 for
    # the quadratic potential, matching the stationary Gaussian tail
    plan = steering_plan(gaussian, 0.3, 0.1, _sin_fn)
    assert plan.rate_total == pytest.approx(0.09, rel=5e-3)
    assert plan.limit_pairing[-1] == pytest.approx(0.3, abs=1e-9)
    assert plan.control_grid.j_cells == 64


def test_simple_control_embedding_samples_grid(gaussian):
    plan = steering_plan(gaussian, 0.2, 0.05, _sin_fn)
    ctrl = _embed(plan.control_grid, 8, n_pieces=5)
    assert ctrl.values.shape == (5, 8)
    assert ctrl.horizon == pytest.approx(0.05)
    # column j sits at theta = j/N, which is grid column j * J/N
    grid = plan.control_grid
    assert np.array_equal(ctrl.values[0], grid.values[0, ::64 // 8])
    # slice k starts at k T/5, inside grid slice k K // 5
    for k in range(5):
        assert np.array_equal(ctrl.values[k],
                              grid.values[k * grid.n_steps // 5, ::64 // 8])


def test_trend_study_shapes_and_sink(gaussian):
    fun = _quadratic_functional(center=0.2, bound=16.0)
    sink = []
    rows = ldp_trend_study(gaussian, fun, [4, 8], horizon=0.05,
                           n_replicas=300, targets=[0.15, 0.2], seed=5,
                           report_sink=sink)
    assert [r.n_sites for r in rows] == [4, 8]
    assert all(isinstance(rep, ExperimentReport) for rep in sink)
    assert len(sink) == 2 * (1 + 2)      # per N: laplace + one bound each
    gaps = trend_gaps(rows)
    assert gaps.shape == (2,)
    assert rows[0].limit_value == rows[1].limit_value
    assert rows[0].limit_value <= min(r.variational for r in rows) + 0.5
    # csv row format
    assert len(rows[0].csv_row().split(",")) == 6


def test_trend_study_with_workers_matches_serial(gaussian):
    fun = _quadratic_functional(center=0.2, bound=16.0)
    serial = ldp_trend_study(gaussian, fun, [4], horizon=0.05,
                             n_replicas=200, targets=[0.15, 0.2], seed=7)
    threaded = ldp_trend_study(gaussian, fun, [4], horizon=0.05,
                               n_replicas=200, targets=[0.15, 0.2], seed=7,
                               workers=2)
    assert serial[0].laplace == pytest.approx(threaded[0].laplace)
    assert serial[0].variational == pytest.approx(threaded[0].variational)


def _size_major_trend_study(pot, fun, n_list, horizon, n_replicas, targets,
                            seed):
    """The trend study in N-major order: every steering plan first, then
    per N the Laplace batch and one bound per target, each batch from its
    own child of the N's seed."""
    plans = [steering_plan(pot, v, horizon, fun.test_function)
             for v in targets]
    limit = min(fun.from_pairings(p.limit_pairing[:, None])[0] + p.rate_total
                for p in plans)
    rows, reports = [], []
    sizes = zip(n_list, np.random.SeedSequence(seed).spawn(len(n_list)))
    for n, child in sizes:
        streams = child.spawn(1 + len(plans))
        config = SimConfig(n, horizon, stable_dt(pot, n), seed=seed)
        lap = laplace_functional_mc(pot, fun, config, equilibrium_profile(pot),
                                    n_replicas,
                                    rng=np.random.default_rng(streams[0]))
        bounds = [variational_upper_bound(
            pot, fun, p.control_grid.resample(n, n), p.profile, config,
            n_replicas, rng=np.random.default_rng(s))
            for p, s in zip(plans, streams[1:])]
        best = min(bounds, key=lambda r: r.estimate)
        reports += [lap] + bounds
        rows.append(TrendRow(n, lap.estimate, lap.std_error, best.estimate,
                             best.std_error, limit))
    return rows, reports


@pytest.mark.parametrize("workers", [1, 2])
def test_trend_study_matches_the_size_major_order(gaussian, workers):
    fun = _quadratic_functional(center=0.2, bound=16.0)
    args = (gaussian, fun, [4, 8], 0.05, 64, [0.1, 0.15, 0.2])
    ref_rows, ref_reports = _size_major_trend_study(*args, seed=13)
    sink = []
    rows = ldp_trend_study(*args, seed=13, workers=workers, report_sink=sink)
    assert rows == ref_rows

    def timeless(reports):
        return [dataclasses.replace(r, wall_time=0.0) for r in reports]

    assert timeless(sink) == timeless(ref_reports)


def test_trend_study_memory_does_not_grow_with_the_family():
    # the study keeps one member's tilted profile alive at a time, a
    # profile holds no CDF rows, and a draw at most three: after a warm-up
    # call has built the envelope chunks, a study peaks well below one
    # profile's 129 rows however many targets it has
    fun = _quadratic_functional(center=0.2, bound=16.0)

    def peak(targets):
        pot = gaussian_potential()
        ldp_trend_study(pot, fun, [4], 0.05, 16, targets, seed=3)
        tracemalloc.start()
        try:
            ldp_trend_study(pot, fun, [4], 0.05, 16, targets, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_profile = FAMILY_TILTS * gaussian_potential().quadrature.node_count * 8
    six = peak([0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
    two = peak([0.05, 0.1])
    assert six - two < one_profile
    assert six < 0.5 * one_profile and two < 0.5 * one_profile


def test_a_finished_trend_study_leaves_no_tilt_rows():
    pot = gaussian_potential()
    ldp_trend_study(pot, _quadratic_functional(center=0.2, bound=16.0), [4],
                    0.05, 16, [0.1, 0.2], seed=3)
    assert len(pot._tilt_tables) == 0
