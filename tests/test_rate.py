"""Action decomposition: initial entropy plus minimal dynamic cost."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gllab import (ControlGrid, DensityField, EnvelopeTable,
                   RateDecomposition, cfl_time_steps, gaussian_potential,
                   initial_cost, minimal_control, rate, sine_target_field,
                   solve_controlled_pde)
from gllab.rate import _defect
from oracles import dynamic_cost_via_seminorm, h_minus_one_seminorm


def _grid(j):
    return np.arange(j) / j


def test_constant_path_costs_only_the_initial_entropy(gaussian):
    # m == 1 held fixed solves the equation with u = 0, so the rate is
    # the Gaussian entropy h(1) = 1/2 exactly
    vals = np.ones((40, 16))
    field = DensityField(vals, horizon=0.01)
    dec = rate(gaussian, field)
    assert dec.feasible
    assert dec.dynamic_cost == pytest.approx(0.0, abs=1e-12)
    assert dec.total == pytest.approx(0.5, abs=1e-6)


def test_uncontrolled_heat_flow_has_no_dynamic_cost(gaussian):
    j = 64
    field = solve_controlled_pde(gaussian, 0.8 * np.sin(2 * np.pi * _grid(j)),
                                 horizon=0.05, j_cells=j)
    dec = rate(gaussian, field)
    assert dec.feasible
    assert dec.dynamic_cost < 1e-12
    assert dec.total == pytest.approx(0.16, abs=2e-3)


def test_controlled_round_trip_recovers_the_control(gaussian):
    # drive with a known gradient-form control, then ask the rate
    # machinery for the minimal control of the resulting path
    j, horizon = 64, 0.04
    steps = cfl_time_steps(gaussian, lambda th: np.ones_like(th), j, horizon)
    u = ControlGrid.from_function(
        lambda t, th: 0.8 * np.cos(2.0 * np.pi * th), steps, j, horizon)
    m0 = 0.3 * np.sin(2.0 * np.pi * _grid(j))
    field = solve_controlled_pde(gaussian, m0, u, horizon=horizon, j_cells=j)

    recovered, feasible = minimal_control(gaussian, field)
    assert feasible
    err = np.max(np.abs(recovered.values - u.values))
    assert err < 5e-3
    dec = rate(gaussian, field)
    assert dec.dynamic_cost == pytest.approx(0.5 * u.l2_norm_sq, rel=2e-2)
    assert dec.total == pytest.approx(
        initial_cost(gaussian, m0) + 0.5 * u.l2_norm_sq, rel=2e-2)


def test_mass_creating_path_is_infeasible(gaussian):
    times = 30
    vals = (1.0 + np.linspace(0.0, 1.0, times + 1))[:, None] * np.ones(16)
    field = DensityField(vals, horizon=0.1)
    dec = rate(gaussian, field)
    assert not dec.feasible
    assert math.isinf(dec.total)
    assert dec.minimal_control is None


def test_unattainable_initial_slice_is_infeasible(gaussian):
    vals = np.full((10, 8), 100.0)
    dec = rate(gaussian, DensityField(vals, horizon=0.01))
    assert not dec.feasible
    assert math.isinf(dec.total)


def test_rate_of_a_path_whose_padding_is_unresolvable(gaussian):
    # any padding of the field's range (-6, 6) would pass what the
    # Gaussian's quadrature resolves; the defect reads only the chunks of
    # the range itself.  The Gaussian's equation is linear, so both costs
    # scale with the square of the amplitude
    small = rate(gaussian, sine_target_field(0.5, 0.05, 32, 200))
    large = rate(gaussian, sine_target_field(3.0, 0.05, 32, 200))
    assert large.feasible and math.isfinite(large.total)
    scale = (3.0 / 0.5) ** 2
    assert large.initial_cost == pytest.approx(scale * small.initial_cost,
                                               rel=1e-9)
    assert large.dynamic_cost == pytest.approx(scale * small.dynamic_cost,
                                               rel=1e-9)


def test_seminorm_oracles():
    th = _grid(128)
    got = h_minus_one_seminorm(np.cos(2.0 * np.pi * th))
    assert got == pytest.approx(1.0 / (2.0 * math.pi * math.sqrt(2.0)),
                                abs=1e-12)
    two = np.sin(2.0 * np.pi * th) + np.sin(4.0 * np.pi * th)
    want = math.sqrt(1.0 / (8.0 * math.pi ** 2) + 1.0 / (32.0 * math.pi ** 2))
    assert h_minus_one_seminorm(two) == pytest.approx(want, abs=1e-12)


def test_seminorm_rejects_nonzero_mean():
    with pytest.raises(ValueError, match="not zero"):
        h_minus_one_seminorm(np.ones(32))


def test_seminorm_route_agrees_with_antiderivative_route(gaussian):
    # same dynamic cost through two independent computations
    j, horizon = 64, 0.04
    steps = cfl_time_steps(gaussian, lambda th: np.ones_like(th), j, horizon)
    u = ControlGrid.from_function(
        lambda t, th: 0.8 * np.cos(2.0 * np.pi * th)
        + 0.3 * np.sin(4.0 * np.pi * th), steps, j, horizon)
    m0 = 0.3 * np.sin(2.0 * np.pi * _grid(j))
    field = solve_controlled_pde(gaussian, m0, u, horizon=horizon, j_cells=j)
    via_control = rate(gaussian, field).dynamic_cost
    via_seminorm = dynamic_cost_via_seminorm(gaussian, field)
    # routes differ by the face-averaging factor cos(pi k dtheta)^2 on
    # the highest active mode, about 0.2 percent at this resolution
    assert via_seminorm == pytest.approx(via_control, rel=1e-2)
    assert via_seminorm == pytest.approx(0.5 * u.l2_norm_sq, rel=2e-2)


def test_csv_row_shape():
    dec = RateDecomposition(0.25, None, 0.5, 0.75, True)
    assert RateDecomposition.CSV_HEADER.count(",") == 3
    row = dec.csv_row().split(",")
    assert len(row) == 4
    assert row[3] == "true"
    assert float(row[0]) == 0.25


def _defect_by_rows(pot, field):
    """The defect one time slice at a time, as ``_defect`` computed it
    before it made one table lookup over the whole field; each slice reads
    the envelope through a view of its own range."""
    vals = field.values
    dt, dth = field.dt, field.dtheta
    g = np.empty((field.n_steps, field.j_cells))
    for k in range(field.n_steps):
        hm = EnvelopeTable(pot, np.min(vals[k]), np.max(vals[k]))(vals[k])
        lap = np.roll(hm, -1) - 2.0 * hm + np.roll(hm, 1)
        g[k] = (vals[k + 1] - vals[k]) / dt - 0.5 * lap / dth ** 2
    return g


@settings(max_examples=25, deadline=None)
@given(j=st.integers(1, 40), n_steps=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_vectorised_defect_matches_rows(gaussian, quartic, j, n_steps, seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.5, 1.5, (n_steps + 1, j))
    field = DensityField(vals, horizon=rng.uniform(0.01, 1.0))
    for pot in (gaussian, quartic):
        assert np.array_equal(_defect(pot, field),
                              _defect_by_rows(pot, field))


def test_vectorised_defect_matches_rows_on_a_solved_path(gaussian):
    j = 32
    steps = cfl_time_steps(gaussian, lambda th: np.ones_like(th), j, 0.02)
    u = ControlGrid.from_function(
        lambda t, th: 0.8 * np.sin(2.0 * np.pi * th) * (1.0 + t), steps, j,
        0.02)
    field = solve_controlled_pde(gaussian, 0.7 * np.cos(2.0 * np.pi
                                                       * _grid(j)), u)
    assert np.array_equal(_defect(gaussian, field),
                          _defect_by_rows(gaussian, field))


def test_rate_of_a_solved_path_reuses_the_solver_table():
    # the heat flow keeps the field inside m0's range, so the rate defect
    # reads only chunks of the potential's table that the solver built
    pot = gaussian_potential()
    j = 32
    m0 = 0.9 * np.cos(2.0 * np.pi * _grid(j)) + 0.4
    field = solve_controlled_pde(pot, m0, horizon=0.02, j_cells=j)
    built = set(pot._chunks)
    assert built == set(range(-2, 6))       # [-0.5, 1.3] in quarter units
    dec = rate(pot, field)
    assert dec.feasible
    assert set(pot._chunks) == built
