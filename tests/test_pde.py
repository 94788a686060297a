"""Finite-volume solver for the nonlinear diffusion with transport term."""

import io
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from gllab import (CFLViolation, ControlGrid, DensityField, EnvelopeTable,
                   NonFiniteField, cfl_time_steps, contraction_gap,
                   control_l2_distance, d_star, path_from_density_slices,
                   quartic_potential, solve_controlled_pde, write_field_csv)
from gllab.pde import _stable_dt
from oracles import weak_form_residual


def _sine(j):
    return np.sin(2.0 * np.pi * np.arange(j) / j)


def test_heat_mode_decay(gaussian):
    # quadratic potential: the equation is the half-speed heat equation
    # and the first mode decays like exp(-2 pi^2 t)
    j, horizon = 128, 0.05
    field = solve_controlled_pde(gaussian, _sine(j), horizon=horizon,
                                 j_cells=j)
    expected = math.exp(-2.0 * math.pi ** 2 * horizon) * _sine(j)
    assert np.max(np.abs(field.values[-1] - expected)) < 2.5e-4


def test_spatial_convergence_is_second_order(gaussian):
    errs = []
    for j in (32, 64):
        field = solve_controlled_pde(gaussian, _sine(j), horizon=0.02,
                                     j_cells=j)
        expected = math.exp(-2.0 * math.pi ** 2 * 0.02) * _sine(j)
        errs.append(np.max(np.abs(field.values[-1] - expected)))
    order = math.log2(errs[0] / errs[1])
    assert order > 1.8


def test_mass_is_conserved_under_control(gaussian, rng):
    j = 64
    u = ControlGrid.from_function(
        lambda t, th: 0.7 * np.cos(2.0 * np.pi * th) + 0.2 * np.sin(
            4.0 * np.pi * th + t),
        n_steps=cfl_time_steps(gaussian, lambda th: 0.5 * np.ones_like(th),
                               j, 0.03),
        j_cells=j, horizon=0.03)
    m0 = 0.5 + 0.3 * np.cos(2.0 * np.pi * np.arange(j) / j)
    field = solve_controlled_pde(gaussian, m0, u, horizon=0.03, j_cells=j)
    masses = field.values.mean(axis=1)
    assert np.max(np.abs(masses - masses[0])) < 1e-13


def test_a_control_fixes_the_grid_and_the_step_count_is_honoured(gaussian):
    # a 40-slice control marched in 80 steps: step k reads slice k // 2
    j, horizon = 16, 0.01
    u = ControlGrid(np.random.default_rng(5).standard_normal((40, j)),
                    horizon)
    field = solve_controlled_pde(gaussian, _sine(j), u, n_steps=80)
    per_step = ControlGrid(np.repeat(u.values, 2, axis=0), horizon)
    assert field.n_steps == 80
    assert np.array_equal(field.values,
                          solve_controlled_pde(gaussian, _sine(j),
                                               per_step).values)
    assert np.array_equal(solve_controlled_pde(
        gaussian, _sine(j), u, horizon=horizon, j_cells=j).values,
        solve_controlled_pde(gaussian, _sine(j), u).values)
    # a horizon or j_cells that disagrees with the control is an error,
    # as is a step count below one
    for kwargs, name in ((dict(horizon=5.0), "horizon=5.0"),
                         (dict(j_cells=99), "j_cells=99"),
                         (dict(n_steps=0), "n_steps=0"),
                         (dict(n_steps=-3), "n_steps=-3")):
        with pytest.raises(ValueError, match=name):
            solve_controlled_pde(gaussian, _sine(j), u, **kwargs)
        with pytest.raises(ValueError, match=name):
            write_field_csv(io.StringIO(), gaussian, _sine(j), u, **kwargs)


def test_explicit_step_count_must_respect_cfl(gaussian):
    with pytest.raises(CFLViolation):
        solve_controlled_pde(gaussian, _sine(64), horizon=0.05, j_cells=64,
                             n_steps=10)


def test_cfl_time_steps_scales_with_resolution(gaussian):
    m0 = lambda th: np.sin(2.0 * np.pi * np.asarray(th))
    k64 = cfl_time_steps(gaussian, m0, 64, 0.05)
    k128 = cfl_time_steps(gaussian, m0, 128, 0.05)
    assert 3.5 < k128 / k64 < 4.5
    # Gaussian curvature is 1, so the bound is safety * dtheta^2
    assert k64 == math.ceil(0.05 / (0.5 / 64 ** 2))


def test_control_grid_norm_and_faces(gaussian):
    vals = np.full((5, 8), 2.0)
    grid = ControlGrid(vals, horizon=0.1)
    assert grid.l2_norm_sq == pytest.approx(4.0 * 0.1)
    assert grid.dt == pytest.approx(0.02)
    assert grid.dtheta == pytest.approx(0.125)
    # from m = 0 (so H(m) = 0 on the Gaussian) one step moves only the
    # control flux: face j + 1/2 carries the centred average of cells j and
    # j + 1, wrapping from the last cell to cell 0
    row = np.arange(8.0)
    g2 = ControlGrid(row[None, :], horizon=1e-3)
    faces = 0.5 * (row + np.roll(row, -1))
    assert faces[0] == 0.5 and faces[-1] == 3.5
    step = solve_controlled_pde(gaussian, np.zeros(8), g2).values
    assert step[1] == pytest.approx(-(1e-3 * 8) * (faces - np.roll(faces, 1)),
                                    rel=1e-12, abs=1e-15)
    with pytest.raises(ValueError, match="finite"):
        ControlGrid(np.asarray([[0.0, np.nan]]), horizon=1.0)
    with pytest.raises(ValueError, match="finite"):
        ControlGrid(np.asarray([[np.inf, 0.0]]), horizon=1.0)
    with pytest.raises(ValueError, match="positive"):
        ControlGrid(vals, horizon=0.0)


def test_control_grid_zeros_and_from_function():
    z = ControlGrid(np.zeros((4, 8)), 0.5)
    assert z.l2_norm_sq == 0.0
    g = ControlGrid.from_function(lambda t, th: t + th, 4, 8, 0.5)
    assert g.values[0, 0] == pytest.approx(0.0)
    assert g.values[2, 3] == pytest.approx(0.25 + 3.0 / 8.0)


def test_weak_formulation_residual_is_small(gaussian):
    j = 64
    u = ControlGrid.from_function(
        lambda t, th: 0.5 * np.cos(2.0 * np.pi * th),
        n_steps=cfl_time_steps(gaussian, lambda th: np.ones_like(th), j, 0.04),
        j_cells=j, horizon=0.04)
    m0 = 0.4 * np.sin(2.0 * np.pi * np.arange(j) / j)
    field = solve_controlled_pde(gaussian, m0, u, horizon=0.04, j_cells=j)
    for test_fn in (lambda th: np.sin(2.0 * np.pi * np.asarray(th)),
                    lambda th: np.cos(4.0 * np.pi * np.asarray(th))):
        res = weak_form_residual(gaussian, field, u, test_fn, 0.04)
        assert res < 5e-3


def test_control_l2_distance_symmetric_zero():
    a = ControlGrid.from_function(lambda t, th: np.sin(2 * np.pi * th),
                                  6, 16, 0.1)
    b = ControlGrid(np.zeros((6, 16)), 0.1)
    d = control_l2_distance(a, b)
    assert d == pytest.approx(math.sqrt(0.5 * 0.1), rel=1e-2)
    assert control_l2_distance(a, a) == pytest.approx(0.0, abs=1e-14)


def test_contraction_certificate_on_one_pair(gaussian):
    j, horizon = 32, 0.1
    steps = cfl_time_steps(gaussian, lambda th: np.ones_like(th), j, horizon)
    u1 = ControlGrid.from_function(
        lambda t, th: 0.6 * np.cos(2.0 * np.pi * th), steps, j, horizon)
    u2 = ControlGrid.from_function(
        lambda t, th: -0.2 * np.sin(2.0 * np.pi * th), steps, j, horizon)
    m0 = 0.5 * _sine(j)
    lhs, rhs = contraction_gap(gaussian, m0, u1, u2)
    assert 0.0 < lhs <= rhs + 1e-9


def test_contraction_gap_keeps_only_its_snapshots(gaussian):
    # the two rows of 821 levels at J = 64 would take 840 kB; the gap
    # keeps its nine snapshots and a block of the control flux
    j, horizon = 64, 0.1
    m0 = 0.5 * _sine(j)
    steps = cfl_time_steps(gaussian, m0, j, horizon)
    u1 = ControlGrid.from_function(
        lambda t, th: 0.6 * np.cos(2.0 * np.pi * th), steps, j, horizon)
    u2 = ControlGrid.from_function(
        lambda t, th: -0.2 * np.sin(2.0 * np.pi * th), steps, j, horizon)
    contraction_gap(gaussian, m0, u1, u2)     # the envelope chunks, built
    tracemalloc.start()
    try:
        contraction_gap(gaussian, m0, u1, u2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (steps + 1) * 2 * j * 8


@pytest.mark.parametrize("amp", [2.5, 5.0])
def test_solve_covers_a_start_whose_padding_is_unresolvable(gaussian, amp):
    # past 6.25 the Gaussian's tilted densities leak out of the quadrature
    # window, so any padding of the range (-A, A) would fail at A = 5; the
    # solver and the weak form read only the chunks of (-A, A) itself
    j, horizon = 32, 0.01
    m0 = amp * _sine(j)
    field = solve_controlled_pde(gaussian, m0, horizon=horizon, j_cells=j)
    assert field.n_steps == cfl_time_steps(gaussian, m0, j, horizon)
    assert not field.range_escaped
    expected = math.exp(-2.0 * math.pi ** 2 * horizon) * m0
    assert np.max(np.abs(field.values[-1] - expected)) < 3e-4 * amp
    res = weak_form_residual(gaussian, field, None,
                             lambda th: np.sin(2.0 * np.pi * th), horizon)
    assert res < 4e-4 * amp


def test_cfl_steps_of_a_start_whose_padding_is_unresolvable(gaussian):
    # a constant 5.6 reads one chunk, next to the resolvable edge 6.25; the
    # Gaussian's slope is x, so the step count is the same as from any
    # resolvable constant
    steps = cfl_time_steps(gaussian, 0.5 * np.ones(64), 64, 0.1)
    assert cfl_time_steps(gaussian, 5.6 * np.ones(64), 64, 0.1) == steps


def test_a_control_into_stiffer_chunks_raises_cfl_violation():
    # the quartic's H' = 1/var grows with |m|; m0 = 0.2 sin reads the
    # chunks of [-0.25, 0.25), and its dt is the largest stable there
    pot = quartic_potential()
    j, horizon = 32, 0.05
    m0 = 0.2 * _sine(j)
    n_steps = cfl_time_steps(pot, m0, j, horizon)

    def push(c):
        return ControlGrid.from_function(
            lambda t, th: c * np.sin(2.0 * np.pi * th), n_steps, j, horizon)
    # a gentle control keeps the field inside m0's chunks ...
    assert np.max(np.abs(solve_controlled_pde(pot, m0, push(0.5)).values)) \
        < 0.25
    # ... a strong one carries it into stiffer ones at m0's dt
    with pytest.raises(CFLViolation, match="max H'"):
        solve_controlled_pde(pot, m0, push(2.0))


def test_density_field_slices_and_csv(gaussian):
    j = 16
    field = solve_controlled_pde(gaussian, _sine(j), horizon=0.01, j_cells=j)
    s0 = field.slice_at(0.0)
    assert np.allclose(s0, _sine(j))
    mid = field.slice_at(0.005)
    assert mid.shape == (j,)
    buf = io.StringIO()
    field.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t," + ",".join(f"m_{k}" for k in range(j))
    assert len(lines) == field.n_steps + 2


def test_quartic_solve_stays_bounded(quartic):
    j = 32
    m0 = 0.6 * np.sin(2.0 * np.pi * np.arange(j) / j)
    field = solve_controlled_pde(quartic, m0, horizon=0.02, j_cells=j)
    assert np.max(np.abs(field.values)) <= 0.6 + 1e-9
    masses = field.values.mean(axis=1)
    assert np.max(np.abs(masses - masses[0])) < 1e-13


def _roll_reference(pot, m0, u, horizon, n_steps):
    """The explicit scheme stepped one slice at a time with np.roll, as
    solve_controlled_pde wrote it before it stepped in place.  Returns
    (field values, range_escaped, whether the table grew)."""
    m = np.asarray(m0, dtype=float).copy()
    j_cells = m.size
    table = EnvelopeTable(pot, np.min(m), np.max(m))
    first = (table.lo, table.hi)
    dtheta = 1.0 / j_cells
    dt = horizon / n_steps
    diff = 0.5 * dt / dtheta ** 2
    adv = dt / dtheta
    out = np.empty((n_steps + 1, j_cells))
    out[0] = m
    for k in range(n_steps):
        hm = table(m)
        lap = np.roll(hm, -1) - 2.0 * hm + np.roll(hm, 1)
        m = m + diff * lap
        if u is not None:
            row = u.values[k]
            right = 0.5 * (row + np.roll(row, -1))
            m = m - adv * (right - np.roll(right, 1))
        if not np.all(np.isfinite(m)):
            raise NonFiniteField(f"field blew up at step {k + 1}")
        out[k + 1] = m
    return out, table.range_escaped, (table.lo, table.hi) != first


def _compare_with_reference(pot, m0, u, horizon, n_steps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")       # clamped queries warn
        ref, escaped, grew = _roll_reference(pot, m0, u, horizon,
                                             n_steps)
        field = solve_controlled_pde(pot, m0, u, horizon=horizon,
                                     j_cells=m0.size, n_steps=n_steps)
    assert np.array_equal(field.values, ref)
    assert field.range_escaped == escaped
    return grew, escaped


# dt = 0.4 dtheta^2 sits inside the Gaussian's CFL bound (max H' = 1); a
# control of scale c moves a cell by about 0.4 c dtheta per step, so the
# larger scales carry the field out of its first chunks (a mid-solve
# growth) and past the resolvable range (clamping)
@settings(max_examples=30, deadline=None)
@given(j=st.integers(1, 40), n_steps=st.integers(1, 60),
       controlled=st.booleans(),
       scale=st.sampled_from([0.0, 0.5, 3.0, 20.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(j=16, n_steps=60, controlled=True, scale=3.0, seed=1)
def test_in_place_step_matches_roll_reference(gaussian, j, n_steps,
                                              controlled, scale, seed):
    rng = np.random.default_rng(seed)
    m0 = rng.uniform(-1.0, 1.0, j)
    horizon = 0.4 * n_steps / j ** 2
    u = ControlGrid(scale * rng.standard_normal((n_steps, j)), horizon) \
        if controlled else None
    _compare_with_reference(gaussian, m0, u, horizon, n_steps)


def test_in_place_step_matches_reference_through_rebuild_and_clamp(gaussian):
    j, n_steps = 16, 60
    horizon = 0.4 * n_steps / j ** 2
    theta = np.arange(j) / j
    m0 = 0.5 * np.sin(2.0 * np.pi * theta)
    strong = lambda c: ControlGrid(np.tile(c * np.cos(2.0 * np.pi * theta),
                                           (n_steps, 1)), horizon)
    # a moderate push leaves the first chunks [-0.5, 0.75) ...
    assert _compare_with_reference(gaussian, m0, strong(8.0), horizon,
                                   n_steps) == (True, False)
    # ... a strong one passes the quadrature window's resolvable range
    assert _compare_with_reference(gaussian, m0, strong(30.0), horizon,
                                   n_steps) == (True, True)


def _checked_reference(pot, m0, u, horizon, n_steps):
    """The solver loop as it was before the one march: every step reads
    the envelope through the checked table call, and a controlled solve
    re-checks the CFL bound after each.  Returns (values, table)."""
    m0 = np.asarray(m0, dtype=float)
    table = EnvelopeTable(pot, np.min(m0), np.max(m0))
    j_cells = m0.size
    dtheta = 1.0 / j_cells
    dt = horizon / n_steps
    _stable_dt(table, j_cells, dt)

    diff = 0.5 * dt / dtheta ** 2
    flux = None
    if u is not None:
        right = 0.5 * (u.values + np.roll(u.values, -1, axis=1))
        flux = (dt / dtheta) * (right - np.roll(right, 1, axis=1))
    out = np.empty((n_steps + 1, j_cells))
    out[0] = m0
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
    return out, table


def _outcome(fn):
    """(result, clamp warnings) of ``fn()``; the result is (exception
    type, message) when it raises a solver failure."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn()
        except (NonFiniteField, CFLViolation) as exc:
            result = (type(exc), str(exc))
    clamps = sum(issubclass(w.category, UserWarning) for w in caught)
    return result, clamps


def _gap_snapshots(pot, m0, u, horizon, n_steps):
    """The two rows of ``contraction_gap(pot, m0, u, u)``'s nine
    snapshots, as the gap hands them to the path builder."""
    slices = []

    def record(times, rows, n_atoms):
        slices.append(np.array(rows))
    with mock.patch("gllab.measures.path_from_density_slices", record), \
            mock.patch("gllab.measures.d_star", lambda p1, p2: 0.0):
        contraction_gap(pot, m0, u, u)
    return slices


def _march_matches_reference(pot, m0, u, horizon, n_steps, path="solve"):
    """Assert that the solver and the checked reference agree bit for
    bit, failure included; returns the reference's table, or the
    failure's type.  ``path`` picks what is compared: the field of
    ``solve_controlled_pde``, the CSV text ``write_field_csv`` streams,
    or ``contraction_gap``'s nine snapshots (with u as both controls, a
    zero control for none).  The reference reads one slice per step, the
    slice ``u.slice_of(k, n_steps)`` of each step k."""
    if path == "gap" and u is None:
        u = ControlGrid(np.zeros((n_steps, m0.size)), horizon)
    per_step = u
    if u is not None:
        with np.errstate(over="ignore"):
            per_step = ControlGrid(
                u.values[u.slice_of(np.arange(n_steps), n_steps)], horizon)
    ref, ref_clamps = _outcome(
        lambda: _checked_reference(pot, m0, per_step, horizon, n_steps))
    kwargs = dict(horizon=horizon, j_cells=m0.size, n_steps=n_steps)

    def streamed():
        buf = io.StringIO()
        write_field_csv(buf, pot, m0, u, **kwargs)
        return buf.getvalue()
    run = {"solve": lambda: solve_controlled_pde(pot, m0, u, **kwargs),
           "stream": streamed,
           "gap": lambda: _gap_snapshots(pot, m0, u, horizon, n_steps)}
    got, clamps = _outcome(run[path])
    assert clamps == ref_clamps
    if isinstance(got, tuple):
        assert got == ref
        return got[0]
    values, table = ref
    if path == "solve":
        assert np.array_equal(got.values, values)
        assert got.range_escaped == table.range_escaped
    elif path == "stream":
        buf = io.StringIO()
        DensityField(values, horizon).to_csv(buf)
        assert got == buf.getvalue()
    else:
        idx = np.round(np.linspace(0.0, horizon, 9)
                       / (horizon / n_steps)).astype(int)
        assert len(got) == 2
        for rows in got:
            assert np.array_equal(rows, values[idx])
    return table


def _spike(values, k):
    """Control values whose row k overflows the face average to inf."""
    values = values.copy()
    values[k] = 1.7e308 * np.where(np.arange(values.shape[1]) % 4 < 2,
                                   1.0, -1.0)
    return values


# dt is the CFL bound of m0's chunks times ``cfl``: 1.5 fails before the
# first step; the quartic's H' grows with |m|, so a control can carry its
# field into chunks that fail the bound mid-solve; larger control scales
# carry the field into new chunks and past the resolvable edge (6.25 for
# the Gaussian), where values clamp; a spike overflows one step's flux;
# past 64 steps the march computes a second block of the control flux.
# Each example compares one of the march's three callers: the solve, the
# CSV it streams, or the contraction gap's snapshots.  The control of a
# solve or a stream has ``slices`` time slices (None: one per step), read
# through ``slice_of``; the gap marches its controls' own slice count
@settings(max_examples=180, deadline=None)
@given(path=st.sampled_from(["solve", "stream", "gap"]),
       family=st.sampled_from(["gaussian", "quartic"]),
       j=st.integers(4, 128), n_steps=st.integers(1, 150),
       slices=st.sampled_from([None, 1, 7, 150]),
       amp=st.sampled_from([0.2, 1.0, 3.0]),
       scale=st.sampled_from([None, 0.0, 0.5, 5.0, 50.0, 500.0, 5000.0]),
       spike=st.sampled_from([False] * 3 + [True]),
       cfl=st.sampled_from([0.5, 1.0, 1.0, 1.5]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_march_matches_checked_reference(gaussian, quartic, path, family,
                                         j, n_steps, slices, amp, scale,
                                         spike, cfl, seed):
    pot = gaussian if family == "gaussian" else quartic
    rng = np.random.default_rng(seed)
    m0 = amp * rng.uniform(-1.0, 1.0, j)
    table = EnvelopeTable(pot, np.min(m0), np.max(m0))
    horizon = cfl * n_steps * _stable_dt(table, j)
    k = n_steps if slices is None or path == "gap" else slices
    u = None
    if scale is not None:
        values = scale * rng.standard_normal((k, j))
        if spike:
            values = _spike(values, int(rng.integers(k)))
        with np.errstate(over="ignore"):
            u = ControlGrid(values, horizon)
    first = (table.lo, table.hi)
    table = _march_matches_reference(pot, m0, u, horizon, n_steps, path)
    event(path + ": " + (table.__name__ if isinstance(table, type) else
          "clamped" if table.range_escaped else
          "grew" if (table.lo, table.hi) != first else "stayed"))


@pytest.mark.parametrize("c, grew, escaped, gap", [
    (0.5, False, False, False),     # stays inside m0's chunks
    (8.0, True, False, False),      # reads new chunks
    (100.0, True, True, True),      # clamps, skipping chunks: a gap
])
def test_march_matches_checked_reference_in_each_regime(gaussian, c, grew,
                                                        escaped, gap):
    j, n_steps = 16, 60
    horizon = 0.4 * n_steps / j ** 2
    theta = np.arange(j) / j
    m0 = 0.5 * np.sin(2.0 * np.pi * theta)
    first = EnvelopeTable(gaussian, np.min(m0), np.max(m0))
    u = ControlGrid(np.tile(c * np.cos(2.0 * np.pi * theta), (n_steps, 1)),
                    horizon)
    table = _march_matches_reference(gaussian, m0, u, horizon, n_steps)
    assert ((table.lo, table.hi) != (first.lo, first.hi)) == grew
    assert table.range_escaped == escaped
    assert (table.nodes() is None) == gap


def _separate_gap(pot, m0, u1, u2):
    """contraction_gap's (lhs, rhs) from two separate solves."""
    f1 = solve_controlled_pde(pot, m0, u1)
    f2 = solve_controlled_pde(pot, m0, u2)
    idx = np.round(np.linspace(0.0, u1.horizon, 9) / f1.dt).astype(int)
    p1, p2 = (path_from_density_slices(idx * f.dt, [f.values[k] for k in idx],
                                       f.j_cells) for f in (f1, f2))
    return (d_star(p1, p2),
            math.exp(u1.horizon / 2.0) * control_l2_distance(u1, u2))


@settings(max_examples=15, deadline=None)
@given(j=st.integers(4, 64), n_steps=st.integers(1, 40),
       scales=st.tuples(*[st.sampled_from([0.0, 0.5, 8.0, 100.0])] * 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_contraction_gap_equals_two_separate_solves(gaussian, j, n_steps,
                                                    scales, seed):
    rng = np.random.default_rng(seed)
    m0 = rng.uniform(-1.0, 1.0, j)
    horizon = 0.4 * n_steps / j ** 2
    u1, u2 = (ControlGrid(s * rng.standard_normal((n_steps, j)), horizon)
              for s in scales)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")       # clamped queries warn
        assert contraction_gap(gaussian, m0, u1, u2) == \
            _separate_gap(gaussian, m0, u1, u2)


def test_contraction_gap_warns_once_and_fails_at_the_first_step(gaussian):
    j, n_steps = 16, 60
    horizon = 0.4 * n_steps / j ** 2
    theta = np.arange(j) / j
    m0 = 0.5 * np.sin(2.0 * np.pi * theta)
    strong = np.tile(100.0 * np.cos(2.0 * np.pi * theta), (n_steps, 1))
    u1 = ControlGrid(strong, horizon)
    u2 = ControlGrid(-strong, horizon)
    # both rows clamp, through one envelope view: one warning, not two
    _, clamps = _outcome(lambda: contraction_gap(gaussian, m0, u1, u2))
    assert clamps == 1
    # u2 fails at step 6, u1 at step 31: the march stops at step 6,
    # while solving u1 first would have stopped at step 31
    with np.errstate(over="ignore"):
        u1 = ControlGrid(_spike(strong, 30), horizon)
        u2 = ControlGrid(_spike(strong, 5), horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NonFiniteField, match="at step 6$"):
            contraction_gap(gaussian, m0, u1, u2)


def test_an_initial_density_that_does_not_fit_the_control_is_named(gaussian):
    u = ControlGrid(np.zeros((4, 16)), 0.01)
    for solve in (lambda m0: solve_controlled_pde(gaussian, m0, u),
                  lambda m0: contraction_gap(gaussian, m0, u, u)):
        with pytest.raises(ValueError, match=r"\(8,\).*\(16,\)"):
            solve(np.zeros(8))
