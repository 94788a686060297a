"""Bounded-Lipschitz geometry of atomic signed measures on the circle."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from gllab import (AtomicSignedMeasure, ControlGrid, LatticeState,
                   MeasurePath, TimeGridMismatch, bl_distance, cfl_time_steps,
                   contraction_gap, d_star, density_to_atoms, from_state,
                   measures, path_from_density_slices)
from gllab.measures import _bl_bound, _net, arc_distance


def _delta(loc, w=1.0):
    return AtomicSignedMeasure(np.asarray([loc]), np.asarray([w]))


def test_point_mass_oracles():
    # moving unit mass by a short arc costs exactly the arc length
    assert bl_distance(_delta(0.0), _delta(0.25)) == pytest.approx(0.25,
                                                                   abs=1e-9)
    # mass 3 at arc distance 1/2: the Lipschitz cap binds before the
    # sup-norm cap, giving 3 * 0.5
    assert bl_distance(_delta(0.0, 3.0), _delta(0.5, 3.0)) == \
        pytest.approx(1.5, abs=1e-9)
    # opposite signs: mu - nu = 6 delta_0 + 6 delta_half, and f == 1
    # collects all 12 units regardless of the Lipschitz cap
    assert bl_distance(_delta(0.0, 6.0), _delta(0.5, -6.0)) == \
        pytest.approx(12.0, abs=1e-8)


def test_identical_measures_have_zero_distance(rng):
    mu = AtomicSignedMeasure(rng.random(20), rng.standard_normal(20))
    assert bl_distance(mu, mu) == pytest.approx(0.0, abs=1e-10)


def test_same_location_atoms_differ_by_weight():
    assert bl_distance(_delta(0.3, 2.0), _delta(0.3, 5.0)) == \
        pytest.approx(3.0, abs=1e-9)


def test_arc_distance_wraps():
    assert arc_distance(0.9, 0.1) == pytest.approx(0.2)
    assert arc_distance(0.25, 0.75) == pytest.approx(0.5)
    assert arc_distance(0.1, 0.1) == 0.0


def test_bl_distance_is_a_metric(rng):
    mus = [AtomicSignedMeasure(rng.random(5), rng.standard_normal(5))
           for _ in range(3)]
    d01 = bl_distance(mus[0], mus[1])
    d10 = bl_distance(mus[1], mus[0])
    assert d01 == pytest.approx(d10, rel=1e-9, abs=1e-12)
    d02 = bl_distance(mus[0], mus[2])
    d12 = bl_distance(mus[1], mus[2])
    assert d02 <= d01 + d12 + 1e-9


def test_bl_distance_scales_linearly(rng):
    mu = AtomicSignedMeasure(rng.random(6), rng.standard_normal(6))
    nu = AtomicSignedMeasure(rng.random(6), rng.standard_normal(6))
    base = bl_distance(mu, nu)
    assert bl_distance(AtomicSignedMeasure(mu.locations, 2.5 * mu.weights),
                       AtomicSignedMeasure(nu.locations, 2.5 * nu.weights)) \
        == pytest.approx(2.5 * base, rel=1e-7, abs=1e-9)


def test_bl_bounded_by_total_variation(rng):
    mu = AtomicSignedMeasure(rng.random(8), rng.standard_normal(8))
    nu = AtomicSignedMeasure(rng.random(8), rng.standard_normal(8))
    tv = float(np.sum(np.abs(mu.weights)) + np.sum(np.abs(nu.weights)))
    assert bl_distance(mu, nu) <= tv + 1e-9


def test_pairing_is_dual_lower_bound(rng):
    # |<mu - nu, f>| <= d_BL for any admissible test function
    mu = AtomicSignedMeasure(rng.random(7), rng.standard_normal(7))
    nu = AtomicSignedMeasure(rng.random(7), rng.standard_normal(7))
    f = lambda th: np.sin(2.0 * np.pi * np.asarray(th)) / (2.0 * np.pi)
    gap = abs(mu.pair(f) - nu.pair(f))
    assert gap <= bl_distance(mu, nu) + 1e-9


def test_from_state_encodes_charges():
    state = LatticeState(np.asarray([4.0, -2.0, 6.0, 0.0]))
    mu = from_state(state)
    assert np.allclose(np.sort(mu.locations), [0.0, 0.25, 0.5, 0.75])
    assert np.sum(np.abs(mu.weights)) == pytest.approx(3.0)   # sum|x|/N
    assert mu.pair(lambda th: np.ones_like(th)) == pytest.approx(2.0)


def test_density_to_atoms_callable_and_grid_agree():
    # every atom i/16 is a node of the 32-point grid, so the atoms carry
    # the callable's own values there
    fn = lambda th: 0.3 + np.sin(2.0 * np.pi * np.asarray(th))
    grid = fn(np.arange(32) / 32.0)
    b = density_to_atoms(grid, 16)
    assert np.allclose(b.locations, np.arange(16) / 16)
    assert np.allclose(b.weights, fn(b.locations) / 16, atol=1e-12)
    assert np.sum(b.weights) == pytest.approx(np.mean(fn(np.arange(16) / 16)))


def _all_pairs_bl(mu, nu):
    """Reference: the dual LP with a Lipschitz row for every pair of
    atoms of mu - nu (zero-net atoms kept), dense and unreduced."""
    locs, inv = np.unique(np.concatenate([mu.locations, nu.locations]),
                          return_inverse=True)
    net = np.zeros(locs.size)
    np.add.at(net, inv, np.concatenate([mu.weights, -nu.weights]))
    m = locs.size
    kk, ll = np.triu_indices(m, k=1)
    grad = np.zeros((kk.size, m))
    grad[np.arange(kk.size), kk] = 1.0
    grad[np.arange(kk.size), ll] = -1.0
    d = arc_distance(locs[kk], locs[ll])
    res = linprog(-net, A_ub=np.vstack([grad, -grad]),
                  b_ub=np.concatenate([d, d]), bounds=(-1.0, 1.0),
                  method="highs")
    assert res.success
    return -res.fun


@st.composite
def _measure_pairs(draw):
    """mu and nu with 1..40 atoms each, signed weights; nu may reuse
    some of mu's locations, and all atoms may be packed into an arc
    shorter than 1/2 so that the wrap-around gap exceeds 1/2.

    Locations are multiples of 2^-12 and weights multiples of 1e-3:
    HiGHS's absolute tolerances (1e-7) blur finer gaps and weights in
    either LP, and the comparison is to 1e-12.
    """
    def ints(lo, hi, n):
        return np.asarray(draw(st.lists(st.integers(lo, hi), min_size=n,
                                        max_size=n)))

    grid = 4096
    m_mu = draw(st.integers(1, 40))
    m_nu = draw(st.integers(1, 40))
    locs = ints(0, grid - 1, m_mu + m_nu)
    if draw(st.booleans()):
        width = draw(st.integers(1, grid // 2 - 1))
        locs = (draw(st.integers(0, grid - 1)) + locs % width) % grid
    shared = draw(st.integers(0, min(m_mu, m_nu)))
    locs[m_mu:m_mu + shared] = locs[:shared]
    return (AtomicSignedMeasure(locs[:m_mu] / grid, ints(-3000, 3000, m_mu)
                                / 1000.0),
            AtomicSignedMeasure(locs[m_mu:] / grid, ints(-3000, 3000, m_nu)
                                / 1000.0))


@settings(max_examples=150, deadline=None)
@given(_measure_pairs())
@example((AtomicSignedMeasure([0.1], [1.0]),
          AtomicSignedMeasure([0.7], [-2.0])))           # m = 2
@example((AtomicSignedMeasure([0.1, 0.3], [1.0, -0.5]),
          AtomicSignedMeasure([0.3, 0.35], [0.5, 2.0])))  # shared, packed
def test_bl_distance_matches_all_pairs_lp(pair):
    mu, nu = pair
    tv = np.sum(np.abs(mu.weights)) + np.sum(np.abs(nu.weights))
    assert abs(bl_distance(mu, nu) - _all_pairs_bl(mu, nu)) <= \
        1e-12 * (1.0 + tv)


def _eye_rows(m):
    """The neighbour-row matrix as bl_distance built it before: three
    sparse.eye calls, two subtractions and a vstack."""
    grad = sparse.eye(m) - sparse.eye(m, k=1) - sparse.eye(m, k=1 - m)
    return sparse.vstack([grad, -grad])


def _eye_rows_bl(mu, nu):
    """bl_distance with the constraint matrix built by ``_eye_rows``."""
    locs = np.concatenate([mu.locations, nu.locations])
    wts = np.concatenate([mu.weights, -nu.weights])
    uniq, inv = np.unique(locs, return_inverse=True)
    net = np.zeros(uniq.size)
    np.add.at(net, inv, wts)
    scale = float(np.max(np.abs(net), initial=0.0))
    if scale == 0.0:
        return 0.0
    keep = np.abs(net) > 1e-15 * scale
    theta = uniq[keep]
    c = net[keep]
    if theta.size == 1:
        return float(np.abs(c[0]))
    d = arc_distance(theta, np.roll(theta, -1))
    res = linprog(-c / scale, A_ub=_eye_rows(theta.size),
                  b_ub=np.concatenate([d, d]), bounds=(-1.0, 1.0),
                  method="highs")
    assert res.success
    return float(-res.fun) * scale


def test_constraint_matrix_equals_the_eye_construction(monkeypatch):
    seen = []

    def record(c, A_ub, **kwargs):
        seen.append(A_ub)
        return SimpleNamespace(success=True, fun=0.0)
    monkeypatch.setattr(measures, "linprog", record)
    empty = AtomicSignedMeasure(np.zeros(0), np.zeros(0))
    for m in range(2, 301):
        bl_distance(AtomicSignedMeasure(np.arange(m) / m, np.ones(m)), empty)
        assert seen[-1].shape == (2 * m, m)
        assert np.array_equal(seen[-1].toarray(), _eye_rows(m).toarray())


@settings(max_examples=100, deadline=None)
@given(_measure_pairs())
def test_bl_distance_matches_the_eye_construction_bit_for_bit(pair):
    assert bl_distance(*pair) == _eye_rows_bl(*pair)


def test_bl_distance_at_4096_atoms(rng):
    mu = AtomicSignedMeasure(rng.random(2048), rng.standard_normal(2048))
    nu = AtomicSignedMeasure(rng.random(2048), rng.standard_normal(2048))
    net = abs(np.sum(mu.weights) - np.sum(nu.weights))
    tv = np.sum(np.abs(mu.weights)) + np.sum(np.abs(nu.weights))
    assert net - 1e-9 <= bl_distance(mu, nu) <= tv + 1e-9


def test_bl_distance_scales_with_small_weights(rng):
    # HiGHS's tolerances are absolute (1e-7); weights far below them must
    # still scale the distance linearly
    mu = AtomicSignedMeasure(rng.random(30), rng.standard_normal(30))
    nu = AtomicSignedMeasure(rng.random(30), rng.standard_normal(30))
    d = bl_distance(mu, nu)
    assert d > 0
    assert bl_distance(AtomicSignedMeasure(mu.locations, 1e-8 * mu.weights),
                       AtomicSignedMeasure(nu.locations, 1e-8 * nu.weights)) \
        == pytest.approx(1e-8 * d, rel=1e-6)


def test_empirical_measure_concentrates(rng):
    # equilibrium charges pair like N(0,1)/N noise: distance to the zero
    # measure decays roughly like 1/sqrt(N)
    n = 512
    state = LatticeState(rng.standard_normal(n))
    zero = AtomicSignedMeasure(np.asarray([0.0]), np.asarray([0.0]))
    assert bl_distance(from_state(state), zero) < 0.2


def test_d_star_takes_the_worst_slice():
    t = np.asarray([0.0, 0.5, 1.0])
    base = [_delta(0.0, 1.0), _delta(0.0, 1.0), _delta(0.0, 1.0)]
    moved = [_delta(0.0, 1.0), _delta(0.25, 1.0), _delta(0.1, 1.0)]
    p1 = MeasurePath(t, tuple(base))
    p2 = MeasurePath(t, tuple(moved))
    assert d_star(p1, p2) == pytest.approx(0.25, abs=1e-9)


def test_d_star_requires_matching_time_grids():
    p1 = MeasurePath(np.asarray([0.0, 1.0]), (_delta(0.0), _delta(0.0)))
    p2 = MeasurePath(np.asarray([0.0, 0.7]), (_delta(0.0), _delta(0.0)))
    with pytest.raises(TimeGridMismatch):
        d_star(p1, p2)


def test_path_from_density_slices():
    t = np.asarray([0.0, 0.1])
    slices = np.stack([np.full(8, 0.5), np.full(8, 0.5)])
    path = path_from_density_slices(t, slices, n_atoms=8)
    assert len(path.snapshots) == 2
    assert np.array_equal(path.sample_times, t)
    assert np.allclose(path.pairings(np.ones_like), 0.5)


def test_d_star_of_empty_paths_raises():
    empty = MeasurePath(np.zeros(0), ())
    with pytest.raises(ValueError):
        d_star(empty, empty)


@st.composite
def _signed_measure(draw, on_grid, n_atoms=None):
    """1..40 atoms, signed weights of one scale in 1e-8..10 (a weight may
    be zero).  On the grid, locations are multiples of 2^-12, so that
    every gap is far above HiGHS's absolute 1e-7 tolerances; off it, any
    float in [0, 1)."""
    n = n_atoms or draw(st.integers(1, 40))
    locs = (np.asarray(draw(st.lists(st.integers(0, 4095), min_size=n,
                                     max_size=n))) / 4096 if on_grid else
            draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                          min_size=n, max_size=n)))
    scale = 10.0 ** draw(st.integers(-8, 1))
    wts = draw(st.lists(st.integers(-3000, 3000), min_size=n, max_size=n))
    return AtomicSignedMeasure(locs, scale / 1000.0 * np.asarray(wts))


@st.composite
def _signed_pairs(draw, on_grid=True):
    """mu and nu of unequal masses, or nu = mu moved (zero net weight),
    or single atoms."""
    mu = draw(_signed_measure(on_grid))
    kind = draw(st.sampled_from(["free", "moved", "single"]))
    if kind == "free":
        return mu, draw(_signed_measure(on_grid))
    if kind == "single":
        return (draw(_signed_measure(on_grid, 1)),
                draw(_signed_measure(on_grid, 1)))
    shift = draw(st.integers(0, 4095)) / 4096
    return mu, AtomicSignedMeasure((mu.locations + shift) % 1.0, mu.weights)


def _tv(pair):
    return float(np.sum(np.abs(_net(*pair)[0])))


@settings(max_examples=300, deadline=None)
@given(_signed_pairs())
@example((AtomicSignedMeasure([0.1, 0.6], [1e-8, -1e-8]),
          AtomicSignedMeasure([0.3], [5e-9])))
def test_bl_bound_is_never_below_the_lp(pair):
    assert _bl_bound(*pair)[0] >= bl_distance(*pair) - 1e-12 * _tv(pair)


@settings(max_examples=300, deadline=None)
@given(_signed_pairs(on_grid=False))
@example((AtomicSignedMeasure([0.0], [0.0]),          # HiGHS returns
          AtomicSignedMeasure([0.0, 2.0 ** -24], [1.0, 1.0])))  # 2 + 6e-8
def test_the_padded_bound_covers_highs_at_any_gap(pair):
    assert sum(_bl_bound(*pair)) >= bl_distance(*pair)


@settings(max_examples=100, deadline=None)
@given(_signed_measure(on_grid=True))
def test_bl_bound_is_the_lp_at_zero_net_mass(mu):
    # nu is mu moved: the bound is the circle's W1 distance, which the
    # box |f| <= 1 does not cut
    pair = mu, AtomicSignedMeasure((mu.locations + 0.3) % 1.0, mu.weights)
    assert abs(_bl_bound(*pair)[0] - bl_distance(*pair)) <= 1e-9 * _tv(pair)


def _max_over_all(p1, p2):
    """d* as the max of every snapshot's LP."""
    return max(bl_distance(a, b) for a, b in zip(p1.snapshots, p2.snapshots))


@st.composite
def _path_pairs(draw):
    """Paths of 1..6 snapshots whose distances include exact ties
    (repeated snapshots) and near-ties (weights scaled by 1 + delta,
    delta from the screen's pad down to 1e-15)."""
    base = draw(st.lists(_signed_pairs(on_grid=False), min_size=1,
                         max_size=3))
    snaps = []
    for _ in range(draw(st.integers(1, 6))):
        mu, nu = draw(st.sampled_from(base))
        delta = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-4]))
        snaps.append((AtomicSignedMeasure(mu.locations,
                                          (1 + delta) * mu.weights),
                      AtomicSignedMeasure(nu.locations,
                                          (1 + delta) * nu.weights)))
    t = np.arange(len(snaps), dtype=float)
    return (MeasurePath(t, tuple(a for a, _ in snaps)),
            MeasurePath(t, tuple(b for _, b in snaps)))


@settings(max_examples=150, deadline=None)
@given(_path_pairs())
@example((MeasurePath([0.0, 1.0], (_delta(0.0), _delta(0.0))),
          MeasurePath([0.0, 1.0], (_delta(0.25), _delta(0.25)))))
def test_d_star_equals_the_max_over_all_snapshots_bit_for_bit(paths):
    assert repr(d_star(*paths)) == repr(_max_over_all(*paths))


def test_a_monotone_certificate_path_solves_one_lp(gaussian, monkeypatch):
    # one control pushes, the other is zero: the snapshot distances grow
    # with t, and their bounds are exact, so d* solves only the last LP
    j, horizon = 64, 0.1
    theta = np.arange(j) / j
    m0 = 0.5 * np.sin(2.0 * np.pi * theta)
    n_steps = cfl_time_steps(gaussian, m0, j, horizon)
    push = ControlGrid.from_function(
        lambda t, th: 0.8 * np.cos(2.0 * np.pi * th), n_steps, j, horizon)
    still = ControlGrid(np.zeros((n_steps, j)), horizon)
    paths, calls = [], []
    solve = measures.linprog

    def keep_path(*args):
        paths.append(path_from_density_slices(*args))
        return paths[-1]

    def count(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(measures, "path_from_density_slices", keep_path)
    monkeypatch.setattr(measures, "linprog", count)
    lhs, _ = contraction_gap(gaussian, m0, push, still)
    assert len(calls) == 1
    values = [bl_distance(a, b) for a, b in zip(*(p.snapshots
                                                  for p in paths))]
    assert values[0] == 0.0 and np.all(np.diff(values) > 0)
    assert repr(lhs) == repr(max(values))
