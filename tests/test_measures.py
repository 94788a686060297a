"""Bounded-Lipschitz geometry of atomic signed measures on the circle."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from gllab import (AtomicSignedMeasure, LatticeState, MeasurePath,
                   TimeGridMismatch, bl_distance, d_star, density_to_atoms,
                   from_state, measures, path_from_density_slices)
from gllab.measures import arc_distance


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
    assert bl_distance(mu.scaled(2.5), nu.scaled(2.5)) == \
        pytest.approx(2.5 * base, rel=1e-7, abs=1e-9)


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
    assert mu.total_variation() == pytest.approx(3.0)   # sum|x|/N
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
    tv = mu.total_variation() + nu.total_variation()
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
    tv = mu.total_variation() + nu.total_variation()
    assert net - 1e-9 <= bl_distance(mu, nu) <= tv + 1e-9


def test_bl_distance_scales_with_small_weights(rng):
    # HiGHS's tolerances are absolute (1e-7); weights far below them must
    # still scale the distance linearly
    mu = AtomicSignedMeasure(rng.random(30), rng.standard_normal(30))
    nu = AtomicSignedMeasure(rng.random(30), rng.standard_normal(30))
    d = bl_distance(mu, nu)
    assert d > 0
    assert bl_distance(mu.scaled(1e-8), nu.scaled(1e-8)) == \
        pytest.approx(1e-8 * d, rel=1e-6)


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
