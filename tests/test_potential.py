"""Cumulant generating function, Legendre transform, tilted sampling.

The Gaussian reference density makes everything explicit: rho(lam) =
lam^2/2, h(x) = x^2/2, the lam-tilt is a unit-variance normal shifted to
mean lam.  Those closed forms anchor the oracle values; the quartic
potential exercises the same code where no closed form exists, checked
through identities that hold for any potential.
"""

import gc
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

import gllab
from gllab import (EnvelopeTable, Potential, QuadratureSpec,
                   QuadratureDiverged, RootNotBracketed,
                   TiltedFamilySampler, gaussian_potential, quartic_potential,
                   sample_initial_matrix, tilted_sine_profile)
from gllab import potential as potential_mod


def test_gaussian_log_mgf_matches_half_lambda_squared(gaussian):
    assert gaussian.log_mgf(0.0) == pytest.approx(0.0, abs=1e-12)
    assert gaussian.log_mgf(1.0) == pytest.approx(0.5, abs=1e-10)
    assert gaussian.log_mgf(-2.0) == pytest.approx(2.0, abs=1e-10)
    lams = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(gaussian.log_mgf(lams), lams ** 2 / 2, atol=1e-9)


def test_gaussian_normalization_offset_is_zero(gaussian):
    # phi already contains the log(2 pi)/2 constant
    assert abs(gaussian.normalization_offset) < 1e-10


def test_gaussian_legendre_closed_form(gaussian):
    h, lam = gaussian.legendre_h(2.0)
    assert h == pytest.approx(2.0, abs=1e-9)
    assert lam == pytest.approx(2.0, abs=1e-9)
    h, lam = gaussian.legendre_h(1.0)
    assert h == pytest.approx(0.5, abs=1e-9)


def test_gaussian_legendre_grid_and_duality(gaussian):
    xs = np.linspace(-3.0, 3.0, 121)
    h, lam = gaussian.legendre_h_vec(xs)
    assert np.max(np.abs(h - xs ** 2 / 2)) < 1e-8
    # duality residual with rho evaluated through the separate mgf path
    residual = np.abs(h + gaussian.log_mgf(lam) - lam * xs)
    assert np.max(residual) < 1e-8


def test_tilted_entropy_identity(gaussian):
    # lam * rho'(lam) - rho(lam) equals h evaluated at the tilted mean;
    # at lam = 1 the Gaussian value is 1/2
    for lam in (0.25, 1.0, -1.7):
        rho, mean, _ = gaussian._tilted_stats(lam)
        h, _ = gaussian.legendre_h(mean)
        assert lam * mean - rho == pytest.approx(h, abs=1e-9)
    rho, mean, _ = gaussian._tilted_stats(1.0)
    assert mean - rho == pytest.approx(0.5, abs=1e-9)


def test_tilted_stats_gaussian_mean_and_variance(gaussian):
    lams = np.linspace(-2.0, 2.0, 9)
    _, mean, var = gaussian._tilted_stats(lams)
    assert np.allclose(mean, lams, atol=1e-9)
    assert np.allclose(var, 1.0, atol=1e-8)


# 32 rows is one stats block at 4096 nodes; OpenBLAS starts threading a
# matrix-vector product near 113 rows
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=300))
@example(np.linspace(-5.0, 5.0, 33).tolist())
@example(np.linspace(-5.0, 5.0, 114).tolist())
@example(np.linspace(-5.0, 5.0, 300).tolist())
def test_tilted_stats_row_does_not_depend_on_its_batch(gaussian, quartic,
                                                       lams):
    lams = np.asarray(lams)
    for pot in (gaussian, quartic):
        alone = np.asarray([pot._tilted_stats(lam) for lam in lams]).T
        assert np.array_equal(np.asarray(pot._tilted_stats(lams)), alone)
        two = np.asarray(pot._tilted_stats(np.stack([lams, lams[::-1]])))
        assert np.array_equal(two, np.stack([alone, alone[:, ::-1]], axis=1))


def test_envelope_table_does_not_depend_on_blas_threads():
    code = ("import hashlib; from gllab import EnvelopeTable, "
            "gaussian_potential; t = EnvelopeTable(gaussian_potential(), "
            "-2.0, 2.0); print(hashlib.sha256(t._lams.tobytes() "
            "+ t._vars.tobytes()).hexdigest())")
    src = os.path.dirname(os.path.dirname(gllab.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout)
    assert digests[0] == digests[1]


def test_tail_check_covers_every_block(gaussian):
    # tilt 10 puts the mean 2 from the +12 edge; it sits in the fourth
    # 32-row block, after blocks that pass
    lams = np.linspace(-1.0, 1.0, 200)
    gaussian._tilted_stats(lams, tail_check=True)
    lams[100] = 10.0
    with pytest.raises(QuadratureDiverged):
        gaussian._tilted_stats(lams, tail_check=True)


def _matches_scipy(ours, values):
    with np.errstate(all="ignore"):      # scipy warns where it overflows
        theirs = logsumexp(values)
    return np.float64(ours).tobytes() == np.float64(theirs).tobytes()


_SPECIALS = st.sampled_from([-np.inf, np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5000), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0, 800.0]),
       offset=st.sampled_from([0.0, -800.0, 800.0, -745.0, 709.0]),
       ties=st.integers(0, 8), special=_SPECIALS,
       n_special=st.integers(0, 8) | st.just(5000))
@example(n=4096, seed=1, scale=1.0, offset=0.0, ties=0, special=np.nan,
         n_special=0)
@example(n=7, seed=2, scale=1.0, offset=0.0, ties=0, special=-np.inf,
         n_special=5000)                             # all -inf
@example(n=9, seed=3, scale=0.0, offset=800.0, ties=0, special=np.inf,
         n_special=0)                                # all equal, overflow
def test_logsumexp_matches_scipy_bit_for_bit(n, seed, scale, offset, ties,
                                             special, n_special):
    rng = np.random.default_rng(seed)
    a = offset + scale * rng.standard_normal(n)
    a[rng.integers(0, n, ties)] = np.max(a)          # repeated maxima
    a[rng.permutation(n)[:n_special]] = special      # 5000: all of them
    assert _matches_scipy(potential_mod._logsumexp(a), a)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_logsumexp_matches_scipy_on_any_short_list(values):
    # the tail check passes two-value lists [gw[0], gw[-1]]
    assert _matches_scipy(potential_mod._logsumexp(values), values)
    pair = [np.float64(values[0]), np.float64(values[-1])]
    assert _matches_scipy(potential_mod._logsumexp(pair), pair)


def test_tilted_moments_are_log_mgf_derivatives(quartic):
    lam = 0.8
    eps = 1e-4
    rho = quartic.log_mgf
    # finite differences of rho agree with the analytic tilted moments
    d1 = (rho(lam + eps) - rho(lam - eps)) / (2 * eps)
    d2 = (rho(lam + eps) - 2 * rho(lam) + rho(lam - eps)) / eps ** 2
    r, mean, var = quartic._tilted_stats(lam, tail_check=True)
    assert r == pytest.approx(rho(lam), abs=1e-12)
    assert d1 == pytest.approx(mean, abs=1e-6)
    assert d2 == pytest.approx(var, rel=1e-4)


def test_quartic_normalized_and_symmetric(quartic):
    assert abs(quartic.log_mgf(0.0)) < 1e-10
    xs = np.linspace(0.1, 1.5, 7)
    hp, _ = quartic.legendre_h_vec(xs)
    hm, _ = quartic.legendre_h_vec(-xs)
    assert np.allclose(hp, hm, atol=1e-9)


def test_quartic_against_direct_quadrature(quartic):
    # independent oracle: scipy adaptive quadrature of the tilted moments
    z = quad(lambda x: math.exp(-(x ** 4 / 4 + x ** 2 / 2)),
             -np.inf, np.inf)[0]
    lam = 1.3
    mgf = quad(lambda x: math.exp(lam * x - (x ** 4 / 4 + x ** 2 / 2)),
               -np.inf, np.inf)[0] / z
    assert quartic.log_mgf(lam) == pytest.approx(math.log(mgf), abs=1e-8)


def test_legendre_h_convex_and_minimized_at_mean(quartic):
    xs = np.linspace(-1.2, 1.2, 41)
    h, _ = quartic.legendre_h_vec(xs)
    d2 = np.diff(h, 2)
    assert np.all(d2 > -1e-10)
    assert h[20] == pytest.approx(0.0, abs=1e-9)   # x = 0 is the rest mean


def test_unattainable_mean_raises(gaussian):
    with pytest.raises(RootNotBracketed):
        gaussian.legendre_h(100.0)


def test_unattainable_mean_names_both_limits(gaussian):
    # the mean at tilt 64 is 11.98: the +-12 quadrature window, not the
    # tilt cap, is what puts 13 out of reach, so both are named
    limits = (r"\|tilt\| <= 64 on the quadrature window \[-12, 12\]; "
              r"widen QuadratureSpec\.domain_halfwidth")
    with pytest.raises(RootNotBracketed, match="13.*" + limits):
        gaussian.legendre_h(13.0)
    with pytest.raises(RootNotBracketed, match="-13.*" + limits):
        gaussian.legendre_h_vec(np.asarray([0.0, -13.0]))
    with pytest.raises(RootNotBracketed, match=limits):
        EnvelopeTable(gaussian, 0.0, 13.0)
    with pytest.raises(RootNotBracketed, match=limits):
        EnvelopeTable(gaussian, -13.0, 0.0)


def test_heavy_tilt_of_slowly_decaying_potential_raises():
    # smooth potential with exponential tails: tilting past the decay
    # rate leaves unbounded mass outside any quadrature window
    pot = Potential(
        phi=lambda x: np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2),
        phi_prime=lambda x: x / np.sqrt(1.0 + np.asarray(x) ** 2),
        phi_double_prime=lambda x: (1.0 + np.asarray(x) ** 2) ** -1.5,
        quadrature=QuadratureSpec(node_count=8192, domain_halfwidth=42.0),
        name="exp_tail")
    assert math.isfinite(pot.log_mgf(0.4))
    with pytest.raises(QuadratureDiverged):
        pot.log_mgf(2.0)


def test_kinked_potential_fails_doubling_check():
    # |x| breaks the smoothness the trapezoid accuracy check relies on
    with pytest.raises(QuadratureDiverged):
        Potential(
            phi=lambda x: np.abs(x) + math.log(2.0),
            phi_prime=lambda x: np.sign(x),
            phi_double_prime=lambda x: np.zeros_like(
                np.asarray(x, dtype=float)),
            name="kinked")


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(node_count=8)
    with pytest.raises(ValueError):
        quartic_potential(-1.0)
    with pytest.raises(ValueError):
        quartic_potential(0.0, 0.0)


def test_sample_tilted_moments(gaussian, rng):
    # one tilt: the single-row path equilibrium_profile takes at tilt 0
    draws = TiltedFamilySampler(gaussian, 0.7, 0.7).sample(
        np.full(40000, 0.7), rng)
    se = 1.0 / math.sqrt(40000)
    assert abs(draws.mean() - 0.7) < 5 * se
    assert abs(draws.var() - 1.0) < 6 * se


def test_family_sampler_matches_per_tilt_sampler(gaussian, rng):
    fam = TiltedFamilySampler(gaussian, -1.0, 1.0)
    lams = np.asarray([-0.8, -0.25, 0.0, 0.4, 0.95])
    lam_full = np.repeat(lams, 20000)
    draws = fam.sample(lam_full, rng).reshape(lams.size, -1)
    se = 1.0 / math.sqrt(20000)
    for row, lam in zip(draws, lams):
        assert abs(row.mean() - lam) < 5 * se
        assert abs(row.var() - 1.0) < 6 * se


def _held_row_sample(pot, lams, lam, rng):
    """``TiltedFamilySampler.sample`` as written when a sampler held all
    its rows: one ``idx == k`` mask pass over every site per row."""
    cdfs = [pot._tilt_cdf(l) for l in lams]
    lam = np.asarray(lam, dtype=float)
    u = rng.random(lam.shape)
    y = pot._y
    if lams.size == 1:
        return np.interp(u, cdfs[0], y)
    dl = lams[1] - lams[0]
    pos = np.clip((lam - lams[0]) / dl, 0.0, lams.size - 1 - 1e-12)
    idx = pos.astype(int)
    frac = pos - idx
    out = np.empty(lam.shape)
    for k in np.unique(idx):
        mask = idx == k
        lo = np.interp(u[mask], cdfs[k], y)
        hi = np.interp(u[mask], cdfs[k + 1], y)
        out[mask] = (1.0 - frac[mask]) * lo + frac[mask] * hi
    return out


@settings(max_examples=60, deadline=None)
@given(quartic_pot=st.booleans(), lam_min=st.floats(-2.0, 1.0),
       width=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
       m=st.integers(1, 40), n=st.integers(1, 40), flat=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(quartic_pot=False, lam_min=-0.5, width=1.0, m=1, n=1, flat=True,
         seed=0)
@example(quartic_pot=True, lam_min=0.0, width=0.0, m=1, n=1, flat=False,
         seed=0)
def test_sorted_sweep_matches_the_held_row_sampler(gaussian, quartic,
                                                   quartic_pot, lam_min,
                                                   width, m, n, flat, seed):
    # bit for bit, the generator's final state included, for one-row and
    # 129-row samplers, with tilts inside and just outside the grid
    pot = quartic if quartic_pot else gaussian
    sampler = TiltedFamilySampler(pot, lam_min, lam_min + width)
    assert sampler._lams.size in (1, potential_mod.FAMILY_TILTS)
    shape = (m * n,) if flat else (m, n)
    lam = lam_min + width * np.random.default_rng(seed).uniform(
        -0.1, 1.1, shape)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = sampler.sample(lam, rng)
    ref = _held_row_sample(pot, sampler._lams, lam, ref_rng)
    assert draws.shape == shape
    assert draws.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_a_draw_builds_each_row_it_reads_once(tilt_builds):
    # groups on rows 3, 4, 10 and 127 read rows 3-5, 10-11 and 127-128:
    # row 4 is still held from group 3 when group 4 reads it, the rest are
    # built as the sweep reaches them, in order, and the sampler keeps none
    pot = gaussian_potential()
    sampler = TiltedFamilySampler(pot, -0.5, 0.5)
    assert len(pot._tilt_tables) == 0
    lams = sampler._lams
    mids = lams[[3, 4, 10, 127]] + 0.5 * (lams[1] - lams[0])
    tilts = np.random.default_rng(2).permutation(np.repeat(mids, 50))
    built = tilt_builds(pot)
    sampler.sample(tilts.reshape(10, 20), np.random.default_rng(3))
    assert built == [float(lam) for lam in lams[[3, 4, 5, 10, 11, 127, 128]]]
    assert len(pot._tilt_tables) == 0


def test_an_unsampleable_end_tilt_raises_at_construction(gaussian):
    # the N(11, 1) tilt puts mass on the window's edge at 12
    for lo, hi in ((0.0, 11.0), (-11.0, 0.0), (11.0, 11.0)):
        with pytest.raises(QuadratureDiverged, match="tilt table"):
            TiltedFamilySampler(gaussian, lo, hi)


def test_a_tilted_draw_peaks_below_one_profile_of_rows():
    # the sampler holds no rows and a draw at most three: building a profile
    # and drawing (1000, 32) from it stays below one profile's 129 rows
    pot = gaussian_potential()
    one_profile = (potential_mod.FAMILY_TILTS * pot.quadrature.node_count
                   * 8)
    tracemalloc.start()
    try:
        profile = tilted_sine_profile(pot, 0.8)
        sample_initial_matrix(profile, 32, 1000, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * one_profile
    gc.collect()
    assert profile.sampler is not None and len(pot._tilt_tables) == 0


def test_tilts_equal_to_12_decimals_keep_their_own_rows():
    # the two profiles' middle tilts are -3.3e-16 and 2.2e-16: while a row
    # for one is alive, as during its draw, the other still gets its own
    pot = quartic_potential(1.0, 1.0)
    first = tilted_sine_profile(pot, 0.2)
    second = tilted_sine_profile(pot, 0.8)
    mids = [p.sampler._lams[64] for p in (first, second)]
    assert mids[0] != mids[1] and round(mids[0], 12) == round(mids[1], 12)
    for amp, profile, other in ((0.2, first, 1), (0.8, second, 0)):
        held = pot._tilt_cdf(mids[other])
        fresh = tilted_sine_profile(quartic_potential(1.0, 1.0), amp)
        draws = [sample_initial_matrix(p, 32, 1000, np.random.default_rng(4))
                 for p in (profile, fresh)]
        assert draws[0].tobytes() == draws[1].tobytes()
        assert held is pot._tilt_cdf(mids[other])


CAP = potential_mod.BRACKET_CAP


def _scalar_bracket_envelope(pot, c):
    """``Potential._build_chunk`` with the bracket search written before
    ``_bracket``: one scalar doubling loop per end of the chunk."""
    xs = np.arange(c * potential_mod.CHUNK_NODES,
                   (c + 1) * potential_mod.CHUNK_NODES) \
        * potential_mod.ENVELOPE_SPACING
    lo, hi = xs[0], xs[-1]
    lam_hi = 1.0
    while pot._tilted_stats(lam_hi)[1] < hi:
        if lam_hi >= CAP:
            raise RootNotBracketed(f"mean value {hi:g}")
        lam_hi = min(lam_hi * 2.0, CAP)
    lam_lo = -1.0
    while pot._tilted_stats(lam_lo)[1] > lo:
        if lam_lo <= -CAP:
            raise RootNotBracketed(f"mean value {lo:g}")
        lam_lo = max(lam_lo * 2.0, -CAP)
    lam_grid = np.linspace(lam_lo, lam_hi, potential_mod.CHUNK_NODES)
    fwd_means = pot._tilted_stats(lam_grid)[1]
    lams = np.interp(xs, fwd_means, lam_grid)
    for tail_check in (False, True):
        _, mean, var = pot._tilted_stats(lams, tail_check=tail_check)
        lams = np.clip(lams - (mean - xs) / np.maximum(var, 1e-300),
                       lam_lo, lam_hi)
    return xs, lams, var


def _vector_bracket(pot, x):
    """``Potential._bracket`` as ``legendre_h_vec`` wrote it before
    ``_bracket``: two vector doubling loops."""
    lo = np.full(x.shape, -1.0)
    hi = np.full(x.shape, 1.0)
    for _ in range(32):
        need = pot._tilted_stats(hi)[1] < x
        if not np.any(need):
            break
        if np.all(hi[need] >= CAP):
            raise RootNotBracketed(f"mean value(s) {x[need & (hi >= CAP)]}")
        hi = np.where(need, np.minimum(hi * 2.0, CAP), hi)
    for _ in range(32):
        need = pot._tilted_stats(lo)[1] > x
        if not np.any(need):
            break
        if np.all(lo[need] <= -CAP):
            raise RootNotBracketed(f"mean value(s) {x[need & (lo <= -CAP)]}")
        lo = np.where(need, np.maximum(lo * 2.0, -CAP), lo)
    return lo, hi


def _outcome(fn, *args):
    """Result bytes of fn(*args), or the type of the error it raises."""
    try:
        return b"".join(np.asarray(a).tobytes() for a in fn(*args))
    except (RootNotBracketed, QuadratureDiverged) as exc:
        return type(exc)


# a coarse grid keeps each build cheap; a tilt's stats do not depend on
# its batch at any node count
_COARSE = QuadratureSpec(node_count=1024)
_BRACKET_POTENTIALS = (gaussian_potential(_COARSE),
                       quartic_potential(1.0, 1.0, _COARSE),
                       quartic_potential(1.0, 0.0, _COARSE))
_MEANS = st.floats(-14.0, 14.0, allow_nan=False)


@settings(max_examples=15, deadline=None)
@given(c=st.integers(-56, 56), xs=st.lists(_MEANS, min_size=1, max_size=6))
@example(c=1, xs=[0.0])
@example(c=36, xs=[8.0, -0.5])                  # leaks past the window
@example(c=52, xs=[13.0, 0.0])                  # past the tilt cap
@example(c=-80, xs=[-20.0, 20.0])               # both ends unachievable
def test_one_bracket_search_matches_the_two_loops_bit_for_bit(c, xs):
    x = np.asarray(xs)
    for pot in _BRACKET_POTENTIALS:
        assert _outcome(pot._build_chunk, c) == \
            _outcome(_scalar_bracket_envelope, pot, c)
        assert _outcome(pot._bracket, x) == \
            _outcome(_vector_bracket, pot, x)


def test_envelope_table_matches_newton_solve(gaussian, quartic):
    for pot in (gaussian, quartic):
        table = EnvelopeTable(pot, -1.5, 1.5)
        # node values carry full Newton accuracy ...
        _, exact_nodes = pot.legendre_h_vec(table._xs[::64])
        assert np.max(np.abs(table(table._xs[::64]) - exact_nodes)) < 1e-9
        # ... off-node queries add only the piecewise-linear interp error
        xs = np.linspace(-1.4, 1.4, 313)
        _, exact = pot.legendre_h_vec(xs)
        assert np.max(np.abs(table(xs) - exact)) < 1e-5


def test_envelope_table_grows_its_range(gaussian):
    table = EnvelopeTable(gaussian, -0.5, 0.5)
    out = table(np.asarray([2.5]))     # escapes, reads one more chunk
    assert out[0] == pytest.approx(2.5, abs=1e-8)
    assert table.hi >= 2.5
    assert not table.range_escaped


def test_envelope_table_clamps_when_unresolvable(gaussian):
    table = EnvelopeTable(gaussian, -0.5, 0.5)
    with pytest.warns(UserWarning):
        table(np.asarray([500.0]))     # beyond any attainable tilt
    assert table.range_escaped


def test_envelope_table_tail_checks_its_build(gaussian):
    # lambda*(x) = x for the Gaussian; past x of about 6.3 the tilted
    # density leaks more than TAIL_BUDGET over the +12 edge, so chunk
    # [6.25, 6.5) fails and 6.25 is the resolvable edge
    with pytest.raises(QuadratureDiverged):
        EnvelopeTable(gaussian, 0.0, 9.0)
    table = EnvelopeTable(gaussian, -0.5, 0.5)
    assert table(np.asarray([4.0]))[0] == pytest.approx(4.0, abs=1e-8)
    assert not table.range_escaped
    with pytest.warns(UserWarning):
        table(np.asarray([8.0]))
    assert table.range_escaped
    assert table.hi == 6.25


def test_envelope_view_reads_only_the_chunks_of_its_values(gaussian):
    # a view's extent is whole quarter-unit chunks; growing to 4.6 reads
    # chunk [4.5, 4.75) alone, and a clamp reads only its target's chunk
    table = EnvelopeTable(gaussian, -4.5, 4.4)
    assert (table.lo, table.hi) == (-4.5, 4.5)
    assert table(np.asarray([4.6]))[0] == pytest.approx(4.6, abs=1e-8)
    assert (table.lo, table.hi) == (-4.5, 4.75)
    assert not table.range_escaped
    with pytest.warns(UserWarning):
        table(np.asarray([6.3]))
    assert set(table._chunks) == set(range(-18, 19)) | {24}
    # a value in the gap reads its own chunk
    assert table(np.asarray([5.6]))[0] == pytest.approx(5.6, abs=1e-8)
    assert set(table._chunks) == set(range(-18, 19)) | {22, 24}
    with pytest.raises(QuadratureDiverged):
        EnvelopeTable(gaussian, 0.0, 6.3)


def test_a_failed_chunk_clamps_only_its_own_values(gaussian):
    table = EnvelopeTable(gaussian, -0.5, 0.5)
    with pytest.warns(UserWarning):
        out = table(np.asarray([3.0, 8.0]))
    assert out[0] == pytest.approx(3.0, abs=1e-8)
    # 8 is clamped to the last node below the resolvable edge 6.25
    edge = 6.25 - potential_mod.ENVELOPE_SPACING
    assert out[1] == pytest.approx(gaussian.legendre_h(edge)[1], abs=1e-9)
    assert table.range_escaped


def _counting_builds(pot):
    """Chunk indices ``pot`` builds from now on, in order."""
    builds = []
    build = pot._build_chunk
    pot._build_chunk = lambda c: builds.append(c) or build(c)
    return builds


def test_a_creeping_field_builds_each_chunk_once():
    pot = gaussian_potential()
    builds = _counting_builds(pot)
    table = EnvelopeTable(pot, 4.55, 4.55)
    for x in np.linspace(4.55, 5.0, 10):
        assert table(np.asarray([x]))[0] == pytest.approx(x, abs=1e-8)
    assert builds == [18, 19, 20]      # the chunks of [4.5, 5.25)
    with pytest.warns(UserWarning):
        for _ in range(3):
            table(np.asarray([6.3, 6.4]))
    assert builds == [18, 19, 20, 25, 24]    # a failed chunk is not rebuilt


def _table_bytes(table):
    return table._xs.tobytes() + table._lams.tobytes() + table._vars.tobytes()


@pytest.mark.parametrize("make", [gaussian_potential,
                                  lambda: quartic_potential(1.0, 1.0)])
def test_envelope_memo_hit_equals_fresh_build(make):
    pot = make()
    first = EnvelopeTable(pot, -1.3, 1.7)
    again = EnvelopeTable(pot, -1.3, 1.7)          # every chunk a memo hit
    assert all(again._chunks[c] is first._chunks[c] for c in first._chunks)
    EnvelopeTable(pot, -1.5, 2.6)                 # four more chunks
    assert set(pot._chunks) == set(range(-6, 11))
    fresh = make()
    for c, chunk in pot._chunks.items():
        assert np.array_equal(np.asarray(chunk),
                              np.asarray(fresh._build_chunk(c)))
        for arr in chunk:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
    # each view keeps its own flag
    with pytest.warns(UserWarning):
        first(np.asarray([500.0]))
    assert first.range_escaped and not again.range_escaped


def test_envelope_memo_keeps_no_failed_build():
    # a failed chunk is remembered as its error, with no arrays and no
    # frames of its build, and raises again without a second build; chunk
    # 2000 lies past the quadrature window and is not remembered at all
    pot = gaussian_potential()
    builds = _counting_builds(pot)
    for _ in range(2):
        with pytest.raises(QuadratureDiverged):
            EnvelopeTable(pot, 0.0, 9.0)
        with pytest.raises(RootNotBracketed):
            EnvelopeTable(pot, 0.0, 500.0)
    assert builds == [0, 36, 2000, 2000]
    failed = pot._chunks[36]
    assert isinstance(failed, QuadratureDiverged)
    assert failed.__traceback__ is None


def test_threads_building_one_range_agree():
    pot = gaussian_potential()
    barrier = threading.Barrier(2)
    tables = [None, None]

    def build(i):
        barrier.wait(timeout=60)
        tables[i] = EnvelopeTable(pot, -0.7, 2.1)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    fresh = EnvelopeTable(gaussian_potential(), -0.7, 2.1)
    assert _table_bytes(tables[0]) == _table_bytes(fresh)
    assert _table_bytes(tables[1]) == _table_bytes(fresh)
    assert set(pot._chunks) == set(range(-3, 9))


def test_caches_are_bounded():
    pot = gaussian_potential()
    # a tilt-CDF row stays cached only while something holds it
    lams = np.linspace(-1.0, 1.0, 10)
    keys = [float(lam) for lam in lams]
    cdfs = [pot._tilt_cdf(lam) for lam in lams]
    assert sorted(pot._tilt_tables) == keys
    dropped = [cdf.tobytes() for cdf in cdfs]
    kept = cdfs[3]
    del cdfs
    gc.collect()
    assert list(pot._tilt_tables) == [keys[3]]
    assert pot._tilt_cdf(lams[3]) is kept
    del kept
    gc.collect()
    assert len(pot._tilt_tables) == 0
    for lam, old in zip(lams, dropped):         # a rebuilt row is the same
        assert pot._tilt_cdf(lam).tobytes() == old
    gc.collect()
    assert len(pot._tilt_tables) == 0
    # the envelope memo keeps only the 97 quarter-unit chunks that start
    # inside the quadrature window [-12, 12], however far values reach
    with pytest.warns(UserWarning):
        EnvelopeTable(pot, 0.0, 0.0)(np.linspace(-600.0, 600.0, 4801))
    with pytest.raises(RootNotBracketed):
        EnvelopeTable(pot, 0.0, 40.0)
    assert set(pot._chunks) == set(range(-48, 49))


def test_threads_share_one_tilt_row_per_live_key():
    # more threads than cores asking for the same keys, dropping their rows
    # now and then, with frequent thread switches: no call fails, and while
    # a thread holds a row every call for its key returns that object
    pot = gaussian_potential()
    lams = np.linspace(-1.0, 1.0, 7)
    errors, finals = [], []

    def ask(offset):
        try:
            held = {}
            for i in range(3000):
                key = (i + offset) % 7
                if i % 50 == 0:
                    held.clear()
                row = pot._tilt_cdf(lams[key])
                assert not row.flags.writeable
                assert held.setdefault(key, row) is row
            finals.append(held)
        except Exception as exc:              # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(finals) == 4
    # rows the threads still hold are the cache's own, one per key
    for key, lam in enumerate(lams):
        assert {id(held[key]) for held in finals} == {id(pot._tilt_cdf(lam))}
    del finals
    gc.collect()
    assert len(pot._tilt_tables) == 0


# answers past each potential's resolvable edge (6.25 and 3.75 at the
# default window) are clamped; the coarse grid keeps the fresh builds cheap
_EDGES = {"gaussian": 6.25, "quartic": 3.75}
_SHARED = {name: gllab.make_potential(name, _COARSE) for name in _EDGES}


def _ask(pot, values):
    """Answers of a new view on ``pot`` to one call, and its flag."""
    table = EnvelopeTable(pot, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")        # clamped queries warn
        return table(np.asarray(values, dtype=float)), table.range_escaped


def _alone(name, x):
    """The bits of a fresh potential's answer at x, and its flag."""
    out, escaped = _ask(gllab.make_potential(name, _COARSE), [x])
    return out[0].tobytes(), escaped


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=5))
@example([1.1, 0.3, -1.15, 0.999])
def test_envelope_answers_do_not_depend_on_call_order(scales):
    # the shared potentials carry every earlier example's chunks
    for name, edge in _EDGES.items():
        pot = _SHARED[name]
        values = np.asarray(scales) * edge
        alone = [_alone(name, x) for x in values]
        together, escaped = _ask(pot, values)
        assert [v.tobytes() for v in together] == [a for a, _ in alone]
        assert escaped == any(e for _, e in alone)
        for x, expected in zip(values, alone):
            out, escaped = _ask(pot, [x])
            assert (out[0].tobytes(), escaped) == expected


def test_envelope_answers_agree_across_two_threads():
    values = np.linspace(-1.2, 1.2, 17) * _EDGES["gaussian"]
    pot = gllab.make_potential("gaussian", _COARSE)
    barrier = threading.Barrier(2)
    answers = [None, None]

    def ask(i):
        barrier.wait(timeout=60)
        order = values if i == 0 else values[::-1]
        got = {x: _ask(pot, [x]) for x in order}
        answers[i] = [(got[x][0][0].tobytes(), got[x][1]) for x in values]

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    alone = [_alone("gaussian", x) for x in values]
    assert answers[0] == alone and answers[1] == alone


def test_quartic_legendre_stops_stepping_converged_entries():
    pot = quartic_potential()
    stats = pot._tilted_stats
    passes = []
    pot._tilted_stats = lambda lam, tail_check=False: (
        passes.append(tail_check) or stats(lam, tail_check))
    x = np.linspace(-0.5, 0.5, 513)
    _, lam = pot.legendre_h_vec(x)
    # 49 passes when converged entries kept taking Newton steps
    assert len(passes) <= 12
    assert np.all(np.abs(stats(lam)[1] - x) <= 1e-12 * (1.0 + np.abs(x)))


def test_max_curvature_gaussian_is_one(gaussian):
    table = EnvelopeTable(gaussian, -1.0, 1.0)
    assert table.max_curvature() == pytest.approx(1.0, rel=1e-6)


def test_local_equilibrium_average_gaussian(gaussian):
    # phi'(y) = y; with a generous cutoff the clipped-flux average at
    # mean x is x itself, and a tight cutoff saturates it
    for x in (0.0, 0.5, -1.2):
        assert gaussian.local_equilibrium_average(x, 30.0) == \
            pytest.approx(x, abs=1e-6)
    assert abs(gaussian.local_equilibrium_average(1.0, 0.01)) <= 0.01
    with pytest.raises(ValueError):
        gaussian.local_equilibrium_average(0.0, -1.0)


def test_make_potential_names():
    assert gllab.make_potential("gaussian").name == "gaussian"
    assert gllab.make_potential("quartic", a=2.0, b=0.5).name == "quartic"
    with pytest.raises(ValueError):
        gllab.make_potential("unknown")
