"""Independent references the tests compare gllab's results against.

They are not part of the package: no library code path uses them, and
each computes its quantity by a route the library does not take.
"""

import math

import numpy as np

from gllab import EnvelopeTable
from gllab.rate import _defect


def weak_form_residual(pot, field, u, test_function, t):
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


def h_minus_one_seminorm(g) -> float:
    """Negative-order seminorm: L2 norm of the zero-mean antiderivative.

    Computed through the discrete Fourier transform as
    sqrt(sum_{k != 0} |g_hat_k|^2 / (2 pi k)^2); raises ValueError when
    the input's spatial mean exceeds 1e-10 times max(1, max |g|).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        raise ValueError("expected one spatial slice")
    scale = float(np.max(np.abs(g), initial=0.0))
    mean = float(np.mean(g))
    if abs(mean) > 1e-10 * max(1.0, scale):
        raise ValueError(f"spatial mean {mean:.3e} is not zero")
    j = g.size
    coeff = np.fft.rfft(g) / j
    k = np.arange(coeff.size)
    mult = np.ones(coeff.size)
    if j % 2 == 0:
        mult[-1] = 0.5    # Nyquist bin counts once, not twice
    terms = (np.abs(coeff[1:]) ** 2) * mult[1:] / (2.0 * np.pi * k[1:]) ** 2
    return float(math.sqrt(2.0 * np.sum(terms)))


def dynamic_cost_via_seminorm(pot, field) -> float:
    """Time integral of half the squared seminorm of the defect: the
    dynamic cost by the dual route, against ``rate``'s minimal control."""
    g = _defect(pot, field)
    g = g - g.mean(axis=1, keepdims=True)
    total = sum(h_minus_one_seminorm(row) ** 2 for row in g)
    return 0.5 * total * field.dt


def circle_w1(mu, nu) -> float:
    """Transport (W1) distance on the unit circle between two atomic
    measures of equal mass, in closed form.

    With c the net weights of mu - nu at the sorted distinct atoms, g_k
    the gap from atom k to the next going round the circle (the gaps sum
    to one) and F = cumsum(c), the cost is min over s of sum g_k |F_k - s|,
    which a g-weighted median of F attains.  Raises ValueError when the
    masses differ.
    """
    theta, inv = np.unique(np.concatenate([mu.locations, nu.locations]),
                           return_inverse=True)
    c = np.bincount(inv, weights=np.concatenate([mu.weights, -nu.weights]),
                    minlength=theta.size)
    if abs(np.sum(c)) > 1e-12 * np.sum(np.abs(c)):
        raise ValueError("the measures' masses differ")
    gaps = np.diff(theta, append=theta[0] + 1.0)
    f = np.cumsum(c)
    order = np.argsort(f)
    s = f[order[np.searchsorted(np.cumsum(gaps[order]), 0.5)]]
    return float(np.sum(gaps * np.abs(f - s)))
