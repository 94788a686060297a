"""Single-site potential machinery.

A :class:`Potential` wraps the potential closures ``phi``, ``phi_prime``,
``phi_double_prime`` together with a fixed quadrature grid and exposes the
derived quantities everything downstream needs: the log moment generating
function, its Legendre transform, exponentially tilted sampling, and the
cutoff local-equilibrium average.  The reference weight is the probability
density ``exp(-phi(x))``; a normalization offset is computed once at
construction so this density integrates to one.

All integrals run over one fixed trapezoid grid and are evaluated in log
space (``_logsumexp``, a numpy log-sum-exp that matches scipy's bit for
bit), so moderately large tilts do not overflow.  A doubling
check at construction and a tail-mass check on every user-facing integral
guard the fixed window: if either fails, :class:`QuadratureDiverged` is
raised rather than returning a silently truncated value.
"""

from __future__ import annotations

import itertools
import math
import threading
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureDiverged, RootNotBracketed

# Bracket expansion for the tilt solve stops here; targets that stay
# unbracketed at this tilt are treated as unachievable.
BRACKET_CAP = 64.0

# Largest fraction of integral mass allowed on the outermost node pair.
TAIL_BUDGET = 1e-10

_LOG_TAIL_BUDGET = math.log(TAIL_BUDGET)

# Largest change of the log normalization allowed when the grid is doubled.
DOUBLING_TOLERANCE = 1e-8

# Values of sigma for which exp(sigma*|phi'| - phi) must be integrable: the
# moment condition the particle drift analysis needs.
SIGMA_CHECKS = (0.5, 1.0)

# Envelope-slope nodes x = k * ENVELOPE_SPACING, each an exact float; chunk
# c holds nodes k = c * CHUNK_NODES, ..., (c + 1) * CHUNK_NODES - 1.
ENVELOPE_SPACING = 2.0 ** -9
CHUNK_NODES = 128
CHUNK_WIDTH = CHUNK_NODES * ENVELOPE_SPACING

# Tilts tabulated by a tilted-family sampler.
FAMILY_TILTS = 129

# Bytes of one row block of tilted integrands: 32 rows at the default 4096
# nodes, about half of a 2 MB per-core L2 cache.
STATS_BLOCK_BYTES = 1 << 20


def _trapezoid(q: "QuadratureSpec", node_count: int):
    """Nodes and log weights of the trapezoid rule on q's window."""
    y = np.linspace(-q.domain_halfwidth, q.domain_halfwidth, node_count)
    logw = np.full(node_count, math.log(y[1] - y[0]))
    logw[0] -= math.log(2.0)
    logw[-1] -= math.log(2.0)
    return y, logw


def _logsumexp(a):
    """log(sum(exp(a))) of a 1-d array, as ``scipy.special.logsumexp``
    computes it, operation for operation.

    The maxima are split off the sum for precision; a non-finite result
    (overflow, all -inf, +inf or nan entries) falls back to the direct
    formula.  Only numpy ufuncs are used: numpy's SIMD ``log`` may differ
    from libm's in the last place.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a)
        top = a == a_max
        m = np.count_nonzero(top)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return out


def _unachievable(bad, quadrature) -> RootNotBracketed:
    """The tilt cap and the quadrature window both bound a tilted mean."""
    w = quadrature.domain_halfwidth
    return RootNotBracketed(
        f"mean value(s) {bad[:4]} not achievable with |tilt| <= "
        f"{BRACKET_CAP:g} on the quadrature window [-{w:g}, {w:g}]; widen "
        f"QuadratureSpec.domain_halfwidth for means near or past it")


@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed trapezoid rule on [-domain_halfwidth, domain_halfwidth]."""

    node_count: int = 4096
    domain_halfwidth: float = 12.0

    def __post_init__(self):
        if self.node_count < 16:
            raise ValueError("node_count must be at least 16")
        if not (self.domain_halfwidth > 0):
            raise ValueError("domain_halfwidth must be positive")


class Potential:
    """Normalized single-site potential with quadrature-backed cumulants.

    Parameters
    ----------
    phi, phi_prime, phi_double_prime : callables
        Potential and derivatives, vectorized over numpy arrays.  ``phi``
        may be un-normalized; the constructor adds the offset that makes
        exp(-phi) a probability density.
    quadrature : QuadratureSpec
        Grid for every integral this object performs.

    The moment condition of ``SIGMA_CHECKS`` is verified at construction.

    Instances are safe to share across threads.  Their only mutable state
    is two caches of deterministic results, filled under one lock: the
    tilted-sampling CDFs (``_tilt_tables``, weakly held, so a row lives
    while some sampler holds it) and the envelope chunks (``_chunks``, see
    :meth:`_envelope`); two threads computing one key store equal values.
    No method keeps scratch state: kernels allocate buffers per call.
    """

    def __init__(self, phi, phi_prime, phi_double_prime,
                 quadrature: QuadratureSpec | None = None,
                 name: str = "custom"):
        self.quadrature = quadrature or QuadratureSpec()
        q = self.quadrature
        self.name = name

        y, logw = _trapezoid(q, q.node_count)
        self._y, self._logw, self._dy = y, logw, y[1] - y[0]

        raw = np.asarray(phi(y), dtype=float)
        if raw.shape != y.shape or not np.all(np.isfinite(raw)):
            raise ValueError("phi must be finite and vectorized on the grid")

        # Additive constant making exp(-phi) integrate to one.
        z = float(_logsumexp(-raw + logw))
        self._check_doubling(phi, z)
        self.normalization_offset = z
        self.phi_prime = phi_prime
        self.phi_double_prime = phi_double_prime

        self._phi_grid = raw + z          # normalized phi on the grid
        self._phi_prime_grid = np.asarray(phi_prime(y), dtype=float)
        self._neg_phi_logw = -self._phi_grid + logw
        self._y2 = y ** 2

        for sigma in SIGMA_CHECKS:
            g = sigma * np.abs(self._phi_prime_grid) - self._phi_grid
            self._tail_checked_logsumexp(g, f"sigma moment check (sigma={sigma})")

        self._tilt_tables = weakref.WeakValueDictionary()
        self._chunks: dict[int, tuple | Exception] = {}
        self._cache_lock = threading.Lock()

    # -- curvature -----------------------------------------------------

    def max_phi_double_prime(self):
        """Max curvature over the probe range |x| <= 8, used by stability
        rules."""
        mask = np.abs(self._y) <= 8.0
        return float(np.max(np.abs(self.phi_double_prime(self._y[mask]))))

    # -- quadrature helpers --------------------------------------------

    def _check_doubling(self, phi, z_coarse):
        y2, logw2 = _trapezoid(self.quadrature,
                               2 * self.quadrature.node_count - 1)
        z2 = float(_logsumexp(-np.asarray(phi(y2), dtype=float) + logw2))
        if abs(z2 - z_coarse) > DOUBLING_TOLERANCE:
            raise QuadratureDiverged(
                f"doubling check failed: |{z2:.3e} - {z_coarse:.3e}| "
                f"> {DOUBLING_TOLERANCE:g}; refine the quadrature spec")

    def _tail_checked_logsumexp(self, log_integrand, what):
        """logsumexp over the grid, raising if the window truncates mass."""
        gw = log_integrand + self._logw
        total = float(_logsumexp(gw))
        edge = float(_logsumexp([gw[0], gw[-1]]))
        if not math.isfinite(total) or edge - total > _LOG_TAIL_BUDGET:
            raise QuadratureDiverged(
                f"{what}: integrand tail exceeds the truncation budget "
                f"(edge-to-total log ratio {edge - total:.2f})")
        return total

    def _tilted_stats(self, lam, tail_check=False):
        """(rho, mean, variance) of the lam-tilted density, vectorized.

        lam may be a scalar or an array; stats come back with its shape.
        This is the innermost loop of every envelope build, Legendre solve
        and CFL bound, so it walks the tilts in blocks of rows whose
        integrand fits one buffer of about ``STATS_BLOCK_BYTES``, kept in
        a per-core L2 cache while the multiply-add, max-shift and ``exp``
        run on it in place.  The buffer is allocated per call, so threads
        sharing this potential share no scratch state.

        Each row is reduced on its own: the normalizer by ``np.sum`` and
        the two moments by ``np.einsum("ij,j->i")``, not by a BLAS
        matrix-vector product, whose summation order changes with the
        number of rows and the BLAS thread count.  So a tilt's stats are
        bit-identical whatever batch, block or thread count it comes in.
        """
        lam_arr = np.asarray(lam, dtype=float)
        flat = lam_arr.reshape(-1)
        n = flat.size
        rho, mean, var = np.empty(n), np.empty(n), np.empty(n)
        y = self._y
        rows = max(1, STATS_BLOCK_BYTES // y.nbytes)
        buf = np.empty((min(rows, n), y.size))
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            w = buf[:stop - start]
            np.multiply(flat[start:stop, None], y, out=w)
            w += self._neg_phi_logw
            shift = np.max(w, axis=1)
            if tail_check:
                edge = np.logaddexp(w[:, 0], w[:, -1])
            w -= shift[:, None]
            np.exp(w, out=w)
            z = np.sum(w, axis=1)
            r = shift + np.log(z)
            if tail_check and (not np.all(np.isfinite(r))
                               or np.any(edge - r > _LOG_TAIL_BUDGET)):
                raise QuadratureDiverged(
                    "tilted integrand mass leaks past the quadrature window; "
                    "widen domain_halfwidth or reduce the tilt")
            m = np.einsum("ij,j->i", w, y) / z
            rho[start:stop] = r
            mean[start:stop] = m
            var[start:stop] = np.einsum("ij,j->i", w, self._y2) / z - m ** 2
        if lam_arr.ndim == 0:
            return float(rho[0]), float(mean[0]), float(var[0])
        shape = lam_arr.shape
        return rho.reshape(shape), mean.reshape(shape), var.reshape(shape)

    # -- cumulant generating function ----------------------------------

    def log_mgf(self, lam):
        """log integral of exp(lam*x - phi(x)); zero at lam = 0."""
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        out = np.empty(lam_arr.shape)
        for i, l in np.ndenumerate(lam_arr):
            g = l * self._y - self._phi_grid
            out[i] = self._tail_checked_logsumexp(g, f"log_mgf(lam={l:g})")
        if np.isscalar(lam) or np.asarray(lam).ndim == 0:
            return float(out[0])
        return out

    # -- Legendre transform --------------------------------------------

    def _bracket(self, x):
        """Tilts ``(lo, hi)`` with rho'(lo) <= x <= rho'(hi), per entry of x.

        Each end starts at -1 or 1 and doubles where still needed, up to
        |tilt| = BRACKET_CAP; a mean value not reached there raises
        RootNotBracketed.  An entry's bracket does not depend on its batch.
        """
        ends = []
        for sign in (1.0, -1.0):
            lam = np.full(x.shape, sign)
            while True:
                mean = self._tilted_stats(lam)[1]
                need = mean < x if sign > 0 else mean > x
                if not np.any(need):
                    break
                capped = need & (np.abs(lam) >= BRACKET_CAP)
                if np.array_equal(capped, need):
                    raise _unachievable(x[capped], self.quadrature)
                lam = np.where(need, np.clip(2.0 * lam, -BRACKET_CAP,
                                             BRACKET_CAP), lam)
            ends.append(lam)
        return ends[1], ends[0]

    def legendre_h(self, x):
        """Legendre transform of the log-MGF at mean value x.

        Returns ``(h, lam_star)`` where lam_star solves rho'(lam) = x.
        Scalar in, scalars out.
        """
        h, lam = self.legendre_h_vec(np.asarray([x], dtype=float))
        return float(h[0]), float(lam[0])

    def legendre_h_vec(self, x):
        """Vectorized Legendre transform; returns (h, lam_star) arrays.

        Safeguarded Newton on the monotone map lam -> rho'(lam) inside the
        brackets of :meth:`_bracket`; an entry within tolerance stops
        stepping.  Raises RootNotBracketed for unachievable mean values.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError("legendre_h_vec expects a 1-d array")
        lo, hi = self._bracket(x)
        lam = 0.5 * (lo + hi)
        tol = 1e-12 * (1.0 + np.abs(x))
        for _ in range(200):
            _, mean, var = self._tilted_stats(lam)
            f = mean - x
            live = np.abs(f) > tol
            if not np.any(live):
                break
            lo = np.where(live & (f < 0), lam, lo)
            hi = np.where(live & (f >= 0), lam, hi)
            cand = lam - f / np.maximum(var, 1e-300)
            bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
            lam = np.where(live, np.where(bad, 0.5 * (lo + hi), cand), lam)
        else:
            raise RootNotBracketed(
                f"tilt solve did not converge; residual "
                f"{np.max(np.abs(f)):.3e}")

        rho, _, _ = self._tilted_stats(lam, tail_check=True)
        rho = np.atleast_1d(rho)
        return lam * x - rho, lam

    # -- envelope table --------------------------------------------------

    def _envelope(self, c):
        """Chunk c of the envelope table, ``(xs, lams, vars)`` read-only, or
        its build's error; memoized for chunks starting inside the window
        [-w, w] that bounds every tilted mean, 97 at the defaults."""
        chunk = self._chunks.get(c)
        if chunk is None:
            try:
                chunk = self._build_chunk(c)
            except (RootNotBracketed, QuadratureDiverged) as exc:
                chunk = exc.with_traceback(None)   # frees the build's frames
            if abs(c * CHUNK_WIDTH) <= self.quadrature.domain_halfwidth:
                with self._cache_lock:
                    chunk = self._chunks.setdefault(c, chunk)
        return chunk

    def _build_chunk(self, c):
        """``(xs, lams, vars)`` of chunk c in three vectorized passes, not a
        solve per node: the forward map lam -> mean on the bracketing tilts,
        inverted by interpolation, then two Newton polishes, the last
        tail-checked so that unresolvable slopes fail."""
        xs = (c * CHUNK_NODES + np.arange(CHUNK_NODES)) * ENVELOPE_SPACING
        lows, highs = self._bracket(xs[[0, -1]])
        lam_lo, lam_hi = lows[0], highs[1]
        lam_grid = np.linspace(lam_lo, lam_hi, CHUNK_NODES)
        fwd_means = self._tilted_stats(lam_grid)[1]
        lams = np.interp(xs, fwd_means, lam_grid)
        for tail_check in (False, True):
            _, mean, var = self._tilted_stats(lams, tail_check=tail_check)
            lams = np.clip(lams - (mean - xs) / np.maximum(var, 1e-300),
                           lam_lo, lam_hi)
        for a in (xs, lams, var):
            a.flags.writeable = False
        return xs, lams, var

    # -- tilted sampling -------------------------------------------------

    def _tilt_cdf(self, lam):
        """Tabulated CDF of the lam-tilted density on the grid, cached for
        as long as some caller holds it."""
        key = float(np.round(lam, 12))
        table = self._tilt_tables.get(key)
        if table is None:
            g = lam * self._y - self._phi_grid
            rho = self._tail_checked_logsumexp(g, f"tilt table (lam={lam:g})")
            dens = np.exp(g - rho)
            table = np.concatenate(
                [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * self._dy)])
            table /= table[-1]
            table.flags.writeable = False       # samplers share it
            with self._cache_lock:
                table = self._tilt_tables.setdefault(key, table)
        return table

    # -- cutoff local-equilibrium average --------------------------------

    def local_equilibrium_average(self, x, cutoff):
        """Tilted average of phi_prime clamped to [-cutoff, cutoff].

        The tilt is chosen so the tilted mean equals x; as the cutoff
        grows this tends to the Legendre envelope slope at x.
        """
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        _, lam = self.legendre_h(x)
        g = lam * self._y - self._phi_grid + self._logw
        w = np.exp(g - _logsumexp(g))
        clipped = np.clip(self._phi_prime_grid, -cutoff, cutoff)
        return float(w @ clipped)


class TiltedFamilySampler:
    """Vectorized sampler for a whole family of tilted densities.

    The per-tilt inverse CDF is exact on the quadrature grid; between the
    tabulated tilt values the inverse CDF is interpolated linearly.  Used
    by profile samplers where the tilt varies from draw to draw: per-draw
    table construction would be quadratic in the batch size, while here
    draws group by bracketing table row.
    """

    def __init__(self, pot: Potential, lam_min: float, lam_max: float):
        if lam_max < lam_min:
            raise ValueError("lam_max must be >= lam_min")
        self._pot = pot
        pad = 1e-9 * (1.0 + abs(lam_min) + abs(lam_max))
        self._lam_min = lam_min - pad
        self._lam_max = lam_max + pad
        if self._lam_max - self._lam_min < 1e-8:
            self._lams = np.asarray([lam_min])
        else:
            self._lams = np.linspace(self._lam_min, self._lam_max,
                                     FAMILY_TILTS)
        # the potential's cached rows themselves, not a copy
        self._cdfs = [pot._tilt_cdf(l) for l in self._lams]

    def sample(self, lam, rng):
        """Draw one sample per entry of lam (array-valued tilt)."""
        lam = np.asarray(lam, dtype=float)
        u = rng.random(lam.shape)
        y = self._pot._y
        if self._lams.size == 1:
            return np.interp(u, self._cdfs[0], y)
        dl = self._lams[1] - self._lams[0]
        pos = np.clip((lam - self._lams[0]) / dl, 0.0, self._lams.size - 1 - 1e-12)
        idx = pos.astype(int)
        frac = pos - idx
        out = np.empty(lam.shape)
        for k in np.unique(idx):
            mask = idx == k
            lo = np.interp(u[mask], self._cdfs[k], y)
            hi = np.interp(u[mask], self._cdfs[k + 1], y)
            out[mask] = (1.0 - frac[mask]) * lo + frac[mask] * hi
        return out


class EnvelopeTable:
    """One run's view of a potential's envelope slope x -> lam*(x).

    A value is interpolated between the two lattice nodes around it, so
    its answer depends only on the chunks that own them (see
    :meth:`Potential._envelope`), never on call order.  A view holds the
    chunks it has read; ``lo`` and ``hi`` are their extent.  A value in a
    failed chunk is clamped, toward zero, to the end node of the nearest
    resolvable chunk; the first clamp warns, and each sets
    ``range_escaped``.  ``EnvelopeTable(pot, lo, hi)`` reads every chunk
    of [lo, hi], its end chunks (the likeliest to fail) first, and raises
    the first failure.
    """

    def __init__(self, pot: Potential, lo: float, hi: float):
        self._pot = pot
        self.range_escaped = False
        self._chunks = {}
        span = range(math.floor(lo / CHUNK_WIDTH),
                     math.ceil(hi / ENVELOPE_SPACING) // CHUNK_NODES + 1)
        for c in itertools.chain((span[0], span[-1]), span):
            chunk = pot._envelope(c)
            if isinstance(chunk, Exception):
                raise type(chunk)(*chunk.args)
            self._chunks[c] = chunk
        self._join()

    def _join(self):
        order = sorted(self._chunks)
        self._xs, self._lams, self._vars = (np.concatenate(
            [self._chunks[c][i] for c in order]) for i in range(3))
        self.lo, self.hi = self._xs[0], self._xs[-1] + ENVELOPE_SPACING
        # a gap between chunks sends every call through _read
        gapless = len(order) == order[-1] - order[0] + 1
        self._last = self._xs[-1] if gapless else -math.inf
        self._max_curvature = 1.0 / max(float(np.min(self._vars)), 1e-300)

    def nodes(self):
        """(xs, lams) of a gapless view, else None: ``np.interp`` on them
        answers every value inside them as a call does."""
        return None if self._last == -math.inf else (self._xs, self._lams)

    def max_curvature(self):
        """max d(lam*)/dx = 1/var over the view's chunks (CFL input)."""
        return self._max_curvature

    def _read(self, m):
        """``m`` with failed chunks' values clamped; reads every chunk."""
        w = self._pot.quadrature.domain_halfwidth
        # past the window every chunk fails, as the window's edge chunks do
        k = np.clip(m, -w, w) / ENVELOPE_SPACING
        owners = np.floor(np.stack([np.floor(k), np.ceil(k)]) / CHUNK_NODES)
        m = m.copy()
        for c in np.unique(owners[~np.isnan(owners)]).astype(int).tolist():
            step = -1 if c >= 0 else 1                  # toward zero
            for near in range(c, min(step, 0), step):
                chunk = self._pot._envelope(near)
                if not isinstance(chunk, Exception):
                    break
            else:
                raise type(chunk)(*chunk.args)
            self._chunks[near] = chunk
            if near != c:                               # c failed: clamp
                if not self.range_escaped:
                    warnings.warn("envelope slope queried outside the "
                                  "resolvable range; clamping (run marked "
                                  "range-escaped)")
                self.range_escaped = True
                m[np.any(owners == c, axis=0)] = chunk[0][min(step, 0)]
        self._join()
        return m

    def __call__(self, m):
        m = np.asarray(m, dtype=float)
        if not (self.lo <= np.min(m) and np.max(m) <= self._last):
            m = self._read(m)
        return np.interp(m, self._xs, self._lams)


# -- built-in families ----------------------------------------------------


def gaussian_potential(quadrature: QuadratureSpec | None = None) -> Potential:
    """Quadratic potential whose reference density is standard normal."""
    c = 0.5 * math.log(2.0 * math.pi)
    return Potential(
        phi=lambda x: 0.5 * np.asarray(x) ** 2 + c,
        phi_prime=lambda x: np.asarray(x, dtype=float),
        phi_double_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        quadrature=quadrature,
        name="gaussian",
    )


def quartic_potential(a: float = 1.0, b: float = 0.0,
                      quadrature: QuadratureSpec | None = None) -> Potential:
    """Potential a*x^4/4 + b*x^2/2, normalized at construction.

    Requires a > 0, or a == 0 with b > 0 (which is a rescaled Gaussian).
    """
    if a < 0 or (a == 0 and b <= 0):
        raise ValueError("need a > 0, or a == 0 with b > 0")
    return Potential(
        phi=lambda x: 0.25 * a * np.asarray(x) ** 4 + 0.5 * b * np.asarray(x) ** 2,
        phi_prime=lambda x: a * np.asarray(x) ** 3 + b * np.asarray(x),
        phi_double_prime=lambda x: 3.0 * a * np.asarray(x) ** 2 + b,
        quadrature=quadrature,
        name="quartic",
    )


def make_potential(name: str, quadrature: QuadratureSpec | None = None,
                   **params) -> Potential:
    """Build a potential by family name ('gaussian' or 'quartic')."""
    if name == "gaussian":
        if params:
            raise ValueError("gaussian potential takes no parameters")
        return gaussian_potential(quadrature)
    if name == "quartic":
        return quartic_potential(params.pop("a", 1.0), params.pop("b", 0.0),
                                 quadrature)
    raise ValueError(f"unknown potential family {name!r}")
