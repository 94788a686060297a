"""Atomic signed measures on the unit circle and distances between them.

The empirical field of a lattice state is the signed measure placing mass
X_i/N at location i/N.  Distances use the bounded-Lipschitz dual norm
(Dudley, Real Analysis and Probability, ch. 11): the sup of sum c_k f_k
over test-function values f_k at the sorted atoms theta_k of the net
measure, with |f_k| <= 1 and |f_k - f_{k+1}| <= d_arc(theta_k,
theta_{k+1}) for cyclically adjacent atoms (chained along the shorter arc,
these give the Lipschitz bound for every pair).  ``bl_distance`` solves
that finite LP without a solver, exact up to float rounding: by duality it
is a weighted-L1 isotonic fit of the cumulative weights (see
``bl_distance``), found in O(m log m) time and O(m) memory, with no atom
cap.  Path distance is the max over shared snapshot times, solved only at
snapshots whose closed-form bound (``_bl_bound``, exact at zero net mass)
can set it.  No code path imports scipy.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import TimeGridMismatch
from .particles import LatticeState, TrajectoryRecord


@dataclass(frozen=True)
class AtomicSignedMeasure:
    """Finite signed measure supported on points of the circle [0, 1)."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "locations",
                           np.asarray(self.locations, dtype=float))
        object.__setattr__(self, "weights",
                           np.asarray(self.weights, dtype=float))
        if self.locations.shape != self.weights.shape or self.locations.ndim != 1:
            raise ValueError("locations and weights must be matching 1-d arrays")
        # written so that NaN fails too
        if not np.all((self.locations >= 0) & (self.locations < 1)):
            raise ValueError("locations must lie in [0, 1)")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @property
    def n_atoms(self) -> int:
        return self.locations.size

    def pair(self, test_function: Callable) -> float:
        """Integral of the test function against this measure."""
        return float(np.sum(self.weights
                            * np.asarray(test_function(self.locations))))


def from_state(state: LatticeState) -> AtomicSignedMeasure:
    """Empirical field of a lattice state: mass X_i/N at i/N (site N at 0)."""
    n = state.n_sites
    locations = (np.arange(1, n + 1) % n) / n
    return AtomicSignedMeasure(locations, state.charges / n)


def density_to_atoms(density, n_atoms: int) -> AtomicSignedMeasure:
    """Collocate a density on the circle onto n_atoms midpoint atoms.

    ``density`` holds values on the uniform node grid j/J (J >= n_atoms);
    atom i/N gets weight m(i/N)/N, interpolated linearly on the circle.
    """
    locations = np.arange(n_atoms) / n_atoms
    grid_vals = np.asarray(density, dtype=float)
    j = grid_vals.size
    if j < n_atoms:
        raise ValueError("grid resolution is below the atom count")
    grid = np.arange(j + 1) / j
    wrapped = np.concatenate([grid_vals, grid_vals[:1]])
    vals = np.interp(locations, grid, wrapped)
    return AtomicSignedMeasure(locations, vals / n_atoms)


def arc_distance(a, b):
    """Shortest distance along the circle of circumference one."""
    d = np.abs(np.asarray(a) - np.asarray(b))
    return np.minimum(d, 1.0 - d)


# gllab never calls this; perfbench/spans.py wraps it by name.
def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def _net(mu1: AtomicSignedMeasure, mu2: AtomicSignedMeasure):
    """Nonzero net weights c of mu1 - mu2 at sorted atoms, and arc gaps d."""
    locs = np.concatenate([mu1.locations, mu2.locations])
    wts = np.concatenate([mu1.weights, -mu2.weights])
    uniq, inv = np.unique(locs, return_inverse=True)
    net = np.bincount(inv, weights=wts, minlength=uniq.size)
    keep = np.abs(net) > 1e-15 * np.max(np.abs(net), initial=0.0)
    theta = uniq[keep]
    return net[keep], arc_distance(theta, np.roll(theta, -1))


def _isotonic_l1(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Non-decreasing s minimizing sum w_k |s_k - p_k|, for w > 0.

    Slope trick: a max-heap holds the breakpoints of g_k(x), the least
    cost of s_0 <= ... <= s_k <= x, with the slope change at each.  Adding
    w_k |x - p_k| puts 2 w_k at p_k; taking the running min removes w_k of
    slope from the right.  The top is then an argmin of step k's cost, and
    s is the suffix minimum of the tops.  O(m log m) time, O(m) memory; a
    strictly decreasing p (one pooled block) is no worse.
    """
    heap, top = [], np.empty(p.size)
    for k, (x, wk) in enumerate(zip(p.tolist(), w.tolist())):
        heapq.heappush(heap, [-x, 2.0 * wk])
        excess = wk      # below the new entry's 2 wk: the heap never empties
        while heap[0][1] <= excess:
            excess -= heapq.heappop(heap)[1]
        heap[0][1] -= excess
        top[k] = -heap[0][0]
    return np.minimum.accumulate(top[::-1])[::-1]


def bl_distance(mu1: AtomicSignedMeasure, mu2: AtomicSignedMeasure) -> float:
    """Bounded-Lipschitz distance, exact up to float rounding.

    With c the net weights at the sorted atoms (zero-net atoms dropped: any
    feasible assignment extends to the circle with the same bounds), d the
    cyclic arc gaps, P = cumsum(c) and eps = sum c, the LP's dual is a
    transport: min over s of sum d_k |s_k - P_k| plus the cyclic total
    variation of s with twist eps, |s_0 - s_last + eps| + sum |s_k - s_{k-1}|.
    Flip c so that eps >= 0.  Then:

    - A descent of total D in s costs 2D more variation than eps; the
      running max of s, capped at s_0 + eps, moves no s_k by more than D,
      so it saves 2D and loses at most D sum d <= D (sum d <= 1).  Hence
      some optimal s is non-decreasing with s_last - s_first <= eps, and
      the distance is eps + min sum d_k |s_k - P_k| over such s.
    - For s confined to [a, a + eps], the weighted-L1 isotonic fit of P,
      clipped to the box, is optimal (the L1 cost splits into threshold
      problems, one per level, which clipping leaves optimal inside the
      box).  The cost G(a) is convex and piecewise linear, with breakpoints
      at s_k, P_k and both minus eps; its least value is where its slope,
      a sum of steps at those points, first turns non-negative.

    At eps = 0 this is the circle's W1 distance, which ``_bl_bound`` gives
    in closed form.  No m x m array is formed.
    """
    c, d = _net(mu1, mu2)
    if c.size < 2:
        return float(np.sum(np.abs(c)))
    eps = float(np.sum(c))
    if eps < 0.0:
        c, eps = -c, -eps
    p = np.cumsum(c)
    s = _isotonic_l1(p, d)
    # G'(a) = sum over s_k < a of d_k sign(a - P_k), plus sum over
    # s_k > a + eps of d_k sign(a + eps - P_k): -sum d at a = -inf
    up, down = p > s, p < s
    at = np.concatenate([s, p, s - eps, p - eps])
    jump = np.concatenate([np.where(up, -d, d), np.where(up, 2.0 * d, 0.0),
                           np.where(down, -d, d),
                           np.where(down, 2.0 * d, 0.0)])
    order = np.lexsort((jump, at))     # at a tie, falls before rises
    slope = np.cumsum(jump[order]) - np.sum(d)
    a = at[order[np.argmax(slope >= 0.0)]]
    return eps + float(np.sum(d * np.abs(np.clip(s, a, a + eps) - p)))


def _bl_bound(mu1: AtomicSignedMeasure, mu2: AtomicSignedMeasure):
    """Closed-form bound on ``bl_distance``, and a pad for float rounding.

    With eps = sum c and F = cumsum(c) - eps, summation by parts gives
    sum c_k f_k <= |eps| + sum d_k |F_k - s| for every s, least at a
    d-weighted median of F; this is ``bl_distance``'s dual with s held
    constant, so it is exact at eps = 0.  The box gives sum |c|.  The two
    closed forms round differently; the pad 1e-6 m sum |c| is far above
    that rounding (about 1e-16 m sum |c|), so the padded bound never falls
    below the distance."""
    c, d = _net(mu1, mu2)
    tv = float(np.sum(np.abs(c)))
    if c.size < 2:
        return tv, 0.0
    f = np.cumsum(c) - np.sum(c)
    order = np.argsort(f)
    s = f[order[np.searchsorted(np.cumsum(d[order]), 0.5 * np.sum(d))]]
    bound = min(tv, abs(float(np.sum(c))) + float(np.sum(d * np.abs(f - s))))
    return bound, 1e-6 * c.size * tv


@dataclass(frozen=True)
class MeasurePath:
    """Snapshots of an atomic measure along a common time grid."""

    sample_times: np.ndarray
    snapshots: tuple

    def __post_init__(self):
        object.__setattr__(self, "sample_times",
                           np.asarray(self.sample_times, dtype=float))
        if len(self.snapshots) != self.sample_times.size:
            raise ValueError("one snapshot per sample time required")

    def pairings(self, test_function: Callable) -> np.ndarray:
        return np.asarray([s.pair(test_function) for s in self.snapshots])


def path_from_record(record: TrajectoryRecord) -> MeasurePath:
    return MeasurePath(
        record.sample_times,
        tuple(from_state(record.state_at(k))
              for k in range(record.sample_times.size)))


def path_from_density_slices(times, slices, n_atoms: int) -> MeasurePath:
    return MeasurePath(np.asarray(times, dtype=float),
                       tuple(density_to_atoms(s, n_atoms) for s in slices))


def d_star(path1: MeasurePath, path2: MeasurePath) -> float:
    """Uniform-in-time bounded-Lipschitz distance over shared snapshots.
    ``bl_distance`` runs in descending order of the padded ``_bl_bound``s
    until one is below the largest distance so far, which is the max."""
    if path1.sample_times.size != path2.sample_times.size or \
            not np.allclose(path1.sample_times, path2.sample_times,
                            rtol=0.0, atol=1e-12):
        raise TimeGridMismatch("paths do not share a snapshot grid")
    if not path1.snapshots:
        raise ValueError("paths have no snapshots")
    pairs = list(zip(path1.snapshots, path2.snapshots))
    ceilings = [sum(_bl_bound(a, b)) for a, b in pairs]
    best = -np.inf
    for k in np.argsort(ceilings)[::-1]:
        if ceilings[k] < best:
            break
        best = max(best, bl_distance(*pairs[k]))
    return best
