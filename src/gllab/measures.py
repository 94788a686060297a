"""Atomic signed measures on the unit circle and distances between them.

The empirical field of a lattice state is the signed measure placing mass
X_i/N at location i/N.  Distances use the bounded-Lipschitz dual norm
(Dudley, Real Analysis and Probability, ch. 11), computed exactly as a
finite linear program over the test-function values f_k at the sorted atom
locations theta_k: |f_k| <= 1, and |f_k - f_{k+1}| <= d_arc(theta_k,
theta_{k+1}) for cyclically adjacent atoms only.  Chained along the shorter
arc, the neighbour rows give the Lipschitz bound for every pair (see
``bl_distance``), so the LP has O(m) rows and needs no atom cap.  Path
distance is the max over shared snapshot times, solved only at snapshots
whose closed-form bound (``_bl_bound``, exact at zero net mass) can set it.

scipy's LP solver is imported on the first solve, not with this module:
it is most of the package's import time, and most runs never solve an LP.
"""

from __future__ import annotations

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
        if np.any((self.locations < 0) | (self.locations >= 1)):
            raise ValueError("locations must lie in [0, 1)")

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


def bl_distance(mu1: AtomicSignedMeasure, mu2: AtomicSignedMeasure) -> float:
    """Bounded-Lipschitz distance, solved as a finite LP.

    The LP is exact, but HiGHS solves it only up to its 1e-7 feasibility
    and optimality tolerances, so atoms closer than that can lift the
    value by about their gap: for mu1 = 0 and mu2 with unit atoms at 0
    and 2^-24 the distance is 2, and this returns 2.0000000596046448.
    ``d_star`` pads its screening bounds by more than that excess.

    Atoms of the difference measure with zero net weight are dropped
    first; constraining the remaining values is exact because any
    feasible assignment extends to the full circle with the same bound
    and Lipschitz constant.  Of the Lipschitz rows, only those between
    cyclic neighbours k, k+1 in sorted order are kept: chained along the
    shorter arc between any pair, they give that pair's row, because
    each neighbour's d_arc is at most its gap.  So the LP is exact with
    2m rows instead of m(m-1).
    """
    c, d = _net(mu1, mu2)
    m = c.size
    if m < 2:
        return float(np.sum(np.abs(c)))

    from scipy import sparse

    # _net sorts the atoms: row k pairs atom k with its successor, as
    # f_k - f_{k+1} <= d_k, and row m + k as f_{k+1} - f_k <= d_k
    k = np.arange(m)
    a_ub = sparse.csr_array(
        (np.repeat([1.0, -1.0, -1.0, 1.0], m),
         (np.concatenate([k, k, k + m, k + m]),
          np.concatenate([k, (k + 1) % m] * 2))), shape=(2 * m, m))
    b_ub = np.concatenate([d, d])

    # HiGHS's tolerances are absolute (1e-7): solve with costs of largest
    # magnitude one and scale the optimum back, or small weights drown.
    scale = float(np.max(np.abs(c)))
    res = linprog(-c / scale, A_ub=a_ub, b_ub=b_ub, bounds=(-1.0, 1.0),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"bounded-Lipschitz LP failed: {res.message}")
    return float(-res.fun) * scale


def _bl_bound(mu1: AtomicSignedMeasure, mu2: AtomicSignedMeasure):
    """Closed-form bound on ``bl_distance``, and a pad for HiGHS's error.

    With eps = sum c and F = cumsum(c) - eps, summation by parts gives
    sum c_k f_k <= |eps| + sum d_k |F_k - s| for every s, least at a
    d-weighted median of F, and exact at eps = 0; the box gives sum |c|.
    HiGHS's 1e-7 tolerances on the scaled LP lift its value by at most
    1e-7 (2m + 1) sum |c| (dual l1 norm times violation), under the pad."""
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
