"""Monte Carlo laboratory: exponential functionals, importance sampling,
and variational upper bounds for the lattice diffusion.

The central identity is the control representation of exponential
integrals: -(1/N) log E[exp(-N F)] over the equilibrium ensemble equals
the infimum, over initial profiles and controls, of

    per-site initial entropy + E[ control cost + F(controlled field) ].

Every admissible (profile, control) pair therefore yields an upper bound
on the Laplace functional at the same N; the trend study tracks how the
best bound from a parametric control family approaches the plain Monte
Carlo estimate as N grows, with the smallest F + rate over the family
alongside (an upper estimate of the deterministic limit inf {F + rate}).

Both sides of the identity, and the Girsanov reweighting between them,
are reductions of one controlled replica batch: each estimator hands the
core ``_estimate`` a map from (F per replica, ``ReplicaBatch``) to an
estimate and its standard error.
"""

from __future__ import annotations

import math
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateEstimate
from .particles import (ControlGrid, ProfileMeasure, SimConfig,
                        entropy_cost_of_profile, equilibrium_profile,
                        simulate_replicas, stable_dt, tilted_sine_profile)
from .pde import DensityField, cfl_time_steps
from .potential import Potential
from .rate import rate


@dataclass(frozen=True)
class Functional:
    """Bounded continuous functional of a measure path.

    Supported kinds: "pairing_at_end" applies ``transform`` to the pairing
    of the final snapshot with ``test_function``; "sup_pairing" applies it
    to the running maximum of that pairing over the snapshot grid.  Values
    are clamped to [-bound, bound] on evaluation, so the functional is
    bounded by construction; an infinite bound is rejected.
    """

    kind: str
    test_function: Callable
    transform: Callable
    bound: float

    def __post_init__(self):
        if self.kind not in ("pairing_at_end", "sup_pairing"):
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if not (math.isfinite(self.bound) and self.bound > 0):
            raise ValueError("functional bound must be finite and positive")

    def from_pairings(self, pairings: np.ndarray) -> np.ndarray:
        """Evaluate on a (snapshots, replicas) pairing array; a
        deterministic path is one replica."""
        if self.kind == "pairing_at_end":
            v = pairings[-1]
        else:
            v = np.max(pairings, axis=0)
        return np.clip(np.asarray(self.transform(v), dtype=float),
                       -self.bound, self.bound)


@dataclass(frozen=True)
class ExperimentReport:
    """One estimator run, in the shape the reports CSV expects."""

    method: str
    n_sites: int
    replicas: int
    estimate: float
    std_error: float
    wall_time: float
    seed: int

    def csv_row(self) -> str:
        return (f"{self.method},{self.n_sites},{self.replicas},"
                f"{self.estimate:.17g},{self.std_error:.17g},"
                f"{self.wall_time:.6g},{self.seed}")

    CSV_HEADER = "method,N,M,estimate,std_error,wall_time_s,seed"


def _snapshot_times(config: SimConfig, functional: Functional):
    if functional.kind == "pairing_at_end":
        return [0.0, config.horizon]
    return list(np.linspace(0.0, config.horizon, 9))


def _mean_and_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (zero for a single sample)."""
    m = samples.size
    se = float(np.std(samples, ddof=1)) / math.sqrt(m) if m > 1 else 0.0
    return float(np.mean(samples)), se


def _estimate(method, reduce, pot, functional, config, profile,
              n_replicas, control, rng) -> ExperimentReport:
    """The one estimator core: run a batch, check F, time and report.

    ``reduce(F, batch)`` maps the per-replica functional values and the
    batch (Girsanov log weights, control costs) to (estimate, std_error).
    """
    start = _time.perf_counter()
    batch = simulate_replicas(
        pot, config, profile, n_replicas, control=control,
        sample_times=_snapshot_times(config, functional),
        pairing_functions=[functional.test_function], rng=rng)
    f_vals = functional.from_pairings(batch.pairings[0])
    if not np.all(np.isfinite(f_vals)):
        raise DegenerateEstimate("functional produced non-finite values")
    estimate, std_error = reduce(f_vals, batch)
    return ExperimentReport(method, config.n_sites, n_replicas, estimate,
                            std_error, _time.perf_counter() - start,
                            config.seed)


def laplace_functional_mc(pot: Potential, functional: Functional,
                          config: SimConfig, profile: ProfileMeasure,
                          n_replicas: int,
                          rng: np.random.Generator | None = None
                          ) -> ExperimentReport:
    """-(1/N) log of the empirical mean of exp(-N F), with delta-method SE.

    The mean is taken in shifted log space, so the estimate stays finite
    whenever any replica contributes weight; a vanishing or non-finite
    weight mass raises DegenerateEstimate instead of returning NaN.
    """
    n = config.n_sites

    def reduce(f_vals, _):
        a = -n * f_vals
        shift = float(np.max(a))
        w = np.exp(a - shift)
        mean_w = float(np.mean(w))
        if not (mean_w > 0 and math.isfinite(mean_w)):
            raise DegenerateEstimate("all exponential weights vanished")
        sd_w = float(np.std(w, ddof=1)) if n_replicas > 1 else 0.0
        return (-(shift + math.log(mean_w)) / n,
                sd_w / (math.sqrt(n_replicas) * mean_w * n))

    return _estimate("laplace_mc", reduce, pot, functional, config, profile,
                     n_replicas, None, rng)


def importance_sampled_expectation(pot: Potential, functional: Functional,
                                   control: ControlGrid | None,
                                   config: SimConfig,
                                   profile: ProfileMeasure,
                                   n_replicas: int,
                                   rng: np.random.Generator | None = None
                                   ) -> ExperimentReport:
    """Estimate E[G] under the uncontrolled law by reweighting controlled
    replicas with the Girsanov factor exp(log dP/dPbar); with no control
    every factor is exp(0) = 1 and this is the plain sample mean."""
    def reduce(g_vals, batch):
        return _mean_and_se(g_vals * np.exp(batch.log_weights))

    return _estimate("importance_sampling", reduce, pot, functional, config,
                     profile, n_replicas, control, rng)


def variational_upper_bound(pot: Potential, functional: Functional,
                            control: ControlGrid | None,
                            profile: ProfileMeasure, config: SimConfig,
                            n_replicas: int,
                            rng: np.random.Generator | None = None
                            ) -> ExperimentReport:
    """Entropy + mean(cost + F) for one admissible (profile, control) pair.

    By the control representation this upper-bounds the Laplace functional
    at the same N, up to Monte Carlo error on the mean.
    """
    def reduce(f_vals, batch):
        entropy = entropy_cost_of_profile(profile, config.n_sites)
        # batch.costs sums over sites; the bound lives in per-site units
        mean, std_error = _mean_and_se(batch.costs / config.n_sites + f_vals)
        return entropy + mean, std_error

    return _estimate("variational_bound", reduce, pot, functional, config,
                     profile, n_replicas, control, rng)


# -- steering paths and control families -------------------------------------


def sine_target_field(target: float, horizon: float, j_cells: int = 64,
                      n_steps: int | None = None) -> DensityField:
    """Deviation path m(t) = b(t) sin(2 pi theta) ending at pairing target.

    The amplitude grows exponentially at the heat-mode rate, which is the
    least-action shape for the quadratic reference potential and a usable
    candidate otherwise; b(T) is set so the final pairing with
    sin(2 pi theta) equals ``target``.
    """
    n_steps = n_steps or max(64, j_cells)
    times = np.linspace(0.0, horizon, n_steps + 1)
    theta = np.arange(j_cells) / j_cells
    b = 2.0 * target * np.exp(2.0 * math.pi ** 2 * (times - horizon))
    vals = b[:, None] * np.sin(2.0 * np.pi * theta)[None, :]
    return DensityField(vals, horizon)


@dataclass(frozen=True)
class SteeringPlan:
    """A deviation path's minimal control, initial profile, limit pairing
    and total rate."""

    control_grid: ControlGrid
    profile: ProfileMeasure
    limit_pairing: np.ndarray     # pairing path of the limit field
    rate_total: float


STEERING_CELLS = 64


def steering_steps(pot: Potential, target: float, horizon: float) -> int:
    """Time steps of the steering field toward ``target``: the CFL count on
    STEERING_CELLS cells at the field's largest magnitude."""
    return cfl_time_steps(pot, lambda th: 2.0 * abs(target)
                          * np.ones_like(th), STEERING_CELLS, horizon)


def steering_plan(pot: Potential, target: float, horizon: float,
                  test_function: Callable) -> SteeringPlan:
    """Build the steering field toward ``target`` on STEERING_CELLS cells.

    The control is the path's minimal control; the profile is the tilt
    matching the path's initial slice.
    """
    j_cells = STEERING_CELLS
    field = sine_target_field(target, horizon, j_cells,
                              steering_steps(pot, target, horizon))
    decomp = rate(pot, field)
    b0 = 2.0 * target * math.exp(-2.0 * math.pi ** 2 * horizon)
    # The profile's Legendre solve covers the initial slice's range, so it
    # raises wherever rate() found no finite initial entropy.
    profile = tilted_sine_profile(pot, b0)
    if not decomp.feasible:
        raise RuntimeError("steering field unexpectedly infeasible")
    theta = np.arange(j_cells) / j_cells
    jv = np.asarray(test_function(theta), dtype=float)
    limit_pairing = field.values @ jv / j_cells
    return SteeringPlan(decomp.minimal_control, profile,
                        limit_pairing, decomp.total)


@dataclass(frozen=True)
class TrendRow:
    """One system size of the trend study.

    ``limit_value`` (the ``inf_f_plus_rate`` column) is the smallest
    F + rate over the family targets, which makes it an upper estimate of
    the infimum.
    """

    n_sites: int
    laplace: float
    laplace_se: float
    variational: float
    variational_se: float
    limit_value: float

    def csv_row(self) -> str:
        return (f"{self.n_sites},{self.laplace:.17g},{self.laplace_se:.17g},"
                f"{self.variational:.17g},{self.variational_se:.17g},"
                f"{self.limit_value:.17g}")

    CSV_HEADER = ("N,laplace,laplace_se,best_variational,variational_se,"
                  "inf_f_plus_rate")


def ldp_trend_study(pot: Potential, functional: Functional,
                    n_list: Sequence[int], horizon: float,
                    n_replicas: int, targets: Sequence[float],
                    seed: int = 0, workers: int = 1,
                    report_sink: list | None = None) -> list[TrendRow]:
    """Laplace estimates vs. best variational bounds across system sizes.

    For each N the control family consists of the minimal controls of the
    steering paths for each target (resampled onto N slices and N sites),
    paired with the matching tilted profiles.  The limit column
    is the smallest F + rate over the same targets, which makes it an
    upper estimate of the infimum.  Individual estimator reports are
    appended to ``report_sink`` when one is supplied.

    Each of ``workers`` threads runs one member at a time: its steering
    plan and tilted profile live only while its bounds run at every N.
    Every batch has its own child stream, so the order moves no output.
    """
    seeds = np.random.SeedSequence(seed).spawn(len(n_list))
    streams = [s.spawn(1 + len(targets)) for s in seeds]
    configs = [SimConfig(n, horizon, stable_dt(pot, n), seed=seed)
               for n in n_list]
    laps = [laplace_functional_mc(pot, functional, config,
                                  equilibrium_profile(pot), n_replicas,
                                  rng=np.random.default_rng(s[0]))
            for config, s in zip(configs, streams)]

    def member(idx):
        plan = steering_plan(pot, targets[idx], horizon,
                             functional.test_function)
        value = (functional.from_pairings(plan.limit_pairing[:, None])[0]
                 + plan.rate_total)
        return value, [variational_upper_bound(
            pot, functional, plan.control_grid.resample(c.n_sites, c.n_sites),
            plan.profile, c, n_replicas,
            rng=np.random.default_rng(s[1 + idx]))
            for c, s in zip(configs, streams)]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            members = list(pool.map(member, range(len(targets))))
    else:
        members = [member(idx) for idx in range(len(targets))]
    limit_value = min(value for value, _ in members)

    rows = []
    for pos, lap in enumerate(laps):
        reports = [bounds[pos] for _, bounds in members]
        best = min(reports, key=lambda r: r.estimate)
        if report_sink is not None:
            report_sink.append(lap)
            report_sink.extend(reports)
        rows.append(TrendRow(lap.n_sites, lap.estimate, lap.std_error,
                             best.estimate, best.std_error, limit_value))
    return rows


def trend_gaps(rows: Sequence[TrendRow]) -> np.ndarray:
    return np.asarray([r.variational - r.laplace for r in rows])
