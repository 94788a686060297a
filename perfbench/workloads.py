"""The benchmark's three workloads, their correctness checks and digests.

Each workload is built from the run's seed (set-up), then runs one *pass*
at a time; a run repeats the same pass, so every pass of a run must give
the same digest.  Calls into gllab go through module attributes at call
time (``pde.solve_controlled_pde``, not a name bound at import), so the
traced run's wrappers see them.

- ``ldp``: ``gllab ldp`` in-process through ``gllab.cli.main`` with
  ``workers = 1``, at its defaults except for 1000 replicas instead of
  2000, so that a run fits two passes.  Large replica batches and the
  steering plans' envelope builds dominate; the large-batch particle
  engine shows here.
- ``certificate``: library callers, no CLI: random control pairs at
  J = 64, T = 0.1 put through ``cfl_time_steps`` and ``contraction_gap``,
  and ``rate`` on the first solution of each pair.  Envelope builds
  dominate, then PDE stepping, then a 64-atom LP.
- ``tracking``: ``gllab simulate`` at N = 256 (M = 1 trajectories, where
  per-step overhead dominates), ``gllab pde`` at J = 256 (its ~17 MB
  ``field.csv`` write dominates), then d* between each replica's path,
  read back from its CSV, and the PDE path at 256 atoms (256-atom LPs).
  The horizon, 0.025, keeps a pass near 8 s, so that a run's median
  rests on several passes.

An operation is one CLI command, one certificate pair or one replica's
d*.  It fails on an exception, a nonzero exit, a non-finite output, or a
broken invariant that holds for every seed.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import math
import shutil
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from gllab import cli, measures, particles, pde, potential

# ``gllab.rate`` the attribute is the function; this is the module.
rate_mod = importlib.import_module("gllab.rate")

LDP_REPLICAS = 1000

CERT_J = 64
CERT_HORIZON = 0.1
CERT_PAIRS = 2              # pairs per pass

TRACK_N = 256
TRACK_HORIZON = 0.025
TRACK_REPLICAS = 2
TRACK_SNAPSHOTS = 5


class OpFailed(Exception):
    """An operation's output broke one of the checked invariants."""


class Ops:
    """Counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextmanager
    def op(self, name):
        self.attempted += 1
        try:
            yield
        except Exception as exc:   # any failure of the program counts
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc()


class Digest:
    """sha256 over a pass's output files and returned numbers.

    Files are hashed when the digest is read, after the timed pass; they
    stay on disk until the next pass starts.
    """

    def __init__(self):
        self._items: list = []

    def numbers(self, *values):
        self._items.append(
            (",".join(repr(float(v)) for v in values) + "\n").encode())

    def file(self, path, drop_column=None):
        self._items.append((Path(path), drop_column))

    def hexdigest(self):
        h = hashlib.sha256()
        for item in self._items:
            if isinstance(item, bytes):
                h.update(item)
                continue
            path, drop_column = item
            with open(path, "rb") as fh:
                if drop_column is None:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        h.update(chunk)
                    continue
                for line in fh:
                    cells = line.rstrip(b"\n").split(b",")
                    del cells[drop_column]
                    h.update(b",".join(cells) + b"\n")
        return h.hexdigest()


def program_seed(seed: int) -> int:
    """The seed handed to gllab, derived from the benchmark's seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _run_cli(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"gllab {argv[0]} exited {rc}")


def _require_finite(values, what):
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise OpFailed(f"non-finite value in {what}")


# -- checks on outputs --------------------------------------------------------


def read_trajectory_csv(path) -> particles.TrajectoryRecord:
    """A trajectory CSV read back, checked finite and charge-conserving."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require_finite(data, path)
    states = data[:, 1:-2]
    q = states.sum(axis=1)
    tol = 1e-8 * (1.0 + float(np.sum(np.abs(states[0]))))
    if float(np.max(np.abs(q - q[0]))) > tol:
        raise OpFailed(f"charge not conserved in {path}")
    return particles.TrajectoryRecord(
        sample_times=data[:, 0], states=states,
        girsanov_log_weight=float(data[-1, -2]),
        control_cost=float(data[-1, -1]),
        log_weight_path=data[:, -2], cost_path=data[:, -1])


def check_field(values):
    """A density field is finite and conserves mass across time levels."""
    values = np.asarray(values, dtype=float)
    _require_finite(values, "density field")
    mass = values.mean(axis=1)
    tol = 1e-10 * (1.0 + float(np.max(np.abs(values))))
    if float(np.max(np.abs(mass - mass[0]))) > tol:
        raise OpFailed("density field does not conserve mass")


def read_field_rows(path, horizon, times):
    """Rows of a ``field.csv`` at the given times, nearest level each.

    The file is streamed, so reading it back adds little to peak memory.
    """
    with open(path) as fh:
        next(fh)                                    # header
        head = [next(fh), next(fh)]
        dt = float(head[1].split(",", 1)[0])        # row k holds t = k dt
        n_steps = round(horizon / dt)
        index = [min(max(int(round(t / dt)), 0), n_steps) for t in times]
        keep = set(index) | {0, n_steps}
        rows = {}
        for k, line in enumerate(itertools.chain(head, fh)):
            if k in keep:
                rows[k] = np.array(line.split(",")[1:], dtype=float)
    if k != n_steps:
        raise OpFailed(f"{path} has {k} steps, its time step implies "
                       f"{n_steps}")
    check_field([rows[k] for k in sorted(keep)])
    return [rows[k] for k in index]


def check_pair(lhs, rhs, field, decomposition, j_cells):
    """Invariants of one certificate pair."""
    _require_finite([lhs, rhs], "contraction gap")
    if lhs - rhs > 5.0 / j_cells:
        raise OpFailed(f"lhs - rhs = {lhs - rhs:.4g} exceeds 5/J")
    check_field(field.values)
    if not (decomposition.feasible and math.isfinite(decomposition.total)):
        raise OpFailed("rate of a PDE-solved path is not feasible and "
                       "finite")


def check_csv_finite(path, skip_columns=()):
    with open(path) as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split(",")
            _require_finite([c for i, c in enumerate(cells)
                             if i not in skip_columns], path)


# -- workloads ----------------------------------------------------------------


class LdpWorkload:
    name = "ldp"

    def __init__(self, seed, workdir: Path):
        self.workdir = workdir
        self.config = workdir / "ldp.ini"
        self.config.write_text(
            f"[run]\nseed = {program_seed(seed)}\nworkers = 1\n"
            f"[ldp]\nreplicas = {LDP_REPLICAS}\n")

    def run_pass(self, ops: Ops, digest: Digest):
        out = _fresh_dir(self.workdir / "ldp-out")
        with ops.op("gllab ldp"):
            _run_cli(["ldp", "--config", str(self.config),
                      "--output-dir", str(out)])
            check_csv_finite(out / "trend.csv")
            # the method column is text; wall_time_s varies run to run
            check_csv_finite(out / "reports.csv", skip_columns=(0,))
            digest.file(out / "trend.csv")
            digest.file(out / "reports.csv", drop_column=5)


def _control(a, horizon):
    """A random smooth control field with coefficients ``a``."""
    def u(t, th):
        th = np.asarray(th)
        return (a[0] * np.sin(2 * np.pi * th) + a[1] * np.cos(2 * np.pi * th)
                + a[2] * np.sin(4 * np.pi * th) * (1.0 + a[3] * t / horizon))
    return u


class CertificateWorkload:
    name = "certificate"

    def __init__(self, seed, workdir: Path):
        self.pot = potential.make_potential("gaussian")
        rng = np.random.default_rng(program_seed(seed))
        theta = np.arange(CERT_J) / CERT_J
        self.pairs = []
        for _ in range(CERT_PAIRS):
            m0 = rng.uniform(0.2, 0.8) * np.sin(2 * np.pi * theta)
            self.pairs.append((m0, rng.uniform(-1.0, 1.0, 4),
                               rng.uniform(-1.0, 1.0, 4)))

    def run_pass(self, ops: Ops, digest: Digest):
        pot = self.pot
        for m0, a1, a2 in self.pairs:
            with ops.op("certificate pair"):
                n_steps = pde.cfl_time_steps(pot, m0, CERT_J, CERT_HORIZON)
                u1 = pde.ControlGrid.from_function(
                    _control(a1, CERT_HORIZON), n_steps, CERT_J, CERT_HORIZON)
                u2 = pde.ControlGrid.from_function(
                    _control(a2, CERT_HORIZON), n_steps, CERT_J, CERT_HORIZON)
                lhs, rhs = pde.contraction_gap(pot, m0, u1, u2)
                field = pde.solve_controlled_pde(pot, m0, u1)
                decomposition = rate_mod.rate(pot, field)
                check_pair(lhs, rhs, field, decomposition, CERT_J)
                digest.numbers(n_steps, lhs, rhs, decomposition.initial_cost,
                               decomposition.dynamic_cost,
                               decomposition.total)


class TrackingWorkload:
    name = "tracking"

    def __init__(self, seed, workdir: Path):
        self.workdir = workdir
        self.config = workdir / "tracking.ini"
        self.config.write_text(
            f"[run]\nseed = {program_seed(seed)}\n"
            f"[simulate]\nn_sites = {TRACK_N}\nhorizon = {TRACK_HORIZON}\n"
            f"profile = tilted_sine(0.8)\nreplicas = {TRACK_REPLICAS}\n"
            f"snapshots = {TRACK_SNAPSHOTS}\n"
            f"[pde]\nj_cells = {TRACK_N}\nhorizon = {TRACK_HORIZON}\n"
            f"m0 = sine(0.8)\n")

    def run_pass(self, ops: Ops, digest: Digest):
        sim_out = _fresh_dir(self.workdir / "simulate-out")
        pde_out = _fresh_dir(self.workdir / "pde-out")
        paths = [sim_out / f"trajectory_{r:03d}.csv"
                 for r in range(TRACK_REPLICAS)]
        field_csv = pde_out / "field.csv"
        with ops.op("gllab simulate"):
            _run_cli(["simulate", "--config", str(self.config),
                      "--output-dir", str(sim_out)])
            for path in paths:
                read_trajectory_csv(path)
                digest.file(path)
        with ops.op("gllab pde"):
            _run_cli(["pde", "--config", str(self.config),
                      "--output-dir", str(pde_out)])
            read_field_rows(field_csv, TRACK_HORIZON, np.linspace(
                0.0, TRACK_HORIZON, TRACK_SNAPSHOTS))
            digest.file(field_csv)
        for path in paths:
            with ops.op("d*"):
                emp = measures.path_from_record(read_trajectory_csv(path))
                times = emp.sample_times
                rows = read_field_rows(field_csv, TRACK_HORIZON, times)
                limit = measures.path_from_density_slices(times, rows,
                                                          TRACK_N)
                d = measures.d_star(emp, limit)
                _require_finite([d], "d*")
                digest.numbers(d)


WORKLOADS = {w.name: w for w in (LdpWorkload, CertificateWorkload,
                                 TrackingWorkload)}
