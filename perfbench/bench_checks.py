"""Checks of the benchmark itself, kept out of the package's test suite.

Run from the repository root:

    python3 -m pytest perfbench/bench_checks.py

The file name does not match pytest's ``test_*.py`` pattern, so a plain
``pytest`` run does not collect it.  The tests that run workloads run each
one for a single pass, untraced and traced: a few minutes in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gllab  # noqa: E402
import workloads  # noqa: E402
from workloads import OpFailed, Ops  # noqa: E402

WORKLOADS = ("ldp", "certificate", "tracking")

# The metric names the benchmark was specified with.  ops_failed_frac is
# emitted as ops_ok_frac (never 0) plus the failed/attempted counts.
END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "ops_ok_frac")
PER_LAYER = (
    "potential.init_s", "potential.envelope_builds",
    "potential.envelope_build_s", "potential.envelope_lookups",
    "potential.envelope_lookup_s", "potential.legendre_calls",
    "potential.legendre_s", "potential.tilt_cache_entries",
    "particles.sim_calls", "particles.sim_s", "particles.steps",
    "particles.site_steps", "particles.site_steps_per_s",
    "particles.step_us", "particles.init_sample_s",
    "particles.profile_build_s",
    "measures.bl_calls", "measures.bl_s", "measures.lp_atoms_max",
    "measures.d_star_calls", "measures.d_star_s",
    "pde.solve_calls", "pde.solve_s", "pde.cell_steps",
    "pde.cell_steps_per_s", "pde.cfl_calls", "pde.cfl_s",
    "pde.range_escaped",
    "rate.calls", "rate.s", "rate.minimal_control_calls",
    "rate.minimal_control_s", "rate.cells",
    "rare_events.estimator_calls", "rare_events.replicas",
    "rare_events.estimator_self_s", "rare_events.steering_plans",
    "rare_events.steering_s",
    "cli.main_s", "cli.self_s", "cli.csv_write_s", "cli.bytes_written",
    "trace.overhead_frac", "trace.coverage_frac",
)


@pytest.fixture(scope="module")
def pot():
    return gllab.gaussian_potential()


def _record(states, times):
    zeros = np.zeros(len(times))
    return gllab.TrajectoryRecord(np.asarray(times), states, 0.0, 0.0,
                                  zeros, zeros)


# -- corrupted outputs count as failed operations ----------------------------


def test_non_conserving_trajectory_counts_as_failed(pot, tmp_path):
    rng = np.random.default_rng(5)
    config = gllab.SimConfig(8, 0.01, gllab.stable_dt(pot, 8))
    initial = gllab.sample_initial_from_profile(
        gllab.equilibrium_profile(pot), 8, rng)
    record = gllab.simulate_trajectory(pot, config, initial,
                                       sample_times=[0.0, 0.005, 0.01],
                                       rng=rng)
    states = record.states.copy()
    states[-1, 3] += 0.01
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    with open(good, "w") as fh:
        record.to_csv(fh)
    with open(bad, "w") as fh:
        _record(states, record.sample_times).to_csv(fh)

    ops = Ops()
    with ops.op("conserving"):
        workloads.read_trajectory_csv(good)
    with ops.op("non-conserving"):
        workloads.read_trajectory_csv(bad)
    assert (ops.attempted, ops.failed) == (2, 1)
    assert "charge not conserved" in ops.errors[0]


def test_nan_field_counts_as_failed(pot, tmp_path):
    field = gllab.solve_controlled_pde(
        pot, lambda th: 0.5 * np.sin(2 * np.pi * th), horizon=0.01,
        j_cells=16)
    values = field.values.copy()
    values[-1, 7] = np.nan
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    with open(good, "w") as fh:
        field.to_csv(fh)
    with open(bad, "w") as fh:
        gllab.DensityField(values, field.horizon).to_csv(fh)

    ops = Ops()
    for path in (good, bad):
        with ops.op(path.name):
            workloads.read_field_rows(path, 0.01, [0.0, 0.005, 0.01])
    assert (ops.attempted, ops.failed) == (2, 1)
    assert "non-finite" in ops.errors[0]


def test_broken_certificate_invariants_count_as_failed(pot):
    theta = np.arange(16) / 16
    field = gllab.solve_controlled_pde(pot, 0.5 * np.sin(2 * np.pi * theta),
                                       horizon=0.01)
    decomposition = gllab.rate(pot, field)
    leaky = gllab.DensityField(field.values + np.linspace(
        0.0, 1e-3, field.n_steps + 1)[:, None], field.horizon)
    infeasible = gllab.RateDecomposition(0.0, None, np.inf, np.inf, False)

    ops = Ops()
    cases = [(0.1, 0.2, field, decomposition),        # holds
             (0.6, 0.2, field, decomposition),        # lhs - rhs > 5/J
             (np.nan, 0.2, field, decomposition),     # non-finite
             (0.1, 0.2, leaky, decomposition),        # mass not conserved
             (0.1, 0.2, field, infeasible)]           # rate infeasible
    for lhs, rhs, f, d in cases:
        with ops.op("pair"):
            workloads.check_pair(lhs, rhs, f, d, 16)
    assert (ops.attempted, ops.failed) == (5, 4)


def test_nonzero_exit_counts_as_failed(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[pde]\nno_such_key = 1\n")
    ops = Ops()
    with ops.op("gllab pde"):
        workloads._run_cli(["pde", "--config", str(config),
                            "--output-dir", str(tmp_path / "out")])
    assert ops.failed == 1
    assert OpFailed.__name__ in ops.errors[0]


# -- whole runs ----------------------------------------------------------------


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    """(result line, full record, stdout) per (workload, trace)."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            record = next(line.split(" ", 1)[1] for line in lines
                          if line.startswith("record "))
            out[workload, trace] = (json.loads(lines[-1]),
                                    json.loads(Path(record).read_text()),
                                    proc.stdout)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digest_matches_untraced(runs, workload):
    untraced, traced = runs[workload, 0][1], runs[workload, 1][1]
    assert len(untraced["digests"]) == 1
    assert traced["digests"] == untraced["digests"]
    assert {p["traced"] for p in traced["passes"]} == {False, True}
    assert runs[workload, 0][0]["correct"] and runs[workload, 1][0]["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(runs, workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, names, declared in ((0, END_TO_END, spec["end_to_end"]),
                                   (1, PER_LAYER, spec["per_layer"])):
        result = runs[workload, trace][0]
        assert set(result["metrics"]) == set(names)
        assert {m["name"]: m["unit"] for m in declared} == {
            n: m["unit"] for n, m in result["metrics"].items()}
        assert result["failed"] == 0 and result["attempted"] >= 1
    assert "ops_failed_frac" in runs[workload, 0][2]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "certificate", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
