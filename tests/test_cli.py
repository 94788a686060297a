"""Command-line interface: config handling, outputs, reproducibility."""

import configparser
import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gllab
from gllab import (ControlGrid, SimConfig, make_potential, particles,
                   sample_initial_from_profile, simulate_trajectory,
                   stable_dt, tilted_sine_profile)
from gllab.cli import DEFAULTS, load_config, main
from gllab.errors import ConfigInvalid
from gllab.rare_events import ExperimentReport


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_defaults_returned_without_a_file():
    cfg = load_config(None)
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS            # caller gets a private copy


def test_unknown_section_and_key_rejected(tmp_path):
    bad1 = _write(tmp_path, "a.ini", "[nope]\nx = 1\n")
    with pytest.raises(ConfigInvalid, match="section"):
        load_config(bad1)
    bad2 = _write(tmp_path, "b.ini", "[simulate]\nwhatever = 1\n")
    with pytest.raises(ConfigInvalid, match="whatever"):
        load_config(bad2)


def test_provenance_section_is_ignored(tmp_path):
    path = _write(tmp_path, "m.ini",
                  "[provenance]\ntool_version = 9.9\nsubcommand = pde\n"
                  "[run]\nseed = 3\n")
    cfg = load_config(path)
    assert cfg["run"]["seed"] == "3"


def test_missing_file_is_config_error():
    with pytest.raises(ConfigInvalid, match="cannot read"):
        load_config("/does/not/exist.ini")


def test_simulate_writes_trajectories_and_manifest(tmp_path):
    ini = _write(tmp_path, "sim.ini",
                 "[run]\nseed = 11\n\n[simulate]\nn_sites = 8\n"
                 "horizon = 0.01\nreplicas = 2\nsnapshots = 2\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--config", ini, "--output-dir", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["manifest.ini", "trajectory_000.csv",
                     "trajectory_001.csv"]
    # replicas use distinct child streams
    a = np.loadtxt(out / "trajectory_000.csv", delimiter=",", skiprows=1)
    b = np.loadtxt(out / "trajectory_001.csv", delimiter=",", skiprows=1)
    assert not np.allclose(a[0, 1:9], b[0, 1:9])


def test_manifest_rerun_is_byte_identical(tmp_path):
    ini = _write(tmp_path, "sim.ini",
                 "[run]\nseed = 21\n\n[simulate]\nn_sites = 6\n"
                 "horizon = 0.01\nreplicas = 1\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", ini,
                 "--output-dir", str(out1)]) == 0
    assert main(["simulate", "--config", str(out1 / "manifest.ini"),
                 "--output-dir", str(out2)]) == 0
    for name in ("trajectory_000.csv",):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_rerun_of_a_batch_is_byte_identical(tmp_path):
    ini = _write(tmp_path, "sim.ini",
                 "[run]\nseed = 22\n\n[simulate]\nn_sites = 6\n"
                 "horizon = 0.01\nreplicas = 3\ncontrol = sine(0.7)\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", ini,
                 "--output-dir", str(out1)]) == 0
    assert main(["simulate", "--config", str(out1 / "manifest.ini"),
                 "--output-dir", str(out2)]) == 0
    names = [f"trajectory_{r:03d}.csv" for r in range(3)]
    assert sorted(p.name for p in out1.glob("*.csv")) == names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 12), replicas=st.integers(1, 7),
       seed=st.integers(0, 2 ** 32 - 1),
       control=st.sampled_from(["none", "constant(-0.6)", "sine(1.1)"]),
       group=st.integers(1, 3))
def test_simulate_batches_write_what_serial_runs_write(n, replicas, seed,
                                                       control, group):
    pot = make_potential("gaussian")
    horizon, snapshots = 0.002, 3
    text = (f"[run]\nseed = {seed}\n[simulate]\nn_sites = {n}\n"
            f"horizon = {horizon}\nsnapshots = {snapshots}\n"
            f"replicas = {replicas}\ncontrol = {control}\n"
            "profile = tilted_sine(0.5)\n")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "c.ini").write_text(text)
        # groups of `group` replicas, so most runs cross a group boundary
        with mock.patch.object(particles, "NOISE_BLOCK_BYTES", 8 * n * group):
            assert main(["simulate", "--config", str(tmp / "c.ini"),
                         "--output-dir", str(tmp / "o")]) == 0
        # the reference: each replica alone on its own child stream
        dt = stable_dt(pot, n)
        config = SimConfig(n, horizon, dt, seed=seed)
        profile = tilted_sine_profile(pot, 0.5)
        field = {"none": None,
                 "constant(-0.6)": lambda th: np.full_like(th, -0.6),
                 "sine(1.1)": lambda th: 1.1 * np.sin(2.0 * np.pi * th),
                 }[control]
        ctrl = None if field is None else ControlGrid.from_function(
            lambda t, th: field(th), 1, n, horizon)
        times = np.linspace(0.0, horizon, snapshots)
        for r, child in enumerate(
                np.random.SeedSequence(seed).spawn(replicas)):
            rng = np.random.default_rng(child)
            initial = sample_initial_from_profile(profile, n, rng)
            buf = io.StringIO()
            simulate_trajectory(pot, config, initial, ctrl, times,
                                rng=rng).to_csv(buf)
            assert (tmp / "o" / f"trajectory_{r:03d}.csv").read_text() \
                == buf.getvalue()


def test_manifest_records_resolved_config(tmp_path):
    ini = _write(tmp_path, "p.ini", "[pde]\nj_cells = 32\nhorizon = 0.01\n")
    out = tmp_path / "out"
    assert main(["pde", "--config", ini, "--output-dir", str(out)]) == 0
    parser = configparser.ConfigParser()
    parser.read(out / "manifest.ini")
    assert parser["pde"]["j_cells"] == "32"
    assert parser["simulate"]["n_sites"] == DEFAULTS["simulate"]["n_sites"]
    assert parser["provenance"]["subcommand"] == "pde"
    assert (out / "field.csv").exists()


def test_rate_subcommand_reports_known_value(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["rate", "--output-dir", str(out)]) == 0
    header, row = (out / "rate.csv").read_text().splitlines()
    assert header == "initial_cost,dynamic_cost,total,feasible"
    cells = row.split(",")
    assert float(cells[2]) == pytest.approx(0.16, abs=2e-3)
    assert cells[3] == "true"


def test_bad_config_exits_2(tmp_path):
    ini = _write(tmp_path, "bad.ini", "[simulate]\nn_sites = zero\n")
    assert main(["simulate", "--config", ini,
                 "--output-dir", str(tmp_path / "x")]) == 2


def test_numerical_failure_exits_3(tmp_path):
    ini = _write(tmp_path, "cfl.ini", "[pde]\nn_steps = 5\n")
    assert main(["pde", "--config", ini,
                 "--output-dir", str(tmp_path / "x")]) == 3


def test_output_dir_precedence(tmp_path, monkeypatch):
    ini = _write(tmp_path, "s.ini",
                 f"[run]\noutput_dir = {tmp_path / 'from_config'}\n"
                 "\n[simulate]\nn_sites = 4\nhorizon = 0.005\nsnapshots = 2\n")
    # env var beats the config value
    monkeypatch.setenv("GLLAB_OUTPUT_DIR", str(tmp_path / "from_env"))
    assert main(["simulate", "--config", ini]) == 0
    assert (tmp_path / "from_env" / "manifest.ini").exists()
    assert not (tmp_path / "from_config").exists()
    # the flag beats the env var
    assert main(["simulate", "--config", ini,
                 "--output-dir", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "manifest.ini").exists()


def test_print_defaults_round_trips(tmp_path, capsys):
    assert main(["print-defaults"]) == 0
    text = capsys.readouterr().out
    parser = configparser.ConfigParser()
    parser.read_string(text)
    for section, kv in DEFAULTS.items():
        assert dict(parser[section]) == kv


def test_profile_and_control_spec_errors(tmp_path):
    ini = _write(tmp_path, "p.ini",
                 "[simulate]\nn_sites = 4\nprofile = tilted_sine\n")
    assert main(["simulate", "--config", ini,
                 "--output-dir", str(tmp_path / "x")]) == 2
    ini2 = _write(tmp_path, "q.ini",
                  "[simulate]\nn_sites = 4\ncontrol = warp(1.0)\n")
    assert main(["simulate", "--config", ini2,
                 "--output-dir", str(tmp_path / "y")]) == 2


def test_constant_profile_is_deterministic(tmp_path):
    ini = _write(tmp_path, "c.ini",
                 "[simulate]\nn_sites = 4\nhorizon = 0.004\nsnapshots = 2\n"
                 "profile = constant(0.7)\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", ini,
                 "--output-dir", str(out)]) == 0
    row = np.loadtxt(out / "trajectory_000.csv", delimiter=",", skiprows=1)
    assert np.allclose(row[0, 1:5], 0.7)


def test_ldp_subcommand_writes_both_csvs(tmp_path):
    ini = _write(tmp_path, "l.ini",
                 "[run]\nseed = 2\n\n[ldp]\nn_list = 4\nreplicas = 50\n"
                 "horizon = 0.02\ntarget = 0.1\nfamily = 0.1\nbound = 8\n")
    out = tmp_path / "out"
    assert main(["ldp", "--config", ini, "--output-dir", str(out)]) == 0
    trend = (out / "trend.csv").read_text().splitlines()
    assert trend[0] == ("N,laplace,laplace_se,best_variational,"
                        "variational_se,inf_f_plus_rate")
    assert len(trend) == 2
    reports = (out / "reports.csv").read_text().splitlines()
    assert reports[0] == "method,N,M,estimate,std_error,wall_time_s,seed"
    assert len(reports) == 3            # laplace + one bound, plus header


def test_ldp_workers_do_not_change_outputs(tmp_path):
    # each bound task owns its generator and its engine's noise thread
    text = ("[ldp]\nn_list = 4,6\nreplicas = 60\nhorizon = 0.02\n"
            "target = 0.1\nfamily = 0.05,0.1,0.15\nbound = 8\n")
    out = {}
    for workers in (1, 2):
        ini = _write(tmp_path, f"w{workers}.ini",
                     f"[run]\nseed = 5\nworkers = {workers}\n\n{text}")
        out[workers] = tmp_path / f"out{workers}"
        assert main(["ldp", "--config", ini,
                     "--output-dir", str(out[workers])]) == 0
    assert ((out[1] / "trend.csv").read_bytes()
            == (out[2] / "trend.csv").read_bytes())
    wall = ExperimentReport.CSV_HEADER.split(",").index("wall_time_s")
    rows = [[line.split(",")[:wall] + line.split(",")[wall + 1:]
             for line in (out[w] / "reports.csv").read_text().splitlines()]
            for w in (1, 2)]
    assert len(rows[0]) == 1 + 2 * 4 and rows[0] == rows[1]


@pytest.mark.parametrize("subcommand, text, code", [
    ("simulate", "[simulate]\ndt = 0.1\n", 3),        # stability bound
    ("pde", "[pde]\nn_steps = abc\n", 2),
    ("pde", "[pde]\nn_steps = 0\n", 2),
    ("pde", "[pde]\nhorizon = 0\n", 2),
    ("ldp", "[ldp]\nn_list = 0,8\n", 2),
    ("ldp", "[ldp]\nbound = 0\n", 2),
    ("ldp", "[ldp]\nfamily = 0.1,nan\n", 2),
    ("pde", "[potential]\nname = quartic\nquartic_a = 0\nquartic_b = 0\n", 2),
    ("simulate", "[simulate]\nhorizon = -1\n", 2),
    ("pde", "[pde]\ncontrol = constant(1e400)\n", 2),
    ("simulate", "[simulate]\ncontrol = sine(1e400)\n", 2),
    ("pde", "[pde]\nm0 = sine(1e400)\n", 2),
    ("rate", "[rate]\nm0 = constant(1e400)\n", 2),
    ("ldp", "[ldp]\ntarget = nan\n", 2),
    ("ldp", "[ldp]\ntarget = inf\n", 2),
    ("simulate", "[ldp]\nn_list = abc\n", 2),     # a section simulate skips
    ("simulate", "[simulate]\ncontrol = sine(1\n", 2),
    ("simulate", "[simulate]\ncontrol = sine:1)\n", 2),
])
def test_bad_values_exit_with_one_line(tmp_path, capsys, subcommand, text,
                                       code):
    ini = _write(tmp_path, "bad.ini", text)
    assert main([subcommand, "--config", ini,
                 "--output-dir", str(tmp_path / "x")]) == code
    err = capsys.readouterr().err.strip().splitlines()
    prefix = "config error: " if code == 2 else "numerical failure: "
    assert len(err) == 1 and err[0].startswith(prefix)
    assert not (tmp_path / "x").exists()     # no output directory left


@pytest.mark.parametrize("subcommand, text, key", [
    ("simulate", "[simulate]\nn_sites = 4\nhorizon = 1e300\n", "horizon"),
    ("simulate", f"[simulate]\nsnapshots = {2 ** 62}\n", "snapshots"),
    # groups bound the memory, so only the files' size catches this count
    ("simulate", "[simulate]\nn_sites = 4\nhorizon = 0.001\nsnapshots = 2\n"
                 "replicas = 1000000000000\n", "[simulate] replicas"),
    ("pde", "[pde]\nj_cells = 8\nhorizon = 1e300\n", "horizon"),
    ("pde", f"[pde]\nj_cells = {2 ** 62}\n", "j_cells"),
    ("rate", f"[rate]\nn_steps = {2 ** 53}\n", "n_steps"),
    ("ldp", "[ldp]\nhorizon = 1e300\n", "horizon"),
])
def test_impossible_plans_exit_2_naming_the_key(tmp_path, capsys,
                                                subcommand, text, key):
    ini = _write(tmp_path, "huge.ini", text)
    assert main([subcommand, "--config", ini,
                 "--output-dir", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert key in err[0]
    assert not (tmp_path / "x").exists()


def test_unreachable_density_names_the_quadrature_window(tmp_path, capsys):
    # density 13 lies past the +-12 window that bounds every tilted mean
    ini = _write(tmp_path, "far.ini", "[pde]\nm0 = constant(13)\n")
    assert main(["pde", "--config", ini,
                 "--output-dir", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert "[-12, 12]" in err[0] and "domain_halfwidth" in err[0]
    assert not (tmp_path / "x").exists()


def test_a_non_finite_girsanov_weight_exits_3(tmp_path, capsys):
    # a finite but huge control: its cost per step overflows to inf, and
    # the flux it drives rounds every charge away
    ini = _write(tmp_path, "huge.ini",
                 "[simulate]\nn_sites = 4\nhorizon = 0.001\n"
                 "control = constant(1e300)\n")
    assert main(["simulate", "--config", ini,
                 "--output-dir", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numerical failure: Girsanov log weight or control cost "
                   "is not finite"]
    assert not (tmp_path / "x").exists()


def test_a_control_past_the_initial_cfl_bound_exits_3(tmp_path, capsys):
    # the quartic's H' = 1/var grows with |m|; the control carries the
    # field out of the chunks of m0, past the bound its step was sized for
    ini = _write(tmp_path, "push.ini",
                 "[potential]\nname = quartic\n[pde]\nj_cells = 32\n"
                 "horizon = 0.05\nm0 = sine(0.2)\ncontrol = sine(2.0)\n")
    assert main(["pde", "--config", ini,
                 "--output-dir", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: dt=")
    assert "max H'" in err[0]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("subcommand, keys", [
    ("simulate", "[simulate] replicas, snapshots and n_sites"),
    ("pde", "[pde] j_cells, horizon and n_steps"),
    ("rate", "[rate] j_cells, horizon and n_steps"),
])
def test_a_plan_past_the_free_disk_space_exits_2(tmp_path, capsys,
                                                 monkeypatch, subcommand,
                                                 keys):
    ini = _write(tmp_path, "tiny.ini", "[simulate]\nn_sites = 4\n"
                 "horizon = 0.001\n[pde]\nj_cells = 8\nhorizon = 0.001\n"
                 "[rate]\nj_cells = 8\nhorizon = 0.001\n")
    monkeypatch.setattr(shutil, "disk_usage",
                        lambda path: SimpleNamespace(free=0))
    assert main([subcommand, "--config", ini,
                 "--output-dir", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: {keys} plan at least ")
    assert err[0].endswith(f"more than the 0 bytes free under {tmp_path}")
    assert not (tmp_path / "x").exists()


# the field of T = 0.1 at J = 256 takes 27 MB, a quarter of it at
# T = 0.025; the march holds two levels and writes each as it is made.  A
# control is a one-slice grid that every step reads; a slice per step
# would take 13 MB at T = 0.05
@pytest.mark.parametrize("control, horizons", [
    pytest.param("none", (0.025, 0.1), id="none"),
    pytest.param("cosine(0.5)", (0.0125, 0.05), id="cosine(0.5)"),
])
def test_pde_streams_its_field_in_memory_that_does_not_grow_with_time(
        tmp_path, control, horizons):
    peaks = []
    for horizon in horizons:
        ini = _write(tmp_path, f"{horizon}.ini", "[pde]\nj_cells = 256\n"
                     f"horizon = {horizon}\nm0 = sine(0.8)\n"
                     f"control = {control}\n")
        tracemalloc.start()
        try:
            assert main(["pde", "--config", ini,
                         "--output-dir", str(tmp_path / str(horizon))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 ** 20


# A tiny run of every subcommand; one key at a time is then overwritten.
_TINY = {
    "run": {"seed": "3", "workers": "2"},
    "simulate": {"n_sites": "4", "horizon": "0.001", "replicas": "5"},
    "pde": {"j_cells": "8", "horizon": "0.001"},
    "rate": {"j_cells": "8", "horizon": "0.001"},
    "ldp": {"n_list": "4", "replicas": "5", "horizon": "0.001",
            "family": "0.3"},
}
_KEYS = [(section, key) for section in DEFAULTS for key in DEFAULTS[section]]
_VALUES = ["1", "2", "4", "0.5", "0.01", "0", "-1", "-0.5", "nan", "inf",
           "-inf", "1e400", "abc", "", "auto", "1,2", "0.1,nan", "none",
           "quartic", "equilibrium", "sine(0.5)", "constant(-0.5)",
           "tilted_sine:0.3", "cosine(1e400)", "sine(nan)", "sine(1",
           "sine:1)", "constant", "1e300"]


def _csv_rows(path):
    lines = path.read_text().splitlines()
    if path.name == "reports.csv":       # wall_time_s differs run to run
        return [",".join(c for i, c in enumerate(line.split(",")) if i != 5)
                for line in lines]
    return lines


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(subcommand=st.sampled_from(["simulate", "pde", "rate", "ldp"]),
       key=st.sampled_from(_KEYS), value=st.sampled_from(_VALUES))
# impossible plans: 2**53 or more steps, or arrays past physical memory
@example("simulate", ("simulate", "horizon"), "1e300")
@example("simulate", ("simulate", "horizon"), "1.7e308")
@example("simulate", ("simulate", "n_sites"), str(2 ** 62))
@example("simulate", ("simulate", "snapshots"), str(2 ** 62))
@example("pde", ("pde", "horizon"), "1e300")
@example("pde", ("pde", "horizon"), "1.7e308")
@example("pde", ("pde", "n_steps"), str(2 ** 53))
@example("pde", ("pde", "j_cells"), str(2 ** 62))
@example("rate", ("rate", "horizon"), "1e300")
@example("ldp", ("ldp", "horizon"), "1e300")
@example("ldp", ("ldp", "horizon"), "1.7e308")
@example("ldp", ("ldp", "n_list"), str(2 ** 40))
@example("ldp", ("ldp", "replicas"), str(2 ** 62))
def test_main_keeps_its_exit_code_contract(subcommand, key, value):
    cfg = {section: dict(kv) for section, kv in _TINY.items()}
    cfg.setdefault(key[0], {})[key[1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ini = tmp / "c.ini"
        ini.write_text("".join(
            f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
            for s, kv in cfg.items()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([subcommand, "--config", str(ini),
                       "--output-dir", str(tmp / "o1")])
        assert rc in (0, 2, 3)
        if rc != 0:
            lines = err.getvalue().strip().splitlines()
            prefix = "config error: " if rc == 2 else "numerical failure: "
            assert len(lines) == 1 and lines[0].startswith(prefix)
            if rc == 2:
                assert not (tmp / "o1").exists()
            return
        assert main([subcommand, "--config", str(tmp / "o1" / "manifest.ini"),
                     "--output-dir", str(tmp / "o2")]) == 0
        csvs = sorted(p.name for p in (tmp / "o1").glob("*.csv"))
        assert csvs == sorted(p.name for p in (tmp / "o2").glob("*.csv"))
        for name in csvs:
            assert _csv_rows(tmp / "o1" / name) == _csv_rows(tmp / "o2" / name)


def test_gllab_starts_without_scipy(tmp_path):
    # scipy would be most of a fresh interpreter's start-up and memory;
    # no gllab code path loads it, the bounded-Lipschitz distance included
    ini = tmp_path / "tiny.ini"
    ini.write_text("".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
        for s, kv in _TINY.items()))
    code = textwrap.dedent("""
        import sys
        import gllab
        from gllab import cli, gaussian_potential, quartic_potential
        from gllab.measures import AtomicSignedMeasure, bl_distance
        gaussian_potential(), quartic_potential()
        ini, out = sys.argv[1:]
        for sub in ("simulate", "pde", "rate", "ldp"):
            assert cli.main([sub, "--config", ini,
                             "--output-dir", f"{out}/{sub}"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        print(bl_distance(AtomicSignedMeasure([0.0, 0.5], [1.0, -0.5]),
                          AtomicSignedMeasure([0.25], [1.0])))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = os.path.dirname(os.path.dirname(gllab.__file__))
    run = subprocess.run(
        [sys.executable, "-c", code, str(ini), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    loaded, distance, loaded_after = run.stdout.splitlines()[-3:]
    assert loaded == loaded_after == "[]"
    assert float(distance) == 0.75


def _gllab(tmp_path, command, ini_text):
    """``gllab command`` on a config, in a fresh interpreter: numpy's
    floating-point warnings print there as in a real run, while capsys
    never sees them."""
    ini = _write(tmp_path, "run.ini", ini_text)
    src = os.path.dirname(os.path.dirname(gllab.__file__))
    return subprocess.run(
        [sys.executable, "-m", "gllab.cli", command, "--config", ini,
         "--output-dir", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)


def test_a_failing_run_prints_exactly_one_stderr_line(tmp_path):
    # the control's squares overflow in ControlGrid and in the engine;
    # their RuntimeWarnings would add four lines
    run = _gllab(tmp_path, "simulate", "[simulate]\nn_sites = 4\n"
                 "horizon = 0.001\ncontrol = constant(1e300)\n")
    assert run.returncode == 3
    assert run.stderr.splitlines() == [
        "numerical failure: Girsanov log weight or control cost is not "
        "finite"]


def test_the_clamp_warning_still_prints(tmp_path):
    run = _gllab(tmp_path, "pde", "[pde]\nj_cells = 16\nhorizon = 0.05\n"
                 "m0 = sine(0.5)\ncontrol = sine(100)\n")
    assert run.returncode == 0
    assert "UserWarning: envelope slope queried outside the resolvable " \
        "range" in run.stderr


def test_pool_threads_print_no_floating_point_warnings(tmp_path):
    # np.errstate would not reach the estimators' pool threads
    # (workers > 1); the warnings filter is process-wide
    code = textwrap.dedent("""
        import sys
        from concurrent.futures import ThreadPoolExecutor
        import numpy as np
        from gllab import cli

        def overflow(pot, cfg, out):
            out.mkdir(parents=True)
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(lambda x: np.float64(x) * 10.0, [1e308] * 4))

        cli.COMMANDS["pde"] = overflow
        sys.exit(cli.main(["pde", "--output-dir", sys.argv[1]]))
    """)
    src = os.path.dirname(os.path.dirname(gllab.__file__))
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0
    assert run.stderr == ""
