"""Command-line front end.

Subcommands: simulate | pde | rate | ldp | print-defaults.  All numeric
inputs come from one INI-style config file (sections of key = value
pairs); every run writes its outputs plus a manifest holding the fully
resolved configuration, so re-running from the manifest reproduces the
CSVs byte for byte.  Unknown sections or keys are rejected.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Output directory resolution: --output-dir flag, then GLLAB_OUTPUT_DIR,
then the config value.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigInvalid, GLLabError
from .particles import (LatticeState, SimConfig, SimpleControl,
                        deterministic_profile, equilibrium_profile,
                        sample_initial_from_profile, simulate_trajectory,
                        stable_dt, tilted_sine_profile)
from .pde import ControlGrid, cfl_time_steps, solve_controlled_pde
from .potential import make_potential
from .rare_events import (ExperimentReport, Functional, TrendRow,
                          ldp_trend_study)
from .rate import RateDecomposition, rate

ENV_OUTPUT_DIR = "GLLAB_OUTPUT_DIR"

DEFAULTS: dict[str, dict[str, str]] = {
    "run": {
        "seed": "12345",
        "output_dir": "gllab-out",
        "workers": "1",
    },
    "potential": {
        "name": "gaussian",
        "quartic_a": "1.0",
        "quartic_b": "0.0",
    },
    "simulate": {
        "n_sites": "32",
        "horizon": "0.5",
        "dt": "auto",
        "snapshots": "11",
        "profile": "equilibrium",
        "control": "none",
        "replicas": "1",
    },
    "pde": {
        "j_cells": "128",
        "horizon": "0.05",
        "n_steps": "auto",
        "m0": "sine(1.0)",
        "control": "none",
    },
    "rate": {
        "j_cells": "64",
        "horizon": "0.05",
        "n_steps": "auto",
        "m0": "sine(0.8)",
        "control": "none",
    },
    "ldp": {
        "n_list": "8,16,32",
        "replicas": "2000",
        "horizon": "0.1",
        "target": "0.3",
        "family": "0.12,0.18,0.24,0.3,0.36",
        "bound": "4.0",
    },
}


def load_config(path: str | None) -> dict[str, dict[str, str]]:
    """Defaults overlaid with the user's file; unknown keys are errors."""
    resolved = {sec: dict(kv) for sec, kv in DEFAULTS.items()}
    if path is None:
        return resolved
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file: {exc}")
    except configparser.Error as exc:
        raise ConfigInvalid(f"malformed config file: {exc}")
    for section in parser.sections():
        if section == "provenance":
            continue    # written by us into manifests; ignored on re-read
        if section not in resolved:
            raise ConfigInvalid(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in resolved[section]:
                raise ConfigInvalid(
                    f"unknown key {key!r} in section [{section}]")
            resolved[section][key] = value
    return resolved


def _parse_float(cfg, section, key):
    try:
        return float(cfg[section][key])
    except ValueError:
        raise ConfigInvalid(f"[{section}] {key} must be a number")


def _parse_positive(cfg, section, key):
    v = _parse_float(cfg, section, key)
    if not (math.isfinite(v) and v > 0):
        raise ConfigInvalid(f"[{section}] {key} must be finite and positive")
    return v


def _parse_int(cfg, section, key, minimum=1, text=None):
    """The integer at [section] key, or in ``text`` (one entry of a
    comma-separated value) when given."""
    try:
        v = int(cfg[section][key] if text is None else text)
    except ValueError:
        raise ConfigInvalid(f"[{section}] {key} must be an integer")
    if v < minimum:
        raise ConfigInvalid(f"[{section}] {key} must be >= {minimum}")
    return v


_SPEC_RE = re.compile(r"^([a-z_]+)(?:[(:]([-0-9.eE+]+)\)?)?$")


def _parse_spec(text: str, what: str):
    """Parse 'name', 'name(value)' or 'name:value' specifications."""
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise ConfigInvalid(f"cannot parse {what} spec {text!r}")
    name, arg = m.group(1), m.group(2)
    if arg is not None:
        try:
            arg = float(arg)
        except ValueError:
            raise ConfigInvalid(f"bad numeric argument in {what} spec {text!r}")
    return name, arg


def build_potential(cfg):
    name = cfg["potential"]["name"]
    params = {} if name != "quartic" else {
        "a": _parse_float(cfg, "potential", "quartic_a"),
        "b": _parse_float(cfg, "potential", "quartic_b")}
    try:
        return make_potential(name, **params)
    except ValueError as exc:
        raise ConfigInvalid(f"[potential] {exc}")


def build_profile(pot, spec: str):
    name, arg = _parse_spec(spec, "profile")
    if name == "equilibrium":
        return equilibrium_profile(pot)
    if name == "tilted_sine":
        if arg is None:
            raise ConfigInvalid("tilted_sine profile needs an amplitude")
        return tilted_sine_profile(pot, arg)
    if name == "constant":
        if arg is None:
            raise ConfigInvalid("constant profile needs a level")
        return deterministic_profile(
            lambda th, c=arg: np.full_like(np.asarray(th, dtype=float), c),
            description=f"constant({arg:g})")
    raise ConfigInvalid(f"unknown profile {name!r}")


def build_field_function(spec: str, what: str):
    name, arg = _parse_spec(spec, what)
    if name == "none":
        return None
    if arg is None:
        raise ConfigInvalid(f"{what} {name!r} needs an amplitude")
    if name == "constant":
        return lambda th: np.full_like(np.asarray(th, dtype=float), arg)
    if name == "sine":
        return lambda th: arg * np.sin(2.0 * np.pi * np.asarray(th))
    if name == "cosine":
        return lambda th: arg * np.cos(2.0 * np.pi * np.asarray(th))
    raise ConfigInvalid(f"unknown {what} {name!r}")


def build_site_control(spec: str, n_sites: int, horizon: float):
    """The field ``spec`` names, constant in time, embedded as a one-piece
    simple control (None for 'none')."""
    u = build_field_function(spec, "control")
    if u is None:
        return None
    return SimpleControl.from_function(lambda t, th: u(th), n_sites, horizon,
                                       n_pieces=1)


def write_manifest(cfg, subcommand: str, out_dir: Path):
    lines = []
    for section in DEFAULTS:
        lines.append(f"[{section}]")
        for key in DEFAULTS[section]:
            lines.append(f"{key} = {cfg[section][key]}")
        lines.append("")
    lines.append("[provenance]")
    lines.append(f"tool_version = {__version__}")
    lines.append(f"subcommand = {subcommand}")
    lines.append("")
    (out_dir / "manifest.ini").write_text("\n".join(lines))


def _resolve_outdir(cfg, args) -> Path:
    out = args.output_dir or os.environ.get(ENV_OUTPUT_DIR) \
        or cfg["run"]["output_dir"]
    return Path(out)


def _create(out: Path, name: str):
    """Open out/name for writing; out is made now, not before validation."""
    out.mkdir(parents=True, exist_ok=True)
    return open(out / name, "w")


def cmd_simulate(cfg, args) -> int:
    pot = build_potential(cfg)
    out = _resolve_outdir(cfg, args)
    n = _parse_int(cfg, "simulate", "n_sites")
    horizon = _parse_positive(cfg, "simulate", "horizon")
    snapshots = _parse_int(cfg, "simulate", "snapshots", 2)
    replicas = _parse_int(cfg, "simulate", "replicas")
    seed = _parse_int(cfg, "run", "seed", 0)
    dt = stable_dt(pot, n) if cfg["simulate"]["dt"] == "auto" \
        else _parse_positive(cfg, "simulate", "dt")
    config = SimConfig(n, horizon, dt, seed=seed)
    profile = build_profile(pot, cfg["simulate"]["profile"])
    control = build_site_control(cfg["simulate"]["control"], n, horizon)
    sample_times = np.linspace(0.0, horizon, snapshots)

    streams = np.random.SeedSequence(seed).spawn(replicas)
    for r in range(replicas):
        rng = np.random.default_rng(streams[r])
        initial = sample_initial_from_profile(profile, n, rng)
        record = simulate_trajectory(pot, config, initial, control,
                                     sample_times, rng=rng)
        with _create(out, f"trajectory_{r:03d}.csv") as fh:
            record.to_csv(fh)
    write_manifest(cfg, "simulate", out)
    print(f"wrote {replicas} trajectories to {out}")
    return 0


def _solve_field_from_cfg(cfg, section, pot):
    j_cells = _parse_int(cfg, section, "j_cells", 4)
    horizon = _parse_positive(cfg, section, "horizon")
    m0_fn = build_field_function(cfg[section]["m0"], "m0")
    if m0_fn is None:
        raise ConfigInvalid(f"[{section}] m0 must not be 'none'")
    if cfg[section]["n_steps"] == "auto":
        n_steps = cfl_time_steps(pot, m0_fn, j_cells, horizon)
    else:
        n_steps = _parse_int(cfg, section, "n_steps")
    u_fn = build_field_function(cfg[section]["control"], "control")
    u = None
    if u_fn is not None:
        u = ControlGrid.from_function(lambda t, th: u_fn(th), n_steps,
                                      j_cells, horizon)
    theta = np.arange(j_cells) / j_cells
    field = solve_controlled_pde(pot, m0_fn(theta), u, horizon=horizon,
                                 j_cells=j_cells, n_steps=n_steps)
    return field


def cmd_pde(cfg, args) -> int:
    pot = build_potential(cfg)
    out = _resolve_outdir(cfg, args)
    field = _solve_field_from_cfg(cfg, "pde", pot)
    with _create(out, "field.csv") as fh:
        field.to_csv(fh)
    write_manifest(cfg, "pde", out)
    print(f"wrote field.csv ({field.n_steps} steps, {field.j_cells} cells) "
          f"to {out}")
    return 0


def cmd_rate(cfg, args) -> int:
    pot = build_potential(cfg)
    out = _resolve_outdir(cfg, args)
    field = _solve_field_from_cfg(cfg, "rate", pot)
    decomposition = rate(pot, field)
    with _create(out, "rate.csv") as fh:
        fh.write(RateDecomposition.CSV_HEADER + "\n")
        fh.write(decomposition.csv_row() + "\n")
    with _create(out, "field.csv") as fh:
        field.to_csv(fh)
    write_manifest(cfg, "rate", out)
    print(f"rate total = {decomposition.total:.6g} "
          f"(feasible = {decomposition.feasible})")
    return 0


def cmd_ldp(cfg, args) -> int:
    pot = build_potential(cfg)
    out = _resolve_outdir(cfg, args)
    n_list = [_parse_int(cfg, "ldp", "n_list", text=tok)
              for tok in cfg["ldp"]["n_list"].split(",")]
    try:
        targets = [float(tok) for tok in cfg["ldp"]["family"].split(",")]
    except ValueError:
        raise ConfigInvalid("[ldp] family must be comma-separated numbers")
    if not all(map(math.isfinite, targets)):
        raise ConfigInvalid("[ldp] family entries must be finite")
    horizon = _parse_positive(cfg, "ldp", "horizon")
    replicas = _parse_int(cfg, "ldp", "replicas")
    target = _parse_float(cfg, "ldp", "target")
    bound = _parse_positive(cfg, "ldp", "bound")
    seed = _parse_int(cfg, "run", "seed", 0)
    workers = _parse_int(cfg, "run", "workers")

    functional = Functional(
        kind="pairing_at_end",
        test_function=lambda th: np.sin(2.0 * np.pi * np.asarray(th)),
        transform=lambda v, t=target: (np.asarray(v) - t) ** 2,
        bound=bound)
    reports: list[ExperimentReport] = []
    rows = ldp_trend_study(pot, functional, n_list, horizon, replicas,
                           targets, seed=seed, workers=workers,
                           report_sink=reports)
    with _create(out, "trend.csv") as fh:
        fh.write(TrendRow.CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")
    with _create(out, "reports.csv") as fh:
        fh.write(ExperimentReport.CSV_HEADER + "\n")
        for rep in reports:
            fh.write(rep.csv_row() + "\n")
    write_manifest(cfg, "ldp", out)
    for row in rows:
        print(f"N={row.n_sites}: laplace={row.laplace:.6g} "
              f"best_bound={row.variational:.6g} "
              f"limit={row.limit_value:.6g}")
    return 0


def cmd_print_defaults(cfg, args) -> int:
    for section in DEFAULTS:
        print(f"[{section}]")
        for key, value in DEFAULTS[section].items():
            print(f"{key} = {value}")
        print()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gllab",
        description="Lattice diffusion, hydrodynamic PDE, and "
                    "large-deviation experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, fn in [("simulate", cmd_simulate), ("pde", cmd_pde),
                     ("rate", cmd_rate), ("ldp", cmd_ldp),
                     ("print-defaults", cmd_print_defaults)]:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="INI config file (defaults used when omitted)")
        p.add_argument("--output-dir", default=None,
                       help="overrides [run] output_dir and "
                            + ENV_OUTPUT_DIR)
        p.set_defaults(func=fn)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(cfg, args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GLLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
