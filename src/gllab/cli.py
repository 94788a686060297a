"""Command-line front end.

Subcommands: simulate | pde | rate | ldp | print-defaults.  All numeric
inputs come from one INI-style config file (sections of key = value
pairs); every run writes its outputs plus a manifest holding the fully
resolved configuration, so re-running from the manifest reproduces the
CSVs byte for byte.  ``print-defaults`` takes no flags.

Every key is declared once in ``SCHEMA``, with its default (as INI text)
and the parser that checks it; ``DEFAULTS``, ``print-defaults`` and the
manifest are generated from it.  Unknown sections or keys are rejected,
and every key of every section is checked before any work starts, whatever
the subcommand.  Numbers must be finite.  A spec (profile, m0, control) is
``name``, ``name(value)`` or ``name:value``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, the
last reported on one stderr line: numpy's floating-point RuntimeWarnings
are silenced for the command, through the process-wide warnings filter
that the estimators' pool threads read too (``np.errstate`` would reach
the main thread only).  The envelope clamp warning still prints.
Output directory resolution: --output-dir flag, then GLLAB_OUTPUT_DIR,
then the config value.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import os
import re
import shutil
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, particles
from .errors import ConfigInvalid, GLLabError
from .particles import (ControlGrid, SimConfig, deterministic_profile,
                        equilibrium_profile, simulate_replicas, stable_dt,
                        tilted_sine_profile)
from .pde import cfl_time_steps, solve_controlled_pde, write_field_csv
from .potential import make_potential
from .rare_events import (ExperimentReport, Functional, TrendRow,
                          STEERING_CELLS, ldp_trend_study, steering_steps)
from .rate import RateDecomposition, rate

ENV_OUTPUT_DIR = "GLLAB_OUTPUT_DIR"
# numpy's floating-point RuntimeWarnings, by their message
FP_WARNING = r"(overflow|invalid value|divide by zero|underflow) encountered"

# A plan is impossible, and exits 2 before anything is allocated, when its
# step count reaches 2**53, past which the step times k*dt are not exact,
# when its output arrays alone exceed this machine's physical memory, or
# when its output files alone exceed the free space of their filesystem.
MAX_STEPS = 2 ** 53
MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# -- value kinds: each parser maps INI text to a checked value ----------------


def _integer(minimum):
    def parse(text):
        try:
            v = int(text)
        except ValueError:
            raise ConfigInvalid("must be an integer")
        if v < minimum:
            raise ConfigInvalid(f"must be >= {minimum}")
        return v
    return parse


def _finite(text):
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ConfigInvalid(f"must be a finite number, not {text.strip()!r}")
    return v


def _positive(text):
    v = _finite(text)
    if v <= 0:
        raise ConfigInvalid("must be positive")
    return v


def _or_auto(parse):
    return lambda text: None if text.strip() == "auto" else parse(text)


def _comma_list(parse):
    return lambda text: [parse(tok) for tok in text.split(",")]


_SPEC_RE = re.compile(r"([a-z_]+)(?:\(([^()]*)\)|:([^()]*))?")


def _spec(bare, with_value):
    """Parser of 'name', 'name(value)' or 'name:value'.  A bare name maps
    to its entry in ``bare``, a name with a value to
    ``with_value[name](value)``."""
    def parse(text):
        m = _SPEC_RE.fullmatch(text.strip())
        if not m:
            raise ConfigInvalid(f"must be 'name', 'name(value)' or "
                                f"'name:value', not {text.strip()!r}")
        name = m.group(1)
        arg = m.group(2) if m.group(3) is None else m.group(3)
        if name not in bare and name not in with_value:
            raise ConfigInvalid(f"has unknown name {name!r}")
        if arg is None and name in bare:
            return bare[name]
        if arg is not None and name in with_value:
            return with_value[name](_finite(arg))
        raise ConfigInvalid(f"{name!r} takes "
                            + ("no value" if name in bare else "a value"))
    return parse


# Fields of theta, by amplitude; profiles, by amplitude, as functions of
# the potential.
_FIELDS = {
    "constant": lambda a: lambda th: np.full_like(np.asarray(th, dtype=float),
                                                  a),
    "sine": lambda a: lambda th: a * np.sin(2.0 * np.pi * np.asarray(th)),
    "cosine": lambda a: lambda th: a * np.cos(2.0 * np.pi * np.asarray(th)),
}
_PROFILES = {
    "tilted_sine": lambda a: lambda pot: tilted_sine_profile(pot, a),
    "constant": lambda a: lambda pot: deterministic_profile(
        _FIELDS["constant"](a)),
}
_M0 = _spec({}, _FIELDS)
_CONTROL = _spec({"none": None}, _FIELDS)


def _pde_section(j_cells, m0):
    return {
        "j_cells": (j_cells, _integer(4)),
        "horizon": ("0.05", _positive),
        "n_steps": ("auto", _or_auto(_integer(1))),
        "m0": (m0, _M0),
        "control": ("none", _CONTROL),
    }


# section -> key -> (default as INI text, parser)
SCHEMA = {
    "run": {
        "seed": ("12345", _integer(0)),
        "output_dir": ("gllab-out", str),
        "workers": ("1", _integer(1)),
    },
    "potential": {
        "name": ("gaussian", str),
        "quartic_a": ("1.0", _finite),
        "quartic_b": ("0.0", _finite),
    },
    "simulate": {
        "n_sites": ("32", _integer(1)),
        "horizon": ("0.5", _positive),
        "dt": ("auto", _or_auto(_positive)),
        "snapshots": ("11", _integer(2)),
        "profile": ("equilibrium",
                    _spec({"equilibrium": equilibrium_profile}, _PROFILES)),
        "control": ("none", _CONTROL),
        "replicas": ("1", _integer(1)),
    },
    "pde": _pde_section("128", "sine(1.0)"),
    "rate": _pde_section("64", "sine(0.8)"),
    "ldp": {
        "n_list": ("8,16,32", _comma_list(_integer(1))),
        "replicas": ("2000", _integer(1)),
        "horizon": ("0.1", _positive),
        "target": ("0.3", _finite),
        "family": ("0.12,0.18,0.24,0.3,0.36", _comma_list(_finite)),
        "bound": ("4.0", _positive),
    },
}

DEFAULTS: dict[str, dict[str, str]] = {
    section: {key: default for key, (default, _) in keys.items()}
    for section, keys in SCHEMA.items()}


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


def parse_config(cfg) -> dict[str, SimpleNamespace]:
    """Every key of the resolved text ``cfg`` checked and typed, one
    namespace per section."""
    values = {}
    for section, keys in SCHEMA.items():
        typed = {}
        for key, (_, parse) in keys.items():
            try:
                typed[key] = parse(cfg[section][key])
            except ConfigInvalid as exc:
                raise ConfigInvalid(f"[{section}] {key} {exc}")
        values[section] = SimpleNamespace(**typed)
    return values


def build_potential(p: SimpleNamespace):
    params = {} if p.name != "quartic" else {"a": p.quartic_a,
                                             "b": p.quartic_b}
    try:
        return make_potential(p.name, **params)
    except ValueError as exc:
        raise ConfigInvalid(f"[potential] {exc}")


def _ini(cfg) -> str:
    """``cfg``'s text as INI, in schema order."""
    return "".join(f"[{section}]\n"
                   + "".join(f"{key} = {cfg[section][key]}\n" for key in keys)
                   + "\n" for section, keys in SCHEMA.items())


@contextlib.contextmanager
def _create(out: Path, name: str):
    """out/name open for writing; out is made now, not before validation.
    When the block raises, the file and the directories made for it go."""
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    try:
        with open(out / name, "w") as fh:
            yield fh
    except BaseException:
        (out / name).unlink(missing_ok=True)
        for d in made:                  # innermost first
            d.rmdir()
        raise


def _check_steps(keys: str, steps):
    if not steps < MAX_STEPS:
        raise ConfigInvalid(f"{keys} plan 2**53 or more time steps, past "
                            "which the step times k*dt are not exact")


def _check_size(keys: str, n_floats: int):
    if 8 * n_floats > MEMORY_BYTES:
        raise ConfigInvalid(f"{keys} plan output arrays larger than this "
                            f"machine's {MEMORY_BYTES / 2 ** 30:.3g} GiB "
                            "of memory")


def _check_disk(keys: str, n_bytes: int, out: Path):
    """Exit 2 when files of at least ``n_bytes`` cannot fit under out."""
    existing = out.absolute()
    while not existing.exists():
        existing = existing.parent
    free = shutil.disk_usage(existing).free
    if n_bytes > free:
        raise ConfigInvalid(f"{keys} plan at least {n_bytes:.3g} bytes of "
                            f"output files, more than the {free:.3g} bytes "
                            f"free under {existing}")


def _steps_or_inf(count, *args):
    """``count(*args)``, or inf where the step count overflows a float."""
    try:
        return count(*args)
    except OverflowError:
        return math.inf


def _control(c: SimpleNamespace, j_cells: int):
    """A section's time-constant control as a one-slice ControlGrid."""
    return None if c.control is None else ControlGrid.from_function(
        lambda t, th: c.control(th), 1, j_cells, c.horizon)


def cmd_simulate(pot, cfg, out: Path):
    s, seed = cfg["simulate"], cfg["run"].seed
    # replicas run in groups whose (M, N) step fits one noise block
    group = min(s.replicas,
                max(1, particles.NOISE_BLOCK_BYTES // (8 * s.n_sites)))
    _check_size("[simulate] n_sites and snapshots",
                s.snapshots * group * s.n_sites)
    dt = stable_dt(pot, s.n_sites) if s.dt is None else s.dt
    _check_steps("[simulate] horizon and dt", s.horizon / dt)
    # each of the n_sites + 3 values of a row takes a digit and a separator
    _check_disk("[simulate] replicas, snapshots and n_sites",
                s.replicas * s.snapshots * (s.n_sites + 3) * 2, out)
    config = SimConfig(s.n_sites, s.horizon, dt, seed=seed)
    profile = s.profile(pot)
    control = _control(s, s.n_sites)
    sample_times = np.linspace(0.0, s.horizon, s.snapshots)

    # replica r draws only from the r-th child stream, so its file is what
    # a run of it alone writes; spawn counts on from group to group
    seeds = np.random.SeedSequence(seed)
    for first in range(0, s.replicas, group):
        rngs = [np.random.default_rng(child) for child in
                seeds.spawn(min(group, s.replicas - first))]
        batch = simulate_replicas(pot, config, profile, len(rngs), control,
                                  sample_times, record_states=True, rng=rngs)
        for r in range(len(rngs)):
            with _create(out, f"trajectory_{first + r:03d}.csv") as fh:
                batch.trajectory(r).to_csv(fh)
    print(f"wrote {s.replicas} trajectories to {out}")


def _field_plan(pot, cfg, section, out: Path):
    """The checked arguments of ``section``'s PDE solve."""
    c = cfg[section]
    _check_size(f"[{section}] j_cells", 2 * c.j_cells)
    n_steps = c.n_steps or _steps_or_inf(cfl_time_steps, pot, c.m0,
                                         c.j_cells, c.horizon)
    _check_steps(f"[{section}] horizon and n_steps", n_steps)
    _check_size(f"[{section}] j_cells, horizon and n_steps",
                (n_steps + 1) * c.j_cells)
    # each of the j_cells + 1 values of a row takes a digit and a separator
    _check_disk(f"[{section}] j_cells, horizon and n_steps",
                (n_steps + 1) * (c.j_cells + 1) * 2, out)
    theta = np.arange(c.j_cells) / c.j_cells
    return (pot, c.m0(theta), _control(c, c.j_cells), c.horizon, c.j_cells,
            n_steps)


def cmd_pde(pot, cfg, out: Path):
    args = _field_plan(pot, cfg, "pde", out)
    with _create(out, "field.csv") as fh:
        write_field_csv(fh, *args)
    *_, j_cells, n_steps = args
    print(f"wrote field.csv ({n_steps} steps, {j_cells} cells) to {out}")


def cmd_rate(pot, cfg, out: Path):
    field = solve_controlled_pde(*_field_plan(pot, cfg, "rate", out))
    decomposition = rate(pot, field)
    with _create(out, "rate.csv") as fh:
        fh.write(RateDecomposition.CSV_HEADER + "\n")
        fh.write(decomposition.csv_row() + "\n")
    with _create(out, "field.csv") as fh:
        field.to_csv(fh)
    print(f"rate total = {decomposition.total:.6g} "
          f"(feasible = {decomposition.feasible})")


def cmd_ldp(pot, cfg, out: Path):
    c, run = cfg["ldp"], cfg["run"]
    functional = Functional(
        kind="pairing_at_end",
        test_function=lambda th: np.sin(2.0 * np.pi * np.asarray(th)),
        transform=lambda v, t=c.target: (np.asarray(v) - t) ** 2,
        bound=c.bound)
    for n in c.n_list:
        _check_size("[ldp] n_list and replicas", c.replicas * n)
        _check_steps("[ldp] horizon and n_list",
                     c.horizon / stable_dt(pot, n))
    for v in c.family:
        steps = _steps_or_inf(steering_steps, pot, v, c.horizon)
        _check_steps("[ldp] horizon", steps)
        _check_size("[ldp] horizon", STEERING_CELLS * (steps + 1))
    reports: list[ExperimentReport] = []
    rows = ldp_trend_study(pot, functional, c.n_list, c.horizon, c.replicas,
                           c.family, seed=run.seed, workers=run.workers,
                           report_sink=reports)
    with _create(out, "trend.csv") as fh:
        fh.write(TrendRow.CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")
    with _create(out, "reports.csv") as fh:
        fh.write(ExperimentReport.CSV_HEADER + "\n")
        for rep in reports:
            fh.write(rep.csv_row() + "\n")
    for row in rows:
        print(f"N={row.n_sites}: laplace={row.laplace:.6g} "
              f"best_bound={row.variational:.6g} "
              f"limit={row.limit_value:.6g}")


COMMANDS = {"simulate": cmd_simulate, "pde": cmd_pde, "rate": cmd_rate,
            "ldp": cmd_ldp}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gllab",
        description="Lattice diffusion, hydrodynamic PDE, and "
                    "large-deviation experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="INI config file (defaults used when omitted)")
        p.add_argument("--output-dir", default=None,
                       help="overrides [run] output_dir and "
                            + ENV_OUTPUT_DIR)
    sub.add_parser("print-defaults")

    args = parser.parse_args(argv)
    if args.subcommand == "print-defaults":
        print(_ini(DEFAULTS), end="")
        return 0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", FP_WARNING, RuntimeWarning)
        try:
            resolved = load_config(args.config)
            cfg = parse_config(resolved)
            pot = build_potential(cfg["potential"])
            out = Path(args.output_dir or os.environ.get(ENV_OUTPUT_DIR)
                       or cfg["run"].output_dir)
            COMMANDS[args.subcommand](pot, cfg, out)
            (out / "manifest.ini").write_text(
                _ini(resolved) + "[provenance]\n"
                f"tool_version = {__version__}\n"
                f"subcommand = {args.subcommand}\n")
            return 0
        except ConfigInvalid as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except GLLabError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
