"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps gllab's public functions from outside the package: no
file under ``src/`` knows about it.  gllab's modules import each other
with ``from .x import y``, so a function is reachable under several
module attributes (``gllab.particles.simulate_replicas`` is also
``gllab.rare_events.simulate_replicas``); every one of those lookups is
replaced, or calls made through the others would go unseen.  Methods are
wrapped on the class object, which every lookup shares.

A span is ``(id, parent id, run id, name, start, end, attrs)``.  Spans are
kept in memory and written out by the caller when the run ends.  gllab is
driven single-threaded here (``workers = 1``), so one stack of open spans
gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
from time import perf_counter

# The package's modules; each one is a layer.
LAYERS = ("potential", "particles", "measures", "pde", "rate",
          "rare_events", "cli")

# Public methods worth a span.  Everything else a layer exposes is a
# module-level function, and all of those are wrapped.
METHODS = {
    ("potential", "Potential"): ("__init__", "legendre_h", "legendre_h_vec"),
    ("potential", "EnvelopeTable"): ("__init__", "__call__"),
    ("particles", "TrajectoryRecord"): ("to_csv",),
    ("pde", "DensityField"): ("to_csv",),
}

ESTIMATORS = ("laplace_functional_mc", "importance_sampled_expectation",
              "plain_expectation", "variational_upper_bound")


def _argument(fn, name):
    """Reader for one named argument of ``fn`` from a call's args."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return read


def _output_bytes(argv):
    """Bytes in the output directory a ``gllab`` command line names."""
    if not argv or "--output-dir" not in argv:
        return 0
    out = argv[argv.index("--output-dir") + 1]
    return sum(e.stat().st_size for e in os.scandir(out) if e.is_file())


class Tracer:
    """Installs span-recording wrappers on gllab and removes them again."""

    def __init__(self):
        self.spans: list = []
        self.run_id = "setup"
        self.potentials: list = []
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, attrs=None, before=None):
        """Wrapper recording a span per call.

        ``before(args, kwargs)`` runs ahead of the call; ``attrs(args,
        kwargs, result, state)`` runs after it, with ``state`` what
        ``before`` returned, and gives the counts the span carries.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            state = before(args, kwargs) if before else None
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result, state) if attrs else None
                spans[sid] = (sid, parent, self.run_id, name, t0, t1, extra)
        return wrapper

    def _hooks(self, name, fn):
        """``(attrs, before)`` for the spans of ``name``: counts read from
        each call's arguments and result."""
        layer, short = name.split(".", 1)
        if short in ("simulate_replicas", "simulate_trajectory"):
            config_of = _argument(fn, "config")
            m_of = _argument(fn, "n_replicas") \
                if short == "simulate_replicas" else (lambda a, k: 1)

            def sim_attrs(a, k, r, s):
                config = config_of(a, k)
                return {"m": m_of(a, k), "n": config.n_sites,
                        "steps": config.n_steps()}
            return sim_attrs, None
        if short == "solve_controlled_pde":
            return (lambda a, k, r, s: None if r is None else {
                "cells": r.n_steps * r.j_cells,
                "escaped": int(r.range_escaped)}), None
        if name == "rate.minimal_control":
            field_of = _argument(fn, "field")
            return (lambda a, k, r, s: {"cells": field_of(a, k).n_steps
                                        * field_of(a, k).j_cells}), None
        if layer == "rare_events" and short in ESTIMATORS:
            m_of = _argument(fn, "n_replicas")
            return (lambda a, k, r, s: {"m": m_of(a, k)}), None
        if name == "cli.main":
            argv_of = _argument(fn, "argv")
            return (lambda a, k, r, s: {
                "bytes": _output_bytes(argv_of(a, k))}), None
        if name == "measures.linprog":
            return (lambda a, k, r, s: {"atoms": len(a[0])}), None
        if name == "potential.EnvelopeTable.__call__":
            # a call that had to widen the table rebuilt it
            return ((lambda a, k, r, bounds: {"grew": 1}
                     if (a[0].lo, a[0].hi) != bounds else None),
                    lambda a, k: (a[0].lo, a[0].hi))
        if name == "potential.Potential.__init__":
            return (lambda a, k, r, s: self.potentials.append(a[0])), None
        return None, None

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of every layer at each lookup site."""
        modules = {layer: importlib.import_module(f"gllab.{layer}")
                   for layer in LAYERS}
        namespaces = [importlib.import_module("gllab"), *modules.values()]
        targets = []      # (span name, function, [(owner, attribute)])
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                targets.append((f"{layer}.{name}", fn, [
                    (ns, attr) for ns in namespaces
                    for attr, value in vars(ns).items() if value is fn]))
        # The LP solver as gllab.measures looks it up: its cost vector has
        # one entry per atom the bounded-Lipschitz LP keeps.
        measures = modules["measures"]
        targets.append(("measures.linprog", measures.linprog,
                        [(measures, "linprog")]))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            targets += [(f"{layer}.{cls_name}.{meth}", vars(cls)[meth],
                         [(cls, meth)]) for meth in methods]
        for name, fn, owners in targets:
            wrapped = self._wrap(name, fn, *self._hooks(name, fn))
            for owner, attr in owners:
                self._patch(owner, attr, wrapped)

    def uninstall(self):
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w") as fh:
            for sid, parent, run_id, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "run": run_id,
                    "name": name, "start": t0, "end": t1,
                    "attrs": attrs or {}}) + "\n")


# -- per-layer metrics ----------------------------------------------------


class _Pass:
    """The spans of one traced pass, with the sums the metrics need."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list] = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def select(self, *names):
        return [s for s in self.spans if s[3] in names]

    def count(self, *names):
        return len(self.select(*names))

    def nested_in(self, span, names):
        """Whether ``span`` runs inside a span with one of ``names``."""
        parent = self.by_id.get(span[1])
        while parent is not None:
            if parent[3] in names:
                return True
            parent = self.by_id.get(parent[1])
        return False

    def total(self, *names):
        """Time in the named spans, nested ones counted once."""
        return sum(s[5] - s[4] for s in self.select(*names)
                   if not self.nested_in(s, names))

    def attr(self, name, key):
        return [(s[6] or {}).get(key, 0) for s in self.select(name)]

    def descendants(self, span, names):
        """Time in the outermost named spans below ``span``."""
        out = 0.0
        for child in self.children.get(span[0], []):
            if child[3] in names:
                out += child[5] - child[4]
            else:
                out += self.descendants(child, names)
        return out

    def self_time(self, prefix):
        """Duration of the prefix's spans minus their direct children's."""
        out = 0.0
        for s in self.spans:
            if s[3].startswith(prefix):
                out += (s[5] - s[4]) - sum(
                    c[5] - c[4] for c in self.children.get(s[0], []))
        return out

    def top_level(self):
        return sum(s[5] - s[4] for s in self.spans if s[1] == -1)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def pass_metrics(spans, wall):
    """Per-layer metrics of one traced pass that took ``wall`` seconds."""
    p = _Pass(spans)
    env_call = "potential.EnvelopeTable.__call__"
    env_init = "potential.EnvelopeTable.__init__"
    calls = p.select(env_call)
    rebuilt = [s for s in calls if s[6]]
    sims = ("particles.simulate_replicas", "particles.simulate_trajectory")
    sim_s = p.total(*sims)
    steps = sum(p.attr(sims[0], "steps") + p.attr(sims[1], "steps"))
    site_steps = sum((s[6] or {}).get("m", 0) * s[6]["n"] * s[6]["steps"]
                     for s in p.select(*sims) if s[6])
    solve_s = p.total("pde.solve_controlled_pde")
    cell_steps = sum(p.attr("pde.solve_controlled_pde", "cells"))
    estimators = [f"rare_events.{n}" for n in ESTIMATORS]
    est_spans = [s for s in p.select(*estimators)
                 if not p.nested_in(s, estimators)]
    est_self = sum((s[5] - s[4])
                   - p.descendants(s, ("particles.simulate_replicas",))
                   for s in est_spans)
    return {
        "potential.init_s": p.total("potential.Potential.__init__"),
        "potential.envelope_builds": p.count(env_init) + len(rebuilt),
        "potential.envelope_build_s": p.total(env_init)
        + sum(s[5] - s[4] for s in rebuilt),
        "potential.envelope_lookups": len(calls),
        "potential.envelope_lookup_s": sum(s[5] - s[4] for s in calls
                                           if not s[6]),
        "potential.legendre_calls": p.count("potential.Potential."
                                            "legendre_h_vec"),
        "potential.legendre_s": p.total("potential.Potential.legendre_h",
                                        "potential.Potential."
                                        "legendre_h_vec"),
        "particles.sim_calls": p.count(*sims),
        "particles.sim_s": sim_s,
        "particles.steps": steps,
        "particles.site_steps": site_steps,
        "particles.site_steps_per_s": _ratio(site_steps, sim_s),
        "particles.step_us": 1e6 * _ratio(sim_s, steps),
        "particles.init_sample_s": p.total(
            "particles.sample_initial_matrix",
            "particles.sample_initial_from_profile"),
        "particles.profile_build_s": p.total(
            "particles.equilibrium_profile", "particles.tilted_profile",
            "particles.tilted_sine_profile",
            "particles.tilted_constant_profile",
            "particles.deterministic_profile"),
        "measures.bl_calls": p.count("measures.bl_distance"),
        "measures.bl_s": p.total("measures.bl_distance"),
        "measures.lp_atoms_max": max(p.attr("measures.linprog", "atoms"),
                                     default=0),
        "measures.d_star_calls": p.count("measures.d_star"),
        "measures.d_star_s": p.total("measures.d_star"),
        "pde.solve_calls": p.count("pde.solve_controlled_pde"),
        "pde.solve_s": solve_s,
        "pde.cell_steps": cell_steps,
        "pde.cell_steps_per_s": _ratio(cell_steps, solve_s),
        "pde.cfl_calls": p.count("pde.cfl_time_steps"),
        "pde.cfl_s": p.total("pde.cfl_time_steps"),
        "pde.range_escaped": sum(p.attr("pde.solve_controlled_pde",
                                        "escaped")),
        "rate.calls": p.count("rate.rate"),
        "rate.s": p.total("rate.rate"),
        "rate.minimal_control_calls": p.count("rate.minimal_control"),
        "rate.minimal_control_s": p.total("rate.minimal_control"),
        "rate.cells": sum(p.attr("rate.minimal_control", "cells")),
        "rare_events.estimator_calls": len(est_spans),
        "rare_events.replicas": sum((s[6] or {}).get("m", 0)
                                    for s in est_spans),
        "rare_events.estimator_self_s": est_self,
        "rare_events.steering_plans": p.count("rare_events.steering_plan"),
        "rare_events.steering_s": p.total("rare_events.steering_plan"),
        "cli.main_s": p.total("cli.main"),
        "cli.self_s": p.self_time("cli."),
        "cli.csv_write_s": p.total("particles.TrajectoryRecord.to_csv",
                                   "pde.DensityField.to_csv"),
        "cli.bytes_written": sum(p.attr("cli.main", "bytes")),
        "trace.coverage_frac": _ratio(p.top_level(), wall),
    }


def layer_metrics(tracer, traced_walls, untraced_walls):
    """Median over traced passes of each per-layer metric.

    ``potential.init_s`` also counts the potentials built during set-up,
    and ``potential.tilt_cache_entries`` is read once, after the run: the
    largest tilt-table cache of any potential the run built.
    """
    by_run: dict[str, list] = {}
    for span in tracer.spans:
        by_run.setdefault(span[2], []).append(span)
    per_pass = [pass_metrics(by_run.get(f"traced-{i}", []), wall)
                for i, wall in enumerate(traced_walls)]
    out = {name: statistics.median(m[name] for m in per_pass)
           for name in per_pass[0]}
    out["potential.init_s"] += _Pass(by_run.get("setup", [])).total(
        "potential.Potential.__init__")
    out["potential.tilt_cache_entries"] = max(
        (len(p._tilt_tables) for p in tracer.potentials), default=0)
    out["trace.overhead_frac"] = (statistics.median(traced_walls)
                                  / statistics.median(untraced_walls) - 1.0)
    return out
