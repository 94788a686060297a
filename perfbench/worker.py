"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this from the root of a gllab checkout:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR
    python3 perfbench/worker.py --workload NAME --seed N --out DIR \
        --setup-only

Set-up is the imports, the potential and the workload's inputs.  With
``--setup-only`` the worker prints ``READY`` after set-up and exits, so
the caller can time a fresh interpreter up to the first workload call.
Otherwise it repeats the workload's pass until ``--seconds`` are spent
and writes ``result.json`` to ``--out``.  With ``--trace 1`` the passes
alternate untraced and traced, the spans go to ``spans.jsonl``, and the
per-layer metrics are computed from the traced passes.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))


def blas_info():
    """(thread count, config string) of the OpenBLAS numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("scipy_openblas", ""), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
            if get_threads is None:
                continue
            get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return get_threads(), get_config().decode()
    return None, None


def cpu_caches():
    """Cache sizes as ``lscpu`` reports them."""
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return {key.strip(): value.strip()
            for key, value in (line.split(":", 1)
                               for line in text.splitlines() if ":" in line)
            if "cache" in key.lower()}


def source_digest():
    """sha256 of gllab's source files, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment():
    import numpy
    import scipy
    threads, config = blas_info()
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": threads,
        "blas_config": config,
        "cpu_caches": cpu_caches(),
    }


def measure(workload, ops, seconds, tracer):
    """Repeat the pass until ``seconds`` are spent; one record per pass.

    An untraced run makes at least two passes, so that no workload's
    figures rest on a single pass.  Traced runs alternate an untraced and
    a traced pass, so both sides see the same machine conditions.  After
    that, another round starts only if it is due to end nearer to
    ``seconds`` than stopping now, so a run lasts about ``seconds``.
    """
    from workloads import Digest
    passes = []
    sides = (False, True) if tracer else (False,)
    min_rounds = 1 if tracer else 2
    start = time.perf_counter()
    round_times = []
    while True:
        t_round = time.perf_counter()
        for traced in sides:
            digest = Digest()
            if traced:
                tracer.run_id = f"traced-{len(round_times)}"
                tracer.install()
            c0 = os.times()
            t0 = time.perf_counter()
            try:
                workload.run_pass(ops, digest)
            finally:
                wall = time.perf_counter() - t0
                c1 = os.times()
                if traced:
                    tracer.uninstall()
            passes.append({
                "traced": traced, "wall_s": wall,
                "cpu_s": (c1.user + c1.system) - (c0.user + c0.system),
                "digest": digest.hexdigest()})
        now = time.perf_counter()
        round_times.append(now - t_round)
        if (len(round_times) >= min_rounds and
                now - start + statistics.median(round_times) / 2 >= seconds):
            return passes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = args.out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tracer = None
        import workloads
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if tracer:
            tracer.uninstall()
        if args.setup_only:
            print("READY", flush=True)
            return 0

        ops = workloads.Ops()
        passes = measure(workload, ops, args.seconds, tracer)
        result = {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "passes": passes,
            "attempted": ops.attempted, "failed": ops.failed,
            "errors": ops.errors,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": environment(),
        }
        if tracer:
            from spans import layer_metrics
            result["per_layer"] = layer_metrics(
                tracer, [p["wall_s"] for p in passes if p["traced"]],
                [p["wall_s"] for p in passes if not p["traced"]])
            tracer.write(args.out / "spans.jsonl")
        (args.out / "result.json").write_text(json.dumps(result, indent=1))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
