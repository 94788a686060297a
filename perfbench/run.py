"""gllab benchmark: one run of one workload, printed as metrics.

Run from the root of a gllab checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload ldp|certificate|tracking \
        --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

- ``wall_s``: median time of one pass, the workload's full result;
- ``cpu_s``: median user plus system CPU of one pass, all threads;
- ``setup_s``: median, over fresh interpreters, of the time from start to
  the first workload call (imports, potential, inputs); half of them are
  started before the measured passes and half after, so that the median
  spans the whole run;
- ``peak_rss_mb``: peak resident memory of the measuring process;
- ``ops_ok_frac``: 1 - ops_failed_frac, so that it is never 0.  The
  failed and attempted counts are also in the result line.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see ``spans.py``), with
``trace.overhead_frac`` and ``trace.coverage_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` holds
when no operation failed and every pass, traced or not, gave the same
output digest.  The full record (digest, passes, environment, errors) is
written under ``.perfbench_out/`` and its path printed.  The workloads are
described in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ldp", "certificate", "tracking")
SETUP_SAMPLES = 3            # on each side of the measured passes
RUN_BUDGET_S = 170.0


def unit_of(name):
    """A metric's unit, read from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in ((("_s", ".s"), "s"), ("_us", "us"), ("_mb", "MB"),
                         ("_frac", "frac"), ("bytes_written", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Runner:
    """Starts the worker processes of one run inside a time budget."""

    def __init__(self, args, out):
        self.args = args
        self.out = out
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.base = [sys.executable, str(HERE / "worker.py"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--out", str(out)]

    def _remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            fail("run exceeded its time budget")
        return left

    def setup_time(self):
        """Seconds from starting a fresh interpreter to its READY line."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.base + ["--setup-only"],
                                stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        self._remaining())
            line = proc.stdout.readline() if ready else b""
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            line = b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"READY" or proc.returncode != 0:
            fail(f"set-up of {self.args.workload} failed")
        return elapsed

    def measure(self):
        log = self.out / "worker.log"
        with open(log, "w") as fh:
            try:
                proc = subprocess.run(
                    self.base + ["--seconds", str(self.args.seconds),
                                 "--trace", str(self.args.trace)],
                    stdout=fh, stderr=subprocess.STDOUT,
                    timeout=self._remaining())
            except subprocess.TimeoutExpired:
                fail(f"worker timed out; see {log}")
        if proc.returncode != 0:
            fail(f"worker exited {proc.returncode}; see {log}")
        return json.loads((self.out / "result.json").read_text())


def summarize(result, setup_times):
    passes = result["passes"]
    digests = {p["digest"] for p in passes}
    correct = result["failed"] == 0 and len(digests) == 1
    if result["trace"]:
        values = result["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup_times),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": result["peak_rss_mb"],
            "ops_ok_frac": 1.0 - result["failed"] / result["attempted"],
        }
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in values.items()}
    return correct, sorted(digests), metrics


def main():
    parser = argparse.ArgumentParser(
        description="Run one gllab benchmark workload and print metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gllab" / "__init__.py").is_file():
        fail("no gllab sources at src/gllab; run from a checkout's root")
    out = (root / ".perfbench_out"
           / f"{args.workload}-seed{args.seed}-trace{args.trace}"
             f"-{os.getpid()}")
    out.mkdir(parents=True)

    runner = Runner(args, out)
    setup_times = []
    if not args.trace:
        setup_times += [runner.setup_time() for _ in range(SETUP_SAMPLES)]
    result = runner.measure()
    if not args.trace:
        setup_times += [runner.setup_time() for _ in range(SETUP_SAMPLES)]
    correct, digests, metrics = summarize(result, setup_times)
    record = {"correct": correct, "digests": digests,
              "setup_times": setup_times, "metrics": metrics, **result}
    (out / "summary.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(result['passes'])} passes")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:16.6g} {m['unit']}")
    print(f"  {'ops_failed_frac':32s} "
          f"{result['failed'] / result['attempted']:16.6g} frac "
          f"({result['failed']} of {result['attempted']})")
    for error in result["errors"]:
        print(f"  failed: {error}")
    print(f"digest {' '.join(digests)}")
    print(f"record {out / 'summary.json'}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
