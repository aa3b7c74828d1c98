"""One fresh benchmark process.

Every mode first times ``reference.reference_pass`` in this process, before
templikit is imported, so the parent can calibrate this process's times (see
``reference.py``).

``child.py lib WORKLOAD SEED MODE SPAWN_NS`` builds the workload's instances
and prints one JSON line.  ``SPAWN_NS`` is the parent's CLOCK_MONOTONIC
reading just before it started this process, so ``setup_s`` covers
interpreter start, ``import templikit`` and instance building (but not the
reference pass).  MODE is

- ``run``: run the check sequence twice, cold and then warm in the same
  process;
- ``trace``: install the layer wrappers right after the import, run the cold
  pass only and add the layer snapshot to the line.

Another reference pass follows each pass of checks.

``child.py cli OUT_FILE TRACE ARG...`` is ``templikit ARG...``, with the layer
wrappers installed if TRACE is 1, between two reference passes; it writes
the reference times (and the layer snapshot) to OUT_FILE and exits with the
command's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from reference import reference_pass  # noqa: E402


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_library(workload, seed, mode, spawn_ns):
    before = reference_pass()
    import templikit  # noqa: F401
    import workloads

    rec = None
    if mode == "trace":
        import layers

        rec = layers.install()
    run_pass = workloads.build(workload, workloads.draws(workload, seed))
    setup_s = now() - spawn_ns / 1e9 - before
    start = now()
    cold = run_pass()
    cold_s = now() - start
    out = {"setup_s": setup_s, "cold_s": cold_s, "passes": [cold],
           "reference_s": [before, reference_pass()]}
    if rec is not None:
        out["layers"] = rec.snapshot()
    else:
        start = now()
        warm = run_pass()
        out["warm_s"] = now() - start
        out["passes"].append(warm)
        out["reference_s"].append(reference_pass())
    print(json.dumps(out))


def run_cli(out_file, trace, argv):
    out = {"reference_s": [reference_pass()]}
    start = time.perf_counter()
    from templikit import cli

    import_s = time.perf_counter() - start
    rec = None
    if trace:
        import layers

        rec = layers.install()
    code = cli.main(argv)
    sys.stdout.flush()
    out["reference_s"].append(reference_pass())
    if rec is not None:
        out["layers"] = rec.snapshot()
        out["layers"]["cli.import_s"] = import_s
    with open(out_file, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "lib":
        run_library(sys.argv[2], int(sys.argv[3]), sys.argv[4], int(sys.argv[5]))
    elif mode == "cli":
        raise SystemExit(run_cli(sys.argv[2], sys.argv[3] == "1", sys.argv[4:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
