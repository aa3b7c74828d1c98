"""templikit benchmark: time to verdict, cold and warm, with exact checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload thm-main-dual --seed 1 --seconds 42 --trace 0

Workloads: thm-main-dual, wings-tensor-z, cli-examples, and qcat-nerve,
which is kept for runs by hand but left out of ``BENCHMARK.json`` (see
``README.md``; ``workloads.py`` says what each exercises and why).  The load is a closed
loop with one client: every check or command starts after the previous one
returned, and each sample is a fresh process so cold really is cold.  The
run repeats samples while the longest one so far still fits in ``--seconds``
and reports medians.  Every time is calibrated by a reference pass timed in
the same process (``reference.py``).

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``cold_s``,
``warm_s``, ``peak_rss_mb`` and ``success_rate`` (1 - error rate).
``--trace 1`` alternates untraced and traced samples and prints the per-layer
metrics of ``layers.py`` plus ``trace.overhead_s``.

The last line of standard output is the result object; the line before it is
the run record (Python version, nproc, git SHA, source digest, seed,
PYTHONHASHSEED and per-sample values), enough to replay the run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402
from reference import scale  # noqa: E402

# every benchmark process gets this hash seed, so set and dict iteration
# orders (and with them the work done) replay exactly
HASH_SEED = "0"
CHILD_TIMEOUT_S = 120
UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MiB",
         "success_rate": "ratio"}
TIMES = ("setup_s", "cold_s", "warm_s")


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "TEMPLIKIT_THREADS", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def _spawn(argv, cwd=ROOT):
    """Run one process to completion; returns (exit code, stdout, stderr)."""
    try:
        proc = subprocess.run(argv, cwd=cwd, env=_child_env(), capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the process
        return None, "", f"killed after {CHILD_TIMEOUT_S} s"
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def error_rate(self):
        return self.failed / max(self.attempted, 1)

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{what}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


def _spawn_library(workload, seed, mode):
    spawned = _clock()
    return _spawn([sys.executable, os.path.join(HERE, "child.py"), "lib", workload,
                   str(seed), mode, str(int(spawned * 1e9))])


def library_sample(workload, seed, trace, tally, digests):
    code, out, err = _spawn_library(workload, seed, "trace" if trace else "run")
    if code != 0:
        tally.record(f"{workload} process", [f"exit {code}: {err.strip()[-300:]}"])
        return None
    sample = json.loads(out.splitlines()[-1])
    # the speed of a process drifts, so each time scales with the reference
    # passes timed next to it: set-up with the one before it, a pass with
    # the mean of those just before and after it
    refs = sample["reference_s"]
    factors = {"setup_s": scale(refs[0]), "cold_s": scale((refs[0] + refs[1]) / 2)}
    if "warm_s" in sample:
        factors["warm_s"] = scale((refs[1] + refs[2]) / 2)
    sample["raw"] = {key: sample[key] for key in factors}
    sample.update({key: sample[key] * factor for key, factor in factors.items()})
    for index, ops in enumerate(sample.pop("passes")):
        for name, (report_digest, problems) in ops:
            # every pass, traced or not, cold or warm, must give the same report
            first = digests.setdefault(name, report_digest)
            if report_digest != first:
                problems = problems + [f"report differs between passes (pass {index})"]
            tally.record(name, problems)
    return sample


# ---------------------------------------------------------------------------
# cli-examples
# ---------------------------------------------------------------------------


def _example_files(workdir):
    return {name: os.path.join(workdir, f"{name}.json") for name, _ in workloads.EXAMPLES}


def cli_command(argv, trace, workdir):
    """Run ``templikit ARGV`` in a fresh process.

    Returns (exit code, stdout, stderr, raw seconds, reference-machine
    seconds, layer snapshot or None); the times leave out the process's
    reference passes and scale with their mean.
    """
    out_file = os.path.join(workdir, "child-out.json")
    start = _clock()
    code, out, err = _spawn([sys.executable, os.path.join(HERE, "child.py"), "cli", out_file,
                             str(int(trace)), *argv])
    elapsed = _clock() - start
    child = {}
    if os.path.exists(out_file):
        with open(out_file, encoding="utf-8") as handle:
            child = json.load(handle)
        os.remove(out_file)
    refs = child.get("reference_s")
    if refs is None:
        return code, out, err, elapsed, elapsed, None
    own = elapsed - sum(refs)
    return code, out, err, own, own * scale(statistics.mean(refs)), child.get("layers")


def cli_sample(trace, tally, workdir):
    files = _example_files(workdir)
    raw = {"setup_s": 0.0, "cold_s": 0.0}
    sample = dict(raw)
    # set-up: write the example files with ``templikit example``
    for name, flags in workloads.EXAMPLES:
        code, _, err, raw_s, ref_s, _ = cli_command(
            ["example", name, "-o", files[name], *flags], False, workdir)
        tally.record(f"example {name}", [] if code == 0 else [f"exit {code}: {err[-300:]}"])
        raw["setup_s"] += raw_s
        sample["setup_s"] += ref_s
    snaps = []
    for args, want_code, want_digest, kind in workloads.COMMANDS:
        code, out, err, raw_s, ref_s, snap = cli_command(
            [a.format(**files) for a in args], trace, workdir)
        problems = workloads.check_cli_output(kind, out)
        if code != want_code:
            problems.append(f"exit {code}, expected {want_code}: {err.strip()[-300:]}")
        if workloads.digest(out) != want_digest:
            problems.append(f"report digest {workloads.digest(out)} != {want_digest}")
        tally.record(" ".join(args[:2]), problems)
        raw["cold_s"] += raw_s
        sample["cold_s"] += ref_s
        if snap is not None:
            snaps.append(snap)
    if trace:
        sample["layers"] = layers.merge(snaps)
    else:
        # every command is a fresh process, so a CLI user never has warm
        # caches: a repeat pass would measure the cold pass again
        sample["warm_s"] = sample["cold_s"]
    sample["raw"] = raw
    return sample


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              timeout=30, env={**os.environ,
                                               "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "templikit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()[:16]


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "templikit", "__init__.py")):
        print(f"no templikit sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile first, so no sample pays for it
    compileall.compile_dir(SRC, quiet=1)

    tally = Tally()
    digests = {}
    runs = []
    deadline = _clock() + args.seconds
    durations = []
    workdir = None
    if args.workload == workloads.CLI:
        scratch = os.path.join(ROOT, ".perfbench_work")
        os.makedirs(scratch, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=scratch)
    try:
        while True:
            # in a traced run, untraced and traced samples alternate
            trace = bool(args.trace) and len(runs) % 2 == 1
            began = _clock()
            if workdir is not None:
                sample = cli_sample(trace, tally, workdir)
            else:
                sample = library_sample(args.workload, args.seed, trace, tally, digests)
            if sample is None:
                break
            sample["traced"] = trace
            runs.append(sample)
            durations.append(_clock() - began)
            # start another sample only if the longest one so far still fits
            enough = len(runs) >= (2 if args.trace else 1)
            if enough and _clock() + max(durations) > deadline:
                break
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for s in runs if not s["traced"]]
    if args.trace:
        metrics, units = trace_metrics(runs, tally)
    else:
        metrics = {key: median([s[key] for s in samples]) for key in TIMES}
        metrics.update({
            # the largest benchmark child process of the run, in MiB
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "success_rate": 1 - tally.error_rate,
        })
        units = UNITS

    record = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "source_digest": source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pythonhashseed": HASH_SEED,
        "error_rate": tally.error_rate,
        "problems": tally.problems,
        "samples": [
            {k: v for k, v in s.items() if k != "layers"} for s in runs],
    }
    print(json.dumps({"run_record": record}))
    result = {
        "correct": tally.failed == 0 and bool(samples),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def trace_metrics(runs, tally):
    """Per-layer metrics: medians of times, counts checked to repeat exactly."""
    # a failed traced sample leaves the run incorrect; report zeros then
    traced = [s for s in runs if s["traced"]]
    snaps = [layers.layer_metrics(s["layers"]) for s in traced] or [layers.layer_metrics({})]
    metrics = {name: snaps[0][name] if name in layers.COUNTS
               else median([snap[name] for snap in snaps]) for name in layers.METRICS}
    tally.record("layer counts repeat", [
        f"{name} differs between traced samples"
        for name in layers.COUNTS if len({snap[name] for snap in snaps}) > 1])
    # in reference-machine seconds, like cold_s
    metrics["trace.overhead_s"] = (median([s["cold_s"] for s in traced])
                                   - median([s["cold_s"] for s in runs if not s["traced"]]))
    units = {name: "s" if name.endswith("_s") else "count" for name in layers.METRICS}
    units["kan.smith_per_item"] = "ratio"
    return metrics, units


if __name__ == "__main__":
    sys.exit(main())
