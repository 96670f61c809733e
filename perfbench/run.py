"""End-to-end and per-layer benchmark of the swposobs command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify-ladder --seed 1 --seconds 20 --trace 0

One client in one single-threaded process runs jobs in a closed loop: each
job is one in-process ``swposobs.cli.main([...])`` call on generated problem
files, with stdout and stderr captured in memory and ``--out`` files in a
scratch directory of the checkout.  Every output is checked by the
benchmark's own numpy code.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Other modes: ``--workload all`` prints every end-to-end metric of every
workload, ``--self-test`` checks that the output checks reject corrupted
outputs, and ``--defects`` runs the inputs that hit the known simplex
defects and compares the failure count with the one recorded at the seed.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread for every numeric library, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import calib  # noqa: E402
import checks  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WHY)
SETUP_REPEATS = 5
SCRATCH = ".perfbench_tmp"
TRACE_OUT = ".perfbench_out"

# A fresh interpreter: time from the first import of swposobs to the end of
# one warm-up job.  Interpreter start-up itself is not counted.
SETUP_CHILD = r"""
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from swposobs import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[2]))
print(json.dumps({"setup_s": time.perf_counter() - t0, "rc": rc}))
"""

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "solved_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, broken checks)."""


def import_package(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "swposobs", "__init__.py")):
        raise BenchError(f"no swposobs source tree under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import swposobs
    from swposobs import certify, cli, matcore, sim, synth

    where = os.path.realpath(os.path.dirname(swposobs.__file__))
    if where != os.path.realpath(os.path.join(src, "swposobs")):
        raise BenchError(f"imported swposobs from {where}, not from {src}")
    return {"cli": cli, "synth": synth, "certify": certify, "sim": sim, "matcore": matcore}


class Runner:
    """Runs jobs in process and keeps the per-job record."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.records = []  # (seconds, failed, solved)
        self.cals = []  # calibration sample taken just before each job
        self.failures = []  # (label, reason)
        self.wrong = 0  # jobs whose output or exit code was wrong
        self.state_err = 0.0

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def witness(self, path):
        """The lambda `check` prints for a problem file (verified by the caller)."""
        rc, stdout, _ = self.call(["check", path])
        return checks.parse_lambda(stdout)

    def run(self, job, job_id):
        self.cals.append(calib.sample())
        if self.tracer is not None:
            self.tracer.job = job_id
        start = time.perf_counter()
        try:
            rc, stdout, stderr = self.call(job.argv)
        except (Exception, SystemExit) as exc:
            seconds = time.perf_counter() - start
            self._fail(job, seconds, f"{type(exc).__name__}: {exc}", wrong=False)
            return
        finally:
            if self.tracer is not None:
                self.tracer.job = None
                self.tracer.stack.clear()
        seconds = time.perf_counter() - start
        try:
            verdict = job.verify(rc, stdout, stderr)
        except Exception as exc:  # a malformed output must be reported, not crash the run
            verdict = workloads.Verdict([f"check raised {type(exc).__name__}: {exc}"], False)
        if verdict.errors:
            self._fail(job, seconds, "; ".join(verdict.errors), wrong=True)
            return
        if verdict.state_err is not None:
            self.state_err = max(self.state_err, verdict.state_err)
        self.records.append((seconds, False, verdict.solved))

    def _fail(self, job, seconds, reason, wrong):
        self.records.append((seconds, True, False))
        self.failures.append((job.label, reason))
        self.wrong += wrong


def run_rounds(wl, runner, seconds=None, rounds=None):
    """Whole rounds until the next one would overrun ``seconds``, or ``rounds`` of them."""
    start = time.perf_counter()
    r = 0
    while True:
        round_start = time.perf_counter()
        for k, job in enumerate(wl.round(r)):
            runner.run(job, f"{r}.{k}")
        r += 1
        now = time.perf_counter()
        if rounds is not None:
            if r >= rounds:
                return r
        elif now - start + (now - round_start) > seconds:
            return r


def quantile(values, q):
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def scaled_times(runner):
    return calib.scale([s for s, _, _ in runner.records], runner.cals)


def end_to_end(runner, setup_s):
    scaled = scaled_times(runner)
    busy = sum(scaled)
    # A failed job counts as slower than every completed one.
    times = [busy if failed else s for s, (_, failed, _) in zip(scaled, runner.records)]
    n = len(runner.records)
    values = {
        "jobs_per_s": sum(not f for _, f, _ in runner.records) / busy,
        "job_p50_ms": 1e3 * quantile(times, 0.5),
        "job_p90_ms": 1e3 * quantile(times, 0.9),
        "solved_frac": sum(sv for _, _, sv in runner.records) / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def measure_setup(root, argv):
    runs = []
    for _ in range(SETUP_REPEATS):
        cals = [calib.sample() for _ in range(3)]
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, os.path.join(root, "src"), json.dumps(argv)],
                cwd=root, capture_output=True, text=True, timeout=30, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up probe did not finish in 30 s") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        cals += [calib.sample() for _ in range(3)]
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        runs.append(seconds * calib.REF_S / statistics.median(cals))
    return statistics.median(runs)


def report(wl, runner, rounds):
    log = sys.stderr
    print(f"workload {wl.name} (seed {wl.seed}): {wl.why}", file=log)
    print(f"  {rounds} rounds, {len(runner.records)} jobs, {len(runner.failures)} failed",
          file=log)
    for label, reason in runner.failures:
        print(f"  FAILED {label}: {reason}", file=log)


def run_workload(args, root):
    modules = import_package(root)
    problems = selftest.run(root)
    if problems:
        raise BenchError("output checks failed their self-test: " + "; ".join(problems))
    workdir = os.path.join(root, SCRATCH, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(modules["cli"])
        wl = workloads.Workload(args.workload, args.seed, workdir, root, runner.witness)
        first = wl.round(0)[0]
        setup_s = measure_setup(root, first.argv)
        Runner(modules["cli"]).run(first, "warm-up")
        if not args.trace:
            rounds = run_rounds(wl, runner, seconds=args.seconds)
            report(wl, runner, rounds)
            metrics = end_to_end(runner, setup_s)
        else:
            rounds = run_rounds(wl, runner, seconds=args.seconds / 2)
            untraced = sum(scaled_times(runner))
            tracer = tracing.Tracer()
            traced_runner = Runner(modules["cli"], tracer)
            tracer.install(modules)
            try:
                run_rounds(wl, traced_runner, rounds=rounds)
            finally:
                tracer.uninstall()
            report(wl, traced_runner, rounds)
            os.makedirs(os.path.join(root, TRACE_OUT), exist_ok=True)
            tracer.write(os.path.join(root, TRACE_OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
            traced = sum(scaled_times(traced_runner))
            values = tracing.layer_metrics(tracer.spans)
            values["trace.overhead_frac"] = traced / untraced - 1.0
            values["sim.state_err_max"] = traced_runner.state_err
            values["jobs.failed_frac"] = len(traced_runner.failures) / len(traced_runner.records)
            runner.records += traced_runner.records
            runner.cals += traced_runner.cals
            runner.failures += traced_runner.failures
            runner.wrong += traced_runner.wrong
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, SCRATCH))
    return {
        "correct": runner.wrong == 0,
        "attempted": len(runner.records),
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "us_per_sample": "us", "us_per_call": "us", "ns_per_byte": "ns",
            "bytes": "B", "lp_rows": "rows", "lp_per_call": "count", "samples": "count",
            "calls": "count", "state_err_max": "1"}.get(suffix, "fraction")


def run_all(args):
    """Every workload in its own process; prints each end-to-end metric with its unit."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: benchmark failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<14} {entry['value']:>14.6g} {entry['unit']}")
    return 0 if ok else 1


def run_defects(args, root):
    modules = import_package(root)
    workdir = os.path.join(root, SCRATCH, f"defects-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(modules["cli"])
    per_label = {}
    try:
        for k, job in enumerate(workloads.defect_jobs(args.seed, workdir, runner.witness)):
            runner.run(job, str(k))
            counts = per_label.setdefault(job.label, [0, 0])
            counts[0] += runner.records[-1][1]
            counts[1] += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, SCRATCH))
    for label, (failed, total) in per_label.items():
        print(f"{label:<36} {failed:3d} of {total:3d} failed")
    for label, reason in runner.failures:
        print(f"  {label}: {reason}")
    print(f"{len(runner.failures)} failures in {len(runner.records)} jobs; "
          f"{workloads.EXPECTED_DEFECT_FAILURES} at the seed commit with --seed 0")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--defects", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if args.self_test:
            import_package(root)
            problems = selftest.run(root)
            for p in problems:
                print(f"self-test: {p}")
            print("self-test " + ("FAILED" if problems else "passed"))
            return 1 if problems else 0
        if args.defects:
            return run_defects(args, root)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        result = run_workload(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
