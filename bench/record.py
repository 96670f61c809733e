"""Record the benchmark of this checkout into ``BENCH_<label>.json`` at its root.

    python3 bench/record.py --label baseline
    python3 bench/record.py --label change --against REV

The benchmark is the command that ``BENCHMARK.json`` declares
(``python3 perfbench/run.py``), run unchanged as a subprocess from the root of
a checkout; each run prints one JSON object on its last line.  Per workload the
recorder makes ``--runs`` untraced runs of ``--seconds`` (``run_seconds`` by
default) on fresh seeds, then one ``--trace 1`` run for the per-layer metrics;
once per file it runs ``--defects --seed 0``.  Every end-to-end metric keeps
its raw values next to their median and IQR: paired runs have read
``setup_s`` up to a third apart, and ``peak_rss_mb`` grows with the jobs run.

``--against REV`` exports REV with ``git archive`` into a temporary directory
and runs ``PAIRS`` parent/change pairs per workload instead, each pair on a
fresh seed shared by both sides, alternating which side goes first.  It writes
both sides, how many pairs the change won on each metric, and the parent's IQR.

The file names the commit, whether ``src/``, ``perfbench/`` or
``BENCHMARK.json`` differ from it (``dirty``), the machine, the Python and
numpy versions, and every seed.  Exits 1 if any run is incorrect, has failed
jobs or does not finish, or if the defect probe reports a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEASURED = ["src", "perfbench", "BENCHMARK.json"]
PAIRS = 10


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def quantile(xs, q):
    """Linear interpolation between order statistics, as perfbench computes p50 and p90."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values):
    return {"values": values, "median": quantile(values, 0.5),
            "iqr": quantile(values, 0.75) - quantile(values, 0.25)}


class Recorder:
    def __init__(self, bench, seconds):
        self.bench = bench
        self.seconds = seconds
        self.problems = []

    def perfbench(self, root, *args):
        """One benchmark run from ``root``: its last stdout line as JSON, or None."""
        argv = [*self.bench["command"], *args]
        try:
            proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                                  timeout=20 * self.seconds + 600, check=False)
        except subprocess.TimeoutExpired:
            self.problems.append(f"{' '.join(argv)} in {root}: timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(f"{' '.join(argv)} in {root}: exit {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}")
            return None
        return lines[-1]

    def run(self, root, workload, seed, trace):
        line = self.perfbench(root, "--workload", workload, "--seed", str(seed),
                              "--seconds", str(self.seconds), "--trace", str(trace))
        if line is None:
            return None
        result = json.loads(line)
        if not result["correct"] or result["failed"]:
            self.problems.append(f"{workload} seed {seed} trace {trace} in {root}: "
                                 f"correct={result['correct']} failed={result['failed']}")
        return result

    def side(self, results):
        """End-to-end summaries of the runs that finished, and each run's outcome."""
        results = [r for r in results if r is not None]
        return {
            "end_to_end": {m["name"]: {"unit": m["unit"], "better": m["better"], **summary(
                [r["metrics"][m["name"]]["value"] for r in results])}
                for m in self.bench["end_to_end"]} if results else {},
            "runs": [{k: r[k] for k in ("correct", "attempted", "failed")} for r in results],
        }

    def traced(self, root, workload, seed):
        result = self.run(root, workload, seed, 1)
        return {"seed": seed, "per_layer": None if result is None else {
            name: entry["value"] for name, entry in result["metrics"].items()}}

    def defects(self, root):
        line = self.perfbench(root, "--defects", "--seed", "0")
        if line is None:
            return None
        failures, _, _, jobs = line.split()[:4]  # "N failures in M jobs; ..."
        if int(failures):
            self.problems.append(f"--defects --seed 0 in {root}: {line}")
        return {"failures": int(failures), "jobs": int(jobs)}


def environment(bench):
    probe = ("import json, platform, numpy; "
             "print(json.dumps([platform.python_version(), numpy.__version__]))")
    python, numpy = json.loads(subprocess.run([bench["command"][0], "-c", probe],
                                              capture_output=True, text=True, check=True).stdout)
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", *MEASURED)),
            "machine": {"platform": platform.platform(), "arch": platform.machine(),
                        "cpu": model, "cpus": os.cpu_count()},
            "python": python, "numpy": numpy}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=5,
                        help="untraced runs per workload (without --against)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; every workload of BENCHMARK.json by default")
    parser.add_argument("--against", metavar="REV", help="parent revision to pair runs with")
    args = parser.parse_args(argv)
    rng = random.SystemRandom()

    def fresh_seed():
        return rng.randrange(1, 2**31)

    rec = Recorder(bench, args.seconds)
    doc = {"label": args.label, "argv": sys.argv[1:], **environment(bench),
           "command": bench["command"], "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        if args.against:
            parent = os.path.join(tmp, "parent")
            os.mkdir(parent)
            archive = subprocess.run(["git", "archive", args.against], cwd=ROOT,
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
            doc["against"] = {"rev": args.against, "commit": git("rev-parse", args.against),
                              "pairs": PAIRS}
        for workload in args.workload or names:
            print(f"{workload} ...", file=sys.stderr, flush=True)
            if not args.against:
                seeds = [fresh_seed() for _ in range(args.runs)]
                entry = {"seeds": seeds,
                         **rec.side([rec.run(ROOT, workload, s, 0) for s in seeds])}
            else:
                seeds = [fresh_seed() for _ in range(PAIRS)]
                runs = {"parent": [], "change": []}
                for k, seed in enumerate(seeds):
                    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    for name in order:
                        runs[name].append(rec.run(parent if name == "parent" else ROOT,
                                                  workload, seed, 0))
                entry = {"seeds": seeds, "first": ["parent" if k % 2 == 0 else "change"
                                                   for k in range(len(seeds))]}
                entry.update({name: rec.side(results) for name, results in runs.items()})
                entry["pairs"] = {}
                for m in bench["end_to_end"]:
                    name, higher = m["name"], m["better"] == "higher"
                    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                             for p, c in zip(runs["parent"], runs["change"]) if p and c]
                    if not pairs:
                        continue
                    parent_side, change_side = zip(*pairs)
                    before, after = quantile(parent_side, 0.5), quantile(change_side, 0.5)
                    entry["pairs"][name] = {
                        "wins": sum((c > p) if higher else (c < p) for p, c in pairs),
                        "of": len(pairs), "parent_median": before, "change_median": after,
                        "change_frac": after / before - 1.0 if before else None,
                        "parent_iqr": summary(list(parent_side))["iqr"]}
            entry["traced"] = rec.traced(ROOT, workload, fresh_seed())
            doc["workloads"][workload] = entry
        doc["defects"] = rec.defects(ROOT)
    doc["problems"] = rec.problems
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    for problem in rec.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if rec.problems else 0


if __name__ == "__main__":
    sys.exit(main())
