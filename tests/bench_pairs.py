"""Paired benchmark runs of two revisions, written as one BENCH file.

Usage:
    python tests/bench_pairs.py --base REV [--change REV] [--pairs 10]
        [--seconds 10] [--seed 101] [--workload NAME ...] --out BENCH_<n>.json

Exports the ``perfbench/`` and ``src/`` of the base revision, and of the
change (revision ``--change``, else the working tree), with ``git
archive``, and runs each export's own ``perfbench/run.py --trace 0`` on
every workload in fresh processes: ``--pairs`` pairs per workload, each
a base run and a change run, in alternating order. The working tree is
exported as the tree ``git add -A`` would stage, written with a private
index, so neither the index nor HEAD moves.

Each side is recorded by its commit SHA (none for the working tree) and
the tree SHAs of its ``perfbench/`` and ``src/``, which are
``git rev-parse <commit>:src`` of any commit that holds those files, so
a record made on a working tree names the commit that lands it.

Every run gives the last JSON line of ``run.py``'s output (correctness
and the scaled end-to-end metrics) and its ``.perfbench/results`` record
(unscaled times and the calibration samples). The output file holds
both sides, the host's Python and numpy versions and CPU count, every
pair's values, and for each workload and metric both sides' median and
quartiles and the number of pairs the change won (ties count for
neither). Its keys are fixed, so two BENCH files diff field by field.
Exits 1 if a run fails or an op's outputs fail their checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from git_export import REPO, export_revision

SCHEMA = "tokenmorph-bench-pairs/1"
WORKLOADS = ("morph_uniform", "barycenter_weighted", "select_io")
# The end-to-end metrics and the direction in which each is better.
METRICS = {"op_s_p50": "lower", "peak_rss_mb": "lower", "setup_s": "lower"}
# What each export holds: the benchmark harness and the program it runs.
_PATHS = ("perfbench", "src")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision, such as HEAD^")
    parser.add_argument("--change", default=None, help="changed revision (default: working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tmp = Path(tmp)
        base = _export(args.base, tmp / "base")
        change = _export(args.change, tmp / "change")
        roots = {"base": tmp / "base", "change": tmp / "change"}
        workloads = {}
        for name in args.workload or WORKLOADS:
            pairs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = _run(roots[side], name, args.seed, args.seconds)
                    if not pair[side]["correct"]:
                        print(f"bench_pairs: {side} run {i} of {name} failed: "
                              f"{pair[side]['error']}", file=sys.stderr)
                        return 1
                pairs.append(pair)
                print(f"{name} pair {i}: " + "  ".join(
                    f"{side} {pair[side]['op_s_p50'] * 1e3:.2f} ms" for side in roots),
                    file=sys.stderr)
            workloads[name] = {
                "pairs": pairs,
                "summary": _summary(pairs),
                "calibration_s_median": {
                    side: statistics.median(pair[side]["calibration_s_median"] for pair in pairs)
                    for side in roots},
            }

    record = {
        "schema": SCHEMA,
        "base": base,
        "change": change,
        "host": {"python": platform.python_version(), "numpy": _numpy_version(),
                 "cpus": os.cpu_count(), "machine": platform.machine()},
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "workloads": list(workloads)},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, workload in workloads.items():
        for metric, row in workload["summary"].items():
            print(f"{name:20s} {metric:12s} base {row['base']['median']:.6g} "
                  f"change {row['change']['median']:.6g}  change won "
                  f"{row['change_won']}/{args.pairs}")
    return 0


def _export(rev: str | None, dest: Path) -> dict:
    """Export revision ``rev``, or the working tree for None; its record."""
    if rev is None:
        with tempfile.TemporaryDirectory(prefix="bench_pairs_index_") as tmp:
            env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
            _git("read-tree", "HEAD", env=env)
            _git("add", "-A", "--", *_PATHS, env=env)
            tree, commit = _git("write-tree", env=env), None
    else:
        tree = _git("rev-parse", "--verify", f"{rev}^{{tree}}")
        commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    export_revision(tree, dest, _PATHS)
    return {"rev": rev or "working tree", "commit": commit,
            "trees": {path: _git("rev-parse", f"{tree}:{path}") for path in _PATHS}}


def _git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One fresh ``run.py`` process on an export: its metrics and record."""
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-2000:]}
    last = json.loads(lines[-1])
    record = json.loads((root / ".perfbench" / "results"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "correct": last["correct"] is True,
        "error": None if last["correct"] is True else f"{last['failed']} ops failed",
        "attempted": last["attempted"],
        "failed": last["failed"],
        **{metric: last["metrics"][metric]["value"] for metric in METRICS},
        "unscaled_op_s_p50": record["wall"]["op_s_p50"],
        "unscaled_setup_s": record["wall"]["setup_s"],
        "calibration_s_median": statistics.median(record["calibration_s"]),
    }


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:  # quantiles needs two points
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _summary(pairs: list[dict]) -> dict:
    """Per metric: both sides' quartiles and the pairs the change won."""
    out = {}
    for metric, better in METRICS.items():
        sign = 1.0 if better == "lower" else -1.0
        base = [pair["base"][metric] for pair in pairs]
        change = [pair["change"][metric] for pair in pairs]
        won = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        out[metric] = {
            "better": better,
            "base": _quartiles(base),
            "change": _quartiles(change),
            "change_won": won,
            "ties": sum(b == c for b, c in zip(base, change)),
        }
    return out


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
