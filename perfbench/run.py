"""tokenmorph benchmark: one workload per run, in one fresh process.

    python3 perfbench/run.py --workload morph_uniform --seed 101 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

A run generates its inputs from ``--seed``, then calls
``tokenmorph.cli.main(argv)`` in-process, one op at a time (one
closed-loop client), until ``--seconds`` have passed, and checks every
op's output files. Between ops it times a fixed calibration loop, and
it reports times scaled to the host speed at which that loop takes
``CAL_REF_S``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` ops alternate
between untraced and traced, and the metrics are the per-layer ones
recorded by ``tracing.py``. ``--workload all`` runs every workload both
ways, each in its own process, and prints one table.

Spans and run metadata go to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
# Spelled out rather than read from workloads.py, so that parsing the
# arguments imports neither numpy nor tokenmorph before the import is timed.
NAMES = ("morph_uniform", "barycenter_weighted", "select_io")
DEFAULT_SEED = 101
SETUP_REPEATS = 15
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import numpy, tokenmorph.cli; print(time.perf_counter() - t)")
# The host's speed drifts by up to 1.6x over minutes, which no amount of
# work in one run averages out. Times are therefore scaled by
# CAL_REF_S / (the run's median calibration time); CAL_REF_S is the
# loop's median on the 2-vCPU Xeon the bounds were set on.
CAL_REF_S = 0.015
CAL_EVERY_S = 0.25
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tokenmorph").is_dir():
        print(f"perfbench: no tokenmorph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    # The import is timed in fresh interpreters: one cold import in this
    # process varies too much with the file cache to be gated.
    import_times = [_time_import()]
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from tokenmorph import cli

    import tracing
    from workloads import WORKLOADS

    work = STATE / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        make = WORKLOADS[name]
        setup_s, workload = _time_setup(make, seed, work / "in")
        setup_times = [setup_s]
        # The host's speed drifts over seconds, so the other set-up
        # samples are spread over the run rather than taken in a burst.
        setup_due = [seconds * j / SETUP_REPEATS for j in range(1, SETUP_REPEATS)]

        tracer = tracing.Tracer() if trace else None
        lsa = _scipy_assignment() if trace else None
        out_dir = work / "out"
        first: dict[int, dict[str, str]] = {}
        ops: list[dict] = []
        layer_ops: list[dict[str, float]] = []
        calibration = [_calibrate()]
        begin = time.perf_counter()
        # A traced run gives each instance to an untraced op and then a
        # traced one. A run ends after whole cycles through the pool, so
        # every instance has the same number of ops whatever the op rate.
        cycle = workload.pool * (2 if trace else 1)
        while not ops or time.perf_counter() - begin < seconds or len(ops) % cycle:
            i = len(ops)
            traced = trace and i % 2 == 1
            shutil.rmtree(out_dir, ignore_errors=True)
            k = (i // 2 if trace else i) % workload.pool
            argv = workload.argv(k, out_dir)
            op = {"i": i, "traced": traced, "instance": k}
            op["s"], op["error"] = _run_op(cli, argv, tracer if traced else None, i)
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} \
                if out_dir.is_dir() else {}
            digests = {f: hashlib.sha256(data).hexdigest() for f, data in files.items()}
            if op["error"] is None:
                op["error"] = _check(workload, k, files, digests,
                                     first.setdefault(op["instance"], digests))
            if traced:
                spans = [s for s in tracer.spans if s.op == i]
                layers = tracing.op_layer_metrics(spans)
                layers["cli.bytes_written"] = sum(len(v) for v in files.values())
                layers["ot.assignment.scipy_ceiling_s"] = _time_scipy(lsa, tracer)
                layer_ops.append(layers)
            ops.append(op)
            if setup_due and time.perf_counter() - begin >= setup_due[0]:
                setup_due.pop(0)
                import_times.append(_time_import())
                setup_times.append(_time_setup(make, seed, work / "spare")[0])
                shutil.rmtree(work / "spare")
            while len(calibration) < (time.perf_counter() - begin) / CAL_EVERY_S:
                calibration.append(_calibrate())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if op["error"] is not None]
    plain = [op["s"] for op in ops if not op["traced"]]
    calibration_s = statistics.median(calibration)
    wall = {
        "op_s_p50": statistics.median(plain),
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
    }
    if trace:
        values = tracing.summarize(layer_ops)
        traced_s = [op["s"] for op in ops if op["traced"]]
        values["trace.overhead_ratio"] = statistics.median(traced_s) / wall["op_s_p50"]
        values["host.calibration_s"] = calibration_s
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in values.items()}
    else:
        scale = CAL_REF_S / calibration_s
        metrics = {
            "op_s_p50": {"value": wall["op_s_p50"] * scale, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": wall["setup_s"] * scale, "unit": "s"},
        }

    STATE.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = STATE / "results" / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "meta": _metadata(numpy.__version__, lsa is not None),
        "import_times_s": import_times, "setup_times_s": setup_times,
        "calibration_s": calibration, "wall": wall,
        "failed_ratio": len(failed) / len(ops),
        "metrics": metrics,
        "ops": ops,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        with stem.with_suffix(".spans.jsonl").open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

    for op in failed[:5]:
        print(f"op {op['i']} failed: {op['error']}", file=sys.stderr)
    print(f"{name} seed={seed} ops={len(ops)} "
          f"failed_ratio={len(failed) / len(ops):.4g} ({len(failed)}/{len(ops)}) "
          f"calibration={calibration_s * 1e3:.2f} ms (reference {CAL_REF_S * 1e3:.0f} ms)")
    for key, metric in metrics.items():
        print(f"  {key:36s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def _run_op(cli, argv: list[str], tracer, i: int) -> tuple[float, str | None]:
    """Run one CLI op; return its wall seconds and an error or None."""
    sink = io.StringIO()
    if tracer is not None:
        tracer.op = i
        tracer.install()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli", cli.main, (argv,), {})
            elapsed = time.perf_counter() - t0
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.remove()
            tracer.op = None
    if code != 0:
        return elapsed, f"exit code {code}: {sink.getvalue().strip()}"
    return elapsed, None


def _check(workload, k, files, digests, first_digests) -> str | None:
    if digests != first_digests:
        return "output files differ from the first op on the same input"
    try:
        return workload.check(k, files)
    except (KeyError, ValueError, TypeError) as exc:
        return f"output check could not read the outputs: {type(exc).__name__}: {exc}"


def _scipy_assignment():
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError:
        return None
    return linear_sum_assignment


def _time_scipy(lsa, tracer) -> float:
    """Seconds scipy's assignment takes on this op's assignment-route cost matrices."""
    costs, tracer.assignment_costs = tracer.assignment_costs, []
    if lsa is None or not costs:
        return 0.0
    start = time.perf_counter()
    for values in costs:
        lsa(values)
    return time.perf_counter() - start


def _calibrate() -> float:
    """Seconds of a fixed interpreted loop that the program never runs."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def _time_setup(make, seed: int, in_dir: Path):
    """Seconds a new workload takes to generate and write its inputs, and the workload."""
    start = time.perf_counter()
    in_dir.mkdir(parents=True)
    workload = make()
    workload.setup(seed, in_dir)
    return time.perf_counter() - start, workload


def _time_import() -> float:
    """Seconds a fresh interpreter takes to import numpy and tokenmorph.cli."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metadata(numpy_version: str, scipy_loaded: bool) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy_ceiling": scipy_loaded,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    status = 0
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                status = proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
