"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gen_serial_sqlite --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The program is imported from the checkout's ``src``
directory; without it the benchmark exits with code 2 and prints no result.

An untraced run measures in ``PARTS`` fresh processes in turn, each
setting up once and running ops for a third of ``--seconds``; the parent
checks their outputs and reports medians over the parts.

``--spread N`` instead repeats the workload N times in fresh processes
(seeds ``--seed`` .. ``--seed + N - 1``) and prints each metric's median,
quartiles, extremes, quartile spread and odd-versus-even-run difference,
with the host's CPU count, Python version and platform.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gen_serial_sqlite", "gen_parallel_live", "read_mix")
#: Measuring processes per untraced run: each has its own hash seed and
#: memory layout, and each set-up is cold.
PARTS = 3
#: Seconds a run may take before it is abandoned.
RUN_TIMEOUT = 170


def _arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size (tiny: the benchmark's own tests)")
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="repeat the workload N times in fresh processes and "
                             "report each metric's spread")
    parser.add_argument("--part", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Make the checkout's ``src/repro`` (and this package) importable."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {source}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(source), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {source}",
              file=sys.stderr)
        raise SystemExit(2)


def _declared_metrics(trace: bool) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def _measure_part(args: argparse.Namespace, workdir: Path, deadline: float):
    """Run one measuring process and return its :class:`Part`."""
    from perfbench.workloads import Part

    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / PARTS),
               "--size", args.size, "--part", str(workdir)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=max(deadline - time.monotonic(), 1.0))
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"measuring process exited with {completed.returncode}")
    return Part(**json.loads(completed.stdout.strip().splitlines()[-1]))


def run_part(args: argparse.Namespace) -> int:
    _import_program()
    from perfbench import workloads

    part = workloads.measure(args.workload, args.seed, args.seconds, args.size,
                             Path(args.part))
    print(json.dumps(dataclasses.asdict(part)))
    return 0


def run_once(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + RUN_TIMEOUT
    _import_program()
    from perfbench import workloads

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            outcome = workloads.traced_run(args.workload, args.seed, args.seconds,
                                           args.size, workdir)
        else:
            parts = [_measure_part(args, workdir, deadline) for _ in range(PARTS)]
            outcome = workloads.combine(args.workload, args.seed, args.size, parts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still works there
            pass
    declared = _declared_metrics(bool(args.trace))
    reported = {name: unit for name, (_, unit) in outcome.metrics.items()}
    if reported != declared:
        print(f"perfbench: metrics {sorted(reported.items())} do not match "
              f"BENCHMARK.json {sorted(declared.items())}", file=sys.stderr)
        return 3
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:45s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


def run_spread(args: argparse.Namespace) -> int:
    """Repeat the workload in fresh processes and report each metric's spread."""
    runs = []
    for index in range(args.spread):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed + index), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
        started = time.perf_counter()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                   timeout=900)
        elapsed = time.perf_counter() - started
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        result["run_seconds"] = elapsed
        runs.append(result)
        print(f"run {index} seed {args.seed + index}: {elapsed:.1f} s, correct "
              f"{result['correct']}, failed {result['failed']}/{result['attempted']}",
              file=sys.stderr)
    report = {
        "workload": args.workload,
        "runs": len(runs),
        "seeds": [args.seed, args.seed + len(runs) - 1],
        "seconds": args.seconds,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        "all_correct": all(run["correct"] and not run["failed"] for run in runs),
        "run_wall_s": {"median": statistics.median(r["run_seconds"] for r in runs),
                       "max": max(r["run_seconds"] for r in runs)},
        "metrics": {},
    }
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        odd, even = values[1::2], values[0::2]
        report["metrics"][name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "odd_even_share": (statistics.median(odd) - statistics.median(even)) / median
            if odd and median else 0.0,
            "values": values,
        }
    print(json.dumps(report, indent=1))
    return 0


def main(argv=None) -> int:
    args = _arguments(argv)
    try:
        if args.part:
            return run_part(args)
        return run_spread(args) if args.spread else run_once(args)
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
