"""pumpkit benchmark: one workload per run, every metric by name with its unit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pump_strict_long --seed 1 --seconds 20 --trace 0

With --trace 0 it measures import time in fresh interpreters (setup_s),
then runs the workload untraced in a child process and prints the
end-to-end metrics. With --trace 1 the child runs the same ops once
untraced and once with every layer wrapped, and the per-layer metrics
and the tracing overhead are printed instead. The last line of standard
output is the result object; the line before it records the environment
and the sample counts. Times are reported at the reference speed of
probe.py. Every op's output is checked against the reference predicates
in oracle.py, and a wrong one counts as failed. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"

# Fresh interpreters that time `import pumpkit.cli` between two speed
# probes, after one that only fills the bytecode cache.
SETUP_RUNS = 11

# numpy starts a BLAS thread pool on import. pumpkit does no BLAS work, and
# on a 2-vCPU machine the pool's threads contend with the importing thread
# and make the import time bimodal (about 0.11 s or 0.18 s) in a way the
# speed probe cannot see; one BLAS thread removes that contention from
# set-up and from the ops.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import probe\n"
    "before = probe.probe()\n"
    "start = time.perf_counter()\n"
    "import pumpkit.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, probe.scale(before, probe.probe()))\n"
)

# Every run must end within 180 seconds.
DEADLINE_S = 170


def git_rev(root: Path) -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(src: Path, timeout: float) -> list[tuple[float, float]]:
    """(import seconds, probe scale) from each measured fresh interpreter."""
    values = []
    for index in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(src), str(HERE)],
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=timeout,
            check=True,
        )
        if index:
            elapsed, scale = map(float, done.stdout.split())
            values.append((elapsed, scale))
    return values


def end_to_end(child: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(metrics, details) of an untraced run; times at the probe's reference speed."""
    raw = [op[3] for op in child["ops"]]
    times = [op[3] * op[4] for op in child["ops"]]
    busy = sum(times)
    tail_s, tail_pct = summary.tail(times)
    points = [(series, level, letters, t) for (series, level, letters, _, _), t in zip(child["ops"], times)]
    metrics = {
        "setup_s": (statistics.median(elapsed * scale for elapsed, scale in setup), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(times) / busy, "1/s"),
        "letters_per_s": (sum(op[2] for op in child["ops"]) / busy, "letters/s"),
        "peak_rss_mb": (child["peak_rss_kb"] / 1024, "MB"),
        "ok_ratio": (1 - child["failed"] / child["attempted"], "ratio"),
        "time_slope": (summary.largest_slope(points), "1"),
    }
    scales = [op[4] for op in child["ops"]]
    details = {
        "raw_wall": {
            "setup_s": statistics.median(elapsed for elapsed, _ in setup),
            "op_p50_s": statistics.median(raw),
            "op_tail_s": summary.tail(raw)[0],
            "ops_per_s": len(raw) / sum(raw),
        },
        "probe_scale": {"min": min(scales), "median": statistics.median(scales), "max": max(scales)},
        "setup_s": {"samples": len(setup), "percentile": 50, "values": setup},
        "op_p50_s": {"samples": len(times), "percentile": 50},
        "op_tail_s": {"samples": len(times), "percentile": tail_pct, "beyond": summary.TAIL_BEYOND},
        "ops_per_s": {"samples": len(times), "busy_s": busy},
        "letters_per_s": {"samples": len(times), "busy_s": busy},
        "peak_rss_mb": {"samples": 1},
        "ok_ratio": {"attempted": child["attempted"], "failed": child["failed"]},
        "time_slope": {"samples": len(times), "per_series": summary.ladder_slopes(points)},
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pumpkit" / "cli.py").is_file():
        print(f"perfbench: no pumpkit sources under {src}", file=sys.stderr)
        return 2
    started = time.monotonic()
    WORK_DIR.mkdir(exist_ok=True)

    setup = [] if args.trace else measure_setup(src, DEADLINE_S)
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        done = subprocess.run(
            [
                sys.executable,
                str(HERE / "child.py"),
                "--root", str(ROOT),
                "--work-dir", str(WORK_DIR),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            env=CHILD_ENV,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"perfbench: workload process exited {done.returncode}", file=sys.stderr)
        return 1
    child = json.loads(done.stdout.splitlines()[-1])

    if args.trace:
        metrics, details = child["layers"], {"spans": child["spans"], "ops": len(child["ops"])}
    else:
        metrics, details = end_to_end(child, setup)
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(ROOT),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "failures": child["failures"],
    }
    print(json.dumps({"env": env, "details": details}))
    print(
        json.dumps(
            {
                "correct": child["failed"] == 0,
                "attempted": child["attempted"],
                "failed": child["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
