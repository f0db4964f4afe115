"""Runs one workload in a process of its own and prints its raw figures.

run.py starts this script once per benchmark run, so the peak RSS it
reports belongs to that workload alone. The last line of standard output
is one JSON object.

The load is a closed loop with one client: each op is a call of
`pumpkit.cli.main`, and the next op starts when the previous one returns
and its output has been checked. Only the call itself is timed, between
two speed probes (see probe.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import probe
import spans
import summary
import workloads


def _load_pumpkit(src: Path):
    sys.path.insert(0, str(src))
    import pumpkit.cli
    from pumpkit.corpus import BUILTINS

    if Path(pumpkit.cli.__file__).resolve().parent != (src / "pumpkit").resolve():
        raise SystemExit(f"perfbench: pumpkit was imported from {pumpkit.cli.__file__}, not from {src}")
    generators = {name: (e.generate, e.generate_near_miss) for name, e in BUILTINS.items()}
    return pumpkit.cli, generators


def run_op(cli, op) -> tuple[float, str | None]:
    """Call the CLI once and check its output; returns (seconds, failure reason or None).

    Garbage left by earlier ops is collected first, untimed, so each op
    starts from the same collector state, as a fresh CLI process would.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))  # looked up per call, so a tracer's wrapper is seen
        except Exception as exc:
            return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, op.check(rc, out.getvalue())


def probed_op(cli, op) -> tuple:
    """run_op between two speed probes: (op, seconds, failure reason, speed scale)."""
    before = probe.probe()
    elapsed, reason = run_op(cli, op)
    return op, elapsed, reason, probe.scale(before, probe.probe())


def measure(cli, rounds, seconds: float, min_rounds: int) -> list[tuple]:
    """Whole rounds until `seconds` have passed and `min_rounds` are done."""
    done = []
    start = time.perf_counter()
    count = 0
    while count < min_rounds or time.perf_counter() - start < seconds:
        done += [probed_op(cli, op) for op in rounds[count % len(rounds)]]
        count += 1
    return done


def paired_pass(cli, rounds, seconds: float) -> tuple[list[tuple], list[tuple], spans.Tracer]:
    """Each op of whole rounds run once untraced and once traced, until `seconds` have passed.

    The order within a pair alternates from op to op, so that a slow spell
    of the machine or a cache warmed by the first run of an op weighs on
    both sides alike; the tracing overhead compares the two sides.
    """
    tracer = spans.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    count = 0
    while count < 1 or time.perf_counter() - start < seconds:
        for op in rounds[count % len(rounds)]:
            tracer.op_id = len(traced)
            traced_first = tracer.op_id % 2 == 1
            for with_tracer in (traced_first, not traced_first):
                if not with_tracer:
                    untraced.append(probed_op(cli, op))
                    continue
                tracer.install()
                try:
                    traced.append(probed_op(cli, op))
                finally:
                    tracer.restore()
        count += 1
    return untraced, traced, tracer


def layer_metrics(traced: list[tuple], tracer: spans.Tracer, untraced_s: float) -> dict:
    """Per-layer figures of a traced pass, per op, with size slopes and the tracing overhead.

    Layer times are brought to the reference speed with their op's probe scale.
    """
    count = len(traced)
    per_op = spans.per_op_times(tracer.spans)
    empty = dict.fromkeys(spans.TIME_METRICS, 0.0)
    rows = []
    for index, (_, _, _, scale) in enumerate(traced):
        row = per_op.get(index, empty)
        rows.append({name: value * scale for name, value in row.items()})
    metrics = {}
    for name in spans.TIME_METRICS:
        metrics[name] = (sum(row[name] for row in rows) / count, "s/op")
    for name in spans.COUNT_METRICS:
        metrics[name] = (tracer.counts[name] / count, "count/op")
    tried = tracer.counts["extract.candidates_tried"]
    metrics["extract.useful_ratio"] = (tracer.counts["extract.decompositions"] / tried if tried else 0.0, "ratio")
    for name in spans.TIME_METRICS:
        points = [(op.series, op.level, op.letters, row[name]) for (op, _, _, _), row in zip(traced, rows)]
        metrics[name + ".slope"] = (summary.largest_slope(points), "1")
    traced_s = sum(elapsed * scale for _, elapsed, _, scale in traced)
    metrics["tracing_overhead"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path(args.root)
    work_dir = Path(args.work_dir)
    cli, generators = _load_pumpkit(root / "src")
    data_dir = root / "src" / "pumpkit" / "data"
    with tempfile.TemporaryDirectory(dir=work_dir) as word_dir:
        rounds = workloads.build(args.workload, args.seed, generators, data_dir, Path(word_dir))
        # Warm-up: the first round's smallest rung, checked but not timed.
        checked = [probed_op(cli, op) for op in rounds[0] if op.level == 0]
        # The inputs and the loaded toolkit live for the whole run; keep them
        # out of the collector's scans.
        gc.collect()
        gc.freeze()
        if args.trace:
            measured, traced, tracer = paired_pass(cli, rounds, args.seconds)
            tracer.write(work_dir / f"spans-{args.workload}.jsonl")
            checked += traced
            untraced_s = sum(elapsed * scale for _, elapsed, _, scale in measured)
            result = {"layers": layer_metrics(traced, tracer, untraced_s), "spans": len(tracer.spans)}
        else:
            measured = measure(cli, rounds, args.seconds, workloads.MIN_ROUNDS[args.workload])
            result = {}
        checked += measured

    failures = [f"{op.series} rung {op.level}: {reason}" for op, _, reason, _ in checked if reason is not None]
    result.update(
        ops=[[op.series, op.level, op.letters, elapsed, scale] for op, elapsed, _, scale in measured],
        attempted=len(checked),
        failed=len(failures),
        failures=failures[:20],
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
