"""Tests of the benchmark's own parts: the reference predicates, the op
checks, the slope fit, the tail rank, the span recorder, and that a
checkout without sources yields no result.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import oracle  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from pumpkit import cli as pumpkit_cli  # noqa: E402
from pumpkit.corpus import BUILTINS  # noqa: E402


@pytest.mark.parametrize("name", sorted(oracle.LANGUAGES))
def test_oracle_agrees_with_generators(name):
    member = oracle.LANGUAGES[name]
    entry = BUILTINS[name]
    for m in range(1, 41):
        assert member(entry.generate(m)), (name, m)
        assert not member(entry.generate_near_miss(m)), (name, m)


def test_oracle_edge_words():
    assert oracle.dyck1("") and oracle.dyck1("()(())")
    assert not oracle.dyck1(")(") and not oracle.dyck1("(a)")
    assert oracle.reg_ab("") and not oracle.reg_ab("ba")
    assert not oracle.anbn("") and oracle.anbn("ab") and not oracle.anbn("aabbb")
    assert oracle.even_binary_palindrome("") and oracle.even_binary_palindrome("0110")
    assert not oracle.even_binary_palindrome("010") and not oracle.even_binary_palindrome("2112")


@pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
def test_slope_recovers_known_exponents(exponent):
    rng = random.Random(7)
    points = []
    for level, size in enumerate((200, 400, 800, 1600)):
        for _ in range(5):
            noise = 1 + rng.uniform(-0.05, 0.05)
            points.append(("s", level, size, 3e-6 * size**exponent * noise))
    assert summary.ladder_slopes(points)["s"] == pytest.approx(exponent, abs=0.05)


def test_largest_slope_skips_zeros_and_single_rungs():
    points = [("lin", 0, 10, 1.0), ("lin", 1, 100, 10.0), ("quad", 0, 10, 1.0), ("quad", 1, 100, 100.0)]
    points += [("quad", 2, 1000, 0.0), ("one", 0, 10, 5.0), ("one", 0, 12, 6.0)]
    assert summary.ladder_slopes(points) == pytest.approx({"lin": 1.0, "quad": 2.0})
    assert summary.largest_slope(points) == pytest.approx(2.0)
    assert summary.largest_slope([("x", 0, 10, 0.0)]) == 0.0


def test_tail_rank_leaves_ten_samples_beyond():
    values = list(range(1, 31))
    random.Random(1).shuffle(values)
    assert summary.tail(values) == (20, pytest.approx(100 * 20 / 30))
    assert summary.tail([3, 1, 2]) == (3, 100.0)


def test_self_times_on_a_hand_built_tree():
    tree = [
        ["cli.main", 0.0, 10.0, None, 0],
        ["extract.extract", 1.0, 4.0, 0, 0],
        ["verify.verify", 5.0, 9.0, 0, 0],
        ["run.accepts", 6.0, 7.0, 2, 0],
        ["cli.main", 20.0, 21.0, None, 1],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0])
    rows = spans.per_op_times(tree)
    assert rows[0]["cli.self_s"] == pytest.approx(3.0)
    assert rows[0]["extract.self_s"] == pytest.approx(3.0)
    assert rows[0]["run.accepts_s"] == pytest.approx(1.0)
    assert rows[1]["cli.self_s"] == pytest.approx(1.0)


def test_self_times_count_overlapping_children_once():
    tree = [["a.x", 0.0, 10.0, None, 0], ["b.y", 1.0, 4.0, 0, 0], ["c.z", 3.0, 12.0, 0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def _pump_op(word="(((())))"):
    return workloads._pump("DYCK1", "DYCK1", "DYCK1", 0, word, "best-effort")


def test_real_pump_op_passes_its_checks():
    elapsed, reason = child.run_op(pumpkit_cli, _pump_op())
    assert reason is None and elapsed > 0


class _CorruptingCli:
    """Runs the real CLI and hands back a report whose split was tampered with."""

    @staticmethod
    def main(argv):
        real = io.StringIO()
        with contextlib.redirect_stdout(real):
            rc = pumpkit_cli.main(argv)
        report = json.loads(real.getvalue())
        report["u"] += "("
        print(json.dumps(report))
        return rc


def test_corrupted_op_counts_as_failed():
    done = child.measure(_CorruptingCli, [[_pump_op(), _pump_op("()")]], seconds=0, min_rounds=1)
    assert [reason is not None for _, _, reason, _ in done] == [True, True]


def test_check_pump_catches_a_split_that_does_not_pump():
    report = {"word": "()", "u": "", "v": "(", "x": "", "y": "", "z": ")", "perN": [{"n": 1}]}
    assert oracle.check_pump("DYCK1", "()", 0, json.dumps(report)) is None
    report["perN"].append({"n": 0})
    assert oracle.check_pump("DYCK1", "()", 0, json.dumps(report)) == "pumped word for n=0 is not in the language"
    assert oracle.check_pump("DYCK1", "()", 4, json.dumps(report)) == "exit 4"


def test_check_batch_catches_a_wrong_verdict():
    words, labels = ("()", "(("), (True, False)
    good = "accepted\t()\nnot-accepted\t((\n"
    assert oracle.check_batch("DYCK1", words, labels, 1, good) is None
    assert oracle.check_batch("DYCK1", words, labels, 1, good.replace("not-accepted", "accepted")) is not None
    assert oracle.check_batch("DYCK1", words, (True, True), 0, "accepted\t()\naccepted\t((\n") is not None


def test_tracer_records_spans_and_restores_originals():
    modules = {name: importlib.import_module(name) for name, _, _, _ in spans.POINTS}
    originals = {(m, a): getattr(modules[m], a) for m, a, _, _ in spans.POINTS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        _, reason = child.run_op(pumpkit_cli, _pump_op())
    finally:
        tracer.restore()
    assert reason is None
    assert all(getattr(modules[m], a) is f for (m, a), f in originals.items())
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and "extract.extract" in names and "verify.search" in names
    assert tracer.spans[0][3] is None and all(s[3] is not None for s in tracer.spans[1:])
    assert tracer.counts["normalize.pumping_params.calls"] == 2
    assert tracer.counts["extract.candidates_tried"] >= 1
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(root[2] - root[1])


def test_builds_are_seeded():
    generators = {name: (e.generate, e.generate_near_miss) for name, e in BUILTINS.items()}
    data = ROOT / "src" / "pumpkit" / "data"
    first = workloads.build("pump_besteffort_ladder", 5, generators, data, ROOT)
    again = workloads.build("pump_besteffort_ladder", 5, generators, data, ROOT)
    other = workloads.build("pump_besteffort_ladder", 6, generators, data, ROOT)
    assert [op.argv for op in first[0]] == [op.argv for op in again[0]]
    assert [op.argv for op in first[0]] != [op.argv for op in other[0]]


def test_times_are_brought_to_the_reference_speed():
    assert probe.scale(probe.REF_S, probe.REF_S) == pytest.approx(1.0)
    assert probe.scale(probe.REF_S, 3 * probe.REF_S) == pytest.approx(0.5)
    fake_child = {"ops": [["s", 0, 10, 0.2, 0.5]] * 12, "peak_rss_kb": 2048, "failed": 0, "attempted": 12}
    metrics, details = run.end_to_end(fake_child, [(0.4, 0.5)])
    assert metrics["op_p50_s"][0] == pytest.approx(0.1)
    assert metrics["ops_per_s"][0] == pytest.approx(10.0)
    assert metrics["setup_s"][0] == pytest.approx(0.2)
    assert details["raw_wall"]["op_p50_s"] == pytest.approx(0.2)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = [["s", 0, 10, 0.1, 1.0], ["s", 1, 20, 0.2, 1.1]] * 6
    fake_child = {"ops": ops, "peak_rss_kb": 1024, "failed": 0, "attempted": 12}
    metrics, _ = run.end_to_end(fake_child, [(0.2, 1.0), (0.3, 0.9)])
    assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    tracer = spans.Tracer()
    tracer.spans.append(["cli.main", 0.0, 1.0, None, 0])
    layers = child.layer_metrics([(_pump_op(), 1.0, None, 1.0)], tracer, 1.0)
    assert {name: unit for name, (_, unit) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_no_result_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        spec["command"] + ["--workload", "check_batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
