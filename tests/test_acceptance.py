"""Acceptance suite: one test per shipped guarantee.

Each test is self-contained and prints a one-line summary; run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import numpy as np

from pumpkit import (
    Accepted,
    ExtractionMode,
    LimitExceeded,
    NoWitnessError,
    accepts,
    check_constraints,
    extract,
    normalize,
    pumped_word,
    verify,
)
from pumpkit.cli import main
from pumpkit.corpus import BUILTINS
from pumpkit.levels import max_levels
from pumpkit.record import replace

from oracles import brute_force_max_level, is_valid_level_triple

DYCK_BIG = "(" * 6601 + ")" * 6601
REG_AB_34 = "ab" * 17


def _pump_json(tmp_path, *argv) -> tuple[int, dict]:
    out = tmp_path / "report.json"
    code = main([*argv, "--report", "json", "-o", str(out)])
    payload = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    return code, payload


def test_criterion_1_strict_case2_at_pumping_length(tmp_path):
    # DYCK1 has p = 13122; a 13202-letter balanced word is just past it.
    t0 = time.perf_counter()
    code, r = _pump_json(tmp_path, "pump", "DYCK1", DYCK_BIG, "--mode", "strict")
    elapsed = time.perf_counter() - t0

    assert code == 0
    assert r["caseTag"] == "case2"
    assert r["checks"]["concatenation"] is True
    assert r["checks"]["nonTrivial"] is True
    assert r["checks"]["lengthBound"]["ok"] is True
    assert r["checks"]["lengthBound"]["actual"] <= 13122
    assert [v["n"] for v in r["perN"]] == [0, 1, 2, 3, 4]
    assert all(v["replay"] is True for v in r["perN"])
    assert all(v["search"] == "accepted" for v in r["perN"])
    assert r["verdict"] == {"consistent": True, "overall": True, "pumpingOk": True}
    assert elapsed < 10.0
    print(
        f"criterion 1: case2 strict |w|=13202, |vxy|={r['checks']['lengthBound']['actual']}"
        f" <= 13122, n=0..4 both routes, {elapsed:.2f}s"
    )


def test_criterion_2_strict_case1(tmp_path):
    t0 = time.perf_counter()
    code, r = _pump_json(
        tmp_path, "pump", "REG_AB", REG_AB_34, "--mode", "strict", "--n", "0,1,2,3,4,5"
    )
    elapsed = time.perf_counter() - t0

    assert code == 0
    assert r["caseTag"] == "case1"
    assert r["y"] == "" and r["z"] == ""
    assert r["checks"]["concatenation"] is True
    assert r["checks"]["nonTrivial"] is True
    assert [v["n"] for v in r["perN"]] == [0, 1, 2, 3, 4, 5]
    assert all(v["replay"] is True and v["search"] == "accepted" for v in r["perN"])
    assert r["verdict"]["pumpingOk"] is True
    # the tail factorization's one shortfall, reported rather than hidden:
    # |vxy| = 34 misses the 32 bound on this machine
    assert r["checks"]["lengthBound"] == {"ok": False, "limit": 32, "actual": 34}
    assert r["verdict"]["overall"] is False
    assert elapsed < 1.0
    print(f"criterion 2: case1 strict |w|=34, y=z=eps, n=0..5 both routes, {elapsed:.2f}s")


def test_criterion_3_normalization_preserves_membership(anbn_general):
    machines = [
        ("GEN_PAL", BUILTINS["GEN_PAL"].pda),
        ("ANBN-general", anbn_general),
    ]
    checked = 0
    for name, pda in machines:
        npda = normalize(pda)
        alphabet = sorted(pda.input_alphabet)
        for length in range(0, 9):
            for letters in itertools.product(alphabet, repeat=length):
                word = "".join(letters)
                before = accepts(pda, word)
                after = accepts(npda, word)
                assert not isinstance(before, LimitExceeded), (name, word)
                assert not isinstance(after, LimitExceeded), (name, word)
                assert isinstance(before, Accepted) == isinstance(after, Accepted), (
                    name,
                    word,
                )
                checked += 1
    assert checked == 2 * 511
    print(f"criterion 3: {checked} words (all lengths <= 8), zero verdict changes")


def test_criterion_4_level_sweep_matches_brute_force():
    rng = np.random.default_rng(20260819)
    t0 = time.perf_counter()
    for trial in range(1000):
        length = int(rng.integers(2, 201))
        start = int(rng.integers(0, 5))
        profile = [start]
        for _ in range(length - 1):
            if profile[-1] == 0:
                profile.append(1)
            else:
                profile.append(profile[-1] + (1 if rng.integers(0, 2) else -1))
        profile = tuple(profile)
        window_end = int(rng.integers(0, length))

        # the windowed level and the whole-run level (reports' wholePathLevel)
        # come from one sweep; each is checked against its own oracle run
        for end, (fast_level, fast_witness) in zip((window_end, length - 1), max_levels(profile, window_end)):
            slow_level, _ = brute_force_max_level(profile, end)
            assert fast_level == slow_level, (trial, profile, end)
            assert (fast_witness is None) == (fast_level == 0)
            if fast_witness is not None:
                assert is_valid_level_triple(profile, fast_witness), (trial, fast_witness)
                assert fast_witness.k <= end
                assert fast_witness.n == fast_level
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 4: 1000 seeded profiles (len <= 200), windowed and whole-run levels, zero mismatches, {elapsed:.2f}s")


def test_criterion_5_best_effort_property_suite():
    pump_counts = (0, 1, 2, 4)
    decomposed = 0
    no_witness: list[tuple[str, int]] = []
    for name, entry in sorted(BUILTINS.items()):
        npda = normalize(entry.pda)
        for i in range(100):
            m = 2 + (i % 59)
            word = entry.generate(m)
            try:
                res = extract(npda, word, mode=ExtractionMode.BEST_EFFORT)
            except NoWitnessError as exc:
                diag = exc.diagnostics
                assert diag is not None, (name, m)
                assert diag.config_pairs_available == 0, (name, m, diag)
                assert diag.full_state_pairs_available == 0, (name, m, diag)
                no_witness.append((name, m))
                continue
            d = res.decomposition
            assert d.u + d.v + d.x + d.y + d.z == word, (name, m)
            assert len(d.v) + len(d.y) >= 1, (name, m)
            verdicts = verify(npda, res.path, d, pump_counts).verdicts
            assert tuple(v.n for v in verdicts) == pump_counts, (name, m)
            for v in verdicts:
                assert v.search != "limit", (name, m, v.n)
                assert v.replay_ok == (v.search == "accepted"), (name, m, v.n)
                assert v.replay_ok, (name, m, v.n)
            decomposed += 1
    assert decomposed + len(no_witness) == 400
    kinds = sorted({name for name, _ in no_witness})
    print(
        f"criterion 5: {decomposed} decompositions verified at n=0,1,2,4;"
        f" {len(no_witness)} repeat-free words (all scans empty: {', '.join(kinds) or 'none'})"
    )


def test_criterion_6_boundary_mutations_are_caught():
    rng = random.Random(20260819)
    # smallest sizes at which best-effort extraction finds a witness
    ranges = {"GEN_PAL": (4, 10)}
    detected = attempted = 0
    for name, entry in sorted(BUILTINS.items()):
        npda = normalize(entry.pda)
        lo, hi = ranges.get(name, (3, 10))
        cache: dict = {}
        done = 0
        while done < 50:
            m = rng.randint(lo, hi)
            if m not in cache:
                cache[m] = extract(npda, entry.generate(m), mode=ExtractionMode.BEST_EFFORT)
            res = cache[m]
            word = res.path.word
            d = res.decomposition
            cuts = list(itertools.accumulate(map(len, (d.u, d.v, d.x, d.y))))
            b = rng.randrange(4)
            new = cuts.copy()
            new[b] += rng.choice((-1, 1))
            if not (0 <= new[0] <= new[1] <= new[2] <= new[3] <= len(word)):
                continue  # not a decomposition at all; mutate again
            broken = replace(
                d,
                u=word[: new[0]],
                v=word[new[0] : new[1]],
                x=word[new[1] : new[2]],
                y=word[new[2] : new[3]],
                z=word[new[3] :],
            )
            done += 1
            attempted += 1
            c = check_constraints(broken, word)
            caught = not (c.concatenation_ok and c.nontrivial_ok and c.length_bound_ok)
            if not caught:
                caught = any(not isinstance(accepts(npda, pumped_word(broken, n)), Accepted) for n in (0, 2))
            assert caught, (name, m, cuts, new)
            detected += 1
    assert attempted == detected == 200
    print(f"criterion 6: {detected}/{attempted} single-boundary mutations detected")


def test_criterion_7_reports_and_charts_are_bytewise_stable():
    cases = [
        ["pump", "DYCK1", DYCK_BIG, "--mode", "strict", "--report", "json"],
        ["profile", "DYCK1", DYCK_BIG, "--annotate", "--mode", "strict"],
        ["pump", "REG_AB", REG_AB_34, "--mode", "strict", "--n", "0,1,2,3,4,5", "--report", "json"],
        ["profile", "REG_AB", REG_AB_34, "--annotate", "--mode", "strict"],
    ]
    for argv in cases:
        outputs = []
        for hash_seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "pumpkit.cli", *argv],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, (argv[0], proc.stderr[:500])
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv[0]
        assert outputs[0]
    print("criterion 7: 4 reports/charts byte-identical across fresh interpreters")


def test_criterion_8_hand_checked_decomposition(tmp_path):
    res = extract(BUILTINS["DYCK1"].pda, "(((())))", mode=ExtractionMode.BEST_EFFORT)
    d = res.decomposition
    assert (d.u, d.v, d.x, d.y, d.z) == ("(", "(", "(())", ")", ")")
    assert d.case == "case2"
    assert (d.witness.g, d.witness.h) == (2, 3)
    # the same answer must come out of the command-line route
    code, r = _pump_json(tmp_path, "pump", "DYCK1", "(((())))", "--mode", "best-effort")
    assert code == 0
    assert (r["u"], r["v"], r["x"], r["y"], r["z"]) == ("(", "(", "(())", ")", ")")
    assert r["witnesses"]["case2"]["g"] == 2 and r["witnesses"]["case2"]["h"] == 3
    print("criterion 8: golden decomposition and (g,h)=(2,3) reproduced end to end")
