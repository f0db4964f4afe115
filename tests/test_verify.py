import importlib
import json
import tracemalloc
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import spliced_steps

from pumpkit import (
    BOTTOM,
    BUILTINS,
    Case1Witness,
    Case2Witness,
    Decomposition,
    ExtractionMode,
    LevelTriple,
    NormalizedPda,
    NormalizedTransition,
    NoWitnessError,
    RunPath,
    check_constraints,
    default_limits,
    extract,
    load_path,
    normalize,
    pumped_word,
    pumping_params,
    replay,
    replay_pumps,
    verify,
)
from pumpkit.cli import main
from pumpkit.record import replace

# pumpkit.verify and pumpkit.run as modules: the package re-exports
# functions under the same names.
verify_module = importlib.import_module("pumpkit.verify")
run_module = importlib.import_module("pumpkit.run")

DATA = Path(__file__).resolve().parents[1] / "src" / "pumpkit" / "data"
PUMPS = tuple(range(6))


def boundaries(d) -> tuple:
    """The letter offsets where v, x, y and z start: sums of part lengths."""
    return tuple(accumulate(map(len, (d.u, d.v, d.x, d.y))))


class TestPumpedWord:
    def test_shapes(self, dyck1):
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        d = res.decomposition
        assert pumped_word(d, 1) == "(((())))"
        assert pumped_word(d, 0) == "((()))"
        assert pumped_word(d, 3) == "(" + "(" * 3 + "(())" + ")" * 3 + ")"

    def test_negative_pump_count_is_refused(self, dyck1):
        """u v^n x y^n z has no meaning for n < 0: pumped_word, and both
        callers that build their words through it, refuse it rather than
        judging n = 0's word."""
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        d = res.decomposition
        with pytest.raises(ValueError, match="pump count"):
            pumped_word(d, -1)
        with pytest.raises(ValueError, match="pump count"):
            replay_pumps(dyck1, res.path, d, (-3,))
        with pytest.raises(ValueError, match="pump count"):
            verify(dyck1, res.path, d, (-1, 2), res.checkpoints)


class TestSplicing:
    def test_case2_splice_lengths(self, dyck1):
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        lp_g, lp_h, fp_h, fp_g = res.decomposition.cuts
        base = len(res.path.steps)
        push_seg = lp_h - lp_g
        pop_seg = fp_g - fp_h
        for n in (0, 1, 2, 5):
            assert len(spliced_steps(res.path, res.decomposition, n)) == base + (n - 1) * (
                push_seg + pop_seg
            )

    def test_case1_splice_lengths(self, reg_ab):
        res = extract(reg_ab, "ab" * 17, mode=ExtractionMode.STRICT)
        i, j = res.decomposition.cuts[:2]
        base = len(res.path.steps)
        for n in (0, 1, 2, 5):
            assert len(spliced_steps(res.path, res.decomposition, n)) == base + (n - 1) * (j - i)

    def test_replay_route(self, dyck1):
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        assert replay_pumps(dyck1, res.path, res.decomposition, range(5)) == (True,) * 5

    def test_search_route(self, dyck1):
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        report = verify(dyck1, res.path, res.decomposition, range(5))
        assert [v.search for v in report.verdicts] == ["accepted"] * 5

    def test_search_rejects_corrupted_decomposition(self, dyck1):
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        broken = replace(res.decomposition, y="")
        # n = 0 never exercises y, so the corruption only shows for n >= 1
        report = verify(dyck1, res.path, broken, (0, 1, 2))
        assert [v.search for v in report.verdicts] == ["accepted", "rejected", "rejected"]

    def test_replay_rejects_corrupted_decomposition(self, dyck1):
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        broken = replace(res.decomposition, v="(" * 2)
        assert replay_pumps(dyck1, res.path, broken, (2,)) == (False,)


class TestConstraints:
    def test_case2_within_bound(self, dyck1):
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        c = check_constraints(res.decomposition, "(((())))")
        assert c.concatenation_ok
        assert c.nontrivial_ok
        assert c.vxy_length == 6
        assert c.bound == 13122
        assert c.length_bound_ok

    def test_case1_tail_exceeds_bound_but_is_reported(self, reg_ab):
        word = "ab" * 17
        res = extract(reg_ab, word, mode=ExtractionMode.STRICT)
        c = check_constraints(res.decomposition, word)
        assert c.concatenation_ok and c.nontrivial_ok
        assert c.vxy_length == 34
        assert c.bound == 32
        assert not c.length_bound_ok

    def test_concatenation_failure_detected(self, dyck1):
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        broken = replace(res.decomposition, x="((")
        c = check_constraints(broken, "(((())))")
        assert not c.concatenation_ok


class TestReports:
    def test_full_report(self, dyck1):
        word = "(((())))"
        res = extract(dyck1, word, mode=ExtractionMode.BEST_EFFORT)
        report = verify(dyck1, res.path, res.decomposition)
        assert report.word == word
        assert report.consistent
        assert report.overall
        assert report.pumping_ok
        assert [v.n for v in report.verdicts] == [0, 1, 2, 3, 4]
        assert all(v.ok for v in report.verdicts)

    def test_case1_report_pumping_ok_despite_bound(self, reg_ab):
        word = "ab" * 17
        res = extract(reg_ab, word, mode=ExtractionMode.STRICT)
        report = verify(reg_ab, res.path, res.decomposition, (0, 1, 2, 3, 4, 5))
        assert report.pumping_ok
        assert not report.overall  # the length bound is the only failure
        assert report.consistent

    def test_custom_n_set(self, dyck1):
        word = "(((())))"
        res = extract(dyck1, word, mode=ExtractionMode.BEST_EFFORT)
        report = verify(dyck1, res.path, res.decomposition, (7,))
        assert len(report.verdicts) == 1
        assert report.verdicts[0].n == 7
        assert report.verdicts[0].ok

    def test_no_pump_count_is_refused(self, dyck1):
        """With no count, no pumped word is replayed or searched, so there
        is no verdict to call the decomposition sound on."""
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        with pytest.raises(ValueError, match="n_set"):
            verify(normalize(dyck1), res.path, res.decomposition, ())


@given(st.sampled_from(["DYCK1", "REG_AB", "ANBN"]), st.integers(2, 20))
@settings(max_examples=40, deadline=None)
def test_routes_always_agree_on_corpus_words(name, m):
    entry = BUILTINS[name]
    pda = normalize(entry.pda)
    word = entry.generate(m)
    try:
        res = extract(pda, word, mode=ExtractionMode.BEST_EFFORT)
    except NoWitnessError:
        return  # witness-free runs are covered elsewhere
    for v in verify(pda, res.path, res.decomposition, (0, 1, 2, 3)).verdicts:
        assert v.search != "limit"
        assert v.replay_ok == (v.search == "accepted")
        assert v.replay_ok


def full_replay(pda, path, d, n) -> bool:
    """The per-n route replay_pumps replaces: replay the whole spliced run."""
    return isinstance(replay(pda, spliced_steps(path, d, n), pumped_word(d, n)), RunPath)


def record_walks(monkeypatch) -> list:
    """Make pumpkit.verify's step loop record (steps walked, start position)
    for each call."""
    calls = []
    original = verify_module.walk

    def recording(steps, word, state, stack, pos):
        calls.append((len(steps), pos))
        return original(steps, word, state, stack, pos)

    monkeypatch.setattr(verify_module, "walk", recording)
    return calls


PIECES = ("u", "v", "x", "y", "tail")


def record_pieces(monkeypatch) -> list:
    """Make pumpkit.verify record, in order, each check of its reuse rule
    ("taken" or "checked", by the rule's answer) and each walk ("walked")."""
    events = []
    walk, enters = verify_module.walk, verify_module._enters

    def walking(*args):
        events.append("walked")
        return walk(*args)

    def entering(*args):
        taken = enters(*args)
        events.append("taken" if taken else "checked")
        return taken

    monkeypatch.setattr(verify_module, "walk", walking)
    monkeypatch.setattr(verify_module, "_enters", entering)
    return events


def pieces_of_count(events, n, stretched) -> set:
    """The (piece, "taken" or "walked") pairs of one count's pumped run, read
    from the events record_pieces kept while replay_pumps replayed that count
    alone from given checkpoints.

    The pumped run goes through u, v n times, x, y n times and the tail. A
    copy of one of the first `stretched` pieces, the ones the found run's
    walk got through, is checked against the rule and walked where the rule
    fails; a copy of a later piece is walked. A walk that fails ends the run.
    """
    seen, events = set(), iter(events)
    for index, (piece, copies) in enumerate(zip(PIECES, (1, n, 1, n, 1))):
        for _ in range(copies):
            event = next(events, None)
            if event is None:
                return seen
            if index < stretched:
                assert event in ("taken", "checked")
                if event == "checked":
                    event = next(events)
            assert event in ("taken", "walked")
            seen.add((piece, event))
    assert next(events, None) is None
    return seen


def check_replay_pumps(pda, path, d, events) -> list:
    """replay_pumps equals the full replay for each n in PUMPS, one n at a
    time and all at once. Returns, per count, the pieces that count took
    from the found run's walk and the pieces it walked (pieces_of_count)."""
    checkpoints = verify_module._walk_found_run(pda, path, d.cuts)
    stretched = sum(s is not None for s in checkpoints.stretches)
    expected = tuple(full_replay(pda, path, d, n) for n in PUMPS)
    per_count = []
    for n in PUMPS:
        events.clear()
        assert replay_pumps(pda, path, d, (n,), checkpoints) == (expected[n],)
        per_count.append(pieces_of_count(events, n, stretched))
    assert replay_pumps(pda, path, d, PUMPS) == expected
    return per_count


EVERY_PIECE_TAKEN_AND_WALKED = {(piece, how) for piece in PIECES for how in ("taken", "walked")}


def boundaries_moved_by_one(res):
    """The found decomposition with one of its letter boundaries moved by
    one letter and its run cuts kept, so its pieces read other letters than
    the steps between the cuts."""
    word, d = res.path.word, res.decomposition
    for b in range(4):
        for delta in (-1, 1):
            cuts = list(boundaries(d))
            cuts[b] += delta
            if 0 <= cuts[0] <= cuts[1] <= cuts[2] <= cuts[3] <= len(word):
                yield replace(
                    d,
                    u=word[: cuts[0]],
                    v=word[cuts[0] : cuts[1]],
                    x=word[cuts[1] : cuts[2]],
                    y=word[cuts[2] : cuts[3]],
                    z=word[cuts[3] :],
                )


def run_cuts_moved_by_one(pda, res, deltas=(-1, 1)):
    """The found run cut again with one of the four cuts moved by each of
    `deltas` steps: stretches that start lower, or dip below their start.
    Each piece holds the letters its stretch of the run reads."""
    path, d = res.path, res.decomposition
    for index in range(4):
        for delta in deltas:
            cuts = list(d.cuts)
            cuts[index] += delta
            if 0 <= cuts[0] <= cuts[1] <= cuts[2] <= cuts[3] <= len(path.steps):
                stretches = verify_module._walk_found_run(pda, path, tuple(cuts)).stretches
                u, v, x, y, z = (stretch.letters for stretch in stretches)
                yield replace(d, u=u, v=v, x=x, y=y, z=z, cuts=tuple(cuts))


def _machines():
    for name, entry in sorted(BUILTINS.items()):
        yield name, normalize(entry.pda), entry.generate
    for file in sorted(DATA.glob("*.json")):
        name = file.stem
        generate = BUILTINS[name].generate if name in BUILTINS else BUILTINS["ANBN"].generate
        yield file.name, normalize(load_path(str(file)).pda), generate


def _decompositions():
    """(label, machine, extraction) for best-effort words on every builtin and
    data file, and strict words where |w| > p is small enough to run."""
    out = []
    for label, pda, generate in _machines():
        for m in (3, 4, 5, 8):
            try:
                out.append((label, pda, extract(pda, generate(m), mode=ExtractionMode.BEST_EFFORT)))
            except NoWitnessError:
                pass
        p = pumping_params(pda).p
        if label.startswith("REG_AB"):
            out.append((label, pda, extract(pda, generate(p // 2 + 1), mode=ExtractionMode.STRICT)))
        if label.startswith("DYCK1"):
            out.append((label, pda, extract(pda, generate(p // 2 + 40), mode=ExtractionMode.STRICT)))
    return out


DECOMPOSITIONS = _decompositions()


class TestReplayPumps:
    def test_covers_every_machine_and_both_modes(self):
        labels = {label for label, _, _ in DECOMPOSITIONS}
        assert labels == {"ANBN", "DYCK1", "GEN_PAL", "REG_AB"} | {f.name for f in DATA.glob("*.json")}
        modes = Counter(res.diagnostics.mode for _, _, res in DECOMPOSITIONS)
        assert modes["strict"] == 4 and modes["best-effort"] > 20
        assert {res.decomposition.case for _, _, res in DECOMPOSITIONS} == {"case1", "case2"}

    def test_extracted_decompositions(self, monkeypatch):
        events = record_pieces(monkeypatch)
        reached = set()
        for _, pda, res in DECOMPOSITIONS:
            reached.update(*check_replay_pumps(pda, res.path, res.decomposition, events))
        assert reached == {(piece, "taken") for piece in PIECES}

    def test_cuts_moved_by_one(self, monkeypatch):
        events = record_pieces(monkeypatch)
        reached = set()
        for _, pda, res in DECOMPOSITIONS:
            for moved in boundaries_moved_by_one(res):
                reached.update(*check_replay_pumps(pda, res.path, moved, events))
        assert reached == EVERY_PIECE_TAKEN_AND_WALKED

    def test_corrupted_pieces(self, monkeypatch):
        events = record_pieces(monkeypatch)
        reached = set()
        for _, pda, res in DECOMPOSITIONS:
            d = res.decomposition
            letter = res.path.word[0]
            for piece in ("u", "v", "y", "z"):
                value = getattr(d, piece)
                for corrupted in {value[:-1], value[1:], value + letter, letter + value}:
                    broken = replace(d, **{piece: corrupted})
                    reached.update(*check_replay_pumps(pda, res.path, broken, events))
        assert reached == EVERY_PIECE_TAKEN_AND_WALKED

    def test_each_stretch_is_taken_and_walked(self, monkeypatch):
        """Over the extracted decompositions with a run cut or a letter
        boundary moved by one, each of the five pieces is taken from the
        found run for some count of one decomposition and walked for another
        count of it, and every answer is the full replay's. Moving a run cut
        alone never walks u: the word is cut again at the same run, so the
        pumped word always starts with the letters the found run read up to
        a."""
        events = record_pieces(monkeypatch)
        both = set()
        for _, pda, res in DECOMPOSITIONS:
            for moved in (*run_cuts_moved_by_one(pda, res, (-1, 0, 1)), *boundaries_moved_by_one(res)):
                per_count = check_replay_pumps(pda, res.path, moved, events)
                for piece in PIECES:
                    taken = [i for i, seen in enumerate(per_count) if (piece, "taken") in seen]
                    walked = [i for i, seen in enumerate(per_count) if (piece, "walked") in seen]
                    if any(i != j for i in taken for j in walked):
                        both.add(piece)
        assert both == set(PIECES)

    def test_cuts_in_the_wrong_order(self, dyck1, reg_ab):
        res = extract(reg_ab, "ab" * 17, mode=ExtractionMode.STRICT)
        i, j, c, e = res.decomposition.cuts
        swapped = replace(res.decomposition, cuts=(j, i, c, e))
        res2 = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        past_end = replace(res2.decomposition, cuts=(*res2.decomposition.cuts[:3], 99))
        for pda, path, d in ((reg_ab, res.path, swapped), (dyck1, res2.path, past_end)):
            assert replay_pumps(pda, path, d, PUMPS) == tuple(full_replay(pda, path, d, n) for n in PUMPS)


def per_case_splice(path, d, n) -> tuple:
    """The spliced run by the two per-case formulas, with case 2's last
    pushes and first pops of g and h scanned from the witness triple's
    flanks instead of read from the cuts."""
    steps, w = path.steps, d.witness
    if d.case == "case1":
        i, j, c, e = d.cuts
        assert c == e == len(steps)
        return steps[:i] + steps[i:j] * n + steps[j:]
    profile, t = path.profile, w.triple
    lp_g, lp_h = (max(y for y in range(t.i, t.j + 1) if profile[y] == h) for h in (w.g, w.h))
    fp_h, fp_g = (min(y for y in range(t.j, t.k + 1) if profile[y] == h) for h in (w.h, w.g))
    return (
        steps[:lp_g]
        + steps[lp_g:lp_h] * n
        + steps[lp_h:fp_h]
        + steps[fp_h:fp_g] * n
        + steps[fp_g:]
    )


class TestCuts:
    def test_cuts_read_the_boundaries(self):
        for _, pda, res in DECOMPOSITIONS:
            path, d = res.path, res.decomposition
            read = []
            for c in d.cuts:
                _, pos = run_module.walk(path.steps[:c], path.word, pda.initial_state, list(pda.initial_stack), 0)
                read.append(pos)
            assert tuple(read) == boundaries(d)

    def test_pieces_are_the_letters_of_the_kept_stretches(self):
        for _, _, res in DECOMPOSITIONS:
            d = res.decomposition
            assert res.checkpoints.cuts == d.cuts
            assert (d.u, d.v, d.x, d.y, d.z) == tuple(s.letters for s in res.checkpoints.stretches)

    def test_splice_matches_the_per_case_formulas(self):
        for _, _, res in DECOMPOSITIONS:
            for n in PUMPS:
                assert spliced_steps(res.path, res.decomposition, n) == per_case_splice(
                    res.path, res.decomposition, n
                )


SYMBOLS = (BOTTOM, "A", "B")


@st.composite
def runs_with_cuts(draw):
    """A normalized machine, a run of it drawn step by step, and a
    decomposition cut at drawn positions of that run, optionally with one
    piece replaced by drawn letters.

    The run accepts unless the machine's accept states are redrawn, and the
    cuts are in order and inside the run unless redrawn as any four
    positions."""
    states = ["q0", "q1", "q2"][: draw(st.integers(1, 3))]
    transitions = draw(
        st.lists(
            st.builds(
                NormalizedTransition,
                source=st.sampled_from(states),
                letter=st.one_of(st.none(), st.sampled_from("ab")),
                pop=st.sampled_from(SYMBOLS),
                extra=st.one_of(st.none(), st.sampled_from(SYMBOLS[1:])),
                target=st.sampled_from(states),
            ),
            min_size=1,
            max_size=8,
        )
    )
    state, stack, letters, steps = "q0", [BOTTOM], [], []
    for _ in range(draw(st.integers(0, 24))):
        moves = [t for t in transitions if t.source == state and stack and stack[-1] == t.pop]
        if not moves:
            break
        t = draw(st.sampled_from(moves))
        stack.pop()
        stack.extend(t.push)
        state = t.target
        steps.append(t)
        if t.letter is not None:
            letters.append(t.letter)
    pda = NormalizedPda(states, ["a", "b"], SYMBOLS, "q0", [BOTTOM], [state], transitions)
    path = replay(pda, steps, "".join(letters))
    assert isinstance(path, RunPath)
    if draw(st.booleans()):
        pda = replace(pda, accept_states=draw(st.sets(st.sampled_from(states))))
    cuts = sorted(draw(st.lists(st.integers(0, len(steps)), min_size=4, max_size=4)))
    read = tuple(accumulate((t.letter is not None for t in steps), initial=0))
    at = [read[c] for c in cuts]
    if draw(st.booleans()):
        cuts = draw(st.lists(st.integers(-2, len(steps) + 2), min_size=4, max_size=4))
    word = path.word
    pieces = dict(
        u=word[: at[0]], v=word[at[0] : at[1]], x=word[at[1] : at[2]], y=word[at[2] : at[3]], z=word[at[3] :]
    )
    if draw(st.booleans()):
        case, witness = "case1", Case1Witness(0)
        cuts = (cuts[0], cuts[3], len(steps), len(steps))
        pieces.update(v=word[at[0] : at[3]], x=word[at[3] :], y="", z="")
    else:
        case, witness = "case2", Case2Witness(LevelTriple(0, 1, 2, 1), 0, 1)
        cuts = tuple(cuts)
    corrupt = draw(st.sampled_from((None, "u", "v", "x", "y", "z")))
    if corrupt is not None:
        pieces[corrupt] = draw(st.text("ab", max_size=3))
    return pda, path, Decomposition(cuts=cuts, case=case, witness=witness, params=None, **pieces)


@given(runs_with_cuts())
@settings(max_examples=300, deadline=None)
def test_replay_pumps_matches_full_replay_on_generated_runs(drawn):
    pda, path, d = drawn
    assert replay_pumps(pda, path, d, PUMPS) == tuple(full_replay(pda, path, d, n) for n in PUMPS)


@given(runs_with_cuts(), st.data())
@settings(max_examples=300, deadline=None)
def test_a_run_step_outside_the_machine_never_fires(drawn, data):
    """Under a machine that lacks one of the run's transitions, a pumped
    run fails as its full replay does: exactly when it takes a copy of a
    piece that holds the missing step."""
    pda, path, d = drawn
    if not path.steps:
        return
    missing = data.draw(st.sampled_from(path.steps))
    other = replace(pda, transitions=[t for t in pda.transitions if t != missing])
    expected = tuple(full_replay(other, path, d, n) for n in PUMPS)
    assert replay_pumps(other, path, d, PUMPS) == expected
    for n in PUMPS:
        if missing in spliced_steps(path, d, n):
            assert not expected[n]
        else:
            assert expected[n] == full_replay(pda, path, d, n)


def test_a_forged_run_accepts_no_pumped_word(dyck1):
    """A run whose one step is not DYCK1's fires and reads "a"; handed to
    replay_pumps and verify without extract's checkpoints, it is refused
    for every count, as replay refuses it."""
    stranger = NormalizedTransition("q0", "a", BOTTOM, None, "qf")
    path = RunPath(word="a", steps=(stranger,), profile=(1, 0), initial_state="q0", initial_stack=(BOTTOM,))
    pieces = dict(u="", v="a", x="", y="", z="", cuts=(0, 1, 1, 1))
    d = Decomposition(**pieces, case="case1", witness=Case1Witness(0), params=pumping_params(dyck1))
    assert replay_pumps(dyck1, path, d, PUMPS) == (False,) * len(PUMPS)
    report = verify(dyck1, path, d, PUMPS)
    assert [v.replay_ok for v in report.verdicts] == [False] * len(PUMPS)
    assert [v.search for v in report.verdicts] == ["accepted"] + ["rejected"] * (len(PUMPS) - 1)


def test_extracted_decompositions_pump_to_eight_on_the_found_runs_walk(monkeypatch):
    """Every extracted decomposition replays n = 0..8 with no walk after the
    one walk of its found run, one call per piece: each copy of each piece
    is taken from that walk."""
    calls = record_walks(monkeypatch)
    for _, pda, res in DECOMPOSITIONS:
        a, b, c, e = res.decomposition.cuts
        calls.clear()
        assert replay_pumps(pda, res.path, res.decomposition, range(9)) == (True,) * 9
        assert [steps for steps, _ in calls] == [a, b - a, c - b, e - c, len(res.path.steps) - e]


def test_strict_pump_walks_the_run_at_most_three_times(monkeypatch, capsys):
    """extract's candidate check walks the found run once, and every piece
    of every pumped run, there and in verify, is taken from that walk: the
    pump walks exactly the found run's steps. One full replay per n would
    walk it 7 times."""
    walked = []
    original = run_module.walk

    def counting(steps, word, state, stack, pos):
        walked.append(len(steps))
        return original(steps, word, state, stack, pos)

    for module in (run_module, verify_module):
        monkeypatch.setattr(module, "walk", counting)
    word = "(" * 6601 + ")" * 6601
    assert main(["pump", "DYCK1", word, "--mode", "strict", "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["caseTag"] == "case2"
    assert sum(walked) == report["diagnostics"]["pathLength"]


def test_strict_pump_builds_each_stretch_once(monkeypatch, capsys):
    """The stretches of the five pieces, each with a minimum over its part
    of the profile, are built once per candidate as its walk goes through
    them; verify reads them from the checkpoints extract keeps."""
    built = []
    original = verify_module._Stretch

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(verify_module, "_Stretch", counting)
    word = "(" * 6601 + ")" * 6601
    assert main(["pump", "DYCK1", word, "--mode", "strict", "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"]["candidatesTried"] == 1
    assert len(built) == 5


def test_strict_dyck_checkpoints_copy_only_the_stack_tops_their_stretches_read():
    """The checkpoints of the strict 13202-letter Dyck pump hold the top r
    symbols before and after each of the five pieces, which is two deep
    stacks (after u and before the tail), not a whole stack at each of the
    six cuts (about 220 KB)."""
    pda = normalize(BUILTINS["DYCK1"].pda)
    res = extract(pda, "(" * 6601 + ")" * 6601, mode=ExtractionMode.STRICT)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        checkpoints = verify_module._walk_found_run(pda, res.path, res.decomposition.cuts)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert None not in checkpoints.stretches
    assert retained < 150 * 1024


def test_best_effort_pump_walks_its_x_stretch_once(monkeypatch, capsys):
    """A best-effort GEN_PAL pump walks the found run once, in extract's
    candidate check, and takes every piece of every pumped run, there and in
    verify, from that walk. Walking a..e for every count would walk the long
    x-stretch 8 times: once in the found run, then for counts 0 and 2 and
    for 0..4."""
    walked = []
    original = run_module.walk

    def counting(steps, word, state, stack, pos):
        walked.append(len(steps))
        return original(steps, word, state, stack, pos)

    seen = []
    cli_module = importlib.import_module("pumpkit.cli")
    verify_in_cli = cli_module.verify

    def kept(pda, path, d, *args, **kwargs):
        seen.append((path, d))
        return verify_in_cli(pda, path, d, *args, **kwargs)

    for module in (run_module, verify_module):
        monkeypatch.setattr(module, "walk", counting)
    monkeypatch.setattr(cli_module, "verify", kept)
    word = BUILTINS["GEN_PAL"].generate(60)
    assert main(["pump", str(DATA / "GEN_PAL.json"), word, "--mode", "best-effort", "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"]["candidatesTried"] == 1
    [(path, d)] = seen
    a, b, c, e = d.cuts
    assert c - b > len(path.steps) // 2
    assert sum(walked) == len(path.steps)


PUMP_ARGVS = pytest.mark.parametrize(
    "argv",
    [
        ("DYCK1", "(" * 6601 + ")" * 6601, "--mode", "strict"),
        ("DYCK1", BUILTINS["DYCK1"].generate(8), "--mode", "best-effort"),
        ("ANBN", BUILTINS["ANBN"].generate(8), "--mode", "best-effort"),
        (str(DATA / "GEN_PAL.json"), BUILTINS["GEN_PAL"].generate(8), "--mode", "best-effort"),
    ],
    ids=["DYCK1-strict", "DYCK1", "ANBN", "GEN_PAL.json"],
)


@PUMP_ARGVS
def test_a_pump_checks_no_step_of_its_own_run(monkeypatch, capsys, argv):
    """extract's run holds the machine's transitions by construction, and
    verify replays it from extract's checkpoints: replay_pumps neither walks
    the found run again nor checks that its steps belong to the machine,
    which it does only together with that walk."""
    walked = []
    original = verify_module._walk_found_run

    def counting(pda, path, cuts):
        walked.append(cuts)
        return original(pda, path, cuts)

    monkeypatch.setattr(verify_module, "_walk_found_run", counting)
    assert main(["pump", *argv, "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"]["pumpingOk"] is True
    assert walked == []


@PUMP_ARGVS
def test_a_pump_walks_the_found_run_once(monkeypatch, capsys, argv):
    """extract's candidate check walks the found run and keeps what the walk
    found at the cuts; verify reuses it instead of walking the run again.
    Each of these words has a nonempty u and passes its first candidate, so
    the one walk of the found run is the only walk from position 0: the
    pumped words all start with u, and their walks start after it."""
    calls = record_walks(monkeypatch)
    assert main(["pump", *argv, "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["u"] != ""
    assert report["diagnostics"]["candidatesTried"] == 1
    assert sum(pos == 0 for _, pos in calls) == 1


def test_searching_the_source_gives_the_same_reports():
    general = 0
    for label, pda, res in DECOMPOSITIONS:
        source = BUILTINS[label].pda if label in BUILTINS else load_path(str(DATA / label)).pda
        general += not isinstance(source, NormalizedPda)
        report = verify(pda, res.path, res.decomposition, PUMPS, res.checkpoints)
        assert verify(pda, res.path, res.decomposition, PUMPS, res.checkpoints, source=source) == report, label
    assert general > 0


def test_verify_searches_its_pumped_words_under_one_set_of_limits(monkeypatch):
    # One accepts_each call per pump, under the default limits of the
    # normalized machine for the longest pumped word, which are at least
    # each word's own.
    calls = []
    search = verify_module.accepts_each

    def recorded(pda, words, limits=None):
        calls.append((pda, list(words), limits))
        return search(pda, words, limits)

    monkeypatch.setattr(verify_module, "accepts_each", recorded)
    differ = 0
    for label, pda, res in DECOMPOSITIONS:
        source = BUILTINS[label].pda if label in BUILTINS else load_path(str(DATA / label)).pda
        calls.clear()
        verify(pda, res.path, res.decomposition, PUMPS, res.checkpoints, source=source)
        words = [pumped_word(res.decomposition, n) for n in PUMPS]
        assert calls == [(source, words, default_limits(pda, max(words, key=len)))], label
        differ += len({default_limits(pda, w) for w in words}) > 1
    assert differ > 0


class TestVerifyCheckpoints:
    def replayed(self, pda, path, d, checkpoints) -> tuple:
        return tuple(v.replay_ok for v in verify(pda, path, d, PUMPS, checkpoints).verdicts)

    def test_extract_keeps_the_checkpoints_verify_can_use(self, monkeypatch):
        calls = record_walks(monkeypatch)
        for _, pda, res in DECOMPOSITIONS:
            d = res.decomposition
            expected = replay_pumps(pda, res.path, d, PUMPS)
            calls.clear()
            assert self.replayed(pda, res.path, d, res.checkpoints) == expected
            if d.u:
                assert all(pos != 0 for _, pos in calls)

    def test_checkpoints_for_other_cuts_are_ignored(self):
        differ = 0
        for _, pda, res in DECOMPOSITIONS:
            path, d = res.path, res.decomposition
            for other in run_cuts_moved_by_one(pda, res):
                expected = replay_pumps(pda, path, other, PUMPS)
                assert self.replayed(pda, path, other, res.checkpoints) == expected
                differ += expected != replay_pumps(pda, path, d, PUMPS)
        assert differ > 0

    def test_checkpoints_under_another_machine_judge_acceptance_by_it(self, dyck1):
        """Checkpoints keep configurations, not verdicts: the machine passed
        in judges every pumped run, here one that accepts nothing."""
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        d = res.decomposition
        other = replace(dyck1, accept_states=frozenset())
        expected = tuple(full_replay(other, res.path, d, n) for n in PUMPS)
        assert expected == (False,) * len(PUMPS)
        assert replay_pumps(other, res.path, d, PUMPS, res.checkpoints) == expected
        assert self.replayed(other, res.path, d, res.checkpoints) == expected

    def test_checkpoints_under_other_transitions_are_ignored(self, dyck1):
        """Under a machine that lacks v's transition, which x takes too,
        every pumped run fails, as its full replay does, though extract's
        checkpoints were walked under DYCK1, where each would pass."""
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        d = res.decomposition
        missing = res.path.steps[d.cuts[0]]
        other = replace(dyck1, transitions=[t for t in dyck1.transitions if t != missing])
        expected = tuple(full_replay(other, res.path, d, n) for n in PUMPS)
        assert expected == (False,) * len(PUMPS)
        assert replay_pumps(other, res.path, d, PUMPS, res.checkpoints) == expected
        assert self.replayed(other, res.path, d, res.checkpoints) == expected

    def test_checkpoints_of_another_run_are_ignored(self, dyck1, monkeypatch):
        calls = record_walks(monkeypatch)
        first = extract(dyck1, "(())()", mode=ExtractionMode.BEST_EFFORT)
        second = extract(dyck1, "(())(())", mode=ExtractionMode.BEST_EFFORT)
        d = second.decomposition
        assert d.cuts == first.decomposition.cuts
        calls.clear()
        assert self.replayed(dyck1, second.path, d, first.checkpoints) == replay_pumps(dyck1, second.path, d, PUMPS)
        assert calls[0] == (d.cuts[0], 0)  # the second run walked from its start
