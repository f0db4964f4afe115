import importlib
import tracemalloc
from itertools import islice

import pytest

from pumpkit import (
    BLANK,
    BOTTOM,
    BUILTINS,
    Case1Witness,
    Case2Witness,
    ExtractionMode,
    LevelTriple,
    NormalizedPda,
    NormalizedTransition,
    NotAcceptedError,
    RunPath,
    StrictPreconditionError,
    TopSymbolMismatchError,
    extract,
    flank_cuts,
    minimal_accepting_path,
    normalize,
    pumping_params,
    replay_pumps,
)
from pumpkit.extract import _equal_key_pairs
from pumpkit.levels import configuration_keys, full_state_keys, max_levels
from pumpkit.record import replace

# pumpkit.extract as a module: the package re-exports the function under the
# same name.
extract_module = importlib.import_module("pumpkit.extract")


def single_word_machine():
    """Accepts exactly "a"; its one run has no repeats of any kind."""
    return NormalizedPda(
        states=["q0", "qa"],
        input_alphabet=["a"],
        stack_alphabet=[BOTTOM],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["qa"],
        transitions=[NormalizedTransition("q0", "a", BOTTOM, None, "qa")],
    )


def reference_stack(path, pos):
    """The stack after `pos` steps, replayed from position 0."""
    stack = list(path.initial_stack)
    for t in path.steps[:pos]:
        stack.pop()
        stack.extend(t.push)
    return stack


def reference_configuration(path, pos, depth):
    """State plus the top `depth` symbols, top first, blank-padded."""
    top_first = list(reversed(reference_stack(path, pos)))[:depth]
    return (path.state_at(pos), tuple(top_first + [BLANK] * (depth - len(top_first))))


def reference_case1_pairs(path, window_end, depth):
    """Every equal-configuration pair, listed and sorted; each configuration
    replayed from position 0."""
    seen: dict = {}
    for pos in range(window_end + 1):
        seen.setdefault(reference_configuration(path, pos, depth), []).append(pos)
    pairs = []
    for positions in seen.values():
        for a in range(len(positions)):
            for b in range(a + 1, len(positions)):
                pairs.append((positions[a], positions[b]))
    pairs.sort()
    return pairs


def reference_case2_pairs(path, triple):
    """Every equal-full-state height pair, g then h ascending; each full state
    found by a scan of both flanks for its height and two stack replays from
    position 0."""
    profile = path.profile
    lo, hi = profile[triple.i], profile[triple.j]
    states = {}
    for h in range(lo, hi + 1):
        lp = max(y for y in range(triple.i, triple.j + 1) if profile[y] == h)
        fp = min(y for y in range(triple.j, triple.k + 1) if profile[y] == h)
        top = reference_stack(path, lp)[-1]
        assert reference_stack(path, fp)[-1] == top
        states[h] = (path.state_at(lp), top, path.state_at(fp))
    return [(g, h) for g in range(lo, hi + 1) for h in range(g + 1, hi + 1) if states[g] == states[h]]


class TestExtract:
    def test_best_effort_dyck1_golden(self, dyck1):
        res = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT)
        d = res.decomposition
        assert d.case == "case2"
        assert (d.u, d.v, d.x, d.y, d.z) == ("(", "(", "(())", ")", ")")
        w = d.witness
        assert isinstance(w, Case2Witness)
        assert (w.g, w.h) == (2, 3)
        assert d.cuts == (1, 2, 6, 7)
        assert res.diagnostics.level == 4
        assert res.diagnostics.level_witness == LevelTriple(0, 4, 8, 4)
        assert res.diagnostics.fallbacks == ()

    def test_strict_reg_ab_case1(self, reg_ab):
        word = "ab" * 17
        res = extract(reg_ab, word, mode=ExtractionMode.STRICT)
        d = res.decomposition
        assert d.case == "case1"
        assert d.witness == Case1Witness(depth=1)
        assert d.cuts == (0, 2, 34, 34)
        assert d.u == "" and d.v == "ab"
        assert d.x == "ab" * 16
        assert d.y == "" and d.z == ""
        assert res.diagnostics.mode == "strict"

    def test_strict_requires_long_word(self, dyck1):
        with pytest.raises(StrictPreconditionError) as exc:
            extract(dyck1, "(())", mode=ExtractionMode.STRICT)
        assert exc.value.word_length == 4
        assert exc.value.p == 13122

    def test_mode_given_as_its_value_string(self, dyck1):
        # "strict" keeps the strict precondition; "best-effort" runs as the enum does
        with pytest.raises(StrictPreconditionError) as exc:
            extract(dyck1, "(())", mode="strict")
        assert exc.value.word_length == 4
        res = extract(dyck1, "(((())))", mode="best-effort")
        assert res.diagnostics.mode == "best-effort"
        assert res.decomposition == extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT).decomposition

    @pytest.mark.parametrize("mode", ["fast", "STRICT", None])
    def test_unknown_mode_is_refused(self, dyck1, mode):
        with pytest.raises(ValueError, match="is not a valid ExtractionMode"):
            extract(dyck1, "(((())))", mode=mode)

    def test_strict_precondition_with_unprintable_p(self, dyck1):
        # 400 unused states: p passes the 1M-bit guard but has 154k digits,
        # past what Python converts to text.
        padded = normalize(replace(dyck1, states=dyck1.states | {f"u{i}" for i in range(400)}))
        with pytest.raises(StrictPreconditionError) as exc:
            extract(padded, "(())", mode=ExtractionMode.STRICT)
        assert exc.value.word_length == 4
        assert exc.value.p == pumping_params(padded).p
        assert str(exc.value) == (
            f"strict mode needs |w| > p but |w|=4 and p has {exc.value.p.bit_length()} bits"
        )

    def test_rejected_word(self, dyck1):
        with pytest.raises(NotAcceptedError):
            extract(dyck1, "(()", mode=ExtractionMode.BEST_EFFORT)

    def test_no_witness_reports_empty_scans(self):
        pda = single_word_machine()
        from pumpkit import NoWitnessError

        with pytest.raises(NoWitnessError) as exc:
            extract(pda, "a", mode=ExtractionMode.BEST_EFFORT)
        diag = exc.value.diagnostics
        assert diag is not None
        assert diag.level == 0
        assert diag.level_witness is None
        assert diag.config_pairs_available == 0
        assert diag.full_state_pairs_available == 0
        assert diag.case is None

    def test_best_effort_falls_back_to_case1(self, reg_ab):
        # level 1 and no equal full states on the triple, so the case-1 scan
        # over the whole path must supply the decomposition
        res = extract(reg_ab, "abab", mode=ExtractionMode.BEST_EFFORT)
        assert res.decomposition.case == "case1"
        assert res.decomposition.v == "ab"

    def test_decomposition_boundaries(self, dyck1):
        d = extract(dyck1, "(((())))", mode=ExtractionMode.BEST_EFFORT).decomposition
        assert tuple(map(len, (d.u, d.v, d.x, d.y, d.z))) == (1, 1, 4, 1, 1)

    def test_window_limits_strict_scan(self, dyck1):
        # strict mode on a word longer than p keeps the whole scan inside
        # the first p+1 positions
        word = "(" * 6601 + ")" * 6601
        res = extract(dyck1, word, mode=ExtractionMode.STRICT)
        assert res.diagnostics.window_end == 13122
        assert res.diagnostics.level == 6521
        assert res.diagnostics.level_witness == LevelTriple(80, 6601, 13122, 6521)
        d = res.decomposition
        assert isinstance(d.witness, Case2Witness)
        assert d.witness.triple == LevelTriple(6593, 6601, 6609, 8)
        assert max(d.cuts) <= 13122

    def test_strict_case2_reads_its_flanks_once(self, dyck1, monkeypatch):
        # one flank_cuts call gives the shrunk triple, the full states and
        # the cuts
        calls = []

        def counted(*args):
            calls.append(args)
            return flank_cuts(*args)

        monkeypatch.setattr("pumpkit.levels.flank_cuts", counted)
        monkeypatch.setattr(extract_module, "flank_cuts", counted)
        res = extract(dyck1, "(" * 6601 + ")" * 6601, mode=ExtractionMode.STRICT)
        assert res.decomposition.case == "case2"
        assert len(calls) == 1

    def test_strict_case2_walks_no_stack(self, dyck1, monkeypatch):
        # the full states come off the steps at the nine cuts, and the
        # candidate's one walk keeps top symbols only: no stack is walked
        walks = []
        stacks = RunPath.stacks

        def counted(path, last_pos):
            walks.append(last_pos)
            return stacks(path, last_pos)

        monkeypatch.setattr(RunPath, "stacks", counted)
        res = extract(normalize(dyck1), "(" * 6601 + ")" * 6601, mode=ExtractionMode.STRICT)
        assert walks == []
        d, diagnostics = res.decomposition, res.diagnostics
        assert d.witness == Case2Witness(LevelTriple(6593, 6601, 6609, 8), 6594, 6595)
        assert d.cuts == (6593, 6594, 6608, 6609)
        assert (diagnostics.full_state_pairs_available, diagnostics.candidates_tried) == (36, 1)

    def test_long_word_memory_stays_flat(self, reg_ab):
        # 2.56M equal-configuration pairs are counted but never listed
        tracemalloc.start()
        try:
            res = extract(reg_ab, "ab" * 1600, mode=ExtractionMode.BEST_EFFORT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.diagnostics.config_pairs_available == 2_560_000
        assert peak < 16 * 2**20

    def test_internal_replay_check_passes_for_all_candidates(self, anbn):
        res = extract(anbn, "a" * 6 + "b" * 6, mode=ExtractionMode.BEST_EFFORT)
        assert replay_pumps(anbn, res.path, res.decomposition, (0, 1, 3)) == (True, True, True)


class TestCase1Decompose:
    def test_first_pair_semantics(self, reg_ab):
        d = extract(reg_ab, "abab", mode=ExtractionMode.BEST_EFFORT).decomposition
        assert d.cuts[:2] == (0, 2)
        assert d.v == "ab"
        assert d.y == "" and d.z == ""

    def test_no_repeat(self):
        pda = single_word_machine()
        path = minimal_accepting_path(pda, "a")
        available, pairs = _equal_key_pairs(configuration_keys(path, len(path.steps), 0))
        assert available == 0
        assert next(pairs, None) is None


class TestCase2Decompose:
    def test_golden_first_pair(self, dyck1):
        path = minimal_accepting_path(dyck1, "(((())))")
        cuts = flank_cuts(path.profile, LevelTriple(0, 4, 8, 4))
        available, pairs = _equal_key_pairs(full_state_keys(path, cuts), path.profile[0])
        assert available == 6
        assert next(pairs) == (2, 3)

    def test_all_distinct_full_states(self):
        # each height carries a different symbol/state combination
        pda = NormalizedPda(
            states=["q0", "q1", "q2", "q3", "q4", "qf"],
            input_alphabet=["a", "b"],
            stack_alphabet=[BOTTOM, "X", "Y"],
            initial_state="q0",
            initial_stack=[BOTTOM],
            accept_states=["qf"],
            transitions=[
                NormalizedTransition("q0", "a", BOTTOM, "X", "q1"),
                NormalizedTransition("q1", "a", "X", "Y", "q2"),
                NormalizedTransition("q2", "b", "Y", None, "q3"),
                NormalizedTransition("q3", "b", "X", None, "q4"),
                NormalizedTransition("q4", None, BOTTOM, None, "qf"),
            ],
        )
        path = minimal_accepting_path(pda, "aabb")
        assert path.profile == (1, 2, 3, 2, 1, 0)
        cuts = flank_cuts(path.profile, LevelTriple(0, 2, 4, 2))
        assert len(set(full_state_keys(path, cuts))) == 3
        available, pairs = _equal_key_pairs(full_state_keys(path, cuts), path.profile[0])
        assert available == 0
        assert next(pairs, None) is None

    def test_mismatched_tops_raise(self, mismatched_tops_path):
        cuts = flank_cuts(mismatched_tops_path.profile, LevelTriple(0, 2, 4, 2))
        with pytest.raises(TopSymbolMismatchError):
            _equal_key_pairs(full_state_keys(mismatched_tops_path, cuts))


class TestFallbacks:
    """Candidates extract skips, on a machine whose first depth-0 repeats
    either read no input or do not pump."""

    @pytest.fixture
    def machine(self):
        return NormalizedPda(
            states=["q0", "q2"],
            input_alphabet=["b"],
            stack_alphabet=[BOTTOM, "X"],
            initial_state="q0",
            initial_stack=[BOTTOM],
            accept_states=["q0"],
            transitions=[
                NormalizedTransition("q0", None, BOTTOM, "X", "q0"),
                NormalizedTransition("q0", "b", "X", "X", "q2"),
                NormalizedTransition("q2", "b", "X", "X", "q0"),
                NormalizedTransition("q2", None, "X", None, "q0"),
            ],
        )

    @pytest.mark.parametrize(
        "word, tried, reasons",
        [
            ("bb", 3, [((0, 1), "empty-pump"), ((0, 3), "replay-failed-n2")]),
            (
                "bbbb",
                4,
                [((0, 1), "empty-pump"), ((0, 3), "replay-failed-n0"), ((0, 5), "replay-failed-n2")],
            ),
        ],
    )
    def test_skipped_candidates_are_recorded(self, machine, word, tried, reasons):
        res = extract(machine, word, mode=ExtractionMode.BEST_EFFORT)
        diag = res.diagnostics
        assert diag.candidates_tried == tried
        assert [(f.case, f.candidate, f.reason) for f in diag.fallbacks] == [
            ("case1", pair, reason) for pair, reason in reasons
        ]
        d = res.decomposition
        assert d.case == "case1"
        assert d.cuts[:2] == (1, 3)
        assert d.v == "bb"


class TestPairOrder:
    """The lazy pair scans yield exactly the reference enumerations."""

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_matches_reference(self, name):
        entry = BUILTINS[name]
        pda = normalize(entry.pda)
        for m in range(2, 41):
            path = minimal_accepting_path(pda, entry.generate(m))
            last = len(path.steps)
            level, witness = max_levels(path.profile, last)[0]
            for depth in sorted({0, 1, level}):
                expected = reference_case1_pairs(path, last, depth)
                available, pairs = _equal_key_pairs(configuration_keys(path, last, depth))
                assert (available, list(pairs)) == (len(expected), expected)
            if witness is None:
                continue
            for target in sorted({1, witness.n}):
                cuts = flank_cuts(path.profile, witness, path.profile[witness.j] - target)
                expected = reference_case2_pairs(path, LevelTriple(cuts[0][0], witness.j, cuts[0][1], target))
                available, pairs = _equal_key_pairs(full_state_keys(path, cuts), path.profile[cuts[0][0]])
                assert (available, list(pairs)) == (len(expected), expected)


def grouped_record_pairs(records, base=0, first=50):
    """Pair count and the first pairs, a then b ascending, of equal records
    (configuration or full-state key tuples), grouped in a dict of lists."""
    groups: dict = {}
    for index, record in enumerate(records, base):
        groups.setdefault(record, []).append(index)
    count = sum(len(g) * (len(g) - 1) // 2 for g in groups.values())
    pairs = []
    for a, record in enumerate(records, base):
        pairs += [(a, b) for b in groups[record] if b > a]
        if len(pairs) >= first:
            break
    return count, pairs[:first]


class TestPairsOverRecords:
    """The lazy scans give the count and first pairs of a plain grouping of
    the same key tuples."""

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    @pytest.mark.parametrize("m", [100, 400])
    def test_same_count_and_first_pairs(self, name, m):
        entry = BUILTINS[name]
        path = minimal_accepting_path(normalize(entry.pda), entry.generate(m))
        last = len(path.steps)
        level, witness = max_levels(path.profile, last)[0]
        for depth in sorted({0, 1, level, level + 2}):
            available, pairs = _equal_key_pairs(configuration_keys(path, last, depth))
            expected = grouped_record_pairs(configuration_keys(path, last, depth))
            assert (available, list(islice(pairs, 50))) == expected
        if witness is None:
            return
        for target in sorted({1, witness.n}):
            cuts = flank_cuts(path.profile, witness, path.profile[witness.j] - target)
            base = path.profile[cuts[0][0]]
            available, pairs = _equal_key_pairs(full_state_keys(path, cuts), base)
            expected = grouped_record_pairs(full_state_keys(path, cuts), base=base)
            assert (available, list(islice(pairs, 50))) == expected


class TestOnNormalizedGeneralMachines:
    def test_gen_pal_best_effort(self, gen_pal):
        npda = normalize(gen_pal)
        word = "01" * 8 + "10" * 8
        res = extract(npda, word, mode=ExtractionMode.BEST_EFFORT)
        d = res.decomposition
        assert d.u + d.v + d.x + d.y + d.z == word
        assert len(d.v) + len(d.y) >= 1
        assert replay_pumps(npda, res.path, d, (0, 2)) == (True, True)

    def test_unnormalized_machine_is_refused(self, gen_pal):
        with pytest.raises(TypeError, match="normalize it first"):
            extract(gen_pal, "0110", mode=ExtractionMode.BEST_EFFORT)
