import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpkit import (
    BLANK,
    BOTTOM,
    BUILTINS,
    LevelTriple,
    NormalizedPda,
    NormalizedTransition,
    RunPath,
    TopSymbolMismatchError,
    flank_cuts,
    minimal_accepting_path,
    normalize,
    replay,
)
from pumpkit.levels import configuration_keys, full_state_keys, max_levels
from pumpkit.record import replace
from pumpkit.run import BULK_RUN, profile_extreme, profile_spans

from oracles import brute_force_max_level, check_unit_steps, is_valid_level_triple


class TestTripleValidity:
    def test_accepts_a_plain_peak(self):
        assert is_valid_level_triple((1, 2, 3, 2, 1, 0), LevelTriple(0, 2, 4, 2))

    def test_rejects_bad_indices_and_heights(self):
        prof = (1, 2, 3, 2, 1, 0)
        assert not is_valid_level_triple(prof, LevelTriple(0, 4, 2, 2))  # j > k
        assert not is_valid_level_triple(prof, LevelTriple(0, 1, 4, 2))  # s_j wrong
        assert not is_valid_level_triple(prof, LevelTriple(0, 2, 3, 2))  # s_k != s_i
        assert not is_valid_level_triple(prof, LevelTriple(2, 2, 4, 0))  # n < 1, i = j

    def test_rejects_flank_dips(self):
        prof = (1, 2, 1, 0, 1, 2, 1)
        assert not is_valid_level_triple(prof, LevelTriple(0, 1, 6, 1))


def reference_max_level(profile, window_end):
    """The level sweep as it was before the windowed and whole-run results
    came from one pass: a separate sweep per window, kept as the reference
    for max_levels."""
    end = min(window_end, len(profile) - 1)
    s = profile[: end + 1]
    for a, b in zip(s, s[1:]):
        if abs(a - b) != 1:
            raise ValueError("profile must move in unit steps")
    if len(s) < 3:
        return 0, None
    best_n = 0
    best = None
    eras = [[s[0], 0, 0, s[0], 0]]
    for pos in range(1, len(s)):
        v = s[pos]
        if v > s[pos - 1]:
            eras.append([v, pos, pos, v, pos])
            continue
        h, first, last, peak, peak_pos = eras.pop()
        if peak > h and last > first and peak - h > best_n:
            best_n = peak - h
            best = LevelTriple(first, peak_pos, last, best_n)
        if eras and eras[-1][0] == v:
            parent = eras[-1]
            parent[2] = pos
            if peak > parent[3]:
                parent[3] = peak
                parent[4] = peak_pos
        else:
            eras.append([v, pos, pos, v, pos])
    while eras:
        h, first, last, peak, peak_pos = eras.pop()
        if peak > h and last > first and peak - h > best_n:
            best_n = peak - h
            best = LevelTriple(first, peak_pos, last, best_n)
    return best_n, best


class TestMaxLevel:
    def test_one_sweep_matches_a_sweep_per_window(self):
        # the 1000 seeded profiles of acceptance criterion 4
        rng = np.random.default_rng(20260819)
        for trial in range(1000):
            length = int(rng.integers(2, 201))
            profile = [int(rng.integers(0, 5))]
            for _ in range(length - 1):
                if profile[-1] == 0:
                    profile.append(1)
                else:
                    profile.append(profile[-1] + (1 if rng.integers(0, 2) else -1))
            profile = tuple(profile)
            window_end = int(rng.integers(0, length))
            windowed = reference_max_level(profile, window_end)
            whole = reference_max_level(profile, length - 1)
            assert max_levels(profile, window_end) == (windowed, whole), (trial, window_end)
            assert max_levels(profile, length - 1) == (whole, whole)

    def test_sweep_builds_at_most_two_triples(self, monkeypatch):
        # on a mountain every down-step improves the best triple; the sweep
        # keeps it as ints and builds a LevelTriple per result only
        built = []

        def counted(*fields):
            built.append(fields)
            return LevelTriple(*fields)

        monkeypatch.setattr("pumpkit.levels.LevelTriple", counted)
        prof = tuple(range(1001)) + tuple(range(999, -1, -1))
        for window_end in (2000, 1500):
            built.clear()
            expected = (reference_max_level(prof, window_end), reference_max_level(prof, 2000))
            assert max_levels(prof, window_end) == expected
            assert len(built) <= 2

    def test_one_sweep_checks_steps_past_the_window(self):
        with pytest.raises(ValueError):
            max_levels((1, 2, 1, 3, 1), 2)

    def test_known_profiles(self):
        assert max_levels((1, 2, 3, 2, 1, 0), 5)[0] == (2, LevelTriple(0, 2, 4, 2))
        # a window end below 0 must not count from the end of the profile
        assert max_levels((1, 2, 3, 2, 1, 0), -2)[0] == (0, None) == brute_force_max_level((1, 2, 3, 2, 1, 0), -2)
        assert max_levels((1, 0), 1)[0] == (0, None)
        # witness k is the era's latest base touch (8), not the earliest (6);
        # both are valid 3-levels and the brute force is free to pick the other
        assert max_levels((1, 2, 3, 4, 3, 2, 1, 2, 1, 0), 9)[0] == (3, LevelTriple(0, 3, 8, 3))

    def test_oscillating_profile(self):
        level, witness = max_levels((1, 2, 1, 2, 1), 4)[0]
        assert level == 1
        assert is_valid_level_triple((1, 2, 1, 2, 1), witness)

    def test_window_cuts_late_triples(self):
        prof = (1, 2, 3, 2, 1, 0)
        # k = 4 is required for the 2-level; a window ending at 3 leaves
        # only the 1-level (1, 2, 3)
        level, witness = max_levels(prof, 3)[0]
        assert level == 1
        assert witness.k <= 3

    def test_descending_start(self):
        prof = (4, 3, 2, 1, 0, 1, 0, 1, 0, 1, 2, 3, 4)
        level, witness = max_levels(prof, len(prof) - 1)[0]
        assert level == 1
        assert is_valid_level_triple(prof, witness)

    def test_rejects_non_unit_steps(self):
        with pytest.raises(ValueError):
            max_levels((1, 3, 1), 2)

    @pytest.mark.parametrize("prof", [(1, 1, 2), (1, 3, 2, 1), (3, 1, 2), (1, 2, 1, 1)])
    def test_rejects_each_kind_of_non_unit_step(self, prof):
        with pytest.raises(ValueError, match="profile must move in unit steps"):
            max_levels(prof, len(prof) - 1)


def assert_refused_as_the_step_pass_refuses(profile, window_end):
    """max_levels raises exactly when the separate pass over every step
    (oracles.check_unit_steps) does, with its message, whatever the window;
    otherwise it returns the era-record sweep's triples."""
    try:
        check_unit_steps(profile)
    except ValueError as refused:
        with pytest.raises(ValueError, match=f"^{refused}$"):
            max_levels(profile, window_end)
        return
    whole = reference_max_level(profile, len(profile) - 1)
    # the reference reads a window end below 0 from the profile's end
    assert max_levels(profile, window_end) == (reference_max_level(profile, max(window_end, 0)), whole)


@st.composite
def rough_profiles(draw):
    """A profile of 1 to 41 positions from a start that may be negative,
    moving in unit steps except for up to two steps redrawn as flat, +-2
    or +-3."""
    steps = draw(st.lists(st.sampled_from([-1, 1]), max_size=40))
    for _ in range(draw(st.integers(0, 2))):
        if steps:
            steps[draw(st.integers(0, len(steps) - 1))] = draw(st.sampled_from([0, 2, -2, 3, -3]))
    return tuple(accumulate(steps, initial=draw(st.integers(-4, 4))))


class TestStepChecks:
    """The sweep checks each up-step as it takes it and each descent once,
    at its valley, instead of a separate pass over the profile."""

    @pytest.mark.parametrize(
        "prof",
        [
            (0, 1, 1, 2, 1),  # flat on the way up
            (3, 2, 2, 1, 2),  # flat inside a descent
            (0, 2, 1, 2, 1),  # +2
            (3, 1, 2, 1, 0),  # -2 at the start
            (0, 1, 2, 3, 1),  # a trailing descent with a -2 step
            (0, 1, 2, 1, 2, 3, 2, 0),  # a trailing descent ending in a -2 step
            (0, 1, 2, 3, 2, 0, 1, 2),  # a -2 step inside a settled descent
            (0, 1, 2, 3, 1, 0, 1, 0),  # -2 early in a descent
            (0, 1, 2, 3, 4, 5, 0),  # climbs past the height a unit-step walk to 0 could reach
            (0, 1, 2, 3, 2, 1, 0, -1),  # unit steps below 0
            (-1, -2, -4, -3, -2),  # negative heights, -2
            (-3, -2, -1, -2, -4),  # negative heights, trailing -2
            (),
            (5,),
            (1, 1),
            (1, 3),
            (-1, -3),
            (1, 2),
            (2, 1),
        ],
    )
    def test_every_window_refuses_as_the_step_pass(self, prof):
        # windows ending before, inside and after each bad step's descent
        for window_end in range(-2, len(prof) + 2):
            assert_refused_as_the_step_pass_refuses(prof, window_end)

    def test_window_ending_mid_descent_before_its_bad_step(self):
        # the descent from 4 is open at the window's end, 5, and steps by -2
        # after it: the window alone is sound, the profile is not
        prof = (0, 1, 2, 3, 4, 3, 2, 0, 1)
        assert max_levels(prof[:7], 5) == ((1, LevelTriple(3, 4, 5, 1)), (2, LevelTriple(2, 4, 6, 2)))
        with pytest.raises(ValueError, match="unit steps"):
            max_levels(prof, 5)


@given(rough_profiles(), st.integers(-2, 45))
@settings(max_examples=400, deadline=None)
def test_sweep_refuses_exactly_what_the_step_pass_refuses(profile, window_end):
    assert_refused_as_the_step_pass_refuses(profile, window_end)


def run_profile(rng, length):
    """A unit-step profile of `length` positions made of monotone runs of
    1 to 299 steps, alternating up and down."""
    prof = [int(rng.integers(0, 50))]
    up = bool(rng.integers(0, 2))
    while len(prof) < length:
        for _ in range(int(rng.integers(1, 300))):
            prof.append(prof[-1] + (1 if up else -1))
        up = not up
    return tuple(prof[:length])


def assert_matches_reference(prof, window_ends):
    whole = reference_max_level(prof, len(prof) - 1)
    for window_end in window_ends:
        assert max_levels(prof, window_end) == (reference_max_level(prof, window_end), whole), window_end


def stairs(rise, fall, flights, start=0):
    """Flights of `rise` up-steps each followed by `fall` down-steps."""
    prof = [start]
    for _ in range(flights):
        prof += range(prof[-1] + 1, prof[-1] + rise + 1)
        prof += range(prof[-1] - 1, prof[-1] - fall - 1, -1)
    return tuple(prof)


class TestValleySweep:
    """The sweep settles each descent once, at its valley: long descents,
    windows that stop one midway and descents below the starting height,
    each compared with the era-record sweep, triples included."""

    def test_long_monotone_runs(self):
        rng = np.random.default_rng(20261020)
        for _ in range(60):
            prof = run_profile(rng, int(rng.integers(3, 2001)))
            assert_matches_reference(prof, (int(rng.integers(0, len(prof))), len(prof) - 1))

    @pytest.mark.parametrize(
        "prof",
        [
            tuple(range(1000)) + tuple(range(998, -1, -1)),  # mountain
            tuple(range(1000, -1, -1)) + tuple(range(1, 999)),  # one deep valley
            stairs(3, 1, 500),  # staircase up
            stairs(1, 3, 500, start=1500),  # staircase down
            stairs(1, 1, 1000, start=1),  # 1,2,1,2 bounce
            sum((stairs(t, t, 1)[1:] for t in range(1, 45)), (0,)),  # teeth growing
            sum((stairs(t, t, 1)[1:] for t in range(44, 0, -1)), (0,)),  # teeth shrinking
        ],
        ids=["mountain", "valley", "stairs-up", "stairs-down", "bounce", "teeth-growing", "teeth-shrinking"],
    )
    def test_shapes(self, prof):
        assert_matches_reference(prof, range(0, len(prof), 37))

    def test_window_ends_mid_descent(self):
        prof = tuple(range(9)) + tuple(range(7, -1, -1)) + (1, 2, 1, 0)
        # the descent 8..16 is still open at 12: era 4 closes there with k = 12
        assert max_levels(prof, 12) == ((4, LevelTriple(4, 8, 12, 4)), (8, LevelTriple(0, 8, 20, 8)))
        assert_matches_reference(prof, range(len(prof)))

    def test_descent_below_the_starting_height(self):
        prof = (3, 4, 5, 4, 3, 2, 1, 0, 1, 2, 3, 2, 1)
        # the start's era closes at 5 as the descent's last triple and fresh
        # eras open below it; the later rise only ties that 2-level (era 1)
        assert max_levels(prof, len(prof) - 1)[1] == (2, LevelTriple(0, 2, 4, 2))
        assert max_levels(prof, 6) == ((2, LevelTriple(0, 2, 4, 2)), (2, LevelTriple(0, 2, 4, 2)))
        assert_matches_reference(prof, range(len(prof)))
        assert_matches_reference((2, 1, 0, 1, 2, 3, 2, 1, 0, -1, 0, 1), range(12))

    def test_equal_kept_peaks_go_to_the_lowest_era(self):
        # eras 3 and 2 both keep a peak of 5 (from 10 and 4) when the descent
        # from 13 closes them; the lower era's earlier peak is the witness's j
        prof = (1, 2, 3, 4, 5, 4, 3, 2, 3, 4, 5, 4, 3, 4, 3, 2, 1, 0)
        assert max_levels(prof, len(prof) - 1)[1] == (4, LevelTriple(0, 4, 16, 4))
        assert_matches_reference(prof, range(len(prof)))

    def test_peak_memory_on_a_long_mountain(self):
        # 20 002 positions: three lists of ints indexed by height, no record per era
        prof = tuple(range(1, 10002)) + tuple(range(10000, -1, -1))
        expected = reference_max_level(prof, len(prof) - 1)
        tracemalloc.start()
        try:
            result = max_levels(prof, len(prof) - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (expected, expected)
        assert peak < 2**20


class TestBruteForce:
    def test_agrees_on_known_profiles(self):
        for prof, end in [
            ((1, 2, 3, 2, 1, 0), 5),
            ((1, 0), 1),
            ((1, 2, 1, 2, 1), 4),
            ((1, 2, 3, 4, 3, 2, 1, 2, 1, 0), 9),
        ]:
            assert brute_force_max_level(prof, end)[0] == max_levels(prof, end)[0][0]

    def test_lex_first_witness(self):
        # two disjoint 1-levels; the brute force reports the earliest
        level, witness = brute_force_max_level((1, 2, 1, 2, 1), 4)
        assert level == 1
        assert witness == LevelTriple(0, 1, 2, 1)


@st.composite
def unit_profiles(draw):
    start = draw(st.integers(0, 4))
    steps = draw(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=60))
    prof = [start]
    for s in steps:
        prof.append(prof[-1] + (1 if prof[-1] == 0 else s))
    return tuple(prof)


@given(unit_profiles(), st.integers(0, 70))
@settings(max_examples=200, deadline=None)
def test_sweep_matches_brute_force(profile, window_end):
    # both results of the one sweep: the window's and the whole run's
    last = len(profile) - 1
    for end, (fast_level, fast_witness) in zip((window_end, last), max_levels(profile, window_end)):
        slow_level, slow_witness = brute_force_max_level(profile, end)
        assert fast_level == slow_level
        assert (fast_witness is None) == (fast_level == 0)
        if fast_witness is not None:
            assert is_valid_level_triple(profile, fast_witness)
            assert fast_witness.k <= min(end, last)
            assert fast_witness.n == fast_level
        if slow_witness is not None:
            assert is_valid_level_triple(profile, slow_witness)


@given(unit_profiles(), st.integers(-2, 70), st.integers(-100, 100))
@settings(max_examples=200, deadline=None)
def test_shifting_every_height_keeps_max_levels(profile, window_end, c):
    # positions and N are shift-invariant, negative heights included
    shifted = tuple(h + c for h in profile)
    result = max_levels(shifted, window_end)
    assert result == max_levels(profile, window_end)
    # the reference reads a window end below 0 from the profile's end
    windowed = reference_max_level(shifted, max(window_end, 0))
    assert result == (windowed, reference_max_level(shifted, len(profile) - 1))


# Spans of a found run, taken whole by the sweep.

SPAN_LENGTHS = st.sampled_from([1, 2, BULK_RUN - 1, BULK_RUN, BULK_RUN + 1, 2 * BULK_RUN + 3])


@st.composite
def spanned_profiles(draw):
    """A unit-step profile of long climbs and descents, with runs marked as
    RunPath.runs marks them, (first step, count, transition index): each
    drawn climb or descent is one whole run, one from its second step, or
    none. Consecutive whole runs lie back to back."""
    prof = [draw(st.integers(0, 3))]
    runs = []
    for index in range(draw(st.integers(1, 6))):
        up = prof[-1] == 0 or draw(st.booleans())
        length = draw(SPAN_LENGTHS) if up else min(draw(SPAN_LENGTHS), prof[-1])
        first = len(prof) - 1
        h = prof[-1]
        prof += range(h + 1, h + length + 1) if up else range(h - 1, h - length - 1, -1)
        kind = draw(st.sampled_from(["whole", "whole", "second", "none"]))
        if kind == "whole":
            runs.append((first, length, index))
        elif kind == "second" and length > 1:
            runs.append((first + 1, length - 1, index))
    return tuple(prof), tuple(runs)


def span_window_ends(prof, runs):
    """Window ends inside each run, on its first and last step, and on
    each valley, plus the ends of the profile."""
    ends = {0, 1, len(prof) - 1}
    for first, count, _ in runs:
        ends.update((first, first + 1, first + (count + 1) // 2, first + count))
    ends.update(p for p in range(1, len(prof) - 1) if prof[p - 1] > prof[p] < prof[p + 1])
    return sorted(e for e in ends if e < len(prof))


@given(spanned_profiles(), st.data())
@settings(max_examples=200, deadline=None)
def test_profile_spans_cover_the_window_once_and_keep_each_run_whole(spanned, data):
    # windows that start or end inside a run, on its first or last
    # position, next to it or anywhere, and empty ones
    prof, runs = spanned
    last = len(prof) - 1
    marks = {0, last}
    for first, count, _ in runs:
        marks.update((first, first + 1, first + 2, first + (count + 1) // 2, first + count, first + count + 1))

    def bound(low):
        return st.sampled_from(sorted(m for m in marks if low <= m <= last)) | st.integers(low, last)

    lo = data.draw(bound(0))
    hi = data.draw(bound(lo - 1))
    spans = list(profile_spans(runs, lo, hi))
    assert [p for a, b, _ in spans for p in range(a, b + 1)] == list(range(lo, hi + 1))
    assert all(a <= b for a, b, _ in spans)
    # gaps are maximal: two never lie back to back
    assert all(x[2] is not None or y[2] is not None for x, y in zip(spans, spans[1:]))
    in_run = {p for first, count, _ in runs for p in range(first + 1, first + count + 1)}
    for a, b, index in spans:
        if index is None:
            assert in_run.isdisjoint(range(a, b + 1))
            continue
        assert any(first < a <= b <= first + count for first, count, i in runs if i == index)
        # positions a..b are entered by steps a-1..b-1, all one way by one
        assert {prof[p] - prof[p - 1] for p in range(a, b + 1)} in ({1}, {-1})


@given(spanned_profiles(), st.data())
@settings(max_examples=150, deadline=None)
def test_spans_taken_whole_match_the_sweep_and_the_brute_force(spanned, data):
    prof, runs = spanned
    ends = span_window_ends(prof, runs)
    for window_end in ends:
        assert max_levels(prof, window_end, runs) == max_levels(prof, window_end), window_end
    # one drawn end against the cubic oracle, for the window and the whole profile
    window_end = data.draw(st.sampled_from(ends))
    last = len(prof) - 1
    for end, (level, witness) in zip((window_end, last), max_levels(prof, window_end, runs)):
        assert level == brute_force_max_level(prof, end)[0]
        assert witness is None if level == 0 else is_valid_level_triple(prof, witness) and witness.k <= end


@given(spanned_profiles(), st.data())
@settings(max_examples=150, deadline=None)
def test_profile_extremes_read_off_the_spans_ends(spanned, data):
    # the range minima of the candidate walk and the JSON report's maximum
    prof, runs = spanned
    ends = span_window_ends(prof, runs)
    lo = data.draw(st.sampled_from(ends))
    hi = data.draw(st.sampled_from([e for e in ends if e >= lo]))
    for pick in (min, max):
        assert profile_extreme(pick, prof, runs, lo, hi) == pick(prof[lo : hi + 1])
        assert profile_extreme(pick, prof, runs, 0, len(prof) - 1) == pick(prof)


@pytest.mark.parametrize("start", [0, 5])
def test_spans_of_exactly_bulk_run_steps(start):
    # a climb and a descent of exactly BULK_RUN steps, each one run, back to
    # back, then one step up and a descent of BULK_RUN steps from its second
    # step: every window end against the sweep without spans and the oracle
    k = BULK_RUN
    prof = (start, *range(start + 1, start + k + 1), *range(start + k - 1, start - 1, -1))
    prof += (start + 1, start, *range(start + 1, start + k + 2), *range(start + k, start - 1, -1))
    climb2 = 2 * k + 2
    runs = ((0, k, 0), (k, k, 1), (climb2, k + 1, 2), (climb2 + k + 2, k, 3))
    for window_end in range(len(prof)):
        spanned = max_levels(prof, window_end, runs)
        assert spanned == max_levels(prof, window_end), window_end
        assert spanned[0][0] == brute_force_max_level(prof, window_end)[0], window_end
    assert max_levels(prof, len(prof) - 1, runs)[1][0] == k + 1


@pytest.mark.parametrize("first_peak", [BULK_RUN, 2 * BULK_RUN + 9])
def test_a_descent_straight_off_a_whole_climb_reads_the_eras_below_it(first_peak):
    # A climb and a descent step by step leave a peak in the era of height
    # 3; a whole climb of 2 * BULK_RUN steps starts there and a descent
    # falls straight off its crest to 1, below the climb, then climbs back.
    # The descent folds the kept peak of era 3, lower or higher than the
    # crest, and none of the climb's own eras. Every window end, inside the
    # climb, at its crest, on the descent and after it, against the sweep
    # without runs and the oracle.
    k = 2 * BULK_RUN
    prof = (2, *range(3, first_peak + 1), *range(first_peak - 1, 2, -1))
    climb = len(prof) - 1
    prof += (*range(4, k + 4), *range(k + 2, 0, -1), 2, 3)
    runs = ((climb, k, 0),)
    assert prof[climb + k] == k + 3 and prof[climb + k + 1] == k + 2
    for window_end in range(len(prof)):
        spanned = max_levels(prof, window_end, runs)
        assert spanned == max_levels(prof, window_end), window_end
        for end, (level, witness) in zip((window_end, len(prof) - 1), spanned):
            assert level == brute_force_max_level(prof, end)[0], window_end
            assert witness is None if level == 0 else is_valid_level_triple(prof, witness) and witness.k <= end


def test_the_found_run_of_a_strict_dyck_word_gives_its_levels_from_its_runs(dyck1):
    # (^6601 )^6601: a climb and a descent of one transition each; the strict
    # window ends 80 steps before the descent's end
    path = minimal_accepting_path(dyck1, "(" * 6601 + ")" * 6601)
    assert [(first, count) for first, count, _ in path.runs] == [(1, 6600), (6602, 6599)]
    levels = max_levels(path.profile, 13122, path.runs)
    assert levels == max_levels(path.profile, 13122)
    assert levels == ((6521, LevelTriple(80, 6601, 13122, 6521)), (6601, LevelTriple(0, 6601, 13202, 6601)))


class TestCutPositions:
    def test_last_push_first_pop(self):
        prof = (1, 2, 3, 4, 5, 4, 3, 2, 1, 0)
        t = LevelTriple(0, 4, 8, 4)
        cuts = flank_cuts(prof, t)
        assert cuts == [(0, 8), (1, 7), (2, 6), (3, 5), (4, 4)]
        assert cuts[3 - 1] == (2, 6)
        assert cuts[5 - 1] == (4, 4)
        assert flank_cuts(prof, t, 3) == [(2, 6), (3, 5), (4, 4)]
        assert flank_cuts(prof, t, 5) == [(4, 4)]

    def test_revisited_height_picks_last_and_first(self):
        prof = (1, 2, 1, 2, 3, 2, 1)
        t = LevelTriple(0, 4, 6, 2)
        assert flank_cuts(prof, t)[2 - 1] == (3, 5)
        assert flank_cuts(prof, t, 2) == [(3, 5), (4, 4)]

    def test_out_of_range_height(self):
        prof = (1, 2, 3, 2, 1, 0)
        t = LevelTriple(0, 2, 4, 2)
        with pytest.raises(ValueError):
            flank_cuts(prof, t, 4)
        with pytest.raises(ValueError):
            flank_cuts(prof, t, 0)

    def test_height_missing_on_a_flank(self):
        # the falling flank of (0, 2, 3) never returns to height 1; the
        # rising flank of the non-unit profile never sits at height 2
        with pytest.raises(ValueError, match="falling flank"):
            flank_cuts((1, 2, 3, 2, 1, 0), LevelTriple(0, 2, 3, 2))
        with pytest.raises(ValueError, match="rising flank"):
            flank_cuts((1, 3, 2, 1), LevelTriple(0, 1, 3, 2))

    def test_scan_stops_once_every_height_is_found(self):
        reads = []

        class Counted(tuple):
            def __getitem__(self, index):
                reads.append(index)
                return tuple.__getitem__(self, index)

        prof = Counted(tuple(range(1001)) + tuple(range(999, -1, -1)))
        cuts = flank_cuts(prof, LevelTriple(0, 1000, 2000, 1000), 997)
        assert cuts == [(997, 1003), (998, 1002), (999, 1001), (1000, 1000)]
        assert len(reads) < 20


def reference_flank_cuts(profile, triple, bottom):
    """Per height, the last position at it on [i, j] and the first on [j, k]."""
    cuts = []
    for h in range(bottom, profile[triple.j] + 1):
        lp = max(y for y in range(triple.i, triple.j + 1) if profile[y] == h)
        fp = min(y for y in range(triple.j, triple.k + 1) if profile[y] == h)
        cuts.append((lp, fp))
    return cuts


@given(unit_profiles())
@settings(max_examples=200, deadline=None)
def test_flank_cuts_match_a_scan_per_height(profile):
    # the max-level witness of every window, at every bottom
    for window_end in range(len(profile)):
        _, witness = max_levels(profile, window_end)[0]
        if witness is None:
            continue
        for bottom in range(profile[witness.i], profile[witness.j] + 1):
            expected = reference_flank_cuts(profile, witness, bottom)
            assert flank_cuts(profile, witness, bottom) == expected
            if bottom == profile[witness.i]:
                assert flank_cuts(profile, witness) == expected


class TestConfigurations:
    def test_top_first_with_padding(self, dyck1):
        path = minimal_accepting_path(dyck1, "()")
        assert configuration_keys(path, 1, 2)[1] == ("q0", ("X", BOTTOM))
        assert configuration_keys(path, 1, 3)[1] == ("q0", ("X", BOTTOM, BLANK))
        assert configuration_keys(path, 3, 2)[3] == ("qf", (BLANK, BLANK))

    def test_depth_zero_is_state_only(self, dyck1):
        path = minimal_accepting_path(dyck1, "()")
        assert configuration_keys(path, 0, 0) == [("q0", ())]
        with pytest.raises(ValueError):
            configuration_keys(path, 0, -1)
        with pytest.raises(ValueError):
            configuration_keys(path, len(path.steps), -1)

    def test_positions_outside_the_run_raise(self, dyck1):
        path = minimal_accepting_path(dyck1, "()")
        for pos in (-1, 4, 99):
            with pytest.raises(IndexError):
                configuration_keys(path, pos, 1)
            with pytest.raises(IndexError):
                list(path.stacks(pos))

    def test_batch_matches_single(self, dyck1):
        # each position read on its own from state_at and stack_at
        path = minimal_accepting_path(dyck1, "(())")
        for depth in (0, 1, 2, 4):
            single = []
            for pos in range(len(path.steps) + 1):
                top_first = tuple(reversed(path.stack_at(pos)))[:depth]
                single.append((path.state_at(pos), top_first + (BLANK,) * (depth - len(top_first))))
            assert configuration_keys(path, len(path.steps), depth) == single


@st.composite
def corpus_runs(draw):
    """A minimal accepting run of a corpus word on a normalized builtin."""
    entry = BUILTINS[draw(st.sampled_from(sorted(BUILTINS)))]
    return minimal_accepting_path(normalize(entry.pda), entry.generate(draw(st.integers(1, 12))))


@given(corpus_runs(), st.integers(0, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_tuple_readers_match_each_position(path, depth, data):
    last = len(path.steps)
    keys = configuration_keys(path, last, depth)
    # each position read on its own, blank padding included
    for pos, (state, top_first) in enumerate(keys):
        stack = tuple(reversed(path.stack_at(pos)))[:depth]
        assert (state, top_first) == (path.state_at(pos), stack + (BLANK,) * (depth - len(stack)))
    for pos in (-1, last + 1):
        with pytest.raises(IndexError):
            configuration_keys(path, pos, depth)

    _, witness = max_levels(path.profile, last)[0]
    if witness is None:
        return
    bottom = data.draw(st.integers(path.profile[witness.i], path.profile[witness.j]))
    cuts = flank_cuts(path.profile, witness, bottom)
    keys = full_state_keys(path, cuts)
    for (lp, fp), (push_state, top, pop_state) in zip(cuts, keys):
        assert (push_state, top, pop_state) == (path.state_at(lp), path.stack_at(lp)[-1], path.state_at(fp))
    (lp, fp), *rest = cuts
    for bad in ([(lp, last + 1), *rest], [(-1, fp), *rest]):
        with pytest.raises(IndexError):
            full_state_keys(path, bad)


class TestFullState:
    def test_dyck1_golden_run(self, dyck1):
        path = minimal_accepting_path(dyck1, "(((())))")
        t = LevelTriple(0, 4, 8, 4)
        cuts = flank_cuts(path.profile, t)
        assert full_state_keys(path, cuts) == [("q0", BOTTOM, "q0")] + [("q0", "X", "q0")] * 4

    def test_mismatched_tops_raise(self, mismatched_tops_path):
        cuts = flank_cuts(mismatched_tops_path.profile, LevelTriple(0, 2, 4, 2))
        with pytest.raises(TopSymbolMismatchError, match="height 2: top symbol 'X' at position 1 but 'Y' at position 3"):
            full_state_keys(mismatched_tops_path, cuts)

    def test_bad_cut_lists_are_refused_naming_the_cut(self, dyck1):
        path = minimal_accepting_path(dyck1, "(())")
        assert path.profile == (1, 2, 3, 2, 1, 0)
        with pytest.raises(ValueError, match="at least one cut"):
            full_state_keys(path, [])
        # position 5 lies at height 0, not at the cut's height 2
        with pytest.raises(ValueError, match=r"cut \(1, 5\) is not at height 2"):
            full_state_keys(path, [(1, 5)])
        # a list that skips height 2: its second cut must lie at height 2
        with pytest.raises(ValueError, match=r"cut \(2, 2\) is not at height 2: the profile reads 3 and 3"):
            full_state_keys(path, [(0, 4), (2, 2)])

    def test_work_follows_the_cuts_not_the_run(self, dyck1, monkeypatch):
        """Only a cut at the run's end walks the stacks; every other cut
        reads a bounded number of steps and heights."""
        walks = []
        stacks = RunPath.stacks

        def counted(path, last_pos):
            walks.append(last_pos)
            return stacks(path, last_pos)

        monkeypatch.setattr(RunPath, "stacks", counted)
        path = minimal_accepting_path(dyck1, "(" * 3000 + ")" * 3000)
        steps, profile = CountedReads(path.steps), CountedReads(path.profile)
        counted_path = replace(path, steps=steps, profile=profile)
        for bottom in (1, 2000, 2993, 3001):
            cuts = flank_cuts(path.profile, LevelTriple(0, 3000, 6000, 3000), bottom)
            steps.reads = profile.reads = 0
            assert full_state_keys(counted_path, cuts) == full_state_keys(path, cuts)
            assert steps.reads <= 4 * len(cuts), bottom
            assert profile.reads <= 2 * len(cuts) + 1, bottom
        assert walks == []
        # the run ends on the empty stack, height 0, after popping the bottom
        last = len(path.steps)
        assert full_state_keys(counted_path, [(last, last)]) == [("qf", None, "qf")]
        assert walks == [last, last]


class CountedReads(tuple):
    """A tuple that counts the items read from it by index, slices item by
    item."""

    reads = 0

    def __getitem__(self, key):
        self.reads += len(range(*key.indices(len(self)))) if isinstance(key, slice) else 1
        return super().__getitem__(key)


@st.composite
def drawn_runs(draw):
    """A run of a drawn normalized machine over {a, b}, drawn step by step;
    it ends wherever the drawing stops, in the machine's one accept state."""
    symbols = (BOTTOM, "A", "B")
    states = ("q0", "q1")
    transitions = draw(
        st.lists(
            st.builds(
                NormalizedTransition,
                source=st.sampled_from(states),
                letter=st.sampled_from("ab"),
                pop=st.sampled_from(symbols),
                extra=st.one_of(st.none(), st.sampled_from(symbols[1:])),
                target=st.sampled_from(states),
            ),
            min_size=1,
            max_size=8,
        )
    )
    state, stack, steps = "q0", [BOTTOM], []
    for _ in range(draw(st.integers(0, 30))):
        moves = [t for t in transitions if t.source == state and stack and stack[-1] == t.pop]
        if not moves:
            break
        t = draw(st.sampled_from(moves))
        stack.pop()
        stack.extend(t.push)
        state = t.target
        steps.append(t)
    pda = NormalizedPda(states, ["a", "b"], symbols, "q0", [BOTTOM], [state], transitions)
    path = replay(pda, steps, "".join(t.letter for t in steps))
    assert isinstance(path, RunPath)
    return path


@given(drawn_runs(), st.data())
@settings(max_examples=300, deadline=None)
def test_full_state_keys_match_the_stack_walk_on_drawn_runs(path, data):
    """Cuts at any positions of consecutive heights, the first sometimes
    ending at the run's end, read as (state_at(lp), stack_at(lp)[-1],
    state_at(fp)) after the top symbols at lp and fp are compared."""
    profile, last = path.profile, len(path.steps)
    at_end = data.draw(st.booleans())
    lo = profile[last] if at_end else profile[data.draw(st.integers(0, last))]
    cuts = []
    for h in range(lo, lo + data.draw(st.integers(1, 4))):
        positions = [pos for pos, s in enumerate(profile) if s == h]
        if not positions:
            break
        lp = data.draw(st.sampled_from(positions))
        cuts.append((lp, last if at_end and h == lo else data.draw(st.sampled_from(positions))))

    def top(pos):
        stack = path.stack_at(pos)
        return stack[-1] if stack else None

    expected = []
    for h, (lp, fp) in enumerate(cuts, lo):
        if top(lp) != top(fp):
            with pytest.raises(TopSymbolMismatchError, match=f"^height {h}: "):
                full_state_keys(path, cuts)
            return
        expected.append((path.state_at(lp), top(lp), path.state_at(fp)))
    assert full_state_keys(path, cuts) == expected


class TestSublevel:
    """The lowest flank cuts from s_j - target up bound the target-level
    around the same peak."""

    def test_shrinks_to_target(self):
        prof = (1, 2, 3, 4, 5, 4, 3, 2, 1, 0)
        t = LevelTriple(0, 4, 8, 4)
        assert flank_cuts(prof, t, prof[t.j] - 2)[0] == (2, 6)

    def test_picks_tight_positions_on_oscillation(self):
        prof = (1, 2, 1, 2, 3, 2, 3, 2, 1)
        t = LevelTriple(0, 4, 8, 2)
        assert flank_cuts(prof, t, prof[t.j] - 1)[0] == (3, 5)

    def test_identity_at_full_level(self):
        prof = (1, 2, 3, 2, 1, 0)
        t = LevelTriple(0, 2, 4, 2)
        assert flank_cuts(prof, t, prof[t.j] - 2)[0] == (t.i, t.k)

    @given(unit_profiles())
    @settings(max_examples=120, deadline=None)
    def test_sublevels_always_valid(self, profile):
        level, witness = max_levels(profile, len(profile) - 1)[0]
        if witness is None:
            return
        for target in range(1, level + 1):
            lp, fp = flank_cuts(profile, witness, profile[witness.j] - target)[0]
            assert is_valid_level_triple(profile, LevelTriple(lp, witness.j, fp, target))
