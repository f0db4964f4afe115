import gc
import os
import platform
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpkit import (
    BOTTOM,
    BUILTINS,
    DEFAULT_N_SET,
    Accepted,
    ExtractionMode,
    LimitExceeded,
    NormalizedPda,
    NormalizedTransition,
    NotAccepted,
    ReplayError,
    RunPath,
    SearchLimits,
    accepts,
    accepts_each,
    default_limits,
    extract,
    minimal_accepting_path,
    normalize,
    pumped_word,
    replay,
)


def oracle_min_accepting_length(pda, word, max_len=12):
    """Breadth-first enumeration of raw transition sequences, no dedup.

    Independent of the search under test: works on explicit stacks and
    returns the length of the shortest accepting sequence, or None.
    """
    n = len(word)
    start = (pda.initial_state, 0, tuple(pda.initial_stack), 0)
    queue = deque([start])
    while queue:
        state, pos, stack, depth = queue.popleft()
        if state in pda.accept_states and pos == n:
            return depth
        if depth == max_len or not stack:
            continue
        for t in pda.transitions:
            if t.source != state or stack[-1] != t.pop:
                continue
            npos = pos
            if t.letter is not None:
                if pos >= n or word[pos] != t.letter:
                    continue
                npos = pos + 1
            queue.append((t.target, npos, stack[:-1] + t.push, depth + 1))
    return None


class TestMinimalPath:
    def test_dyck1_simple(self, dyck1):
        path = minimal_accepting_path(dyck1, "()")
        assert isinstance(path, RunPath)
        assert path.profile == (1, 2, 1, 0)
        assert [t.letter for t in path.steps] == ["(", ")", None]
        assert path.state_at(0) == "q0"
        assert path.state_at(3) == "qf"
        assert path.stack_at(1) == (BOTTOM, "X")
        assert path.stack_at(3) == ()

    def test_positions_outside_the_run_raise(self, dyck1):
        path = minimal_accepting_path(dyck1, "()")
        for pos in (-1, 4, 99):
            with pytest.raises(IndexError):
                path.stack_at(pos)
            with pytest.raises(IndexError):
                path.state_at(pos)

    def test_empty_word(self, dyck1):
        path = minimal_accepting_path(dyck1, "")
        assert isinstance(path, RunPath)
        assert path.profile == (1, 0)
        assert len(path.steps) == 1

    def test_rejection_is_proved_not_truncated(self, dyck1):
        assert isinstance(minimal_accepting_path(dyck1, "(()"), NotAccepted)
        assert isinstance(minimal_accepting_path(dyck1, ")("), NotAccepted)

    def test_matches_oracle_on_corpus_words(self):
        for name in ("DYCK1", "REG_AB", "ANBN"):
            entry = BUILTINS[name]
            for m in (1, 2, 3):
                word = entry.generate(m)
                expected = oracle_min_accepting_length(entry.pda, word, max_len=4 * len(word) + 4)
                path = minimal_accepting_path(entry.pda, word)
                assert isinstance(path, RunPath), (name, word)
                assert len(path.steps) == expected, (name, word)

    def test_tie_break_follows_declared_order(self):
        def machine(order):
            return NormalizedPda(
                states=["q0", "qf"],
                input_alphabet=["a"],
                stack_alphabet=[BOTTOM, "A", "B"],
                initial_state="q0",
                initial_stack=[BOTTOM],
                accept_states=["qf"],
                transitions=[
                    NormalizedTransition("q0", "a", BOTTOM, sym, "qf") for sym in order
                ],
            )

        first = minimal_accepting_path(machine(["A", "B"]), "a")
        assert first.steps[0].extra == "A"
        second = minimal_accepting_path(machine(["B", "A"]), "a")
        assert second.steps[0].extra == "B"

    def test_deterministic_across_calls(self, gen_pal):
        from pumpkit import normalize

        npda = normalize(gen_pal)
        a = minimal_accepting_path(npda, "0110")
        b = minimal_accepting_path(npda, "0110")
        assert a.steps == b.steps
        assert a.profile == b.profile

    def test_unnormalized_machine_is_refused(self, gen_pal):
        with pytest.raises(TypeError, match="normalize it first"):
            minimal_accepting_path(gen_pal, "0110")

    def test_step_limit(self, dyck1):
        out = minimal_accepting_path(dyck1, "(())", SearchLimits(2, 100))
        assert isinstance(out, LimitExceeded)
        assert out.by_steps

    def test_height_limit(self, dyck1):
        out = minimal_accepting_path(dyck1, "(())", SearchLimits(100, 2))
        assert isinstance(out, LimitExceeded)
        assert out.by_height

    def test_exact_limits_still_succeed(self, dyck1):
        out = minimal_accepting_path(dyck1, "(())", SearchLimits(5, 3))
        assert isinstance(out, RunPath)
        assert len(out.steps) == 5

    def test_epsilon_loop_hits_limits_not_false_rejection(self):
        pda = NormalizedPda(
            states=["q"],
            input_alphabet=["a"],
            stack_alphabet=[BOTTOM, "A"],
            initial_state="q",
            initial_stack=[BOTTOM],
            accept_states=[],
            transitions=[
                NormalizedTransition("q", None, BOTTOM, "A", "q"),
                NormalizedTransition("q", None, "A", "A", "q"),
            ],
        )
        out = minimal_accepting_path(pda, "a")
        assert isinstance(out, LimitExceeded)
        assert out.by_steps or out.by_height


class TestAccepts:
    def test_membership_verdicts(self, dyck1):
        assert isinstance(accepts(dyck1, "(())"), Accepted)
        assert isinstance(accepts(dyck1, "(()"), NotAccepted)

    def test_general_machine_membership(self, gen_pal):
        assert isinstance(accepts(gen_pal, ""), Accepted)
        assert isinstance(accepts(gen_pal, "0110"), Accepted)
        assert isinstance(accepts(gen_pal, "01"), NotAccepted)
        assert isinstance(accepts(gen_pal, "0110011001100110"), Accepted)

    def test_default_limits_scale_with_word(self, gen_pal):
        limits = default_limits(gen_pal, "0" * 9)
        assert limits.max_steps >= 100

    def test_limit_verdict(self, dyck1):
        out = accepts(dyck1, "(())", SearchLimits(2, 2))
        assert isinstance(out, LimitExceeded)

    def test_batch_takes_one_set_of_limits(self, dyck1):
        assert accepts_each(dyck1, []) == ()
        # The batch's limits cut the longer word only, as its own search is cut.
        assert accepts_each(dyck1, ["()", "((()))"], SearchLimits(5, 5)) == (
            Accepted(),
            LimitExceeded(by_steps=True, by_height=False),
        )
        assert accepts(dyck1, "((()))", SearchLimits(5, 5)) == LimitExceeded(by_steps=True, by_height=False)


class TestReplay:
    def test_replay_reproduces_search_path(self, dyck1):
        path = minimal_accepting_path(dyck1, "(())")
        again = replay(dyck1, path.steps, "(())")
        assert isinstance(again, RunPath)
        assert again.profile == path.profile
        assert again == path

    def test_replay_error_reasons(self, dyck1):
        t0, t1, t2, t3 = dyck1.transitions

        out = replay(dyck1, [t2], "")
        assert out == ReplayError(0, "inapplicable")

        out = replay(dyck1, [t0], ")")
        assert out == ReplayError(0, "input-mismatch")

        out = replay(dyck1, [t0], "(")
        assert out == ReplayError(1, "not-accepting")

        out = replay(dyck1, [t3], "(")
        assert out == ReplayError(1, "input-remaining")

    def test_a_step_outside_the_machine_is_inapplicable(self, dyck1):
        # it would fire from the initial description and accept "a", a word
        # outside the language, if replay took any step it was handed
        stranger = NormalizedTransition("q0", "a", BOTTOM, None, "qf")
        assert replay(normalize(dyck1), [stranger], "a") == ReplayError(0, "inapplicable")
        t0, t1, t2, _ = dyck1.transitions
        assert replay(dyck1, [t0, t2, stranger], "()a") == ReplayError(2, "inapplicable")
        # the first offending step is named, whichever check finds it
        assert replay(dyck1, [t0, t1, stranger], "()a") == ReplayError(1, "input-mismatch")
        assert replay(dyck1, [t0, stranger, t1], "(a(") == ReplayError(1, "inapplicable")

    def test_steps_equal_to_the_machines_are_found_by_value(self, dyck1):
        path = minimal_accepting_path(dyck1, "(())")
        copies = [NormalizedTransition(t.source, t.letter, t.pop, t.extra, t.target) for t in path.steps]
        assert not any(c is t for c, t in zip(copies, path.steps))
        again = replay(dyck1, copies, "(())")
        assert again == path
        # the run holds the machine's own transitions
        assert all(any(t is u for u in dyck1.transitions) for t in again.steps)


@given(st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_found_paths_replay_to_themselves(m):
    for name in ("DYCK1", "REG_AB", "ANBN"):
        entry = BUILTINS[name]
        word = entry.generate(m)
        path = minimal_accepting_path(entry.pda, word)
        assert isinstance(path, RunPath)
        again = replay(entry.pda, path.steps, word)
        assert isinstance(again, RunPath)
        assert again.profile == path.profile
        # unit steps by construction on normalized machines
        assert all(abs(a - b) == 1 for a, b in zip(path.profile, path.profile[1:]))


def _tracked_net(search, entry, m):
    """Tracked objects allocated and not freed across one search, counted
    with the collector off so no collection resets the counter."""
    word = entry.generate(m)
    limits = default_limits(entry.pda, word)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        search(entry.pda, word, limits)
        return gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()


def _searched_minimal_run(pda, word, limits):
    """minimal_accepting_path of the normalized machine: on GEN_PAL the
    breadth-first search, since its run is not unique."""
    return minimal_accepting_path(normalize(pda), word, limits)


@pytest.mark.parametrize(
    "name, search",
    [
        ("DYCK1", accepts),
        ("DYCK1", minimal_accepting_path),
        ("GEN_PAL", accepts),
        ("GEN_PAL", _searched_minimal_run),
    ],
    ids=["accepts-DYCK1", "minimal_accepting_path-DYCK1", "accepts-GEN_PAL", "minimal_accepting_path-GEN_PAL"],
)
@pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="gc.get_count()[0] is CPython's count of tracked allocations",
)
def test_searches_allocate_no_tracked_object_per_description(name, search):
    # Descriptions, stack cells and the parent chain are plain ints, which the
    # cyclic collector does not track, so the count stays flat in the word.
    # DYCK1's minimal run is walked on a list of ints, GEN_PAL's searched.
    entry = BUILTINS[name]
    assert _tracked_net(search, entry, 1000) <= _tracked_net(search, entry, 100) + 10


def _traced_peak(search) -> int:
    """Peak bytes allocated by one call, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        search()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_search_peak_stays_within_the_longest_word():
    # The five best-effort pumped words of a GEN_PAL palindrome share a
    # prefix. The batch searches one chain at a time, the common prefix and
    # then each word's remainder, and frees its visited set and queue after
    # each, so its peak is at most one word's search. (GEN_PAL keeps the
    # breadth-first search; on DYCK1 both peaks are the interned cells of
    # one deep stack.)
    entry = BUILTINS["GEN_PAL"]
    pda = normalize(entry.pda)
    d = extract(pda, entry.generate(400), mode=ExtractionMode.BEST_EFFORT).decomposition
    words = [pumped_word(d, n) for n in DEFAULT_N_SET]
    assert len(set(words)) == 5
    batch = _traced_peak(lambda: accepts_each(pda, words))
    assert batch <= _traced_peak(lambda: accepts(pda, max(words, key=len)))


def test_a_walked_search_holds_no_description_per_letter():
    # The search walks a Dyck word's one description per level without
    # keys, a visited set or a queue: what is left is one interned cell per
    # stack symbol.
    word = "(" * 6601 + ")" * 6601
    peak = _traced_peak(lambda: accepts(BUILTINS["DYCK1"].pda, word))
    assert peak < 120 * len(word)


@pytest.fixture
def searched_letters(monkeypatch):
    """The letters each _search_chain call covers, in call order."""
    from pumpkit import search as search_module

    letters = []
    search = search_module._search_chain

    def counted(word, start, end, *rest):
        letters.append(end - start)
        return search(word, start, end, *rest)

    monkeypatch.setattr(search_module, "_search_chain", counted)
    return letters


def test_batch_search_covers_little_more_than_the_longest_word(searched_letters):
    # The five pumped words share their first 6600 letters and end in the
    # same 6600 closing parentheses. The common prefix and the five
    # remainders alone search 3.0 times the longest word's letters; with the
    # common suffix searched once and reused by the other four words, the
    # batch searches at most 1.1 times.
    letters = searched_letters
    pda = BUILTINS["DYCK1"].pda
    word = "(" * 6601 + ")" * 6601
    d = extract(pda, word, mode=ExtractionMode.STRICT).decomposition
    words = [pumped_word(d, n) for n in DEFAULT_N_SET]
    longest = max(words, key=len)
    letters.clear()
    assert accepts_each(pda, words) == (Accepted(),) * 5
    batch = sum(letters)
    letters.clear()
    assert accepts(pda, longest) == Accepted()
    assert sum(letters) == len(longest)
    assert batch <= 1.1 * len(longest)


def test_batch_search_joins_a_shared_tail_without_letter_runs(searched_letters):
    # Best-effort DYCK1 on (())^400 pumps at the word's front, so the five
    # pumped words share a tail of about 1600 letters without a run of
    # BULK_RUN equal letters, which the search walks step by step. With
    # that tail searched once and reused by the other four words, the batch
    # covers 1618 letters against the longest word's 1606; each word
    # searched from the fork to its end would cover 8006.
    pda = BUILTINS["DYCK1"].pda
    d = extract(pda, "(())" * 400, mode=ExtractionMode.BEST_EFFORT).decomposition
    words = [pumped_word(d, n) for n in DEFAULT_N_SET]
    assert accepts_each(pda, words) == (Accepted(),) * 5
    assert sum(searched_letters) <= 1.1 * max(map(len, words))


def test_batch_search_covers_a_suffix_that_starts_in_the_prefix_once(searched_letters):
    # Best-effort DYCK1 on (()())^267 pumps v = "(" and y = ")" around an
    # empty x after the first letter, so the n = 0 word, "(" + z, ends in
    # the common suffix z from its second letter, inside the two-letter
    # common prefix. Clamped to start at the fork, the suffix is searched
    # once: 1620 letters against the longest word's 1608, where the join
    # inside the prefix searched it twice (3215).
    pda = BUILTINS["DYCK1"].pda
    d = extract(pda, "(()())" * 267, mode=ExtractionMode.BEST_EFFORT).decomposition
    words = [pumped_word(d, n) for n in DEFAULT_N_SET]
    assert accepts_each(pda, words) == (Accepted(),) * 5
    assert sum(searched_letters) <= 1.1 * max(map(len, words))


def test_joins_stop_once_a_suffix_cannot_be_shared(monkeypatch):
    # A GEN_PAL stack holds the letters read so far, so the pumped words
    # reach their common suffix on different stacks, made under their own
    # leaves: a suffix stored for one of them dies with its leaf's cells.
    # The first such join stops the joins, and the later leaves are each
    # searched as one chain from their fork.
    from pumpkit import normalize
    from pumpkit import search as search_module

    starts = []
    search = search_module._search_chain

    def recorded(word, start, end, leaf, *rest):
        if leaf:
            starts.append((len(word), start))
        return search(word, start, end, leaf, *rest)

    monkeypatch.setattr(search_module, "_search_chain", recorded)
    entry = BUILTINS["GEN_PAL"]
    pda = normalize(entry.pda)
    d = extract(pda, entry.generate(50), mode=ExtractionMode.BEST_EFFORT).decomposition
    words = [pumped_word(d, n) for n in DEFAULT_N_SET]
    tail = len(os.path.commonprefix([w[::-1] for w in words]))
    assert tail > 0
    assert accepts_each(pda, words) == (Accepted(),) * 5
    from_joins = [length for length, start in starts if start == length - tail]
    assert len(from_joins) == 2
