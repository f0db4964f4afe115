"""Runs of a stationary move or of a bounce, taken in one bulk step,
against the per-step loops they replace.

A letter move is stationary when it lands back in the slot it fired from:
same state, same top symbol. A bounce is two letter moves that do the same
together: a push, then a pop of what it pushed back into the first move's
state. run.walk, run._follow_run and search._walk take a run of at least
BULK_RUN equal letters read by a stationary move, or of BULK_RUN copies of
a bounce's two letters, in one bulk step, testing the moves once, from the
run's second copy on. On drawn machines and words with runs of
BULK_RUN - 1, BULK_RUN and BULK_RUN + 1 copies, some cut by the end of the
word, the end of a chain or a limit, on Dyck words whose pop run starts on
cells pushed one at a time, and on hand-made bounce runs, each loop must
give what its per-step reference in oracles.py gives: the same run, the
same description and interned cells, the same state and position or
ReplayError, and the same verdicts. Words that are not a str keep the
per-step path, and every entry point must answer for them as for the str
word. The found run keeps the runs of one stationary move its walk took in
bulk as RunPath.runs, and is otherwise the run the per-step walk builds.
"""

from itertools import accumulate
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_follow_run, reference_search_walk, reference_walk
from test_run_reference import DATA, one_run_machines, walk_machines

from pumpkit import (
    BOTTOM,
    Accepted,
    BUILTINS,
    ExtractionMode,
    GeneralPda,
    GeneralTransition,
    LimitExceeded,
    NormalizedPda,
    NormalizedTransition,
    NotAccepted,
    ReplayError,
    RunPath,
    SearchLimits,
    accepts,
    accepts_each,
    extract,
    load_path,
    minimal_accepting_path,
    normalize,
    replay,
    verify,
)
from pumpkit import run as run_module
from pumpkit import search as search_module
from pumpkit.run import BULK_RUN
from pumpkit.search import membership_tables

T = NormalizedTransition
RUN_LENGTHS = st.sampled_from([BULK_RUN - 1, BULK_RUN, BULK_RUN + 1, 2 * BULK_RUN + 1])
BULK_HELPERS = {"_follow_bulk": run_module, "_walk_bulk": run_module, "_search_bulk": search_module}


def _stationary(t) -> bool:
    return t.letter is not None and t.target == t.source and t.push in ((t.pop, t.pop), ())


def _bounce(pda, t):
    """The move of pda that pops what the letter move t pushes, on another
    letter, back into t's source, so that t and it are a bounce; or None."""
    if t.letter is None or len(t.push) != 2 or t.push[0] != t.pop:
        return None
    back = (t.target, t.push[1], (), t.source)
    return next((u for u in pda.transitions if (u.source, u.pop, u.push, u.target) == back and u.letter not in (None, t.letter)), None)


def _drawn_run(draw, pda, state, stack, moves=6):
    """Steps drawn off pda from state and stack (a list, updated): each
    takes a drawn move of the current slot, and a stationary letter move,
    or a bounce, is repeated a drawn number of times while it fires.
    Returns the steps, their letters, the state reached and the peak
    height."""
    steps, letters, peak = [], [], len(stack)
    for _ in range(draw(st.integers(moves // 2, moves))):
        fits = [t for t in pda.transitions if stack and (t.source, t.pop) == (state, stack[-1])]
        if not fits:
            break
        runs = [t for t in fits if _stationary(t) or _bounce(pda, t)]
        t = draw(st.sampled_from(runs if runs and draw(st.sampled_from([True, True, True, False])) else fits))
        u = _bounce(pda, t) if not _stationary(t) or draw(st.booleans()) else None
        for move in ((t, u) if u else (t,)) * (draw(RUN_LENGTHS) if _stationary(t) or u else 1):
            if not stack or (move.source, move.pop) != (state, stack[-1]):
                break
            stack.pop()
            stack.extend(move.push)
            state = move.target
            steps.append(move)
            peak = max(peak, len(stack))
            if move.letter is not None:
                letters.append(move.letter)
    return steps, letters, state, peak


@st.composite
def stationary_machines(draw):
    """Normalized machines with one or two states with moves, most of
    whose letter moves are stationary: in each slot, each letter has no
    move, a push of the top symbol's copy, a pop or a drawn move, back into
    its state, or a push of A into a drawn state that pops it back on the
    other letter, a bounce; some slots have an epsilon move instead, and
    some moves go into the move-less d. Most are deterministic, so the
    one-run walk follows them."""
    live = ["q0", "q1"][: draw(st.integers(1, 2))]
    symbols = [BOTTOM, "A", "B"]
    extras = st.sampled_from([None, *symbols])
    transitions = []
    for q in live:
        for top in symbols:
            if draw(st.sampled_from([False, False, False, False, True])):
                transitions.append(T(q, None, top, draw(extras), draw(st.sampled_from([*live, "d"]))))
                continue
            for letter in "ab":
                kind = draw(st.sampled_from(["push", "pop", "pop", "drawn", "none", "bounce"]))
                if kind == "bounce":
                    other = draw(st.sampled_from(live))
                    transitions.append(T(q, letter, top, "A", other))
                    transitions.append(T(other, "b" if letter == "a" else "a", "A", None, q))
                elif kind == "push":
                    transitions.append(T(q, letter, top, top, q))
                elif kind == "pop":
                    transitions.append(T(q, letter, top, None, q))
                elif kind == "drawn":
                    transitions.append(T(q, letter, top, draw(extras), draw(st.sampled_from([*live, "d"]))))
    states = [*live, "d"]
    return NormalizedPda(
        states=states,
        input_alphabet=["a", "b"],
        stack_alphabet=symbols,
        initial_state="q0",
        initial_stack=[BOTTOM, *draw(st.lists(st.sampled_from(symbols), max_size=3))],
        accept_states=draw(st.sets(st.sampled_from(states))),
        transitions=transitions,
    )


@pytest.fixture
def bulk_steps(monkeypatch):
    """The letters each call of a bulk helper took, by helper."""
    taken = {name: [] for name in BULK_HELPERS}
    for name, record in taken.items():
        module = BULK_HELPERS[name]
        original = getattr(module, name)

        def counted(*args, original=original, record=record):
            out = original(*args)
            record.append(out if isinstance(out, int) else out[1])
            return out

        monkeypatch.setattr(module, name, counted)
    return taken


# The one-run walk of minimal_accepting_path.


@st.composite
def one_run_words(draw):
    """A machine of one_run_machines, a word read off it with runs of its
    stationary moves and a few drawn letters after them, and limits either
    wide or within a few steps of the run's length and peak."""
    pda = draw(st.one_of(stationary_machines(), stationary_machines(), one_run_machines()))
    stack = list(pda.initial_stack)
    steps, letters, _, peak = _drawn_run(draw, pda, pda.initial_state, stack)
    word = "".join(letters) + draw(st.text("ab", max_size=3))
    near = st.builds(
        SearchLimits,
        st.integers(max(0, len(steps) - 3), len(steps) + 3),
        st.integers(max(0, peak - 2), peak + 2),
    )
    return pda, word, draw(st.one_of(st.just(SearchLimits(500, 500)), near))


def _indices(pda, word, indices, runs=()):
    """The transition indices handed to _run_path, after checking that each
    of its runs names a stretch of them that repeats the run's index."""
    for first, count, index in runs:
        assert count > 0 and list(indices[first : first + count]) == [index] * count
    assert [first for first, _, _ in runs] == sorted({first for first, _, _ in runs})
    return list(indices)


def _follow(follow_run, pda, word, limits):
    """What each call of follow_run returned inside minimal_accepting_path:
    the transition indices of the run it built, NotAccepted, or None where
    it handed the word to the search."""
    outcomes = []

    def recorded(*args):
        outcomes.append(follow_run(*args))
        return outcomes[-1]

    with (
        patch.object(run_module, "_follow_run", recorded),
        patch.object(run_module, "_run_path", _indices),
    ):
        minimal_accepting_path(pda, word, limits)
    return outcomes


# Words that the one-run walk takes in part in bulk: DYCK1's push and pop
# runs and REG_AB's bounces, at lengths around BULK_RUN. They are explicit
# examples of the test below, enough of them that at least a tenth of its
# cases take a bulk step whatever the draws: 28 of at most 250 + 28.
BULK_EXAMPLES = [
    (BUILTINS[name].pda, BUILTINS[name].generate(m), SearchLimits(500, 500))
    for name in ("DYCK1", "REG_AB")
    for m in range(BULK_RUN, BULK_RUN + 14)
]


def test_follow_run_builds_the_per_step_run(bulk_steps):
    follow_run = run_module._follow_run
    bulk = []

    @given(one_run_words())
    @settings(max_examples=250, deadline=None, database=None)
    def matches(case):
        pda, word, limits = case
        bulk_steps["_follow_bulk"].clear()
        assert _follow(follow_run, pda, word, limits) == _follow(reference_follow_run, pda, word, limits)
        bulk.append(any(bulk_steps["_follow_bulk"]))

    for case in BULK_EXAMPLES:
        matches = example(case)(matches)
    matches()
    assert sum(bulk) >= 0.1 * len(bulk)
    assert len(bulk) <= 250 + len(BULK_EXAMPLES) <= 10 * len(BULK_EXAMPLES)


# walk, the replay step semantics.


@st.composite
def walks(draw):
    """A walk: a machine, steps drawn off it with runs of stationary moves,
    the word they read and where they start. Some have one fault put in: a
    letter changed, a stack symbol changed below the top, the stack cut
    short, the word cut short, or a drawn step added at the end."""
    pda = draw(st.one_of(stationary_machines(), stationary_machines(), one_run_machines(), walk_machines()))
    symbols = sorted(pda.stack_alphabet)
    start = [BOTTOM, *draw(st.lists(st.sampled_from(symbols), max_size=2))]
    start += [draw(st.sampled_from(symbols))] * draw(RUN_LENGTHS)
    stack = list(start)
    steps, letters, _, _ = _drawn_run(draw, pda, pda.initial_state, stack)
    prefix = draw(st.text("ab", max_size=3))
    word = prefix + "".join(letters) + draw(st.text("ab", max_size=2))
    fault = draw(st.sampled_from(["none", "letter", "symbol", "stack", "word", "step"]))
    if fault == "letter" and letters:
        at = len(prefix) + draw(st.integers(0, len(letters) - 1))
        word = word[:at] + ("b" if word[at] == "a" else "a") + word[at + 1 :]
    elif fault == "symbol" and len(start) > 1:
        at = draw(st.integers(0, len(start) - 2))
        start[at] = draw(st.sampled_from(symbols))
    elif fault == "stack":
        start = start[draw(st.integers(0, len(start))) :]
    elif fault == "word":
        word = word[: draw(st.integers(0, len(word)))]
    elif fault == "step":
        steps.append(draw(st.sampled_from(pda.transitions)))
    steps = draw(st.sampled_from([tuple(steps), steps]))
    return steps, word, pda.initial_state, start, len(prefix)


def test_walk_reaches_what_the_per_step_walk_reaches(bulk_steps):
    bulk = []

    @given(walks())
    @settings(max_examples=400, deadline=None, database=None)
    def matches(case):
        steps, word, state, start, pos = case
        bulk_steps["_walk_bulk"].clear()
        for letters in (word, tuple(word)):
            got, expected = list(start), list(start)
            reached = run_module.walk(steps, letters, state, got, pos)
            assert reached == reference_walk(steps, letters, state, expected, pos)
            assert got == expected
        bulk.append(any(bulk_steps["_walk_bulk"]))

    matches()
    assert sum(bulk) >= 0.1 * len(bulk)


def test_walk_names_the_first_failing_step_inside_a_run():
    pda = BUILTINS["DYCK1"].pda
    word = "(" * 40 + ")" * 40
    path = minimal_accepting_path(pda, word)
    push, pop = path.steps[1], path.steps[41]

    def walked(steps, word, stack):
        got, expected = list(stack), list(stack)
        out = run_module.walk(steps, word, "q0", got, 0)
        assert out == reference_walk(steps, word, "q0", expected, 0) and got == expected
        return out

    pushes, pops = (push,) * 40, (pop,) * 40
    assert walked(pushes, "(" * 25 + ")" + "(" * 14, [BOTTOM, "X"]) == ReplayError(25, "input-mismatch")
    assert walked(pushes, "(" * 30, [BOTTOM, "X"]) == ReplayError(30, "input-mismatch")
    assert walked(pops, ")" * 40, [BOTTOM] + ["X"] * 30) == ReplayError(30, "inapplicable")
    assert walked(pops, ")" * 40, ["X"] * 30) == ReplayError(30, "inapplicable")
    assert walked(pops, ")" * 40, ["X"] * 12 + [BOTTOM] + ["X"] * 30) == ReplayError(30, "inapplicable")
    assert walked(pops[:20] + (push,) + pops[:19], ")" * 40, ["X"] * 50) == ReplayError(20, "input-mismatch")
    assert walked(pops, ")" * 40, [BOTTOM] + ["X"] * 40) == ("q0", 40)


# The membership search's walk.


@st.composite
def search_walks(draw):
    """A machine whose search can walk, a word read off it with runs of
    stationary moves (some followed by more, to push over cells a bulk push
    made), a first end inside the word and limits."""
    pda = draw(st.one_of(stationary_machines(), stationary_machines(), walk_machines()))
    stack = list(pda.initial_stack)
    _, letters, _, peak = _drawn_run(draw, pda, pda.initial_state, stack, moves=8)
    word = "".join(letters) + draw(st.text("ab", max_size=2))
    first_end = draw(st.integers(1, len(word) + 1))
    n = len(word)
    bounds = draw(st.sampled_from([(500, 500), (n, peak), (n // 2, peak - 1), (n + 1, peak // 2)]))
    return pda, word, first_end, bounds


def _arena(initial, width):
    """A search's cell arena with the initial stack interned, and its top."""
    sym, below, size, cells = [-1], [0], [0], {}
    cell = 0
    for s in initial:
        top = cells[cell * width + s] = len(sym)
        sym.append(s)
        below.append(cell)
        size.append(size[cell] + 1)
        cell = top
    return (sym, below, size, cells, [], []), cell


def _cells(arena):
    sym, below, size, cells = arena[:4]
    return sym, below, size, list(cells.items())


def _walks_match(pda, word, first_end, bounds):
    """Walk word from the initial description up to first_end, then on to
    its end, with search._walk and with its per-step reference, and check
    that both reach the same descriptions and intern the same cells. A
    second walk from where the first stopped pushes and pops over the cells
    the first interned."""
    moves, width, n_states, accepting, single, initial, run_units, threads, guesses = membership_tables(pda)
    if not initial:
        return
    machine = (moves, width, n_states, len(word) + 1, accepting, single, run_units, threads, guesses)
    (arena, top), (expected_arena, _) = _arena(initial, width), _arena(initial, width)
    runs = search_module._search_runs(word, run_units, 0, len(word))
    at = (0, 0, top, 1)
    for end in (first_end, len(word)):
        got = search_module._walk(word, end, *at, machine, arena, bounds, runs)
        assert got == reference_search_walk(word, end, *at, machine, expected_arena, bounds)
        assert _cells(arena) == _cells(expected_arena)
        at = got


def test_search_walk_interns_what_the_per_step_walk_interns(bulk_steps):
    bulk = []

    @given(search_walks())
    @settings(max_examples=300, deadline=None, database=None)
    def matches(case):
        bulk_steps["_search_bulk"].clear()
        _walks_match(*case)
        bulk.append(any(bulk_steps["_search_bulk"]))

    matches()
    assert sum(bulk) >= 0.05 * len(bulk)


@st.composite
def run_batches(draw):
    """One to four words around a word read off a machine whose search can
    walk: the base with a run grown or shrunk, or cut, under wide or tight
    limits."""
    pda = draw(st.one_of(stationary_machines(), stationary_machines(), walk_machines()))
    stack = list(pda.initial_stack)
    _, letters, _, peak = _drawn_run(draw, pda, pda.initial_state, stack, moves=8)
    base = "".join(letters)
    words = [base]
    for _ in range(draw(st.integers(0, 3))):
        cut = draw(st.integers(0, len(base)))
        piece = draw(st.sampled_from("ab")) * draw(RUN_LENGTHS)
        words.append(draw(st.sampled_from([base[:cut] + piece + base[cut:], base[:cut], base + piece])))
    longest = max(map(len, words))
    limits = draw(st.sampled_from([SearchLimits(2 * longest + 8, peak + 2), SearchLimits(longest // 2, peak)]))
    return pda, words, limits


def test_batch_verdicts_equal_the_per_step_walks(bulk_steps):
    bulk = []

    @given(run_batches())
    @settings(max_examples=200, deadline=None, database=None)
    def matches(case):
        pda, words, limits = case
        bulk_steps["_search_bulk"].clear()
        for machine in (pda, normalize(pda)):
            got = accepts_each(machine, words, limits)
            with patch.object(search_module, "_walk", reference_search_walk):
                assert got == accepts_each(machine, words, limits)
        bulk.append(any(bulk_steps["_search_bulk"]))

    matches()
    assert sum(bulk) >= 0.05 * len(bulk)


def test_a_walk_climbs_the_cells_a_bulk_push_made(bulk_steps):
    # The later runs of opening brackets push over the cells the first one
    # interned, and the search finds them as a per-step walk would.
    pda = BUILTINS["DYCK1"].pda
    k = 3 * BULK_RUN
    word = ("(" * k + ")" * k) * 2 + "(" * (k + 5) + ")" * (k + 5)
    arenas = []
    search = search_module._search_chain

    def kept(*args):
        out = search(*args)
        arenas.append(_cells(args[-2]))
        return out

    with patch.object(search_module, "_search_chain", kept):
        verdict = accepts(pda, word)
        with patch.object(search_module, "_walk", reference_search_walk):
            assert accepts(pda, word) == verdict
    assert arenas[0] == arenas[1]
    assert len(arenas[0][0]) == k + 7  # the empty stack, the bottom and k + 5 brackets
    assert len(_positive(bulk_steps["_search_bulk"])) == 6  # three push runs, three pop runs


@st.composite
def pops_after_single_pushes(draw):
    """A DYCK1 word (ᵐ)(ʲ)ᵐ⁺ʲ⁻¹ with m near BULK_RUN, whose pop run starts on
    cells pushed one at a time above a push run, as (ᵐ)((()ᵐ⁺² does, its pop
    run sometimes a letter short or long, and a step of its run to walk
    from."""
    m = draw(st.integers(BULK_RUN - 2, BULK_RUN + 2))
    j = draw(st.integers(1, 4))
    word = "(" * m + ")" + "(" * j + ")" * (m + j - 1 + draw(st.sampled_from([0, 0, -1, 1])))
    return word, draw(st.integers(0, len(word)))


def test_pops_after_single_pushes_equal_the_per_step_loops(bulk_steps):
    pda = BUILTINS["DYCK1"].pda
    follow_run = run_module._follow_run
    limits = SearchLimits(500, 500)

    @given(pops_after_single_pushes())
    @settings(max_examples=80, deadline=None, database=None)
    def matches(case):
        word, at = case
        assert _follow(follow_run, pda, word, limits) == _follow(reference_follow_run, pda, word, limits)
        verdicts = _searched_with_arenas(pda, [word, word[:-1], word + ")"])
        path = minimal_accepting_path(pda, word, limits)
        assert isinstance(path, RunPath) == (verdicts[0] == Accepted())
        if isinstance(path, RunPath):
            at = min(at, len(path.steps))
            pos = sum(t.letter is not None for t in path.steps[:at])
            got, expected = list(path.stack_at(at)), list(path.stack_at(at))
            reached = run_module.walk(path.steps[at:], word, path.state_at(at), got, pos)
            assert reached == reference_walk(path.steps[at:], word, path.state_at(at), expected, pos)
            assert got == expected

    matches()
    assert any(bulk_steps["_search_bulk"]) and any(bulk_steps["_walk_bulk"])


def test_a_bulk_pop_stops_at_another_symbol_and_above_the_empty_stack(bulk_steps):
    # q0 pops A and the bottom marker by b and stays; B has no b move. The
    # pop run of the first word starts on A cells pushed one at a time
    # above B cells and a chain of A, so the bulk pop stops at the first B.
    # The second word's pop run has more letters than the stack has cells,
    # and the walk stops on the last one.
    pda = NormalizedPda(
        states=["q0"],
        input_alphabet=["a", "b", "c", "d"],
        stack_alphabet=[BOTTOM, "A", "B"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["q0"],
        transitions=[
            T("q0", "a", BOTTOM, "A", "q0"),
            T("q0", "a", "A", "A", "q0"),
            T("q0", "c", "A", "B", "q0"),
            T("q0", "c", "B", "B", "q0"),
            T("q0", "a", "B", "A", "q0"),
            T("q0", "b", "A", None, "q0"),
            T("q0", "d", BOTTOM, BOTTOM, "q0"),
            T("q0", "b", BOTTOM, None, "q0"),
        ],
    )
    for word, popped in (("a" * 20 + "c" * 3 + "a" * 4 + "b" * 20, 3), ("d" * 20 + "b" * 25, 19)):
        _walks_match(pda, word, len(word), (500, 500))
        bulk_steps["_search_bulk"].clear()
        assert _searched_with_arenas(pda, [word]) == (NotAccepted(),)
        assert _positive(bulk_steps["_search_bulk"]) == [19, popped]


# The runs the found run keeps.


def _per_step_path(pda, word):
    """minimal_accepting_path with the one-run walk replaced by its per-step
    reference, which hands _run_path the indices alone."""
    with patch.object(run_module, "_follow_run", reference_follow_run):
        return minimal_accepting_path(pda, word)


RUN_FIELDS = ("word", "steps", "profile", "initial_state", "initial_stack")


@pytest.mark.parametrize(
    "machine, word, runs",
    [
        (
            BUILTINS["DYCK1"].pda,
            "(" * 6601 + ")" * 6601,
            [(1, 6600, T("q0", "(", "X", "X", "q0")), (6602, 6599, T("q0", ")", "X", None, "q0"))],
        ),
        (
            BUILTINS["ANBN"].pda,
            "a" * 1600 + "b" * 1600,
            [(1, 1599, T("q0", "a", "A", "A", "q0")), (1601, 1598, T("q1", "b", "A", None, "q1"))],
        ),
        (
            load_path(DATA / "ANBN_GENERAL.json").pda,
            "a" * 1600 + "b" * 1600,
            [(1603, 1598, T("p1", "b", "A", None, "p1"))],
        ),
        (BUILTINS["REG_AB"].pda, "ab" * 3300, []),
        (BUILTINS["GEN_PAL"].pda, BUILTINS["GEN_PAL"].generate(200), []),
    ],
    ids=["DYCK1", "ANBN", "ANBN_GENERAL", "REG_AB", "GEN_PAL"],
)
def test_the_found_run_keeps_its_bulk_runs_and_equals_the_per_step_build(machine, word, runs):
    # The words of the strict DYCK1 pump, the best-effort ANBN and
    # ANBN_GENERAL pumps at m = 1600 and two pumps without runs: REG_AB's
    # run has none, and GEN_PAL's comes from the breadth-first search.
    pda = normalize(machine)
    path = minimal_accepting_path(pda, word)
    reference = _per_step_path(pda, word)
    assert reference.runs == ()
    for name in RUN_FIELDS:
        assert getattr(path, name) == getattr(reference, name), name
    assert path == reference and hash(path) == hash(reference) and repr(path) == repr(reference)
    assert [(first, count, pda.transitions[index]) for first, count, index in path.runs] == runs
    for first, count, index in path.runs:
        assert path.steps[first : first + count] == (pda.transitions[index],) * count


@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, 2, 15, 16, 17, 35]), st.booleans()), max_size=6))
@settings(max_examples=150, deadline=None)
def test_the_run_build_takes_marked_runs_whole(blocks):
    # Blocks of one DYCK1 transition each, a push or pop block marked as a
    # run or not: runs from the first step on, of one step, back to back
    # and at the end. The build must give the steps and the profile that
    # one height change per step adds up to, as tuples, with or without
    # the runs.
    pda = BUILTINS["DYCK1"].pda
    indices, runs = [], []
    for index, count, marked in blocks:
        if marked and index in (1, 2):  # the stationary push and pop
            runs.append((len(indices), count, index))
        indices += [index] * count
    steps = tuple(pda.transitions[i] for i in indices)
    profile = tuple(accumulate((len(t.push) - 1 for t in steps), initial=1))
    for marks in (runs, ()):
        path = run_module._run_path(pda, "", indices, marks)
        assert (path.steps, path.profile, path.runs) == (steps, profile, tuple(marks))
        assert type(path.steps) is tuple and type(path.profile) is tuple


# Words that are not a str.


@pytest.mark.parametrize("label", ["DYCK1", "ANBN", "REG_AB"])
@pytest.mark.parametrize("kind", [tuple, list])
def test_every_entry_point_answers_a_sequence_word_as_its_str(label, kind):
    entry = BUILTINS[label]
    pda = entry.pda
    for word in (entry.generate(BULK_RUN + 1), entry.generate_near_miss(BULK_RUN), entry.generate(2)):
        letters = kind(word)
        assert accepts(pda, letters) == accepts(pda, word)
        assert accepts_each(pda, [letters, word, letters]) == accepts_each(pda, [word] * 3)
        path = minimal_accepting_path(pda, word)
        other = minimal_accepting_path(pda, letters)
        if isinstance(path, RunPath):
            assert (other.steps, other.profile) == (path.steps, path.profile)
            again = replay(pda, path.steps, letters)
            assert (again.steps, again.profile) == (path.steps, path.profile)
        else:
            assert other == path


# Which pumps take bulk steps.


def _positive(taken):
    return [k for k in taken if k]


def test_the_strict_dyck_pump_takes_its_long_runs_in_bulk(bulk_steps):
    word = "(" * 6601 + ")" * 6601
    pda = BUILTINS["DYCK1"].pda
    result = extract(pda, word, mode=ExtractionMode.STRICT)
    # The minimal run: each run after its first letter, the pop run up to
    # the last.
    assert _positive(bulk_steps["_follow_bulk"]) == [6600, 6599]
    # The candidate's walk of the found run: u and the tail, each after its
    # first step.
    a, _, _, e = result.decomposition.cuts
    assert _positive(bulk_steps["_walk_bulk"]) == [a - 1, len(word) - e - 1]
    report = verify(pda, result.path, result.decomposition, checkpoints=result.checkpoints)
    assert report.overall
    # The search of the pumped words: a push run in their common prefix and
    # a pop run in their common suffix.
    prefix_push, suffix_pop = _positive(bulk_steps["_search_bulk"])
    assert min(prefix_push, suffix_pop) > 6500


@pytest.mark.parametrize(
    "machine, follow, walk, search",
    [
        (BUILTINS["ANBN"].pda, [1599, 1598], [1581, 16, 16, 1581], [1597] * 3),
        (load_path(DATA / "ANBN_GENERAL.json").pda, [1598], [142, 142, 1455], [1597] * 3),
    ],
    ids=["ANBN", "ANBN_GENERAL"],
)
def test_runs_that_start_with_a_move_out_of_their_slot_keep_their_bulk_steps(bulk_steps, machine, follow, walk, search):
    # In a^1600 b^1600 the a run starts with a push onto the bottom marker
    # and the b run with the move into the popping state; neither is
    # stationary. Each loop tests a run at its second letter, so it takes
    # such a first letter one step at a time and the rest of the run in one
    # bulk step. For ANBN these are the minimal run's push run after the
    # first a and pop run after the first b, the candidate walk's u, x's a
    # and b runs and the tail, each after its first step, and the search's
    # runs.
    word = BUILTINS["ANBN"].generate(1600)
    pda = normalize(machine)
    result = extract(pda, word, mode=ExtractionMode.BEST_EFFORT)
    assert verify(pda, result.path, result.decomposition, checkpoints=result.checkpoints, source=machine).pumping_ok
    assert _positive(bulk_steps["_follow_bulk"]) == follow
    assert _positive(bulk_steps["_walk_bulk"]) == walk
    assert _positive(bulk_steps["_search_bulk"]) == search


def test_a_search_walk_tests_each_run_once_at_its_second_letter(bulk_steps):
    # Searched alone, a^40 b^40 is walked from its second letter on: the
    # walk takes the rest of the a run, steps over the first b, where ANBN
    # moves into the popping state, and takes the rest of the b run, up to
    # the chain's last letter. No test falls on a run's first letter.
    assert accepts(BUILTINS["ANBN"].pda, "a" * 40 + "b" * 40) == Accepted()
    assert bulk_steps["_search_bulk"] == [39, 38]


def _searched_with_arenas(pda, words, limits=None):
    """accepts_each of words, and the cell arena of each chain it searched,
    once with the bulk walk and once with the per-step reference walk."""
    arenas = []
    search = search_module._search_chain

    def kept(*args):
        out = search(*args)
        arenas.append(_cells(args[-2]))
        return out

    with patch.object(search_module, "_search_chain", kept):
        verdicts = accepts_each(pda, words, limits)
        bulk_arenas = arenas[:]
        arenas.clear()
        with patch.object(search_module, "_walk", reference_search_walk):
            assert accepts_each(pda, words, limits) == verdicts
    assert bulk_arenas == arenas
    return verdicts


def test_a_pop_run_goes_down_single_pushes_and_then_a_chain_in_bulk(bulk_steps):
    # After one close and three opens, the pop run starts on two cells that
    # the walk pushed one at a time above the chain of the first push run:
    # the bulk pop steps down them and then jumps down the chain, up to the
    # chain's last letter.
    word = "(" * 6600 + ")(((" + ")" * 6602
    assert _searched_with_arenas(BUILTINS["DYCK1"].pda, [word]) == (Accepted(),)
    assert bulk_steps["_search_bulk"] == [6598, 6600]


def test_batch_remainders_pop_down_single_pushes_into_a_chain(bulk_steps):
    # The words share the push run and one close, and differ right after
    # it; the last one ends apart, so no suffix is shared. Each remainder
    # pushes cells one at a time before its pop run goes down them and the
    # chain the shared push run interned.
    prefix = "(" * 40 + ")"
    words = [prefix + "(((" + ")" * 42, prefix + ")(((" + ")" * 41, prefix + "((((" + ")" * 43 + "("]
    verdicts = _searched_with_arenas(BUILTINS["DYCK1"].pda, words)
    assert verdicts == (Accepted(), Accepted(), NotAccepted())
    assert _positive(bulk_steps["_search_bulk"]) == [38, 40, 39, 42]


@pytest.mark.parametrize(
    "label, word, mode",
    [("GEN_PAL", BUILTINS["GEN_PAL"].generate(200), ExtractionMode.BEST_EFFORT)],
    ids=["GEN_PAL"],
)
def test_pumps_without_runs_take_no_bulk_step(bulk_steps, label, word, mode):
    # GEN_PAL's found run comes from the breadth-first search, and its
    # search never walks. Its words alternate 0 and 1 on both sides of the
    # middle, so walk tests those stretches as bounces, once each, and none
    # fires: the run pushes on every letter before the middle and pops
    # after it.
    source = BUILTINS[label].pda
    pda = normalize(source)
    result = extract(pda, word, mode=mode)
    assert verify(pda, result.path, result.decomposition, checkpoints=result.checkpoints, source=source).pumping_ok
    assert not bulk_steps["_follow_bulk"] and not bulk_steps["_search_bulk"]
    assert bulk_steps["_walk_bulk"] == [0] * 4


# Runs of a bounce.

REG_AB = BUILTINS["REG_AB"].pda
DYCK1 = BUILTINS["DYCK1"].pda


def _four_state_cycle():
    """On the bottom marker, q0 pushes A on a and q1 pops it on b, but into
    q2, which pushes A on a into q3, whose b pops it back into q0: (ab)ᵐ
    repeats every four steps, and no two of its steps are a bounce. ab is
    one only on B, which the word never reaches: q0 pushes C and q4 pops
    it back."""
    return NormalizedPda(
        states=["q0", "q1", "q2", "q3", "q4"],
        input_alphabet=["a", "b"],
        stack_alphabet=[BOTTOM, "A", "B", "C"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["q0"],
        transitions=[
            T("q0", "a", BOTTOM, "A", "q1"),
            T("q1", "b", "A", None, "q2"),
            T("q2", "a", BOTTOM, "A", "q3"),
            T("q3", "b", "A", None, "q0"),
            T("q0", "a", "B", "C", "q4"),
            T("q4", "b", "C", None, "q0"),
        ],
    )


def _entered_bounce():
    """(ab)ᵐcd whose first ab pushes and pops A from q0 into q, where each
    later ab is a bounce that pushes and pops B, and cd one that pushes and
    pops C: the run's first bounce, at its second ab, pushes a cell no step
    before it made, and the search makes the cell of C after it."""
    return NormalizedPda(
        states=["q0", "q1", "q", "q2", "q3"],
        input_alphabet=["a", "b", "c", "d"],
        stack_alphabet=[BOTTOM, "A", "B", "C"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["q"],
        transitions=[
            T("q0", "a", BOTTOM, "A", "q1"),
            T("q1", "b", "A", None, "q"),
            T("q", "a", BOTTOM, "B", "q2"),
            T("q2", "b", "B", None, "q"),
            T("q", "c", BOTTOM, "C", "q3"),
            T("q3", "d", "C", None, "q"),
        ],
    )


def _two_way_bounce():
    """Bounces on ab and on ba, both from the bottom marker: a word of
    alternating letters holds a run of each pair, one letter apart, and
    (ba)ᵐb ends in a push into the accepting q2."""
    return NormalizedPda(
        states=["q0", "q1", "q2"],
        input_alphabet=["a", "b"],
        stack_alphabet=[BOTTOM, "A", "B"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["q2"],
        transitions=[
            T("q0", "a", BOTTOM, "A", "q1"),
            T("q1", "b", "A", None, "q0"),
            T("q0", "b", BOTTOM, "B", "q2"),
            T("q2", "a", "B", None, "q0"),
        ],
    )


WIDE = SearchLimits(500, 500)
BOUNCE_CASES = [
    # (machine, word, limits, and the letters each bulk call took: of the
    # one-run walk, of walk over the per-step run from its start, and of
    # the search's walks, first of the word alone, then of the batch with
    # the word a letter shorter and longer, whose common prefix ends a
    # letter before the word's end)
    pytest.param(REG_AB, "ab" * 15, WIDE, [], [], [], id="REG_AB-15"),
    pytest.param(REG_AB, "ab" * 16, WIDE, [28], [30], [28], id="REG_AB-16"),
    pytest.param(REG_AB, "ab" * 17, WIDE, [30], [32], [30, 30], id="REG_AB-17"),
    pytest.param(REG_AB, "ab" * 33, WIDE, [62], [64], [62, 62], id="REG_AB-33"),
    pytest.param(REG_AB, "ab" * 20 + "b" + "ab" * 20, WIDE, [38], None, [38, 38], id="REG_AB-broken"),
    pytest.param(REG_AB, "ab" * 20 + "aab" + "ab" * 20, WIDE, [38], None, [38, 38], id="REG_AB-doubled"),
    pytest.param(REG_AB, "ab" * 20 + "a", WIDE, [38], None, [38, 36], id="REG_AB-odd"),
    pytest.param(REG_AB, "ab" * 40, SearchLimits(51, 500), [48], [78], [48, 48], id="REG_AB-max-steps"),
    pytest.param(REG_AB, "ab" * 40, SearchLimits(500, 1), [], [78], [], id="REG_AB-max-height"),
    pytest.param(DYCK1, "(" + "()" * 15 + ")", WIDE, [], [], [], id="DYCK1-15"),
    pytest.param(DYCK1, "(" + "()" * 16 + ")", WIDE, [30], [30], [28], id="DYCK1-16"),
    pytest.param(DYCK1, "(" + "()" * 17 + ")", WIDE, [32], [32], [30], id="DYCK1-17"),
    pytest.param(DYCK1, "(" + "()" * 40 + ")", WIDE, [78], [78], [76], id="DYCK1-40"),
    pytest.param(DYCK1, "(" + "()" * 40 + ")", SearchLimits(500, 2), [], [78], [], id="DYCK1-max-height"),
    pytest.param(DYCK1, "(" + "()" * 40 + ")", SearchLimits(45, 500), [42], [78], [42], id="DYCK1-max-steps"),
    pytest.param(DYCK1, "()" * 40, WIDE, [], [78], [], id="DYCK1-on-the-bottom"),
    pytest.param(_four_state_cycle(), "ab" * 40, WIDE, [], [], [], id="four-state-cycle"),
    pytest.param(_four_state_cycle(), "ab" * 40, SearchLimits(500, 3), [], [], [], id="four-state-cycle-max-height"),
    pytest.param(_entered_bounce(), "ab" * 40 + "cd", WIDE, [78], [78], [78, 78], id="entered-from-another-slot"),
    pytest.param(_two_way_bounce(), "ba" * 20 + "b", WIDE, [38], [38], [38, 36], id="two-way-overlapping-runs"),
]


@pytest.mark.parametrize("pda, word, limits, follow, walk, search", BOUNCE_CASES)
def test_bounce_runs_equal_the_per_step_loops(bulk_steps, pda, word, limits, follow, walk, search):
    # A bounce is a push and a pop back into the slot it started from, on
    # two letters. Each loop takes a run of at least BULK_RUN bounces in one
    # bulk step, from the run's second bounce, and must give what its
    # per-step reference gives, index for index and cell for cell: runs of
    # BULK_RUN - 1, BULK_RUN, BULK_RUN + 1 and 2 * BULK_RUN + 1 bounces, a
    # run broken by a doubled letter, one that ends in a lone push letter,
    # one read up to the word's last letter, limits that cut inside a run,
    # DYCK1's () on X and on the bottom marker, whose slot has an epsilon
    # move, a machine whose pop goes on to another state, tested where a
    # limit leaves room for one bounce too, a run whose first bounce
    # comes from another slot, and runs of two pairs one letter apart, the
    # second of which the one-run walk meets only after the first has
    # carried it past the second's end. None means the word has no run to
    # walk.
    assert _follow(run_module._follow_run, pda, word, limits) == _follow(reference_follow_run, pda, word, limits)
    path = _per_step_path(pda, word)
    taken = {"follow": _positive(bulk_steps["_follow_bulk"]), "walk": None}
    assert isinstance(path, RunPath) == (walk is not None)
    if isinstance(path, RunPath):
        for at in (0, 1, 2, 3, len(path.steps) // 2):
            pos = sum(t.letter is not None for t in path.steps[:at])
            got, expected = list(path.stack_at(at)), list(path.stack_at(at))
            state = path.state_at(at)
            reached = run_module.walk(path.steps[at:], word, state, got, pos)
            assert reached == reference_walk(path.steps[at:], word, state, expected, pos)
            assert got == expected
            if not at:
                taken["walk"] = _positive(bulk_steps["_walk_bulk"])
    bulk_steps["_search_bulk"].clear()
    _walks_match(pda, word, len(word), (limits.max_steps, limits.max_stack_height))
    _searched_with_arenas(pda, [word, word[:-1], word + word[-1]], limits)
    taken["search"] = _positive(bulk_steps["_search_bulk"])
    assert taken == {"follow": follow, "walk": walk, "search": search}


def test_a_bounce_run_entered_flat_interns_its_cell_within_the_height_limit(bulk_steps):
    # A general machine whose first ab keeps the stack's height and enters
    # q, where each later ab is a bounce that pushes and pops B. The
    # search's walk reaches the run's first bounce on the bottom marker
    # alone: it interns the bottom-and-B cell as a first push would, and
    # at a height limit of one symbol it takes no bounce at all.
    pda = GeneralPda(
        states=["q0", "q1", "q", "q2"],
        input_alphabet=["a", "b"],
        stack_alphabet=[BOTTOM, "B"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["q"],
        transitions=[
            GeneralTransition("q0", "a", BOTTOM, (BOTTOM,), "q1"),
            GeneralTransition("q1", "b", BOTTOM, (BOTTOM,), "q"),
            GeneralTransition("q", "a", BOTTOM, (BOTTOM, "B"), "q2"),
            GeneralTransition("q2", "b", "B", (), "q"),
        ],
    )
    word = "ab" * 40
    for height, verdict, taken in ((2, Accepted(), [76, 76]), (1, LimitExceeded(by_steps=False, by_height=True), [])):
        bulk_steps["_search_bulk"].clear()
        _walks_match(pda, word, len(word), (500, height))
        limits = SearchLimits(500, height)
        assert _searched_with_arenas(pda, [word, word[:-1], word + "b"], limits)[0] == verdict
        assert _positive(bulk_steps["_search_bulk"]) == taken


def test_walk_names_the_first_failing_step_inside_a_bounce_run():
    # Steps that would be bounces but do not fire, or letters that break the
    # run, are walked step by step from the run's start: the walk names the
    # first offending step and its reason as the per-step walk does.
    path = minimal_accepting_path(REG_AB, "ab" * 40)
    push, pop = path.steps[:2]

    def walked(steps, word, state, stack):
        got, expected = list(stack), list(stack)
        out = run_module.walk(steps, word, state, got, 0)
        assert out == reference_walk(steps, word, state, expected, 0) and got == expected
        return out

    bounces = (push, pop) * 40
    assert walked(bounces, "ab" * 40, "q0", [BOTTOM]) == ("q0", 80)
    assert walked(bounces, "ab" * 30, "q0", [BOTTOM]) == ReplayError(60, "input-mismatch")
    assert walked(bounces, "ab" * 20 + "ba" + "ab" * 19, "q0", [BOTTOM]) == ReplayError(40, "input-mismatch")
    assert walked(bounces[:51] + (push,) + bounces[52:], "ab" * 40, "q0", [BOTTOM]) == ReplayError(51, "inapplicable")
    assert walked(bounces, "ab" * 40, "q1", [BOTTOM]) == ReplayError(0, "inapplicable")
    assert walked(bounces, "ab" * 40, "q0", []) == ReplayError(0, "inapplicable")
    # From b, the run's first whole bounce lies one letter on.
    assert walked((pop, *bounces[:-1]), "b" + "ab" * 39 + "a", "q1", [BOTTOM, BOTTOM]) == ("q1", 80)
    # A pop into another state: from q2, the pair's second copy cannot fire.
    cycle = _four_state_cycle().transitions
    steps = cycle[:2] + cycle[2:4] * 39
    assert walked(steps, "ab" * 40, "q0", [BOTTOM]) == ReplayError(4, "inapplicable")


@pytest.mark.parametrize(
    "label, word, mode, follow, walk, search",
    [
        ("REG_AB", "ab" * 3300, ExtractionMode.STRICT, [6596], [6596], [6594]),
        ("DYCK1", "(" + "()" * 6600 + ")", ExtractionMode.STRICT, [13198], [13196] * 3, [13194]),
        ("DYCK1", "(" + "()" * 3000 + ")", ExtractionMode.BEST_EFFORT, [5998], [5996], [5994]),
    ],
    ids=["REG_AB-strict", "DYCK1-strict", "DYCK1-best-effort"],
)
def test_pumps_over_bounces_take_them_in_bulk(bulk_steps, label, word, mode, follow, walk, search):
    # The minimal run takes the bounces after the first in one bulk step,
    # up to the last letter; the candidate walk the piece that holds them,
    # and the search the common prefix's or common suffix's. The found run
    # keeps no runs: bounces leave the profile as it is, per position.
    source = BUILTINS[label].pda
    pda = normalize(source)
    result = extract(pda, word, mode=mode)
    assert result.path.runs == ()
    assert verify(pda, result.path, result.decomposition, checkpoints=result.checkpoints, source=source).pumping_ok
    assert _positive(bulk_steps["_follow_bulk"]) == follow
    assert _positive(bulk_steps["_walk_bulk"]) == walk
    assert _positive(bulk_steps["_search_bulk"]) == search
