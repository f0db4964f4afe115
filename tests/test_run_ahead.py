"""The membership search's run-ahead of guesses.

A guess is an epsilon move in a slot that also holds a letter move, as
GEN_PAL's guess of the midpoint is. Where the description a guess reaches
has a pushless slot with one move for the letter ahead, and so on down its
thread, _search_chain follows that thread at once: it queues the guess only
when it gives the thread up, drops it when the thread dies within the
limits, and accepts, in a leaf, when the thread ends the word in an
accepting state. These tests hold accepts and accepts_each to
reference_accepts on drawn machines with such guesses, under limits that
cut at every position, and every chain search to what it returns with the
walks turned off; pin the rules that keep the search exact and its work
bounded; and check on GEN_PAL that each guess run ahead reads exactly as
many letters as Manacher's palindromic radius at its position, at m up to
2000. A thread takes the copies of a loop of one or two letters down
consecutive stack cells in bulk: on drawn machines shaped as GEN_PAL, with
words that repeat such loops, the search keeps the reference's verdicts
under every step limit and height limits that cut inside a loop, and on
drawn stacks a bulk run-ahead meets the fate, level and descriptions of
the per-step one in oracles.py.
"""

import importlib
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import arena_push, even_palindrome_radii, reference_run_ahead
from test_run_reference import chain_searches, reference_accepts, search_walks  # noqa: F401 (fixtures)

from pumpkit import (
    BOTTOM,
    BUILTINS,
    Accepted,
    GeneralPda,
    GeneralTransition,
    LimitExceeded,
    NotAccepted,
    SearchLimits,
    accepts,
    accepts_each,
    normalize,
)
from pumpkit.run import BULK_RUN
from pumpkit.search import membership_tables

search_module = importlib.import_module("pumpkit.search")
G = GeneralTransition


@pytest.fixture
def run_aheads(monkeypatch):
    """One record per run-ahead, in order: (position of the guess, fate,
    positions of the descriptions the thread stepped onto, keys of the
    guess and of those descriptions, the guess's level, the level
    reached)."""
    calls = []
    run_ahead = search_module._run_ahead

    def recorded(word, end, leaf, state, cell, pos, depth, machine, *rest):
        fate, thread, reached = run_ahead(word, end, leaf, state, cell, pos, depth, machine, *rest)
        n_states, n1 = machine[2], machine[3]
        guess = (cell * n1 + pos) * n_states + state
        calls.append((pos, fate, [key // n_states % n1 for key in thread], [guess, *thread], depth, reached))
        return fate, thread, reached

    monkeypatch.setattr(search_module, "_run_ahead", recorded)
    return calls


def queued_descriptions(pda, word, limits) -> int:
    """How many descriptions the breadth-first search without run-aheads
    queues on word, the first one included: reference_accepts' search, run
    to the end."""
    start = (pda.initial_state, 0, tuple(pda.initial_stack))
    visited = {start}
    queue = deque([(start, 0)])
    while queue:
        (state, pos, stack), depth = queue.popleft()
        if not stack:
            continue
        for t in pda.transitions:
            if (t.source, t.pop) != (state, stack[-1]):
                continue
            npos = pos
            if t.letter is not None:
                if pos >= len(word) or word[pos] != t.letter:
                    continue
                npos = pos + 1
            found = (t.target, npos, stack[:-1] + tuple(t.push))
            if found in visited or depth + 1 > limits.max_steps or len(found[2]) > limits.max_stack_height:
                continue
            visited.add(found)
            queue.append((found, depth + 1))
    return len(visited)


def _keeping(*moves, accept=()):
    """A general machine of moves (source, letter, target) that keep the
    bottom marker."""
    transitions = [G(a, letter, BOTTOM, (BOTTOM,), b) for a, letter, b in moves]
    return GeneralPda(
        states={"q0"} | {t.source for t in transitions} | {t.target for t in transitions},
        input_alphabet=["a", "b", "c", "y"],
        stack_alphabet=[BOTTOM],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=accept,
        transitions=transitions,
    )


# GEN_PAL against Manacher's radii.


def _pal_words():
    entry = BUILTINS["GEN_PAL"]
    words = [entry.generate(m) for m in range(0, 41, 3)]
    words += [entry.generate_near_miss(m) for m in range(1, 41, 3)]
    words += ["0" * 30, "0" * 29 + "1", "0110" * 9, "0110" * 9 + "0", "1" + "0" * 20 + "1"]
    rng = random.Random(7)
    words += ["".join(rng.choice("01") for _ in range(rng.randrange(24))) for _ in range(60)]
    return words


def _long_pal_words():
    """Generator palindromes and near misses at m up to 2000, whose guesses
    near the middle descend in bulk, and the m = 2000 palindrome with an
    00 or 11 break a few letters from either end."""
    entry = BUILTINS["GEN_PAL"]
    words = [f(m) for m in (500, 1000, 1999, 2000) for f in (entry.generate, entry.generate_near_miss)]
    half = entry.generate(2000)[:2000]
    for at in (1, 17, 1983, 1999):
        broken = half[:at] + half[at - 1] + half[at:]
        words += [broken + broken[::-1], broken + broken[-2::-1]]
    return words


def test_each_gen_pal_guess_run_ahead_reads_its_palindromic_radius(run_aheads):
    # The guess at p pops the letter that pushed the top symbol for each
    # letter it reads, so it reads word[p:p + k] exactly when word[p - k:p]
    # is its mirror: as many letters as the even palindromic radius at p.
    # A guess whose radius is not zero is never skipped by a walk, up to
    # the middle of an accepted word, where the search stops, and no
    # position is guessed twice.
    pda = BUILTINS["GEN_PAL"].pda
    tables = membership_tables(pda)
    for word in _pal_words() + _long_pal_words():
        run_aheads.clear()
        verdict = accepts(pda, word, tables=tables)
        assert verdict == (Accepted() if len(word) % 2 == 0 and word == word[::-1] else NotAccepted())
        radii = even_palindrome_radii(word)
        guessed = [pos for pos, *_ in run_aheads]
        assert len(guessed) == len(set(guessed))
        last = len(word) if verdict == NotAccepted() else len(word) // 2  # an accepted word's search stops there
        assert {p for p, r in enumerate(radii) if r and p <= last} <= set(guessed)
        for pos, fate, positions, *_ in run_aheads:
            assert max(positions, default=pos) - pos == radii[pos], (word, pos)
            assert fate in (search_module._DIED, search_module._ACCEPTED)


# Drawn machines with guesses.


@st.composite
def guess_machines(draw, loops=False):
    """General machines whose searches run guesses ahead. q0 and q1 read a
    and b by pushing a symbol named after the letter, popping or keeping
    the stack; most of their slots also hold a guess, an epsilon move into
    t0 or t1 that keeps the stack, and a few one that pops. In each slot
    t0 and t1 read a and b by popping or keeping the stack into t0, t1 or
    the move-less f, or take one epsilon move that pops or keeps; a few of
    their slots hold a second move on a letter or a push, where a thread is
    given up.

    With loops, the machine is shaped as GEN_PAL is: q0 pushes A on a and B
    on b, some of its moves pushing the top again above, and stays in q0;
    q1 has no move, and every slot of q0 holds a guess, mostly into t0. t0
    mostly pops A on a and B on b and reads nothing else there, and no
    thread's slot holds a second move. So a walk meets push loops of one
    letter, which push a block of two symbols a copy, and of two letters,
    pushing A on a and B on b and back; and a thread meets pop loops of one
    or two letters, some with an epsilon pop between them, that pop one or
    two symbols a letter."""
    push_states = ["q0", "q1"]
    threads = ["t0", "t1"]
    symbols = [BOTTOM, "A", "B"]
    transitions = []
    for source in push_states:
        if loops and source == "q1":
            continue
        for top in symbols:
            for letter in "ab":
                if loops:
                    push = draw(st.sampled_from([(top, letter.upper())] * 3 + [(top, letter.upper(), top)]))
                    transitions.append(G(source, letter, top, push, source))
                elif draw(st.integers(0, 3)):
                    push = draw(st.sampled_from([(top, letter.upper()), (), (top,)]))
                    transitions.append(G(source, letter, top, push, draw(st.sampled_from(push_states))))
            if loops or draw(st.integers(0, 3)):
                push = (top,) if draw(st.integers(0, 5)) else ()
                guessed = draw(st.sampled_from(["t0"] * 5 + ["t1"] if loops else threads))
                transitions.append(G(source, None, top, push, guessed))
    kinds = ["letters", "letters", "letters", "epsilon", "none", *(() if loops else ("branch",))]
    for source in threads:
        for top in symbols:
            popped = loops and source == "t0" and top != BOTTOM and draw(st.integers(0, 5))
            kind = "letters" if popped else draw(st.sampled_from(kinds))
            if kind == "epsilon":
                push = draw(st.sampled_from([(), (top,)]))
                transitions.append(G(source, None, top, push, draw(st.sampled_from([*threads, "f"]))))
                continue
            if kind == "none":
                continue
            for letter in "ab":
                if popped:
                    if letter.upper() == top:
                        transitions.append(G(source, letter, top, (), source))
                elif draw(st.integers(0, 3)):
                    push = draw(st.sampled_from([(), (top,)]))
                    transitions.append(G(source, letter, top, push, draw(st.sampled_from([*threads, "f"]))))
            if kind == "branch":
                push = draw(st.sampled_from([(), (top,), (top, "A")]))
                transitions.append(G(source, draw(st.sampled_from("ab")), top, push, draw(st.sampled_from(push_states))))
    states = [*push_states, *threads, "f"]
    return GeneralPda(
        states=states,
        input_alphabet=["a", "b"],
        stack_alphabet=symbols,
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=draw(st.sets(st.sampled_from(states), max_size=3)),
        transitions=transitions,
    )


def _every_cut(word):
    """Step limits at every level a search of word can reach, under a
    height limit that cuts and one that does not."""
    return [SearchLimits(steps, height) for steps in range(2 * len(word) + 5) for height in (2, 8)]


def test_run_aheads_keep_the_reference_verdicts_on_drawn_machines(run_aheads, chain_searches):
    fates = []

    @given(guess_machines(), st.text("ab", max_size=8))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def matches(pda, word):
        run_aheads.clear()
        batch = [word, word + "a", word[:-1] + "b", "b" + word]
        for machine in (pda, normalize(pda)):
            for limits in _every_cut(word):
                expected = [reference_accepts(machine, w, limits) for w in batch]
                assert accepts(machine, word, limits) == expected[0], (word, limits)
                assert list(accepts_each(machine, batch, limits)) == expected, (batch, limits)
            for limits in (SearchLimits(len(word) + 2, 8), SearchLimits(40, 8)):
                verdicts, chains = chain_searches(machine, batch, limits)
                assert chains == chain_searches(machine, batch, limits, walks=False)[1]
        fates.append({fate for _, fate, positions, *_ in run_aheads if positions})

    matches()
    # Most draws run a guess ahead some way; threads die, are given up and
    # accept in a fair share of them.
    for fate in (search_module._DIED, search_module._QUEUED, search_module._ACCEPTED):
        assert sum(fate in seen for seen in fates) >= 0.1 * len(fates), fate


@st.composite
def loop_words(draw):
    """A word with a run of BULK_RUN - 1 to BULK_RUN + 1 copies of a unit of
    one or two letters, then the unit's mirror repeated about as often,
    between short drawn stretches: walks take the run as copies of a push
    loop, and the threads of the guesses near its end pop back down it as
    copies of a pop loop."""
    unit = draw(st.sampled_from(["a", "b", "ab", "ba"]))
    k = draw(st.integers(BULK_RUN - 1, BULK_RUN + 1))
    text = st.text("ab", max_size=2)
    return draw(text) + unit * k + draw(text) + unit[::-1] * (k + draw(st.integers(-2, 1))) + draw(text)


def test_push_and_pop_loops_keep_the_reference_verdicts_on_drawn_machines(monkeypatch):
    # Under every step limit, and under height limits that cut a push
    # loop's run between two copies or inside one, the search gives the
    # reference's verdicts; a fair share of the draws take push loops and
    # descents in bulk.
    pushed, descended = [], []
    push_loop, descend = search_module._push_loop, search_module._descend

    def counted_push_loop(*args):
        out = push_loop(*args)
        pushed.append(out[1])
        return out

    def counted_descend(word, end, mark, cell, pos, *rest):
        out = descend(word, end, mark, cell, pos, *rest)
        descended.append(out[1] - pos)
        return out

    monkeypatch.setattr(search_module, "_push_loop", counted_push_loop)
    monkeypatch.setattr(search_module, "_descend", counted_descend)
    bulk = []

    @given(guess_machines(loops=True), loop_words(), st.lists(st.integers(1, 2 * BULK_RUN + 4), min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def matches(pda, word, heights):
        pushed.clear()
        descended.clear()
        batch = [word, word[:-1], word + "a"]
        steps = 2 * len(word) + 4
        for machine in (pda, normalize(pda)):
            for limits in [SearchLimits(n, 2 * len(word)) for n in range(steps + 1)]:
                assert accepts(machine, word, limits) == reference_accepts(machine, word, limits), (word, limits)
            for limits in [SearchLimits(steps, h) for h in heights]:
                expected = [reference_accepts(machine, w, limits) for w in batch]
                assert list(accepts_each(machine, batch, limits)) == expected, (batch, limits)
        bulk.append((any(pushed), any(descended)))

    matches()
    assert sum(push for push, _ in bulk) >= 0.1 * len(bulk)
    assert sum(descent for _, descent in bulk) >= 0.1 * len(bulk)


@st.composite
def thread_cases(draw):
    """A run-ahead to take on a drawn stack: a machine with loops, a state
    whose slots include a thread's, mostly t0, a stack of copies of a block
    of one or two of A and B on a short drawn bottom, its cells interned
    consecutively, apart (each after a decoy cell on the same cell) or
    mixed, and a word that mostly reads the block's letters in the order t0
    pops them, about once a copy, with a position, level, step limit and
    leaf flag."""
    pda = draw(guess_machines(loops=True))
    moves, width, n_states, accepting, single, initial, run_units, threads, guesses = membership_tables(pda)
    state_ids, symbol_ids = {"q0": 0}, {}  # numbered as membership_tables numbers them
    for s in pda.initial_stack:
        symbol_ids.setdefault(s, len(symbol_ids))
    for t in pda.transitions:
        state_ids.setdefault(t.source, len(state_ids))
        state_ids.setdefault(t.target, len(state_ids))
        for s in (t.pop, *t.push):
            symbol_ids.setdefault(s, len(symbol_ids))
    states = [q for q in range(n_states) if any(threads[q * width : (q + 1) * width])]
    if state_ids.get("t0") in states and draw(st.integers(0, 5)):
        states = [state_ids["t0"]]
    block = draw(st.lists(st.sampled_from("AB"), min_size=1, max_size=2))
    bottom = draw(st.lists(st.sampled_from(sorted(symbol_ids)), max_size=2))
    copies = draw(st.integers(1, 24))
    stack = [*pda.initial_stack, *bottom, *block * copies]
    apart = draw(st.sampled_from(["none", "all", "some"]))
    arena = [-1], [0], [0], {}, [0]
    cell = 0
    for s in stack:
        if apart == "all" or (apart == "some" and draw(st.booleans())):
            decoy = draw(st.sampled_from([x for x in range(width) if x != symbol_ids[s]]))
            arena_push(cell, decoy, width, arena)  # so the next cell lies apart from cell
        cell = arena_push(cell, symbol_ids[s], width, arena)
    unit = draw(st.sampled_from(["".join(block[::-1]).lower()] * 4 + ["a", "b", "ab", "ba"]))
    reads = draw(st.sampled_from([copies, copies, copies + 1, copies - 1, copies // 2]))
    word = draw(st.sampled_from(["", "", "", "", "a", "b"])) + unit * reads + draw(st.text("ab", max_size=2))
    pos = draw(st.sampled_from([0, 0, 0, min(len(word), 1)]))
    end = draw(st.sampled_from([len(word), max(pos, len(word) - 3)]))
    depth = draw(st.integers(0, 4))
    max_steps = draw(st.sampled_from([depth, depth + 5, depth + 23, 500, 500]))
    machine = (moves, width, n_states, len(word) + 1, accepting, single, run_units, threads, guesses)
    state = draw(st.sampled_from(states or [0]))
    return (word, end, draw(st.booleans()), state, cell, pos, depth, machine, arena, max_steps), apart


def test_a_bulk_run_ahead_matches_the_per_step_run_ahead(monkeypatch):
    # The thread reaches the same fate and level and steps onto the same
    # descriptions as the per-step run-ahead, with and without consecutive
    # cells below it, and with some of the descriptions it steps onto
    # already visited or given up: the copies of a loop are taken in bulk
    # only up to the first of those, and never where the cells below are
    # not consecutive.
    descend = search_module._descend
    descended = []

    def counted(word, end, mark, cell, pos, *rest):
        out = descend(word, end, mark, cell, pos, *rest)
        descended.append(out[1] - pos)
        return out

    monkeypatch.setattr(search_module, "_descend", counted)
    bulk = {"none": [], "all": [], "some": []}

    @given(thread_cases(), st.data())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def matches(case, data):
        args, apart = case
        keys = reference_run_ahead(*args, set(), set())[1]
        marked = data.draw(st.lists(st.sampled_from(keys), max_size=3)) if keys else []
        for visited, ran in ((set(), set()), ({*marked[:1]}, {*marked[1:]}), (set(), {*marked})):
            descended.clear()
            fate, thread, reached = search_module._run_ahead(*args, visited, ran)
            expected = reference_run_ahead(*args, visited, ran)
            assert (fate, set(thread), reached) == (expected[0], set(expected[1]), expected[2])
            bulk[apart].append(any(descended))

    matches()
    assert sum(bulk["none"]) >= 0.1 * len(bulk["none"])
    assert not any(bulk["all"])


# The rules.


def _merging():
    """q0 reads a, and guesses t beside it at every position; t reads a too.
    Every guess's thread is the one stationary thread of t, one letter on."""
    return _keeping(("q0", "a", "q0"), ("q0", None, "t"), ("t", "a", "t"))


@pytest.mark.parametrize("words", [["a" * 30 + "b"], ["a" * 30 + "b", "a" * 30 + "c"]], ids=["leaf", "fork"])
def test_a_thread_s_descriptions_join_visited_and_no_run_ahead_steps_twice(run_aheads, monkeypatch, words):
    # In a leaf the first guess's thread dies at b: its descriptions join
    # the visited set, so every later guess is found visited and never run
    # ahead. At the fork the thread reaches the end of the common prefix
    # and is given up, and each later guess's first step lands on it: it is
    # given up there too, having stepped onto nothing new. Either way the
    # run-aheads step onto each description once, and onto no more than
    # the breadth-first search queues.
    pda = _merging()
    limits = SearchLimits(200, 10)
    stepped = []
    search = search_module._search_chain

    def per_chain(*args):
        run_aheads.clear()
        out = search(*args)
        keys = [key for *_, thread, _, _ in run_aheads for key in thread[1:]]
        assert len(keys) == len(set(keys))
        stepped.append(len(keys))
        return out

    monkeypatch.setattr(search_module, "_search_chain", per_chain)
    assert list(accepts_each(pda, words, limits)) == [reference_accepts(pda, w, limits) for w in words]
    assert stepped[0] == 30
    assert sum(stepped) <= queued_descriptions(pda, words[0], limits)


def test_a_chain_that_is_no_leaf_queues_a_thread_that_reaches_its_end(monkeypatch, chain_searches):
    # The common prefix a^30 ends every guess's thread at the fork: each is
    # queued, and the prefix parks what the search without run-aheads
    # parks, at the same levels.
    pda = _merging()
    words = ["a" * 30 + "b", "a" * 30 + "c"]
    limits = SearchLimits(200, 10)
    _, chains = chain_searches(pda, words, limits)
    monkeypatch.setattr(search_module, "_run_ahead", lambda *at: (search_module._QUEUED, [], at[6]))
    _, without = chain_searches(pda, words, limits)
    assert chains[0] == without[0]
    assert chains[0][2] == [30, 31]  # q0 and the guess t at the fork


def _late_join():
    """q0 keeps the stack on y, pushes A on a and guesses t beside both; t
    pops an A on a into t2, whose epsilon move goes back to t, so a thread
    takes two steps a letter. On y·aᵏ·b and yyy·aᵏ·b the words join after
    their y's, on the same seeds two levels apart. The thread of the guess
    halfway along the a's pops them all, about 3k/2 levels deep, where no
    other path reaches it sooner: its descriptions are the only ones with
    their stacks."""
    return GeneralPda(
        states=["q0", "t", "t2"],
        input_alphabet=["y", "a", "b"],
        stack_alphabet=[BOTTOM, "A"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=[],
        transitions=[
            *(G("q0", "y", top, (top,), "q0") for top in (BOTTOM, "A")),
            *(G("q0", "a", top, (top, "A"), "q0") for top in (BOTTOM, "A")),
            *(G("q0", None, top, (top,), "t") for top in (BOTTOM, "A")),
            G("t", "a", "A", (), "t2"),
            G("t2", None, "A", ("A",), "t"),
            G("t2", None, BOTTOM, (BOTTOM,), "t"),
        ],
    )


def test_the_deepest_level_covers_the_run_aheads_so_a_reused_join_stays_exact(monkeypatch):
    # The suffix a^12·b is searched for the first word and its search is
    # stored; the second word reaches it two levels later. Under a step
    # limit that the first word's thread meets and the second word's passes,
    # the stored search must not be reused: the second word is cut.
    pda = _late_join()
    words = ["y" + "a" * 12 + "b", "yyy" + "a" * 12 + "b"]
    leaves = []
    search = search_module._search_chain

    def recorded(word, start, end, leaf, *rest):
        leaves.append(leaf)
        return search(word, start, end, leaf, *rest)

    monkeypatch.setattr(search_module, "_search_chain", recorded)
    verdicts = set()
    for steps in range(40):
        limits = SearchLimits(steps, 20)
        expected = [reference_accepts(pda, w, limits) for w in words]
        assert list(accepts_each(pda, words, limits)) == expected, steps
        verdicts.add(tuple(expected))
    assert (NotAccepted(), LimitExceeded(by_steps=True, by_height=False)) in verdicts
    leaves.clear()
    assert accepts_each(pda, words, SearchLimits(100, 20)) == (NotAccepted(), NotAccepted())
    assert leaves == [False, True, False]  # the second word reuses the first's suffix


def _walked_keys(word, state, pos, cell, reached, machine, arena):
    """The keys of the descriptions a walk from (state, pos, cell) to
    position reached stepped onto, replayed one step at a time on the cells
    it interned."""
    width, n_states, n1, single = machine[1], machine[2], machine[3], machine[5]
    sym, below = arena[0], arena[1]
    keys = []
    while pos < reached:
        _, state, keeps_top, suffix = single[state * width + sym[cell]][word[pos]]
        cell = cell if keeps_top else below[cell]
        for s in suffix:
            cell = arena_push(cell, s, width, arena)
        pos += 1
        keys.append((cell * n1 + pos) * n_states + state)
    return keys


def _stepping_into_a_thread():
    """q0 reads a into q0 and into w, and guesses t beside it; t reads b
    into u, which reads b. w reads b into w2, and w2 reads b into u: w2's
    move reaches, one level earlier, the description the thread of the
    guess at the first b stood on."""
    return _keeping(
        ("q0", "a", "q0"), ("q0", "a", "w"), ("q0", None, "t"), ("t", "b", "u"), ("u", "b", "u"),
        ("w", "b", "w2"), ("w2", "b", "u"),
    )


def test_a_walk_never_steps_onto_a_description_a_run_ahead_marked(run_aheads, search_walks, monkeypatch):
    # single holds no move into a state a run-ahead can stand in, so the
    # walk from w2 hands back before u; on GEN_PAL and on drawn machines no
    # walked description is one a thread stood on.
    walked = []
    walk = search_module._walk

    def replayed(word, end, state, pos, cell, depth, machine, arena, *rest):
        reached = walk(word, end, state, pos, cell, depth, machine, arena, *rest)
        walked.append(set(_walked_keys(word, state, pos, cell, reached[1], machine, arena)))
        return reached

    monkeypatch.setattr(search_module, "_walk", replayed)

    def check(pda, word, limits=SearchLimits(60, 8)):
        walked.clear()
        run_aheads.clear()
        assert accepts(pda, word, limits) == reference_accepts(pda, word, limits)
        marked = {key for _, fate, _, keys, _, _ in run_aheads if fate != search_module._QUEUED for key in keys}
        assert not marked & set().union(*walked), word

    pda = _stepping_into_a_thread()
    single = membership_tables(pda)[4]
    assert not {move[1] for step in single if step for move in step.values()} & {2, 3}  # t and u
    check(pda, "abbbbc")
    assert any(fate == search_module._DIED and len(keys) > 2 for _, fate, _, keys, _, _ in run_aheads)
    for word in _pal_words():
        check(BUILTINS["GEN_PAL"].pda, word, None)

    @given(guess_machines(), st.text("ab", max_size=10))
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def drawn(pda, word):
        check(pda, word)

    drawn()


def test_a_cycle_of_state_only_epsilon_moves_gives_up_after_n_states_steps(run_aheads):
    # The guess t moves on to t2, and t2 and t3 hand the stack back and
    # forth by epsilon moves: each guess's thread is given up once it has
    # taken as many state-only steps in a row as the machine has states,
    # and the search takes the cycle, as it would without run-aheads.
    pda = _keeping(("q0", "a", "q0"), ("q0", None, "t"), ("t", None, "t2"), ("t2", None, "t3"), ("t3", None, "t2"))
    n_states = membership_tables(pda)[2]
    for word in ("", "a", "aaa"):
        for limits in (SearchLimits(40, 4), SearchLimits(3, 4)):
            run_aheads.clear()
            assert accepts(pda, word, limits) == reference_accepts(pda, word, limits)
            assert run_aheads
            assert all(fate == search_module._QUEUED and len(keys) <= n_states for _, fate, _, keys, _, _ in run_aheads)
    run_aheads.clear()
    assert accepts(pda, "aa", SearchLimits(40, 4)) == NotAccepted()
    assert [len(keys) - 1 for _, _, _, keys, _, _ in run_aheads] == [n_states - 1] * 3
