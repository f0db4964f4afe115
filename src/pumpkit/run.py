"""The run side: minimal accepting runs and replay over pushdown machines.

Membership is answered apart, by pumpkit.search, which shares no code with
this module: it imports only the verdict records, SearchLimits,
default_limits and BULK_RUN from here, and nothing here imports it.

minimal_accepting_path is a breadth-first search over instantaneous
descriptions with unit step cost, so the first accepting description dequeued
sits at the end of a minimal accepting transition sequence. Exact
(state, position, stack) repeats are deduplicated; ties break by declared
transition order.

A deterministic machine needs no search: its run is unique and is followed
in linear time. Call a state live when it has moves of its own. Before the
search starts, minimal_accepting_path reads one property off its move table:
no slot (state, top) holds two live moves on one letter, or a live epsilon
move beside another live move (moves into states without moves are free).
Then each description has at most one live successor, so the search's queue
holds at depth d + 1 only the successors of the one live description at
depth d, and its visited set can prune only a repeat. _follow_run walks that
run on a list stack of symbol ids and checks each successor as the search
would: the first, in declared order, that ends the word in an accepting
state is the first accepting description the search dequeues, and the walk
so far is its parent chain. A run that gets stuck gives NotAccepted. A
repeated live description can be reached only by epsilon moves, and from it
the run cycles through descriptions already checked, so after a repeat the
walk neither accepts nor gets stuck. The walk hands the word to the search,
which starts afresh, as soon as a successor would pass max_steps or
max_stack_height, or the run takes more than |Q|·|Γ| epsilon moves in a row:
every LimitExceeded flag and every epsilon-cycle verdict comes from the
search. The count restarts whenever the stack falls below its lowest
height since the last letter move: such a description is shorter than every
other since then, so it repeats none of them, and a true epsilon cycle makes
no new low after its first lap. Of the corpus, the normalized DYCK1, REG_AB,
ANBN and data/ANBN_GENERAL.json machines have the property; GEN_PAL, whose
epsilon move guesses the midpoint beside letter moves, does not.

The walk reads most letters in a fast stretch. The one pass over the move
table that decides the property (_one_live_moves) also maps each slot
without epsilon moves to a dict from each letter to its one live move.
Before the last letter, each step of the stretch is one lookup in that
dict, a pop or a push and one append to the run. No successor there can
end the word: only the letter's moves match, and each lands before the
last position, so the stretch needs no acceptance check. Nor can one pass
a limit: each step moves the stack by one symbol, so the stretch's length
is bounded up front by both the steps max_steps leaves and the symbols
max_stack_height leaves, and no successor inside it, dead or live, passes
either. Where a bound binds, the per-step loop decides the next step.
Everything else goes through it too: the last letter, a slot with an
epsilon move, a letter with no live move and every hand-off at a limit.
After a stretch the last move read a letter, so the epsilon count
restarts.

Runs of one letter. A letter move is stationary when it lands back in the
slot it fired from: its target is its source, and it pushes a copy of the
symbol it pops (a normalized move with extra == pop) or pops it onto an
equal one. k firings of it over k equal letters have a closed form: k
copies of the symbol pushed, or k equal symbols popped. The two per-step
loops here, the fast stretch and walk, take such a run in one bulk step
and keep their per-step code everywhere else. The runs are those of at
least BULK_RUN equal letters of a str word, and _letter_runs finds them
for both loops the same way: it reads the candidate letters off every
BULK_RUN-th letter of the stretch it is given (a run of BULK_RUN letters
covers one of them), and finds each run with one str.find per run and
letter, which skips the stretches between runs in C. No loop scans more
than the stretch it walks: the fast stretch scans its word once, and walk
only the stretch its steps can read (see walk below). A word that is not a
str has no runs and keeps the per-step path. Each run's span starts at its
second letter, since the move that reads a run's first letter often comes
from another slot (as the first push onto the bottom marker and ANBN's
first b do). A loop caps its per-step stretch at the next span, tests the
move once, at the first position it reaches in the span, and then goes on
to the next run, whatever the test took; the per-step loop walks what is
left of the run. No loop tests a step that lies outside a run, so a word
without runs pays nothing per step. A bulk step of the fast stretch stays
inside the stretch's bounds, so no limit and no acceptance test moves: a
push run takes the run up to the stretch's end, and a pop run only when
as many equal symbols lie on top. The run it builds is the per-step run,
index for index.

Runs of a bounce. A bounce is two letter moves on two different letters:
from (q, X) the first reads c1, pushes Y on X and lands in q'; from
(q', Y) the second reads c2, pops Y and returns to q. Together they map a
description to itself with no stack check, so k bounces over (c1c2)^k
append the pair's two transitions k times and leave state and stack as
they are. The loops take a run of at least BULK_RUN bounces in one bulk
step, found as runs of one letter are: _letter_runs also finds the runs of
BULK_RUN copies of a pair, with one str.find per run and pair, each span
starting at the run's second copy and ending after its last whole copy.
The one-run walk reads its candidate pairs off its move table
(_bounce_pairs); walk has no table and reads them off its word: each
letter at one of every BULK_RUN positions and the letter after it, in both
orders, since the steps decide which letter pushes. The two orders give
two spans a letter apart; walk tests the first, and where the steps do not
bounce there, the second one letter on. A loop tells the two kinds of span
apart by the letter after the one it stands on. A bounce's push needs one
symbol more than its stack, which the fast stretch's bounds leave room
for. RunPath.runs keeps only runs of one stationary transition: a bounce
moves the profile up and down, so the level sweep, the JSON profile and
the range minima still read a run of bounces per position.

minimal_accepting_path encodes its descriptions as plain ints. States are
numbered with the initial state as 0, and stack symbols 0..width-1. The
move table is a flat list indexed by state * width + popped symbol whose
buckets keep declared order, so a dequeued description looks up its moves
once. A stack is an int cell described by three parallel lists, sym, below
and size; cell 0 is the empty stack, and cells are interned by
below * width + symbol, so equal stacks are equal cells and a visited key
stays O(1) whatever the stack depth. That key is the one int
(cell * (len(word) + 1) + position) * n_states + state. The parent chain
is two int lists, the parent description and the transition index. The
cyclic garbage collector does not track ints, so the search allocates no
tracked object that outlives a description, and the collector's work does
not grow with the word.

RunPath.stacks is the one forward walk over the stacks of a run; stack_at
and levels.configuration_keys use it. levels.full_state_keys reads top
symbols off the steps instead, and walks the stacks only for a cut at the
run's end.

walk is the one copy of the replay step semantics: replay runs it over a
whole transition sequence, and verify.replay_pumps over the pieces of a
run between its checkpoints. It checks a run of identical steps, or of
copies of a bounce, as a whole, from the first position it reaches in the
run's span: the steps by one count of the run's first step or one slice
compare against copies of its first two, the letters by the run they lie
in, and a pop run's symbols by one stack-slice comparison. On any mismatch
the run is walked step by step, so the first offending step and its reason
are those of the per-step walk. It scans only the stretch of the word its
steps can read, for runs of every letter and pair in it, so the walks of a
run's pieces scan the word once between them. replay takes only the
machine's own transitions: transition_indices finds each step among them
with one dict lookup, and a step that is not one of them is inapplicable.
_run_path builds the RunPath of a sequence of transition indices, which
the minimal-run search, the one-run walk (_follow_run) and replay's lookup
all hold.

The one-run walk also hands _run_path the runs of one stationary
transition it took in bulk steps, as (first step, count, transition
index), and RunPath keeps them as its runs. Only this module unpacks those
entries: profile_spans covers a stretch lo..hi of profile positions, in
order, with spans (a, b, index), index the run's transition inside a run
and None between runs. Positions a..b are entered by steps a-1..b-1, so
one reader serves the steps and the heights. Inside a run the profile
moves one way by unit steps, so a climb is a slice of consecutive heights,
a descent the same slice reversed, and a run's extremes lie at its ends; a
stretch between runs is read position by position. Four passes read a
found run's runs through profile_spans and take each whole: _run_path
makes a run's steps with one tuple repeat and its heights with one range,
and gathers the steps and height changes by index only between runs; the
level sweep (levels.max_levels) opens a climb's eras with two slice
assignments and does nothing on a descent; the JSON report's profile
(cli._dumps_report) joins a climb's height strings as one slice; and the
candidate walk's range minima (verify._walk_found_run, through
profile_extreme) read a run at its two ends. A run from the search or from
replay has no runs: it is one span between runs, which _run_path builds as
one tuple, without a copy.
"""

from __future__ import annotations

import re
from itertools import accumulate, repeat
from operator import itemgetter

from .errors import PumpingLengthOverflowError
from .normalize import pumping_params
from .pda import NormalizedPda, Pda
from .record import field, record

STEP_CAP = 1_000_000

# The shortest run of one letter, or of copies of a bounce's two letters,
# that the per-step loops, here and in the membership search, test for a
# stationary move or a bounce and take in one bulk step; see the module
# docstring.
BULK_RUN = 16


@record
class SearchLimits:
    max_steps: int
    max_stack_height: int


def default_limits(pda: Pda, word) -> SearchLimits:
    """max(10*(|w|+1), 4p for normalized machines), capped at one million.

    p is sized under a 64-bit guard: pumping_params overestimates the bit
    length of p by at most a factor of two, so an overflow there means
    p >= 2**32 and 4p is past the cap already. The limits exist only to
    guarantee termination on pathological epsilon-push loops; they are far
    above anything a minimal accepting run of a well-behaved machine needs.
    """
    bound = 10 * (len(word) + 1)
    if isinstance(pda, NormalizedPda):
        try:
            bound = max(bound, 4 * pumping_params(pda, bit_limit=64).p)
        except PumpingLengthOverflowError:
            bound = STEP_CAP
    bound = min(bound, STEP_CAP)
    return SearchLimits(max_steps=bound, max_stack_height=bound)


@record
class Accepted:
    pass


@record
class NotAccepted:
    pass


@record
class LimitExceeded:
    by_steps: bool
    by_height: bool


@record
class ReplayError:
    """Why a step sequence fails to be an accepting run of the word.

    index is the offending step, or len(steps) for end-of-run failures.
    reason is one of: inapplicable, input-mismatch, not-accepting,
    input-remaining.
    """

    index: int
    reason: str


@record
class RunPath:
    """An accepting run: the word, the transitions taken, and its profile.

    profile[i] is the stack size after i steps (so it has len(steps)+1
    entries); the letters read by then are those of the steps before i.
    initial_state/initial_stack pin down the run start so the stack contents
    at any position can be reconstructed from the path alone.

    runs holds (first step, count, transition index) for each run of one
    stationary transition that the one-run walk took in one bulk step, in
    order: steps first..first+count-1 are that transition, and the profile
    moves by one unit step, all one way, at each position first+1 ..
    first+count. It is () on a run the walk did not build. It takes no part
    in ==, the hash or the repr. profile_spans reads it; see the module
    docstring.
    """

    word: object
    steps: tuple
    profile: tuple[int, ...]
    initial_state: str
    initial_stack: tuple[str, ...]
    runs: tuple = field(default=(), repr=False, compare=False)

    def _check_position(self, pos: int) -> None:
        if not 0 <= pos <= len(self.steps):
            raise IndexError(f"position {pos} outside 0..{len(self.steps)}")

    def state_at(self, pos: int) -> str:
        self._check_position(pos)
        if pos == 0:
            return self.initial_state
        return self.steps[pos - 1].target

    def stacks(self, last_pos: int):
        """The stack at positions 0..last_pos, from one forward walk over the
        steps. Yields one list, mutated in place between positions; raises
        IndexError when last_pos is outside 0..len(steps)."""
        self._check_position(last_pos)
        stack = list(self.initial_stack)
        yield stack
        for t in self.steps[:last_pos]:
            stack.pop()
            stack.extend(t.push)
            yield stack

    def stack_at(self, pos: int) -> tuple[str, ...]:
        for stack in self.stacks(pos):
            pass
        return tuple(stack)


def minimal_accepting_path(pda: NormalizedPda, word, limits: SearchLimits | None = None):
    """Find a minimal accepting run, or prove there is none.

    Returns RunPath on success, NotAccepted when the reachable description
    space is exhausted without truncation, and LimitExceeded when a limit cut
    off part of the space first (so absence was not proven). A machine with
    at most one live move per slot and letter is walked, not searched, with
    the same result; see the module docstring. A machine that is not a
    NormalizedPda raises TypeError: normalize it first.
    """
    if not isinstance(pda, NormalizedPda):
        raise TypeError(f"minimal_accepting_path needs a NormalizedPda, got {type(pda).__name__}; normalize it first")
    if limits is None:
        limits = default_limits(pda, word)
    max_steps = limits.max_steps
    max_height = limits.max_stack_height
    state_ids = {pda.initial_state: 0}
    symbol_ids: dict = {}
    for s in pda.initial_stack:
        symbol_ids.setdefault(s, len(symbol_ids))
    for t in pda.transitions:
        state_ids.setdefault(t.source, len(state_ids))
        state_ids.setdefault(t.target, len(state_ids))
        symbol_ids.setdefault(t.pop, len(symbol_ids))
        if t.extra is not None:
            symbol_ids.setdefault(t.extra, len(symbol_ids))
    n_states = len(state_ids)
    width = len(symbol_ids)
    accepting = {state_ids[q] for q in pda.accept_states if q in state_ids}
    # state * width + top -> [(letter, target, pushed symbol or -1, transition
    # index)], declared order
    table: list = [None] * (n_states * width)
    for index, t in enumerate(pda.transitions):
        slot = state_ids[t.source] * width + symbol_ids[t.pop]
        if table[slot] is None:
            table[slot] = []
        extra = -1 if t.extra is None else symbol_ids[t.extra]
        table[slot].append((t.letter, state_ids[t.target], extra, index))
    live = {state_ids[t.source] for t in pda.transitions}
    letter_moves = _one_live_moves(table, live)
    if letter_moves is not None:
        stack = [symbol_ids[s] for s in pda.initial_stack]
        ran = _follow_run(pda, word, table, letter_moves, width, accepting, live, stack, limits, n_states * width)
        if ran is not None:
            return ran
    # Stack cells: cell 0 is the empty stack; below * width + symbol -> cell.
    sym = [-1]
    below = [0]
    size = [0]
    interned: dict = {}
    lookup = interned.get
    cell = 0
    for s in pda.initial_stack:
        top = interned[cell * width + symbol_ids[s]] = len(sym)
        sym.append(symbol_ids[s])
        below.append(cell)
        size.append(size[cell] + 1)
        cell = top
    n = len(word)
    n1 = n + 1
    # Description d is keys[d], (cell * n1 + pos) * n_states + state; it was
    # reached from description parent[d] by transition via[d]. keys is also
    # the queue: descriptions are numbered in the order they are found.
    start = cell * n1 * n_states
    keys = [start]
    parent = [-1]
    via = [-1]
    visited = {start}
    mark = visited.add
    depth = 1  # steps to the successors of the description being expanded
    level_end = 1  # keys[level_end:] are one step deeper than it
    cut_steps = cut_height = False

    for d, key in enumerate(keys):
        if d == level_end:
            depth += 1
            level_end = len(keys)
        state = key % n_states
        rest = key // n_states
        pos = rest % n1
        cell = rest // n1
        if pos == n and state in accepting:
            return _reconstruct(pda, word, parent, via, d)
        if not cell:
            continue  # empty stack: no transition can fire
        bucket = table[state * width + sym[cell]]
        if bucket is None:
            continue
        letter_here = word[pos] if pos < n else None
        for letter, target, extra, index in bucket:
            npos = pos
            if letter is not None:
                if letter != letter_here:
                    continue
                npos = pos + 1
            if extra < 0:
                child = below[cell]
            else:
                at = cell * width + extra
                child = lookup(at)
                if child is None:
                    child = interned[at] = len(sym)
                    sym.append(extra)
                    below.append(cell)
                    size.append(size[cell] + 1)
            found = (child * n1 + npos) * n_states + target
            if found in visited:
                continue
            if depth > max_steps:
                cut_steps = True
                continue
            if child and size[child] > max_height:
                cut_height = True
                continue
            mark(found)
            keys.append(found)
            parent.append(d)
            via.append(index)

    if cut_steps or cut_height:
        return LimitExceeded(by_steps=cut_steps, by_height=cut_height)
    return NotAccepted()


def _one_live_moves(table, live) -> list | None:
    """The moves of the one-run walk, or None when some slot of the move
    table holds two moves into live states on one letter, or a live epsilon
    move beside another live move (then a description can have two live
    successors).

    Otherwise the list maps each slot without epsilon moves to a dict
    letter -> (target, pushed symbol or -1, transition index) of the
    letter's one live move; a slot with an epsilon move, or no moves, maps
    to None.
    """
    letter_moves: list = [None] * len(table)
    for slot, bucket in enumerate(table):
        if bucket is None:
            continue
        letters = [letter for letter, target, _, _ in bucket if target in live]
        if len(set(letters)) < len(letters) or (None in letters and len(letters) > 1):
            return None
        if all(letter is not None for letter, _, _, _ in bucket):
            letter_moves[slot] = {
                letter: (target, extra, index)
                for letter, target, extra, index in bucket
                if target in live
            }
    return letter_moves


def _follow_run(pda: NormalizedPda, word, table, letter_moves, width, accepting, live, stack, limits, max_epsilon):
    """Follow the one run of a machine that _one_live_moves accepts, on the
    list stack of symbol ids; see the module docstring.

    Returns what the breadth-first search would: the RunPath of the first
    successor, in declared order, that ends the word in an accepting state,
    or NotAccepted when the run gets stuck. Returns None, leaving the word
    to the search, when a successor would pass a limit or the run takes
    more than max_epsilon epsilon moves in a row without a new low.
    """
    max_steps = limits.max_steps
    max_height = limits.max_stack_height
    n = len(word)
    if len(stack) > max_height:
        return None
    if not n and 0 in accepting:
        return _run_path(pda, word, ())
    starts, ends = _letter_runs(word, 0, n, _bounce_pairs(letter_moves, width))
    r = 0  # the next run to test
    steps: list = []
    runs: list = []  # (first step, count, transition index) of each bulk step
    take = steps.append
    push = stack.append
    pop = stack.pop
    state = pos = depth = epsilon = 0
    low = len(stack)  # the lowest stack since the last letter move
    while stack:
        # The fast stretch: letter moves out of slots without epsilon moves
        # that land before the last letter and within both limits (see the
        # module docstring). It stops at the start of each run's span.
        stop = min(n - 1, pos + max_steps - depth, pos + max_height - len(stack))
        first = pos
        while True:
            cap = min(starts[r], stop) if r < len(starts) else stop
            while pos < cap and stack:
                moves = letter_moves[state * width + stack[-1]]
                if moves is None:
                    break
                move = moves.get(word[pos])
                if move is None:
                    break
                state, extra, index = move
                if extra < 0:
                    pop()
                else:
                    push(extra)
                take(index)
                pos += 1
            else:
                if pos < stop and stack:
                    pos += _follow_bulk(word, pos, min(ends[r], stop) - pos, state, stack, letter_moves, width, steps, runs)
                    r += 1
                    continue
            break
        if pos > first:
            depth += pos - first
            epsilon = 0
            low = len(stack)
            if not stack:
                break
        bucket = table[state * width + stack[-1]]
        if bucket is None:
            break
        depth += 1  # steps to the successors of the current description
        here = word[pos] if pos < n else None
        move = None
        for entry in bucket:
            letter, target, extra, index = entry
            npos = pos
            if letter is not None:
                if letter != here:
                    continue
                npos = pos + 1
            # The stack never exceeds max_height, so only a push can pass it.
            if depth > max_steps or (extra >= 0 and len(stack) >= max_height):
                return None
            if npos == n and target in accepting:
                take(index)
                return _run_path(pda, word, steps, runs)
            if target in live:
                move = entry
        if move is None:
            break
        letter, state, extra, index = move
        if extra < 0:
            pop()
        else:
            push(extra)
        take(index)
        if letter is not None:
            epsilon = 0
            low = len(stack)
            pos += 1
        elif len(stack) < low:
            # A new low is shorter than every description since the last
            # letter move, so it repeats none of them.
            epsilon = 0
            low = len(stack)
        else:
            epsilon += 1
            if epsilon > max_epsilon:
                return None
    return NotAccepted()


def _follow_bulk(word, pos: int, k: int, state: int, stack: list, letter_moves, width: int, taken: list, runs: list) -> int:
    """Fire the one-run walk's moves over the k letters from pos in one step:
    k // 2 bounces when the next letter differs (the stack stays as it is),
    and otherwise k firings of a stationary move, a push of the top symbol's
    copy or a pop with k copies of that symbol on top, which runs records.
    Appends each firing's transition index to taken; returns the letters
    read, 0 when the moves do not fire this way."""
    if k <= 0:
        return 0
    top = stack[-1]
    moves = letter_moves[state * width + top]
    move = None if moves is None else moves.get(word[pos])
    if move is None:
        return 0
    target, extra, index = move
    if k > 1 and word[pos + 1] != word[pos]:
        moves = letter_moves[target * width + extra] if extra >= 0 else None
        back = None if moves is None else moves.get(word[pos + 1])
        if back is None or back[:2] != (state, -1):
            return 0
        taken.extend((index, back[2]) * (k // 2))
        return k - k % 2
    if target != state:
        return 0
    if extra == top:
        stack.extend(repeat(top, k))
    elif extra < 0 and stack[-k:] == [top] * k:
        del stack[len(stack) - k :]
    else:
        return 0
    taken.extend(repeat(index, k))
    runs.append((len(taken) - k, k, index))
    return k


def _bounce_pairs(letter_moves, width: int) -> set:
    """The letters c1 + c2 of each bounce of the one-run walk's moves: from a
    slot, c1's move pushes a symbol, and c2's move from the slot it lands in
    pops it back into the first slot's state. c1 and c2 differ, so a bounce
    never reads a run of one letter."""
    return {
        c1 + c2
        for slot, moves in enumerate(letter_moves)
        if moves
        for c1, (target, extra, _) in moves.items()
        if extra >= 0
        for c2, (back, popped, _) in (letter_moves[target * width + extra] or {}).items()
        if back == slot // width and popped < 0 and c1 != c2
    }


def _letter_runs(word, lo: int, hi: int, pairs=None) -> tuple:
    """(starts, ends) of the maximal runs in word[lo:hi] of at least BULK_RUN
    copies of one letter or of one bounce's pair of letters, in order, each
    starting at the run's second copy: one str.find per run and letter or
    pair skips the stretches between runs in C. The letters are read off the
    word, and so are the pairs, in both orders, when pairs is None. Only a
    str word has runs."""
    if not isinstance(word, str) or hi - lo < BULK_RUN:
        return (), ()
    # A run of BULK_RUN letters covers one of every BULK_RUN positions, and
    # one of BULK_RUN pairs two of them in a row.
    letters = set(word[lo:hi:BULK_RUN])
    if pairs is None:
        after = set(word[lo + 1 : hi : BULK_RUN])
        pairs = {a + b for x in letters for y in after if x != y for a, b in ((x, y), (y, x))}
    spans = []
    for unit in letters | pairs:
        more = re.compile(f"(?:{re.escape(unit)})*").match
        probe = unit * BULK_RUN
        at = word.find(probe, lo, hi)
        while at >= 0:
            end = more(word, at + len(probe), hi).end()
            spans.append((at + len(unit), end))
            at = word.find(probe, end, hi)
    spans.sort()
    return [start for start, _ in spans], [end for _, end in spans]


def _reconstruct(pda: NormalizedPda, word, parent, via, d) -> RunPath:
    """The run that reached description d, read back along the parent chain."""
    indices = []
    while d:  # description 0 is the start
        indices.append(via[d])
        d = parent[d]
    indices.reverse()
    return _run_path(pda, word, indices)


def walk(steps, word, state, stack, pos):
    """Apply steps one by one from state, stack and input position pos.

    stack is a list, updated in place. Returns the (state, pos) reached, or
    a ReplayError naming the first step (indexed within steps) that cannot
    fire: inapplicable or input-mismatch. Acceptance is for the caller to
    judge.

    Where the walk reaches a run of at least BULK_RUN equal letters, or of
    BULK_RUN copies of two different letters, of a str word, from the run's
    second copy on, it tests the steps there once: when the steps ahead, up
    to the run's end, are copies of one stationary step that all fire, or
    copies of a bounce (see the module docstring) whose two steps fire,
    they are applied in one bulk step; a run of bounces leaves the stack as
    it is. Any mismatch leaves the run to the per-step loop, so the first
    offending step and its reason are the ones a step-by-step walk names.
    """
    n = len(word)
    pop = stack.pop
    extend = stack.extend
    m = len(steps)
    starts, ends = _letter_runs(word, pos, min(n, pos + m))
    r = 0  # the next run to test
    i = 0
    while True:
        cap = m  # no step before cap can read past the run's start
        if r < len(starts):
            cap = min(m, i + max(starts[r] - pos, 0))
        for i, t in enumerate(steps[i:cap] if i or cap < m else steps, i):
            if t.source != state or not stack or stack[-1] != t.pop:
                return ReplayError(i, "inapplicable")
            if t.letter is not None:
                if pos >= n or word[pos] != t.letter:
                    return ReplayError(i, "input-mismatch")
                pos += 1
            pop()
            extend(t.push)
            state = t.target
        i = cap
        if i == m:
            return state, pos
        if pos < starts[r]:
            continue  # epsilon steps read no letter: the run lies ahead
        took = _walk_bulk(steps, i, word, pos, min(ends[r] - pos, m - i), state, stack)
        i += took
        pos += took
        r += 1


def _walk_bulk(steps, i: int, word, pos: int, k: int, state, stack: list) -> int:
    """Apply steps from steps[i] in one step over the k letters from pos,
    which repeat one letter or, when the next letter differs, one pair of
    letters: k // 2 copies of a bounce, two steps that fire from state and
    stack, the first pushing a symbol on the one it pops and the second
    popping it back into state, which leave the stack as it is; or k copies
    of one stationary step that all fire, a step whose target is its source
    and that pushes its popped symbol twice, or pops it with as many copies
    on top. Returns the steps applied, 0 when any of this fails."""
    if k <= 0:
        return 0
    t = steps[i]
    symbol, push = t.pop, t.push
    if t.letter != word[pos] or t.source != state or not stack or stack[-1] != symbol:
        return 0
    if k > 1 and word[pos + 1] != word[pos]:
        k //= 2
        u = steps[i + 1]
        if u.letter != word[pos + 1] or u.source != t.target or u.target != state or u.push or push != (symbol, u.pop):
            return 0
        part = steps[i : i + 2 * k]
        return 2 * k if part == part[:2] * k else 0
    if t.target != state or push != (symbol, symbol) and push:
        return 0
    if steps[i : i + k].count(t) != k:
        return 0
    if push:
        stack.extend(repeat(symbol, k))
    elif stack[-k:] == [symbol] * k:
        del stack[len(stack) - k :]
    else:
        return 0
    return k


def transition_indices(pda: Pda, steps):
    """The index in pda.transitions of each step, or ReplayError(i,
    "inapplicable") for the first step i that is not a transition of pda.

    A dict lookup compares by identity before equality, so a step taken
    from pda.transitions and an equal copy of one are both found.
    """
    index_of = {t: index for index, t in enumerate(pda.transitions)}
    indices = []
    for i, t in enumerate(steps):
        index = index_of.get(t)
        if index is None:
            return ReplayError(i, "inapplicable")
        indices.append(index)
    return indices


def replay(pda: Pda, steps, word):
    """Apply a transition sequence from the initial description.

    Returns the resulting RunPath when it is an accepting run of the word,
    otherwise a ReplayError naming the first offending step index and the
    reason (inapplicable / input-mismatch / not-accepting / input-remaining).
    A step that is not a transition of pda is inapplicable.
    """
    indices = transition_indices(pda, steps)
    foreign = indices if isinstance(indices, ReplayError) else None
    # a step before the first foreign one may still fail first
    fired = steps if foreign is None else steps[: foreign.index]
    reached = walk(fired, word, pda.initial_state, list(pda.initial_stack), 0)
    if isinstance(reached, ReplayError):
        return reached
    if foreign is not None:
        return foreign
    state, pos = reached
    if state not in pda.accept_states:
        return ReplayError(len(steps), "not-accepting")
    if pos != len(word):
        return ReplayError(len(steps), "input-remaining")
    return _run_path(pda, word, indices)


def profile_spans(runs, lo: int, hi: int):
    """Cover positions lo..hi of a run's profile, in order, with spans
    (a, b, index): index is the transition index of the run (see
    RunPath.runs) that enters each of positions a..b, and None on a
    stretch between runs. Positions a..b are entered by steps a-1..b-1;
    see the module docstring."""
    pos = lo
    for first, count, index in runs:
        a, b = max(first + 1, pos), min(first + count, hi)
        if a > b:  # the run ends before pos, or it and all after it start past hi
            if a > hi:
                break
            continue
        if pos < a:
            yield pos, a - 1, None
        yield a, b, index
        pos = b + 1
    if pos <= hi:
        yield pos, hi, None


def _run_path(pda: Pda, word, indices, runs=()) -> RunPath:
    """The RunPath of the transitions of pda at indices, a sequence that
    fires from the initial description: each step pops one symbol and
    pushes its push, so the profile adds up one height change per
    transition. runs (see RunPath.runs) marks stretches of indices that
    repeat one stationary transition; each is taken whole, its steps as one
    tuple repeat and its heights as one range, and only the indices between
    them are looked up one by one."""
    transitions = pda.transitions
    moves = [len(t.push) - 1 for t in transitions]
    step_parts, height_parts = [], []
    h = len(pda.initial_stack)
    # Each span gives its steps and the heights of its positions; the first
    # span also gives position 0's, so a run without runs is one tuple.
    for a, b, index in profile_spans(runs, 1, len(indices)):
        if index is None:
            gap = indices[a - 1 : b] if runs else indices  # without runs, one gap: no copy
            if len(gap) > 1:
                # one gather in C per tuple, faster than a map over
                # __getitem__ on long runs; itemgetter returns a tuple only
                # for two or more indices
                pick = itemgetter(*gap)
                step_parts.append(pick(transitions))
                changes = pick(moves)
            else:
                step_parts.append(tuple(transitions[i] for i in gap))
                changes = [moves[i] for i in gap]
            heights = accumulate(changes, initial=h)
            if a > 1:
                next(heights)
            height_parts.append(tuple(heights))
        else:
            step_parts.append((transitions[index],) * (b - a + 1))
            move = moves[index]  # 1 or -1: a stationary move pushes or pops one symbol
            height_parts.append(range(h if a == 1 else h + move, h + move * (b - a + 2), move))
        h = height_parts[-1][-1]
    return RunPath(
        word=word,
        steps=_joined(step_parts),
        profile=_joined(height_parts) if height_parts else (h,),
        initial_state=pda.initial_state,
        initial_stack=pda.initial_stack,
        runs=tuple(runs),
    )


def _joined(parts: list) -> tuple:
    """The items of parts, in order, as one tuple; a lone tuple as it is,
    without a copy."""
    if len(parts) == 1:
        return tuple(parts[0])
    items: list = []
    for part in parts:
        items += part
    return tuple(items)


def profile_extreme(pick, profile, runs, lo: int, hi: int) -> int:
    """pick(profile[lo:hi + 1]) for pick min or max, a profile whose runs
    (see RunPath.runs) are read at their two ends only: the profile moves
    one way inside each, so its extremes there lie at the ends."""
    last = len(profile) - 1
    return pick(
        pick(profile[a : b + 1] if a or b < last else profile) if index is None else pick(profile[a], profile[b])
        for a, b, index in profile_spans(runs, lo, hi)
    )
