"""Run search and replay over pushdown machines.

minimal_accepting_path is a breadth-first search over instantaneous
descriptions with unit step cost, so the first accepting description dequeued
sits at the end of a minimal accepting transition sequence. Exact
(state, position, stack) repeats are deduplicated; ties break by declared
transition order.

accepts() answers membership only. It is a deliberately separate search loop
(and also simulates general machines) so it can serve as an oracle: the two
searches share no code.

Each search encodes its descriptions as plain ints, built per call. States
are numbered with the initial state as 0, and stack symbols 0..width-1. The
move table is a flat list indexed by state * width + popped symbol whose
buckets keep declared order, so a dequeued description looks up its moves
once. A stack is an int cell described by three parallel lists, sym, below
and size; cell 0 is the empty stack, and cells are interned by
below * width + symbol, so equal stacks are equal cells and a visited key
stays O(1) whatever the stack depth. That key is the one int
(cell * (len(word) + 1) + position) * n_states + state.
minimal_accepting_path keeps its parent chain as two int lists, the parent
description and the transition index. The cyclic garbage collector does not
track ints, so neither search allocates a tracked object that outlives a
description, and the collector's work does not grow with the word.

RunPath.stacks is the one forward walk over the stacks of a run; stack_at
and the configuration and full-state readers in levels.py all use it.

walk is the one copy of the replay step semantics: replay runs it over a
whole transition sequence, and verify.replay_pumps over the pieces of a run
between its checkpoints. _run_path builds the RunPath of a transition
sequence for replay and for the minimal-run search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import PumpingLengthOverflowError
from .normalize import pumping_params
from .pda import NormalizedPda, Pda

STEP_CAP = 1_000_000


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Accepted:
    pass


@dataclass(frozen=True)
class NotAccepted:
    pass


@dataclass(frozen=True)
class LimitExceeded:
    by_steps: bool
    by_height: bool


@dataclass(frozen=True)
class ReplayError:
    """Why a step sequence fails to be an accepting run of the word.

    index is the offending step, or len(steps) for end-of-run failures.
    reason is one of: inapplicable, input-mismatch, not-accepting,
    input-remaining.
    """

    index: int
    reason: str


@dataclass(frozen=True)
class RunPath:
    """An accepting run: the word, the transitions taken, and two aligned
    position-indexed sequences.

    profile[i] is the stack size after i steps (so it has len(steps)+1
    entries); letters_read[i] is how many input letters have been consumed
    after i steps. initial_state/initial_stack pin down the run start so the
    stack contents at any position can be reconstructed from the path alone.
    """

    word: object
    steps: tuple
    profile: tuple[int, ...]
    letters_read: tuple[int, ...]
    initial_state: str
    initial_stack: tuple[str, ...]

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
    off part of the space first (so absence was not proven).
    """
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


def _reconstruct(pda: NormalizedPda, word, parent, via, d) -> RunPath:
    """The run that reached description d, read back along the parent chain."""
    steps = []
    while d:  # description 0 is the start
        steps.append(pda.transitions[via[d]])
        d = parent[d]
    steps.reverse()
    return _run_path(pda, word, steps)


def accepts(pda: Pda, word, limits: SearchLimits | None = None):
    """Membership verdict only: Accepted, NotAccepted, or LimitExceeded.

    Handles general machines too (pushes of any length), which makes it
    usable as the before/after oracle for normalization equivalence.
    """
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
        for s in t.push:
            symbol_ids.setdefault(s, len(symbol_ids))
    n_states = len(state_ids)
    width = len(symbol_ids)
    accepting = {state_ids[q] for q in pda.accept_states if q in state_ids}
    # state * width + top -> [(letter, target, keeps_top, suffix)], declared
    # order. A push that starts with the popped symbol keeps the current cell
    # and pushes only the rest: interning makes that the cell a pop followed
    # by the full push would reach.
    moves: list = [None] * (n_states * width)
    for t in pda.transitions:
        push = t.push
        keeps_top = bool(push) and push[0] == t.pop
        slot = state_ids[t.source] * width + symbol_ids[t.pop]
        if moves[slot] is None:
            moves[slot] = []
        suffix = tuple(symbol_ids[s] for s in (push[1:] if keeps_top else push))
        moves[slot].append((t.letter, state_ids[t.target], keeps_top, suffix))
    # Stack cells: cell 0 is the empty stack; below * width + symbol -> cell.
    sym = [-1]
    below = [0]
    size = [0]
    cells: dict = {}
    get_cell = cells.get
    cell = 0
    for s in pda.initial_stack:
        top = cells[cell * width + symbol_ids[s]] = len(sym)
        sym.append(symbol_ids[s])
        below.append(cell)
        size.append(size[cell] + 1)
        cell = top
    n = len(word)
    n1 = n + 1
    # A description is (cell * n1 + pos) * n_states + state. queue holds the
    # descriptions in the order they are found and is read front to back.
    start = cell * n1 * n_states
    queue = [start]
    enqueue = queue.append
    visited = {start}
    seen = visited.add
    depth = 1  # steps to the successors of the description being expanded
    level_end = 1  # queue[level_end:] are one step deeper than it
    cut_steps = cut_height = False

    for i, key in enumerate(queue):
        if i == level_end:
            depth += 1
            level_end = len(queue)
        state = key % n_states
        rest = key // n_states
        pos = rest % n1
        cell = rest // n1
        if pos == n and state in accepting:
            return Accepted()
        if not cell:
            continue
        bucket = moves[state * width + sym[cell]]
        if bucket is None:
            continue
        here = word[pos] if pos < n else None
        for letter, target, keeps_top, suffix in bucket:
            npos = pos
            if letter is not None:
                if letter != here:
                    continue
                npos = pos + 1
            child = cell if keeps_top else below[cell]
            for s in suffix:
                at = child * width + s
                above = get_cell(at)
                if above is None:
                    above = cells[at] = len(sym)
                    sym.append(s)
                    below.append(child)
                    size.append(size[child] + 1)
                child = above
            found = (child * n1 + npos) * n_states + target
            if found in visited:
                continue
            if depth > max_steps:
                cut_steps = True
                continue
            if child and size[child] > max_height:
                cut_height = True
                continue
            seen(found)
            enqueue(found)

    if cut_steps or cut_height:
        return LimitExceeded(by_steps=cut_steps, by_height=cut_height)
    return NotAccepted()


def walk(steps, word, state, stack, pos):
    """Apply steps one by one from state, stack and input position pos.

    stack is a list, updated in place. Returns the (state, pos) reached, or
    a ReplayError naming the first step (indexed within steps) that cannot
    fire: inapplicable or input-mismatch. Acceptance is for the caller to
    judge.
    """
    n = len(word)
    pop = stack.pop
    extend = stack.extend
    for i, t in enumerate(steps):
        if t.source != state or not stack or stack[-1] != t.pop:
            return ReplayError(i, "inapplicable")
        if t.letter is not None:
            if pos >= n or word[pos] != t.letter:
                return ReplayError(i, "input-mismatch")
            pos += 1
        pop()
        extend(t.push)
        state = t.target
    return state, pos


def replay(pda: Pda, steps, word):
    """Apply a transition sequence from the initial description.

    Returns the resulting RunPath when it is an accepting run of the word,
    otherwise a ReplayError naming the first offending step index and the
    reason (inapplicable / input-mismatch / not-accepting / input-remaining).
    """
    reached = walk(steps, word, pda.initial_state, list(pda.initial_stack), 0)
    if isinstance(reached, ReplayError):
        return reached
    state, pos = reached
    if state not in pda.accept_states:
        return ReplayError(len(steps), "not-accepting")
    if pos != len(word):
        return ReplayError(len(steps), "input-remaining")
    return _run_path(pda, word, steps)


def _run_path(pda: Pda, word, steps) -> RunPath:
    """The RunPath of steps, a sequence that fires from the initial
    description: each step pops one symbol and pushes its push."""
    return RunPath(
        word=word,
        steps=tuple(steps),
        profile=tuple(accumulate((len(t.push) - 1 for t in steps), initial=len(pda.initial_stack))),
        letters_read=tuple(accumulate((t.letter is not None for t in steps), initial=0)),
        initial_state=pda.initial_state,
        initial_stack=pda.initial_stack,
    )
