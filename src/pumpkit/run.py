"""Run search and replay over pushdown machines.

minimal_accepting_path is a breadth-first search over instantaneous
descriptions with unit step cost, so the first accepting description dequeued
sits at the end of a minimal accepting transition sequence. Exact
(state, position, stack) repeats are deduplicated; ties break by declared
transition order. Stacks are hash-consed so visited-set entries stay O(1)
regardless of stack depth.

accepts() answers membership only. It is a deliberately separate search loop
(and also simulates general machines) so it can serve as an oracle that
shares no decomposition or path-reconstruction code.

Both searches start by indexing the transitions by (source state, popped
symbol) into a move table whose buckets keep declared order, so a dequeued
description looks up its moves once instead of scanning every transition of
its state, and both intern stack cells inline. Each search builds its own
table and runs its own loop; they share only the _Node cell type.

RunPath.stacks is the one forward walk over the stacks of a run; stack_at
and the configuration and full-state readers in levels.py all use it.

walk is the one copy of the replay step semantics: replay runs it over a
whole transition sequence, and verify.replay_pumps over the pieces of a run
between its checkpoints.
"""

from __future__ import annotations

from collections import deque
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


class _Node:
    """Interned immutable stack cell; identity equality == stack equality."""

    __slots__ = ("sym", "below", "size")

    def __init__(self, sym, below, size):
        self.sym = sym
        self.below = below
        self.size = size


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
    # (state, top) -> [(letter, target, extra, transition)], declared order
    table: dict = {}
    for t in pda.transitions:
        table.setdefault((t.source, t.pop), []).append((t.letter, t.target, t.extra, t))
    moves_for = table.get
    interned: dict = {}  # (symbol, cell below) -> cell
    lookup = interned.get
    root = None
    for sym in pda.initial_stack:
        cell = _Node(sym, root, 1 if root is None else root.size + 1)
        interned[(sym, root)] = cell
        root = cell
    n = len(word)
    accept_states = pda.accept_states
    # entry: (state, pos, node, depth, parent_entry, transition)
    start = (pda.initial_state, 0, root, 0, None, None)
    visited = {(start[0], start[1], start[2])}
    mark = visited.add
    queue = deque([start])
    dequeue = queue.popleft
    enqueue = queue.append
    cut_steps = cut_height = False

    while queue:
        entry = dequeue()
        state, pos, node, depth, _, _ = entry
        if state in accept_states and pos == n:
            return _reconstruct(word, entry, pda)
        if node is None:
            continue  # empty stack: no transition can fire
        bucket = moves_for((state, node.sym))
        if bucket is None:
            continue
        letter_here = word[pos] if pos < n else None
        depth += 1
        for letter, target, extra, t in bucket:
            npos = pos
            if letter is not None:
                if letter != letter_here:
                    continue
                npos = pos + 1
            if extra is None:
                child = node.below
            else:
                child = lookup((extra, node))
                if child is None:
                    child = interned[(extra, node)] = _Node(extra, node, node.size + 1)
            key = (target, npos, child)
            if key in visited:
                continue
            if depth > max_steps:
                cut_steps = True
                continue
            if child is not None and child.size > max_height:
                cut_height = True
                continue
            mark(key)
            enqueue((target, npos, child, depth, entry, t))

    if cut_steps or cut_height:
        return LimitExceeded(by_steps=cut_steps, by_height=cut_height)
    return NotAccepted()


def _reconstruct(word, entry, pda: NormalizedPda) -> RunPath:
    steps = []
    profile = []
    letters = []
    while entry is not None:
        state, pos, node, depth, parent, t = entry
        profile.append(0 if node is None else node.size)
        letters.append(pos)
        if t is not None:
            steps.append(t)
        entry = parent
    steps.reverse()
    profile.reverse()
    letters.reverse()
    return RunPath(
        word=word,
        steps=tuple(steps),
        profile=tuple(profile),
        letters_read=tuple(letters),
        initial_state=pda.initial_state,
        initial_stack=pda.initial_stack,
    )


def accepts(pda: Pda, word, limits: SearchLimits | None = None):
    """Membership verdict only: Accepted, NotAccepted, or LimitExceeded.

    Handles general machines too (pushes of any length), which makes it
    usable as the before/after oracle for normalization equivalence.
    """
    if limits is None:
        limits = default_limits(pda, word)
    max_steps = limits.max_steps
    max_height = limits.max_stack_height
    # (state, top) -> [(letter, target, keeps_top, suffix)], declared order.
    # A push that starts with the popped symbol keeps the current cell and
    # pushes only the rest: interning makes that the cell a pop followed by
    # the full push would reach.
    moves: dict = {}
    for t in pda.transitions:
        push = t.push
        keeps_top = bool(push) and push[0] == t.pop
        moves.setdefault((t.source, t.pop), []).append(
            (t.letter, t.target, keeps_top, push[1:] if keeps_top else push)
        )
    moves_for = moves.get
    cells: dict = {}  # (symbol, cell below) -> cell
    get_cell = cells.get
    node = None
    for sym in pda.initial_stack:
        above = _Node(sym, node, 1 if node is None else node.size + 1)
        cells[(sym, node)] = above
        node = above
    n = len(word)
    accept_states = pda.accept_states
    visited = {(pda.initial_state, 0, node)}
    seen = visited.add
    queue = deque([(pda.initial_state, 0, node, 0)])
    popleft = queue.popleft
    append = queue.append
    cut_steps = cut_height = False

    while queue:
        state, pos, node, depth = popleft()
        if state in accept_states and pos == n:
            return Accepted()
        if node is None:
            continue
        bucket = moves_for((state, node.sym))
        if bucket is None:
            continue
        here = word[pos] if pos < n else None
        depth += 1
        for letter, target, keeps_top, suffix in bucket:
            npos = pos
            if letter is not None:
                if letter != here:
                    continue
                npos = pos + 1
            child = node if keeps_top else node.below
            for sym in suffix:
                above = get_cell((sym, child))
                if above is None:
                    above = cells[(sym, child)] = _Node(
                        sym, child, 1 if child is None else child.size + 1
                    )
                child = above
            key = (target, npos, child)
            if key in visited:
                continue
            if depth > max_steps:
                cut_steps = True
                continue
            if child is not None and child.size > max_height:
                cut_height = True
                continue
            seen(key)
            append((target, npos, child, depth))

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
    # Every step fired, so each popped one symbol and pushed its push.
    return RunPath(
        word=word,
        steps=tuple(steps),
        profile=tuple(accumulate((len(t.push) - 1 for t in steps), initial=len(pda.initial_stack))),
        letters_read=tuple(accumulate((t.letter is not None for t in steps), initial=0)),
        initial_state=pda.initial_state,
        initial_stack=pda.initial_stack,
    )
