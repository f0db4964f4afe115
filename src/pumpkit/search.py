"""The membership search: accepts and accepts_each over pushdown machines.

accepts_each() answers membership only, for several words at once, and
accepts() is its one-word call. It is a deliberately separate search loop
(and also simulates general machines) so it can serve as an oracle: it
shares no code with minimal_accepting_path or the replay side, which live
in pumpkit.run. From there it takes only the verdict records, SearchLimits,
default_limits and BULK_RUN, and pumpkit.run imports nothing from here.
Its tables (ids, move table, walk and thread tables, accepting set) come
from membership_tables, which reads only the machine: accepts_each builds
them once per call, unless the caller passes them in, as `pumpkit check`
does, building them once per command and passing them to every word's
accepts call.

accepts_each searches its words in chains. A chain is a stretch of one
word, from its start position to its end, searched by its own
level-synchronous breadth-first search (_search_chain) from seeds at its
start. Descriptions at a position depend only on the letters before it, so
when the batch holds two different words, the words' longest common prefix
is one chain, searched once. Its last position is the fork: its
descriptions are expanded by epsilon moves only (no word is taken to end
there) and parked with their exact depths. Each distinct word is then
searched from the fork as a chain of its own, seeded with the parked
descriptions, each at its own level, so every description keeps its
breadth-first depth. A chain's visited set and queue are freed when it is
done, and the stack cells created under a word are truncated from the cell
arena before the next word starts, so the search holds the descriptions of
one chain at a time. A chain that ends a word accepts it when an accepting
state is dequeued at its end, as in a one-word search. The prefix accepts
nothing, so it runs until its descriptions are spent or cut: where epsilon
moves push without end, it is searched up to the limits, past the depth at
which a one-word search of an accepted word would have stopped.

Words that differ in the middle can still end alike, as the pumped words
u·vⁿ·x·yⁿ·z all end in z. Let S be the longest common suffix of the
distinct words, cut short to start no earlier than the fork in the shortest
word, so that every join point J = len(w) - |S| lies at or after the fork.
A word whose join point lies after the fork is searched up to J, and parks
its descriptions there as the prefix does; the suffix from J is a chain of
its own, seeded with them. A word whose join point is the fork is that
suffix chain already. Descriptions past J depend only on the parked ones
and on S, so equal seeds give an equal search. A suffix chain is keyed by
its seeds: the (cell, state) of each, its position rebased to J, and its
level less the lowest seed level. Before it is searched, a stored search
under the same key is reused when it was not cut and its deepest level,
shifted by this word's lowest seed level, stays within the step limit:
nothing in it then passes the limits, so this word's own search would find
the same descriptions at the same depths. Otherwise the suffix is searched.
Keys name interned cells, so only seeds on cells made before the fork,
which no truncation drops, are stored. Seeds that name a cell made under
their own word are searched as a plain chain, and joins stop for the batch
(a GEN_PAL stack holds the word read so far, so its pumped words reach the
suffix on stacks of their own). A stretch up to a join that the limits cut
gives the join up, and joins stop too: its word is searched whole from the
fork, so no suffix is seeded with a parked set that the limits cut.

All chains are searched under the one set of limits the batch is given, so
each word's verdict takes the cuts of every chain on its path. A word that
is not accepted reads LimitExceeded exactly when its one-word search under
those limits would, and NotAccepted otherwise.

Where a level of a chain's search holds one description, the search walks
it (_walk) on interned cells, with no key, visited insert or queue slot, for
as long as the search would hold one description too. A walk starts only
when no seed is left to join and (a) every step to the description read a
letter: its position less the chain's start equals its level less the
lowest seed level. Each step then needs (b) a letter of single[slot], the
next one, for the slot (state, top), (c) a successor within the limits and
on a nonempty stack, and (d) a successor before the chain's end. single
holds a letter with exactly one move in the slot, into no state that a
run-ahead (below) can stand in. In a slot with epsilon moves it holds the
letter only where each of them is a guess that dies on it at once: it only
changes the state, into a slot with no epsilon move and no move on the
letter. The search would find that guess beside the walked successor, at
the same level, at the walk's position, with no successor: the walk leaves
it out, and nothing later can meet it, since every later description lies
past that position. Where a condition fails, the description reached is
queued as its level's only entry. A move that pushes nothing reaches the
current cell or the one below it, so such a step interns no cell and needs
no height test: the walk starts from a description the search queued,
within the height limit, and such a step does not grow the stack. Under
(a), every description the search queued lies at or before the walk's
position, and a run-ahead's lie in states no walk enters, so each
successor is new; under (b) to (d) it is the only one and not cut. The
search would therefore queue it as the whole next level: the walk takes
the same steps and interns the same cells in the same order, and every cut
flag, parked description and deepest level still comes from the search.
The walked descriptions stay out of the visited set: every later
description descends from the one queued, at or past its position. A seed
that joined later could reach them again from the chain's start, so the
walk waits for the last seed.

A guess is an epsilon move in a slot that also holds a letter move, as
GEN_PAL's midpoint guess is. A slot is a thread's when it pushes nothing
(each move keeps or pops the top) and holds one epsilon move or only
letter moves on distinct letters: a description in it has at most one
successor, and makes no cell. Where the search finds a new successor of a
guess on a nonempty stack in a thread's slot, _run_ahead follows its
thread at once, each description at the level the search would find it
at, and the successor is queued only when the thread is given up. Under
the successor, the search would find the thread and nothing else, cut
where it meets a visited description, so:
- a thread that dies, for want of a move on the letter ahead, on the
  empty stack, at a visited description or, in a leaf, at the end in no
  accepting state, within the step limit (it never grows the stack, so the
  height limit cannot cut it), reaches nothing that could accept or be
  parked and cuts nothing. Its successor is dropped, and its descriptions
  join the visited set, as the search would have put them there. Another
  path that meets one later, maybe at a lower level, meets the same future,
  which dies within the limits from there too: dropping it changes no
  verdict, cut flag or parked description;
- a leaf accepts when the thread stands on an accepting state at the
  word's end within the step limit, where the search would have dequeued
  that description;
- every other thread is given up: one that would pass the step limit,
  reaches the end of a chain that is no leaf, needs a slot that is no
  thread's, takes n_states state-only epsilon moves in a row (so it
  cycles) or reaches a description a thread given up before stood on. Its
  successor is queued and the search takes the thread step by step: it
  sets the cut flags and parks the thread's descriptions at their levels.
  The descriptions of a thread given up are kept apart from the visited
  set and end only later run-aheads.
So no run-ahead steps onto a description an earlier one stood on, and the
run-aheads of a chain step onto no more descriptions than the search
without them would queue. The deepest level a chain returns covers its
run-aheads, so a stored suffix search is reused only where its threads stay
within the step limit shifted to the new seeds. On GEN_PAL the guess at
position p reads as many letters as the even palindromic radius of the
word at p, and its levels hold the one description of the push phase,
which the search walks.

A walk takes each run of a stationary move, or of a bounce, in one bulk
step. A letter move is stationary when it lands back in the slot it fired
from: its target is its source, and it pushes a copy of the symbol it pops
or pops it onto an equal one. A bounce is two letter moves on two different
letters: from (q, X) the first pushes Y on X and lands in q', and from
(q', Y) the second pops Y back into q, so k bounces leave the state and the
cell as they are. The runs are those of at least BULK_RUN equal letters, or
BULK_RUN copies of a bounce's two letters, of a str word, and only of the
letters and pairs membership_tables found such moves for; _search_runs
finds them once per chain, for all of its walks, with one str.find per run
and letter or pair, each span starting at the run's second copy. A word
that is not a str has no runs. A walk caps its per-step stretch at the next
span, tests the moves once, at the first position it reaches in the span,
and then goes on to the next run, whatever the test took; it tells a pair's
span from a letter's by the letter after the one it stands on. A run of
bounces needs room for one more symbol, and interns the one cell its push
reaches where the first push of a per-step walk would. Every other bulk
step interns the same cells, in the same order, as a per-step walk: a push
run climbs the cells it finds already interned and interns all the rest at
once as one chain of consecutive cells, recorded in the arena. A pop run
pops every copy of the top symbol that lies on top, up to the run's end and
never down to the empty stack: it steps down one cell at a time where no
chain holds the cell, and down a whole chain in one jump, since a chain's
cells are provably the ones a per-step descent visits.

The search encodes its descriptions as plain ints. States are numbered
with the initial state as 0, and stack symbols 0..width-1. The move table
is a flat list indexed by state * width + popped symbol whose buckets keep
declared order, so a dequeued description looks up its moves once. A stack
is an int cell described by three parallel lists, sym, below and size;
cell 0 is the empty stack, and cells are interned by below * width +
symbol, so equal stacks are equal cells and a visited key stays O(1)
whatever the stack depth. That key is the one int
(cell * (n + 1) + position) * n_states + state, with n the length of the
batch's longest word. Seeds and parked descriptions carry their key less
position * n_states, so they stay valid in every chain and equal
(cell, state) pairs at different joins have equal keys. The cyclic garbage
collector does not track ints, so the search allocates no tracked object
that outlives a description, and the collector's work does not grow with
the word.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import chain, islice, repeat

from .pda import Pda
from .run import BULK_RUN, Accepted, LimitExceeded, NotAccepted, SearchLimits, default_limits


def accepts(pda: Pda, word, limits: SearchLimits | None = None, *, tables=None):
    """Membership verdict only: Accepted, NotAccepted, or LimitExceeded.

    Handles general machines too (pushes of any length), which makes it
    usable as the before/after oracle for normalization equivalence. It is
    the one-word call of accepts_each.
    """
    return accepts_each(pda, (word,), limits, tables=tables)[0]


def _shared_prefix(a, b, lo: int) -> int:
    """The length of the longest common prefix of a and b, given that their
    first lo letters agree; slice compares halve the unknown stretch."""
    hi = min(len(a), len(b))
    if a[lo:hi] == b[lo:hi]:
        return hi
    while hi - lo > 1:  # a[:lo] == b[:lo] and a[:hi] != b[:hi]
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _merge_seeds(levels, keys, base: int, si: int, level: int, visited: set, queue: list) -> int:
    """Queue the seeds of one level that the chain has not reached yet (their
    keys are relative to the chain's start, base its offset) and return the
    index of the first seed of a later level."""
    while si < len(keys) and levels[si] == level:
        key = keys[si] + base
        if key not in visited:
            visited.add(key)
            queue.append(key)
        si += 1
    return si


def _search_chain(
    word, start: int, end: int, leaf: bool, seed_levels, seed_keys, machine, arena, bounds
) -> tuple:
    """Search one chain, the letters word[start:end], from its seeds, under
    the limits bounds = (max_steps, max_stack_height).

    The seeds sit at start, sorted by level, with keys relative to start. A
    leaf accepts when an accepting state is dequeued at end. Any other chain
    expands its descriptions at end by epsilon moves only and parks them,
    with their levels and with keys relative to end. Returns (accepted,
    deepest, parked levels, parked keys, cut): no description the chain
    queued, held against the limits or reached by a run-ahead lies deeper
    than level deepest, and
    cut has bit 1 set when the step limit cut a successor and bit 2 when
    the height limit did.
    """
    moves, width, n_states, n1, accepting, single, run_units, threads, guesses = machine
    sym, below, size, cells, _, _ = arena
    max_steps, max_height = bounds
    get_cell = cells.get
    runs = _search_runs(word, run_units, start, end) if run_units else ((), ())
    base = start * n_states
    parked_base = end * n_states
    parked_levels: list = []
    parked_keys: list = []
    accepted = False
    cut = 0
    ahead = 0  # the deepest level a run-ahead reached
    visited: set = set()
    seen = visited.add
    ran: set = set()  # the descriptions of threads that were run ahead and queued
    queue: list = []
    enqueue = queue.append
    ns = len(seed_keys)
    si = 0
    depth = 0
    while si < ns and not accepted:
        # Everything queued is expanded: start again at the next seed level.
        queue.clear()
        depth = seed_levels[si]
        si = _merge_seeds(seed_levels, seed_keys, base, si, depth, visited, queue)
        depth += 1  # steps to the successors of the description being expanded
        level_end = len(queue)  # queue[level_end:] are one step deeper than it
        for i, key in enumerate(queue):
            state = key % n_states
            rest = key // n_states
            pos = rest % n1
            cell = rest // n1
            if i == level_end:
                if si < ns and seed_levels[si] == depth:
                    si = _merge_seeds(seed_levels, seed_keys, base, si, depth, visited, queue)
                depth += 1
                level_end = len(queue)
                if (
                    level_end == i + 1
                    and si == ns
                    and depth <= max_steps
                    and cell
                    and single[state * width + sym[cell]]
                    and pos - start == depth - 1 - seed_levels[0]
                ):
                    # One description at this level, no seed left, and every
                    # step to it read a letter: walk it while the search would
                    # hold one (see the module docstring).
                    state, pos, cell, depth = _walk(word, end, state, pos, cell, depth, machine, arena, bounds, runs)
                    key = (cell * n1 + pos) * n_states + state
                    seen(key)
            if pos == end:
                if not leaf:
                    parked_levels.append(depth - 1)
                    parked_keys.append(key - parked_base)
                elif state in accepting:
                    accepted = True
                    break
            if not cell:
                continue
            slot = state * width + sym[cell]
            bucket = moves[slot]
            if bucket is None:
                continue
            here = word[pos] if pos < end else None
            for letter, target, keeps_top, suffix in bucket:
                npos = pos
                if letter is not None:
                    if letter != here:
                        continue
                    npos = pos + 1
                child = cell if keeps_top else below[cell]
                if suffix:
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
                if depth > max_steps or (child and size[child] > max_height):
                    cut |= 1 if depth > max_steps else 2
                    continue
                seen(found)
                step = threads[target * width + sym[child]] if letter is None and slot in guesses and child else None
                if step is not None:
                    # A guess beside letter moves whose future is one
                    # pushless thread: run it ahead (see the module
                    # docstring). Most die at once, on the letter ahead.
                    if pos < end and None not in step and here not in step:
                        continue
                    fate, thread, reached = _run_ahead(
                        word, end, leaf, target, child, npos, depth, machine, arena, max_steps, visited, ran
                    )
                    if fate is _QUEUED:
                        ran.update(thread)
                    else:
                        visited.update(thread)
                        ahead = max(ahead, reached)
                        if fate is _ACCEPTED:
                            accepted = True
                            break
                        continue
                enqueue(found)
            if accepted:
                break
    return accepted, max(depth, ahead), parked_levels, parked_keys, cut


# What became of a thread run ahead: it died within the limits before it
# could matter, it ended the word in an accepting state, or it was given up
# and its first description is queued.
_DIED = "died"
_ACCEPTED = "accepted"
_QUEUED = "queued"


def _run_ahead(
    word, end: int, leaf: bool, state: int, cell: int, pos: int, depth: int, machine, arena, max_steps: int, visited, ran
) -> tuple:
    """Follow the thread of the description (state, cell, pos) at level
    depth, a guess the search has just found, through pushless slots with
    one move each for the letter ahead; see the module docstring. Returns
    its fate, the keys of the descriptions it stepped onto after the first,
    in order, and the level of the last one it stood on.

    The thread dies where its slot has no move for the letter ahead, on the
    empty stack, at a visited description (one the search holds, or one a
    thread that died stood on) and, in a leaf, at the end without an
    accepting state. It is given up where it needs a slot that is not a
    thread's, passes the step limit, reaches a description of a thread
    given up before, takes n_states state-only epsilon moves in a row (so
    it cycles) or reaches the end of a chain that is not a leaf.
    """
    width, n_states, n1, accepting, threads = machine[1], machine[2], machine[3], machine[4], machine[7]
    sym, below = arena[0], arena[1]
    thread: list = []
    idle = 0  # state-only epsilon moves in a row
    while True:
        if pos == end:
            if not leaf:
                return _QUEUED, thread, depth
            if state in accepting:
                return _ACCEPTED, thread, depth
        if not cell:
            return _DIED, thread, depth
        step = threads[state * width + sym[cell]]
        if step is None:
            return _QUEUED, thread, depth
        move = step.get(None)  # a thread's slot holds one epsilon move or only letter moves
        if move is None:
            move = step.get(word[pos]) if pos < end else None
            if move is None:
                return _DIED, thread, depth
            pos += 1
            idle = -1
        state, keeps_top = move
        if not keeps_top:
            cell = below[cell]
            idle = -1
        idle += 1
        if idle >= n_states:
            return _QUEUED, thread, depth
        key = (cell * n1 + pos) * n_states + state
        if key in visited:
            return _DIED, thread, depth
        if key in ran or depth >= max_steps:
            return _QUEUED, thread, depth
        depth += 1
        thread.append(key)


def _walk(word, end: int, state: int, pos: int, cell: int, depth: int, machine, arena, bounds, runs) -> tuple:
    """Walk the one description of a breadth-first level, with depth the
    level of its successors, while the search would hold one; see the module
    docstring. Every step reads a letter, so positions and levels advance
    together. runs holds the spans of the word's runs of one letter that a
    stationary move reads, and of copies of two letters that a bounce
    reads, each from the run's second copy: the walk tests the moves once,
    at the first position it reaches in each span, and a stationary move or
    a bounce takes the rest of the run in one bulk step that interns the
    cells a per-step walk would; a run of bounces leaves the state and the
    cell as they are. Returns the state, position, cell and depth reached.
    """
    width, single = machine[1], machine[5]
    sym, below, size, cells, _, _ = arena
    max_steps, max_height = bounds
    starts, ends = runs
    r = bisect_right(ends, pos)  # the next run to test
    first = pos
    stop = min(end - 1, pos + 1 + max_steps - depth)  # land before end, within max_steps
    while True:
        cap = min(starts[r], stop) if r < len(starts) else stop
        while pos < cap:
            step = single[state * width + sym[cell]]
            if step is None:
                break
            move = step.get(word[pos])
            if move is None:
                break
            _, target, keeps_top, suffix = move
            child = cell if keeps_top else below[cell]
            if not suffix:
                if not child:
                    break
            else:
                if size[child] + len(suffix) > max_height:
                    break
                for s in suffix:
                    at = child * width + s
                    above = cells.get(at)
                    if above is None:
                        above = cells[at] = len(sym)
                        sym.append(s)
                        below.append(child)
                        size.append(size[child] + 1)
                    child = above
            state = target
            cell = child
            pos += 1
        else:
            if pos < stop:
                cell, took = _search_bulk(word, pos, min(ends[r], stop) - pos, state, cell, machine, arena, max_height)
                pos += took
                r += 1
                continue
        break
    return state, pos, cell, depth + pos - first


def _search_bulk(word, pos: int, k: int, state: int, cell: int, machine, arena, max_height: int) -> tuple:
    """Fire the walk's moves over up to k letters from pos in one step:
    k // 2 bounces when the next letter differs, and otherwise up to k
    firings of a stationary move. Returns the cell reached and the letters
    read, 0 when the moves do not fire this way.

    A bounce, a push and a pop back into state, keeps the cell; it needs
    room for one more symbol, and the pushed cell is interned as the first
    per-step push would intern it.

    A push of the top symbol's copy fires as often as the height limit
    allows (_push_chain interns its cells). A pop fires once per copy of
    the popped symbol on top, while a cell lies below: one cell at a time
    where no chain that _push_chain interned holds the cell, and down such
    a chain in one jump, since its cells are provably the ones a per-step
    descent visits: each holds the popped symbol and lies on the one before
    it. A chain starts on a cell the walk stood on, never on the empty
    stack, so the jump never empties it.
    """
    width, single = machine[1], machine[5]
    sym, below, size, _, chain_lo, chain_hi = arena
    top = sym[cell]
    step = single[state * width + top]
    move = None if step is None or k <= 0 else step.get(word[pos])
    if move is None:
        return cell, 0
    _, target, keeps_top, suffix = move
    if k > 1 and word[pos + 1] != word[pos]:
        step = single[target * width + suffix[0]] if keeps_top and len(suffix) == 1 else None
        back = None if step is None else step.get(word[pos + 1])
        if back is None or back[1:] != (state, False, ()) or size[cell] >= max_height:
            return cell, 0
        _push_chain(cell, suffix[0], 1, width, arena)
        return cell, k - k % 2
    if target != state:
        return cell, 0
    if keeps_top and suffix == (top,):
        k = min(k, max_height - size[cell])
        if k <= 0:
            return cell, 0
        return _push_chain(cell, top, k, width, arena), k
    if keeps_top or suffix:
        return cell, 0
    taken = 0
    while taken < k and sym[cell] == top and below[cell]:
        c = bisect_right(chain_lo, cell) - 1
        if c >= 0 and cell <= chain_hi[c]:
            lo = chain_lo[c]
            jump = min(k - taken, cell - lo + 1)
            cell = cell - jump if cell - jump >= lo else below[lo]
            taken += jump
        else:
            cell = below[cell]
            taken += 1
    return cell, taken


def _push_chain(cell: int, symbol: int, k: int, width: int, arena) -> int:
    """The cell of k copies of symbol pushed on cell, interned as k pushes
    one at a time would intern them, in the same order: existing cells are
    found by key, or climbed in bulk along a chain, and the first missing
    one starts a new chain of all the rest, numbered consecutively and
    recorded in chain_lo and chain_hi."""
    sym, below, size, cells, chain_lo, chain_hi = arena
    while k:
        at = cell * width + symbol
        above = cells.get(at)
        if above is None:
            # No cell above a new one exists yet: the rest are all new.
            n0 = len(sym)
            ids = list(range(n0, n0 + k))  # one int per cell, shared by cells and below
            cells.update(zip(chain((at,), range(n0 * width + symbol, (n0 + k - 1) * width + symbol, width)), ids))
            sym.extend(repeat(symbol, k))
            below.append(cell)
            below.extend(islice(ids, k - 1))
            size.extend(range(size[cell] + 1, size[cell] + k + 1))
            chain_lo.append(n0)
            chain_hi.append(ids[-1])
            return ids[-1]
        c = bisect_right(chain_lo, above) - 1
        if c >= 0 and above <= chain_hi[c]:
            # the chain's cells above `above` are the next ones a push finds
            climb = min(k, chain_hi[c] - above + 1)
            cell = above + climb - 1
            k -= climb
        else:
            cell = above
            k -= 1
    return cell


def _search_runs(word, units, start: int, end: int) -> tuple:
    """(starts, ends) of the maximal runs of at least BULK_RUN copies of a
    unit of units, a letter or a bounce's pair of letters, in
    word[start:end], in order, each starting at the run's second copy, for
    the walks of the chain that searches that stretch: one scan per chain,
    however many walks it makes. Only a str word has runs."""
    if not isinstance(word, str) or end - start < BULK_RUN:
        return (), ()
    spans = []
    for unit in units:
        more = re.compile(f"(?:{re.escape(unit)})*").match
        probe = unit * BULK_RUN
        at = word.find(probe, start, end)
        while at >= 0:
            stop = more(word, at + len(probe), end).end()
            spans.append((at + len(unit), stop))
            at = word.find(probe, stop, end)
    spans.sort()
    return [at for at, _ in spans], [stop for _, stop in spans]


def _surviving(bucket, top: int, moves, width: int):
    """The letters that some epsilon move of bucket, a slot's moves with top
    symbol top, survives: those its target's slot has moves on. None when
    one of them does more than change the state, or goes into a slot with an
    epsilon move of its own."""
    letters: set = set()
    for letter, target, keeps_top, suffix in bucket:
        if letter is None:
            beside = [move[0] for move in moves[target * width + top] or ()]
            if not keeps_top or suffix or None in beside:
                return None
            letters.update(beside)
    return letters


def membership_tables(pda: Pda) -> tuple:
    """The tables accepts_each searches pda with, read from the machine
    alone, no word: (moves, width, n_states, accepting, single, initial,
    run_units, threads, guesses), with initial the symbol ids of the
    initial stack, bottom first, run_units the letters the walks read with
    a stationary move and the pairs of letters they read with a bounce,
    threads the moves of the slots a run-ahead follows and guesses the
    slots it starts from; see the module docstring. accepts and
    accepts_each build them per call unless they are passed in, so a
    caller that searches one machine word by word can build them once.
    """
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
    # The threads a run-ahead follows (see the module docstring): a guess is
    # an epsilon move in a slot that also holds a letter move, and a slot is
    # a thread's when it pushes nothing and holds one epsilon move or only
    # letter moves on distinct letters. threads[slot] maps the letter of
    # each of its moves, None for epsilon, to (target, keeps_top), for the
    # slots of the states a run-ahead can stand in: the guesses' targets and
    # the states their threads go on to.
    guesses = set()
    guessed = set()
    for slot, bucket in enumerate(moves):
        if bucket is not None and len(bucket) > 1:
            letters = {move[0] for move in bucket}
            if None in letters and len(letters) > 1:
                guesses.add(slot)
                guessed.update(target for letter, target, _, _ in bucket if letter is None)
    threads: list = [None] * len(moves)
    grown = set(guessed)
    while grown:
        state = grown.pop()
        for slot in range(state * width, (state + 1) * width):
            bucket = moves[slot] or ()
            letters = [move[0] for move in bucket]
            pushless = not any(move[3] for move in bucket)
            if pushless and len(set(letters)) == len(letters) and (None not in letters or len(letters) == 1):
                threads[slot] = {letter: (target, keeps_top) for letter, target, keeps_top, _ in bucket}
                grown.update(target for _, target, _, _ in bucket if target not in guessed)
                guessed.update(target for _, target, _, _ in bucket)
    # For the walks, single[slot] maps each letter with one move in the slot
    # to that move, where the move goes to no state a run-ahead can stand in
    # (so a walk never steps onto a description a thread was run ahead
    # through) and, in a slot with epsilon moves, no epsilon move survives
    # the letter: each only changes the state, into a slot with no epsilon
    # move and no move on the letter, so it dies at once.
    single: list = [None] * len(moves)
    for slot, bucket in enumerate(moves):
        if bucket is None:
            continue
        letters = [move[0] for move in bucket]
        if None not in letters:
            survive = ()
        else:
            survive = _surviving(bucket, slot % width, moves, width) if slot in guesses else None
        if survive is not None:
            single[slot] = {
                move[0]: move
                for move in bucket
                if move[0] is not None
                and letters.count(move[0]) == 1
                and move[0] not in survive
                and move[1] not in guessed
            }
    # The letters a walk can read with a stationary move: from a slot, back
    # into its state with the same top symbol, by pushing a copy of it or
    # popping it. And the pairs of two different letters it can read with a
    # bounce: a push of one symbol, then a pop of it back into the slot's
    # state. A word reads one character at a time, so only one-character
    # letters count.
    run_units = set()
    for slot, step in enumerate(single):
        for letter, (_, target, keeps_top, suffix) in (step or {}).items():
            if len(letter) != 1:
                continue
            if target == slot // width and suffix == ((slot % width,) if keeps_top else ()):
                run_units.add(letter)
            if keeps_top and len(suffix) == 1:
                back = single[target * width + suffix[0]] or {}
                run_units.update(
                    letter + other
                    for other, move in back.items()
                    if move[1:] == (slot // width, False, ()) and len(other) == 1 and other != letter
                )
    initial = tuple(symbol_ids[s] for s in pda.initial_stack)
    return moves, width, n_states, accepting, single, initial, frozenset(run_units), threads, frozenset(guesses)


def accepts_each(pda: Pda, words, limits=None, *, tables=None) -> tuple:
    """Membership verdicts for several words, in their order, from one
    search of the words' common prefix, one of each word's remainder and
    one of their common suffix; see the module docstring.

    limits is one SearchLimits for the whole batch, or None for
    default_limits of the longest word. Each verdict, LimitExceeded flags
    included, equals accepts(pda, word, limits). tables is
    membership_tables(pda), built here when it is not passed.
    """
    words = tuple(words)
    if not words:
        return ()
    if limits is None:
        limits = default_limits(pda, max(words, key=len))
    if tables is None:
        tables = membership_tables(pda)
    moves, width, n_states, accepting, single, initial, run_units, threads, guesses = tables
    bounds = (limits.max_steps, limits.max_stack_height)
    # Stack cells: cell 0 is the empty stack; below * width + symbol -> cell.
    # Chain c holds the cells chain_lo[c]..chain_hi[c], which a walk's bulk
    # push interned consecutively (see _push_chain).
    sym = [-1]
    below = [0]
    size = [0]
    cells: dict = {}
    chain_lo: list = []
    chain_hi: list = []
    cell = 0
    for s in initial:
        top = cells[cell * width + s] = len(sym)
        sym.append(s)
        below.append(cell)
        size.append(size[cell] + 1)
        cell = top
    # A description is (cell * n1 + pos) * n_states + state, pos an offset
    # into the chain's word; n1 is shared so that a seed or parked key, taken
    # relative to its position, is (cell * n1) * n_states + state everywhere.
    n1 = max(map(len, words)) + 1
    machine = (moves, width, n_states, n1, accepting, single, run_units, threads, guesses)
    arena = (sym, below, size, cells, chain_lo, chain_hi)
    try:
        distinct = list(dict.fromkeys(words))
    except TypeError:
        # An unhashable word, as a list is: key and search each word that
        # is not a str as the tuple of its letters.
        words = tuple(w if isinstance(w, str) else tuple(w) for w in words)
        distinct = list(dict.fromkeys(words))
    # The common prefix is searched once and parks its descriptions at the
    # fork; with one distinct word the fork is the start. tail is the length
    # of the common suffix, where the words join; none for one word.
    fork = tail = prefix_cut = 0
    levels, keys = (0,), (cell * n1 * n_states,)
    if len(distinct) > 1:
        fork = min(_shared_prefix(distinct[0], w, 0) for w in distinct[1:])
        backwards = [w[::-1] for w in distinct]
        # Every join lies at or after the fork, so no word's join falls
        # inside the prefix and the suffix is searched once.
        tail = min(min(_shared_prefix(backwards[0], b, 0) for b in backwards[1:]), min(map(len, distinct)) - fork)
        _, _, levels, keys, prefix_cut = _search_chain(
            distinct[0], 0, fork, False, levels, keys, machine, arena, bounds
        )
    mark = len(sym)  # cells from here on belong to one word
    # Searched suffixes: seed key -> (accepted, cut, deepest level above the
    # lowest seed).
    joins: dict = {}
    outcomes: dict = {}  # word -> (accepted, cut anywhere on its path)
    for word in distinct:
        if len(sym) > mark:  # drop the cells of the word searched before
            for c in range(mark, len(sym)):
                del cells[below[c] * width + sym[c]]
            del sym[mark:], below[mark:], size[mark:]
            dropped = bisect_left(chain_lo, mark)
            del chain_lo[dropped:], chain_hi[dropped:]
        start, seed_levels, seed_keys, cut = fork, levels, keys, prefix_cut
        join = len(word) - tail
        if tail and join > fork:
            # Search up to the join and park there, as the prefix does. A cut
            # stretch gives the join up, and seeds on this word's own cells
            # keep the suffix unshared; either stops the joins (see the
            # module docstring).
            _, _, parked_levels, parked_keys, found = _search_chain(
                word, fork, join, False, levels, keys, machine, arena, bounds
            )
            if found:
                tail = 0
            else:
                if max(parked_keys, default=0) // (n1 * n_states) >= mark:
                    tail = 0
                start, seed_levels, seed_keys = join, parked_levels, parked_keys
        suffix = tail > 0 and start == join
        if suffix:
            lowest = seed_levels[0] if seed_levels else 0
            key = tuple(sorted(zip([level - lowest for level in seed_levels], seed_keys)))
            stored = joins.get(key)
            # A stored search that was not cut stays exact for this word when
            # its deepest level, shifted to this word's seeds, is within the
            # step limit.
            if stored is not None and not stored[1] and stored[2] + lowest <= bounds[0]:
                outcomes[word] = (stored[0], cut)
                continue
        accepted, deepest, _, _, found = _search_chain(
            word, start, len(word), True, seed_levels, seed_keys, machine, arena, bounds
        )
        if suffix:
            joins[key] = (accepted, found, deepest - lowest)
        outcomes[word] = (accepted, cut | found)

    verdicts = []
    for word in words:
        accepted, cut = outcomes[word]
        if accepted:
            verdicts.append(Accepted())
        elif cut:
            verdicts.append(LimitExceeded(by_steps=bool(cut & 1), by_height=bool(cut & 2)))
        else:
            verdicts.append(NotAccepted())
    return tuple(verdicts)
