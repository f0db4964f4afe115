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

A thread's loop is taken in bulk too. Where the thread, about to read a
letter, stands in the slot it stood in one or two letters before, on a
lower cell, and every cell it popped since lies on the cell numbered
before it, its moves since then are a loop: they read a stretch of
letters and popped a block of consecutive cells. A thread reads nothing
but its slot, the letter ahead and, after a pop, the cell below, so a
further copy of the loop fires the same moves wherever the letters ahead
repeat the stretch and the cells below hold the block again, each lying
on the one numbered before it: each of its descriptions lies one block
lower and as many letters later as its match in the copy before, so its
key is that one's plus a fixed delta. _descend takes such copies in
batches that double while they are taken and halve when not, each tested
with one compare of the word's letters and one of the cells' symbols,
against the stretch's floor (below), and with its keys, one range per
step of the loop, held against the visited set and the descriptions of
threads given up with isdisjoint. A batch is taken only where it steps
onto none of them, stays within the step limit and ends before the
chain's end; the state-only epsilon moves of a copy repeat in every copy,
and each copy reads a letter. The per-step loop takes what is left: the
first description found visited or given up, the step limit, the end and
a copy that matches in part. So the thread steps onto the descriptions
the per-step thread steps onto, at the same levels, with the same fate;
only the order of its keys differs, and the search uses them as a set.

A walk takes each run of copies of a loop in one bulk step. A loop is one
or two letter moves of single that come back to the slot they fired
from. Of one letter, it is a stationary pop, which pops the top symbol
onto an equal one and lands back in its state, or a push loop: a move
that keeps the top, pushes a block whose last symbol is the top symbol
and lands back in its state. Of two different letters, it is a bounce,
from (q, X) a push of Y into q' and from (q', Y) a pop of Y back into q,
so that k bounces leave the state and the cell as they are, or a push
loop of two moves that each keep the top and push, the second landing
back in q with X on top, so each copy pushes the same block, the two
moves' pushes in order (GEN_PAL's loops read 01 and 10). The runs are
those of at least BULK_RUN copies of a unit, a letter or two letters, of
a str word, and only of the units membership_tables found loops for;
_search_runs finds them once per chain, for all of its walks, with one
str.find per run and unit, each span starting at the run's second copy. A
word that is not a str has no runs. A walk caps its per-step stretch at
the next span, tests the moves once, at the first position it reaches in
the span, and then goes on to the next run, whatever the test took; it
tells a pair's span from a letter's by the letter after the one it stands
on. A run of bounces needs room for one more symbol, and interns the one
cell its push reaches where the first push of a per-step walk would.
Every other bulk step interns the same cells, in the same order, as a
per-step walk. A push loop takes the copies that fit whole under the
height limit, and the per-step loop the rest: each move of those copies
is the slot's one move for its letter, reads a letter before the chain's
end and within the step limit, and pushes within the height limit, so
the per-step walk would take it, and k copies push the block k times.
_push_chain climbs the cells of those pushes that already exist and
interns all the rest at once, numbered in order, each but the first
lying on the one before it. A pop run pops every copy of the top symbol
that lies on top, up to the run's end and never down to the empty stack:
down a stretch of consecutive cells in batches, each tested with one
slice compare of their symbols, since a pop from a cell that lies on the
one numbered before it reaches that one, and one cell at a time
elsewhere.

The search encodes its descriptions as plain ints. States are numbered
with the initial state as 0, and stack symbols 0..width-1. The move table
is a flat list indexed by state * width + popped symbol whose buckets keep
declared order, so a dequeued description looks up its moves once. A stack
is an int cell described by three parallel lists, sym, below and size;
cell 0 is the empty stack, and equal stacks are equal cells, so a visited
key stays O(1) whatever the stack depth. That key is the one int
(cell * (n + 1) + position) * n_states + state, with n the length of the
batch's longest word. Seeds and parked descriptions carry their key less
position * n_states, so they stay valid in every chain and equal
(cell, state) pairs at different joins have equal keys. The cyclic garbage
collector does not track ints, so the search allocates no tracked object
that outlives a description, and the collector's work does not grow with
the word.

Most cells are pushed onto the newest cell, and so lie on the cell
numbered before them. Such a cell c, with below[c] == c - 1, has no dict
entry; the dict maps below * width + symbol to every other cell. To find
the cell of s pushed on c, the search tests c + 1 (below[c + 1] == c and
sym[c + 1] == s) and then the dict. No two cells lie on one cell with one
symbol, so the two tests find a cell exactly when it exists, and a push
onto the newest cell, which nothing lies on yet, needs no lookup at all.
An entry is made only with its cell, so the entries of the cells made
under a word are the dict's last ones, and truncation at the word's first
cell pops them. floor[c] is the lowest cell of
the stretch of nonempty cells up to c that each lie on the one numbered
before it, so floor never decreases, and a bulk step finds how far
consecutive cells reach in O(1), or with one bisect.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat

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
    sym, below, size = arena[:3]
    max_steps, max_height = bounds
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
                for s in suffix:
                    child = _push(child, s, width, arena)
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
    its fate, the keys of the descriptions it stepped onto after the first
    (those of copies taken in bulk grouped by the loop's step, the rest in
    order), and the level of the last one it stood on.

    The thread dies where its slot has no move for the letter ahead, on the
    empty stack, at a visited description (one the search holds, or one a
    thread that died stood on) and, in a leaf, at the end without an
    accepting state. It is given up where it needs a slot that is not a
    thread's, passes the step limit, reaches a description of a thread
    given up before, takes n_states state-only epsilon moves in a row (so
    it cycles) or reaches the end of a chain that is not a leaf.

    Where, about to read a letter, the thread stands in the slot it stood
    in one or two letters before, on a lower cell, having popped only cells
    that lie on the one numbered before them since, _descend takes further
    copies of that loop in bulk, and the per-step loop takes what is left:
    the thread steps onto the descriptions the per-step thread steps onto,
    at the same levels, and meets the same fate.
    """
    width, n_states, n1, accepting, threads = machine[1], machine[2], machine[3], machine[4], machine[7]
    sym, below, floor = arena[0], arena[1], arena[4]
    thread: list = []
    idle = 0  # state-only epsilon moves in a row
    marks: tuple = ()  # (state, cell, pos, len(thread)) where it was about to read, one and two letters back
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
            for mark in marks:
                # back in mark's slot, having popped consecutive cells down
                # to cell, and as many consecutive cells again below it
                if (
                    mark[0] == state
                    and mark[1] > cell
                    and sym[mark[1]] == sym[cell]
                    and floor[mark[1]] <= 2 * cell - mark[1]
                ):
                    reached = _descend(word, end, mark, cell, pos, depth, machine, arena, max_steps, thread, visited, ran)
                    if reached[1] != pos:
                        cell, pos, depth = reached
                        marks = ()
                    break
            marks = ((state, cell, pos, len(thread)), *marks[:1])
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


def _descend(
    word, end: int, mark, cell: int, pos: int, depth: int, machine, arena, max_steps: int, thread, visited, ran
) -> tuple:
    """Take in bulk the further copies of the loop a run-ahead's thread has
    just stepped through one step at a time: from mark, (state, cell, pos,
    len(thread)) where it was about to read a letter, to the description
    (cell, pos) at level depth, in the same slot and about to read again.
    Returns the cell, position and level the copies taken reach; their keys
    join thread. See the module docstring.

    The first copy read the letters word[mark[2]:pos] and the symbols of the
    block of cells cell + 1..mark[1], which it popped, and of cell. Where
    the cells below cell are consecutive, hold the block again and the word
    repeats the letters, a further copy fires the same moves, each landing
    one block lower and as many letters later as its match in the first
    copy: its key is that one's plus delta. Copies are taken in doubling
    batches while none reaches the end, passes the step limit or steps onto
    a key of visited or ran; the per-step loop takes what is left.
    """
    n_states, n1 = machine[2], machine[3]
    sym, floor = arena[0], arena[4]
    letters = word[mark[2] : pos]
    block = sym[cell + 1 : mark[1] + 1]
    keys = thread[mark[3] :]
    top, size, steps = sym[cell], len(block), len(keys)
    delta = (len(letters) - size * n1) * n_states
    most = min((cell - floor[mark[1]]) // size, (end - 1 - pos) // len(letters), (max_steps - depth) // steps)
    taken = 0
    batch = 1
    while batch > 0:
        batch = min(batch, most - taken)
        low = cell - batch * size  # the cell the batch lands on
        at = pos + batch * len(letters)
        if (
            batch > 0
            and word[pos:at] == letters * batch
            and sym[low] == top
            and sym[low + 1 : cell + 1] == block * batch
        ):
            copies = [range(key + (taken + 1) * delta, key + (taken + batch + 1) * delta, delta) for key in keys]
            if all(visited.isdisjoint(r) and (not ran or ran.isdisjoint(r)) for r in copies):
                for r in copies:
                    thread.extend(r)
                taken += batch
                cell, pos, depth = low, at, depth + batch * steps
                batch *= 2
                continue
        batch //= 2
    return cell, pos, depth


def _push(cell: int, symbol: int, width: int, arena) -> int:
    """The cell of symbol pushed on cell, interned: the cell numbered after
    cell when it lies on cell and holds symbol, else the dict's, else a new
    one. The dict holds only the cells that do not lie on the cell numbered
    before them, so a push onto the newest cell needs no lookup at all."""
    sym, below, size, cells, floor = arena
    above = cell + 1
    if above < len(sym):
        if below[above] == cell and sym[above] == symbol:
            return above
        at = cell * width + symbol
        found = cells.get(at)
        if found is not None:
            return found
        above = cells[at] = len(sym)
        floor.append(above)
    else:
        floor.append(floor[cell] if cell else above)
    sym.append(symbol)
    below.append(cell)
    size.append(size[cell] + 1)
    return above


def _walk(word, end: int, state: int, pos: int, cell: int, depth: int, machine, arena, bounds, runs) -> tuple:
    """Walk the one description of a breadth-first level, with depth the
    level of its successors, while the search would hold one; see the module
    docstring. Every step reads a letter, so positions and levels advance
    together. runs holds the spans of the word's runs of the units a loop of
    the walk reads, each from the run's second copy: the walk tests the
    moves once, at the first position it reaches in each span, and a loop
    takes the rest of the run's copies in one bulk step (_search_bulk).
    Returns the state, position, cell and depth reached.
    """
    width, single = machine[1], machine[5]
    sym, below, size = arena[:3]
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
                    child = _push(child, s, width, arena)
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
    """Fire the walk's moves over up to k letters from pos in one step, as
    copies of a loop that comes back to the slot (state, top): a bounce or
    a push loop of two letters when the next letter differs, and otherwise
    a push loop of one letter or a stationary pop. Returns the cell reached
    and the letters read, 0 when the moves do not fire this way.

    A bounce, a push and a pop back into state, keeps the cell; it needs
    room for one more symbol, and the pushed cell is interned as the first
    per-step push would intern it.

    A push loop's moves keep the top and push, its last push ends with the
    top symbol and its last move lands back in state: each copy pushes the
    same block, the symbols its moves push, in order. It takes the copies
    that fit under the height limit, each whole (_push_chain interns their
    cells).

    A stationary pop fires once per copy of the popped symbol on top, while
    a cell lies below: down a stretch of consecutive cells in batches, the
    whole stretch first and halved until one slice compare finds the
    popped symbol on each of its cells, and one cell at a time elsewhere. A
    stretch's floor is never the empty stack, so a batch never empties it.
    """
    width, single = machine[1], machine[5]
    sym, below, size, _, floor = arena
    top = sym[cell]
    step = single[state * width + top]
    move = None if step is None or k <= 0 else step.get(word[pos])
    if move is None:
        return cell, 0
    _, target, keeps_top, suffix = move
    if k > 1 and word[pos + 1] != word[pos]:
        step = single[target * width + suffix[-1]] if keeps_top and suffix else None
        back = None if step is None else step.get(word[pos + 1])
        if back is None or back[1] != state:
            return cell, 0
        if back[2:] == (False, ()) and len(suffix) == 1:
            if size[cell] >= max_height:
                return cell, 0
            _push(cell, suffix[0], width, arena)
            return cell, k - k % 2
        if not back[2] or back[3][-1:] != (top,):
            return cell, 0
        return _push_loop(cell, suffix + back[3], k // 2, 2, width, arena, max_height)
    if target != state:
        return cell, 0
    if keeps_top:
        if suffix[-1:] != (top,):
            return cell, 0
        return _push_loop(cell, suffix, k, 1, width, arena, max_height)
    if suffix:
        return cell, 0
    taken = 0
    while taken < k and sym[cell] == top and below[cell]:
        batch = min(k - taken, cell - floor[cell])  # the consecutive cells below cell
        while batch > 1 and sym[cell - batch + 1 : cell + 1] != [top] * batch:
            batch //= 2
        if batch:
            cell -= batch
        else:
            cell = below[cell]
            batch = 1
        taken += batch
    return cell, taken


def _push_loop(cell: int, block: tuple, copies: int, letters: int, width: int, arena, max_height: int) -> tuple:
    """Push up to copies copies of block on cell, as many as fit under the
    height limit: the cell reached and the letters they read, letters a
    copy."""
    copies = min(copies, (max_height - arena[2][cell]) // len(block))
    if copies <= 0:
        return cell, 0
    return _push_chain(cell, block, copies, width, arena), copies * letters


def _push_chain(cell: int, block: tuple, k: int, width: int, arena) -> int:
    """The cell of k copies of block pushed on cell, interned as pushes one
    symbol at a time would intern them, in the same order. Cells that exist
    are climbed, where they are consecutive as far as their symbols follow
    the block's, with one slice compare, and the first missing one starts
    a new stretch of consecutive cells, all the rest, numbered in order.
    Only that stretch's first cell can need a dict entry: each later one
    lies on the cell numbered before it."""
    sym, below, size, cells, floor = arena
    pushed, total = 0, len(block) * k
    while pushed < total:
        symbol = block[pushed % len(block)]
        above = cell + 1
        if above == len(sym):
            break  # nothing lies above the newest cell
        if below[above] != cell or sym[above] != symbol:
            above = cells.get(cell * width + symbol)
            if above is None:
                break
            cell = above
            pushed += 1
            continue
        # above and the cells after it, up to the end of their stretch of
        # consecutive cells, are the next ones a push finds while their
        # symbols follow the block
        climb = min(total - pushed, bisect_right(floor, above, above, len(sym)) - above)
        while climb > 1 and sym[above : above + climb] != _copies(block, pushed, climb):
            climb //= 2
        cell = above + climb - 1
        pushed += climb
    if pushed < total:
        n0 = len(sym)
        rest = total - pushed
        if cell != n0 - 1:
            cells[cell * width + block[pushed % len(block)]] = n0
        floor.extend(repeat(floor[cell] if cell == n0 - 1 and cell else n0, rest))
        sym.extend(_copies(block, pushed, rest))
        below.append(cell)
        below.extend(range(n0, n0 + rest - 1))
        size.extend(range(size[cell] + 1, size[cell] + rest + 1))
        cell = n0 + rest - 1
    return cell


def _copies(block: tuple, start: int, count: int) -> list:
    """The count symbols that copies of block push from the start-th on."""
    skip = start % len(block)
    return (list(block) * ((skip + count) // len(block) + 1))[skip : skip + count]


def _search_runs(word, units, start: int, end: int) -> tuple:
    """(starts, ends) of the maximal runs of at least BULK_RUN copies of a
    unit of units, a letter or two letters a loop of the walk reads, in
    word[start:end], in order, each starting at the run's second copy, for
    the walks of the chain that searches that stretch: one scan per chain,
    however many walks it makes. A run is found with one str.find and its
    end with str.startswith of BULK_RUN copies of the unit, doubled while
    they match and then halved. Only a str word has runs."""
    if not isinstance(word, str) or end - start < BULK_RUN:
        return (), ()
    spans = []
    for unit in units:
        probe = unit * BULK_RUN
        at = word.find(probe, start, end)
        while at >= 0:
            stop = at + len(probe)
            more = probe
            while word.startswith(more, stop, end):  # copies double while they match
                stop += len(more)
                more += more
            while len(more) > len(unit):  # then fewer copies than more holds are left
                more = more[: len(more) // 2]
                if word.startswith(more, stop, end):
                    stop += len(more)
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
    initial stack, bottom first, run_units the units the walks read with a
    loop, a letter of a stationary pop or of a one-move push loop and two
    letters of a bounce or of a two-move push loop (01 and 10 for GEN_PAL),
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
    # The units a walk reads with a loop, moves of single that come back to
    # the slot they start from (see _search_bulk): a letter of a stationary
    # pop, or of a push loop of one move, one that keeps the top, pushes and
    # lands in its state with its last push the top symbol; and two
    # different letters of a bounce, a push of one symbol and a pop of it
    # back into the slot's state, or of a push loop of two such moves. A
    # word reads one character at a time, so only one-character letters
    # count.
    run_units = set()
    for slot, step in enumerate(single):
        state, top = divmod(slot, width)
        for letter, (_, target, keeps_top, suffix) in (step or {}).items():
            if len(letter) != 1:
                continue
            if target == state and (suffix[-1:] == (top,) if keeps_top else not suffix):
                run_units.add(letter)
            if keeps_top and suffix:
                back = single[target * width + suffix[-1]] or {}
                run_units.update(
                    letter + other
                    for other, (_, home, kept, pushed) in back.items()
                    if home == state
                    and len(other) == 1
                    and other != letter
                    and ((not kept and not pushed and len(suffix) == 1) or (kept and pushed[-1:] == (top,)))
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
    # Stack cells: cell 0 is the empty stack. The dict maps below * width +
    # symbol to the cell, for the cells that do not lie on the cell numbered
    # before them (see _push); floor[c] is the lowest cell of the stretch of
    # consecutive nonempty cells that ends at c, each lying on the one
    # numbered before it.
    arena = sym, below, size, cells, floor = [-1], [0], [0], {}, [0]
    cell = 0
    for s in initial:
        cell = _push(cell, s, width, arena)
    # A description is (cell * n1 + pos) * n_states + state, pos an offset
    # into the chain's word; n1 is shared so that a seed or parked key, taken
    # relative to its position, is (cell * n1) * n_states + state everywhere.
    n1 = max(map(len, words)) + 1
    machine = (moves, width, n_states, n1, accepting, single, run_units, threads, guesses)
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
    held = len(cells)  # and so do the dict's entries from here on, in order
    # Searched suffixes: seed key -> (accepted, cut, deepest level above the
    # lowest seed).
    joins: dict = {}
    outcomes: dict = {}  # word -> (accepted, cut anywhere on its path)
    for word in distinct:
        if len(sym) > mark:  # drop the cells of the word searched before
            while len(cells) > held:
                cells.popitem()
            del sym[mark:], below[mark:], size[mark:], floor[mark:]
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
