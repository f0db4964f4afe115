"""Stack-profile level analysis.

A stack-size profile of a normalized run moves in unit steps. An N-level is a
triple of positions i < j < k with s_i = s_k, s_j = s_i + N, and the profile
confined to [s_i, s_j] on both flanks [i, j] and [j, k]. The level of a run
(within a window) is the largest such N.

max_levels finds it in one left-to-right sweep. An era of height h opens
when the profile steps up onto h and closes when it steps below h; its
candidate triple is (its first position, the highest peak inside it, its last
position). The open eras always cover the consecutive heights from the lowest
height so far up to the current one, so their state lives in three int lists
indexed by height and nothing is allocated per era. A descent closes one era
per step, and each passes its peak to the era below: the peak carried down
only grows while the height falls, so the candidates of one descent strictly
increase and only the last, the era just above the valley, can be the best.
The sweep therefore does nothing on a down-step; at the valley it folds the
peaks of the eras the descent closed, weighs that one candidate and writes the
peak into the valley's era. The windowed and the whole-run level come off one
such sweep, which keeps its best witness as plain ints and builds one
LevelTriple per result it returns. The sweep also checks that the profile
moves in unit steps, with no pass of its own: each up-step as it takes it,
and each descent once, at its valley, by its length against its drop. The
tests hold an independent cubic oracle for it, the era-record sweep it
replaced and the separate step pass it absorbed.

A found run's climbs and descents of one stationary transition, its
RunPath.runs, are taken whole: _sweep_runs reads them through
run.profile_spans (see the run module docstring). They are unit steps by
construction and are not checked again; a bare profile has none, and its
sweep is the per-position one throughout.

The witness scans read plain tuples. configuration_keys gives (state, top
symbols) per position, with stacks from RunPath.stacks, the run's one
forward walk. full_state_keys gives (push state, top symbol, pop state) per
height, read off the steps at its cuts: the top symbol at a position is the
one the step leaving it pops, so only a cut at the run's end walks the
stacks. extract groups these tuples. flank_cuts is
the one flank reader: it scans both flanks of a triple outward from the peak
once and returns the last push and first pop of every height from a chosen
bottom up to s_j. extract reads it once per case-2 triple: its lowest pair
bounds the p'-level the triple shrinks to, full_state_keys takes its list,
and the word is cut at its entries.
"""

from __future__ import annotations

from .errors import TopSymbolMismatchError
from .pda import BLANK
from .record import record
from .run import RunPath, profile_spans


@record
class LevelTriple:
    i: int
    j: int
    k: int
    n: int


_NOT_UNIT = "profile must move in unit steps"


class _BelowZero(Exception):
    """A height below 0 reached the sweep, which indexes its era lists by
    height: max_levels sweeps the profile again, shifted up."""


def _descent(s, peak: list, at: list, base: int, crest: int, valley: int, fresh: int) -> tuple[int, int, int, int]:
    """The last era that the descent from position crest to position valley
    closes, as (h, top, top_pos, k): its height, the highest peak folded into
    it with that peak's position, and its last position.

    The descent closes the eras from s[crest] down to the valley's height + 1,
    or down to base if it steps below base. The era at s[crest] opened at
    crest and nothing rose inside it, so its own height is its peak; each
    lower era adds the peak it kept from its earlier children. The eras from
    fresh up to s[crest] kept none, so only those below fresh are read. On
    ties the lowest era's peak wins, as when each closing era handed its peak
    down only if it was strictly higher.
    """
    crest_h = s[crest]
    h = max(base, s[valley] + 1)
    k = crest + crest_h - h
    kept = peak[h : min(crest_h, fresh)]
    if kept:
        top = max(kept)
        if top >= crest_h:
            return h, top, at[h + kept.index(top)], k
    return h, crest_h, crest, k


def _sweep(s, start: int, stop: int, eras: tuple, state: tuple) -> tuple:
    """Advance the sweep over positions start..stop-1 of s, updating eras in
    place; returns the new state (base, crest, fresh, best_n, best_i,
    best_j, best_k), best_n = 0 while no triple has closed.

    eras holds first[h], peak[h] and at[h] for each open era h: its first
    position, the highest peak handed to it (-1 for none) and that peak's
    position. base is the lowest open era and crest the last up-step (or
    position 0); the profile only falls after crest. The eras from fresh up
    to s[crest] have kept no peak: they opened on the climb to crest. A
    down-step does nothing.
    An up-step after a descent first settles it at its valley, the position
    before: the descent's last era is weighed as the best triple, and its peak
    goes into the valley's era, or the valley opens a fresh era if it lies
    below base. Then the up-step opens its own era.

    The sweep checks the unit steps as it goes: an up-step must rise by one
    before it indexes the era lists, and a descent, checked once at its
    valley, must be as long as its drop. ValueError names a profile that
    moves otherwise.
    """
    first, peak, at = eras
    base, crest, fresh, best_n, best_i, best_j, best_k = state
    v = s[start - 1]
    for pos in range(start, stop):
        prev, v = v, s[pos]
        if v < prev:
            continue
        if v - prev != 1:
            raise ValueError(_NOT_UNIT)
        valley = pos - 1
        if valley > crest:
            # every step of the descent falls, so each falls by one exactly
            # when its drop equals its length
            if s[crest] - prev != valley - crest:
                raise ValueError(_NOT_UNIT)
            if valley > crest + 1:
                h, top, top_pos, k = _descent(s, peak, at, base, crest, valley, fresh)
                if top - h > best_n:
                    best_n, best_i, best_j, best_k = top - h, first[h], top_pos, k
            else:
                # one step down closes only the crest's era, whose peak is its own height
                top, top_pos = v, crest
            if prev < base:
                if prev < 0:
                    raise _BelowZero
                first[prev] = valley
                peak[prev] = -1
                base = prev
            elif top > peak[prev]:
                peak[prev] = top
                at[prev] = top_pos
            fresh = v
        first[v] = pos
        peak[v] = -1
        crest = pos
    return base, crest, fresh, best_n, best_i, best_j, best_k


def _sweep_runs(s, start: int, stop: int, eras: tuple, state: tuple, runs) -> tuple:
    """_sweep over positions start..stop-1 of s, taking the spans of runs
    (see run.profile_spans) whole; they are unit steps by construction and
    are not checked again.

    A climb's first up-step goes through _sweep, since it may settle a
    descent; the climb's other up-steps only open their eras, which one
    slice assignment to first and one to peak do, and the last of them is
    the crest; the climb's eras keep fresh where its first up-step left it,
    so a descent off the climb reads none of them. A descent's down-steps do
    nothing, and its valley is settled after it as any other.
    """
    first, peak, _ = eras
    for a, b, index in profile_spans(runs, start, stop - 1):
        if index is None:
            state = _sweep(s, a, b + 1, eras, state)
        elif s[a] > s[a - 1]:
            state = _sweep(s, a, a + 1, eras, state)
            h = s[a]
            first[h + 1 : h + 1 + b - a] = range(a + 1, b + 1)
            peak[h + 1 : h + 1 + b - a] = [-1] * (b - a)
            base, _, *rest = state
            state = (base, b, *rest)
    return state


def _close(s, end: int, eras: tuple, state: tuple) -> tuple[int, LevelTriple | None]:
    """The sweep's result if the profile ended at position end, without
    changing eras or state; the one LevelTriple of the result is built here.

    A descent still open ends in a valley at end, where it is checked as at
    any other valley. Then the eras still open
    close topmost first, era h with its last position first[h + 1] - 1, the
    step before the profile last rose onto h + 1. Their peaks are not handed
    down: an enclosing era's last position predates any child that survived to
    the end, so such peaks sit past its k.
    """
    first, peak, at = eras
    base, crest, fresh, best_n, best_i, best_j, best_k = state
    v = s[end]
    if v < 0:
        raise _BelowZero
    top, top_pos = peak[v], at[v]
    if end > crest:
        if s[crest] - v != end - crest:
            raise ValueError(_NOT_UNIT)
        h, t, t_pos, k = _descent(s, peak, at, base, crest, end, fresh)
        if t - h > best_n:
            best_n, best_i, best_j, best_k = t - h, first[h], t_pos, k
        if v < base:
            # the valley opens a fresh era, the only one open
            base, top = v, -1
        elif t > top:
            top, top_pos = t, t_pos
    if top - v > best_n:
        best_n, best_i, best_j, best_k = top - v, first[v], top_pos, end
    for h in range(v - 1, base - 1, -1):
        if peak[h] - h > best_n:
            best_n, best_i, best_j, best_k = peak[h] - h, first[h], at[h], first[h + 1] - 1
    return best_n, LevelTriple(best_i, best_j, best_k, best_n) if best_n else None


def max_levels(
    profile, window_end: int, runs=()
) -> tuple[tuple[int, LevelTriple | None], tuple[int, LevelTriple | None]]:
    """The largest level N with k <= window_end, and the largest with k at
    most the profile's end, each with one witness (None when N = 0), from
    one sweep; a window_end below 0 gives (0, None) for the window.

    An era opens for height h when the profile steps up onto h and closes
    when it steps below h (heights never undercut stay open to the end).
    Within an era, the candidate triple is (first position at h, position of
    the highest peak inside the era, last position at h). Each descent is
    settled once, at its valley: within it the peak handed down never falls
    while h does, so peak - h strictly increases and no earlier era of the
    descent can beat its last. The windowed result is the sweep's state at
    window_end with the open descent and every open era closed; the sweep
    then goes on to the end of the profile, where the pending descent
    continues as if the window had not stopped it. A profile that does not
    move in unit steps raises ValueError, whatever the window.

    runs, the found run's RunPath.runs, lets the sweep take each of the
    run's climbs and descents of one stationary transition whole; its steps
    are unit steps by construction and are not checked again. A bare
    profile has none, and then every step is checked.
    """
    if len(profile) < 3:
        if len(profile) == 2 and abs(profile[1] - profile[0]) != 1:
            raise ValueError(_NOT_UNIT)
        return (0, None), (0, None)
    try:
        return _levels(profile, window_end, runs)
    except _BelowZero:
        # A profile with a height below 0 is swept shifted up; the shift
        # moves no position or level.
        lowest = min(profile)
        return _levels([h - lowest for h in profile], window_end, runs)


def _levels(profile, window_end: int, runs) -> tuple:
    """max_levels of a profile of at least 3 positions. A new lowest height
    can appear only at the start, at a valley below every open era or at
    the profile's or the window's end; each of those places raises
    _BelowZero when the height is below 0, before it indexes an era list."""
    last = len(profile) - 1
    end = max(min(window_end, last), 0)
    s0 = profile[0]
    if s0 < 0:
        raise _BelowZero
    # A unit-step walk climbs (last + s_last - s0) / 2 times, so no height
    # exceeds s0 plus that. The lists' initial values already open s0's era at 0.
    size = (last + profile[last] + s0) // 2 + 1
    eras = [0] * size, [-1] * size, [0] * size
    try:
        state = _sweep_runs(profile, 1, end + 1, eras, (s0, 0, s0, 0, 0, 0, 0), runs)
        windowed = _close(profile, end, eras, state)
        whole = windowed
        if end < last:
            whole = _close(profile, last, eras, _sweep_runs(profile, end + 1, last + 1, eras, state, runs))
    except IndexError:
        # The sweep has checked every step up to a height past that bound,
        # so a step further on leaves unit steps.
        raise ValueError(_NOT_UNIT) from None
    return windowed, whole


def flank_cuts(profile, triple: LevelTriple, bottom: int | None = None) -> list[tuple[int, int]]:
    """(last push, first pop) of each height bottom..s_j of a level triple,
    lowest height first; bottom defaults to s_i.

    The last push of h is the largest position y <= j with s_y = h, the last
    time h was (re)established before the peak; the first pop is the
    smallest y >= j with s_y = h, the first return to h after it. Each flank
    is scanned outward from j, inside [i, k], and the scan stops once every
    height is found, so the cost follows the heights asked for, not the
    triple's width.
    """
    lo = profile[triple.i] if bottom is None else bottom
    hi = profile[triple.j]
    if not (profile[triple.i] <= lo <= hi):
        raise ValueError(f"height {lo} outside the triple's range")
    flanks = (range(triple.j, triple.i - 1, -1), range(triple.j, triple.k + 1))
    found = ([None] * (hi - lo + 1), [None] * (hi - lo + 1))
    for positions, first_at in zip(flanks, found):
        missing = len(first_at)
        for y in positions:
            d = profile[y] - lo
            if 0 <= d < len(first_at) and first_at[d] is None:
                first_at[d] = y
                missing -= 1
                if not missing:
                    break
    for h, lp, fp in zip(range(lo, hi + 1), *found):
        if lp is None:
            raise ValueError(f"height {h} does not occur on the rising flank")
        if fp is None:
            raise ValueError(f"height {h} does not occur on the falling flank")
    return list(zip(*found))


def configuration_keys(path: RunPath, last_pos: int, depth: int) -> list[tuple[str, tuple[str, ...]]]:
    """(state, top `depth` stack symbols top first) at positions 0..last_pos,
    in one pass over the steps; shallower stacks are padded with blanks.
    The case-1 scan groups these plain tuples.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    states = [path.initial_state]
    states += [t.target for t in path.steps[:last_pos]]
    pad = (BLANK,) * depth
    out = []
    for state, stack in zip(states, path.stacks(last_pos)):
        top_first = tuple(stack[: -depth - 1 : -1])
        if len(top_first) < depth:
            top_first += pad[len(top_first) :]
        out.append((state, top_first))
    return out


def full_state_keys(path: RunPath, cuts: list[tuple[int, int]]) -> list[tuple[str, str, str]]:
    """(push state, top symbol, pop state) of the heights whose flank_cuts
    are `cuts`, lowest first, read off the steps at the cut positions.

    The top symbol at a position before the run's end is the one the step
    leaving it pops, and the state there is the one the step before it
    enters, so each cut costs O(1); only a cut at the run's end walks the
    stacks (stack_at). The symbol at a height when it was last established
    on the rising flank provably still rests there at the first return on
    the falling flank; this is checked, and TopSymbolMismatchError raised,
    on corrupted paths, since a mismatch falsifies the construction the
    caller is running. A cut outside the run raises IndexError; an empty
    list, or a cut whose two positions are not both at its height (the
    first cut's push height, plus one per cut), raises ValueError.
    """
    if not cuts:
        raise ValueError("full_state_keys needs at least one cut")
    steps, profile = path.steps, path.profile
    end = len(steps)

    def top_at(pos: int):
        if pos < end:
            return steps[pos].pop
        stack = path.stack_at(pos)
        return stack[-1] if stack else None

    out = []
    for h, (lp, fp) in enumerate(cuts, profile[cuts[0][0]]):
        push_state, pop_state = path.state_at(lp), path.state_at(fp)
        if profile[lp] != h or profile[fp] != h:
            raise ValueError(
                f"cut ({lp}, {fp}) is not at height {h}: the profile reads {profile[lp]} and {profile[fp]} there"
            )
        top, top_after = top_at(lp), top_at(fp)
        if top != top_after:
            raise TopSymbolMismatchError(
                f"height {h}: top symbol {top!r} at position {lp} but {top_after!r} at position {fp}"
            )
        out.append((push_state, top, pop_state))
    return out
