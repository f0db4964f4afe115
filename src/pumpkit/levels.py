"""Stack-profile level analysis.

A stack-size profile of a normalized run moves in unit steps. An N-level is a
triple of positions i < j < k with s_i = s_k, s_j = s_i + N, and the profile
confined to [s_i, s_j] on both flanks [i, j] and [j, k]. The level of a run
(within a window) is the largest such N.

max_levels finds it in a single left-to-right sweep that tracks, for every
height currently not undercut, the span of positions at that height and the
peak seen inside the span; it reads the windowed and the whole-run level off
one such sweep. The sweep keeps its best witness as plain ints and builds one
LevelTriple per result it returns. The tests hold an independent cubic
oracle for it.

The witness scans read plain tuples: configuration_keys gives (state, top
symbols) per position and full_state_keys (push state, top symbol, pop
state) per height, with stacks from RunPath.stacks, the run's one forward
walk, and states from the steps; extract groups these tuples. flank_cuts is
the one flank reader: it scans both flanks of a triple outward from the peak
once and returns the last push and first pop of every height from a chosen
bottom up to s_j. extract reads it once per case-2 triple: its lowest pair
bounds the p'-level the triple shrinks to, full_state_keys takes its list,
and the word is cut at its entries.
"""

from __future__ import annotations

import operator

from .errors import TopSymbolMismatchError
from .pda import BLANK
from .record import record
from .run import RunPath


@record
class LevelTriple:
    i: int
    j: int
    k: int
    n: int


def _check_unit_steps(profile) -> None:
    if set(map(operator.sub, profile[1:], profile)) - {1, -1}:
        raise ValueError("profile must move in unit steps")


def _sweep(s, start: int, stop: int, eras: list, best: tuple) -> tuple:
    """Advance the era sweep over positions start..stop-1 of s, updating
    eras in place; returns the best closed triple so far as plain ints
    (n, i, j, k), n = 0 when there is none."""
    best_n, best_i, best_j, best_k = best
    v = s[start - 1]
    for pos in range(start, stop):
        prev, v = v, s[pos]
        if v > prev:
            eras.append([v, pos, pos, v, pos])
            continue
        h, first, last, peak, peak_pos = eras.pop()
        if peak > h and last > first and peak - h > best_n:
            best_n, best_i, best_j, best_k = peak - h, first, peak_pos, last
        if eras and eras[-1][0] == v:
            # Propagate the closed excursion's peak into the enclosing era:
            # it lies between two of the parent's height-v touches.
            parent = eras[-1]
            parent[2] = pos
            if peak > parent[3]:
                parent[3] = peak
                parent[4] = peak_pos
        else:
            # First touch of height v in this segment, reached from above:
            # the closed excursion predates it, so its peak must not count.
            eras.append([v, pos, pos, v, pos])
    return best_n, best_i, best_j, best_k


def _close(eras: list, best: tuple) -> tuple[int, LevelTriple | None]:
    """The sweep's result if the profile ended here, without changing eras;
    the one LevelTriple of the result is built here.

    Eras still open close with their recorded last touch, topmost first.
    Their peaks do not propagate upward: an enclosing era's last touch
    predates any child that survived to the end, so such peaks sit past its k.
    """
    best_n, best_i, best_j, best_k = best
    for h, first, last, peak, peak_pos in reversed(eras):
        if peak > h and last > first and peak - h > best_n:
            best_n, best_i, best_j, best_k = peak - h, first, peak_pos, last
    return best_n, LevelTriple(best_i, best_j, best_k, best_n) if best_n else None


def max_levels(profile, window_end: int) -> tuple[tuple[int, LevelTriple | None], tuple[int, LevelTriple | None]]:
    """The largest level N with k <= window_end, and the largest with k at
    most the profile's end, each with one witness (None when N = 0), from
    one sweep; a window_end below 0 gives (0, None) for the window.

    An "era" opens for height h when the profile steps up onto h and closes
    when it steps below h (heights never undercut stay open to the end).
    Within an era, candidate triples are (first position at h, position of
    the era's peak, last position at h). The windowed result is the sweep's
    state at window_end with every open era closed; the sweep then goes on
    to the end of the profile.
    """
    _check_unit_steps(profile)
    if len(profile) < 3:
        return (0, None), (0, None)
    last = len(profile) - 1
    end = max(min(window_end, last), 0)
    # era record: [height, first, last, peak, peak_pos]
    eras = [[profile[0], 0, 0, profile[0], 0]]
    best = _sweep(profile, 1, end + 1, eras, (0, 0, 0, 0))
    windowed = _close(eras, best)
    if end == last:
        return windowed, windowed
    return windowed, _close(eras, _sweep(profile, end + 1, last + 1, eras, best))


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
    are `cuts`, lowest first, in time linear in the last cut.

    One walk of the steps up to the farthest cut records the stack top at
    each position. The symbol at a height when it was last established on
    the rising flank provably still rests there at the first return on the
    falling flank; this is checked, and TopSymbolMismatchError raised, on
    corrupted paths, since a mismatch falsifies the construction the caller
    is running. A cut outside the run raises IndexError.
    """
    positions = [pos for cut in cuts for pos in cut]
    path.state_at(min(positions))  # IndexError for a cut before the run
    last = max(positions)
    tops = [stack[-1] if stack else None for stack in path.stacks(last)]
    states = [path.initial_state]
    states += [t.target for t in path.steps[:last]]
    out = []
    for h, (lp, fp) in enumerate(cuts, path.profile[cuts[0][0]]):
        if tops[lp] != tops[fp]:
            raise TopSymbolMismatchError(
                f"height {h}: top symbol {tops[lp]!r} at position {lp} but {tops[fp]!r} at position {fp}"
            )
        out.append((states[lp], tops[lp], states[fp]))
    return out

