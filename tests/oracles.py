"""Independent oracles for the level sweep, the run loops and the
pumped-run replay, kept out of the package.

brute_force_max_level enumerates every (i, j, k) triple and tests the three
level conditions directly (vectorized with numpy, but still the O(n^3)
check); it shares no code with levels.max_levels. is_valid_level_triple
checks one witness literally. check_unit_steps is the separate pass over
the whole profile that max_levels made before its sweep checked the steps
itself. numpy is a test dependency only, and this is its one user.

reference_walk, reference_follow_run and reference_search_walk are the
three per-step loops pumpkit.run.walk, pumpkit.run._follow_run and
pumpkit.search._walk as they were before they took runs of a stationary
move in one bulk step, kept step for step. reference_follow_run builds its RunPath with
pumpkit.run._run_path, looked up at each call, and reference_search_walk
takes the search's machine and arena tuples as they are now, reading
only the fields it had then.

spliced_steps is the literal splice of a found run at a decomposition's
cuts, the reference for pumpkit.verify.replay_pumps, which takes each
pumped run from one walk of the found run instead of splicing it.

even_palindrome_radii is Manacher's linear-time algorithm (JACM 22(3),
1975) for the even-length palindromes of a word, with no machine at all:
the reference for how far each midpoint guess of GEN_PAL's membership
search reads.
"""

import operator

from pumpkit import LevelTriple, NotAccepted, ReplayError
from pumpkit import run as run_module


def check_unit_steps(profile) -> None:
    """ValueError unless every step of the profile is +1 or -1."""
    if set(map(operator.sub, profile[1:], profile)) - {1, -1}:
        raise ValueError("profile must move in unit steps")


def is_valid_level_triple(profile, t: LevelTriple) -> bool:
    """Literal check of the three level conditions plus index sanity."""
    if not (0 <= t.i < t.j < t.k < len(profile)):
        return False
    if t.n < 1:
        return False
    lo = profile[t.i]
    hi = lo + t.n
    if profile[t.k] != lo or profile[t.j] != hi:
        return False
    return all(lo <= profile[m] <= hi for m in range(t.i, t.k + 1))


def brute_force_max_level(profile, window_end: int) -> tuple[int, LevelTriple | None]:
    """Oracle: enumerate every (i, j, k) triple and test the level conditions.

    O(n^3) time and O(n^2) space over the windowed profile, one i at a
    time; meant for desk-scale cross-checking of the level sweep, not
    production use. Returns the lexicographically first maximal witness.
    """
    import numpy as np

    end = min(window_end, len(profile) - 1)
    if end < 2:
        return 0, None
    values = list(profile[: end + 1])
    dtype = np.int16 if max(abs(v) for v in values) < 32000 else np.int64
    s = np.asarray(values, dtype=dtype)
    L = len(s)

    # Range extrema matrices: fmax[a, b] = max(s[a..b]) for a <= b.
    tile = np.broadcast_to(s, (L, L))
    below_diag = np.tril(np.ones((L, L), dtype=bool), -1)
    fmax = np.maximum.accumulate(np.where(below_diag, np.iinfo(dtype).min, tile), axis=1)
    fmin = np.minimum.accumulate(np.where(below_diag, np.iinfo(dtype).max, tile), axis=1)

    idx = np.arange(L)
    before = idx[:, None] < idx[None, :]
    # [i, j] flank: inside [s_i, s_j], with s_j above s_i and i < j.
    flank_up = before & (s[None, :] > s[:, None]) & (fmin >= s[:, None]) & (fmax <= s[None, :])
    # [j, k] flank upper bound: peak at most s_j, with j < k.
    flank_down = before & (fmax <= s[:, None])
    best, witness = 0, None
    # One i-slab of (j, k) arrays at a time; a later slab replaces the kept
    # witness only when strictly better, so the first maximal triple in
    # (i, j, k) order is the one returned.
    for i in range(L):
        valid = (
            flank_up[i][:, None]
            & flank_down
            & (fmin >= s[i])
            & (s[None, :] == s[i])
        )
        if not valid.any():
            continue
        scores = np.where(valid, s[:, None] - s[i], 0)
        top = int(scores.max())
        if top > best:
            j, k = (int(x) for x in np.argwhere(scores == top)[0])
            best, witness = top, LevelTriple(i, j, k, top)
    return best, witness


def reference_walk(steps, word, state, stack, pos):
    """run.walk, one step at a time."""
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


def reference_follow_run(pda, word, table, letter_moves, width, accepting, live, stack, limits, max_epsilon):
    """run._follow_run, its fast stretch one letter at a time."""
    max_steps = limits.max_steps
    max_height = limits.max_stack_height
    n = len(word)
    if len(stack) > max_height:
        return None
    if not n and 0 in accepting:
        return run_module._run_path(pda, word, ())
    steps: list = []
    take = steps.append
    push = stack.append
    pop = stack.pop
    state = pos = depth = epsilon = 0
    low = len(stack)
    while stack:
        stop = min(n - 1, pos + max_steps - depth, pos + max_height - len(stack))
        first = pos
        while pos < stop and stack:
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
        if pos > first:
            depth += pos - first
            epsilon = 0
            low = len(stack)
            if not stack:
                break
        bucket = table[state * width + stack[-1]]
        if bucket is None:
            break
        depth += 1
        here = word[pos] if pos < n else None
        move = None
        for entry in bucket:
            letter, target, extra, index = entry
            npos = pos
            if letter is not None:
                if letter != here:
                    continue
                npos = pos + 1
            if depth > max_steps or (extra >= 0 and len(stack) >= max_height):
                return None
            if npos == n and target in accepting:
                take(index)
                return run_module._run_path(pda, word, steps)
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
            epsilon = 0
            low = len(stack)
        else:
            epsilon += 1
            if epsilon > max_epsilon:
                return None
    return NotAccepted()


def reference_search_walk(word, end, state, pos, cell, depth, machine, arena, bounds, *_):
    """search._walk, one letter at a time; any arguments past bounds are
    ignored."""
    width, single = machine[1], machine[5]
    sym, below, size, cells = arena[:4]
    max_steps, max_height = bounds
    first = pos
    stop = min(end - 1, pos + 1 + max_steps - depth)
    while pos < stop:
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
    return state, pos, cell, depth + pos - first


def spliced_steps(path, decomposition, n: int) -> tuple:
    """Transition sequence that should accept the n-pumped word: the found
    run with the steps between the first two cuts and between the last two
    each repeated n times."""
    steps = path.steps
    a, b, c, e = decomposition.cuts
    return steps[:a] + steps[a:b] * n + steps[b:c] + steps[c:e] * n + steps[e:]


def even_palindrome_radii(word) -> list:
    """r[p] for p = 0..len(word): the largest k such that word[p - k:p + k]
    is a palindrome, by Manacher's algorithm. The rightmost palindrome found
    so far, word[left:right], mirrors the radius at p from the one at
    left + right - p, so each letter is compared past right once."""
    n = len(word)
    radii = [0] * (n + 1)
    left = right = 0
    for p in range(1, n):
        k = min(radii[left + right - p], right - p) if p < right else 0
        while p - k > 0 and p + k < n and word[p - k - 1] == word[p + k]:
            k += 1
        radii[p] = k
        if p + k > right:
            left, right = p - k, p + k
    return radii
