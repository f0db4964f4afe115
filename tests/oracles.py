"""Independent oracles for the level sweep, kept out of the package.

brute_force_max_level enumerates every (i, j, k) triple and tests the three
level conditions directly (vectorized with numpy, but still the O(n^3)
check); it shares no code with levels.max_levels. is_valid_level_triple
checks one witness literally. check_unit_steps is the separate pass over
the whole profile that max_levels made before its sweep checked the steps
itself. numpy is a test dependency only, and this is its one user.
"""

import operator

from pumpkit import LevelTriple


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
