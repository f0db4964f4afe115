#!/usr/bin/env python3
# Decompose an accepted word into u v x y z, pump it, and verify by two
# routes that share no code: splicing the run vs. fresh membership search.

from pumpkit import (
    ExtractionMode,
    ascii_chart,
    corpus_get,
    decomposition_annotations,
    extract,
    pumped_word,
    verify,
)

dyck = corpus_get("DYCK1")
word = "(((())))"
res = extract(dyck.pda, word, mode=ExtractionMode.BEST_EFFORT)
d = res.decomposition

print(f"word {word!r} splits as ({d.case}):")
for part in "uvxyz":
    print(f"  {part} = {getattr(d, part)!r}")
print(f"witness: heights g={d.witness.g}, h={d.witness.h} share a full state;"
      f" run cuts at positions {d.cuts}")
print()

for v in verify(dyck.pda, res.path, d, range(4)).verdicts:
    pumped = pumped_word(d, v.n)
    print(f"  n={v.n}: {pumped!r:22s} replay={'ok' if v.replay_ok else 'FAIL'} search={v.search}")
print()

markers, spans = decomposition_annotations(d, res.path)
print(ascii_chart(res.path.profile, markers, spans), end="")
