#!/usr/bin/env python3
# Strict mode insists on |word| > p, the regime where extraction is a
# guarantee rather than best luck. REG_AB keeps p tiny (32), so the regime
# is reachable with a 34-letter word — and it lands in case 1, where the
# whole tail rides along unpumped (y = z = empty).

from pumpkit import (
    ExtractionMode,
    check_constraints,
    corpus_get,
    extract,
    pumping_params,
    verify,
)

reg = corpus_get("REG_AB")
params = pumping_params(reg.pda)
word = "ab" * 17
print(f"machine {reg.name}: p'={params.p_prime}, p={params.p}, |word|={len(word)}")

res = extract(reg.pda, word, mode=ExtractionMode.STRICT)
d = res.decomposition
print(f"case = {d.case}, repeated configuration at positions"
      f" {d.cuts[0]} and {d.cuts[1]} (depth {d.witness.depth})")
print(f"  u={d.u!r} v={d.v!r} y={d.y!r} z={d.z!r} |x|={len(d.x)}")

c = check_constraints(d, word)
print(f"  |vy|={len(d.v) + len(d.y)} >= 1: {c.nontrivial_ok}")
print(f"  |vxy|={c.vxy_length} vs bound {c.bound}: {'within' if c.length_bound_ok else 'exceeded'}"
      " -- the case-1 tail makes the bound unreachable here, and the report says so")

report = verify(reg.pda, res.path, d, n_set=(0, 1, 2, 3, 4, 5))
for v in report.verdicts:
    print(f"  n={v.n}: replay={'ok' if v.replay_ok else 'FAIL'} search={v.search}")
print(f"pumping verdict: {'PASS' if report.pumping_ok else 'FAIL'}"
      f" (all checks including the bound: {report.overall})")
