"""Span recorder for the traced run.

The tracer replaces public functions at the module attributes their
callers look up (cli's binding of `extract`, extract's binding of
`full_state`, and so on) with wrappers that record a span of name, start,
end, parent span and op id, plus work counters. Spans stay in memory until
the run ends; `restore` puts every original back. Nothing is wrapped in an
untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict


def _count_path(counts, args, result, exc):
    steps = getattr(result, "steps", None)
    if steps is not None:
        counts["run.path_steps"] += len(steps)


def _count_accepts(counts, args, result, exc):
    counts["run.accepts.letters"] += len(args["word"])


def _count_replay(counts, args, result, exc):
    counts["run.replay.steps"] += len(args["steps"])


def _count_search(counts, args, result, exc):
    d, n = args["decomposition"], args["n"]
    counts["verify.pumped_letters"] += len(d.u) + len(d.x) + len(d.z) + n * (len(d.v) + len(d.y))


def _count_extract(counts, args, result, exc):
    diag = result.diagnostics if result is not None else getattr(exc, "diagnostics", None)
    if diag is None:
        return
    counts["extract.config_pairs_available"] += diag.config_pairs_available
    counts["extract.full_state_pairs_available"] += diag.full_state_pairs_available
    counts["extract.candidates_tried"] += diag.candidates_tried
    counts["extract.decompositions"] += result is not None


# (module, attribute, span name, counter). A span name is "<layer>.<function>"
# and the layer is the pumpkit module that defines the function.
POINTS = (
    ("pumpkit.cli", "main", "cli.main", None),
    ("pumpkit.cli", "load_path", "serialize.load_path", None),
    ("pumpkit.cli", "validate", "pda.validate", None),
    ("pumpkit.cli", "normalize", "normalize.normalize", None),
    ("pumpkit.cli", "pumping_params", "normalize.pumping_params", None),
    ("pumpkit.cli", "extract", "extract.extract", _count_extract),
    ("pumpkit.cli", "verify", "verify.verify", None),
    ("pumpkit.cli", "accepts", "run.accepts", _count_accepts),
    ("pumpkit.cli", "minimal_accepting_path", "run.minimal_accepting_path", _count_path),
    ("pumpkit.cli", "ascii_chart", "charts.ascii_chart", None),
    ("pumpkit.cli", "svg_chart", "charts.svg_chart", None),
    ("pumpkit.cli", "decomposition_annotations", "charts.decomposition_annotations", None),
    ("pumpkit.extract", "pumping_params", "normalize.pumping_params", None),
    ("pumpkit.extract", "minimal_accepting_path", "run.minimal_accepting_path", _count_path),
    ("pumpkit.extract", "max_level", "levels.max_level", None),
    ("pumpkit.extract", "full_state", "levels.full_state", None),
    ("pumpkit.extract", "configurations_up_to", "levels.configurations_up_to", None),
    ("pumpkit.verify", "verify_by_replay", "verify.replay", None),
    ("pumpkit.verify", "verify_by_search", "verify.search", _count_search),
    ("pumpkit.verify", "accepts", "run.accepts", _count_accepts),
    ("pumpkit.verify", "replay", "run.replay", _count_replay),
)

# Timed per-layer metrics: ("self", layer) is the layer's self time,
# ("total", span) the full duration of that span.
TIME_METRICS = {
    "cli.self_s": ("self", "cli"),
    "serialize.load_path_s": ("total", "serialize.load_path"),
    "pda.validate_s": ("total", "pda.validate"),
    "normalize.normalize_s": ("total", "normalize.normalize"),
    "run.minimal_accepting_path_s": ("total", "run.minimal_accepting_path"),
    "run.accepts_s": ("total", "run.accepts"),
    "run.replay_s": ("total", "run.replay"),
    "levels.max_level_s": ("total", "levels.max_level"),
    "levels.full_state_s": ("total", "levels.full_state"),
    "levels.configurations_up_to_s": ("total", "levels.configurations_up_to"),
    "extract.self_s": ("self", "extract"),
    "verify.replay_s": ("total", "verify.replay"),
    "verify.search_s": ("total", "verify.search"),
    "charts.ascii_chart_s": ("total", "charts.ascii_chart"),
    "charts.svg_chart_s": ("total", "charts.svg_chart"),
    "charts.decomposition_annotations_s": ("total", "charts.decomposition_annotations"),
}

COUNT_METRICS = (
    "normalize.pumping_params.calls",
    "run.path_steps",
    "run.accepts.letters",
    "run.replay.steps",
    "levels.full_state.calls",
    "extract.config_pairs_available",
    "extract.full_state_pairs_available",
    "extract.candidates_tried",
    "verify.pumped_letters",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op_id = -1
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        """Wrap every point; a point whose attribute no longer exists is skipped and its layer reads 0."""
        for module_name, attr, name, counter in POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name: str, counter):
        params = tuple(inspect.signature(original).parameters)
        spans, open_spans, counts = self.spans, self._open, self.counts
        calls = name + ".calls"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, self.op_id]
            open_spans.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as raised:
                exc = raised
                raise
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
                counts[calls] += 1
                if counter is not None:
                    counter(counts, {**dict(zip(params, args)), **kwargs}, result, exc)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(index, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def per_op_times(spans) -> dict[int, dict[str, float]]:
    """For each op id, the seconds of every TIME_METRICS entry (0 when absent)."""
    rows: dict = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, op = span
        rows[op][("total", name)] += end - start
        rows[op][("self", name.split(".")[0])] += own
    return {
        op: {metric: row.get(key, 0.0) for metric, key in TIME_METRICS.items()}
        for op, row in rows.items()
    }
