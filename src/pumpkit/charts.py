"""Stack-profile charts: ASCII step charts and SVG, with optional annotation.

ASCII rendering is deterministic (pure integer arithmetic) so golden tests
can compare bytes. Profiles longer than 400 positions are downsampled by
max-pooling per column; SVG keeps every position. Annotation indices always
refer to true path positions, whatever the downsampling.
"""

from __future__ import annotations

from .record import record

ASCII_MAX_COLUMNS = 400
ASCII_MAX_ROWS = 20


@record
class Marker:
    pos: int
    char: str
    row: int = 0


@record
class Span:
    start: int  # path position, inclusive
    end: int  # path position, exclusive
    char: str


def _columns(profile):
    n = len(profile)
    bucket = -(-n // ASCII_MAX_COLUMNS) if n > ASCII_MAX_COLUMNS else 1
    cols = [max(profile[c : c + bucket]) for c in range(0, n, bucket)]
    return cols, bucket


def ascii_chart(profile, markers=(), spans=()) -> str:
    """Bar chart of the profile, one text column per (pooled) position."""
    if not profile:
        raise ValueError("empty profile")
    cols, bucket = _columns(profile)
    vmax = max(max(cols), 1)
    rows = min(vmax, ASCII_MAX_ROWS)
    gutter = len(str(vmax))

    header = f"stack profile: {len(profile)} positions, height 0..{max(profile)}"
    if bucket > 1:
        header += f" ({bucket} positions per column, max-pooled)"
    lines = [header]
    for r in range(rows, 0, -1):
        # Row r is "filled" for a column exactly when the column reaches the
        # r-th of `rows` evenly spaced height bands.
        label = -(-r * vmax // rows)
        cells = "".join("█" if col * rows >= r * vmax else " " for col in cols)
        lines.append(f"{label:>{gutter}} |{cells}")
    lines.append(f"{0:>{gutter}} +" + "-" * len(cols))

    pad = " " * (gutter + 2)
    marker_rows = sorted({m.row for m in markers})
    for row_id in marker_rows:
        cells = [" "] * len(cols)
        for m in sorted((m for m in markers if m.row == row_id), key=lambda m: m.pos):
            c = min(m.pos // bucket, len(cols) - 1)
            if cells[c] == " ":
                cells[c] = m.char
        lines.append(pad + "".join(cells).rstrip())
    if spans:
        cells = [" "] * len(cols)
        for s in spans:
            if s.end <= s.start:
                continue
            for c in range(s.start // bucket, min((s.end - 1) // bucket + 1, len(cols))):
                cells[c] = s.char
        lines.append(pad + "".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    """Escape text for SVG character data."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


SVG_WIDTH = 800
SVG_HEIGHT = 320
_ML, _MR, _MT, _MB = 46, 14, 26, 52


def svg_chart(profile, markers=(), spans=(), title: str | None = None) -> str:
    """Step chart as a standalone SVG document; one vertex per position."""
    if not profile:
        raise ValueError("empty profile")
    n = len(profile)
    vmax = max(max(profile), 1)
    plot_w = SVG_WIDTH - _ML - _MR
    plot_h = SVG_HEIGHT - _MT - _MB

    def x(pos: float) -> float:
        return _ML + (plot_w * pos / (n - 1) if n > 1 else plot_w / 2)

    def y(h: float) -> float:
        return _MT + plot_h - plot_h * h / vmax

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}" font-family="monospace" font-size="11">'
    ]
    if title:
        parts.append(f'<text x="{_ML}" y="16">{_escape(title)}</text>')

    baseline = y(0)
    for s in spans:
        if s.end <= s.start:
            continue
        x0, x1 = x(s.start), x(s.end)
        parts.append(
            f'<rect x="{x0:.2f}" y="{baseline + 8:.2f}" width="{x1 - x0:.2f}" height="14" '
            f'fill="#dddddd" stroke="#888888"/>'
        )
        parts.append(
            f'<text x="{(x0 + x1) / 2:.2f}" y="{baseline + 19:.2f}" text-anchor="middle">{_escape(s.char)}</text>'
        )
    for m in markers:
        mx = x(m.pos)
        parts.append(
            f'<line x1="{mx:.2f}" y1="{_MT}" x2="{mx:.2f}" y2="{baseline:.2f}" '
            f'stroke="#aa4444" stroke-dasharray="3 3"/>'
        )
        parts.append(
            f'<text x="{mx:.2f}" y="{_MT - 4 + 12 * m.row:.2f}" text-anchor="middle" fill="#aa4444">{_escape(m.char)}</text>'
        )

    parts.append(
        f'<line x1="{_ML}" y1="{baseline:.2f}" x2="{SVG_WIDTH - _MR}" y2="{baseline:.2f}" stroke="#000000"/>'
    )
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{baseline:.2f}" stroke="#000000"/>')
    parts.append(f'<text x="{_ML - 6}" y="{baseline:.2f}" text-anchor="end">0</text>')
    parts.append(f'<text x="{_ML - 6}" y="{y(vmax) + 4:.2f}" text-anchor="end">{vmax}</text>')
    parts.append(f'<text x="{SVG_WIDTH - _MR}" y="{baseline + 14:.2f}" text-anchor="end">{n - 1}</text>')

    ys = [f"{y(h):.2f}" for h in range(vmax + 1)]  # each height's y formatted once
    points = " ".join(f"{x(i):.2f},{ys[h]}" for i, h in enumerate(profile))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#3355aa" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def decomposition_annotations(decomposition, path):
    """(markers, spans) for a chart of this decomposition's run.

    Marker row 0 carries the level-triple positions i/j/k in case 2 and the
    repeated-configuration positions i/j in case 1; row 1 carries case 2's
    four run cuts labeled by their height roles (g/h). Spans tile the axis
    with the u/v/x/y/z regions (epsilon steps fall into the region they sit
    in); in case 1, x runs to the end and y and z are not drawn.
    """
    end = len(path.steps) + 1  # one column per profile position
    cuts = decomposition.cuts
    if decomposition.case == "case2":
        t = decomposition.witness.triple
        markers = [Marker(t.i, "i"), Marker(t.j, "j"), Marker(t.k, "k")]
        markers += [Marker(pos, role, row=1) for pos, role in zip(cuts, "ghhg")]
        bounds = [0, *cuts, end]
    else:
        markers = [Marker(cuts[0], "i"), Marker(cuts[1], "j")]
        bounds = [0, cuts[0], cuts[1], end]
    spans = [Span(a, b, label) for label, a, b in zip("uvxyz", bounds, bounds[1:])]
    return markers, spans
