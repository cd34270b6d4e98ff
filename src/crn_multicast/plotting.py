"""Static SVG line charts for sweep aggregates.

Charts are written as plain SVG text (one polyline per scheme, vertical
whiskers for the 95% confidence interval) so output is deterministic,
viewable anywhere and diffable in review.
"""

from __future__ import annotations

from pathlib import Path

from .experiment import _Y_HEADROOM, AggregateRow, write_output
from .session import TreeKind

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 55

SCHEME_COLORS = {
    "pos": "#1f77b4",
    "masa": "#ff7f0e",
    "mdr": "#2ca02c",
    "rs": "#d62728",
}

_METRICS = {
    "throughput": ("mean_throughput_bps", "ci95_throughput", "mean throughput (bits/s)"),
    "pdr": ("mean_pdr", "ci95_pdr", "mean packet delivery rate"),
}


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt_tick(v: float) -> str:
    return f"{v:.3g}"


def render_chart(rows: list[AggregateRow], metric: str, tree: TreeKind) -> str:
    """SVG chart of one metric versus the swept variable, one line per scheme."""
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {sorted(_METRICS)}")
    mean_attr, ci_attr, y_label = _METRICS[metric]
    rows = [r for r in rows if r.tree is tree]
    if not rows:
        raise ValueError(f"no aggregate rows for tree {tree.value!r}")
    variable = rows[0].variable

    xs = sorted({float(r.value) for r in rows})
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_hi = max(getattr(r, mean_attr) + getattr(r, ci_attr) for r in rows)
    y_lo = 0.0
    if metric == "pdr":
        y_hi = 1.0
    elif y_hi <= 0.0:
        y_hi = 1.0
    else:
        y_hi *= _Y_HEADROOM

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">'
        f"{metric} vs {variable} ({tree.value})</text>",
    ]
    # axes
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>'
    )
    for v in _ticks(x_lo, x_hi):
        x = sx(v)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle">{_fmt_tick(v)}</text>'
        )
    for v in _ticks(y_lo, y_hi):
        y = sy(v)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt_tick(v)}</text>')
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle">{variable}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{y_label}</text>'
    )

    schemes = []
    for r in rows:
        if r.scheme not in schemes:
            schemes.append(r.scheme)
    for k, scheme in enumerate(schemes):
        color = SCHEME_COLORS.get(scheme.value, "#555555")
        series = sorted((float(r.value), getattr(r, mean_attr), getattr(r, ci_attr))
                        for r in rows if r.scheme is scheme)
        points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y, _ in series)
        for x, y, ci in series:
            if ci <= 0:
                continue
            x_px, lo_px, hi_px = sx(x), sy(max(y - ci, y_lo)), sy(min(y + ci, y_hi))
            parts.append(
                f'<line x1="{x_px:.1f}" y1="{lo_px:.1f}" x2="{x_px:.1f}" y2="{hi_px:.1f}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
            for y_px in (lo_px, hi_px):
                parts.append(
                    f'<line x1="{x_px - 3:.1f}" y1="{y_px:.1f}" x2="{x_px + 3:.1f}" y2="{y_px:.1f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>')
        for x, y, _ in series:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="{color}"/>')
        ly = MARGIN_T + 10 + 18 * k
        lx = MARGIN_L + plot_w + 15
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly + 4}">{scheme.value}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_charts(rows: list[AggregateRow], out_dir) -> list[Path]:
    """One SVG per (metric, tree kind) present in the aggregate rows, each
    rewritten in place (experiment.write_output)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trees = []
    for r in rows:
        if r.tree not in trees:
            trees.append(r.tree)
    paths = []
    for tree in trees:
        for metric in _METRICS:
            path = out / f"{metric}_{tree.value}.svg"
            write_output(path, render_chart(rows, metric, tree))
            paths.append(path)
    return paths
