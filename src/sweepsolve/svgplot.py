"""Minimal self-contained SVG emitters: trajectory polylines and log-scale
tolerance-versus-gap bars.  No plotting dependency; output is deterministic
text so repeated runs are byte-identical."""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 400
MARGIN = 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _f(x: float) -> str:
    return f"{x:.6g}"


def _header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#444"/>',
    ]


def _x_to_px(x, lo, hi):
    span = hi - lo if hi > lo else 1.0
    return MARGIN + (x - lo) / span * (WIDTH - 2 * MARGIN)


def _y_to_px(y, lo, hi):
    span = hi - lo if hi > lo else 1.0
    return HEIGHT - MARGIN - (y - lo) / span * (HEIGHT - 2 * MARGIN)


def write_trajectory_svg(path, traj) -> None:
    """One polyline per state coordinate against time."""
    times, pts = traj.grid.times, traj.points
    y_lo = float(pts.min())
    y_hi = float(pts.max())
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    lines = _header(f"trajectory level {traj.level} ({traj.dim} coordinates)")
    xs = _x_to_px(times, times[0], times[-1])
    for i in range(traj.dim):
        color = PALETTE[i % len(PALETTE)]
        xy = xs.repeat(2)  # x_0, y_0, x_1, ...: one %-call formats them as _f does
        xy[1::2] = _y_to_px(pts[:, i], y_lo, y_hi)
        coords = ("%.6g,%.6g " * len(xs) % tuple(xy.tolist()))[:-1]
        lines.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        lines.append(
            f'<text x="{WIDTH - MARGIN + 4}" y="{MARGIN + 16 * i + 12}" font-family="monospace" '
            f'font-size="11" fill="{color}">x_{i}</text>'
        )
    for label, value in (("t0", times[0]), ("T", times[-1])):
        lines.append(
            f'<text x="{_f(_x_to_px(float(value), times[0], times[-1]))}" y="{HEIGHT - MARGIN + 16}" '
            f'text-anchor="middle" font-family="monospace" font-size="11">{label}={_f(float(value))}</text>'
        )
    for value in (y_lo, y_hi):
        lines.append(
            f'<text x="{MARGIN - 4}" y="{_f(_y_to_px(value, y_lo, y_hi))}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{_f(value)}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_convergence_svg(path, report) -> None:
    """Paired log-scale bars: level tolerance eps_n next to the squared
    consecutive sup-norm gap."""
    pairs = [(eps, gap**2) for eps, gap in zip(report.schedule.eps, report.sup_diffs)]
    lines = _header("eps (blue) vs squared consecutive gap (red), log scale")
    if pairs:
        floor = 1e-18
        values = [max(v, floor) for pair in pairs for v in pair]
        lo = math.floor(math.log10(min(values)))
        hi = math.ceil(math.log10(max(values)))
        if hi <= lo:
            hi = lo + 1
        n = len(pairs)
        slot = (WIDTH - 2 * MARGIN) / n
        bar = slot / 3.0
        for i, (eps, gap2) in enumerate(pairs):
            x0 = MARGIN + i * slot
            for k, (value, color) in enumerate(((eps, PALETTE[0]), (gap2, PALETTE[1]))):
                v = math.log10(max(value, floor))
                top = _y_to_px(v, lo, hi)
                lines.append(
                    f'<rect x="{_f(x0 + bar * (k + 0.5))}" y="{_f(top)}" width="{_f(bar)}" '
                    f'height="{_f(HEIGHT - MARGIN - top)}" fill="{color}"/>'
                )
            lines.append(
                f'<text x="{_f(x0 + slot / 2)}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" '
                f'font-family="monospace" font-size="11">n={i}</text>'
            )
        for exp in range(lo, hi + 1):
            lines.append(
                f'<text x="{MARGIN - 4}" y="{_f(_y_to_px(exp, lo, hi))}" text-anchor="end" '
                f'font-family="monospace" font-size="11">1e{exp}</text>'
            )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
