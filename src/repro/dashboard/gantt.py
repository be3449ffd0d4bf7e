"""Gantt/schedule explorer: any :class:`SimulationRecord` as an SVG chart.

The renderer consumes the uniform :meth:`SimulationRecord.runs` view, so
one code path draws all three platform organisations: per-cluster lanes
stack vertically (one row per processor), local runs fill with the
cluster's categorical color, best-effort runs wear a diagonal hatch of the
same hue.  Identity is carried by lane position and the left-hand band
labels, color is secondary -- clusters beyond the 8 fixed categorical
slots fold into muted gray instead of cycling hues.

Everything is stdlib string assembly: no plotting dependency, and the
output embeds cleanly in the dashboard page or an ``<img>`` tag.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape


#: Fixed categorical hue order (light-mode steps); never cycled -- the 9th
#: cluster onward folds into :data:`FOLD_COLOR`.
CATEGORICAL = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)
FOLD_COLOR = "#898781"

INK = "#0b0b0b"
INK_SECONDARY = "#52514e"
INK_MUTED = "#898781"
GRIDLINE = "#e1e0d9"
BASELINE = "#c3c2b7"
SURFACE = "#fcfcfb"

_FONT = "system-ui, -apple-system, 'Segoe UI', sans-serif"


def cluster_color(index: int) -> str:
    """The categorical color of cluster ``index`` (folded past the 8 slots)."""

    if 0 <= index < len(CATEGORICAL):
        return CATEGORICAL[index]
    return FOLD_COLOR


def _contiguous_groups(processors: Sequence[int]) -> List[Tuple[int, int]]:
    """Merge sorted processor indices into (first, count) rectangles."""

    groups: List[Tuple[int, int]] = []
    for index in sorted(processors):
        if groups and index == groups[-1][0] + groups[-1][1]:
            groups[-1] = (groups[-1][0], groups[-1][1] + 1)
        else:
            groups.append((index, 1))
    return groups


def _nice_step(span: float, target_ticks: int = 6) -> float:
    """A 1/2/5-progression tick step giving roughly ``target_ticks`` ticks."""

    if span <= 0:
        return 1.0
    raw = span / max(target_ticks, 1)
    magnitude = 10 ** math.floor(math.log10(raw))
    for factor in (1.0, 2.0, 5.0, 10.0):
        if raw <= factor * magnitude:
            return factor * magnitude
    return 10.0 * magnitude


def _format_time(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:g}"


def render_gantt_svg(
    record: Any,
    *,
    title: str = "",
    width: int = 960,
    max_plot_height: int = 520,
) -> str:
    """Render a :class:`SimulationRecord` as a standalone SVG Gantt chart.

    One lane band per cluster (``record.schedules`` keys, sorted), one row
    per processor inside a band, time on the single x axis.  Every run
    rectangle carries a ``<title>`` hover tooltip (job, cluster, interval,
    processor count); best-effort runs are hatched.
    """

    clusters = sorted(record.schedules)
    bands: List[Tuple[str, int, int]] = []  # (name, row offset, machine_count)
    offset = 0
    for name in clusters:
        machines = record.schedules[name].machine_count
        bands.append((name, offset, machines))
        offset += machines
    total_rows = max(offset, 1)
    band_index = {name: position for position, (name, _, _) in enumerate(bands)}
    band_offset = {name: row for name, row, _ in bands}

    runs = record.runs()
    horizon = max(
        [record.horizon] + [run.end for run in runs] + [1e-9]
    )

    row_h = max(3.0, min(16.0, max_plot_height / total_rows))
    band_gap = 8.0 if len(bands) > 1 else 0.0
    margin_left, margin_right = 110, 16
    margin_top, margin_bottom = 56, 34
    plot_w = width - margin_left - margin_right
    plot_h = total_rows * row_h + band_gap * (len(bands) - 1)
    height = int(margin_top + plot_h + margin_bottom)

    def sx(time: float) -> float:
        return margin_left + (time / horizon) * plot_w

    def sy(cluster: str, row: int) -> float:
        return (
            margin_top
            + band_offset[cluster] * row_h
            + band_index[cluster] * band_gap
            + row * row_h
        )

    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'font-family="{_FONT}" font-size="11">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="{SURFACE}"/>')

    # Hatch patterns, one per band color, for best-effort runs.
    out.append("<defs>")
    for position in range(len(bands)):
        color = cluster_color(position)
        out.append(
            f'<pattern id="hatch{position}" width="6" height="6" '
            f'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
            f'<rect width="6" height="6" fill="{color}"/>'
            f'<line x1="0" y1="0" x2="0" y2="6" stroke="{SURFACE}" '
            f'stroke-width="2" stroke-opacity="0.75"/></pattern>'
        )
    out.append("</defs>")

    # Title block.
    if title:
        out.append(
            f'<text x="{margin_left}" y="20" fill="{INK}" font-size="14" '
            f'font-weight="600">{escape(title)}</text>'
        )
    makespan = getattr(record, "makespan", horizon)
    subtitle = (
        f"{record.mode} · policy {getattr(record, 'policy', '?')} · "
        f"{len(runs)} runs · makespan {_format_time(makespan)}"
    )
    out.append(
        f'<text x="{margin_left}" y="{36 if title else 20}" '
        f'fill="{INK_SECONDARY}" font-size="11">{escape(subtitle)}</text>'
    )

    # Vertical time gridlines + the single x axis.
    step = _nice_step(horizon)
    tick = 0.0
    while tick <= horizon * 1.0001:
        x = sx(min(tick, horizon))
        out.append(
            f'<line x1="{x:.1f}" y1="{margin_top}" x2="{x:.1f}" '
            f'y2="{margin_top + plot_h:.1f}" stroke="{GRIDLINE}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{margin_top + plot_h + 16:.1f}" fill="{INK_MUTED}" '
            f'font-size="10" text-anchor="middle">{_format_time(tick)}</text>'
        )
        tick += step
    out.append(
        f'<line x1="{margin_left}" y1="{margin_top + plot_h:.1f}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h:.1f}" '
        f'stroke="{BASELINE}" stroke-width="1"/>'
    )

    # Band labels (direct labels carry identity; the swatch ties in color).
    for position, (name, _row, machines) in enumerate(bands):
        y = sy(name, 0)
        mid = y + machines * row_h / 2
        out.append(
            f'<rect x="{margin_left - 100}" y="{mid - 4:.1f}" width="8" height="8" '
            f'rx="2" fill="{cluster_color(position)}"/>'
        )
        out.append(
            f'<text x="{margin_left - 88}" y="{mid + 4:.1f}" fill="{INK_SECONDARY}" '
            f'font-size="11">{escape(name)}</text>'
        )
        out.append(
            f'<text x="{margin_left - 10}" y="{mid + 4:.1f}" fill="{INK_MUTED}" '
            f'font-size="9" text-anchor="end">{machines}p</text>'
        )

    # Run rectangles: one per contiguous processor group, 1px lane gap.
    skipped = 0
    for run in runs:
        cluster = run.cluster or (clusters[0] if clusters else None)
        if cluster not in band_offset:
            skipped += 1
            continue
        position = band_index[cluster]
        fill = (
            f"url(#hatch{position})"
            if run.kind == "best-effort"
            else cluster_color(position)
        )
        x = sx(run.start)
        rect_w = max(sx(run.end) - x, 1.0)
        tooltip = escape(
            f"{run.name} · {cluster} · {run.kind} · "
            f"t={_format_time(run.start)}..{_format_time(run.end)} · "
            f"{run.nbproc} proc"
        )
        for first, count in _contiguous_groups(run.processors):
            y = sy(cluster, first)
            rect_h = max(count * row_h - 1.0, 1.5)
            out.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{rect_w:.1f}" '
                f'height="{rect_h:.1f}" rx="1.5" fill="{fill}">'
                f"<title>{tooltip}</title></rect>"
            )
    if skipped:
        out.append(
            f'<text x="{margin_left}" y="{height - 6}" fill="{INK_MUTED}" '
            f'font-size="9">{skipped} run(s) on unknown clusters not drawn</text>'
        )

    out.append("</svg>")
    return "".join(out)


def render_scenario_gantt(
    scenario: str,
    *,
    seed: Optional[int] = None,
    smoke: bool = True,
    width: int = 960,
) -> str:
    """Build the representative record of a registered scenario and render it."""

    from repro.scenarios import registry
    from repro.scenarios.composer import build_simulation_record

    spec = registry.get(scenario)
    record = build_simulation_record(spec, seed, smoke=smoke)
    return render_gantt_svg(record, title=scenario, width=width)
