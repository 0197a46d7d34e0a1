"""Plain-text rendering of experiment outputs.

The benchmark harness prints the same rows/series the paper's tables
and figures report; these helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["render_table", "render_series", "format_ratio"]


def format_ratio(value: float) -> str:
    """Render a slowdown factor like the paper does (1.01x, 2209x)."""
    if value != value:  # NaN
        return "-"
    if value >= 100:
        return f"{value:.0f}x"
    if value >= 10:
        return f"{value:.1f}x"
    return f"{value:.2f}x"


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    col_width: int = 14,
) -> str:
    """Fixed-width text table with a title and a header rule.

    A cell too wide for its column overflows to the right; past the
    first column it keeps one leading space so neighbours never merge.
    """
    lines = [title]
    header = _render_row([str(c) for c in columns], col_width)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(_render_row([_cell(v) for v in row], col_width))
    return "\n".join(lines)


def _render_row(cells: Sequence[str], col_width: int) -> str:
    return "".join(
        " " + text if i and len(text) >= col_width else text.rjust(col_width)
        for i, text in enumerate(cells)
    )


def render_series(
    title: str,
    x_label: str,
    y_label: str,
    xs: Sequence[object],
    ys: Sequence[object],
) -> str:
    """Two-column series rendering (one figure axis pair)."""
    return render_table(title, [x_label, y_label], zip(xs, ys))


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:
            return "-"
        if abs(value) >= 1e5 or (0 < abs(value) < 1e-3):
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)
