"""ASCII table rendering for benchmark output.

The benchmark harness prints the paper-shaped rows (one table or figure
series per experiment) through these helpers, so every experiment's
reproduction table has the same layout.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_cell"]


def format_cell(value: object) -> str:
    """Render one cell: floats get 4 significant digits."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        return f"{value:.4g}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Render an aligned ASCII table."""
    rendered = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
