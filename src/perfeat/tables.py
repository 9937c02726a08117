"""Aligned plain-text report tables.

Human-readable companions to the machine CSVs: two-decimal numbers, a first
column of labels, right-aligned value columns, and footnotes for anything
that would otherwise be lost in rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


def fmt(value: Optional[float]) -> str:
    """Two-decimal text for a table cell; absent values print empty."""
    if value is None:
        return ""
    value = float(value)
    if math.isnan(value):
        return ""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.2f}"


def fmt_p(p: Optional[float]) -> str:
    """p-values with floor display below three decimals."""
    if p is None or (isinstance(p, float) and math.isnan(p)):
        return ""
    if p < 0.001:
        return "<.001"
    return f"{p:.3f}"


@dataclass
class ReportTable:
    """One titled table with aligned columns and optional footnotes.

    Cells may be any value; ``None`` renders as an empty cell, anything else
    as its ``str``.
    """

    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence]
    footnotes: Sequence[str] = ()

    def render(self) -> str:
        columns = len(self.headers)
        rows = [["" if c is None else str(c) for c in row] for row in self.rows]
        for row in rows:
            if len(row) != columns:
                raise ValueError("row width does not match the header")
        widths = [max(1, len(header), *(len(row[j]) for row in rows))
                  for j, header in enumerate(self.headers)]

        def line(cells: Sequence[str]) -> str:
            """The first cell left-aligned, the others right-aligned."""
            return "  ".join(cell.rjust(width) if j else cell.ljust(width)
                             for j, (cell, width) in enumerate(zip(cells, widths))).rstrip()
        header = line(self.headers)
        lines = [self.title, "=" * len(self.title), "", header, "-" * len(header)]
        lines.extend(line(row) for row in rows)
        if self.footnotes:
            lines.append("")
            lines.extend(self.footnotes)
        return "\n".join(lines) + "\n"
