"""Plain-text rendering of experiment results (paper-style rows).

Every experiment prints through these helpers so its output reads the
same way: a titled table of aligned columns, or two of its columns
rendered one point per line as an (x, y) series — the closest text
analogue of the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Sequence, Tuple, Union

from repro.errors import ParameterError

__all__ = ["Table", "Result", "render_series", "format_cell"]

Cell = Union[str, int, float, bool, None]


def format_cell(value: Cell) -> str:
    """Uniform cell formatting: floats to 4 significant digits."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


@dataclass
class Table:
    """A titled, column-aligned text table."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Cell]] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        """Append one row; must match the column count."""
        if len(cells) != len(self.columns):
            raise ParameterError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(cells)

    def _index(self, column: str) -> int:
        try:
            return list(self.columns).index(column)
        except ValueError:
            raise ParameterError(
                f"table {self.title!r} has no column {column!r}; columns: "
                f"{', '.join(self.columns)}"
            ) from None

    def column(self, name: str) -> List[Cell]:
        """Every cell of the column called *name*, top to bottom."""
        index = self._index(name)
        return [row[index] for row in self.rows]

    def cell(self, column: str, row: Cell) -> Cell:
        """The *column* cell of the row whose first cell equals *row*."""
        index = self._index(column)
        for cells in self.rows:
            if cells[0] == row:
                return cells[index]
        raise ParameterError(
            f"table {self.title!r} has no row {row!r}; rows: "
            f"{', '.join(format_cell(cells[0]) for cells in self.rows)}"
        )

    def render(self) -> str:
        """The table as aligned text."""
        headers = [str(c) for c in self.columns]
        body = [[format_cell(cell) for cell in row] for row in self.rows]
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in body))
            if body
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Result:
    """What one experiment measured: the table(s) it prints, plus the
    *facts* no table shows (name → value)."""

    tables: Tuple[Table, ...]
    facts: Mapping[str, Cell] = field(default_factory=dict)

    @property
    def table(self) -> Table:
        """The experiment's (first) table."""
        return self.tables[0]


def render_series(table: Table, x: str, y: str, width: int = 40) -> str:
    """Render columns *x* and *y* of *table* with a crude inline bar chart.

    The text analogue of a paper figure: one line per row with a *y*
    value, with a bar proportional to y (scaled to the column maximum).
    """
    points = [
        (px, py) for px, py in zip(table.column(x), table.column(y))
        if py is not None
    ]
    if not points:
        return f"{table.title}: (empty)"
    top = max(abs(py) for _, py in points) or 1.0
    lines = [f"{table.title}  ({x} vs {y})"]
    for px, py in points:
        bar = "#" * max(0, int(round(width * abs(py) / top)))
        lines.append(f"  {format_cell(px):>10}  {format_cell(py):>12}  {bar}")
    return "\n".join(lines)
