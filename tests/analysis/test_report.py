"""Unit tests for report rendering."""

import pytest

from repro.analysis.report import Table, format_cell, render_series
from repro.errors import ParameterError


class TestFormatCell:
    def test_none(self):
        assert format_cell(None) == "-"

    def test_booleans(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_floats(self):
        assert format_cell(0.0) == "0"
        assert format_cell(3.14159) == "3.142"
        assert "e" in format_cell(1.5e9)
        assert "e" in format_cell(1.5e-7)

    def test_ints_and_strings(self):
        assert format_cell(42) == "42"
        assert format_cell("abc") == "abc"


class TestTable:
    def test_render_alignment(self):
        table = Table("Demo", ["name", "value"])
        table.add_row("alpha", 1)
        table.add_row("b", 22222)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2]
        # All data lines share the header's column positions.
        assert lines[4].index("1") == lines[5].index("2")

    def test_row_width_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ParameterError):
            table.add_row(1)

    def test_empty_table_renders(self):
        table = Table("Empty", ["x"])
        assert "Empty" in table.render()

    def test_str_equals_render(self):
        table = Table("T", ["a"])
        table.add_row(1)
        assert str(table) == table.render()


class TestAccessors:
    @pytest.fixture
    def table(self):
        table = Table("Demo", ["name", "value"])
        table.add_row("alpha", 1)
        table.add_row("beta", None)
        return table

    def test_column_by_name(self, table):
        assert table.column("value") == [1, None]

    def test_cell_by_column_and_first_cell(self, table):
        assert table.cell("value", "alpha") == 1

    def test_unknown_column_names_the_known_ones(self, table):
        with pytest.raises(ParameterError, match="nope.*name, value"):
            table.column("nope")
        with pytest.raises(ParameterError, match="nope.*name, value"):
            table.cell("nope", "alpha")

    def test_unknown_row_names_the_known_ones(self, table):
        with pytest.raises(ParameterError, match="gamma.*alpha, beta"):
            table.cell("value", "gamma")


class TestRenderSeries:
    def test_bars_scale_to_max(self):
        table = Table("s", ["x", "y"])
        table.add_row(1, 10.0)
        table.add_row(2, 5.0)
        table.add_row(3, None)  # no point, no line
        lines = render_series(table, "x", "y", width=10).splitlines()
        assert lines[0] == "s  (x vs y)"
        assert [line.count("#") for line in lines[1:]] == [10, 5]

    def test_empty_series(self):
        assert "empty" in render_series(Table("s", ["x", "y"]), "x", "y")
