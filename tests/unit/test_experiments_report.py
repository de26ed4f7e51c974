"""Unit tests for report rendering and sweep configuration."""

import pytest

from repro.experiments.config import PAPER, QUICK, SweepConfig
from repro.experiments.figures import FigureSeries
from repro.adaptive.scenario import (
    PolicyRunReport,
    ScenarioComparison,
    adaptive_report,
)
from repro.experiments.report import format_cell, render_comparison, render_series
from repro.experiments.robustness import RobustnessCell, render_robustness


class TestRenderSeries:
    def make_series(self):
        return FigureSeries(
            figure="1x",
            x_label="timeout (s)",
            x=[0.1, 0.2, 0.3],
            series={"A": [1.0, 2.0, 3.0], "B": [0.5, float("nan"), float("inf")]},
            notes="hello",
        )

    def test_contains_all_rows_and_columns(self):
        text = render_series(self.make_series())
        assert "Figure 1x" in text
        assert "A" in text and "B" in text
        assert "0.1" in text and "0.3" in text
        assert "notes: hello" in text

    def test_nan_and_inf_rendered(self):
        text = render_series(self.make_series())
        assert "-" in text
        assert "inf" in text

    def test_max_rows_subsamples(self):
        series = FigureSeries(
            figure="1y", x_label="p", x=list(range(100)),
            series={"A": list(range(100))},
        )
        text = render_series(series, max_rows=10)
        assert len(text.splitlines()) < 30

    def test_max_rows_keeps_final_row(self):
        """Regression: the stride subsample silently dropped the last row,
        so the largest x value (the longest timeout) never appeared."""
        series = FigureSeries(
            figure="1y", x_label="p", x=[float(i) for i in range(100)],
            series={"A": [float(i) for i in range(100)]},
        )
        text = render_series(series, max_rows=10)
        # step = 100 // 10 = 10 -> rows 0, 10, ..., 90; index 99 must be
        # appended rather than stepped over.
        assert "99" in text

    def test_max_rows_no_duplicate_when_stride_lands_on_last(self):
        # 101 rows, step 10: the stride already ends at index 100.
        series = FigureSeries(
            figure="1y", x_label="p", x=[float(i) for i in range(101)],
            series={"A": [0.0] * 101},
        )
        text = render_series(series, max_rows=10)
        assert text.count("       100") == 1


class TestRenderComparison:
    def test_rows_rendered(self):
        text = render_comparison(
            "headline numbers",
            [("ES rounds at p=0.97", 349.0, 348.6)],
        )
        assert "headline numbers" in text
        assert "349" in text
        assert "348.6" in text

    def test_nan_cells_render_as_dash(self):
        # Regression: values used to go through a raw ``:12.4g`` format,
        # so a censored measurement printed the literal ``nan``.
        text = render_comparison(
            "with censored cells",
            [("censored quantity", 10.0, float("nan"))],
        )
        assert "nan" not in text
        assert "-" in text.splitlines()[-1]

    def test_inf_cells_render_as_inf(self):
        text = render_comparison(
            "with unbounded cells",
            [("diverging quantity", float("inf"), 3.0)],
        )
        assert "inf" in text

    def test_negative_inf_matches_the_positive_style(self):
        """Regression: ``value == float("inf")`` only catches the positive
        infinity, so ``-inf`` fell through to the ``%10.3g`` branch and
        rendered as a width-10 cell — misaligned with the 6-char ``inf``
        sentinel and suggesting a finite magnitude."""
        from repro.experiments.report import _format

        assert _format(float("inf")) == "   inf"
        assert _format(float("-inf")) == "  -inf"
        assert len(_format(float("-inf"))) == len(_format(float("inf")))


class TestFormatCell:
    def test_a_value_takes_the_spec_and_the_unit(self):
        assert format_cell(0.123456) == "0.1235"
        assert format_cell(38.4, ".0f", unit=" ms") == "38 ms"
        assert format_cell(-0.5, "+.2f") == "-0.50"

    def test_nan_is_the_marker_without_the_unit(self):
        assert format_cell(float("nan")) == "-"
        assert format_cell(float("nan"), ".0f", "—", unit=" ms") == "—"

    def test_infinities_ignore_the_width_of_the_spec(self):
        assert format_cell(float("inf"), "10.3g") == "inf"
        assert format_cell(float("-inf"), "10.3g", unit="s") == "-infs"


class TestCensoredCells:
    """A cell with nothing to report prints the table's marker — the
    legend of ``faults.txt`` reads "'-' = censored" — never ``nan``."""

    def test_robustness_table(self):
        nan = float("nan")
        cells = [
            RobustnessCell("partition", "ES", 0.5, 0.0, nan, nan),
            RobustnessCell("partition", "WLM", 0.9, 0.8, 6.25, nan),
        ]
        rows = render_robustness(cells, 0.21).splitlines()[3:5]
        assert "nan" not in "".join(rows)
        assert rows[0].split()[-3:] == ["-", "-", "-"]
        assert rows[1].split()[-3:] == ["6.25", "-", "-"]
        assert len(rows[0]) == len(rows[1]) == 72

    def test_adaptive_table(self):
        def report(name, latencies):
            return PolicyRunReport(
                name=name, latencies=latencies, decided_all=bool(latencies),
                consistent=True, switches=0, violations=0, slots=1, rounds=1,
            )

        comparison = ScenarioComparison(
            adaptive=report("adaptive", [1.5, 2.5]),
            baselines={"ES@0.16": report("ES@0.16", [])},
            leader=6,
        )
        text = adaptive_report(comparison)
        assert "nan" not in text
        rows = text.splitlines()
        assert rows[3].split()[:3] == ["adaptive", "2.00s", "2.50s"]
        assert rows[4].split()[:3] == ["ES@0.16", "-", "-"]
        assert rows[3].index("yes") + 3 == rows[4].index("NO") + 2


class TestSweepConfig:
    def test_paper_scale_matches_section_5(self):
        assert PAPER.n == 8
        assert PAPER.rounds_per_run == 300
        assert PAPER.runs == 33
        assert PAPER.start_points == 15

    def test_quick_is_smaller(self):
        assert QUICK.runs < PAPER.runs
        assert QUICK.rounds_per_run < PAPER.rounds_per_run

    def test_run_seed_unique_per_cell(self):
        config = SweepConfig(timeouts=(0.1, 0.2))
        seeds = {
            config.run_seed(t, r) for t in range(10) for r in range(50)
        }
        assert len(seeds) == 500
