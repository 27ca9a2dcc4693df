"""Tests for the evaluation renderers (the paper's tables and figures).

Every renderer reads one campaign document: the evaluation campaign
(all five kernels under the four configs Figure 6 compares, with
design blocks; the ``evaluation_result`` fixture).  Heavier full-suite
sweeps live in benchmarks/; here we check shape properties the paper
reports.
"""

import pytest

from repro.benchsuite import get_benchmark
from repro.evaluation.report import (
    PAPER_FIGURE6,
    PAPER_TABLE1,
    area_overhead,
    design_cells,
    format_figure6,
    format_keymgmt,
    format_table1,
    format_validation,
    frequency_ratio,
    keymgmt_rows,
    latency_overhead,
    table1_rows,
    validation_summary,
)
from repro.tao import TaoFlow


@pytest.fixture(scope="module")
def cells(evaluation_result):
    return design_cells(evaluation_result)


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self, cells):
        return {row.benchmark: row for row in table1_rows(cells)}

    def test_sobel_row(self, rows):
        row = rows["sobel"]
        assert row.benchmark == "sobel"
        assert row.c_lines > 10
        assert row.consts > 0
        assert row.bbs > 5
        assert row.cjmps >= 2
        # Eq. 1 consistency
        assert row.w == row.cjmps + 32 * row.consts + 4 * row.bbs
        # The stage telemetry the row reads equals the key apportionment.
        bench = get_benchmark("sobel")
        flow = TaoFlow()
        apportionment = flow.analyze(flow.compile_front_end(bench.source), bench.top)
        assert (row.consts, row.bbs, row.cjmps, row.w) == (
            apportionment.num_constants,
            apportionment.num_blocks,
            apportionment.num_branches,
            apportionment.working_key_bits,
        )

    def test_viterbi_has_most_constants(self, rows):
        viterbi, sobel, gsm = rows["viterbi"], rows["sobel"], rows["gsm"]
        assert viterbi.consts > gsm.consts > 0
        assert viterbi.consts > sobel.consts
        # Paper shape: viterbi's W dominates the suite.
        assert viterbi.w > gsm.w

    def test_paper_reference_complete(self):
        assert set(PAPER_TABLE1) == {"gsm", "adpcm", "sobel", "backprop", "viterbi"}

    def test_format_renders_both_columns(self, rows):
        text = format_table1([rows["sobel"]])
        assert "sobel" in text
        assert "| 110" in format_table1([rows["gsm"]])


class TestFigure6:
    @pytest.fixture(scope="class")
    def sobel(self, cells):
        """Area overhead of each of sobel's cells, keyed by config."""
        return {config: area_overhead(unit) for config, unit in cells["sobel"].items()}

    def test_branch_overhead_negligible(self, sobel):
        assert sobel["branches-only"] < 0.02  # paper: ~0-2 %

    def test_constants_overhead_moderate(self, sobel):
        assert 0.0 < sobel["constants-only"] < 0.35

    def test_dfg_overhead_largest(self, sobel):
        assert sobel["dfg-only"] > sobel["constants-only"]
        assert sobel["dfg-only"] > sobel["branches-only"]

    def test_combined_at_least_each_single(self, sobel):
        assert sobel["default"] >= sobel["dfg-only"] * 0.9

    def test_format(self, cells):
        text = format_figure6({"sobel": cells["sobel"]})
        assert "sobel" in text and "average" in text

    def test_paper_reference_shape(self):
        # The reference data we compare against matches the paper's text:
        # DFG variants dominate, backprop worst (>30 %).
        assert PAPER_FIGURE6["backprop"]["dfg"] == 31
        for row in PAPER_FIGURE6.values():
            assert row["dfg"] >= row["branches"]


class TestOverheadExperiments:
    def test_latency_zero_overhead(self, cells):
        unit = cells["sobel"]["default"]
        assert latency_overhead(unit) == 0.0  # paper §4.2: no performance overhead
        assert unit.design["reference"]["cycles"] > 100

    def test_frequency_shape(self, cells):
        ratios = {config: frequency_ratio(unit) for config, unit in cells["sobel"].items()}
        assert ratios["branches-only"] > 0.99  # <1 % loss
        assert ratios["constants-only"] <= 1.0
        assert ratios["dfg-only"] <= 1.0
        assert ratios["dfg-only"] <= ratios["branches-only"]


class TestValidationExperiment:
    def test_small_campaign_on_sobel(self, cells):
        report = cells["sobel"]["default"].report
        assert report.correct_key_ok
        assert report.wrong_keys_all_corrupt
        assert report.average_hamming > 0.0

    def test_summary_aggregation(self, cells):
        summary = validation_summary(cells)
        reports = list(summary.reports.values())
        assert list(summary.reports) == ["gsm", "adpcm", "sobel", "backprop", "viterbi"]
        assert reports == [cells[name]["default"].report for name in summary.reports]
        assert summary.average_hamming == sum(r.average_hamming for r in reports) / 5
        assert summary.all_correct_keys_ok
        text = format_validation(summary)
        assert "sobel" in text and "62.2%" in text


class TestKeyManagementExperiment:
    @pytest.fixture(scope="class")
    def sobel_row(self, cells):
        return next(row for row in keymgmt_rows(cells) if row.benchmark == "sobel")

    def test_replication_free_aes_not(self, sobel_row):
        assert sobel_row.replication_extra == 0.0
        assert sobel_row.aes_extra > 0.0
        assert sobel_row.replication_fanout >= 1
        assert 0.0 < sobel_row.aes_relative < 5.0

    def test_format(self, sobel_row):
        text = format_keymgmt([sobel_row])
        assert "sobel" in text
