"""Tests for the combined evaluation report.

The report renders the evaluation campaign document (the
``evaluation_result`` fixture, 3 keys); these tests check the document
structure and that a written document renders the same sections.
"""

import pytest

from repro.evaluation.report import format_evaluation, render_campaign_file


@pytest.fixture(scope="module")
def report_text(evaluation_result):
    return format_evaluation(evaluation_result)


class TestReport:
    def test_has_all_sections(self, report_text):
        for section in ("T1", "F6", "P1", "P2", "K1", "V1/V2"):
            assert f"## {section}" in report_text

    def test_mentions_all_benchmarks(self, report_text):
        for name in ("gsm", "adpcm", "sobel", "backprop", "viterbi"):
            assert name in report_text

    def test_paper_reference_values_present(self, report_text):
        assert "62.2%" in report_text  # paper's corruptibility average
        assert "| 4145" in report_text  # paper's viterbi W

    def test_latency_rows_zero_overhead(self, report_text):
        assert report_text.count("+0.00%") == 5

    def test_write_report(self, tmp_path, report_text, evaluation_result):
        assert report_text.startswith("# TAO reproduction")
        path = evaluation_result.write(tmp_path / "evaluation.json")
        # The campaign table first, then the same evaluation sections.
        assert render_campaign_file(path).endswith("\n\n" + report_text)
