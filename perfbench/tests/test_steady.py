"""The steadiness verdict: a change beyond the bound fails either way."""

import json

import pytest

import steady

CONFIG = json.loads((steady.ROOT / "BENCHMARK.json").read_text())
WALL = next(m for m in CONFIG["end_to_end"] if m["name"] == "wall_s")


def _fake_runs(second_set_factor):
    """``one_run`` stand-in: set 2 (seeds 10-19) has ``wall_s`` scaled."""

    def one_run(workload, seed, seconds):
        metrics = {}
        for metric in CONFIG["end_to_end"]:
            value = 2.0 + 0.001 * (seed % steady.RUNS)
            if metric is WALL and seed >= steady.RUNS:
                value *= second_set_factor
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        return metrics

    return one_run


@pytest.mark.parametrize(
    ("factor", "exit_code"),
    [(1.0, 0), (1 + WALL["bound"] / 2, 0), (1 + 1.5 * WALL["bound"], 1), (1 - 1.5 * WALL["bound"], 1)],
)
def test_sets_must_agree_within_the_bound_in_either_direction(monkeypatch, capsys, factor, exit_code):
    monkeypatch.setattr(steady, "one_run", _fake_runs(factor))
    assert steady.main([]) == exit_code
    out = capsys.readouterr().out
    assert out.rstrip().endswith("NOT steady" if exit_code else "steady")


def test_a_faster_second_set_is_labelled_better_but_still_fails():
    first = [2.0 + 0.01 * i for i in range(10)]
    second = [value * 0.6 for value in first]
    change, failures, _notes = steady.judge(WALL, first, second)
    assert change == pytest.approx(-0.4)
    assert failures == ["CHANGE>BOUND (better)"]


def test_setup_spread_is_not_gated_but_its_change_is():
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    wide = [1.0, 2.0, 1.0, 2.0, 1.5, 1.5, 1.0, 2.0, 1.5, 1.5]
    assert steady.judge(setup, wide, wide)[1] == []
    assert steady.judge(WALL, wide, wide)[1] == ["SPREAD>BOUND"]
    assert steady.judge(setup, wide, [v * 2 for v in wide])[1] == ["CHANGE>BOUND (worse)"]
