"""Experiments P1/V3 — latency behaviour (paper §4.2 / §4.3).

P1: with the correct key there is zero cycle-count overhead versus the
baseline design.  V3: wrong keys change latency only when they corrupt
loop-bound constants; datapath variants and branch masks preserve the
schedule length.

P1 reads the ``default`` cells of the session's evaluation document:
the correct-key cycles against the unobfuscated reference's cycles on
the same workloads.

V3 rides on the campaign engine: ``ValidationReport`` already counts
``latency_changed_keys`` against the correct-key baseline per trial,
so the wrong-key latency experiment is one campaign unit rather than a
hand-rolled key loop (and its trials fan out over ``REPRO_JOBS``).
"""

import pytest

from repro.evaluation.report import latency_overhead
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.executor import ExecutionOptions

BENCHMARKS = ["gsm", "adpcm", "sobel", "backprop", "viterbi"]


@pytest.mark.parametrize("name", BENCHMARKS)
def test_latency_zero_overhead(benchmark, name, capsys, evaluation):
    unit = evaluation[name]["default"]
    overhead = benchmark.pedantic(latency_overhead, args=(unit,), rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n{name}: baseline {unit.design['reference']['cycles']} cycles, "
            f"obfuscated {unit.report.baseline_cycles} cycles "
            f"(overhead {100 * overhead:+.2f}%)"
        )
    assert overhead == 0.0  # paper: "no performance overhead"


def test_wrong_key_latency_changes_only_via_loop_bounds(benchmark, capsys):
    """V3 on the engine: wrong keys that flip a loop-bound constant
    slice change the cycle count; the correct key never does."""

    def campaign():
        spec = CampaignSpec(benchmarks=("sobel",), n_keys=7, seed=11)
        return run_campaign(spec, ExecutionOptions(jobs=0)).unit("sobel").report

    report = benchmark.pedantic(campaign, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\nsobel: {report.latency_changed_keys}/{report.n_keys - 1} "
            f"wrong keys changed latency "
            f"(baseline {report.baseline_cycles} cycles)"
        )
    assert report.correct_key_ok  # correct outputs at baseline latency
    assert report.baseline_cycles > 0
    # Loop bounds are obfuscated constants in sobel, so most random keys
    # corrupt them and perturb the cycle count.
    assert report.latency_changed_keys > 0
    # Every latency change came from a wrong key: n-1 wrong trials.
    assert report.latency_changed_keys <= report.n_keys - 1
