"""Experiment K1 — key-management overhead (paper §3.4 / §4.2).

Paper reference: the replication scheme adds no area or delay (the
locking-key bits wire directly from the tamper-proof memory to the use
points, with fan-out f = ceil(W/K)); the AES scheme adds a fixed
decryption core plus NVM bits and flip-flops proportional to W, and
its one-time power-up latency is irrelevant at run time.  The rows
come from the ``default`` cells of the session's evaluation document:
W and the obfuscated design's area.

Functional validation of both schemes rides on the campaign engine's
key-scheme axis (``CampaignSpec.key_schemes``): one sweep runs the
§4.3 key validation under replication and AES delivery against the
same workloads, and the content-addressed golden cache interprets the
software model once for both.
"""

import pytest

from repro.evaluation.report import format_keymgmt, keymgmt_rows
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.executor import ExecutionOptions

BENCHMARKS = ["gsm", "adpcm", "sobel", "backprop", "viterbi"]


@pytest.mark.parametrize("name", BENCHMARKS)
def test_keymgmt_row(benchmark, name, evaluation):
    rows = benchmark.pedantic(keymgmt_rows, args=(evaluation,), rounds=1, iterations=1)
    row = next(r for r in rows if r.benchmark == name)
    assert row.replication_extra == 0.0  # replication is free
    assert row.aes_extra > 0.0
    assert row.replication_fanout >= 1


def test_keymgmt_suite(benchmark, capsys, evaluation):
    rows = benchmark.pedantic(keymgmt_rows, args=(evaluation,), rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_keymgmt(rows))
    by_name = {r.benchmark: r for r in rows}
    # AES storage term grows with W: viterbi (largest W) pays the most.
    assert by_name["viterbi"].aes_extra == max(r.aes_extra for r in rows)
    # Fan-out f = ceil(W/256) ordering follows W.
    assert by_name["viterbi"].replication_fanout == max(
        r.replication_fanout for r in rows
    )
    # The AES core contribution is fixed: extra - storage is constant.
    from repro.crypto.aes import AES_CORE_AREA_GATES

    for row in rows:
        assert row.aes_extra > AES_CORE_AREA_GATES


def test_key_scheme_axis_campaign(benchmark, capsys):
    """K1 functional leg on the engine: both §3.4 delivery schemes must
    unlock under the correct locking key and corrupt under every wrong
    one — swept as one campaign over the key-scheme axis."""
    spec = CampaignSpec(
        benchmarks=("sobel",),
        key_schemes=("replication", "aes"),
        n_keys=4,
    )
    result = benchmark.pedantic(
        run_campaign, args=(spec, ExecutionOptions(jobs=0)), rounds=1, iterations=1
    )
    with capsys.disabled():
        for unit in result.units:
            print(
                f"\nsobel[{unit.key_scheme}]: correct_ok="
                f"{unit.report.correct_key_ok} "
                f"all_wrong_corrupt={unit.report.wrong_keys_all_corrupt}"
            )
    assert {u.key_scheme for u in result.units} == {"replication", "aes"}
    for unit in result.units:
        assert unit.report.correct_key_ok
        assert unit.report.wrong_keys_all_corrupt
        # Key delivery must not perturb the unlocked schedule.
        assert unit.report.baseline_cycles > 0
