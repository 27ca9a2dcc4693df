"""Experiment V1 — key-validation campaign (paper §4.3).

Paper reference: for each benchmark, 100 random 256-bit locking keys
are generated; the correct key must yield correct results and every
other key must produce wrong results, so an attacker cannot activate
the IC with a different key.

Runs on the campaign engine (``repro.runtime.campaign``): the golden
software model is interpreted once per workload (not once per key) and
the key trials fan out over ``REPRO_JOBS`` worker processes (default:
cpu count, capped at 8) — the report is bit-identical to a serial run.

The full 100-key × 5-benchmark campaign in pure Python is long; the
default harness runs a 20-key campaign per benchmark (the result is a
strict all-or-nothing property, so the key count changes confidence,
not the asserted behaviour).  Set REPRO_FULL_VALIDATION=1 to run the
paper's full 100 keys, REPRO_JOBS=1 to force serial execution.
"""

import os

import pytest

from repro.runtime.campaign import CampaignSpec, resolve_jobs, run_campaign
from repro.runtime.executor import ExecutionOptions

BENCHMARKS = ["gsm", "adpcm", "sobel", "backprop", "viterbi"]
N_KEYS = 100 if os.environ.get("REPRO_FULL_VALIDATION") else 20
JOBS = resolve_jobs()


def run_validation_campaign(name: str):
    spec = CampaignSpec(benchmarks=(name,), n_keys=N_KEYS, n_workloads=1)
    return run_campaign(spec, ExecutionOptions(jobs=JOBS)).unit(name).report


@pytest.mark.parametrize("name", BENCHMARKS)
def test_validation_campaign(benchmark, name, capsys):
    report = benchmark.pedantic(
        run_validation_campaign, args=(name,), rounds=1, iterations=1
    )
    with capsys.disabled():
        print(
            f"\n{name}: correct_ok={report.correct_key_ok} "
            f"all_wrong_corrupt={report.wrong_keys_all_corrupt} "
            f"avg_HD={100 * report.average_hamming:.1f}% "
            f"({report.n_keys} keys, {JOBS} job(s))"
        )
    # V1: the correct key unlocks; every wrong key corrupts.
    assert report.correct_key_ok
    assert report.wrong_keys_all_corrupt
