"""Experiment X1 (extension) — ROM-content obfuscation overhead.

Not a paper artifact: quantifies the repository's ROM-obfuscation
extension (DESIGN.md §5) on the benchmarks that carry on-chip constant
tables (adpcm's step/index tables, viterbi-style weight ROMs).
Expected shape: near-zero area cost (one XOR bank per ROM), C extra
working-key bits per ROM, and wrong ROM slices corrupting outputs.

The functional leg runs on the campaign engine via an ``extra_configs``
entry enabling ``obfuscate_roms`` — the ROM config is just another
cell on the parameter-config axis, validated with the same §4.3 loop
as every preset.
"""

import pytest

from repro.benchsuite import get_benchmark
from repro.rtl import estimate_area
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.executor import ExecutionOptions
from repro.tao import ObfuscationParameters, TaoFlow

ROM_BENCHMARKS = ["adpcm"]  # benchmarks with eligible on-chip ROMs


def measure_rom_extension(name):
    bench = get_benchmark(name)
    base_params = ObfuscationParameters()
    ext_params = ObfuscationParameters(obfuscate_roms=True)
    base = TaoFlow(params=base_params).obfuscate(bench.source, bench.top)
    ext = TaoFlow(params=ext_params).obfuscate(bench.source, bench.top)
    base_area = estimate_area(base.design).total
    ext_area = estimate_area(ext.design).total
    return base, ext, ext_area / base_area - 1.0


@pytest.mark.parametrize("name", ROM_BENCHMARKS)
def test_rom_extension_overhead(benchmark, name, capsys):
    base, ext, overhead = benchmark.pedantic(
        measure_rom_extension, args=(name,), rounds=1, iterations=1
    )
    n_roms = len(ext.design.obfuscated_roms)
    extra_key_bits = ext.working_key_bits - base.working_key_bits
    with capsys.disabled():
        print(
            f"\n{name}: {n_roms} ROM(s) obfuscated, area +{100 * overhead:.2f}%, "
            f"+{extra_key_bits} working-key bits"
        )
    assert n_roms >= 1
    assert extra_key_bits == 32 * n_roms  # Eq. 1 extension term
    # One XOR bank per ROM read port: a few percent at most.
    assert 0.0 <= overhead < 0.04


@pytest.mark.parametrize("name", ROM_BENCHMARKS)
def test_rom_extension_functional(benchmark, name, capsys):
    """ROM config as a campaign cell: correct key unlocks, every wrong
    key (ROM slices included) corrupts."""

    def campaign():
        spec = CampaignSpec(
            benchmarks=(name,),
            configs=("rom",),
            extra_configs=(("rom", (("obfuscate_roms", True),)),),
            n_keys=5,
            seed=1,
        )
        result = run_campaign(spec, ExecutionOptions(jobs=0))
        return result.unit(name, config="rom").report

    report = benchmark.pedantic(campaign, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n{name}: correct key ok={report.correct_key_ok}, "
            f"{report.n_keys - 1}/{report.n_keys - 1} wrong keys corrupt"
        )
    assert report.correct_key_ok
    assert report.wrong_keys_all_corrupt
