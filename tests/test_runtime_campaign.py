"""Tests for the campaign engine and the key-validation loop fixes:

* ``n_keys < 2`` raises instead of reporting vacuous success;
* wrong-key generation is bounded and deduplicated (narrow widths
  terminate);
* the golden model is interpreted exactly once per (content, testbench)
  during a campaign — shared across configs, schemes and budgets;
* parallel and serial campaigns emit byte-identical JSON;
* cache telemetry counts trials run in nested key-level pools;
* multi-axis sweeps (config × key scheme × resource budget ×
  pipeline) enumerate, execute and serialize (``repro.campaign/5``)
  correctly, and documents of any other schema are rejected on load.
"""

import json
import random

import pytest

from repro.runtime.cache import GOLDEN_CACHE, reset_caches
from repro.runtime.campaign import (
    CampaignSpec,
    _spec_from_dict,
    budget_constraints,
    derive_seed,
    parallel_map,
    resolve_jobs,
    run_campaign,
)
from repro.runtime.executor import ExecutionOptions
from repro.runtime.results import (
    AXIS_LABELS,
    CampaignResult,
    report_from_dict,
    report_to_dict,
)
from repro.sim import Testbench
from repro.tao import LockingKey, ObfuscationParameters, TaoFlow
from repro.tao.metrics import (
    build_report,
    generate_wrong_keys,
    run_key_trial,
    validate_component,
)

SOURCE = """
int kernel(int seed, int out[4]) {
  int acc = seed * 21 + 4;
  for (int i = 0; i < 4; i++) {
    if (acc % 2 == 0) acc = acc / 2 + 3;
    else acc = acc * 3 - 1;
    out[i] = acc;
  }
  return acc;
}
"""

BENCH = Testbench(args=[7])


@pytest.fixture(autouse=True)
def fresh_caches():
    reset_caches()
    yield
    reset_caches()


@pytest.fixture(scope="module")
def component():
    return TaoFlow().obfuscate(SOURCE, "kernel")


@pytest.fixture(scope="module")
def narrow_component():
    """Component locked with a 6-bit key: only 63 wrong keys exist."""
    params = ObfuscationParameters(locking_key_bits=6)
    return TaoFlow(params=params).obfuscate(SOURCE, "kernel")


class TestVacuousCampaigns:
    @pytest.mark.parametrize("n_keys", [1, 0, -3])
    def test_too_few_keys_raises(self, component, n_keys):
        with pytest.raises(ValueError, match="n_keys"):
            validate_component(component, [BENCH], n_keys=n_keys)

    def test_no_workloads_raises(self, component):
        with pytest.raises(ValueError, match="workload"):
            validate_component(component, [], n_keys=4)

    def test_empty_trials_raises(self):
        with pytest.raises(ValueError, match="correct-key trial"):
            build_report("kernel", [])

    def test_no_wrong_trials_reports_none(self, component):
        correct = run_key_trial(
            component, [BENCH], component.locking_key, 2_000_000
        )
        report = build_report("kernel", [correct])
        assert report.wrong_keys_all_corrupt is None
        assert report.correct_key_ok


class TestWrongKeyGeneration:
    def test_narrow_width_terminates_and_covers_space(self):
        rng = random.Random(1)
        correct = LockingKey(bits=5, width=3)
        keys = generate_wrong_keys(correct, 100, rng)
        bits = [k.bits for k in keys]
        assert sorted(bits) == [b for b in range(8) if b != 5]

    def test_keys_deduplicated(self):
        rng = random.Random(2)
        correct = LockingKey(bits=0, width=8)
        keys = generate_wrong_keys(correct, 200, rng)
        bits = [k.bits for k in keys]
        assert len(set(bits)) == len(bits)
        assert correct.bits not in bits

    def test_bounded_attempts(self):
        rng = random.Random(3)
        correct = LockingKey(bits=1, width=64)
        keys = generate_wrong_keys(correct, 50, rng, max_attempts=10)
        assert len(keys) <= 10  # bounded, not spinning

    def test_narrow_width_campaign_terminates(self, narrow_component):
        report = validate_component(narrow_component, [BENCH], n_keys=100)
        # 6-bit keyspace: 1 correct + at most 63 wrong keys.
        assert 2 <= report.n_keys <= 64
        bits = [t.locking_key.bits for t in report.trials]
        assert len(set(bits)) == len(bits)
        assert report.correct_key_ok


class TestGoldenMemoization:
    def test_one_interpretation_per_design_testbench(self, component):
        GOLDEN_CACHE.clear()
        report = validate_component(component, [BENCH], n_keys=8)
        assert len(report.trials) == 8
        assert GOLDEN_CACHE.stats.misses == 1
        assert GOLDEN_CACHE.stats.hits == 7

    def test_one_interpretation_per_workload(self, component):
        GOLDEN_CACHE.clear()
        benches = [BENCH, Testbench(args=[11])]
        validate_component(component, benches, n_keys=5)
        assert GOLDEN_CACHE.stats.misses == 2
        assert GOLDEN_CACHE.stats.hits == 2 * 5 - 2

    def test_golden_shared_across_param_configs(self):
        # Content addressing: dfg-only and constants-obfuscating flows
        # rebuild different module objects for the same source, but the
        # golden semantics (obfuscated constants decode to their
        # plaintext) are identical — one interpreter run serves both.
        GOLDEN_CACHE.clear()
        default = TaoFlow().obfuscate(SOURCE, "kernel")
        dfg_only = TaoFlow(
            params=ObfuscationParameters(
                obfuscate_branches=False, obfuscate_constants=False
            )
        ).obfuscate(SOURCE, "kernel")
        validate_component(default, [BENCH], n_keys=3)
        validate_component(dfg_only, [BENCH], n_keys=3)
        assert GOLDEN_CACHE.stats.misses == 1
        assert GOLDEN_CACHE.stats.hits == 2 * 3 - 1

    def test_campaign_golden_misses_benchmarks_times_workloads(self):
        # Acceptance: a serial multi-axis campaign interprets the
        # golden model once per (benchmark, workload) — NOT once per
        # config/scheme/budget cell.
        spec = CampaignSpec(
            benchmarks=("sobel", "adpcm"),
            configs=("default", "dfg-only"),
            key_schemes=("replication", "aes"),
            n_keys=2,
            n_workloads=1,
        )
        result = run_campaign(spec, ExecutionOptions(collect_cache_stats=True))
        assert len(result.units) == 8
        golden = result.cache["golden"]
        assert golden["misses"] == len(spec.benchmarks) * spec.n_workloads
        # Every unit's every trial did exactly one lookup per workload.
        assert golden["hits"] + golden["misses"] == (
            len(result.units) * spec.n_keys * spec.n_workloads
        )
        # The front end compiled each benchmark source once, total.
        assert result.cache["frontend"]["misses"] == len(spec.benchmarks)
        for unit in result.units:
            assert unit.report.correct_key_ok
            assert unit.report.wrong_keys_all_corrupt


class TestCacheTelemetry:
    def test_nested_key_workers_counted(self):
        # Single unit with jobs=4: the unit runs inline and fans its
        # key trials over a nested pool.  Every trial's golden lookup
        # must appear in the campaign telemetry (they were dropped
        # before the workers reported deltas back).
        spec = CampaignSpec(benchmarks=("sobel",), n_keys=6)
        result = run_campaign(
            spec, ExecutionOptions(jobs=4, collect_cache_stats=True)
        )
        golden = result.cache["golden"]
        assert golden["hits"] + golden["misses"] == spec.n_keys

    def test_validate_component_jobs_absorbs_worker_stats(self, component):
        GOLDEN_CACHE.clear()
        validate_component(component, [BENCH], n_keys=6, jobs=3)
        # 6 trials x 1 workload = 6 lookups, wherever they ran.
        assert GOLDEN_CACHE.stats.lookups == 6


class TestParallelDeterminism:
    def test_key_parallel_equals_serial(self, component):
        serial = validate_component(component, [BENCH], n_keys=6, seed=11)
        parallel = validate_component(
            component, [BENCH], n_keys=6, seed=11, jobs=2
        )
        assert json.dumps(report_to_dict(serial), sort_keys=True) == json.dumps(
            report_to_dict(parallel), sort_keys=True
        )

    def test_campaign_parallel_equals_serial(self):
        base = dict(benchmarks=("sobel", "adpcm"), n_keys=3, seed=5)
        serial = run_campaign(CampaignSpec(**base))
        parallel = run_campaign(CampaignSpec(**base), ExecutionOptions(jobs=2))
        assert serial.to_json() == parallel.to_json()

    def test_oversubscribed_campaign_equals_serial(self):
        # jobs > unit count: unit workers spawn nested key-level pools
        # (ceil split, 2 key workers each) — results must not change.
        base = dict(benchmarks=("sobel", "adpcm"), n_keys=4, seed=9)
        serial = run_campaign(CampaignSpec(**base))
        nested = run_campaign(CampaignSpec(**base), ExecutionOptions(jobs=4))
        assert serial.to_json() == nested.to_json()

    def test_multi_axis_parallel_equals_serial(self):
        # Acceptance: 2 benchmarks x {default, dfg-only} x
        # {replication, aes} is byte-identical between --jobs 1 and 8.
        # The design block (area and timing floats, reference cycles)
        # rides the same gate.
        base = dict(
            benchmarks=("sobel", "adpcm"),
            configs=("default", "dfg-only"),
            key_schemes=("replication", "aes"),
            n_keys=2,
            seed=13,
            design_metrics=True,
        )
        serial = run_campaign(CampaignSpec(**base))
        parallel = run_campaign(CampaignSpec(**base), ExecutionOptions(jobs=8))
        assert serial.to_json() == parallel.to_json()
        assert serial.to_dict()["schema"] == "repro.campaign/5"
        assert all(unit.design is not None for unit in serial.units)

    def test_evaluation_builds_one_reference_per_content(self, monkeypatch):
        """The 20-unit evaluation campaign synthesizes one unobfuscated
        reference per benchmark: its four configs share the source, top,
        constraints, engine and workloads a reference depends on.  The
        document equals one whose every unit builds its own."""
        from repro.benchsuite import benchmark_names
        from repro.evaluation.report import EVALUATION_CONFIGS
        from repro.runtime import executor

        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        calls = []
        synthesize = TaoFlow.synthesize_baseline

        def counted(flow, source, top, name="baseline"):
            calls.append(top)
            return synthesize(flow, source, top, name)

        monkeypatch.setattr(TaoFlow, "synthesize_baseline", counted)
        spec = CampaignSpec(
            benchmarks=tuple(benchmark_names()),
            configs=EVALUATION_CONFIGS,
            n_keys=2,
            design_metrics=True,
        )
        documents = []
        for memo in (Forgetful(), {}):
            monkeypatch.setattr(executor, "_REFERENCES", memo)
            calls.clear()
            result = run_campaign(spec)
            documents.append(result.to_json())
            assert len(result.units) == 20
        assert len(calls) == 5 == len(set(calls))
        assert documents[0] == documents[1]

    def test_workloads_shared_across_axes(self):
        # Workload seeds derive from the benchmark alone: every
        # config/scheme/budget cell of one benchmark validates against
        # the same testbenches (what makes cells comparable and golden
        # runs shareable).
        spec = CampaignSpec(
            benchmarks=("sobel",),
            configs=("default", "dfg-only"),
            key_schemes=("replication", "aes"),
            n_keys=2,
        )
        result = run_campaign(spec)
        seeds = {u.workload_seed for u in result.units}
        assert len(seeds) == 1
        unit_seeds = {u.seed for u in result.units}
        assert len(unit_seeds) == len(result.units)  # keys still differ

    def test_parallel_map_preserves_order(self):
        doubled = parallel_map(_double, [3, 1, 2], shared=10, jobs=2)
        assert doubled == [30, 10, 20]

    def test_parallel_map_inline_path(self):
        assert parallel_map(_double, [4], shared=2, jobs=8) == [8]


def _double(shared, item):
    return shared * item


class TestCampaignEngine:
    def test_derived_seeds_are_stable_and_distinct(self):
        a = derive_seed(7, "sobel", "default")
        assert a == derive_seed(7, "sobel", "default")
        assert a != derive_seed(7, "gsm", "default")
        assert a != derive_seed(8, "sobel", "default")

    def test_resolve_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2
        assert resolve_jobs(0) == 3  # 0 means auto
        for malformed in ("bogus", "-3"):
            monkeypatch.setenv("REPRO_JOBS", malformed)
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                resolve_jobs()
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() >= 1  # 0 means auto here too
        with pytest.raises(ValueError, match="negative"):
            resolve_jobs(-1)

    def test_empty_spec_raises(self):
        with pytest.raises(ValueError, match="no units"):
            run_campaign(CampaignSpec(benchmarks=()))

    def test_single_unit_campaign(self):
        result = run_campaign(CampaignSpec(benchmarks=("sobel",), n_keys=3))
        unit = result.unit("sobel")
        assert unit.report.correct_key_ok
        assert unit.report.wrong_keys_all_corrupt
        assert unit.config == "default"

    def test_config_sweep_units(self):
        spec = CampaignSpec(
            benchmarks=("sobel",), configs=("default", "branches-only"), n_keys=2
        )
        assert spec.units() == [
            ("sobel", "default", "replication", "default", "params"),
            ("sobel", "branches-only", "replication", "default", "params"),
        ]
        assert spec.config_overrides("branches-only") == {
            "obfuscate_constants": False,
            "obfuscate_dfg": False,
        }
        with pytest.raises(KeyError):
            spec.config_overrides("nope")

    def test_multi_axis_units_enumerate_all_cells(self):
        spec = CampaignSpec(
            benchmarks=("sobel", "adpcm"),
            configs=("default", "dfg-only"),
            key_schemes=("replication", "aes"),
            resource_budgets=("default", "tight"),
            pipelines=("params", "full"),
        )
        units = spec.units()
        assert len(units) == 2 * 2 * 2 * 2 * 2
        assert len(set(units)) == len(units)
        # benchmark-major, pipeline-minor enumeration order.
        assert units[0] == ("sobel", "default", "replication", "default", "params")
        assert units[1] == ("sobel", "default", "replication", "default", "full")
        assert units[2] == ("sobel", "default", "replication", "tight", "params")
        assert units[-1] == ("adpcm", "dfg-only", "aes", "tight", "full")

    def test_budget_constraints_presets(self):
        from repro.hls.resources import FUKind

        assert budget_constraints("default") is None
        tight = budget_constraints("tight")
        assert tight.limits[FUKind.ADDSUB] == 1
        assert tight.limits[FUKind.LOGIC] == 1
        loose = budget_constraints("loose")
        assert loose.limits[FUKind.ADDSUB] == 4
        with pytest.raises(KeyError, match="unknown resource budget"):
            budget_constraints("bogus")

    def test_budget_constraints_mul_and_mem_presets(self):
        from repro.hls.resources import FUKind

        mul_tight = budget_constraints("mul-tight")
        assert mul_tight.limits[FUKind.MUL] == 1
        assert mul_tight.limits[FUKind.DIV] == 1
        assert not mul_tight.shared_memory_port
        mem_tight = budget_constraints("mem-tight")
        assert mem_tight.memory_ports == 1
        assert mem_tight.shared_memory_port

    def test_budget_preset_rejects_unknown_field(self, isolated_registry):
        # A typo'd preset entry must fail loudly at resolution, not
        # fall through to a confusing FUKind error.
        isolated_registry.register("budget", "typo", {"memory_port": 1})
        with pytest.raises(KeyError, match="ResourceConstraints field"):
            budget_constraints("typo")

    def test_mem_tight_budget_serializes_array_traffic(self):
        # The shared-port constraint must actually bite: viterbi
        # overlaps accesses to different arrays under the per-array
        # default, so banking everything behind one port lengthens its
        # schedule (correctness is covered by the campaign tests).
        from repro.benchsuite import get_benchmark
        from repro.tao import TaoFlow

        bench = get_benchmark("viterbi")
        default = TaoFlow().synthesize_baseline(bench.source, bench.top)
        memtight = TaoFlow(
            constraints=budget_constraints("mem-tight")
        ).synthesize_baseline(bench.source, bench.top)
        assert memtight.controller.n_states > default.controller.n_states

    def test_new_budget_presets_campaign_correct(self):
        result = run_campaign(
            CampaignSpec(
                benchmarks=("sobel",),
                resource_budgets=("mul-tight", "mem-tight"),
                n_keys=2,
            )
        )
        for unit in result.units:
            assert unit.report.correct_key_ok
            assert unit.report.wrong_keys_all_corrupt

    def test_cli_accepts_new_budget_presets(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "budgets.json"
        code = main(
            ["campaign", "--benchmarks", "sobel", "--keys", "2",
             "--jobs", "1", "--budget", "mul-tight", "--budget", "mem-tight",
             "-o", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert {u["budget"] for u in data["units"]} == {"mul-tight", "mem-tight"}

    def test_spec_dict_round_trip_equality(self):
        # Regression: overrides arrive in arbitrary insertion order and
        # the rebuilt spec used to compare unequal to the original.
        spec = CampaignSpec(
            benchmarks=("sobel",),
            configs=("zcustom", "acustom"),
            key_schemes=("aes", "replication"),
            resource_budgets=("tight", "default"),
            n_keys=3,
            extra_configs=(
                ("zcustom", (("obfuscate_dfg", False), ("block_bits", 2))),
                ("acustom", (("constant_width", 16), ("block_bits", 5))),
            ),
            design_metrics=True,
        )
        assert _spec_from_dict(spec.to_dict()) == spec
        # JSON round-trip too (what a results file actually stores).
        assert _spec_from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_extra_configs_normalized_on_construction(self):
        a = CampaignSpec(
            benchmarks=("sobel",),
            extra_configs=(
                ("x", (("b", 1), ("a", 2))),
                ("w", (("c", 3),)),
            ),
        )
        b = CampaignSpec(
            benchmarks=("sobel",),
            extra_configs=(
                ("w", (("c", 3),)),
                ("x", (("a", 2), ("b", 1))),
            ),
        )
        assert a == b
        assert a.config_overrides("x") == {"a": 2, "b": 1}


class TestResultsSchema:
    def test_report_round_trip(self, component):
        report = validate_component(component, [BENCH], n_keys=4)
        clone = report_from_dict(report_to_dict(report))
        assert report_to_dict(clone) == report_to_dict(report)
        assert clone.trials[0].locking_key == report.trials[0].locking_key

    def test_campaign_round_trip(self):
        result = run_campaign(
            CampaignSpec(benchmarks=("sobel",), n_keys=2, design_metrics=True)
        )
        clone = CampaignResult.from_json(result.to_json())
        assert clone.to_json() == result.to_json()

    def test_schema_guard(self):
        for schema in (
            "bogus/9",
            "repro.campaign/1",
            "repro.campaign/2",
            "repro.campaign/3",
            "repro.campaign/4",
        ):
            with pytest.raises(ValueError, match="re-run the campaign"):
                CampaignResult.from_dict({"schema": schema, "spec": {}, "units": []})

    def test_axes_labels_embedded(self):
        result = run_campaign(CampaignSpec(benchmarks=("sobel",), n_keys=2))
        data = result.to_dict()
        assert data["axes"] == AXIS_LABELS
        # A spec that does not ask for the design block serializes
        # neither the setting nor the block.
        assert "design_metrics" not in data["spec"]
        assert "design" not in data["units"][0]
        assert set(AXIS_LABELS) == {"config", "key_scheme", "budget", "pipeline"}
        unit = data["units"][0]
        assert unit["key_scheme"] == "replication"
        assert unit["budget"] == "default"
        assert unit["pipeline"] == "params"
        # The default pipeline runs the three paper passes; every stage
        # block is deterministic (no wall time in the JSON).
        assert [s["stage"] for s in unit["stages"]] == [
            "constants", "branches", "dfg",
        ]
        for stage in unit["stages"]:
            assert set(stage) == {
                "stage", "phase", "ops_touched", "key_bits_consumed",
            }

    def test_cli_campaign_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "campaign.json"
        code = main(
            [
                "campaign",
                "--benchmarks",
                "sobel",
                "--keys",
                "3",
                "--jobs",
                "1",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "repro.campaign/5"
        assert data["units"][0]["benchmark"] == "sobel"
        assert data["units"][0]["report"]["correct_key_ok"] is True
        captured = capsys.readouterr().out
        assert "sobel" in captured

    def test_cli_multi_axis_campaign(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "axes.json"
        code = main(
            [
                "campaign",
                "--benchmarks",
                "sobel",
                "--config",
                "dfg-only",
                "--key-scheme",
                "replication",
                "--key-scheme",
                "aes",
                "--budget",
                "tight",
                "--keys",
                "2",
                "--jobs",
                "1",
                "--cache-stats",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "repro.campaign/5"
        schemes = {u["key_scheme"] for u in data["units"]}
        assert schemes == {"replication", "aes"}
        assert {u["budget"] for u in data["units"]} == {"tight"}
        assert data["cache"]["golden"]["misses"] >= 1
        captured = capsys.readouterr().out
        assert "aes" in captured  # scheme column rendered

    def test_cli_unknown_benchmark(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--benchmarks", "nope", "--keys", "2"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--benchmarks", ",", "--keys", "2"],
            ["campaign", "--benchmarks", "sobel", "--keys", "1"],
            ["campaign", "--benchmarks", "sobel", "--keys", "2", "--workloads", "0"],
            ["campaign", "--benchmarks", "sobel", "--keys", "2", "--config", "nope"],
            ["campaign", "--benchmarks", "sobel", "--keys", "2", "--budget", "nope"],
            ["campaign", "--benchmarks", "sobel", "--keys", "1", "--design-metrics"],
            ["campaign", "--benchmarks", "sobl", "--keys", "4", "--design-metrics"],
            ["campaign", "--benchmarks", "sobel", "--keys", "2", "--key-scheme", "nope"],
        ],
    )
    def test_cli_rejects_vacuous_or_invalid_args(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 2
        assert capsys.readouterr().err.strip()
