"""Tests for the composable obfuscation-pass pipeline API.

Covers the stage registry, :class:`FlowSpec` validation and
round-tripping, the no-pipeline path (every registered campaign config
must be byte-identical — Verilog and key configuration — between
``TaoFlow`` without a pipeline and its FlowSpec preset), per-stage
``StageReport`` telemetry, stream-split design-time randomness, the
campaign's pipeline axis and the CLI ``--pipeline`` flag.
"""

import json

import pytest

from repro.registry import REGISTRY
from repro.rtl import emit_verilog
from repro.runtime.cache import reset_caches
from repro.runtime.campaign import (
    CONFIG_PIPELINES,
    CampaignSpec,
    derive_seed,
    run_campaign,
)
from repro.runtime.executor import ExecutionOptions
from repro.tao import (
    FlowSpec,
    ObfuscationParameters,
    TaoFlow,
    available_stages,
    get_stage,
    register_stage,
    resolve_pipeline,
)

SOURCE = """
int kernel(int gain, int data[6], int out[6]) {
  int acc = 0;
  for (int i = 0; i < 6; i++) {
    int v = data[i] * gain + 13;
    if (v > 40) acc += v;
    else acc -= v / 3;
    out[i] = acc;
  }
  return acc;
}
"""


@pytest.fixture(autouse=True)
def fresh_caches():
    reset_caches()
    yield
    reset_caches()


# ----------------------------------------------------------------------
# Stage registry
# ----------------------------------------------------------------------
class TestStageRegistry:
    def test_four_paper_stages_registered(self):
        assert available_stages() == ("constants", "branches", "dfg", "roms")

    def test_stage_phases(self):
        assert get_stage("constants").phase == "frontend"
        for name in ("branches", "dfg", "roms"):
            assert get_stage(name).phase == "post-schedule"

    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError, match="registered stages"):
            get_stage("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_stage("constants", phase="frontend")(lambda ctx, opts: (0, 0))

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            register_stage("newstage", phase="mid-air")

    def test_custom_stage_plugs_into_flow(self):
        # The extension seam: a new registered stage runs in the loop
        # and reports telemetry like the built-ins.
        @register_stage("census", phase="post-schedule")
        def _census(ctx, options):
            return len(ctx.scheduled_design().controller.transitions), 0

        try:
            component = TaoFlow(pipeline="constants,census").obfuscate(
                SOURCE, "kernel"
            )
            report = component.stage_report("census")
            assert report.phase == "post-schedule"
            assert report.ops_touched > 0
            assert report.key_bits_consumed == 0
        finally:
            REGISTRY.unregister("stage", "census")


# ----------------------------------------------------------------------
# FlowSpec validation + round-tripping
# ----------------------------------------------------------------------
class TestFlowSpec:
    def test_unknown_stage_fails_at_parse_time(self):
        with pytest.raises(ValueError, match="unknown stage 'bogus'"):
            FlowSpec(("constants", "bogus"))

    def test_duplicate_stage_rejected(self):
        with pytest.raises(ValueError, match="duplicate stage"):
            FlowSpec(("dfg", "dfg"))

    def test_phase_order_violation_rejected(self):
        with pytest.raises(ValueError, match="frontend stages before"):
            FlowSpec(("branches", "constants"))

    def test_options_for_unlisted_stage_rejected(self):
        with pytest.raises(ValueError, match="not in the pipeline"):
            FlowSpec(("constants",), options={"dfg": {"diversity": "selector"}})

    def test_dict_round_trip(self):
        spec = FlowSpec(
            ("constants", "dfg"), options={"dfg": {"diversity": "selector"}}
        )
        assert FlowSpec.from_dict(spec.to_dict()) == spec
        # JSON round-trip too (what a saved spec actually stores).
        assert FlowSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert spec.options_for("dfg") == {"diversity": "selector"}
        assert spec.options_for("constants") == {}
        assert spec.label == "constants,dfg"

    def test_from_parameters_maps_booleans(self):
        assert FlowSpec.from_parameters(ObfuscationParameters()).stages == (
            "constants", "branches", "dfg",
        )
        params = ObfuscationParameters(
            obfuscate_constants=False, obfuscate_roms=True
        )
        assert FlowSpec.from_parameters(params).stages == (
            "branches", "dfg", "roms",
        )

    def test_apply_to_parameters_round_trips(self):
        params = ObfuscationParameters(
            obfuscate_branches=False, constant_width=16
        )
        spec = FlowSpec.from_parameters(params)
        effective = spec.apply_to_parameters(ObfuscationParameters())
        assert not effective.obfuscate_branches
        assert effective.obfuscate_constants and effective.obfuscate_dfg
        # Numeric parameters ride the target params, not the spec.
        assert effective.constant_width == 32

    def test_resolve_pipeline_presets_and_lists(self):
        assert resolve_pipeline("full") is REGISTRY.get("pipeline-preset", "full")
        assert resolve_pipeline("constants, branches").stages == (
            "constants", "branches",
        )
        spec = FlowSpec(("dfg",))
        assert resolve_pipeline(spec) is spec
        with pytest.raises(ValueError, match="empty pipeline"):
            resolve_pipeline(" , ")
        with pytest.raises(ValueError, match="unknown stage"):
            resolve_pipeline("constants,warp")


# ----------------------------------------------------------------------
# No pipeline (stages from the booleans) == FlowSpec preset, byte for byte
# ----------------------------------------------------------------------
class TestPresetEquivalence:
    @pytest.mark.parametrize("config", sorted(REGISTRY.names("config")))
    def test_preset_config_equals_pipeline_preset(self, config):
        params = ObfuscationParameters(**REGISTRY.get("config", config))
        legacy = TaoFlow(params=params).obfuscate(SOURCE, "kernel")
        piped = TaoFlow(pipeline=CONFIG_PIPELINES[config]).obfuscate(
            SOURCE, "kernel"
        )
        assert emit_verilog(legacy.design) == emit_verilog(piped.design)
        assert legacy.design.key_config == piped.design.key_config
        assert legacy.locking_key == piped.locking_key
        assert legacy.correct_working_key == piped.correct_working_key

    def test_every_preset_config_has_a_pipeline(self):
        assert set(CONFIG_PIPELINES) == set(REGISTRY.names("config"))
        for name in CONFIG_PIPELINES.values():
            assert REGISTRY.has("pipeline-preset", name)

    def test_dfg_diversity_option_equals_params_knob(self):
        via_params = TaoFlow(
            params=ObfuscationParameters(variant_diversity="selector"),
            pipeline="dfg",
        ).obfuscate(SOURCE, "kernel")
        via_option = TaoFlow(
            pipeline=FlowSpec(
                ("dfg",), options={"dfg": {"diversity": "selector"}}
            )
        ).obfuscate(SOURCE, "kernel")
        assert emit_verilog(via_params.design) == emit_verilog(via_option.design)


# ----------------------------------------------------------------------
# Stage telemetry
# ----------------------------------------------------------------------
class TestStageReports:
    @pytest.fixture(scope="class")
    def component(self):
        return TaoFlow().obfuscate(SOURCE, "kernel")

    def test_reports_follow_pipeline_order(self, component):
        assert [r.stage for r in component.stage_reports] == [
            "constants", "branches", "dfg",
        ]
        assert [r.phase for r in component.stage_reports] == [
            "frontend", "post-schedule", "post-schedule",
        ]

    def test_key_bits_sum_to_working_key_width(self, component):
        assert (
            sum(r.key_bits_consumed for r in component.stage_reports)
            == component.working_key_bits
        )

    def test_ops_match_design_metadata(self, component):
        design = component.design
        assert component.stage_report("constants").ops_touched == len(
            design.obfuscated_constants
        )
        assert component.stage_report("branches").ops_touched == len(
            design.masked_branches
        )
        assert component.stage_report("dfg").ops_touched == len(
            design.block_variants
        )

    def test_wall_time_measured_but_not_serialized(self, component):
        for report in component.stage_reports:
            assert report.wall_seconds >= 0.0
            assert "wall_seconds" not in report.to_dict()
            assert "wall_seconds" in report.to_dict(include_timing=True)

    def test_missing_stage_report_raises(self, component):
        with pytest.raises(KeyError, match="did not run"):
            component.stage_report("roms")

    def test_component_records_flow_spec(self, component):
        assert component.flow_spec.stages == ("constants", "branches", "dfg")


# ----------------------------------------------------------------------
# Stream-split design-time randomness
# ----------------------------------------------------------------------
class TestRandomnessStreams:
    def test_locking_key_independent_of_pipeline(self):
        # The locking key draws from its own seed stream: adding or
        # removing stages must not perturb it.
        keys = {
            TaoFlow(pipeline=label).obfuscate(SOURCE, "kernel").locking_key.bits
            for label in ("full", "dfg", "constants,branches")
        }
        assert len(keys) == 1

    def test_stage_seed_is_name_scoped_and_stable(self):
        component = TaoFlow().obfuscate(SOURCE, "kernel")
        seed = component.params.seed
        ctx_seed = derive_seed(seed, "stage", "dfg")
        # Same construction as campaign unit seeds; independent of the
        # other streams and of which stages the pipeline lists.
        assert ctx_seed == derive_seed(seed, "stage", "dfg")
        assert ctx_seed != derive_seed(seed, "stage", "constants")
        assert ctx_seed != derive_seed(seed, "locking-key")

    def test_aes_working_key_stable_across_pipelines(self):
        a = TaoFlow(key_scheme="aes", pipeline="dfg").obfuscate(SOURCE, "kernel")
        b = TaoFlow(key_scheme="aes", pipeline="full").obfuscate(SOURCE, "kernel")
        assert a.locking_key == b.locking_key
        # Working keys have different widths (different apportionment),
        # but both derive deterministically from the keymgmt stream.
        assert a.working_key_for(a.locking_key) == a.correct_working_key
        assert b.working_key_for(b.locking_key) == b.correct_working_key


# ----------------------------------------------------------------------
# Campaign pipeline axis
# ----------------------------------------------------------------------
class TestCampaignPipelineAxis:
    def test_pipeline_axis_shares_golden_and_frontend_caches(self):
        # Spec-aware keys must not rotate: the resolved pipeline never
        # enters golden/front-end cache keys, so sweeping the axis
        # still interprets the golden model once per (benchmark,
        # workload) and compiles each source once.
        spec = CampaignSpec(
            benchmarks=("sobel",),
            pipelines=("params", "constants,branches", "full"),
            n_keys=2,
        )
        result = run_campaign(spec, ExecutionOptions(collect_cache_stats=True))
        assert len(result.units) == 3
        assert result.cache["golden"]["misses"] == 1
        assert result.cache["frontend"]["misses"] == 1
        for unit in result.units:
            assert unit.report.correct_key_ok

    def test_params_and_full_units_identical_results(self):
        # The acceptance contract: a legacy --config preset emits
        # byte-identical result fields through the new pipeline path.
        spec = CampaignSpec(
            benchmarks=("sobel",), pipelines=("params", "full"), n_keys=3
        )
        result = run_campaign(spec)
        legacy = result.unit("sobel", pipeline="params").to_dict()
        piped = result.unit("sobel", pipeline="full").to_dict()
        # Only the axis label and its derived seeds may differ.
        for doc in (legacy, piped):
            doc.pop("pipeline")
            doc.pop("seed")
        assert json.dumps(legacy, sort_keys=True) != json.dumps(
            piped, sort_keys=True
        )  # seeds differ -> different wrong keys ...
        assert legacy["stages"] == piped["stages"]  # ... same design work
        assert legacy["report"]["correct_key_ok"]
        assert piped["report"]["correct_key_ok"]

    def test_pipeline_axis_serial_equals_parallel(self):
        base = dict(
            benchmarks=("sobel",),
            pipelines=("constants,branches", "full"),
            n_keys=2,
            seed=21,
        )
        serial = run_campaign(CampaignSpec(**base))
        parallel = run_campaign(CampaignSpec(**base), ExecutionOptions(jobs=4))
        assert serial.to_json() == parallel.to_json()

    def test_unknown_pipeline_fails_in_worker(self):
        spec = CampaignSpec(
            benchmarks=("sobel",), pipelines=("warp-drive",), n_keys=2
        )
        with pytest.raises(ValueError, match="unknown stage"):
            run_campaign(spec)

    def test_spec_round_trip_with_pipelines(self):
        from repro.runtime.campaign import _spec_from_dict

        spec = CampaignSpec(
            benchmarks=("sobel",), pipelines=("full", "params"), n_keys=2
        )
        assert _spec_from_dict(spec.to_dict()) == spec


# ----------------------------------------------------------------------
# CLI --pipeline
# ----------------------------------------------------------------------
class TestCliPipeline:
    def test_campaign_pipeline_axis(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "pipelines.json"
        code = main(
            ["campaign", "--benchmarks", "sobel", "--keys", "2",
             "--jobs", "1", "--pipeline", "constants,branches",
             "--pipeline", "full", "-o", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "repro.campaign/5"
        assert {u["pipeline"] for u in data["units"]} == {
            "constants,branches", "full",
        }
        for unit in data["units"]:
            assert unit["stages"]
            for stage in unit["stages"]:
                assert {"stage", "phase", "ops_touched", "key_bits_consumed"} == set(
                    stage
                )
        assert "pipeline" in capsys.readouterr().out  # column rendered

    def test_campaign_rejects_unknown_pipeline(self, capsys):
        from repro.cli import main

        code = main(
            ["campaign", "--benchmarks", "sobel", "--keys", "2",
             "--pipeline", "bogus,stages"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown stage" in err
        assert "full" in err  # available presets listed

    def test_obfuscate_pipeline_flag(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "kernel.c"
        source.write_text(SOURCE)
        out_dir = tmp_path / "out"
        code = main(
            ["obfuscate", str(source), "--top", "kernel",
             "--pipeline", "constants,branches", "-o", str(out_dir)]
        )
        assert code == 0
        manifest = json.loads((out_dir / "kernel_manifest.json").read_text())
        assert manifest["pipeline"] == ["constants", "branches"]
        assert [s["stage"] for s in manifest["stages"]] == [
            "constants", "branches",
        ]
        assert manifest["variant_blocks"] == 0  # dfg stage not in pipeline

    def test_obfuscate_rejects_bad_pipeline(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "kernel.c"
        source.write_text(SOURCE)
        code = main(
            ["obfuscate", str(source), "--top", "kernel",
             "--pipeline", "dfg,constants"]
        )
        assert code == 2
        assert "frontend stages before" in capsys.readouterr().err
