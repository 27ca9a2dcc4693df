"""Tests for the RTL back-end: area model, timing model and the
Verilog emitter (including its security properties)."""

import math

import pytest

from repro.benchsuite import benchmark_names, get_benchmark
from repro.frontend import compile_c
from repro.hls import hls_flow
from repro.hls.design import BlockVariants
from repro.hls.resources import (
    FUKind,
    fu_area,
    fu_delay,
    memory_area,
    merged_fu_area,
    mux_area,
    mux_delay,
    register_area,
    xor_area,
)
from repro.ir.instructions import Opcode
from repro.registry import REGISTRY
from repro.rtl import emit_verilog, estimate_area, estimate_timing
from repro.tao import ObfuscationParameters, TaoFlow

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


def baseline_design():
    module = compile_c(SOURCE)
    return hls_flow(module, "kernel")


class TestResourceLibrary:
    def test_fu_area_monotone_in_width(self):
        for kind in FUKind:
            assert fu_area(kind, 64) > fu_area(kind, 8)

    def test_multiplier_dwarfs_adder(self):
        assert fu_area(FUKind.MUL, 32) > 10 * fu_area(FUKind.ADDSUB, 32)

    def test_mux_area_grows_with_inputs(self):
        assert mux_area(4, 32) > mux_area(2, 32) > mux_area(1, 32) == 0.0

    def test_merged_fu_at_least_max_member(self):
        merged = merged_fu_area({Opcode.ADD, Opcode.SHL}, 32)
        assert merged >= fu_area(FUKind.ADDSUB, 32)
        assert merged >= fu_area(FUKind.SHIFT, 32)

    def test_merged_fu_cheaper_than_sum(self):
        merged = merged_fu_area({Opcode.ADD, Opcode.XOR, Opcode.LT}, 32)
        total = (
            fu_area(FUKind.ADDSUB, 32)
            + fu_area(FUKind.LOGIC, 32)
            + fu_area(FUKind.CMP, 32)
        )
        assert merged < total

    def test_delays_monotone(self):
        for kind in FUKind:
            assert fu_delay(kind, 64) > fu_delay(kind, 8)

    def test_mux_delay_log_depth(self):
        assert mux_delay(2) < mux_delay(16)
        assert mux_delay(1) == 0.0

    def test_primitive_areas_positive(self):
        assert register_area(32) > 0
        assert xor_area(32) > 0
        assert memory_area(1024) > 0
        assert memory_area(0) == 0.0


class TestAreaModel:
    def test_total_is_sum_of_parts(self):
        report = estimate_area(baseline_design())
        parts = (
            report.functional_units
            + report.registers
            + report.multiplexers
            + report.memories
            + report.controller
            + report.key_logic
        )
        assert math.isclose(report.total, parts)

    def test_baseline_has_no_key_logic(self):
        report = estimate_area(baseline_design())
        assert report.key_logic == 0.0

    def test_obfuscated_has_key_logic(self):
        component = TaoFlow().obfuscate(SOURCE, "kernel")
        report = estimate_area(component.design)
        assert report.key_logic > 0.0

    def test_key_storage_flag(self):
        component = TaoFlow().obfuscate(SOURCE, "kernel")
        without = estimate_area(component.design, include_key_storage=False)
        with_storage = estimate_area(component.design, include_key_storage=True)
        assert with_storage.total > without.total

    def test_normalized_to(self):
        base = estimate_area(baseline_design())
        assert math.isclose(base.normalized_to(base), 1.0)

    def test_external_memories_free(self):
        report = estimate_area(baseline_design())
        assert report.memories == 0.0  # data/out are parameter arrays

    def test_local_rom_costs_area(self):
        source = """
        int f(int i) {
          int rom[8] = {1, 2, 3, 4, 5, 6, 7, 8};
          return rom[i];
        }
        """
        module = compile_c(source)
        report = estimate_area(hls_flow(module, "f"))
        assert report.memories > 0.0


class TestTimingModel:
    def test_positive_frequency(self):
        report = estimate_timing(baseline_design())
        assert report.frequency_mhz > 0
        assert report.critical_path_ns > 0

    def test_frequency_is_inverse_of_path(self):
        report = estimate_timing(baseline_design())
        assert math.isclose(report.frequency_mhz, 1000.0 / report.critical_path_ns)

    def test_division_dominates_critical_path(self):
        report = estimate_timing(baseline_design())
        assert "div" in report.path_description or "mul" in report.path_description

    def test_obfuscation_never_speeds_up(self):
        base = estimate_timing(baseline_design())
        component = TaoFlow().obfuscate(SOURCE, "kernel")
        obf = estimate_timing(component.design)
        assert obf.frequency_mhz <= base.frequency_mhz

    def test_frequency_ratio(self):
        base = estimate_timing(baseline_design())
        assert math.isclose(base.frequency_ratio(base), 1.0)


class TestDistinctVariantWalk:
    """Selectors may share one DFG op list, and the area and timing
    models walk each distinct list once (``BlockVariants.
    distinct_lists``).  Their reports must equal a walk over every
    selector's list, shared lists repeated."""

    @pytest.mark.parametrize("bench_name", benchmark_names())
    @pytest.mark.parametrize("preset", sorted(REGISTRY.names("pipeline-preset")))
    def test_reports_equal_per_selector_walk(self, bench_name, preset, monkeypatch):
        bench = get_benchmark(bench_name)
        design = TaoFlow(pipeline=preset).obfuscate(bench.source, bench.top).design
        blocks = design.block_variants.values()
        # Under the default diversity every variant block shares lists.
        assert all(len(v.distinct_lists()) < len(v.variants) for v in blocks)

        def reports():
            return (
                estimate_area(design),
                estimate_area(design, include_key_storage=True),
                estimate_timing(design),
            )

        distinct = reports()
        # The reference walk: one entry per selector.
        monkeypatch.setattr(
            BlockVariants,
            "distinct_lists",
            lambda variants: dict(enumerate(variants.variants.values())),
        )
        assert sum(len(v.distinct_lists()) for v in blocks) == sum(
            len(v.variants) for v in blocks
        )
        assert reports() == distinct


class TestVerilogEmitter:
    def test_baseline_module_structure(self):
        text = emit_verilog(baseline_design())
        assert text.startswith("// Generated by repro TAO-HLS")
        assert "module kernel (" in text
        assert "endmodule" in text
        assert "input wire clk" in text
        assert "output reg done" in text
        assert "case (state)" in text

    def test_scalar_param_port(self):
        text = emit_verilog(baseline_design())
        assert "p_gain" in text

    def test_return_port(self):
        text = emit_verilog(baseline_design())
        assert "return_port" in text

    def test_baseline_has_no_working_key(self):
        text = emit_verilog(baseline_design())
        assert "working_key" not in text

    def test_obfuscated_has_working_key_port(self):
        component = TaoFlow().obfuscate(SOURCE, "kernel")
        text = emit_verilog(component.design)
        width = component.working_key_bits
        assert f"input wire [{width - 1}:0] working_key" in text

    def test_plaintext_constants_absent(self):
        """Security property: sensitive constants never appear in RTL."""
        component = TaoFlow().obfuscate(SOURCE, "kernel")
        text = emit_verilog(component.design)
        for constant in component.design.obfuscated_constants:
            plaintext = constant.original.value & 0xFFFFFFFF
            stored = constant.stored_value
            if plaintext != stored:  # XOR made them differ
                assert f"32'd{plaintext} ^" not in text

    def test_branch_masks_emitted(self):
        component = TaoFlow().obfuscate(SOURCE, "kernel")
        text = emit_verilog(component.design)
        assert "^ working_key[" in text

    def test_variant_case_emitted(self):
        component = TaoFlow().obfuscate(SOURCE, "kernel")
        text = emit_verilog(component.design)
        assert "DFG variant select" in text

    def test_rom_initialization(self):
        source = """
        int f(int i) {
          int rom[4] = {9, 8, 7, 6};
          return rom[i];
        }
        """
        module = compile_c(source)
        text = emit_verilog(hls_flow(module, "f"))
        assert "32'd9;" in text

    def test_balanced_begin_end(self):
        text = emit_verilog(baseline_design())
        # 'begin'/'end' tokens must balance (endmodule/endcase excluded).
        begins = text.count("begin")
        ends = sum(line.strip().startswith("end") and not line.strip().startswith(("endmodule", "endcase")) for line in text.splitlines())
        assert begins == ends
