"""Capability-registry tests: uniform registration semantics, the
``repro.plugins`` entry-point seam (synthetic in-test plugin sweeping
as campaign axes), uniform unknown-name errors across every axis, the
``repro list`` CLI, and byte-identity of refactored campaign output
against the pre-refactor golden fixture."""

from __future__ import annotations

import json
import pickle
import random
from pathlib import Path

import pytest

import repro.registry as registry_mod
from repro.registry import (
    BUILTIN,
    KIND_LABELS,
    REGISTRY,
    CapabilityRegistry,
    DuplicateCapabilityError,
    UnknownCapabilityError,
    describe_capabilities,
)

GOLDEN = Path(__file__).parent / "golden" / "sobel_campaign.json"


def _fresh() -> CapabilityRegistry:
    return CapabilityRegistry(
        kinds={"widget": "widget", "gadget": "gadget"}, builtin_sources={}
    )


class TestRegistrySemantics:
    def test_register_and_get(self):
        reg = _fresh()
        reg.register("widget", "alpha", 1, description="first")
        assert reg.get("widget", "alpha") == 1
        assert reg.has("widget", "alpha")
        assert not reg.has("widget", "beta")

    def test_decorator_registration_keeps_identity(self):
        reg = _fresh()

        @reg.register("widget", "fn", description="decorated")
        def payload():
            return 42

        assert reg.get("widget", "fn") is payload
        assert payload() == 42

    def test_duplicate_name_raises(self):
        reg = _fresh()
        reg.register("widget", "alpha", 1)
        with pytest.raises(DuplicateCapabilityError, match="already registered"):
            reg.register("widget", "alpha", 2)
        # replace=True is the explicit override
        reg.register("widget", "alpha", 2, replace=True)
        assert reg.get("widget", "alpha") == 2

    def test_same_name_in_different_kinds_is_fine(self):
        reg = _fresh()
        reg.register("widget", "alpha", 1)
        reg.register("gadget", "alpha", 2)
        assert reg.get("widget", "alpha") == 1
        assert reg.get("gadget", "alpha") == 2

    def test_unknown_name_error_lists_valid_entries(self):
        reg = _fresh()
        reg.register("widget", "alpha", 1)
        reg.register("widget", "beta", 2)
        with pytest.raises(UnknownCapabilityError) as excinfo:
            reg.get("widget", "gamma")
        message = str(excinfo.value)
        assert "unknown widget 'gamma'" in message
        assert "alpha, beta" in message

    def test_unknown_error_is_keyerror_and_valueerror(self):
        reg = _fresh()
        error = pytest.raises(KeyError, reg.get, "widget", "nope").value
        assert isinstance(error, ValueError)
        assert isinstance(error, UnknownCapabilityError)
        # str() is the plain message, not KeyError's quoting repr
        assert str(error).startswith("unknown widget")

    def test_unknown_error_survives_pickling(self):
        # Campaign workers send exceptions across process boundaries.
        original = UnknownCapabilityError.for_kind("widget", "x", ("a", "b"))
        clone = pickle.loads(pickle.dumps(original))
        assert str(clone) == str(original)

    def test_unknown_kind_raises(self):
        reg = _fresh()
        with pytest.raises(UnknownCapabilityError, match="capability kind"):
            reg.get("doohickey", "alpha")
        with pytest.raises(UnknownCapabilityError, match="capability kind"):
            reg.register("doohickey", "alpha", 1)

    def test_add_kind(self):
        reg = _fresh()
        reg.add_kind("doohickey")
        reg.register("doohickey", "alpha", 1)
        assert reg.names("doohickey") == ("alpha",)
        with pytest.raises(DuplicateCapabilityError, match="already registered"):
            reg.add_kind("widget")

    def test_deterministic_registration_order(self):
        reg = _fresh()
        for name in ("zeta", "alpha", "mid"):
            reg.register("widget", name, name)
        assert reg.names("widget") == ("zeta", "alpha", "mid")
        assert [e.name for e in reg.entries("widget")] == ["zeta", "alpha", "mid"]

    def test_unregister(self):
        reg = _fresh()
        reg.register("widget", "alpha", 1)
        reg.unregister("widget", "alpha")
        assert not reg.has("widget", "alpha")
        with pytest.raises(UnknownCapabilityError):
            reg.unregister("widget", "alpha")

    def test_entry_metadata_and_provenance(self):
        reg = _fresh()
        reg.register("widget", "alpha", 1, description="the first one")
        entry = reg.entry("widget", "alpha")
        assert entry.kind == "widget"
        assert entry.description == "the first one"
        assert entry.provenance == BUILTIN
        assert entry.describe() == "the first one"

    def test_describe_falls_back_to_docstring(self):
        reg = _fresh()

        @reg.register("widget", "fn")
        def payload():
            """First docstring line.

            More detail.
            """

        assert reg.entry("widget", "fn").describe() == "First docstring line."

    def test_snapshot_restore(self):
        reg = _fresh()
        reg.register("widget", "alpha", 1)
        state = reg.snapshot()
        reg.register("widget", "beta", 2)
        reg.restore(state)
        assert reg.names("widget") == ("alpha",)


class TestBuiltinRegistrations:
    """All eight kinds resolve through the one process registry."""

    def test_every_kind_is_populated(self, isolated_registry):
        listing = describe_capabilities()
        assert set(listing) == set(KIND_LABELS)
        for kind, entries in listing.items():
            assert entries, f"kind {kind!r} registered nothing"
            assert all(e["provenance"] == BUILTIN for e in entries)

    def test_tables_mirror_registry_names(self):
        from repro.benchsuite.registry import benchmark_names
        from repro.tao.pipeline import available_stages

        assert tuple(benchmark_names()) == REGISTRY.names("benchmark")
        assert available_stages() == REGISTRY.names("stage")


class TestUniformUnknownNameErrors:
    """The error-drift fix: every axis fails with the registry's
    uniform error naming the kind and the valid entries."""

    def test_unknown_benchmark(self):
        from repro.benchsuite.registry import get_benchmark

        with pytest.raises(UnknownCapabilityError, match="registered benchmarks"):
            get_benchmark("sobl")

    def test_unknown_key_scheme(self):
        from repro.tao.key import LockingKey
        from repro.tao.keymgmt import choose_working_key

        with pytest.raises(
            ValueError, match="unknown key-management scheme 'bogus'"
        ) as excinfo:
            choose_working_key(8, LockingKey(1, 256), scheme="bogus")
        assert "replication" in str(excinfo.value)

    def test_unknown_budget(self):
        from repro.runtime.campaign import budget_constraints

        with pytest.raises(KeyError, match="unknown resource budget") as excinfo:
            budget_constraints("bogus")
        assert "tight" in str(excinfo.value)

    def test_unknown_config(self):
        from repro.runtime.campaign import CampaignSpec

        spec = CampaignSpec(benchmarks=("sobel",))
        with pytest.raises(KeyError, match="registered campaign configs"):
            spec.config_overrides("nope")

    def test_unknown_attack(self):
        from repro.attack import run_attack

        with pytest.raises(UnknownCapabilityError, match="registered attacks"):
            run_attack("nope", None, [])

    def test_unknown_engine_keeps_source_context(self):
        from repro.sim import resolve_engine

        with pytest.raises(
            ValueError, match=r"unknown simulation engine 'verilator' \(from engine"
        ):
            resolve_engine("verilator")

    def test_unknown_stage(self):
        from repro.tao.pipeline import get_stage

        with pytest.raises(KeyError, match="registered stages"):
            get_stage("nope")


# ----------------------------------------------------------------------
# Synthetic third-party plugin
# ----------------------------------------------------------------------
PLUGIN_SOURCE = """
int pkernel(int data[8], int bias) {
  int acc = 0;
  for (int i = 0; i < 8; i++) {
    if (data[i] > bias) {
      acc = acc + data[i];
    } else {
      acc = acc - 1;
    }
  }
  return acc;
}
"""


def _plugin_testbenches(seed: int = 0, count: int = 1):
    from repro.sim.testbench import Testbench

    rng = random.Random(seed)
    return [
        Testbench(
            args=[rng.randint(10, 40)],
            arrays={"data": [rng.randint(0, 63) for _ in range(8)]},
        )
        for _ in range(count)
    ]


def _plugin_attack(component, benches, *, seed=0, engine=None):
    # Well-behaved plugin: returns the structured contract shape
    # (repro.attack.contract) that run_attack validates at the funnel.
    return {
        "name": "plugin-probe",
        "applicable": True,
        "cost": {"oracle_queries": 0, "simulated_trials": 0, "iterations": 1},
        "outcome": {
            "working_key_bits": component.working_key_bits,
            "n_benches": len(benches),
        },
    }


def _register_demo_plugin(registry):
    from repro.benchsuite.registry import Benchmark, register

    register(
        Benchmark(
            name="pluginbench",
            source=PLUGIN_SOURCE,
            top="pkernel",
            description="out-of-tree accumulate kernel",
            make_testbenches=_plugin_testbenches,
        )
    )
    registry.register(
        "attack", "plugin-probe", _plugin_attack, description="out-of-tree probe"
    )


class _FakeEntryPoint:
    """Stand-in for an importlib.metadata entry point."""

    def __init__(self, name, target=None, error=None):
        self.name = name
        self._target = target
        self._error = error

    def load(self):
        if self._error is not None:
            raise self._error
        return self._target


class TestPluginSeam:
    def _arm(self, monkeypatch, entry_points):
        REGISTRY._plugins_loaded = False
        monkeypatch.setattr(
            registry_mod, "_discover_entry_points", lambda: list(entry_points)
        )

    def test_plugin_benchmark_and_attack_sweep_as_campaign_axes(
        self, isolated_registry, monkeypatch
    ):
        from repro.runtime.campaign import CampaignSpec, run_campaign

        self._arm(monkeypatch, [_FakeEntryPoint("demo", _register_demo_plugin)])
        spec = CampaignSpec(
            benchmarks=("pluginbench",),
            n_keys=2,
            n_workloads=1,
            seed=3,
            attacks=("plugin-probe",),
        )
        result = run_campaign(spec)
        assert len(result.units) == 1
        unit = result.units[0]
        assert unit.benchmark == "pluginbench"
        assert unit.report.correct_key_ok
        probe = unit.attacks["plugin-probe"]
        assert probe["applicable"] is True
        assert probe["outcome"]["n_benches"] == 1
        assert probe["cost"]["iterations"] == 1
        # provenance recorded per entry point
        assert REGISTRY.entry("benchmark", "pluginbench").provenance == "plugin:demo"
        assert REGISTRY.entry("attack", "plugin-probe").provenance == "plugin:demo"
        # the attack axis round-trips through JSON
        doc = json.loads(result.to_json())
        assert doc["spec"]["attacks"] == ["plugin-probe"]
        assert doc["units"][0]["attacks"]["plugin-probe"]["applicable"] is True

    def test_plugins_load_exactly_once(self, isolated_registry, monkeypatch):
        calls = []

        def register_once(registry):
            calls.append(1)
            registry.register("attack", "plugin-once", _plugin_attack)

        self._arm(monkeypatch, [_FakeEntryPoint("once", register_once)])
        assert REGISTRY.load_plugins() == 1
        assert REGISTRY.load_plugins() == 0
        assert calls == [1]

    def test_duplicate_name_registration_raises(self, isolated_registry):
        from repro.benchsuite.registry import benchmark_names

        benchmark_names()  # ensure builtins are registered
        with pytest.raises(DuplicateCapabilityError, match="already registered"):
            REGISTRY.register("benchmark", "sobel", object())

    def test_broken_plugin_warns_and_others_still_load(
        self, isolated_registry, monkeypatch
    ):
        self._arm(
            monkeypatch,
            [
                _FakeEntryPoint("broken", error=ImportError("no such module")),
                _FakeEntryPoint("good", _register_demo_plugin),
            ],
        )
        with pytest.warns(RuntimeWarning, match="plugin 'broken' failed"):
            loaded = REGISTRY.load_plugins()
        assert loaded == 1
        assert REGISTRY.has("attack", "plugin-probe")

    def test_plugin_colliding_with_builtin_warns_not_crashes(
        self, isolated_registry, monkeypatch
    ):
        from repro.benchsuite.registry import benchmark_names

        benchmark_names()

        def hijack(registry):
            registry.register("benchmark", "sobel", object())

        self._arm(monkeypatch, [_FakeEntryPoint("hijack", hijack)])
        with pytest.warns(RuntimeWarning, match="plugin 'hijack' failed"):
            REGISTRY.load_plugins()
        # the builtin entry survives untouched
        assert REGISTRY.entry("benchmark", "sobel").provenance == BUILTIN


class TestListCli:
    def test_list_plain(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fragment in ("benchmark", "sobel", "[builtin]", "engine", "attack"):
            assert fragment in out

    def test_list_single_kind_json(self, capsys):
        from repro.cli import main

        assert main(["list", "engine", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in data["engine"]] == [
            "compiled",
            "interp",
            "codegen",
        ]
        assert all(e["provenance"] == "builtin" for e in data["engine"])

    def test_list_unknown_kind(self, capsys):
        from repro.cli import main

        assert main(["list", "bogus"]) == 2
        assert "capability kind" in capsys.readouterr().err


class TestCampaignAttackAxis:
    def test_cli_rejects_unknown_attack(self, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--benchmarks",
                "sobel",
                "--keys",
                "2",
                "--attack",
                "nope",
            ]
        )
        assert code == 2
        assert "registered attacks" in capsys.readouterr().err

    def test_attack_blocks_embed_without_perturbing_unit(self, tmp_path, capsys):
        from repro.cli import main
        from repro.runtime.campaign import CampaignSpec, run_campaign

        out = tmp_path / "attacked.json"
        code = main(
            [
                "campaign",
                "--benchmarks",
                "sobel",
                "--keys",
                "2",
                "--seed",
                "11",
                "--attack",
                "replication-leak",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        block = data["units"][0]["attacks"]["replication-leak"]
        assert block["applicable"] is True
        assert block["outcome"]["fanout"] >= 1
        assert block["cost"] == {
            "oracle_queries": 0,
            "simulated_trials": 0,
            "iterations": 1,
        }
        assert data["spec"]["attacks"] == ["replication-leak"]
        # the same campaign without attacks emits an identical unit
        # minus the attacks block: seeds and trials are unperturbed
        bare = run_campaign(CampaignSpec(benchmarks=("sobel",), n_keys=2, seed=11))
        bare_doc = json.loads(bare.to_json())
        attacked_unit = dict(data["units"][0])
        attacked_unit.pop("attacks")
        assert attacked_unit == bare_doc["units"][0]
        assert "attacks" not in bare_doc["spec"]


class TestGoldenByteIdentity:
    def test_refactored_sobel_campaign_matches_prerefactor_fixture(self):
        """The registry refactor changes no campaign bytes: this JSON
        was generated before any table moved onto the registry
        (re-stamped across schema bumps — /4 added the per-unit
        ``status``/``attempts`` fields, /5 structured the attack
        blocks; neither touches attack-free campaign bytes)."""
        from repro.runtime.campaign import CampaignSpec, run_campaign
        from repro.runtime.executor import ExecutionOptions

        spec = CampaignSpec(
            benchmarks=("sobel",),
            n_keys=3,
            n_workloads=1,
            seed=7,
        )
        result = run_campaign(spec, ExecutionOptions(engine="compiled"))
        assert result.to_json() + "\n" == GOLDEN.read_text()
