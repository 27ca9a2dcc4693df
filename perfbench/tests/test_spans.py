"""Span bookkeeping: self times, handler charging, patch/restore."""

import math

import spans


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["outer", 0.0, 10.0, -1, None],
        ["middle", 1.0, 7.0, 0, 0],
        ["inner", 2.0, 5.0, 1, 0],
        ["inner", 8.0, 9.0, 0, 1],
    ]
    own = spans.self_times(recorded)
    assert math.isclose(own["outer"], 10.0 - 6.0 - 1.0)
    assert math.isclose(own["middle"], 6.0 - 3.0)
    assert math.isclose(own["inner"], 3.0 + 1.0)
    assert math.isclose(sum(own.values()), 10.0)


def test_handler_samples_charge_the_innermost_open_span():
    recorded = [
        ["outer", 0.0, 10.0, -1, None],
        ["middle", 1.0, 7.0, 0, 0],
        ["inner", 2.0, 5.0, 1, 0],
    ]
    samples = [
        [3.0, 0.5],   # inside inner
        [6.0, 0.25],  # inner has ended: middle
        [9.0, 0.125],  # only outer is open
        [11.0, 1.0],  # outside every span: charged to none
    ]
    own = spans.self_times(recorded, samples)
    assert math.isclose(own["inner"], 3.0 - 0.5)
    assert math.isclose(own["middle"], 3.0 - 0.25)
    assert math.isclose(own["outer"], 4.0 - 0.125)


class _Owner:
    def method(self, x):
        return x + 1


class _Child(_Owner):
    pass


def test_wrappers_record_nesting_units_and_counts():
    tracer = spans.Tracer()
    namespace = type("NS", (), {})()
    namespace.inner = lambda x: x * 2

    def bump(counts, result, args, kwargs):
        counts["calls"] += result

    tracer.patch(namespace, "inner", "inner", after=bump)
    outer = tracer.wrap(
        lambda shared, task: namespace.inner(task[1]), "unit", unit_of=lambda a, k: a[1][0]
    )
    assert outer(None, (3, 5)) == 10
    (unit_name, _s, _e, unit_parent, unit_owner), (name, _s2, _e2, parent, owner) = tracer.spans
    assert (unit_name, unit_parent, unit_owner) == ("unit", -1, 3)
    assert (name, parent, owner) == ("inner", 0, 3)
    assert tracer.counts["calls"] == 10
    assert tracer.unit is None


def test_restore_puts_back_own_and_inherited_attributes():
    tracer = spans.Tracer()
    original = _Owner.__dict__["method"]
    tracer.patch(_Owner, "method", "own")
    tracer.patch(_Child, "method", "inherited")
    assert _Child().method(1) == 2
    assert [span[0] for span in tracer.spans] == ["inherited", "own"]
    tracer.restore()
    assert _Owner.__dict__["method"] is original
    assert "method" not in _Child.__dict__


def test_install_then_restore_leaves_every_entry_point_untouched():
    import repro.attack
    import repro.runtime.campaign
    import repro.runtime.executor
    import repro.sim.testbench
    import repro.tao.flow
    import repro.tao.metrics
    from repro.registry import REGISTRY
    from repro.runtime.results import CampaignResult
    from repro.sim.codegen import CodegenDesign
    from repro.sim.compiled import CompiledDesign
    from repro.sim.interpreter import Interpreter

    targets = [
        (repro.tao.flow, "compile_c"),
        (repro.tao.flow, "optimize_module"),
        (repro.tao.flow, "synthesize_function"),
        (repro.tao.flow.TaoFlow, "obfuscate"),
        (repro.tao.metrics, "validate_component"),
        (Interpreter, "run"),
        (CompiledDesign, "__init__"),
        (CodegenDesign, "__init__"),
        (repro.sim.testbench, "simulate_batch"),
        (repro.attack, "run_attack"),
        (repro.runtime.campaign, "plan_campaign"),
        (repro.runtime.executor, "execute_plan"),
        (repro.runtime.executor, "_execute_unit"),
        (CampaignResult, "write"),
    ]
    stage_classes = {type(REGISTRY.get("stage", n)) for n in REGISTRY.names("stage")}
    targets += [(cls, "apply") for cls in stage_classes]
    before = {(id(owner), attr): vars(owner)[attr] for owner, attr in targets}

    tracer = spans.Tracer()
    spans.install(tracer)
    patched = {(id(owner), attr) for owner, attr in targets if vars(owner)[attr] is not before[(id(owner), attr)]}
    tracer.restore()

    assert patched == set(before), "install() missed an entry point"
    for owner, attr in targets:
        assert vars(owner)[attr] is before[(id(owner), attr)], f"{owner}.{attr} not restored"
