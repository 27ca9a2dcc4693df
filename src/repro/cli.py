"""Command-line interface for the TAO reproduction.

Usage (after ``pip install -e .``)::

    python -m repro obfuscate design.c --top kernel -o out/
    python -m repro analyze design.c --top kernel
    python -m repro baseline design.c --top kernel -o out/
    python -m repro table1
    python -m repro figure6
    python -m repro validate --benchmark sobel --keys 20
    python -m repro campaign --benchmarks all --keys 20 --jobs 4 -o out.json
    python -m repro list [kind] [--json]

``obfuscate`` writes the obfuscated Verilog, the locking key, and a
JSON key manifest; ``analyze`` prints the key apportionment (Eq. 1)
without synthesizing; ``campaign`` runs the resumable validation
service over benchmark × parameter-config × key-scheme ×
resource-budget × pipeline units (repeat ``--config`` /
``--key-scheme`` / ``--budget`` / ``--pipeline`` to sweep each axis)
and emits the unified ``repro.campaign/5`` JSON schema with per-stage
``StageReport`` blocks, per-unit ``status``/``attempts``, and
structured per-attack blocks (consumed by
``repro.evaluation.report``).  The command is a thin veneer over
the stable :mod:`repro.api` (``plan_campaign`` → ``execute_plan``
under an ``ExecutionOptions`` bundle).  ``--pipeline`` takes a
FlowSpec preset name (``full``, ``constants``, ...) or a
comma-separated stage list (``constants,branches``); the default
``params`` derives stages from each config's parameter booleans.
``--cache-stats`` adds the in-process caches' hit/miss counts to the
JSON.  ``--engine`` (or ``$REPRO_SIM_ENGINE``) selects the FSMD
simulation engine: ``compiled`` (default — designs are lowered once and key
trials reuse the plan) or ``interp`` (the reference interpreter);
campaign JSON is byte-identical either way.  ``--checkpoint-dir``
persists one atomic record per completed unit and ``--resume`` skips
those units on a re-run (byte-identical final JSON);
``--unit-timeout`` / ``--max-retries`` bound hung or crashing units,
which degrade to explicit ``failed`` records instead of aborting the
sweep.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.rtl import emit_verilog, estimate_area, estimate_timing
from repro.tao import LockingKey, ObfuscationParameters, TaoFlow


def _add_flow_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", type=Path, help="C-subset source file")
    parser.add_argument("--top", required=True, help="top-level function name")
    parser.add_argument(
        "--constant-width", type=int, default=32, help="C: bits per constant"
    )
    parser.add_argument(
        "--block-bits", type=int, default=4, help="B_i: key bits per basic block"
    )
    parser.add_argument(
        "--no-constants", action="store_true", help="disable constant obfuscation"
    )
    parser.add_argument(
        "--no-branches", action="store_true", help="disable branch masking"
    )
    parser.add_argument(
        "--no-dfg", action="store_true", help="disable DFG variants"
    )
    parser.add_argument(
        "--pipeline",
        help="obfuscation pipeline: FlowSpec preset name or comma-"
        "separated stage list (overrides the --no-* stage toggles)",
    )
    parser.add_argument(
        "--key-scheme",
        default="replication",
        help="working-key management scheme (paper §3.4); "
        "see 'repro list key-scheme'",
    )
    parser.add_argument(
        "--locking-key",
        help="hex locking key (256-bit); random when omitted",
    )


def _parameters(args: argparse.Namespace) -> ObfuscationParameters:
    return ObfuscationParameters(
        constant_width=args.constant_width,
        block_bits=args.block_bits,
        obfuscate_constants=not args.no_constants,
        obfuscate_branches=not args.no_branches,
        obfuscate_dfg=not args.no_dfg,
    )


def _locking_key(args: argparse.Namespace) -> Optional[LockingKey]:
    if args.locking_key:
        return LockingKey(bits=int(args.locking_key, 16), width=256)
    return None


def _check_capabilities(kind: str, names: Sequence[str]) -> Optional[str]:
    """Resolve each name through the capability registry (plugins
    loaded); returns the uniform error message, or ``None`` if all
    resolve."""
    from repro.registry import REGISTRY, UnknownCapabilityError

    REGISTRY.load_plugins()
    for name in names:
        try:
            REGISTRY.get(kind, name)
        except UnknownCapabilityError as error:
            return str(error)
    return None


def _flow_pipeline(args: argparse.Namespace, params: ObfuscationParameters):
    """The FlowSpec for a flow command: ``--pipeline``, else the stage
    set the ``--no-*`` toggles select.  Returns ``None`` after printing
    a diagnostic for an invalid pipeline."""
    from repro.tao import FlowSpec, resolve_pipeline

    if not getattr(args, "pipeline", None):
        return FlowSpec.from_parameters(params)
    try:
        return resolve_pipeline(args.pipeline)
    except ValueError as error:
        print(f"--pipeline {args.pipeline}: {error}", file=sys.stderr)
        return None


def cmd_analyze(args: argparse.Namespace) -> int:
    source = args.source.read_text()
    params = _parameters(args)
    pipeline = _flow_pipeline(args, params)
    if pipeline is None:
        return 2
    flow = TaoFlow(params=params, pipeline=pipeline)
    module = flow.compile_front_end(source, args.source.stem)
    apportionment = flow.analyze(module, args.top)
    print(f"function        : {args.top}")
    print(f"basic blocks    : {apportionment.num_blocks}")
    print(f"cond. branches  : {apportionment.num_branches}")
    print(f"constants       : {apportionment.num_constants}")
    print(
        f"working key W   : {apportionment.working_key_bits} bits "
        f"(Eq. 1: {apportionment.num_branches} + "
        f"{apportionment.num_constants} x {args.constant_width} + "
        f"{apportionment.num_blocks} x {args.block_bits})"
    )
    return 0


def cmd_obfuscate(args: argparse.Namespace) -> int:
    source = args.source.read_text()
    params = _parameters(args)
    pipeline = _flow_pipeline(args, params)
    if pipeline is None:
        return 2
    scheme_error = _check_capabilities("key-scheme", [args.key_scheme])
    if scheme_error:
        print(scheme_error, file=sys.stderr)
        return 2
    flow = TaoFlow(params=params, key_scheme=args.key_scheme, pipeline=pipeline)
    component = flow.obfuscate(
        source, args.top, locking_key=_locking_key(args), name=args.source.stem
    )
    out_dir: Path = args.output
    out_dir.mkdir(parents=True, exist_ok=True)

    rtl_path = out_dir / f"{args.top}_obfuscated.v"
    rtl_path.write_text(emit_verilog(component.design))

    key_path = out_dir / f"{args.top}.lockingkey"
    key_path.write_text(f"{component.locking_key.bits:064x}\n")

    area = estimate_area(component.design)
    timing = estimate_timing(component.design)
    manifest = {
        "top": args.top,
        "working_key_bits": component.working_key_bits,
        "locking_key_bits": component.locking_key.width,
        "key_scheme": args.key_scheme,
        "pipeline": list(component.flow_spec.stages),
        "stages": [r.to_dict() for r in component.stage_reports],
        "obfuscated_constants": len(component.design.obfuscated_constants),
        "masked_branches": len(component.design.masked_branches),
        "variant_blocks": len(component.design.block_variants),
        "area_gates": round(area.total, 1),
        "frequency_mhz": round(timing.frequency_mhz, 1),
        "states": component.design.controller.n_states,
    }
    manifest_path = out_dir / f"{args.top}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

    print(f"wrote {rtl_path}")
    print(f"wrote {key_path}  (store in tamper-proof memory!)")
    print(f"wrote {manifest_path}")
    print(
        f"W = {component.working_key_bits} bits, "
        f"area {area.total:.0f} gates, {timing.frequency_mhz:.0f} MHz"
    )
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    source = args.source.read_text()
    params = _parameters(args)
    # The baseline synthesizes no obfuscation stages, but a typo'd
    # --pipeline must still be rejected (the flow flags are shared
    # across subcommands; silently ignoring an invalid one misleads).
    if _flow_pipeline(args, params) is None:
        return 2
    flow = TaoFlow(params=params)
    design = flow.synthesize_baseline(source, args.top, name=args.source.stem)
    out_dir: Path = args.output
    out_dir.mkdir(parents=True, exist_ok=True)
    rtl_path = out_dir / f"{args.top}_baseline.v"
    rtl_path.write_text(emit_verilog(design))
    area = estimate_area(design)
    timing = estimate_timing(design)
    print(f"wrote {rtl_path}")
    print(f"area {area.total:.0f} gates, {timing.frequency_mhz:.0f} MHz")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.evaluation import format_table1, generate_table1

    print(format_table1(generate_table1()))
    return 0


def cmd_figure6(args: argparse.Namespace) -> int:
    from repro.evaluation import format_figure6, generate_figure6

    print(format_figure6(generate_figure6()))
    return 0


def _campaign_size_error(keys: int, workloads: int = 1) -> Optional[str]:
    """Usage-level mirror of ``validate_component``'s anti-vacuity checks."""
    if keys < 2:
        return f"--keys {keys}: need the correct key plus at least one wrong key"
    if workloads < 1:
        return f"--workloads {workloads}: need at least one workload"
    return None


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.benchsuite import benchmark_names
    from repro.evaluation import format_validation, validate_benchmark
    from repro.evaluation.validation import ValidationSummary

    error = _campaign_size_error(args.keys)
    if error:
        print(error, file=sys.stderr)
        return 2
    known = benchmark_names()
    if args.benchmark not in known:
        print(f"unknown benchmark: {args.benchmark}", file=sys.stderr)
        print(f"available: {', '.join(known)}", file=sys.stderr)
        return 2
    report = validate_benchmark(args.benchmark, n_keys=args.keys)
    summary = ValidationSummary(reports={args.benchmark: report})
    print(format_validation(summary))
    return 0 if report.correct_key_ok and report.wrong_keys_all_corrupt else 1


def cmd_list(args: argparse.Namespace) -> int:
    from repro.registry import (
        REGISTRY,
        UnknownCapabilityError,
        describe_capabilities,
    )

    try:
        listing = describe_capabilities(args.kind)
    except UnknownCapabilityError as error:
        print(error, file=sys.stderr)
        return 2
    api_info = None
    if args.kind is None:
        # Full listings also advertise the stable import surface, so
        # plugin authors discover it from the same provenance command.
        from repro.api import __all__ as api_exports

        api_info = {"module": "repro.api", "exports": list(api_exports)}
    if args.json:
        payload: dict = dict(listing)
        if api_info is not None:
            payload["api"] = api_info
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    first = True
    for kind, entries in listing.items():
        if not first:
            print()
        first = False
        print(f"{kind} — {REGISTRY.label(kind)}s ({len(entries)}):")
        if not entries:
            print("  (none registered)")
            continue
        name_w = max(len(e["name"]) for e in entries)
        prov_w = max(len(e["provenance"]) for e in entries)
        for entry in entries:
            line = (
                f"  {entry['name']:<{name_w}}  "
                f"[{entry['provenance']:<{prov_w}}]"
            )
            if entry["description"]:
                line += f"  {entry['description']}"
            print(line)
    if api_info is not None:
        print()
        print(
            f"stable API: {api_info['module']} — "
            + ", ".join(api_info["exports"])
        )
    return 0


def _campaign_progress(event: str, info: dict) -> None:
    """Surface executor retry/failure telemetry on stderr as it happens
    (the summary line at the end reports the totals)."""
    labels = "/".join(str(part) for part in info.get("unit", ()))
    if event == "unit-retry":
        print(
            f"[retry] {labels}: attempt {info['attempt']} failed "
            f"({info['error']}); retrying in {info['backoff_seconds']:.1f}s",
            file=sys.stderr,
        )
    elif event == "unit-failed":
        print(
            f"[failed] {labels}: gave up after {info['attempts']} "
            f"attempt(s): {info['error']}",
            file=sys.stderr,
        )


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.api import ExecutionOptions, execute_plan, plan_campaign
    from repro.benchsuite import benchmark_names
    from repro.evaluation.report import format_campaign
    from repro.registry import REGISTRY
    from repro.runtime.campaign import (
        PIPELINE_FROM_PARAMS,
        CampaignSpec,
        resolve_jobs,
    )
    from repro.sim import resolve_engine
    from repro.tao.metrics import resolve_key_batch_lanes
    from repro.tao.pipeline import resolve_pipeline

    error = _campaign_size_error(args.keys, args.workloads)
    if error:
        print(error, file=sys.stderr)
        return 2
    try:
        # ExecutionOptions validates the execution flags; the resolvers
        # fail fast on a malformed $REPRO_SIM_ENGINE, $REPRO_JOBS or
        # $REPRO_KEY_BATCH_LANES instead of deep in the campaign engine.
        options = ExecutionOptions(
            jobs=resolve_jobs(args.jobs),
            engine=args.engine,
            collect_cache_stats=args.cache_stats,
            checkpoint_dir=(
                str(args.checkpoint_dir) if args.checkpoint_dir else None
            ),
            resume=args.resume,
            unit_timeout=args.unit_timeout,
            max_retries=args.max_retries,
            key_batch_lanes=args.key_batch_lanes,
            progress=_campaign_progress,
        )
        resolve_engine(options.engine)
        resolve_key_batch_lanes(options.key_batch_lanes)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    configs = tuple(dict.fromkeys(args.config or ["default"]))
    config_error = _check_capabilities("config", configs)
    if config_error:
        print(config_error, file=sys.stderr)
        return 2
    key_schemes = tuple(dict.fromkeys(args.key_scheme or ["replication"]))
    scheme_error = _check_capabilities("key-scheme", key_schemes)
    if scheme_error:
        print(scheme_error, file=sys.stderr)
        return 2
    pipelines = tuple(dict.fromkeys(args.pipeline or [PIPELINE_FROM_PARAMS]))
    for label in pipelines:
        if label == PIPELINE_FROM_PARAMS:
            continue
        try:
            resolve_pipeline(label)
        except ValueError as error:
            print(f"--pipeline {label}: {error}", file=sys.stderr)
            print(
                f"available: {PIPELINE_FROM_PARAMS} (config booleans), "
                f"presets {', '.join(REGISTRY.names('pipeline-preset'))}, "
                "or a comma-separated stage list",
                file=sys.stderr,
            )
            return 2
    budgets = tuple(dict.fromkeys(args.budget or ["default"]))
    budget_error = _check_capabilities("budget", budgets)
    if budget_error:
        print(budget_error, file=sys.stderr)
        return 2
    attacks = tuple(dict.fromkeys(args.attack or []))
    attack_error = _check_capabilities("attack", attacks)
    if attack_error:
        print(attack_error, file=sys.stderr)
        return 2
    known = benchmark_names()
    if args.benchmarks.strip().lower() == "all":
        selected = known
    else:
        selected = list(
            dict.fromkeys(
                name.strip() for name in args.benchmarks.split(",") if name.strip()
            )
        )
        unknown = [name for name in selected if name not in known]
        if unknown or not selected:
            problem = (
                f"unknown benchmark(s): {', '.join(unknown)}"
                if unknown
                else f"no benchmarks selected from {args.benchmarks!r}"
            )
            print(problem, file=sys.stderr)
            print(f"available: {', '.join(known)}", file=sys.stderr)
            return 2
    spec = CampaignSpec(
        benchmarks=tuple(selected),
        configs=configs,
        key_schemes=key_schemes,
        resource_budgets=budgets,
        pipelines=pipelines,
        n_keys=args.keys,
        n_workloads=args.workloads,
        seed=args.seed,
        attacks=attacks,
    )
    result = execute_plan(plan_campaign(spec), options)
    if args.output is not None:
        path = result.write(args.output, include_trials=not args.no_trials)
        print(f"wrote {path}")
    print(format_campaign(result))
    telemetry = result.execution or {}
    print(
        f"elapsed {result.elapsed_seconds:.1f}s ({options.jobs} worker(s)): "
        f"{telemetry.get('units_completed', len(result.units))}/"
        f"{telemetry.get('units_total', len(result.units))} units ok, "
        f"{telemetry.get('units_failed', 0)} failed, "
        f"{telemetry.get('retries', 0)} retried, "
        f"{telemetry.get('units_resumed', 0)} resumed"
    )
    passed = all(
        unit.ok
        and unit.report.correct_key_ok
        and unit.report.wrong_keys_all_corrupt
        for unit in result.units
    )
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TAO (DAC 2018) algorithm-level obfuscation reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="print key apportionment")
    _add_flow_arguments(analyze)
    analyze.set_defaults(func=cmd_analyze)

    obfuscate = subparsers.add_parser("obfuscate", help="run the TAO flow")
    _add_flow_arguments(obfuscate)
    obfuscate.add_argument("-o", "--output", type=Path, default=Path("out"))
    obfuscate.set_defaults(func=cmd_obfuscate)

    baseline = subparsers.add_parser("baseline", help="unobfuscated HLS only")
    _add_flow_arguments(baseline)
    baseline.add_argument("-o", "--output", type=Path, default=Path("out"))
    baseline.set_defaults(func=cmd_baseline)

    table1 = subparsers.add_parser("table1", help="regenerate Table 1")
    table1.set_defaults(func=cmd_table1)

    figure6 = subparsers.add_parser("figure6", help="regenerate Figure 6")
    figure6.set_defaults(func=cmd_figure6)

    validate = subparsers.add_parser("validate", help="key-validation campaign")
    validate.add_argument("--benchmark", default="sobel")
    validate.add_argument("--keys", type=int, default=10)
    validate.set_defaults(func=cmd_validate)

    list_cmd = subparsers.add_parser(
        "list",
        help="enumerate registered capabilities (benchmarks, stages, "
        "key schemes, budgets, engines, attacks, ...)",
    )
    list_cmd.add_argument(
        "kind",
        nargs="?",
        default=None,
        help="capability kind to list (default: every kind); one of: "
        "benchmark, stage, pipeline-preset, config, key-scheme, "
        "budget, engine, attack",
    )
    list_cmd.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (per-kind name/description/provenance)",
    )
    list_cmd.set_defaults(func=cmd_list)

    campaign = subparsers.add_parser(
        "campaign",
        help="parallel validation-campaign engine (JSON output)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "environment:\n"
            "  REPRO_JOBS        default worker count for --jobs 0/omitted\n"
            "  REPRO_SIM_ENGINE  default --engine\n"
            "                    (compiled | interp | codegen)\n"
            "  REPRO_KEY_BATCH_LANES\n"
            "                    default --key-batch-lanes (keys per\n"
            "                    simulation batch; throughput only,\n"
            "                    never results)\n"
            "  A malformed value in any of these exits with status 2.\n"
            "\n"
            "simulation engines (--engine / REPRO_SIM_ENGINE):\n"
            "  The execution stack is a three-tier seam (repro.sim):\n"
            "  'interp' is the reference interpreter, kept as the oracle\n"
            "  for differential tests.  'compiled' (default) lowers each\n"
            "  FSMD design once into a slot-indexed closure plan\n"
            "  (repro.sim.compiled): operand readers, opcode dispatch,\n"
            "  per-state op lists and controller transitions are resolved\n"
            "  at compile time, and the plan is specialized per key by a\n"
            "  cheap bind_key step — one compilation serves every key\n"
            "  trial of a campaign.  'codegen' (repro.sim.codegen) goes\n"
            "  one tier further: it exec()-generates straight-line Python\n"
            "  for the whole FSM and vectorizes registers/memories into\n"
            "  lane-indexed storage, so a single bind_keys(keys) call\n"
            "  specializes the plan for a whole key batch and the\n"
            "  generated sweep retires lanes independently (campaign\n"
            "  workers receive key batches, not single keys, on this\n"
            "  path).  Determinism contract: all three engines produce\n"
            "  field-identical simulation results, so campaign JSON is\n"
            "  byte-identical regardless of engine or batch layout (the\n"
            "  engine, like --jobs, never enters the serialized spec);\n"
            "  CI gates on scripts/check_engine_parity.py across all\n"
            "  three tiers.\n"
            "\n"
            "pipelines (--pipeline, repeatable -> fifth sweep axis):\n"
            "  The obfuscation flow is a pipeline of registered stages\n"
            "  (repro.tao.pipeline: constants, branches, dfg, roms;\n"
            "  @register_stage plugs in new ones).  --pipeline takes a\n"
            "  FlowSpec preset (full, constants, branches, dfg,\n"
            "  full-rom) or a comma-separated stage list such as\n"
            "  'constants,branches' (frontend stages before\n"
            "  post-schedule stages).  The default 'params' derives\n"
            "  the stage set from each --config's parameter booleans\n"
            "  (the legacy behaviour); any other pipeline overrides\n"
            "  the config's stage toggles, and key apportionment\n"
            "  follows the stages that actually run.  Each unit's JSON\n"
            "  records its pipeline label and per-stage StageReport\n"
            "  blocks (ops touched, key bits consumed) in the\n"
            "  repro.campaign/5 schema.\n"
            "\n"
            "resumable execution (--checkpoint-dir / --resume /\n"
            "--unit-timeout / --max-retries):\n"
            "  The campaign engine is a plan/execute service\n"
            "  (repro.api.plan_campaign -> execute_plan): the plan\n"
            "  enumerates units with deterministic content-addressed\n"
            "  unit ids, and the executor runs each to an explicit\n"
            "  terminal state.  --checkpoint-dir writes one atomic\n"
            "  JSON record per completed unit, namespaced by a spec\n"
            "  fingerprint (spec + schema version; execution knobs\n"
            "  like --jobs/--engine are excluded), so a changed spec\n"
            "  can never resume stale units.  --resume skips the\n"
            "  checkpointed units of the same spec and reassembles a\n"
            "  final JSON byte-identical to an uninterrupted run —\n"
            "  kill a campaign (even SIGKILL) and re-run with --resume\n"
            "  to keep every completed unit; CI gates this with\n"
            "  scripts/check_resume.py.  --unit-timeout SECONDS kills\n"
            "  a unit attempt that hangs (the worker's whole process\n"
            "  group, including nested key workers, is replaced);\n"
            "  crashed or timed-out attempts are retried up to\n"
            "  --max-retries times (default 1) with exponential\n"
            "  backoff.  A unit that exhausts its attempts is recorded\n"
            "  as status='failed' (with its error and attempt count,\n"
            "  schema v4) and the rest of the campaign completes; the\n"
            "  exit code is then non-zero and failed units re-execute\n"
            "  on the next --resume.  Progress telemetry (units done/\n"
            "  failed/retried/resumed, wall time) prints on completion\n"
            "  and retries/failures stream to stderr as they happen.\n"
            "\n"
            "plugins and the capability registry:\n"
            "  Every sweepable axis resolves through one typed registry\n"
            "  (repro.registry.CapabilityRegistry): benchmarks, stages,\n"
            "  pipeline presets, configs, key schemes, budgets, engines\n"
            "  and attacks.  'repro list [kind] [--json]' enumerates the\n"
            "  registered entries with description and provenance\n"
            "  (builtin vs plugin:<name>).  Third-party packages extend\n"
            "  any axis without touching this repository: expose an\n"
            "  entry point in group 'repro.plugins' resolving to a\n"
            "  callable(registry) (or a module whose import registers)\n"
            "  and call registry.register(kind, name, value,\n"
            "  description=...).  Plugins load lazily, exactly once per\n"
            "  process, only at name-resolution time; a broken plugin\n"
            "  degrades to a RuntimeWarning and the campaign keeps\n"
            "  running on the remaining capabilities.  Registered\n"
            "  plugin capabilities sweep as campaign axes (--config /\n"
            "  --key-scheme / --budget / --pipeline / --attack /\n"
            "  --engine / --benchmarks) and render in reports like\n"
            "  builtins.  Registration order never enters seeds or\n"
            "  cache keys, so installing a plugin perturbs no existing\n"
            "  campaign bytes.\n"
            "\n"
            "attacks (--attack, repeatable):\n"
            "  Registered attacks (repro.attack; 'repro list attack')\n"
            "  run against every unit's obfuscated component after key\n"
            "  validation, each on its own derived seed stream, and\n"
            "  embed an 'attacks' block in the unit's JSON.  Omitting\n"
            "  --attack keeps the document byte-identical to\n"
            "  attack-free output.  Every attack — builtin or plugin —\n"
            "  serializes one validated shape (schema v5):\n"
            "    {\"name\": ..., \"applicable\": true|false,\n"
            "     \"cost\": {\"oracle_queries\": N,\n"
            "              \"simulated_trials\": N, \"iterations\": N},\n"
            "     \"outcome\": {...attack-specific...},\n"
            "     \"reason\": \"...\"}   (only when inapplicable)\n"
            "  Cost model: 'oracle_queries' counts distinct workloads\n"
            "  sent to the activated oracle chip (the golden model's\n"
            "  outputs ARE its responses) — the scarce resource an\n"
            "  oracle-guided adversary spends; 'simulated_trials'\n"
            "  counts netlist simulations of the attacker's own fab'd\n"
            "  copies (cheap, parallel, lane-batched);  'iterations'\n"
            "  counts outer-loop rounds.  All three are deterministic\n"
            "  — wall-clock never enters the JSON.  The key-recovery\n"
            "  attackers ('oracle-guided' distinguishing-input\n"
            "  pruning, 'hill-climb' Hamming descent) and the\n"
            "  oracle-free 'resistance-curve' sweep live in\n"
            "  repro.attack next to the legacy surface analyses;\n"
            "  'oracle-guided' additionally reports its keys-\n"
            "  eliminated-per-query curve.  Results render as the\n"
            "  attack-cost table in 'repro report' / format_campaign.\n"
        ),
    )
    campaign.add_argument(
        "--benchmarks",
        default="all",
        help='comma-separated benchmark names, or "all"',
    )
    campaign.add_argument(
        "--config",
        action="append",
        help="parameter config(s) to sweep; see 'repro list config' "
        "(repeatable; default: default)",
    )
    campaign.add_argument("--keys", type=int, default=20)
    campaign.add_argument("--workloads", type=int, default=1)
    campaign.add_argument("--seed", type=int, default=7)
    campaign.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes; 0 or omitted = auto "
        "(REPRO_JOBS, else cpu count, max 8)",
    )
    campaign.add_argument(
        "--key-scheme",
        action="append",
        help="key-management scheme(s) to sweep (paper §3.4; see 'repro "
        "list key-scheme'; repeatable; default: replication)",
    )
    campaign.add_argument(
        "--budget",
        action="append",
        help="resource-budget preset(s) to sweep; see 'repro list "
        "budget' (repeatable; default: default; incl. mul-tight and "
        "mem-tight)",
    )
    campaign.add_argument(
        "--pipeline",
        action="append",
        help="obfuscation pipeline(s) to sweep: FlowSpec preset name or "
        "comma-separated stage list (repeatable; default: params = "
        "stages from each config's parameter booleans; see the epilog)",
    )
    campaign.add_argument(
        "--attack",
        action="append",
        help="registered attack(s) to run against every unit's component "
        "(repeatable; see 'repro list attack'; results embed in each "
        "unit's JSON without perturbing seeds or keys)",
    )
    campaign.add_argument(
        "--engine",
        default=None,
        help="FSMD simulation engine (default: $REPRO_SIM_ENGINE, else "
        "compiled; see 'repro list engine'); results are "
        "engine-independent — see the epilog",
    )
    campaign.add_argument("-o", "--output", type=Path, default=None)
    campaign.add_argument(
        "--no-trials",
        action="store_true",
        help="omit per-key trial records from the JSON output",
    )
    campaign.add_argument(
        "--cache-stats",
        action="store_true",
        help="include summed golden/front-end cache hit and miss counts "
        "in the JSON; counts every trial including nested key workers "
        "(the hit/miss split is process-layout-dependent)",
    )
    campaign.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="write one atomic JSON record per completed unit here "
        "(namespaced by spec fingerprint); enables --resume",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="skip units already checkpointed under --checkpoint-dir for "
        "this exact spec; the final JSON is byte-identical to an "
        "uninterrupted run",
    )
    campaign.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill a unit attempt (and its worker's process group) after "
        "this many wall seconds; retried per --max-retries",
    )
    campaign.add_argument(
        "--key-batch-lanes",
        type=int,
        default=None,
        metavar="N",
        help="max keys per codegen simulation batch (default: "
        "$REPRO_KEY_BATCH_LANES, else 64); a pure throughput knob — "
        "results are byte-identical for every lane setting",
    )
    campaign.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="re-attempts per unit after a crash/timeout/error (default: "
        "1); an exhausted unit is recorded as status='failed' without "
        "aborting the campaign",
    )
    campaign.set_defaults(func=cmd_campaign)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
