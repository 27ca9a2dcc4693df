"""Tests for the resumable campaign service (plan/execute split):

* ``plan_campaign`` is pure and deterministic: content-addressed unit
  ids and a fingerprint over the serialized spec;
* ``CheckpointStore`` publishes one atomic JSON record per completed
  unit, namespaced by spec fingerprint, and degrades unreadable or
  mismatched records to "not checkpointed";
* ``--resume`` skips completed units and the final document is
  byte-identical to an uninterrupted run — including after a hard
  SIGKILL mid-campaign (the acceptance gate);
* per-unit bounded retry with backoff: transient faults succeed on a
  later attempt, exhausted units seal as explicit ``failed`` records
  while the rest of the campaign completes;
* per-unit timeouts kill the hung worker's process group and charge
  an attempt;
* ``run_campaign(spec)`` runs with default options and warns nothing.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.runtime.executor as executor_mod
from repro.runtime.campaign import CampaignSpec, plan_campaign, run_campaign
from repro.runtime.executor import ExecutionOptions, execute_plan
from repro.runtime.checkpoint import (
    CheckpointStore,
    spec_fingerprint,
    unit_identity,
)
from repro.runtime.results import SCHEMA, CampaignResult


SPEC = dict(benchmarks=("sobel", "adpcm"), n_keys=2, seed=11)


def _options(**kwargs):
    return ExecutionOptions(**kwargs)


# ----------------------------------------------------------------------
# plan_campaign
# ----------------------------------------------------------------------
class TestPlanCampaign:
    def test_plan_is_deterministic(self):
        a = plan_campaign(CampaignSpec(**SPEC))
        b = plan_campaign(CampaignSpec(**SPEC))
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint == spec_fingerprint(a.spec_dict(), SCHEMA)
        assert [u.unit_id for u in a.units] == [u.unit_id for u in b.units]
        assert [u.labels() for u in a.units] == [u.labels() for u in b.units]

    def test_unit_ids_content_addressed(self):
        plan = plan_campaign(CampaignSpec(**SPEC))
        ids = [u.unit_id for u in plan.units]
        assert len(set(ids)) == len(ids)
        for unit in plan.units:
            assert unit.unit_id == unit_identity(*unit.labels(), unit.seed)
        reseeded = plan_campaign(CampaignSpec(**{**SPEC, "seed": 12}))
        assert {u.unit_id for u in reseeded.units}.isdisjoint(ids)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="no units"):
            plan_campaign(CampaignSpec(benchmarks=()))

    @pytest.mark.parametrize(
        "field, flag, listed",
        [
            ("configs", "--config", "registered campaign configs"),
            ("key_schemes", "--key-scheme", "registered key-management schemes"),
            ("resource_budgets", "--budget", "registered resource budgets"),
            ("attacks", "--attack", "registered attacks"),
        ],
    )
    def test_unknown_axis_name_fails_before_any_unit_runs(
        self, field, flag, listed, monkeypatch, capsys
    ):
        """Every axis name resolves when the plan is made: an unknown one
        raises the registry's ``ValueError`` before any unit runs, and
        ``repro campaign`` exits 2 with its message."""
        from repro.cli import main

        def no_unit(*args):
            raise AssertionError("a unit ran")

        monkeypatch.setattr(executor_mod, "_execute_unit", no_unit)
        spec = CampaignSpec(benchmarks=("sobel",), n_keys=2, **{field: ("bogus",)})
        with pytest.raises(ValueError, match=f"'bogus'.*{listed}"):
            plan_campaign(spec)
        with pytest.raises(ValueError, match=listed):
            run_campaign(spec)
        argv = ["campaign", "--benchmarks", "sobel", "--keys", "2", flag, "bogus"]
        assert main(argv) == 2
        assert listed in capsys.readouterr().err


# ----------------------------------------------------------------------
# ExecutionOptions
# ----------------------------------------------------------------------
class TestExecutionOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": -1},
            {"unit_timeout": 0.0},
            {"unit_timeout": -2.5},
            {"max_retries": -1},
            {"retry_backoff": -0.1},
            {"resume": True},  # resume requires checkpoint_dir
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionOptions(**kwargs)

    def test_defaults_are_valid(self):
        options = ExecutionOptions()
        assert options.jobs == 1
        assert options.max_retries == 1
        assert options.unit_timeout is None


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp1234")
        unit = {"benchmark": "sobel", "status": "ok", "attempts": 1}
        path = store.store("abcd", unit)
        assert path.exists()
        assert store.load("abcd") == unit
        assert store.completed_ids() == ["abcd"]
        assert len(store) == 1 and list(store) == ["abcd"]

    def test_corrupt_record_is_not_checkpointed(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp1234")
        store.store("abcd", {"benchmark": "sobel"})
        record = store.directory / "abcd.json"
        record.write_text("{not json")
        assert store.load("abcd") is None
        assert store.completed_ids() == []

    def test_mismatched_record_rejected(self, tmp_path):
        # A record copied under the wrong unit id must not resume as
        # that unit.
        store = CheckpointStore(tmp_path, "fp1234")
        source = store.store("abcd", {"benchmark": "sobel"})
        (store.directory / "beef.json").write_text(source.read_text())
        assert store.load("beef") is None

    def test_fingerprints_are_disjoint_namespaces(self, tmp_path):
        a = CheckpointStore(tmp_path, "fp-a")
        b = CheckpointStore(tmp_path, "fp-b")
        a.store("abcd", {"benchmark": "sobel"})
        assert b.load("abcd") is None
        assert b.completed_ids() == []

    def test_manifest_is_idempotent(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp1234")
        spec_dict = CampaignSpec(**SPEC).to_dict()
        first = store.write_manifest(spec_dict)
        second = store.write_manifest(spec_dict)
        assert first == second
        assert json.loads(first.read_text())["spec"] == spec_dict


# ----------------------------------------------------------------------
# Checkpoint + resume byte identity
# ----------------------------------------------------------------------
class TestResume:
    def test_resume_is_byte_identical(self, tmp_path):
        plan = plan_campaign(CampaignSpec(**SPEC))
        clean = execute_plan(plan, _options()).to_json()
        ckpt = tmp_path / "ckpt"
        first = execute_plan(
            plan, _options(checkpoint_dir=str(ckpt))
        ).to_json()
        resumed = execute_plan(
            plan, _options(checkpoint_dir=str(ckpt), resume=True)
        )
        assert first == clean
        assert resumed.to_json() == clean
        assert resumed.execution["units_resumed"] == len(plan.units)
        assert resumed.execution["units_completed"] == len(plan.units)

    def test_partial_resume_reruns_missing_units(self, tmp_path):
        plan = plan_campaign(CampaignSpec(**SPEC))
        ckpt = tmp_path / "ckpt"
        clean = execute_plan(
            plan, _options(checkpoint_dir=str(ckpt))
        ).to_json()
        store = CheckpointStore(ckpt, plan.fingerprint)
        victim = plan.units[0].unit_id
        (store.directory / f"{victim}.json").unlink()
        events = []
        resumed = execute_plan(
            plan,
            _options(
                checkpoint_dir=str(ckpt),
                resume=True,
                progress=lambda event, info: events.append(event),
            ),
        )
        assert resumed.to_json() == clean
        assert resumed.execution["units_resumed"] == len(plan.units) - 1
        assert events.count("unit-resumed") == len(plan.units) - 1
        assert events.count("unit-ok") == 1
        # the re-executed unit was re-checkpointed
        assert victim in store.completed_ids()


# ----------------------------------------------------------------------
# Retry / failure / timeout
# ----------------------------------------------------------------------
def _flaky_execute(real, fail_benchmark, times, counter):
    """Wrap ``_execute_unit``: raise the first ``times`` calls for one
    benchmark, then delegate to the real body."""

    def wrapper(shared, task):
        if task[1] == fail_benchmark:
            counter["calls"] += 1
            if counter["calls"] <= times:
                raise RuntimeError(f"injected fault #{counter['calls']}")
        return real(shared, task)

    return wrapper


class TestRetry:
    def test_transient_fault_succeeds_on_retry(self, monkeypatch):
        plan = plan_campaign(CampaignSpec(**SPEC))
        clean = execute_plan(plan, _options())
        counter = {"calls": 0}
        monkeypatch.setattr(
            executor_mod,
            "_execute_unit",
            _flaky_execute(executor_mod._execute_unit, "sobel", 1, counter),
        )
        events = []
        result = execute_plan(
            plan,
            _options(
                max_retries=1,
                retry_backoff=0.0,
                progress=lambda event, info: events.append((event, info)),
            ),
        )
        unit = result.unit("sobel")
        assert unit.status == "ok" and unit.attempts == 2
        assert result.execution["retries"] == 1
        assert result.execution["units_failed"] == 0
        retry_events = [e for e in events if e[0] == "unit-retry"]
        assert len(retry_events) == 1
        assert "injected fault" in retry_events[0][1]["error"]
        # Only the attempt count differs from a clean run.
        expected = json.loads(clean.to_json())
        for entry in expected["units"]:
            if entry["benchmark"] == "sobel":
                entry["attempts"] = 2
        assert json.loads(result.to_json()) == expected

    def test_exhausted_retries_seal_failed_unit(self, monkeypatch):
        plan = plan_campaign(CampaignSpec(**SPEC))
        counter = {"calls": 0}
        monkeypatch.setattr(
            executor_mod,
            "_execute_unit",
            _flaky_execute(executor_mod._execute_unit, "sobel", 99, counter),
        )
        events = []
        result = execute_plan(
            plan,
            _options(
                max_retries=1,
                retry_backoff=0.0,
                progress=lambda event, info: events.append(event),
            ),
        )
        failed = result.unit("sobel")
        assert failed.status == "failed"
        assert failed.attempts == 2
        assert failed.report is None and not failed.ok
        assert "injected fault" in failed.error
        # the sibling unit still completed
        assert result.unit("adpcm").ok
        assert result.execution["units_failed"] == 1
        assert events.count("unit-failed") == 1
        # the document round-trips and renders
        clone = CampaignResult.from_json(result.to_json())
        assert clone.to_json() == result.to_json()
        from repro.evaluation.report import format_campaign

        rendered = format_campaign(result)
        assert "FAILED" in rendered
        assert "1 unit(s) failed" in rendered

    def test_failed_units_rerun_on_resume(self, tmp_path, monkeypatch):
        plan = plan_campaign(CampaignSpec(**SPEC))
        clean = execute_plan(plan, _options()).to_json()
        ckpt = tmp_path / "ckpt"
        counter = {"calls": 0}
        monkeypatch.setattr(
            executor_mod,
            "_execute_unit",
            _flaky_execute(executor_mod._execute_unit, "sobel", 99, counter),
        )
        broken = execute_plan(
            plan,
            _options(checkpoint_dir=str(ckpt), max_retries=0),
        )
        assert broken.unit("sobel").status == "failed"
        store = CheckpointStore(ckpt, plan.fingerprint)
        # only the successful unit was checkpointed
        assert store.completed_ids() == [plan.units[1].unit_id]
        monkeypatch.undo()
        healed = execute_plan(
            plan, _options(checkpoint_dir=str(ckpt), resume=True)
        )
        assert healed.to_json() == clean
        assert healed.execution["units_resumed"] == 1

    def test_pool_timeout_kills_hung_unit(self, monkeypatch):
        plan = plan_campaign(CampaignSpec(**SPEC))

        real = executor_mod._execute_unit

        def hang_sobel(shared, task):
            if task[1] == "sobel":
                time.sleep(60)
            return real(shared, task)

        monkeypatch.setattr(executor_mod, "_execute_unit", hang_sobel)
        started = time.monotonic()
        result = execute_plan(
            plan, _options(jobs=2, unit_timeout=1.0, max_retries=0)
        )
        elapsed = time.monotonic() - started
        assert elapsed < 30  # the hung worker did not run to sleep's end
        failed = result.unit("sobel")
        assert failed.status == "failed"
        assert "unit-timeout" in failed.error
        assert result.unit("adpcm").ok


# ----------------------------------------------------------------------
# Attack determinism (schema v5: attacks ride the campaign axis)
# ----------------------------------------------------------------------
TINY_SOURCE = (
    "int tiny(int a, int b) "
    "{ int x = a * 3 + b; int y = x * x - a; return y + 7; }"
)


def _tiny_testbenches(seed: int = 0, count: int = 1):
    import random

    from repro.sim import Testbench

    rng = random.Random(seed)
    return [
        Testbench(args=[rng.randint(-8, 8), rng.randint(-8, 8)])
        for _ in range(count)
    ]


@pytest.fixture
def tiny_benchmark():
    """Register a one-block kernel so cross-engine attack campaigns
    (including the slow reference interpreter) stay fast; fork-start
    workers inherit the registration."""
    from repro.benchsuite.registry import Benchmark, register
    from repro.registry import REGISTRY

    state = REGISTRY.snapshot()
    register(
        Benchmark(
            name="tinyattack",
            source=TINY_SOURCE,
            top="tiny",
            description="one-block kernel for attack determinism tests",
            make_testbenches=_tiny_testbenches,
        )
    )
    yield "tinyattack"
    REGISTRY.restore(state)


class TestAttackDeterminism:
    """Same attack + seed => byte-identical campaign JSON across
    engines, process layouts, and checkpoint/resume (the design block
    rides along)."""

    ATTACKS = ("oracle-guided", "hill-climb", "resistance-curve")

    def _spec(self, benchmark):
        return CampaignSpec(
            benchmarks=(benchmark,),
            n_keys=2,
            seed=11,
            attacks=self.ATTACKS,
            design_metrics=True,
        )

    def test_engines_layouts_and_resume_byte_identical(
        self, tiny_benchmark, tmp_path
    ):
        plan = plan_campaign(self._spec(tiny_benchmark))
        baseline = execute_plan(
            plan, _options(jobs=1, engine="compiled")
        ).to_json()
        for engine in ("interp", "codegen"):
            assert (
                execute_plan(plan, _options(jobs=1, engine=engine)).to_json()
                == baseline
            ), f"--engine {engine} perturbed attack bytes"
        assert execute_plan(plan, _options(jobs=2)).to_json() == baseline
        ckpt = tmp_path / "ckpt"
        execute_plan(plan, _options(jobs=1, checkpoint_dir=str(ckpt)))
        resumed = execute_plan(
            plan, _options(jobs=1, checkpoint_dir=str(ckpt), resume=True)
        )
        assert resumed.to_json() == baseline

    def test_attack_blocks_have_contract_shape(self, tiny_benchmark):
        result = execute_plan(
            plan_campaign(self._spec(tiny_benchmark)), _options(jobs=1)
        )
        doc = json.loads(result.to_json())
        assert doc["schema"] == SCHEMA
        blocks = doc["units"][0]["attacks"]
        assert set(blocks) == set(self.ATTACKS)
        for name, block in blocks.items():
            assert block["name"] == name
            assert isinstance(block["applicable"], bool)
            assert set(block["cost"]) == {
                "oracle_queries", "simulated_trials", "iterations",
            }
            assert isinstance(block["outcome"], dict)


# ----------------------------------------------------------------------
# Hard-kill + resume (the acceptance gate, in-tree)
# ----------------------------------------------------------------------
class TestKillResume:
    def _campaign_argv(self, out, ckpt, resume=False):
        # --attack rides along so the kill/resume byte-identity gate
        # also covers the key-recovery attack blocks (schema v5).
        argv = [
            sys.executable, "-m", "repro.cli", "campaign",
            "--benchmarks", "sobel,adpcm", "--keys", "2", "--seed", "11",
            "--jobs", "1", "--checkpoint-dir", str(ckpt), "-o", str(out),
            "--attack", "oracle-guided", "--attack", "hill-climb",
        ]
        if resume:
            argv.append("--resume")
        return argv

    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        clean_out = tmp_path / "clean.json"
        subprocess.run(
            self._campaign_argv(clean_out, tmp_path / "ckpt-clean"),
            env=env, check=True, capture_output=True,
        )

        ckpt = tmp_path / "ckpt"
        killed_out = tmp_path / "killed.json"
        proc = subprocess.Popen(
            self._campaign_argv(killed_out, ckpt),
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                records = [
                    p for p in ckpt.glob("*/*.json") if p.name != "spec.json"
                ]
                if records:
                    break
                if proc.poll() is not None:
                    pytest.fail("campaign finished before it could be killed")
                time.sleep(0.02)
            else:
                pytest.fail("no checkpoint record appeared within 120s")
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode != 0
        assert not killed_out.exists()  # died before publishing

        resumed_out = tmp_path / "resumed.json"
        done = subprocess.run(
            self._campaign_argv(resumed_out, ckpt, resume=True),
            env=env, check=True, capture_output=True, text=True,
        )
        assert resumed_out.read_bytes() == clean_out.read_bytes()
        assert "resumed" in done.stdout
        # The acceptance invocation: --attack oracle-guided --attack
        # hill-climb on sobel emits per-unit attack-cost blocks.
        doc = json.loads(clean_out.read_text())
        sobel = next(u for u in doc["units"] if u["benchmark"] == "sobel")
        assert set(sobel["attacks"]) == {"oracle-guided", "hill-climb"}
        for block in sobel["attacks"].values():
            assert set(block["cost"]) == {
                "oracle_queries", "simulated_trials", "iterations",
            }


class TestProcessFootprint:
    def test_serial_campaign_loads_no_process_pool(self, tmp_path):
        """A ``--jobs 1`` campaign in a fresh process imports neither
        :mod:`multiprocessing` nor :mod:`concurrent.futures`: only the
        pool paths do.  Nor does it import :mod:`importlib.metadata`:
        capabilities are the repo's own, so nothing scans the installed
        distributions."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "main(['campaign', '--benchmarks', 'sobel', '--keys', '2',"
            " '--jobs', '1', '-o', sys.argv[1]])\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')"
            " or m.startswith('importlib.metadata')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "campaign.json")],
            env=env, check=True, capture_output=True, text=True,
        )
        assert done.stdout.splitlines()[-1] == "[]"

    def test_exit_freeze_is_registered_once(self, monkeypatch):
        """``main`` registers :func:`gc.freeze` to run at exit once per
        process, however often it is called."""
        import atexit
        import gc

        from repro.cli import main

        registered = []

        def unregister(func):
            registered[:] = [f for f in registered if f is not func]

        monkeypatch.setattr(atexit, "register", registered.append)
        monkeypatch.setattr(atexit, "unregister", unregister)
        for _ in range(2):
            assert main(["list", "engine"]) == 0
        assert registered == [gc.freeze]


# ----------------------------------------------------------------------
# run_campaign shorthand
# ----------------------------------------------------------------------
class TestLegacyWrapper:
    def test_plain_spec_does_not_warn(self):
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            result = run_campaign(CampaignSpec(benchmarks=("sobel",), n_keys=2))
        assert result.units[0].ok


class TestCliValidation:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--resume"],  # requires --checkpoint-dir
            ["--unit-timeout", "0"],
            ["--unit-timeout", "-1"],
            ["--max-retries", "-1"],
            ["--jobs", "-1"],
            ["--engine", "bogus"],
        ],
    )
    def test_rejects_invalid_service_flags(self, extra, capsys):
        from repro.cli import main

        argv = ["campaign", "--benchmarks", "sobel", "--keys", "2"] + extra
        assert main(argv) == 2
        assert capsys.readouterr().err.strip()

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_JOBS", "-3"),
            ("REPRO_JOBS", "abc"),
        ],
    )
    def test_rejects_malformed_env(self, variable, value, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(variable, value)
        argv = ["campaign", "--benchmarks", "sobel", "--keys", "2"]
        assert main(argv) == 2
        assert variable in capsys.readouterr().err
