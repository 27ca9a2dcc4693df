"""Workload matrix, seed table and output checks of the campaign benchmark.

Why each workload exists is in README.md; in short, ``sweep`` is
build-heavy (twelve cells per kernel, two trials each), ``attack`` is
trial-throughput-heavy (one design, about 160 trials, most of them
wrong keys run to the cycle cap) and ``codegen`` is ``attack`` on the
codegen engine, the only workload that emits engine source.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "reference_digests.json"

#: Per digest group, the campaign seeds the benchmark's ``--seed``
#: picks from (``seed % len``).  Each has a committed digest in
#: reference_digests.json, so every run checks its output bytes.  The
#: seeds of a group cost the same within run-to-run noise (README.md).
CAMPAIGN_SEEDS = {"sweep": (6, 29, 40), "attack": (4, 6, 38, 40)}

#: Stages of the paper's full pipeline: on a cell that ran all of them
#: the §3.1 asymmetry must hold (oracle-guided recovers nothing).
FULL_STAGES = frozenset({"constants", "branches", "dfg"})

_ATTACK_ARGS = (
    "--benchmarks", "viterbi", "--keys", "4",
    "--attack", "oracle-guided", "--attack", "resistance-curve", "--attack", "hill-climb",
)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    #: Workloads whose documents must be byte-identical share a group.
    digest_group: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            (
                "--benchmarks", "gsm,sobel,viterbi",
                "--config", "default", "--config", "dfg-only",
                "--config", "constants-only", "--config", "branches-only",
                "--budget", "default", "--budget", "tight", "--budget", "mem-tight",
                "--keys", "2",
            ),
            "sweep",
        ),
        Workload("attack", _ATTACK_ARGS, "attack"),
        Workload("codegen", _ATTACK_ARGS + ("--engine", "codegen"), "attack"),
    )
}


def campaign_seed(workload: Workload, seed: int) -> int:
    table = CAMPAIGN_SEEDS[workload.digest_group]
    return table[seed % len(table)]


def campaign_argv(workload: Workload, seed: int, output: Path) -> list[str]:
    """Arguments of one fresh-process ``repro campaign --jobs 1`` run."""
    return [
        "campaign", *workload.args,
        "--seed", str(campaign_seed(workload, seed)), "--jobs", "1", "-o", str(output),
    ]


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, dict[str, str]]:
    return json.loads(path.read_text())


def document_problems(
    workload: Workload,
    seed: int,
    document: bytes,
    digests: dict[str, dict[str, str]],
) -> list[str]:
    """Everything wrong with one campaign document; empty when correct.

    Checks the SHA-256 against the committed reference for the
    workload's digest group and campaign seed, then the document's own
    claims: every unit ok, the correct key reproduces the golden
    outputs, every wrong key corrupts them, and the §3.1 asymmetry on
    every full-pipeline cell that ran ``oracle-guided``.
    """
    problems = []
    key = str(campaign_seed(workload, seed))
    expected = digests.get(workload.digest_group, {}).get(key)
    actual = hashlib.sha256(document).hexdigest()
    if expected is None:
        problems.append(f"no reference digest for {workload.digest_group}/seed {key}")
    elif actual != expected:
        problems.append(
            f"digest {actual[:16]} != reference {expected[:16]} "
            f"({workload.digest_group}/seed {key})"
        )
    data = json.loads(document)
    problems.extend(claim_problems(data, "oracle-guided" in workload.args))
    return problems


def claim_problems(data: dict, expects_oracle: bool) -> list[str]:
    """The paper-level claims a campaign document must make."""
    problems = []
    oracle_cells = 0
    for unit in data["units"]:
        cell = f"{unit['benchmark']}/{unit['config']}/{unit['budget']}"
        if unit.get("status") != "ok":
            problems.append(f"{cell}: status {unit.get('status')}")
            continue
        report = unit["report"]
        if report["correct_key_ok"] is not True:
            problems.append(f"{cell}: correct key does not reproduce the golden outputs")
        if report["wrong_keys_all_corrupt"] is not True:
            problems.append(f"{cell}: a wrong key reproduced the golden outputs")
        stages = {stage["stage"] for stage in unit.get("stages", [])}
        oracle = unit.get("attacks", {}).get("oracle-guided")
        if oracle is None or not FULL_STAGES <= stages:
            continue
        oracle_cells += 1
        outcome = oracle["outcome"]
        if (
            outcome.get("stall_reason") != "population-refuted"
            or outcome.get("pool_pruned_fraction") != 0
        ):
            problems.append(
                f"{cell}: oracle-guided on the full pipeline ended "
                f"{outcome.get('stall_reason')} with pool_pruned_fraction "
                f"{outcome.get('pool_pruned_fraction')}, not population-refuted with 0"
            )
    if expects_oracle and oracle_cells == 0:
        problems.append("no full-pipeline cell ran oracle-guided: the §3.1 check is vacuous")
    return problems
