"""The digest check and the paper-level claims on campaign documents."""

import hashlib
import json

import workloads


def _unit(stall="population-refuted", pruned=0.0, status="ok", stages=("constants", "branches", "dfg")):
    return {
        "benchmark": "viterbi",
        "config": "default",
        "budget": "default",
        "status": status,
        "stages": [{"stage": name} for name in stages],
        "report": {"correct_key_ok": True, "wrong_keys_all_corrupt": True},
        "attacks": {
            "oracle-guided": {
                "outcome": {"stall_reason": stall, "pool_pruned_fraction": pruned}
            }
        },
    }


def _document(*units):
    return json.dumps({"units": list(units)}, sort_keys=True).encode()


def _digests_for(workload, seed, document):
    key = str(workloads.campaign_seed(workload, seed))
    return {workload.digest_group: {key: hashlib.sha256(document).hexdigest()}}


def test_matching_digest_and_claims_pass():
    workload = workloads.WORKLOADS["attack"]
    document = _document(_unit())
    digests = _digests_for(workload, 5, document)
    assert workloads.document_problems(workload, 5, document, digests) == []


def test_digest_mismatch_is_reported():
    workload = workloads.WORKLOADS["attack"]
    document = _document(_unit())
    digests = _digests_for(workload, 5, document + b" ")
    problems = workloads.document_problems(workload, 5, document, digests)
    assert len(problems) == 1 and "digest" in problems[0]


def test_missing_reference_is_reported():
    workload = workloads.WORKLOADS["sweep"]
    problems = workloads.document_problems(workload, 0, _document(_unit()), {})
    first = workloads.CAMPAIGN_SEEDS["sweep"][0]
    assert problems == [f"no reference digest for sweep/seed {first}"]


def test_flipped_asymmetry_fails_even_with_a_refreshed_digest():
    workload = workloads.WORKLOADS["codegen"]
    document = _document(_unit(stall="converged", pruned=0.9))
    digests = _digests_for(workload, 1, document)
    problems = workloads.document_problems(workload, 1, document, digests)
    assert len(problems) == 1 and "population-refuted" in problems[0]


def test_partial_pipelines_are_exempt_but_some_full_cell_is_required():
    partial = _unit(stall="converged", pruned=0.95, stages=("dfg",))
    assert workloads.claim_problems({"units": [partial]}, expects_oracle=False) == []
    problems = workloads.claim_problems({"units": [partial]}, expects_oracle=True)
    assert problems and "vacuous" in problems[0]


def test_failed_units_and_unlocking_wrong_keys_are_reported():
    failed = _unit(status="failed")
    unlocked = _unit()
    unlocked["report"]["wrong_keys_all_corrupt"] = False
    problems = workloads.claim_problems({"units": [failed, unlocked]}, expects_oracle=True)
    assert any("status failed" in p for p in problems)
    assert any("wrong key" in p for p in problems)


def test_attack_and_codegen_share_one_reference():
    attack, codegen = workloads.WORKLOADS["attack"], workloads.WORKLOADS["codegen"]
    assert attack.digest_group == codegen.digest_group
    assert codegen.args == attack.args + ("--engine", "codegen")
    committed = workloads.load_digests()
    assert set(committed) == set(workloads.CAMPAIGN_SEEDS)
    for group, seeds in workloads.CAMPAIGN_SEEDS.items():
        assert set(committed[group]) == {str(s) for s in seeds}


def test_campaign_argv_forwards_the_seed_and_runs_one_job(tmp_path):
    workload = workloads.WORKLOADS["sweep"]
    argv = workloads.campaign_argv(workload, 6, tmp_path / "out.json")
    assert argv[0] == "campaign"
    assert argv[argv.index("--seed") + 1] == str(workloads.campaign_seed(workload, 6))
    assert argv[argv.index("--jobs") + 1] == "1"
