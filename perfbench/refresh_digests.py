"""Recompute reference_digests.json: one SHA-256 per document shape and campaign seed.

Usage, from the root of a checkout::

    python3 perfbench/refresh_digests.py

Runs every digest group (``sweep``; ``attack``, which ``codegen``
shares) once per campaign seed, under the same environment as the
benchmark.  A document whose claims fail (a failed unit, a wrong key
that unlocks, or a flipped §3.1 asymmetry) is never recorded: the
script exits 1 and leaves the file unchanged.  Workloads that share a
group must produce the same digest, which the script checks too.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    failures = []
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        for workload in workloads.WORKLOADS.values():
            for index in range(len(workloads.CAMPAIGN_SEEDS[workload.digest_group])):
                seed = workloads.campaign_seed(workload, index)
                output = Path(tmp) / f"{workload.name}-{seed}.json"
                argv = workloads.campaign_argv(workload, index, output)
                proc = subprocess.run(
                    [sys.executable, "-m", "repro", *argv],
                    env=run.child_env(0),
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    text=True,
                )
                label = f"{workload.name}/seed {seed}"
                if proc.returncode != 0:
                    failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                document = output.read_bytes()
                problems = workloads.claim_problems(
                    json.loads(document), "oracle-guided" in workload.args
                )
                failures.extend(f"{label}: {problem}" for problem in problems)
                digest = hashlib.sha256(document).hexdigest()
                group = digests.setdefault(workload.digest_group, {})
                if group.setdefault(str(seed), digest) != digest:
                    failures.append(f"{label}: digest differs within group {workload.digest_group}")
                print(f"{label}: {digest}")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
