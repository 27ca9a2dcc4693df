"""Regenerate the paper's evaluation on the five-benchmark suite.

Runs the evaluation campaign — every benchmark under the four configs
Figure 6 compares, with each unit's design block — and prints Table 1,
Figure 6, the latency (P1) and frequency (P2) impact, the
key-management comparison (K1) and the key validation (V1/V2), ours
next to the paper's numbers.  The same document comes from::

    repro campaign --benchmarks all --config default \\
        --config branches-only --config constants-only --config dfg-only \\
        --design-metrics --keys 10

Run:  python examples/full_benchmark_suite.py
"""

import time

from repro.benchsuite import benchmark_names
from repro.evaluation.report import EVALUATION_CONFIGS, format_evaluation
from repro.runtime.campaign import CampaignSpec, run_campaign


def main() -> None:
    t0 = time.time()
    spec = CampaignSpec(
        benchmarks=tuple(benchmark_names()),
        configs=EVALUATION_CONFIGS,
        n_keys=10,
        design_metrics=True,
    )
    print(format_evaluation(run_campaign(spec)))
    print(f"\nDone in {time.time() - t0:.0f}s.")


if __name__ == "__main__":
    main()
