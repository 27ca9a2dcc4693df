#!/usr/bin/env python3
"""CI gate: FSMD engines must change speed, never results.

Given two or more campaign JSON documents produced from the same spec
with different ``--engine`` values (``compiled`` / ``interp`` /
``codegen``), assert the engine determinism contract: outside the
``cache`` telemetry block (hit/miss counts, which depend on process
layout rather than on results), all documents are **byte-identical** —
per-trial outputs, Hamming fractions, cycle counts, completed flags,
seeds and stage telemetry all match bit for bit.

Usage::

    check_engine_parity.py compiled.json interp.json [codegen.json ...]
    check_engine_parity.py --dump-state-source sobel [-o OUT.py]

The first form exits non-zero with a diagnostic when the contract is
violated.  The second dumps the codegen tier's generated step-function
source for one state of the named benchmark (obfuscated with the
``full`` preset) — uploaded as a CI artifact so a parity failure in
the generated tier can be debugged from the run page.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def result_fields(doc: dict) -> str:
    """Canonical serialization of everything except cache telemetry."""
    stripped = {k: v for k, v in doc.items() if k != "cache"}
    return json.dumps(stripped, indent=2, sort_keys=True)


def compare_documents(documents: dict[str, dict]) -> list[str]:
    """Contract violations between same-spec engine documents.

    ``documents`` maps a label (file name) to its parsed JSON; the
    first entry is the reference every other document must match.
    """
    problems: list[str] = []
    labels = list(documents)
    reference_label = labels[0]
    reference = result_fields(documents[reference_label])
    for label in labels[1:]:
        candidate = result_fields(documents[label])
        if candidate == reference:
            continue
        for line_a, line_b in zip(
            reference.splitlines(), candidate.splitlines()
        ):
            if line_a != line_b:
                problems.append(
                    f"result fields differ: first divergence "
                    f"{line_a.strip()!r} ({reference_label}) vs "
                    f"{line_b.strip()!r} ({label})"
                )
                break
        else:
            problems.append(
                f"result fields differ between {reference_label} and "
                f"{label} (document lengths)"
            )
    return problems


def dump_state_source(benchmark: str, output: Path | None) -> int:
    """Write the generated step-function source for one FSM state.

    Picks the entry state of the ``full``-preset obfuscation of
    ``benchmark`` — deterministic, so consecutive CI runs produce
    diffable artifacts.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.benchsuite import get_benchmark
    from repro.sim.codegen import codegen_for
    from repro.tao.flow import TaoFlow

    bench = get_benchmark(benchmark)
    component = TaoFlow(pipeline="full").obfuscate(bench.source, bench.top)
    plan = codegen_for(component.design)
    state_idx = plan.layout.entry_idx
    text = (
        f"# codegen step function: benchmark={benchmark} "
        f"state={plan.layout.state_names[state_idx]}\n"
        f"{plan.state_source(state_idx)}\n"
    )
    if output is None:
        print(text, end="")
    else:
        output.write_text(text)
        print(f"wrote {output} ({len(text)} bytes)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("documents", nargs="*", type=Path,
                        help="two or more same-spec campaign JSON files")
    parser.add_argument("--dump-state-source", metavar="BENCHMARK",
                        help="dump one state's generated codegen source "
                        "instead of comparing documents")
    parser.add_argument("-o", "--output", type=Path, default=None,
                        help="file for --dump-state-source (default stdout)")
    args = parser.parse_args(argv)

    if args.dump_state_source:
        return dump_state_source(args.dump_state_source, args.output)
    if len(args.documents) < 2:
        parser.error("need at least two campaign documents (or "
                     "--dump-state-source BENCHMARK)")
    documents = {
        str(path): json.loads(path.read_text()) for path in args.documents
    }
    problems = compare_documents(documents)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    units = len(next(iter(documents.values())).get("units", []))
    print(
        f"engine parity holds: {units} unit(s) byte-identical across "
        f"{len(documents)} engine documents"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
