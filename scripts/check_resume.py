#!/usr/bin/env python3
"""CI gate: a SIGKILLed campaign must resume to byte-identical results.

Drives the resumable-service acceptance scenario end to end:

1. run a small two-benchmark campaign to completion (the reference
   document);
2. start the same campaign against a checkpoint directory, wait for
   the first per-unit record to land, then SIGKILL the whole process
   group mid-flight — no cleanup handlers, no atexit;
3. rerun with ``--resume`` and assert the final JSON is byte-identical
   to the uninterrupted run and that at least one unit was actually
   resumed from a checkpoint (the summary line reports the count).

If the campaign finishes before the kill lands, the gate degrades
gracefully: it deletes the output and one checkpoint record to
synthesize an interrupted state, so the resume contract is still
exercised.

Usage: ``check_resume.py [--workdir DIR] [--benchmarks CSV] [--keys N]
[--seed N]``; exits non-zero with a diagnostic per violated property.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def campaign_argv(
    args: argparse.Namespace, out: Path, ckpt: Path | None, resume: bool
) -> list[str]:
    argv = [
        sys.executable, "-m", "repro", "campaign",
        "--benchmarks", args.benchmarks,
        "--keys", str(args.keys),
        "--seed", str(args.seed),
        "--jobs", str(args.jobs),
        "-o", str(out),
    ]
    if ckpt is not None:
        argv += ["--checkpoint-dir", str(ckpt)]
    if resume:
        argv.append("--resume")
    return argv


def unit_records(ckpt: Path) -> list[Path]:
    """Per-unit checkpoint records (the manifest spec.json excluded)."""
    return [p for p in ckpt.glob("*/*.json") if p.name != "spec.json"]


def run_killed_campaign(args: argparse.Namespace, out: Path, ckpt: Path) -> None:
    """Start the campaign and SIGKILL its process group mid-flight."""
    proc = subprocess.Popen(
        campaign_argv(args, out, ckpt, resume=False),
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + args.timeout
        while time.monotonic() < deadline:
            if unit_records(ckpt):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        else:
            raise SystemExit(
                f"FAIL: no checkpoint record appeared within {args.timeout}s"
            )
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            print(
                f"killed campaign mid-flight with "
                f"{len(unit_records(ckpt))} unit(s) checkpointed"
            )
        else:
            # A fast run can outrun the poll loop: synthesize the
            # interrupted state instead of failing the gate.
            records = unit_records(ckpt)
            if not records:
                raise SystemExit(
                    "FAIL: campaign exited without checkpointing any unit"
                )
            out.unlink(missing_ok=True)
            records[-1].unlink()
            print(
                "campaign finished before the kill landed; removed the "
                "output and one checkpoint record to synthesize an "
                "interrupted state"
            )
    finally:
        if proc.poll() is None:  # pragma: no cover - safety net
            os.killpg(proc.pid, signal.SIGKILL)
    if out.exists():
        raise SystemExit(
            "FAIL: interrupted campaign still published its output file"
        )


def check(args: argparse.Namespace, workdir: Path) -> int:
    clean_out = workdir / "clean.json"
    subprocess.run(
        campaign_argv(args, clean_out, None, resume=False),
        check=True, stdout=subprocess.DEVNULL,
    )

    ckpt = workdir / "checkpoints"
    killed_out = workdir / "killed.json"
    run_killed_campaign(args, killed_out, ckpt)

    resumed_out = workdir / "resumed.json"
    done = subprocess.run(
        campaign_argv(args, resumed_out, ckpt, resume=True),
        check=True, capture_output=True, text=True,
    )

    problems: list[str] = []
    if resumed_out.read_bytes() != clean_out.read_bytes():
        problems.append(
            "resumed campaign JSON differs from the uninterrupted run "
            "(resume must be byte-identical)"
        )
    summary = [
        line for line in done.stdout.splitlines() if "resumed" in line
    ]
    if not summary:
        problems.append(
            "resume run's summary never reported a resumed-unit count"
        )
    elif " 0 resumed" in summary[-1]:
        problems.append(
            f"resume run resumed no units from the checkpoint: "
            f"{summary[-1].strip()!r}"
        )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(
        "interrupt-resume contract holds: SIGKILLed campaign resumed to "
        f"a byte-identical document ({summary[-1].strip()})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", default="sobel,adpcm")
    parser.add_argument("--keys", type=int, default=2)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait for the first checkpoint record",
    )
    parser.add_argument(
        "--workdir", type=Path, default=None,
        help="scratch directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
        return check(args, args.workdir)
    with tempfile.TemporaryDirectory(prefix="check-resume-") as tmp:
        return check(args, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
