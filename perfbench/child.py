"""Measured process: one ``repro campaign`` run, instrumented from outside.

Usage (spawned by run.py, never by hand)::

    python3 perfbench/child.py STATS_JSON MODE -- <repro campaign arguments>

``MODE`` is ``timed`` (reference sampler + first-unit marker only) or
``traced`` (also wraps every layer entry point, see spans.py).  On
exit the process writes ``STATS_JSON``: the first unit's start, the
reference samples and, when traced, spans, counts and cache counters.
Times are ``perf_counter`` readings, which share one clock with the
parent.
"""

import json
import sys
import time

import refclock


def main(argv: list[str]) -> int:
    stats_path, mode, separator, *campaign_args = argv
    if separator != "--" or mode not in ("timed", "traced"):
        raise SystemExit(f"usage: child.py STATS_JSON timed|traced -- ARGS (got {argv})")
    sampler = refclock.Sampler()
    sampler.start()
    stats = {"first_unit": None}

    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
    # Everything `repro campaign` imports anyway, imported up front so
    # the import span covers it and the patches find their targets.
    import_started = time.perf_counter()
    import repro.benchsuite  # noqa: F401
    import repro.cli
    import repro.evaluation.report  # noqa: F401
    import repro.runtime.executor as executor

    if tracer is not None:
        tracer.add_span("runtime.import", import_started, time.perf_counter())
        spans.install(tracer)
    execute_unit = executor._execute_unit

    def marked_execute_unit(shared, task):
        if stats["first_unit"] is None:
            stats["first_unit"] = time.perf_counter()
        return execute_unit(shared, task)

    executor._execute_unit = marked_execute_unit
    try:
        code = repro.cli.main(campaign_args)
    finally:
        executor._execute_unit = execute_unit
        if tracer is not None:
            tracer.restore()
            from repro.runtime.cache import cache_stats

            stats["spans"] = tracer.spans
            stats["counts"] = dict(tracer.counts)
            stats["cache"] = cache_stats()
        sampler.stop()
        stats["samples"] = sampler.samples
        with open(stats_path, "w") as handle:
            json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
