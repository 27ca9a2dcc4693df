"""Normalization arithmetic on synthetic reference samples."""

import gc
import math

import pytest

import refclock
import run


def test_nominal_speed_leaves_time_unchanged():
    periods = [refclock.NOMINAL_PERIOD_S] * 5
    assert math.isclose(refclock.normalize(3.0, 0.0, periods), 3.0)


def test_slow_host_scales_down_by_median_period():
    # Host at half speed: the loop takes twice the nominal period.
    periods = [2 * refclock.NOMINAL_PERIOD_S] * 7
    assert math.isclose(refclock.normalize(10.0, 0.0, periods), 5.0)


def test_handler_time_is_removed_before_scaling():
    periods = [refclock.NOMINAL_PERIOD_S * 1.25] * 3
    assert math.isclose(refclock.normalize(5.2, 0.2, periods), 4.0)


def test_scale_is_the_mean_speed_over_evenly_spaced_samples():
    # Half the run at nominal speed, half at half speed: 3/4 speed on
    # average, where the median period would pick either half.
    nominal = refclock.NOMINAL_PERIOD_S
    periods = [nominal] * 4 + [2 * nominal] * 4
    assert math.isclose(refclock.scale(periods), 0.75)
    # A stalled sample weighs no more than the time it stands for.
    assert math.isclose(refclock.scale([nominal] * 9 + [1e6 * nominal]), 0.9, rel_tol=1e-6)


def test_no_samples_and_excess_handler_time_are_errors():
    with pytest.raises(ValueError):
        refclock.scale([])
    with pytest.raises(ValueError):
        refclock.normalize(1.0, 2.0, [refclock.NOMINAL_PERIOD_S])


def test_spawned_charges_only_samples_before_the_cut():
    nominal = refclock.NOMINAL_PERIOD_S
    stats = {
        "first_unit": 100.5,
        # (start, period): two samples before the first unit, one after.
        "samples": [[100.1, 2 * nominal], [100.2, 2 * nominal], [101.0, 2 * nominal]],
    }
    # The host is at half speed before the spawn and up to the first
    # unit, and at nominal speed after the exit.
    spawned = run.Spawned(2.0, 50.0, stats, 100.0, [2 * nominal] * 2, [nominal] * 4)
    # Setup: 0.5 s raw minus two handler periods, at the speed around it
    # only (two slices before the spawn, two samples before the unit).
    assert math.isclose(spawned.setup(), (0.5 - 4 * nominal) / 2)
    # Wall: 2.0 s raw minus all three handler periods, at the mean speed
    # of all nine periods: 5 at half speed, 4 at nominal speed.
    assert math.isclose(spawned.wall(), (2.0 - 6 * nominal) * (5 * 0.5 + 4) / 9)
    # Inside the process the loop ran at half speed; beside it, at the
    # mean of 2 slow and 4 nominal periods.
    assert math.isclose(spawned.inside_ratio(), 2 * nominal / (8 * nominal / 6))


def test_reference_loop_is_frozen():
    # The loop's result pins its code and iteration count: changing
    # either rescales every normalized figure against the baseline.
    assert refclock.REFERENCE_ITERATIONS == 5_000
    assert refclock.NOMINAL_PERIOD_S == 0.002
    assert refclock.reference_loop() == refclock.reference_loop(5_000) == 12507500


def test_reference_leaves_the_collector_where_it_was():
    gc.enable()
    before = gc.get_count()
    refclock.time_slices(3)
    assert gc.get_count() == before
    assert gc.isenabled()
