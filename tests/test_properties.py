"""Property tests for greedy and online water-filling.

The examples are derandomized and kept few, so the suite stays fast and
writes no example database.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharesched import (
    COMPETITIVE_RATIO,
    JobSet,
    greedy,
    makespan,
    optimal_makespan,
    total_completion_time,
    validate_schedule,
    waterfill_online,
)

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)

volumes = st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)
requirements = st.one_of(st.just(1.0), st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e))
instances = st.lists(st.tuples(volumes, requirements), min_size=1, max_size=12).map(JobSet.of)


def doubled(jobs: JobSet) -> JobSet:
    return JobSet.of((2.0 * j.volume, j.requirement) for j in jobs)


@PROPERTY_SETTINGS
@given(instances)
def test_greedy_is_feasible_and_scales(jobs):
    sched = greedy(jobs)
    assert validate_schedule(jobs, sched).feasible
    twice = total_completion_time(doubled(jobs), greedy(doubled(jobs)))
    assert twice == pytest.approx(2.0 * total_completion_time(jobs, sched), rel=1e-12)


@PROPERTY_SETTINGS
@given(instances)
def test_waterfill_meets_every_prefix_target_and_scales(jobs):
    run = waterfill_online(jobs)
    assert run.ok
    assert validate_schedule(jobs, run.final_schedule()).feasible
    for k, sched in enumerate(run.schedules):
        opt, _ = optimal_makespan(jobs.prefix(k + 1))
        assert makespan(sched) <= COMPETITIVE_RATIO * opt * (1.0 + 1e-12)
    twice = waterfill_online(doubled(jobs))
    assert twice.ok
    assert makespan(twice.final_schedule()) == pytest.approx(
        2.0 * makespan(run.final_schedule()), rel=1e-12)
