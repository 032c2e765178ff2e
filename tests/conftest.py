import numpy as np
import pytest

from sharesched import JobSet, Schedule, StepFunction


def random_instance(seed: int, n_max: int, n_min: int = 1,
                    v_range=(0.1, 10.0), r_floor: float = 0.05) -> JobSet:
    """Log-uniform volumes, uniform requirements in (r_floor, 1]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    v = np.exp(rng.uniform(np.log(v_range[0]), np.log(v_range[1]), n))
    r = 1.0 - rng.uniform(0.0, 1.0 - r_floor, n)
    return JobSet.of(zip(v, r))


def midpoint_sum(fns) -> StepFunction:
    """Reference pointwise sum: every operand evaluated at the midpoints of
    the union grid.  ``sum_steps`` must agree with it bit for bit."""
    fns = [f for f in fns if f.values.size]
    if not fns:
        return StepFunction.zero()
    grid = np.unique(np.concatenate([f.edges for f in fns]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    total = np.zeros(mids.size)
    for f in fns:
        total += f(mids)
    return StepFunction(grid, total)


def prefix_schedules(run) -> list[Schedule]:
    """The schedule after each placed job of an online run: every
    assignment is fixed on arrival, so prefix k is the first k + 1
    assignments of the final schedule."""
    final = run.final_schedule().assignments
    return [Schedule(final[:k + 1]) for k in range(len(final))]


@pytest.fixture
def three_jobs() -> JobSet:
    # worked instance used across modules: volumes 1, 4, 6 with
    # requirements 3/4, 1/2, 2/3
    return JobSet.of([(1.0, 0.75), (4.0, 0.5), (6.0, 2.0 / 3.0)])
