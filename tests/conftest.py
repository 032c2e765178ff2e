import contextlib
import signal

import numpy as np
import pytest

from sharesched import JobSet, Schedule, StepFunction
from sharesched.core import _pieces_before


def random_instance(seed: int, n_max: int, n_min: int = 1,
                    v_range=(0.1, 10.0), r_floor: float = 0.05) -> JobSet:
    """Log-uniform volumes, uniform requirements in (r_floor, 1]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    v = np.exp(rng.uniform(np.log(v_range[0]), np.log(v_range[1]), n))
    r = 1.0 - rng.uniform(0.0, 1.0 - r_floor, n)
    return JobSet.of(zip(v, r))


def left_end_sum(fns) -> StepFunction:
    """Reference pointwise sum: every operand read at the left end of each
    union-grid interval by a plain scan over its pieces.  The left end, not
    the midpoint: the midpoint of a one-ulp interval rounds onto an edge.
    ``sum_steps`` must agree with it bit for bit."""
    grid = sorted({float(t) for f in fns for t in f.edges})
    total = [0.0] * (len(grid) - 1)
    for f in fns:
        k = 0   # the piece of f that holds t
        for i, t in enumerate(grid[:-1]):
            while k < f.values.size and f.edges[k + 1] <= t:
                k += 1
            if k < f.values.size:
                total[i] += float(f.values[k])
    return StepFunction(grid, total) if total else StepFunction.zero()


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block after ``seconds`` of wall time, so
    that a loop that never ends fails its test instead of hanging it."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def volume_before(f: StepFunction, C: float) -> float:
    """Integral of ``f`` over [0, C)."""
    _, widths, values = _pieces_before(f, C)
    return float(widths @ values)


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


@pytest.fixture
def merging_stretch() -> JobSet:
    # seven jobs on which the approximation pipeline's stretch of the line
    # schedule rounds two edges one ulp apart onto one time
    v = [71.97820198919423, 78.03069845074675, 9.16050658479128, 0.3295721516022837,
         0.07068703287200674, 96.58405905429532, 76.23216286335943]
    r = [0.21603586533785277, 0.3979052041851987, 1.0, 0.05056378753223647,
         0.45434745794293907, 0.04976968115708434, 0.11831148726400169]
    return JobSet.of(zip(v, r))
