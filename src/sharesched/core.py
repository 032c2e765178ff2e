"""Domain types for jobs that share one divisible resource.

A job owns a processing volume (resource x time) and a requirement cap (the
largest fraction of the unit resource it can absorb at any instant).  A
schedule assigns every job a piecewise-constant rate over time.  This module
holds those carriers plus the shared objective and feasibility machinery used
by every algorithm in the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: default absolute comparison tolerance on resource levels; volume and time
#: comparisons scale it by the magnitude of the quantity involved.
DEFAULT_TOL = 1e-9


# the three kinds of error: every error class of the package derives from one


class ContractError(ValueError):
    """Usage: an operation was called outside its contract (bad shapes, bad
    args), with arguments that are bad for every instance."""


class InstanceError(ContractError):
    """Valid arguments that this instance cannot take (say, a horizon
    ``n * p_max`` past the float range)."""


class AlgorithmError(RuntimeError):
    """An algorithm failed on valid input."""


@dataclass(frozen=True)
class Job:
    """One job: total volume and maximum instantaneous resource share.

    ``volume`` is in resource x time units and must be positive.
    ``requirement`` lies in (0, 1]; a zero requirement is rejected because a
    positive-volume job could then never finish.  The processing time
    ``volume / requirement`` must be finite as well.
    """

    volume: float
    requirement: float

    def __post_init__(self) -> None:
        v, r = float(self.volume), float(self.requirement)
        if not (math.isfinite(v) and v > 0.0):
            raise ContractError(f"volume must be positive and finite, got {v!r}")
        if not (math.isfinite(r) and 0.0 < r <= 1.0):
            raise ContractError(f"requirement must lie in (0, 1], got {r!r}")
        if not math.isfinite(v / r):
            raise ContractError(f"processing time volume / requirement must be finite, got {v!r} / {r!r}")
        object.__setattr__(self, "volume", v)
        object.__setattr__(self, "requirement", r)

    @property
    def processing_time(self) -> float:
        """Shortest possible duration: volume / requirement."""
        return self.volume / self.requirement


class JobSet(tuple):
    """Ordered, immutable collection of jobs: a tuple of ``Job``.

    Order matters: online algorithms consume jobs in list order, and job ids
    used throughout the package are 0-based positions in this list.  A
    JobSet hashes and compares equal like the tuple of its jobs.
    """

    __slots__ = ()

    def __new__(cls, jobs: Iterable[Job] = ()):
        self = super().__new__(cls, jobs)
        for j in self:
            if not isinstance(j, Job):
                raise ContractError(f"expected Job, got {type(j).__name__}")
        return self

    def __repr__(self) -> str:
        return f"JobSet({list(self)!r})"

    @classmethod
    def of(cls, pairs: Iterable[tuple[float, float]]) -> "JobSet":
        """Build from (volume, requirement) pairs."""
        return cls(Job(v, r) for v, r in pairs)

    def volumes(self) -> np.ndarray:
        return np.array([j.volume for j in self], dtype=float)

    def requirements(self) -> np.ndarray:
        return np.array([j.requirement for j in self], dtype=float)

    def processing_times(self) -> np.ndarray:
        return np.array([j.processing_time for j in self], dtype=float)

    def total_volume(self) -> float:
        return float(sum(j.volume for j in self))

    def max_processing_time(self) -> float:
        return max((j.processing_time for j in self), default=0.0)


class StepFunction:
    """Right-continuous piecewise-constant function with bounded support.

    The value is ``values[i]`` on the right-open interval
    ``[edges[i], edges[i+1])`` and 0 for ``t >= edges[-1]`` as well as for
    ``t < 0``.  ``edges[0]`` is always 0.  Instances are canonical: adjacent
    equal values are merged and the zero tail is trimmed.  Nothing else
    changes, so an interval of any width keeps its value and its integral.

    The constructor checks everything.  ``_on_grid`` is for edges the
    package built itself, which start at 0 and increase strictly by
    construction: it checks only the last edge and the values, and refuses
    with the same messages.
    """

    __slots__ = ("edges", "values")

    def __init__(self, edges: Sequence[float], values: Sequence[float]):
        e = np.asarray(edges, dtype=float)
        v = np.asarray(values, dtype=float)
        if e.ndim != 1 or v.ndim != 1 or e.size != v.size + 1:
            raise ContractError("need len(edges) == len(values) + 1")
        # edges that start at 0, increase strictly and end below inf are all
        # finite, and a NaN edge fails the comparison
        if not (e[0] == 0.0 and e[-1] < math.inf and _all(e[1:] > e[:-1])
                and _all(np.isfinite(v))):
            raise ContractError(_fault(e, v))
        self._finish(e, v)

    def _finish(self, e: np.ndarray, v: np.ndarray) -> None:
        e, v = _canonical(e, v)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "values", v)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("StepFunction is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _on_grid(cls, edges: np.ndarray, values: np.ndarray) -> "StepFunction":
        """A step function on float arrays the package built, with
        ``edges.size == values.size + 1``, ``edges[0] == 0`` and edges that
        increase strictly; only what can still fail is checked."""
        if not (edges[-1] < math.inf and _all(np.isfinite(values))):
            raise ContractError(_fault(edges, values))
        self = object.__new__(cls)
        self._finish(edges, values)
        return self

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls([0.0], [])

    @classmethod
    def constant(cls, value: float, end: float) -> "StepFunction":
        """``value`` on [0, end), zero afterwards."""
        if end <= 0.0:
            return cls.zero()
        return cls([0.0, float(end)], [float(value)])

    # -- queries -----------------------------------------------------------

    def __call__(self, t):
        out = _at(self, t)
        return float(out) if out.ndim == 0 else out

    @property
    def support_end(self) -> float:
        """sup{t : f(t) != 0}; 0 for the zero function, whose edges are [0]."""
        return float(self.edges[-1])

    def widths(self) -> np.ndarray:
        return self.edges[1:] - self.edges[:-1]

    def integral(self) -> float:
        return float(np.dot(self.values, self.widths()))

    # -- transforms --------------------------------------------------------

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return sum_steps([self, other])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StepFunction)
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"StepFunction(edges={self.edges.tolist()}, values={self.values.tolist()})"


def _fault(e: np.ndarray, v: np.ndarray) -> str:
    """Why edges ``e`` and values ``v`` make no step function."""
    if e[0] != 0.0:
        return "edges must start at 0"
    if not (np.isfinite(e).all() and np.isfinite(v).all()):
        return "edges and values must be finite"
    return "edges must be strictly increasing"


def _canonical(e: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge equal neighbours and trim the zero tail.

    One mask over the edges keeps both ends and every inner edge where the
    value changes; after the merge at most one zero piece can trail, and a
    function that is zero everywhere keeps only its first edge.
    """
    keep = np.empty(e.size, dtype=bool)
    keep[0] = keep[-1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:-1])
    if not _all(keep):
        e, v = e[keep], v[keep[:-1]]
    if v.size and v[-1] == 0.0:
        e, v = e[:-1], v[:-1]
    return e, v


#: the zero that pads step-function values on either side, shared read-only
_ZERO = np.zeros(1)
_ZERO.flags.writeable = False


def _pieces_before(f: StepFunction, C: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges, widths and values of ``f`` on [0, C), zero-padded up to C."""
    cut = int(f.edges.searchsorted(C, side="left"))
    edges = np.concatenate((f.edges[:cut], (C,)))
    values = f.values[:cut]
    if values.size < cut:   # C lies past the support: one zero piece up to it
        values = np.concatenate((values, _ZERO))
    return edges, edges[1:] - edges[:-1], values


def _at(f: StepFunction, t):
    """``f`` at ``t``: the ``searchsorted`` position (side right) indexes the
    values padded with ``_ZERO`` before 0 and past the support end (or NaN)."""
    return np.concatenate((_ZERO, f.values, _ZERO))[f.edges.searchsorted(t, side="right")]


def _rows_at(fns: Sequence[StepFunction], t: np.ndarray) -> np.ndarray:
    """Row i is ``_at(fns[i], t)``: many step functions read at shared points."""
    return np.array([_at(f, t) for f in fns]).reshape(len(fns), t.size)


def _union_grid(fns: Sequence[StepFunction]) -> np.ndarray:
    """The sorted distinct union of the edges of ``fns``; ``[0.0]`` for none.
    Valid edges start at 0, so the grid does too, and it increases."""
    return _distinct(np.concatenate([f.edges for f in fns])) if len(fns) else np.array([0.0])


def sum_steps(fns: Sequence[StepFunction]) -> StepFunction:
    """Pointwise sum of step functions, exact on the union grid of their edges.

    The grid refines every operand, so an operand's value on a grid interval
    is its value at the left end.  A lone non-zero operand is its own sum
    (step functions are immutable); none leaves the grid [0], the zero function.
    """
    fns = [f for f in fns if f.values.size]
    if len(fns) == 1:
        return fns[0]
    grid = _union_grid(fns)
    left = grid[:-1]
    total = np.zeros(left.size)
    for f in fns:
        total += _at(f, left)
    return StepFunction._on_grid(grid, total)


# ``x.all()`` and ``x.any()`` for a boolean array x, without the Python-level
# wrappers of ndarray.all and ndarray.any (about 0.6 us a call here, not 2)
def _all(x: np.ndarray) -> bool:
    return np.count_nonzero(x) == x.size


def _any(x: np.ndarray) -> bool:
    return np.count_nonzero(x) != 0


def _distinct(x) -> np.ndarray:
    """``np.unique(x)`` for finite ``x``: the same sort, then the first value
    of each run, without the import of ``numpy.ma`` that np.unique makes."""
    s = np.asarray(x).flatten()
    s.sort()
    first = np.empty(s.shape, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


@dataclass(frozen=True)
class Schedule:
    """One resource-rate step function per job, in job order."""

    assignments: tuple[StepFunction, ...]

    def __init__(self, assignments: Iterable[StepFunction]):
        object.__setattr__(self, "assignments", tuple(assignments))

    @property
    def n_jobs(self) -> int:
        return len(self.assignments)

    @classmethod
    def empty(cls, n_jobs: int = 0) -> "Schedule":
        return cls(StepFunction.zero() for _ in range(n_jobs))

    def completion_times(self) -> np.ndarray:
        return np.array([a.support_end for a in self.assignments])

    def volumes(self) -> np.ndarray:
        return np.array([a.integral() for a in self.assignments])

    def total_usage(self) -> StepFunction:
        """The rates read on the union grid, added in job order as ``sum_steps``
        adds (numpy sums a lone column pairwise).  Only when 2n max|rate|
        reaches the largest float are they halved k times, 2**k > 2n, so no
        partial sum passes it; a sum past it reads as the largest float."""
        grid, n = _union_grid(self.assignments), self.n_jobs
        rates, big = _rows_at(self.assignments, grid[:-1]), np.finfo(float).max
        k = 0 if 2 * n * float(np.abs(rates).max(initial=0.0)) < big else n.bit_length() + 1
        with np.errstate(over="ignore"):
            total = np.ldexp(sum(np.ldexp(rates, -k), np.zeros(grid.size - 1)), k)
        return StepFunction._on_grid(grid, np.clip(total, -big, big, out=total))


@dataclass(frozen=True)
class Violation:
    """One feasibility clause breach.

    ``kind`` is one of ``overuse``, ``requirement-exceeded``,
    ``negative-rate``, ``volume-deficit``.  ``job`` is a 0-based id (None
    for overuse) and ``interval`` the offending time window (None for
    volume-deficit).
    """

    kind: str
    magnitude: float
    job: int | None = None
    interval: tuple[float, float] | None = None


@dataclass(frozen=True)
class ValidationReport:
    feasible: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    def max_magnitude(self) -> float:
        return max((v.magnitude for v in self.violations), default=0.0)


def validate_schedule(jobs: JobSet, sched: Schedule, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check all four feasibility clauses, reporting violations above tol:
    each job's rates lie in [0, requirement] and give its volume, and the
    summed usage (``Schedule.total_usage``) is at most 1.

    Resource clauses use ``tol`` absolutely; the volume clause scales it by
    max(1, volume).  Raises ContractError when job and assignment counts
    differ or ``tol`` is negative.
    """
    if not tol >= 0.0:
        raise ContractError(f"tol must be nonnegative, got {tol}")
    if len(jobs) != sched.n_jobs:
        raise ContractError(f"{len(jobs)} jobs but {sched.n_jobs} assignments")
    violations: list[Violation] = []

    def worst(kind: str, f: StepFunction, excess: np.ndarray, job: int | None = None) -> None:
        # the largest of a clause's per-piece excesses, on its piece of f
        if excess.size:
            k = int(excess.argmax())
            if excess[k] > tol:
                violations.append(Violation(kind, float(excess[k]), job=job,
                                            interval=(float(f.edges[k]), float(f.edges[k + 1]))))

    # a row's integral past the float range reads inf
    with np.errstate(over="ignore"):
        for idx, (job, a) in enumerate(zip(jobs, sched.assignments)):
            worst("requirement-exceeded", a, a.values - job.requirement, idx)
            worst("negative-rate", a, -a.values, idx)
            deficit = job.volume - a.integral()
            if deficit > tol * max(1.0, job.volume):
                violations.append(Violation("volume-deficit", float(deficit), job=idx))
    usage = sched.total_usage()
    worst("overuse", usage, usage.values - 1.0)
    return ValidationReport(feasible=not violations, violations=tuple(violations))


def makespan(sched: Schedule) -> float:
    """Latest completion time; 0 for an empty schedule."""
    return float(sched.completion_times().max(initial=0.0))


def total_completion_time(jobs: JobSet, sched: Schedule) -> float:
    """Sum of the completion times; inf when the sum passes the float range."""
    if len(jobs) != sched.n_jobs:
        raise ContractError("job/assignment count mismatch")
    with np.errstate(over="ignore"):
        return float(sched.completion_times().sum())


def fractional_completion_time(jobs: JobSet, sched: Schedule) -> tuple[list[float], float]:
    """Volume-weighted mean completion per job and its sum.

    Per job this is the exact integral of t * R_j(t) / v_j over the step
    grid, each piece's share of v_j weighted by its midpoint, so it stays
    finite wherever the completion times do.
    """
    if len(jobs) != sched.n_jobs:
        raise ContractError("job/assignment count mismatch")
    per_job = []
    for job, a in zip(jobs, sched.assignments):
        w = a.widths()
        per_job.append(float(np.dot(a.values * w / job.volume, a.edges[:-1] + 0.5 * w)))
    return per_job, float(sum(per_job))


# -- JSON interchange -------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _dump(obj) -> str:
    """json.dumps with floats (``np.float64`` too) at 17 significant digits;
    dicts, lists and tuples are walked, and ``json.dumps`` writes the rest:
    ints, bools, strings and None, refusing numpy arrays, ints and bools."""
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    return json.dumps(obj)


def jobs_to_json(jobs: JobSet) -> str:
    return _dump({"jobs": [{"v": j.volume, "r": j.requirement} for j in jobs]}) + "\n"


def _number(x, name: str) -> float:
    """A JSON number as a float; booleans and strings are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ContractError(f"{name} must be a JSON number, got {json.dumps(x)}")
    return float(x)


def jobs_from_json(text: str | bytes) -> JobSet:
    try:
        return JobSet(Job(_number(rec["v"], '"v"'), _number(rec["r"], '"r"'))
                      for rec in json.loads(text)["jobs"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"malformed instance JSON: {exc}") from exc


def schedule_to_json(sched: Schedule) -> str:
    grid = _union_grid(sched.assignments)
    # each row is read at the left ends: the midpoint of a one-ulp interval
    # rounds onto an edge
    payload = {
        "breakpoints": [float(t) for t in grid],
        "assignments": _rows_at(sched.assignments, grid[:-1]).tolist(),
        "completion_times": [float(c) for c in sched.completion_times()],
    }
    return _dump(payload) + "\n"


def schedule_from_json(text: str | bytes) -> Schedule:
    try:
        data = json.loads(text)
        grid = [_number(t, '"breakpoints"') for t in data["breakpoints"]]
        if not grid or grid[0] != 0.0:
            raise ContractError("breakpoints must start at 0")
        assignments = []
        for row in data["assignments"]:
            if len(row) != len(grid) - 1:
                raise ContractError("assignment row length must be len(breakpoints) - 1")
            assignments.append(StepFunction(grid, [_number(x, '"assignments"') for x in row]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"malformed schedule JSON: {exc}") from exc
    return Schedule(assignments)
