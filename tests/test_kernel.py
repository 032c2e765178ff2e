import tracemalloc

import numpy as np

from sharesched import _kernel
from sharesched.cli import generate_random

# exact twins whose requirements never saturate the resource together, so
# the volume map is smooth although their zeros coincide (central
# differences give diag(0.6, 1.0) on the first)
TWINS = [
    (np.array([2.0, 2.0]), np.array([0.3, 0.5]), np.array([1.0, 1.0])),
    (np.array([1.0, 1.0, 3.0]), np.array([0.3, 0.2, 0.9]), np.array([1.0, 1.0, 0.2])),
]


def _instances(count: int, zero_share: float):
    """Random (v, r, alpha) with n = 1..8 and a share of intercepts at 0."""
    rng = np.random.default_rng(7)
    for i in range(count):
        n = 1 + i % 8
        v = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
        r = 1.0 - rng.uniform(0.0, 0.95, n)
        alpha = rng.uniform(0.1, 3.0, n) * (rng.uniform(size=n) >= zero_share)
        yield v, r, alpha


def _oracle_cases():
    """``_instances`` draws, the same draws with job 1's intercept tied to
    job 0's, and the twins."""
    for v, r, alpha in _instances(200, zero_share=0.3):
        yield v, r, alpha
        if v.size > 1:
            yield v, r, np.concatenate([alpha[:1], alpha[:-1]])
    yield from TWINS


def pack(d, v, r):
    """Reference packing, one column per instant.

    ``d[j, i]`` is job j's priority in column i.  In each column, jobs take
    min(r_j, capacity left) in descending priority, ties going to the larger
    volume; jobs with priority <= 0 take nothing.
    """
    by_volume = np.argsort(-v, kind="stable")
    order = by_volume[np.argsort(-d[by_volume], axis=0, kind="stable")]
    cols = np.arange(d.shape[1])
    r_sorted = r[order]
    used = np.zeros_like(r_sorted)
    np.cumsum(r_sorted[:-1], axis=0, out=used[1:])
    rates = np.empty_like(r_sorted)
    rates[order, cols] = np.where(d[order, cols] > 0.0, np.clip(1.0 - used, 0.0, r_sorted), 0.0)
    return rates


def _packed_at(v, r, alpha, times):
    return pack(alpha[:, None] - times[None, :] / v[:, None], v, r)


def test_jacobian_matches_central_differences():
    h = 1e-7
    for v, r, alpha in [*_instances(80, zero_share=0.0), *TWINS]:  # alpha - h stays valid
        jac = _kernel.line_structure(v, r, alpha)[1]
        for k in range(v.size):
            step = np.zeros(v.size)
            step[k] = h
            fd = (_kernel.line_volumes(v, r, alpha + step)
                  - _kernel.line_volumes(v, r, alpha - step)) / (2.0 * h)
            assert np.max(np.abs(fd - jac[:, k])) <= 1e-5 * max(1.0, float(np.max(np.abs(jac))))


def test_volumes_match_the_column_packing():
    for v, r, alpha in _oracle_cases():
        t = _kernel.breakpoints(v, alpha)[0]
        ref = _packed_at(v, r, alpha, 0.5 * (t[:-1] + t[1:])) @ np.diff(t)
        vols = _kernel.line_volumes(v, r, alpha)
        assert np.allclose(vols, ref, rtol=1e-12, atol=1e-12 * max(1.0, float(ref.max())))
        assert np.array_equal(_kernel.line_structure(v, r, alpha)[0], vols)


def test_rates_match_the_column_packing_off_the_breakpoints():
    rng = np.random.default_rng(3)
    for v, r, alpha in _oracle_cases():
        t = _kernel.breakpoints(v, alpha)[0]
        times = rng.uniform(0.0, 1.2 * t[-1] + 1.0, 64)
        gap = np.min(np.abs(times[:, None] - t[None, :]), axis=1)
        times = times[gap >= 1e-9]
        assert np.allclose(_kernel.rates_at(v, r, alpha, times), _packed_at(v, r, alpha, times),
                           rtol=0.0, atol=1e-12)


def test_memory_is_quadratic_in_n():
    jobs = generate_random(128, 1)
    v, r = jobs.volumes(), jobs.requirements()
    alpha = np.random.default_rng(0).uniform(0.5, 5.0, v.size)
    tracemalloc.start()
    try:
        _kernel.line_structure(v, r, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * v.size**2 * 8
