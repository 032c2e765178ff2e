import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import exact
from sharesched import _kernel, linesched
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


def crossing_times(v, alpha):
    """Sorted sample times: 0, every line zero at positive time and every
    crossing of two lines at positive time, with the crossing expression of
    ``_kernel._rows``."""
    idx = np.arange(v.size)
    j, k = np.nonzero(idx[:, None] < idx)
    ds = 1.0 / v[j] - 1.0 / v[k]
    t = (alpha[j] - alpha[k]) / np.where(ds != 0.0, ds, np.inf)  # parallel: t = 0
    return np.sort(np.concatenate([[0.0], (alpha * v)[alpha > 0.0], t[t > 0.0]]), kind="stable")


def reference_rows(v, r, alpha):
    """Reference ``_kernel._rows``: every term computed afresh from (v, r,
    alpha) with plain numpy calls, no term kept between calls."""
    n = v.size
    idx = np.arange(n)
    zero = alpha * v
    ds = 1.0 / v[:, None] - 1.0 / v
    t = (alpha[:, None] - alpha) / np.where(ds != 0.0, ds, np.inf)
    dead = (t <= 0.0) | (t >= zero[:, None])
    first = np.lexsort((idx, -v, -alpha))
    rank = np.argsort(first)
    step = np.where(rank < rank[:, None], -r, r)
    step[dead] = 0.0
    t[dead] = np.inf
    t[idx, idx] = zero
    order = np.argsort(t, axis=1)
    times = t[idx[:, None], order]
    start = np.zeros(n)
    start[first[1:]] = np.cumsum(r[first[:-1]])
    used = np.cumsum(np.column_stack([start, step[idx[:, None], order]]), axis=1)
    rates = np.clip(1.0 - used, 0.0, np.where(zero > 0.0, r, 0.0)[:, None])
    rates[:, 1:][times >= zero[:, None]] = 0.0
    widths = np.diff(np.minimum(times, zero[:, None]), axis=1, prepend=0.0)
    return times, order, ds, rates, (rates[:, :-1] * widths).sum(axis=1)


def reference_structure(v, r, alpha):
    """Reference ``_kernel.line_structure`` on ``reference_rows``."""
    idx = np.arange(v.size)
    _, order, ds, rates, vols = reference_rows(v, r, alpha)
    drop = np.empty_like(ds)
    drop[idx[:, None], order] = rates[:, :-1] - rates[:, 1:]
    per_ds = np.divide(drop, ds, out=np.zeros_like(ds), where=ds != 0.0)
    return vols, np.diag(per_ds.sum(axis=1) + drop[idx, idx] * v) - per_ds


def reference_rates_at(v, r, alpha, times):
    events, _, _, rates, _ = reference_rows(v, r, alpha)
    return np.stack([rates[j, np.searchsorted(events[j], times, side="right")]
                     for j in range(v.size)])


def test_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    for v, r, alpha in _oracle_cases():
        vols, jac = _kernel.line_structure(v, r, alpha)
        ref_vols, ref_jac = reference_structure(v, r, alpha)
        assert vols.tobytes() == ref_vols.tobytes()
        assert _kernel.line_volumes(v, r, alpha).tobytes() == ref_vols.tobytes()
        assert jac.tobytes() == ref_jac.tobytes()
        t = crossing_times(v, alpha)
        times = np.concatenate([t, rng.uniform(0.0, 1.2 * t[-1] + 1.0, 16)])
        assert (_kernel.rates_at(v, r, alpha, times).tobytes()
                == reference_rates_at(v, r, alpha, times).tobytes())


def test_empty_instance_packs_to_empty_arrays():
    empty = np.zeros(0)
    vols, jac = _kernel.line_structure(empty, empty, empty)
    assert vols.shape == (0,) and jac.shape == (0, 0)
    assert _kernel.rates_at(empty, empty, empty, np.array([0.5])).shape == (0, 1)


def _with_reference_kernel(monkeypatch):
    monkeypatch.setattr(_kernel, "line_structure", reference_structure)
    monkeypatch.setattr(_kernel, "line_volumes", lambda v, r, a: reference_rows(v, r, a)[4])


def test_solve_alpha_matches_the_reference_bit_for_bit(monkeypatch):
    pools = [generate_random(n, s) for n in range(2, 13) for s in range(1, 11)]
    alphas = [linesched.solve_alpha(jobs).tobytes() for jobs in pools]
    _with_reference_kernel(monkeypatch)
    assert [linesched.solve_alpha(jobs).tobytes() for jobs in pools] == alphas


def test_convergence_error_matches_the_reference(monkeypatch):
    jobs = generate_random(8, 1)
    monkeypatch.setattr(linesched, "MAX_ITERS", 1)
    with pytest.raises(linesched.ConvergenceError) as got:
        linesched.solve_alpha(jobs)
    _with_reference_kernel(monkeypatch)
    with pytest.raises(linesched.ConvergenceError) as want:
        linesched.solve_alpha(jobs)
    assert str(got.value) == str(want.value)
    assert got.value.alpha.tobytes() == want.value.alpha.tobytes()


def test_terms_kept_between_calls_are_read_only():
    v, r, _ = TWINS[1]
    terms = _kernel._pairs(v, r)
    for term in terms:
        assert not term.flags.writeable
    with pytest.raises(ValueError):
        terms[1][0, 0] = 1.0


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
        t = crossing_times(v, alpha)
        ref = _packed_at(v, r, alpha, 0.5 * (t[:-1] + t[1:])) @ np.diff(t)
        vols = _kernel.line_volumes(v, r, alpha)
        assert np.allclose(vols, ref, rtol=1e-12, atol=1e-12 * max(1.0, float(ref.max())))
        assert np.array_equal(_kernel.line_structure(v, r, alpha)[0], vols)


def test_rates_match_the_column_packing_off_the_breakpoints():
    rng = np.random.default_rng(3)
    for v, r, alpha in _oracle_cases():
        t = crossing_times(v, alpha)
        times = rng.uniform(0.0, 1.2 * t[-1] + 1.0, 64)
        gap = np.min(np.abs(times[:, None] - t[None, :]), axis=1)
        times = times[gap >= 1e-9]
        assert np.allclose(_kernel.rates_at(v, r, alpha, times), _packed_at(v, r, alpha, times),
                           rtol=0.0, atol=1e-12)


def _exact_cases():
    """``generate_random(n <= 8)`` at its solved intercepts and at randomly
    scaled ones."""
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for seed in range(1, 6):
            jobs = generate_random(n, seed)
            alpha = linesched.solve_alpha(jobs)
            for a in (alpha, alpha * rng.uniform(0.5, 2.0, n)):
                yield jobs.volumes(), jobs.requirements(), a


def test_packing_matches_the_exact_rational_reference():
    # volumes within 16 n ulps of max(1, v_j); rates within n ulps (the
    # capacity left is a float sum of requirements) at the midpoint of every
    # exact interval wider than 16 ulps of its end
    eps = np.finfo(float).eps
    checked = 0
    for v, r, alpha in _exact_cases():
        n = v.size
        times, rates, volumes = exact.packing(v, r, alpha)
        for j, got in enumerate(_kernel.line_volumes(v, r, alpha)):
            assert abs(Fraction(got) - volumes[j]) <= 16 * n * eps * max(1.0, v[j])
        wide = [i for i in range(len(rates)) if times[i + 1] - times[i] > 16 * eps * times[i + 1]]
        mids = np.array([float((times[i] + times[i + 1]) / 2) for i in wide])
        got = _kernel.rates_at(v, r, alpha, mids)
        for col, i in enumerate(wide):
            assert all(abs(Fraction(got[j, col]) - rates[i][j]) <= n * eps for j in range(n))
        checked += len(wide)
    assert checked > 500


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
