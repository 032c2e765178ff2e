"""Priority packing, the construction behind line schedules and the slot LP.

Job j has the priority line ``d_j(t) = alpha_j - t / v_j``.  At each instant
the jobs with positive priority are packed in descending priority under the
unit resource, each taking min(r_j, capacity left), ties going to the larger
volume.  So until its zero ``alpha_j v_j`` job j runs at ``clip(1 - U_j, 0,
r_j)``, ``U_j`` the requirements of the lines above j's, which changes only
where a line crosses j's: one sorted row of events per job (``_rows``) is the
whole rule, and the only place that computes a crossing time.  ``prices``
reads gamma and beta off the rates.
The rows' terms that do not depend on alpha (``_pairs``) are kept for the
last few instances, since a Newton ascent packs one instance many times.
"""

from __future__ import annotations

import functools

import numpy as np


def prices(d, rates):
    """Dual prices of a packing: ``(gamma, beta, k)``, one column per instant.

    On a column whose rates sum to at least 1 - 1e-12, gamma is the priority
    of the lowest job with a positive rate, and ``k`` is that job; elsewhere
    gamma is 0 and ``k`` is -1.  ``beta = max(0, d - gamma)``.
    """
    full = rates.sum(axis=0) >= 1.0 - 1e-12
    k = np.where(full, np.where(rates > 0.0, d, np.inf).argmin(axis=0), -1)
    gamma = np.where(full, d[k, np.arange(d.shape[1])], 0.0)
    return gamma, np.maximum(d - gamma, 0.0), k


def _pairs(v, r):
    """The terms of ``_rows`` that do not depend on alpha, computed once per
    instance: ``(idx, divisor, base, neg_v, neg_r)``, all read-only.

    ``divisor[j, k] = 1 / v_j - 1 / v_k``, with ``inf`` for parallel lines,
    whose crossing times are then 0; ``base[j] = j * n`` is the flat offset
    of row j.
    """
    return _pair_terms(np.asarray(v, dtype=float).tobytes(),
                       np.asarray(r, dtype=float).tobytes())


@functools.lru_cache(maxsize=4)
def _pair_terms(v_bytes: bytes, r_bytes: bytes):
    v, r = np.frombuffer(v_bytes), np.frombuffer(r_bytes)
    n = v.size
    ds = 1.0 / v[:, None] - 1.0 / v
    terms = (np.arange(n), np.where(ds != 0.0, ds, np.inf),
             (np.arange(n) * n)[:, None], -v, -r)
    for term in terms:
        term.setflags(write=False)
    return terms


def _rows(v, r, alpha):
    """Event rows ``(times, order, rates, vols, flat, divisor)``.

    Row j: the crossings of line j in ``(0, alpha_j v_j)``, its zero, then
    ``inf``; ``order[j, i]`` is the line behind event i, and ``rates[j, i]``
    j's rate up to event i.  ``flat`` is ``order`` as flat indices into an
    n x n array, and ``divisor`` the term of ``_pairs`` the crossings used.
    """
    n = v.size
    idx, divisor, base, neg_v, neg_r = _pairs(v, r)
    zero = alpha * v
    zero_col = zero[:, None]
    with np.errstate(over="ignore"):               # an overflowing crossing is dead
        t = (alpha[:, None] - alpha) / divisor
    dead = (t <= 0.0) | (t >= zero_col)                # the diagonal too
    # the order just after t = 0: larger intercept, then flatter line, then index
    first = np.lexsort((idx, neg_v, -alpha))
    rank = np.empty(n, dtype=np.intp)
    rank[first] = idx
    # j's zero adds inf to U_j, so from there on j's rate is 0 and the steps
    # of the dead crossings, which sort after it, do not matter
    step = np.where(rank < rank[:, None], neg_r, r)    # line k passes line j
    step.ravel()[::n + 1] = np.inf
    np.putmask(t, dead, np.inf)
    t.ravel()[::n + 1] = zero
    order = t.argsort(axis=1)
    flat = order + base
    times = t.take(flat)
    used = np.empty((n, n + 1))                        # U_j just after t = 0, then
    used[first[:1], 0] = 0.0                           # after each event
    used[first[1:], 0] = r[first[:-1]].cumsum()
    step.take(flat, out=used[:, 1:])
    rates = used.cumsum(axis=1, out=used)
    np.subtract(1.0, rates, out=rates)
    np.maximum(rates, 0.0, out=rates)
    np.minimum(rates, np.where(zero > 0.0, r, 0.0)[:, None], out=rates)
    ends = np.zeros((n, n + 1))
    np.minimum(times, zero_col, out=ends[:, 1:])
    widths = ends[:, 1:] - ends[:, :-1]
    return times, order, rates, (rates[:, :-1] * widths).sum(axis=1), flat, divisor


def line_volumes(v, r, alpha):
    """Scheduled volume per job for the line schedule of ``alpha``."""
    return _rows(v, r, alpha)[3]


def line_structure(v, r, alpha):
    """Volumes of the line schedule of ``alpha`` and their exact Jacobian.

    For a fixed priority structure each event is affine in alpha: j's zero
    moves by ``v_j`` per unit of ``alpha_j``, its crossing with line k by
    ``1 / ds_jk`` per unit of ``alpha_j`` and ``-1 / ds_jk`` of ``alpha_k``,
    with ``ds_jk = 1 / v_j - 1 / v_k`` (``divisor`` in ``_pairs``).  Moving
    by dt, an event changes j's volume by dt times j's rate drop there.
    """
    n = v.size
    _, _, rates, vols, flat, divisor = _rows(v, r, alpha)
    drop = np.empty((n, n))                            # rate before minus after
    drop.put(flat, rates[:, :-1] - rates[:, 1:])
    per_ds = drop / divisor                            # a zero for parallel lines
    diagonal = per_ds.sum(axis=1) + drop.ravel()[::n + 1] * v
    # 0.0 - per_ds rather than -per_ds: every zero of the Jacobian is +0.0
    jac = np.subtract(0.0, per_ds, out=per_ds)
    jac.ravel()[::n + 1] = diagonal
    return vols, jac


def _read(events, rates, times):
    """``rates_at`` on the rows ``events`` and ``rates`` of ``_rows``."""
    out = np.empty((len(events), np.size(times)))
    for j, (row, rate) in enumerate(zip(events, rates)):
        rate.take(row.searchsorted(times, side="right"), out=out[j])
    return out


def rates_at(v, r, alpha, times):
    """Each job's rate on ``[t, next event)`` for each t in ``times``: at a
    crossing, the order just after it (the flatter line first)."""
    events, _, rates = _rows(v, r, alpha)[:3]
    return _read(events, rates, times)
