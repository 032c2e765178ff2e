"""Priority packing, the construction behind line schedules and the slot LP.

Job j has the priority line ``d_j(t) = alpha_j - t / v_j``.  At each instant
the jobs with positive priority are packed in descending priority under the
unit resource, each taking min(r_j, capacity left), ties going to the larger
volume.  So until its zero ``alpha_j v_j`` job j runs at ``clip(1 - U_j, 0,
r_j)``, ``U_j`` the requirements of the lines above j's, which changes only
where a line crosses j's: one sorted row of events per job (``_rows``) is the
whole rule.  ``breakpoints`` uses the rows' crossing expression, so its grid
refines every row exactly; ``prices`` reads gamma and beta off the rates.
"""

from __future__ import annotations

import numpy as np


def breakpoints(v, alpha):
    """Sorted times at which the packing of the lines of ``alpha`` can change.

    Returns ``(times, a, b)``: ``times[0] == 0`` with ``a = b = -1``; a zero
    of line j has ``a = j, b = -1``; a crossing of lines j < k at positive
    time has ``a = j, b = k``.
    """
    idx = np.arange(v.size)
    zeros = idx[alpha > 0.0]
    j, k = np.nonzero(idx[:, None] < idx)
    ds = 1.0 / v[j] - 1.0 / v[k]
    t = (alpha[j] - alpha[k]) / np.where(ds != 0.0, ds, np.inf)  # parallel: t = 0
    crossing = t > 0.0
    j, k, t = j[crossing], k[crossing], t[crossing]
    times = np.concatenate([[0.0], alpha[zeros] * v[zeros], t])
    a = np.concatenate([[-1], zeros, j])
    b = np.concatenate([[-1], np.full(zeros.size, -1), k])
    order = np.argsort(times, kind="stable")
    return times[order], a[order], b[order]


def prices(d, rates):
    """Dual prices of a packing: ``(gamma, beta, k)``, one column per instant.

    On a column whose rates sum to at least 1 - 1e-12, gamma is the priority
    of the lowest job with a positive rate, and ``k`` is that job; elsewhere
    gamma is 0 and ``k`` is -1.  ``beta = max(0, d - gamma)``.
    """
    full = rates.sum(axis=0) >= 1.0 - 1e-12
    k = np.where(full, np.argmin(np.where(rates > 0.0, d, np.inf), axis=0), -1)
    gamma = np.where(full, d[k, np.arange(d.shape[1])], 0.0)
    return gamma, np.maximum(d - gamma, 0.0), k


def _rows(v, r, alpha):
    """Event rows ``(times, order, ds, rates, vols)``.

    Row j: the crossings of line j in ``(0, alpha_j v_j)``, its zero, then
    ``inf``; ``order[j, i]`` is the line behind event i, ``ds[j, k] =
    1 / v_j - 1 / v_k``, and ``rates[j, i]`` j's rate up to event i.
    """
    n = v.size
    idx = np.arange(n)
    zero = alpha * v
    ds = 1.0 / v[:, None] - 1.0 / v
    t = (alpha[:, None] - alpha) / np.where(ds != 0.0, ds, np.inf)  # parallel: t = 0
    dead = (t <= 0.0) | (t >= zero[:, None])           # the diagonal too
    # the order just after t = 0: larger intercept, then flatter line, then index
    first = np.lexsort((idx, -v, -alpha))
    rank = np.argsort(first)
    step = np.where(rank < rank[:, None], -r, r)       # line k passes line j
    step[dead] = 0.0
    t[dead] = np.inf
    t[idx, idx] = zero
    order = np.argsort(t, axis=1)
    times = t[idx[:, None], order]
    start = np.zeros(n)                                # U_j just after t = 0
    start[first[1:]] = np.cumsum(r[first[:-1]])
    used = np.cumsum(np.column_stack([start, step[idx[:, None], order]]), axis=1)
    rates = np.clip(1.0 - used, 0.0, np.where(zero > 0.0, r, 0.0)[:, None])
    rates[:, 1:][times >= zero[:, None]] = 0.0         # ... and 0 from the zero on
    widths = np.diff(np.minimum(times, zero[:, None]), axis=1, prepend=0.0)
    return times, order, ds, rates, (rates[:, :-1] * widths).sum(axis=1)


def line_volumes(v, r, alpha):
    """Scheduled volume per job for the line schedule of ``alpha``."""
    return _rows(v, r, alpha)[4]


def line_structure(v, r, alpha):
    """Volumes of the line schedule of ``alpha`` and their exact Jacobian.

    For a fixed priority structure each event is affine in alpha: j's zero
    moves by ``v_j`` per unit of ``alpha_j``, its crossing with line k by
    ``1 / ds_jk`` per unit of ``alpha_j`` and ``-1 / ds_jk`` of ``alpha_k``.
    Moving by dt, an event changes j's volume by dt times j's rate drop there.
    """
    idx = np.arange(v.size)
    _, order, ds, rates, vols = _rows(v, r, alpha)
    drop = np.empty_like(ds)                           # rate before minus after
    drop[idx[:, None], order] = rates[:, :-1] - rates[:, 1:]
    per_ds = np.divide(drop, ds, out=np.zeros_like(ds), where=ds != 0.0)
    return vols, np.diag(per_ds.sum(axis=1) + drop[idx, idx] * v) - per_ds


def rates_at(v, r, alpha, times):
    """Each job's rate on ``[t, next event)`` for each t in ``times``: at a
    crossing, the order just after it (the flatter line first)."""
    events, _, _, rates, _ = _rows(v, r, alpha)
    return np.stack([rates[j, np.searchsorted(events[j], times, side="right")]
                     for j in range(v.size)])
