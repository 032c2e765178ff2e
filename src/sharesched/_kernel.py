"""Priority packing, the construction behind line schedules and the slot LP.

Job j has the priority line ``d_j(t) = alpha_j - t / v_j``.  At each instant
the jobs with positive priority are packed in descending priority under the
unit resource, each taking min(r_j, capacity left), ties going to the larger
volume.  The packing can change only at a breakpoint: a line zero
``alpha_j * v_j`` or a pairwise line crossing at positive time.  The capacity
price gamma and the cap prices beta are read off the same packing.

``breakpoints``, ``pack`` and ``prices`` are the only copies of these rules;
``line_volumes``, ``line_structure``, ``linesched`` and ``lp`` all use them.
Equal volumes need no special case: parallel lines never cross, and the
packing breaks equal priorities by volume and then by job order.
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


def pack(d, v, r):
    """Rates of the priority packing, one column per instant.

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


def _packed(v, r, alpha):
    """Breakpoints, per-interval rates and volumes of the line schedule."""
    times, a, b = breakpoints(v, alpha)
    mid = 0.5 * (times[:-1] + times[1:])
    rates = pack(alpha[:, None] - mid[None, :] / v[:, None], v, r)
    return times, a, b, rates, rates @ np.diff(times)


def line_volumes(v, r, alpha):
    """Scheduled volume per job for the line schedule of ``alpha``."""
    return _packed(v, r, alpha)[4]


def line_structure(v, r, alpha):
    """Full interval structure of the line schedule of ``alpha``.

    Returns ``(grid, rates, vols, jac)`` where ``grid`` is the sorted
    breakpoint vector, ``rates[j, i]`` the constant rate of job j on interval
    i, ``vols`` the scheduled volumes, and ``jac`` the exact Jacobian
    d vols / d alpha.  The Jacobian is exact because, for a fixed priority
    structure, rates are constant and every breakpoint is affine in alpha:
    a zero of line a moves with velocity v_a, a crossing of lines a and b
    with velocity +/- v_a v_b / (v_b - v_a).  A breakpoint moving by dt
    changes each job's volume by dt times its rate drop there.
    """
    grid, a, b, rates, vols = _packed(v, r, alpha)
    # rate just before each breakpoint minus the rate just after it
    drop = -np.diff(rates, axis=1, prepend=0.0, append=0.0)
    velocity = np.zeros((grid.size, v.size))
    zero = np.flatnonzero((a >= 0) & (b < 0))
    velocity[zero, a[zero]] = v[a[zero]]
    cross = np.flatnonzero(b >= 0)
    va, vb = v[a[cross]], v[b[cross]]
    s = va * vb / (vb - va)
    velocity[cross, a[cross]] = s
    velocity[cross, b[cross]] = -s
    return grid, rates, vols, drop @ velocity
