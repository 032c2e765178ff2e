"""Exact-rational references for the package's float constructions.

Every float is an exact binary fraction, so in ``fractions.Fraction`` each
event of a priority packing, and each volume between two events, is exact.
This module imports nothing from ``sharesched``: a fault in the float code
cannot hide in the reference as well.
"""

from fractions import Fraction


def packing_events(v, alpha):
    """Sorted distinct event times of the priority packing: 0, each zero
    ``a_j v_j > 0``, and each crossing ``(a_j - a_k) / (1/v_j - 1/v_k) > 0``
    of two lines that are not parallel."""
    v, a = [Fraction(x) for x in v], [Fraction(x) for x in alpha]
    times = {Fraction(0)} | {a[j] * v[j] for j in range(len(v)) if a[j] > 0}
    for j in range(len(v)):
        for k in range(j + 1, len(v)):
            slope_gap = 1 / v[j] - 1 / v[k]
            if slope_gap and (a[j] - a[k]) / slope_gap > 0:
                times.add((a[j] - a[k]) / slope_gap)
    return sorted(times)


def packing_rates(v, r, alpha, t):
    """Each job's exact rate at time ``t``: the lines of positive priority
    ``a_j - t / v_j`` in descending priority, ties to the larger volume, then
    the lower index, each taking min(r_j, capacity left)."""
    v, r = [Fraction(x) for x in v], [Fraction(x) for x in r]
    d = [Fraction(a) - t / vj for a, vj in zip(alpha, v)]
    rates, left = [Fraction(0)] * len(v), Fraction(1)
    for j in sorted(range(len(v)), key=lambda j: (-d[j], -v[j], j)):
        if d[j] > 0:
            rates[j] = min(r[j], max(left, Fraction(0)))
            left -= r[j]
    return rates


def packing(v, r, alpha):
    """``(times, rates, volumes)``: the exact events, each job's rates on
    each interval between two events (read at its midpoint), and the
    volumes, each the sum of rate times width over the intervals."""
    times = packing_events(v, alpha)
    rates = [packing_rates(v, r, alpha, (lo + hi) / 2) for lo, hi in zip(times, times[1:])]
    widths = [hi - lo for lo, hi in zip(times, times[1:])]
    volumes = [sum((row[j] * w for row, w in zip(rates, widths)), Fraction(0))
               for j in range(len(v))]
    return times, rates, volumes
