import numpy as np

from sharesched import _kernel


def _instances(count: int, zero_share: float):
    """Random (v, r, alpha) with n = 1..8 and a share of intercepts at 0."""
    rng = np.random.default_rng(7)
    for i in range(count):
        n = 1 + i % 8
        v = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
        r = 1.0 - rng.uniform(0.0, 0.95, n)
        alpha = rng.uniform(0.1, 3.0, n) * (rng.uniform(size=n) >= zero_share)
        yield v, r, alpha


def test_jacobian_matches_central_differences():
    h = 1e-7
    for v, r, alpha in _instances(80, zero_share=0.0):  # alpha - h stays valid
        jac = _kernel.line_structure(v, r, alpha)[3]
        for k in range(v.size):
            step = np.zeros(v.size)
            step[k] = h
            fd = (_kernel.line_volumes(v, r, alpha + step)
                  - _kernel.line_volumes(v, r, alpha - step)) / (2.0 * h)
            assert np.max(np.abs(fd - jac[:, k])) <= 1e-5 * max(1.0, float(np.max(np.abs(jac))))
