"""Truncated power-series helper shared by ``bounds`` and ``gamma``.

It imports nothing, so neither module pays for the other's imports.
"""


def power_step(a: list, p: list, alpha: int):
    """n * [z^n] A**alpha for n = len(p), from A_0 = 1, A_1..A_n (``a``) and
    the known coefficients P_0..P_(n-1) of P = A**alpha (``p``), by Miller's
    recurrence n*P_n = sum_{k=1..n} ((alpha+1)*k - n) * A_k * P_(n-k)
    (Knuth, TAOCP vol. 2, 4.7).  The caller divides by n."""
    n = len(p)
    return sum(((alpha + 1) * k - n) * a[k] * p[n - k] for k in range(1, n + 1))
