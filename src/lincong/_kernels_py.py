"""Enumeration kernels: the one backend of the enumeration oracle.

Each kernel walks every admissible tuple over the canonical residues [0, n)
and returns the histogram of a1*x1+...+ak*xk mod n over all of them, so one
enumeration serves every target b.  The enumerations are deliberately naive
nested descents so they stay easy to audit: these are the ground truth the
closed forms are judged against.
"""

from __future__ import annotations


def _steps(n: int, coeffs) -> list[list[int]]:
    return [[(a % n) * x % n for x in range(n)] for a in coeffs]


def hist_all(n: int, coeffs) -> list[int]:
    """Histogram over all tuples in [0, n)^k."""
    k = len(coeffs)
    hist = [0] * n
    steps = _steps(n, coeffs)

    def rec(pos: int, acc: int) -> None:
        step = steps[pos]
        if pos == k - 1:
            for x in range(n):
                s = acc + step[x]
                hist[s - n if s >= n else s] += 1
        else:
            for x in range(n):
                s = acc + step[x]
                rec(pos + 1, s - n if s >= n else s)

    rec(0, 0)
    return hist


def hist_strict(n: int, coeffs) -> list[int]:
    """Histogram over strictly decreasing tuples x1 > x2 > ... > xk of
    residues in [0, n).  The order is on these representatives, so the
    histogram depends on them unless all coefficients are equal."""
    k = len(coeffs)
    hist = [0] * n
    if k > n:
        return hist
    steps = _steps(n, coeffs)

    def rec(pos: int, limit: int, acc: int) -> None:
        step = steps[pos]
        need = k - 1 - pos
        if need == 0:
            for x in range(limit):
                s = acc + step[x]
                hist[s - n if s >= n else s] += 1
        else:
            for x in range(need, limit):
                s = acc + step[x]
                rec(pos + 1, x, s - n if s >= n else s)

    rec(0, n, 0)
    return hist


def hist_distinct(n: int, coeffs) -> list[int]:
    """Histogram over tuples with pairwise distinct coordinates."""
    k = len(coeffs)
    hist = [0] * n
    if k > n:
        return hist
    steps = _steps(n, coeffs)
    used = [False] * n

    def rec(pos: int, acc: int) -> None:
        step = steps[pos]
        if pos == k - 1:
            for x in range(n):
                if not used[x]:
                    s = acc + step[x]
                    hist[s - n if s >= n else s] += 1
        else:
            for x in range(n):
                if not used[x]:
                    used[x] = True
                    s = acc + step[x]
                    rec(pos + 1, s - n if s >= n else s)
                    used[x] = False

    rec(0, 0)
    return hist


def hist_blocks(n: int, sizes, coeffs) -> list[int]:
    """Histogram over tuples weakly decreasing inside each block; block i has
    sizes[i] coordinates sharing the coefficient coeffs[i]."""
    flat_coeffs = []
    fresh = []  # True where a new block starts (no upper bound from the left)
    for size, a in zip(sizes, coeffs):
        for j in range(size):
            flat_coeffs.append(a)
            fresh.append(j == 0)
    k = len(flat_coeffs)
    hist = [0] * n
    steps = _steps(n, flat_coeffs)

    def rec(pos: int, prev: int, acc: int) -> None:
        step = steps[pos]
        top = n if fresh[pos] else prev + 1
        if pos == k - 1:
            for x in range(top):
                s = acc + step[x]
                hist[s - n if s >= n else s] += 1
        else:
            for x in range(top):
                s = acc + step[x]
                rec(pos + 1, x, s - n if s >= n else s)

    rec(0, n - 1, 0)
    return hist


def hist_domain(n: int, coeffs, domain) -> list[int]:
    """Histogram over tuples whose coordinates all lie in ``domain``."""
    k = len(coeffs)
    hist = [0] * n
    values = [[(a % n) * x % n for x in domain] for a in coeffs]

    def rec(pos: int, acc: int) -> None:
        vals = values[pos]
        if pos == k - 1:
            for v in vals:
                s = acc + v
                hist[s - n if s >= n else s] += 1
        else:
            for v in vals:
                s = acc + v
                rec(pos + 1, s - n if s >= n else s)

    rec(0, 0)
    return hist
