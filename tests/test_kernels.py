"""The enumeration kernels behind the oracle: totals and degenerate sizes."""

import math

from lincong import _kernels_py as kernels


def test_histogram_totals():
    # the histogram total is exactly the advertised state count
    n, coeffs = 9, (1, 2, 4)
    assert sum(kernels.hist_all(n, coeffs)) == n ** len(coeffs)
    assert sum(kernels.hist_strict(n, coeffs)) == math.comb(n, len(coeffs))
    assert sum(kernels.hist_distinct(n, coeffs)) == math.perm(n, len(coeffs))
    sizes = (2, 3)
    assert sum(kernels.hist_blocks(n, sizes, (1, 2))) == math.comb(n + 1, 2) * math.comb(
        n + 2, 3
    )
    domain = [0, 1, 4, 7]
    assert sum(kernels.hist_domain(n, coeffs, domain)) == len(domain) ** len(coeffs)


def test_strict_more_vars_than_residues():
    assert kernels.hist_strict(3, (1, 1, 1, 1)) == [0, 0, 0]
    assert kernels.hist_distinct(2, (1, 1, 1)) == [0, 0]
