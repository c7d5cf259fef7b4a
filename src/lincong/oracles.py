"""Independent ground-truth counters.

Two unrelated methods live here so that a bug in one cannot mask a bug in the
closed forms: exact histograms built by counting (cyclic convolution of
per-slot count vectors for all, square and blocks, and a transfer DP over the
values for strict order and distinct solutions) and a generating-function
oracle in a cyclic polynomial ring.  Every histogram is budgeted up front:
the number of tuples the restriction admits (state_count) is charged before
anything is built, so a budget failure can never yield a wrong count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import add

from . import characters
from .errors import ConsistencyError, DomainError
from .model import BlockSpec, CongruenceSpec, OracleBudget

RESTRICTIONS = ("all", "square", "strict-order", "distinct", "blocks")

_ALIASES = {"strict": "strict-order", "strict-order": "strict-order"}


def _normalize(restriction: str) -> str:
    r = _ALIASES.get(restriction, restriction)
    if r not in RESTRICTIONS:
        raise DomainError(f"unknown restriction {restriction!r}")
    return r


def state_count(spec: CongruenceSpec | BlockSpec, restriction: str = "all") -> int:
    """Number of tuples the restriction admits for this instance: the
    histogram's total, and what oracle_histogram charges to the budget."""
    restriction = _normalize(restriction)
    n = spec.n
    if restriction == "blocks":
        if not isinstance(spec, BlockSpec):
            raise DomainError("blocks restriction needs a BlockSpec")
        return math.prod(math.comb(n + ki - 1, ki) for ki in spec.sizes)
    if isinstance(spec, BlockSpec):
        raise DomainError(f"restriction {restriction!r} needs a CongruenceSpec")
    k = spec.k
    if restriction == "all":
        return n**k
    if restriction == "strict-order":
        return math.comb(n, k)
    if restriction == "distinct":
        return math.perm(n, k)
    return characters.square_profile(n).s ** k


def oracle_histogram(
    spec: CongruenceSpec | BlockSpec,
    restriction: str = "all",
    budget: OracleBudget | None = None,
) -> list[int]:
    """Counts for every target b at once (index b of the list), under the
    given restriction.  One histogram serves a whole sweep over b.

    all, square and blocks convolve one count vector per slot or block (a
    slot's vector counts its domain, [0, n) or the squares mod n, by
    residue; a block's vector is the z^size row of gf_table), and strict
    order and distinct solutions run one transfer DP over the values.
    state_count is charged to ``budget`` before any of them starts.

    Residues are represented in [0, n).  The strict-order count compares
    those representatives, so it depends on the choice of [0, n)
    unless all coefficients are equal (a strictly ordered tuple is then a
    k-subset of Z_n, whose sum does not depend on representatives).  The
    other restrictions do not depend on the representatives."""
    restriction = _normalize(restriction)
    if budget is None:
        budget = OracleBudget()
    budget.charge(state_count(spec, restriction))
    n = spec.n
    if restriction == "blocks":
        return _convolve(n, [
            gf_table(n, [a * x % n for x in range(n)], size, distinct=False).coeffs[size]
            for size, a in spec.blocks
        ])
    if restriction in ("all", "square"):
        domain = _domain(n, restriction)
        return _convolve(n, [_count_vector(n, a, domain) for a in spec.coeffs])
    return _value_dp(n, spec.coeffs, ordered=restriction == "strict-order")


def oracle_count(
    spec: CongruenceSpec | BlockSpec,
    restriction: str = "all",
    budget: OracleBudget | None = None,
) -> int:
    """Exact count under the given restriction (one entry of the histogram)."""
    return oracle_histogram(spec, restriction, budget)[spec.b % spec.n]


def oracle_solutions(
    spec: CongruenceSpec,
    restriction: str = "square",
    budget: OracleBudget | None = None,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """The solutions themselves in lexicographic order, for witness listings.
    Supports the unordered restrictions (every slot draws from one domain);
    counting under the ordered restrictions goes through the histograms."""
    restriction = _normalize(restriction)
    if restriction not in ("all", "square"):
        raise DomainError(f"solution listing not supported for {restriction!r}")
    if budget is None:
        budget = OracleBudget()
    budget.charge(state_count(spec, restriction))
    out: list[tuple[int, ...]] = []
    for tup in itertools.product(_domain(spec.n, restriction), repeat=spec.k):
        if sum(a * x for a, x in zip(spec.coeffs, tup)) % spec.n == spec.b:
            out.append(tup)
            if limit is not None and len(out) >= limit:
                break
    return out


def _domain(n: int, restriction: str):
    """The residues one slot ranges over, in increasing order: all of
    [0, n), or the squares mod n."""
    if restriction == "square":
        return sorted(characters.square_profile(n).square_set)
    return range(n)


def _count_vector(n: int, a: int, domain) -> list[int]:
    """v[r] = number of x in ``domain`` with a*x = r (mod n)."""
    vec = [0] * n
    for x in domain:
        vec[a * x % n] += 1
    return vec


def _convolve(n: int, vectors: list[list[int]]) -> list[int]:
    """Cyclic convolution of count vectors of length n: entry r counts the
    ways to pick one index per vector, weighted by its entries, with the
    indices summing to r mod n."""
    acc = vectors[0]
    for vec in vectors[1:]:
        nxt = [0] * n
        for t, d in enumerate(vec):
            if d:
                # nxt[(r + t) % n] += d * acc[r]: add acc rotated by t
                nxt = [x + d * y for x, y in zip(nxt, acc[n - t:] + acc[:n - t])]
        acc = nxt
    return acc


def _value_dp(n: int, coeffs, ordered: bool) -> list[int]:
    """Histogram over tuples of pairwise distinct residues in [0, n), or of
    strictly decreasing ones (x1 > x2 > ... > xk) when ``ordered``, by a
    transfer DP over the values w = n-1, ..., 0.

    A state is the nonempty bit mask of the positions that already hold a
    value above w, with the histogram of a1*x1+...+ak*xk over those
    positions.  At each w one free position of each state takes w; the
    states are read from a snapshot, so no tuple takes w twice.  Each
    one-position state 1 << i starts from the point mass: at each w it gains
    a single 1 at a_i*w mod n.  When ordered, the free position is the first
    one, so only position 0 is seeded and only the k prefix masks occur:
    O(k*n^2) time and O(k*n) memory.  Otherwise any free position may take
    w: O(k*2^k*n^2) time and O(2^k*n) memory."""
    k = len(coeffs)
    if k > n:
        return [0] * n
    states: dict[int, list[int]] = {}
    for w in range(n - 1, -1, -1):
        for mask, hist in list(states.items()):
            free = [i for i in range(k) if not mask >> i & 1]
            for i in free[:1] if ordered else free:
                t = coeffs[i] * w % n
                # entry r moves to (r + t) mod n
                moved = hist[n - t:] + hist[:n - t]
                grown = mask | 1 << i
                states[grown] = list(map(add, states[grown], moved)) if grown in states else moved
        # seeded after the transfers, so no other position joins it at w
        for i in range(1 if ordered else k):
            states.setdefault(1 << i, [0] * n)[coeffs[i] * w % n] += 1
    return states[(1 << k) - 1]


# ----------------------------------------------------------------------
# Generating-function oracle: coefficient extraction in Z[q]/(q^n - 1)[z].


@dataclass
class CyclicPoly:
    """Polynomial in z and q with q-exponents reduced mod n and z-degree
    truncated at ``z_cap``; coeffs[i][r] is the coefficient of z^i q^r."""

    n: int
    z_cap: int
    coeffs: list[list[int]] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 1 or self.z_cap < 0:
            raise DomainError("CyclicPoly needs n >= 1 and z_cap >= 0")
        if self.coeffs is None:
            self.coeffs = [[0] * self.n for _ in range(self.z_cap + 1)]
            self.coeffs[0][0] = 1

    def mul_one_minus_zq(self, a: int) -> None:
        """Multiply in place by (1 - z q^a)."""
        a %= self.n
        c = self.coeffs
        for i in range(self.z_cap, 0, -1):
            lower = c[i - 1]
            row = c[i]
            for r in range(self.n):
                row[r] -= lower[(r - a) % self.n]

    def mul_geometric(self, a: int) -> None:
        """Multiply in place by 1/(1 - z q^a) = sum_j z^j q^(a*j), truncated."""
        a %= self.n
        c = self.coeffs
        for i in range(1, self.z_cap + 1):
            lower = c[i - 1]
            row = c[i]
            for r in range(self.n):
                row[r] += lower[(r - a) % self.n]

    def coefficient(self, z_deg: int, q_exp: int) -> int:
        return self.coeffs[z_deg][q_exp % self.n]


def gf_table(n: int, parts, k: int, distinct: bool) -> CyclicPoly:
    """Product over the multiset ``parts`` of (1 - z q^a)^(+/-1) in the cyclic
    ring, truncated at z-degree k."""
    poly = CyclicPoly(n, k)
    for a in parts:
        if distinct:
            poly.mul_one_minus_zq(a)
        else:
            poly.mul_geometric(a)
    return poly


def gf_count(n: int, parts, k: int, b: int, distinct: bool) -> int:
    """Number of ways to pick k parts from ``parts`` (a multiset of residues)
    summing to b mod n: without repetition when ``distinct`` (selections of k
    distinct positions), with repetition otherwise.

    Reads the coefficient of z^k q^b in prod (1 - z q^a)^(-1), or in
    prod (1 - z q^a) times (-1)^k for the distinct case.
    """
    value = gf_table(n, parts, k, distinct).coefficient(k, b)
    if distinct and k % 2:
        value = -value
    if value < 0:
        raise ConsistencyError(f"negative coefficient {value} in the cyclic ring")
    return value
