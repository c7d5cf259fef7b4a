"""Independent ground-truth counters.

Two unrelated methods live here so that a bug in one cannot mask a bug in the
closed forms: exhaustive enumeration (the pure-Python kernels of _kernels_py,
the only backend) and a generating-function oracle in a cyclic polynomial
ring.  A third, convolution of square-indicator vectors, double-checks the
square restriction.  All enumeration is budgeted up front: the state count
(the product of per-slot domain sizes) is charged before anything runs, so a
budget failure can never yield a wrong count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _kernels_py, characters
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
    """Number of tuples the enumeration for this instance visits."""
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
    given restriction.  One enumeration serves a whole sweep over b.

    Every slot ranges over the residues [0, n).  The strict-order count
    compares those representatives, so it depends on the choice of [0, n)
    unless all coefficients are equal (a strictly ordered tuple is then a
    k-subset of Z_n, whose sum does not depend on representatives).  The
    other restrictions do not depend on the representatives."""
    restriction = _normalize(restriction)
    if budget is None:
        budget = OracleBudget()
    budget.charge(state_count(spec, restriction))
    n = spec.n
    if restriction == "blocks":
        return _kernels_py.hist_blocks(n, spec.sizes, spec.coeffs)
    if restriction == "all":
        return _kernels_py.hist_all(n, spec.coeffs)
    if restriction == "strict-order":
        return _kernels_py.hist_strict(n, spec.coeffs)
    if restriction == "distinct":
        return _kernels_py.hist_distinct(n, spec.coeffs)
    domain = sorted(characters.square_profile(n).square_set)
    return _kernels_py.hist_domain(n, spec.coeffs, domain)


def oracle_count(
    spec: CongruenceSpec | BlockSpec,
    restriction: str = "all",
    budget: OracleBudget | None = None,
) -> int:
    """Exact count by exhaustive enumeration under the given restriction."""
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
    if restriction == "square":
        domain = sorted(characters.square_profile(spec.n).square_set)
    else:
        domain = list(range(spec.n))
    out: list[tuple[int, ...]] = []
    for tup in _product_tuples(domain, spec.k):
        if sum(a * x for a, x in zip(spec.coeffs, tup)) % spec.n == spec.b:
            out.append(tup)
            if limit is not None and len(out) >= limit:
                break
    return out


def find_restricted_solution(
    spec: CongruenceSpec,
    restriction: str = "square",
    budget: OracleBudget | None = None,
) -> tuple[int, ...] | None:
    """First solution in lexicographic order, or None when none exists."""
    hits = oracle_solutions(spec, restriction, budget, limit=1)
    return hits[0] if hits else None


def _product_tuples(domain: list[int], k: int):
    def rec(pos: int, prefix: tuple[int, ...]):
        for x in domain:
            if pos == k - 1:
                yield prefix + (x,)
            else:
                yield from rec(pos + 1, prefix + (x,))

    yield from rec(0, ())


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


# ----------------------------------------------------------------------
# Convolution oracle for the square restriction.


def square_convolution_histogram(n: int, coeffs) -> list[int]:
    """Counts of square-restricted solutions for every b, via k-1 cyclic
    convolutions of the per-slot vectors v_i[a_i*x] = [x square mod n]."""
    square_set = characters.square_profile(n).square_set
    acc = None
    for a in coeffs:
        vec = [0] * n
        for x in square_set:
            vec[a * x % n] += 1
        if acc is None:
            acc = vec
        else:
            nxt = [0] * n
            for r, c in enumerate(acc):
                if c:
                    for t, d in enumerate(vec):
                        if d:
                            nxt[(r + t) % n] += c * d
            acc = nxt
    return acc


def oracle_square_convolution(spec: CongruenceSpec) -> int:
    """Second independent square-solution oracle (see the histogram form)."""
    return square_convolution_histogram(spec.n, spec.coeffs)[spec.b]
